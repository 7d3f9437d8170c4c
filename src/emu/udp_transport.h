// Real-socket transport: every node owns a non-blocking UDP socket bound to
// an ephemeral port on 127.0.0.1, and a broadcast is one batched sendmmsg()
// (one sendto() per peer on non-Linux hosts).
//
// Ephemeral ports (bind to port 0, read the assignment back) keep parallel
// test runs from colliding — `ctest -j` safe by construction.  Senders are
// identified by their bound source port, so receivers need no framing beyond
// the wire header itself.  Loss on loopback is rare but real (socket-buffer
// overflow); overflow shows up as a drop, exactly like a full inbox on the
// loopback transport.
//
// Sockets are per *node*, never per session: the session mux (DESIGN.md §16)
// runs many sessions' runtimes behind each socket, so the receive path
// drains whole batches per syscall (recvmmsg on Linux).  UDP offers no
// readiness set (the base make_readiness), so the mux polls every socket
// every tick; an idle socket costs one recvmmsg that finds nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "emu/transport.h"

namespace omnc::emu {

struct UdpConfig {
  /// SO_RCVBUF request per socket; loopback bursts of coded packets
  /// overflow the default on some kernels.  The granted size is read back
  /// with getsockopt and surfaced in stats().rcvbuf_effective_bytes (a
  /// shortfall is logged once), so receive-drop mysteries are diagnosable.
  int recv_buffer_bytes = 1 << 20;

  /// Per-datagram receive buffer for poll().  A datagram larger than this
  /// is detected via MSG_TRUNC and discarded whole (counted in
  /// stats().datagrams_truncated and reported through
  /// TransportObserver::on_truncated) instead of feeding a sheared prefix
  /// to the frame parser.  The default covers the largest UDP datagram;
  /// tests shrink it to exercise the truncation path.
  std::size_t recv_chunk_bytes = 65536;

  /// Datagrams moved per recvmmsg()/sendmmsg() syscall on Linux (the
  /// portable fallback moves one at a time regardless).  Each node's
  /// receive scratch holds batch_datagrams x recv_chunk_bytes bytes.
  int batch_datagrams = 32;

  /// Minimum virtual seconds between recvfrom-error log lines (the count in
  /// stats().socket_errors is always exact; only the logging is limited).
  double error_log_interval_s = 5.0;

  /// Test-only fault seam: when > 0, every debug_eintr_every-th receive
  /// syscall attempt fails with EINTR *instead of* touching the socket.
  /// Real signal delivery mid-drain is timing-dependent and unforceable in
  /// a unit test; this makes the retry path (a signal must not strand
  /// queued datagrams until the next tick) deterministic.  0 disables.
  int debug_eintr_every = 0;
};

class UdpTransport final : public Transport {
 public:
  /// Opens one bound socket per node; throws std::runtime_error when the
  /// loopback sockets cannot be created (no such environment is expected in
  /// CI, but the failure must be clean).
  explicit UdpTransport(int nodes, UdpConfig config = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  int nodes() const override { return n_; }
  void send(int from, std::span<const std::uint8_t> frame) override;
  std::size_t poll(int to, const Handler& handler) override;
  TransportStats stats() const override;

  /// The ephemeral port node `node` is bound to (diagnostics / tests).
  std::uint16_t port_of(int node) const;

 private:
  /// Per-node batched-receive scratch (Linux): batch_datagrams slices of one
  /// contiguous buffer plus the mmsghdr/iovec/sockaddr arrays recvmmsg
  /// fills.  Built once at construction; poll(i) runs only on node i's
  /// thread (Transport contract), so no locking and no per-poll allocation.
  struct RecvBatch;
  /// Per-node batched-send scratch (Linux): one mmsghdr per peer, all
  /// sharing the frame's bytes as their single iovec.
  struct SendBatch;

  /// Common per-datagram accounting + delivery for both receive paths.
  void accept_datagram(int to, std::uint16_t src_port, std::size_t claimed,
                       std::span<const std::uint8_t> bytes,
                       const Handler& handler, std::size_t* delivered);
  /// Counts + rate-limit-logs an unexpected receive failure.  `err` is the
  /// errno captured immediately after the failed syscall — later calls in
  /// here (clock_now, CAS) may clobber the global.
  void record_recv_error(int to, int err);
  /// Test seam: true when this receive attempt should fail with EINTR.
  bool inject_eintr();

  int n_;
  UdpConfig config_;
  std::vector<int> fds_;
  std::vector<std::uint16_t> ports_;
  std::unordered_map<std::uint16_t, int> port_to_node_;
  /// Per-node datagram buffer for the portable (non-batched) receive path,
  /// allocated once at construction.
  std::vector<std::vector<std::uint8_t>> recv_buffers_;
  std::vector<RecvBatch> recv_batches_;
  std::vector<SendBatch> send_batches_;

  std::atomic<std::size_t> frames_sent_{0};
  std::atomic<std::size_t> bytes_sent_{0};
  std::atomic<std::size_t> copies_dropped_{0};
  std::atomic<std::size_t> copies_delivered_{0};
  std::atomic<std::size_t> datagrams_truncated_{0};
  std::atomic<std::size_t> socket_errors_{0};
  std::atomic<std::size_t> eintr_retries_{0};
  std::atomic<std::uint64_t> recv_attempts_{0};  // drives the EINTR injector
  /// Virtual time (bound clock) when the next recvfrom-error line may log.
  std::atomic<double> next_error_log_{0.0};
  std::size_t rcvbuf_effective_ = 0;  // min granted SO_RCVBUF across sockets
};

}  // namespace omnc::emu
