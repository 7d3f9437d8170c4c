// recvmmsg/sendmmsg need _GNU_SOURCE on glibc; g++ predefines it, but the
// build runs with extensions off, so be explicit for other toolchains.
#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE
#endif

#include "emu/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/assert.h"
#include "common/logging.h"
#include "wire/frame.h"

namespace omnc::emu {
namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

#if defined(__linux__)

struct UdpTransport::RecvBatch {
  std::vector<std::uint8_t> storage;  // batch_datagrams x recv_chunk_bytes
  std::vector<mmsghdr> headers;
  std::vector<iovec> iovs;
  std::vector<sockaddr_in> sources;

  void init(int batch, std::size_t chunk_bytes) {
    const std::size_t n = static_cast<std::size_t>(batch);
    storage.resize(n * chunk_bytes);
    headers.resize(n);
    iovs.resize(n);
    sources.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      iovs[i].iov_base = storage.data() + i * chunk_bytes;
      iovs[i].iov_len = chunk_bytes;
      headers[i] = mmsghdr{};
      headers[i].msg_hdr.msg_name = &sources[i];
      headers[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      headers[i].msg_hdr.msg_iov = &iovs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
    }
  }

  /// recvmmsg overwrites namelen/flags per call; restore before reuse.
  void rearm() {
    for (std::size_t i = 0; i < headers.size(); ++i) {
      headers[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      headers[i].msg_hdr.msg_flags = 0;
      headers[i].msg_len = 0;
    }
  }
};

struct UdpTransport::SendBatch {
  std::vector<mmsghdr> headers;  // one per peer, sharing the frame iovec
  std::vector<iovec> iovs;
  std::vector<sockaddr_in> dests;
  std::vector<int> peers;  // node id per slot, for drop attribution

  void init(int peers_max) {
    const std::size_t n = static_cast<std::size_t>(peers_max);
    headers.resize(n);
    iovs.resize(n);
    dests.resize(n);
    peers.resize(n);
  }
};

#else

struct UdpTransport::RecvBatch {};
struct UdpTransport::SendBatch {};

#endif  // defined(__linux__)

UdpTransport::UdpTransport(int nodes, UdpConfig config)
    : n_(nodes), config_(config) {
  OMNC_ASSERT(n_ > 0);
  OMNC_ASSERT(config_.batch_datagrams > 0);
  fds_.resize(static_cast<std::size_t>(n_), -1);
  ports_.resize(static_cast<std::size_t>(n_), 0);
  for (int i = 0; i < n_; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) throw std::runtime_error("UdpTransport: socket() failed");
    fds_[static_cast<std::size_t>(i)] = fd;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      throw std::runtime_error("UdpTransport: O_NONBLOCK failed");
    }
    const int set_rc =
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &config_.recv_buffer_bytes,
                     sizeof(config_.recv_buffer_bytes));
    // Verify what was actually granted: the kernel clamps silently (and
    // Linux reports the doubled bookkeeping value), so receive-drop
    // mysteries need the effective size, not the request.
    int granted = 0;
    socklen_t granted_len = sizeof(granted);
    if (::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &granted, &granted_len) != 0) {
      granted = 0;
    }
    if (set_rc != 0 || granted < config_.recv_buffer_bytes) {
      OMNC_LOG_WARN("UdpTransport: SO_RCVBUF request %d granted %d on node %d",
                    config_.recv_buffer_bytes, granted, i);
    }
    const std::size_t effective =
        granted > 0 ? static_cast<std::size_t>(granted) : 0;
    rcvbuf_effective_ = i == 0 ? effective
                               : std::min(rcvbuf_effective_, effective);
    sockaddr_in addr = loopback_addr(0);  // ephemeral: the kernel picks
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      throw std::runtime_error("UdpTransport: bind(127.0.0.1:0) failed");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      throw std::runtime_error("UdpTransport: getsockname failed");
    }
    ports_[static_cast<std::size_t>(i)] = ntohs(bound.sin_port);
    port_to_node_[ports_[static_cast<std::size_t>(i)]] = i;
  }
#if defined(__linux__)
  recv_batches_.resize(static_cast<std::size_t>(n_));
  send_batches_.resize(static_cast<std::size_t>(n_));
  for (auto& batch : recv_batches_) {
    batch.init(config_.batch_datagrams, config_.recv_chunk_bytes);
  }
  for (auto& batch : send_batches_) batch.init(std::max(n_ - 1, 1));
#else
  recv_buffers_.resize(static_cast<std::size_t>(n_));
  for (auto& buffer : recv_buffers_) buffer.resize(config_.recv_chunk_bytes);
#endif
}

UdpTransport::~UdpTransport() {
  for (const int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

std::uint16_t UdpTransport::port_of(int node) const {
  OMNC_ASSERT(node >= 0 && node < n_);
  return ports_[static_cast<std::size_t>(node)];
}

void UdpTransport::send(int from, std::span<const std::uint8_t> frame) {
  OMNC_ASSERT(from >= 0 && from < n_);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(frame.size(), std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->on_send(from, frame.size());
  const int fd = fds_[static_cast<std::size_t>(from)];
#if defined(__linux__)
  // One sendmmsg per broadcast: every peer's copy shares the frame bytes as
  // its single iovec, so a fan-out to n-1 neighbours is one syscall instead
  // of n-1.  send(from) runs only on node `from`'s thread (Transport
  // contract), so the per-node scratch needs no lock.
  SendBatch& batch = send_batches_[static_cast<std::size_t>(from)];
  int targets = 0;
  for (int to = 0; to < n_; ++to) {
    if (to == from) continue;
    const std::size_t slot = static_cast<std::size_t>(targets);
    batch.dests[slot] = loopback_addr(ports_[static_cast<std::size_t>(to)]);
    batch.peers[slot] = to;
    batch.iovs[slot].iov_base = const_cast<std::uint8_t*>(frame.data());
    batch.iovs[slot].iov_len = frame.size();
    batch.headers[slot] = mmsghdr{};
    batch.headers[slot].msg_hdr.msg_name = &batch.dests[slot];
    batch.headers[slot].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    batch.headers[slot].msg_hdr.msg_iov = &batch.iovs[slot];
    batch.headers[slot].msg_hdr.msg_iovlen = 1;
    ++targets;
  }
  int done = 0;
  while (done < targets) {
    const int sent =
        ::sendmmsg(fd, batch.headers.data() + done, targets - done, 0);
    if (sent < 0 && errno == EINTR) {
      eintr_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (sent <= 0) {
      // The kernel refused the rest of the batch (ENOBUFS / EWOULDBLOCK on
      // a saturated loopback): those copies are lost, which is the same
      // contract a lossy channel gives the protocol.
      for (int i = done; i < targets; ++i) {
        copies_dropped_.fetch_add(1, std::memory_order_relaxed);
        if (observer_ != nullptr) {
          observer_->on_drop(from, batch.peers[static_cast<std::size_t>(i)],
                             frame);
        }
      }
      return;
    }
    for (int i = done; i < done + sent; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i);
      if (batch.headers[slot].msg_len != frame.size()) {
        copies_dropped_.fetch_add(1, std::memory_order_relaxed);
        if (observer_ != nullptr) {
          observer_->on_drop(from, batch.peers[slot], frame);
        }
      }
    }
    done += sent;
  }
#else
  for (int to = 0; to < n_; ++to) {
    if (to == from) continue;
    const sockaddr_in addr =
        loopback_addr(ports_[static_cast<std::size_t>(to)]);
    ssize_t sent = -1;
    for (;;) {
      sent = ::sendto(fd, frame.data(), frame.size(), 0,
                      reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
      if (sent < 0 && errno == EINTR) {
        eintr_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      break;
    }
    if (sent < 0 || static_cast<std::size_t>(sent) != frame.size()) {
      // EWOULDBLOCK / ENOBUFS on a saturated loopback: the copy is lost,
      // which is the same contract a lossy channel gives the protocol.
      copies_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (observer_ != nullptr) observer_->on_drop(from, to, frame);
    }
  }
#endif
}

void UdpTransport::accept_datagram(int to, std::uint16_t src_port,
                                   std::size_t claimed,
                                   std::span<const std::uint8_t> bytes,
                                   const Handler& handler,
                                   std::size_t* delivered) {
  const auto it = port_to_node_.find(src_port);
  const int from = it != port_to_node_.end() ? it->second : -1;
  if (claimed > bytes.size()) {
    // Truncated datagram: the kernel kept only bytes.size() of it.  Feed
    // nothing to the parser — a sheared prefix is indistinguishable from
    // corruption — and count it as its own failure reason.
    datagrams_truncated_.fetch_add(1, std::memory_order_relaxed);
    if (observer_ != nullptr) observer_->on_truncated(from, to, claimed);
    return;
  }
  if (from < 0) {
    // A stray datagram from outside the harness; drop it.
    copies_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (observer_ != nullptr) {
      observer_->on_drop(-1, to, bytes.first(claimed));
    }
    return;
  }
  copies_delivered_.fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->on_deliver(from, to, claimed);
  ++*delivered;
  handler(from, bytes.first(claimed));
}

void UdpTransport::record_recv_error(int to, int err) {
  // Count it and log at most once per error_log_interval_s of *virtual*
  // time, so a dead socket is visible rather than indistinguishable from
  // silence.  The window runs on the bound vtime::Clock — under warp/det
  // clocks a wall-time window would either flood (warp compresses hours
  // into seconds) or never reopen.
  socket_errors_.fetch_add(1, std::memory_order_relaxed);
  const double now = clock_now();
  double window = next_error_log_.load(std::memory_order_relaxed);
  if (now >= window &&
      next_error_log_.compare_exchange_strong(
          window, now + config_.error_log_interval_s,
          std::memory_order_relaxed)) {
    OMNC_LOG_WARN(
        "UdpTransport: recv failed on node %d: %s "
        "(rate-limited; further errors counted in stats)",
        to, std::strerror(err));
  }
}

bool UdpTransport::inject_eintr() {
  if (config_.debug_eintr_every <= 0) return false;
  const std::uint64_t attempt =
      recv_attempts_.fetch_add(1, std::memory_order_relaxed) + 1;
  return attempt % static_cast<std::uint64_t>(config_.debug_eintr_every) == 0;
}

std::size_t UdpTransport::poll(int to, const Handler& handler) {
  OMNC_ASSERT(to >= 0 && to < n_);
  const int fd = fds_[static_cast<std::size_t>(to)];
  std::size_t delivered = 0;
#if defined(__linux__)
  // Batched drain: one recvmmsg moves up to batch_datagrams frames out of
  // the kernel per syscall.  MSG_TRUNC makes each msg_len report the
  // datagram's *full* length even when it exceeds its buffer slice, so
  // oversized datagrams are detectable instead of silently arriving as a
  // sheared prefix that happens to parse as garbage.  The scratch is this
  // node's persistent batch — no allocation per poll.
  RecvBatch& batch = recv_batches_[static_cast<std::size_t>(to)];
  const unsigned vlen = static_cast<unsigned>(batch.headers.size());
  for (;;) {
    int got = -1;
    if (inject_eintr()) {
      errno = EINTR;
    } else {
      batch.rearm();
      got = ::recvmmsg(fd, batch.headers.data(), vlen, MSG_TRUNC, nullptr);
    }
    if (got < 0) {
      // Capture errno before any other call can clobber it — clock_now()
      // and the logging CAS below both run library code.
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) break;
      if (err == EINTR) {
        // A signal interrupted the drain; the queued datagrams are still
        // there.  Treating this as "drain complete" would strand them until
        // the next tick — retry instead.
        eintr_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      record_recv_error(to, err);
      break;  // stop draining this round, keep running
    }
    for (int i = 0; i < got; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i);
      accept_datagram(
          to, ntohs(batch.sources[slot].sin_port),
          static_cast<std::size_t>(batch.headers[slot].msg_len),
          std::span<const std::uint8_t>(
              static_cast<const std::uint8_t*>(batch.iovs[slot].iov_base),
              batch.iovs[slot].iov_len),
          handler, &delivered);
    }
    // A short batch means the queue was empty when recvmmsg returned; a
    // full one may have more behind it.
    if (static_cast<unsigned>(got) < vlen) break;
  }
#else
  // Portable fallback: one datagram per recvfrom.
  std::vector<std::uint8_t>& buffer =
      recv_buffers_[static_cast<std::size_t>(to)];
  for (;;) {
    sockaddr_in src{};
    socklen_t len = sizeof(src);
    ssize_t got = -1;
    if (inject_eintr()) {
      errno = EINTR;
    } else {
      got = ::recvfrom(fd, buffer.data(), buffer.size(), MSG_TRUNC,
                       reinterpret_cast<sockaddr*>(&src), &len);
    }
    if (got < 0) {
      const int err = errno;  // capture before clock_now()/CAS can clobber
      if (err == EAGAIN || err == EWOULDBLOCK) break;
      if (err == EINTR) {
        eintr_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      record_recv_error(to, err);
      break;  // stop draining this round, keep running
    }
    accept_datagram(to, ntohs(src.sin_port), static_cast<std::size_t>(got),
                    std::span<const std::uint8_t>(buffer.data(), buffer.size()),
                    handler, &delivered);
  }
#endif
  return delivered;
}

TransportStats UdpTransport::stats() const {
  TransportStats stats;
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  stats.copies_dropped = copies_dropped_.load(std::memory_order_relaxed);
  stats.copies_delivered = copies_delivered_.load(std::memory_order_relaxed);
  stats.datagrams_truncated =
      datagrams_truncated_.load(std::memory_order_relaxed);
  stats.socket_errors = socket_errors_.load(std::memory_order_relaxed);
  stats.eintr_retries = eintr_retries_.load(std::memory_order_relaxed);
  stats.rcvbuf_effective_bytes = rcvbuf_effective_;
  return stats;
}

}  // namespace omnc::emu
