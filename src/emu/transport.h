// Transport seam of the Drift-substitute emulation runtime.
//
// The slot simulator calls protocol methods in-process; the emulation layer
// instead moves *serialized wire frames* (src/wire) between nodes through a
// Transport.  A Transport is a broadcast channel: send(from, bytes) offers
// one frame to every other node, and each copy independently survives or
// dies (Bernoulli loss on the loopback backend, real socket behaviour on
// UDP).  Receivers drain their inbox with poll(); the transport never
// interprets frame contents.
//
// Threading contract: send(i, ...) and poll(i, ...) are called only from
// node i's thread, but different nodes call concurrently; implementations
// must be safe under that interleaving.  Observer callbacks may fire on any
// node's thread — observers serialize internally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "time/clock.h"

namespace omnc::emu {

/// Channel-level counters, aggregated over all nodes.
struct TransportStats {
  std::size_t frames_sent = 0;       // broadcasts offered to the channel
  std::size_t bytes_sent = 0;        // serialized bytes of those broadcasts
  std::size_t copies_dropped = 0;    // per-receiver copies lost in transit
  std::size_t copies_delivered = 0;  // per-receiver copies handed to poll()
  std::size_t datagrams_truncated = 0;  // UDP: frame larger than recv buffer
  std::size_t socket_errors = 0;        // UDP: unexpected recvfrom failures
  std::size_t eintr_retries = 0;        // UDP: recv/send retried after EINTR
  std::size_t rcvbuf_effective_bytes = 0;  // UDP: granted SO_RCVBUF (min
                                           // across sockets); 0 elsewhere

  bool operator==(const TransportStats&) const = default;
};

/// One fault-injection decision, as emitted by FaultTransport.  `link_copy`
/// is the 0-based arrival index on the directed link (from, to) the decision
/// applied to — a seed-deterministic coordinate, unlike wall time.
struct FaultRecord {
  enum class Kind : std::uint8_t {
    kLoss,       // Gilbert–Elliott channel killed the copy
    kReorder,    // the copy was held back past later arrivals
    kDuplicate,  // an extra copy was delivered
    kPartition,  // the copy crossed a scheduled partition and was cut
    kBlackout,   // the copy touched a blacked-out (crashed) node
  };
  Kind kind = Kind::kLoss;
  int from = -1;
  int to = -1;
  std::size_t bytes = 0;
  std::uint64_t link_copy = 0;
  double time = 0.0;  // injector virtual seconds since run start
  /// The affected frame's bytes, when the injector still holds them (valid
  /// only for the duration of the observer callback; may be empty).  Lets
  /// the obs layer peek the trace tag of a killed copy and close its span.
  std::span<const std::uint8_t> frame;
};

/// Taps every channel event; used to route transport activity into the obs
/// layer (trace families emu_send / emu_drop / emu_deliver and the
/// emu_fault_* family from FaultTransport).  Callbacks may arrive
/// concurrently from different node threads.
class TransportObserver {
 public:
  virtual ~TransportObserver() = default;
  virtual void on_send(int from, std::size_t bytes) = 0;
  /// A per-receiver copy died in transit.  `frame` is the copy's bytes,
  /// valid only for the duration of the callback — observers peek (e.g. the
  /// wire trace tag, to emit a span drop event) but must not keep the span.
  virtual void on_drop(int from, int to,
                       std::span<const std::uint8_t> frame) = 0;
  virtual void on_deliver(int from, int to, std::size_t bytes) = 0;
  /// A fault injector made a decision (loss/reorder/dup/partition/blackout).
  virtual void on_fault(const FaultRecord& record) { (void)record; }
  /// A datagram arrived larger than the receive buffer and was discarded
  /// whole instead of being fed to the parser as a sheared prefix.
  virtual void on_truncated(int from, int to, std::size_t claimed_bytes) {
    (void)from;
    (void)to;
    (void)claimed_bytes;
  }
};

/// Per-node readiness over a subset of a transport's nodes, created by
/// Transport::make_readiness.  Each mux shard owns one and asks it about one
/// node at a time, right before it would poll that node, so a copy sent by a
/// node stepped earlier in the same tick still arrives in that tick.  Purely
/// an optimization: polling every node without a readiness object is always
/// correct.
class TransportReadiness {
 public:
  virtual ~TransportReadiness() = default;

  /// Whether poll(node) might deliver a frame now, for one watched node.
  /// False is a promise that it would deliver nothing, so the caller may
  /// skip the poll; true promises nothing (a copy may be queued but not yet
  /// due).  The base answer is always true: transports without an exact
  /// per-node count are polled every time.
  virtual bool pending(int node) {
    (void)node;
    return true;
  }
};

class Transport {
 public:
  /// Receives one delivered frame; `from` is the sender's node index.
  using Handler =
      std::function<void(int from, std::span<const std::uint8_t> bytes)>;

  virtual ~Transport() = default;

  virtual int nodes() const = 0;

  /// Broadcasts one serialized frame from node `from` to every other node.
  virtual void send(int from, std::span<const std::uint8_t> frame) = 0;

  /// Delivers every frame currently due for node `to`, in arrival order.
  /// Returns the number delivered.  The handler may call send() (frame
  /// forwarding) — implementations must not hold locks across it.
  virtual std::size_t poll(int to, const Handler& handler) = 0;

  virtual TransportStats stats() const = 0;

  /// Attaches the run's virtual clock (the session mux calls this before any
  /// traffic; nullptr detaches).  All time-dependent transport behaviour —
  /// delay queues, fault schedules, event timestamps — reads this clock, so
  /// every layer of a run agrees on "now".  Decorators forward to the
  /// transport they wrap.
  virtual void bind_clock(const vtime::Clock* clock) { clock_ = clock; }

  /// Builds a readiness set watching `nodes` (each owned by the calling
  /// shard), or nullptr when the transport has no exact per-node answer —
  /// the base implementation — in which case callers poll every node each
  /// tick.  The returned object is only used from the creating thread and
  /// must not outlive the transport.
  virtual std::unique_ptr<TransportReadiness> make_readiness(
      std::span<const int> nodes) {
    (void)nodes;
    return nullptr;
  }

  /// `observer` must outlive the transport (or be reset to nullptr first).
  void set_observer(TransportObserver* observer) { observer_ = observer; }

 protected:
  /// Virtual seconds since run start; 0.0 when no clock is bound (traffic
  /// outside a mux run, e.g. direct transport unit tests).
  double clock_now() const { return clock_ ? clock_->now() : 0.0; }

  TransportObserver* observer_ = nullptr;
  const vtime::Clock* clock_ = nullptr;
};

}  // namespace omnc::emu
