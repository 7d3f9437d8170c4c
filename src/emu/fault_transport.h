// Deterministic fault injection for the emulation runtime.
//
// FaultTransport decorates any Transport backend and subjects every
// per-receiver copy to a scripted adversary: Gilbert–Elliott burst loss,
// reordering, duplication, latency jitter, scheduled link partitions, and
// node blackouts (crash/restart windows).  The paper's Drift testbed — and
// the redundancy study of Ploumidis et al. (arXiv:1309.7881) — break
// protocols with exactly these conditions, not with the benign i.i.d. loss
// the loopback transport models.
//
// Determinism: every random decision flows from one plan seed through a
// forked per-directed-link Rng stream, and the per-copy draw order is fixed
// (GE transition, GE loss, duplicate, reorder, jitter — skipping only
// features the plan leaves disabled for that link).  The fate of the k-th
// copy arriving on link (i, j) is therefore a pure function of
// (seed, i, j, k), independent of wall-clock interleaving.  Time-windowed
// faults (partitions, blackouts) consume no randomness at all.  Fault
// decisions are emitted as FaultRecords through TransportObserver::on_fault
// and become the emu_fault_* trace family (floss / freord / fdup / fpart /
// fblack).
//
// Interception happens on the receive path (inside poll), so the injector
// works identically over the in-memory loopback and real UDP sockets; only
// sender-side blackouts act inside send().  Threading follows the Transport
// contract: per-receiver state (GE chains, hold queues) is only touched from
// that receiver's thread, counters are atomic, and handlers run lock-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "emu/transport.h"
#include "protocols/metrics_bus.h"

namespace omnc::emu {

/// Two-state Markov (Gilbert–Elliott) loss channel.  The chain starts in the
/// good state and advances once per arriving copy.
struct GilbertElliott {
  double p_good_bad = 0.0;  // P(good -> bad) per copy
  double p_bad_good = 1.0;  // P(bad -> good) per copy
  double loss_good = 0.0;   // loss probability while good
  double loss_bad = 1.0;    // loss probability while bad

  bool enabled() const { return p_good_bad > 0.0 || loss_good > 0.0; }

  /// Stationary mean loss rate pi_g * loss_g + pi_b * loss_b.
  double mean_loss() const;
};

/// Fault configuration for one directed link pattern; from/to may be -1
/// (wildcard).  Later entries in FaultPlan::links override earlier ones for
/// the links they match.
struct LinkFault {
  int from = -1;
  int to = -1;
  GilbertElliott ge;
  double duplicate_p = 0.0;     // deliver an extra immediate copy
  double reorder_p = 0.0;       // hold the copy back by reorder_hold_s
  double reorder_hold_s = 0.05;  // virtual seconds a reordered copy waits
  double jitter_s = 0.0;         // extra uniform delay in [0, jitter_s)
};

/// All links with exactly one endpoint in `isolated` are cut during
/// [start_s, end_s) of injector time.
struct Partition {
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<int> isolated;
};

/// Node crash window: during [start_s, end_s) the node neither sends nor
/// receives (its protocol state survives; catching up afterwards is the
/// resync path's job).
struct Blackout {
  int node = -1;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// A complete fault scenario.  Scriptable from a one-line spec:
///
///   spec      := directive (';' directive)*   |   preset-name
///   directive := 'seed=' N
///              | 'ge=' LINK ':' pgb ',' pbg ',' loss_g ',' loss_b
///              | 'loss=' LINK ':' p              (i.i.d. shorthand)
///              | 'dup=' LINK ':' p
///              | 'reorder=' LINK ':' p ',' hold_s
///              | 'jitter=' LINK ':' seconds
///              | 'partition=' start '-' end ':' node (',' node)*
///              | 'blackout=' node ':' start '-' end
///   LINK      := '*' | from '-' to              (from/to: index or '*')
///
/// Example: "seed=7; ge=*:0.1,0.3,0.02,0.85; blackout=1:2.5-4.5".
/// Presets: "burst", "jitter", "partition", "blackout", "chaos" — the
/// scenarios the chaos soak sweeps (see preset_names()).
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<LinkFault> links;
  std::vector<Partition> partitions;
  std::vector<Blackout> blackouts;

  bool empty() const {
    return links.empty() && partitions.empty() && blackouts.empty();
  }

  /// One-line human-readable summary.
  std::string describe() const;

  /// Parses a spec (or a preset name) into *out; on failure returns false
  /// and leaves a diagnostic in *error.
  static bool parse(const std::string& spec, FaultPlan* out,
                    std::string* error);

  /// The shipped scenario names, in soak-sweep order.
  static std::vector<std::string> preset_names();
};

/// Injector counters, one per fault family plus the post-filter delivery
/// count (which includes duplicates, so delivered + dropped can exceed the
/// copies the inner transport offered).
struct FaultStats {
  std::size_t lost = 0;                    // GE channel kills
  std::size_t duplicated = 0;              // extra copies delivered
  std::size_t reordered = 0;               // copies held back
  std::size_t partition_drops = 0;         // cut by a scheduled partition
  std::size_t blackout_rx_drops = 0;       // receiver was crashed
  std::size_t blackout_tx_suppressed = 0;  // sender was crashed
  std::size_t delivered = 0;               // copies handed to handlers

  std::size_t total_faults() const {
    return lost + duplicated + reordered + partition_drops +
           blackout_rx_drops + blackout_tx_suppressed;
  }
};

/// Maps one fault decision onto the trace event vocabulary (kEmuFault*).
/// `node` is left unset; the session mux tap fills the acting node in.
protocols::MetricEvent fault_metric_event(const FaultRecord& record,
                                          std::uint32_t session_id);

class FaultTransport final : public Transport, private TransportObserver {
 public:
  /// `inner` must outlive the decorator.  The decorator installs itself as
  /// the inner transport's observer (restored to nullptr on destruction);
  /// callers observe the decorator, never the inner transport directly.
  FaultTransport(Transport& inner, FaultPlan plan);
  ~FaultTransport() override;

  FaultTransport(const FaultTransport&) = delete;
  FaultTransport& operator=(const FaultTransport&) = delete;

  int nodes() const override { return inner_.nodes(); }
  void send(int from, std::span<const std::uint8_t> frame) override;
  std::size_t poll(int to, const Handler& handler) override;
  TransportStats stats() const override;

  /// Forwards the run clock to the inner transport as well, so both layers
  /// read the *same* time origin (partitions, blackouts, and delay queues
  /// can never disagree by a scheduling-jitter epsilon).
  void bind_clock(const vtime::Clock* clock) override;

  const FaultPlan& plan() const { return plan_; }
  FaultStats fault_stats() const;

 private:
  /// A copy delayed by jitter/reordering, waiting in the receiver's queue.
  struct Held {
    double due = 0.0;
    int from = -1;
    std::uint64_t link_copy = 0;
    std::vector<std::uint8_t> bytes;
  };

  /// Per-directed-link injector state; touched only from the receiver's
  /// thread.  `fault` is the overlay of every matching plan entry, in plan
  /// order (later entries override the features they configure).
  struct LinkState {
    LinkFault fault;
    bool configured = false;
    bool bad = false;         // GE chain state
    std::uint64_t copies = 0;  // arrivals so far (the k coordinate)
    Rng rng;
  };

  // Inner-transport observer taps: send/drop/truncation pass through,
  // deliveries are swallowed here and re-emitted post-filter from poll().
  void on_send(int from, std::size_t bytes) override;
  void on_drop(int from, int to, std::span<const std::uint8_t> frame) override;
  void on_deliver(int from, int to, std::size_t bytes) override;
  void on_truncated(int from, int to, std::size_t claimed_bytes) override;

  bool in_blackout(int node, double t) const;
  bool partition_cuts(int from, int to, double t) const;
  void emit_fault(FaultRecord::Kind kind, int from, int to,
                  std::span<const std::uint8_t> frame, std::uint64_t link_copy,
                  double t);
  void deliver(int from, int to, std::span<const std::uint8_t> bytes,
               const Handler& handler);
  /// poll()'s per-copy filter: draws the copy's faults in the fixed order,
  /// then drops, holds or delivers it.  Returns the copies handed to
  /// `handler` (two for a delivered duplicate).
  std::size_t admit(int from, int to, std::span<const std::uint8_t> bytes,
                    double t, bool rx_dead, const Handler& handler);

  Transport& inner_;
  FaultPlan plan_;
  std::vector<LinkState> links_;      // n*n, row-major [from * n + to]
  std::vector<std::vector<Held>> held_;  // per receiver, sorted by due

  std::atomic<std::size_t> lost_{0};
  std::atomic<std::size_t> duplicated_{0};
  std::atomic<std::size_t> reordered_{0};
  std::atomic<std::size_t> partition_drops_{0};
  std::atomic<std::size_t> blackout_rx_drops_{0};
  std::atomic<std::size_t> blackout_tx_suppressed_{0};
  std::atomic<std::size_t> delivered_{0};
};

}  // namespace omnc::emu
