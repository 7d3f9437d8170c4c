// The emulation runtime: S >= 1 concurrent unicast sessions over ONE shared
// transport (DESIGN.md §10, §16).
//
// The paper's setting is many unicasts sharing the same lossy substrate,
// which is also the prerequisite for inter-session coding (reverse
// carpooling, COPE-style XOR).  SessionMux owns one EmuNode per (session,
// node) and demultiplexes every received frame by the wire-header session
// id, so S sessions cost N sockets (one per *physical node*), not S x N.  A
// single-session run is simply S = 1.
//
// All timing flows through one vtime::Clock (DESIGN.md §12) that the mux
// creates per run and binds to the transport, so nodes, delay queues, fault
// schedules, and event timestamps share a single origin.  Every clock runs
// the same per-shard loop (run_shard): check the stop rule, sleep to the
// next tick, then drain and step each owned node.  The clock mode says how
// a sleep passes:
//
//   * kReal — virtual time is wall time times `speedup`, so a
//     60-virtual-second session finishes in a few wall seconds.
//   * kWarp — virtual time jumps tick to tick as fast as the loop can step,
//     so the same session finishes in milliseconds.
//   * kDeterministic — a cooperative clock on the calling thread, making
//     the whole run (packet counts, goodput, traces) a pure function of the
//     seeds.
//
// A shard polls a node only when the transport's readiness set says a copy
// is queued for it, asked right before that node's drain; a skipped poll
// would have delivered nothing (DESIGN.md §10.3).
//
// Sharding model — the socket is the serialization domain.  The Transport
// contract says send(i)/poll(i) run only on node i's thread; with sessions
// sharing node i's socket, every runtime collocated at node i must live on
// the same thread.  So the mux shards by physical node, not by session.  One
// shard (the default, and always under kDeterministic) runs on the calling
// thread over every node; K > 1 shards under kReal/kWarp are K threads,
// each owning the node indices congruent to its shard id.  Per tick a shard
// drains each owned node's socket once (recvmmsg-batched on UDP), routes
// each frame to the right session's runtime at that node, then steps every
// session's runtime there.  Thread count is K, independent of S.
//
// Demux hygiene: a frame reaches a session's runtime only after
// (a) peek_session succeeds (malformed/truncated headers are unroutable —
// they cannot be charged to any session's parse-error count), and (b) for
// data frames, the embedded coded-packet session id agrees with the header
// (a disagreement is corruption or forgery and must not leak across
// sessions).  Rejections are counted per reason in MuxRunResult.
//
// Each shard stops when every session's source has retired
// `max_generations` generations or the virtual horizon is reached.
//
// Determinism (DESIGN.md §10/§12): coding coefficients and loopback losses
// are seed-deterministic in every mode.  Under kDeterministic the one shard
// steps node-major, then session order, so same-seed runs are
// byte-identical end to end and comparisons can demand exact equality; warp
// at one shard is that same run.  Under kReal, and under kWarp at K > 1,
// *timing* — and therefore exact packet counts and goodput — varies with
// thread scheduling, so cross-checks use tolerances there.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "emu/emu_node.h"
#include "emu/transport.h"
#include "obs/span.h"
#include "protocols/metrics_bus.h"
#include "routing/node_selection.h"
#include "time/clock.h"
#include "wire/frame.h"

namespace omnc::emu {

struct EmuConfig {
  EmuNodeConfig node;

  /// How virtual time advances; see the header comment.
  vtime::ClockMode clock_mode = vtime::ClockMode::kReal;

  /// Virtual seconds per wall second (RealClock only).
  double speedup = 20.0;

  /// Wall-clock budget under kReal; a run that has not finished by then is
  /// cut off and reported with completed = false.
  double wall_timeout_s = 60.0;

  /// Virtual-seconds budget.  0 means wall_timeout_s * speedup, which keeps
  /// the three clock modes cutting off at the same *virtual* horizon.
  double virtual_timeout_s = 0.0;

  /// The virtual second a run is cut off at.
  double horizon_s() const {
    return virtual_timeout_s > 0.0 ? virtual_timeout_s
                                   : wall_timeout_s * speedup;
  }
};

/// One session's outcome.  The shared channel cannot be split per session,
/// so channel counters live in MuxRunResult::transport.
struct EmuRunResult {
  bool completed = false;  // the source retired max_generations
  bool data_ok = false;    // every decoded generation matched the source
  int generations_completed = 0;
  double goodput_bytes_per_s = 0.0;  // decoded bytes / last ACK (session s)
  double last_ack_time = 0.0;        // session seconds
  double mean_ack_latency = 0.0;     // session seconds
  std::vector<double> ack_latencies;
  std::size_t parse_errors = 0;      // summed over nodes
  std::size_t data_packets_sent = 0;
  // Recovery-path activity, summed over nodes (see EmuNode::Stats).
  std::size_t stall_boosts = 0;
  std::size_t ack_keepalives = 0;
  std::size_t resync_requests = 0;
  std::size_t resync_replies = 0;
  std::size_t price_decays = 0;
  double virtual_elapsed = 0.0;      // virtual seconds the run took
  std::vector<wire::ProbeReport> probe_reports;  // deduped (reporter, probed)

  bool operator==(const EmuRunResult&) const = default;
};

struct MuxConfig {
  /// Per-node template plus clock/timeout/tick settings.  Session s
  /// (0-based) derives its identity from the template:
  ///   session_id = emu.node.session_id + s
  ///   data_seed  = emu.node.data_seed + s
  ///   rng_seed   = emu.node.rng_seed + s
  /// so session 0 reproduces the template exactly and every session is an
  /// independent seed-deterministic unicast.
  EmuConfig emu;

  /// Concurrent unicast sessions over the shared transport.
  int sessions = 1;

  /// Shards under kReal/kWarp; each owns the node indices congruent to its
  /// shard id.  One runs on the calling thread, K > 1 are K threads; over
  /// UDP one thread falls behind real time on larger topologies, so
  /// omnc_emu gives UDP runs more (DESIGN.md §16.1).
  /// Ignored under kDeterministic (one shard by definition).  Clamped to
  /// [1, nodes].
  int shards = 1;
};

struct MuxRunResult {
  bool completed = false;  // every session retired max_generations
  bool data_ok = false;    // every session's decoded data checked out
  /// One EmuRunResult per session, index = session ordinal.
  std::vector<EmuRunResult> sessions;
  double virtual_elapsed = 0.0;
  TransportStats transport;
  // Demux rejections, counted before any runtime is involved (a rejected
  // frame is attributed to *no* session).
  std::size_t demux_unroutable = 0;        // header peek failed
  std::size_t demux_session_mismatch = 0;  // embedded id != header id
  std::size_t demux_unknown_session = 0;   // no runtime for that session id

  /// Field-for-field: what a deterministic replay must reproduce.
  bool operator==(const MuxRunResult&) const = default;
};

class SessionMux {
 public:
  /// `transport.nodes()` must equal `graph.size()`; every session runs the
  /// same session graph (same source/destination/forwarder set).
  SessionMux(const routing::SessionGraph& graph, Transport& transport,
             const MuxConfig& config);

  /// Installs one transmit rate per local node, identically in every
  /// session (oracle mode; the emulated channel is not capacity-coupled
  /// across sessions — see DESIGN.md §16).
  void install_rates(const std::vector<double>& rates_bytes_per_s);

  /// Hands the rate-control outcome to every session's source for in-band
  /// price flooding (distributed mode); see EmuNode::set_price_table.
  void install_price_table(std::vector<double> rates_bytes_per_s,
                           std::vector<double> lambda,
                           std::vector<double> beta, int iterations);

  /// Observes protocol + transport events across all sessions; per-session
  /// events carry their session id, transport-level events (send/deliver)
  /// carry session 0 because a byte count alone names no session.  The mux
  /// serializes calls; the sink itself need not be thread-safe.  Events
  /// carry virtual time.
  void set_metric_sink(std::function<void(const protocols::MetricEvent&)> sink);

  /// Observes packet-lifecycle spans across all sessions (each event
  /// carries its session id; see obs/span.h).  Serialized like the metric
  /// sink.  Drop spans are synthesized by peeking the wire trace tag of each
  /// killed copy.  When unset, span instrumentation is fully disabled and
  /// adds no work to the data path.
  void set_span_sink(std::function<void(const obs::SpanEvent&)> sink);

  /// Blocks until every session finishes or the horizon expires.
  MuxRunResult run();

  /// The wire session id session ordinal `session` runs under.
  std::uint32_t session_id_of(int session) const;

  EmuNode& node(int session, int local);

  /// Demux verdict for one received buffer, exposed for tests (fuzzable
  /// without sockets).  kDeliver fills `session` with the header session id;
  /// the caller still maps it to a runtime (or counts unknown-session).
  enum class DemuxDecision { kDeliver, kUnroutable, kSessionMismatch };
  static DemuxDecision classify(std::span<const std::uint8_t> bytes,
                                std::uint32_t* session);

 private:
  class MuxTap;

  /// Routes one received frame on node `node` to the owning session's
  /// runtime; called from the shard that owns the node.
  void dispatch(double now, int node, int from,
                std::span<const std::uint8_t> bytes);
  /// Drains node `node`'s transport queue, then advances every session's
  /// runtime at that node (EmuNode::deliver, then EmuNode::step_local).
  void drain_and_step(double now, int node, bool drain);
  /// The stop rule: the horizon is reached, or every session's source has
  /// retired max_generations.  Safe from any shard.
  bool done(double now, double horizon) const;
  /// One shard's run loop over the nodes it owns, in `owned` order.
  void run_shard(vtime::Clock& clock, std::span<const int> owned,
                 double tick, double horizon);
  EmuRunResult session_result(int session, double virtual_elapsed) const;

  const routing::SessionGraph& graph_;
  Transport& transport_;
  MuxConfig config_;
  /// nodes_[session][local].
  std::vector<std::vector<std::unique_ptr<EmuNode>>> nodes_;
  std::unordered_map<std::uint32_t, int> session_index_;  // wire id -> ordinal
  std::function<void(const protocols::MetricEvent&)> sink_;
  std::function<void(const obs::SpanEvent&)> span_sink_;

  std::atomic<std::size_t> demux_unroutable_{0};
  std::atomic<std::size_t> demux_session_mismatch_{0};
  std::atomic<std::size_t> demux_unknown_session_{0};
};

}  // namespace omnc::emu
