// One emulated network node: today's NodeRuntime behind a time-paced step
// loop, speaking only serialized wire frames through a Transport.
//
// The slot simulator advances all nodes in lockstep and hands packets around
// as C++ objects; an EmuNode instead observes a monotonically increasing
// *virtual clock* (the session mux's vtime::Clock — wall-scaled, warped, or
// deterministic; DESIGN.md §12) and reacts to whatever bytes the mux hands
// it.  deliver(now, ...) and step_local(now) are pure in `now`: the node
// never reads time itself, which is what lets the same node code run under
// all three clock modes.  The protocol state machine is the very same
// NodeRuntime the simulator uses — the point of the emulation runtime is
// that nothing protocol-level changes when the process boundary appears.
//
// Control plane (everything except coded data) is event-driven and unpaced:
//   * ACK flooding — the destination broadcasts a GenerationAck on decode
//     and repeats it (ack_seq increments) until it hears data of a newer
//     generation; relays re-broadcast each unseen (generation, seq) once.
//     This replaces the simulator's out-of-band "ACK reaches the source at
//     the end of the slot" shortcut with an in-band, loss-tolerant flood.
//   * Price flooding — the source periodically floods one PriceUpdate per
//     session node (λ/β duals + recovered rate b̄_i from the sUnicast
//     decomposition); nodes install their own rate on receipt, and relays
//     re-flood with a per-node rate limit.
//   * Link probing (optional) — during [0, probe_window_s) every node
//     broadcasts evenly spaced beacons, then reports p̂ = heard/window per
//     origin.
//   * Resync — a non-source node that has heard nothing for a while
//     (blackout restart, healed partition) broadcasts a ResyncRequest with
//     exponential backoff; the source floods back ResyncInfo (live
//     generation id + price iteration) and refloods prices, letting the
//     laggard fast-forward instead of waiting out the silence.
// Recovery hardening on top (see DESIGN.md §11): the source boosts its
// redundancy with bounded exponential backoff while ACKs go missing, the
// destination's ACK flood degrades to a slow keepalive instead of going
// mute, and relay rates installed from old PriceUpdates decay once stale.
// Data plane: coded packets are paced by a token bucket charged in air
// bytes (CodedPacket header + n + m), the same accounting as the
// simulator's slot_bytes, so rates mean the same thing in both worlds.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "codes/code_spec.h"
#include "common/rng.h"
#include "emu/transport.h"
#include "obs/span.h"
#include "protocols/metrics_bus.h"
#include "protocols/node_runtime.h"
#include "routing/node_selection.h"
#include "wire/frame.h"

namespace omnc::emu {

struct EmuNodeConfig {
  coding::CodingParams coding;
  /// Code family every node in the session runs (DESIGN.md §15).  The dense
  /// default reproduces the pre-family emulation byte-for-byte; systematic
  /// and banded emissions ride kCodedDataCompact frames whose smaller air
  /// size is charged against the same token bucket.
  codes::CodeSpec code;
  /// Extra source send budget as a rate multiplier (>= 1): the finite-length
  /// auto-tuner raises this with the loss rate so short generations still
  /// decode without waiting out a stall boost.
  double source_redundancy = 1.0;
  std::uint32_t session_id = 1;
  std::uint64_t data_seed = 1;  // shared: destination re-derives source data
  std::uint64_t rng_seed = 1;   // coding-coefficient RNG (forked per node)

  double cbr_bytes_per_s = 1e4;
  int max_generations = 8;

  // ACK flood tuning (virtual seconds).  After ack_repeat_limit fast
  // repeats the destination falls back to a slow keepalive cadence — it
  // must never go mute, or a lossy reverse path deadlocks the source.
  int ack_repeat_limit = 400;
  double ack_keepalive_s = 0.5;

  // Source stall detection (virtual seconds): a generation active with no
  // ACK for stall_timeout_s doubles the source's redundancy boost (token
  // refill multiplier, capped at kRedundancyBoostMax) and the timer itself
  // (capped at kStallBackoffMaxS), so reverse-path loss is answered with
  // bounded extra forward redundancy instead of an idle wait.  0 disables.
  double stall_timeout_s = 0.75;

  // Price staleness (non-source nodes): a rate installed from a PriceUpdate
  // older than price_stale_s decays exponentially with time constant
  // price_decay_tau_s toward kPriceDecayFloor x installed, so a partitioned
  // node's λ/β prices cannot pin its transmit rate forever.  0 disables.
  double price_stale_s = 2.0;
  double price_decay_tau_s = 2.0;

  // Resync (non-source nodes): silence longer than the current wait (starts
  // at resync_silence_s, doubling per attempt up to kResyncBackoffMaxS,
  // reset by any valid frame) triggers a ResyncRequest broadcast; the source
  // answers with ResyncInfo + a price reflood, rate-limited to one reply per
  // resync_reply_min_gap_s.  0 disables.
  double resync_silence_s = 1.5;
  double resync_reply_min_gap_s = 0.2;

  // Link-probe phase: 0 disables.  kProbeBeacons beacons are evenly spaced
  // in [0, probe_window_s); reports go out once the window closes, and the
  // data phase opens half a virtual second later.
  double probe_window_s = 0.0;
};

class EmuNode {
 public:
  EmuNode(const routing::SessionGraph& graph, int local, Transport& transport,
          const EmuNodeConfig& config);

  protocols::NodeRuntime::Role role() const { return runtime_.role(); }
  int local() const { return local_; }

  /// Directly installs this node's transmit rate (air bytes/s).  Tests and
  /// "oracle" runs use this; distributed runs install via price frames.
  void install_rate(double rate_bytes_per_s);

  /// Source only: the rate-control outcome to flood.  `rates_bytes_per_s`
  /// is per local node (already rescaled to feasibility), `lambda` per
  /// graph edge, `beta` per node — both in the rate controller's normalized
  /// units.  The source installs its own rate immediately.
  void set_price_table(std::vector<double> rates_bytes_per_s,
                       std::vector<double> lambda, std::vector<double> beta,
                       int iterations);

  /// Thread-safe event hook (the session mux serializes).  Receives
  /// kGenerationAck (at the source, value = session-time latency),
  /// kEmuParseError, and the recovery family (kEmuResync / kEmuStall).
  void set_metric_sink(std::function<void(const protocols::MetricEvent&)> sink);

  /// Packet-lifecycle hook (the mux serializes alongside metric events).
  /// When set, the node emits a SpanEvent at every enqueue / transmit /
  /// receive / innovate / decode of a coded packet; drops are emitted by the
  /// mux's transport tap.  Data frames carry their span id on the wire
  /// whether or not a sink is installed, so traced and untraced runs
  /// exchange byte-identical traffic.
  void set_span_sink(std::function<void(const obs::SpanEvent&)> sink);

  /// Hands the node one received frame.  The node never polls a transport
  /// itself: the session mux drains each *shared* socket once per node and
  /// demultiplexes frames to the per-session runtimes.  One scheduling round
  /// at virtual time `now` is every deliver() for the frames due, then one
  /// step_local().  Both must be called from a single thread with
  /// non-decreasing `now`.
  void deliver(double now, int from, std::span<const std::uint8_t> bytes);

  /// The timer/pacing half of a scheduling round: control-plane timers,
  /// recovery, and data pacing.
  void step_local(double now);

  /// Generations the source has retired; readable from any thread while the
  /// node is running (the mux's stop condition).
  int completed_generations() const {
    return completed_.load(std::memory_order_relaxed);
  }

  struct Stats {
    int generations_completed = 0;
    double last_ack_time = 0.0;            // session seconds (source)
    std::vector<double> ack_latencies;     // session seconds (source)
    std::size_t frames_received = 0;
    std::size_t parse_errors = 0;
    std::size_t foreign_session_frames = 0;
    std::size_t data_packets_sent = 0;
    std::size_t innovative_received = 0;
    std::size_t stall_boosts = 0;     // source redundancy escalations
    std::size_t ack_keepalives = 0;   // destination slow-cadence ACKs
    std::size_t resync_requests = 0;  // ResyncRequests this node originated
    std::size_t resync_replies = 0;   // ResyncInfo answers (source only)
    std::size_t price_decays = 0;     // staleness episodes entered
    bool rate_installed = false;
    /// Destination: every decoded generation matched the synthetic source
    /// payload byte-for-byte.  Stays true on nodes that decode nothing.
    bool data_ok = true;
    std::vector<wire::ProbeReport> probe_reports;  // own + received
  };

  /// Snapshot of the node's counters; call only after the node's thread has
  /// stopped (the mux joins before reading).
  const Stats& stats() const { return stats_; }

 private:
  void on_frame(double now, int from, std::span<const std::uint8_t> bytes);
  void handle_data(double now, int from, const wire::DataFrameView& frame);
  void handle_ack(double now, const wire::GenerationAck& ack);
  void handle_price(double now, const wire::PriceUpdate& price);
  void handle_resync_request(double now, const wire::ResyncRequest& request);
  void handle_resync_info(double now, const wire::ResyncInfo& info);
  void run_probe(double now);
  void run_source(double now);
  void run_destination(double now);
  void run_recovery(double now);
  void pace(double now);
  void broadcast(const wire::Frame& frame);
  /// `parents` is copied into the event only when a span sink is
  /// installed, so untraced runs never pay for it.
  void emit_span(obs::SpanEvent::Kind kind, double now,
                 std::uint32_t generation, obs::SpanId span, int peer,
                 std::size_t rank, std::span<const obs::SpanId> parents = {},
                 int pivot = -1, bool uncoded = false);
  void send_ack(double now);
  void flood_prices(double now);
  double effective_rate(double now);
  double session_time(double now) const { return now - data_start_s_; }

  const routing::SessionGraph& graph_;
  int local_;
  Transport& transport_;
  EmuNodeConfig config_;
  protocols::NodeRuntime runtime_;
  Rng rng_;
  double packet_air_bytes_;
  // Virtual time (seconds) when the data phase opens; the CBR gate and all
  // reported latencies/throughputs run on "session time" = now - data_start,
  // which keeps them comparable with the slot simulator's t = 0 start.
  double data_start_s_;

  std::function<void(const protocols::MetricEvent&)> sink_;
  std::function<void(const obs::SpanEvent&)> span_sink_;

  // Span plane: per-origin packet counter (seq 0 = untraced, so counting
  // starts at 1) and the spans of the innovative packets currently buffered
  // — a recoded transmission's causal parents.  Cleared whenever the buffer
  // flushes to a new generation.
  std::uint32_t span_seq_ = 0;
  std::vector<obs::SpanId> basis_spans_;

  // Pacing.
  double rate_bytes_per_s_ = 0.0;
  double tokens_ = 0.0;
  double last_pace_time_ = 0.0;
  bool pace_started_ = false;

  // Relay view of the live generation (max id seen in data/ACK traffic).
  std::uint32_t live_generation_ = 0;

  // Destination ACK retransmission state.
  bool have_ack_ = false;
  wire::GenerationAck last_ack_;
  double last_ack_send_ = 0.0;
  int ack_resends_ = 0;
  bool source_moved_on_ = false;

  // Flood dedup: per origin, the newest (generation, ack_seq) forwarded.
  struct AckKey {
    std::uint32_t generation = 0;
    std::uint32_t seq = 0;
    bool seen = false;
  };
  std::vector<AckKey> forwarded_acks_;  // by origin_local

  // Price state.
  bool is_price_origin_ = false;
  std::vector<wire::Frame> price_frames_;  // one per local node (source)
  double last_price_flood_ = 0.0;
  bool price_flooded_once_ = false;
  std::uint32_t installed_price_iteration_ = 0;
  std::vector<double> last_price_forward_;   // by node_local; -inf = never
  std::vector<std::uint32_t> forwarded_price_iter_;

  // Source stall detection / redundancy boost.
  double redundancy_boost_ = 1.0;
  double stall_timeout_cur_ = 0.0;
  double stall_deadline_ = 0.0;  // +inf while no generation is active

  // Price freshness (non-source).
  bool rate_from_price_ = false;
  bool price_stale_ = false;
  double last_price_time_ = 0.0;

  // Resync: silence clock, request backoff, and flood forwarding state.
  bool frame_clock_started_ = false;
  double last_frame_time_ = 0.0;
  double resync_wait_s_ = 0.0;
  double last_resync_send_ = 0.0;
  double last_resync_reply_ = 0.0;                // source rate limit
  std::uint32_t source_price_iteration_ = 0;      // newest flooded iteration
  std::vector<double> last_resync_forward_;       // by origin_local
  std::int64_t forwarded_resync_info_gen_ = -1;   // newest info re-flooded

  // Probe state.
  int beacons_sent_ = 0;
  bool reports_sent_ = false;
  std::vector<std::uint32_t> beacons_heard_;  // by origin_local

  // Steady-state scratch (allocation-free data path): the transmit frame's
  // packet and the serialization buffer keep their capacity across sends,
  // and the destination recovers each generation into the same buffer.
  wire::Frame tx_frame_;
  coding::CodedStructure tx_structure_;
  std::vector<std::uint8_t> tx_bytes_;
  std::vector<std::uint8_t> recover_buf_;

  std::atomic<int> completed_{0};
  Stats stats_;
};

}  // namespace omnc::emu
