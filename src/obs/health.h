// Live health plane for the emulation runtime (DESIGN.md §13).
//
// A HealthMonitor sits behind the mux's serialized metric/span sinks and
// maintains, in bounded memory:
//
//   * counters — frames sent / copies dropped / delivered, parse errors,
//     resync requests, stall boosts, generations completed;
//   * latency histograms — per-hop delay (span transmit → receive),
//     end-to-end decode latency (generation start → ACK at the source), and
//     stall wait (time since last progress when a redundancy boost fires);
//   * a flight recorder — a ring buffer of the last N span events, dumped
//     into the health document when an anomaly triggers, so the packets
//     surrounding the incident are inspectable post-mortem;
//   * anomaly detectors, evaluated once per snapshot interval of virtual
//     time: a progress stall longer than the threshold, a resync storm
//     (too many requests inside the trailing window), and a decode-rank
//     plateau (destination rank frozen across consecutive snapshots while a
//     generation is still open).
//
// All time is the events' own virtual time — the monitor never reads a wall
// clock, so deterministic-clock runs produce identical health documents.
// Thread safety comes from the caller: the mux tap already serializes
// both sinks under one mutex (tools feed the monitor from those callbacks).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/histogram.h"
#include "obs/span.h"
#include "protocols/metrics_bus.h"

namespace omnc::obs {

struct HealthConfig {
  /// Virtual seconds between snapshots (anomaly evaluation points).
  double snapshot_interval_s = 1.0;
  /// Progress stall: no ACK and no rank increase for longer than this.
  double stall_threshold_s = 5.0;
  /// Resync storm: more than `resync_storm_count` requests inside the
  /// trailing `resync_window_s`.
  double resync_window_s = 5.0;
  std::size_t resync_storm_count = 8;
  /// Rank plateau: highest observed rank > 0 unchanged for this many
  /// consecutive snapshots with no generation completing in between.
  int plateau_snapshots = 5;
  /// Span events kept in the flight-recorder ring.
  std::size_t flight_recorder_capacity = 256;
  /// Transmit timestamps tracked for per-hop delay (FIFO eviction).
  std::size_t span_track_capacity = 4096;
};

/// One detected anomaly; `detail` is a short human-readable diagnosis.
struct HealthAnomaly {
  std::string kind;  // "stall" | "resync_storm" | "rank_plateau"
  double time = 0.0;
  std::string detail;
};

/// Per-session decode progress, aggregated from kGenerationAck events (the
/// only metric family that both names a session and carries its decode
/// latency).  Session-mux runs (DESIGN.md §16) interleave many sessions
/// through one monitor; this keeps each one's trajectory separable.
struct SessionHealth {
  std::uint64_t acks = 0;        // generations this session completed
  double last_ack_time = 0.0;    // session seconds of the newest ACK
  double latency_sum = 0.0;      // decode latencies, for the mean
  double latency_max = 0.0;

  double mean_latency() const {
    return acks > 0 ? latency_sum / static_cast<double>(acks) : 0.0;
  }
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = {});

  /// Feed points; call from the mux's (serialized) sink callbacks.
  void on_metric(const protocols::MetricEvent& event);
  void on_span(const SpanEvent& event);

  /// Fires right after every snapshot is taken (stderr one-liners, periodic
  /// JSON dumps).  Called from whatever thread fed the triggering event.
  void set_snapshot_callback(std::function<void(const HealthMonitor&)> cb) {
    on_snapshot_ = std::move(cb);
  }

  const Histogram& hop_delay() const { return hop_delay_; }
  const Histogram& decode_latency() const { return decode_latency_; }
  const Histogram& stall_wait() const { return stall_wait_; }
  const std::vector<HealthAnomaly>& anomalies() const { return anomalies_; }
  /// Span events surrounding the first anomaly (empty when healthy).
  const std::vector<SpanEvent>& flight_dump() const { return flight_dump_; }
  double now() const { return now_; }
  std::uint64_t generations_completed() const { return acks_; }
  /// Per-session ACK progress, keyed by wire session id (ordered, so the
  /// JSON document lists sessions deterministically).  Events with session
  /// 0 — single-session captures predating session stamping — aggregate
  /// into the monitor-wide counters only.
  const std::map<std::uint32_t, SessionHealth>& sessions() const {
    return sessions_;
  }

  /// Complete health document (counters, histogram summaries, anomalies,
  /// flight dump) as one JSON object.
  std::string to_json() const;

  /// `<prefix> t=12.0 gens=5 sent=120 drop=34 ...` — the --health-interval
  /// stderr line.
  std::string one_liner() const;

  /// Atomically replaces `path` with to_json() via tmp + rename, so a
  /// concurrent reader never sees a torn document.  Returns false on I/O
  /// failure.
  bool write_json(const std::string& path) const;

 private:
  void advance(double now);
  void take_snapshot(double now);
  void note_anomaly(const std::string& kind, double time,
                    const std::string& detail);

  HealthConfig config_;
  std::function<void(const HealthMonitor&)> on_snapshot_;

  double now_ = 0.0;
  double next_snapshot_ = 0.0;

  // Counters.
  std::uint64_t sends_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t delivers_ = 0;
  std::uint64_t parse_errors_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t stall_boosts_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t span_events_ = 0;

  // Histograms.
  Histogram hop_delay_;
  Histogram decode_latency_;
  Histogram stall_wait_;

  // Per-session ACK progress (see sessions()).
  std::map<std::uint32_t, SessionHealth> sessions_;

  // Per-hop delay: span key -> transmit time, FIFO-bounded (broadcast means
  // several receives may look up one transmit, so entries are not consumed).
  std::unordered_map<std::uint64_t, double> tx_times_;
  std::deque<std::uint64_t> tx_order_;

  // Anomaly state.
  double last_progress_ = 0.0;
  std::deque<double> resync_times_;
  std::size_t last_rank_ = 0;
  std::uint32_t last_rank_generation_ = 0;
  int rank_frozen_snapshots_ = 0;
  std::uint64_t acks_at_last_snapshot_ = 0;
  std::size_t rank_at_last_snapshot_ = 0;
  std::uint32_t gen_at_last_snapshot_ = 0;
  double last_anomaly_[3] = {-1.0, -1.0, -1.0};  // re-arm timers per kind

  std::vector<HealthAnomaly> anomalies_;
  std::deque<SpanEvent> flight_ring_;
  std::vector<SpanEvent> flight_dump_;
};

}  // namespace omnc::obs
