// Run-wide JSONL tracing on top of the MetricsBus.
//
// A TraceRecorder serializes every MetricEvent a traced run emits — plus the
// optimizer's per-iteration state, link-probing estimates, and registry
// timers — into a schema-versioned JSON-lines file.  The file opens with
// a manifest (schema version, build stamp, tool name, master seed); each run
// contributes a run_begin record carrying its protocol, seed, coding/MAC
// parameters and a hash of its session graphs, the graphs themselves (nodes,
// ETX distances, edges with reception probabilities), the raw event stream,
// and a run_end record with the SessionResults the live sinks assembled.
//
// Doubles are printed with %.17g, which round-trips IEEE-754 exactly, so an
// offline replay of the event stream through the same sinks reproduces every
// live statistic bit for bit (tools/trace_inspect --verify checks this).
//
// The recorder is thread-safe: run_all's workers trace concurrently into the
// same file, each line is written atomically under a mutex, and every record
// carries its run id so interleaved runs demultiplex on read.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/span.h"
#include "protocols/metrics.h"
#include "protocols/metrics_bus.h"
#include "routing/node_selection.h"

namespace omnc::obs {

/// Schema 2 added packet-lifecycle "span" records and serialized "hist"
/// histogram records; schema 3 replaced the registry's "metric" records with
/// "timer" records carrying each timer's histogram.  The reader accepts only
/// this version.
inline constexpr int kTraceSchemaVersion = 3;

/// Per-run manifest data written into the run_begin record.
struct RunContext {
  std::string protocol;       // "omnc", "more", "oldmore", "etx", ...
  std::uint64_t seed = 0;     // the run's protocol seed
  int topology_nodes = 0;     // sink dimension (events index topology ids)
  int generation_blocks = 0;  // coding geometry (throughput reconstruction)
  int block_bytes = 0;
  double capacity_bytes_per_s = 0.0;
  double cbr_bytes_per_s = 0.0;
  double sim_seconds = 0.0;
  /// Multi-unicast: mean_queue of every recorded result is the channel-wide
  /// shared average, not the per-session one assemble() computes.
  bool shared_queue = false;
  /// Code-family selector the run's sessions used ("dense", "systematic",
  /// "banded:W"; DESIGN.md §15).  Empty means dense and is omitted from the
  /// run_begin record, so pre-family traces stay byte-identical.
  std::string code_family;
};

class TraceRecorder {
 public:
  /// Opens `path` and writes the manifest.  `tool` names the producing
  /// binary, `params` is its canonical parameter string, `seed` the master
  /// workload seed.  On open failure ok() is false and every record call is
  /// a no-op.
  TraceRecorder(const std::string& path, const std::string& tool,
                const std::string& params, std::uint64_t seed);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  /// Starts a run: writes run_begin (with a combined structural hash of the
  /// graphs) plus one graph record per session.  Returns the run id every
  /// subsequent record for this run must carry.
  int begin_run(const RunContext& context,
                const std::vector<const routing::SessionGraph*>& graphs);

  /// Serializes one bus event (RunSink forwards here).
  void record_event(int run, const protocols::MetricEvent& event);

  /// Serializes one packet-lifecycle span event (obs/span.h).  Emission
  /// order is the tap's serialized order, so deterministic-clock runs
  /// produce byte-identical span streams per seed.
  void record_span(int run, const SpanEvent& event);

  /// Serializes one named latency histogram (sparse bucket encoding; see
  /// Histogram::to_json).  Typically written once at end of run.
  void record_histogram(int run, const std::string& name,
                        const Histogram& histogram);

  /// One rate-control iteration: recovered gamma-bar and b-bar (Fig. 1).
  void record_opt_iteration(int run, int iteration, double gamma,
                            const std::vector<double>& b);

  /// One probed link: true PHY probability vs the prober's estimate.
  void record_probe(int session, int edge, int from, int to, double p_true,
                    double p_estimate);

  /// Finishes a run: records the live sinks' assembled per-session results
  /// and innovative-delivery edge counts — the ground truth trace_inspect
  /// verifies its replay against.
  void end_run(int run, const std::vector<protocols::SessionResult>& results,
               const std::vector<std::vector<std::size_t>>& edge_innovative);

  /// Snapshots the global MetricsRegistry: one "timer" record per timer,
  /// carrying its histogram of durations in seconds.
  void record_registry();

  /// FNV-1a over a graph's structure (nodes, endpoints, ETX, edges).
  static std::uint64_t hash_graph(const routing::SessionGraph& graph);

 private:
  void write_line(const std::string& line);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  int next_run_ = 0;
};

/// TraceSink adapter stamping every event with its run id.  A null recorder
/// yields an inert sink, so call sites can construct unconditionally and
/// subscribe `sink_or_null()` (MetricsBus ignores nullptr).
class RunSink final : public protocols::TraceSink {
 public:
  RunSink(TraceRecorder* recorder, int run)
      : recorder_(recorder), run_(run) {}

  void on_event(const protocols::MetricEvent& event) override {
    if (recorder_ != nullptr) recorder_->record_event(run_, event);
  }

  protocols::TraceSink* sink_or_null() {
    return recorder_ != nullptr ? this : nullptr;
  }

 private:
  TraceRecorder* recorder_;
  int run_;
};

}  // namespace omnc::obs
