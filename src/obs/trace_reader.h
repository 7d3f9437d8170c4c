// Reads a TraceRecorder JSONL file back into typed records.
//
// The reader demultiplexes interleaved runs on their run id, reconstructs
// each run's SessionGraphs (nodes, endpoints, ETX distances, edges with
// reception probabilities — everything the metric sinks consult), and
// restores every MetricEvent field exactly, so replaying the stream through
// the live sinks reproduces the recorded run bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "protocols/metrics.h"
#include "protocols/metrics_bus.h"
#include "routing/node_selection.h"

namespace omnc::obs {

/// One recorded run: its manifest context, graphs, event stream, optimizer
/// iterations, and the results the live sinks assembled at run end.
struct RecordedRun {
  int id = -1;
  RunContext context;
  std::uint64_t graph_hash = 0;
  /// Reconstructed session graphs (range_neighbors is not serialized; no
  /// sink consults it).
  std::vector<routing::SessionGraph> graphs;
  std::vector<protocols::MetricEvent> events;
  /// Packet-lifecycle span events in recorded (tap-serialized) order.
  std::vector<SpanEvent> spans;
  /// Named latency histograms recorded at end of run.
  std::vector<std::pair<std::string, Histogram>> histograms;
  /// Rate-control iterates in recorded order (Fig. 1 convergence curve).
  std::vector<double> opt_gamma;
  std::vector<std::vector<double>> opt_b;
  /// Ground truth from run_end.
  std::vector<protocols::SessionResult> results;
  std::vector<std::vector<std::size_t>> edge_innovative;
  bool completed = false;  // run_end was seen
};

/// One probed link (trace-scope; probing precedes the protocol runs).
struct ProbeSample {
  int session = 0;
  int edge = 0;
  int from = 0;
  int to = 0;
  double p_true = 0.0;
  double p_estimate = 0.0;
};

struct Trace {
  int schema = 0;
  std::string build;
  std::string tool;
  std::string params;
  std::uint64_t seed = 0;
  std::vector<RecordedRun> runs;  // sorted by run id
  std::vector<ProbeSample> probes;
  /// Registry timers by name: durations in seconds.
  std::vector<std::pair<std::string, Histogram>> registry;
};

/// Parses a JSONL trace.  Returns false (and sets `error`) on unreadable
/// files, malformed JSON, an unsupported schema version, or a file with no
/// manifest record (empty/truncated traces must fail loudly, not verify
/// vacuously).
bool read_trace(const std::string& path, Trace* out, std::string* error);

}  // namespace omnc::obs
