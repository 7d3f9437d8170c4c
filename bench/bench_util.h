// Shared configuration glue for the figure/table benches.
//
// Every bench accepts the same core options (or OMNC_* environment
// variables):
//   --sessions N        number of unicast sessions            (default 60)
//   --nodes N           deployment size                       (default 300)
//   --sim-seconds S     virtual seconds per session           (default 150)
//   --block-bytes B     data block size                       (default 1024)
//   --gen-blocks N      blocks per generation                 (default 40)
//   --seed S            master seed                           (default 42)
//   --paper             paper-scale run (300 sessions, 800 s)
//   --json PATH         also write flat JSON result records to PATH
//   --trace PATH        record a full JSONL event trace (tools/trace_inspect
//                       replays it offline); implies --metrics
//   --metrics           enable the wall-clock metrics registry and print its
//                       summary table at exit
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "coding/coded_packet.h"
#include "common/options.h"
#include "experiments/paper.h"
#include "experiments/runner.h"
#include "experiments/workload.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace omnc::bench {

/// Machine-readable companion to the human-oriented tables: when the bench
/// was given `--json <path>`, collects flat records and writes them out as a
/// JSON array of {"name", "params", "metric", "value"} objects so sweeps can
/// be diffed or plotted without scraping stdout.  With no path the writer is
/// inert and record() is a no-op.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path) : path_(std::move(path)) {}
  explicit JsonWriter(const Options& options)
      : JsonWriter(options.get("json", "")) {}
  ~JsonWriter() { flush(); }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  bool enabled() const { return !path_.empty(); }

  void record(std::string name, std::string params, std::string metric,
              double value) {
    if (!enabled()) return;
    records_.push_back(
        {std::move(name), std::move(params), std::move(metric), value});
  }

  /// Writes all records; called automatically from the destructor.
  void flush() {
    if (!enabled() || flushed_) return;
    flushed_ = true;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "warning: cannot write JSON results to %s\n",
                   path_.c_str());
      return;
    }
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"params\": \"%s\", "
                   "\"metric\": \"%s\", \"value\": %.17g}%s\n",
                   escape(r.name).c_str(), escape(r.params).c_str(),
                   escape(r.metric).c_str(), r.value,
                   i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]\n", out);
    std::fclose(out);
    std::fprintf(stderr, "wrote %zu JSON records to %s\n", records_.size(),
                 path_.c_str());
  }

 private:
  struct Record {
    std::string name;
    std::string params;
    std::string metric;
    double value;
  };

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    return out;
  }

  std::string path_;
  std::vector<Record> records_;
  bool flushed_ = false;
};

struct BenchSetup {
  experiments::WorkloadConfig workload;
  experiments::RunConfig run;
};

inline BenchSetup parse_setup(const Options& options) {
  namespace paper = experiments::paper;
  BenchSetup setup;
  const bool paper_scale = options.get_bool("paper", false);

  setup.workload.deployment.nodes =
      static_cast<int>(options.get_int("nodes", paper::kNodes));
  setup.workload.deployment.density = paper::kDensity;
  setup.workload.sessions = static_cast<int>(options.get_int(
      "sessions", paper_scale ? paper::kPaperSessions : 60));
  setup.workload.min_hops = paper::kMinHops;
  setup.workload.max_hops = paper::kMaxHops;
  setup.workload.seed = options.get_seed("seed", 42);

  auto& protocol = setup.run.protocol;
  protocol.coding.generation_blocks = static_cast<std::uint16_t>(
      options.get_int("gen-blocks", paper::kGenerationBlocks));
  protocol.coding.block_bytes = static_cast<std::uint16_t>(
      options.get_int("block-bytes", paper::kBlockBytes));
  protocol.mac.capacity_bytes_per_s = options.get_double(
      "capacity", paper::kCapacityBytesPerSecond);
  protocol.mac.slot_bytes = coding::CodedPacket::kHeaderBytes +
                            protocol.coding.generation_blocks +
                            protocol.coding.block_bytes;
  protocol.cbr_bytes_per_s =
      options.get_double("cbr", paper::kCbrBytesPerSecond);
  protocol.max_sim_seconds = options.get_double(
      "sim-seconds", paper_scale ? paper::kPaperSessionSeconds : 150.0);
  return setup;
}

inline void print_setup(const BenchSetup& setup) {
  std::printf(
      "# setup: %d nodes (density %.0f), %d sessions of %.0f s, "
      "generation %u x %u B, C = %.0f B/s, CBR = %.0f B/s, seed %llu\n",
      setup.workload.deployment.nodes, setup.workload.deployment.density,
      setup.workload.sessions, setup.run.protocol.max_sim_seconds,
      setup.run.protocol.coding.generation_blocks,
      setup.run.protocol.coding.block_bytes,
      setup.run.protocol.mac.capacity_bytes_per_s,
      setup.run.protocol.cbr_bytes_per_s,
      static_cast<unsigned long long>(setup.workload.seed));
}

/// Canonical "params" string for JSON records derived from a BenchSetup.
inline std::string setup_params(const BenchSetup& setup) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "nodes=%d;sessions=%d;sim_seconds=%.0f;seed=%llu",
                setup.workload.deployment.nodes, setup.workload.sessions,
                setup.run.protocol.max_sim_seconds,
                static_cast<unsigned long long>(setup.workload.seed));
  return buffer;
}

/// Observability wiring shared by the benches: `--trace PATH` opens a
/// TraceRecorder (runs wired through RunConfig::trace or explicit begin_run
/// serialize into it), and `--trace` or `--metrics` switches the wall-clock
/// registry on.  finish_obs() snapshots the registry into the trace and
/// prints the summary table when requested.
struct ObsSetup {
  std::unique_ptr<obs::TraceRecorder> recorder;
  bool metrics = false;
};

inline ObsSetup parse_obs(const Options& options, const std::string& tool,
                          const std::string& params, std::uint64_t seed) {
  ObsSetup obs;
  obs.metrics = options.get_bool("metrics", false);
  const std::string trace_path = options.get("trace", "");
  if (!trace_path.empty()) {
    obs.recorder =
        std::make_unique<obs::TraceRecorder>(trace_path, tool, params, seed);
    if (!obs.recorder->ok()) {
      std::fprintf(stderr, "warning: cannot write trace to %s\n",
                   trace_path.c_str());
      obs.recorder.reset();
    }
  }
  if (obs.metrics || obs.recorder != nullptr) {
    obs::MetricsRegistry::set_enabled(true);
  }
  return obs;
}

inline ObsSetup parse_obs(const Options& options, const std::string& tool,
                          const BenchSetup& setup) {
  return parse_obs(options, tool, setup_params(setup), setup.workload.seed);
}

inline void finish_obs(ObsSetup& obs) {
  if (obs.recorder != nullptr) {
    obs.recorder->record_registry();
    std::fprintf(stderr, "wrote trace to %s\n", obs.recorder->path().c_str());
  }
  if (obs.metrics) {
    std::printf("\n== metrics registry ==\n%s",
                obs::MetricsRegistry::global().summary().c_str());
  }
}

/// Generations each coded protocol completed, summed over the sessions one
/// figure, panel or table row reports.  A protocol that completed none has
/// no throughput, gain or steady-state queue to show — a run shorter than
/// the first generation would print 0.00 (or a start-up transient) as if it
/// were a measurement.
struct CompletedGenerations {
  struct Tally {
    const char* protocol;
    std::size_t sessions = 0;
    int generations = 0;
  };
  std::vector<Tally> tallies;  // one per protocol, in the order first added

  /// One session of `protocol` (a string literal naming it).
  void add(const char* protocol, const protocols::SessionResult& result) {
    auto it = std::find_if(tallies.begin(), tallies.end(),
                           [&](const Tally& t) {
                             return std::string_view(t.protocol) == protocol;
                           });
    if (it == tallies.end()) it = tallies.insert(it, Tally{protocol});
    ++it->sessions;
    it->generations += result.generations_completed;
  }

  /// One session of each coded protocol run_comparison runs by default.
  void add(const experiments::ComparisonResult& result) {
    add("OMNC", result.omnc);
    add("MORE", result.more);
    add("oldMORE", result.oldmore);
  }

  /// Names on stderr, after `scope`, a row that measured no session at all
  /// (no session had a live baseline) and each protocol that completed no
  /// generation; returns how many there were.
  int report_unmeasured(const std::string& scope) const {
    if (tallies.empty()) {
      std::fprintf(stderr,
                   "%s: no session had a live baseline; nothing was "
                   "measured\n",
                   scope.c_str());
      return 1;
    }
    int unmeasured = 0;
    for (const Tally& tally : tallies) {
      if (tally.generations > 0) continue;
      std::fprintf(stderr,
                   "%s: %s completed no generation in %zu sessions; nothing "
                   "was measured for it (raise --sim-seconds)\n",
                   scope.c_str(), tally.protocol, tally.sessions);
      ++unmeasured;
    }
    return unmeasured;
  }
};

inline void print_progress(std::size_t done, std::size_t total) {
  if (done % 10 == 0 || done == total) {
    std::fprintf(stderr, "  ... %zu/%zu sessions\n", done, total);
  }
}

}  // namespace omnc::bench
