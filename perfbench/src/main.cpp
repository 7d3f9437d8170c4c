// perfbench — end-to-end and per-layer benchmark of the OMNC stack.
//
// Usage: perfbench --workload paper_det|mux64_warp|fig2_sim
//                  [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//
// Untraced (--trace 0) runs report the end-to-end metrics; a traced run
// (--trace 1) spends half its time untraced and half with the registry
// timers and the transport decorator on, and reports the per-layer metrics,
// the cost ledger and the tracing overhead.  The last stdout line is one
// JSON object {correct, attempted, failed, metrics}.  Exit status is 0 only
// when every output checked out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "galois/region.h"
#include "probe.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The machine class a wall number was measured on.
std::string run_stamp(const Args& args) {
  const char* describe = std::getenv("PERFBENCH_DESCRIBE");
  char stamp[512];
  std::snprintf(
      stamp, sizeof(stamp),
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"gf_backend\":\"%s\",\"nproc\":%u,\"cpu\":\"%s\","
      "\"build_type\":\"%s\",\"describe\":\"%s\","
      "\"network\":\"host loopback, no real link\"}",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0,
      omnc::gf::backend_name(omnc::gf::active_backend()),
      std::thread::hardware_concurrency(), cpu_model().c_str(),
      PERFBENCH_BUILD_TYPE, describe != nullptr ? describe : "unknown");
  return stamp;
}

void print_metric_table(const char* title,
                        const std::map<std::string, Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const auto& [name, m] : metrics) {
    if (m.exercised && m.p75 > 0.0) {
      std::printf(
          "  %-34s %14.6g %-6s (n=%zu rounds; quartiles %.6g %.6g %.6g)\n",
          name.c_str(), m.value, m.unit.c_str(), m.samples, m.p25, m.p50,
          m.p75);
    } else if (m.exercised) {
      std::printf("  %-34s %14.6g %-6s (n=%zu)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-34s %14s %-6s (layer not exercised)\n", name.c_str(),
                  "-", m.unit.c_str());
    }
  }
}

/// Every metric the mode owes must be present, finite, and — for the
/// end-to-end ones — nonzero: a zero means nothing was measured.
void check_complete(const Args& args, Report* report) {
  if (!args.trace) {
    for (const auto& [name, m] : report->end_to_end) {
      if (!std::isfinite(m.value) || m.value <= 0.0 || m.samples == 0) {
        report->fail(name + " measured nothing");
      }
    }
    return;
  }
  for (const LayerMetricDef& def : layer_metrics()) {
    const auto it = report->per_layer.find(def.name);
    if (it == report->per_layer.end()) {
      report->fail(std::string(def.name) + " missing");
    } else if (!std::isfinite(it->second.value)) {
      report->fail(std::string(def.name) + " is not finite");
    } else if (it->second.unit != def.unit) {
      report->fail(std::string(def.name) + " has unit " + it->second.unit);
    }
  }
}

void print_result_line(const Args& args, const Report& report) {
  const std::map<std::string, Metric>& metrics =
      args.trace ? report.per_layer : report.end_to_end;
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += first ? "" : ", ";
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_det|mux64_warp|fig2_sim "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans PATH]\n");
    return 2;
  }
  const bool sim = args.workload == "fig2_sim";
  if (!sim && !is_emu_workload(args.workload)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  const std::string stamp = run_stamp(args);
  std::printf("# stamp %s\n", stamp.c_str());

  Report report;
  SpanLog spans;
  SpanLog* span_log = args.trace ? &spans : nullptr;
  if (sim) {
    run_sim_workload(args, &report, span_log);
  } else {
    run_emu_workload(args, &report, span_log);
  }
  if (!args.trace) {
    report.e2e("peak_rss_MB", peak_rss_mb(), "MB", 1);
  }
  if (report.correct) check_complete(args, &report);

  const double fail_frac =
      report.attempted > 0
          ? static_cast<double>(report.failed) / report.attempted
          : 1.0;
  std::printf("\ngen_fail_frac %.6g (%llu failed of %llu attempted)\n",
              fail_frac, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  print_metric_table(args.trace ? "per-layer metrics (traced run)"
                                : "end-to-end metrics (untraced run)",
                     args.trace ? report.per_layer : report.end_to_end);
  if (args.trace && !report.ledger.empty()) {
    std::printf("\ncost ledger (traced run phase)\n");
    for (const std::string& row : report.ledger) {
      std::printf("  %s\n", row.c_str());
    }
    const auto value = [&](const char* name) {
      const auto it = report.per_layer.find(name);
      return it != report.per_layer.end() ? it->second.value : 0.0;
    };
    std::printf("  ledger.unaccounted_share %.4f   trace.overhead %.4f\n",
                value("ledger.unaccounted_share"), value("trace.overhead"));
  }
  for (const std::string& error : report.errors) {
    std::printf("ERROR: %s\n", error.c_str());
  }
  if (args.trace && !args.spans_path.empty()) {
    if (spans.write(args.spans_path, stamp)) {
      std::printf("# %zu spans written to %s\n", spans.size(),
                  args.spans_path.c_str());
    } else {
      std::printf("# cannot write spans to %s\n", args.spans_path.c_str());
    }
  }
  if (report.attempted == 0) report.fail("nothing attempted");
  print_result_line(args, report);
  return report.correct ? 0 : 1;
}
