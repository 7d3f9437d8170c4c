// fig2_sim: the Fig. 2 lossy panel on the slot simulator.  A fixed paper
// deployment (300 nodes, density 6, power factor 1.0, workload seed 42) and
// a fixed panel of 4–10 hop sessions; --seed picks the sessions' RNG
// streams.  One pass = generate_workload (the set-up) plus the four-protocol
// comparison (OMNC / MORE / oldMORE / ETX) on every panel session with one
// set of seeds, single-threaded.  A run cycles through a fixed number of
// seed sets; every pass over a set repeats identical work (checked), so
// passes over it differ only in how long they took.  No emu or time code
// runs here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "coding/coded_packet.h"
#include "experiments/paper.h"
#include "experiments/runner.h"
#include "experiments/workload.h"
#include "obs/registry.h"
#include "opt/rate_control.h"
#include "probe.h"
#include "routing/node_selection.h"

namespace perfbench {
namespace {

using namespace omnc;
namespace paper = experiments::paper;

constexpr int kPanelSessions = 8;
constexpr std::uint64_t kDeploymentSeed = 42;
constexpr double kSimSeconds = 300.0;

experiments::WorkloadConfig panel_config() {
  experiments::WorkloadConfig config;
  config.deployment.nodes = paper::kNodes;
  config.deployment.density = paper::kDensity;
  config.deployment.power_factor = 1.0;
  config.sessions = kPanelSessions;
  config.min_hops = paper::kMinHops;
  config.max_hops = paper::kMaxHops;
  config.seed = kDeploymentSeed;
  return config;
}

experiments::RunConfig run_config() {
  experiments::RunConfig config;
  protocols::ProtocolConfig& p = config.protocol;
  p.coding.generation_blocks = paper::kGenerationBlocks;
  p.coding.block_bytes = paper::kBlockBytes;
  p.mac.capacity_bytes_per_s = paper::kCapacityBytesPerSecond;
  p.mac.slot_bytes = coding::CodedPacket::kHeaderBytes +
                     p.coding.generation_blocks + p.coding.block_bytes;
  p.cbr_bytes_per_s = paper::kCbrBytesPerSecond;
  p.max_sim_seconds = kSimSeconds;
  return config;
}

/// What one pass measured.  A panel's results are the same on every pass
/// over it and are kept once, in the Panel.
struct Pass {
  int panel = 0;  // which of the run's panels
  double setup_s = 0.0;
  double wall_s = 0.0;                 // the whole run phase
  std::vector<double> session_wall_s;  // per panel session
  std::vector<double> session_cpu_s;
  double protocol_s[4] = {0, 0, 0, 0};  // by kProtocols index (timed passes)
};

/// One set of session seeds and the results of the first pass over it,
/// which every later pass must reproduce.  A run cycles through
/// kPanelsPerRun panels, so its figures average over that many seed draws
/// per session instead of resting on one.
struct Panel {
  std::vector<std::uint64_t> seeds;
  std::vector<experiments::ComparisonResult> results;
};
constexpr int kPanelsPerRun = 8;

std::vector<Panel> make_panels(std::uint64_t seed) {
  std::vector<Panel> panels(kPanelsPerRun);
  int rep = 0;
  for (Panel& panel : panels) {
    for (int i = 0; i < kPanelSessions; ++i) {
      panel.seeds.push_back(rep_seed(seed, rep++));
    }
  }
  return panels;
}

/// The four protocols of a comparison: the RunConfig flag that selects one
/// and the ComparisonResult field it fills.  ETX runs first: the coded
/// gains are relative to it.
struct Protocol {
  const char* span;
  const char* metric;
  bool experiments::RunConfig::*run;
  protocols::SessionResult experiments::ComparisonResult::*result;
};
constexpr Protocol kProtocols[4] = {
    {"sim.etx", "sim.etx_ms_per_session", &experiments::RunConfig::run_etx,
     &experiments::ComparisonResult::etx},
    {"sim.omnc", "sim.omnc_ms_per_session", &experiments::RunConfig::run_omnc,
     &experiments::ComparisonResult::omnc},
    {"sim.more", "sim.more_ms_per_session", &experiments::RunConfig::run_more,
     &experiments::ComparisonResult::more},
    {"sim.oldmore", "sim.oldmore_ms_per_session",
     &experiments::RunConfig::run_oldmore,
     &experiments::ComparisonResult::oldmore},
};

/// Runs one panel session's comparison one protocol at a time, timing each
/// run_comparison call, and assembles the usual ComparisonResult.
experiments::ComparisonResult timed_comparison(
    const experiments::SessionSpec& spec, const experiments::RunConfig& base,
    Pass* pass, SpanLog* spans, int parent) {
  experiments::ComparisonResult out;
  for (int p = 0; p < 4; ++p) {
    experiments::RunConfig one = base;
    for (const Protocol& q : kProtocols) one.*q.run = false;
    one.*kProtocols[p].run = true;
    ScopedSpan span(spans, kProtocols[p].span, parent);
    const std::uint64_t t0 = wall_ns();
    const experiments::ComparisonResult r =
        experiments::run_comparison(spec, one);
    pass->protocol_s[p] += 1e-9 * static_cast<double>(wall_ns() - t0);
    out.*kProtocols[p].result = r.*kProtocols[p].result;
  }
  const double etx = out.etx.throughput_bytes_per_s;
  if (etx > 0.0) {
    out.gain_omnc = out.omnc.throughput_per_generation / etx;
    out.gain_more = out.more.throughput_per_generation / etx;
    out.gain_oldmore = out.oldmore.throughput_per_generation / etx;
  }
  return out;
}

bool same_session(const protocols::SessionResult& a,
                  const protocols::SessionResult& b) {
  return a.throughput_bytes_per_s == b.throughput_bytes_per_s &&
         a.throughput_per_generation == b.throughput_per_generation &&
         a.generations_completed == b.generations_completed &&
         a.transmissions == b.transmissions &&
         a.packets_delivered == b.packets_delivered;
}

bool same_comparison(const experiments::ComparisonResult& a,
                     const experiments::ComparisonResult& b) {
  for (const Protocol& q : kProtocols) {
    if (!same_session(a.*q.result, b.*q.result)) return false;
  }
  return true;
}

/// Checks the panel's results: every session needs a live ETX baseline and
/// finite gains.  A failing session fails on each of the `passes` passes.
void check_panel(const Panel& panel, std::size_t passes, Report* report) {
  for (std::size_t i = 0; i < panel.results.size(); ++i) {
    const experiments::ComparisonResult& r = panel.results[i];
    const bool live = r.etx.throughput_bytes_per_s > 0.0;
    const bool finite = std::isfinite(r.gain_omnc) &&
                        std::isfinite(r.gain_more) &&
                        std::isfinite(r.gain_oldmore);
    if (!live || !finite) {
      report->failed += passes;
      report->fail("session " + std::to_string(i) +
                   (live ? ": non-finite gain" : ": dead ETX baseline"));
    }
  }
}

/// One pass over the panel.  The first pass (panel->results empty) fills
/// the panel's results; every later pass must reproduce them exactly.
Pass run_pass(Panel* panel, bool timed, SpanLog* spans, Report* report) {
  Pass pass;
  ScopedSpan pass_span(spans, "pass", SpanLog::kNoParent);
  std::vector<experiments::SessionSpec> sessions;
  {
    ScopedSpan span(spans, "sim.generate_workload", pass_span.id());
    const std::uint64_t t0 = wall_ns();
    sessions = experiments::generate_workload(panel_config());
    pass.setup_s = 1e-9 * static_cast<double>(wall_ns() - t0);
  }
  if (sessions.size() != panel->seeds.size()) {
    report->failed += panel->seeds.size();
    report->fail("generate_workload returned " +
                 std::to_string(sessions.size()) + " sessions, not " +
                 std::to_string(panel->seeds.size()));
    return pass;
  }
  const experiments::RunConfig config = run_config();
  const bool first = panel->results.empty();

  ScopedSpan run_span(spans, "sim.run_all", pass_span.id());
  const std::uint64_t run0 = wall_ns();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].seed = panel->seeds[i];
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t w0 = wall_ns();
    const experiments::ComparisonResult r =
        timed ? timed_comparison(sessions[i], config, &pass, spans,
                                 run_span.id())
              : experiments::run_comparison(sessions[i], config);
    pass.session_wall_s.push_back(1e-9 * static_cast<double>(wall_ns() - w0));
    pass.session_cpu_s.push_back(
        1e-9 * static_cast<double>(process_cpu_ns() - cpu0));
    if (first) {
      panel->results.push_back(r);
    } else if (!same_comparison(r, panel->results[i])) {
      report->failed += 1;
      report->fail("session " + std::to_string(i) +
                   ": a repeated pass did not reproduce the first");
    }
  }
  pass.wall_s = 1e-9 * static_cast<double>(wall_ns() - run0);
  return pass;
}

/// Rounds of one pass over every panel until `seconds` have passed,
/// counting every session comparison as attempted.
std::vector<Pass> repeat(std::vector<Panel>* panels, double seconds,
                         bool timed, SpanLog* spans, Report* report) {
  return repeat_rounds<Pass>(seconds, kPanelsPerRun, *report, [&](int k) {
    Panel* panel = &(*panels)[static_cast<std::size_t>(k)];
    Pass pass = run_pass(panel, timed, spans, report);
    pass.panel = k;
    report->attempted += panel->seeds.size();
    return pass;
  });
}

/// One sample per session comparison of every pass: its wall (or CPU)
/// time, and work(result) of that session.  The input is the session of
/// its panel.
template <typename F>
std::vector<Sample> session_samples(const std::vector<Panel>& panels,
                                    const std::vector<Pass>& passes, bool cpu,
                                    F work) {
  std::vector<Sample> samples;
  for (const Pass& p : passes) {
    const Panel& panel = panels[static_cast<std::size_t>(p.panel)];
    for (std::size_t i = 0; i < panel.results.size(); ++i) {
      samples.push_back(Sample{
          p.panel * kPanelSessions + static_cast<int>(i),
          cpu ? p.session_cpu_s[i] : p.session_wall_s[i],
          work(panel.results[i])});
    }
  }
  return samples;
}

/// Generations completed and packets delivered by all four protocols.
double gens_of(const experiments::ComparisonResult& r) {
  return r.omnc.generations_completed + r.more.generations_completed +
         r.oldmore.generations_completed + r.etx.generations_completed;
}
double copies_of(const experiments::ComparisonResult& r) {
  return static_cast<double>(r.omnc.packets_delivered +
                             r.more.packets_delivered +
                             r.oldmore.packets_delivered +
                             r.etx.packets_delivered);
}

/// Session comparisons per wall second, each session at its fastest run.
double sessions_per_s(const std::vector<Panel>& panels,
                      const std::vector<Pass>& passes) {
  return best_of(session_samples(panels, passes, false, [](const auto&) {
           return 1.0;
         })).rate();
}

void report_end_to_end(const std::vector<Panel>& panels,
                       const std::vector<Pass>& passes, Report* report) {
  const double gen_bytes =
      static_cast<double>(run_config().protocol.coding.generation_bytes());
  // Virtual-time results, the same on every pass: OMNC goodput and the mean
  // OMNC generation interval (completed bytes over last-ACK time).
  constexpr int kSessions = kPanelsPerRun * kPanelSessions;
  double goodput = 0.0;
  std::vector<double> latencies;
  for (const Panel& panel : panels) {
    for (const experiments::ComparisonResult& r : panel.results) {
      goodput += r.omnc.throughput_bytes_per_s / kSessions;
      if (r.omnc.throughput_bytes_per_s > 0.0) {
        latencies.push_back(gen_bytes / r.omnc.throughput_bytes_per_s);
      }
    }
  }
  const BestTotal decoded = best_of(session_samples(
      panels, passes, false,
      [&](const auto& r) { return gens_of(r) * gen_bytes; }));
  const BestTotal per_copy =
      best_of(session_samples(panels, passes, true, copies_of));
  const BestTotal per_gen =
      best_of(session_samples(panels, passes, true, gens_of));
  const std::size_t n = passes.size() * kPanelSessions;
  report->e2e_rounds("setup_s",
                     each(passes, [](const Pass& p) { return p.setup_s; }),
                     kPanelsPerRun, "s");
  report->e2e("decoded_MBps", decoded.rate() / 1e6, "MB/s", n);
  report->e2e("cpu_us_per_copy", 1e6 / per_copy.rate(), "us", n);
  report->e2e("cpu_ms_per_gen", 1e3 / per_gen.rate(), "ms", n);
  report->e2e("goodput_Bps", goodput, "B/s", kSessions);
  report->e2e("ack_latency_p50_s", percentile(latencies, 50.0), "s",
              latencies.size());
  report->e2e("ack_latency_p99_s", percentile(latencies, 99.0), "s",
              latencies.size());
  report->e2e("sessions_per_s", sessions_per_s(panels, passes), "1/s", n);
  const std::vector<double> walls =
      each(passes, [](const Pass& p) { return p.wall_s; });
  std::printf("# %zu passes over %d panels of %d sessions; pass wall "
              "quartiles %.4g %.4g %.4g s; fastest run of every session, "
              "summed: %.4g s\n",
              passes.size(), kPanelsPerRun, kPanelSessions,
              percentile(walls, 25.0), median(walls), percentile(walls, 75.0),
              decoded.cost);
}

/// Times node selection and rate control on every panel session by calling
/// them directly (inside the protocols they run unobserved).
void report_setup_layers(Report* report) {
  const std::vector<experiments::SessionSpec> sessions =
      experiments::generate_workload(panel_config());
  double select_s = 0.0, rc_s = 0.0, iters = 0.0;
  for (const experiments::SessionSpec& spec : sessions) {
    std::uint64_t t0 = wall_ns();
    const routing::SessionGraph graph =
        routing::select_nodes(*spec.topology, spec.src, spec.dst);
    select_s += 1e-9 * static_cast<double>(wall_ns() - t0);
    t0 = wall_ns();
    opt::RateControlParams params;
    params.capacity = paper::kCapacityBytesPerSecond;
    opt::DistributedRateControl control(graph, params);
    iters += control.run().iterations;
    rc_s += 1e-9 * static_cast<double>(wall_ns() - t0);
  }
  const double n = static_cast<double>(sessions.size());
  report->layer("routing.select_nodes_ms", 1e3 * select_s / n, "ms",
                sessions.size());
  report->layer("opt.rate_control_ms", 1e3 * rc_s / n, "ms", sessions.size());
  report->layer("opt.rate_control_iters", iters / n, "count", sessions.size());
}

void report_per_layer(const std::vector<Panel>& panels,
                      const std::vector<Pass>& passes, double untraced_rate,
                      Report* report) {
  double cpu = 0, wall = 0, gens = 0;
  double protocol_s[4] = {0, 0, 0, 0};
  for (const Pass& p : passes) {
    wall += p.wall_s;
    for (const double s : p.session_cpu_s) cpu += s;
    for (int q = 0; q < 4; ++q) protocol_s[q] += p.protocol_s[q];
    for (const experiments::ComparisonResult& r :
         panels[static_cast<std::size_t>(p.panel)].results) {
      gens += gens_of(r);
    }
  }
  const std::size_t n = passes.size();
  const double comparisons = static_cast<double>(n * kPanelSessions);
  report_coding_timers(report, gens, true, false);
  const CodingTotals coding = coding_totals();
  report->idle("coding.innovative_ratio");  // an EmuNode statistic
  report->layer("coding.cpu_share", coding.total_s() / cpu, "ratio", n);
  // Idle by construction, not by observation: this workload builds no
  // transport, mux or clock, and those layers keep no registry timers.
  report->idle_layers({"transport.", "emu.", "time."});
  report_setup_layers(report);

  const TimerTotal slot = timer_total(timers::kSlot);
  if (slot.count == 0) report->fail("sim.slot_ns: no samples");
  report->layer("sim.slot_ns", slot.ns_per_call(), "ns", slot.count);
  const TimerTotal pivots = timer_total(timers::kPivot);
  report->layer("lp.simplex_pivots",
                static_cast<double>(pivots.count) / comparisons, "count",
                pivots.count);
  for (int q = 0; q < 4; ++q) {
    report->layer(kProtocols[q].metric, 1e3 * protocol_s[q] / comparisons,
                  "ms", static_cast<std::size_t>(comparisons));
  }

  // Ledger over the run phase, in wall time (one thread).  The rows are the
  // four protocol calls, each timed on its own; the total they are checked
  // against is the run phase's wall time, measured apart from them, so
  // anything outside the calls (or a call counted twice) shows as
  // unaccounted.  Inside the calls the registry timers break out coding, the
  // session engine's slot handler (which runs the coding) and LP pivots;
  // those lines are a breakdown and not summed.
  const double ns = 1e-9;
  const auto row = [&](const char* name, double seconds) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-18s %9.4f s  %6.1f%% of run wall",
                  name, seconds, 100.0 * seconds / wall);
    report->ledger.push_back(line);
  };
  double accounted = 0.0;
  for (int q = 0; q < 4; ++q) {
    row(kProtocols[q].span, protocol_s[q]);
    accounted += protocol_s[q];
  }
  row("  of which coding", coding.total_s());
  row("  of which sim.slot",
      ns * static_cast<double>(slot.total_ns) - coding.total_s());
  row("  of which lp", ns * static_cast<double>(pivots.total_ns));
  row("accounted", accounted);
  row("run wall", wall);
  row("process CPU", cpu);
  report->layer("ledger.unaccounted_share", 1.0 - accounted / wall, "ratio", n);
  report->layer("trace.overhead",
                1.0 - sessions_per_s(panels, passes) / untraced_rate, "ratio",
                n);
}

}  // namespace

void run_sim_workload(const Args& args, Report* report, SpanLog* spans) {
  std::printf("# workload fig2_sim: Fig. 2 lossy panel, %d-node deployment "
              "(seed %llu), %d sessions of %d-%d hops per pass, "
              "%d x %d B generations, C = %.0f B/s, %.0f simulated s, "
              "OMNC/MORE/oldMORE/ETX single-threaded\n",
              paper::kNodes, static_cast<unsigned long long>(kDeploymentSeed),
              kPanelSessions, paper::kMinHops, paper::kMaxHops,
              paper::kGenerationBlocks, paper::kBlockBytes,
              paper::kCapacityBytesPerSecond, kSimSeconds);
  // Warm-up pass on other seeds (caches, allocator), not recorded.
  Panel warmup_panel;
  for (int i = 0; i < kPanelSessions; ++i) {
    warmup_panel.seeds.push_back(rep_seed(args.seed, -2 - i));
  }
  Report warmup;
  run_pass(&warmup_panel, false, nullptr, &warmup);
  if (!warmup.correct) report->fail("warm-up: " + warmup.errors.front());

  std::vector<Panel> panels = make_panels(args.seed);
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Pass> passes =
      repeat(&panels, untraced_seconds, false, nullptr, report);
  for (int k = 0; k < kPanelsPerRun; ++k) {
    const auto over_k = std::count_if(
        passes.begin(), passes.end(),
        [k](const Pass& p) { return p.panel == k; });
    check_panel(panels[static_cast<std::size_t>(k)],
                static_cast<std::size_t>(over_k), report);
  }
  if (!report->correct) return;
  report_end_to_end(panels, passes, report);
  if (!args.trace) return;

  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::set_enabled(true);
  const std::vector<Pass> traced =
      repeat(&panels, args.seconds / 2, true, spans, report);
  obs::MetricsRegistry::set_enabled(false);
  if (!report->correct) return;
  report_per_layer(panels, traced, sessions_per_s(panels, passes), report);
}

}  // namespace perfbench
