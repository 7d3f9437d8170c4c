// Figure 2 — distribution of throughput gains over ETX routing.
//
// Left panel: the lossy network (mean link reception probability ~0.58).
// Paper averages: OMNC 2.45, MORE 1.67, oldMORE 1.12.
// Right panel: the same deployment at higher transmit power (mean link
// quality ~0.9): OMNC ~1.12 while MORE and oldMORE fall below 1.
//
// Exits nonzero, naming the panel and the protocol, when a panel measured
// nothing for a protocol: a run too short for any generation to complete
// would otherwise print gains of 0.00.
#include <cstdio>

#include "bench_util.h"
#include "common/options.h"
#include "common/stats.h"
#include "common/table.h"

using namespace omnc;
using namespace omnc::experiments;

namespace {

struct PanelResult {
  Cdf omnc;
  Cdf more;
  Cdf oldmore;
  OnlineStats etx_abs;
  bench::CompletedGenerations generations;  // over the CDFs' sessions
};

PanelResult run_panel(bench::BenchSetup setup, double power_factor) {
  setup.workload.deployment.power_factor = power_factor;
  const auto sessions = generate_workload(setup.workload);
  std::fprintf(stderr, "panel power_factor=%.2f: mean link p = %.3f\n",
               power_factor, sessions[0].topology->mean_link_probability());
  PanelResult panel;
  const auto results =
      run_all(sessions, setup.run, nullptr, bench::print_progress);
  for (const auto& r : results) {
    if (r.etx.throughput_bytes_per_s <= 0.0) continue;  // dead baseline
    panel.omnc.add(r.gain_omnc);
    panel.more.add(r.gain_more);
    panel.oldmore.add(r.gain_oldmore);
    panel.etx_abs.add(r.etx.throughput_bytes_per_s);
    panel.generations.add(r);
  }
  return panel;
}

void print_panel(const char* title, const PanelResult& panel, double x_max) {
  std::printf("\n-- %s --\n", title);
  std::printf("%zu sessions with a live ETX baseline (mean ETX throughput "
              "%.0f B/s)\n\n",
              panel.omnc.count(), panel.etx_abs.mean());
  std::printf("%s\n",
              render_cdf_chart({{"OMNC", &panel.omnc},
                                {"MORE", &panel.more},
                                {"oldMORE", &panel.oldmore}},
                               0.0, x_max)
                  .c_str());
  std::printf("%s\n",
              render_cdf_data({{"OMNC", &panel.omnc},
                               {"MORE", &panel.more},
                               {"oldMORE", &panel.oldmore}},
                              0.0, x_max, 19)
                  .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);
  bench::BenchSetup setup = bench::parse_setup(options);
  bench::ObsSetup obs =
      bench::parse_obs(options, "fig2_throughput_gain", setup);
  setup.run.trace = obs.recorder.get();
  const double high_power =
      options.get_double("high-power-factor", 1.6);

  std::printf("== Fig. 2: throughput gain over ETX routing ==\n");
  bench::print_setup(setup);

  const PanelResult lossy = run_panel(setup, 1.0);
  const PanelResult high = run_panel(setup, high_power);

  print_panel("lossy network (Fig. 2 left)", lossy, 6.0);
  print_panel("high link quality (Fig. 2 right)", high, 2.0);

  std::printf("\n== paper vs measured (average throughput gain) ==\n");
  TextTable table({"protocol", "paper lossy", "measured lossy",
                   "measured median", "paper high-q", "measured high-q"});
  table.add_row({"OMNC", "2.45", TextTable::fmt(lossy.omnc.mean(), 2),
                 TextTable::fmt(lossy.omnc.median(), 2), "1.12",
                 TextTable::fmt(high.omnc.mean(), 2)});
  table.add_row({"MORE", "1.67", TextTable::fmt(lossy.more.mean(), 2),
                 TextTable::fmt(lossy.more.median(), 2), "<1",
                 TextTable::fmt(high.more.mean(), 2)});
  table.add_row({"oldMORE", "1.12", TextTable::fmt(lossy.oldmore.mean(), 2),
                 TextTable::fmt(lossy.oldmore.median(), 2), "<1",
                 TextTable::fmt(high.oldmore.mean(), 2)});
  std::printf("%s", table.render().c_str());

  bench::JsonWriter json(options);
  if (json.enabled()) {
    const std::string base = bench::setup_params(setup);
    const struct {
      const char* panel;
      const PanelResult* result;
    } panels[] = {{"lossy", &lossy}, {"high_quality", &high}};
    for (const auto& p : panels) {
      const std::string params = base + ";panel=" + p.panel;
      json.record("fig2_throughput_gain", params, "sessions_with_baseline",
                  static_cast<double>(p.result->omnc.count()));
      json.record("fig2_throughput_gain", params, "etx_mean_bytes_per_s",
                  p.result->etx_abs.mean());
      json.record("fig2_throughput_gain", params, "mean_gain_omnc",
                  p.result->omnc.mean());
      json.record("fig2_throughput_gain", params, "median_gain_omnc",
                  p.result->omnc.median());
      json.record("fig2_throughput_gain", params, "mean_gain_more",
                  p.result->more.mean());
      json.record("fig2_throughput_gain", params, "median_gain_more",
                  p.result->more.median());
      json.record("fig2_throughput_gain", params, "mean_gain_oldmore",
                  p.result->oldmore.mean());
      json.record("fig2_throughput_gain", params, "median_gain_oldmore",
                  p.result->oldmore.median());
    }
  }
  bench::finish_obs(obs);
  const int unmeasured =
      lossy.generations.report_unmeasured(
          "fig2_throughput_gain: lossy panel") +
      high.generations.report_unmeasured(
          "fig2_throughput_gain: high link quality panel");
  return unmeasured > 0 ? 1 : 0;
}
