// Figure 3 — distribution of the per-session average queue size.
//
// For each session the metric is the time-averaged transmit queue of each
// node involved in the transmission, averaged over those nodes.  Paper:
// OMNC's overall average is 0.63 (its rate control matches transmission
// rates to the channel) while MORE's is 22 (congestion oblivious).
//
// Exits nonzero, naming the protocol, when a protocol completed no
// generation in any session.
#include <cstdio>

#include "bench_util.h"
#include "common/options.h"
#include "common/stats.h"
#include "common/table.h"

using namespace omnc;
using namespace omnc::experiments;

int main(int argc, char** argv) {
  const Options options(argc, argv);
  bench::BenchSetup setup = bench::parse_setup(options);
  bench::ObsSetup obs = bench::parse_obs(options, "fig3_queue_size", setup);
  setup.run.trace = obs.recorder.get();
  std::printf("== Fig. 3: time-averaged queue size ==\n");
  bench::print_setup(setup);

  const auto sessions = generate_workload(setup.workload);
  const auto results =
      run_all(sessions, setup.run, nullptr, bench::print_progress);

  Cdf omnc;
  Cdf more;
  Cdf oldmore;
  bench::CompletedGenerations generations;
  for (const auto& r : results) {
    omnc.add(r.omnc.mean_queue);
    more.add(r.more.mean_queue);
    oldmore.add(r.oldmore.mean_queue);
    generations.add(r);
  }

  std::printf("\n-- OMNC (left panel of Fig. 3 right chart) --\n%s\n",
              render_cdf_chart({{"OMNC", &omnc}}, 0.0,
                               std::max(2.0, omnc.max()))
                  .c_str());
  std::printf("-- MORE (left panel of Fig. 3) --\n%s\n",
              render_cdf_chart({{"MORE", &more}}, 0.0,
                               std::max(10.0, more.max()))
                  .c_str());
  std::printf("%s\n", render_cdf_data({{"OMNC", &omnc},
                                       {"MORE", &more},
                                       {"oldMORE", &oldmore}},
                                      0.0, std::max(10.0, more.max()), 21)
                          .c_str());

  std::printf("== paper vs measured (overall average queue size) ==\n");
  TextTable table({"protocol", "paper", "measured mean", "measured median"});
  table.add_row({"OMNC", "0.63", TextTable::fmt(omnc.mean(), 2),
                 TextTable::fmt(omnc.median(), 2)});
  table.add_row({"MORE", "22", TextTable::fmt(more.mean(), 2),
                 TextTable::fmt(more.median(), 2)});
  table.add_row({"oldMORE", "(n/a)", TextTable::fmt(oldmore.mean(), 2),
                 TextTable::fmt(oldmore.median(), 2)});
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nshape check: OMNC stays around/below one queued packet per node\n"
      "(rate control matches the channel), the credit protocols queue an\n"
      "order of magnitude more.  measured MORE/OMNC queue ratio: %.1fx\n",
      more.mean() / std::max(omnc.mean(), 1e-9));
  bench::finish_obs(obs);
  // A protocol that never finished a generation only ever queued its first
  // one: its figure is a start-up transient, not the steady state Fig. 3
  // compares.
  return generations.report_unmeasured("fig3_queue_size") > 0 ? 1 : 0;
}
