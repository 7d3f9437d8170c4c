// Figure 4 — node utility ratio and path utility ratio.
//
// Node utility: nodes that actually transmitted / nodes selected.
// Path utility: S->T paths of the selected DAG that carried innovative
// traffic / all available paths.  Paper: oldMORE prunes low-quality links
// and scores low on both; OMNC and (new) MORE involve almost everything.
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
  bench::ObsSetup obs = bench::parse_obs(options, "fig4_utility_ratio", setup);
  setup.run.trace = obs.recorder.get();
  std::printf("== Fig. 4: node and path utility ratios ==\n");
  bench::print_setup(setup);

  const auto sessions = generate_workload(setup.workload);
  const auto results =
      run_all(sessions, setup.run, nullptr, bench::print_progress);

  Cdf node_omnc, node_more, node_old;
  Cdf path_omnc, path_more, path_old;
  bench::CompletedGenerations generations;
  for (const auto& r : results) {
    node_omnc.add(r.omnc.node_utility_ratio);
    node_more.add(r.more.node_utility_ratio);
    node_old.add(r.oldmore.node_utility_ratio);
    path_omnc.add(r.omnc.path_utility_ratio);
    path_more.add(r.more.path_utility_ratio);
    path_old.add(r.oldmore.path_utility_ratio);
    generations.add(r);
  }

  std::printf("\n-- node utility ratio (Fig. 4 left) --\n%s\n",
              render_cdf_chart({{"OMNC", &node_omnc},
                                {"oldMORE", &node_old},
                                {"MORE", &node_more}},
                               0.0, 1.0)
                  .c_str());
  std::printf("-- path utility ratio (Fig. 4 right) --\n%s\n",
              render_cdf_chart({{"OMNC", &path_omnc},
                                {"oldMORE", &path_old},
                                {"MORE", &path_more}},
                               0.0, 1.0)
                  .c_str());
  std::printf("%s\n",
              render_cdf_data({{"node_OMNC", &node_omnc},
                               {"node_MORE", &node_more},
                               {"node_oldMORE", &node_old},
                               {"path_OMNC", &path_omnc},
                               {"path_MORE", &path_more},
                               {"path_oldMORE", &path_old}},
                              0.0, 1.0, 21)
                  .c_str());

  std::printf("== paper vs measured (mean utility ratios) ==\n");
  TextTable table({"protocol", "node (paper)", "node (measured)",
                   "path (paper)", "path (measured)"});
  table.add_row({"OMNC", "high (~1)", TextTable::fmt(node_omnc.mean(), 2),
                 "high", TextTable::fmt(path_omnc.mean(), 2)});
  table.add_row({"MORE", "similar to OMNC", TextTable::fmt(node_more.mean(), 2),
                 "similar", TextTable::fmt(path_more.mean(), 2)});
  table.add_row({"oldMORE", "low (prunes nodes)",
                 TextTable::fmt(node_old.mean(), 2), "low",
                 TextTable::fmt(path_old.mean(), 2)});
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nshape check: oldMORE's min-cost pruning keeps its utility well\n"
      "below OMNC/MORE; measured node-utility gap OMNC - oldMORE = %.2f\n",
      node_omnc.mean() - node_old.mean());
  bench::finish_obs(obs);
  // Before a protocol's first generation completes, its utility ratios
  // describe the start-up transient, not the steady state Fig. 4 compares.
  return generations.report_unmeasured("fig4_utility_ratio") > 0 ? 1 : 0;
}
