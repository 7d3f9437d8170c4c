// Deployment-density ablation: the paper fixes density 6 ("each node has on
// average 5 neighbors within its range").  Density controls the path
// diversity OMNC can exploit and the interference it must price; this bench
// sweeps it and reports the throughput-gain trend.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/stats.h"
#include "common/table.h"

using namespace omnc;
using namespace omnc::experiments;

int main(int argc, char** argv) {
  const Options options(argc, argv);
  bench::BenchSetup base = bench::parse_setup(options);
  if (!options.has("sessions")) base.workload.sessions = 16;
  bench::ObsSetup obs = bench::parse_obs(options, "density_sweep", base);
  base.run.trace = obs.recorder.get();
  std::printf("== throughput gain vs deployment density ==\n");
  bench::print_setup(base);

  TextTable table({"density", "mean degree", "|selected|", "ETX B/s",
                   "gain OMNC", "gain MORE", "gain oldMORE"});
  int unmeasured = 0;
  for (double density : {4.0, 6.0, 8.0, 10.0}) {
    WorkloadConfig wc = base.workload;
    wc.deployment.density = density;
    wc.seed = base.workload.seed + static_cast<std::uint64_t>(density);
    const auto sessions = generate_workload(wc);
    const auto results = run_all(sessions, base.run);
    OnlineStats etx, omnc, more, oldmore, selected;
    bench::CompletedGenerations generations;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      if (r.etx.throughput_bytes_per_s <= 0.0) continue;
      etx.add(r.etx.throughput_bytes_per_s);
      omnc.add(r.gain_omnc);
      more.add(r.gain_more);
      oldmore.add(r.gain_oldmore);
      selected.add(sessions[i].graph.size());
      generations.add(r);
    }
    unmeasured += generations.report_unmeasured(
        "density_sweep: density " + TextTable::fmt(density, 0) + " row");
    table.add_row({TextTable::fmt(density, 0),
                   TextTable::fmt(sessions[0].topology->mean_neighbor_count(), 1),
                   TextTable::fmt(selected.mean(), 1),
                   TextTable::fmt(etx.mean(), 0),
                   TextTable::fmt(omnc.mean(), 2),
                   TextTable::fmt(more.mean(), 2),
                   TextTable::fmt(oldmore.mean(), 2)});
    std::fprintf(stderr, "done density %.0f\n", density);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading guide: denser deployments give the coded protocols more\n"
      "forwarders to exploit but also denser interference; OMNC's gain is\n"
      "expected to hold or grow with density while single-path ETX gains\n"
      "nothing from the extra nodes.\n");
  bench::finish_obs(obs);
  return unmeasured > 0 ? 1 : 0;
}
