// Extension bench — the multiple-unicast scenario from the paper's
// conclusion.  Runs K concurrent sessions under the joint distributed rate
// control and compares against (a) the joint max-min LP and (b) each session
// running alone, quantifying the cost of sharing and the fairness of the
// allocation.
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "common/options.h"
#include "common/stats.h"
#include "common/table.h"
#include "opt/multi_unicast.h"
#include "opt/sunicast.h"
#include "protocols/multi_unicast.h"
#include "protocols/omnc.h"

using namespace omnc;
using namespace omnc::experiments;

int main(int argc, char** argv) {
  const Options options(argc, argv);
  bench::BenchSetup setup = bench::parse_setup(options);
  const int k = static_cast<int>(options.get_int("concurrent", 2));
  const int batches = static_cast<int>(options.get_int(
      "batches", options.get_bool("paper", false) ? 30 : 10));
  setup.workload.sessions = k * batches;
  bench::ObsSetup obs =
      bench::parse_obs(options, "multi_unicast_bench", setup);

  std::printf("== multiple-unicast extension: %d concurrent sessions ==\n",
              k);
  bench::print_setup(setup);

  const auto specs = generate_workload(setup.workload);

  OnlineStats joint_min, joint_aggregate, alone_mean, lp_min, fairness;
  OnlineStats rc_iters;
  int decoded_everywhere = 0;
  bench::CompletedGenerations joint_generations, alone_generations;
  for (int batch = 0; batch < batches; ++batch) {
    std::vector<const routing::SessionGraph*> graphs;
    for (int j = 0; j < k; ++j) {
      graphs.push_back(&specs[static_cast<std::size_t>(batch * k + j)].graph);
    }
    const auto& topology = *specs[static_cast<std::size_t>(batch * k)].topology;

    // Joint LP reference.
    const opt::MultiSUnicastSolution lp = opt::solve_multi_sunicast(
        topology, graphs, setup.run.protocol.mac.capacity_bytes_per_s);
    if (lp.feasible) lp_min.add(lp.min_gamma);

    // Concurrent emulation under the joint distributed controller.
    protocols::MultiUnicastConfig config;
    config.protocol = setup.run.protocol;
    config.protocol.seed = specs[static_cast<std::size_t>(batch * k)].seed;
    int trace_run = -1;
    std::optional<obs::RunSink> trace_sink;
    if (obs.recorder != nullptr) {
      obs::RunContext ctx;
      ctx.protocol = "multi_omnc";
      ctx.seed = config.protocol.seed;
      ctx.topology_nodes = topology.node_count();
      ctx.generation_blocks = config.protocol.coding.generation_blocks;
      ctx.block_bytes = config.protocol.coding.block_bytes;
      ctx.capacity_bytes_per_s = config.protocol.mac.capacity_bytes_per_s;
      ctx.cbr_bytes_per_s = config.protocol.cbr_bytes_per_s;
      ctx.sim_seconds = config.protocol.max_sim_seconds;
      ctx.shared_queue = true;  // every session reports the channel-wide mean
      trace_run = obs.recorder->begin_run(ctx, graphs);
      trace_sink.emplace(obs.recorder.get(), trace_run);
      config.trace_sink = trace_sink->sink_or_null();
    }
    protocols::MultiUnicastOmnc runner(topology, graphs, config);
    const auto joint = runner.run();
    if (obs.recorder != nullptr) {
      obs.recorder->end_run(trace_run, joint.sessions, joint.edge_innovative);
    }
    joint_min.add(joint.min_throughput);
    joint_aggregate.add(joint.aggregate_throughput);
    rc_iters.add(joint.rc_iterations);
    bool all = true;
    double best = 0.0;
    double worst = 1e18;
    for (const auto& s : joint.sessions) {
      joint_generations.add("OMNC", s);
      all = all && s.generations_completed > 0;
      best = std::max(best, s.throughput_per_generation);
      worst = std::min(worst, s.throughput_per_generation);
    }
    if (all) ++decoded_everywhere;
    if (best > 0.0) fairness.add(worst / best);

    // Each session alone (single-session OMNC) for the sharing cost.
    for (int j = 0; j < k; ++j) {
      const auto& spec = specs[static_cast<std::size_t>(batch * k + j)];
      protocols::ProtocolConfig pc = setup.run.protocol;
      pc.seed = spec.seed ^ 0x77;
      protocols::OmncProtocol alone(*spec.topology, spec.graph, pc,
                                    protocols::OmncConfig{});
      const protocols::SessionResult result = alone.run();
      alone_mean.add(result.throughput_per_generation);
      alone_generations.add("OMNC", result);
    }
    std::fprintf(stderr, "  batch %d/%d done\n", batch + 1, batches);
  }

  TextTable table({"metric", "value"});
  table.add_row({"batches x concurrent sessions",
                 std::to_string(batches) + " x " + std::to_string(k)});
  table.add_row({"joint LP max-min throughput (B/s)",
                 TextTable::fmt(lp_min.mean(), 0)});
  table.add_row({"emulated min session throughput (B/s)",
                 TextTable::fmt(joint_min.mean(), 0)});
  table.add_row({"emulated aggregate throughput (B/s)",
                 TextTable::fmt(joint_aggregate.mean(), 0)});
  table.add_row({"single-session (alone) mean throughput (B/s)",
                 TextTable::fmt(alone_mean.mean(), 0)});
  table.add_row({"sharing efficiency (aggregate / k x alone)",
                 TextTable::fmt(joint_aggregate.mean() /
                                    (k * alone_mean.mean()), 2)});
  table.add_row({"fairness (worst/best session)",
                 TextTable::fmt(fairness.mean(), 2)});
  table.add_row({"batches with every session decoding",
                 std::to_string(decoded_everywhere) + "/" +
                     std::to_string(batches)});
  table.add_row({"mean joint rate-control iterations",
                 TextTable::fmt(rc_iters.mean(), 0)});
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nshape check: the shared congestion prices split the channel — the\n"
      "aggregate stays within the single-session ballpark while no session\n"
      "starves (the paper's Sec. 6 multiple-unicast extension).\n");
  bench::finish_obs(obs);
  const int unmeasured =
      joint_generations.report_unmeasured(
          "multi_unicast_bench: concurrent sessions") +
      alone_generations.report_unmeasured(
          "multi_unicast_bench: single-session (alone) runs");
  return unmeasured > 0 ? 1 : 0;
}
