// Seed replay (DESIGN.md §12): two DeterministicClock runs of the same
// FaultPlan seed must write byte-identical JSONL traces — every emu_send /
// emu_deliver / emu_fault_* record, every virtual timestamp, in the same
// order — and a different seed must visibly change the stream.  This is the
// regression gate for the property that makes emulation failures
// re-runnable under a debugger.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"

namespace omnc::emu {
namespace {

net::Topology diamond() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8;
  p[0][2] = p[2][0] = 0.6;
  p[1][3] = p[3][1] = 0.7;
  p[2][3] = p[3][2] = 0.9;
  return net::Topology::from_link_matrix(p);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One deterministic chaos run, trace recorded to `path`.  Everything that
/// could differ between calls flows from `seed` alone; the trace path stays
/// out of the manifest, so identical seeds must yield identical bytes.
void run_traced(std::uint64_t seed, const std::string& path) {
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  opt::RateControlParams params;
  params.capacity = 2e4;
  opt::DistributedRateControl control(graph, params);
  const opt::RateControlResult rc = control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, params.capacity);

  LoopbackConfig loopback;
  loopback.seed = seed;
  LoopbackTransport base(graph.size(), link_matrix_from_topology(topo, graph),
                         loopback);
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("chaos", &plan, &error)) << error;
  plan.seed = seed;
  FaultTransport faulty(base, plan);

  MuxConfig mux_config;  // one session
  EmuConfig& config = mux_config.emu;
  config.node.coding.generation_blocks = 8;
  config.node.coding.block_bytes = 64;
  config.node.cbr_bytes_per_s = 1e4;
  config.node.max_generations = 10;
  config.node.data_seed = seed;
  config.node.rng_seed = seed;
  config.clock_mode = vtime::ClockMode::kDeterministic;
  config.speedup = 20.0;
  config.wall_timeout_s = 45.0;

  obs::TraceRecorder recorder(path, "test_emu_replay", "preset=chaos", seed);
  ASSERT_TRUE(recorder.ok());
  obs::RunContext context;
  context.protocol = "omnc-emu";
  context.seed = seed;
  context.topology_nodes = topo.node_count();
  context.generation_blocks = config.node.coding.generation_blocks;
  context.block_bytes = config.node.coding.block_bytes;
  context.capacity_bytes_per_s = params.capacity;
  context.cbr_bytes_per_s = config.node.cbr_bytes_per_s;
  const int run_id = recorder.begin_run(context, {&graph});
  obs::RunSink sink(&recorder, run_id);

  SessionMux mux(graph, faulty, mux_config);
  mux.install_price_table(rates, rc.lambda, rc.beta, rc.iterations);
  mux.set_metric_sink(
      [&sink](const protocols::MetricEvent& event) { sink.on_event(event); });
  const MuxRunResult result = mux.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.data_ok);
}

TEST(EmuSeedReplay, SameSeedWritesByteIdenticalTraces) {
  const std::string dir = ::testing::TempDir();
  const std::string path_a = dir + "replay_a.jsonl";
  const std::string path_b = dir + "replay_b.jsonl";
  const std::string path_c = dir + "replay_c.jsonl";
  run_traced(7, path_a);
  run_traced(7, path_b);
  run_traced(8, path_c);

  const std::string first = slurp(path_a);
  const std::string second = slurp(path_b);
  const std::string other = slurp(path_c);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed deterministic traces diverged";
  EXPECT_NE(first, other) << "different seeds produced identical traces";

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_c.c_str());
}

}  // namespace
}  // namespace omnc::emu
