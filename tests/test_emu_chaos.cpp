// Chaos soak: the fig-2 diamond as a one-session SessionMux, swept across
// every shipped FaultPlan preset (burst loss, jitter/reorder/dup, a 2 s
// partition, a single-node blackout, and the combined chaos scenario).  The
// acceptance gate is liveness + integrity: under every scenario all
// generations decode byte-exactly and the run terminates — no deadlock, no
// unbounded redundancy — with goodput inside a generous band of the clean
// run (thread scheduling is nondeterministic, see DESIGN.md §10).
//
// The soak runs under the WarpClock (DESIGN.md §12): virtual time advances
// as fast as the shards can step, so sweeping every preset costs
// milliseconds of wall time instead of sleeping through the virtual
// seconds.  One small RealClock smoke keeps the wall-paced path covered.
// Every run asks for two shards, so the threaded loop and the warp barrier
// stay under test (one shard runs inline on the test thread).
//
// The run is long enough (in virtual seconds) that the scheduled partition
// (2-4 s) and blackout (2.5-4.5 s) windows open mid-session.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "net/topology.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"

namespace omnc::emu {
namespace {

constexpr double kCapacity = 2e4;
constexpr int kGenerations = 40;  // ~6 virtual seconds on this topology

net::Topology diamond() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8;
  p[0][2] = p[2][0] = 0.6;
  p[1][3] = p[3][1] = 0.7;
  p[2][3] = p[3][2] = 0.9;
  return net::Topology::from_link_matrix(p);
}

MuxConfig soak_config(vtime::ClockMode clock_mode) {
  MuxConfig config;
  config.emu.node.coding.generation_blocks = 8;
  config.emu.node.coding.block_bytes = 64;
  config.emu.node.cbr_bytes_per_s = 1e4;
  config.emu.node.max_generations = kGenerations;
  config.emu.clock_mode = clock_mode;
  config.emu.speedup = 20.0;
  config.emu.wall_timeout_s = 45.0;
  config.shards = 2;
  return config;
}

struct SoakOutcome {
  EmuRunResult result;
  TransportStats transport;
  FaultStats faults;
};

/// Runs the single session over `transport` with in-band price flooding.
void run_session(const routing::SessionGraph& graph, Transport& transport,
                 const MuxConfig& config, const opt::RateControlResult& rc,
                 const std::vector<double>& rates, SoakOutcome* outcome) {
  SessionMux mux(graph, transport, config);
  mux.install_price_table(rates, rc.lambda, rc.beta, rc.iterations);
  MuxRunResult run = mux.run();
  ASSERT_EQ(run.sessions.size(), 1u);
  outcome->result = std::move(run.sessions[0]);
  outcome->transport = run.transport;
}

SoakOutcome run_scenario(const std::string& preset,
                         vtime::ClockMode clock_mode = vtime::ClockMode::kWarp) {
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  opt::RateControlParams params;
  params.capacity = kCapacity;
  opt::DistributedRateControl control(graph, params);
  const opt::RateControlResult rc = control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, kCapacity);

  LoopbackConfig loopback;
  loopback.seed = 1;
  LoopbackTransport base(graph.size(), link_matrix_from_topology(topo, graph),
                         loopback);
  SoakOutcome outcome;
  const MuxConfig config = soak_config(clock_mode);
  if (preset.empty()) {
    run_session(graph, base, config, rc, rates, &outcome);
    return outcome;
  }
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::parse(preset, &plan, &error)) << preset << ": "
                                                       << error;
  FaultTransport faulty(base, plan);
  run_session(graph, faulty, config, rc, rates, &outcome);
  outcome.faults = faulty.fault_stats();
  return outcome;
}

TEST(EmuChaosSoak, EveryPresetRetiresAllGenerationsWithinGoodputBand) {
  const SoakOutcome clean = run_scenario("");
  ASSERT_TRUE(clean.result.completed);
  ASSERT_TRUE(clean.result.data_ok);
  ASSERT_EQ(clean.result.generations_completed, kGenerations);
  ASSERT_GT(clean.result.goodput_bytes_per_s, 0.0);

  for (const std::string& preset : FaultPlan::preset_names()) {
    SCOPED_TRACE("preset: " + preset);
    const SoakOutcome outcome = run_scenario(preset);
    // Liveness + integrity: every generation decoded byte-exactly, and the
    // run terminated on its own (no timeout, no deadlock).
    EXPECT_TRUE(outcome.result.completed);
    EXPECT_TRUE(outcome.result.data_ok);
    EXPECT_EQ(outcome.result.generations_completed, kGenerations);
    // Goodput stays within a generous band of the clean run — injected
    // faults cost throughput but must not collapse or inflate it.
    const double ratio = outcome.result.goodput_bytes_per_s /
                         clean.result.goodput_bytes_per_s;
    EXPECT_GT(ratio, 0.1) << "goodput " << outcome.result.goodput_bytes_per_s
                          << " vs clean "
                          << clean.result.goodput_bytes_per_s;
    EXPECT_LT(ratio, 3.0) << "goodput " << outcome.result.goodput_bytes_per_s
                          << " vs clean "
                          << clean.result.goodput_bytes_per_s;
    // Bounded redundancy: the stall boost must not balloon traffic past a
    // small multiple of the clean run's transmission volume.
    EXPECT_LT(outcome.transport.frames_sent,
              12 * clean.transport.frames_sent);
  }
}

TEST(EmuChaosSoak, RandomFaultPresetsActuallyInject) {
  // The stochastic scenarios must visibly perturb the run (the windowed
  // scenarios are pinned deterministically in test_fault_transport).
  const SoakOutcome burst = run_scenario("burst");
  EXPECT_GT(burst.faults.lost, 0u);
  const SoakOutcome jitter = run_scenario("jitter");
  EXPECT_GT(jitter.faults.duplicated + jitter.faults.reordered, 0u);
}

TEST(EmuChaosSoak, RealClockSmoke) {
  // One short wall-paced run keeps the RealClock path (thread sleeps, wall
  // deadline) covered now that the soak itself warps.
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  opt::RateControlParams params;
  params.capacity = kCapacity;
  opt::DistributedRateControl control(graph, params);
  const opt::RateControlResult rc = control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, kCapacity);

  LoopbackConfig loopback;
  loopback.seed = 1;
  LoopbackTransport base(graph.size(), link_matrix_from_topology(topo, graph),
                         loopback);
  MuxConfig config = soak_config(vtime::ClockMode::kReal);
  config.emu.node.max_generations = 4;
  SoakOutcome outcome;
  run_session(graph, base, config, rc, rates, &outcome);
  const EmuRunResult& result = outcome.result;
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.data_ok);
  EXPECT_EQ(result.generations_completed, 4);
}

}  // namespace
}  // namespace omnc::emu
