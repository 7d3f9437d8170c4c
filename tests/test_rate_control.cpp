#include "opt/rate_control.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/topology.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"

namespace omnc::opt {
namespace {

routing::SessionGraph diamond_graph() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8;
  p[0][2] = p[2][0] = 0.6;
  p[1][3] = p[3][1] = 0.7;
  p[2][3] = p[3][2] = 0.9;
  const net::Topology topo = net::Topology::from_link_matrix(p);
  return routing::select_nodes(topo, 0, 3);
}

TEST(RateControl, ConvergesOnDiamond) {
  const routing::SessionGraph graph = diamond_graph();
  RateControlParams params;
  params.capacity = 1e5;
  DistributedRateControl controller(graph, params);
  const RateControlResult result = controller.run();
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 5);
  EXPECT_LT(result.iterations, params.max_iterations);
  EXPECT_GT(result.messages, 0u);
}

TEST(RateControl, RecoveredRatesNearLpOptimum) {
  const routing::SessionGraph graph = diamond_graph();
  const double capacity = 1e5;
  const SUnicastSolution lp = solve_sunicast(graph, capacity);
  ASSERT_TRUE(lp.feasible);

  RateControlParams params;
  params.capacity = capacity;
  DistributedRateControl controller(graph, params);
  RateControlResult result = controller.run();
  rescale_to_feasible(graph, result.b, capacity);

  // The decomposition is approximate: the recovered rate vector must land
  // within a modest factor of the LP's allocation for every active node.
  for (int v = 0; v < graph.size(); ++v) {
    if (v == graph.destination) continue;
    const double lp_rate = lp.b[static_cast<std::size_t>(v)];
    const double dist_rate = result.b[static_cast<std::size_t>(v)];
    if (lp_rate > 0.05 * capacity) {
      EXPECT_GT(dist_rate, 0.4 * lp_rate) << "node " << v;
      EXPECT_LT(dist_rate, 2.0 * lp_rate) << "node " << v;
    }
  }
  // And the throughput estimate is in the LP's neighborhood.
  EXPECT_GT(result.gamma, 0.5 * lp.gamma);
  EXPECT_LT(result.gamma, 2.0 * lp.gamma);
}

TEST(RateControl, DiamondOutputsArePinned) {
  // Table 1 on the Fig. 2 diamond at C = 2*10^4: every det emulation
  // baseline installs these rates and floods these prices, so any change to
  // the iteration's arithmetic shows up here first, bit for bit.
  const routing::SessionGraph graph = diamond_graph();
  RateControlParams params;
  params.capacity = 2e4;
  const RateControlResult result = DistributedRateControl(graph, params).run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 73);
  EXPECT_EQ(result.messages, 2044u);
  EXPECT_EQ(result.gamma, 0x1.cd6b78cd96e95p+13);
  EXPECT_EQ(result.b,
            (std::vector<double>{0x1.41413cbc5ea07p+13, 0x1.399def471eed9p+13,
                                 0x1.13832d9ca1c23p+13, 0x1.188c46231188cp-1}));
  EXPECT_EQ(result.x,
            (std::vector<double>{0x1.e021684d44bb8p+12, 0x1.bab5894de916fp+12,
                                 0x1.e021684d44bb8p+12, 0x1.bab5894de916fp+12}));
  EXPECT_EQ(result.lambda,
            (std::vector<double>{0x1.4e23c45a8c5dap-3, 0x1.5003d3aba2383p+0,
                                 0x1.4474b051b6d78p+0, 0x1.c7b149221e345p-5}));
  EXPECT_EQ(result.beta,
            (std::vector<double>{0.0, 0x1.b605682fd23fp-1,
                                 0x1.4c3b0bd96859bp-6, 0.0}));
}

TEST(RateControl, FeasibleAfterRescale) {
  const routing::SessionGraph graph = diamond_graph();
  RateControlParams params;
  params.capacity = 2e4;
  DistributedRateControl controller(graph, params);
  RateControlResult result = controller.run();
  rescale_to_feasible(graph, result.b, params.capacity);
  EXPECT_LE(broadcast_load_factor(graph, result.b, params.capacity),
            1.0 + 1e-9);
  for (double rate : result.b) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, params.capacity + 1e-9);
  }
}

TEST(RateControl, TraceRecordsEveryIteration) {
  const routing::SessionGraph graph = diamond_graph();
  RateControlParams params;
  params.capacity = 1e5;
  DistributedRateControl controller(graph, params);
  IterationTrace trace;
  const RateControlResult result = controller.run(&trace);
  EXPECT_EQ(trace.gamma.size(), static_cast<std::size_t>(result.iterations));
  EXPECT_EQ(trace.b.size(), static_cast<std::size_t>(result.iterations));
  for (const auto& b : trace.b) {
    EXPECT_EQ(b.size(), static_cast<std::size_t>(graph.size()));
  }
  // The trace converges: late iterations barely move.
  const auto& last = trace.b.back();
  const auto& prev = trace.b[trace.b.size() - 2];
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_NEAR(last[i], prev[i], 0.01 * params.capacity);
  }
}

TEST(RateControl, ResultScalesWithCapacity) {
  const routing::SessionGraph graph = diamond_graph();
  RateControlParams params;
  params.capacity = 1e4;
  RateControlResult at1 = DistributedRateControl(graph, params).run();
  params.capacity = 1e5;
  RateControlResult at10 = DistributedRateControl(graph, params).run();
  // The normalized iteration is capacity-invariant: results scale exactly.
  ASSERT_EQ(at1.iterations, at10.iterations);
  for (std::size_t i = 0; i < at1.b.size(); ++i) {
    EXPECT_NEAR(at10.b[i], 10.0 * at1.b[i], 1e-6 * at10.b[i] + 1e-9);
  }
}

TEST(RateControl, DeterministicAcrossRuns) {
  const routing::SessionGraph graph = diamond_graph();
  RateControlParams params;
  params.capacity = 2e4;
  const RateControlResult a = DistributedRateControl(graph, params).run();
  const RateControlResult b = DistributedRateControl(graph, params).run();
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.b, b.b);
  EXPECT_DOUBLE_EQ(a.gamma, b.gamma);
}

TEST(RateControl, IterationCountInPaperBallparkOnRandomSessions) {
  // The paper reports an average of 91 iterations; our tolerance-based
  // stopping rule should land in the same order of magnitude.
  Rng rng(7);
  net::DeploymentConfig config;
  config.nodes = 120;
  const net::Topology topo = net::Topology::random_deployment(config, rng);
  int sessions = 0;
  double total_iters = 0.0;
  for (int trial = 0; trial < 100 && sessions < 10; ++trial) {
    const net::NodeId src = rng.uniform_int(0, 119);
    const net::NodeId dst = rng.uniform_int(0, 119);
    if (src == dst) continue;
    const routing::SessionGraph graph = routing::select_nodes(topo, src, dst);
    if (graph.size() < 4 || graph.edges.empty()) continue;
    RateControlParams params;
    params.capacity = 2e4;
    const RateControlResult result =
        DistributedRateControl(graph, params).run();
    ++sessions;
    total_iters += result.iterations;
  }
  ASSERT_GE(sessions, 5);
  const double mean_iters = total_iters / sessions;
  EXPECT_GT(mean_iters, 20.0);
  EXPECT_LT(mean_iters, 600.0);
}

TEST(RateControl, DestinationGetsNoTransmissionRate) {
  const routing::SessionGraph graph = diamond_graph();
  RateControlParams params;
  params.capacity = 1e5;
  RateControlResult result = DistributedRateControl(graph, params).run();
  // The destination has no outgoing edges, so w_dst = 0 and its rate decays
  // toward zero (it starts at a small epsilon).
  EXPECT_LT(result.b[static_cast<std::size_t>(graph.destination)],
            0.01 * params.capacity);
}

}  // namespace
}  // namespace omnc::opt
