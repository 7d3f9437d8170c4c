#include "opt/multi_unicast.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "experiments/workload.h"
#include "net/topology.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "protocols/multi_unicast.h"
#include "routing/node_selection.h"

namespace omnc::opt {
namespace {

/// Two parallel chains sharing the middle of the field:
///   session A: 0 -> 1 -> 2,  session B: 3 -> 4 -> 5, with the relays 1 and
///   4 within range of each other (they compete for the channel).
net::Topology crossing_chains() {
  std::vector<std::vector<double>> p(6, std::vector<double>(6, 0.0));
  auto link = [&](int a, int b, double q) { p[a][b] = p[b][a] = q; };
  link(0, 1, 0.8);
  link(1, 2, 0.8);
  link(3, 4, 0.8);
  link(4, 5, 0.8);
  link(1, 4, 0.3);  // coupling link: the sessions interfere
  return net::Topology::from_link_matrix(p);
}

/// Three sessions all relayed by the same middle node: sources 0, 1, 2 ->
/// shared relay 3 -> destinations 4, 5, 6 (7 unused).
net::Topology shared_bottleneck() {
  std::vector<std::vector<double>> p(8, std::vector<double>(8, 0.0));
  auto link = [&](int a, int b, double q) { p[a][b] = p[b][a] = q; };
  for (int src : {0, 1, 2}) link(src, 3, 0.9);
  for (int dst : {4, 5, 6}) link(3, dst, 0.9);
  return net::Topology::from_link_matrix(p);
}

/// The bit patterns of `values`: equal bits is a stronger claim than ==,
/// which cannot tell +0.0 from -0.0.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double value : values) out.push_back(std::bit_cast<std::uint64_t>(value));
  return out;
}

class MultiUnicastTest : public ::testing::Test {
 protected:
  MultiUnicastTest()
      : topo_(crossing_chains()),
        graph_a_(routing::select_nodes(topo_, 0, 2)),
        graph_b_(routing::select_nodes(topo_, 3, 5)) {}

  net::Topology topo_;
  routing::SessionGraph graph_a_;
  routing::SessionGraph graph_b_;
};

TEST_F(MultiUnicastTest, JointLpFeasibleAndFair) {
  const auto solution =
      solve_multi_sunicast(topo_, {&graph_a_, &graph_b_}, 1e4);
  ASSERT_TRUE(solution.feasible);
  EXPECT_GT(solution.min_gamma, 0.0);
  ASSERT_EQ(solution.gamma.size(), 2u);
  EXPECT_GE(solution.gamma[0], solution.min_gamma - 1e-6);
  EXPECT_GE(solution.gamma[1], solution.min_gamma - 1e-6);
  // The symmetric instance yields symmetric max-min throughputs.
  EXPECT_NEAR(solution.gamma[0], solution.gamma[1], 1e-4 * solution.gamma[0]);
}

TEST_F(MultiUnicastTest, SharingHalvesSingleSessionThroughput) {
  // Alone, each chain gets the single-session optimum; sharing the coupled
  // channel must cost something but not everything.
  const auto alone = solve_sunicast(graph_a_, 1e4);
  const auto joint = solve_multi_sunicast(topo_, {&graph_a_, &graph_b_}, 1e4);
  ASSERT_TRUE(alone.feasible && joint.feasible);
  EXPECT_LT(joint.gamma[0], alone.gamma + 1e-6);
  EXPECT_GT(joint.gamma[0], 0.3 * alone.gamma);
}

TEST_F(MultiUnicastTest, JointLpRespectsSharedConstraint) {
  const auto solution =
      solve_multi_sunicast(topo_, {&graph_a_, &graph_b_}, 1e4);
  ASSERT_TRUE(solution.feasible);
  EXPECT_LE(SharedChannel(topo_, {&graph_a_, &graph_b_})
                .load_factor(solution.b, 1e4),
            1.0 + 1e-6);
}

TEST_F(MultiUnicastTest, DistributedControllerConverges) {
  RateControlParams params;
  params.capacity = 1e4;
  MultiSessionRateControl controller(topo_, {&graph_a_, &graph_b_}, params);
  const auto result = controller.run();
  EXPECT_TRUE(result.converged);
  ASSERT_EQ(result.b.size(), 2u);
  ASSERT_EQ(result.gamma.size(), 2u);
  EXPECT_GT(result.gamma[0], 0.0);
  EXPECT_GT(result.gamma[1], 0.0);
}

TEST_F(MultiUnicastTest, DistributedRatesNearJointLp) {
  RateControlParams params;
  params.capacity = 1e4;
  MultiSessionRateControl controller(topo_, {&graph_a_, &graph_b_}, params);
  auto result = controller.run();
  controller.channel().rescale_to_feasible(result.b, 1e4);
  const auto lp = solve_multi_sunicast(topo_, {&graph_a_, &graph_b_}, 1e4);
  ASSERT_TRUE(lp.feasible);
  // Sources must be allocated comparable rates (proportional fairness vs
  // max-min on a symmetric instance agree).
  const double dist_src_a =
      result.b[0][static_cast<std::size_t>(graph_a_.source)];
  const double lp_src_a = lp.b[0][static_cast<std::size_t>(graph_a_.source)];
  EXPECT_GT(dist_src_a, 0.3 * lp_src_a);
  EXPECT_LT(dist_src_a, 3.0 * lp_src_a);
}

TEST_F(MultiUnicastTest, RescaleBringsLoadToOne) {
  std::vector<std::vector<double>> rates = {
      std::vector<double>(static_cast<std::size_t>(graph_a_.size()), 1e4),
      std::vector<double>(static_cast<std::size_t>(graph_b_.size()), 1e4)};
  const SharedChannel channel(topo_, {&graph_a_, &graph_b_});
  const double factor = channel.rescale_to_feasible(rates, 1e4);
  EXPECT_LT(factor, 1.0);
  EXPECT_NEAR(channel.load_factor(rates, 1e4), 1.0, 1e-9);
}

TEST_F(MultiUnicastTest, EndToEndBothSessionsDecode) {
  protocols::MultiUnicastConfig config;
  config.protocol.coding.generation_blocks = 8;
  config.protocol.coding.block_bytes = 64;
  config.protocol.mac.capacity_bytes_per_s = 2e4;
  config.protocol.mac.slot_bytes = 12 + 8 + 64;
  config.protocol.mac.fading.enabled = false;
  config.protocol.cbr_bytes_per_s = 1e4;
  config.protocol.max_sim_seconds = 80.0;
  config.protocol.seed = 5;
  protocols::MultiUnicastOmnc runner(topo_, {&graph_a_, &graph_b_}, config);
  const auto result = runner.run();
  ASSERT_EQ(result.sessions.size(), 2u);
  EXPECT_TRUE(result.rc_converged);
  EXPECT_GT(result.sessions[0].generations_completed, 0);
  EXPECT_GT(result.sessions[1].generations_completed, 0);
  EXPECT_GT(result.min_throughput, 0.0);
  EXPECT_GE(result.aggregate_throughput, 2.0 * result.min_throughput - 1e-9);
}

TEST_F(MultiUnicastTest, ThreeSessionsShareOneBottleneck) {
  // The LP must split the bottleneck's capacity three ways.
  const net::Topology topo = shared_bottleneck();
  const auto g0 = routing::select_nodes(topo, 0, 4);
  const auto g1 = routing::select_nodes(topo, 1, 5);
  const auto g2 = routing::select_nodes(topo, 2, 6);
  ASSERT_EQ(g0.size(), 3);
  const auto joint = solve_multi_sunicast(topo, {&g0, &g1, &g2}, 9e3);
  const auto alone = solve_sunicast(g0, 9e3);
  ASSERT_TRUE(joint.feasible && alone.feasible);
  EXPECT_LT(joint.min_gamma, 0.45 * alone.gamma);
  EXPECT_GT(joint.min_gamma, 0.2 * alone.gamma);
}

/// Runs the joint controller and pins its outputs exactly.  Both instances
/// are symmetric, so every session gets the same throughput and rates.
void expect_joint_pinned(
    const net::Topology& topo,
    const std::vector<const routing::SessionGraph*>& sessions,
    double capacity, int iterations, std::size_t messages, double gamma,
    const std::vector<double>& rates, double scale) {
  RateControlParams params;
  params.capacity = capacity;
  MultiSessionRateControl controller(topo, sessions, params);
  MultiRateControlResult result = controller.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, iterations);
  EXPECT_EQ(result.messages, messages);
  EXPECT_EQ(result.gamma, std::vector<double>(sessions.size(), gamma));
  EXPECT_EQ(result.b, std::vector<std::vector<double>>(sessions.size(), rates));
  EXPECT_EQ(controller.channel().rescale_to_feasible(result.b, capacity),
            scale);
}

TEST(MultiUnicast, JointOutputsArePinned) {
  {
    SCOPED_TRACE("crossing chains, K = 2");
    const net::Topology topo = crossing_chains();
    const auto a = routing::select_nodes(topo, 0, 2);
    const auto b = routing::select_nodes(topo, 3, 5);
    expect_joint_pinned(topo, {&a, &b}, 1e4, 228, 6384u,
                        0x1.64b6a87e85fafp+11,
                        {0x1.9e4b1d84938afp+11, 0x1.a2cc7a88c423ap+11,
                         0x1.674c59d31674bp-4},
                        0x1.ff38e087d6ae5p-1);
  }
  {
    SCOPED_TRACE("shared bottleneck, K = 3");
    const net::Topology topo = shared_bottleneck();
    const auto g0 = routing::select_nodes(topo, 0, 4);
    const auto g1 = routing::select_nodes(topo, 1, 5);
    const auto g2 = routing::select_nodes(topo, 2, 6);
    expect_joint_pinned(topo, {&g0, &g1, &g2}, 9e3, 283, 11886u,
                        0x1.adf4b62de8bebp+10,
                        {0x1.7b902009fe7bp+10, 0x1.80ad1b3bbd9b1p+10,
                         0x1.0485e13e6abdfp-4},
                        0x1.f67335ea6e24fp-1);
  }
}

/// One session through both controllers: the joint run must be the
/// single-session run bit for bit, and so must its load factor and rescale.
void expect_joint_is_single(const net::Topology& topo,
                            const routing::SessionGraph& graph) {
  RateControlParams params;
  params.capacity = 2e4;
  const RateControlResult single = DistributedRateControl(graph, params).run();
  MultiRateControlResult joint =
      MultiSessionRateControl(topo, {&graph}, params).run();
  EXPECT_EQ(joint.converged, single.converged);
  EXPECT_EQ(joint.iterations, single.iterations);
  EXPECT_EQ(joint.messages, single.messages);
  EXPECT_EQ(bits(joint.gamma), bits({single.gamma}));
  ASSERT_EQ(joint.b.size(), 1u);
  EXPECT_EQ(bits(joint.b[0]), bits(single.b));

  const SharedChannel channel(topo, {&graph});
  EXPECT_EQ(bits({channel.load_factor(joint.b, params.capacity)}),
            bits({broadcast_load_factor(graph, single.b, params.capacity)}));
  std::vector<double> single_b = single.b;
  const double scale = channel.rescale_to_feasible(joint.b, params.capacity);
  EXPECT_EQ(bits({scale}),
            bits({rescale_to_feasible(graph, single_b, params.capacity)}));
  EXPECT_EQ(bits(joint.b[0]), bits(single_b));
}

TEST(MultiUnicast, OneSessionJointRunIsTheSingleSessionRun) {
  {
    SCOPED_TRACE("diamond");
    std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
    p[0][1] = p[1][0] = 0.8;
    p[0][2] = p[2][0] = 0.6;
    p[1][3] = p[3][1] = 0.7;
    p[2][3] = p[3][2] = 0.9;
    const net::Topology topo = net::Topology::from_link_matrix(p);
    expect_joint_is_single(topo, routing::select_nodes(topo, 0, 3));
  }
  for (int hops = 1; hops <= 8; ++hops) {
    SCOPED_TRACE("chain of " + std::to_string(hops) + " hops");
    const std::size_t n = static_cast<std::size_t>(hops) + 1;
    std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i + 1 < n; ++i) p[i][i + 1] = p[i + 1][i] = 0.7;
    const net::Topology topo = net::Topology::from_link_matrix(p);
    expect_joint_is_single(topo, routing::select_nodes(topo, 0, hops));
  }
  experiments::WorkloadConfig config;
  config.sessions = 20;
  config.seed = 7;
  for (const experiments::SessionSpec& spec :
       experiments::generate_workload(config)) {
    SCOPED_TRACE("generated session " + std::to_string(spec.src) + " -> " +
                 std::to_string(spec.dst));
    expect_joint_is_single(*spec.topology, spec.graph);
  }
}

}  // namespace
}  // namespace omnc::opt
