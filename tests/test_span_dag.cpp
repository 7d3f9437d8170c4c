// Span-DAG reconstruction (obs/trace_inspect.h) over real emulation runs:
// on the Fig. 2 diamond — clean and under the chaos fault preset — every
// decoded generation's causal DAG must walk from the decode basis back to
// source-created roots, and two deterministic-clock runs of the same seed
// must emit identical span event streams (the --timeline acceptance gate).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "net/topology.h"
#include "obs/span.h"
#include "obs/trace_inspect.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"

namespace omnc::obs {
namespace {

net::Topology diamond() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8;
  p[0][2] = p[2][0] = 0.6;
  p[1][3] = p[3][1] = 0.7;
  p[2][3] = p[3][2] = 0.9;
  return net::Topology::from_link_matrix(p);
}

/// One deterministic diamond run with the span sink attached; returns the
/// collected span stream.  `fault_preset` optionally wraps the transport.
std::vector<SpanEvent> run_spanned(std::uint64_t seed, int generations,
                                   const std::string& fault_preset) {
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  opt::RateControlParams params;
  params.capacity = 2e4;
  opt::DistributedRateControl control(graph, params);
  const opt::RateControlResult rc = control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, params.capacity);

  emu::LoopbackConfig loopback;
  loopback.seed = seed;
  emu::LoopbackTransport base(graph.size(),
                              emu::link_matrix_from_topology(topo, graph),
                              loopback);
  std::unique_ptr<emu::FaultTransport> faulty;
  emu::Transport* transport = &base;
  if (!fault_preset.empty()) {
    emu::FaultPlan plan;
    std::string error;
    EXPECT_TRUE(emu::FaultPlan::parse(fault_preset, &plan, &error)) << error;
    plan.seed = seed;
    faulty = std::make_unique<emu::FaultTransport>(base, plan);
    transport = faulty.get();
  }

  emu::MuxConfig mux_config;  // one session
  emu::EmuConfig& config = mux_config.emu;
  config.node.coding.generation_blocks = 8;
  config.node.coding.block_bytes = 64;
  config.node.cbr_bytes_per_s = 1e4;
  config.node.max_generations = generations;
  config.node.data_seed = seed;
  config.node.rng_seed = seed;
  config.clock_mode = vtime::ClockMode::kDeterministic;
  config.speedup = 20.0;
  config.wall_timeout_s = 45.0;

  emu::SessionMux mux(graph, *transport, mux_config);
  mux.install_price_table(rates, rc.lambda, rc.beta, rc.iterations);
  std::vector<SpanEvent> spans;
  mux.set_span_sink(
      [&spans](const SpanEvent& event) { spans.push_back(event); });
  const emu::MuxRunResult result = mux.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.data_ok);
  return spans;
}

TEST(SpanDag, DiamondDecodesWithSourceRootedDagEveryGeneration) {
  const int generations = 6;
  const std::vector<SpanEvent> spans = run_spanned(1, generations, "");
  ASSERT_FALSE(spans.empty());

  const std::vector<SpanDag> dags = build_span_dags(spans);
  const SpanDagCheck check = check_span_dags(dags);
  for (const std::string& problem : check.problems) {
    ADD_FAILURE() << problem;
  }
  EXPECT_TRUE(check.complete);
  EXPECT_EQ(check.decoded_generations,
            static_cast<std::size_t>(generations));

  // Source packets are roots (enqueued at node 0 with no parents); relay
  // recodes carry a non-empty basis.
  for (const SpanDag& dag : dags) {
    if (!dag.decoded) continue;
    EXPECT_FALSE(dag.decode_basis.empty());
    for (const SpanDag::Node& node : dag.nodes) {
      if (node.creator == 0) {
        EXPECT_TRUE(node.parents.empty())
            << "source packet with a recode basis";
      } else if (node.creator > 0) {
        EXPECT_FALSE(node.parents.empty())
            << "relay recode with no input basis";
      }
    }
  }
}

TEST(SpanDag, ChaosFaultPresetStillYieldsCompleteDags) {
  const std::vector<SpanEvent> spans = run_spanned(5, 6, "chaos");
  const SpanDagCheck check = check_span_dags(build_span_dags(spans));
  for (const std::string& problem : check.problems) {
    ADD_FAILURE() << problem;
  }
  EXPECT_TRUE(check.complete);
  EXPECT_EQ(check.decoded_generations, 6u);
}

TEST(SpanDag, DeterministicClockReplaysIdenticalSpanStreams) {
  const std::vector<SpanEvent> first = run_spanned(7, 5, "chaos");
  const std::vector<SpanEvent> second = run_spanned(7, 5, "chaos");
  const std::vector<SpanEvent> other = run_spanned(8, 5, "chaos");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same-seed deterministic span streams diverged";
  EXPECT_NE(first, other) << "different seeds produced identical streams";
}

TEST(SpanDag, DetectsMissingEnqueueAndUnrootedChains) {
  // Hand-built stream: generation 0 decodes from a basis whose only parent
  // chain dead-ends in a span that was never enqueued.
  std::vector<SpanEvent> spans;
  SpanEvent enq;
  enq.kind = SpanEvent::Kind::kEnqueue;
  enq.node = 1;
  enq.span = {1, 1};
  enq.parents = {{9, 99}};  // never enqueued anywhere
  spans.push_back(enq);
  SpanEvent dec;
  dec.kind = SpanEvent::Kind::kDecode;
  dec.node = 3;
  dec.span = {1, 1};
  dec.parents = {{1, 1}};
  spans.push_back(dec);

  const SpanDagCheck check = check_span_dags(build_span_dags(spans));
  EXPECT_FALSE(check.complete);
  EXPECT_EQ(check.decoded_generations, 1u);
  ASSERT_EQ(check.problems.size(), 2u);
  EXPECT_NE(check.problems[0].find("no enqueue record"), std::string::npos);
  EXPECT_NE(check.problems[1].find("never reaches a source root"),
            std::string::npos);
}

TEST(SpanDag, EmptyDecodeBasisIsIncomplete) {
  std::vector<SpanEvent> spans;
  SpanEvent dec;
  dec.kind = SpanEvent::Kind::kDecode;
  dec.span = {1, 1};
  spans.push_back(dec);
  const SpanDagCheck check = check_span_dags(build_span_dags(spans));
  EXPECT_FALSE(check.complete);
  ASSERT_EQ(check.problems.size(), 1u);
  EXPECT_NE(check.problems[0].find("empty basis"), std::string::npos);
}

}  // namespace
}  // namespace omnc::obs
