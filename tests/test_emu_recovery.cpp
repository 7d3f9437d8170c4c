// Loss-recovery hardening in EmuNode, driven as scripted single-threaded
// schedules (manual virtual clock, deterministic transports):
//   * the destination's ACK flood degrades to a keepalive instead of going
//     mute, so sustained reverse-path loss cannot deadlock the source
//     (regression pin for the repeat-limit silence bug);
//   * duplicate and stale ACKs never double-complete a generation;
//   * reordered / duplicated forward-path data still decodes byte-exactly;
//   * a relay's price-installed rate decays once the price plane goes stale;
//   * a blacked-out node resyncs (request + source reply) after restart.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "emu/emu_node.h"
#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "net/topology.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"
#include "time/clock.h"
#include "wire/frame.h"

namespace omnc::emu {
namespace {

std::vector<double> perfect_links(int n) {
  std::vector<double> m(static_cast<std::size_t>(n) * n, 1.0);
  for (int i = 0; i < n; ++i) m[static_cast<std::size_t>(i) * n + i] = 0.0;
  return m;
}

net::Topology two_node_topology() {
  std::vector<std::vector<double>> p(2, std::vector<double>(2, 0.0));
  p[0][1] = p[1][0] = 0.9;
  return net::Topology::from_link_matrix(p);
}

net::Topology chain_topology(int hops) {
  const int n = hops + 1;
  std::vector<std::vector<double>> p(static_cast<std::size_t>(n),
                                     std::vector<double>(n, 0.0));
  for (int i = 0; i + 1 < n; ++i) {
    p[static_cast<std::size_t>(i)][static_cast<std::size_t>(i) + 1] = 0.9;
    p[static_cast<std::size_t>(i) + 1][static_cast<std::size_t>(i)] = 0.9;
  }
  return net::Topology::from_link_matrix(p);
}

EmuNodeConfig small_node_config(int generations) {
  EmuNodeConfig config;
  config.coding.generation_blocks = 4;
  config.coding.block_bytes = 32;
  config.cbr_bytes_per_s = 1e4;
  config.max_generations = generations;
  return config;
}

/// Per-sender kill switch over a perfect loopback: the scripted analogue of
/// a one-directional dead link.
class GateTransport final : public Transport {
 public:
  explicit GateTransport(Transport& inner)
      : inner_(inner),
        blocked_(static_cast<std::size_t>(inner.nodes()), false) {}

  void block(int sender) { blocked_[static_cast<std::size_t>(sender)] = true; }
  void unblock(int sender) {
    blocked_[static_cast<std::size_t>(sender)] = false;
  }

  int nodes() const override { return inner_.nodes(); }
  void send(int from, std::span<const std::uint8_t> frame) override {
    if (blocked_[static_cast<std::size_t>(from)]) return;
    inner_.send(from, frame);
  }
  std::size_t poll(int to, const Handler& handler) override {
    return inner_.poll(to, handler);
  }
  TransportStats stats() const override { return inner_.stats(); }

 private:
  Transport& inner_;
  std::vector<bool> blocked_;
};

/// One scheduling round of `node` at `now`, driven the way the session mux
/// drives it: drain the node's inbox into deliver(), then step_local().
void step(Transport& transport, EmuNode& node, double now) {
  transport.poll(node.local(),
                 [&](int from, std::span<const std::uint8_t> bytes) {
                   node.deliver(now, from, bytes);
                 });
  node.step_local(now);
}

/// Steps every node from `from` to `to` in lockstep (source first), the
/// deterministic stand-in for the mux's shard workers.
void run_script(Transport& transport, std::vector<EmuNode*>& nodes,
                double from, double to, double dt = 0.01) {
  for (double t = from; t < to; t += dt) {
    for (EmuNode* node : nodes) step(transport, *node, t);
  }
}

TEST(EmuRecovery, AckKeepaliveBreaksReversePathDeadlock) {
  // Reverse path dead for the whole fast-repeat budget: before the fix the
  // destination went permanently mute after ack_repeat_limit repeats and the
  // source waited forever.  Now it drops to a keepalive cadence, and the
  // first keepalive after the path heals retires the generation.
  const net::Topology topo = two_node_topology();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 1);
  ASSERT_EQ(graph.size(), 2);
  LoopbackTransport loopback(2, perfect_links(2));
  GateTransport transport(loopback);

  EmuNodeConfig config = small_node_config(2);
  config.ack_repeat_limit = 3;
  config.ack_keepalive_s = 0.3;
  config.stall_timeout_s = 0.25;
  EmuNode source(graph, 0, transport, config);
  EmuNode destination(graph, 1, transport, config);
  source.install_rate(4000.0);
  destination.install_rate(0.0);
  std::vector<EmuNode*> nodes{&source, &destination};

  transport.block(1);  // every ACK dies on the wire
  run_script(transport, nodes, 0.0, 4.0);
  EXPECT_GE(destination.stats().generations_completed, 1);  // decoded fine
  EXPECT_EQ(source.stats().generations_completed, 0);       // ...but unheard
  EXPECT_GE(destination.stats().ack_keepalives, 5u);  // kept signalling
  EXPECT_GE(source.stats().stall_boosts, 1u);  // forward redundancy escalated

  transport.unblock(1);
  run_script(transport, nodes, 4.0, 8.0);
  EXPECT_EQ(source.stats().generations_completed, 2);  // deadlock broken
  EXPECT_TRUE(destination.stats().data_ok);
}

TEST(EmuRecovery, DuplicateAndStaleAcksDoNotDoubleComplete) {
  const net::Topology topo = two_node_topology();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 1);
  LoopbackTransport loopback(2, perfect_links(2));
  // Every copy in both directions arrives twice.
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("dup=*:1.0", &plan, &error)) << error;
  FaultTransport transport(loopback, plan);
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  double now = 0.0;

  const EmuNodeConfig config = small_node_config(2);
  EmuNode source(graph, 0, transport, config);
  EmuNode destination(graph, 1, transport, config);
  source.install_rate(4000.0);
  destination.install_rate(0.0);
  std::vector<EmuNode*> nodes{&source, &destination};
  for (now = 0.0; now < 6.0 && source.completed_generations() < 2;
       now += 0.01) {
    clock.advance_to(now);
    for (EmuNode* node : nodes) step(transport, *node, now);
  }
  // Exactly one completion (and one latency sample) per generation, despite
  // every ACK arriving at least twice.
  EXPECT_EQ(source.stats().generations_completed, 2);
  EXPECT_EQ(source.stats().ack_latencies.size(), 2u);
  EXPECT_TRUE(destination.stats().data_ok);
  EXPECT_GT(transport.fault_stats().duplicated, 0u);

  // A stale ACK for a long-retired generation injected out of the blue must
  // change nothing.
  const int completed = source.stats().generations_completed;
  clock.advance_to(now);
  transport.send(1, wire::make_ack(config.session_id,
                                   wire::GenerationAck{0, 1, 250})
                        .serialize());
  step(transport, source, now + 0.01);
  EXPECT_EQ(source.stats().generations_completed, completed);
}

TEST(EmuRecovery, ReorderedForwardDataStillDecodes) {
  const net::Topology topo = two_node_topology();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 1);
  LoopbackTransport loopback(2, perfect_links(2));
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("seed=5; reorder=0-1:0.6,0.03; jitter=0-1:0.01",
                               &plan, &error))
      << error;
  FaultTransport transport(loopback, plan);
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  double now = 0.0;

  const EmuNodeConfig config = small_node_config(3);
  EmuNode source(graph, 0, transport, config);
  EmuNode destination(graph, 1, transport, config);
  source.install_rate(4000.0);
  destination.install_rate(0.0);
  std::vector<EmuNode*> nodes{&source, &destination};
  for (now = 0.0; now < 8.0 && source.completed_generations() < 3;
       now += 0.01) {
    clock.advance_to(now);
    for (EmuNode* node : nodes) step(transport, *node, now);
  }
  EXPECT_EQ(source.stats().generations_completed, 3);
  EXPECT_TRUE(destination.stats().data_ok);
  EXPECT_GT(transport.fault_stats().reordered, 0u);
}

TEST(EmuRecovery, StalePriceDecaysRelayRate) {
  // A relay whose rate came from a PriceUpdate must not keep transmitting at
  // full price-installed rate after the price plane goes silent.
  const net::Topology topo = chain_topology(2);
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 2);
  ASSERT_EQ(graph.size(), 3);
  LoopbackTransport loopback(3, perfect_links(3));
  GateTransport transport(loopback);

  EmuNodeConfig config = small_node_config(100);
  config.price_stale_s = 0.5;
  config.price_decay_tau_s = 0.5;
  EmuNode source(graph, 0, transport, config);
  EmuNode relay(graph, 1, transport, config);
  EmuNode destination(graph, 2, transport, config);

  opt::RateControlParams params;
  params.capacity = 2e4;
  opt::DistributedRateControl control(graph, params);
  const opt::RateControlResult rc = control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, 2e4);
  source.set_price_table(rates, rc.lambda, rc.beta, rc.iterations);

  std::vector<EmuNode*> nodes{&source, &relay, &destination};
  run_script(transport, nodes, 0.0, 1.0);  // prices flood and install
  ASSERT_TRUE(relay.stats().rate_installed);
  EXPECT_EQ(relay.stats().price_decays, 0u);

  // Source falls silent; after price_stale_s the relay enters a staleness
  // episode and throttles itself.
  transport.block(0);
  run_script(transport, nodes, 1.0, 3.0);
  EXPECT_GE(relay.stats().price_decays, 1u);

  // A fresh flood ends the episode; a later outage starts a new one.
  transport.unblock(0);
  run_script(transport, nodes, 3.0, 4.0);
  transport.block(0);
  run_script(transport, nodes, 4.0, 6.0);
  EXPECT_GE(relay.stats().price_decays, 2u);
}

TEST(EmuRecovery, SilenceTriggersResyncRequestAndSourceReply) {
  // Forward path dead, reverse path alive (the post-partition shape): the
  // destination's silence clock must fire a ResyncRequest that the source
  // answers with ResyncInfo and a price reflood.
  const net::Topology topo = two_node_topology();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 1);
  LoopbackTransport loopback(2, perfect_links(2));
  GateTransport transport(loopback);

  EmuNodeConfig config = small_node_config(8);
  config.resync_silence_s = 0.4;
  config.resync_reply_min_gap_s = 0.1;
  EmuNode source(graph, 0, transport, config);
  EmuNode destination(graph, 1, transport, config);
  source.install_rate(4000.0);
  destination.install_rate(0.0);
  std::vector<EmuNode*> nodes{&source, &destination};

  run_script(transport, nodes, 0.0, 1.0);  // session under way
  transport.block(0);  // source falls silent, reverse path works
  run_script(transport, nodes, 1.0, 3.0);
  EXPECT_GE(destination.stats().resync_requests, 1u);
  EXPECT_GE(source.stats().resync_replies, 1u);

  transport.unblock(0);
  double now = 3.0;
  for (; now < 12.0 && source.completed_generations() < 8; now += 0.01) {
    for (EmuNode* node : nodes) step(transport, *node, now);
  }
  EXPECT_EQ(source.stats().generations_completed, 8);
  EXPECT_TRUE(destination.stats().data_ok);
}

TEST(EmuRecovery, BlackoutRestartStillRetiresEveryGeneration) {
  // Full crash window (neither sends nor receives): progress halts, the
  // silence clock arms resync, and after restart the session drains every
  // generation with intact data — the no-deadlock acceptance shape.
  const net::Topology topo = two_node_topology();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 1);
  LoopbackTransport loopback(2, perfect_links(2));
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("blackout=1:1.0-2.5", &plan, &error)) << error;
  FaultTransport transport(loopback, plan);
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  double now = 0.0;

  EmuNodeConfig config = small_node_config(20);
  config.resync_silence_s = 0.4;
  EmuNode source(graph, 0, transport, config);
  EmuNode destination(graph, 1, transport, config);
  source.install_rate(4000.0);
  destination.install_rate(0.0);
  std::vector<EmuNode*> nodes{&source, &destination};
  for (now = 0.0; now < 15.0 && source.completed_generations() < 20;
       now += 0.01) {
    clock.advance_to(now);
    for (EmuNode* node : nodes) step(transport, *node, now);
  }
  EXPECT_GT(transport.fault_stats().blackout_rx_drops, 0u);
  EXPECT_GE(destination.stats().resync_requests, 1u);  // armed while isolated
  EXPECT_EQ(source.stats().generations_completed, 20);
  EXPECT_TRUE(destination.stats().data_ok);
}

}  // namespace
}  // namespace omnc::emu
