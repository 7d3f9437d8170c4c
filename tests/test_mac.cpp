#include "net/mac.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "common/stats.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace omnc::net {
namespace {

std::shared_ptr<const std::vector<std::uint8_t>> payload(std::size_t n = 4) {
  return std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>(n, 0xAB));
}

Topology line_topology(double p = 1.0, int nodes = 3) {
  std::vector<std::vector<double>> m(
      static_cast<std::size_t>(nodes),
      std::vector<double>(static_cast<std::size_t>(nodes), 0.0));
  for (int i = 0; i + 1 < nodes; ++i) {
    m[static_cast<std::size_t>(i)][static_cast<std::size_t>(i + 1)] = p;
    m[static_cast<std::size_t>(i + 1)][static_cast<std::size_t>(i)] = p;
  }
  return Topology::from_link_matrix(m);
}

MacConfig ideal_config() {
  MacConfig config;
  config.capacity_bytes_per_s = 1000.0;
  config.slot_bytes = 100;  // slot = 0.1 s
  config.mode = MacMode::kIdealScheduling;
  config.fading.enabled = false;
  config.unicast_slot_cost = 1;
  return config;
}

TEST(SlottedMac, SlotDuration) {
  sim::Simulator sim;
  const Topology topo = line_topology();
  SlottedMac mac(sim, topo, {0, 1, 2}, ideal_config(), Rng(1));
  EXPECT_DOUBLE_EQ(mac.slot_duration(), 0.1);
}

TEST(SlottedMac, SingleTransmitterUsesEverySlot) {
  sim::Simulator sim;
  const Topology topo = line_topology();
  SlottedMac mac(sim, topo, {0, 1, 2}, ideal_config(), Rng(1));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  mac.add_slot_hook([&](sim::Time) {
    if (mac.queue_size(0) == 0) {
      Frame frame;
      frame.from = 0;
      frame.to = kBroadcast;
      frame.bytes = payload();
      mac.enqueue(std::move(frame));
    }
  });
  mac.start();
  sim.run_until(10.0);  // 100 slots
  mac.stop();
  // Perfect link, no competition: node 1 receives ~every slot (first slot
  // had no frame queued yet).
  EXPECT_GE(received, 97);
  EXPECT_LE(received, 100);
}

TEST(SlottedMac, AdjacentTransmittersShareChannel) {
  sim::Simulator sim;
  const Topology topo = line_topology();
  SlottedMac mac(sim, topo, {0, 1, 2}, ideal_config(), Rng(2));
  mac.add_slot_hook([&](sim::Time) {
    for (NodeId n : {0, 1}) {
      if (mac.queue_size(n) < 2) {
        Frame frame;
        frame.from = n;
        frame.to = kBroadcast;
        frame.bytes = payload();
        mac.enqueue(frame);
      }
    }
  });
  mac.start();
  sim.run_until(100.0);  // 1000 slots
  mac.stop();
  // 0 and 1 are linked: exactly one of them transmits per slot.
  EXPECT_NEAR(static_cast<double>(mac.total_transmissions()), 1000.0, 10.0);
  EXPECT_NEAR(static_cast<double>(mac.transmissions(0)), 500.0, 100.0);
  EXPECT_NEAR(static_cast<double>(mac.transmissions(1)), 500.0, 100.0);
}

TEST(SlottedMac, LossRateMatchesLinkProbability) {
  sim::Simulator sim;
  const Topology topo = line_topology(0.4);
  SlottedMac mac(sim, topo, {0, 1, 2}, ideal_config(), Rng(3));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  mac.add_slot_hook([&](sim::Time) {
    if (mac.queue_size(0) == 0) {
      Frame frame;
      frame.from = 0;
      frame.to = kBroadcast;
      frame.bytes = payload();
      mac.enqueue(frame);
    }
  });
  mac.start();
  sim.run_until(500.0);  // 5000 slots
  mac.stop();
  const double rate =
      static_cast<double>(received) / static_cast<double>(mac.transmissions(0));
  EXPECT_NEAR(rate, 0.4, 0.03);
}

TEST(SlottedMac, FadingPreservesMeanReception) {
  sim::Simulator sim;
  const Topology topo = line_topology(0.5);
  MacConfig config = ideal_config();
  config.fading.enabled = true;
  SlottedMac mac(sim, topo, {0, 1, 2}, config, Rng(4));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  mac.add_slot_hook([&](sim::Time) {
    if (mac.queue_size(0) == 0) {
      Frame frame;
      frame.from = 0;
      frame.to = kBroadcast;
      frame.bytes = payload();
      mac.enqueue(frame);
    }
  });
  mac.start();
  sim.run_until(6000.0);  // 60000 slots: enough fade cycles to average out
  mac.stop();
  const double rate =
      static_cast<double>(received) / static_cast<double>(mac.transmissions(0));
  EXPECT_NEAR(rate, 0.5, 0.04);
}

TEST(SlottedMac, ReliableUnicastDeliversDespiteLoss) {
  sim::Simulator sim;
  const Topology topo = line_topology(0.5);
  MacConfig config = ideal_config();
  config.unicast_retry_limit = 0;  // retry forever
  SlottedMac mac(sim, topo, {0, 1, 2}, config, Rng(5));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  for (int i = 0; i < 20; ++i) {
    Frame frame;
    frame.from = 0;
    frame.to = 1;
    frame.reliable = true;
    frame.bytes = payload();
    ASSERT_TRUE(mac.enqueue(std::move(frame)));
  }
  mac.start();
  sim.run_until(50.0);
  mac.stop();
  EXPECT_EQ(received, 20);
  // ~2 attempts per delivery at p = 0.5.
  EXPECT_GT(mac.transmissions(0), 28u);
  EXPECT_EQ(mac.total_retry_failures(), 0u);
}

TEST(SlottedMac, RetryLimitDropsFrames) {
  sim::Simulator sim;
  const Topology topo = line_topology(0.01);  // nearly dead link
  MacConfig config = ideal_config();
  config.unicast_retry_limit = 3;
  SlottedMac mac(sim, topo, {0, 1, 2}, config, Rng(6));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  for (int i = 0; i < 10; ++i) {
    Frame frame;
    frame.from = 0;
    frame.to = 1;
    frame.reliable = true;
    frame.bytes = payload();
    mac.enqueue(std::move(frame));
  }
  mac.start();
  sim.run_until(20.0);
  mac.stop();
  EXPECT_EQ(mac.queue_size(0), 0u);  // everything either delivered or dropped
  EXPECT_GT(mac.total_retry_failures(), 5u);
  EXPECT_LE(mac.transmissions(0), 30u);  // at most 3 attempts each
}

TEST(SlottedMac, UnicastSlotCostOccupiesAirtime) {
  sim::Simulator sim;
  const Topology topo = line_topology(1.0);
  MacConfig config = ideal_config();
  config.unicast_slot_cost = 2;
  SlottedMac mac(sim, topo, {0, 1, 2}, config, Rng(7));
  mac.add_slot_hook([&](sim::Time) {
    if (mac.queue_size(0) < 2) {
      Frame frame;
      frame.from = 0;
      frame.to = 1;
      frame.reliable = true;
      frame.bytes = payload();
      mac.enqueue(frame);
    }
  });
  mac.start();
  sim.run_until(100.0);  // 1000 slots
  mac.stop();
  // Each attempt costs two slots: at most ~500 transmissions.
  EXPECT_LE(mac.transmissions(0), 510u);
  EXPECT_GE(mac.transmissions(0), 450u);
}

TEST(SlottedMac, HiddenTerminalCollisionKillsReception) {
  // 0 and 2 cannot hear each other but both cover node 1.
  sim::Simulator sim;
  const Topology topo = line_topology(1.0);
  SlottedMac mac(sim, topo, {0, 1, 2}, ideal_config(), Rng(8));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  mac.add_slot_hook([&](sim::Time) {
    for (NodeId n : {0, 2}) {
      if (mac.queue_size(n) == 0) {
        Frame frame;
        frame.from = n;
        frame.to = kBroadcast;
        frame.bytes = payload();
        mac.enqueue(frame);
      }
    }
  });
  mac.start();
  sim.run_until(50.0);
  mac.stop();
  // Both backlogged and mutually inaudible: they transmit every slot and
  // node 1 is permanently collided.
  EXPECT_GT(mac.total_transmissions(), 900u);
  EXPECT_EQ(received, 0);
}

TEST(SlottedMac, ProtectReceiversSerializesHiddenTerminals) {
  sim::Simulator sim;
  const Topology topo = line_topology(1.0);
  MacConfig config = ideal_config();
  config.protect_receivers = true;
  SlottedMac mac(sim, topo, {0, 1, 2}, config, Rng(9));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  mac.add_slot_hook([&](sim::Time) {
    for (NodeId n : {0, 2}) {
      if (mac.queue_size(n) == 0) {
        Frame frame;
        frame.from = n;
        frame.to = kBroadcast;
        frame.bytes = payload();
        mac.enqueue(frame);
      }
    }
  });
  mac.start();
  sim.run_until(50.0);
  mac.stop();
  // With receiver protection 0 and 2 alternate; node 1 hears everything.
  EXPECT_GT(received, 450);
}

TEST(SlottedMac, QueueDropTail) {
  sim::Simulator sim;
  const Topology topo = line_topology(1.0);
  MacConfig config = ideal_config();
  config.max_queue = 5;
  SlottedMac mac(sim, topo, {0, 1, 2}, config, Rng(10));
  for (int i = 0; i < 10; ++i) {
    Frame frame;
    frame.from = 0;
    frame.to = kBroadcast;
    frame.bytes = payload();
    mac.enqueue(std::move(frame));
  }
  EXPECT_EQ(mac.queue_size(0), 5u);
  EXPECT_EQ(mac.total_drops(), 5u);
}

TEST(SlottedMac, PurgeQueueByPredicate) {
  sim::Simulator sim;
  const Topology topo = line_topology(1.0);
  SlottedMac mac(sim, topo, {0, 1, 2}, ideal_config(), Rng(11));
  for (int i = 0; i < 6; ++i) {
    Frame frame;
    frame.from = 0;
    frame.to = kBroadcast;
    frame.bytes = std::make_shared<const std::vector<std::uint8_t>>(
        std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
    mac.enqueue(std::move(frame));
  }
  mac.purge_queue(0, [](const Frame& f) { return (*f.bytes)[0] % 2 == 0; });
  EXPECT_EQ(mac.queue_size(0), 3u);
  // The survivors keep their order, and walking them changes nothing.
  std::vector<std::uint8_t> walked;
  mac.for_each_queued(
      0, [&](const Frame& f) { walked.push_back((*f.bytes)[0]); });
  EXPECT_EQ(walked, (std::vector<std::uint8_t>{1, 3, 5}));
  EXPECT_EQ(mac.queue_size(0), 3u);
}

/// Averages the MAC's per-slot queue samples per node id and counts the
/// collisions it reports.
class QueueObserver final : public MacObserver {
 public:
  explicit QueueObserver(int nodes)
      : averages(static_cast<std::size_t>(nodes)) {}
  void on_queue_sample(sim::Time now, NodeId node,
                       std::size_t queue_len) override {
    averages[static_cast<std::size_t>(node)].advance_to(
        now, static_cast<double>(queue_len));
  }
  void on_collision(sim::Time, NodeId) override { ++collisions; }

  double queue_average(NodeId node) const {
    return averages[static_cast<std::size_t>(node)].average();
  }

  std::vector<TimeAverage> averages;  // by node id
  std::size_t collisions = 0;
};

TEST(SlottedMac, QueueTimeAverageTracksBacklog) {
  sim::Simulator sim;
  const Topology topo = line_topology(1.0);
  SlottedMac mac(sim, topo, {0, 1, 2}, ideal_config(), Rng(12));
  QueueObserver queues(topo.node_count());
  mac.set_observer(&queues);
  // Enqueue 10 frames at once; they drain one per slot, so the time-averaged
  // queue over the drain period is ~(9+8+...+0)/10 = 4.5.
  for (int i = 0; i < 10; ++i) {
    Frame frame;
    frame.from = 0;
    frame.to = kBroadcast;
    frame.bytes = payload();
    mac.enqueue(std::move(frame));
  }
  mac.start();
  sim.run_until(1.05);  // ~10 slots
  mac.stop();
  EXPECT_NEAR(queues.queue_average(0), 4.5, 1.0);
}

TEST(SlottedMac, CsmaModeStillDelivers) {
  sim::Simulator sim;
  const Topology topo = line_topology(0.9);
  MacConfig config = ideal_config();
  config.mode = MacMode::kCsma;
  SlottedMac mac(sim, topo, {0, 1, 2}, config, Rng(13));
  int received = 0;
  mac.set_receive_handler([&](NodeId rx, const Frame&) {
    if (rx == 1) ++received;
  });
  mac.add_slot_hook([&](sim::Time) {
    if (mac.queue_size(0) == 0) {
      Frame frame;
      frame.from = 0;
      frame.to = kBroadcast;
      frame.bytes = payload();
      mac.enqueue(frame);
    }
  });
  mac.start();
  sim.run_until(100.0);
  mac.stop();
  EXPECT_GT(received, 500);  // single contender attempts every slot
}

// --- exact replay ---------------------------------------------------------
//
// The rate tests above tolerate any draw order.  This one pins a fixed
// scenario bit for bit, so a reordered or extra RNG draw anywhere in the slot
// loop (scheduling shuffle, CSMA coins, reception coins, fading) shows up
// here and not only as a moved fig-bench figure.

/// Six nodes: 0 and 3 are mutually inaudible but both cover 1 and 2 (a hidden
/// terminal), 2 bridges to 4, 4 to 5, and 5 -> 3 is a one-way link (audible
/// both ways, received only at 3).
Topology hidden_terminal_topology() {
  std::vector<std::vector<double>> m(6, std::vector<double>(6, 0.0));
  auto link = [&](int a, int b, double ab, double ba) {
    m[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = ab;
    m[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = ba;
  };
  link(0, 1, 0.8, 0.7);
  link(0, 2, 0.6, 0.5);
  link(1, 2, 0.4, 0.45);
  link(1, 3, 0.7, 0.9);
  link(2, 3, 0.9, 0.85);
  link(2, 4, 0.3, 0.35);
  link(3, 4, 0.6, 0.5);
  link(4, 5, 0.95, 0.9);
  link(5, 3, 0.25, 0.0);
  return Topology::from_link_matrix(m);
}

struct Replay {
  std::vector<std::size_t> transmissions;  // per node id
  std::size_t deliveries = 0;
  std::size_t collisions = 0;  // observer-seen
  std::size_t drops = 0;
  std::size_t retry_failures = 0;
  std::vector<double> queue_average;  // per node id
};

/// 3000 slots of fixed offered load: node i enqueues kBurst[i] frames every
/// kPeriod[i] slots into a 6-frame queue (so some nodes overflow).  Node 5
/// always sends reliable unicast to 4, which keeps multi-slot attempts in
/// every mode; with `all_unicast` every node sends reliable unicast to its
/// next hop.
Replay run_replay(const MacConfig& config, bool all_unicast) {
  static constexpr int kPeriod[6] = {3, 5, 7, 4, 6, 4};
  static constexpr int kBurst[6] = {1, 1, 2, 1, 2, 1};
  static constexpr NodeId kNextHop[6] = {1, 3, 4, 4, 5, 4};
  sim::Simulator sim;
  const Topology topo = hidden_terminal_topology();
  // A participant order unlike the node ids exercises the index mapping.
  SlottedMac mac(sim, topo, {3, 0, 5, 1, 4, 2}, config, Rng(2024));
  QueueObserver observer(topo.node_count());
  mac.set_observer(&observer);
  const auto bytes = payload();
  int slot = 0;
  mac.add_slot_hook([&](sim::Time) {
    for (NodeId n = 0; n < 6; ++n) {
      if (slot % kPeriod[n] != 0) continue;
      for (int k = 0; k < kBurst[n]; ++k) {
        Frame frame;
        frame.from = n;
        if (all_unicast || n == 5) {
          frame.to = kNextHop[n];
          frame.reliable = true;
        }
        frame.bytes = bytes;
        mac.enqueue(std::move(frame));
      }
    }
    ++slot;
  });
  mac.start();
  sim.run_until(300.0);
  mac.stop();
  Replay replay;
  for (NodeId n = 0; n < 6; ++n) {
    replay.transmissions.push_back(mac.transmissions(n));
    replay.queue_average.push_back(observer.queue_average(n));
  }
  replay.deliveries = mac.total_deliveries();
  replay.collisions = observer.collisions;
  replay.drops = mac.total_drops();
  replay.retry_failures = mac.total_retry_failures();
  return replay;
}

TEST(SlottedMac, ReplayIsExactInEveryMode) {
  MacConfig base;  // CSMA, fading, 2-slot unicast, 7 retries
  base.capacity_bytes_per_s = 1000.0;
  base.slot_bytes = 100;
  base.max_queue = 6;
  MacConfig ideal = base;
  ideal.mode = MacMode::kIdealScheduling;
  ideal.fading.enabled = false;
  MacConfig protect = base;
  protect.mode = MacMode::kIdealScheduling;
  protect.protect_receivers = true;

  struct Pin {
    const char* name;
    MacConfig config;
    bool all_unicast;
    std::vector<std::size_t> transmissions;
    std::size_t deliveries, collisions, drops, retry_failures;
    std::vector<double> queue_average;
  };
  // Captured before the slot loop moved to precomputed participant lists;
  // any change here means the simulator draws differently.
  const Pin pins[] = {
      {"csma+fading", base, false,
       {990, 600, 657, 485, 556, 728}, 2792, 3801, 1320, 7,
       {0x1.a99d26ab3c672p+0, 0x1.0a6a04f373aap+0, 0x1.16db09d10d0eep+2,
        0x1.4b5fdc7d4f9e3p+2, 0x1.4cc86df22bdaep+2, 0x1.6a30a7fdf37dp+2}},
      {"ideal", ideal, false,
       {1000, 600, 858, 547, 634, 909}, 4323, 5074, 923, 8,
       {0x1.902d122e9b852p-3, 0x1.a813cdcea92f7p-3, 0x1.c183e24b49fcep-1,
        0x1.34f78c9742d26p+2, 0x1.3de325d0b5a0fp+2, 0x1.60eda5afee362p+2}},
      {"ideal+protect_receivers", protect, false,
       {1000, 395, 384, 386, 404, 714}, 5056, 0, 1705, 0,
       {0x1.96d5933fc3f13p-1, 0x1.42b5d2134aacfp+2, 0x1.56f0e41631a41p+2,
        0x1.5a4a9b300efcfp+2, 0x1.5daf3f6c7ea1ap+2, 0x1.1b719dd57d63p+2}},
      {"reliable unicast", base, true,
       {640, 436, 309, 310, 443, 661}, 929, 916, 3892, 104,
       {0x1.7347f5c1af86ap+2, 0x1.776bcfdb1f98dp+2, 0x1.79f5ed64210b9p+2,
        0x1.77d39ca38d8a2p+2, 0x1.6f5abd551aff6p+2, 0x1.6c635c726273ap+2}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const Replay got = run_replay(pin.config, pin.all_unicast);
    EXPECT_EQ(got.transmissions, pin.transmissions);
    EXPECT_EQ(got.deliveries, pin.deliveries);
    EXPECT_EQ(got.collisions, pin.collisions);
    EXPECT_EQ(got.drops, pin.drops);
    EXPECT_EQ(got.retry_failures, pin.retry_failures);
    EXPECT_EQ(got.queue_average, pin.queue_average);
  }
}

}  // namespace
}  // namespace omnc::net
