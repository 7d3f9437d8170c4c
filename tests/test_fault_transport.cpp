// FaultTransport: plan parsing, Gilbert–Elliott statistics, partition /
// blackout windows, duplication / reordering, and the determinism contract —
// the same seed and plan must produce a byte-identical fault stream.  Every
// test drives the injector with a hand-cranked vtime::DeterministicClock over
// a perfect loopback inner transport, so outcomes are pure functions of
// (seed, link, copy).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "time/clock.h"

namespace omnc::emu {
namespace {

std::vector<std::uint8_t> message(std::uint8_t tag, std::size_t size = 24) {
  return std::vector<std::uint8_t>(size, tag);
}

std::vector<double> perfect_links(int n) {
  std::vector<double> m(static_cast<std::size_t>(n) * n, 1.0);
  for (int i = 0; i < n; ++i) m[static_cast<std::size_t>(i) * n + i] = 0.0;
  return m;
}

FaultPlan plan_from(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::parse(spec, &plan, &error)) << error;
  return plan;
}

/// Serializes every FaultRecord the decorator emits, for exact comparison.
struct FaultLog final : TransportObserver {
  std::string log;
  std::size_t delivers = 0;
  void on_send(int, std::size_t) override {}
  void on_drop(int, int, std::span<const std::uint8_t>) override {}
  void on_deliver(int, int, std::size_t) override { ++delivers; }
  void on_fault(const FaultRecord& record) override {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "k%d %d->%d b%zu c%llu t%.6f\n",
                  static_cast<int>(record.kind), record.from, record.to,
                  record.bytes,
                  static_cast<unsigned long long>(record.link_copy),
                  record.time);
    log += buf;
  }
};

/// Counts handler invocations on one poll.
std::size_t poll_count(Transport& transport, int to) {
  std::size_t count = 0;
  transport.poll(to, [&](int, std::span<const std::uint8_t>) { ++count; });
  return count;
}

TEST(GilbertElliott, MeanLossMatchesStationaryFormula) {
  GilbertElliott ge{0.1, 0.3, 0.02, 0.85};
  // pi_bad = 0.1 / 0.4 = 0.25 -> 0.75 * 0.02 + 0.25 * 0.85.
  EXPECT_NEAR(ge.mean_loss(), 0.2275, 1e-12);
  GilbertElliott iid{0.0, 1.0, 0.3, 0.0};
  EXPECT_NEAR(iid.mean_loss(), 0.3, 1e-12);
  EXPECT_FALSE(GilbertElliott{}.enabled());
  EXPECT_TRUE(ge.enabled());
}

TEST(FaultPlan, ParsesDirectivesAndComposesPerLink) {
  const FaultPlan plan = plan_from(
      "seed=7; ge=0-1:0.1,0.3,0.02,0.85; dup=0-1:0.25; reorder=*:0.5,0.2; "
      "jitter=2-*:0.01; partition=2.0-4.0:1,2; blackout=1:2.5-4.5");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.links.size(), 3u);  // 0-1 composed, *-*, 2-*
  EXPECT_EQ(plan.links[0].from, 0);
  EXPECT_EQ(plan.links[0].to, 1);
  EXPECT_NEAR(plan.links[0].ge.loss_bad, 0.85, 1e-12);
  EXPECT_NEAR(plan.links[0].duplicate_p, 0.25, 1e-12);
  EXPECT_EQ(plan.links[1].from, -1);
  EXPECT_NEAR(plan.links[1].reorder_p, 0.5, 1e-12);
  EXPECT_NEAR(plan.links[1].reorder_hold_s, 0.2, 1e-12);
  EXPECT_EQ(plan.links[2].from, 2);
  EXPECT_EQ(plan.links[2].to, -1);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].isolated, (std::vector<int>{1, 2}));
  ASSERT_EQ(plan.blackouts.size(), 1u);
  EXPECT_EQ(plan.blackouts[0].node, 1);
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlan, LossShorthandIsIidGilbertElliott) {
  const FaultPlan plan = plan_from("loss=*:0.3");
  ASSERT_EQ(plan.links.size(), 1u);
  EXPECT_NEAR(plan.links[0].ge.mean_loss(), 0.3, 1e-12);
}

TEST(FaultPlan, EveryPresetParsesNonEmpty) {
  for (const std::string& name : FaultPlan::preset_names()) {
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(name, &plan, &error)) << name << ": " << error;
    EXPECT_FALSE(plan.empty()) << name;
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("bogus=1", &plan, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(FaultPlan::parse("ge=*:0.1", &plan, &error));  // arity
  EXPECT_FALSE(FaultPlan::parse("partition=2.0:1", &plan, &error));
  EXPECT_FALSE(FaultPlan::parse("blackout=1:5-2", &plan, &error));  // inverted
  EXPECT_FALSE(FaultPlan::parse("loss", &plan, &error));  // no '='
  EXPECT_TRUE(FaultPlan::parse("", &plan, &error));  // empty plan is valid
  EXPECT_TRUE(plan.empty());
}

TEST(FaultTransport, GilbertElliottLossTracksStationaryMean) {
  LoopbackTransport inner(2, perfect_links(2));
  FaultTransport transport(inner, plan_from("seed=3; ge=*:0.1,0.3,0.02,0.85"));
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  const int sends = 4000;
  std::size_t delivered = 0;
  for (int k = 0; k < sends; ++k) {
    transport.send(0, message(1));
    delivered += poll_count(transport, 1);
    clock.advance_to(clock.now() + 0.001);
  }
  const FaultStats stats = transport.fault_stats();
  EXPECT_EQ(delivered + stats.lost, static_cast<std::size_t>(sends));
  // Burst correlation widens the band vs the i.i.d. binomial sd (~0.007).
  EXPECT_NEAR(static_cast<double>(stats.lost) / sends, 0.2275, 0.06);
  // The aggregate stats fold injector kills into the drop column.
  const TransportStats agg = transport.stats();
  EXPECT_EQ(agg.copies_delivered, delivered);
  EXPECT_EQ(agg.copies_dropped, stats.lost);
}

TEST(FaultTransport, PartitionCutsOnlyCrossingLinksInsideWindow) {
  LoopbackTransport inner(3, perfect_links(3));
  FaultTransport transport(inner, plan_from("partition=1.0-2.0:2"));
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  clock.advance_to(0.5);

  // Before the window everything flows.
  transport.send(0, message(1));
  EXPECT_EQ(poll_count(transport, 1), 1u);
  EXPECT_EQ(poll_count(transport, 2), 1u);

  // Inside: links crossing the {2} | {0, 1} cut die, 0<->1 is untouched.
  clock.advance_to(1.5);
  transport.send(0, message(2));
  transport.send(2, message(3));
  EXPECT_EQ(poll_count(transport, 1), 1u);  // 0->1 survives (2->1 is cut)
  EXPECT_EQ(poll_count(transport, 2), 0u);  // 0->2 cut
  EXPECT_EQ(poll_count(transport, 0), 0u);  // 2->0 cut
  EXPECT_EQ(transport.fault_stats().partition_drops, 3u);

  // The end of the window is exclusive: at t = 2.0 the cut has healed.
  clock.advance_to(2.0);
  transport.send(0, message(4));
  EXPECT_EQ(poll_count(transport, 2), 1u);
}

TEST(FaultTransport, BlackoutSuppressesBothDirections) {
  LoopbackTransport inner(2, perfect_links(2));
  FaultTransport transport(inner, plan_from("blackout=1:1.0-2.0"));
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  clock.advance_to(1.5);

  // A crashed node transmits nothing — the frame never reaches the channel.
  transport.send(1, message(1));
  EXPECT_EQ(inner.stats().frames_sent, 0u);
  EXPECT_EQ(poll_count(transport, 0), 0u);

  // ...and receives nothing: copies arriving during the window die.
  transport.send(0, message(2));
  EXPECT_EQ(poll_count(transport, 1), 0u);
  const FaultStats stats = transport.fault_stats();
  EXPECT_EQ(stats.blackout_tx_suppressed, 1u);
  EXPECT_EQ(stats.blackout_rx_drops, 1u);

  // After restart the node is back on the air.
  clock.advance_to(2.5);
  transport.send(1, message(3));
  EXPECT_EQ(poll_count(transport, 0), 1u);
}

TEST(FaultTransport, DuplicateDeliversTheCopyTwice) {
  LoopbackTransport inner(2, perfect_links(2));
  FaultTransport transport(inner, plan_from("dup=*:1.0"));
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  transport.send(0, message(0x5c));
  std::size_t handler_calls = 0;
  std::vector<std::uint8_t> got;
  transport.poll(1, [&](int from, std::span<const std::uint8_t> bytes) {
    EXPECT_EQ(from, 0);
    got.assign(bytes.begin(), bytes.end());
    ++handler_calls;
  });
  EXPECT_EQ(handler_calls, 2u);
  EXPECT_EQ(got, message(0x5c));
  EXPECT_EQ(transport.fault_stats().duplicated, 1u);
  EXPECT_EQ(transport.fault_stats().delivered, 2u);
}

TEST(FaultTransport, ReorderHoldsTheCopyUntilDue) {
  LoopbackTransport inner(2, perfect_links(2));
  FaultTransport transport(inner, plan_from("reorder=*:1.0,0.5"));
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  transport.send(0, message(7));
  EXPECT_EQ(poll_count(transport, 1), 0u);  // held back
  EXPECT_EQ(transport.fault_stats().reordered, 1u);
  clock.advance_to(0.3);
  EXPECT_EQ(poll_count(transport, 1), 0u);  // still early
  clock.advance_to(0.51);
  EXPECT_EQ(poll_count(transport, 1), 1u);  // released late
  // A held copy overtaken by a fresh one arrives after it: reordering.
  transport.send(0, message(8));
  transport.send(0, message(9));
  std::vector<std::uint8_t> first_tag;
  clock.advance_to(0.6);
  transport.poll(1, [&](int, std::span<const std::uint8_t> bytes) {
    if (first_tag.empty()) first_tag.assign(bytes.begin(), bytes.begin() + 1);
  });
  clock.advance_to(1.2);
  EXPECT_EQ(poll_count(transport, 1), 2u);
}

TEST(FaultTransport, FaultStreamIsByteIdenticalForSameSeed) {
  // Scripted single-threaded schedule + manual clock: the emitted fault
  // stream must be byte-identical across runs with the same seed, and
  // different for a different seed (the acceptance determinism gate).
  const auto run = [](std::uint64_t seed) {
    LoopbackTransport inner(3, perfect_links(3));
    FaultPlan plan = plan_from(
        "ge=*:0.2,0.4,0.05,0.9; dup=*:0.2; reorder=*:0.3,0.05; "
        "jitter=*:0.02");
    plan.seed = seed;
    FaultTransport transport(inner, std::move(plan));
    vtime::DeterministicClock clock;
    transport.bind_clock(&clock);
    FaultLog log;
    transport.set_observer(&log);
    for (int round = 0; round < 200; ++round) {
      transport.send(round % 3, message(static_cast<std::uint8_t>(round)));
      for (int to = 0; to < 3; ++to) poll_count(transport, to);
      clock.advance_to(clock.now() + 0.01);
    }
    EXPECT_FALSE(log.log.empty());
    EXPECT_GT(log.delivers, 0u);
    return log.log;
  };
  const std::string first = run(11);
  EXPECT_EQ(first, run(11));
  EXPECT_NE(first, run(12));
}

TEST(FaultTransport, UnconfiguredLinksPassThroughUntouched) {
  // Faults scoped to 0->1 must not consume randomness or copies on 0->2.
  LoopbackTransport inner(3, perfect_links(3));
  FaultTransport transport(inner, plan_from("loss=0-1:1.0"));
  vtime::DeterministicClock clock;
  transport.bind_clock(&clock);
  for (int k = 0; k < 50; ++k) transport.send(0, message(1));
  EXPECT_EQ(poll_count(transport, 1), 0u);   // always killed
  EXPECT_EQ(poll_count(transport, 2), 50u);  // never touched
  EXPECT_EQ(transport.fault_stats().lost, 50u);
}

}  // namespace
}  // namespace omnc::emu
