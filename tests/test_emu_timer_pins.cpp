// Deterministic-clock pins for runs that fire every EmuNode timer.
//
// Each case below is one det `SessionMux` run built the way `omnc_emu`
// builds it (diamond or chain topology, distributed price flood unless
// stated otherwise), chosen so that one particular timer fires: the probe
// schedule, price staleness decay, the ACK keepalive, resync after a
// blackout, stall boosts, several sessions sharing node steps, idle relays
// refilling their buckets under chaos on a long chain, and copies held in a
// delayed loopback queue past the tick they were sent in.  The
// expected values were captured (hex-float exact) from the det loop that
// polled and stepped every node on every tick.  Any scheduling shortcut that
// skips a node whose timer is due, or polls one too late, shifts at least
// one of these fields.  On a mismatch the failure message prints the
// observed pin in the form used below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
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

net::Topology diamond() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8;
  p[0][2] = p[2][0] = 0.6;
  p[1][3] = p[3][1] = 0.7;
  p[2][3] = p[3][2] = 0.9;
  return net::Topology::from_link_matrix(p);
}

net::Topology chain(int hops, double link_p) {
  const auto n = static_cast<std::size_t>(hops + 1);
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i + 1 < n; ++i) {
    p[i][i + 1] = p[i + 1][i] = link_p;
  }
  return net::Topology::from_link_matrix(p);
}

/// One det run: the knobs a case turns, everything else at omnc_emu's
/// defaults.
struct Scenario {
  net::Topology topology = diamond();
  int gen_blocks = 8;
  int block_bytes = 64;
  int generations = 8;
  int sessions = 1;
  bool oracle_rates = false;
  double probe_window_s = 0.0;
  int ack_repeat_limit = 400;
  double loopback_delay_s = 0.0;
  std::string fault_plan;  // preset name; empty = bare loopback
  std::uint64_t seed = 1;
};

MuxRunResult run(const Scenario& scenario) {
  const net::Topology& topo = scenario.topology;
  const routing::SessionGraph graph = routing::select_nodes(
      topo, 0, static_cast<net::NodeId>(topo.node_count() - 1));

  MuxConfig config;
  EmuConfig& emu = config.emu;
  emu.node.coding.generation_blocks =
      static_cast<std::uint16_t>(scenario.gen_blocks);
  emu.node.coding.block_bytes =
      static_cast<std::uint16_t>(scenario.block_bytes);
  emu.node.data_seed = scenario.seed;
  emu.node.rng_seed = scenario.seed;
  emu.node.max_generations = scenario.generations;
  emu.node.probe_window_s = scenario.probe_window_s;
  emu.node.ack_repeat_limit = scenario.ack_repeat_limit;
  emu.clock_mode = vtime::ClockMode::kDeterministic;
  config.sessions = scenario.sessions;

  opt::RateControlParams params;
  params.capacity = kCapacity;
  opt::DistributedRateControl control(graph, params);
  const opt::RateControlResult rc = control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, kCapacity);

  LoopbackConfig loopback;
  loopback.seed = scenario.seed;
  loopback.delay_s = scenario.loopback_delay_s;
  LoopbackTransport base(graph.size(), link_matrix_from_topology(topo, graph),
                         loopback);
  std::unique_ptr<FaultTransport> fault;
  Transport* transport = &base;
  if (!scenario.fault_plan.empty()) {
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(scenario.fault_plan, &plan, &error)) << error;
    plan.seed = scenario.seed;
    fault = std::make_unique<FaultTransport>(base, plan);
    transport = fault.get();
  }

  SessionMux mux(graph, *transport, config);
  if (scenario.oracle_rates) {
    mux.install_rates(rates);
  } else {
    mux.install_price_table(rates, rc.lambda, rc.beta, rc.iterations);
  }
  return mux.run();
}

/// FNV-1a over the exact bit patterns of a run's variable-length fields, so
/// a pin stays short yet fails on any change to any element.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Every MuxRunResult field, one labelled line per session; doubles in hex
/// so the text is exact.
std::string describe(const MuxRunResult& r) {
  std::string out;
  char buf[512];
  const TransportStats& t = r.transport;
  std::snprintf(buf, sizeof(buf),
                "completed=%d data_ok=%d elapsed=%a\n"
                "sent=%zu bytes=%zu dropped=%zu delivered=%zu\n"
                "truncated=%zu socket_errors=%zu eintr=%zu rcvbuf=%zu\n"
                "unroutable=%zu mismatch=%zu unknown_session=%zu\n",
                r.completed, r.data_ok, r.virtual_elapsed, t.frames_sent,
                t.bytes_sent, t.copies_dropped, t.copies_delivered,
                t.datagrams_truncated, t.socket_errors, t.eintr_retries,
                t.rcvbuf_effective_bytes, r.demux_unroutable,
                r.demux_session_mismatch, r.demux_unknown_session);
  out += buf;
  for (const EmuRunResult& s : r.sessions) {
    Digest latencies;
    for (const double latency : s.ack_latencies) latencies.add(latency);
    Digest probes;
    for (const wire::ProbeReport& report : s.probe_reports) {
      probes.add(static_cast<std::uint64_t>(report.reporter_local));
      probes.add(static_cast<std::uint64_t>(report.probed_local));
      probes.add(static_cast<std::uint64_t>(report.beacons_heard));
      probes.add(static_cast<std::uint64_t>(report.window));
    }
    std::snprintf(
        buf, sizeof(buf),
        "session completed=%d data_ok=%d generations=%d\n"
        " elapsed=%a last_ack=%a\n"
        " goodput=%a mean_latency=%a\n"
        " latencies=%zu/%016llx probe_reports=%zu/%016llx\n"
        " parse_errors=%zu data_sent=%zu stall_boosts=%zu keepalives=%zu\n"
        " resync_requests=%zu resync_replies=%zu price_decays=%zu\n",
        s.completed, s.data_ok, s.generations_completed, s.virtual_elapsed,
        s.last_ack_time, s.goodput_bytes_per_s, s.mean_ack_latency,
        s.ack_latencies.size(),
        static_cast<unsigned long long>(latencies.value()),
        s.probe_reports.size(),
        static_cast<unsigned long long>(probes.value()), s.parse_errors,
        s.data_packets_sent, s.stall_boosts, s.ack_keepalives,
        s.resync_requests, s.resync_replies, s.price_decays);
    out += buf;
  }
  return out;
}

TEST(EmuTimerPins, ProbeWindowSchedulesBeaconsAndReports) {
  Scenario scenario;
  scenario.probe_window_s = 1.0;
  scenario.generations = 4;
  const MuxRunResult result = run(scenario);
  ASSERT_FALSE(result.sessions.at(0).probe_reports.empty());
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.d810624dd2f21p+0\n"
            "sent=400 bytes=23084 dropped=181 delivered=619\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=4\n"
            " elapsed=0x1.d810624dd2f21p+0 last_ack=0x1.604189374bc84p-2\n"
            " goodput=0x1.7417d05f417b5p+12 mean_latency=0x1.fbe76c8b4396p-5\n"
            " latencies=4/ce9bd5b884130ff6 probe_reports=12/bedfdc93a1c7fea4\n"
            " parse_errors=0 data_sent=120 stall_boosts=0 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=0\n");
}

TEST(EmuTimerPins, PaperGeometryRunDecaysAStalePrice) {
  Scenario scenario;
  scenario.gen_blocks = 40;
  scenario.block_bytes = 1024;
  scenario.generations = 32;
  const MuxRunResult result = run(scenario);
  ASSERT_GT(result.sessions.at(0).price_decays, 0u);
  ASSERT_GT(result.sessions.at(0).stall_boosts, 0u);
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.0c2d0e5604873p+7\n"
            "sent=9851 bytes=4765976 dropped=5134 delivered=14568\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=32\n"
            " elapsed=0x1.0c2d0e5604873p+7 last_ack=0x1.0b2d0e5604873p+7\n"
            " goodput=0x1.329d472079e79p+13 mean_latency=0x1.669ba5e354846p+1\n"
            " latencies=32/14849d19d7a38a3e probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=4073 stall_boosts=64 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=1\n");
}

TEST(EmuTimerPins, ShortAckRepeatBudgetFallsBackToKeepalives) {
  Scenario scenario;
  scenario.ack_repeat_limit = 0;
  scenario.generations = 12;
  const MuxRunResult result = run(scenario);
  ASSERT_GT(result.sessions.at(0).ack_keepalives, 0u);
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.71a9fbe76c8b9p+1\n"
            "sent=758 bytes=74282 dropped=369 delivered=1147\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=12\n"
            " elapsed=0x1.71a9fbe76c8b9p+1 last_ack=0x1.31a9fbe76c8b9p+1\n"
            " goodput=0x1.419ba885c9f7fp+11 mean_latency=0x1.8ead65b7a328bp-3\n"
            " latencies=12/8a512923372bf121 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=628 stall_boosts=0 keepalives=3\n"
            " resync_requests=0 resync_replies=0 price_decays=0\n");
}

TEST(EmuTimerPins, BlackoutTriggersResync) {
  Scenario scenario;
  scenario.fault_plan = "blackout";
  scenario.generations = 100;
  const MuxRunResult result = run(scenario);
  ASSERT_GT(result.sessions.at(0).resync_requests, 0u);
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.5d4fdf3b643f7p+3\n"
            "sent=3871 bytes=378888 dropped=2327 delivered=5415\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=100\n"
            " elapsed=0x1.5d4fdf3b643f7p+3 last_ack=0x1.4d4fdf3b643f7p+3\n"
            " goodput=0x1.33383bc5ccf98p+12 mean_latency=0x1.a8826aa8eb24p-4\n"
            " latencies=100/d90ec89824093709 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=3249 stall_boosts=1 keepalives=0\n"
            " resync_requests=1 resync_replies=0 price_decays=1\n");
}

TEST(EmuTimerPins, OracleRatesStallBoostOnTheChain) {
  Scenario scenario;
  scenario.topology = chain(3, 0.8);
  scenario.oracle_rates = true;
  scenario.gen_blocks = 40;
  scenario.block_bytes = 1024;
  scenario.generations = 4;
  const MuxRunResult result = run(scenario);
  ASSERT_GT(result.sessions.at(0).stall_boosts, 0u);
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.2624dd2f1aabep+5\n"
            "sent=1153 bytes=1201070 dropped=304 delivered=1303\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=4\n"
            " elapsed=0x1.2624dd2f1aabep+5 last_ack=0x1.2224dd2f1aabep+5\n"
            " goodput=0x1.1a57b212cdc81p+12 mean_latency=0x1.0160418937588p+3\n"
            " latencies=4/f16588eea546d633 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=1090 stall_boosts=12 keepalives=0\n"
            " resync_requests=6 resync_replies=3 price_decays=0\n");
}

TEST(EmuTimerPins, SeveralSessionsShareEveryNodeStep) {
  Scenario scenario;
  scenario.sessions = 4;
  scenario.generations = 6;
  const MuxRunResult result = run(scenario);
  ASSERT_EQ(result.sessions.size(), 4u);
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.189374bc6a7f3p+0\n"
            "sent=999 bytes=93114 dropped=490 delivered=1508\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=6\n"
            " elapsed=0x1.189374bc6a7f3p+0 last_ack=0x1.3126e978d4fe6p-1\n"
            " goodput=0x1.4225cc74d50b9p+12 mean_latency=0x1.4fdf3b645a1cfp-4\n"
            " latencies=6/dc8c452da2d099ee probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=207 stall_boosts=0 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=0\n"
            "session completed=1 data_ok=1 generations=6\n"
            " elapsed=0x1.189374bc6a7f3p+0 last_ack=0x1.2d0e56041893ep-1\n"
            " goodput=0x1.4687d6343eb13p+12 mean_latency=0x1.44f3078263ab9p-4\n"
            " latencies=6/d8a7d4023bda60e5 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=198 stall_boosts=0 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=0\n"
            "session completed=1 data_ok=1 generations=6\n"
            " elapsed=0x1.189374bc6a7f3p+0 last_ack=0x1.020c49ba5e35ap-1\n"
            " goodput=0x1.7cf3cf3cf3cebp+12 mean_latency=0x1.0b9af72015d89p-4\n"
            " latencies=6/f666d00ee3c08b40 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=169 stall_boosts=0 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=0\n"
            "session completed=1 data_ok=1 generations=6\n"
            " elapsed=0x1.189374bc6a7f3p+0 last_ack=0x1.fbe76c8b43966p-2\n"
            " goodput=0x1.8318c6318c627p+12 mean_latency=0x1.0624dd2f1aap-4\n"
            " latencies=6/0ef2e9efb551effd probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=173 stall_boosts=0 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=0\n");
}

TEST(EmuTimerPins, ChaosOnALongChainRefillsIdleBuckets) {
  // Bursts of loss and a blackout leave relays idle with half-full buckets;
  // each tick's refill is one rounded addition, so a loop that batched the
  // refills of skipped ticks would drift here.
  Scenario scenario;
  scenario.topology = chain(5, 0.8);
  scenario.sessions = 3;
  scenario.fault_plan = "chaos";
  scenario.generations = 40;
  const MuxRunResult result = run(scenario);
  ASSERT_EQ(result.sessions.size(), 3u);
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.2fe76c8b439bbp+5\n"
            "sent=38430 bytes=3714462 dropped=20874 delivered=44054\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=40\n"
            " elapsed=0x1.2fe76c8b439bbp+5 last_ack=0x1.190e560418a52p+5\n"
            " goodput=0x1.2378df9e10a8bp+9 mean_latency=0x1.c10624dd2f36ep-1\n"
            " latencies=40/5852fbc9e6cb7389 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=10699 stall_boosts=19 keepalives=0\n"
            " resync_requests=1 resync_replies=0 price_decays=24\n"
            "session completed=1 data_ok=1 generations=40\n"
            " elapsed=0x1.2fe76c8b439bbp+5 last_ack=0x1.2be76c8b439bbp+5\n"
            " goodput=0x1.11277185d86cep+9 mean_latency=0x1.df2e48e8a727dp-1\n"
            " latencies=40/ba63b309ec6a525d probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=11388 stall_boosts=21 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=27\n"
            "session completed=1 data_ok=1 generations=40\n"
            " elapsed=0x1.2fe76c8b439bbp+5 last_ack=0x1.f23d70a3d74efp+4\n"
            " goodput=0x1.48d666ed1755bp+9 mean_latency=0x1.8ded288ce73aap-1\n"
            " latencies=40/95f010770e85d9e6 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=9498 stall_boosts=13 keepalives=0\n"
            " resync_requests=4 resync_replies=1 price_decays=29\n");
}

TEST(EmuTimerPins, DelayedLoopbackHoldsCopiesPastTheirSendTick) {
  Scenario scenario;
  scenario.loopback_delay_s = 0.01;
  const MuxRunResult result = run(scenario);
  EXPECT_EQ(describe(result),
            "completed=1 data_ok=1 elapsed=0x1.6f9db22d0e565p+0\n"
            "sent=383 bytes=37454 dropped=181 delivered=585\n"
            "truncated=0 socket_errors=0 eintr=0 rcvbuf=0\n"
            "unroutable=0 mismatch=0 unknown_session=0\n"
            "session completed=1 data_ok=1 generations=8\n"
            " elapsed=0x1.6f9db22d0e565p+0 last_ack=0x1.df3b645a1cacap-1\n"
            " goodput=0x1.118118118117cp+12 mean_latency=0x1.c28f5c28f5c2fp-4\n"
            " latencies=8/3bb55b781cc61441 probe_reports=0/cbf29ce484222325\n"
            " parse_errors=0 data_sent=318 stall_boosts=0 keepalives=0\n"
            " resync_requests=0 resync_replies=0 price_decays=0\n");
}

}  // namespace
}  // namespace omnc::emu
