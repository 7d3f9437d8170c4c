// Session-mux runtime (DESIGN.md §16): S sessions over ONE shared transport
// must (a) replay byte-identically under the deterministic clock, (b) leave
// each session's trajectory untouched by its neighbours when the links are
// lossless (exact equality against S independent single-session runs),
// (c) give the same det run whether or not the transport lets the loop skip
// idle polls, (d) run one loop for every clock, so warp at one shard is the
// det run and every clock stops at the horizon, and (e) reject malformed,
// retired-version, or cross-session frames at the demux boundary before any
// runtime sees them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coding/coded_packet.h"
#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "net/topology.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"
#include "wire/frame.h"

namespace omnc::emu {
namespace {

constexpr double kCapacity = 2e4;

net::Topology diamond(double p_scale = 1.0) {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8 * p_scale;
  p[0][2] = p[2][0] = 0.6 * p_scale;
  p[1][3] = p[3][1] = 0.7 * p_scale;
  p[2][3] = p[3][2] = 0.9 * p_scale;
  return net::Topology::from_link_matrix(p);
}

/// The Fig. 2 diamond with every link perfect: loss RNG never fires, so
/// sessions sharing the channel cannot perturb each other's packet fates.
net::Topology lossless_diamond() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 1.0;
  p[0][2] = p[2][0] = 1.0;
  p[1][3] = p[3][1] = 1.0;
  p[2][3] = p[3][2] = 1.0;
  return net::Topology::from_link_matrix(p);
}

EmuConfig det_config(int generations) {
  EmuConfig config;
  config.node.coding.generation_blocks = 8;
  config.node.coding.block_bytes = 64;
  config.node.cbr_bytes_per_s = 1e4;
  config.node.max_generations = generations;
  config.node.session_id = 1;
  config.node.data_seed = 1;
  config.node.rng_seed = 1;
  config.clock_mode = vtime::ClockMode::kDeterministic;
  config.speedup = 20.0;
  config.virtual_timeout_s = 240.0;
  return config;
}

std::vector<double> oracle_rates(const routing::SessionGraph& graph) {
  opt::RateControlParams params;
  params.capacity = kCapacity;
  opt::DistributedRateControl control(graph, params);
  std::vector<double> rates = control.run().b;
  opt::rescale_to_feasible(graph, rates, kCapacity);
  return rates;
}

std::unique_ptr<LoopbackTransport> make_loopback(
    const net::Topology& topo, const routing::SessionGraph& graph,
    std::uint64_t seed) {
  LoopbackConfig loopback;
  loopback.seed = seed;
  loopback.max_inbox = 1 << 20;  // mux backlogs must not hit the inbox cap
  return std::make_unique<LoopbackTransport>(
      graph.size(), link_matrix_from_topology(topo, graph), loopback);
}

/// One run of `config` over the loopback (seed 1) on the path from node 0 to
/// the last node, behind `fault_plan`'s injector when one is named.
MuxRunResult run_mux(const net::Topology& topo, const MuxConfig& config,
                     const std::string& fault_plan = "") {
  const routing::SessionGraph graph = routing::select_nodes(
      topo, 0, static_cast<net::NodeId>(topo.node_count() - 1));
  const std::unique_ptr<LoopbackTransport> loopback =
      make_loopback(topo, graph, 1);
  std::optional<FaultTransport> faults;
  if (!fault_plan.empty()) {
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(fault_plan, &plan, &error)) << error;
    faults.emplace(*loopback, std::move(plan));
  }
  Transport& transport =
      faults ? static_cast<Transport&>(*faults) : *loopback;
  SessionMux mux(graph, transport, config);
  mux.install_rates(oracle_rates(graph));
  return mux.run();
}

void expect_session_equal(const EmuRunResult& a, const EmuRunResult& b,
                          const char* label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.data_ok, b.data_ok) << label;
  EXPECT_EQ(a.generations_completed, b.generations_completed) << label;
  EXPECT_EQ(a.goodput_bytes_per_s, b.goodput_bytes_per_s) << label;
  EXPECT_EQ(a.last_ack_time, b.last_ack_time) << label;
  EXPECT_EQ(a.mean_ack_latency, b.mean_ack_latency) << label;
  EXPECT_EQ(a.ack_latencies, b.ack_latencies) << label;
  EXPECT_EQ(a.data_packets_sent, b.data_packets_sent) << label;
  EXPECT_EQ(a.parse_errors, b.parse_errors) << label;
}

TEST(SessionMux, DeterministicReplayIsByteIdenticalAcrossEightSessions) {
  MuxConfig config;
  config.emu = det_config(3);
  config.sessions = 8;
  const MuxRunResult first = run_mux(diamond(), config);
  const MuxRunResult second = run_mux(diamond(), config);

  ASSERT_TRUE(first.completed);
  ASSERT_TRUE(first.data_ok);
  ASSERT_EQ(first.sessions.size(), 8u);
  ASSERT_EQ(second.sessions.size(), 8u);
  for (std::size_t s = 0; s < first.sessions.size(); ++s) {
    expect_session_equal(first.sessions[s], second.sessions[s], "replay");
  }
  EXPECT_EQ(first.transport.frames_sent, second.transport.frames_sent);
  EXPECT_EQ(first.transport.copies_delivered,
            second.transport.copies_delivered);
  EXPECT_EQ(first.transport.copies_dropped, second.transport.copies_dropped);
  EXPECT_EQ(first.demux_unroutable, 0u);
  EXPECT_EQ(first.demux_session_mismatch, 0u);
  EXPECT_EQ(first.demux_unknown_session, 0u);
}

TEST(SessionMux, LosslessSessionsMatchIndependentSoloRunsExactly) {
  // On perfect links the shared channel draws no loss RNG, so multiplexing
  // eight sessions must not change any one of them: session s of the mux
  // run equals a one-session run with session s's derived seeds, field for
  // field.
  const net::Topology topo = lossless_diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  const std::vector<double> rates = oracle_rates(graph);

  const int sessions = 8;
  const std::unique_ptr<LoopbackTransport> transport =
      make_loopback(topo, graph, 1);
  MuxConfig mux_config;
  mux_config.emu = det_config(3);
  mux_config.sessions = sessions;
  SessionMux mux(graph, *transport, mux_config);
  mux.install_rates(rates);
  const MuxRunResult muxed = mux.run();
  ASSERT_TRUE(muxed.completed);
  ASSERT_TRUE(muxed.data_ok);
  ASSERT_EQ(muxed.sessions.size(), static_cast<std::size_t>(sessions));

  for (int s = 0; s < sessions; ++s) {
    const std::unique_ptr<LoopbackTransport> solo_transport =
        make_loopback(topo, graph, 1);
    MuxConfig solo;
    solo.emu = det_config(3);
    solo.emu.node.session_id = 1 + static_cast<std::uint32_t>(s);
    solo.emu.node.data_seed = 1 + static_cast<std::uint64_t>(s);
    solo.emu.node.rng_seed = 1 + static_cast<std::uint64_t>(s);
    SessionMux alone(graph, *solo_transport, solo);
    alone.install_rates(rates);
    const MuxRunResult solo_run = alone.run();
    ASSERT_EQ(solo_run.sessions.size(), 1u);
    expect_session_equal(muxed.sessions[static_cast<std::size_t>(s)],
                         solo_run.sessions[0], "solo comparison");
  }
}

/// Forwards every call to the wrapped transport but offers no readiness set
/// (the base make_readiness), so the det loop polls every node every tick.
class NoReadiness final : public Transport {
 public:
  explicit NoReadiness(Transport& inner) : inner_(inner) {}
  int nodes() const override { return inner_.nodes(); }
  void send(int from, std::span<const std::uint8_t> frame) override {
    inner_.send(from, frame);
  }
  std::size_t poll(int to, const Handler& handler) override {
    return inner_.poll(to, handler);
  }
  TransportStats stats() const override { return inner_.stats(); }
  void bind_clock(const vtime::Clock* clock) override {
    Transport::bind_clock(clock);
    inner_.bind_clock(clock);
  }

 private:
  Transport& inner_;
};

net::Topology lossy_chain(int hops) {
  const auto n = static_cast<std::size_t>(hops + 1);
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i + 1 < n; ++i) p[i][i + 1] = p[i + 1][i] = 0.75;
  return net::Topology::from_link_matrix(p);
}

/// One det run over the loopback, bare or behind NoReadiness.
MuxRunResult run_det(const net::Topology& topo, int sessions,
                     bool poll_every_node) {
  const routing::SessionGraph graph = routing::select_nodes(
      topo, 0, static_cast<net::NodeId>(topo.node_count() - 1));
  const std::unique_ptr<LoopbackTransport> loopback =
      make_loopback(topo, graph, 3);
  NoReadiness opaque(*loopback);
  Transport& transport =
      poll_every_node ? static_cast<Transport&>(opaque) : *loopback;
  MuxConfig config;
  config.emu = det_config(4);
  config.sessions = sessions;
  SessionMux mux(graph, transport, config);
  mux.install_rates(oracle_rates(graph));
  return mux.run();
}

TEST(SessionMux, DetLoopSkipsOnlyPollsThatWouldDeliverNothing) {
  // The det loop polls a node only when the loopback reports a copy queued
  // for it.  Polling every node every tick instead must give the same run,
  // field for field, on the lossy diamond with several sessions and on a
  // chain.
  const struct {
    const char* label;
    net::Topology topo;
    int sessions;
  } cases[] = {{"diamond x4", diamond(), 4}, {"chain", lossy_chain(4), 2}};
  for (const auto& c : cases) {
    const MuxRunResult every = run_det(c.topo, c.sessions, true);
    const MuxRunResult ready = run_det(c.topo, c.sessions, false);
    ASSERT_TRUE(every.completed) << c.label;
    ASSERT_EQ(ready.sessions.size(), every.sessions.size()) << c.label;
    for (std::size_t s = 0; s < every.sessions.size(); ++s) {
      expect_session_equal(ready.sessions[s], every.sessions[s], c.label);
    }
    EXPECT_TRUE(ready.transport == every.transport) << c.label;
    EXPECT_TRUE(ready == every) << c.label;
  }
}

TEST(SessionMux, WarpAtOneShardIsTheDetRun) {
  // Every clock runs the same shard loop, and one shard runs it on the
  // calling thread: a warp barrier of one participant moves exactly like
  // the det clock's hand, so the two runs agree field for field — with
  // several sessions, on a chain, and behind the chaos injector's hold
  // queues (which offer no readiness, so every node is polled every tick).
  const struct {
    const char* label;
    net::Topology topo;
    int sessions;
    int generations;
    const char* fault_plan;
  } cases[] = {{"diamond x4", diamond(), 4, 4, ""},
               {"chain", lossy_chain(4), 1, 4, ""},
               {"diamond, chaos", diamond(), 1, 40, "chaos"}};
  for (const auto& c : cases) {
    MuxConfig config;
    config.emu = det_config(c.generations);
    config.sessions = c.sessions;
    const MuxRunResult det = run_mux(c.topo, config, c.fault_plan);
    config.emu.clock_mode = vtime::ClockMode::kWarp;
    config.shards = 1;
    const MuxRunResult warp = run_mux(c.topo, config, c.fault_plan);
    ASSERT_TRUE(det.completed) << c.label;
    ASSERT_EQ(warp.sessions.size(), det.sessions.size()) << c.label;
    for (std::size_t s = 0; s < det.sessions.size(); ++s) {
      expect_session_equal(warp.sessions[s], det.sessions[s], c.label);
    }
    EXPECT_EQ(warp.virtual_elapsed, det.virtual_elapsed) << c.label;
    EXPECT_TRUE(warp.transport == det.transport) << c.label;
    EXPECT_TRUE(warp == det) << c.label;
  }
}

TEST(SessionMux, HorizonStopsEveryClock) {
  // A horizon long before max_generations: every clock stops there, reports
  // the run incomplete, and what did decode checks out.  The shards under
  // det and warp stop together at the first tick at or past the horizon;
  // real time only promises at or after it.
  constexpr double kHorizon = 3.0;
  MuxConfig config;
  config.emu = det_config(1000);
  config.emu.virtual_timeout_s = kHorizon;
  // The loop's own tick recurrence: one tick is 200 us x speedup.
  const double tick = 200 * 1e-6 * config.emu.speedup;
  double first_tick_past = 0.0;
  for (double next = tick; first_tick_past < kHorizon; next += tick) {
    first_tick_past = next;
  }
  const struct {
    vtime::ClockMode clock;
    int shards;
  } runs[] = {{vtime::ClockMode::kDeterministic, 1},
              {vtime::ClockMode::kWarp, 2},
              {vtime::ClockMode::kReal, 2}};
  for (const auto& run : runs) {
    SCOPED_TRACE(vtime::clock_mode_name(run.clock));
    config.emu.clock_mode = run.clock;
    config.shards = run.shards;
    const MuxRunResult result = run_mux(diamond(), config);
    EXPECT_FALSE(result.completed);
    EXPECT_TRUE(result.data_ok);
    ASSERT_EQ(result.sessions.size(), 1u);
    EXPECT_FALSE(result.sessions[0].completed);
    EXPECT_GT(result.sessions[0].generations_completed, 0);
    if (run.clock == vtime::ClockMode::kReal) {
      EXPECT_GE(result.virtual_elapsed, kHorizon);
    } else {
      EXPECT_EQ(result.virtual_elapsed, first_tick_past);
    }
  }
}

TEST(SessionMux, WarpSoakCompletesEverySession) {
  // Sharded loop on two threads under the warp clock: all sessions decode,
  // data checks out, and nothing was rejected at the demux boundary.
  MuxConfig config;
  config.emu = det_config(3);
  config.emu.clock_mode = vtime::ClockMode::kWarp;
  config.sessions = 12;
  config.shards = 2;
  const MuxRunResult result = run_mux(diamond(), config);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.data_ok);
  ASSERT_EQ(result.sessions.size(), 12u);
  for (const EmuRunResult& session : result.sessions) {
    EXPECT_TRUE(session.completed);
    EXPECT_TRUE(session.data_ok);
    EXPECT_EQ(session.generations_completed, 3);
    EXPECT_GT(session.goodput_bytes_per_s, 0.0);
  }
  EXPECT_EQ(result.demux_unroutable, 0u);
  EXPECT_EQ(result.demux_session_mismatch, 0u);
  EXPECT_EQ(result.demux_unknown_session, 0u);
}

/// Re-encodes `frame` in the retired version-1 layout: the 18-byte header
/// without the trace tag, checksummed over the payload alone.
std::vector<std::uint8_t> as_version1(const wire::Frame& frame) {
  std::vector<std::uint8_t> bytes = frame.serialize();
  bytes.erase(bytes.begin() + wire::kTraceTagOffset,
              bytes.begin() + wire::kHeaderBytes);
  bytes[4] = 1;
  const std::uint32_t sum = wire::crc32c(
      std::span<const std::uint8_t>(bytes).subspan(wire::kTraceTagOffset));
  for (int i = 0; i < 4; ++i) {
    bytes[14 + i] = static_cast<std::uint8_t>(sum >> (24 - 8 * i));
  }
  return bytes;
}

coding::CodedPacket sample_packet(std::uint32_t session) {
  coding::CodedPacket packet;
  packet.session_id = session;
  packet.generation_id = 3;
  packet.generation_blocks = 4;
  packet.block_bytes = 8;
  packet.coefficients = {1, 2, 3, 4};
  packet.payload = {10, 20, 30, 40, 50, 60, 70, 80};
  return packet;
}

TEST(SessionMuxDemux, ClassifyAcceptsMatchingDataFrame) {
  const std::vector<std::uint8_t> bytes =
      wire::make_coded_data(sample_packet(7)).serialize();
  std::uint32_t session = 0;
  EXPECT_EQ(SessionMux::classify(bytes, &session),
            SessionMux::DemuxDecision::kDeliver);
  EXPECT_EQ(session, 7u);
}

TEST(SessionMuxDemux, ClassifyAcceptsControlFrames) {
  const std::vector<std::uint8_t> bytes =
      wire::make_ack(9, wire::GenerationAck{42, 3, 17}).serialize();
  std::uint32_t session = 0;
  EXPECT_EQ(SessionMux::classify(bytes, &session),
            SessionMux::DemuxDecision::kDeliver);
  EXPECT_EQ(session, 9u);
}

TEST(SessionMuxDemux, ClassifyRejectsEveryTruncation) {
  const std::vector<std::uint8_t> bytes =
      wire::make_coded_data(sample_packet(7)).serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::uint32_t session = 0;
    EXPECT_EQ(SessionMux::classify({bytes.data(), len}, &session),
              SessionMux::DemuxDecision::kUnroutable)
        << "prefix length " << len;
  }
}

TEST(SessionMuxDemux, ClassifyRejectsHeaderEmbeddedDisagreement) {
  // A frame whose wire header says session 8 but whose embedded coded
  // packet says 7 is corruption or forgery; routing it by either id would
  // leak it across sessions.
  wire::Frame frame = wire::make_coded_data(sample_packet(7));
  frame.session_id = 8;
  const std::vector<std::uint8_t> bytes = frame.serialize();
  std::uint32_t session = 0;
  EXPECT_EQ(SessionMux::classify(bytes, &session),
            SessionMux::DemuxDecision::kSessionMismatch);
}

TEST(SessionMuxDemux, UnknownAndMismatchedFramesNeverReachARuntime) {
  // Inject hostile frames straight onto the shared channel before the run:
  // a well-formed data frame for a session the mux does not host, a
  // header/embedded disagreement, and version-1 and version-2 frames for a
  // hosted session.  All must land in the demux counters while every real
  // session still completes untouched.
  const net::Topology topo = lossless_diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  const std::unique_ptr<LoopbackTransport> transport =
      make_loopback(topo, graph, 1);
  MuxConfig config;
  config.emu = det_config(3);
  config.sessions = 2;  // hosts wire sessions 1 and 2
  SessionMux mux(graph, *transport, config);
  mux.install_rates(oracle_rates(graph));

  transport->send(0, wire::make_coded_data(sample_packet(99)).serialize());
  wire::Frame forged = wire::make_coded_data(sample_packet(1));
  forged.session_id = 2;  // header claims session 2, body says 1
  transport->send(0, forged.serialize());
  transport->send(0, as_version1(wire::make_coded_data(sample_packet(1))));
  std::vector<std::uint8_t> version2 =
      wire::make_coded_data(sample_packet(1)).serialize();
  version2[4] = 2;  // v2 differs from v3 only in its checksum function
  transport->send(0, version2);

  const MuxRunResult result = mux.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.data_ok);
  // Each hostile broadcast reaches every receiving node on perfect-ish
  // links at least once; the exact copy count depends on link loss, so the
  // counters are lower-bounded, not pinned.
  EXPECT_GE(result.demux_unknown_session, 1u);
  EXPECT_GE(result.demux_session_mismatch, 1u);
  EXPECT_GE(result.demux_unroutable, 2u);  // the retired wire versions
}

TEST(SessionMux, SessionIdsAndSeedsAreDerivedFromTheTemplate) {
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  const std::unique_ptr<LoopbackTransport> transport =
      make_loopback(topo, graph, 1);
  MuxConfig config;
  config.emu = det_config(1);
  config.emu.node.session_id = 5;
  config.sessions = 3;
  SessionMux mux(graph, *transport, config);
  EXPECT_EQ(mux.session_id_of(0), 5u);
  EXPECT_EQ(mux.session_id_of(1), 6u);
  EXPECT_EQ(mux.session_id_of(2), 7u);
}

}  // namespace
}  // namespace omnc::emu
