// Observability layer tests: the MetricsRegistry timers, the JSONL
// trace round trip, and the replay/verify machinery behind trace_inspect.
//
// The central invariant is exactness: a trace written with %.17g doubles and
// replayed through the live sinks must reproduce every recorded statistic
// with EXPECT_EQ on doubles — no tolerance anywhere.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_inspect.h"
#include "obs/trace_reader.h"
#include "protocols/omnc.h"
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

protocols::ProtocolConfig pin_config(std::uint64_t seed) {
  protocols::ProtocolConfig config;
  config.coding.generation_blocks = 8;
  config.coding.block_bytes = 64;
  config.mac.capacity_bytes_per_s = 2e4;
  config.mac.slot_bytes = 12 + 8 + 64;
  config.mac.fading.enabled = false;
  config.cbr_bytes_per_s = 1e4;
  config.max_sim_seconds = 60.0;
  config.seed = seed;
  return config;
}

std::string temp_trace_path(const char* name) {
  return testing::TempDir() + name;
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, TimerCountsTotalsAndResets) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.reset();

  Timer& timer = registry.timer("test/timer");
  // Same name yields the same timer.
  EXPECT_EQ(&registry.timer("test/timer"), &timer);
  timer.record_ns(100);
  timer.record_ns(300);
  EXPECT_EQ(timer.count(), 2u);
  EXPECT_EQ(timer.total_ns(), 400u);
  const Histogram seconds = timer.histogram();
  EXPECT_EQ(seconds.count(), 2u);
  EXPECT_EQ(seconds.min(), 100e-9);  // exact extremes, in seconds
  EXPECT_EQ(seconds.max(), 300e-9);
  EXPECT_GT(seconds.quantile(99.0), 0.0);

  registry.reset();
  EXPECT_EQ(timer.count(), 0u);
  EXPECT_EQ(timer.total_ns(), 0u);
  EXPECT_EQ(timer.histogram(), Histogram());
}

// A median sits at most one sub-bucket (1/32 of its octave) below the true
// value, in the nanosecond range the coding probes see and above 2^23 ns
// (8.4 ms), where nanosecond samples would land in the overflow bucket.
TEST(MetricsRegistry, TimerMedianLiesWithinOneSubBucket) {
  for (const std::uint64_t scale : {1ull, 100'000ull}) {
    Timer timer;
    for (const std::uint64_t ns : {100ull, 300ull, 1000ull}) {
      timer.record_ns(ns * scale);
    }
    const double median_ns = 1e9 * timer.histogram().quantile(50.0);
    const double true_ns = 300.0 * static_cast<double>(scale);
    EXPECT_LE(median_ns, true_ns) << "scale " << scale;
    EXPECT_GT(median_ns, true_ns * (1.0 - 1.0 / Histogram::kSubBuckets))
        << "scale " << scale;
  }
}

// Pool workers and shard threads record into one timer concurrently while
// snapshots are read; no record may be lost.  Under TSan this also checks
// that one lock guards the count, the total and the histogram.
TEST(MetricsRegistry, TimerCountsEveryConcurrentRecord) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Timer& timer = registry.timer("test/concurrent");
  timer.reset();
  constexpr int kThreads = 4;
  constexpr int kRecords = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&timer, t] {
      for (int i = 0; i < kRecords; ++i) {
        timer.record_ns(static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (int i = 0; i < 10; ++i) {
    const Histogram snapshot = timer.histogram();
    EXPECT_LE(snapshot.count(), std::uint64_t{kThreads * kRecords});
    EXPECT_FALSE(registry.timers().empty());
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(timer.count(), std::uint64_t{kThreads * kRecords});
  EXPECT_EQ(timer.total_ns(), std::uint64_t{kRecords * (1 + 2 + 3 + 4)});
  EXPECT_EQ(timer.histogram().count(), timer.count());
  timer.reset();
}

TEST(MetricsRegistry, ScopedTimerIsGatedByEnabledFlag) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Timer& timer = registry.timer("test/scoped");
  timer.reset();

  ASSERT_FALSE(MetricsRegistry::enabled());  // off by default
  { ScopedTimer probe(timer); }
  EXPECT_EQ(timer.count(), 0u);  // disabled probes never touch the timer

  MetricsRegistry::set_enabled(true);
  { OMNC_SCOPED_TIMER("test/scoped_macro"); }
  MetricsRegistry::set_enabled(false);
  EXPECT_EQ(registry.timer("test/scoped_macro").count(), 1u);
  registry.reset();
}

TEST(MetricsRegistry, TimersAreSortedAndSummaryRenders) {
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.reset();
  registry.timer("test/b").record_ns(2);
  registry.timer("test/a").record_ns(1);
  const std::vector<std::pair<std::string, Histogram>> timers =
      registry.timers();
  ASSERT_GE(timers.size(), 2u);
  for (std::size_t i = 1; i < timers.size(); ++i) {
    EXPECT_LT(timers[i - 1].first, timers[i].first);
  }
  for (const auto& [name, seconds] : timers) {
    EXPECT_EQ(seconds, registry.timer(name).histogram()) << name;
  }
  EXPECT_NE(registry.summary().find("test/a"), std::string::npos);
  registry.reset();
}

// --- Percentiles ----------------------------------------------------------

TEST(TraceInspect, NearestRankPercentile) {
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  const std::vector<double> values{4.0, 1.0, 3.0, 2.0};
  EXPECT_EQ(percentile(values, 0.0), 1.0);
  EXPECT_EQ(percentile(values, 50.0), 2.0);
  EXPECT_EQ(percentile(values, 100.0), 4.0);
}

// --- JSONL round trip -----------------------------------------------------

TEST(TraceRoundTrip, ManifestGraphEventsAndResultsSurvive) {
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  const std::string path = temp_trace_path("roundtrip.jsonl");

  protocols::MetricEvent rx;
  rx.type = protocols::MetricEvent::Type::kRx;
  rx.time = 0.062599999999999989;  // needs all 17 digits
  rx.session = 0;
  rx.node = 3;
  rx.tx_local = 0;
  rx.rx_local = 3;
  rx.edge = 2;
  rx.innovative = true;

  protocols::SessionResult result;
  result.connected = true;
  result.throughput_bytes_per_s = 2403.7618927090502;
  result.generations_completed = 281;
  result.transmissions = 16586;
  result.predicted_gamma = 3141.5926535897933;

  Histogram recorded_timer;
  {
    TraceRecorder recorder(path, "test_obs", "k=1", 0xdeadbeefcafe1234ull);
    ASSERT_TRUE(recorder.ok());
    RunContext ctx;
    ctx.protocol = "omnc";
    ctx.seed = 42;
    ctx.topology_nodes = topo.node_count();
    ctx.generation_blocks = 8;
    ctx.block_bytes = 64;
    const int run = recorder.begin_run(ctx, {&graph});
    recorder.record_event(run, rx);
    recorder.record_opt_iteration(run, 0, 123.456, {1.0, 2.0, 3.0});
    recorder.record_probe(0, 1, 0, 2, 0.6, 0.58499999999999996);
    recorder.end_run(run, {result}, {{10, 20, 30, 40}});
    MetricsRegistry::global().reset();
    Timer& timer = MetricsRegistry::global().timer("test/trace_timer");
    timer.record_ns(700);
    timer.record_ns(1000);
    timer.record_ns(12'000'000'000);  // 12 s
    recorded_timer = timer.histogram();
    recorder.record_registry();
    MetricsRegistry::global().reset();
  }

  Trace trace;
  std::string error;
  ASSERT_TRUE(read_trace(path, &trace, &error)) << error;
  EXPECT_EQ(trace.schema, kTraceSchemaVersion);
  EXPECT_EQ(trace.tool, "test_obs");
  EXPECT_EQ(trace.params, "k=1");
  EXPECT_EQ(trace.seed, 0xdeadbeefcafe1234ull);

  ASSERT_EQ(trace.runs.size(), 1u);
  const RecordedRun& run = trace.runs.front();
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.context.protocol, "omnc");
  EXPECT_EQ(run.context.seed, 42u);
  // The run-level hash mixes the per-graph hashes; same graphs, same hash.
  EXPECT_NE(run.graph_hash, 0u);
  EXPECT_NE(TraceRecorder::hash_graph(graph), 0u);
  routing::SessionGraph tweaked = graph;
  tweaked.edges[0].p += 1e-9;  // the hash covers exact double bits
  EXPECT_NE(TraceRecorder::hash_graph(graph),
            TraceRecorder::hash_graph(tweaked));

  // The reconstructed graph matches structurally.
  ASSERT_EQ(run.graphs.size(), 1u);
  const routing::SessionGraph& round = run.graphs.front();
  EXPECT_EQ(round.size(), graph.size());
  EXPECT_EQ(round.source, graph.source);
  EXPECT_EQ(round.destination, graph.destination);
  ASSERT_EQ(round.edges.size(), graph.edges.size());
  for (std::size_t e = 0; e < graph.edges.size(); ++e) {
    EXPECT_EQ(round.edges[e].from, graph.edges[e].from);
    EXPECT_EQ(round.edges[e].to, graph.edges[e].to);
    EXPECT_EQ(round.edges[e].p, graph.edges[e].p);  // exact double
  }
  for (int local = 0; local < graph.size(); ++local) {
    EXPECT_EQ(round.node_id(local), graph.node_id(local));
    EXPECT_EQ(round.etx_to_dst[static_cast<std::size_t>(local)],
              graph.etx_to_dst[static_cast<std::size_t>(local)]);
  }

  // The event restored every field exactly.
  ASSERT_EQ(run.events.size(), 1u);
  const protocols::MetricEvent& event = run.events.front();
  EXPECT_EQ(event.type, rx.type);
  EXPECT_EQ(event.time, rx.time);
  EXPECT_EQ(event.session, rx.session);
  EXPECT_EQ(event.node, rx.node);
  EXPECT_EQ(event.tx_local, rx.tx_local);
  EXPECT_EQ(event.rx_local, rx.rx_local);
  EXPECT_EQ(event.edge, rx.edge);
  EXPECT_EQ(event.innovative, rx.innovative);

  ASSERT_EQ(run.opt_gamma.size(), 1u);
  EXPECT_EQ(run.opt_gamma[0], 123.456);
  ASSERT_EQ(run.opt_b.size(), 1u);
  EXPECT_EQ(run.opt_b[0], (std::vector<double>{1.0, 2.0, 3.0}));

  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].connected, true);
  EXPECT_EQ(run.results[0].throughput_bytes_per_s, 2403.7618927090502);
  EXPECT_EQ(run.results[0].generations_completed, 281);
  EXPECT_EQ(run.results[0].transmissions, 16586u);
  EXPECT_EQ(run.results[0].predicted_gamma, 3141.5926535897933);
  ASSERT_EQ(run.edge_innovative.size(), 1u);
  EXPECT_EQ(run.edge_innovative[0],
            (std::vector<std::size_t>{10, 20, 30, 40}));

  ASSERT_EQ(trace.probes.size(), 1u);
  EXPECT_EQ(trace.probes[0].session, 0);
  EXPECT_EQ(trace.probes[0].edge, 1);
  EXPECT_EQ(trace.probes[0].p_true, 0.6);
  EXPECT_EQ(trace.probes[0].p_estimate, 0.58499999999999996);

  // The timer's histogram survives bit for bit.
  bool found_timer = false;
  for (const auto& [name, seconds] : trace.registry) {
    if (name == "test/trace_timer") {
      found_timer = true;
      EXPECT_EQ(seconds, recorded_timer);
    }
  }
  EXPECT_TRUE(found_timer);
  EXPECT_EQ(recorded_timer.count(), 3u);
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, UnreadableFileAndBadSchemaAreErrors) {
  Trace trace;
  std::string error;
  EXPECT_FALSE(read_trace(temp_trace_path("missing.jsonl"), &trace, &error));
  EXPECT_FALSE(error.empty());

  const std::string path = temp_trace_path("badschema.jsonl");
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("{\"t\":\"manifest\",\"schema\":999}\n", file);
  std::fclose(file);
  error.clear();
  EXPECT_FALSE(read_trace(path, &trace, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, SchemaOneManifestIsRejected) {
  // Nothing writes schema 1 any more; the reader takes only the current
  // version, so an old trace fails loudly instead of replaying without its
  // span and histogram records.
  const std::string path = temp_trace_path("schema1.jsonl");
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("{\"t\":\"manifest\",\"schema\":1,\"build\":\"x\","
             "\"tool\":\"test_obs\",\"params\":\"\",\"seed\":1}\n",
             file);
  std::fclose(file);
  Trace trace;
  std::string error;
  EXPECT_FALSE(read_trace(path, &trace, &error));
  EXPECT_NE(error.find("unsupported trace schema 1"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

// --- Live run vs offline replay ------------------------------------------

TEST(TraceReplay, DiamondOmncReplayMatchesLiveRunExactly) {
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  const std::string path = temp_trace_path("omnc_live.jsonl");

  protocols::SessionResult live;
  std::vector<std::size_t> live_edges;
  {
    TraceRecorder recorder(path, "test_obs", "diamond", 42);
    ASSERT_TRUE(recorder.ok());
    RunContext ctx;
    ctx.protocol = "omnc";
    ctx.seed = 42;
    ctx.topology_nodes = topo.node_count();
    ctx.generation_blocks = 8;
    ctx.block_bytes = 64;
    ctx.capacity_bytes_per_s = 2e4;
    ctx.cbr_bytes_per_s = 1e4;
    ctx.sim_seconds = 60.0;
    const int run = recorder.begin_run(ctx, {&graph});
    RunSink sink(&recorder, run);
    protocols::OmncProtocol protocol(topo, graph, pin_config(42),
                                     protocols::OmncConfig{});
    protocol.set_trace_sink(sink.sink_or_null());
    live = protocol.run();
    live_edges = protocol.edge_innovative_deliveries();
    recorder.end_run(run, {live}, {live_edges});
  }

  Trace trace;
  std::string error;
  ASSERT_TRUE(read_trace(path, &trace, &error)) << error;
  ASSERT_EQ(trace.runs.size(), 1u);
  const RecordedRun& run = trace.runs.front();

  // Detail families were enabled by the attached sink.
  bool saw_contention = false;
  for (const auto& event : run.events) {
    if (event.type == protocols::MetricEvent::Type::kMacContention) {
      saw_contention = true;
      break;
    }
  }
  EXPECT_TRUE(saw_contention);

  // Replay through fresh sinks: every statistic is bit-identical.
  const ReplayedRun replay = replay_run(run);
  ASSERT_EQ(replay.sessions.size(), 1u);
  const protocols::SessionResult& replayed = replay.sessions[0].result;
  EXPECT_EQ(replayed.throughput_bytes_per_s, live.throughput_bytes_per_s);
  EXPECT_EQ(replayed.throughput_per_generation,
            live.throughput_per_generation);
  EXPECT_EQ(replayed.generations_completed, live.generations_completed);
  EXPECT_EQ(replayed.mean_queue, live.mean_queue);
  EXPECT_EQ(replayed.node_utility_ratio, live.node_utility_ratio);
  EXPECT_EQ(replayed.path_utility_ratio, live.path_utility_ratio);
  EXPECT_EQ(replayed.transmissions, live.transmissions);
  EXPECT_EQ(replayed.packets_delivered, live.packets_delivered);
  EXPECT_EQ(replayed.queue_drops, live.queue_drops);
  EXPECT_EQ(replay.sessions[0].edge_deliveries, live_edges);
  EXPECT_EQ(replay.sessions[0].ack_latencies.size(),
            static_cast<std::size_t>(live.generations_completed));

  // And the bundled verifier agrees.
  const VerifyReport report = verify_trace(trace);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty()
                                 ? ""
                                 : report.mismatches.front());
  EXPECT_GT(report.comparisons, 0u);
  std::remove(path.c_str());
}

TEST(TraceReplay, TamperedResultFailsVerification) {
  const net::Topology topo = diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  const std::string path = temp_trace_path("tampered.jsonl");
  {
    TraceRecorder recorder(path, "test_obs", "diamond", 42);
    RunContext ctx;
    ctx.protocol = "omnc";
    ctx.topology_nodes = topo.node_count();
    ctx.generation_blocks = 8;
    ctx.block_bytes = 64;
    const int run = recorder.begin_run(ctx, {&graph});
    RunSink sink(&recorder, run);
    protocols::OmncProtocol protocol(topo, graph, pin_config(42),
                                     protocols::OmncConfig{});
    protocol.set_trace_sink(sink.sink_or_null());
    protocols::SessionResult live = protocol.run();
    live.transmissions += 1;  // corrupt the ground truth
    recorder.end_run(run, {live}, {protocol.edge_innovative_deliveries()});
  }
  Trace trace;
  std::string error;
  ASSERT_TRUE(read_trace(path, &trace, &error)) << error;
  const VerifyReport report = verify_trace(trace);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.mismatches.empty());
  std::remove(path.c_str());
}

TEST(TraceReplay, ResultOnlyRunsVerifyVacuously) {
  // The uncoded ETX baseline records results without an event stream (it has
  // no engine, hence no bus); rate-control-only runs record opt_iter series.
  const std::string path = temp_trace_path("result_only.jsonl");
  {
    TraceRecorder recorder(path, "test_obs", "etx", 1);
    RunContext ctx;
    ctx.protocol = "etx";
    const int run = recorder.begin_run(ctx, {});
    protocols::SessionResult result;
    result.connected = true;
    result.throughput_bytes_per_s = 1000.0;
    recorder.end_run(run, {result}, {});

    ctx.protocol = "rate_control";
    const int rc = recorder.begin_run(ctx, {});
    recorder.record_opt_iteration(rc, 0, 10.0, {1.0});
    recorder.record_opt_iteration(rc, 1, 20.0, {2.0});
    protocols::SessionResult diag;
    diag.rc_iterations = 2;
    diag.predicted_gamma = 20.0;
    recorder.end_run(rc, {diag}, {});
  }
  Trace trace;
  std::string error;
  ASSERT_TRUE(read_trace(path, &trace, &error)) << error;
  ASSERT_EQ(trace.runs.size(), 2u);
  const VerifyReport report = verify_trace(trace);
  EXPECT_TRUE(report.ok) << (report.mismatches.empty()
                                 ? ""
                                 : report.mismatches.front());
  std::remove(path.c_str());
}

TEST(TraceReplay, RateControlDiagnosticsMismatchIsCaught) {
  const std::string path = temp_trace_path("rc_mismatch.jsonl");
  {
    TraceRecorder recorder(path, "test_obs", "rc", 1);
    RunContext ctx;
    ctx.protocol = "rate_control";
    const int rc = recorder.begin_run(ctx, {});
    recorder.record_opt_iteration(rc, 0, 10.0, {1.0});
    protocols::SessionResult diag;
    diag.rc_iterations = 5;         // disagrees with the 1 recorded iterate
    diag.predicted_gamma = 10.0;
    recorder.end_run(rc, {diag}, {});
  }
  Trace trace;
  std::string error;
  ASSERT_TRUE(read_trace(path, &trace, &error)) << error;
  EXPECT_FALSE(verify_trace(trace).ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace omnc::obs
