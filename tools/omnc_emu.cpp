// Drift-substitute emulation driver: one or more OMNC sessions, real
// threads, real serialized frames, pluggable transport.
//
// Usage: omnc_emu [--transport loopback|udp] [--topology diamond|chain]
//                 [--hops N] [--link-p P] [--generations N] [--gen-blocks N]
//                 [--block-bytes B] [--capacity C] [--cbr R] [--seed S]
//                 [--sessions N] [--shards K]
//                 [--code-family dense|systematic|banded[:W]] [--band-width W]
//                 [--auto-tune] [--tune-target P]
//                 [--clock real|warp|det] [--speedup X]
//                 [--timeout S] [--virtual-timeout S] [--probe-window S]
//                 [--oracle-rates] [--cross-check] [--tol-lo R] [--tol-hi R]
//                 [--fault-plan SPEC] [--json PATH] [--trace PATH] [--metrics]
//                 [--health-json PATH] [--health-interval S]
//
//   --transport     loopback: in-memory channel, per-link Bernoulli loss
//                   from the session graph's reception probabilities;
//                   udp: one non-blocking UDP socket per node on 127.0.0.1
//                   (ephemeral ports), lossless in practice    (loopback)
//   --topology      diamond: the paper's Fig. 2 four-node relay diamond;
//                   chain: a (--hops)-link line with --link-p   (diamond)
//   --hops          chain links, in [1, 1024]                        (3)
//   --link-p        chain link reception probability, in (0, 1]     (0.8)
//   --generations   generations the source must deliver, >= 1        (8)
//   --gen-blocks    blocks per generation, in [1, 65535]               (8)
//   --block-bytes   bytes per block, in [1, 65535]                    (64)
//   --capacity      MAC capacity C in bytes/s, > 0                   (2e4)
//   --cbr           source rate in bytes/s, > 0                      (1e4)
//   --sessions      concurrent unicast sessions multiplexed over ONE
//                   shared transport (SessionMux, DESIGN.md §16):
//                   session s runs wire session id 1+s with seeds
//                   --seed + s                                         (1)
//   --shards        shards under real/warp clocks, in [1, 1024], at any
//                   session count; each owns the node indices congruent to
//                   its shard id (the socket is the serialization domain).
//                   One runs on the main thread, K > 1 on K threads; det
//                   always runs one       (loopback: 1; udp: hardware threads)
//   --code-family   code family every node runs (DESIGN.md §15):
//                   dense | systematic | banded[:W].  Defaults to the
//                   OMNC_CODE_FAMILY environment variable, then dense;
//                   non-dense emissions ride compact coefficient frames
//   --band-width    banded window width override in [0, 65535]
//                   (0 = auto, n/4)
//   --auto-tune     finite-length tuner: picks the generation size
//                   (powers of two within [8, --gen-blocks]) and the source
//                   redundancy from the session graph's mean link loss,
//                   overriding --gen-blocks (codes/tuner.h)
//   --tune-target   decode-probability target for --auto-tune, in
//                   (0, 1)                                          (0.99)
//   --clock         how virtual time advances (DESIGN.md §12):
//                   real: wall time x speedup; warp: as fast as the
//                   shards can step (at one shard, the det run); det:
//                   deterministic stepping (exact seed replay)    (real)
//   --speedup       virtual seconds per wall second (real clock), > 0;
//                   also sets the virtual node-step cadence everywhere (20)
//   --timeout       wall-clock budget in seconds (real clock), > 0  (60)
//   --virtual-timeout  virtual-seconds budget, all clocks, >= 0
//                      (0 = timeout x speedup)                      (0)
//   --probe-window  virtual seconds of link probing before the data
//                   phase, >= 0; estimates are reported and traced (0 = off)
//   --oracle-rates  install rate-control rates directly on every node
//                   instead of flooding them in-band as PriceUpdate frames
//   --cross-check   run the slot simulator on the same topology and require
//                   every session's emu/sim goodput within [--tol-lo,
//                   --tol-hi].  Under --clock det the tolerance gate is
//                   replaced by an exact replay assertion: a second
//                   deterministic run on a fresh transport must reproduce
//                   the whole result field for field (the sim ratio is
//                   still printed for reference)
//   --fault-plan    wrap the transport in a deterministic FaultTransport;
//                   SPEC is a preset name (burst|jitter|partition|blackout|
//                   chaos) or a directive string, see FaultPlan::parse.
//                   A spec without `seed=` inherits --seed.  Fault decisions
//                   appear in the trace (`trace_inspect --faults`)
//   --json          write flat result records (bench JSON schema)
//   --trace         record a JSONL trace (schema v3): metric events, packet
//                   lifecycle spans, and latency histograms.  Inspect with
//                   `trace_inspect --transport / --timeline / --histograms`
//   --health-json   periodically write a live health document (counters,
//                   latency histograms, anomalies, flight recorder) to PATH
//                   via atomic tmp+rename, once per snapshot interval and
//                   once at run end
//   --health-interval  snapshot cadence in virtual seconds, > 0 (also the
//                   anomaly evaluation cadence); prints a one-line health
//                   summary to stderr at every snapshot             (1)
//
// Exit status: 0 when every session's destination decoded every generation
// with the correct bytes (and the cross-check, if requested, passed); 2 when
// a flag is unknown or out of range, before anything runs.  A flag the run
// never read (a typo, or one this mode ignores) draws a warning on stderr.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "codes/code_spec.h"
#include "codes/tuner.h"
#include "common/options.h"
#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "emu/udp_transport.h"
#include "net/topology.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "protocols/omnc.h"
#include "routing/node_selection.h"

using namespace omnc;

namespace {

[[noreturn]] void reject(const char* name, const char* range,
                         const std::string& value) {
  std::fprintf(stderr, "--%s must be %s (got %s)\n", name, range,
               value.c_str());
  std::exit(2);
}

/// A whole-number flag in [lo, hi]; `range` says so in the rejection.
long int_flag(const Options& options, const char* name, long fallback,
              long lo, long hi, const char* range) {
  if (!options.has(name)) return fallback;
  const std::string text = options.get(name, "");
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    reject(name, range, text);
  }
  return value;
}

/// A finite real flag that `in_range` accepts; `range` says what that is
/// in the rejection.
double real_flag(const Options& options, const char* name, double fallback,
                 const char* range, bool (*in_range)(double)) {
  if (!options.has(name)) return fallback;
  const std::string text = options.get(name, "");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) ||
      !in_range(value)) {
    reject(name, range, text);
  }
  return value;
}

double positive_flag(const Options& options, const char* name,
                     double fallback) {
  return real_flag(options, name, fallback, "> 0",
                   [](double value) { return value > 0.0; });
}

double nonnegative_flag(const Options& options, const char* name,
                        double fallback) {
  return real_flag(options, name, fallback, ">= 0",
                   [](double value) { return value >= 0.0; });
}

net::Topology make_topology(const std::string& name, const Options& options) {
  if (name == "diamond") {
    // The Fig. 2 diamond: source 0, relays 1/2, destination 3.
    std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
    p[0][1] = p[1][0] = 0.8;
    p[0][2] = p[2][0] = 0.6;
    p[1][3] = p[3][1] = 0.7;
    p[2][3] = p[3][2] = 0.9;
    return net::Topology::from_link_matrix(p);
  }
  if (name == "chain") {
    // The link matrix below is dense, so its size grows with the square
    // of the hop count: 1024 hops already take 8 MB.
    const int n = static_cast<int>(
        int_flag(options, "hops", 3, 1, 1024, "in [1, 1024]")) + 1;
    const double link_p =
        real_flag(options, "link-p", 0.8, "in (0, 1]",
                  [](double value) { return value > 0.0 && value <= 1.0; });
    std::vector<std::vector<double>> p(static_cast<std::size_t>(n),
                                       std::vector<double>(n, 0.0));
    for (int i = 0; i + 1 < n; ++i) {
      p[static_cast<std::size_t>(i)][static_cast<std::size_t>(i) + 1] = link_p;
      p[static_cast<std::size_t>(i) + 1][static_cast<std::size_t>(i)] = link_p;
    }
    return net::Topology::from_link_matrix(p);
  }
  std::fprintf(stderr, "unknown --topology %s (diamond|chain)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);

  const std::string transport_name = options.get("transport", "loopback");
  const std::string topology_name = options.get("topology", "diamond");
  const std::uint64_t seed = options.get_seed("seed", 1);

  emu::MuxConfig mux_config;
  emu::EmuConfig& config = mux_config.emu;
  config.node.coding.generation_blocks = static_cast<std::uint16_t>(
      int_flag(options, "gen-blocks", 8, 1, 65535, "in [1, 65535]"));
  config.node.coding.block_bytes = static_cast<std::uint16_t>(
      int_flag(options, "block-bytes", 64, 1, 65535, "in [1, 65535]"));
  config.node.session_id = 1;
  config.node.data_seed = seed;
  config.node.rng_seed = seed;
  config.node.cbr_bytes_per_s = positive_flag(options, "cbr", 1e4);
  config.node.max_generations = static_cast<int>(
      int_flag(options, "generations", 8, 1, std::numeric_limits<int>::max(),
               ">= 1"));
  codes::CodeSpec code_spec = codes::CodeSpec::from_env();
  const std::string family_arg = options.get("code-family", "");
  if (!family_arg.empty() && !codes::CodeSpec::parse(family_arg, &code_spec)) {
    std::fprintf(stderr,
                 "unknown --code-family %s (dense|systematic|banded[:W])\n",
                 family_arg.c_str());
    return 2;
  }
  if (options.has("band-width")) {
    if (code_spec.family != codes::CodeFamily::kBanded) {
      std::fprintf(stderr, "--band-width requires --code-family banded\n");
      return 2;
    }
    code_spec.band_width = static_cast<std::uint16_t>(
        int_flag(options, "band-width", 0, 0, 65535, "in [0, 65535]"));
  }
  config.node.code = code_spec;
  config.node.probe_window_s = nonnegative_flag(options, "probe-window", 0.0);
  const std::string clock_name = options.get("clock", "real");
  if (!vtime::parse_clock_mode(clock_name, &config.clock_mode)) {
    std::fprintf(stderr, "unknown --clock %s (real|warp|det)\n",
                 clock_name.c_str());
    return 2;
  }
  config.speedup = positive_flag(options, "speedup", 20.0);
  config.wall_timeout_s = positive_flag(options, "timeout", 60.0);
  config.virtual_timeout_s =
      nonnegative_flag(options, "virtual-timeout", 0.0);
  const double capacity = positive_flag(options, "capacity", 2e4);
  const int sessions = static_cast<int>(int_flag(
      options, "sessions", 1, 1, std::numeric_limits<int>::max(), ">= 1"));
  mux_config.sessions = sessions;
  // UDP pays a syscall per frame sent and per socket drained, and one thread
  // cannot keep a larger UDP topology on its real-time ticks (a 7-node
  // chain with 8 sessions loses 40-50% of its goodput at one shard), so
  // UDP runs default to a shard per hardware thread; loopback runs to one.
  const long default_shards =
      transport_name == "udp"
          ? std::clamp<long>(std::thread::hardware_concurrency(), 1, 1024)
          : 1;
  mux_config.shards = static_cast<int>(int_flag(
      options, "shards", default_shards, 1, 1024, "in [1, 1024]"));

  const net::Topology topo = make_topology(topology_name, options);
  const net::NodeId destination = static_cast<net::NodeId>(topo.node_count() - 1);
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, destination);
  if (graph.size() == 0) {
    std::fprintf(stderr, "topology is not connected\n");
    return 2;
  }

  // Finite-length auto-tune: the measured loss is the session graph's mean
  // link loss (each forwarding hop faces one of these links), the tuner
  // picks the most air-efficient generation size meeting the decode target
  // and its send count becomes the source's redundancy multiplier.
  const bool auto_tune = options.get_bool("auto-tune", false);
  codes::TunerChoice tuned;
  if (auto_tune) {
    double loss_sum = 0.0;
    for (const auto& edge : graph.edges) loss_sum += 1.0 - edge.p;
    const double loss =
        graph.edges.empty() ? 0.0 : loss_sum / static_cast<double>(graph.edges.size());
    const double target =
        real_flag(options, "tune-target", 0.99, "in (0, 1)",
                  [](double value) { return value > 0.0 && value < 1.0; });
    tuned = codes::tune_generation(
        loss, target, 8,
        config.node.coding.generation_blocks,
        config.node.coding.block_bytes);
    config.node.coding.generation_blocks =
        static_cast<std::uint16_t>(tuned.generation_blocks);
    config.node.source_redundancy = tuned.redundancy;
    std::printf("# auto-tune: mean link loss %.3f -> g=%d, send %d "
                "(redundancy %.2f, P[decode]=%.4f, efficiency %.3f)\n",
                loss, tuned.generation_blocks, tuned.send_count,
                tuned.redundancy, tuned.success_prob, tuned.efficiency);
  }

  // The same preparation OmncProtocol::prepare runs: distributed rate
  // control, then rescale the recovered broadcast rates to MAC feasibility.
  opt::RateControlParams rc_params;
  rc_params.capacity = capacity;
  opt::DistributedRateControl rate_control(graph, rc_params);
  const opt::RateControlResult rc = rate_control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, capacity);

  // Optional fault injection: the decorator wraps whichever backend was
  // chosen, so burst loss and partitions apply identically over loopback
  // and UDP.  A spec without an explicit seed inherits the run seed, so
  // sweeps over --seed exercise distinct fault realizations by default.
  const std::string fault_spec = options.get("fault-plan", "");
  emu::FaultPlan fault_plan;
  bool have_fault_plan = false;
  if (!fault_spec.empty()) {
    std::string error;
    if (!emu::FaultPlan::parse(fault_spec, &fault_plan, &error)) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", error.c_str());
      return 2;
    }
    if (fault_spec.find("seed=") == std::string::npos) fault_plan.seed = seed;
    have_fault_plan = true;
  }

  // The whole transport stack comes from a factory so the deterministic
  // replay cross-check can build a pristine second copy.  The base
  // transport must stay alive underneath the decorator.
  struct TransportBundle {
    std::unique_ptr<emu::Transport> base;
    std::unique_ptr<emu::FaultTransport> fault;
    emu::Transport* transport = nullptr;
  };
  auto make_transport = [&]() {
    TransportBundle bundle;
    if (transport_name == "loopback") {
      emu::LoopbackConfig loopback;
      loopback.seed = seed;
      bundle.base = std::make_unique<emu::LoopbackTransport>(
          graph.size(), emu::link_matrix_from_topology(topo, graph), loopback);
    } else if (transport_name == "udp") {
      bundle.base = std::make_unique<emu::UdpTransport>(graph.size());
    } else {
      std::fprintf(stderr, "unknown --transport %s (loopback|udp)\n",
                   transport_name.c_str());
      std::exit(2);
    }
    if (have_fault_plan) {
      bundle.fault =
          std::make_unique<emu::FaultTransport>(*bundle.base, fault_plan);
      bundle.transport = bundle.fault.get();
    } else {
      bundle.transport = bundle.base.get();
    }
    return bundle;
  };
  TransportBundle bundle = make_transport();

  // The code-family suffix appears only for non-dense runs, so every dense
  // record key (and with it the pre-family baselines) stays byte-identical.
  std::string family_suffix;
  if (!code_spec.is_dense()) {
    family_suffix = ";code_family=" + code_spec.selector();
  }
  if (auto_tune) family_suffix += ";auto_tune=1";
  // Multi-session runs append their dimensions so their records never
  // collide with the single-session baselines (which stay byte-identical).
  // Shards appear only when passed, so the committed baselines, taken at
  // the default, keep matching.
  std::string mux_suffix;
  if (sessions > 1) {
    mux_suffix = ";sessions=" + std::to_string(sessions);
    if (options.has("shards")) {
      mux_suffix += ";shards=" + std::to_string(mux_config.shards);
    }
  }
  char params[448];
  std::snprintf(params, sizeof(params),
                "transport=%s;topology=%s;generations=%d;gen_blocks=%u;"
                "block_bytes=%u;seed=%llu%s%s%s%s",
                transport_name.c_str(), topology_name.c_str(),
                config.node.max_generations,
                config.node.coding.generation_blocks,
                config.node.coding.block_bytes,
                static_cast<unsigned long long>(seed),
                fault_spec.empty() ? "" : ";fault_plan=",
                fault_spec.c_str(), family_suffix.c_str(),
                mux_suffix.c_str());
  bench::ObsSetup obs = bench::parse_obs(options, "omnc_emu", params, seed);
  bench::JsonWriter json(options);

  // The health plane rides the same serialized sinks as the recorder: the
  // monitor is fed whenever tracing (its histograms land in the trace at run
  // end) or when either --health flag asks for live output.
  const std::string health_path = options.get("health-json", "");
  const bool health_stderr = options.has("health-interval");
  const bool want_health =
      !health_path.empty() || health_stderr || obs.recorder != nullptr;
  obs::HealthConfig health_config;
  health_config.snapshot_interval_s = positive_flag(
      options, "health-interval", health_config.snapshot_interval_s);
  obs::HealthMonitor health(health_config);
  if (!health_path.empty() || health_stderr) {
    health.set_snapshot_callback([&](const obs::HealthMonitor& h) {
      if (health_stderr) std::fprintf(stderr, "%s\n", h.one_liner().c_str());
      if (!health_path.empty()) h.write_json(health_path);
    });
  }

  int run_id = -1;
  std::unique_ptr<obs::RunSink> run_sink;
  if (obs.recorder != nullptr) {
    obs::RunContext context;
    context.protocol = "omnc-emu";
    context.seed = seed;
    context.topology_nodes = topo.node_count();
    context.generation_blocks = config.node.coding.generation_blocks;
    context.block_bytes = config.node.coding.block_bytes;
    context.capacity_bytes_per_s = capacity;
    context.cbr_bytes_per_s = config.node.cbr_bytes_per_s;
    context.sim_seconds = config.horizon_s();
    if (!code_spec.is_dense()) context.code_family = code_spec.selector();
    run_id = obs.recorder->begin_run(context, {&graph});
    run_sink = std::make_unique<obs::RunSink>(obs.recorder.get(), run_id);
    // No end_run record on purpose: the emulation result is not a
    // SessionResult the replay sinks could reconstruct, so the run stays a
    // pure event stream (trace_inspect --verify treats it as vacuous).
  }
  const bool oracle_rates = options.get_bool("oracle-rates", false);
  auto metric_sink = [&](const protocols::MetricEvent& event) {
    if (run_sink != nullptr) run_sink->on_event(event);
    if (want_health) health.on_metric(event);
  };
  auto span_sink = [&](const obs::SpanEvent& event) {
    if (obs.recorder != nullptr) obs.recorder->record_span(run_id, event);
    if (want_health) health.on_span(event);
  };

  // Every run, whatever its session count, is one SessionMux over the shared
  // transport (DESIGN.md §16).  The factory serves the live run and the
  // deterministic replay alike.
  auto make_mux = [&](emu::Transport& transport) {
    auto mux = std::make_unique<emu::SessionMux>(graph, transport, mux_config);
    if (oracle_rates) {
      mux->install_rates(rates);
    } else {
      mux->install_price_table(rates, rc.lambda, rc.beta, rc.iterations);
    }
    return mux;
  };
  const std::unique_ptr<emu::SessionMux> mux = make_mux(*bundle.transport);
  if (run_sink != nullptr || want_health) {
    mux->set_metric_sink(metric_sink);
    mux->set_span_sink(span_sink);
  }

  std::printf("# omnc_emu: %d session%s over %s, %s, %d nodes, %d generations "
              "of %u x %u B each, clock %s, speedup %.0fx, seed %llu\n",
              sessions, sessions == 1 ? "" : "s", transport_name.c_str(),
              topology_name.c_str(), graph.size(),
              config.node.max_generations,
              config.node.coding.generation_blocks,
              config.node.coding.block_bytes,
              vtime::clock_mode_name(config.clock_mode), config.speedup,
              static_cast<unsigned long long>(seed));
  if (!code_spec.is_dense()) {
    std::printf("# code family: %s\n",
                code_spec.clamped_for(config.node.coding).selector().c_str());
  }
  if (bundle.fault != nullptr) {
    std::printf("# fault plan: %s\n",
                bundle.fault->plan().describe().c_str());
  }
  const emu::MuxRunResult result = mux->run();

  // Aggregates over sessions; with one session each is that session's own
  // value, bit for bit.
  auto total = [&](std::size_t emu::EmuRunResult::*counter) {
    std::size_t sum = 0;
    for (const emu::EmuRunResult& session : result.sessions) {
      sum += session.*counter;
    }
    return sum;
  };
  int gens_total = 0;
  int sessions_completed = 0;
  double goodput_sum = 0.0;
  double latency_sum = 0.0;
  for (const emu::EmuRunResult& session : result.sessions) {
    gens_total += session.generations_completed;
    if (session.completed) ++sessions_completed;
    goodput_sum += session.goodput_bytes_per_s;
    latency_sum += session.mean_ack_latency;
  }
  const auto [slowest, fastest] = std::minmax_element(
      result.sessions.begin(), result.sessions.end(),
      [](const emu::EmuRunResult& a, const emu::EmuRunResult& b) {
        return a.goodput_bytes_per_s < b.goodput_bytes_per_s;
      });
  const double count = static_cast<double>(result.sessions.size());
  const double goodput_mean = goodput_sum / count;
  const double latency_mean = latency_sum / count;
  const std::size_t parse_errors = total(&emu::EmuRunResult::parse_errors);
  const std::size_t stall_boosts = total(&emu::EmuRunResult::stall_boosts);
  const std::size_t ack_keepalives = total(&emu::EmuRunResult::ack_keepalives);
  const std::size_t resync_requests =
      total(&emu::EmuRunResult::resync_requests);
  const std::size_t resync_replies = total(&emu::EmuRunResult::resync_replies);
  const std::size_t price_decays = total(&emu::EmuRunResult::price_decays);

  std::printf("completed: %s (%d/%d sessions)  decoded data: %s\n",
              result.completed ? "yes" : "NO (timeout)", sessions_completed,
              sessions, result.data_ok ? "ok" : "MISMATCH");
  std::printf("generations: %d total  session goodput min/mean/max: "
              "%.1f / %.1f / %.1f B/s  mean latency %.3f s\n",
              gens_total, slowest->goodput_bytes_per_s, goodput_mean,
              fastest->goodput_bytes_per_s, latency_mean);
  auto print_session = [&](const char* label, std::size_t s) {
    const emu::EmuRunResult& session = result.sessions[s];
    std::printf("  %s %u: %d gens, %.1f B/s, last ACK %.3f s, "
                "mean latency %.3f s%s%s\n",
                label, mux->session_id_of(static_cast<int>(s)),
                session.generations_completed, session.goodput_bytes_per_s,
                session.last_ack_time, session.mean_ack_latency,
                session.completed ? "" : " [INCOMPLETE]",
                session.data_ok ? "" : " [DATA MISMATCH]");
  };
  // Per-session lines stay readable for sweeps; big soaks get the laggard.
  if (sessions <= 16) {
    for (std::size_t s = 0; s < result.sessions.size(); ++s) {
      print_session("session", s);
    }
  } else {
    print_session("slowest session",
                  static_cast<std::size_t>(slowest - result.sessions.begin()));
  }
  std::printf("transport: %zu broadcasts (%zu bytes), %zu delivered, "
              "%zu dropped, %zu parse errors, %zu EINTR retries\n",
              result.transport.frames_sent, result.transport.bytes_sent,
              result.transport.copies_delivered,
              result.transport.copies_dropped, parse_errors,
              result.transport.eintr_retries);
  if (result.demux_unroutable + result.demux_session_mismatch +
          result.demux_unknown_session >
      0) {
    std::printf("demux rejections: %zu unroutable, %zu session mismatch, "
                "%zu unknown session\n",
                result.demux_unroutable, result.demux_session_mismatch,
                result.demux_unknown_session);
  }
  if (bundle.fault != nullptr) {
    const emu::FaultStats faults = bundle.fault->fault_stats();
    std::printf("faults: %zu lost, %zu duplicated, %zu reordered, "
                "%zu partition drops, %zu blackout rx drops, "
                "%zu blackout tx suppressed\n",
                faults.lost, faults.duplicated, faults.reordered,
                faults.partition_drops, faults.blackout_rx_drops,
                faults.blackout_tx_suppressed);
  }
  if (stall_boosts + ack_keepalives + resync_requests + resync_replies +
          price_decays >
      0) {
    std::printf("recovery: %zu stall boosts, %zu ACK keepalives, "
                "%zu resync requests, %zu resync replies, %zu price decays\n",
                stall_boosts, ack_keepalives, resync_requests, resync_replies,
                price_decays);
  }

  if (want_health) {
    // Final snapshot: the run may end mid-interval, so flush the closing
    // state to the same outputs the periodic callback used.
    if (health_stderr) {
      std::fprintf(stderr, "%s\n", health.one_liner().c_str());
    }
    if (!health_path.empty() && !health.write_json(health_path)) {
      std::fprintf(stderr, "cannot write --health-json %s\n",
                   health_path.c_str());
    }
    std::printf("health: hop delay p50 %.6f s p99 %.6f s (%llu hops), "
                "decode p50 %.3f s, %zu anomalies, %zu sessions tracked\n",
                health.hop_delay().quantile(50.0),
                health.hop_delay().quantile(99.0),
                static_cast<unsigned long long>(health.hop_delay().count()),
                health.decode_latency().quantile(50.0),
                health.anomalies().size(), health.sessions().size());
    for (const obs::HealthAnomaly& anomaly : health.anomalies()) {
      std::printf("  anomaly t=%.3f %s: %s\n", anomaly.time,
                  anomaly.kind.c_str(), anomaly.detail.c_str());
    }
  }
  if (obs.recorder != nullptr) {
    obs.recorder->record_histogram(run_id, "hop_delay", health.hop_delay());
    obs.recorder->record_histogram(run_id, "decode_latency",
                                   health.decode_latency());
    obs.recorder->record_histogram(run_id, "stall_wait", health.stall_wait());
  }

  // Link-probe estimates vs the topology's true probabilities.
  if (config.node.probe_window_s > 0.0) {
    double abs_error = 0.0;
    int probed = 0;
    for (std::size_t s = 0; s < result.sessions.size(); ++s) {
      for (std::size_t e = 0; e < graph.edges.size(); ++e) {
        const auto& edge = graph.edges[e];
        for (const wire::ProbeReport& report :
             result.sessions[s].probe_reports) {
          if (report.reporter_local != edge.to ||
              report.probed_local != edge.from) {
            continue;
          }
          abs_error += std::abs(report.estimate() - edge.p);
          ++probed;
          if (obs.recorder != nullptr) {
            obs.recorder->record_probe(static_cast<int>(s),
                                       static_cast<int>(e), edge.from,
                                       edge.to, edge.p, report.estimate());
          }
          break;
        }
      }
    }
    if (probed > 0) {
      std::printf("probe: mean |p_hat - p| over %d links: %.3f\n", probed,
                  abs_error / probed);
    }
  }

  auto record = [&](const std::string& metric, double value) {
    json.record("omnc_emu", params, metric, value);
  };
  // The single-session record names predate the mux and the committed
  // baselines (BENCH_emu_goodput, BENCH_8, BENCH_9) gate them; multi-session
  // records carry the per-session spread BENCH_10 gates instead.
  if (sessions == 1) {
    const emu::EmuRunResult& session = result.sessions.front();
    record("goodput_bytes_per_s", session.goodput_bytes_per_s);
    record("generations_completed", session.generations_completed);
    record("last_ack_time_s", session.last_ack_time);
  } else {
    record("mux_sessions", sessions);
    record("generations_total", gens_total);
    record("session_goodput_min_bytes_per_s", slowest->goodput_bytes_per_s);
    record("session_goodput_mean_bytes_per_s", goodput_mean);
    record("session_goodput_max_bytes_per_s", fastest->goodput_bytes_per_s);
  }
  record("mean_ack_latency_s", latency_mean);
  record("completed", result.completed ? 1.0 : 0.0);
  record("data_ok", result.data_ok ? 1.0 : 0.0);
  record("frames_sent", static_cast<double>(result.transport.frames_sent));
  record("copies_delivered",
         static_cast<double>(result.transport.copies_delivered));
  record("copies_dropped",
         static_cast<double>(result.transport.copies_dropped));
  record("parse_errors", static_cast<double>(parse_errors));
  record("demux_unroutable", static_cast<double>(result.demux_unroutable));
  record("demux_session_mismatch",
         static_cast<double>(result.demux_session_mismatch));
  record("demux_unknown_session",
         static_cast<double>(result.demux_unknown_session));
  if (sessions > 1 && sessions <= 16) {
    for (std::size_t s = 0; s < result.sessions.size(); ++s) {
      record("session" +
                 std::to_string(mux->session_id_of(static_cast<int>(s))) +
                 "_goodput_bytes_per_s",
             result.sessions[s].goodput_bytes_per_s);
    }
  }
  if (auto_tune) {
    record("tuned_gen_blocks", static_cast<double>(tuned.generation_blocks));
    record("tuned_send_count", static_cast<double>(tuned.send_count));
    record("tuned_redundancy", tuned.redundancy);
    record("tuned_success_prob", tuned.success_prob);
  }
  if (want_health) {
    // Histogram-derived metrics are deterministic under --clock det (bucket
    // floors, exact counts), so bench_compare can gate them like any other.
    record("hop_delay_p50_s", health.hop_delay().quantile(50.0));
    record("hop_delay_p99_s", health.hop_delay().quantile(99.0));
    record("decode_latency_p50_s", health.decode_latency().quantile(50.0));
    record("health_anomalies",
           static_cast<double>(health.anomalies().size()));
  }
  if (bundle.fault != nullptr) {
    const emu::FaultStats faults = bundle.fault->fault_stats();
    record("fault_lost", static_cast<double>(faults.lost));
    record("fault_duplicated", static_cast<double>(faults.duplicated));
    record("fault_reordered", static_cast<double>(faults.reordered));
    record("fault_partition_drops",
           static_cast<double>(faults.partition_drops));
    record("fault_blackout_drops",
           static_cast<double>(faults.blackout_rx_drops +
                               faults.blackout_tx_suppressed));
    record("stall_boosts", static_cast<double>(stall_boosts));
    record("ack_keepalives", static_cast<double>(ack_keepalives));
    record("resync_requests", static_cast<double>(resync_requests));
    record("price_decays", static_cast<double>(price_decays));
  }

  bool ok = result.completed && result.data_ok;

  if (options.get_bool("cross-check", false)) {
    // Same topology, same coding geometry, fading off for comparability.
    // Every session is an independent unicast of the same shape, so each is
    // held against the one slot-simulator run.
    protocols::ProtocolConfig sim_config;
    sim_config.coding = config.node.coding;
    sim_config.mac.capacity_bytes_per_s = capacity;
    sim_config.mac.slot_bytes = coding::CodedPacket::kHeaderBytes +
                                config.node.coding.generation_blocks +
                                config.node.coding.block_bytes;
    sim_config.mac.fading.enabled = false;
    sim_config.cbr_bytes_per_s = config.node.cbr_bytes_per_s;
    sim_config.max_generations = config.node.max_generations;
    sim_config.max_sim_seconds = 600.0;
    sim_config.seed = seed;
    protocols::OmncProtocol sim(topo, graph, sim_config, protocols::OmncConfig{});
    const protocols::SessionResult sim_result = sim.run();
    const double sim_goodput = sim_result.throughput_bytes_per_s;
    const auto ratio_of = [&](double goodput) {
      return sim_goodput > 0.0 ? goodput / sim_goodput : 0.0;
    };
    const double ratio = ratio_of(goodput_mean);
    record("sim_goodput_bytes_per_s", sim_goodput);
    record("goodput_ratio", ratio);
    std::printf("cross-check: sim goodput %.1f B/s (%d gens), mean emu/sim "
                "ratio %.3f",
                sim_goodput, sim_result.generations_completed, ratio);

    if (config.clock_mode == vtime::ClockMode::kDeterministic) {
      // Deterministic runs owe more than a tolerance band: a second run on
      // a pristine transport stack must reproduce the first field for field.
      // The sim ratio stays informational (the slot MAC and the emulated
      // channel are different processes; equality there is not expected).
      TransportBundle replay_bundle = make_transport();
      const emu::MuxRunResult second =
          make_mux(*replay_bundle.transport)->run();
      const bool exact = second == result;
      std::printf(" (informational); deterministic replay %s\n",
                  exact ? "EXACT" : "DIVERGED");
      if (!exact) {
        std::printf("replay divergence: frames %zu vs %zu\n",
                    result.transport.frames_sent,
                    second.transport.frames_sent);
        for (std::size_t s = 0; s < result.sessions.size(); ++s) {
          const emu::EmuRunResult& a = result.sessions[s];
          const emu::EmuRunResult& b = second.sessions[s];
          if (a == b) continue;
          std::printf("  session %u: goodput %.17g vs %.17g, gens %d vs %d\n",
                      mux->session_id_of(static_cast<int>(s)),
                      a.goodput_bytes_per_s, b.goodput_bytes_per_s,
                      a.generations_completed, b.generations_completed);
        }
      }
      record("replay_exact", exact ? 1.0 : 0.0);
      ok = ok && exact;
    } else {
      const double tol_lo = options.get_double("tol-lo", 0.2);
      const double tol_hi = options.get_double("tol-hi", 3.5);
      int within = 0;
      for (const emu::EmuRunResult& session : result.sessions) {
        const double session_ratio = ratio_of(session.goodput_bytes_per_s);
        if (session_ratio >= tol_lo && session_ratio <= tol_hi) ++within;
      }
      const bool all_within = within == sessions;
      std::printf(", %d/%d sessions inside [%.2f, %.2f] — %s\n", within,
                  sessions, tol_lo, tol_hi,
                  all_within ? "ok" : "OUT OF TOLERANCE");
      record("sessions_within_tolerance", static_cast<double>(within));
      ok = ok && all_within;
    }
  }

  bench::finish_obs(obs);
  for (const std::string& name : options.unused()) {
    std::fprintf(stderr, "omnc_emu: --%s has no effect in this run\n",
                 name.c_str());
  }
  return ok ? 0 : 1;
}
