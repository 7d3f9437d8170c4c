// The emulator workloads: unicast sessions on the Fig. 2 diamond,
// driven through emu::SessionMux exactly as omnc_emu --sessions drives it.
//
// One repetition = one full set-up (topology, node selection, distributed
// rate control + rescale, transport, mux, price table) and one mux run of a
// fixed number of generations per session, on one of the run's
// kSeedsPerRun inputs derived from --seed.  A run cycles through its inputs
// until --seconds have passed and reports each input at its fastest
// repetition (probe.h: best_of).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codes/code_spec.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "net/topology.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "probe.h"
#include "routing/node_selection.h"
#include "timing_transport.h"

namespace perfbench {
namespace {

using namespace omnc;

constexpr double kCapacity = 2e4;  // C, bytes/s (paper Sec. 5)
constexpr double kCbr = 1e4;       // offered load, bytes/s
// Warp-clock shards.  One: every shard worker and the completion watcher
// join the clock barrier, so with min(4, nproc) shards on a 4-vCPU shared
// host a vCPU the hypervisor steals stalls them all, and decoded_MBps swung
// 1.7-9.6 MB/s between runs; one shard held 6-10 MB/s in the same periods.
constexpr int kWarpShards = 1;
// Inputs (payload, coefficient and loss seeds) a run cycles through.
constexpr int kSeedsPerRun = 8;

struct EmuSpec {
  int sessions = 1;
  std::uint16_t gen_blocks = 8;
  std::uint16_t block_bytes = 64;
  int generations = 8;  // per session, per repetition
  vtime::ClockMode clock = vtime::ClockMode::kDeterministic;
  codes::CodeSpec code;
};

bool spec_for(const std::string& workload, EmuSpec* spec) {
  if (workload == "paper_det") {
    // Paper geometry, dense RLC, Bernoulli loopback, det clock.
    spec->sessions = 1;
    spec->gen_blocks = 40;
    spec->block_bytes = 1024;
    spec->generations = 48;
    return true;
  }
  if (workload == "mux64_warp") {
    // Toy geometry, 64 sessions, warp clock.  The systematic code puts the
    // structured decoder and compact frames in the benchmark.
    spec->sessions = 64;
    spec->generations = 64;
    spec->clock = vtime::ClockMode::kWarp;
    spec->code = codes::CodeSpec::systematic();
    return true;
  }
  return false;
}

/// The paper's Fig. 2 diamond: source 0, relays 1/2, destination 3.
net::Topology diamond() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8;
  p[0][2] = p[2][0] = 0.6;
  p[1][3] = p[3][1] = 0.7;
  p[2][3] = p[3][2] = 0.9;
  return net::Topology::from_link_matrix(p);
}

/// One repetition's set-up, built in place (the mux keeps references to the
/// graph and the transport, so this never moves).  Members are destroyed in
/// reverse order: mux, decorator, base transport, graph.
struct Setup {
  std::optional<net::Topology> topology;
  routing::SessionGraph graph;
  opt::RateControlResult rc;
  std::vector<double> rates;
  std::unique_ptr<emu::Transport> base;
  std::unique_ptr<TimingTransport> timing;
  std::unique_ptr<emu::SessionMux> mux;
  double select_nodes_s = 0.0;
  double rate_control_s = 0.0;
};

emu::MuxConfig mux_config(const EmuSpec& spec, std::uint64_t seed) {
  emu::MuxConfig config;
  emu::EmuNodeConfig& node = config.emu.node;
  node.coding.generation_blocks = spec.gen_blocks;
  node.coding.block_bytes = spec.block_bytes;
  node.code = spec.code;
  node.session_id = 1;
  node.data_seed = seed;
  node.rng_seed = seed;
  node.cbr_bytes_per_s = kCbr;
  node.max_generations = spec.generations;
  config.emu.clock_mode = spec.clock;
  // Generous virtual horizon: ten times the CBR-limited duration.
  config.emu.virtual_timeout_s =
      60.0 + 10.0 * spec.generations *
                 static_cast<double>(node.coding.generation_bytes()) / kCbr;
  config.sessions = spec.sessions;
  config.shards = spec.clock == vtime::ClockMode::kWarp ? kWarpShards : 0;
  return config;
}

void build(const EmuSpec& spec, std::uint64_t seed, bool timed, Setup* s,
           SpanLog* spans, int parent) {
  s->topology.emplace(diamond());
  {
    ScopedSpan span(spans, "routing.select_nodes", parent);
    const std::uint64_t t0 = wall_ns();
    s->graph = routing::select_nodes(*s->topology, 0, 3);
    s->select_nodes_s = 1e-9 * static_cast<double>(wall_ns() - t0);
  }
  {
    ScopedSpan span(spans, "opt.rate_control", parent);
    const std::uint64_t t0 = wall_ns();
    opt::RateControlParams params;
    params.capacity = kCapacity;
    opt::DistributedRateControl control(s->graph, params);
    s->rc = control.run();
    s->rates = s->rc.b;
    opt::rescale_to_feasible(s->graph, s->rates, kCapacity);
    s->rate_control_s = 1e-9 * static_cast<double>(wall_ns() - t0);
  }
  ScopedSpan span(spans, "emu.build", parent);
  emu::LoopbackConfig loopback;
  loopback.seed = seed;
  s->base = std::make_unique<emu::LoopbackTransport>(
      s->graph.size(), emu::link_matrix_from_topology(*s->topology, s->graph),
      loopback);
  emu::Transport* transport = s->base.get();
  if (timed) {
    s->timing = std::make_unique<TimingTransport>(*s->base);
    transport = s->timing.get();
  }
  s->mux = std::make_unique<emu::SessionMux>(s->graph, *transport,
                                             mux_config(spec, seed));
  s->mux->install_price_table(s->rates, s->rc.lambda, s->rc.beta,
                              s->rc.iterations);
}

/// What one repetition measured.
struct Rep {
  int input = 0;  // which of the run's kSeedsPerRun inputs
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;   // process CPU over mux.run()
  double user_s = 0.0;  // getrusage split of the same interval
  double sys_s = 0.0;
  long vol_ctx_switches = 0;
  double decoded_bytes = 0.0;
  double gens = 0.0;
  double copies = 0.0;
  double dropped = 0.0;
  double goodput_mean = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Node statistics (traced repetitions read them; cheap either way).
  double frames_received = 0.0;
  double innovative = 0.0;
  double stall_boosts = 0.0;
  double resyncs = 0.0;
  double demux_rejects = 0.0;
  double select_nodes_s = 0.0;
  double rate_control_s = 0.0;
  int rate_control_iters = 0;
  TimingTransport::Totals io;
};

/// How one repetition runs, and where it leaves what a Rep does not keep
/// (a Rep stays small, so memory does not grow with the repetition count).
struct RepOptions {
  bool timed = false;  // timing decorator on (the caller enables the timers)
  SpanLog* spans = nullptr;
  std::size_t span_cap = 0;             // decorator spans kept per thread
  obs::Histogram* latencies = nullptr;  // receives every ACK latency
  emu::MuxRunResult* result = nullptr;  // receives the mux result
};

/// Checks one mux result; every failed generation counts against the run.
void check(const EmuSpec& spec, const emu::MuxRunResult& r, Rep* rep,
           Report* report) {
  rep->attempted = static_cast<std::uint64_t>(spec.sessions) *
                   static_cast<std::uint64_t>(spec.generations);
  if (static_cast<int>(r.sessions.size()) != spec.sessions) {
    rep->failed = rep->attempted;
    report->fail("mux returned the wrong number of sessions");
    return;
  }
  for (std::size_t s = 0; s < r.sessions.size(); ++s) {
    const emu::EmuRunResult& session = r.sessions[s];
    const int done = std::min(session.generations_completed, spec.generations);
    rep->failed += static_cast<std::uint64_t>(
        session.data_ok ? spec.generations - done : spec.generations);
    if (!session.data_ok) {
      report->fail("session " + std::to_string(s) + ": decoded data mismatch");
    } else if (!session.completed) {
      report->fail("session " + std::to_string(s) + ": " +
                   std::to_string(done) + "/" +
                   std::to_string(spec.generations) + " generations retired");
    }
    if (session.parse_errors != 0) {
      report->fail("session " + std::to_string(s) + ": " +
                   std::to_string(session.parse_errors) + " parse errors");
    }
  }
  const std::size_t rejects = r.demux_unroutable + r.demux_session_mismatch +
                              r.demux_unknown_session;
  if (rejects != 0) {
    report->fail(std::to_string(rejects) + " demux rejections");
  }
}

Rep run_rep(const EmuSpec& spec, std::uint64_t seed, const RepOptions& opt,
            Report* report) {
  SpanLog* spans = opt.spans;
  Rep rep;
  ScopedSpan rep_span(spans, "rep", SpanLog::kNoParent);
  Setup s;
  {
    ScopedSpan setup_span(spans, "setup", rep_span.id());
    const std::uint64_t t0 = wall_ns();
    build(spec, seed, opt.timed, &s, spans, setup_span.id());
    rep.setup_s = 1e-9 * static_cast<double>(wall_ns() - t0);
  }
  rep.select_nodes_s = s.select_nodes_s;
  rep.rate_control_s = s.rate_control_s;
  rep.rate_control_iters = s.rc.iterations;
  if (s.timing) s.timing->record_spans(opt.span_cap);

  int run_span_id = SpanLog::kNoParent;
  emu::MuxRunResult r;
  {
    ScopedSpan run_span(spans, "emu.mux_run", rep_span.id());
    run_span_id = run_span.id();
    const Usage u0 = usage();
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t w0 = wall_ns();
    r = s.mux->run();
    const std::uint64_t w1 = wall_ns();
    const std::uint64_t cpu1 = process_cpu_ns();
    const Usage u1 = usage();
    rep.wall_s = 1e-9 * static_cast<double>(w1 - w0);
    rep.cpu_s = 1e-9 * static_cast<double>(cpu1 - cpu0);
    rep.user_s = u1.user_s - u0.user_s;
    rep.sys_s = u1.sys_s - u0.sys_s;
    rep.vol_ctx_switches = u1.vol_ctx_switches - u0.vol_ctx_switches;
  }
  if (s.timing) {
    rep.io = s.timing->totals();
    if (spans != nullptr) s.timing->collect_spans(spans, run_span_id);
  }

  check(spec, r, &rep, report);
  const double gen_bytes = static_cast<double>(spec.gen_blocks) *
                           static_cast<double>(spec.block_bytes);
  for (const emu::EmuRunResult& session : r.sessions) {
    rep.gens += session.generations_completed;
    if (session.data_ok) {
      rep.decoded_bytes += session.generations_completed * gen_bytes;
    }
    rep.goodput_mean += session.goodput_bytes_per_s / spec.sessions;
    if (opt.latencies != nullptr) {
      for (const double latency : session.ack_latencies) {
        opt.latencies->record(latency);
      }
    }
    rep.stall_boosts += static_cast<double>(session.stall_boosts);
    rep.resyncs += static_cast<double>(session.resync_requests);
  }
  rep.copies = static_cast<double>(r.transport.copies_delivered);
  rep.dropped = static_cast<double>(r.transport.copies_dropped);
  rep.demux_rejects = static_cast<double>(
      r.demux_unroutable + r.demux_session_mismatch + r.demux_unknown_session);
  for (int session = 0; session < spec.sessions; ++session) {
    for (int local = 0; local < s.graph.size(); ++local) {
      const emu::EmuNode::Stats& stats = s.mux->node(session, local).stats();
      rep.frames_received += static_cast<double>(stats.frames_received);
      rep.innovative += static_cast<double>(stats.innovative_received);
    }
  }
  if (opt.result != nullptr) *opt.result = std::move(r);
  return rep;
}

/// Field-for-field equality of two mux results: the det replay equality of
/// omnc_emu --cross-check, extended to every counter the result carries.
bool same_result(const emu::MuxRunResult& a, const emu::MuxRunResult& b) {
  const auto same_transport = [](const emu::TransportStats& x,
                                 const emu::TransportStats& y) {
    return x.frames_sent == y.frames_sent && x.bytes_sent == y.bytes_sent &&
           x.copies_dropped == y.copies_dropped &&
           x.copies_delivered == y.copies_delivered &&
           x.datagrams_truncated == y.datagrams_truncated &&
           x.socket_errors == y.socket_errors;
  };
  if (a.completed != b.completed || a.data_ok != b.data_ok ||
      a.virtual_elapsed != b.virtual_elapsed ||
      !same_transport(a.transport, b.transport) ||
      a.demux_unroutable != b.demux_unroutable ||
      a.demux_session_mismatch != b.demux_session_mismatch ||
      a.demux_unknown_session != b.demux_unknown_session ||
      a.sessions.size() != b.sessions.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.sessions.size(); ++s) {
    const emu::EmuRunResult& x = a.sessions[s];
    const emu::EmuRunResult& y = b.sessions[s];
    if (x.completed != y.completed || x.data_ok != y.data_ok ||
        x.generations_completed != y.generations_completed ||
        x.goodput_bytes_per_s != y.goodput_bytes_per_s ||
        x.last_ack_time != y.last_ack_time ||
        x.mean_ack_latency != y.mean_ack_latency ||
        x.ack_latencies != y.ack_latencies ||
        x.parse_errors != y.parse_errors ||
        x.data_packets_sent != y.data_packets_sent ||
        x.stall_boosts != y.stall_boosts ||
        x.ack_keepalives != y.ack_keepalives ||
        x.resync_requests != y.resync_requests ||
        x.resync_replies != y.resync_replies ||
        x.price_decays != y.price_decays ||
        x.virtual_elapsed != y.virtual_elapsed) {
      return false;
    }
  }
  return true;
}

/// Rounds of one repetition per input for `seconds`; decorator spans are
/// kept for the first repetition only.
std::vector<Rep> repeat(const EmuSpec& spec, const Args& args, double seconds,
                        RepOptions opt, Report* report) {
  constexpr std::size_t kSpanCap = 20000;
  std::size_t count = 0;
  return repeat_rounds<Rep>(seconds, kSeedsPerRun, *report, [&](int input) {
    opt.span_cap = count++ == 0 ? kSpanCap : 0;
    Rep rep = run_rep(spec, rep_seed(args.seed, input), opt, report);
    rep.input = input;
    return rep;
  });
}

/// One sample per repetition: its wall (or CPU) time and work(rep).
template <typename F>
std::vector<Sample> samples(const std::vector<Rep>& reps, bool cpu, F work) {
  std::vector<Sample> out;
  for (const Rep& r : reps) {
    out.push_back(Sample{r.input, cpu ? r.cpu_s : r.wall_s, work(r)});
  }
  return out;
}

double decoded_mbps(const std::vector<Rep>& reps) {
  return best_of(samples(reps, false, [](const Rep& r) {
           return r.decoded_bytes;
         })).rate() /
         1e6;
}

void report_end_to_end(const EmuSpec& spec, const std::vector<Rep>& reps,
                       const obs::Histogram& latencies, Report* report) {
  const std::size_t n = reps.size();
  report->e2e_rounds("setup_s",
                     each(reps, [](const Rep& r) { return r.setup_s; }),
                     kSeedsPerRun, "s");
  report->e2e("decoded_MBps", decoded_mbps(reps), "MB/s", n);
  report->e2e("cpu_us_per_copy",
              1e6 / best_of(samples(reps, true, [](const Rep& r) {
                      return r.copies;
                    })).rate(),
              "us", n);
  report->e2e("cpu_ms_per_gen",
              1e3 / best_of(samples(reps, true, [](const Rep& r) {
                      return r.gens;
                    })).rate(),
              "ms", n);
  double goodput = 0.0;
  for (const Rep& r : reps) goodput += r.goodput_mean / n;
  report->e2e("goodput_Bps", goodput, "B/s", n);
  report->e2e("ack_latency_p50_s", latencies.quantile(50.0), "s",
              latencies.count());
  report->e2e("ack_latency_p99_s", latencies.quantile(99.0), "s",
              latencies.count());
  report->e2e("sessions_per_s",
              best_of(samples(reps, false, [&](const Rep&) {
                return static_cast<double>(spec.sessions);
              })).rate(),
              "1/s", n);
}

void report_per_layer(const EmuSpec& spec, const std::vector<Rep>& reps,
                      double untraced_mbps, Report* report) {
  double gens = 0, copies = 0, dropped = 0, cpu = 0, user = 0, sys = 0;
  double frames_received = 0, innovative = 0, stalls = 0, resyncs = 0;
  double rejects = 0, vcsw = 0, select_s = 0, rc_s = 0, rc_iters = 0;
  double thread_wall = 0;  // Σ over the decorator's threads of mux.run() wall
  TimingTransport::Totals io;
  for (const Rep& r : reps) {
    thread_wall += r.wall_s * static_cast<double>(r.io.threads);
    gens += r.gens;
    copies += r.copies;
    dropped += r.dropped;
    cpu += r.cpu_s;
    user += r.user_s;
    sys += r.sys_s;
    frames_received += r.frames_received;
    innovative += r.innovative;
    stalls += r.stall_boosts;
    resyncs += r.resyncs;
    rejects += r.demux_rejects;
    vcsw += static_cast<double>(r.vol_ctx_switches);
    select_s += r.select_nodes_s;
    rc_s += r.rate_control_s;
    rc_iters += r.rate_control_iters;
    io += r.io;
  }
  const std::size_t n = reps.size();
  const bool dense = spec.code.is_dense();
  report_coding_timers(report, gens, dense, !dense);

  const CodingTotals coding = coding_totals();
  const auto need = [&](const char* metric, double samples) {
    if (samples > 0) return true;
    report->fail(std::string(metric) + ": no samples");
    return false;
  };
  if (need("coding.innovative_ratio", frames_received)) {
    report->layer("coding.innovative_ratio", innovative / frames_received,
                  "ratio", static_cast<std::size_t>(frames_received));
  }
  report->layer("coding.cpu_share", coding.total_s() / cpu, "ratio", n);

  const double ns = 1e-9;
  if (need("transport.send_ns_per_frame", io.sends)) {
    report->layer("transport.send_ns_per_frame",
                  static_cast<double>(io.send_ns) / io.sends, "ns", io.sends);
  }
  const double poll_self_ns =
      static_cast<double>(io.poll_ns) - static_cast<double>(io.handler_ns);
  if (need("transport.poll_self_ns_per_copy", io.handler_calls)) {
    report->layer("transport.poll_self_ns_per_copy",
                  poll_self_ns / io.handler_calls, "ns", io.handler_calls);
    report->layer("emu.rx_handler_ns_per_copy",
                  static_cast<double>(io.handler_ns) / io.handler_calls, "ns",
                  io.handler_calls);
  }
  if (need("transport.empty_poll_ratio", io.polls)) {
    report->layer("transport.empty_poll_ratio",
                  static_cast<double>(io.empty_polls) / io.polls, "ratio",
                  io.polls);
  }
  report->layer("transport.sys_cpu_share", sys / (user + sys), "ratio", n);
  report->layer("transport.delivery_ratio", copies / (copies + dropped),
                "ratio", static_cast<std::size_t>(copies + dropped));

  const char* kind_names[] = {"data", "compact", "ack", "price", "resync",
                              "probe"};
  for (int k = 0; k < TimingTransport::kOther; ++k) {
    report->layer(std::string("emu.frames_per_gen.") + kind_names[k],
                  static_cast<double>(io.frames[k]) / gens, "count",
                  static_cast<std::size_t>(gens));
  }
  const double data_frames = static_cast<double>(
      io.frames[TimingTransport::kData] + io.frames[TimingTransport::kCompact]);
  report->layer("emu.control_frame_share",
                (static_cast<double>(io.sends) - data_frames) / io.sends,
                "ratio", io.sends);
  report->layer("emu.stall_boosts_per_gen", stalls / gens, "count",
                static_cast<std::size_t>(gens));
  report->layer("emu.resyncs_per_gen", resyncs / gens, "count",
                static_cast<std::size_t>(gens));
  report->layer("emu.demux_rejects", rejects, "count",
                static_cast<std::size_t>(copies));
  if (need("time.blocked_share", static_cast<double>(io.intervals))) {
    report->layer("time.blocked_share",
                  (static_cast<double>(io.interval_wall_ns) -
                   static_cast<double>(io.interval_cpu_ns)) /
                      static_cast<double>(io.interval_wall_ns),
                  "ratio", io.intervals);
  }
  report->layer("time.vol_ctx_switches_per_copy", vcsw / copies, "count",
                static_cast<std::size_t>(copies));
  report->layer("routing.select_nodes_ms", 1e3 * select_s / n, "ms", n);
  report->layer("opt.rate_control_ms", 1e3 * rc_s / n, "ms", n);
  report->layer("opt.rate_control_iters", rc_iters / n, "count", n);
  const TimerTotal pivots = timer_total(timers::kPivot);
  if (pivots.count > 0) {
    report->layer("lp.simplex_pivots", static_cast<double>(pivots.count) / n,
                  "count", n);
  } else {
    report->idle("lp.simplex_pivots");
  }
  report->idle_layers({"sim."});

  // Ledger over the traced repetitions' run phases, in wall time on every
  // row (thread CPU costs a ~300 ns syscall per read, several times an empty
  // poll).  Each row is measured on its own, from outside:
  //   coding.tx  encode + recode registry timers (run in the node step loop)
  //   coding.rx  rref insert, materialize, structured offer/recover timers
  //              (run inside the poll handler)
  //   transport  send() + poll() minus the handler calls the poll makes
  //   emu.rx     handler calls minus the sends they make and coding.rx
  //   emu.step   gaps between a thread's transport calls (EmuNode pacing and
  //              timers, the mux loop, clock waits) minus coding.tx
  // The total they are checked against is measured apart from them: the
  // wall time of mux.run() on every thread that called the transport.  A
  // layer left out or counted twice shows as unaccounted time.
  const double transport_s =
      ns * (static_cast<double>(io.send_ns) + poll_self_ns);
  const double emu_rx_s =
      ns * (static_cast<double>(io.handler_ns) -
            static_cast<double>(io.send_in_handler_ns)) -
      coding.rx_s;
  const double emu_step_s = ns * static_cast<double>(io.gap_ns) - coding.tx_s;
  const double accounted =
      coding.tx_s + coding.rx_s + transport_s + emu_rx_s + emu_step_s;
  const auto row = [&](const char* name, double seconds) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-11s %9.4f s  %6.1f%% of run-thread wall", name, seconds,
                  100.0 * seconds / thread_wall);
    report->ledger.push_back(line);
  };
  row("coding.tx", coding.tx_s);
  row("coding.rx", coding.rx_s);
  row("transport", transport_s);
  row("emu.rx", emu_rx_s);
  row("emu.step", emu_step_s);
  row("accounted", accounted);
  row("run wall", thread_wall);
  row("process CPU", cpu);  // the rest of the run wall was spent blocked
  report->layer("ledger.unaccounted_share", 1.0 - accounted / thread_wall,
                "ratio", n);

  report->layer("trace.overhead", 1.0 - decoded_mbps(reps) / untraced_mbps,
                "ratio", n);
}

void print_config(const std::string& workload, const EmuSpec& spec) {
  std::printf("# workload %s: %d session(s) on the Fig. 2 diamond, %d "
              "generations of %u x %u B per session per repetition, %s code, "
              "loopback transport (Bernoulli loss), %s clock%s\n",
              workload.c_str(), spec.sessions, spec.generations,
              spec.gen_blocks, spec.block_bytes,
              spec.code.selector().c_str(),
              vtime::clock_mode_name(spec.clock),
              spec.clock == vtime::ClockMode::kWarp
                  ? (", " + std::to_string(kWarpShards) + " shard").c_str()
                  : "");
}

}  // namespace

bool is_emu_workload(const std::string& workload) {
  EmuSpec spec;
  return spec_for(workload, &spec);
}

void run_emu_workload(const Args& args, Report* report, SpanLog* spans) {
  EmuSpec spec;
  spec_for(args.workload, &spec);
  print_config(args.workload, spec);

  if (args.workload == "paper_det") {
    // Transparency: the timing decorator (with the registry timers on) must
    // reproduce the undecorated det run field for field.
    const std::uint64_t seed = rep_seed(args.seed, -1);
    emu::MuxRunResult plain, timed;
    run_rep(spec, seed, RepOptions{.result = &plain}, report);
    obs::MetricsRegistry::set_enabled(true);
    run_rep(spec, seed, RepOptions{.timed = true, .result = &timed}, report);
    obs::MetricsRegistry::set_enabled(false);
    obs::MetricsRegistry::global().reset();
    const bool same = same_result(plain, timed);
    std::printf("# transparency: decorated det run %s the undecorated one\n",
                same ? "reproduces" : "DIVERGES FROM");
    if (!same) report->fail("timing decorator changed the det run");
  }

  // Warm-up repetition (caches, allocator, lazy GF tables), not recorded.
  Report warmup;
  run_rep(spec, rep_seed(args.seed, -2), RepOptions{}, &warmup);
  if (!warmup.correct) report->fail("warm-up: " + warmup.errors.front());

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  obs::Histogram latencies;
  const std::vector<Rep> reps = repeat(
      spec, args, untraced_seconds, RepOptions{.latencies = &latencies}, report);
  for (const Rep& r : reps) {
    report->attempted += r.attempted;
    report->failed += r.failed;
  }
  report_end_to_end(spec, reps, latencies, report);
  if (!args.trace || !report->correct) return;

  obs::MetricsRegistry::global().reset();
  obs::MetricsRegistry::set_enabled(true);
  const std::vector<Rep> traced =
      repeat(spec, args, args.seconds / 2,
             RepOptions{.timed = true, .spans = spans}, report);
  obs::MetricsRegistry::set_enabled(false);
  for (const Rep& r : traced) {
    report->attempted += r.attempted;
    report->failed += r.failed;
  }
  if (!report->correct) return;
  report_per_layer(spec, traced, decoded_mbps(reps), report);
}

}  // namespace perfbench
