#include "emu/session_mux.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/assert.h"
#include "emu/fault_transport.h"
#include "wire/frame.h"

namespace omnc::emu {
namespace {

/// Node scheduling period: each node steps every kPollSleepUs * speedup
/// microseconds of virtual time (under kReal that is a wall sleep of
/// kPollSleepUs between rounds).
constexpr int kPollSleepUs = 200;

}  // namespace

/// Serializes metric + span events from shard threads and the transport
/// observer into the caller's sinks, stamping transport events with the run
/// clock's virtual time — the same clock the nodes and fault schedules read,
/// so mux and injector timestamps can never skew apart.  Per-session
/// protocol events arrive from the EmuNodes already stamped with their
/// session id; transport-level events are attributed by peeking the frame
/// bytes when they are available (drops, faults) and carry session 0 when
/// only a byte count exists (send/deliver) — a size names no session.
class SessionMux::MuxTap final : public TransportObserver {
 public:
  MuxTap(const routing::SessionGraph& graph, const vtime::Clock& clock,
         std::function<void(const protocols::MetricEvent&)> sink,
         std::function<void(const obs::SpanEvent&)> span_sink,
         const std::unordered_map<std::uint32_t, int>& sessions)
      : graph_(graph),
        clock_(clock),
        sink_(std::move(sink)),
        span_sink_(std::move(span_sink)),
        sessions_(sessions) {}

  void forward(const protocols::MetricEvent& event) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sink_) sink_(event);
  }

  void forward_span(const obs::SpanEvent& event) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (span_sink_) span_sink_(event);
  }

  void on_send(int from, std::size_t bytes) override {
    emit(protocols::MetricEvent::Type::kEmuSend, from, -1, bytes, 0);
  }
  void on_drop(int from, int to,
               std::span<const std::uint8_t> frame) override {
    emit(protocols::MetricEvent::Type::kEmuDrop, from, to, frame.size(),
         session_of(frame));
    span_drop(from, to, frame, clock_.now());
  }
  void on_deliver(int from, int to, std::size_t bytes) override {
    emit(protocols::MetricEvent::Type::kEmuDeliver, from, to, bytes, 0);
  }
  void on_fault(const FaultRecord& record) override {
    // Fault records carry the injector's own virtual timestamp.
    protocols::MetricEvent event =
        fault_metric_event(record, session_of(record.frame));
    const int acting = record.to >= 0 ? record.to : record.from;
    if (acting >= 0 && acting < graph_.size()) {
      event.node = graph_.node_id(acting);
    }
    forward(event);
    // Only fault kinds that destroy the copy close its span; reorder and
    // duplicate leave the packet in flight.
    if (record.kind == FaultRecord::Kind::kLoss ||
        record.kind == FaultRecord::Kind::kPartition ||
        record.kind == FaultRecord::Kind::kBlackout) {
      span_drop(record.from, record.to, record.frame, record.time);
    }
  }
  void on_truncated(int from, int to, std::size_t claimed_bytes) override {
    protocols::MetricEvent event;
    event.type = protocols::MetricEvent::Type::kEmuParseError;
    event.time = clock_.now();
    event.session = 0;  // a truncated buffer demuxes nowhere
    if (to >= 0 && to < graph_.size()) event.node = graph_.node_id(to);
    event.tx_local = from;
    event.rx_local = to;
    event.generation = 1;
    event.value = static_cast<double>(claimed_bytes);
    forward(event);
  }

 private:
  void emit(protocols::MetricEvent::Type type, int from, int to,
            std::size_t bytes, std::uint32_t session) {
    protocols::MetricEvent event;
    event.type = type;
    event.time = clock_.now();
    event.session = session;
    const int acting = to >= 0 ? to : from;
    if (acting >= 0 && acting < graph_.size()) {
      event.node = graph_.node_id(acting);
    }
    event.tx_local = from;
    event.rx_local = to;
    event.value = static_cast<double>(bytes);
    forward(event);
  }

  /// The frame's header session id when it is readable and belongs to one
  /// of the mux's sessions; 0 (unattributed) otherwise.
  std::uint32_t session_of(std::span<const std::uint8_t> frame) const {
    if (frame.empty()) return 0;
    std::uint32_t session = 0;
    if (!wire::peek_session(frame, &session)) return 0;
    return sessions_.count(session) != 0 ? session : 0;
  }

  /// Closes the span of a killed coded-data copy by peeking its wire trace
  /// tag, attributed to the session the frame names.
  void span_drop(int from, int to, std::span<const std::uint8_t> frame,
                 double time) {
    if (!span_sink_ || frame.empty()) return;
    std::uint16_t origin = 0;
    std::uint32_t seq = 0;
    if (!wire::peek_trace(frame, &origin, &seq)) return;
    const obs::SpanId span{origin, seq};
    if (!span.valid()) return;
    const std::uint32_t session = session_of(frame);
    if (session == 0) return;
    std::uint32_t generation = 0;
    if (!wire::peek_generation(frame, &generation)) return;
    obs::SpanEvent event;
    event.kind = obs::SpanEvent::Kind::kDrop;
    event.time = time;
    event.session = session;
    event.generation = generation;
    event.node = to;
    event.peer = from;
    event.span = span;
    forward_span(event);
  }

  const routing::SessionGraph& graph_;
  const vtime::Clock& clock_;
  std::function<void(const protocols::MetricEvent&)> sink_;
  std::function<void(const obs::SpanEvent&)> span_sink_;
  const std::unordered_map<std::uint32_t, int>& sessions_;
  std::mutex mutex_;
};

SessionMux::SessionMux(const routing::SessionGraph& graph,
                       Transport& transport, const MuxConfig& config)
    : graph_(graph), transport_(transport), config_(config) {
  OMNC_ASSERT(transport_.nodes() == graph_.size());
  OMNC_ASSERT(config_.sessions > 0);
  nodes_.resize(static_cast<std::size_t>(config_.sessions));
  for (int s = 0; s < config_.sessions; ++s) {
    EmuNodeConfig node_config = config_.emu.node;
    node_config.session_id = session_id_of(s);
    node_config.data_seed =
        config_.emu.node.data_seed + static_cast<std::uint64_t>(s);
    node_config.rng_seed =
        config_.emu.node.rng_seed + static_cast<std::uint64_t>(s);
    const bool inserted =
        session_index_.emplace(node_config.session_id, s).second;
    OMNC_ASSERT_MSG(inserted, "session ids must be distinct");
    auto& session_nodes = nodes_[static_cast<std::size_t>(s)];
    for (int local = 0; local < graph_.size(); ++local) {
      session_nodes.push_back(
          std::make_unique<EmuNode>(graph_, local, transport_, node_config));
    }
  }
}

std::uint32_t SessionMux::session_id_of(int session) const {
  OMNC_ASSERT(session >= 0 && session < config_.sessions);
  return config_.emu.node.session_id + static_cast<std::uint32_t>(session);
}

EmuNode& SessionMux::node(int session, int local) {
  OMNC_ASSERT(session >= 0 && session < config_.sessions);
  return *nodes_[static_cast<std::size_t>(session)]
              [static_cast<std::size_t>(local)];
}

void SessionMux::install_rates(const std::vector<double>& rates_bytes_per_s) {
  OMNC_ASSERT(static_cast<int>(rates_bytes_per_s.size()) == graph_.size());
  for (auto& session_nodes : nodes_) {
    for (std::size_t i = 0; i < session_nodes.size(); ++i) {
      session_nodes[i]->install_rate(rates_bytes_per_s[i]);
    }
  }
}

void SessionMux::install_price_table(std::vector<double> rates_bytes_per_s,
                                     std::vector<double> lambda,
                                     std::vector<double> beta,
                                     int iterations) {
  for (auto& session_nodes : nodes_) {
    session_nodes[static_cast<std::size_t>(graph_.source)]->set_price_table(
        rates_bytes_per_s, lambda, beta, iterations);
  }
}

void SessionMux::set_metric_sink(
    std::function<void(const protocols::MetricEvent&)> sink) {
  sink_ = std::move(sink);
}

void SessionMux::set_span_sink(
    std::function<void(const obs::SpanEvent&)> sink) {
  span_sink_ = std::move(sink);
}

SessionMux::DemuxDecision SessionMux::classify(
    std::span<const std::uint8_t> bytes, std::uint32_t* session) {
  // A frame whose header cannot be peeked (truncated, bad magic/version,
  // length disagreement) names no session and must be charged to none.
  if (!wire::peek_session(bytes, session)) return DemuxDecision::kUnroutable;
  wire::FrameType type = wire::FrameType::kCodedData;
  if (!wire::peek_type(bytes, &type)) return DemuxDecision::kUnroutable;
  if (type == wire::FrameType::kCodedData ||
      type == wire::FrameType::kCodedDataCompact) {
    // Cross-check the embedded coded-packet session id against the header
    // before any runtime sees the frame: a disagreement is corruption or
    // forgery, and routing it by either id would leak it across sessions.
    std::uint32_t embedded = 0;
    if (!wire::peek_data_session(bytes, &embedded)) {
      return DemuxDecision::kUnroutable;  // body too short to verify
    }
    if (embedded != *session) return DemuxDecision::kSessionMismatch;
  }
  return DemuxDecision::kDeliver;
}

void SessionMux::dispatch(double now, int node, int from,
                          std::span<const std::uint8_t> bytes) {
  std::uint32_t session = 0;
  switch (classify(bytes, &session)) {
    case DemuxDecision::kUnroutable:
      demux_unroutable_.fetch_add(1, std::memory_order_relaxed);
      return;
    case DemuxDecision::kSessionMismatch:
      demux_session_mismatch_.fetch_add(1, std::memory_order_relaxed);
      return;
    case DemuxDecision::kDeliver:
      break;
  }
  const auto it = session_index_.find(session);
  if (it == session_index_.end()) {
    demux_unknown_session_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  nodes_[static_cast<std::size_t>(it->second)][static_cast<std::size_t>(node)]
      ->deliver(now, from, bytes);
}

void SessionMux::drain_and_step(double now, int node, bool drain) {
  if (drain) {
    // The handler captures one pointer, so std::function keeps it inline
    // instead of allocating on every poll (most polls find nothing).
    struct Target {
      SessionMux* mux;
      double now;
      int node;
    } target{this, now, node};
    transport_.poll(node, [t = &target](int from,
                                        std::span<const std::uint8_t> bytes) {
      t->mux->dispatch(t->now, t->node, from, bytes);
    });
  }
  for (auto& session_nodes : nodes_) {
    session_nodes[static_cast<std::size_t>(node)]->step_local(now);
  }
}

bool SessionMux::done(double now, double horizon) const {
  if (now >= horizon) return true;
  for (const auto& session_nodes : nodes_) {
    if (session_nodes[static_cast<std::size_t>(graph_.source)]
            ->completed_generations() < config_.emu.node.max_generations) {
      return false;
    }
  }
  return true;
}

void SessionMux::run_shard(vtime::Clock& clock, std::span<const int> owned,
                           double tick, double horizon) {
  // This shard is "node i's thread" in the Transport contract for every
  // owned i, and every session's runtime at those nodes steps here too —
  // the socket is the serialization domain.
  const std::unique_ptr<TransportReadiness> readiness =
      transport_.make_readiness(owned);
  double next = tick;
  while (!done(clock.now(), horizon)) {
    clock.sleep_until(next);
    next += tick;
    // Fixed node-major, then session order: under the deterministic clock
    // this makes the whole run a pure function of the configured seeds.
    const double now = clock.now();
    for (const int node : owned) {
      // Asked right before the drain, so a copy that a node earlier in this
      // pass sent still arrives in this tick.  A skipped poll is one that
      // would have delivered nothing (DESIGN.md §10.3).
      const bool drain = readiness == nullptr || readiness->pending(node);
      drain_and_step(now, node, drain);
    }
  }
  // One final unconditional drain so late frames still reach counters.
  const double now = clock.now();
  for (const int node : owned) drain_and_step(now, node, true);
  clock.leave();
}

EmuRunResult SessionMux::session_result(int session,
                                        double virtual_elapsed) const {
  const auto& session_nodes = nodes_[static_cast<std::size_t>(session)];
  EmuRunResult result;
  result.virtual_elapsed = virtual_elapsed;

  const EmuNode::Stats& src =
      session_nodes[static_cast<std::size_t>(graph_.source)]->stats();
  result.completed =
      src.generations_completed >= config_.emu.node.max_generations;
  result.generations_completed = src.generations_completed;
  result.last_ack_time = src.last_ack_time;
  result.ack_latencies = src.ack_latencies;
  if (!src.ack_latencies.empty()) {
    double sum = 0.0;
    for (const double latency : src.ack_latencies) sum += latency;
    result.mean_ack_latency =
        sum / static_cast<double>(src.ack_latencies.size());
  }
  if (src.last_ack_time > 0.0) {
    result.goodput_bytes_per_s =
        static_cast<double>(src.generations_completed) *
        static_cast<double>(config_.emu.node.coding.generation_bytes()) /
        src.last_ack_time;
  }

  result.data_ok = true;
  std::set<std::pair<std::uint16_t, std::uint16_t>> seen_reports;
  for (const auto& node : session_nodes) {
    const EmuNode::Stats& stats = node->stats();
    if (!stats.data_ok) result.data_ok = false;
    result.parse_errors += stats.parse_errors;
    result.data_packets_sent += stats.data_packets_sent;
    result.stall_boosts += stats.stall_boosts;
    result.ack_keepalives += stats.ack_keepalives;
    result.resync_requests += stats.resync_requests;
    result.resync_replies += stats.resync_replies;
    result.price_decays += stats.price_decays;
    for (const wire::ProbeReport& report : stats.probe_reports) {
      if (seen_reports.insert({report.reporter_local, report.probed_local})
              .second) {
        result.probe_reports.push_back(report);
      }
    }
  }
  if (result.generations_completed == 0) result.data_ok = false;
  return result;
}

MuxRunResult SessionMux::run() {
  std::unique_ptr<vtime::Clock> clock =
      vtime::make_clock(config_.emu.clock_mode, config_.emu.speedup);
  MuxTap tap(graph_, *clock, sink_, span_sink_, session_index_);
  if (sink_ || span_sink_) {
    transport_.set_observer(&tap);
  }
  for (auto& session_nodes : nodes_) {
    for (auto& node : session_nodes) {
      if (sink_) {
        node->set_metric_sink([&tap](const protocols::MetricEvent& event) {
          tap.forward(event);
        });
      }
      if (span_sink_) {
        node->set_span_sink([&tap](const obs::SpanEvent& event) {
          tap.forward_span(event);
        });
      }
    }
  }
  transport_.bind_clock(clock.get());

  // One node scheduling round per `tick` virtual seconds.
  const double tick =
      static_cast<double>(kPollSleepUs) * 1e-6 * config_.emu.speedup;
  const double horizon = config_.emu.horizon_s();
  OMNC_ASSERT_MSG(tick > 0.0, "speedup must be positive");

  // Shard k owns the node indices congruent to k.  One shard runs on this
  // thread; K > 1 run on K threads, each joining the clock as a participant.
  const int shards =
      config_.emu.clock_mode == vtime::ClockMode::kDeterministic
          ? 1
          : std::clamp(config_.shards, 1, graph_.size());
  std::vector<std::vector<int>> owned(static_cast<std::size_t>(shards));
  for (int node = 0; node < graph_.size(); ++node) {
    owned[static_cast<std::size_t>(node % shards)].push_back(node);
  }
  clock->start(shards);
  if (shards == 1) {
    run_shard(*clock, owned.front(), tick, horizon);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(owned.size());
    for (const std::vector<int>& slice : owned) {
      workers.emplace_back([this, &clock, &slice, tick, horizon] {
        run_shard(*clock, slice, tick, horizon);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double virtual_elapsed = clock->now();
  transport_.set_observer(nullptr);
  transport_.bind_clock(nullptr);

  MuxRunResult result;
  result.virtual_elapsed = virtual_elapsed;
  result.transport = transport_.stats();
  result.demux_unroutable =
      demux_unroutable_.load(std::memory_order_relaxed);
  result.demux_session_mismatch =
      demux_session_mismatch_.load(std::memory_order_relaxed);
  result.demux_unknown_session =
      demux_unknown_session_.load(std::memory_order_relaxed);
  result.sessions.reserve(static_cast<std::size_t>(config_.sessions));
  // Derived from the per-session results so the aggregate can never
  // contradict them.
  result.data_ok = true;
  result.completed = true;
  for (int s = 0; s < config_.sessions; ++s) {
    result.sessions.push_back(session_result(s, virtual_elapsed));
    const EmuRunResult& session = result.sessions.back();
    if (!session.completed) result.completed = false;
    if (!session.data_ok) result.data_ok = false;
  }
  return result;
}

}  // namespace omnc::emu
