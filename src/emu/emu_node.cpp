#include "emu/emu_node.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "coding/generation.h"
#include "common/assert.h"

namespace omnc::emu {
namespace {

protocols::NodeRuntime make_runtime(const routing::SessionGraph& graph,
                                    int local, const EmuNodeConfig& config) {
  if (local == graph.source) {
    return protocols::NodeRuntime::source(config.coding, config.session_id,
                                          config.data_seed, config.code);
  }
  if (local == graph.destination) {
    return protocols::NodeRuntime::destination(config.coding, config.code);
  }
  return protocols::NodeRuntime::relay(config.coding, config.session_id,
                                       config.code);
}

}  // namespace

// The data phase opens this many virtual seconds after the link-probe
// window closes (at 0.5 s when probing is off).
constexpr double kDataStartGapS = 0.5;

EmuNode::EmuNode(const routing::SessionGraph& graph, int local,
                 Transport& transport, const EmuNodeConfig& config)
    : graph_(graph),
      local_(local),
      transport_(transport),
      config_(config),
      runtime_(make_runtime(graph, local, config)),
      rng_(Rng(config.rng_seed).fork(7000 + static_cast<std::uint64_t>(local))),
      packet_air_bytes_(static_cast<double>(coding::CodedPacket::kHeaderBytes +
                                            config.coding.generation_blocks +
                                            config.coding.block_bytes)),
      data_start_s_(config.probe_window_s + kDataStartGapS) {
  OMNC_ASSERT(local_ >= 0 && local_ < graph_.size());
  const std::size_t n = static_cast<std::size_t>(graph_.size());
  forwarded_acks_.resize(n);
  last_price_forward_.assign(n, -std::numeric_limits<double>::infinity());
  forwarded_price_iter_.assign(n, 0);
  beacons_heard_.assign(n, 0);
  stall_deadline_ = std::numeric_limits<double>::infinity();
  resync_wait_s_ = config_.resync_silence_s;
  last_resync_send_ = -std::numeric_limits<double>::infinity();
  last_resync_reply_ = -std::numeric_limits<double>::infinity();
  last_resync_forward_.assign(n, -std::numeric_limits<double>::infinity());
}

void EmuNode::install_rate(double rate_bytes_per_s) {
  rate_bytes_per_s_ = std::max(0.0, rate_bytes_per_s);
  stats_.rate_installed = true;
}

void EmuNode::set_price_table(std::vector<double> rates_bytes_per_s,
                              std::vector<double> lambda,
                              std::vector<double> beta, int iterations) {
  OMNC_ASSERT(runtime_.role() == protocols::NodeRuntime::Role::kSource);
  OMNC_ASSERT(rates_bytes_per_s.size() ==
              static_cast<std::size_t>(graph_.size()));
  OMNC_ASSERT(lambda.size() == graph_.edges.size());
  OMNC_ASSERT(beta.size() == static_cast<std::size_t>(graph_.size()));
  is_price_origin_ = true;
  price_frames_.clear();
  const auto iteration = static_cast<std::uint32_t>(std::max(1, iterations));
  for (int node = 0; node < graph_.size(); ++node) {
    wire::PriceUpdate price;
    price.node_local = static_cast<std::uint16_t>(node);
    price.iteration = iteration;
    price.beta = beta[static_cast<std::size_t>(node)];
    price.rate_bytes_per_s = rates_bytes_per_s[static_cast<std::size_t>(node)];
    for (const int edge : graph_.out_edges_of(node)) {
      price.lambdas.push_back(wire::PriceUpdate::Lambda{
          static_cast<std::uint16_t>(
              graph_.edges[static_cast<std::size_t>(edge)].to),
          lambda[static_cast<std::size_t>(edge)]});
    }
    price_frames_.push_back(
        wire::make_price(config_.session_id, std::move(price)));
  }
  source_price_iteration_ = iteration;
  install_rate(rates_bytes_per_s[static_cast<std::size_t>(local_)]);
}

void EmuNode::set_metric_sink(
    std::function<void(const protocols::MetricEvent&)> sink) {
  sink_ = std::move(sink);
}

void EmuNode::set_span_sink(std::function<void(const obs::SpanEvent&)> sink) {
  span_sink_ = std::move(sink);
}

void EmuNode::broadcast(const wire::Frame& frame) {
  frame.serialize_into(&tx_bytes_);
  transport_.send(local_, tx_bytes_);
}

void EmuNode::emit_span(obs::SpanEvent::Kind kind, double now,
                        std::uint32_t generation, obs::SpanId span, int peer,
                        std::size_t rank,
                        std::span<const obs::SpanId> parents, int pivot,
                        bool uncoded) {
  if (!span_sink_) return;
  obs::SpanEvent event;
  event.kind = kind;
  event.time = now;
  event.session = config_.session_id;
  event.generation = generation;
  event.node = local_;
  event.peer = peer;
  event.span = span;
  event.rank = rank;
  event.pivot = pivot;
  event.uncoded = uncoded;
  event.parents.assign(parents.begin(), parents.end());
  span_sink_(event);
}

void EmuNode::deliver(double now, int from,
                      std::span<const std::uint8_t> bytes) {
  on_frame(now, from, bytes);
}

void EmuNode::step_local(double now) {
  if (config_.probe_window_s > 0.0) run_probe(now);
  switch (runtime_.role()) {
    case protocols::NodeRuntime::Role::kSource:
      run_source(now);
      break;
    case protocols::NodeRuntime::Role::kDestination:
      run_destination(now);
      break;
    case protocols::NodeRuntime::Role::kRelay:
      break;
  }
  run_recovery(now);
  pace(now);
}

// Cap of the resync wait, which doubles per unanswered request.
constexpr double kResyncBackoffMaxS = 12.0;

void EmuNode::run_recovery(double now) {
  // Silence-triggered resync: only non-source nodes re-request state (the
  // source *is* the session's state of record).
  if (config_.resync_silence_s <= 0.0) return;
  if (runtime_.role() == protocols::NodeRuntime::Role::kSource) return;
  if (!frame_clock_started_) {
    frame_clock_started_ = true;
    last_frame_time_ = now;
    return;
  }
  if (now - last_frame_time_ < resync_wait_s_) return;
  if (now - last_resync_send_ < resync_wait_s_) return;
  wire::ResyncRequest request;
  request.origin_local = static_cast<std::uint16_t>(local_);
  request.last_seen_generation =
      std::max(live_generation_, runtime_.generation_id());
  broadcast(wire::make_resync_request(config_.session_id, request));
  ++stats_.resync_requests;
  if (sink_) {
    protocols::MetricEvent event;
    event.type = protocols::MetricEvent::Type::kEmuResync;
    event.time = now;
    event.session = config_.session_id;
    event.node = graph_.node_id(local_);
    event.tx_local = local_;
    event.generation = request.last_seen_generation;
    sink_(event);
  }
  last_resync_send_ = now;
  resync_wait_s_ = std::min(resync_wait_s_ * 2.0, kResyncBackoffMaxS);
}

// Beacons each node sends during the link-probe window.
constexpr int kProbeBeacons = 50;

void EmuNode::run_probe(double now) {
  const double window = config_.probe_window_s;
  const int count = kProbeBeacons;
  const double interval = window / static_cast<double>(count);
  while (beacons_sent_ < count &&
         now >= static_cast<double>(beacons_sent_) * interval) {
    wire::ProbeBeacon beacon;
    beacon.origin_local = static_cast<std::uint16_t>(local_);
    beacon.sequence = static_cast<std::uint32_t>(beacons_sent_);
    broadcast(wire::make_beacon(config_.session_id, beacon));
    ++beacons_sent_;
  }
  if (!reports_sent_ && now >= window) {
    for (int origin = 0; origin < graph_.size(); ++origin) {
      if (origin == local_) continue;
      wire::ProbeReport report;
      report.reporter_local = static_cast<std::uint16_t>(local_);
      report.probed_local = static_cast<std::uint16_t>(origin);
      report.beacons_heard = beacons_heard_[static_cast<std::size_t>(origin)];
      report.window = static_cast<std::uint32_t>(count);
      stats_.probe_reports.push_back(report);
      broadcast(wire::make_report(config_.session_id, report));
    }
    reports_sent_ = true;
  }
}

// Caps of the stall boost: the timer and the redundancy multiplier each
// double per stall up to these.
constexpr double kStallBackoffMaxS = 6.0;
constexpr double kRedundancyBoostMax = 4.0;

void EmuNode::run_source(double now) {
  if (is_price_origin_) flood_prices(now);
  const double st = session_time(now);
  if (st < 0.0) return;
  if (!runtime_.generation_active()) {
    if (runtime_.maybe_start_generation(st, config_.cbr_bytes_per_s,
                                        config_.max_generations)) {
      stall_timeout_cur_ = config_.stall_timeout_s;
      stall_deadline_ = now + stall_timeout_cur_;
      redundancy_boost_ = 1.0;
    }
  }
  // Stall detection: a generation outliving its ACK deadline earns a bounded
  // redundancy boost (doubling rate multiplier and timer), so sustained
  // reverse-path loss is answered with more forward coded packets instead of
  // an idle source waiting for an ACK that keeps dying.
  if (config_.stall_timeout_s > 0.0 && runtime_.generation_active() &&
      now >= stall_deadline_) {
    redundancy_boost_ =
        std::min(redundancy_boost_ * 2.0, kRedundancyBoostMax);
    stall_timeout_cur_ = std::min(stall_timeout_cur_ * 2.0, kStallBackoffMaxS);
    stall_deadline_ = now + stall_timeout_cur_;
    ++stats_.stall_boosts;
    if (sink_) {
      protocols::MetricEvent event;
      event.type = protocols::MetricEvent::Type::kEmuStall;
      event.time = now;
      event.session = config_.session_id;
      event.node = graph_.node_id(local_);
      event.tx_local = local_;
      event.generation = runtime_.generation_id();
      event.value = redundancy_boost_;
      sink_(event);
    }
  }
}

// Price reflood period (virtual seconds).
constexpr double kPriceRepeatS = 0.5;

void EmuNode::flood_prices(double now) {
  if (price_flooded_once_ && now - last_price_flood_ < kPriceRepeatS) {
    return;
  }
  for (const wire::Frame& frame : price_frames_) broadcast(frame);
  price_flooded_once_ = true;
  last_price_flood_ = now;
}

// Fast ACK repeat period (virtual seconds), before ack_repeat_limit.
constexpr double kAckRepeatS = 0.05;

void EmuNode::run_destination(double now) {
  if (!have_ack_ || source_moved_on_) return;
  if (ack_resends_ >= config_.ack_repeat_limit) {
    // Repeat budget exhausted under sustained reverse-path loss: never go
    // mute (a silent destination deadlocks the source forever), drop to a
    // slow keepalive cadence until the source provably moves on.
    if (now - last_ack_send_ < config_.ack_keepalive_s) return;
    ++last_ack_.ack_seq;
    ++stats_.ack_keepalives;
    send_ack(now);
    return;
  }
  if (now - last_ack_send_ < kAckRepeatS) return;
  ++last_ack_.ack_seq;
  ++ack_resends_;
  send_ack(now);
}

void EmuNode::send_ack(double now) {
  broadcast(wire::make_ack(config_.session_id, last_ack_));
  last_ack_send_ = now;
}

// A stale price decays the installed rate toward this fraction of it.
constexpr double kPriceDecayFloor = 0.1;

double EmuNode::effective_rate(double now) {
  if (runtime_.role() == protocols::NodeRuntime::Role::kSource) {
    return rate_bytes_per_s_ * redundancy_boost_ * config_.source_redundancy;
  }
  double rate = rate_bytes_per_s_;
  if (rate_from_price_ && config_.price_stale_s > 0.0) {
    const double stale = now - last_price_time_ - config_.price_stale_s;
    if (stale > 0.0) {
      if (!price_stale_) {
        price_stale_ = true;
        ++stats_.price_decays;
      }
      rate *= std::max(kPriceDecayFloor,
                       std::exp(-stale / config_.price_decay_tau_s));
    } else {
      price_stale_ = false;
    }
  }
  return rate;
}

// Token-bucket burst cap, in packets.
constexpr double kBurstPackets = 8.0;

void EmuNode::pace(double now) {
  if (!pace_started_) {
    last_pace_time_ = now;
    pace_started_ = true;
    return;
  }
  const double dt = std::max(0.0, now - last_pace_time_);
  last_pace_time_ = now;
  if (rate_bytes_per_s_ <= 0.0) return;
  tokens_ = std::min(kBurstPackets * packet_air_bytes_,
                     tokens_ + effective_rate(now) * dt);
  if (runtime_.role() == protocols::NodeRuntime::Role::kDestination) return;
  if (session_time(now) < 0.0) return;
  const std::uint32_t live =
      runtime_.role() == protocols::NodeRuntime::Role::kSource
          ? runtime_.generation_id()
          : live_generation_;
  while (tokens_ >= packet_air_bytes_ && runtime_.can_send(live)) {
    // Steady-state transmit: the frame's packet vectors and the serialize
    // buffer are node members, so emitting a packet allocates nothing once
    // their capacity is warm.
    runtime_.next_packet_into(rng_, &tx_frame_.packet, &tx_structure_);
    // Structured packets (systematic originals, banded windows) ride the
    // compact frame, whose coefficient header is an index or a window slice
    // instead of n dense bytes; dense packets keep the pre-family frame and
    // its exact bytes.  The token bucket is charged the frame's actual air
    // size, so the compressed header converts directly into send budget.
    tx_frame_.type = tx_structure_.dense() ? wire::FrameType::kCodedData
                                           : wire::FrameType::kCodedDataCompact;
    tx_frame_.structure = tx_structure_;
    tx_frame_.session_id = tx_frame_.packet.session_id;
    // Every coded-data frame gets a span id on the wire (stamped whether or
    // not anything listens, so traced and untraced runs exchange
    // byte-identical traffic).  A recoded packet's causal parents are the
    // spans of the relay's buffered innovative packets; source packets are
    // DAG roots.
    tx_frame_.trace_origin = static_cast<std::uint16_t>(local_);
    tx_frame_.trace_seq = ++span_seq_;
    const obs::SpanId span{tx_frame_.trace_origin, tx_frame_.trace_seq};
    const std::uint32_t gen = tx_frame_.packet.generation_id;
    emit_span(obs::SpanEvent::Kind::kEnqueue, now, gen, span, -1, 0,
              basis_spans_);
    broadcast(tx_frame_);
    emit_span(obs::SpanEvent::Kind::kTransmit, now, gen, span, -1, 0);
    tokens_ -= tx_structure_.dense()
                   ? packet_air_bytes_
                   : static_cast<double>(coding::compact_wire_size(
                         tx_structure_, config_.coding.block_bytes));
    ++stats_.data_packets_sent;
  }
}

void EmuNode::on_frame(double now, int from,
                       std::span<const std::uint8_t> bytes) {
  ++stats_.frames_received;
  // Zero-copy fast path for the dominant frame type: a kCodedData frame
  // parses to a view whose spans alias the datagram buffer (full header
  // validation included); the coding layer copies the payload out only if
  // the packet is innovative.  Anything else — control frames, corruption —
  // falls through to the owning parse.
  wire::DataFrameView data;
  if (wire::DataFrameView::parse(bytes, &data)) {
    if (data.session_id != config_.session_id) {
      ++stats_.foreign_session_frames;
      return;
    }
    frame_clock_started_ = true;
    last_frame_time_ = now;
    resync_wait_s_ = config_.resync_silence_s;
    handle_data(now, from, data);
    return;
  }
  wire::Frame frame;
  if (!wire::Frame::parse(bytes, &frame)) {
    ++stats_.parse_errors;
    if (sink_) {
      protocols::MetricEvent event;
      event.type = protocols::MetricEvent::Type::kEmuParseError;
      event.time = now;
      event.session = config_.session_id;
      event.node = graph_.node_id(local_);
      event.rx_local = local_;
      event.value = static_cast<double>(bytes.size());
      sink_(event);
    }
    return;
  }
  if (frame.session_id != config_.session_id) {
    ++stats_.foreign_session_frames;
    return;
  }
  // Any valid frame of our session proves the channel is alive: reset the
  // resync silence clock and its backoff.
  frame_clock_started_ = true;
  last_frame_time_ = now;
  resync_wait_s_ = config_.resync_silence_s;
  switch (frame.type) {
    case wire::FrameType::kCodedData:
    case wire::FrameType::kCodedDataCompact:
      break;  // unreachable: data frames took the view fast path above
    case wire::FrameType::kGenerationAck:
      handle_ack(now, frame.ack);
      break;
    case wire::FrameType::kProbeBeacon:
      if (frame.beacon.origin_local < beacons_heard_.size()) {
        ++beacons_heard_[frame.beacon.origin_local];
      }
      break;
    case wire::FrameType::kProbeReport:
      stats_.probe_reports.push_back(frame.report);
      break;
    case wire::FrameType::kPriceUpdate:
      handle_price(now, frame.price);
      break;
    case wire::FrameType::kResyncRequest:
      handle_resync_request(now, frame.resync_request);
      break;
    case wire::FrameType::kResyncInfo:
      handle_resync_info(now, frame.resync_info);
      break;
  }
}

void EmuNode::handle_data(double now, int from,
                          const wire::DataFrameView& frame) {
  const coding::CodedPacketView& packet = frame.packet;
  const std::uint32_t gen = packet.generation_id;
  const obs::SpanId span{frame.trace_origin, frame.trace_seq};
  switch (runtime_.role()) {
    case protocols::NodeRuntime::Role::kSource:
      break;  // echo of the session's own traffic
    case protocols::NodeRuntime::Role::kRelay: {
      live_generation_ = std::max(live_generation_, gen);
      if (gen > runtime_.generation_id()) {
        if (runtime_.flush_to(gen)) basis_spans_.clear();
      }
      if (gen == runtime_.generation_id()) {
        const auto outcome = runtime_.receive(packet, frame.structure);
        emit_span(obs::SpanEvent::Kind::kReceive, now, gen, span, from,
                  runtime_.rank());
        if (outcome.innovative) {
          ++stats_.innovative_received;
          if (span.valid()) basis_spans_.push_back(span);
          emit_span(obs::SpanEvent::Kind::kInnovate, now, gen, span, from,
                    runtime_.rank());
        }
      }
      break;
    }
    case protocols::NodeRuntime::Role::kDestination: {
      if (have_ack_ && gen > last_ack_.generation_id) {
        // Fresh-generation data means the source heard our ACK; stop
        // repeating it.
        source_moved_on_ = true;
      }
      if (gen != runtime_.generation_id()) break;  // stale (already decoded)
      const auto outcome = runtime_.receive(packet, frame.structure);
      emit_span(obs::SpanEvent::Kind::kReceive, now, gen, span, from,
                runtime_.rank());
      if (outcome.innovative) {
        ++stats_.innovative_received;
        if (span.valid()) basis_spans_.push_back(span);
        emit_span(obs::SpanEvent::Kind::kInnovate, now, gen, span, from,
                  runtime_.rank(), {}, outcome.pivot, outcome.uncoded);
      }
      if (!outcome.generation_complete) break;
      // Decode finished: check the plaintext byte for byte against the
      // source's synthetic stream, then start the ACK flood.  recover_into
      // reuses the node's scratch buffer (its capacity persists across
      // generations — the geometry is fixed per session).
      recover_buf_.resize(runtime_.recovered_size());
      runtime_.recover_into(std::span<std::uint8_t>(recover_buf_));
      if (recover_buf_.size() != config_.coding.generation_bytes() ||
          !coding::matches_synthetic(gen, config_.data_seed, recover_buf_)) {
        stats_.data_ok = false;
      }
      ++stats_.generations_completed;
      completed_.store(stats_.generations_completed,
                       std::memory_order_relaxed);
      // The decode span's parents are every innovative packet that entered
      // the decoding basis — the DAG edge set trace_inspect walks back to
      // the source roots.
      emit_span(obs::SpanEvent::Kind::kDecode, now, gen, span, from,
                basis_spans_.size(), basis_spans_);
      runtime_.advance_generation();
      basis_spans_.clear();
      last_ack_ = wire::GenerationAck{gen,
                                      static_cast<std::uint16_t>(local_), 0};
      have_ack_ = true;
      source_moved_on_ = false;
      ack_resends_ = 0;
      send_ack(now);
      break;
    }
  }
}

void EmuNode::handle_ack(double now, const wire::GenerationAck& ack) {
  switch (runtime_.role()) {
    case protocols::NodeRuntime::Role::kSource: {
      if (!runtime_.generation_active() ||
          ack.generation_id != runtime_.generation_id()) {
        break;  // duplicate of an already-retired generation
      }
      const double latency =
          session_time(now) - runtime_.generation_start_time();
      runtime_.complete_generation();
      // The reverse path works again: stand the redundancy boost down until
      // the next generation's stall timer re-arms it.
      redundancy_boost_ = 1.0;
      stall_deadline_ = std::numeric_limits<double>::infinity();
      stats_.ack_latencies.push_back(latency);
      stats_.last_ack_time = session_time(now);
      ++stats_.generations_completed;
      completed_.store(stats_.generations_completed,
                       std::memory_order_relaxed);
      if (sink_) {
        protocols::MetricEvent event;
        event.type = protocols::MetricEvent::Type::kGenerationAck;
        event.time = session_time(now);
        event.session = config_.session_id;
        event.node = graph_.node_id(local_);
        event.generation = ack.generation_id;
        event.value = latency;
        sink_(event);
      }
      break;
    }
    case protocols::NodeRuntime::Role::kRelay: {
      // The ACK retires generation `id`; retarget the buffer and stay quiet
      // until data of the next generation arrives.
      live_generation_ = std::max(live_generation_, ack.generation_id + 1);
      if (ack.generation_id >= runtime_.generation_id()) {
        if (runtime_.flush_to(ack.generation_id + 1)) basis_spans_.clear();
      }
      // Flood forwarding with (generation, seq) dedup per origin.
      if (ack.origin_local < forwarded_acks_.size()) {
        AckKey& key = forwarded_acks_[ack.origin_local];
        const bool newer =
            !key.seen || ack.generation_id > key.generation ||
            (ack.generation_id == key.generation && ack.ack_seq > key.seq);
        if (newer) {
          key = AckKey{ack.generation_id, ack.ack_seq, true};
          broadcast(wire::make_ack(config_.session_id, ack));
        }
      }
      break;
    }
    case protocols::NodeRuntime::Role::kDestination:
      break;  // its own flood, reflected back
  }
  (void)now;
}

// Minimum virtual seconds between re-floods of one node's price.  The
// forward gap sits just under the reflood period (kPriceRepeatS) so each
// periodic reflood propagates once — a smaller gap lets forwarded copies
// re-trigger each other into a control storm.
constexpr double kPriceForwardMinGapS = 0.45;

void EmuNode::handle_price(double now, const wire::PriceUpdate& price) {
  if (is_price_origin_) return;  // the source originates, never re-installs
  if (price.node_local == static_cast<std::uint16_t>(local_) &&
      (!stats_.rate_installed ||
       price.iteration >= installed_price_iteration_)) {
    installed_price_iteration_ = price.iteration;
    install_rate(price.rate_bytes_per_s);
    // Freshness for the staleness decay: even a same-iteration repeat proves
    // the price plane still reaches us.
    rate_from_price_ = true;
    price_stale_ = false;
    last_price_time_ = now;
  }
  // Re-flood: once per new iteration, and at most once per
  // kPriceForwardMinGapS per advertised node otherwise (so repeated
  // source floods still propagate to nodes the first wave missed).
  const std::size_t index = price.node_local;
  if (index >= last_price_forward_.size()) return;
  const bool new_iteration = price.iteration > forwarded_price_iter_[index];
  const bool gap_elapsed =
      now - last_price_forward_[index] >= kPriceForwardMinGapS;
  if (new_iteration || gap_elapsed) {
    forwarded_price_iter_[index] = price.iteration;
    last_price_forward_[index] = now;
    wire::PriceUpdate copy = price;
    broadcast(wire::make_price(config_.session_id, std::move(copy)));
  }
}

void EmuNode::handle_resync_request(double now,
                                    const wire::ResyncRequest& request) {
  if (runtime_.role() == protocols::NodeRuntime::Role::kSource) {
    if (now - last_resync_reply_ < config_.resync_reply_min_gap_s) return;
    last_resync_reply_ = now;
    wire::ResyncInfo info;
    info.generation_id = runtime_.generation_id();
    info.price_iteration = source_price_iteration_;
    broadcast(wire::make_resync_info(config_.session_id, info));
    ++stats_.resync_replies;
    // The requester likely missed price floods too; reflood immediately
    // instead of waiting out the periodic timer.
    if (is_price_origin_) price_flooded_once_ = false;
    return;
  }
  if (request.origin_local == static_cast<std::uint16_t>(local_)) {
    return;  // own request, reflected back
  }
  // Forward toward the source, one copy per origin per reply gap (the same
  // storm guard the source's reply uses).
  if (request.origin_local >= last_resync_forward_.size()) return;
  if (now - last_resync_forward_[request.origin_local] <
      config_.resync_reply_min_gap_s) {
    return;
  }
  last_resync_forward_[request.origin_local] = now;
  broadcast(wire::make_resync_request(config_.session_id, request));
}

void EmuNode::handle_resync_info(double now, const wire::ResyncInfo& info) {
  if (runtime_.role() == protocols::NodeRuntime::Role::kSource) {
    return;  // its own answer, reflected back
  }
  const std::uint32_t gen = info.generation_id;
  live_generation_ = std::max(live_generation_, gen);
  if (runtime_.role() == protocols::NodeRuntime::Role::kRelay &&
      gen > runtime_.generation_id()) {
    // Fast-forward the recode buffer to the live generation instead of
    // waiting for fresh data to reveal it.
    if (runtime_.flush_to(gen)) basis_spans_.clear();
  }
  if (runtime_.role() == protocols::NodeRuntime::Role::kDestination &&
      have_ack_ && gen > last_ack_.generation_id) {
    source_moved_on_ = true;  // the source provably heard our ACK
  }
  // Re-flood each newly learned live generation once, so the answer reaches
  // requesters the source's broadcast missed.
  if (static_cast<std::int64_t>(gen) > forwarded_resync_info_gen_) {
    forwarded_resync_info_gen_ = static_cast<std::int64_t>(gen);
    broadcast(wire::make_resync_info(config_.session_id, info));
  }
  (void)now;
}

}  // namespace omnc::emu
