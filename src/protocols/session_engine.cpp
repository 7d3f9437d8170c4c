#include "protocols/session_engine.h"

#include <algorithm>
#include <memory>
#include <span>
#include <utility>

#include "common/assert.h"
#include "common/logging.h"
#include "obs/registry.h"
#include "routing/etx.h"

namespace omnc::protocols {
namespace {

/// Peeks the session id out of a serialized coded packet without a full
/// parse (bytes 0..3 of the header, big endian).
std::uint32_t frame_session_id(const std::vector<std::uint8_t>& wire) {
  OMNC_ASSERT(wire.size() >= coding::CodedPacket::kHeaderBytes);
  return (static_cast<std::uint32_t>(wire[0]) << 24) |
         (static_cast<std::uint32_t>(wire[1]) << 16) |
         (static_cast<std::uint32_t>(wire[2]) << 8) | wire[3];
}

/// Same for the generation id (bytes 4..7).
std::uint32_t frame_generation_id(const std::vector<std::uint8_t>& wire) {
  OMNC_ASSERT(wire.size() >= coding::CodedPacket::kHeaderBytes);
  return (static_cast<std::uint32_t>(wire[4]) << 24) |
         (static_cast<std::uint32_t>(wire[5]) << 16) |
         (static_cast<std::uint32_t>(wire[6]) << 8) | wire[7];
}

}  // namespace

/// A frame's wire bytes and, while its payload bytes are unwritten, the
/// emission's fold and its emitter.  Frames on the engine's MAC all come
/// from the pool, so a frame's bytes are always a Buffer.
class SessionEngine::FramePool::Buffer final
    : public std::vector<std::uint8_t>,
      public coding::DeferredPayload {
 public:
  void fold() const override {
    if (emitter == nullptr) return;
    emitter->fold_into(recipe, payload);
    emitter = nullptr;  // at most once; later readers see the bytes
  }

  coding::PayloadFold recipe;
  std::uint8_t* payload = nullptr;  // the payload region of this buffer
  mutable const NodeRuntime* emitter = nullptr;  // null once written
};

SessionEngine::FramePool::~FramePool() {
  OMNC_ASSERT_MSG(in_flight_ == 0, "a frame outlived its buffer pool");
}

std::shared_ptr<const std::vector<std::uint8_t>>
SessionEngine::FramePool::serialize(const coding::CodedPacket& head,
                                    const coding::PayloadFold& fold,
                                    const NodeRuntime& emitter) {
  std::unique_ptr<Buffer> buffer;
  if (free_buffers_.empty()) {
    buffer = std::make_unique<Buffer>();
  } else {
    buffer = std::move(free_buffers_.back());
    free_buffers_.pop_back();
  }
  const std::size_t head_bytes = head.wire_size();
  buffer->resize(head_bytes + head.block_bytes);
  head.serialize_head_to(*buffer);
  buffer->recipe.first_row = fold.first_row;
  buffer->recipe.factors.assign(fold.factors.begin(), fold.factors.end());
  buffer->payload = buffer->data() + head_bytes;
  buffer->emitter = &emitter;
  ++in_flight_;
  return {buffer.release(), Release{this},
          std::pmr::polymorphic_allocator<std::byte>(&control_blocks_)};
}

const coding::DeferredPayload* SessionEngine::FramePool::pending_fold(
    const net::Frame& frame) {
  const Buffer& buffer = static_cast<const Buffer&>(*frame.bytes);
  return buffer.emitter != nullptr ? &buffer : nullptr;
}

void SessionEngine::FramePool::fold_if_from(const net::Frame& frame,
                                            const NodeRuntime& emitter) {
  const Buffer& buffer = static_cast<const Buffer&>(*frame.bytes);
  if (buffer.emitter == &emitter) buffer.fold();
}

void SessionEngine::FramePool::Release::operator()(Buffer* buffer) const {
  buffer->emitter = nullptr;  // a frame dropped unread is never folded
  pool->free_buffers_.emplace_back(buffer);
  --pool->in_flight_;
}

void SessionEngine::MacTap::on_transmit(sim::Time now, net::NodeId node) {
  MetricEvent event;
  event.type = MetricEvent::Type::kTx;
  event.time = now;
  event.node = node;
  bus_->emit(event);
}

void SessionEngine::MacTap::on_queue_sample(sim::Time now, net::NodeId node,
                                            std::size_t queue_len) {
  MetricEvent event;
  event.type = MetricEvent::Type::kQueueSample;
  event.time = now;
  event.node = node;
  event.value = static_cast<double>(queue_len);
  bus_->emit(event);
}

void SessionEngine::MacTap::on_drop(sim::Time now, net::NodeId node) {
  MetricEvent event;
  event.type = MetricEvent::Type::kQueueDrop;
  event.time = now;
  event.node = node;
  bus_->emit(event);
}

void SessionEngine::MacTap::on_contention(sim::Time now, net::NodeId node,
                                          int contenders, bool attempted) {
  if (!detail_) return;
  MetricEvent event;
  event.type = MetricEvent::Type::kMacContention;
  event.time = now;
  event.node = node;
  event.value = static_cast<double>(contenders);
  event.innovative = attempted;
  bus_->emit(event);
}

void SessionEngine::MacTap::on_collision(sim::Time now, net::NodeId rx) {
  if (!detail_) return;
  MetricEvent event;
  event.type = MetricEvent::Type::kMacCollision;
  event.time = now;
  event.node = rx;
  bus_->emit(event);
}

SessionEngine::SessionEngine(const net::Topology& topology,
                             std::vector<EngineSessionSpec> specs,
                             const EngineConfig& config)
    : topology_(topology),
      config_(config),
      rng_(config.protocol.seed),
      mac_tap_(bus_, config.detail_events) {
  OMNC_ASSERT(!specs.empty());

  // One MAC over the union of all session nodes, in first-seen order (for a
  // single session this is the graph-local order, which the MAC's per-link
  // fading initialization depends on).
  std::vector<net::NodeId> participants;
  std::vector<bool> seen(static_cast<std::size_t>(topology_.node_count()),
                         false);
  for (const EngineSessionSpec& spec : specs) {
    OMNC_ASSERT(spec.graph != nullptr && spec.policy != nullptr);
    OMNC_ASSERT(spec.graph->size() >= 2);
    for (net::NodeId id : spec.graph->nodes) {
      if (seen[static_cast<std::size_t>(id)]) continue;
      seen[static_cast<std::size_t>(id)] = true;
      participants.push_back(id);
    }
  }
  mac_ = std::make_unique<net::SlottedMac>(simulator_, topology_, participants,
                                           config_.protocol.mac,
                                           rng_.fork(config_.mac_rng_salt));

  sessions_.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const EngineSessionSpec& spec = specs[s];
    const routing::SessionGraph& graph = *spec.graph;
    Session session;
    session.graph = spec.graph;
    session.policy = spec.policy;
    session.runtimes.reserve(static_cast<std::size_t>(graph.size()));
    for (int local = 0; local < graph.size(); ++local) {
      if (local == graph.source) {
        session.runtimes.push_back(NodeRuntime::source(
            config_.protocol.coding, static_cast<std::uint32_t>(s),
            spec.data_seed, config_.protocol.code));
      } else if (local == graph.destination) {
        session.runtimes.push_back(NodeRuntime::destination(
            config_.protocol.coding, config_.protocol.code));
      } else {
        session.runtimes.push_back(NodeRuntime::relay(
            config_.protocol.coding, static_cast<std::uint32_t>(s),
            config_.protocol.code));
      }
    }
    const std::size_t v = static_cast<std::size_t>(graph.size());
    session.edge_index.assign(v * v, -1);
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      session.edge_index[static_cast<std::size_t>(graph.edges[e].from) * v +
                         static_cast<std::size_t>(graph.edges[e].to)] =
          static_cast<int>(e);
    }
    session.ack_delay_s = compute_ack_delay(graph);
    sessions_.push_back(std::move(session));
  }
}

double SessionEngine::compute_ack_delay(
    const routing::SessionGraph& graph) const {
  // ACK latency over the reverse min-ETX path: per hop, ETX retransmissions
  // of one slot each.  The ACK itself is assumed not to consume data-channel
  // slots (it is a short control packet on the reverse path).  With no
  // reverse connectivity (possible with asymmetric link matrices) the
  // forward path cost is charged instead; with neither, a flat 4-slot cost.
  const auto reverse_route =
      routing::etx_route(topology_, graph.node_id(graph.destination),
                         graph.node_id(graph.source));
  double etx_sum = 4.0;
  if (reverse_route.size() >= 2) {
    etx_sum = routing::route_etx(topology_, reverse_route);
  } else {
    const auto forward_route =
        routing::etx_route(topology_, graph.node_id(graph.source),
                           graph.node_id(graph.destination));
    if (forward_route.size() >= 2) {
      etx_sum = routing::route_etx(topology_, forward_route);
    }
  }
  return etx_sum * (static_cast<double>(config_.protocol.mac.slot_bytes) /
                    config_.protocol.mac.capacity_bytes_per_s);
}

std::size_t SessionEngine::mac_queue_size(std::size_t session,
                                          int local) const {
  return mac_->queue_size(sessions_[session].graph->node_id(local));
}

int SessionEngine::generations_completed(std::size_t session) const {
  const Session& state = sessions_[session];
  return state.runtimes[static_cast<std::size_t>(state.graph->source)]
      .generations_completed();
}

void SessionEngine::run() {
  mac_->set_receive_handler([this](net::NodeId rx, const net::Frame& frame) {
    on_receive_frame(rx, frame);
  });
  mac_->add_slot_hook([this](sim::Time now) { on_slot(now); });
  mac_->set_observer(&mac_tap_);
  mac_->start();

  simulator_.run_until(config_.protocol.max_sim_seconds);
  mac_->stop();
}

void SessionEngine::maybe_start_generation(std::size_t session,
                                           sim::Time now) {
  Session& state = sessions_[session];
  NodeRuntime& source =
      state.runtimes[static_cast<std::size_t>(state.graph->source)];
  if (source.maybe_start_generation(now, config_.protocol.cbr_bytes_per_s,
                                    config_.protocol.max_generations)) {
    OMNC_LOG_TRACE("session %zu: generation %u starts at t=%.2f", session,
                   source.generation_id(), now);
    state.policy->on_generation_start();
  }
}

void SessionEngine::on_slot(sim::Time now) {
  OMNC_SCOPED_TIMER("engine/slot");
  const double slot_seconds = mac_->slot_duration();
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    maybe_start_generation(s, now);
    Session& state = sessions_[s];
    const routing::SessionGraph& graph = *state.graph;
    const std::uint32_t live =
        state.runtimes[static_cast<std::size_t>(graph.source)]
            .generation_id();
    for (int local = 0; local < graph.size(); ++local) {
      if (local == graph.destination) continue;
      NodeRuntime& node = state.runtimes[static_cast<std::size_t>(local)];
      // Policies are only consulted while the node holds something to send,
      // so credits/tokens are not consumed during forced idleness.
      if (!node.can_send(live)) continue;
      const int wanted = state.policy->packets_to_enqueue(local, slot_seconds);
      if (wanted <= 0) continue;
      for (int k = 0; k < wanted; ++k) {
        // Only the draw runs here; a receiver that accepts the frame runs
        // the payload fold (DESIGN.md §9).
        net::Frame frame;
        node.draw_into(rng_, &tx_packet_, &frame.structure, &tx_fold_);
        frame.from = graph.node_id(local);
        frame.to = net::kBroadcast;
        frame.bytes = frame_pool_.serialize(tx_packet_, tx_fold_, node);
        if (!mac_->enqueue(std::move(frame))) {
          break;  // queue full (MacTap counted the drop); stop for this slot
        }
      }
    }
  }
}

void SessionEngine::emit_rx(std::size_t session, net::NodeId rx, int tx_local,
                            int rx_local, int edge, bool innovative) {
  MetricEvent event;
  event.type = MetricEvent::Type::kRx;
  event.time = simulator_.now();
  event.session = static_cast<std::uint32_t>(session);
  event.node = rx;
  event.tx_local = tx_local;
  event.rx_local = rx_local;
  event.edge = edge;
  event.innovative = innovative;
  bus_.emit(event);
}

void SessionEngine::on_receive_frame(net::NodeId rx, const net::Frame& frame) {
  const std::uint32_t s = frame_session_id(*frame.bytes);
  if (s >= sessions_.size()) return;
  Session& state = sessions_[s];
  const routing::SessionGraph& graph = *state.graph;
  const int rx_local = graph.local_index(rx);
  if (rx_local < 0) return;  // overheard by a node outside this session
  const int tx_local = graph.local_index(frame.from);
  OMNC_ASSERT(tx_local >= 0);

  const std::uint32_t frame_gen = frame_generation_id(*frame.bytes);
  NodeRuntime& node = state.runtimes[static_cast<std::size_t>(rx_local)];

  if (rx_local == graph.destination) {
    // The decoder may already sit one generation ahead of the in-flight ACK;
    // packets of expired generations are ignored (the decoder's own id check
    // rejects them too, this just skips the parse).
    if (frame_gen != node.generation_id()) {
      emit_rx(s, rx, tx_local, rx_local, -1, false);
      return;
    }
  } else if (rx_local == graph.source) {
    emit_rx(s, rx, tx_local, rx_local, -1, false);
    return;  // the source ignores data packets
  } else {
    // A packet with a higher generation id dictates discarding the expired
    // generation (Sec. 4); with the ACK flush below this is a rare fallback.
    if (frame_gen > node.generation_id()) {
      flush_relay_to(s, rx_local, frame_gen);
    }
    if (frame_gen < node.generation_id()) {
      emit_rx(s, rx, tx_local, rx_local, -1, false);
      return;  // stale
    }
  }

  // The view aliases the frame's bytes, which the MAC keeps alive for the
  // whole handler; the runtime copies what it keeps before returning.  The
  // payload bytes are folded the first time an accepting runtime reads them.
  coding::CodedPacketView view;
  const bool ok = coding::CodedPacketView::parse(*frame.bytes, &view);
  OMNC_ASSERT_MSG(ok, "malformed frame on the air");
  view.deferred = FramePool::pending_fold(frame);

  // The sim's bytes are always the dense wire form, but the frame's
  // structure side channel keeps the structured decoders' fast paths alive;
  // the view is re-sliced to the structure's explicit coefficient bytes.
  switch (frame.structure.kind) {
    case coding::CodedStructure::Kind::kDense:
      break;
    case coding::CodedStructure::Kind::kUncoded:
      view.coefficients = {};
      break;
    case coding::CodedStructure::Kind::kWindow:
      view.coefficients =
          view.coefficients.subspan(frame.structure.offset,
                                    frame.structure.width);
      break;
  }
  const NodeRuntime::ReceiveOutcome outcome =
      node.receive(view, frame.structure);
  int edge = -1;
  if (outcome.innovative) {
    const std::size_t v = static_cast<std::size_t>(graph.size());
    edge = state.edge_index[static_cast<std::size_t>(tx_local) * v +
                            static_cast<std::size_t>(rx_local)];
  }
  emit_rx(s, rx, tx_local, rx_local, edge, outcome.innovative);
  state.policy->on_reception(rx_local, tx_local, outcome.innovative);

  if (rx_local == graph.destination && outcome.generation_complete) {
    // End-to-end integrity: the progressively decoded generation must be
    // byte-identical to what the source encoded.
    recovered_.resize(node.recovered_size());
    node.recover_into(std::span<std::uint8_t>(recovered_));
    const NodeRuntime& source =
        state.runtimes[static_cast<std::size_t>(graph.source)];
    OMNC_ASSERT_MSG(
        std::equal(recovered_.begin(), recovered_.end(),
                   source.generation().bytes().begin()),
        "decoded generation does not match the source data");
    const double ack_time = simulator_.now() + state.ack_delay_s;
    // The destination moves on immediately; packets of the old generation
    // are rejected by generation id from now on.
    node.advance_generation();
    simulator_.schedule_at(ack_time,
                           [this, s, ack_time] { deliver_ack(s, ack_time); });
  }
}

void SessionEngine::flush_relay_to(std::size_t session, int local,
                                   std::uint32_t generation_id) {
  Session& state = sessions_[session];
  NodeRuntime& relay = state.runtimes[static_cast<std::size_t>(local)];
  OMNC_ASSERT(relay.role() == NodeRuntime::Role::kRelay);
  if (relay.generation_id() == generation_id) return;
  settle_queued(session, local, generation_id);
  relay.flush_to(generation_id);
  MetricEvent event;
  event.type = MetricEvent::Type::kStaleFlush;
  event.time = simulator_.now();
  event.session = static_cast<std::uint32_t>(session);
  event.node = state.graph->node_id(local);
  event.generation = generation_id;
  bus_.emit(event);
}

void SessionEngine::settle_queued(std::size_t session, int local,
                                  std::uint32_t generation_id) {
  const Session& state = sessions_[session];
  const net::NodeId node = state.graph->node_id(local);
  if (config_.protocol.flush_stale_frames) {
    const std::uint32_t s = static_cast<std::uint32_t>(session);
    mac_->purge_queue(node, [s, generation_id](const net::Frame& frame) {
      return frame_session_id(*frame.bytes) == s &&
             frame_generation_id(*frame.bytes) < generation_id;
    });
    return;
  }
  // Queued congestion costs channel time, and a relay still on the frames'
  // generation may yet accept one: fold while the rows are the draw's.
  const NodeRuntime& emitter = state.runtimes[static_cast<std::size_t>(local)];
  mac_->for_each_queued(node, [&emitter](const net::Frame& frame) {
    FramePool::fold_if_from(frame, emitter);
  });
}

void SessionEngine::deliver_ack(std::size_t session, double ack_time) {
  Session& state = sessions_[session];
  const routing::SessionGraph& graph = *state.graph;
  NodeRuntime& source =
      state.runtimes[static_cast<std::size_t>(graph.source)];
  OMNC_ASSERT(source.generation_active());
  const double elapsed = ack_time - source.generation_start_time();
  OMNC_ASSERT(elapsed > 0.0);
  const std::uint32_t completed = source.generation_id();
  // Once retired, the source's blocks may be refilled for the next
  // generation (below, or at a later slot).
  settle_queued(session, graph.source, completed + 1);
  source.complete_generation();
  OMNC_LOG_TRACE("session %zu: generation %u acked at t=%.2f", session,
                 completed, ack_time);

  MetricEvent event;
  event.type = MetricEvent::Type::kGenerationAck;
  event.time = ack_time;
  event.session = static_cast<std::uint32_t>(session);
  event.node = graph.node_id(graph.source);
  event.generation = completed;
  event.value = elapsed;
  bus_.emit(event);

  // The ACK is pseudo-broadcast on its way back: every node of the session
  // learns the generation expired.  Relays drop buffered packets of the old
  // generation (and, like the source above, settle their queued ones).
  const std::uint32_t live = source.generation_id();
  for (int local = 0; local < graph.size(); ++local) {
    if (local == graph.source || local == graph.destination) continue;
    flush_relay_to(session, local, live);
  }
  maybe_start_generation(session, simulator_.now());

  bool all_done = true;
  for (std::size_t other = 0; other < sessions_.size(); ++other) {
    if (generations_completed(other) < config_.protocol.max_generations) {
      all_done = false;
      break;
    }
  }
  if (all_done) simulator_.stop();
}

}  // namespace omnc::protocols
