#include "protocols/metrics_bus.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "routing/path_count.h"

namespace omnc::protocols {

void MetricsBus::subscribe(TraceSink* sink) {
  if (sink == nullptr) return;
  sinks_.push_back(sink);
}

void MetricsBus::unsubscribe(TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

SessionResultSink::SessionResultSink(
    std::vector<const routing::SessionGraph*> graphs,
    const coding::CodingParams& coding, int topology_nodes)
    : coding_(coding) {
  OMNC_ASSERT(!graphs.empty());
  sessions_.resize(graphs.size());
  for (std::size_t s = 0; s < graphs.size(); ++s) {
    OMNC_ASSERT(graphs[s] != nullptr);
    sessions_[s].graph = graphs[s];
    sessions_[s].edge_innovative.assign(graphs[s]->edges.size(), 0);
  }
  node_transmissions_.assign(static_cast<std::size_t>(topology_nodes), 0);
  node_queue_.assign(static_cast<std::size_t>(topology_nodes), TimeAverage{});
}

void SessionResultSink::on_event(const MetricEvent& event) {
  switch (event.type) {
    case MetricEvent::Type::kTx:
      ++transmissions_;
      ++node_transmissions_[static_cast<std::size_t>(event.node)];
      break;
    case MetricEvent::Type::kRx: {
      PerSession& session = sessions_[event.session];
      ++session.packets_delivered;
      if (event.innovative && event.edge >= 0) {
        ++session.edge_innovative[static_cast<std::size_t>(event.edge)];
      }
      break;
    }
    case MetricEvent::Type::kQueueSample:
      node_queue_[static_cast<std::size_t>(event.node)].advance_to(
          event.time, event.value);
      break;
    case MetricEvent::Type::kGenerationAck: {
      PerSession& session = sessions_[event.session];
      ++session.generations_completed;
      session.last_ack_time = event.time;
      // event.value is the generation's start-to-ACK latency in seconds.
      session.per_generation_throughput.push_back(
          static_cast<double>(coding_.generation_bytes()) / event.value);
      break;
    }
    case MetricEvent::Type::kStaleFlush:
      break;  // not part of SessionResult; QueueTimelineSink-style sinks use it
    case MetricEvent::Type::kQueueDrop:
      ++queue_drops_;
      break;
    case MetricEvent::Type::kMacContention:
    case MetricEvent::Type::kMacCollision:
      break;  // trace-only detail; no SessionResult field derives from them
    case MetricEvent::Type::kEmuSend:
    case MetricEvent::Type::kEmuDrop:
    case MetricEvent::Type::kEmuDeliver:
    case MetricEvent::Type::kEmuParseError:
    case MetricEvent::Type::kEmuFaultLoss:
    case MetricEvent::Type::kEmuFaultReorder:
    case MetricEvent::Type::kEmuFaultDup:
    case MetricEvent::Type::kEmuFaultPartition:
    case MetricEvent::Type::kEmuFaultBlackout:
    case MetricEvent::Type::kEmuResync:
    case MetricEvent::Type::kEmuStall:
      break;  // emulation detail; aggregated by trace_inspect
  }
}

SessionResult SessionResultSink::assemble(std::size_t session,
                                          SessionResult base) const {
  const PerSession& state = sessions_[session];
  const routing::SessionGraph& graph = *state.graph;
  SessionResult result = std::move(base);
  result.connected = true;

  result.transmissions = transmissions_;
  result.queue_drops = queue_drops_;
  result.packets_delivered = state.packets_delivered;
  result.generations_completed = state.generations_completed;

  if (!state.per_generation_throughput.empty()) {
    double sum = 0.0;
    for (double value : state.per_generation_throughput) sum += value;
    result.throughput_per_generation =
        sum / static_cast<double>(state.per_generation_throughput.size());
    result.throughput_bytes_per_s =
        static_cast<double>(result.generations_completed) *
        static_cast<double>(coding_.generation_bytes()) / state.last_ack_time;
  }

  // Fig. 3: mean over involved nodes of the per-node time-averaged queue,
  // summed in graph-local order.
  double queue_sum = 0.0;
  int involved = 0;
  for (int local = 0; local < graph.size(); ++local) {
    const std::size_t id = static_cast<std::size_t>(graph.node_id(local));
    if (node_transmissions_[id] == 0) continue;
    queue_sum += node_queue_[id].average();
    ++involved;
  }
  result.mean_queue = involved > 0 ? queue_sum / involved : 0.0;

  // Fig. 4: node and path utility ratios.
  int transmitters = 0;
  int selectable = 0;
  for (int local = 0; local < graph.size(); ++local) {
    if (local == graph.destination) continue;
    ++selectable;
    const std::size_t id = static_cast<std::size_t>(graph.node_id(local));
    if (node_transmissions_[id] > 0) ++transmitters;
  }
  result.node_utility_ratio =
      selectable > 0 ? static_cast<double>(transmitters) / selectable : 0.0;

  std::vector<bool> active(graph.edges.size(), false);
  for (std::size_t e = 0; e < graph.edges.size(); ++e) {
    active[e] = state.edge_innovative[e] > 0;
  }
  const double available = routing::count_paths(graph);
  const double used = routing::count_paths_filtered(graph, active);
  result.path_utility_ratio = available > 0.0 ? used / available : 0.0;
  return result;
}

double SessionResultSink::shared_mean_queue() const {
  double queue_sum = 0.0;
  int involved = 0;
  for (std::size_t id = 0; id < node_transmissions_.size(); ++id) {
    if (node_transmissions_[id] == 0) continue;
    queue_sum += node_queue_[id].average();
    ++involved;
  }
  return involved > 0 ? queue_sum / involved : 0.0;
}

QueueTimelineSink::QueueTimelineSink(int topology_nodes) {
  timelines_.resize(static_cast<std::size_t>(topology_nodes));
  averages_.assign(static_cast<std::size_t>(topology_nodes), TimeAverage{});
}

void QueueTimelineSink::on_event(const MetricEvent& event) {
  if (event.type != MetricEvent::Type::kQueueSample) return;
  // Samples for nodes outside the topology range (a replayed trace from a
  // different deployment, a buggy emitter) are dropped rather than indexed.
  if (event.node < 0 ||
      static_cast<std::size_t>(event.node) >= timelines_.size()) {
    return;
  }
  const std::size_t id = static_cast<std::size_t>(event.node);
  timelines_[id].push_back({event.time, event.value});
  averages_[id].advance_to(event.time, event.value);
}

const std::vector<QueueTimelineSink::Sample>& QueueTimelineSink::timeline(
    net::NodeId node) const {
  return timelines_[static_cast<std::size_t>(node)];
}

double QueueTimelineSink::time_average(net::NodeId node) const {
  return averages_[static_cast<std::size_t>(node)].average();
}

EdgeDeliverySink::EdgeDeliverySink(
    std::vector<const routing::SessionGraph*> graphs) {
  deliveries_.resize(graphs.size());
  for (std::size_t s = 0; s < graphs.size(); ++s) {
    OMNC_ASSERT(graphs[s] != nullptr);
    deliveries_[s].assign(graphs[s]->edges.size(), 0);
  }
}

void EdgeDeliverySink::on_event(const MetricEvent& event) {
  if (event.type != MetricEvent::Type::kRx) return;
  if (!event.innovative || event.edge < 0) return;
  // Unknown sessions or edge ids beyond the session graph (empty graphs
  // included) are ignored instead of indexed out of range.
  if (event.session >= deliveries_.size()) return;
  auto& edges = deliveries_[event.session];
  if (static_cast<std::size_t>(event.edge) >= edges.size()) return;
  ++edges[static_cast<std::size_t>(event.edge)];
}

}  // namespace omnc::protocols
