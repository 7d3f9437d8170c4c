#include "emu/loopback_transport.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace omnc::emu {

std::vector<double> link_matrix_from_graph(const routing::SessionGraph& graph) {
  const int n = graph.size();
  std::vector<double> link_p(static_cast<std::size_t>(n) * n, 0.0);
  for (const routing::SessionGraph::Edge& edge : graph.edges) {
    // The DAG edge is directed downstream, but the radio channel is
    // reciprocal: ACK and price floods must be able to travel upstream.
    // Links are assumed symmetric (true for every link-matrix topology in
    // this repo); use link_matrix_from_topology when they are not.
    link_p[static_cast<std::size_t>(edge.from) * n + edge.to] = edge.p;
    link_p[static_cast<std::size_t>(edge.to) * n + edge.from] = edge.p;
  }
  return link_p;
}

std::vector<double> link_matrix_from_topology(
    const net::Topology& topology, const routing::SessionGraph& graph) {
  const int n = graph.size();
  std::vector<double> link_p(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      link_p[static_cast<std::size_t>(i) * n + j] =
          topology.prob(graph.node_id(i), graph.node_id(j));
    }
  }
  return link_p;
}

std::vector<double> link_matrix_from_phy(
    const std::vector<std::pair<double, double>>& positions_m,
    const net::PhyModel& phy) {
  const std::size_t n = positions_m.size();
  std::vector<double> link_p(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double dx = positions_m[i].first - positions_m[j].first;
      const double dy = positions_m[i].second - positions_m[j].second;
      link_p[i * n + j] =
          phy.reception_probability(std::sqrt(dx * dx + dy * dy));
    }
  }
  return link_p;
}

class LoopbackTransport::QueueReadiness final : public TransportReadiness {
 public:
  explicit QueueReadiness(const LoopbackTransport& transport)
      : transport_(transport) {}

  bool pending(int node) override {
    OMNC_ASSERT(node >= 0 && node < transport_.n_);
    return transport_.queued_[static_cast<std::size_t>(node)].load(
               std::memory_order_relaxed) != 0;
  }

 private:
  const LoopbackTransport& transport_;
};

LoopbackTransport::LoopbackTransport(int nodes, std::vector<double> link_p,
                                     LoopbackConfig config)
    : n_(nodes),
      link_p_(std::move(link_p)),
      config_(config),
      queued_(static_cast<std::size_t>(std::max(nodes, 0))) {
  OMNC_ASSERT(n_ > 0);
  OMNC_ASSERT(link_p_.size() == static_cast<std::size_t>(n_) * n_);
  Rng master(config_.seed);
  link_rng_.reserve(link_p_.size());
  for (std::size_t link = 0; link < link_p_.size(); ++link) {
    link_rng_.push_back(master.fork(1000 + link));
  }
  inbox_.resize(static_cast<std::size_t>(n_));
  poll_scratch_.resize(static_cast<std::size_t>(n_));
}

std::vector<std::uint8_t> LoopbackTransport::take_buffer() {
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  return buffer;
}

void LoopbackTransport::send(int from, std::span<const std::uint8_t> frame) {
  OMNC_ASSERT(from >= 0 && from < n_);
  // With no clock bound (direct unit-test traffic) time stands still at 0,
  // so a nonzero delay would hold frames forever; deliver immediately.
  const double due = clock_ ? clock_now() + config_.delay_s : 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  if (observer_ != nullptr) observer_->on_send(from, frame.size());
  for (int to = 0; to < n_; ++to) {
    if (to == from) continue;
    const std::size_t link = static_cast<std::size_t>(from) * n_ + to;
    const double p = link_p_[link];
    // Draw even for p == 0 links?  No: a zero link draws nothing, so adding
    // or removing unreachable pairs does not shift other links' streams.
    if (p <= 0.0) continue;
    const bool heard = link_rng_[link].chance(p);
    if (!heard || inbox_[static_cast<std::size_t>(to)].size() >=
                      config_.max_inbox) {
      ++stats_.copies_dropped;
      if (observer_ != nullptr) observer_->on_drop(from, to, frame);
      continue;
    }
    std::vector<std::uint8_t> bytes = take_buffer();
    bytes.assign(frame.begin(), frame.end());
    std::deque<Delivery>& inbox = inbox_[static_cast<std::size_t>(to)];
    inbox.push_back(Delivery{from, due, std::move(bytes)});
    queued_[static_cast<std::size_t>(to)].store(inbox.size(),
                                                std::memory_order_relaxed);
  }
}

std::size_t LoopbackTransport::poll(int to, const Handler& handler) {
  OMNC_ASSERT(to >= 0 && to < n_);
  const double now = clock_now();
  std::vector<Delivery>& due = poll_scratch_[static_cast<std::size_t>(to)];
  due.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::deque<Delivery>& inbox = inbox_[static_cast<std::size_t>(to)];
    while (!inbox.empty() && inbox.front().due <= now) {
      due.push_back(std::move(inbox.front()));
      inbox.pop_front();
    }
    queued_[static_cast<std::size_t>(to)].store(inbox.size(),
                                                std::memory_order_relaxed);
    stats_.copies_delivered += due.size();
    if (observer_ != nullptr) {
      for (const Delivery& delivery : due) {
        observer_->on_deliver(delivery.from, to, delivery.bytes.size());
      }
    }
  }
  // The handler runs outside the lock: it may forward (send) or park frames.
  for (const Delivery& delivery : due) {
    handler(delivery.from, delivery.bytes);
  }
  const std::size_t delivered = due.size();
  if (delivered > 0) {
    // Recycle the drained byte buffers for future sends.
    std::lock_guard<std::mutex> lock(mutex_);
    for (Delivery& delivery : due) {
      delivery.bytes.clear();
      buffer_pool_.push_back(std::move(delivery.bytes));
    }
  }
  due.clear();
  return delivered;
}

std::unique_ptr<TransportReadiness> LoopbackTransport::make_readiness(
    std::span<const int> nodes) {
  (void)nodes;
  return std::make_unique<QueueReadiness>(*this);
}

TransportStats LoopbackTransport::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace omnc::emu
