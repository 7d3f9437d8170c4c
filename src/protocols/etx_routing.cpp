#include "protocols/etx_routing.h"

#include <algorithm>

#include "common/assert.h"
#include "common/stats.h"
#include "routing/etx.h"

namespace omnc::protocols {
namespace {

/// Time-averaged queue size per node (the Fig. 3 metric), from the MAC's
/// per-slot queue samples.
class QueueAverages final : public net::MacObserver {
 public:
  explicit QueueAverages(int nodes)
      : averages_(static_cast<std::size_t>(nodes)) {}
  void on_queue_sample(sim::Time now, net::NodeId node,
                       std::size_t queue_len) override {
    averages_[static_cast<std::size_t>(node)].advance_to(
        now, static_cast<double>(queue_len));
  }
  double average(net::NodeId node) const {
    return averages_[static_cast<std::size_t>(node)].average();
  }

 private:
  std::vector<TimeAverage> averages_;  // by topology NodeId
};

}  // namespace

EtxRoutingProtocol::EtxRoutingProtocol(const net::Topology& topology,
                                       net::NodeId src, net::NodeId dst,
                                       const ProtocolConfig& config)
    : topology_(topology), src_(src), dst_(dst), config_(config) {
  route_ = routing::etx_route(topology, src, dst);
}

SessionResult EtxRoutingProtocol::run() {
  SessionResult result;
  if (route_.size() < 2) return result;  // not connected
  result.connected = true;

  sim::Simulator simulator;
  Rng rng(config_.seed ^ 0xe7e7e7e7ULL);
  net::SlottedMac mac(simulator, topology_, route_, config_.mac,
                      rng.fork(0x22));
  QueueAverages queues(topology_.node_count());
  mac.set_observer(&queues);

  // next_hop[node] on the route.
  std::vector<net::NodeId> next(static_cast<std::size_t>(topology_.node_count()),
                                -1);
  for (std::size_t i = 0; i + 1 < route_.size(); ++i) {
    next[static_cast<std::size_t>(route_[i])] = route_[i + 1];
  }

  // One data frame carries one block worth of payload and occupies one slot,
  // exactly like a coded packet (same airtime per packet for all protocols).
  const auto payload = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>(config_.coding.block_bytes, 0xda));
  const double packet_bytes = static_cast<double>(config_.coding.block_bytes);

  double bytes_delivered = 0.0;
  double last_delivery_time = 0.0;
  std::size_t packets_submitted = 0;

  mac.set_receive_handler([&](net::NodeId rx, const net::Frame& frame) {
    (void)frame;
    if (rx == dst_) {
      bytes_delivered += packet_bytes;
      last_delivery_time = simulator.now();
      return;
    }
    // Store-and-forward: pass it down the path.
    net::Frame forward;
    forward.from = rx;
    forward.to = next[static_cast<std::size_t>(rx)];
    forward.reliable = true;
    forward.bytes = payload;
    mac.enqueue(std::move(forward));
  });

  // CBR source: submit packets as bytes arrive.
  mac.add_slot_hook([&](sim::Time now) {
    const double arrived = config_.cbr_bytes_per_s * now;
    while (static_cast<double>(packets_submitted + 1) * packet_bytes <=
           arrived) {
      net::Frame frame;
      frame.from = src_;
      frame.to = next[static_cast<std::size_t>(src_)];
      frame.reliable = true;
      frame.bytes = payload;
      if (!mac.enqueue(std::move(frame))) break;  // source queue full
      ++packets_submitted;
    }
  });

  mac.start();
  simulator.run_until(config_.max_sim_seconds);
  mac.stop();

  result.throughput_bytes_per_s =
      last_delivery_time > 0.0 ? bytes_delivered / last_delivery_time : 0.0;
  result.throughput_per_generation = result.throughput_bytes_per_s;
  result.transmissions = mac.total_transmissions();
  result.queue_drops = mac.total_drops();

  double queue_sum = 0.0;
  int involved = 0;
  for (net::NodeId node : route_) {
    if (mac.transmissions(node) == 0) continue;
    queue_sum += queues.average(node);
    ++involved;
  }
  result.mean_queue = involved > 0 ? queue_sum / involved : 0.0;
  result.node_utility_ratio = 1.0;  // single path: all selected nodes used
  result.path_utility_ratio = 1.0;
  return result;
}

}  // namespace omnc::protocols
