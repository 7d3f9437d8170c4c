#include "protocols/multi_unicast.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "protocols/metrics_bus.h"
#include "protocols/session_engine.h"
#include "protocols/transmit_policy.h"

namespace omnc::protocols {

MultiUnicastOmnc::MultiUnicastOmnc(
    const net::Topology& topology,
    std::vector<const routing::SessionGraph*> graphs,
    const MultiUnicastConfig& config)
    : topology_(topology), graphs_(std::move(graphs)), config_(config) {
  OMNC_ASSERT(!graphs_.empty());
}

MultiUnicastResult MultiUnicastOmnc::run() {
  MultiUnicastResult result;
  const std::size_t k = graphs_.size();

  // Joint rate control and common-factor rescale.
  opt::RateControlParams params = config_.rate_control;
  params.capacity = config_.protocol.mac.capacity_bytes_per_s;
  opt::MultiSessionRateControl controller(topology_, graphs_, params);
  opt::MultiRateControlResult rc = controller.run();
  result.rc_converged = rc.converged;
  result.rc_iterations = rc.iterations;
  rates_ = std::move(rc.b);
  controller.channel().rescale_to_feasible(rates_, params.capacity);

  // One engine (and one MAC) over all sessions; each gets its own token
  // bucket fed by its rate vector.
  std::vector<TokenBucketPolicy> policies;
  policies.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    policies.emplace_back(rates_[s],
                          static_cast<double>(config_.protocol.mac.slot_bytes),
                          config_.token_burst_cap);
  }
  std::vector<EngineSessionSpec> specs;
  specs.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    specs.push_back({graphs_[s], &policies[s],
                     config_.protocol.seed ^ (s * 0x9e3779b9ULL)});
  }
  EngineConfig engine_config;
  engine_config.protocol = config_.protocol;
  engine_config.mac_rng_salt = 0x31;
  engine_config.detail_events = config_.trace_sink != nullptr;
  SessionEngine engine(topology_, std::move(specs), engine_config);
  // Random initial token phases: mutually inaudible transmitters with
  // identical rates would otherwise cross their send thresholds in the same
  // slots forever and collide at every common receiver.
  for (auto& policy : policies) policy.randomize_phases(engine.rng());

  SessionResultSink sink(graphs_, config_.protocol.coding,
                         topology_.node_count());
  engine.bus().subscribe(&sink);
  engine.bus().subscribe(config_.trace_sink);  // nullptr is ignored
  engine.run();

  // Metrics.
  result.sessions.reserve(k);
  result.edge_innovative.reserve(k);
  double min_throughput = -1.0;
  for (std::size_t s = 0; s < k; ++s) {
    result.sessions.push_back(sink.assemble(s));
    result.edge_innovative.push_back(sink.edge_innovative(s));
    const SessionResult& out = result.sessions.back();
    result.aggregate_throughput += out.throughput_per_generation;
    if (min_throughput < 0.0 ||
        out.throughput_per_generation < min_throughput) {
      min_throughput = out.throughput_per_generation;
    }
  }
  result.min_throughput = std::max(0.0, min_throughput);

  // Shared-channel queue metric (per involved node, across sessions): every
  // session reports the same channel-wide value.
  const double mean_queue = sink.shared_mean_queue();
  for (auto& out : result.sessions) out.mean_queue = mean_queue;
  return result;
}

}  // namespace omnc::protocols
