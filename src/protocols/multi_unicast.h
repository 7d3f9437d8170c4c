// OMNC for concurrent unicast sessions — the multiple-unicast scenario the
// paper's conclusion points to.
//
// K sessions share one channel (one SessionEngine, one MAC instance over the
// union of their selected nodes).  Rates come from the joint distributed
// rate control (opt/rate_control.h), which couples the sessions through
// shared congestion prices; each session then runs an independent
// TokenBucketPolicy and per-(session, node) NodeRuntimes inside the shared
// engine, and frames carry the session id so receptions dispatch to the
// right coding state.
#pragma once

#include <vector>

#include "net/topology.h"
#include "opt/rate_control.h"
#include "protocols/metrics.h"
#include "routing/node_selection.h"

namespace omnc::protocols {

class TraceSink;

struct MultiUnicastConfig {
  ProtocolConfig protocol;             // shared coding / MAC / CBR settings
  opt::RateControlParams rate_control;
  double token_burst_cap = 2.0;
  /// Optional trace sink subscribed to the shared engine's bus; non-null
  /// also switches the detail event families on.  Purely observational.
  TraceSink* trace_sink = nullptr;
};

struct MultiUnicastResult {
  /// Per-session metrics (same fields as single-session runs).
  std::vector<SessionResult> sessions;
  /// Innovative deliveries per session-graph edge, per session.
  std::vector<std::vector<std::size_t>> edge_innovative;
  /// Sum and minimum of the per-session per-generation throughputs.
  double aggregate_throughput = 0.0;
  double min_throughput = 0.0;
  bool rc_converged = false;
  int rc_iterations = 0;
};

class MultiUnicastOmnc {
 public:
  MultiUnicastOmnc(const net::Topology& topology,
                   std::vector<const routing::SessionGraph*> graphs,
                   const MultiUnicastConfig& config);

  MultiUnicastResult run();

  /// Installed per-session rate vectors (bytes/s); valid after run().
  const std::vector<std::vector<double>>& rates() const { return rates_; }

 private:
  const net::Topology& topology_;
  std::vector<const routing::SessionGraph*> graphs_;
  MultiUnicastConfig config_;
  std::vector<std::vector<double>> rates_;
};

}  // namespace omnc::protocols
