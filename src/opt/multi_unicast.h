// Multiple-unicast extension of the sUnicast framework — the scenario the
// paper's conclusion singles out ("the rate control framework can be
// flexibly extended to other scenarios such as the multiple-unicast case").
//
// K unicast sessions share the channel.  Each session s keeps its own
// selected subgraph, information rates x^s and broadcast rates b^s; the
// broadcast MAC constraint (4) now charges the *total* load around every
// receiver:
//
//   sum_s b^s_i + sum_{j in N(i)} sum_s b^s_j <= C       (i not a source-only node)
//
// The distributed solver is Table 1 itself (MultiSessionRateControl in
// rate_control.h): per-session SUB1/lambda with a single *shared* congestion
// price beta_i per node.  This header holds the ground truth it is measured
// against: a centralized max-min LP (maximize t s.t. gamma_s >= t for all s).
#pragma once

#include <vector>

#include "net/topology.h"
#include "routing/node_selection.h"

namespace omnc::opt {

struct MultiSUnicastSolution {
  bool feasible = false;
  /// The max-min throughput t*.
  double min_gamma = 0.0;
  std::vector<double> gamma;             // per session (all >= t*)
  std::vector<std::vector<double>> b;    // per session, per local node
};

/// Centralized max-min LP over the shared topology.  Sessions' graphs must
/// reference nodes of `topology`.
MultiSUnicastSolution solve_multi_sunicast(
    const net::Topology& topology,
    const std::vector<const routing::SessionGraph*>& sessions,
    double capacity);

}  // namespace omnc::opt
