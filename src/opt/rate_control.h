// The distributed rate control algorithm of Table 1 — the paper's core
// contribution — for K >= 1 unicast sessions sharing one channel.
//
// The sUnicast program is decomposed by relaxing the coupling constraint
// b_i p_ij >= x_ij with Lagrange multipliers lambda_ij:
//
//   SUB1 (multipath opportunistic routing): with link costs lambda_ij, find
//     the shortest path (distributed Bellman-Ford) and send
//     gamma = U'^-1(p_min) = 1/p_min units along it (U = ln), then average
//     the per-iteration rates (primal recovery, eq. (13)) to obtain the
//     multipath split x-bar.
//
//   SUB2 (broadcast/encoding rate allocation): each node updates its rate
//     with the proximal step b_i += (w_i - beta_i - sum_{j in N(i)} beta_j)
//     / (2c), clamped to [0, C], where w_i = sum_j lambda_ij p_ij and beta_i
//     is the congestion price of the broadcast MAC constraint (4), itself
//     updated by projected subgradient ascent (eq. (15)); rates are averaged
//     as well (eq. (18)).
//
//   Master: lambda_ij is updated by the projected subgradient step (8) with
//     diminishing step sizes theta(t) = A / (B + C t).
//
// The multiple-unicast extension the paper's conclusion points to runs the
// same loop over K sessions: each keeps its own SUB1, lambda and b, and one
// shared price beta_i per node charges the sessions' *total* load in (4)
// (SharedChannel, sunicast.h).  Every session maximizes ln(gamma), so the
// equilibrium is proportionally fair across sessions.  The single-session
// controller is the K = 1 run, bit for bit.
//
// Everything a real deployment would exchange over the air (rates and
// congestion prices to neighbors, Bellman-Ford distance vectors) is counted
// in `messages`.
#pragma once

#include <cstddef>
#include <vector>

#include "net/topology.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"

namespace omnc::opt {

struct RateControlParams {
  double capacity = 2e4;  // the MAC capacity C (bytes/second)

  // Diminishing step size theta(t) = step_a / (step_b + step_c * t).  The
  // paper's Fig. 1 quotes A = 1, B = 0.5, C = 10, but those constants leave
  // the dual far from its optimum within the reported iteration counts in
  // our normalized-rate implementation; the defaults below converge to
  // within a few percent of the centralized LP in ~100 iterations (the
  // paper reports an average of 91), and the constants remain "tunable
  // parameters that regulate convergence speed" exactly as the paper says.
  double step_a = 1.0;
  double step_b = 0.5;
  double step_c = 0.2;

  /// Proximal constant c in the quadratic term (update divides by 2c).
  double proximal_c = 0.5;

  /// Convergence: relative change of the recovered primal (b-bar, gamma-bar)
  /// below `tolerance` for `stable_iterations` consecutive iterations.
  double tolerance = 2.5e-3;
  int stable_iterations = 6;
  int max_iterations = 2000;
};

/// Per-iteration history for convergence plots (the paper's Fig. 1); only
/// the single-session controller records it.
struct IterationTrace {
  std::vector<double> gamma;                 // recovered gamma-bar per iter
  std::vector<std::vector<double>> b;        // recovered b-bar per iter
};

struct RateControlResult {
  bool converged = false;
  int iterations = 0;
  double gamma = 0.0;              // recovered throughput estimate
  std::vector<double> b;           // recovered broadcast rates per node
  std::vector<double> x;           // recovered information rates per edge
  /// Final dual state, in the normalized (capacity-relative) units of the
  /// iteration: the link prices lambda_ij per edge (graph.edges order) and
  /// the congestion prices beta_i per node.  These are what a distributed
  /// deployment floods to its neighbors (wire::PriceUpdate).
  std::vector<double> lambda;
  std::vector<double> beta;
  /// Application-layer control messages that the distributed execution would
  /// exchange (rate+price notifications and Bellman-Ford updates).
  std::size_t messages = 0;
};

/// Table 1 for one session, with N(i) = graph.range_neighbors.
class DistributedRateControl {
 public:
  DistributedRateControl(const routing::SessionGraph& graph,
                         const RateControlParams& params);

  /// Runs Table 1 to convergence; optionally records per-iteration state.
  RateControlResult run(IterationTrace* trace = nullptr);

 private:
  const routing::SessionGraph& graph_;
  RateControlParams params_;
  SharedChannel channel_;
};

struct MultiRateControlResult {
  bool converged = false;
  int iterations = 0;
  /// Recovered throughput estimate per session.
  std::vector<double> gamma;
  /// rates[s][local node of session s] in bytes/s.
  std::vector<std::vector<double>> b;
  std::size_t messages = 0;
};

/// Table 1 for K sessions on one topology, with N(i) taken from
/// Topology::interferes over the union of their nodes.
class MultiSessionRateControl {
 public:
  MultiSessionRateControl(const net::Topology& topology,
                          std::vector<const routing::SessionGraph*> sessions,
                          const RateControlParams& params);

  MultiRateControlResult run();

  /// The sessions' shared constraint (4); rescale the joint rates with it.
  const SharedChannel& channel() const { return channel_; }

 private:
  std::vector<const routing::SessionGraph*> sessions_;
  RateControlParams params_;
  SharedChannel channel_;
};

}  // namespace omnc::opt
