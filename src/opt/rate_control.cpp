#include "opt/rate_control.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "routing/shortest_path.h"

namespace omnc::opt {
namespace {

void check_inputs(const std::vector<const routing::SessionGraph*>& sessions,
                  const RateControlParams& params) {
  OMNC_ASSERT(!sessions.empty());
  for (const auto* graph : sessions) {
    OMNC_ASSERT(graph != nullptr && graph->size() >= 2 &&
                !graph->edges.empty());
  }
  OMNC_ASSERT(params.capacity > 0.0);
  OMNC_ASSERT(params.proximal_c > 0.0);
}

/// One session's primal and dual state.  Everything is allocated once; the
/// iteration only overwrites it.
struct SessionIterate {
  explicit SessionIterate(const routing::SessionGraph& session)
      : graph(&session),
        lambda(session.edges.size(), 0.0),
        b(session.nodes.size(), 1e-3),
        b_avg(session.nodes.size(), 0.0),
        prev_b_avg(session.nodes.size(), 0.0),
        w(session.nodes.size(), 0.0),
        x_t(session.edges.size(), 0.0),
        x_avg(session.edges.size(), 0.0),
        sp_edges(session.edges.size()) {
    for (std::size_t edge = 0; edge < session.edges.size(); ++edge) {
      sp_edges[edge].from = session.edges[edge].from;
      sp_edges[edge].to = session.edges[edge].to;
    }
    for (const auto& nbrs : session.range_neighbors) {
      neighbor_links += nbrs.size();
    }
  }

  const routing::SessionGraph* graph;
  std::vector<double> lambda;  // multiplier of (5), per edge
  std::vector<double> b;       // b(t), per local node; b(0) = 1e-3 C
  std::vector<double> b_avg;   // recovered b-bar (18)
  std::vector<double> prev_b_avg;
  std::vector<double> w;       // w_i = sum_j lambda_ij p_ij
  std::vector<double> x_t;     // gamma_t on this iteration's shortest path
  std::vector<double> x_avg;   // recovered x-bar (13)
  double gamma_avg = 0.0;
  double prev_gamma_avg = 0.0;
  // The shortest-path instance, re-costed with lambda every iteration.
  std::vector<routing::GraphEdge> sp_edges;
  std::size_t neighbor_links = 0;
};

struct JointRun {
  std::vector<SessionIterate> sessions;
  std::vector<double> beta;  // congestion price per channel node
  int iterations = 0;
  bool converged = false;
  std::size_t messages = 0;
};

std::vector<double> scaled(std::vector<double> values, double unit) {
  for (double& value : values) value *= unit;
  return values;
}

/// Table 1 over the sessions of `channel` (session s is sessions[s]).
JointRun run_table1(const SharedChannel& channel,
                    const std::vector<const routing::SessionGraph*>& sessions,
                    const RateControlParams& params, IterationTrace* trace) {
  OMNC_ASSERT(trace == nullptr || sessions.size() == 1);
  // The iteration runs in capacity-normalized units (C = 1): the paper's
  // step-size constants (A = 1, B = 0.5, C_step = 10) and the proximal
  // constant are dimensionless, and the Lagrange multipliers then live at
  // O(1) scale regardless of whether the channel is 2*10^4 or 10^5 bytes
  // per second.  Results are scaled back by `unit` on the way out.
  const double unit = params.capacity;
  const double capacity = 1.0;

  // Step 1 (Table 1): primal variables start at small positive values, dual
  // variables at zero.
  JointRun run;
  for (const auto* graph : sessions) run.sessions.emplace_back(*graph);
  run.beta.assign(channel.size(), 0.0);
  std::vector<double> total_rate(channel.size(), 0.0);
  int stable = 0;

  int t = 0;
  while (t < params.max_iterations) {
    ++t;
    const double theta =
        params.step_a / (params.step_b + params.step_c * static_cast<double>(t));
    const double keep = static_cast<double>(t - 1) / static_cast<double>(t);
    std::fill(total_rate.begin(), total_rate.end(), 0.0);

    for (std::size_t s = 0; s < run.sessions.size(); ++s) {
      SessionIterate& it = run.sessions[s];
      const routing::SessionGraph& graph = *it.graph;
      const std::vector<int>& member = channel.member[s];
      const std::size_t v = graph.nodes.size();
      const std::size_t e = graph.edges.size();

      // ---- SUB1: shortest path under lambda costs, gamma = U'^-1(p_min).
      for (std::size_t edge = 0; edge < e; ++edge) {
        it.sp_edges[edge].cost = it.lambda[edge];
      }
      const routing::ShortestPathTree tree = routing::bellman_ford_to_target(
          graph.size(), it.sp_edges, graph.destination);
      const double p_min =
          tree.distance[static_cast<std::size_t>(graph.source)];
      OMNC_ASSERT_MSG(p_min != routing::kUnreachable,
                      "session graph lost connectivity");
      // U(gamma) = ln(gamma) => gamma = 1/p_min, clamped into (0, C]: with
      // all lambda at zero the unclamped value would be infinite.
      const double gamma_t =
          (p_min <= 1.0 / capacity) ? capacity : 1.0 / p_min;
      // x^t: gamma_t on the links of the single shortest path, zero
      // elsewhere.
      std::fill(it.x_t.begin(), it.x_t.end(), 0.0);
      for (int node = graph.source; node != graph.destination;) {
        const int next = tree.next_hop[static_cast<std::size_t>(node)];
        OMNC_ASSERT(next >= 0);
        // Find the edge (node -> next); linear scan is fine at these sizes.
        for (std::size_t edge = 0; edge < e; ++edge) {
          if (graph.edges[edge].from == node && graph.edges[edge].to == next) {
            it.x_t[edge] = gamma_t;
            break;
          }
        }
        node = next;
      }
      // Primal recovery (13): x-bar(t) = ((t-1) x-bar + x^t) / t.
      for (std::size_t edge = 0; edge < e; ++edge) {
        it.x_avg[edge] =
            keep * it.x_avg[edge] + it.x_t[edge] / static_cast<double>(t);
      }
      it.gamma_avg = keep * it.gamma_avg + gamma_t / static_cast<double>(t);
      // Bellman-Ford messages: one distance vector per edge per round.
      run.messages += e * static_cast<std::size_t>(tree.rounds);

      // ---- SUB2: proximal update of b under the shared prices.
      std::fill(it.w.begin(), it.w.end(), 0.0);
      for (std::size_t edge = 0; edge < e; ++edge) {
        it.w[static_cast<std::size_t>(graph.edges[edge].from)] +=
            it.lambda[edge] * graph.edges[edge].p;
      }
      for (std::size_t i = 0; i < v; ++i) {
        const std::size_t node = static_cast<std::size_t>(member[i]);
        // A node no session receives at (a source) keeps beta = +0.0, so
        // its terms add nothing.
        double price = run.beta[node];
        for (int j : channel.neighbors[node]) {
          price += run.beta[static_cast<std::size_t>(j)];
        }
        const double updated =
            it.b[i] + (it.w[i] - price) / (2.0 * params.proximal_c);
        it.b[i] = std::clamp(updated, 0.0, capacity);
        total_rate[node] += it.b[i];
      }
      // Primal recovery (18).
      for (std::size_t i = 0; i < v; ++i) {
        it.b_avg[i] = keep * it.b_avg[i] + it.b[i] / static_cast<double>(t);
      }
      // Each node sends its updated rate and congestion price to every
      // neighbor (the only message passing besides the shortest path).
      run.messages += 2 * it.neighbor_links;

      // ---- Master: subgradient update of lambda (8), using the current
      // iterates b(t), x^t as the paper specifies.
      for (std::size_t edge = 0; edge < e; ++edge) {
        const auto& ge = graph.edges[edge];
        const double slack =
            it.b[static_cast<std::size_t>(ge.from)] * ge.p - it.x_t[edge];
        it.lambda[edge] = std::max(0.0, it.lambda[edge] - theta * slack);
      }
    }

    // Congestion prices (15): beta_i += theta * (rate_i + sum_{j in N(i)}
    // rate_j - C) over the sessions' total rates, projected onto beta >= 0;
    // only receivers are constrained.
    for (std::size_t i = 0; i < channel.size(); ++i) {
      if (!channel.is_receiver[i]) continue;
      double load = total_rate[i];
      for (int j : channel.neighbors[i]) {
        load += total_rate[static_cast<std::size_t>(j)];
      }
      run.beta[i] = std::max(0.0, run.beta[i] + theta * (load - capacity));
    }

    if (trace != nullptr) {
      const SessionIterate& it = run.sessions.front();
      trace->gamma.push_back(it.gamma_avg * unit);
      trace->b.push_back(scaled(it.b_avg, unit));
    }

    // ---- Convergence test on the recovered primal of every session.
    double delta = 0.0;
    double scale = 1e-9 * capacity;
    for (SessionIterate& it : run.sessions) {
      delta = std::max(delta, std::abs(it.gamma_avg - it.prev_gamma_avg));
      scale = std::max(scale, it.gamma_avg);
      for (std::size_t i = 0; i < it.b_avg.size(); ++i) {
        delta = std::max(delta, std::abs(it.b_avg[i] - it.prev_b_avg[i]));
        scale = std::max(scale, it.b_avg[i]);
      }
      it.prev_b_avg = it.b_avg;
      it.prev_gamma_avg = it.gamma_avg;
    }
    if (delta / scale < params.tolerance) {
      if (++stable >= params.stable_iterations) {
        run.converged = true;
        break;
      }
    } else {
      stable = 0;
    }
  }
  run.iterations = t;
  return run;
}

}  // namespace

DistributedRateControl::DistributedRateControl(
    const routing::SessionGraph& graph, const RateControlParams& params)
    : graph_(graph), params_(params), channel_(graph) {
  check_inputs({&graph}, params);
}

RateControlResult DistributedRateControl::run(IterationTrace* trace) {
  JointRun run = run_table1(channel_, {&graph_}, params_, trace);
  SessionIterate& session = run.sessions.front();
  RateControlResult result;
  result.converged = run.converged;
  result.iterations = run.iterations;
  result.messages = run.messages;
  result.gamma = session.gamma_avg * params_.capacity;
  result.b = scaled(std::move(session.b_avg), params_.capacity);
  result.x = scaled(std::move(session.x_avg), params_.capacity);
  // The final duals, in the same normalized units the iteration ran in.
  // They price *normalized* rates, so rescaling them by the capacity would
  // be wrong; consumers (e.g. wire::PriceUpdate) ship them as-is.
  result.lambda = std::move(session.lambda);
  result.beta = std::move(run.beta);
  return result;
}

MultiSessionRateControl::MultiSessionRateControl(
    const net::Topology& topology,
    std::vector<const routing::SessionGraph*> sessions,
    const RateControlParams& params)
    : sessions_(std::move(sessions)),
      params_(params),
      channel_(topology, sessions_) {
  check_inputs(sessions_, params);
}

MultiRateControlResult MultiSessionRateControl::run() {
  JointRun run = run_table1(channel_, sessions_, params_, nullptr);
  MultiRateControlResult result;
  result.converged = run.converged;
  result.iterations = run.iterations;
  result.messages = run.messages;
  for (SessionIterate& session : run.sessions) {
    result.gamma.push_back(session.gamma_avg * params_.capacity);
    result.b.push_back(scaled(std::move(session.b_avg), params_.capacity));
  }
  return result;
}

}  // namespace omnc::opt
