#include "opt/sunicast.h"

#include <algorithm>

#include "common/assert.h"

namespace omnc::opt {

lp::Problem build_sunicast_lp(const routing::SessionGraph& graph,
                              double capacity) {
  OMNC_ASSERT(graph.size() >= 2);
  OMNC_ASSERT(capacity > 0.0);
  const std::size_t v = static_cast<std::size_t>(graph.size());
  const std::size_t e = graph.edges.size();
  const std::size_t num_vars = 1 + e + v;  // [gamma | x_e | b_i]
  const std::size_t gamma_var = 0;
  auto x_var = [&](std::size_t edge) { return 1 + edge; };
  auto b_var = [&](std::size_t node) { return 1 + e + node; };

  lp::Problem problem;
  problem.objective.assign(num_vars, 0.0);
  problem.objective[gamma_var] = 1.0;  // maximize gamma

  // Flow conservation (2): sum_out x - sum_in x - w(i) gamma = 0.
  for (std::size_t i = 0; i < v; ++i) {
    std::vector<double> row(num_vars, 0.0);
    for (std::size_t edge = 0; edge < e; ++edge) {
      if (graph.edges[edge].from == static_cast<int>(i)) row[x_var(edge)] += 1.0;
      if (graph.edges[edge].to == static_cast<int>(i)) row[x_var(edge)] -= 1.0;
    }
    if (static_cast<int>(i) == graph.source) {
      row[gamma_var] = -1.0;  // out - in = +gamma
    } else if (static_cast<int>(i) == graph.destination) {
      row[gamma_var] = 1.0;  // out - in = -gamma
    }
    problem.add_eq(std::move(row), 0.0);
  }

  // Broadcast MAC constraint (4): b_i + sum_{j in N(i)} b_j <= C, i != S.
  for (std::size_t i = 0; i < v; ++i) {
    if (static_cast<int>(i) == graph.source) continue;
    std::vector<double> row(num_vars, 0.0);
    row[b_var(i)] = 1.0;
    for (int j : graph.range_neighbors[i]) {
      row[b_var(static_cast<std::size_t>(j))] += 1.0;
    }
    problem.add_le(std::move(row), capacity);
  }

  // Loss-resilience constraint (5): b_i p_ij - x_ij >= 0.
  for (std::size_t edge = 0; edge < e; ++edge) {
    std::vector<double> row(num_vars, 0.0);
    row[b_var(static_cast<std::size_t>(graph.edges[edge].from))] =
        graph.edges[edge].p;
    row[x_var(edge)] = -1.0;
    problem.add_ge(std::move(row), 0.0);
  }

  // Loose bounds 0 <= b_i <= C keep the program bounded even for nodes whose
  // rate no receiver constraint covers (e.g. the source in degenerate
  // graphs).
  for (std::size_t i = 0; i < v; ++i) {
    std::vector<double> row(num_vars, 0.0);
    row[b_var(i)] = 1.0;
    problem.add_le(std::move(row), capacity);
  }
  return problem;
}

SUnicastSolution solve_sunicast(const routing::SessionGraph& graph,
                                double capacity) {
  SUnicastSolution result;
  if (graph.size() < 2 || graph.edges.empty()) return result;
  const lp::Problem problem = build_sunicast_lp(graph, capacity);
  const lp::Solution solution = lp::solve(problem);
  if (solution.status != lp::Status::kOptimal) return result;
  result.feasible = true;
  result.gamma = solution.objective;
  const std::size_t e = graph.edges.size();
  result.x.assign(solution.x.begin() + 1, solution.x.begin() + 1 + e);
  result.b.assign(solution.x.begin() + 1 + static_cast<long>(e),
                  solution.x.end());
  return result;
}

SharedChannel::SharedChannel(const routing::SessionGraph& graph)
    : nodes(graph.nodes), neighbors(graph.range_neighbors), member(1) {
  for (int i = 0; i < graph.size(); ++i) {
    is_receiver.push_back(i != graph.source);
    member.front().push_back(i);
  }
}

SharedChannel::SharedChannel(
    const net::Topology& topology,
    const std::vector<const routing::SessionGraph*>& sessions) {
  for (const auto* graph : sessions) {
    OMNC_ASSERT(graph != nullptr && graph->size() >= 2);
    nodes.insert(nodes.end(), graph->nodes.begin(), graph->nodes.end());
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  neighbors.resize(nodes.size());
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = 0; b < nodes.size(); ++b) {
      if (a != b && topology.interferes(nodes[a], nodes[b])) {
        neighbors[a].push_back(static_cast<int>(b));
      }
    }
  }
  is_receiver.assign(nodes.size(), false);
  for (const auto* graph : sessions) {
    std::vector<int>& index = member.emplace_back();
    for (int local = 0; local < graph->size(); ++local) {
      const auto it =
          std::lower_bound(nodes.begin(), nodes.end(), graph->node_id(local));
      index.push_back(static_cast<int>(it - nodes.begin()));
      if (local != graph->source) {
        is_receiver[static_cast<std::size_t>(index.back())] = true;
      }
    }
  }
}

double SharedChannel::load_factor(std::span<const std::vector<double>> b,
                                  double capacity) const {
  OMNC_ASSERT(b.size() == member.size());
  OMNC_ASSERT(capacity > 0.0);
  std::vector<double> rate(size(), 0.0);  // all sessions' total, per node
  for (std::size_t s = 0; s < b.size(); ++s) {
    OMNC_ASSERT(b[s].size() == member[s].size());
    for (std::size_t local = 0; local < b[s].size(); ++local) {
      rate[static_cast<std::size_t>(member[s][local])] += b[s][local];
    }
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!is_receiver[i]) continue;
    double load = rate[i];
    for (int j : neighbors[i]) load += rate[static_cast<std::size_t>(j)];
    worst = std::max(worst, load / capacity);
  }
  return worst;
}

double SharedChannel::rescale_to_feasible(std::span<std::vector<double>> b,
                                          double capacity) const {
  const double load = load_factor(b, capacity);
  if (load <= 1.0) return 1.0;
  const double scale = 1.0 / load;
  for (std::vector<double>& rates : b) {
    for (double& rate : rates) rate *= scale;
  }
  return scale;
}

double broadcast_load_factor(const routing::SessionGraph& graph,
                             const std::vector<double>& b, double capacity) {
  return SharedChannel(graph).load_factor({&b, 1}, capacity);
}

double rescale_to_feasible(const routing::SessionGraph& graph,
                           std::vector<double>& b, double capacity) {
  return SharedChannel(graph).rescale_to_feasible({&b, 1}, capacity);
}

}  // namespace omnc::opt
