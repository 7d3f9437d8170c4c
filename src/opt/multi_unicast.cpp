#include "opt/multi_unicast.h"

#include "lp/simplex.h"
#include "opt/sunicast.h"

namespace omnc::opt {

MultiSUnicastSolution solve_multi_sunicast(
    const net::Topology& topology,
    const std::vector<const routing::SessionGraph*>& sessions,
    double capacity) {
  MultiSUnicastSolution result;
  if (sessions.empty()) return result;
  const SharedChannel channel(topology, sessions);
  const std::size_t k = sessions.size();

  // Variable layout: [t | per session: gamma_s, x^s_e..., b^s_i...].
  std::size_t num_vars = 1;
  std::vector<std::size_t> gamma_var(k);
  std::vector<std::size_t> x_base(k);
  std::vector<std::size_t> b_base(k);
  for (std::size_t s = 0; s < k; ++s) {
    gamma_var[s] = num_vars;
    x_base[s] = num_vars + 1;
    b_base[s] = x_base[s] + sessions[s]->edges.size();
    num_vars = b_base[s] + static_cast<std::size_t>(sessions[s]->size());
  }

  lp::Problem problem;
  problem.objective.assign(num_vars, 0.0);
  problem.objective[0] = 1.0;  // maximize the max-min throughput t

  for (std::size_t s = 0; s < k; ++s) {
    const auto& graph = *sessions[s];
    // gamma_s - t >= 0.
    {
      std::vector<double> row(num_vars, 0.0);
      row[gamma_var[s]] = 1.0;
      row[0] = -1.0;
      problem.add_ge(std::move(row), 0.0);
    }
    // Flow conservation.
    for (int i = 0; i < graph.size(); ++i) {
      std::vector<double> row(num_vars, 0.0);
      for (std::size_t e = 0; e < graph.edges.size(); ++e) {
        if (graph.edges[e].from == i) row[x_base[s] + e] += 1.0;
        if (graph.edges[e].to == i) row[x_base[s] + e] -= 1.0;
      }
      if (i == graph.source) row[gamma_var[s]] = -1.0;
      if (i == graph.destination) row[gamma_var[s]] = 1.0;
      problem.add_eq(std::move(row), 0.0);
    }
    // Loss resilience b^s_i p >= x^s_e.
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      std::vector<double> row(num_vars, 0.0);
      row[b_base[s] + static_cast<std::size_t>(graph.edges[e].from)] =
          graph.edges[e].p;
      row[x_base[s] + e] = -1.0;
      problem.add_ge(std::move(row), 0.0);
    }
    // Loose per-variable bounds keep the program bounded.
    for (int i = 0; i < graph.size(); ++i) {
      std::vector<double> row(num_vars, 0.0);
      row[b_base[s] + static_cast<std::size_t>(i)] = 1.0;
      problem.add_le(std::move(row), capacity);
    }
  }

  // Shared broadcast constraint at every receiver of the union.
  for (std::size_t g = 0; g < channel.size(); ++g) {
    if (!channel.is_receiver[g]) continue;
    std::vector<double> row(num_vars, 0.0);
    auto add_node_rates = [&](std::size_t global, double coefficient) {
      for (std::size_t s = 0; s < k; ++s) {
        for (std::size_t local = 0; local < channel.member[s].size();
             ++local) {
          if (channel.member[s][local] == static_cast<int>(global)) {
            row[b_base[s] + local] += coefficient;
          }
        }
      }
    };
    add_node_rates(g, 1.0);
    for (int nbr : channel.neighbors[g]) {
      add_node_rates(static_cast<std::size_t>(nbr), 1.0);
    }
    problem.add_le(std::move(row), capacity);
  }

  const lp::Solution solution = lp::solve(problem);
  if (solution.status != lp::Status::kOptimal) return result;
  result.feasible = true;
  result.min_gamma = solution.objective;
  result.gamma.resize(k);
  result.b.resize(k);
  for (std::size_t s = 0; s < k; ++s) {
    result.gamma[s] = solution.x[gamma_var[s]];
    result.b[s].assign(
        solution.x.begin() + static_cast<long>(b_base[s]),
        solution.x.begin() +
            static_cast<long>(b_base[s] + static_cast<std::size_t>(
                                              sessions[s]->size())));
  }
  return result;
}

}  // namespace omnc::opt
