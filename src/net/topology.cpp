#include "net/topology.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace omnc::net {
namespace {

double clamp_prob(double p) { return std::clamp(p, 0.0, 0.98); }

}  // namespace

Topology Topology::random_deployment(const DeploymentConfig& config, Rng& rng) {
  OMNC_ASSERT(config.nodes >= 2);
  OMNC_ASSERT(config.density > 1.0);
  // Choose the square side so that E[#neighbors] = density - 1:
  //   (N - 1) * pi * R^2 / L^2 = density - 1.
  const double expected_neighbors = config.density - 1.0;
  const double side =
      config.range_m * std::sqrt(static_cast<double>(config.nodes - 1) * M_PI /
                                 expected_neighbors);
  std::vector<Position> positions(static_cast<std::size_t>(config.nodes));
  for (auto& pos : positions) {
    pos.x = rng.uniform(0.0, side);
    pos.y = rng.uniform(0.0, side);
  }
  const TracePhy phy = TracePhy::urban_mesh(config.power_factor);
  // Raising transmit power stretches the audible footprint by the same
  // distance factor that improves the links.
  const double interference_range = config.range_m * config.power_factor;
  return from_positions(std::move(positions), phy, config.range_m,
                        config.shadowing_sigma, rng, interference_range);
}

Topology Topology::from_positions(std::vector<Position> positions,
                                  const PhyModel& phy, double range_m,
                                  double shadowing_sigma, Rng& rng,
                                  double interference_range_m) {
  Topology topo;
  topo.positions_ = std::move(positions);
  topo.range_ = range_m;
  topo.interference_range_ =
      std::max(range_m, interference_range_m);
  const int n = topo.node_count();
  topo.prob_.assign(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double d = topo.distance(i, j);
      if (d > range_m) continue;  // links only exist within range
      double p = phy.reception_probability(d);
      if (shadowing_sigma > 0.0) {
        p += shadowing_sigma * rng.normal();  // per-direction static jitter
      }
      p = clamp_prob(p);
      // A link whose jittered probability collapses to ~0 effectively does
      // not exist even though the nodes are within interference range; keep
      // a small floor so connectivity matches the geometric neighborhood.
      if (p < 0.02) p = 0.02;
      topo.prob_[static_cast<std::size_t>(i) * n + j] = p;
    }
  }
  topo.finalize_from_probs();
  return topo;
}

Topology Topology::from_link_matrix(const std::vector<std::vector<double>>& p) {
  Topology topo;
  const int n = static_cast<int>(p.size());
  OMNC_ASSERT(n >= 2);
  topo.positions_.resize(static_cast<std::size_t>(n));
  // Synthetic positions on a line purely for distance queries; the link
  // structure below is authoritative.
  for (int i = 0; i < n; ++i) {
    topo.positions_[static_cast<std::size_t>(i)] = {static_cast<double>(i), 0.0};
  }
  topo.range_ = static_cast<double>(n);
  topo.interference_range_ = 0.0;  // audibility == link existence here
  topo.prob_.assign(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    OMNC_ASSERT(static_cast<int>(p[static_cast<std::size_t>(i)].size()) == n);
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double pij = p[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      OMNC_ASSERT(pij >= 0.0 && pij <= 1.0);
      topo.prob_[static_cast<std::size_t>(i) * n + j] = pij;
    }
  }
  topo.finalize_from_probs();
  return topo;
}

void Topology::finalize_from_probs() {
  const int n = node_count();
  neighbors_.assign(static_cast<std::size_t>(n), {});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && prob(i, j) > 0.0) {
        neighbors_[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
  // Audibility: within interference range when the topology is geometric,
  // otherwise exactly the link relation.
  audible_.assign(static_cast<std::size_t>(n) * n, 0);
  interference_neighbors_.assign(static_cast<std::size_t>(n), {});
  auto linked = [&](int a, int b) {
    return prob(a, b) > 0.0 || prob(b, a) > 0.0;
  };
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      bool hears = linked(a, b);
      if (!hears && interference_range_ > 0.0) {
        hears = distance(a, b) <= interference_range_;
      }
      if (hears) {
        audible_[static_cast<std::size_t>(a) * n + b] = 1;
        interference_neighbors_[static_cast<std::size_t>(a)].push_back(b);
      }
    }
  }
}

const Position& Topology::position(NodeId id) const {
  OMNC_ASSERT(id >= 0 && id < node_count());
  return positions_[static_cast<std::size_t>(id)];
}

double Topology::distance(NodeId a, NodeId b) const {
  const Position& pa = position(a);
  const Position& pb = position(b);
  return std::hypot(pa.x - pb.x, pa.y - pb.y);
}

double Topology::prob(NodeId from, NodeId to) const {
  OMNC_DCHECK(from >= 0 && from < node_count());
  OMNC_DCHECK(to >= 0 && to < node_count());
  return prob_[static_cast<std::size_t>(from) * node_count() + to];
}

const std::vector<NodeId>& Topology::neighbors(NodeId id) const {
  OMNC_ASSERT(id >= 0 && id < node_count());
  return neighbors_[static_cast<std::size_t>(id)];
}

bool Topology::interferes(NodeId a, NodeId b) const {
  OMNC_DCHECK(a >= 0 && a < node_count());
  OMNC_DCHECK(b >= 0 && b < node_count());
  if (a == b) return true;
  return audible_[static_cast<std::size_t>(a) * node_count() + b] != 0;
}

const std::vector<NodeId>& Topology::interference_neighbors(NodeId id) const {
  OMNC_ASSERT(id >= 0 && id < node_count());
  return interference_neighbors_[static_cast<std::size_t>(id)];
}

bool Topology::conflicts(NodeId a, NodeId b) const {
  // Audible to each other, or some third node hears both (a potential
  // common receiver).
  if (interferes(a, b)) return true;
  const auto& a_hears = interference_neighbors(a);
  return std::any_of(a_hears.begin(), a_hears.end(),
                     [&](NodeId v) { return interferes(b, v); });
}

double Topology::mean_link_probability() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (double p : prob_) {
    if (p > 0.0) {
      sum += p;
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

std::size_t Topology::link_count() const {
  std::size_t count = 0;
  for (double p : prob_) {
    if (p > 0.0) ++count;
  }
  return count;
}

double Topology::mean_neighbor_count() const {
  double sum = 0.0;
  for (const auto& nbrs : neighbors_) sum += static_cast<double>(nbrs.size());
  return sum / static_cast<double>(node_count());
}

}  // namespace omnc::net
