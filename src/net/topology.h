// Network topology: node positions, lossy directed links, neighbor sets and
// the audibility (interference) relation.
//
// A link (i, j) exists when j lies within the transmission range of i (the
// distance where reception probability crosses the 0.2 threshold, per the
// paper); its one-way reception probability p_ij comes from the PHY curve
// plus a static per-link, per-direction shadowing jitter, reflecting the
// paper's observation that link qualities are stable over time but far from
// uniform at a given distance.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/phy_model.h"

namespace omnc::net {

using NodeId = int;

struct Position {
  double x = 0.0;
  double y = 0.0;
};

/// Parameters for random deployments (the paper's 300-node, density-6
/// topologies).
struct DeploymentConfig {
  int nodes = 300;
  /// Density counts the node itself plus its expected in-range neighbors:
  /// density 6 means "each node has on average 5 neighbors within its range".
  double density = 6.0;
  double range_m = 250.0;
  /// Reception-probability threshold that defines the range.
  double range_threshold = 0.2;
  /// Std-dev of the additive per-direction shadowing jitter on p_ij.
  double shadowing_sigma = 0.10;
  /// Transmit-power factor forwarded to TracePhy (1.0 = paper's lossy
  /// setting; ~2 raises the mean link quality toward the paper's 0.91).
  /// Raising power also stretches the interference footprint by the same
  /// distance factor: links improve, spatial reuse degrades.
  double power_factor = 1.0;
};

class Topology {
 public:
  /// Builds a random uniform deployment in a square sized so that the
  /// expected neighbor count matches `config.density - 1`.
  static Topology random_deployment(const DeploymentConfig& config, Rng& rng);

  /// Builds a topology from explicit positions (used by tests and the Fig. 1
  /// sample topology).  interference_range_m >= range_m; links exist within
  /// range_m, carrier/interference extends to interference_range_m.
  static Topology from_positions(std::vector<Position> positions,
                                 const PhyModel& phy, double range_m,
                                 double shadowing_sigma, Rng& rng,
                                 double interference_range_m = 0.0);

  /// Builds a topology from an explicit link-probability matrix (entries of 0
  /// mean "no link"); positions are synthetic.  Used to tag exact reception
  /// probabilities on hand-crafted graphs.
  static Topology from_link_matrix(const std::vector<std::vector<double>>& p);

  int node_count() const { return static_cast<int>(positions_.size()); }
  const Position& position(NodeId id) const;
  double distance(NodeId a, NodeId b) const;
  double range() const { return range_; }

  /// One-way reception probability; 0 when j is out of i's range.
  double prob(NodeId from, NodeId to) const;
  bool in_range(NodeId a, NodeId b) const { return prob(a, b) > 0.0 || prob(b, a) > 0.0; }

  /// Out-neighbors of `id` (nodes with prob(id, v) > 0).
  const std::vector<NodeId>& neighbors(NodeId id) const;

  /// True if a transmission by `a` is audible at `b` (within interference
  /// range) — the carrier-sense/collision relation.  Always implied by
  /// in_range.
  bool interferes(NodeId a, NodeId b) const;
  /// Nodes within interference range of `id` (superset of neighbors).
  const std::vector<NodeId>& interference_neighbors(NodeId id) const;
  double interference_range() const { return interference_range_; }

  /// True if transmitters a and b may not transmit in the same slot: they
  /// are within range of one another or share a potential common receiver.
  /// Answered on demand from the audibility relation.
  bool conflicts(NodeId a, NodeId b) const;

  /// Mean reception probability over all existing links.
  double mean_link_probability() const;
  std::size_t link_count() const;
  double mean_neighbor_count() const;

 private:
  Topology() = default;

  void finalize_from_probs();

  std::vector<Position> positions_;
  double range_ = 0.0;
  double interference_range_ = 0.0;
  // Row-major probability matrix; 0 entries mean no link.
  std::vector<double> prob_;
  std::vector<std::vector<NodeId>> neighbors_;
  // Audibility (interference) relation and neighborhoods.
  std::vector<std::uint8_t> audible_;
  std::vector<std::vector<NodeId>> interference_neighbors_;
};

}  // namespace omnc::net
