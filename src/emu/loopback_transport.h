// In-memory broadcast channel with per-link Bernoulli loss and delay.
//
// Each directed link (i, j) carries its own reception probability and its
// own forked RNG stream, so the loss pattern a link applies to its sender's
// k-th broadcast is a pure function of (seed, i, j, k) — independent of how
// the node threads interleave.  That is what makes loopback emulation runs
// reproducible under a seed even though they execute on wall-clock threads
// (the *timing* still varies with scheduling; see DESIGN.md §10 — under the
// DeterministicClock it does not, see §12).
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "emu/transport.h"
#include "net/phy_model.h"
#include "net/topology.h"
#include "routing/node_selection.h"

namespace omnc::emu {

struct LoopbackConfig {
  std::uint64_t seed = 1;

  /// Fixed one-way propagation/processing delay, in *virtual* seconds (read
  /// against the clock the session mux binds; instantaneous when unbound).
  double delay_s = 0.0;

  /// Per-receiver inbox bound; a full inbox drops the incoming copy (the
  /// emulated analogue of a full MAC queue).
  std::size_t max_inbox = 4096;
};

/// Builds the n*n row-major link matrix (probability of j hearing i at
/// [i*n+j]) from a session graph's directed edges, symmetrized — the DAG
/// points downstream but the radio is reciprocal, and the ACK/price floods
/// need the upstream direction.  Pairs with no DAG edge are 0.
std::vector<double> link_matrix_from_graph(const routing::SessionGraph& graph);

/// Builds the link matrix for the graph's nodes from the full topology's
/// reception probabilities (the general, possibly asymmetric case).
std::vector<double> link_matrix_from_topology(
    const net::Topology& topology, const routing::SessionGraph& graph);

/// Builds the link matrix from node positions and a PHY model, exactly as
/// the slot simulator's topology construction does: p(i->j) =
/// phy.reception_probability(distance(i, j)).
std::vector<double> link_matrix_from_phy(
    const std::vector<std::pair<double, double>>& positions_m,
    const net::PhyModel& phy);

class LoopbackTransport final : public Transport {
 public:
  /// `link_p` is the n*n row-major matrix of one-way reception
  /// probabilities; the diagonal is ignored (nodes do not hear themselves).
  LoopbackTransport(int nodes, std::vector<double> link_p,
                    LoopbackConfig config = {});

  int nodes() const override { return n_; }
  void send(int from, std::span<const std::uint8_t> frame) override;
  std::size_t poll(int to, const Handler& handler) override;
  TransportStats stats() const override;

  /// A readiness set whose answer is exact: pending(i) is true exactly when
  /// a copy for i is queued, due or not.
  std::unique_ptr<TransportReadiness> make_readiness(
      std::span<const int> nodes) override;

 private:
  class QueueReadiness;

  struct Delivery {
    int from = 0;
    double due = 0.0;  // virtual seconds
    std::vector<std::uint8_t> bytes;
  };

  /// Pops a recycled byte buffer (empty vector when the pool is dry).
  /// Caller must hold mutex_.
  std::vector<std::uint8_t> take_buffer();

  int n_;
  std::vector<double> link_p_;  // n*n row-major
  LoopbackConfig config_;
  std::vector<Rng> link_rng_;   // one stream per directed link

  mutable std::mutex mutex_;
  std::vector<std::deque<Delivery>> inbox_;  // per receiver
  /// inbox_[i].size(), stored under mutex_ whenever the inbox changes and
  /// read without it by QueueReadiness.
  std::vector<std::atomic<std::size_t>> queued_;
  /// Free-list of delivery byte buffers (mutex_-guarded): a copy's vector is
  /// recycled once its receiver has polled it, so steady-state traffic stops
  /// hitting the allocator per delivered copy.  Bounded by the number of
  /// copies in flight (≤ n * max_inbox).
  std::vector<std::vector<std::uint8_t>> buffer_pool_;
  /// Per-receiver drain scratch; poll(i) only runs on node i's thread
  /// (Transport contract), so each slot is single-threaded by construction.
  std::vector<std::vector<Delivery>> poll_scratch_;
  TransportStats stats_;
};

}  // namespace omnc::emu
