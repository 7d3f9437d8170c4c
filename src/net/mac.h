// Ideal slotted MAC of the Drift-substitute testbed (Sec. 5 of the paper).
//
// The model follows the paper's description: "we adopt an ideal scheduling
// scheme in which interfering nodes (nodes within range of each other) can
// optimally multiplex the channel.  A node cannot receive packets if it
// falls in the range of an interfering node."  Concretely:
//   * time is slotted; one slot carries one packet at channel capacity C;
//   * transmitters within range of each other serialize — each slot admits a
//     maximal set of backlogged, pairwise out-of-range transmitters, drawn
//     in uniformly random priority order (randomized TDMA, no exposed-
//     terminal collisions);
//   * a node cannot transmit and receive in the same slot;
//   * a participant in range of two or more admitted transmitters receives
//     nothing that slot (hidden-terminal collision);
//   * otherwise reception succeeds with the link's one-way reception
//     probability (independent per receiver — the lossy PHY);
//   * unicast frames may be sent reliably, which models MAC-layer
//     retransmissions: the frame stays at the head of the queue until its
//     target receives it (used by the ETX-routing baseline).
//
// Broadcast frames are transmitted once; every in-range, collision-free,
// non-transmitting participant receives an independent Bernoulli copy.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "coding/coded_packet.h"
#include "common/rng.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace omnc::net {

inline constexpr NodeId kBroadcast = -1;

struct Frame {
  NodeId from = -1;
  NodeId to = kBroadcast;  // kBroadcast or a unicast target
  bool reliable = false;   // MAC-layer ARQ (unicast only)
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
  /// Coded-data frames: the packet's coefficient-structure side channel
  /// (DESIGN.md §15).  The sim's in-memory bytes stay the dense wire form —
  /// slots are fixed-size, so compression buys nothing here — but the
  /// structure rides along so receiving decoders keep their systematic /
  /// banded fast paths.  Dense for control frames and pre-family callers.
  coding::CodedStructure structure;
};

/// Gilbert-Elliott two-state link fading.  The paper's PHY is driven by
/// real-world traces whose losses are bursty, not i.i.d. (its reference
/// measurement study, Reis et al. [19], documents the temporal structure);
/// each directed link independently alternates between a good state and a
/// deep-fade state whose probabilities are scaled so the long-run average
/// equals the topology's p_ij — the quantity probes measure and every
/// protocol plans with.
struct FadingConfig {
  bool enabled = true;
  /// Long-run fraction of time a link spends in the fade state.
  double bad_fraction = 0.40;
  /// Reception probability multiplier while faded (deep fade).
  double bad_scale = 0.08;
  /// Mean fade duration in slots (geometric sojourn; ~4 s at the default
  /// slot length).
  double mean_bad_slots = 80.0;
};

/// How competing transmitters share the channel.
enum class MacMode {
  /// Greedy maximal conflict-free scheduling in random priority order — an
  /// idealized randomized TDMA (upper bound on MAC efficiency).
  kIdealScheduling,
  /// p-persistent CSMA: every backlogged node independently attempts with
  /// probability 1/(1 + backlogged in-range competitors); simultaneous
  /// in-range attempts collide at doubly-covered receivers.  This models the
  /// contention behaviour of a real 802.11-style MAC, which the testbed's
  /// MAC model "captures the channel competition among neighboring nodes"
  /// with.
  kCsma,
};

struct MacConfig {
  /// Channel capacity in bytes/second (the paper's C).
  double capacity_bytes_per_s = 2e4;
  /// Air bytes per slot; slot duration = slot_bytes / capacity.
  std::size_t slot_bytes = 1076;
  /// Drop-tail bound per transmit queue.
  std::size_t max_queue = 2000;
  MacMode mode = MacMode::kCsma;
  /// CSMA aggressiveness: a backlogged node attempts with probability
  /// min(1, csma_persistence / (1 + backlogged audible competitors)).
  double csma_persistence = 1.0;
  /// MAC-layer ARQ attempts per reliable unicast frame before the frame is
  /// dropped (802.11's long-retry default is 7).  0 means retry forever —
  /// the paper's idealized "reliability is guaranteed by MAC layer
  /// re-transmissions" reading, kept for the MAC ablation bench.
  int unicast_retry_limit = 7;
  /// Slots one unicast attempt occupies.  A broadcast data frame is pure
  /// DATA airtime; a reliable 802.11 unicast spends RTS/CTS/DATA/ACK plus
  /// inter-frame spaces and contention — about twice the broadcast airtime
  /// at 1 KB payloads — so the default charges 2 slots (the transmitter and
  /// its interference footprint stay busy for the extra slots).  Set to 1
  /// for the idealized equal-airtime model (MAC ablation bench).
  int unicast_slot_cost = 2;
  /// Temporal loss structure of the PHY.
  FadingConfig fading;
  /// Conflict model.  When true (the broadcast MAC of Sec. 3.2: an "ideal
  /// broadcast MAC where competing transmitters can optimally multiplex the
  /// channel"), two transmitters also serialize when they share a potential
  /// common receiver, so every reception is collision-free — the premise of
  /// constraint (4).  When false (the unicast evaluation MAC of Sec. 5),
  /// only transmitters within range of each other serialize and a receiver
  /// covered by two concurrent transmitters loses the packet.
  bool protect_receivers = false;
};

/// Passive per-event observer of MAC activity.  Unlike the aggregate
/// counters below, an observer sees every transmission, per-slot queue
/// sample, and queue drop as it happens, which lets higher layers rebuild
/// any statistic (time-averaged queues, per-node transmission counts)
/// without the MAC accumulating it for them.
class MacObserver {
 public:
  virtual ~MacObserver() = default;
  /// `node` was admitted and sent the head of its queue this slot.
  virtual void on_transmit(sim::Time now, NodeId node) {
    (void)now;
    (void)node;
  }
  /// End-of-slot queue length sample (the Fig. 3 signal).
  virtual void on_queue_sample(sim::Time now, NodeId node,
                               std::size_t queue_len) {
    (void)now;
    (void)node;
    (void)queue_len;
  }
  /// A frame was rejected because `node`'s transmit queue was full.
  virtual void on_drop(sim::Time now, NodeId node) {
    (void)now;
    (void)node;
  }
  /// CSMA backoff outcome for a backlogged node whose channel was idle:
  /// it drew its persistence coin against `contenders` audible competitors
  /// (itself included) and either fired (`attempted`) or held off.  Nodes
  /// deferring to a busy channel report attempted = false as well.
  virtual void on_contention(sim::Time now, NodeId node, int contenders,
                             bool attempted) {
    (void)now;
    (void)node;
    (void)contenders;
    (void)attempted;
  }
  /// `rx` was covered by two or more concurrent transmitters and lost an
  /// incoming frame to the hidden-terminal collision.
  virtual void on_collision(sim::Time now, NodeId rx) {
    (void)now;
    (void)rx;
  }
};

class SlottedMac {
 public:
  /// rx receives `frame` (possibly overheard broadcast).
  using ReceiveHandler = std::function<void(NodeId rx, const Frame& frame)>;
  /// Invoked at the start of each slot, before scheduling, so protocols can
  /// refill token buckets and enqueue freshly encoded packets.
  using SlotHook = std::function<void(sim::Time now)>;

  SlottedMac(sim::Simulator& simulator, const Topology& topology,
             std::vector<NodeId> participants, const MacConfig& config,
             Rng rng);

  double slot_duration() const {
    return static_cast<double>(config_.slot_bytes) /
           config_.capacity_bytes_per_s;
  }
  const MacConfig& config() const { return config_; }
  const std::vector<NodeId>& participants() const { return participants_; }

  void set_receive_handler(ReceiveHandler handler);
  void add_slot_hook(SlotHook hook);
  /// Installs a non-owning event observer (nullptr to detach).
  void set_observer(MacObserver* observer) { observer_ = observer; }

  /// Appends a frame to `frame.from`'s transmit queue.  Returns false (and
  /// drops the frame) when the queue is full.
  bool enqueue(Frame frame);

  std::size_t queue_size(NodeId node) const;

  /// Drops every queued frame matching the predicate (e.g. packets of an
  /// expired generation).
  void purge_queue(NodeId node,
                   const std::function<bool(const Frame&)>& predicate);

  /// Visits `node`'s queued frames, head first, without changing the queue.
  void for_each_queued(NodeId node,
                       const std::function<void(const Frame&)>& visit) const;

  /// Begins slot processing; idempotent.
  void start();
  /// Stops scheduling further slots.
  void stop();

  // --- statistics ------------------------------------------------------

  std::size_t transmissions(NodeId node) const;
  std::size_t total_transmissions() const;
  std::size_t total_deliveries() const;
  std::size_t total_drops() const { return drops_; }
  /// Reliable unicast frames abandoned after the retry limit.
  std::size_t total_retry_failures() const { return retry_failures_; }

 private:
  struct NodeState {
    std::deque<Frame> queue;  // FIFO
    std::size_t transmissions = 0;
    int head_attempts = 0;  // ARQ attempts for the current head frame
    /// Remaining slots this node's in-flight unicast attempt still occupies;
    /// while positive the node keeps transmitting (interference-wise) and is
    /// not re-admitted.
    int cooldown = 0;
  };

  /// One directed participant link with Gilbert-Elliott state.
  struct LinkFade {
    std::size_t tx_index;
    std::size_t rx_index;
    double p_good;
    double p_bad;
    bool bad;
  };

  /// A participant's part in the current slot.
  enum class Air : std::uint8_t {
    kIdle,        // nothing queued
    kBacklogged,  // queued, not (yet) admitted
    kAdmitted,    // sends its head frame this slot
    kMidAttempt,  // still busy with a multi-slot unicast attempt
  };

  void run_slot();
  void advance_fading();
  int index_of(NodeId node) const;
  bool transmitting(std::size_t index) const {
    return air_[index] == Air::kAdmitted || air_[index] == Air::kMidAttempt;
  }
  /// Marks `tx`'s interference range as covered by one more transmitter.
  void cover(std::size_t tx);
  void admit(std::size_t candidate);

  sim::Simulator& simulator_;
  const Topology& topology_;
  std::vector<NodeId> participants_;
  std::vector<int> node_to_index_;  // -1 for non-participants
  MacConfig config_;
  Rng rng_;

  std::vector<NodeState> states_;
  // Per-participant lists in participant indices, built once so a slot
  // never walks the topology or maps a node id.
  /// Participants that may not transmit in the same slot (CSMA contenders,
  /// ideal-scheduling blocking).
  std::vector<std::vector<std::size_t>> conflict_partners_;
  /// Participants inside the interference range (collision cover).
  std::vector<std::vector<std::size_t>> cover_;
  /// Participant out-neighbours in topology.neighbors() order (broadcast
  /// receptions, one coin each in this order).
  std::vector<std::vector<std::size_t>> receivers_;
  std::vector<LinkFade> fades_;
  /// Effective per-slot reception probability, participants x participants.
  std::vector<double> effective_p_;
  ReceiveHandler receive_handler_;
  std::vector<SlotHook> slot_hooks_;
  MacObserver* observer_ = nullptr;

  // Per-slot scratch, reused so a slot allocates nothing.
  std::vector<Air> air_;                  // per participant
  std::vector<std::uint8_t> covered_;     // transmitters in range, capped at 2
  std::vector<std::size_t> backlogged_;  // in index order, then shuffled
  std::vector<std::size_t> admitted_;    // in admission order

  bool running_ = false;
  std::size_t deliveries_ = 0;
  std::size_t drops_ = 0;
  std::size_t retry_failures_ = 0;
};

}  // namespace omnc::net
