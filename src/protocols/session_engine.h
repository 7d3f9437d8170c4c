// Shared slot-loop engine for all coded protocols.
//
// The engine owns the full end-to-end machinery described in Sec. 3.1 and
// Sec. 4 of the paper:
//   * sources encode CBR-fed generations with random linear coding and
//     broadcast coded packets;
//   * relays keep an innovation filter, buffer innovative packets, re-encode
//     and rebroadcast;
//   * destinations decode progressively; a decoded generation triggers an
//     uncoded ACK routed back over the reverse best (min-ETX) path, after
//     which the source moves on;
//   * relays flush expired generations when they hear a packet with a higher
//     generation ID (and, optionally, drop queued stale frames).
//
// One engine drives any number of concurrent unicast sessions over a single
// shared MAC: each session contributes a DAG, a TransmitPolicy deciding when
// its nodes send, and per-(session, node) NodeRuntimes holding the coding
// state; frames carry the session id so receptions dispatch to the right
// runtime.  The engine accumulates no metrics itself — it emits typed
// MetricEvents on its MetricsBus and sinks reconstruct whatever statistics
// they need.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "coding/coded_packet.h"
#include "common/rng.h"
#include "net/mac.h"
#include "net/topology.h"
#include "protocols/metrics.h"
#include "protocols/metrics_bus.h"
#include "protocols/node_runtime.h"
#include "protocols/transmit_policy.h"
#include "routing/node_selection.h"
#include "sim/simulator.h"

namespace omnc::protocols {

/// One session to drive: its DAG, its transmit policy (non-owning; must
/// outlive the engine), and the seed for its synthetic source data.
struct EngineSessionSpec {
  const routing::SessionGraph* graph = nullptr;
  TransmitPolicy* policy = nullptr;
  std::uint64_t data_seed = 0;
};

struct EngineConfig {
  ProtocolConfig protocol;
  /// Stream id the MAC's RNG is forked under; distinct per scenario family
  /// so single- and multi-session runs draw independent channel streams.
  std::uint64_t mac_rng_salt = 0x11;
  /// Also emit the high-volume detail event families (kMacContention,
  /// kMacCollision) on the bus.  Off by default so untraced runs pay nothing
  /// beyond the aggregate events; purely observational either way — the
  /// simulation consumes no RNG and takes no branch on it.
  bool detail_events = false;
};

class SessionEngine {
 public:
  SessionEngine(const net::Topology& topology,
                std::vector<EngineSessionSpec> specs,
                const EngineConfig& config);

  /// Subscribe sinks here before run().
  MetricsBus& bus() { return bus_; }
  /// The engine's packet-coding RNG (already past the MAC fork); callers may
  /// draw from it between construction and run() to seed policy phases.
  Rng& rng() { return rng_; }

  /// Runs every session to max_sim_seconds (or until all sessions hit
  /// max_generations).
  void run();

  std::size_t session_count() const { return sessions_.size(); }
  const routing::SessionGraph& graph(std::size_t session) const {
    return *sessions_[session].graph;
  }
  const ProtocolConfig& protocol_config() const { return config_.protocol; }
  const net::SlottedMac& mac() const { return *mac_; }
  /// MAC queue length of a session-local node (policy backlog probes).
  std::size_t mac_queue_size(std::size_t session, int local) const;
  int generations_completed(std::size_t session) const;

 private:
  struct Session {
    const routing::SessionGraph* graph = nullptr;
    TransmitPolicy* policy = nullptr;
    std::vector<NodeRuntime> runtimes;  // per local node
    /// Fast edge lookup: edge_index[from * size + to] = edge id or -1.
    std::vector<int> edge_index;
    double ack_delay_s = 0.0;
  };

  /// Recycles the buffers the engine serializes frames into.  A buffer goes
  /// back on the free list, and its shared_ptr control block back to
  /// `control_blocks_`, when the MAC pops or purges the frame holding them,
  /// so a steady-state slot allocates nothing.  The MAC and every queued
  /// frame must die before the pool.
  ///
  /// A frame is queued with its header and coefficients only; its buffer
  /// keeps the emission's payload fold and its emitter, and writes the
  /// payload bytes the first time a receiver reads them (DESIGN.md §7).
  class FramePool {
   public:
    FramePool() = default;
    FramePool(const FramePool&) = delete;
    FramePool& operator=(const FramePool&) = delete;
    ~FramePool();

    /// A pooled buffer holding `head`'s header and coefficients in the
    /// dense wire form, its payload left for `emitter`'s fold of `fold`.
    std::shared_ptr<const std::vector<std::uint8_t>> serialize(
        const coding::CodedPacket& head, const coding::PayloadFold& fold,
        const NodeRuntime& emitter);

    /// The frame's payload fold while it has not run, else nullptr.
    static const coding::DeferredPayload* pending_fold(
        const net::Frame& frame);

    /// Runs the frame's payload fold now if `emitter` emitted it and it has
    /// not run yet.
    static void fold_if_from(const net::Frame& frame,
                             const NodeRuntime& emitter);

   private:
    class Buffer;
    struct Release {  // the frame's deleter
      FramePool* pool;
      void operator()(Buffer* buffer) const;
    };

    std::vector<std::unique_ptr<Buffer>> free_buffers_;
    std::pmr::unsynchronized_pool_resource control_blocks_;
    std::size_t in_flight_ = 0;
  };

  /// Forwards MAC activity onto the bus.
  class MacTap final : public net::MacObserver {
   public:
    MacTap(MetricsBus& bus, bool detail) : bus_(&bus), detail_(detail) {}
    void on_transmit(sim::Time now, net::NodeId node) override;
    void on_queue_sample(sim::Time now, net::NodeId node,
                         std::size_t queue_len) override;
    void on_drop(sim::Time now, net::NodeId node) override;
    void on_contention(sim::Time now, net::NodeId node, int contenders,
                       bool attempted) override;
    void on_collision(sim::Time now, net::NodeId rx) override;

   private:
    MetricsBus* bus_;
    bool detail_;  // forward contention/collision detail events
  };

  void on_slot(sim::Time now);
  void on_receive_frame(net::NodeId rx, const net::Frame& frame);
  void maybe_start_generation(std::size_t session, sim::Time now);
  void deliver_ack(std::size_t session, double ack_time);
  void flush_relay_to(std::size_t session, int local,
                      std::uint32_t generation_id);
  /// Settles the frames `local` still has queued before its rows change (a
  /// relay's flush, the source's next generation): with flush_stale_frames
  /// this session's frames older than `generation_id` leave the queue;
  /// otherwise they drain over the air, where a relay still on their
  /// generation may accept them, so their payloads are folded now.
  void settle_queued(std::size_t session, int local,
                     std::uint32_t generation_id);
  void emit_rx(std::size_t session, net::NodeId rx, int tx_local, int rx_local,
               int edge, bool innovative);
  double compute_ack_delay(const routing::SessionGraph& graph) const;

  const net::Topology& topology_;
  EngineConfig config_;
  Rng rng_;

  sim::Simulator simulator_;
  FramePool frame_pool_;  // outlives mac_ and its queued frames
  std::unique_ptr<net::SlottedMac> mac_;
  std::vector<Session> sessions_;
  MetricsBus bus_;
  MacTap mac_tap_;
  // Reused across slots and receptions: the packet a node draws into before
  // it is serialized into its frame, its payload fold, and the
  // destination's decode check.
  coding::CodedPacket tx_packet_;
  coding::PayloadFold tx_fold_;
  std::vector<std::uint8_t> recovered_;
};

}  // namespace omnc::protocols
