#include "net/mac.h"

#include <algorithm>

#include "common/assert.h"

namespace omnc::net {

SlottedMac::SlottedMac(sim::Simulator& simulator, const Topology& topology,
                       std::vector<NodeId> participants,
                       const MacConfig& config, Rng rng)
    : simulator_(simulator),
      topology_(topology),
      participants_(std::move(participants)),
      config_(config),
      rng_(rng) {
  OMNC_ASSERT(!participants_.empty());
  OMNC_ASSERT(config_.capacity_bytes_per_s > 0.0);
  OMNC_ASSERT(config_.slot_bytes > 0);
  node_to_index_.assign(static_cast<std::size_t>(topology_.node_count()), -1);
  states_.resize(participants_.size());
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    const NodeId id = participants_[i];
    OMNC_ASSERT(id >= 0 && id < topology_.node_count());
    OMNC_ASSERT_MSG(node_to_index_[static_cast<std::size_t>(id)] == -1,
                    "duplicate participant");
    node_to_index_[static_cast<std::size_t>(id)] = static_cast<int>(i);
  }
  // Transmitters serialize iff they can hear each other (carrier sense over
  // the interference range).  Hidden-terminal collisions — two mutually
  // inaudible transmitters covering a common receiver — are resolved per
  // slot at the receiver, not forbidden in the schedule (unless
  // protect_receivers idealizes them away).
  const std::size_t n = participants_.size();
  auto hears = [&](std::size_t a, std::size_t b) {
    return topology_.interferes(participants_[a], participants_[b]);
  };
  conflict_partners_.resize(n);
  cover_.resize(n);
  receivers_.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      bool clash = hears(a, b);
      if (config_.protect_receivers) {
        for (std::size_t v = 0; !clash && v < n; ++v) {
          if (v == a || v == b) continue;
          clash = hears(a, v) && hears(b, v);
        }
      }
      if (clash) {
        conflict_partners_[a].push_back(b);
        conflict_partners_[b].push_back(a);
      }
    }
    for (NodeId nbr : topology_.interference_neighbors(participants_[a])) {
      const int index = node_to_index_[static_cast<std::size_t>(nbr)];
      if (index >= 0) cover_[a].push_back(static_cast<std::size_t>(index));
    }
    for (NodeId nbr : topology_.neighbors(participants_[a])) {
      const int index = node_to_index_[static_cast<std::size_t>(nbr)];
      if (index >= 0) receivers_[a].push_back(static_cast<std::size_t>(index));
    }
  }
  air_.assign(n, Air::kIdle);
  covered_.assign(n, 0);
  backlogged_.reserve(n);
  admitted_.reserve(n);

  // Per-link Gilbert-Elliott fading, mean-preserving: the long-run average
  // reception probability of every link equals the topology's p_ij.
  effective_p_.assign(n * n, 0.0);
  const FadingConfig& fading = config_.fading;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const double p = topology_.prob(participants_[a], participants_[b]);
      if (p <= 0.0) continue;
      effective_p_[a * n + b] = p;
      if (!fading.enabled) continue;
      const double pi_bad = fading.bad_fraction;
      double p_good = p * (1.0 - pi_bad * fading.bad_scale) / (1.0 - pi_bad);
      double p_bad = p * fading.bad_scale;
      if (p_good > 0.98) {
        // Strong links saturate; rebalance the fade depth to keep the mean.
        p_good = 0.98;
        p_bad = (p - (1.0 - pi_bad) * p_good) / pi_bad;
        if (p_bad < 0.0) p_bad = 0.0;
      }
      LinkFade link{a, b, p_good, p_bad, rng_.chance(pi_bad)};
      effective_p_[a * n + b] = link.bad ? p_bad : p_good;
      fades_.push_back(link);
    }
  }
}

void SlottedMac::advance_fading() {
  const FadingConfig& fading = config_.fading;
  if (!fading.enabled) return;
  const std::size_t n = participants_.size();
  const double leave_bad = 1.0 / fading.mean_bad_slots;
  const double enter_bad = fading.bad_fraction / (1.0 - fading.bad_fraction) /
                           fading.mean_bad_slots;
  for (LinkFade& link : fades_) {
    if (link.bad) {
      if (rng_.chance(leave_bad)) link.bad = false;
    } else {
      if (rng_.chance(enter_bad)) link.bad = true;
    }
    effective_p_[link.tx_index * n + link.rx_index] =
        link.bad ? link.p_bad : link.p_good;
  }
}

int SlottedMac::index_of(NodeId node) const {
  OMNC_ASSERT(node >= 0 && node < topology_.node_count());
  const int index = node_to_index_[static_cast<std::size_t>(node)];
  OMNC_ASSERT_MSG(index >= 0, "node is not a MAC participant");
  return index;
}

void SlottedMac::set_receive_handler(ReceiveHandler handler) {
  receive_handler_ = std::move(handler);
}

void SlottedMac::add_slot_hook(SlotHook hook) {
  slot_hooks_.push_back(std::move(hook));
}

bool SlottedMac::enqueue(Frame frame) {
  NodeState& state = states_[static_cast<std::size_t>(index_of(frame.from))];
  if (state.queue.size() >= config_.max_queue) {
    ++drops_;
    if (observer_ != nullptr) observer_->on_drop(simulator_.now(), frame.from);
    return false;
  }
  OMNC_ASSERT(frame.bytes != nullptr);
  if (frame.to != kBroadcast) {
    OMNC_ASSERT(frame.to >= 0 && frame.to < topology_.node_count());
  }
  state.queue.push_back(std::move(frame));
  return true;
}

std::size_t SlottedMac::queue_size(NodeId node) const {
  return states_[static_cast<std::size_t>(index_of(node))].queue.size();
}

void SlottedMac::purge_queue(
    NodeId node, const std::function<bool(const Frame&)>& predicate) {
  auto& queue = states_[static_cast<std::size_t>(index_of(node))].queue;
  queue.erase(std::remove_if(queue.begin(), queue.end(), predicate),
              queue.end());
}

void SlottedMac::for_each_queued(
    NodeId node, const std::function<void(const Frame&)>& visit) const {
  for (const Frame& frame :
       states_[static_cast<std::size_t>(index_of(node))].queue) {
    visit(frame);
  }
}

void SlottedMac::start() {
  if (running_) return;
  running_ = true;
  simulator_.schedule_in(slot_duration(), [this] { run_slot(); });
}

void SlottedMac::stop() { running_ = false; }

void SlottedMac::cover(std::size_t tx) {
  for (std::size_t rx : cover_[tx]) {
    if (covered_[rx] < 2) ++covered_[rx];
  }
}

void SlottedMac::admit(std::size_t candidate) {
  admitted_.push_back(candidate);
  air_[candidate] = Air::kAdmitted;
  cover(candidate);
}

void SlottedMac::run_slot() {
  if (!running_) return;
  const sim::Time now = simulator_.now();
  advance_fading();
  for (const SlotHook& hook : slot_hooks_) hook(now);

  const std::size_t n = participants_.size();
  // Nodes finishing a multi-slot unicast attempt keep the channel busy: they
  // count as transmitting (interference + cannot receive) but send nothing
  // new and are not re-admitted.  Hidden-terminal collisions: a participant
  // covered by two or more concurrent transmitters (mid-attempt ones
  // included) receives nothing this slot.
  std::fill(covered_.begin(), covered_.end(), 0);
  backlogged_.clear();
  admitted_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    NodeState& state = states_[i];
    if (state.cooldown > 0) {
      --state.cooldown;
      air_[i] = Air::kMidAttempt;
      cover(i);
    } else if (!state.queue.empty()) {
      air_[i] = Air::kBacklogged;
      backlogged_.push_back(i);
    } else {
      air_[i] = Air::kIdle;
    }
  }

  if (config_.mode == MacMode::kIdealScheduling) {
    // Greedy maximal conflict-free schedule in uniformly random priority
    // order: an idealized randomized TDMA.  (Queue-length priority would let
    // a saturated source starve its own downstream relays forever.)
    rng_.shuffle(backlogged_);
    for (std::size_t candidate : backlogged_) {
      const auto& partners = conflict_partners_[candidate];
      if (std::none_of(partners.begin(), partners.end(),
                       [&](std::size_t other) { return transmitting(other); })) {
        admit(candidate);
      }
    }
  } else {
    // p-persistent CSMA: attempt with probability 1 / (1 + backlogged
    // in-range competitors).  Attempts are independent; nothing prevents two
    // in-range nodes from firing together — that is what collisions are.
    // Carrier sensing defers to in-range nodes already mid-attempt.
    for (std::size_t candidate : backlogged_) {
      std::size_t contenders = 1;
      bool channel_busy = false;
      for (std::size_t other : conflict_partners_[candidate]) {
        if (air_[other] == Air::kBacklogged || air_[other] == Air::kAdmitted) {
          ++contenders;
        } else if (air_[other] == Air::kMidAttempt) {
          channel_busy = true;
        }
      }
      if (channel_busy) {
        if (observer_ != nullptr) {
          observer_->on_contention(now, participants_[candidate],
                                   static_cast<int>(contenders), false);
        }
        continue;
      }
      const double attempt = std::min(
          1.0, config_.csma_persistence / static_cast<double>(contenders));
      const bool fired = rng_.chance(attempt);
      if (observer_ != nullptr) {
        observer_->on_contention(now, participants_[candidate],
                                 static_cast<int>(contenders), fired);
      }
      if (fired) admit(candidate);
    }
  }

  // Transmit.
  for (std::size_t tx_index : admitted_) {
    NodeState& state = states_[tx_index];
    Frame& frame = state.queue.front();
    ++state.transmissions;
    if (observer_ != nullptr) observer_->on_transmit(now, participants_[tx_index]);
    if (frame.to != kBroadcast && config_.unicast_slot_cost > 1) {
      state.cooldown = config_.unicast_slot_cost - 1;
    }
    bool consumed = true;
    auto receives = [&](std::size_t rx_index) {
      if (transmitting(rx_index)) return false;
      if (covered_[rx_index] >= 2) {
        if (observer_ != nullptr) {
          observer_->on_collision(now, participants_[rx_index]);
        }
        return false;
      }
      return rng_.chance(effective_p_[tx_index * n + rx_index]);
    };
    if (frame.to == kBroadcast) {
      for (std::size_t rx_index : receivers_[tx_index]) {
        if (!receives(rx_index)) continue;
        ++deliveries_;
        if (receive_handler_) receive_handler_(participants_[rx_index], frame);
      }
    } else {
      const int rx_index = node_to_index_[static_cast<std::size_t>(frame.to)];
      OMNC_ASSERT_MSG(rx_index >= 0, "unicast target not a participant");
      if (receives(static_cast<std::size_t>(rx_index))) {
        ++deliveries_;
        if (receive_handler_) receive_handler_(frame.to, frame);
      } else if (frame.reliable) {
        ++state.head_attempts;
        if (config_.unicast_retry_limit > 0 &&
            state.head_attempts >= config_.unicast_retry_limit) {
          ++retry_failures_;  // 802.11 gives up on the frame
        } else {
          consumed = false;  // ARQ: stays at the head for retransmission
        }
      }
    }
    if (consumed) {
      state.queue.pop_front();
      state.head_attempts = 0;
    }
  }

  // Queue-size samples for the Fig. 3 metric; observers average them.
  if (observer_ != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      observer_->on_queue_sample(now, participants_[i],
                                 states_[i].queue.size());
    }
  }

  if (running_) {
    simulator_.schedule_in(slot_duration(), [this] { run_slot(); });
  }
}

std::size_t SlottedMac::transmissions(NodeId node) const {
  return states_[static_cast<std::size_t>(index_of(node))].transmissions;
}

std::size_t SlottedMac::total_transmissions() const {
  std::size_t total = 0;
  for (const NodeState& state : states_) total += state.transmissions;
  return total;
}

std::size_t SlottedMac::total_deliveries() const { return deliveries_; }

}  // namespace omnc::net
