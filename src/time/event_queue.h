// Virtual-time event queue: the shared scheduling core of the testbed.
//
// One EventQueue underlies every virtual-time consumer in the repo — the
// slot simulator (sim::Simulator is a thin client), the WarpClock's
// thread-wakeup ledger, and any future event-driven runtime — so "what fires
// next" is decided by exactly one piece of code.  Events scheduled for the
// same instant fire in scheduling order (stable), which keeps runs
// deterministic.  Each handler lives in its heap entry, so scheduling and
// firing allocate nothing beyond the handler's own captures.  Cancellation
// is lazy: a cancelled entry keeps its place with an empty handler and is
// skipped when popped.
//
// The queue is not thread-safe; callers that share one across threads (the
// WarpClock) serialize externally.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace omnc::vtime {

using Time = double;  // seconds
using EventId = std::uint64_t;

class EventQueue {
 public:
  Time now() const { return now_; }

  /// Schedules `fn` (non-empty) at absolute time `at` (>= now), returning a
  /// handle that can be cancelled.
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Cancels a pending event; cancelling an already-fired or unknown event
  /// is a no-op.  Scans the heap: only tests cancel.
  void cancel(EventId id);

  /// Earliest pending live event time, pruning cancelled heap tops along the
  /// way.  Returns false when the queue is drained.
  bool next_time(Time* at);

  /// Pops the next live event, advances the clock to its instant, and runs
  /// it.  Returns false when drained.
  bool step();

  /// Advances the clock with no event processing; `t` may not precede a
  /// pending event (callers drain due events first) and moving backwards is
  /// a no-op.
  void advance_to(Time t);

  std::size_t processed() const { return processed_; }
  std::size_t pending() const { return heap_.size() - cancelled_; }

 private:
  struct Event {
    Time at;
    EventId id;  // increases with scheduling order: the tie-break
    std::function<void()> fn;  // empty once cancelled
  };
  /// Heap order: the root is the earliest (at, id).
  static bool later(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;
  }
  Event pop();

  Time now_ = 0.0;
  EventId next_id_ = 1;
  std::vector<Event> heap_;
  std::size_t cancelled_ = 0;  // cancelled entries still in heap_
  std::size_t processed_ = 0;
};

}  // namespace omnc::vtime
