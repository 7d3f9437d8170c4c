// Timing decorator over an emu::Transport.  It forwards every call to the
// wrapped transport unchanged (bind_clock and make_readiness included) and
// times, per calling thread:
//   * send()  — one broadcast into the channel, counted per wire frame
//               type (wire::peek_type);
//   * poll()  — the whole drain, and inside it each handler call (wire parse,
//               demux and runtime receive), so poll self = poll − handler;
//   * gaps    — from the end of one top-level send()/poll() to the start of
//               the thread's next one: the node step loop between transport
//               calls (the same clock reads, so calls and gaps tile the
//               thread's time from its first call to its last);
//   * node-poll intervals — wall and CLOCK_THREAD_CPUTIME_ID between
//               sampled polls of the same node, whose difference is time the
//               thread was blocked (the clock barrier under warp).
// Counters are per thread, so the hot path takes no lock and shares no
// cache line; totals() sums them after the run has joined its threads.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "emu/transport.h"
#include "probe.h"

namespace perfbench {

class TimingTransport final : public omnc::emu::Transport {
 public:
  /// Frame-type buckets of the per-type send counters.
  enum FrameKind { kData, kCompact, kAck, kPrice, kResync, kProbe, kOther,
                   kKinds };

  struct Totals {
    std::uint64_t sends = 0;
    std::uint64_t send_ns = 0;             // every send, nested or not
    std::uint64_t send_in_handler_ns = 0;  // sends made from a poll handler
    std::array<std::uint64_t, kKinds> frames{};
    std::uint64_t polls = 0;
    std::uint64_t empty_polls = 0;
    std::uint64_t poll_ns = 0;  // includes the handler time
    std::uint64_t handler_calls = 0;
    std::uint64_t handler_ns = 0;  // includes sends made by the handler
    std::uint64_t gap_ns = 0;
    std::uint64_t threads = 0;  // threads that called the decorator
    std::uint64_t interval_wall_ns = 0;
    std::uint64_t interval_cpu_ns = 0;
    std::uint64_t intervals = 0;

    Totals& operator+=(const Totals& other);
  };

  explicit TimingTransport(omnc::emu::Transport& inner);

  TimingTransport(const TimingTransport&) = delete;
  TimingTransport& operator=(const TimingTransport&) = delete;

  int nodes() const override { return inner_.nodes(); }
  void send(int from, std::span<const std::uint8_t> frame) override;
  std::size_t poll(int to, const Handler& handler) override;
  omnc::emu::TransportStats stats() const override { return inner_.stats(); }
  void bind_clock(const omnc::vtime::Clock* clock) override;
  std::unique_ptr<omnc::emu::TransportReadiness> make_readiness(
      std::span<const int> nodes) override {
    return inner_.make_readiness(nodes);
  }

  /// Keeps up to `per_thread` spans per calling thread in memory.
  void record_spans(std::size_t per_thread) { span_cap_ = per_thread; }

  /// Sums the per-thread counters.  Call after the run joined its threads.
  Totals totals() const;

  /// Moves the recorded spans into `log`, top-level ones under `parent`.
  void collect_spans(SpanLog* log, int parent) const;

 private:
  struct LocalSpan {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;  // index into the same thread's span vector, or -1
  };
  struct alignas(64) Slot {  // one cache line apart: no false sharing
    Totals totals;
    int tracked_node = -1;
    std::uint64_t passes = 0;  // polls of tracked_node so far
    bool marked = false;
    std::uint64_t mark_wall_ns = 0;
    std::uint64_t mark_cpu_ns = 0;
    bool called = false;          // a top-level call has returned
    std::uint64_t last_exit_ns = 0;  // when it returned
    bool in_handler = false;
    int open_handler_span = -1;
    std::vector<LocalSpan> spans;
  };

  /// The calling thread's counters, registered on first use.
  Slot& slot();
  /// Books the gap before a top-level call starting at `t0`.
  static void enter(Slot& s, std::uint64_t t0);
  void push_span(Slot& s, const char* name, std::uint64_t start,
                 std::uint64_t end, int parent);

  omnc::emu::Transport& inner_;
  const std::uint64_t id_;
  std::size_t span_cap_ = 0;
  mutable std::mutex mutex_;  // guards slots_ registration only
  std::deque<Slot> slots_;
};

}  // namespace perfbench
