#include "timing_transport.h"

#include <atomic>

#include "wire/frame.h"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> next_decorator_id{1};

/// The calling thread's slot for the decorator it last used.  Keyed by a
/// process-unique id, not the address: a new decorator may reuse the memory
/// of a destroyed one.
struct ThreadBinding {
  std::uint64_t owner = 0;
  void* slot = nullptr;
};
thread_local ThreadBinding binding;

TimingTransport::FrameKind kind_of(std::span<const std::uint8_t> frame) {
  using omnc::wire::FrameType;
  FrameType type = FrameType::kCodedData;
  if (!omnc::wire::peek_type(frame, &type)) return TimingTransport::kOther;
  switch (type) {
    case FrameType::kCodedData:
      return TimingTransport::kData;
    case FrameType::kCodedDataCompact:
      return TimingTransport::kCompact;
    case FrameType::kGenerationAck:
      return TimingTransport::kAck;
    case FrameType::kPriceUpdate:
      return TimingTransport::kPrice;
    case FrameType::kResyncRequest:
    case FrameType::kResyncInfo:
      return TimingTransport::kResync;
    case FrameType::kProbeBeacon:
    case FrameType::kProbeReport:
      return TimingTransport::kProbe;
  }
  return TimingTransport::kOther;
}

}  // namespace

TimingTransport::TimingTransport(omnc::emu::Transport& inner)
    : inner_(inner), id_(next_decorator_id.fetch_add(1)) {}

TimingTransport::Slot& TimingTransport::slot() {
  if (binding.owner != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_.emplace_back();
    binding.owner = id_;
    binding.slot = &slots_.back();
  }
  return *static_cast<Slot*>(binding.slot);
}

void TimingTransport::push_span(Slot& s, const char* name, std::uint64_t start,
                                std::uint64_t end, int parent) {
  if (s.spans.size() < span_cap_) {
    s.spans.push_back(LocalSpan{name, start, end, parent});
  }
}

void TimingTransport::enter(Slot& s, std::uint64_t t0) {
  if (s.called) s.totals.gap_ns += t0 - s.last_exit_ns;
}

void TimingTransport::bind_clock(const omnc::vtime::Clock* clock) {
  Transport::bind_clock(clock);
  inner_.bind_clock(clock);
}

void TimingTransport::send(int from, std::span<const std::uint8_t> frame) {
  Slot& s = slot();
  const FrameKind kind = kind_of(frame);
  const std::uint64_t t0 = wall_ns();
  if (!s.in_handler) enter(s, t0);
  inner_.send(from, frame);
  const std::uint64_t t1 = wall_ns();
  s.totals.sends += 1;
  s.totals.send_ns += t1 - t0;
  s.totals.frames[kind] += 1;
  if (s.in_handler) {
    s.totals.send_in_handler_ns += t1 - t0;
  } else {
    s.called = true;
    s.last_exit_ns = t1;
  }
  push_span(s, "transport.send", t0, t1,
            s.in_handler ? s.open_handler_span : -1);
}

std::size_t TimingTransport::poll(int to, const Handler& handler) {
  Slot& s = slot();
  // Node-poll intervals: the thread CPU clock (a ~300 ns syscall) is read
  // at the thread's first node once every kCpuSampleEvery passes, before
  // the poll timer starts, so the read is charged to the step loop rather
  // than to the transport.  The sampled intervals tile the run all the same.
  constexpr std::uint64_t kCpuSampleEvery = 16;
  if (s.tracked_node < 0) s.tracked_node = to;
  if (to == s.tracked_node && s.passes++ % kCpuSampleEvery == 0) {
    const std::uint64_t cpu = thread_cpu_ns();
    const std::uint64_t wall = wall_ns();
    if (s.marked) {
      s.totals.interval_wall_ns += wall - s.mark_wall_ns;
      s.totals.interval_cpu_ns += cpu - s.mark_cpu_ns;
      s.totals.intervals += 1;
    }
    s.marked = true;
    s.mark_wall_ns = wall;
    s.mark_cpu_ns = cpu;
  }

  const std::uint64_t t0 = wall_ns();
  enter(s, t0);
  // The wrapping handler captures one pointer, so std::function keeps it
  // inline instead of allocating on every poll.
  struct Call {
    Slot* s;
    const Handler* handler;
    int poll_span;
    std::size_t cap;
  } call{&s, &handler, -1, span_cap_};
  if (s.spans.size() < span_cap_) {
    call.poll_span = static_cast<int>(s.spans.size());
    s.spans.push_back(LocalSpan{"transport.poll", t0, 0, -1});
  }
  const std::size_t delivered = inner_.poll(
      to, [c = &call](int from, std::span<const std::uint8_t> bytes) {
        Slot& slot = *c->s;
        const std::uint64_t h0 = wall_ns();
        int handler_span = -1;
        if (c->poll_span >= 0 && slot.spans.size() < c->cap) {
          handler_span = static_cast<int>(slot.spans.size());
          slot.spans.push_back(
              LocalSpan{"emu.rx_handler", h0, 0, c->poll_span});
        }
        slot.in_handler = true;
        slot.open_handler_span = handler_span;
        (*c->handler)(from, bytes);
        slot.in_handler = false;
        slot.open_handler_span = -1;
        const std::uint64_t h1 = wall_ns();
        if (handler_span >= 0) {
          slot.spans[static_cast<std::size_t>(handler_span)].end_ns = h1;
        }
        slot.totals.handler_calls += 1;
        slot.totals.handler_ns += h1 - h0;
      });
  const std::uint64_t t1 = wall_ns();
  if (call.poll_span >= 0) {
    s.spans[static_cast<std::size_t>(call.poll_span)].end_ns = t1;
  }
  s.totals.polls += 1;
  if (delivered == 0) s.totals.empty_polls += 1;
  s.totals.poll_ns += t1 - t0;
  s.called = true;
  s.last_exit_ns = t1;
  return delivered;
}

TimingTransport::Totals& TimingTransport::Totals::operator+=(
    const Totals& other) {
  sends += other.sends;
  send_ns += other.send_ns;
  send_in_handler_ns += other.send_in_handler_ns;
  for (int k = 0; k < kKinds; ++k) frames[k] += other.frames[k];
  polls += other.polls;
  empty_polls += other.empty_polls;
  poll_ns += other.poll_ns;
  handler_calls += other.handler_calls;
  handler_ns += other.handler_ns;
  gap_ns += other.gap_ns;
  threads += other.threads;
  interval_wall_ns += other.interval_wall_ns;
  interval_cpu_ns += other.interval_cpu_ns;
  intervals += other.intervals;
  return *this;
}

TimingTransport::Totals TimingTransport::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals sum;
  for (const Slot& s : slots_) sum += s.totals;
  sum.threads = slots_.size();
  return sum;
}

void TimingTransport::collect_spans(SpanLog* log, int parent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int thread = 1;  // 0 is the main thread's span log
  for (const Slot& s : slots_) {
    std::vector<int> ids(s.spans.size(), -1);
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
      const LocalSpan& span = s.spans[i];
      const int up = span.parent >= 0
                         ? ids[static_cast<std::size_t>(span.parent)]
                         : parent;
      ids[i] = log->add(span.name, thread, span.start_ns, span.end_ns, up);
    }
    ++thread;
  }
}

}  // namespace perfbench
