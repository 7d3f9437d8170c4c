#include "time/event_queue.h"

#include <algorithm>

#include "common/assert.h"

namespace omnc::vtime {

EventId EventQueue::schedule_at(Time at, std::function<void()> fn) {
  OMNC_ASSERT_MSG(at >= now_, "scheduling into the past");
  OMNC_ASSERT(fn != nullptr);
  const EventId id = next_id_++;
  heap_.push_back(Event{at, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), later);
  return id;
}

void EventQueue::cancel(EventId id) {
  for (Event& event : heap_) {
    if (event.id != id || event.fn == nullptr) continue;
    event.fn = nullptr;
    ++cancelled_;
    return;
  }
}

EventQueue::Event EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Event event = std::move(heap_.back());
  heap_.pop_back();
  if (event.fn == nullptr) --cancelled_;
  return event;
}

bool EventQueue::next_time(Time* at) {
  while (!heap_.empty() && heap_.front().fn == nullptr) pop();
  if (heap_.empty()) return false;
  *at = heap_.front().at;
  return true;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    // Moved out before it runs: the handler may schedule more events.
    Event event = pop();
    if (event.fn == nullptr) continue;  // lazily dropped
    now_ = event.at;
    ++processed_;
    event.fn();
    return true;
  }
  return false;
}

void EventQueue::advance_to(Time t) {
  if (t > now_) now_ = t;
}

}  // namespace omnc::vtime
