#include "emu/fault_transport.h"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/assert.h"

namespace omnc::emu {
namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

bool parse_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool parse_int(const std::string& s, int* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  *out = static_cast<int>(v);
  return true;
}

/// "*" -> -1 (wildcard), otherwise a non-negative node index.
bool parse_endpoint(const std::string& s, int* out) {
  if (s == "*") {
    *out = -1;
    return true;
  }
  return parse_int(s, out) && *out >= 0;
}

/// LINK := '*' | from '-' to
bool parse_link(const std::string& s, int* from, int* to) {
  if (s == "*") {
    *from = *to = -1;
    return true;
  }
  const std::size_t dash = s.find('-');
  if (dash == std::string::npos) return false;
  return parse_endpoint(s.substr(0, dash), from) &&
         parse_endpoint(s.substr(dash + 1), to);
}

/// start '-' end, both seconds.
bool parse_window(const std::string& s, double* start, double* end) {
  const std::size_t dash = s.find('-');
  if (dash == std::string::npos) return false;
  return parse_double(s.substr(0, dash), start) &&
         parse_double(s.substr(dash + 1), end) && *start <= *end;
}

/// Finds the plan entry with exactly this pattern (so directives on the same
/// link compose into one entry), appending a fresh one if none exists.
LinkFault* link_entry(FaultPlan* plan, int from, int to) {
  for (LinkFault& fault : plan->links) {
    if (fault.from == from && fault.to == to) return &fault;
  }
  plan->links.push_back(LinkFault{});
  plan->links.back().from = from;
  plan->links.back().to = to;
  return &plan->links.back();
}

const char* preset_spec(const std::string& name) {
  // The shipped soak scenarios.  All stay inside the acceptance envelope:
  // burst loss <= 30% mean, partitions <= 2 s, single-node blackouts.
  if (name == "burst") return "ge=*:0.1,0.3,0.02,0.85";
  if (name == "jitter") return "jitter=*:0.02; reorder=*:0.25,0.05; dup=*:0.05";
  if (name == "partition") return "partition=2.0-4.0:1";
  if (name == "blackout") return "blackout=1:2.5-4.5";
  if (name == "chaos") {
    return "ge=*:0.08,0.35,0.01,0.8; dup=*:0.05; jitter=*:0.01; "
           "reorder=*:0.1,0.03; blackout=1:2.0-3.0";
  }
  return nullptr;
}

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

std::string link_str(int from, int to) {
  std::string out = from < 0 ? "*" : std::to_string(from);
  out += '-';
  out += to < 0 ? "*" : std::to_string(to);
  return out;
}

}  // namespace

double GilbertElliott::mean_loss() const {
  const double denom = p_good_bad + p_bad_good;
  const double pi_bad = denom > 0.0 ? p_good_bad / denom : 0.0;
  return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
}

std::vector<std::string> FaultPlan::preset_names() {
  return {"burst", "jitter", "partition", "blackout", "chaos"};
}

bool FaultPlan::parse(const std::string& spec, FaultPlan* out,
                      std::string* error) {
  FaultPlan plan;
  const std::string trimmed = trim(spec);
  const char* preset = preset_spec(trimmed);
  const std::string source = preset != nullptr ? preset : trimmed;
  for (const std::string& directive : split(source, ';')) {
    if (directive.empty()) continue;
    const std::size_t eq = directive.find('=');
    if (eq == std::string::npos) {
      if (error) *error = "missing '=' in directive '" + directive + "'";
      return false;
    }
    const std::string key = trim(directive.substr(0, eq));
    const std::string value = trim(directive.substr(eq + 1));
    bool ok = false;
    if (key == "seed") {
      int seed = 0;
      ok = parse_int(value, &seed) && seed >= 0;
      if (ok) plan.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "ge" || key == "loss" || key == "dup" ||
               key == "reorder" || key == "jitter") {
      const std::size_t colon = value.find(':');
      int from = -1, to = -1;
      if (colon == std::string::npos ||
          !parse_link(value.substr(0, colon), &from, &to)) {
        if (error) *error = "bad link in directive '" + directive + "'";
        return false;
      }
      const std::vector<std::string> args =
          split(value.substr(colon + 1), ',');
      LinkFault* fault = link_entry(&plan, from, to);
      if (key == "ge") {
        ok = args.size() == 4 && parse_double(args[0], &fault->ge.p_good_bad) &&
             parse_double(args[1], &fault->ge.p_bad_good) &&
             parse_double(args[2], &fault->ge.loss_good) &&
             parse_double(args[3], &fault->ge.loss_bad);
      } else if (key == "loss") {
        double p = 0.0;
        ok = args.size() == 1 && parse_double(args[0], &p);
        if (ok) fault->ge = GilbertElliott{0.0, 1.0, p, 0.0};
      } else if (key == "dup") {
        ok = args.size() == 1 && parse_double(args[0], &fault->duplicate_p);
      } else if (key == "reorder") {
        ok = args.size() == 2 && parse_double(args[0], &fault->reorder_p) &&
             parse_double(args[1], &fault->reorder_hold_s);
      } else {  // jitter
        ok = args.size() == 1 && parse_double(args[0], &fault->jitter_s);
      }
    } else if (key == "partition") {
      const std::size_t colon = value.find(':');
      Partition partition;
      ok = colon != std::string::npos &&
           parse_window(value.substr(0, colon), &partition.start_s,
                        &partition.end_s);
      if (ok) {
        for (const std::string& node : split(value.substr(colon + 1), ',')) {
          int index = -1;
          if (!parse_int(node, &index) || index < 0) {
            ok = false;
            break;
          }
          partition.isolated.push_back(index);
        }
        ok = ok && !partition.isolated.empty();
      }
      if (ok) plan.partitions.push_back(std::move(partition));
    } else if (key == "blackout") {
      const std::size_t colon = value.find(':');
      Blackout blackout;
      ok = colon != std::string::npos &&
           parse_int(value.substr(0, colon), &blackout.node) &&
           blackout.node >= 0 &&
           parse_window(value.substr(colon + 1), &blackout.start_s,
                        &blackout.end_s);
      if (ok) plan.blackouts.push_back(blackout);
    } else {
      if (error) *error = "unknown directive '" + key + "'";
      return false;
    }
    if (!ok) {
      if (error) *error = "bad arguments in directive '" + directive + "'";
      return false;
    }
  }
  *out = std::move(plan);
  return true;
}

std::string FaultPlan::describe() const {
  std::string out;
  append_fmt(out, "seed=%llu", static_cast<unsigned long long>(seed));
  for (const LinkFault& fault : links) {
    const std::string link = link_str(fault.from, fault.to);
    if (fault.ge.enabled()) {
      append_fmt(out, " ge[%s: %g,%g,%g,%g mean=%.0f%%]", link.c_str(),
                 fault.ge.p_good_bad, fault.ge.p_bad_good, fault.ge.loss_good,
                 fault.ge.loss_bad, 100.0 * fault.ge.mean_loss());
    }
    if (fault.duplicate_p > 0.0) {
      append_fmt(out, " dup[%s: %g]", link.c_str(), fault.duplicate_p);
    }
    if (fault.reorder_p > 0.0) {
      append_fmt(out, " reorder[%s: %g,%gs]", link.c_str(), fault.reorder_p,
                 fault.reorder_hold_s);
    }
    if (fault.jitter_s > 0.0) {
      append_fmt(out, " jitter[%s: %gs]", link.c_str(), fault.jitter_s);
    }
  }
  for (const Partition& partition : partitions) {
    append_fmt(out, " partition[%g-%gs:", partition.start_s, partition.end_s);
    for (std::size_t i = 0; i < partition.isolated.size(); ++i) {
      append_fmt(out, "%s%d", i > 0 ? "," : " ", partition.isolated[i]);
    }
    out += ']';
  }
  for (const Blackout& blackout : blackouts) {
    append_fmt(out, " blackout[%d: %g-%gs]", blackout.node, blackout.start_s,
               blackout.end_s);
  }
  return out;
}

protocols::MetricEvent fault_metric_event(const FaultRecord& record,
                                          std::uint32_t session_id) {
  protocols::MetricEvent event;
  switch (record.kind) {
    case FaultRecord::Kind::kLoss:
      event.type = protocols::MetricEvent::Type::kEmuFaultLoss;
      break;
    case FaultRecord::Kind::kReorder:
      event.type = protocols::MetricEvent::Type::kEmuFaultReorder;
      break;
    case FaultRecord::Kind::kDuplicate:
      event.type = protocols::MetricEvent::Type::kEmuFaultDup;
      break;
    case FaultRecord::Kind::kPartition:
      event.type = protocols::MetricEvent::Type::kEmuFaultPartition;
      break;
    case FaultRecord::Kind::kBlackout:
      event.type = protocols::MetricEvent::Type::kEmuFaultBlackout;
      break;
  }
  event.time = record.time;
  event.session = session_id;
  event.tx_local = record.from;
  event.rx_local = record.to;
  event.generation = static_cast<std::uint32_t>(record.link_copy);
  event.value = static_cast<double>(record.bytes);
  return event;
}

FaultTransport::FaultTransport(Transport& inner, FaultPlan plan)
    : inner_(inner), plan_(std::move(plan)) {
  const int n = inner_.nodes();
  OMNC_ASSERT(n > 0);
  links_.resize(static_cast<std::size_t>(n) * n);
  held_.resize(static_cast<std::size_t>(n));
  Rng master(plan_.seed);
  for (int from = 0; from < n; ++from) {
    for (int to = 0; to < n; ++to) {
      const std::size_t index = static_cast<std::size_t>(from) * n + to;
      LinkState& state = links_[index];
      state.rng = master.fork(5000 + index);
      for (const LinkFault& fault : plan_.links) {
        if ((fault.from >= 0 && fault.from != from) ||
            (fault.to >= 0 && fault.to != to)) {
          continue;
        }
        state.configured = true;
        if (fault.ge.enabled()) state.fault.ge = fault.ge;
        if (fault.duplicate_p > 0.0) state.fault.duplicate_p = fault.duplicate_p;
        if (fault.reorder_p > 0.0) {
          state.fault.reorder_p = fault.reorder_p;
          state.fault.reorder_hold_s = fault.reorder_hold_s;
        }
        if (fault.jitter_s > 0.0) state.fault.jitter_s = fault.jitter_s;
      }
    }
  }
  inner_.set_observer(this);
}

FaultTransport::~FaultTransport() { inner_.set_observer(nullptr); }

void FaultTransport::bind_clock(const vtime::Clock* clock) {
  Transport::bind_clock(clock);
  inner_.bind_clock(clock);
}

bool FaultTransport::in_blackout(int node, double t) const {
  for (const Blackout& blackout : plan_.blackouts) {
    if (blackout.node == node && t >= blackout.start_s && t < blackout.end_s) {
      return true;
    }
  }
  return false;
}

bool FaultTransport::partition_cuts(int from, int to, double t) const {
  for (const Partition& partition : plan_.partitions) {
    if (t < partition.start_s || t >= partition.end_s) continue;
    const bool from_isolated =
        std::find(partition.isolated.begin(), partition.isolated.end(),
                  from) != partition.isolated.end();
    const bool to_isolated =
        std::find(partition.isolated.begin(), partition.isolated.end(), to) !=
        partition.isolated.end();
    if (from_isolated != to_isolated) return true;
  }
  return false;
}

void FaultTransport::emit_fault(FaultRecord::Kind kind, int from, int to,
                                std::span<const std::uint8_t> frame,
                                std::uint64_t link_copy, double t) {
  if (observer_ == nullptr) return;
  FaultRecord record;
  record.kind = kind;
  record.from = from;
  record.to = to;
  record.bytes = frame.size();
  record.link_copy = link_copy;
  record.time = t;
  record.frame = frame;  // valid for the callback only
  observer_->on_fault(record);
}

void FaultTransport::deliver(int from, int to,
                             std::span<const std::uint8_t> bytes,
                             const Handler& handler) {
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->on_deliver(from, to, bytes.size());
  handler(from, bytes);
}

void FaultTransport::send(int from, std::span<const std::uint8_t> frame) {
  const double t = clock_now();
  if (in_blackout(from, t)) {
    // A crashed node transmits nothing; the frame is never offered to the
    // channel, so frames_sent does not count it.
    blackout_tx_suppressed_.fetch_add(1, std::memory_order_relaxed);
    emit_fault(FaultRecord::Kind::kBlackout, from, -1, frame, 0, t);
    return;
  }
  inner_.send(from, frame);
}

std::size_t FaultTransport::admit(int from, int to,
                                  std::span<const std::uint8_t> bytes,
                                  double t, bool rx_dead,
                                  const Handler& handler) {
  const int n = inner_.nodes();
  LinkState& link = links_[static_cast<std::size_t>(from) * n + to];
  const std::uint64_t copy = link.copies++;
  // Fixed draw order per copy (GE transition, GE loss, duplicate, reorder,
  // jitter), so the stream position depends only on (seed, link, copy) —
  // time-windowed outcomes below never shift it.
  bool ge_loss = false;
  bool dup = false;
  bool reorder = false;
  double delay = 0.0;
  if (link.configured) {
    const LinkFault& fault = link.fault;
    if (fault.ge.enabled()) {
      const double flip =
          link.bad ? fault.ge.p_bad_good : fault.ge.p_good_bad;
      if (link.rng.chance(flip)) link.bad = !link.bad;
      ge_loss =
          link.rng.chance(link.bad ? fault.ge.loss_bad : fault.ge.loss_good);
    }
    if (fault.duplicate_p > 0.0) dup = link.rng.chance(fault.duplicate_p);
    if (fault.reorder_p > 0.0) reorder = link.rng.chance(fault.reorder_p);
    if (fault.jitter_s > 0.0) delay = link.rng.uniform(0.0, fault.jitter_s);
    if (reorder) delay += fault.reorder_hold_s;
  }
  if (rx_dead) {
    blackout_rx_drops_.fetch_add(1, std::memory_order_relaxed);
    emit_fault(FaultRecord::Kind::kBlackout, from, to, bytes, copy, t);
    return 0;
  }
  if (partition_cuts(from, to, t)) {
    partition_drops_.fetch_add(1, std::memory_order_relaxed);
    emit_fault(FaultRecord::Kind::kPartition, from, to, bytes, copy, t);
    return 0;
  }
  if (ge_loss) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    emit_fault(FaultRecord::Kind::kLoss, from, to, bytes, copy, t);
    return 0;
  }
  std::size_t delivered = 0;
  if (dup) {
    duplicated_.fetch_add(1, std::memory_order_relaxed);
    emit_fault(FaultRecord::Kind::kDuplicate, from, to, bytes, copy, t);
    deliver(from, to, bytes, handler);
    ++delivered;
  }
  if (reorder) {
    reordered_.fetch_add(1, std::memory_order_relaxed);
    emit_fault(FaultRecord::Kind::kReorder, from, to, bytes, copy, t);
  }
  if (delay > 0.0) {
    Held held;
    held.due = t + delay;
    held.from = from;
    held.link_copy = copy;
    held.bytes.assign(bytes.begin(), bytes.end());
    std::vector<Held>& queue = held_[static_cast<std::size_t>(to)];
    const auto position = std::upper_bound(
        queue.begin(), queue.end(), held.due,
        [](double due, const Held& other) { return due < other.due; });
    queue.insert(position, std::move(held));
    return delivered;
  }
  deliver(from, to, bytes, handler);
  return delivered + 1;
}

std::size_t FaultTransport::poll(int to, const Handler& handler) {
  const double t = clock_now();
  const bool rx_dead = in_blackout(to, t);
  // The handler captures one pointer to this frame's state, so
  // std::function keeps it inline instead of allocating on every poll
  // (most polls find nothing).
  struct Arrivals {
    FaultTransport* self;
    const Handler* handler;
    double t;
    int to;
    bool rx_dead;
    std::size_t count;
  } arrivals{this, &handler, t, to, rx_dead, 0};
  inner_.poll(to, [a = &arrivals](int from,
                                  std::span<const std::uint8_t> bytes) {
    a->count += a->self->admit(from, a->to, bytes, a->t, a->rx_dead,
                               *a->handler);
  });
  std::size_t count = arrivals.count;
  // Release copies whose jitter/reorder hold expired; a copy due during the
  // receiver's blackout dies with it.
  std::vector<Held>& queue = held_[static_cast<std::size_t>(to)];
  while (!queue.empty() && queue.front().due <= t) {
    Held held = std::move(queue.front());
    queue.erase(queue.begin());
    if (rx_dead) {
      blackout_rx_drops_.fetch_add(1, std::memory_order_relaxed);
      emit_fault(FaultRecord::Kind::kBlackout, held.from, to, held.bytes,
                 held.link_copy, t);
      continue;
    }
    deliver(held.from, to, held.bytes, handler);
    ++count;
  }
  return count;
}

TransportStats FaultTransport::stats() const {
  TransportStats stats = inner_.stats();
  stats.copies_dropped += lost_.load(std::memory_order_relaxed) +
                          partition_drops_.load(std::memory_order_relaxed) +
                          blackout_rx_drops_.load(std::memory_order_relaxed);
  // Post-filter deliveries (includes duplicates; excludes injector kills
  // counted by the inner transport as delivered-to-the-decorator).
  stats.copies_delivered = delivered_.load(std::memory_order_relaxed);
  return stats;
}

FaultStats FaultTransport::fault_stats() const {
  FaultStats stats;
  stats.lost = lost_.load(std::memory_order_relaxed);
  stats.duplicated = duplicated_.load(std::memory_order_relaxed);
  stats.reordered = reordered_.load(std::memory_order_relaxed);
  stats.partition_drops = partition_drops_.load(std::memory_order_relaxed);
  stats.blackout_rx_drops =
      blackout_rx_drops_.load(std::memory_order_relaxed);
  stats.blackout_tx_suppressed =
      blackout_tx_suppressed_.load(std::memory_order_relaxed);
  stats.delivered = delivered_.load(std::memory_order_relaxed);
  return stats;
}

// Inner-transport observer taps ---------------------------------------------

void FaultTransport::on_send(int from, std::size_t bytes) {
  if (observer_ != nullptr) observer_->on_send(from, bytes);
}

void FaultTransport::on_drop(int from, int to,
                             std::span<const std::uint8_t> frame) {
  if (observer_ != nullptr) observer_->on_drop(from, to, frame);
}

void FaultTransport::on_deliver(int from, int to, std::size_t bytes) {
  // Swallowed: the inner transport delivered the copy to the injector, not
  // to the node; poll() re-emits on_deliver for copies that survive.
  (void)from;
  (void)to;
  (void)bytes;
}

void FaultTransport::on_truncated(int from, int to, std::size_t claimed_bytes) {
  if (observer_ != nullptr) observer_->on_truncated(from, to, claimed_bytes);
}

}  // namespace omnc::emu
