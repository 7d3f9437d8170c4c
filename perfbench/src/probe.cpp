#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "obs/registry.h"

namespace perfbench {
namespace {

std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = seconds_of(ru.ru_utime);
  u.sys_s = seconds_of(ru.ru_stime);
  u.vol_ctx_switches = ru.ru_nvcsw;
  return u;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; ru_maxrss would also carry the
  // launching process's peak across fork + exec.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  // splitmix64 over (seed, rep): distinct, well-mixed, never 0.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(rep + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

int SpanLog::begin(const char* name, int parent) {
  spans_.push_back(Span{name, 0, wall_ns(), 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
}

int SpanLog::add(const char* name, int thread, std::uint64_t start_ns,
                 std::uint64_t end_ns, int parent) {
  spans_.push_back(Span{name, thread, start_ns, end_ns, parent});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::write(const std::string& path, const std::string& header) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "%s\n", header.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"thread\":%d,\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d}\n",
                 i, s.name, s.thread,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent);
  }
  return std::fclose(out) == 0;
}

const std::vector<LayerMetricDef>& layer_metrics() {
  static const std::vector<LayerMetricDef> metrics = {
      {"coding.encode_ns", "ns"},
      {"coding.recode_ns", "ns"},
      {"coding.decode_ns", "ns"},
      {"coding.rref_insert_ns", "ns"},
      {"coding.materialize_us_per_gen", "us"},
      {"codes.structured_offer_ns", "ns"},
      {"codes.structured_recover_ns", "ns"},
      {"coding.innovative_ratio", "ratio"},
      {"coding.cpu_share", "ratio"},
      {"transport.send_ns_per_frame", "ns"},
      {"transport.poll_self_ns_per_copy", "ns"},
      {"transport.empty_poll_ratio", "ratio"},
      {"transport.sys_cpu_share", "ratio"},
      {"transport.delivery_ratio", "ratio"},
      {"emu.rx_handler_ns_per_copy", "ns"},
      {"emu.frames_per_gen.data", "count"},
      {"emu.frames_per_gen.compact", "count"},
      {"emu.frames_per_gen.ack", "count"},
      {"emu.frames_per_gen.price", "count"},
      {"emu.frames_per_gen.resync", "count"},
      {"emu.frames_per_gen.probe", "count"},
      {"emu.control_frame_share", "ratio"},
      {"emu.stall_boosts_per_gen", "count"},
      {"emu.resyncs_per_gen", "count"},
      {"emu.demux_rejects", "count"},
      {"time.blocked_share", "ratio"},
      {"time.vol_ctx_switches_per_copy", "count"},
      {"routing.select_nodes_ms", "ms"},
      {"opt.rate_control_ms", "ms"},
      {"opt.rate_control_iters", "count"},
      {"sim.slot_ns", "ns"},
      {"lp.simplex_pivots", "count"},
      {"sim.omnc_ms_per_session", "ms"},
      {"sim.more_ms_per_session", "ms"},
      {"sim.oldmore_ms_per_session", "ms"},
      {"sim.etx_ms_per_session", "ms"},
      {"ledger.unaccounted_share", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return metrics;
}

BestTotal best_of(const std::vector<Sample>& samples) {
  std::map<int, Sample> best;  // by input
  for (const Sample& s : samples) {
    const auto [it, fresh] = best.emplace(s.input, s);
    if (!fresh && s.cost < it->second.cost) it->second = s;
  }
  BestTotal total;
  for (const auto& [input, s] : best) {
    total.cost += s.cost;
    total.work += s.work;
  }
  total.inputs = best.size();
  return total;
}

void Report::e2e_rounds(const std::string& name,
                        const std::vector<double>& per_rep, int round,
                        const char* unit) {
  std::vector<double> minima;
  for (std::size_t i = 0; i < per_rep.size(); i += round) {
    const std::size_t end = std::min(per_rep.size(), i + round);
    minima.push_back(
        *std::min_element(per_rep.begin() + i, per_rep.begin() + end));
  }
  Metric m{median(minima), unit, minima.size(), true};
  m.p25 = percentile(minima, 25.0);
  m.p50 = m.value;
  m.p75 = percentile(minima, 75.0);
  end_to_end[name] = m;
}

void Report::idle(const std::string& name) {
  for (const LayerMetricDef& def : layer_metrics()) {
    if (name == def.name) {
      per_layer[name] = Metric{0.0, def.unit, 0, false};
      return;
    }
  }
  fail("unknown per-layer metric " + name);
}

void Report::idle_layers(std::initializer_list<const char*> prefixes) {
  for (const LayerMetricDef& def : layer_metrics()) {
    for (const char* prefix : prefixes) {
      if (std::string(def.name).rfind(prefix, 0) == 0) idle(def.name);
    }
  }
}

TimerTotal timer_total(const char* name) {
  const omnc::obs::Timer& timer =
      omnc::obs::MetricsRegistry::global().timer(name);
  return TimerTotal{timer.count(), timer.total_ns()};
}

CodingTotals coding_totals() {
  const auto seconds = [](const char* name) {
    return 1e-9 * static_cast<double>(timer_total(name).total_ns);
  };
  CodingTotals totals;
  totals.tx_s = seconds(timers::kEncode) + seconds(timers::kRecode);
  totals.rx_s = seconds(timers::kRrefInsert) + seconds(timers::kMaterialize) +
                seconds(timers::kStructuredOffer) +
                seconds(timers::kStructuredRecover);
  return totals;
}

void report_coding_timers(Report* report, double gens, bool expect_dense,
                          bool expect_structured) {
  const auto per_call = [&](const char* metric, const char* timer,
                            bool expected) {
    const TimerTotal t = timer_total(timer);
    if (t.count == 0) {
      if (expected) {
        report->fail(std::string(metric) + ": no samples (" + timer +
                     " never fired)");
      }
      report->idle(metric);
      return;
    }
    report->layer(metric, t.ns_per_call(), "ns", t.count);
  };
  per_call("coding.encode_ns", timers::kEncode, expect_dense);
  per_call("coding.recode_ns", timers::kRecode, true);
  per_call("coding.decode_ns", timers::kDecode, expect_dense);
  per_call("coding.rref_insert_ns", timers::kRrefInsert, true);
  per_call("codes.structured_offer_ns", timers::kStructuredOffer,
           expect_structured);
  per_call("codes.structured_recover_ns", timers::kStructuredRecover,
           expect_structured);
  const TimerTotal mat = timer_total(timers::kMaterialize);
  if (mat.count == 0 || gens <= 0.0) {
    if (expect_dense) report->fail("coding.materialize_us_per_gen: no samples");
    report->idle("coding.materialize_us_per_gen");
  } else {
    report->layer("coding.materialize_us_per_gen",
                  1e-3 * static_cast<double>(mat.total_ns) / gens, "us",
                  mat.count);
  }
}

}  // namespace perfbench
