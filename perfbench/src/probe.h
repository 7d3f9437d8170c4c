// Shared measurement vocabulary of the perfbench binary: clocks, process
// resource usage, the in-memory span log, and the report every workload
// fills.  Everything here observes the library from outside — no library
// file is instrumented beyond the registry timers it already carries.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans
};

/// Steady wall clock, thread CPU and process CPU, in nanoseconds.
std::uint64_t wall_ns();
std::uint64_t thread_cpu_ns();
std::uint64_t process_cpu_ns();

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long vol_ctx_switches = 0;
};
Usage usage();

/// Peak resident memory of this process, in MB (0 when unknown).
double peak_rss_mb();

/// Derives the seed of a run's input number `rep` from the workload seed,
/// so a run's inputs are distinct and the same --seed reproduces them all.
std::uint64_t rep_seed(std::uint64_t seed, int rep);

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

/// In-memory span log: (name, start, end, parent) per layer call the benchmark
/// makes.  Written out once, when the run ends.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span on the calling (main) thread and returns its id.
  int begin(const char* name, int parent);
  void end(int id);
  /// Appends an already-closed span (e.g. from the transport decorator).
  int add(const char* name, int thread, std::uint64_t start_ns,
          std::uint64_t end_ns, int parent);
  std::size_t size() const { return spans_.size(); }
  /// JSON lines, one span each; returns false when the file cannot be
  /// written.
  bool write(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    const char* name;
    int thread;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
};

/// Closes its span on scope exit; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log ? log->begin(name, parent) : SpanLog::kNoParent) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// One reported metric.  `samples` is how many observations back it; a
/// metric of a layer the workload exercises must have samples > 0, while a
/// layer the workload never touches reports value 0 with exercised = false.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  bool exercised = true;
  // Distribution of a per-repetition metric (all 0 otherwise).
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
};

/// One timed run of one input: which input, what it cost (wall or CPU
/// seconds) and how much work it did.
struct Sample {
  int input = 0;
  double cost = 0.0;
  double work = 0.0;
};

/// Cost and work summed over the inputs, each input counted by its fastest
/// run.  Every input of a run is run many times over; co-tenant load on a
/// shared host only ever slows a run down and comes in bursts, so an
/// input's fastest run is the one no burst hit, while medians move with
/// the neighbours' load.  work / cost is then the rate of the code itself.
struct BestTotal {
  double cost = 0.0;
  double work = 0.0;
  std::size_t inputs = 0;
  double rate() const { return work / cost; }
};
BestTotal best_of(const std::vector<Sample>& samples);

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> ledger;  // human-readable ledger rows

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void e2e(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    end_to_end[name] = Metric{value, unit, samples, true};
  }
  /// Per-repetition costs (in run order, `round` repetitions a round):
  /// each round's smallest, then the median over the rounds, kept with the
  /// rounds' quartiles.  A burst of co-tenant load rarely spans a whole
  /// round, and the median discards the rounds a longer one did.
  void e2e_rounds(const std::string& name, const std::vector<double>& per_rep,
                  int round, const char* unit);
  void layer(const std::string& name, double value, const char* unit,
             std::size_t samples) {
    per_layer[name] = Metric{value, unit, samples, true};
  }
  /// A layer this workload does not run: reported as 0, flagged idle.
  void idle(const std::string& name);
  /// Marks idle every per-layer metric whose name starts with a prefix.
  void idle_layers(std::initializer_list<const char*> prefixes);
};

/// Every per-layer metric, with its unit; each workload reports all of
/// them (idle ones as 0).
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricDef>& layer_metrics();

/// Names of the library's registry timers the ledger reads.
namespace timers {
inline constexpr const char* kEncode = "coding/encode";
inline constexpr const char* kRecode = "coding/recode";
inline constexpr const char* kDecode = "coding/decode";
inline constexpr const char* kRrefInsert = "coding/rref_insert";
inline constexpr const char* kMaterialize = "coding/rref_materialize";
inline constexpr const char* kStructuredOffer = "codes/structured_offer";
inline constexpr const char* kStructuredRecover = "codes/structured_recover";
inline constexpr const char* kSlot = "engine/slot";
inline constexpr const char* kPivot = "lp/simplex_pivot";
}  // namespace timers

/// Exact count and total of one registry timer (the log2 buckets are not
/// used).
struct TimerTotal {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  double ns_per_call() const {
    return count > 0 ? static_cast<double>(total_ns) / count : 0.0;
  }
};
TimerTotal timer_total(const char* name);

/// Registry self time of the coding layers.  coding/decode wraps
/// coding/rref_insert, so only the inner timer is summed.
struct CodingTotals {
  double tx_s = 0.0;  // encode + recode: transmit side (node step loop)
  double rx_s = 0.0;  // rref insert + materialize + structured offer/recover:
                      // receive side (inside the transport poll handler)
  double total_s() const { return tx_s + rx_s; }
};
CodingTotals coding_totals();

/// Fills the coding.* registry metrics shared by every workload; `gens`
/// is the number of decoded generations the materialize time is spread over.
void report_coding_timers(Report* report, double gens, bool expect_dense,
                          bool expect_structured);

/// Runs rounds of repetitions — `run(i)` for i = 0 .. round - 1, then again
/// — until `seconds` of wall time have passed or the report records a
/// failure.  The first round always completes, so every input of a run is
/// measured; the last round may stop part-way, at the deadline.
template <typename Rep, typename F>
std::vector<Rep> repeat_rounds(double seconds, int round, const Report& report,
                               F run) {
  std::vector<Rep> reps;
  const std::uint64_t start = wall_ns();
  for (int i = 0; report.correct; i = (i + 1) % round) {
    if (static_cast<int>(reps.size()) >= round &&
        1e-9 * static_cast<double>(wall_ns() - start) >= seconds) {
      break;
    }
    reps.push_back(run(i));
  }
  return reps;
}

/// f(rep) for every repetition.
template <typename Rep, typename F>
std::vector<double> each(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const Rep& rep : reps) out.push_back(f(rep));
  return out;
}

bool is_emu_workload(const std::string& workload);
void run_emu_workload(const Args& args, Report* report, SpanLog* spans);
void run_sim_workload(const Args& args, Report* report, SpanLog* spans);

}  // namespace perfbench
