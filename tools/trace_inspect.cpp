// Offline trace inspector: replays a JSONL trace (bench --trace PATH)
// through the live metric sinks and reports what the run looked like.
//
// Usage: trace_inspect <trace.jsonl> [--summary] [--queues] [--edges]
//                      [--latency] [--convergence] [--probes] [--transport]
//                      [--sessions] [--faults] [--registry] [--verify]
//                      [--check-json PATH] [--run N]
//
//   --summary       per-run result table (default when nothing is selected)
//   --queues        per-node queue timelines rebuilt by QueueTimelineSink
//   --edges         per-edge innovative-delivery counts (Fig. 4 raw data)
//   --latency       generation ACK latency percentiles per session
//   --convergence   rate-control gamma-bar vs iteration (Fig. 1 curve)
//   --probes        link-prober estimates vs true reception probabilities
//   --transport     emulation transport summary (emu_send / emu_drop /
//                   emu_deliver / emu_parse_error events, per-link loss)
//   --sessions      per-session breakdown of a session-mux run (omnc_emu
//                   --sessions N): generations ACKed, ACK latency, and
//                   session-attributed drops, grouped by wire session id;
//                   session-0 (unattributable transport) events are
//                   reported separately
//   --faults        fault-injection summary (floss / freord / fdup / fpart /
//                   fblack events per kind and per link, truncated-datagram
//                   parse errors, fault activity time span)
//   --registry      registry timers recorded in the trace: count, mean,
//                   percentiles, min and max in nanoseconds
//   --verify        replay every run and compare each reconstructed metric
//                   with the recorded ground truth (exact double equality);
//                   exit code 1 on any mismatch
//   --check-json    cross-check a bench's --json output against the trace
//   --timeline G    per-packet causal timeline of generation G ("all" for
//                   every generation) rebuilt from span records, plus a
//                   DAG-completeness check: every decoded generation must
//                   walk back to source roots (exit 1 when it does not)
//   --histograms    latency histograms recorded in the trace (hop delay,
//                   decode latency, stall wait): count/mean/percentiles
//   --codes         per-run code-family summary from span records:
//                   innovative / non-innovative receive counts, mean pivot
//                   column, and the systematic fast-path hit ratio
//   --diff B.jsonl  cross-run regression triage: compare this trace's
//                   histograms and event counts against trace B
//   --run N         restrict the report to one run id
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/table.h"
#include "obs/trace_inspect.h"
#include "obs/trace_reader.h"

using namespace omnc;

namespace {

bool run_selected(const Options& options, const obs::RecordedRun& run) {
  return !options.has("run") ||
         options.get_int("run", -1) == static_cast<long>(run.id);
}

void print_summary(const obs::Trace& trace, const Options& options) {
  std::printf("trace: tool=%s build=%s schema=%d params=\"%s\"\n",
              trace.tool.c_str(), trace.build.c_str(), trace.schema,
              trace.params.c_str());
  std::printf("%zu runs, %zu probe samples, %zu registry timers\n\n",
              trace.runs.size(), trace.probes.size(), trace.registry.size());
  TextTable table({"run", "protocol", "sessions", "events", "gens",
                   "thr B/s", "thr/gen B/s", "mean queue", "tx"});
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run)) continue;
    for (std::size_t s = 0; s < run.results.size(); ++s) {
      const auto& r = run.results[s];
      std::string label = std::to_string(run.id);
      if (run.results.size() > 1) {
        label += '.';
        label += std::to_string(s);
      }
      table.add_row(
          {label, run.context.protocol, std::to_string(run.results.size()),
           std::to_string(run.events.size()),
           std::to_string(r.generations_completed),
           TextTable::fmt(r.throughput_bytes_per_s, 1),
           TextTable::fmt(r.throughput_per_generation, 1),
           TextTable::fmt(r.mean_queue, 3),
           std::to_string(r.transmissions)});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void print_queues(const obs::Trace& trace, const Options& options) {
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run) || run.graphs.empty()) continue;
    const obs::ReplayedRun replay = obs::replay_run(run);
    std::printf("-- run %d (%s): queue time averages --\n", run.id,
                run.context.protocol.c_str());
    TextTable table({"node", "samples", "time avg", "max"});
    for (std::size_t node = 0; node < replay.queue_timelines.size(); ++node) {
      const auto& timeline = replay.queue_timelines[node];
      if (timeline.empty()) continue;
      double max_queue = 0.0;
      for (const auto& sample : timeline) {
        max_queue = std::max(max_queue, sample.queue);
      }
      table.add_row({std::to_string(node), std::to_string(timeline.size()),
                     TextTable::fmt(replay.queue_time_average[node], 3),
                     TextTable::fmt(max_queue, 0)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("channel-wide mean over transmitting nodes: %.6f\n\n",
                replay.shared_mean_queue);
  }
}

void print_edges(const obs::Trace& trace, const Options& options) {
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run) || run.graphs.empty()) continue;
    const obs::ReplayedRun replay = obs::replay_run(run);
    std::printf("-- run %d (%s): innovative deliveries per edge --\n", run.id,
                run.context.protocol.c_str());
    TextTable table({"session", "edge", "from->to", "p", "deliveries"});
    for (std::size_t s = 0; s < replay.sessions.size(); ++s) {
      const auto& graph = run.graphs[s];
      const auto& deliveries = replay.sessions[s].edge_deliveries;
      for (std::size_t e = 0; e < deliveries.size(); ++e) {
        const auto& edge = graph.edges[e];
        table.add_row({std::to_string(s), std::to_string(e),
                       std::to_string(edge.from) + "->" +
                           std::to_string(edge.to),
                       TextTable::fmt(edge.p, 2),
                       std::to_string(deliveries[e])});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }
}

void print_latency(const obs::Trace& trace, const Options& options) {
  std::printf("-- generation ACK latency (seconds) --\n");
  TextTable table({"run", "protocol", "session", "gens", "p50", "p90", "p99",
                   "max"});
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run) || run.graphs.empty()) continue;
    const obs::ReplayedRun replay = obs::replay_run(run);
    for (std::size_t s = 0; s < replay.sessions.size(); ++s) {
      const auto& latencies = replay.sessions[s].ack_latencies;
      if (latencies.empty()) continue;
      table.add_row(
          {std::to_string(run.id), run.context.protocol, std::to_string(s),
           std::to_string(latencies.size()),
           TextTable::fmt(obs::percentile(latencies, 50.0), 3),
           TextTable::fmt(obs::percentile(latencies, 90.0), 3),
           TextTable::fmt(obs::percentile(latencies, 99.0), 3),
           TextTable::fmt(*std::max_element(latencies.begin(),
                                            latencies.end()),
                          3)});
    }
  }
  std::printf("%s\n", table.render().c_str());
}

void print_convergence(const obs::Trace& trace, const Options& options) {
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run) || run.opt_gamma.empty()) continue;
    std::printf("-- run %d (%s): rate-control convergence --\n", run.id,
                run.context.protocol.c_str());
    TextTable table({"iter", "gamma", "mean b"});
    const int total = static_cast<int>(run.opt_gamma.size());
    for (int t = 0; t < total; t += (t < 10 ? 1 : (t < 50 ? 5 : 25))) {
      const auto& b = run.opt_b[static_cast<std::size_t>(t)];
      double mean_b = 0.0;
      for (double value : b) mean_b += value;
      if (!b.empty()) mean_b /= static_cast<double>(b.size());
      table.add_row({std::to_string(t + 1),
                     TextTable::fmt(run.opt_gamma[static_cast<std::size_t>(t)], 1),
                     TextTable::fmt(mean_b, 1)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("final gamma after %d iterations: %.17g\n\n", total,
                run.opt_gamma.back());
  }
}

void print_probes(const obs::Trace& trace) {
  if (trace.probes.empty()) {
    std::printf("no probe records in trace\n");
    return;
  }
  double abs_error = 0.0;
  TextTable table({"session", "edge", "from->to", "p true", "p est", "error"});
  for (const auto& probe : trace.probes) {
    abs_error += std::abs(probe.p_estimate - probe.p_true);
    table.add_row({std::to_string(probe.session), std::to_string(probe.edge),
                   std::to_string(probe.from) + "->" +
                       std::to_string(probe.to),
                   TextTable::fmt(probe.p_true, 3),
                   TextTable::fmt(probe.p_estimate, 3),
                   TextTable::fmt(probe.p_estimate - probe.p_true, 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("mean |p_hat - p| over %zu probed links: %.4f\n\n",
              trace.probes.size(),
              abs_error / static_cast<double>(trace.probes.size()));
}

void print_transport(const obs::Trace& trace, const Options& options) {
  using Type = protocols::MetricEvent::Type;
  bool printed = false;
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run)) continue;
    std::size_t sends = 0;
    std::size_t drops = 0;
    std::size_t delivers = 0;
    std::size_t parse_errors = 0;
    double sent_bytes = 0.0;
    // Per directed link (tx_local -> rx_local): delivered / dropped copies.
    std::map<std::pair<int, int>, std::pair<std::size_t, std::size_t>> links;
    for (const auto& event : run.events) {
      switch (event.type) {
        case Type::kEmuSend:
          ++sends;
          sent_bytes += event.value;
          break;
        case Type::kEmuDrop:
          ++drops;
          ++links[{event.tx_local, event.rx_local}].second;
          break;
        case Type::kEmuDeliver:
          ++delivers;
          ++links[{event.tx_local, event.rx_local}].first;
          break;
        case Type::kEmuParseError:
          ++parse_errors;
          break;
        default:
          break;
      }
    }
    if (sends + drops + delivers + parse_errors == 0) continue;
    printed = true;
    std::printf("-- run %d (%s): emulation transport --\n", run.id,
                run.context.protocol.c_str());
    std::printf("%zu broadcasts (%.0f bytes), %zu copies delivered, "
                "%zu copies dropped, %zu parse errors\n",
                sends, sent_bytes, delivers, drops, parse_errors);
    TextTable table({"link", "delivered", "dropped", "loss"});
    for (const auto& [link, counts] : links) {
      const auto& [delivered, dropped] = counts;
      const std::size_t total = delivered + dropped;
      table.add_row({std::to_string(link.first) + "->" +
                         std::to_string(link.second),
                     std::to_string(delivered), std::to_string(dropped),
                     total > 0 ? TextTable::fmt(static_cast<double>(dropped) /
                                                    static_cast<double>(total),
                                                3)
                               : "-"});
    }
    std::printf("%s\n", table.render().c_str());
  }
  if (!printed) std::printf("no transport events in trace\n");
}

/// Per-session breakdown of a session-mux run: every kGenerationAck names
/// its session and carries the decode latency, and demux-verified drops are
/// attributed by the frame's session id.  Span records contribute the
/// per-session innovative-receive count.  Events with session 0 (pure
/// transport byte counts, truncations) are unattributable by design and
/// reported as their own row.
void print_sessions(const obs::Trace& trace, const Options& options) {
  using Type = protocols::MetricEvent::Type;
  bool printed = false;
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run)) continue;
    struct SessionRow {
      std::size_t acks = 0;
      double last_ack = 0.0;
      double latency_sum = 0.0;
      double latency_max = 0.0;
      std::size_t drops = 0;
      std::size_t innovative = 0;
    };
    std::map<std::uint32_t, SessionRow> rows;  // keyed by wire session id
    std::size_t unattributed = 0;
    for (const auto& event : run.events) {
      switch (event.type) {
        case Type::kGenerationAck:
          if (event.session == 0) break;
          {
            SessionRow& row = rows[event.session];
            ++row.acks;
            row.last_ack = std::max(row.last_ack, event.time);
            row.latency_sum += event.value;
            row.latency_max = std::max(row.latency_max, event.value);
          }
          break;
        case Type::kEmuDrop:
        case Type::kEmuFaultLoss:
        case Type::kEmuFaultPartition:
        case Type::kEmuFaultBlackout:
          if (event.session != 0) {
            ++rows[event.session].drops;
          } else {
            ++unattributed;
          }
          break;
        case Type::kEmuSend:
        case Type::kEmuDeliver:
        case Type::kEmuParseError:
          ++unattributed;
          break;
        default:
          break;
      }
    }
    for (const auto& span : run.spans) {
      if (span.kind == obs::SpanEvent::Kind::kInnovate && span.session != 0) {
        ++rows[span.session].innovative;
      }
    }
    if (rows.empty()) continue;
    printed = true;
    std::printf("-- run %d (%s): per-session progress --\n", run.id,
                run.context.protocol.c_str());
    TextTable table({"session", "gens", "last ack", "mean lat", "max lat",
                     "drops", "innovative"});
    for (const auto& [id, row] : rows) {
      table.add_row(
          {std::to_string(id), std::to_string(row.acks),
           TextTable::fmt(row.last_ack, 3),
           row.acks > 0
               ? TextTable::fmt(row.latency_sum /
                                    static_cast<double>(row.acks), 3)
               : "-",
           TextTable::fmt(row.latency_max, 3), std::to_string(row.drops),
           std::to_string(row.innovative)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("%zu sessions, %zu unattributed transport events "
                "(session 0)\n\n",
                rows.size(), unattributed);
  }
  if (!printed) {
    std::printf("no session-attributed events in trace (single-session "
                "capture predating session stamping, or tracing off)\n");
  }
}

void print_faults(const obs::Trace& trace, const Options& options) {
  using Type = protocols::MetricEvent::Type;
  const auto fault_name = [](Type type) -> const char* {
    switch (type) {
      case Type::kEmuFaultLoss: return "loss";
      case Type::kEmuFaultReorder: return "reorder";
      case Type::kEmuFaultDup: return "duplicate";
      case Type::kEmuFaultPartition: return "partition";
      case Type::kEmuFaultBlackout: return "blackout";
      default: return nullptr;
    }
  };
  bool printed = false;
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run)) continue;
    // Per fault kind: count; per directed link: per-kind counts.
    std::map<std::string, std::size_t> kinds;
    std::map<std::pair<int, int>, std::map<std::string, std::size_t>> links;
    std::size_t truncated = 0;
    double first = 0.0;
    double last = 0.0;
    std::size_t total = 0;
    for (const auto& event : run.events) {
      if (event.type == Type::kEmuParseError && event.generation == 1) {
        ++truncated;
        continue;
      }
      const char* name = fault_name(event.type);
      if (name == nullptr) continue;
      if (total == 0) first = event.time;
      last = event.time;
      ++total;
      ++kinds[name];
      ++links[{event.tx_local, event.rx_local}][name];
    }
    if (total + truncated == 0) continue;
    printed = true;
    std::printf("-- run %d (%s): injected faults --\n", run.id,
                run.context.protocol.c_str());
    std::printf("%zu fault events between t=%.3f s and t=%.3f s, "
                "%zu truncated datagrams\n",
                total, first, last, truncated);
    TextTable kind_table({"kind", "events"});
    for (const auto& [kind, count] : kinds) {
      kind_table.add_row({kind, std::to_string(count)});
    }
    std::printf("%s", kind_table.render().c_str());
    TextTable link_table({"link", "loss", "reorder", "dup", "part", "black"});
    const auto cell = [](const std::map<std::string, std::size_t>& row,
                         const char* key) {
      const auto it = row.find(key);
      return it != row.end() ? std::to_string(it->second) : std::string("-");
    };
    for (const auto& [link, row] : links) {
      // tx=-1 marks a sender-side blackout suppression (no receiver).
      const std::string from =
          link.first >= 0 ? std::to_string(link.first) : "*";
      const std::string to =
          link.second >= 0 ? std::to_string(link.second) : "*";
      link_table.add_row({from + "->" + to, cell(row, "loss"),
                          cell(row, "reorder"), cell(row, "duplicate"),
                          cell(row, "partition"), cell(row, "blackout")});
    }
    std::printf("%s\n", link_table.render().c_str());
  }
  if (!printed) std::printf("no fault events in trace\n");
}

/// `leading` cells, then the histogram's count, mean, p50/p90/p99, min and
/// max, each value times `scale` printed with `digits` decimals.
std::vector<std::string> histogram_row(std::vector<std::string> leading,
                                       const obs::Histogram& hist,
                                       double scale, int digits) {
  leading.push_back(std::to_string(hist.count()));
  for (const double value : {hist.mean(), hist.quantile(50.0),
                             hist.quantile(90.0), hist.quantile(99.0),
                             hist.min(), hist.max()}) {
    leading.push_back(TextTable::fmt(scale * value, digits));
  }
  return leading;
}

void print_registry(const obs::Trace& trace) {
  if (trace.registry.empty()) {
    std::printf("no registry timers in trace\n");
    return;
  }
  // Nanoseconds: a sub-microsecond timer would print as 0.000000 seconds.
  TextTable table(
      {"timer", "count", "mean", "p50", "p90", "p99", "min", "max"});
  for (const auto& [name, seconds] : trace.registry) {
    table.add_row(histogram_row({name}, seconds, 1e9, 0));
  }
  std::printf("-- registry timers (ns) --\n%s\n", table.render().c_str());
}

std::string span_name(const obs::SpanId& span) {
  std::string name = "(";
  name += std::to_string(span.origin);
  name += ',';
  name += std::to_string(span.seq);
  name += ')';
  return name;
}

std::string span_list(const std::vector<obs::SpanId>& spans) {
  std::string out;
  for (const obs::SpanId& span : spans) {
    if (!out.empty()) out += " ";
    out += span_name(span);
  }
  return out;
}

/// Per-packet causal timeline of one generation (or all), rebuilt from span
/// records, plus the DAG-completeness check the acceptance criterion names:
/// every decoded generation's decode basis must walk back through recorded
/// parents to source roots.  Exit 1 when any decoded DAG is incomplete.
int print_timeline(const obs::Trace& trace, const Options& options) {
  const std::string which = options.get("timeline", "all");
  const bool all = which.empty() || which == "all" || which == "true";
  const long wanted = all ? -1 : std::strtol(which.c_str(), nullptr, 10);
  int status = 0;
  bool any_spans = false;
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run) || run.spans.empty()) continue;
    any_spans = true;
    const std::vector<obs::SpanDag> dags = obs::build_span_dags(run.spans);
    for (const obs::SpanDag& dag : dags) {
      if (!all && static_cast<long>(dag.generation) != wanted) continue;
      std::printf("-- run %d generation %u: %zu spans, %zu events%s --\n",
                  run.id, dag.generation, dag.nodes.size(), dag.events.size(),
                  dag.decoded ? ", decoded" : "");
      TextTable table({"t", "event", "node", "peer", "span", "rank",
                       "parents"});
      for (const obs::SpanEvent& event : dag.events) {
        const bool root = event.kind == obs::SpanEvent::Kind::kEnqueue &&
                          event.parents.empty();
        table.add_row(
            {TextTable::fmt(event.time, 6), obs::span_kind_name(event.kind),
             event.node >= 0 ? std::to_string(event.node) : "-",
             event.peer >= 0 ? std::to_string(event.peer) : "-",
             span_name(event.span),
             event.rank > 0 ? std::to_string(event.rank) : "-",
             root ? "source" : span_list(event.parents)});
      }
      std::printf("%s", table.render().c_str());
      if (dag.decoded) {
        std::printf("decoded at t=%.6f by %s, basis: %s\n", dag.decode_time,
                    span_name(dag.decode_span).c_str(),
                    span_list(dag.decode_basis).c_str());
      }
      std::printf("\n");
    }
    const obs::SpanDagCheck check = obs::check_span_dags(dags);
    for (const auto& problem : check.problems) {
      std::fprintf(stderr, "INCOMPLETE: run %d: %s\n", run.id,
                   problem.c_str());
    }
    std::printf("timeline: run %d: %zu decoded generations, causal DAG %s\n",
                run.id, check.decoded_generations,
                check.complete ? "complete (source-rooted)" : "INCOMPLETE");
    if (!check.complete) status = 1;
  }
  if (!any_spans) {
    std::printf("no span records in trace (tracing off)\n");
  }
  return status;
}

void print_codes(const obs::Trace& trace, const Options& options) {
  // Per-run code-family summary from the span stream: how many receives were
  // innovative, where the innovative packets landed (mean pivot column), and
  // how often the systematic zero-work fast path fired.  Pre-family traces
  // (no code_family in run_begin, no pv/uc on spans) report as dense with
  // unknown pivots.
  using Kind = obs::SpanEvent::Kind;
  bool printed = false;
  TextTable table({"run", "family", "innovative", "non-innov", "mean pivot",
                   "uncoded hits", "systematic ratio"});
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run)) continue;
    std::size_t receives = 0;
    std::size_t innovative = 0;
    std::size_t uncoded = 0;
    std::size_t pivots = 0;
    double pivot_sum = 0.0;
    for (const auto& event : run.spans) {
      if (event.kind == Kind::kReceive) ++receives;
      if (event.kind != Kind::kInnovate) continue;
      ++innovative;
      if (event.uncoded) ++uncoded;
      if (event.pivot >= 0) {
        ++pivots;
        pivot_sum += static_cast<double>(event.pivot);
      }
    }
    if (receives == 0 && innovative == 0) continue;
    printed = true;
    const std::string family = run.context.code_family.empty()
                                   ? "dense"
                                   : run.context.code_family;
    table.add_row(
        {std::to_string(run.id), family, std::to_string(innovative),
         std::to_string(receives - innovative),
         pivots > 0
             ? TextTable::fmt(pivot_sum / static_cast<double>(pivots), 2)
             : "-",
         std::to_string(uncoded),
         innovative > 0 ? TextTable::fmt(static_cast<double>(uncoded) /
                                             static_cast<double>(innovative),
                                         3)
                        : "-"});
  }
  if (printed) {
    std::printf("%s\n", table.render().c_str());
  } else {
    std::printf("no span records in trace (tracing off)\n");
  }
}

void print_histograms(const obs::Trace& trace, const Options& options) {
  bool printed = false;
  TextTable table({"run", "name", "count", "mean", "p50", "p90", "p99",
                   "min", "max"});
  for (const auto& run : trace.runs) {
    if (!run_selected(options, run)) continue;
    for (const auto& [name, hist] : run.histograms) {
      printed = true;
      table.add_row(
          histogram_row({std::to_string(run.id), name}, hist, 1.0, 6));
    }
  }
  if (!printed) {
    std::printf("no histogram records in trace\n");
    return;
  }
  std::printf("-- recorded latency histograms (seconds) --\n%s\n",
              table.render().c_str());
}

/// Cross-run regression triage: compares this trace's recorded histograms
/// and event/span counts against a second trace, run by run.  Informational
/// (always exit 0) — chaos runs legitimately differ; the report is for
/// eyeballing which latency population moved.
int diff_traces(const obs::Trace& a, const std::string& b_path) {
  obs::Trace b;
  std::string error;
  if (!obs::read_trace(b_path, &b, &error)) {
    std::fprintf(stderr, "error reading diff trace: %s\n", error.c_str());
    return 2;
  }
  std::printf("-- diff: A=current trace, B=%s --\n", b_path.c_str());
  const std::size_t runs = std::min(a.runs.size(), b.runs.size());
  if (a.runs.size() != b.runs.size()) {
    std::printf("run counts differ: A has %zu, B has %zu — comparing the "
                "first %zu\n",
                a.runs.size(), b.runs.size(), runs);
  }
  TextTable table({"run", "quantity", "A", "B", "delta"});
  const auto row = [&table](int run, const std::string& what, double va,
                            double vb, int prec) {
    table.add_row({std::to_string(run), what, TextTable::fmt(va, prec),
                   TextTable::fmt(vb, prec), TextTable::fmt(vb - va, prec)});
  };
  for (std::size_t r = 0; r < runs; ++r) {
    const obs::RecordedRun& ra = a.runs[r];
    const obs::RecordedRun& rb = b.runs[r];
    row(ra.id, "events", static_cast<double>(ra.events.size()),
        static_cast<double>(rb.events.size()), 0);
    row(ra.id, "spans", static_cast<double>(ra.spans.size()),
        static_cast<double>(rb.spans.size()), 0);
    // Histograms matched by name; one-sided names still show (other side 0).
    std::map<std::string, std::pair<const obs::Histogram*,
                                    const obs::Histogram*>> by_name;
    for (const auto& [name, hist] : ra.histograms) {
      by_name[name].first = &hist;
    }
    for (const auto& [name, hist] : rb.histograms) {
      by_name[name].second = &hist;
    }
    const obs::Histogram empty;
    for (const auto& [name, pair] : by_name) {
      const obs::Histogram& ha = pair.first ? *pair.first : empty;
      const obs::Histogram& hb = pair.second ? *pair.second : empty;
      row(ra.id, name + ".count", static_cast<double>(ha.count()),
          static_cast<double>(hb.count()), 0);
      row(ra.id, name + ".p50", ha.quantile(50.0), hb.quantile(50.0), 6);
      row(ra.id, name + ".p99", ha.quantile(99.0), hb.quantile(99.0), 6);
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

int verify(const obs::Trace& trace) {
  const obs::VerifyReport report = obs::verify_trace(trace);
  for (const auto& mismatch : report.mismatches) {
    std::fprintf(stderr, "MISMATCH: %s\n", mismatch.c_str());
  }
  std::printf("verify: %zu comparisons over %zu runs — %s\n",
              report.comparisons, trace.runs.size(),
              report.ok ? "all exact" : "FAILED");
  return report.ok ? 0 : 1;
}

/// Cross-checks a bench's --json records against the trace.  Understood
/// metrics: fig1's "iterations" (opt_iter record count) and
/// "gamma_distributed" (last recorded gamma) — the CI round-trip gate.
int check_json(const obs::Trace& trace, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);

  // Find the rate-control run the fig1 records describe.
  const obs::RecordedRun* rc_run = nullptr;
  for (const auto& run : trace.runs) {
    if (!run.opt_gamma.empty()) rc_run = &run;
  }

  int checked = 0;
  int failed = 0;
  auto check_metric = [&](const char* metric, double expected) {
    const std::string needle = std::string("\"metric\": \"") + metric + "\"";
    const std::size_t at = text.find(needle);
    if (at == std::string::npos) return;
    const std::size_t value_at = text.find("\"value\":", at);
    if (value_at == std::string::npos) return;
    const double value = std::strtod(text.c_str() + value_at + 8, nullptr);
    ++checked;
    if (value != expected) {
      ++failed;
      std::fprintf(stderr,
                   "MISMATCH: json %s = %.17g but trace says %.17g\n", metric,
                   value, expected);
    }
  };
  if (rc_run != nullptr) {
    check_metric("iterations", static_cast<double>(rc_run->opt_gamma.size()));
    check_metric("gamma_distributed", rc_run->opt_gamma.back());
  }
  std::printf("check-json: %d metrics checked against the trace — %s\n",
              checked, failed == 0 ? "all exact" : "FAILED");
  if (checked == 0) {
    std::fprintf(stderr, "check-json: nothing to compare (no opt_iter "
                         "records or no known metrics in %s)\n",
                 path.c_str());
    return 1;
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options(argc, argv);
  if (options.positional().empty()) {
    std::fprintf(stderr, "usage: trace_inspect <trace.jsonl> [--summary] "
                         "[--queues] [--edges] [--latency] [--convergence] "
                         "[--probes] [--transport] [--sessions] [--faults] "
                         "[--registry] "
                         "[--timeline G|all] [--histograms] [--codes] "
                         "[--diff B.jsonl] "
                         "[--verify] [--check-json PATH] [--run N]\n");
    return 2;
  }

  obs::Trace trace;
  std::string error;
  if (!obs::read_trace(options.positional().front(), &trace, &error)) {
    std::fprintf(stderr, "error reading trace: %s\n", error.c_str());
    return 2;
  }

  const bool any_section =
      options.get_bool("summary", false) || options.get_bool("queues", false) ||
      options.get_bool("edges", false) || options.get_bool("latency", false) ||
      options.get_bool("convergence", false) ||
      options.get_bool("probes", false) ||
      options.get_bool("transport", false) ||
      options.get_bool("sessions", false) ||
      options.get_bool("faults", false) ||
      options.get_bool("registry", false) || options.get_bool("verify", false) ||
      options.has("timeline") || options.get_bool("histograms", false) ||
      options.get_bool("codes", false) || options.has("diff") ||
      options.has("check-json");

  if (!any_section || options.get_bool("summary", false)) {
    print_summary(trace, options);
  }
  if (options.get_bool("queues", false)) print_queues(trace, options);
  if (options.get_bool("edges", false)) print_edges(trace, options);
  if (options.get_bool("latency", false)) print_latency(trace, options);
  if (options.get_bool("convergence", false)) print_convergence(trace, options);
  if (options.get_bool("probes", false)) print_probes(trace);
  if (options.get_bool("transport", false)) print_transport(trace, options);
  if (options.get_bool("sessions", false)) print_sessions(trace, options);
  if (options.get_bool("faults", false)) print_faults(trace, options);
  if (options.get_bool("registry", false)) print_registry(trace);
  if (options.get_bool("codes", false)) print_codes(trace, options);
  if (options.get_bool("histograms", false)) print_histograms(trace, options);

  int status = 0;
  if (options.has("timeline")) status |= print_timeline(trace, options);
  if (options.has("diff")) status |= diff_traces(trace, options.get("diff", ""));
  if (options.get_bool("verify", false)) status |= verify(trace);
  if (options.has("check-json")) {
    status |= check_json(trace, options.get("check-json", ""));
  }
  return status;
}
