#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "obs/registry.h"

#ifndef OMNC_BUILD_STAMP
#define OMNC_BUILD_STAMP "unknown"
#endif

namespace omnc::obs {
namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_string(std::string& out, const char* key, const std::string& s) {
  out += '"';
  out += key;
  out += "\":\"";
  append_escaped(out, s);
  out += '"';
}

/// %.17g round-trips every finite IEEE-754 double through strtod exactly.
void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void append_u64(std::string& out, const char* key, std::uint64_t value) {
  // 64-bit integers do not survive a double-typed JSON number; write them as
  // decimal strings.  Worst case: a 10-char key, 20 digits, quoting — 36.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":\"%" PRIu64 "\"", key, value);
  out += buf;
}

void append_int(std::string& out, const char* key, long long value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key, value);
  out += buf;
}

void append_num(std::string& out, const char* key, double value) {
  out += '"';
  out += key;
  out += "\":";
  append_double(out, value);
}

const char* event_kind(protocols::MetricEvent::Type type) {
  using Type = protocols::MetricEvent::Type;
  switch (type) {
    case Type::kTx: return "tx";
    case Type::kRx: return "rx";
    case Type::kQueueSample: return "q";
    case Type::kGenerationAck: return "ack";
    case Type::kStaleFlush: return "flush";
    case Type::kQueueDrop: return "drop";
    case Type::kMacContention: return "cont";
    case Type::kMacCollision: return "coll";
    case Type::kEmuSend: return "esend";
    case Type::kEmuDrop: return "edrop";
    case Type::kEmuDeliver: return "edeliver";
    case Type::kEmuParseError: return "eperr";
    case Type::kEmuFaultLoss: return "floss";
    case Type::kEmuFaultReorder: return "freord";
    case Type::kEmuFaultDup: return "fdup";
    case Type::kEmuFaultPartition: return "fpart";
    case Type::kEmuFaultBlackout: return "fblack";
    case Type::kEmuResync: return "eresync";
    case Type::kEmuStall: return "estall";
  }
  return "?";
}

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// Closes a histogram record: `"name":…,"h":{…}}`.
void append_named_histogram(std::string& out, const std::string& name,
                            const Histogram& histogram) {
  append_string(out, "name", name);
  out += ",\"h\":";
  out += histogram.to_json();
  out += '}';
}

std::uint64_t double_bits(double d) {
  std::uint64_t u;
  __builtin_memcpy(&u, &d, sizeof(u));
  return u;
}

void append_result(std::string& out, const protocols::SessionResult& r,
                   const std::vector<std::size_t>* edge_innovative) {
  out += '{';
  append_int(out, "conn", r.connected ? 1 : 0);
  out += ',';
  append_num(out, "thr", r.throughput_bytes_per_s);
  out += ',';
  append_num(out, "thr_gen", r.throughput_per_generation);
  out += ',';
  append_int(out, "gens", r.generations_completed);
  out += ',';
  append_num(out, "mean_q", r.mean_queue);
  out += ',';
  append_num(out, "nur", r.node_utility_ratio);
  out += ',';
  append_num(out, "pur", r.path_utility_ratio);
  out += ',';
  append_int(out, "tx", static_cast<long long>(r.transmissions));
  out += ',';
  append_int(out, "del", static_cast<long long>(r.packets_delivered));
  out += ',';
  append_int(out, "drops", static_cast<long long>(r.queue_drops));
  out += ',';
  append_int(out, "rc_it", r.rc_iterations);
  out += ',';
  append_int(out, "rc_conv", r.rc_converged ? 1 : 0);
  out += ',';
  append_int(out, "rc_msgs", static_cast<long long>(r.rc_messages));
  out += ',';
  append_num(out, "pgamma", r.predicted_gamma);
  if (edge_innovative != nullptr) {
    out += ",\"edge_inn\":[";
    for (std::size_t e = 0; e < edge_innovative->size(); ++e) {
      if (e > 0) out += ',';
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%zu", (*edge_innovative)[e]);
      out += buf;
    }
    out += ']';
  }
  out += '}';
}

}  // namespace

TraceRecorder::TraceRecorder(const std::string& path, const std::string& tool,
                             const std::string& params, std::uint64_t seed)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) return;
  std::string line = "{\"t\":\"manifest\",";
  append_int(line, "schema", kTraceSchemaVersion);
  line += ',';
  append_string(line, "build", OMNC_BUILD_STAMP);
  line += ',';
  append_string(line, "tool", tool);
  line += ',';
  append_string(line, "params", params);
  line += ',';
  append_u64(line, "seed", seed);
  line += '}';
  write_line(line);
}

TraceRecorder::~TraceRecorder() {
  if (file_ != nullptr) std::fclose(file_);
}

std::uint64_t TraceRecorder::hash_graph(const routing::SessionGraph& graph) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  hash_mix(h, static_cast<std::uint64_t>(graph.nodes.size()));
  for (const net::NodeId id : graph.nodes) {
    hash_mix(h, static_cast<std::uint64_t>(id));
  }
  hash_mix(h, static_cast<std::uint64_t>(graph.source));
  hash_mix(h, static_cast<std::uint64_t>(graph.destination));
  for (const double etx : graph.etx_to_dst) hash_mix(h, double_bits(etx));
  hash_mix(h, static_cast<std::uint64_t>(graph.edges.size()));
  for (const auto& edge : graph.edges) {
    hash_mix(h, static_cast<std::uint64_t>(edge.from));
    hash_mix(h, static_cast<std::uint64_t>(edge.to));
    hash_mix(h, double_bits(edge.p));
  }
  return h;
}

int TraceRecorder::begin_run(
    const RunContext& context,
    const std::vector<const routing::SessionGraph*>& graphs) {
  if (file_ == nullptr) return -1;

  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto* graph : graphs) hash_mix(hash, hash_graph(*graph));

  const std::lock_guard<std::mutex> lock(mutex_);
  const int run = next_run_++;

  std::string line = "{\"t\":\"run_begin\",";
  append_int(line, "r", run);
  line += ',';
  append_string(line, "protocol", context.protocol);
  line += ',';
  append_u64(line, "seed", context.seed);
  line += ',';
  append_u64(line, "graph_hash", hash);
  line += ',';
  append_int(line, "topo_nodes", context.topology_nodes);
  line += ',';
  append_int(line, "gen_blocks", context.generation_blocks);
  line += ',';
  append_int(line, "block_bytes", context.block_bytes);
  line += ',';
  append_num(line, "capacity", context.capacity_bytes_per_s);
  line += ',';
  append_num(line, "cbr", context.cbr_bytes_per_s);
  line += ',';
  append_num(line, "sim_seconds", context.sim_seconds);
  line += ',';
  append_int(line, "sessions", static_cast<long long>(graphs.size()));
  line += ',';
  append_int(line, "shared_q", context.shared_queue ? 1 : 0);
  if (!context.code_family.empty()) {
    line += ',';
    append_string(line, "code_family", context.code_family);
  }
  line += '}';
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);

  for (std::size_t s = 0; s < graphs.size(); ++s) {
    const routing::SessionGraph& graph = *graphs[s];
    std::string g = "{\"t\":\"graph\",";
    append_int(g, "r", run);
    g += ',';
    append_int(g, "s", static_cast<long long>(s));
    g += ',';
    append_int(g, "src", graph.source);
    g += ',';
    append_int(g, "dst", graph.destination);
    g += ",\"nodes\":[";
    for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
      if (i > 0) g += ',';
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%d", graph.nodes[i]);
      g += buf;
    }
    g += "],\"etx\":[";
    for (std::size_t i = 0; i < graph.etx_to_dst.size(); ++i) {
      if (i > 0) g += ',';
      append_double(g, graph.etx_to_dst[i]);
    }
    g += "],\"edges\":[";
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      if (e > 0) g += ',';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "[%d,%d,", graph.edges[e].from,
                    graph.edges[e].to);
      g += buf;
      append_double(g, graph.edges[e].p);
      g += ']';
    }
    g += "]}";
    std::fputs(g.c_str(), file_);
    std::fputc('\n', file_);
  }
  return run;
}

void TraceRecorder::record_event(int run, const protocols::MetricEvent& event) {
  if (file_ == nullptr) return;
  std::string line = "{\"t\":\"ev\",";
  append_int(line, "r", run);
  line += ",\"k\":\"";
  line += event_kind(event.type);
  line += "\",";
  append_num(line, "tm", event.time);
  // Fields at their MetricEvent defaults are omitted; the reader restores
  // them, which keeps queue-sample-dominated traces compact.
  if (event.session != 0) {
    line += ',';
    append_int(line, "s", event.session);
  }
  if (event.node != -1) {
    line += ',';
    append_int(line, "n", event.node);
  }
  if (event.tx_local != -1) {
    line += ',';
    append_int(line, "tl", event.tx_local);
  }
  if (event.rx_local != -1) {
    line += ',';
    append_int(line, "rl", event.rx_local);
  }
  if (event.edge != -1) {
    line += ',';
    append_int(line, "e", event.edge);
  }
  if (event.innovative) {
    line += ',';
    append_int(line, "i", 1);
  }
  if (event.generation != 0) {
    line += ',';
    append_int(line, "g", event.generation);
  }
  if (event.value != 0.0) {
    line += ',';
    append_num(line, "v", event.value);
  }
  line += '}';
  write_line(line);
}

void TraceRecorder::record_span(int run, const SpanEvent& event) {
  if (file_ == nullptr) return;
  std::string line = "{\"t\":\"span\",";
  append_int(line, "r", run);
  line += ",\"k\":\"";
  line += span_kind_name(event.kind);
  line += "\",";
  append_num(line, "tm", event.time);
  if (event.session != 0) {
    line += ',';
    append_int(line, "s", event.session);
  }
  if (event.generation != 0) {
    line += ',';
    append_int(line, "g", event.generation);
  }
  if (event.node != -1) {
    line += ',';
    append_int(line, "n", event.node);
  }
  if (event.peer != -1) {
    line += ',';
    append_int(line, "p", event.peer);
  }
  line += ',';
  append_int(line, "o", event.span.origin);
  line += ',';
  append_int(line, "q", static_cast<long long>(event.span.seq));
  if (event.rank != 0) {
    line += ',';
    append_int(line, "rk", static_cast<long long>(event.rank));
  }
  if (event.pivot != -1) {
    line += ',';
    append_int(line, "pv", event.pivot);
  }
  if (event.uncoded) {
    line += ',';
    append_int(line, "uc", 1);
  }
  if (!event.parents.empty()) {
    line += ",\"par\":[";
    for (std::size_t i = 0; i < event.parents.size(); ++i) {
      if (i > 0) line += ',';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "[%u,%u]",
                    static_cast<unsigned>(event.parents[i].origin),
                    static_cast<unsigned>(event.parents[i].seq));
      line += buf;
    }
    line += ']';
  }
  line += '}';
  write_line(line);
}

void TraceRecorder::record_histogram(int run, const std::string& name,
                                     const Histogram& histogram) {
  if (file_ == nullptr) return;
  std::string line = "{\"t\":\"hist\",";
  append_int(line, "r", run);
  line += ',';
  append_named_histogram(line, name, histogram);
  write_line(line);
}

void TraceRecorder::record_opt_iteration(int run, int iteration, double gamma,
                                         const std::vector<double>& b) {
  if (file_ == nullptr) return;
  std::string line = "{\"t\":\"opt_iter\",";
  append_int(line, "r", run);
  line += ',';
  append_int(line, "it", iteration);
  line += ',';
  append_num(line, "gamma", gamma);
  line += ",\"b\":[";
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i > 0) line += ',';
    append_double(line, b[i]);
  }
  line += "]}";
  write_line(line);
}

void TraceRecorder::record_probe(int session, int edge, int from, int to,
                                 double p_true, double p_estimate) {
  if (file_ == nullptr) return;
  std::string line = "{\"t\":\"probe\",";
  append_int(line, "s", session);
  line += ',';
  append_int(line, "e", edge);
  line += ',';
  append_int(line, "from", from);
  line += ',';
  append_int(line, "to", to);
  line += ',';
  append_num(line, "pt", p_true);
  line += ',';
  append_num(line, "pe", p_estimate);
  line += '}';
  write_line(line);
}

void TraceRecorder::end_run(
    int run, const std::vector<protocols::SessionResult>& results,
    const std::vector<std::vector<std::size_t>>& edge_innovative) {
  if (file_ == nullptr) return;
  std::string line = "{\"t\":\"run_end\",";
  append_int(line, "r", run);
  line += ",\"results\":[";
  for (std::size_t s = 0; s < results.size(); ++s) {
    if (s > 0) line += ',';
    append_result(line, results[s],
                  s < edge_innovative.size() ? &edge_innovative[s] : nullptr);
  }
  line += "]}";
  write_line(line);
}

void TraceRecorder::record_registry() {
  if (file_ == nullptr) return;
  for (const auto& [name, seconds] : MetricsRegistry::global().timers()) {
    std::string line = "{\"t\":\"timer\",";
    append_named_histogram(line, name, seconds);
    write_line(line);
  }
}

void TraceRecorder::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fputs(line.c_str(), file_);
  std::fputc('\n', file_);
}

}  // namespace omnc::obs
