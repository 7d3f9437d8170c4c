#include "obs/trace_reader.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

namespace omnc::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser covering the subset the
// recorder emits (objects, arrays, strings, numbers, booleans, null).
// Numbers are parsed with strtod, which restores %.17g output exactly.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double num(const char* key, double fallback = 0.0) const {
    const Json* v = find(key);
    return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
  }
  long long integer(const char* key, long long fallback = 0) const {
    return static_cast<long long>(num(key, static_cast<double>(fallback)));
  }
  std::string text(const char* key) const {
    const Json* v = find(key);
    return (v != nullptr && v->kind == Kind::kString) ? v->str : std::string();
  }
  std::uint64_t u64(const char* key) const {
    const Json* v = find(key);
    if (v == nullptr || v->kind != Kind::kString) return 0;
    return std::strtoull(v->str.c_str(), nullptr, 10);
  }
};

class Parser {
 public:
  explicit Parser(const char* text) : p_(text) {}

  bool parse(Json* out, std::string* error) {
    skip_ws();
    if (!value(out)) {
      *error = error_;
      return false;
    }
    skip_ws();
    if (*p_ != '\0') {
      *error = "trailing characters";
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n') ++p_;
  }

  bool fail(const char* message) {
    error_ = message;
    return false;
  }

  bool value(Json* out) {
    switch (*p_) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        out->kind = Json::Kind::kString;
        return string(&out->str);
      }
      case 't':
        if (std::strncmp(p_, "true", 4) != 0) return fail("bad literal");
        p_ += 4;
        out->kind = Json::Kind::kBool;
        out->boolean = true;
        return true;
      case 'f':
        if (std::strncmp(p_, "false", 5) != 0) return fail("bad literal");
        p_ += 5;
        out->kind = Json::Kind::kBool;
        out->boolean = false;
        return true;
      case 'n':
        if (std::strncmp(p_, "null", 4) != 0) return fail("bad literal");
        p_ += 4;
        out->kind = Json::Kind::kNull;
        return true;
      default: return number(out);
    }
  }

  bool object(Json* out) {
    out->kind = Json::Kind::kObject;
    ++p_;  // '{'
    skip_ws();
    if (*p_ == '}') {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (*p_ != ':') return fail("expected ':'");
      ++p_;
      skip_ws();
      Json child;
      if (!value(&child)) return false;
      out->fields.emplace_back(std::move(key), std::move(child));
      skip_ws();
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == '}') {
        ++p_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(Json* out) {
    out->kind = Json::Kind::kArray;
    ++p_;  // '['
    skip_ws();
    if (*p_ == ']') {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      Json child;
      if (!value(&child)) return false;
      out->items.push_back(std::move(child));
      skip_ws();
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == ']') {
        ++p_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string* out) {
    if (*p_ != '"') return fail("expected string");
    ++p_;
    out->clear();
    while (*p_ != '"') {
      if (*p_ == '\0') return fail("unterminated string");
      if (*p_ == '\\') {
        ++p_;
        switch (*p_) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            // The recorder only emits \u00xx control escapes.
            char hex[5] = {0, 0, 0, 0, 0};
            for (int i = 0; i < 4; ++i) {
              if (p_[1 + i] == '\0') return fail("bad \\u escape");
              hex[i] = p_[1 + i];
            }
            *out += static_cast<char>(std::strtol(hex, nullptr, 16));
            p_ += 4;
            break;
          }
          default: return fail("bad escape");
        }
        ++p_;
      } else {
        *out += *p_;
        ++p_;
      }
    }
    ++p_;  // closing quote
    return true;
  }

  bool number(Json* out) {
    char* end = nullptr;
    const double v = std::strtod(p_, &end);
    if (end == p_) return fail("expected value");
    out->kind = Json::Kind::kNumber;
    out->number = v;
    p_ = end;
    return true;
  }

  const char* p_;
  std::string error_;
};

protocols::MetricEvent::Type event_type_of(const std::string& kind,
                                           bool* known) {
  using Type = protocols::MetricEvent::Type;
  *known = true;
  if (kind == "tx") return Type::kTx;
  if (kind == "rx") return Type::kRx;
  if (kind == "q") return Type::kQueueSample;
  if (kind == "ack") return Type::kGenerationAck;
  if (kind == "flush") return Type::kStaleFlush;
  if (kind == "drop") return Type::kQueueDrop;
  if (kind == "cont") return Type::kMacContention;
  if (kind == "coll") return Type::kMacCollision;
  if (kind == "esend") return Type::kEmuSend;
  if (kind == "edrop") return Type::kEmuDrop;
  if (kind == "edeliver") return Type::kEmuDeliver;
  if (kind == "eperr") return Type::kEmuParseError;
  if (kind == "floss") return Type::kEmuFaultLoss;
  if (kind == "freord") return Type::kEmuFaultReorder;
  if (kind == "fdup") return Type::kEmuFaultDup;
  if (kind == "fpart") return Type::kEmuFaultPartition;
  if (kind == "fblack") return Type::kEmuFaultBlackout;
  if (kind == "eresync") return Type::kEmuResync;
  if (kind == "estall") return Type::kEmuStall;
  *known = false;
  return Type::kTx;
}

SpanEvent::Kind span_kind_of(const std::string& kind, bool* known) {
  using Kind = SpanEvent::Kind;
  *known = true;
  if (kind == "enq") return Kind::kEnqueue;
  if (kind == "tx") return Kind::kTransmit;
  if (kind == "rx") return Kind::kReceive;
  if (kind == "drop") return Kind::kDrop;
  if (kind == "inn") return Kind::kInnovate;
  if (kind == "dec") return Kind::kDecode;
  *known = false;
  return Kind::kEnqueue;
}

/// Bucket counts ride in [index, "count"] pairs; u64 counts are decimal
/// strings (see Histogram::to_json).
bool parse_histogram(const Json& h, Histogram* out) {
  std::vector<std::pair<int, std::uint64_t>> buckets;
  if (const Json* b = h.find("b"); b != nullptr) {
    for (const Json& pair : b->items) {
      if (pair.items.size() != 2 ||
          pair.items[0].kind != Json::Kind::kNumber ||
          pair.items[1].kind != Json::Kind::kString) {
        return false;
      }
      buckets.emplace_back(
          static_cast<int>(pair.items[0].number),
          std::strtoull(pair.items[1].str.c_str(), nullptr, 10));
    }
  }
  return Histogram::assemble(h.u64("count"), h.num("sum"), h.num("min"),
                             h.num("max"), buckets, out);
}

protocols::SessionResult parse_result(const Json& j,
                                      std::vector<std::size_t>* edges) {
  protocols::SessionResult r;
  r.connected = j.integer("conn") != 0;
  r.throughput_bytes_per_s = j.num("thr");
  r.throughput_per_generation = j.num("thr_gen");
  r.generations_completed = static_cast<int>(j.integer("gens"));
  r.mean_queue = j.num("mean_q");
  r.node_utility_ratio = j.num("nur");
  r.path_utility_ratio = j.num("pur");
  r.transmissions = static_cast<std::size_t>(j.integer("tx"));
  r.packets_delivered = static_cast<std::size_t>(j.integer("del"));
  r.queue_drops = static_cast<std::size_t>(j.integer("drops"));
  r.rc_iterations = static_cast<int>(j.integer("rc_it"));
  r.rc_converged = j.integer("rc_conv") != 0;
  r.rc_messages = static_cast<std::size_t>(j.integer("rc_msgs"));
  r.predicted_gamma = j.num("pgamma");
  edges->clear();
  if (const Json* inn = j.find("edge_inn"); inn != nullptr) {
    for (const Json& e : inn->items) {
      edges->push_back(static_cast<std::size_t>(e.number));
    }
  }
  return r;
}

}  // namespace

bool read_trace(const std::string& path, Trace* out, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    *error = "cannot open " + path;
    return false;
  }

  // Runs are demultiplexed by id; the map keeps ids ordered for the final
  // flatten.
  std::map<int, RecordedRun> runs;
  auto run_of = [&runs](int id) -> RecordedRun& {
    RecordedRun& run = runs[id];
    run.id = id;
    return run;
  };

  std::string line;
  int line_number = 0;
  char buffer[1 << 16];
  bool ok = true;
  bool saw_manifest = false;
  while (ok && std::fgets(buffer, sizeof(buffer), file) != nullptr) {
    ++line_number;
    line.assign(buffer);
    // Reassemble lines longer than the read buffer.
    while (!line.empty() && line.back() != '\n' &&
           std::fgets(buffer, sizeof(buffer), file) != nullptr) {
      line += buffer;
    }
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;

    Json record;
    std::string parse_error;
    if (!Parser(line.c_str()).parse(&record, &parse_error)) {
      char where[64];
      std::snprintf(where, sizeof(where), " (line %d)", line_number);
      *error = parse_error + where;
      ok = false;
      break;
    }

    const std::string type = record.text("t");
    if (type == "manifest") {
      saw_manifest = true;
      out->schema = static_cast<int>(record.integer("schema"));
      out->build = record.text("build");
      out->tool = record.text("tool");
      out->params = record.text("params");
      out->seed = record.u64("seed");
      if (out->schema != kTraceSchemaVersion) {
        char msg[64];
        std::snprintf(msg, sizeof(msg), "unsupported trace schema %d",
                      out->schema);
        *error = msg;
        ok = false;
      }
    } else if (type == "run_begin") {
      RecordedRun& run = run_of(static_cast<int>(record.integer("r")));
      run.context.protocol = record.text("protocol");
      run.context.seed = record.u64("seed");
      run.graph_hash = record.u64("graph_hash");
      run.context.topology_nodes =
          static_cast<int>(record.integer("topo_nodes"));
      run.context.generation_blocks =
          static_cast<int>(record.integer("gen_blocks"));
      run.context.block_bytes = static_cast<int>(record.integer("block_bytes"));
      run.context.capacity_bytes_per_s = record.num("capacity");
      run.context.cbr_bytes_per_s = record.num("cbr");
      run.context.sim_seconds = record.num("sim_seconds");
      run.context.shared_queue = record.integer("shared_q") != 0;
      run.context.code_family = record.text("code_family");
      run.graphs.resize(static_cast<std::size_t>(record.integer("sessions")));
    } else if (type == "graph") {
      RecordedRun& run = run_of(static_cast<int>(record.integer("r")));
      const auto s = static_cast<std::size_t>(record.integer("s"));
      if (s >= run.graphs.size()) run.graphs.resize(s + 1);
      routing::SessionGraph& graph = run.graphs[s];
      graph.source = static_cast<int>(record.integer("src"));
      graph.destination = static_cast<int>(record.integer("dst"));
      if (const Json* nodes = record.find("nodes"); nodes != nullptr) {
        for (const Json& n : nodes->items) {
          graph.nodes.push_back(static_cast<net::NodeId>(n.number));
        }
      }
      if (const Json* etx = record.find("etx"); etx != nullptr) {
        for (const Json& e : etx->items) graph.etx_to_dst.push_back(e.number);
      }
      if (const Json* edges = record.find("edges"); edges != nullptr) {
        for (const Json& e : edges->items) {
          if (e.items.size() != 3) {
            *error = "malformed graph edge";
            ok = false;
            break;
          }
          routing::SessionGraph::Edge edge;
          edge.from = static_cast<int>(e.items[0].number);
          edge.to = static_cast<int>(e.items[1].number);
          edge.p = e.items[2].number;
          graph.edges.push_back(edge);
        }
      }
    } else if (type == "ev") {
      RecordedRun& run = run_of(static_cast<int>(record.integer("r")));
      bool known = false;
      protocols::MetricEvent event;
      event.type = event_type_of(record.text("k"), &known);
      if (!known) continue;  // forward compatibility: skip unknown kinds
      event.time = record.num("tm");
      event.session = static_cast<std::uint32_t>(record.integer("s", 0));
      event.node = static_cast<net::NodeId>(record.integer("n", -1));
      event.tx_local = static_cast<int>(record.integer("tl", -1));
      event.rx_local = static_cast<int>(record.integer("rl", -1));
      event.edge = static_cast<int>(record.integer("e", -1));
      event.innovative = record.integer("i", 0) != 0;
      event.generation = static_cast<std::uint32_t>(record.integer("g", 0));
      event.value = record.num("v", 0.0);
      run.events.push_back(event);
    } else if (type == "span") {
      RecordedRun& run = run_of(static_cast<int>(record.integer("r")));
      bool known = false;
      SpanEvent event;
      event.kind = span_kind_of(record.text("k"), &known);
      if (!known) continue;  // forward compatibility: skip unknown kinds
      event.time = record.num("tm");
      event.session = static_cast<std::uint32_t>(record.integer("s", 0));
      event.generation = static_cast<std::uint32_t>(record.integer("g", 0));
      event.node = static_cast<int>(record.integer("n", -1));
      event.peer = static_cast<int>(record.integer("p", -1));
      event.span.origin = static_cast<std::uint16_t>(record.integer("o", 0));
      event.span.seq = static_cast<std::uint32_t>(record.integer("q", 0));
      event.rank = static_cast<std::size_t>(record.integer("rk", 0));
      event.pivot = static_cast<int>(record.integer("pv", -1));
      event.uncoded = record.integer("uc", 0) != 0;
      if (const Json* par = record.find("par"); par != nullptr) {
        for (const Json& p : par->items) {
          if (p.items.size() != 2) {
            *error = "malformed span parent";
            ok = false;
            break;
          }
          event.parents.push_back(
              SpanId{static_cast<std::uint16_t>(p.items[0].number),
                     static_cast<std::uint32_t>(p.items[1].number)});
        }
        if (!ok) break;
      }
      run.spans.push_back(std::move(event));
    } else if (type == "hist" || type == "timer") {
      const Json* h = record.find("h");
      Histogram histogram;
      if (h == nullptr || !parse_histogram(*h, &histogram)) {
        char where[64];
        std::snprintf(where, sizeof(where), "malformed histogram (line %d)",
                      line_number);
        *error = where;
        ok = false;
        break;
      }
      auto& named = type == "timer"
                        ? out->registry
                        : run_of(static_cast<int>(record.integer("r")))
                              .histograms;
      named.emplace_back(record.text("name"), std::move(histogram));
    } else if (type == "opt_iter") {
      RecordedRun& run = run_of(static_cast<int>(record.integer("r")));
      run.opt_gamma.push_back(record.num("gamma"));
      std::vector<double> b;
      if (const Json* bj = record.find("b"); bj != nullptr) {
        for (const Json& v : bj->items) b.push_back(v.number);
      }
      run.opt_b.push_back(std::move(b));
    } else if (type == "probe") {
      ProbeSample probe;
      probe.session = static_cast<int>(record.integer("s"));
      probe.edge = static_cast<int>(record.integer("e"));
      probe.from = static_cast<int>(record.integer("from"));
      probe.to = static_cast<int>(record.integer("to"));
      probe.p_true = record.num("pt");
      probe.p_estimate = record.num("pe");
      out->probes.push_back(probe);
    } else if (type == "run_end") {
      RecordedRun& run = run_of(static_cast<int>(record.integer("r")));
      run.completed = true;
      if (const Json* results = record.find("results"); results != nullptr) {
        for (const Json& r : results->items) {
          std::vector<std::size_t> edges;
          run.results.push_back(parse_result(r, &edges));
          run.edge_innovative.push_back(std::move(edges));
        }
      }
    }
    // Unknown record types are skipped (forward compatibility).
  }
  std::fclose(file);
  if (!ok) return false;
  if (!saw_manifest) {
    // An empty or truncated file must not "verify" vacuously: without a
    // manifest there is nothing to vouch for.
    *error = "no manifest record in " + path + " (empty or truncated trace?)";
    return false;
  }

  out->runs.reserve(runs.size());
  for (auto& [id, run] : runs) out->runs.push_back(std::move(run));
  return true;
}

}  // namespace omnc::obs
