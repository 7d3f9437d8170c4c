// Allocation-count regression: the steady-state receive paths — wire bytes
// -> DataFrameView -> RREF offer -> recover_into at the destination, and
// view offer -> recode_into -> serialize_into at a relay (a structured
// relay's verbatim forwards included) — must not touch
// the heap at all once first-generation warm-up has sized every arena and
// scratch vector.  Global operator new/delete are replaced with counting
// versions; each test drives one full generation inside a counting window
// and pins the delta to zero, so any future per-packet allocation (a stray
// copy, a vector that re-grows, a debug string) fails loudly instead of
// silently eroding the zero-copy pipeline.  The source's generation
// turnover (refill, encode, retire), the destination's stream check and an
// untraced relay's transmit are held to the same rule, and so is the session
// mux's det loop, with and without a fault injector: a run's allocation
// count must not grow with the number of (mostly empty) ticks it makes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codes/code_spec.h"
#include "codes/family_runtime.h"
#include "coding/coded_packet.h"
#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/generation.h"
#include "coding/recoder.h"
#include "common/rng.h"
#include "emu/emu_node.h"
#include "emu/fault_transport.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "net/topology.h"
#include "protocols/node_runtime.h"
#include "routing/node_selection.h"
#include "wire/frame.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace omnc {
namespace {

/// Serialized coded-data frames for one full generation (n + 4 packets —
/// enough redundancy that the decoder always completes).
std::vector<std::vector<std::uint8_t>> generation_frames(
    const coding::CodingParams& params, std::uint32_t generation_id) {
  const coding::Generation gen =
      coding::Generation::synthetic(generation_id, params, 7);
  coding::SourceEncoder encoder(gen, 1);
  Rng rng(100 + generation_id);
  std::vector<std::vector<std::uint8_t>> wires;
  for (int i = 0; i < params.generation_blocks + 4; ++i) {
    wire::Frame frame = wire::make_coded_data(encoder.next_packet(rng));
    frame.trace_origin = 1;
    frame.trace_seq = static_cast<std::uint32_t>(i + 1);
    wires.push_back(frame.serialize());
  }
  return wires;
}

TEST(AllocRegression, SteadyStateDecodePathIsAllocationFree) {
  const coding::CodingParams params{8, 64};
  const auto warmup = generation_frames(params, 0);
  const auto steady = generation_frames(params, 1);

  coding::ProgressiveDecoder decoder(params, 0);
  std::vector<std::uint8_t> recovered(params.generation_bytes());
  bool parsed_ok = true;
  bool completed = false;

  const auto drive = [&](const std::vector<std::vector<std::uint8_t>>& wires) {
    completed = false;
    for (const auto& bytes : wires) {
      wire::DataFrameView view;
      if (!wire::DataFrameView::parse(bytes, &view)) {
        parsed_ok = false;
        return;
      }
      decoder.offer(view.packet);
      if (decoder.complete()) {
        completed = true;
        break;
      }
    }
    if (completed) decoder.recover_into(std::span<std::uint8_t>(recovered));
  };

  // Warm-up generation: arenas, pivot maps, and scratch vectors size here.
  drive(warmup);
  ASSERT_TRUE(parsed_ok);
  ASSERT_TRUE(completed);
  decoder.reset(1);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  drive(steady);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_TRUE(parsed_ok);
  EXPECT_TRUE(completed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state parse -> offer -> recover_into must not allocate";
  // The recovered bytes are the real generation, not stale warm-up data.
  const coding::Generation expected =
      coding::Generation::synthetic(1, params, 7);
  const std::span<const std::uint8_t> want = expected.bytes();
  ASSERT_EQ(recovered.size(), want.size());
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(), want.begin()));
}

TEST(AllocRegression, SteadyStateRelayPathIsAllocationFree) {
  const coding::CodingParams params{8, 64};
  const auto warmup = generation_frames(params, 0);
  const auto steady = generation_frames(params, 1);

  coding::Recoder recoder(params, 1, 0);
  wire::Frame tx;
  tx.type = wire::FrameType::kCodedData;
  std::vector<std::uint8_t> tx_bytes;
  Rng recode_rng(9);
  bool parsed_ok = true;

  const auto drive = [&](const std::vector<std::vector<std::uint8_t>>& wires) {
    for (const auto& bytes : wires) {
      wire::DataFrameView view;
      if (!wire::DataFrameView::parse(bytes, &view)) {
        parsed_ok = false;
        return;
      }
      recoder.offer(view.packet);
      if (recoder.can_send()) {
        // The relay transmit path: recode from the basis arenas into the
        // reused packet, serialize into the reused buffer.
        recoder.recode_into(recode_rng, &tx.packet);
        tx.session_id = tx.packet.session_id;
        tx.trace_origin = 2;
        tx.trace_seq = 1;
        tx.serialize_into(&tx_bytes);
      }
    }
  };

  drive(warmup);
  ASSERT_TRUE(parsed_ok);
  ASSERT_TRUE(recoder.is_full());
  recoder.reset(1);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  drive(steady);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_TRUE(parsed_ok);
  EXPECT_TRUE(recoder.is_full());
  EXPECT_EQ(after - before, 0u)
      << "steady-state offer -> recode_into -> serialize_into must not "
         "allocate";
}

/// One generation of a family encoder's emissions, each with its structure
/// (enough packets for a relay to reach full rank).
struct FamilyFrames {
  std::vector<coding::CodedPacket> packets;
  std::vector<coding::CodedStructure> structures;

  /// The view a receiver gets for packet i: the structure's explicit
  /// coefficient bytes only, as the compact wire parse yields them.
  coding::CodedPacketView view(std::size_t i) const {
    coding::CodedPacketView view = packets[i].as_view();
    const coding::CodedStructure& structure = structures[i];
    switch (structure.kind) {
      case coding::CodedStructure::Kind::kDense:
        break;
      case coding::CodedStructure::Kind::kUncoded:
        view.coefficients = {};
        break;
      case coding::CodedStructure::Kind::kWindow:
        view.coefficients =
            view.coefficients.subspan(structure.offset, structure.width);
        break;
    }
    return view;
  }
};

FamilyFrames family_frames(const coding::CodingParams& params,
                           const codes::CodeSpec& spec,
                           std::uint32_t generation_id) {
  const coding::Generation gen =
      coding::Generation::synthetic(generation_id, params, 7);
  codes::FamilyEncoder encoder(gen, 1, spec);
  codes::FamilyRecoder probe(params, 1, generation_id, spec);
  Rng rng(200 + generation_id);
  FamilyFrames frames;
  while (!probe.is_full()) {
    frames.packets.emplace_back();
    frames.structures.emplace_back();
    encoder.next_packet_into(rng, &frames.packets.back(),
                             &frames.structures.back());
    probe.offer(frames.view(frames.packets.size() - 1),
                frames.structures.back());
  }
  return frames;
}

TEST(AllocRegression, StructuredRelayPathIsAllocationFree) {
  // A structured relay forwards its innovative rows verbatim, so the row
  // bytes must be kept where the innovation filter already keeps them (the
  // recoder's arenas), not in a second per-row heap copy.
  const coding::CodingParams params{8, 64};
  for (const codes::CodeSpec& spec :
       {codes::CodeSpec::systematic(), codes::CodeSpec::banded(2)}) {
    const FamilyFrames warmup = family_frames(params, spec, 0);
    const FamilyFrames steady = family_frames(params, spec, 1);
    codes::FamilyRecoder relay(params, 1, 0, spec);
    Rng recode_rng(9);
    coding::CodedPacket out;
    coding::CodedStructure out_structure;
    std::size_t forwards = 0;

    const auto drive = [&](const FamilyFrames& frames) {
      forwards = 0;
      for (std::size_t i = 0; i < frames.packets.size(); ++i) {
        relay.offer(frames.view(i), frames.structures[i]);
        if (!relay.can_send()) continue;
        relay.recode_into(recode_rng, &out, &out_structure);
        if (!out_structure.dense()) ++forwards;
      }
    };

    drive(warmup);
    ASSERT_TRUE(relay.is_full()) << spec.name();
    relay.reset(1);

    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    drive(steady);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_TRUE(relay.is_full()) << spec.name();
    EXPECT_GT(forwards, 0u) << spec.name() << ": no structured forward ran";
    EXPECT_EQ(after - before, 0u)
        << spec.name()
        << ": steady-state structured offer -> recode_into must not allocate";
  }
}

TEST(AllocRegression, SourceGenerationTurnoverIsAllocationFree) {
  // The first generation sizes the source's one generation buffer, its
  // encoder and the reused packet; generations 2..5 refill, emit and
  // retire without touching the heap, under every code family.
  const coding::CodingParams params{8, 64};
  for (const codes::CodeSpec& spec :
       {codes::CodeSpec::dense(), codes::CodeSpec::systematic(),
        codes::CodeSpec::banded(4)}) {
    protocols::NodeRuntime source =
        protocols::NodeRuntime::source(params, 1, 7, spec);
    Rng rng(3);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    bool started = true;
    const auto run_generation = [&](protocols::NodeRuntime& node) {
      // By t = 1 s a 1 GB/s CBR source has every generation's bytes.
      started &= node.maybe_start_generation(1.0, 1e9, 5);
      for (int i = 0; i < params.generation_blocks + 4; ++i) {
        node.next_packet_into(rng, &packet, &structure);
      }
      node.complete_generation();
    };
    run_generation(source);
    // Containers may move a runtime between generations; the encoder's
    // borrow of the generation buffer must survive that.
    protocols::NodeRuntime moved = std::move(source);

    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int g = 1; g < 5; ++g) run_generation(moved);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_TRUE(started) << spec.name();
    EXPECT_EQ(moved.generations_completed(), 5);
    EXPECT_EQ(after - before, 0u)
        << spec.name()
        << ": starting, emitting and retiring a generation must not allocate";
    // The one buffer now holds the fifth generation's stream, and the last
    // packet was encoded from it.
    EXPECT_EQ(moved.generation().id(), 4u);
    EXPECT_TRUE(coding::matches_synthetic(4, 7, moved.generation().bytes()));
    EXPECT_EQ(packet.generation_id, 4u);
  }
}

TEST(AllocRegression, SyntheticStreamCheckIsAllocationFree) {
  const coding::Generation gen =
      coding::Generation::synthetic(2, coding::CodingParams{40, 1024}, 7);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const bool matches = coding::matches_synthetic(2, 7, gen.bytes());
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(matches);
  EXPECT_EQ(after - before, 0u);
}

/// Heap allocations made by mux.run() for one det-clock, one-session mux
/// on the diamond, run to `horizon_s` virtual seconds over a loopback whose
/// links all have p = 0: every frame is lost, so every poll finds an empty
/// inbox and the session never completes.  A nonempty `fault_plan` wraps
/// the loopback in a FaultTransport running that plan.
std::size_t silent_mux_run_allocations(double horizon_s,
                                       const std::string& fault_plan = "") {
  const net::Topology topo = net::Topology::from_link_matrix({
      {0.0, 0.8, 0.6, 0.0},
      {0.8, 0.0, 0.0, 0.7},
      {0.6, 0.0, 0.0, 0.9},
      {0.0, 0.7, 0.9, 0.0},
  });
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  // The diamond's link matrix with every p set to 0: nothing is delivered.
  std::vector<double> silent = emu::link_matrix_from_topology(topo, graph);
  std::fill(silent.begin(), silent.end(), 0.0);
  emu::LoopbackTransport loopback(graph.size(), std::move(silent));
  std::optional<emu::FaultTransport> faults;
  if (!fault_plan.empty()) {
    emu::FaultPlan plan;
    std::string error;
    EXPECT_TRUE(emu::FaultPlan::parse(fault_plan, &plan, &error)) << error;
    faults.emplace(loopback, std::move(plan));
  }
  emu::Transport& transport =
      faults ? static_cast<emu::Transport&>(*faults) : loopback;
  emu::MuxConfig config;
  config.emu.node.coding = coding::CodingParams{8, 64};
  config.emu.node.max_generations = 1;
  config.emu.clock_mode = vtime::ClockMode::kDeterministic;
  config.emu.virtual_timeout_s = horizon_s;
  config.sessions = 1;
  emu::SessionMux mux(graph, transport, config);
  mux.install_rates(std::vector<double>(graph.size(), 1e4));

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const emu::MuxRunResult result = mux.run();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.transport.copies_delivered, 0u);
  return after - before;
}

TEST(AllocRegression, MuxPollLoopAllocationsDoNotGrowWithRunLength) {
  // Doubling the horizon doubles the ticks; the det loop's per-tick
  // readiness queries and node steps must not allocate, so the count stays
  // flat.  (With every link silent the loopback reports no queued copy, so
  // this loop skips its polls; the fault-plan case below polls every tick.)
  const std::size_t short_run = silent_mux_run_allocations(20.0);
  const std::size_t long_run = silent_mux_run_allocations(40.0);
  EXPECT_LE(long_run, short_run)
      << "a 40 s run allocated more than a 20 s one: something in the "
         "mux poll loop allocates per tick";
}

TEST(AllocRegression, FaultTransportPollAllocationsDoNotGrowWithRunLength) {
  // The same silent run behind the burst preset's injector, which offers no
  // readiness, so every node is polled every tick: the poll handler must fit
  // std::function's inline buffer, and the injector's per-copy filter must
  // not cost an allocation per poll either.
  const std::size_t short_run = silent_mux_run_allocations(20.0, "burst");
  const std::size_t long_run = silent_mux_run_allocations(40.0, "burst");
  EXPECT_LE(long_run, short_run)
      << "a 40 s fault-plan run allocated more than a 20 s one: something "
         "in FaultTransport::poll allocates per tick";
}

/// Counts broadcasts and delivers nothing, so a node driven over it
/// allocates only what the node itself allocates.
class NullTransport final : public emu::Transport {
 public:
  explicit NullTransport(int nodes) : nodes_(nodes) {}
  int nodes() const override { return nodes_; }
  void send(int from, std::span<const std::uint8_t> frame) override {
    (void)from;
    (void)frame;
    ++sent;
  }
  std::size_t poll(int to, const Handler& handler) override {
    (void)to;
    (void)handler;
    return 0;
  }
  emu::TransportStats stats() const override { return {}; }

  std::size_t sent = 0;

 private:
  int nodes_;
};

TEST(AllocRegression, UntracedRelayTransmitIsAllocationFree) {
  // A relay holding three traced innovative packets recodes a bucketful per
  // step.  Each transmit names those packets as its span parents; with no
  // span sink installed that list must not be copied anywhere.
  const net::Topology topo = net::Topology::from_link_matrix({
      {0.0, 0.8, 0.6, 0.0},
      {0.8, 0.0, 0.0, 0.7},
      {0.6, 0.0, 0.0, 0.9},
      {0.0, 0.7, 0.9, 0.0},
  });
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  int relay_local = -1;
  for (int local = 0; local < graph.size(); ++local) {
    if (local != graph.source && local != graph.destination) {
      relay_local = local;
    }
  }
  ASSERT_GE(relay_local, 0);
  NullTransport transport(graph.size());
  emu::EmuNodeConfig config;
  config.coding = coding::CodingParams{8, 64};
  emu::EmuNode relay(graph, relay_local, transport, config);
  ASSERT_EQ(relay.role(), protocols::NodeRuntime::Role::kRelay);
  relay.install_rate(1e5);

  const auto frames = generation_frames(config.coding, 0);
  relay.step_local(0.5);
  for (int i = 0; i < 3; ++i) relay.deliver(0.6, graph.source, frames[i]);
  relay.step_local(0.6);  // warm-up: sizes the transmit frame and buffer
  const std::size_t warm_sent = transport.sent;
  ASSERT_GT(warm_sent, 0u);

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  relay.step_local(0.7);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_GT(transport.sent, warm_sent) << "the measured step must transmit";
  EXPECT_EQ(after - before, 0u)
      << "an untraced relay's transmitting step must not allocate";
}

}  // namespace
}  // namespace omnc
