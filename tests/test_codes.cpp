// Code-family subsystem (DESIGN.md §15): CodeSpec selection, the family
// encoder/recoder/decoder, and the structured CBD-style decoder.  The
// property sweeps pin the subsystem's two contracts:
//   * every family is byte-exact against the generation's original bytes
//     (and therefore against the dense reference) under loss, for every
//     geometry and every supported GF backend;
//   * the structural fast paths really are structural — a lossless
//     systematic decode performs zero GF multiply kernels, and a banded
//     decode never touches coefficient columns outside the offered windows
//     (the instrumented touched_lo/touched_hi range).
// RNG draw counts per family are pinned here too: they are part of the wire
// contract (family_runtime.h), because deterministic replay depends on them.
#include "codes/family_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "codes/code_spec.h"
#include "codes/structured_decoder.h"
#include "coding/coded_packet.h"
#include "coding/decoder.h"
#include "coding/generation.h"
#include "coding/recoder.h"
#include "coding/encoder.h"
#include "common/rng.h"
#include "emu/loopback_transport.h"
#include "emu/session_mux.h"
#include "galois/region.h"
#include "net/topology.h"
#include "opt/rate_control.h"
#include "opt/sunicast.h"
#include "routing/node_selection.h"

namespace omnc::codes {
namespace {

/// The view a receiver sees: the structure's explicit coefficient bytes
/// only (all n for dense, the window for kWindow, none for kUncoded) —
/// exactly what parse_compact yields off the wire.
coding::CodedPacketView slice_view(const coding::CodedPacket& packet,
                                   const coding::CodedStructure& structure) {
  coding::CodedPacketView view = packet.as_view();
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

/// gen.bytes() is a span; gtest wants a homogeneous comparison.
testing::AssertionResult same_bytes(std::span<const std::uint8_t> got,
                                    std::span<const std::uint8_t> want) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return testing::AssertionFailure()
             << "byte " << i << ": " << int{got[i]} << " != " << int{want[i]};
    }
  }
  return testing::AssertionSuccess();
}

TEST(CodeSpec, SelectorParseRoundTrip) {
  for (const CodeSpec spec :
       {CodeSpec::dense(), CodeSpec::systematic(), CodeSpec::banded(0),
        CodeSpec::banded(8), CodeSpec::banded(513)}) {
    CodeSpec parsed;
    ASSERT_TRUE(CodeSpec::parse(spec.selector(), &parsed)) << spec.selector();
    EXPECT_EQ(parsed, spec) << spec.selector();
  }
}

TEST(CodeSpec, ParseRejectsGarbage) {
  CodeSpec spec = CodeSpec::banded(4);
  for (const char* text :
       {"", "Dense", "band", "banded:", "banded:x", "banded:-3", "rlnc"}) {
    EXPECT_FALSE(CodeSpec::parse(text, &spec)) << text;
    EXPECT_EQ(spec, CodeSpec::banded(4)) << "parse failure must not write";
  }
}

TEST(CodeSpec, ClampedForResolvesAutoAndBounds) {
  const coding::CodingParams params{64, 32};
  EXPECT_EQ(CodeSpec::banded(0).clamped_for(params).band_width, 16);
  EXPECT_EQ(CodeSpec::banded(200).clamped_for(params).band_width, 64);
  EXPECT_EQ(CodeSpec::banded(8).clamped_for(params).band_width, 8);
  EXPECT_EQ(CodeSpec::systematic().clamped_for(params),
            CodeSpec::systematic());
}

// --- the acceptance criterion: lossless systematic is multiply-free -------

TEST(Families, SystematicLosslessDecodeDoesZeroMultiplies) {
  const coding::CodingParams params{64, 1024};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 3);
  FamilyEncoder encoder(gen, 0, CodeSpec::systematic());
  FamilyDecoder decoder(params, 0, CodeSpec::systematic());
  Rng rng(1);
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  gf::reset_kernel_stats();
  for (std::size_t i = 0; i < params.generation_blocks; ++i) {
    encoder.next_packet_into(rng, &packet, &structure);
    ASSERT_EQ(structure.kind, coding::CodedStructure::Kind::kUncoded);
    const FamilyDecoder::OfferResult outcome =
        decoder.offer(slice_view(packet, structure), structure);
    ASSERT_TRUE(outcome.innovative);
    EXPECT_TRUE(outcome.uncoded);
    EXPECT_EQ(outcome.pivot, static_cast<int>(i));
  }
  ASSERT_TRUE(decoder.complete());
  std::vector<std::uint8_t> out(params.generation_bytes());
  decoder.recover_into(std::span<std::uint8_t>(out));
  const gf::KernelStats stats = gf::kernel_stats();
  EXPECT_EQ(stats.mul_calls, 0u) << "lossless systematic must be pure memcpy";
  EXPECT_EQ(stats.mul_bytes, 0u);
  EXPECT_TRUE(same_bytes(out, gen.bytes()));
  ASSERT_NE(decoder.structured_stats(), nullptr);
  EXPECT_EQ(decoder.structured_stats()->uncoded_hits,
            params.generation_blocks);
}

// --- byte-exact recovery sweep: family x geometry x loss ------------------

struct SweepCase {
  CodeSpec spec;
  std::uint16_t blocks;
  std::uint16_t bytes;
  double loss;
};

class FamilySweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FamilySweepTest, RecoversOriginalBytesUnderLoss) {
  const SweepCase c = GetParam();
  const coding::CodingParams params{c.blocks, c.bytes};
  const coding::Generation gen =
      coding::Generation::synthetic(0, params, c.blocks * 7 + 1);
  FamilyEncoder encoder(gen, 0, c.spec);
  FamilyDecoder decoder(params, 0, c.spec);
  Rng rng(c.blocks * 100003 + c.bytes);
  Rng loss_rng(c.blocks + 17);
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  std::size_t sent = 0;
  const std::size_t budget = 256u * c.blocks + 1024;
  while (!decoder.complete()) {
    ASSERT_LT(sent, budget) << "family failed to converge: "
                            << c.spec.selector();
    encoder.next_packet_into(rng, &packet, &structure);
    ++sent;
    if (loss_rng.next_double() < c.loss) continue;  // erased in flight
    decoder.offer(slice_view(packet, structure), structure);
  }
  std::vector<std::uint8_t> out(params.generation_bytes());
  decoder.recover_into(std::span<std::uint8_t>(out));
  EXPECT_TRUE(same_bytes(out, gen.bytes())) << c.spec.selector();
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const double loss : {0.0, 0.25, 0.5}) {
    for (const std::uint16_t blocks : {8, 16, 32, 64}) {
      cases.push_back({CodeSpec::systematic(), blocks, 64, loss});
      for (const std::uint16_t width : {2, 4, 8, 16}) {
        if (width > blocks) continue;
        cases.push_back({CodeSpec::banded(width), blocks, 64, loss});
      }
    }
    cases.push_back({CodeSpec::dense(), 16, 64, loss});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FamilySweepTest,
                         ::testing::ValuesIn(sweep_cases()));

// --- the banded structural bound ------------------------------------------

// Feeding only windows confined to [lo, hi) must keep every coefficient
// kernel inside [lo, hi): the structured decoder's elimination never
// wanders outside the offered bands (the instrumented note_touch range).
TEST(Families, BandedDecodeNeverTouchesOutsideOfferedWindows) {
  const coding::CodingParams params{64, 128};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 9);
  FamilyEncoder encoder(gen, 0, CodeSpec::banded(8));
  StructuredDecoder decoder(params, 0);
  Rng rng(11);
  const std::size_t lo = 16;
  const std::size_t hi = 48;
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  std::size_t offered = 0;
  for (std::size_t i = 0; i < 4096 && offered < 64; ++i) {
    encoder.next_packet_into(rng, &packet, &structure);
    ASSERT_EQ(structure.kind, coding::CodedStructure::Kind::kWindow);
    if (structure.offset < lo || structure.offset + structure.width > hi) {
      continue;
    }
    decoder.offer(slice_view(packet, structure), structure);
    ++offered;
  }
  ASSERT_GT(offered, 0u);
  EXPECT_GT(decoder.rank(), 0u);
  const StructuredDecoder::Stats& stats = decoder.stats();
  ASSERT_LE(stats.touched_lo, stats.touched_hi) << "kernels must have run";
  EXPECT_GE(stats.touched_lo, lo);
  EXPECT_LE(stats.touched_hi, hi);
}

// Full-rank banded sweep: the touched range stays inside the union of the
// offered windows for every band width and the stored windows stay narrow
// (the decode-cost claim rests on this).
TEST(Families, BandedSweepTouchedRangeMatchesOfferedUnion) {
  for (const std::uint16_t width : {2, 4, 8, 16}) {
    const coding::CodingParams params{64, 64};
    const coding::Generation gen =
        coding::Generation::synthetic(0, params, width);
    FamilyEncoder encoder(gen, 0, CodeSpec::banded(width));
    StructuredDecoder decoder(params, 0);
    Rng rng(width * 31 + 1);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    std::size_t union_lo = params.generation_blocks;
    std::size_t union_hi = 0;
    std::size_t sent = 0;
    while (!decoder.complete()) {
      ASSERT_LT(sent, 8192u);
      encoder.next_packet_into(rng, &packet, &structure);
      ++sent;
      if (decoder.offer(slice_view(packet, structure), structure)) {
        union_lo = std::min<std::size_t>(union_lo, structure.offset);
        union_hi = std::max<std::size_t>(union_hi,
                                         structure.offset + structure.width);
      }
    }
    const StructuredDecoder::Stats& stats = decoder.stats();
    EXPECT_GE(stats.touched_lo, union_lo) << "width " << width;
    EXPECT_LE(stats.touched_hi, union_hi) << "width " << width;
    std::vector<std::uint8_t> out(params.generation_bytes());
    decoder.recover_into(std::span<std::uint8_t>(out));
    EXPECT_TRUE(same_bytes(out, gen.bytes())) << "width " << width;
  }
}

// --- pinned RNG draw counts (family_runtime.h contract) -------------------

// Every next_byte()/next_u64() consumes exactly one xoshiro step, so a
// shadow Rng advanced by the documented draw count must stay in lockstep
// with the Rng the encoder actually used.
TEST(Families, EncoderDrawCountsArePinned) {
  const coding::CodingParams params{16, 32};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 5);
  const std::size_t n = params.generation_blocks;

  {  // dense: n byte draws per packet, all-zero repaired without re-draws.
    FamilyEncoder encoder(gen, 0, CodeSpec::dense());
    Rng used(42), shadow(42);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    for (int i = 0; i < 5; ++i) {
      encoder.next_packet_into(used, &packet, &structure);
      for (std::size_t d = 0; d < n; ++d) shadow.next_byte();
    }
    EXPECT_EQ(used.next_u64(), shadow.next_u64());
  }
  {  // systematic: zero draws for the n originals, then n per repair.
    FamilyEncoder encoder(gen, 0, CodeSpec::systematic());
    Rng used(42), shadow(42);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    for (std::size_t i = 0; i < n + 3; ++i) {
      encoder.next_packet_into(used, &packet, &structure);
      if (i >= n) {
        for (std::size_t d = 0; d < n; ++d) shadow.next_byte();
      }
    }
    EXPECT_EQ(used.next_u64(), shadow.next_u64());
  }
  {  // banded: exactly w byte draws; the window start is not drawn.
    const std::uint16_t width = 4;
    FamilyEncoder encoder(gen, 0, CodeSpec::banded(width));
    Rng used(42), shadow(42);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    for (int i = 0; i < 20; ++i) {
      encoder.next_packet_into(used, &packet, &structure);
      for (std::size_t d = 0; d < width; ++d) shadow.next_byte();
    }
    EXPECT_EQ(used.next_u64(), shadow.next_u64());
  }
}

TEST(Families, BandedWindowStartsCycleDeterministically) {
  const coding::CodingParams params{16, 32};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 5);
  const std::uint16_t width = 4;
  FamilyEncoder encoder(gen, 0, CodeSpec::banded(width));
  Rng rng(3);
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  const std::size_t positions = params.generation_blocks - width + 1;
  for (std::size_t i = 0; i < 2 * positions; ++i) {
    encoder.next_packet_into(rng, &packet, &structure);
    EXPECT_EQ(structure.offset, i % positions);
    EXPECT_EQ(structure.width, width);
  }
}

// Structured forwards re-emit stored rows verbatim with zero draws; once
// exhausted the recoder falls back to a dense recode of rank() byte draws.
TEST(Families, RecoderForwardDrawsZeroThenDenseRankDraws) {
  const coding::CodingParams params{8, 16};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 2);
  FamilyEncoder encoder(gen, 0, CodeSpec::banded(3));
  FamilyRecoder recoder(params, 0, 0, CodeSpec::banded(3));
  Rng enc_rng(9);
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  std::size_t stored = 0;
  for (int i = 0; i < 12; ++i) {
    encoder.next_packet_into(enc_rng, &packet, &structure);
    if (recoder.offer(slice_view(packet, structure), structure)) ++stored;
  }
  ASSERT_GT(stored, 0u);
  Rng used(42), shadow(42);
  coding::CodedPacket out;
  coding::CodedStructure out_structure;
  for (std::size_t i = 0; i < stored; ++i) {
    recoder.recode_into(used, &out, &out_structure);
    EXPECT_EQ(out_structure.kind, coding::CodedStructure::Kind::kWindow);
  }
  EXPECT_EQ(used.next_u64(), shadow.next_u64()) << "forwards draw nothing";
  Rng used2(42), shadow2(42);
  recoder.recode_into(used2, &out, &out_structure);
  EXPECT_TRUE(out_structure.dense());
  for (std::size_t d = 0; d < recoder.rank(); ++d) shadow2.next_byte();
  EXPECT_EQ(used2.next_u64(), shadow2.next_u64());
}

// --- relay and mixed-family paths -----------------------------------------

// Source -> lossy relay -> destination, all banded: the recoder's verbatim
// forwards plus dense fallbacks must still decode byte-exact.
TEST(Families, BandedSurvivesRecodingRelay) {
  const coding::CodingParams params{16, 48};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 4);
  const CodeSpec spec = CodeSpec::banded(4);
  FamilyEncoder encoder(gen, 0, spec);
  FamilyRecoder relay(params, 0, 0, spec);
  FamilyDecoder decoder(params, 0, spec);
  Rng rng(21);
  Rng loss_rng(22);
  coding::CodedPacket packet, relayed;
  coding::CodedStructure structure, relayed_structure;
  std::size_t steps = 0;
  while (!decoder.complete()) {
    ASSERT_LT(++steps, 4096u);
    encoder.next_packet_into(rng, &packet, &structure);
    if (loss_rng.next_double() < 0.3) continue;  // source -> relay loss
    relay.offer(slice_view(packet, structure), structure);
    if (relay.rank() == 0) continue;
    relay.recode_into(rng, &relayed, &relayed_structure);
    if (loss_rng.next_double() < 0.3) continue;  // relay -> dest loss
    decoder.offer(slice_view(relayed, relayed_structure), relayed_structure);
  }
  std::vector<std::uint8_t> out(params.generation_bytes());
  decoder.recover_into(std::span<std::uint8_t>(out));
  EXPECT_TRUE(same_bytes(out, gen.bytes()));
}

// Mixed-family peers: a dense-spec decoder must absorb structured packets
// (expanding them) and a structured decoder must absorb dense packets.
TEST(Families, MixedFamilyPeersInteroperate) {
  const coding::CodingParams params{12, 24};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 8);
  Rng rng(14);
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  {  // structured packets into a dense-spec decoder
    FamilyEncoder encoder(gen, 0, CodeSpec::banded(3));
    FamilyDecoder dense_decoder(params, 0, CodeSpec::dense());
    std::size_t sent = 0;
    while (!dense_decoder.complete()) {
      ASSERT_LT(++sent, 2048u);
      encoder.next_packet_into(rng, &packet, &structure);
      dense_decoder.offer(slice_view(packet, structure), structure);
    }
    EXPECT_TRUE(same_bytes(dense_decoder.recover(), gen.bytes()));
  }
  {  // dense packets into a structured (banded-spec) decoder
    FamilyEncoder encoder(gen, 0, CodeSpec::dense());
    FamilyDecoder banded_decoder(params, 0, CodeSpec::banded(3));
    std::size_t sent = 0;
    while (!banded_decoder.complete()) {
      ASSERT_LT(++sent, 2048u);
      encoder.next_packet_into(rng, &packet, &structure);
      banded_decoder.offer(slice_view(packet, structure), structure);
    }
    EXPECT_TRUE(same_bytes(banded_decoder.recover(), gen.bytes()));
  }
}

// The dense family must stay byte- and draw-identical to the raw
// SourceEncoder/ProgressiveDecoder pipeline it wraps.
TEST(Families, DenseFamilyMatchesReferencePipeline) {
  const coding::CodingParams params{10, 40};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 6);
  FamilyEncoder family(gen, 0, CodeSpec::dense());
  coding::SourceEncoder reference(gen, 0);
  Rng family_rng(33), reference_rng(33);
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  for (int i = 0; i < 24; ++i) {
    family.next_packet_into(family_rng, &packet, &structure);
    const coding::CodedPacket expected = reference.next_packet(reference_rng);
    EXPECT_TRUE(structure.dense());
    EXPECT_EQ(packet.coefficients, expected.coefficients);
    EXPECT_EQ(packet.payload, expected.payload);
  }
  EXPECT_EQ(family_rng.next_u64(), reference_rng.next_u64());
}

// --- deferred payload folds -----------------------------------------------
//
// The slot simulator runs an emission's draw when a node queues the frame and
// its payload fold only when a receiver first accepts it, possibly after the
// emitter has accepted more rows.  Draw-now-fold-later must give the bytes of
// next_packet_into() / recode_into() and leave the RNG where they leave it.

std::vector<CodeSpec> deferred_fold_specs() {
  return {CodeSpec::dense(), CodeSpec::systematic(), CodeSpec::banded(4)};
}

void expect_same_packet(const coding::CodedPacket& got,
                        const coding::CodedPacket& want) {
  EXPECT_EQ(got.session_id, want.session_id);
  EXPECT_EQ(got.generation_id, want.generation_id);
  EXPECT_EQ(got.generation_blocks, want.generation_blocks);
  EXPECT_EQ(got.block_bytes, want.block_bytes);
  EXPECT_EQ(got.coefficients, want.coefficients);
  EXPECT_EQ(got.payload, want.payload);
}

TEST(DeferredFold, SourceDrawNowFoldLaterMatchesEagerEmission) {
  const coding::CodingParams params{12, 40};
  const coding::Generation gen = coding::Generation::synthetic(3, params, 7);
  for (const CodeSpec& spec : deferred_fold_specs()) {
    SCOPED_TRACE(spec.selector());
    FamilyEncoder deferred(gen, 5, spec);
    FamilyEncoder eager(gen, 5, spec);
    Rng deferred_rng(5), eager_rng(5);
    // More emissions than blocks: systematic originals and then repairs,
    // every banded window start.
    constexpr int kBatch = 30;
    std::vector<coding::CodedPacket> heads(kBatch);
    std::vector<coding::CodedStructure> structures(kBatch);
    std::vector<coding::PayloadFold> folds(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      deferred.draw_into(deferred_rng, &heads[i], &structures[i], &folds[i]);
      EXPECT_TRUE(heads[i].payload.empty());
    }
    for (int i = 0; i < kBatch; ++i) {
      coding::CodedPacket want;
      coding::CodedStructure want_structure;
      eager.next_packet_into(eager_rng, &want, &want_structure);
      heads[i].payload.resize(params.block_bytes);
      deferred.fold_into(folds[i], heads[i].payload.data());
      EXPECT_EQ(structures[i], want_structure) << "emission " << i;
      expect_same_packet(heads[i], want);
    }
    EXPECT_EQ(deferred_rng.next_u64(), eager_rng.next_u64());
  }
}

TEST(DeferredFold, RelayFoldAfterArenaMovesMatchesEagerRecode) {
  const coding::CodingParams params{16, 40};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 9);
  {  // The premise: a relay's payload arena moves while it grows from rank
     // 2 to n, so a recipe drawn at rank 2 must not hold row addresses.
    coding::Recoder recoder(params, 0, 0);
    coding::SourceEncoder source(gen, 0);
    Rng rng(4);
    while (recoder.rank() < 2) recoder.offer(source.next_packet(rng));
    const std::uint8_t* before = recoder.row_payload(0).data();
    while (!recoder.is_full()) recoder.offer(source.next_packet(rng));
    EXPECT_NE(recoder.row_payload(0).data(), before);
  }
  for (const CodeSpec& spec : deferred_fold_specs()) {
    SCOPED_TRACE(spec.selector());
    FamilyEncoder source(gen, 0, spec);
    FamilyRecoder deferred(params, 0, 0, spec);
    FamilyRecoder eager(params, 0, 0, spec);
    Rng source_rng(12);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    const auto feed_both = [&](std::size_t rank) {
      for (int sent = 0; deferred.rank() < rank; ++sent) {
        ASSERT_LT(sent, 1024);
        source.next_packet_into(source_rng, &packet, &structure);
        const coding::CodedPacketView view = slice_view(packet, structure);
        ASSERT_EQ(deferred.offer(view, structure),
                  eager.offer(view, structure));
      }
    };
    feed_both(2);
    // At rank 2: the structured relays' verbatim forwards, then recodes.
    constexpr int kBatch = 6;
    Rng deferred_rng(31), eager_rng(31);
    std::vector<coding::CodedPacket> heads(kBatch), wants(kBatch);
    std::vector<coding::CodedStructure> structures(kBatch),
        want_structures(kBatch);
    std::vector<coding::PayloadFold> folds(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      deferred.draw_into(deferred_rng, &heads[i], &structures[i], &folds[i]);
      eager.recode_into(eager_rng, &wants[i], &want_structures[i]);
    }
    EXPECT_EQ(deferred_rng.next_u64(), eager_rng.next_u64());
    feed_both(params.generation_blocks);
    for (int i = 0; i < kBatch; ++i) {
      EXPECT_TRUE(heads[i].payload.empty());
      heads[i].payload.resize(params.block_bytes);
      deferred.fold_into(folds[i], heads[i].payload.data());
      EXPECT_EQ(structures[i], want_structures[i]) << "emission " << i;
      expect_same_packet(heads[i], wants[i]);
    }
  }
}

// --- every supported GF backend decodes byte-exactly ----------------------

TEST(Families, AllFamiliesByteExactOnEveryBackend) {
  constexpr gf::Backend kBackends[] = {
      gf::Backend::kScalarTable, gf::Backend::kSse2,  gf::Backend::kSsse3,
      gf::Backend::kAvx2,        gf::Backend::kGfni,  gf::Backend::kNeon,
      gf::Backend::kPortable,
  };
  const coding::CodingParams params{16, 96};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 12);
  const gf::Backend previous = gf::active_backend();
  for (const gf::Backend backend : kBackends) {
    if (!gf::backend_supported(backend)) continue;
    gf::set_backend(backend);
    for (const CodeSpec spec :
         {CodeSpec::dense(), CodeSpec::systematic(), CodeSpec::banded(4)}) {
      FamilyEncoder encoder(gen, 0, spec);
      FamilyDecoder decoder(params, 0, spec);
      Rng rng(77);
      Rng loss_rng(78);
      coding::CodedPacket packet;
      coding::CodedStructure structure;
      std::size_t sent = 0;
      while (!decoder.complete()) {
        ASSERT_LT(++sent, 4096u) << gf::backend_name(backend) << " "
                                 << spec.selector();
        encoder.next_packet_into(rng, &packet, &structure);
        if (loss_rng.next_double() < 0.2) continue;
        decoder.offer(slice_view(packet, structure), structure);
      }
      EXPECT_TRUE(same_bytes(decoder.recover(), gen.bytes()))
          << gf::backend_name(backend) << " " << spec.selector();
    }
  }
  gf::set_backend(previous);
}

// --- compact wire format --------------------------------------------------

TEST(CompactWire, RoundTripsEveryStructureKind) {
  const coding::CodingParams params{16, 32};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 1);
  Rng rng(2);
  for (const CodeSpec spec : {CodeSpec::systematic(), CodeSpec::banded(5)}) {
    FamilyEncoder encoder(gen, 0, spec);
    coding::CodedPacket packet;
    coding::CodedStructure structure;
    for (int i = 0; i < 20; ++i) {
      encoder.next_packet_into(rng, &packet, &structure);
      if (structure.dense()) continue;  // dense keeps the dense wire form
      std::vector<std::uint8_t> wire(
          coding::compact_wire_size(structure, params.block_bytes));
      ASSERT_TRUE(coding::serialize_compact(packet, structure, wire));
      coding::CodedPacketView view;
      coding::CodedStructure parsed;
      ASSERT_TRUE(coding::parse_compact(
          std::span<const std::uint8_t>(wire), &view, &parsed));
      EXPECT_EQ(parsed, structure);
      const coding::CodedPacketView expected = slice_view(packet, structure);
      EXPECT_TRUE(std::equal(view.coefficients.begin(),
                             view.coefficients.end(),
                             expected.coefficients.begin(),
                             expected.coefficients.end()));
      EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                             packet.payload.begin(), packet.payload.end()));
    }
  }
}

TEST(CompactWire, ParseRejectsTruncationAndGarbage) {
  const coding::CodingParams params{16, 32};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 1);
  FamilyEncoder encoder(gen, 0, CodeSpec::banded(5));
  Rng rng(2);
  coding::CodedPacket packet;
  coding::CodedStructure structure;
  encoder.next_packet_into(rng, &packet, &structure);
  std::vector<std::uint8_t> wire(
      coding::compact_wire_size(structure, params.block_bytes));
  ASSERT_TRUE(coding::serialize_compact(packet, structure, wire));
  coding::CodedPacketView view;
  coding::CodedStructure parsed;
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(coding::parse_compact(
        std::span<const std::uint8_t>(wire.data(), cut), &view, &parsed))
        << "truncated to " << cut;
  }
  Rng fuzz(99);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> garbage(fuzz.next_u64() % 64);
    for (auto& b : garbage) b = fuzz.next_byte();
    coding::parse_compact(std::span<const std::uint8_t>(garbage), &view,
                          &parsed);  // must not crash; result is irrelevant
  }
}

// --- end-to-end: each family through the threaded emulation ---------------

net::Topology emu_diamond() {
  std::vector<std::vector<double>> p(4, std::vector<double>(4, 0.0));
  p[0][1] = p[1][0] = 0.8;
  p[0][2] = p[2][0] = 0.6;
  p[1][3] = p[3][1] = 0.7;
  p[2][3] = p[3][2] = 0.9;
  return net::Topology::from_link_matrix(p);
}

/// Runs the fig-2 diamond over the loopback transport with `spec` and
/// demands byte-exact delivery of every generation.  The same path the
/// forced-family CI passes drive via OMNC_CODE_FAMILY.
void run_emu_with_family(const CodeSpec& spec) {
  const net::Topology topo = emu_diamond();
  const routing::SessionGraph graph = routing::select_nodes(topo, 0, 3);
  opt::RateControlParams rc_params;
  rc_params.capacity = 2e4;
  opt::DistributedRateControl control(graph, rc_params);
  const opt::RateControlResult rc = control.run();
  std::vector<double> rates = rc.b;
  opt::rescale_to_feasible(graph, rates, rc_params.capacity);

  emu::LoopbackConfig loopback;
  loopback.seed = 5;
  emu::LoopbackTransport transport(
      graph.size(), emu::link_matrix_from_topology(topo, graph), loopback);
  emu::MuxConfig mux_config;  // one session
  emu::EmuConfig& config = mux_config.emu;
  config.node.coding.generation_blocks = 8;
  config.node.coding.block_bytes = 64;
  config.node.cbr_bytes_per_s = 1e4;
  config.node.max_generations = 3;
  config.node.code = spec;
  config.clock_mode = vtime::ClockMode::kWarp;
  config.speedup = 20.0;
  config.wall_timeout_s = 45.0;
  emu::SessionMux mux(graph, transport, mux_config);
  mux.install_price_table(rates, rc.lambda, rc.beta, rc.iterations);
  const emu::EmuRunResult result = mux.run().sessions.at(0);
  EXPECT_TRUE(result.completed) << spec.selector();
  EXPECT_TRUE(result.data_ok) << spec.selector();
  EXPECT_EQ(result.generations_completed, 3) << spec.selector();
  EXPECT_EQ(result.parse_errors, 0u) << spec.selector();
}

TEST(FamilyEmu, DenseDeliversByteExact) { run_emu_with_family(CodeSpec::dense()); }

TEST(FamilyEmu, SystematicDeliversByteExact) {
  run_emu_with_family(CodeSpec::systematic());
}

TEST(FamilyEmu, BandedDeliversByteExact) {
  run_emu_with_family(CodeSpec::banded(2));
}

// The env seam the forced-family CI passes flip: OMNC_CODE_FAMILY selects
// the spec for this run (dense when unset), so `OMNC_CODE_FAMILY=banded:2
// ctest` genuinely re-executes the emulation under that family.
TEST(FamilyEmu, EnvSelectedFamilyDeliversByteExact) {
  run_emu_with_family(CodeSpec::from_env());
}

}  // namespace
}  // namespace omnc::codes
