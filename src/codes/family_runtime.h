// Family-parameterized encoder / recoder / decoder (DESIGN.md §15).
//
// These are the concrete seam behind CodeSpec: NodeRuntime instantiates one
// of each instead of the raw coding-layer classes, and every call carries a
// CodedStructure side channel describing how the emitted packet's
// coefficients were produced (so the wire layer can compress them and the
// receiving decoder can exploit them).
//
// Dense is the reference family: FamilyEncoder/FamilyRecoder/FamilyDecoder
// with a dense spec delegate to SourceEncoder / Recoder / ProgressiveDecoder
// with byte-identical outputs and RNG-draw-identical streams, so every
// pre-family baseline (det-clock traces, goodput snapshots, regression pins)
// is reproduced exactly.
//
// RNG draw counts are a pinned per-family invariant (per emitted packet):
//   dense encode         — n byte draws;
//   systematic original  — 0 draws;
//   systematic repair    — n byte draws (a dense packet);
//   banded               — w byte draws (the window start is not drawn: it
//                          slides cyclically over the n-w+1 positions with
//                          the encoder's packet sequence, so every pivot
//                          column is covered once per cycle — a uniformly
//                          random start would leave column 0 uncovered with
//                          probability (1-1/(n-w+1))^k after k packets);
//   dense recode         — rank() byte draws;
//   structured forward   — 0 draws (an arena row re-emitted verbatim).
// All-zero draws are repaired deterministically (never re-drawn).
//
// Every emission is a draw plus a payload fold (DESIGN.md §15.1): the draw
// takes the RNG bytes above and writes the header and coefficients, and a
// coding::PayloadFold names the emitter rows and factors the payload
// combines — the n blocks by the coefficients (dense packets and systematic
// repairs), one block by 1 (a systematic original), the w window blocks by
// the window coefficients (banded), the rank() arena rows by the
// multipliers (dense recode), one arena row by 1 (a structured forward).
// next_packet_into() / recode_into() run both halves back to back;
// draw_into() and fold_into() let a caller run the fold later, or never.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "codes/code_spec.h"
#include "codes/structured_decoder.h"
#include "coding/coded_packet.h"
#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/generation.h"
#include "coding/recoder.h"
#include "common/rng.h"

namespace omnc::codes {

class FamilyEncoder {
 public:
  /// Borrows the generation; the caller keeps it alive.  The spec is
  /// clamped to the generation's geometry (band width auto/limits).
  FamilyEncoder(const coding::Generation& generation, std::uint32_t session_id,
                const CodeSpec& spec);

  /// Emits one packet and its structure.  Dense spec: byte- and draw-
  /// identical to SourceEncoder::next_packet_into, structure kDense.
  /// Systematic: the n originals in order (kUncoded), then dense repairs.
  /// Banded: a sliding-window combination (kWindow) whose start cycles
  /// deterministically over the n-w+1 positions.
  void next_packet_into(Rng& rng, coding::CodedPacket* out,
                        coding::CodedStructure* structure);

  /// The draw half of next_packet_into(): the same emission with `out`'s
  /// payload left empty and its recipe in `fold`.
  void draw_into(Rng& rng, coding::CodedPacket* out,
                 coding::CodedStructure* structure, coding::PayloadFold* fold);

  /// The fold half, over the borrowed generation's blocks (coding/encode
  /// timer).  Exact until the caller refills the generation.
  void fold_into(const coding::PayloadFold& fold,
                 std::uint8_t* payload) const {
    dense_.fold_into(fold, payload);
  }

  /// Restarts the emission sequence (the systematic originals, the banded
  /// window cycle) after the caller refilled the borrowed generation in
  /// place: the next packets are those a fresh encoder would emit.
  void rewind();

  std::uint32_t generation_id() const { return dense_.generation_id(); }
  const CodeSpec& spec() const { return spec_; }

 private:
  /// True if the next emission is a dense packet: the dense family, and
  /// systematic repairs once the originals are out.
  bool emits_dense() const;

  coding::SourceEncoder dense_;
  const coding::Generation* generation_;
  std::uint32_t session_id_;
  CodeSpec spec_;  // clamped
  std::uint32_t next_uncoded_ = 0;
  std::uint32_t band_seq_ = 0;  // banded window-start cycle position
  coding::PayloadFold fold_;    // next_packet_into's structured recipe
  std::vector<const std::uint8_t*> fold_ptrs_;  // its fold scratch
};

class FamilyRecoder {
 public:
  FamilyRecoder(const coding::CodingParams& params, std::uint32_t session_id,
                std::uint32_t generation_id, const CodeSpec& spec);

  /// Considers an incoming packet (with its structure side channel).
  /// Returns true iff it was innovative.  Non-dense specs additionally
  /// remember the structure of innovative *structured* rows for structure-
  /// preserving forwarding; the row's bytes live once, in the dense
  /// recoder's arenas.
  bool offer(const coding::CodedPacketView& view,
             const coding::CodedStructure& structure);

  bool can_send() const { return dense_.can_send(); }
  std::size_t rank() const { return dense_.rank(); }
  bool is_full() const { return dense_.is_full(); }
  std::uint32_t generation_id() const { return dense_.generation_id(); }

  /// Emits one packet.  Dense spec: delegates to Recoder::recode_into
  /// byte-for-byte.  Non-dense: stored structured rows are re-emitted
  /// verbatim from the recoder's arenas first (zero draws, structure
  /// preserved, so the compression and the downstream structured fast
  /// paths survive one relay hop); once drained, falls back to dense
  /// recoding over the full basis.
  void recode_into(Rng& rng, coding::CodedPacket* out,
                   coding::CodedStructure* structure);

  /// The draw half of recode_into(): the same emission with `out`'s
  /// payload left empty and its recipe over the arena rows in `fold`.
  void draw_into(Rng& rng, coding::CodedPacket* out,
                 coding::CodedStructure* structure, coding::PayloadFold* fold);

  /// The fold half, over the recoder's arena rows (coding/recode timer).
  /// Exact until the next reset().
  void fold_into(const coding::PayloadFold& fold,
                 std::uint8_t* payload) const {
    dense_.fold_into(fold, payload);
  }

  void reset(std::uint32_t generation_id);

 private:
  /// A structured row awaiting its verbatim forward: its structure and its
  /// slot in the dense recoder's insertion-order arenas.
  struct ForwardRow {
    coding::CodedStructure structure;
    std::size_t slot;
  };

  coding::Recoder dense_;
  coding::CodingParams params_;
  std::uint32_t session_id_;
  CodeSpec spec_;
  /// True if the next emission is a dense recode: the dense spec, and
  /// every spec once the stored structured rows are forwarded.
  bool emits_dense() const {
    return spec_.is_dense() || next_forward_ >= forward_rows_.size();
  }

  std::vector<ForwardRow> forward_rows_;  // non-dense spec only
  std::size_t next_forward_ = 0;
  std::vector<std::uint8_t> scratch_coeffs_;  // dense expansion for offers
  coding::PayloadFold fold_;  // recode_into's forward recipe
};

class FamilyDecoder {
 public:
  FamilyDecoder(const coding::CodingParams& params,
                std::uint32_t generation_id, const CodeSpec& spec);

  struct OfferResult {
    bool innovative = false;
    int pivot = -1;       // pivot column claimed, -1 if rejected
    bool uncoded = false; // landed via the systematic zero-work fast path
  };

  OfferResult offer(const coding::CodedPacketView& view,
                    const coding::CodedStructure& structure);

  std::uint32_t generation_id() const;
  std::size_t rank() const;
  bool complete() const;

  std::vector<std::uint8_t> recover() const;
  std::size_t recovered_size() const;
  void recover_into(std::span<std::uint8_t> out) const;
  void reset(std::uint32_t generation_id);

  /// Structured-decoder statistics; nullptr under the dense spec.
  const StructuredDecoder::Stats* structured_stats() const;

 private:
  coding::CodingParams params_;
  CodeSpec spec_;
  // Exactly one of the two is engaged, by spec.
  std::optional<coding::ProgressiveDecoder> dense_;
  std::optional<StructuredDecoder> structured_;
  std::vector<std::uint8_t> scratch_coeffs_;  // dense expansion fallback
};

}  // namespace omnc::codes
