// Source-side encoder: emits random linear combinations X = R * B of the
// current generation (Sec. 3.1).
//
// An emission has two halves (DESIGN.md §9): the draw (the header and the n
// random coefficients) and the fold (the payload, the coefficients' GF(256)
// combination of the generation's blocks).  next_packet_into() runs both
// back to back; the slot simulator runs draw_into() when a node queues a
// frame and fold_into() only when a receiver first accepts it.
#pragma once

#include <cstdint>

#include "coding/coded_packet.h"
#include "coding/generation.h"
#include "common/rng.h"

namespace omnc::coding {

class SourceEncoder {
 public:
  /// The encoder borrows the generation; the caller keeps it alive.
  SourceEncoder(const Generation& generation, std::uint32_t session_id);

  /// Produces one coded packet with fresh random coefficients.
  CodedPacket next_packet(Rng& rng) const;

  /// Allocation-free variant: fills `out` reusing its vectors' capacity.
  /// Identical output bytes (and rng draw sequence) to next_packet().
  void next_packet_into(Rng& rng, CodedPacket* out) const;

  /// The draw half of next_packet_into(): the same rng draws, header and
  /// coefficients, with `out`'s payload left empty and its recipe in `fold`.
  void draw_into(Rng& rng, CodedPacket* out, PayloadFold* fold) const;

  /// The fold half: writes `fold`'s combination of the generation's blocks
  /// into `payload` (block_bytes bytes).  Takes any recipe over the blocks
  /// — a dense packet, a systematic original, a banded window — and is
  /// exact for as long as the borrowed generation keeps its contents.
  void fold_into(const PayloadFold& fold, std::uint8_t* payload) const;

  /// Produces a packet with the caller's coefficients (length n); used by
  /// tests and by the systematic warm-up variant.
  CodedPacket packet_with_coefficients(
      const std::vector<std::uint8_t>& coefficients) const;

  std::uint32_t generation_id() const { return generation_->id(); }

 private:
  /// Header and n coefficient draws; leaves the payload untouched.
  void draw(Rng& rng, CodedPacket* out) const;

  const Generation* generation_;
  std::uint32_t session_id_;
  mutable std::vector<const std::uint8_t*> block_ptrs_;  // fold scratch
};

}  // namespace omnc::coding
