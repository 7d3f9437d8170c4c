// Structured decoder for systematic and banded code families (DESIGN.md §15).
//
// The dense ProgressiveDecoder keeps its basis in full reduced row-echelon
// form: every insert back-substitutes the new pivot out of every existing
// row, so insert cost is O(rank * g) coefficient bytes regardless of row
// structure.  Structured rows make that a waste — an uncoded systematic
// original is already a unit vector, and a banded row only ever has
// coefficients inside a narrow window.  This decoder is the CBD-style
// alternative: the basis is kept merely *upper-triangular* (one row per head
// column, head coefficient normalized to 1, no back-substitution at insert),
// each row remembers its live coefficient window [begin, end), and all
// elimination work is confined to window overlaps.  Recovery runs one
// back-substitution sweep from the last pivot to the first, again touching
// only each row's window.
//
// The two structural fast paths the code families buy:
//  - an uncoded original landing on a free pivot is a pure payload memcpy —
//    zero GF multiply kernels (the lossless systematic case decodes an
//    entire generation without a single region_mul/axpy);
//  - a banded row's insert and recovery cost O(window) per row instead of
//    O(g), so banded decode is ~g/w times cheaper than dense Gauss–Jordan.
//
// Payloads stay deferred exactly like the dense RREF: a rejected row's
// payload is never read, and an accepted row folds the recorded elimination
// factors through one batched region_axpy_many pass.
//
// Every coefficient kernel call is funnelled through one span-bounds helper
// that tracks the min/max column ever touched — the instrumented assertion
// behind the "banded decode never reads outside the band" property test.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/coded_packet.h"
#include "coding/generation.h"

namespace omnc::codes {

class StructuredDecoder {
 public:
  StructuredDecoder(const coding::CodingParams& params,
                    std::uint32_t generation_id);

  /// Absorbs a packet with its structural side channel.  Returns true if it
  /// was innovative.  Wrong-generation or geometry-mismatched packets are
  /// rejected.  The view's coefficient span must match the structure: all n
  /// for dense, the window bytes for kWindow, empty for kUncoded.
  bool offer(const coding::CodedPacketView& view,
             const coding::CodedStructure& structure);

  std::uint32_t generation_id() const { return generation_id_; }
  std::size_t rank() const { return rank_; }
  bool complete() const { return rank_ == params_.generation_blocks; }

  /// Pivot column claimed by the last innovative offer, -1 otherwise.
  int last_pivot() const { return last_pivot_; }

  /// Back-substitutes the whole generation into `out` (generation_bytes()
  /// bytes, block-major).  Requires complete().
  void recover_into(std::span<std::uint8_t> out) const;

  std::vector<std::uint8_t> recover() const;
  std::size_t recovered_size() const { return params_.generation_bytes(); }

  /// Drops all state and retargets a new generation.
  void reset(std::uint32_t generation_id);

  struct Stats {
    std::size_t offered = 0;       // packets offered (right generation)
    std::size_t innovative = 0;    // rows that joined the basis
    std::size_t uncoded_hits = 0;  // uncoded originals landed by pure memcpy
    std::size_t pivot_sum = 0;     // sum of claimed pivot columns
    std::size_t max_window = 0;    // widest row window ever stored
    /// Column range ever touched by a coefficient kernel, [lo, hi); lo > hi
    /// means no coefficient arithmetic has happened at all.  The banded
    /// property test pins this range inside the offered bands.
    std::size_t touched_lo = 0;
    std::size_t touched_hi = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Row `p` of the coefficient arena (n bytes; live data in [begin, end)).
  std::uint8_t* row_coeffs(std::size_t p) {
    return coeffs_.data() + p * params_.generation_blocks;
  }
  const std::uint8_t* row_coeffs(std::size_t p) const {
    return coeffs_.data() + p * params_.generation_blocks;
  }
  std::uint8_t* row_payload(std::size_t p) {
    return payloads_.data() + p * params_.block_bytes;
  }
  const std::uint8_t* row_payload(std::size_t p) const {
    return payloads_.data() + p * params_.block_bytes;
  }

  /// Records that coefficient arithmetic is about to touch [begin, end).
  void note_touch(std::size_t begin, std::size_t end);

  coding::CodingParams params_;
  std::uint32_t generation_id_;
  std::size_t rank_ = 0;
  int last_pivot_ = -1;
  Stats stats_;

  std::vector<std::uint8_t> present_;   // per pivot column, 0/1
  std::vector<std::uint16_t> begin_;    // per row: window start (== pivot)
  std::vector<std::uint16_t> end_;      // per row: window end (exclusive)
  std::vector<std::uint8_t> coeffs_;    // n x n arena, head normalized to 1
  std::vector<std::uint8_t> payloads_;  // n x m arena, eliminated payloads

  // offer() scratch, reused across calls.
  std::vector<std::uint8_t> scratch_;              // one dense coeff row
  std::vector<std::size_t> pending_rows_;          // elimination trail
  std::vector<std::uint8_t> pending_factors_;
  // Also used by const recover_into(); logically scratch, like the RREF's.
  mutable std::vector<const std::uint8_t*> axpy_srcs_;  // batched payload fold
  mutable std::vector<std::uint8_t> axpy_factors_;
};

}  // namespace omnc::codes
