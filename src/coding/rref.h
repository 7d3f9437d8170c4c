// Incremental reduced-row-echelon-form accumulator — the engine behind both
// the destination's progressive Gauss–Jordan decoder and the relays'
// innovation filter (Sec. 4, "Progressive decoding").
//
// A row is `pivot_cols` coding coefficients optionally followed by payload
// bytes.  Only the coefficient block is kept in reduced form eagerly: every
// insert forward-eliminates, normalizes, and back-substitutes coefficients,
// so rank/innovation decisions are always exact.  Payloads are stored raw in
// a flat arena, exactly as received, and the accumulator instead maintains a
// transform row per basis row — the GF(256) combination of raw payloads that
// the eliminated payload *would* be.  The payload-width elimination runs
// once, after the basis is complete: materialize_into (the decoder's
// recover / recover_into) writes the whole generation into the caller's
// buffer in one batched pass through the fused region_axpy2/4 kernels.  It
// is the only way payload leaves the basis.
//
// Why this wins: rejecting a non-innovative row touches coefficients only
// (never the payload), insert cost drops from O(rank * row_bytes) to
// O(rank * pivot_cols) bytes, and the one-time materialization pass streams
// 2-4 source rows per destination pass instead of re-reading the destination
// for every axpy.  Decoded bytes are bit-identical to the eager scheme — GF
// arithmetic is exact and the decoded blocks are unique.
//
// Storage is two contiguous arenas, each payload held once; no per-row
// std::vector.  The basis arena packs each row as [coefficients |
// transform] so one fused axpy drives both during elimination; the payload
// arena holds raw payloads in insertion order.  Because the basis is kept
// in reduced form, each stored row has zeros in every other row's pivot
// column, so the forward-elimination factors are order-independent — the
// whole sweep is gathered up front and batched through region_axpy_many (4,
// then 2, sources per destination pass).  Not thread-safe: the scratch
// vectors assume one caller at a time, which matches the per-node
// simulation model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/coded_packet.h"

namespace omnc::coding {

class RrefAccumulator {
 public:
  /// pivot_cols: number of coefficient columns (pivots only arise there).
  /// row_bytes: full row length, >= pivot_cols; the difference is payload.
  RrefAccumulator(std::size_t pivot_cols, std::size_t row_bytes);

  std::size_t pivot_cols() const { return pivot_cols_; }
  std::size_t row_bytes() const { return pivot_cols_ + payload_bytes_; }
  std::size_t payload_bytes() const { return payload_bytes_; }
  std::size_t rank() const { return rank_; }
  bool complete() const { return rank_ == pivot_cols_; }

  /// Reduces the row [coefficients | payload] against the basis.  Returns
  /// true if it is innovative (the row joins the basis; the payload is
  /// copied into the raw arena untouched); false if it reduced to zero — in
  /// that case the payload is never even read.  `payload` may be nullptr
  /// when payload_bytes() == 0 (the coefficient-only innovation filter).
  bool insert(const std::uint8_t* coefficients, const std::uint8_t* payload);

  /// The same for a coded packet's row: its payload is read through
  /// read_payload() — folded there if deferred — only once the row is
  /// accepted.  Requires payload_bytes() == the packet's block_bytes.
  bool insert(const CodedPacketView& packet);

  /// Pivot column claimed by the most recent successful insert(), or -1 if
  /// no insert has succeeded since construction/clear() or the last offer
  /// was rejected.  Feeds the per-packet "pv" trace field.
  int last_insert_pivot() const { return last_insert_pivot_; }

  /// Coefficient block (pivot_cols bytes, reduced form) of the basis row
  /// whose pivot is `pivot`, or nullptr if absent.
  const std::uint8_t* coefficients_for_pivot(std::size_t pivot) const;

  /// Full-rank read: eliminates every payload directly into `out`
  /// (pivot_cols() * payload_bytes() bytes, pivot-major).  In a complete
  /// basis the row with pivot p *is* decoded block p, so this writes the
  /// recovered generation in one source-blocked sweep — the raw payloads
  /// are walked in groups of up to four that stay cache-hot across every
  /// destination row — with no intermediate copy and no allocation.
  /// Requires complete() and payload_bytes() > 0.
  void materialize_into(std::uint8_t* out) const;

  void clear();

 private:
  struct BasisRow {
    std::size_t pivot;
    std::size_t index;  // row slot in the arenas, in insertion order
  };

  /// Both inserts: `packet`, when set, supplies the payload in place of
  /// `payload`, read only on acceptance.
  bool insert_row(const std::uint8_t* coefficients,
                  const std::uint8_t* payload, const CodedPacketView* packet);

  /// A basis-arena row: pivot_cols coefficient bytes, then (when payloads
  /// are tracked) pivot_cols transform bytes.
  std::uint8_t* basis_row(std::size_t index) {
    return basis_.data() + index * stride_;
  }
  const std::uint8_t* basis_row(std::size_t index) const {
    return basis_.data() + index * stride_;
  }
  const std::uint8_t* raw_row(std::size_t index) const {
    return raw_.data() + index * payload_bytes_;
  }

  std::size_t pivot_cols_;
  std::size_t payload_bytes_;
  std::size_t stride_;             // bytes per basis-arena row
  std::size_t rank_ = 0;
  int last_insert_pivot_ = -1;
  std::vector<BasisRow> rows_;     // sorted by pivot
  std::vector<int> pivot_to_row_;  // pivot -> arena row slot, -1 when absent
  std::vector<std::uint8_t> basis_;  // rank x stride, coefficients reduced
  std::vector<std::uint8_t> raw_;    // rank x payload_bytes, as received
  std::vector<std::uint8_t> scratch_;              // one basis-arena row
  std::vector<const std::uint8_t*> elim_srcs_;     // batched sweep srcs
  std::vector<std::uint8_t> elim_factors_;         // batched sweep factors
  std::vector<std::uint8_t*> elim_dsts_;           // back-subst targets
  mutable std::vector<const std::uint8_t*> src_ptrs_;  // raw-row pointers
};

}  // namespace omnc::coding
