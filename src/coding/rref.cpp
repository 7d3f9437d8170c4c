#include "coding/rref.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "galois/gf256.h"
#include "galois/region.h"
#include "obs/registry.h"

namespace omnc::coding {

RrefAccumulator::RrefAccumulator(std::size_t pivot_cols, std::size_t row_bytes)
    : pivot_cols_(pivot_cols),
      payload_bytes_(row_bytes - pivot_cols),
      stride_(payload_bytes_ > 0 ? 2 * pivot_cols : pivot_cols),
      pivot_to_row_(pivot_cols, -1),
      scratch_(stride_) {
  OMNC_ASSERT(pivot_cols > 0);
  OMNC_ASSERT(row_bytes >= pivot_cols);
}

bool RrefAccumulator::insert(const std::uint8_t* coefficients,
                             const std::uint8_t* payload) {
  OMNC_ASSERT(payload_bytes_ == 0 || payload != nullptr);
  return insert_row(coefficients, payload, nullptr);
}

bool RrefAccumulator::insert(const CodedPacketView& packet) {
  OMNC_ASSERT(packet.payload.size() == payload_bytes_);
  return insert_row(packet.coefficients.data(), nullptr, &packet);
}

bool RrefAccumulator::insert_row(const std::uint8_t* coefficients,
                                 const std::uint8_t* payload,
                                 const CodedPacketView* packet) {
  OMNC_SCOPED_TIMER("coding/rref_insert");
  if (complete()) {
    last_insert_pivot_ = -1;
    return false;  // the basis already spans the whole space
  }
  const bool track_payload = payload_bytes_ > 0;
  // Elimination acts on [coefficients | transform] as one contiguous row.
  // Live transform entries stop at column rank_ (the incoming row adds one
  // at rank_ itself), so the kernels only need to cover pivot_cols_ +
  // rank_ + 1 columns.  That span is rounded up to a 64-byte multiple —
  // full SIMD blocks, no per-call scalar tails — and capped at the stride;
  // the padding beyond the live region is zero on every row and stays zero
  // under axpy, so trimming never changes a byte of the result.  Early in a
  // generation this cuts the swept width nearly in half versus running the
  // full [coefficients | transform] stride each time.
  const std::size_t width =
      track_payload
          ? pivot_cols_ +
                std::min(pivot_cols_, (rank_ + 1 + std::size_t{63}) & ~std::size_t{63})
          : pivot_cols_;
  std::uint8_t* sc = scratch_.data();
  std::memcpy(sc, coefficients, pivot_cols_);
  if (track_payload) {
    // The incoming row starts as "1 x its own raw payload", which will live
    // in slot rank_ if the row is accepted.  Existing transform rows only
    // reference slots < rank_, so elimination never touches this entry.
    std::memset(sc + pivot_cols_, 0, pivot_cols_);
    sc[pivot_cols_ + rank_] = 1;
  }
  // Forward elimination against the existing basis — coefficients and
  // transform only; the payload is not read at all on this path.  The basis
  // is in reduced form, so every stored row has zeros in the other rows'
  // pivot columns: the elimination factors can all be read up front and the
  // whole sweep batched through the fused kernels.
  elim_srcs_.resize(rank_);
  elim_factors_.resize(rank_);
  std::size_t active = 0;
  for (const BasisRow& basis : rows_) {
    const std::uint8_t factor = sc[basis.pivot];
    if (factor != 0) {
      elim_srcs_[active] = basis_row(basis.index);
      elim_factors_[active] = factor;
      ++active;
    }
  }
  if (active > 0) {
    gf::region_axpy_many(sc, elim_srcs_.data(), elim_factors_.data(), active,
                         width);
  }
  // Locate the pivot of the residual.
  std::size_t pivot = pivot_cols_;
  for (std::size_t c = 0; c < pivot_cols_; ++c) {
    if (sc[c] != 0) {
      pivot = c;
      break;
    }
  }
  if (pivot == pivot_cols_) {
    last_insert_pivot_ = -1;
    return false;  // linearly dependent
  }
  // Normalize so the pivot entry is 1.
  const std::uint8_t pivot_value = sc[pivot];
  if (pivot_value != 1) {
    gf::region_mul(sc, sc, gf::inv(pivot_value), width);
  }
  // Back-substitute the new pivot out of existing rows (coefficients and
  // transforms; payload elimination is deferred to materialize_into).  One
  // source into many short destinations is the scatter kernel's shape — a
  // single call instead of rank_ per-row axpys.
  elim_dsts_.clear();
  elim_factors_.clear();
  for (const BasisRow& basis : rows_) {
    std::uint8_t* existing = basis_row(basis.index);
    const std::uint8_t factor = existing[pivot];
    if (factor != 0) {
      elim_dsts_.push_back(existing);
      elim_factors_.push_back(factor);
    }
  }
  if (!elim_dsts_.empty()) {
    gf::region_axpy_scatter(elim_dsts_.data(), elim_factors_.data(),
                            elim_dsts_.size(), sc, width);
  }
  // Install the row in the arenas, keeping rows_ sorted by pivot.
  const std::size_t slot = rank_;
  basis_.resize(basis_.size() + stride_);  // zero-filled beyond `width`
  std::memcpy(basis_.data() + slot * stride_, sc, width);
  if (track_payload) {
    if (packet != nullptr) payload = packet->read_payload().data();
    raw_.insert(raw_.end(), payload, payload + payload_bytes_);
  }
  const BasisRow entry{pivot, slot};
  const auto pos = std::lower_bound(
      rows_.begin(), rows_.end(), entry,
      [](const BasisRow& a, const BasisRow& b) { return a.pivot < b.pivot; });
  rows_.insert(pos, entry);
  pivot_to_row_[pivot] = static_cast<int>(slot);
  ++rank_;
  last_insert_pivot_ = static_cast<int>(pivot);
  return true;
}

const std::uint8_t* RrefAccumulator::coefficients_for_pivot(
    std::size_t pivot) const {
  OMNC_ASSERT(pivot < pivot_cols_);
  const int index = pivot_to_row_[pivot];
  if (index < 0) return nullptr;
  return basis_row(static_cast<std::size_t>(index));
}

void RrefAccumulator::materialize_into(std::uint8_t* out) const {
  OMNC_ASSERT(payload_bytes_ > 0);
  OMNC_ASSERT(complete());
  OMNC_SCOPED_TIMER("coding/rref_materialize");
  std::memset(out, 0, pivot_cols_ * payload_bytes_);
  src_ptrs_.resize(rank_);
  for (std::size_t k = 0; k < rank_; ++k) src_ptrs_[k] = raw_row(k);
  // Source-blocked sweep: each group of <=4 raw payloads is applied to
  // every destination row before moving on, so the group stays resident in
  // cache for pivot_cols_ destination passes instead of the whole raw arena
  // being re-streamed per row.  The destination for pivot p is
  // out + p * payload_bytes_, so the caller gets the concatenated
  // generation without a second copy.
  for (std::size_t k = 0; k < rank_; k += 4) {
    const std::size_t group = std::min<std::size_t>(4, rank_ - k);
    for (std::size_t p = 0; p < pivot_cols_; ++p) {
      const std::size_t slot =
          static_cast<std::size_t>(pivot_to_row_[p]);
      const std::uint8_t* u = basis_row(slot) + pivot_cols_ + k;
      gf::region_axpy_many(out + p * payload_bytes_, src_ptrs_.data() + k, u,
                           group, payload_bytes_);
    }
  }
}

void RrefAccumulator::clear() {
  rank_ = 0;
  last_insert_pivot_ = -1;
  rows_.clear();
  std::fill(pivot_to_row_.begin(), pivot_to_row_.end(), -1);
  basis_.clear();
  raw_.clear();
}

}  // namespace omnc::coding
