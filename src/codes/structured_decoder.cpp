#include "codes/structured_decoder.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "galois/gf256.h"
#include "galois/region.h"
#include "obs/registry.h"

namespace omnc::codes {

StructuredDecoder::StructuredDecoder(const coding::CodingParams& params,
                                     std::uint32_t generation_id)
    : params_(params), generation_id_(generation_id) {
  const std::size_t n = params_.generation_blocks;
  present_.assign(n, 0);
  begin_.assign(n, 0);
  end_.assign(n, 0);
  coeffs_.resize(n * n);
  payloads_.resize(n * params_.block_bytes);
  scratch_.resize(n);
  stats_.touched_lo = n;
  stats_.touched_hi = 0;
}

void StructuredDecoder::note_touch(std::size_t begin, std::size_t end) {
  OMNC_ASSERT(begin <= end && end <= params_.generation_blocks);
  stats_.touched_lo = std::min(stats_.touched_lo, begin);
  stats_.touched_hi = std::max(stats_.touched_hi, end);
}

bool StructuredDecoder::offer(const coding::CodedPacketView& view,
                              const coding::CodedStructure& structure) {
  OMNC_SCOPED_TIMER("codes/structured_offer");
  if (view.generation_id != generation_id_) return false;
  if (view.generation_blocks != params_.generation_blocks ||
      view.block_bytes != params_.block_bytes ||
      view.payload.size() != params_.block_bytes) {
    return false;
  }
  const std::size_t n = params_.generation_blocks;
  const std::size_t m = params_.block_bytes;
  if (!structure.valid_for(view.generation_blocks)) return false;
  switch (structure.kind) {
    case coding::CodedStructure::Kind::kDense:
      if (view.coefficients.size() != n) return false;
      break;
    case coding::CodedStructure::Kind::kWindow:
      if (view.coefficients.size() != structure.width) return false;
      break;
    case coding::CodedStructure::Kind::kUncoded:
      break;
  }
  ++stats_.offered;
  last_pivot_ = -1;
  if (complete()) return false;

  // The systematic fast path: an uncoded original whose pivot is free lands
  // with a single payload memcpy — no scratch row, no GF kernel calls.
  if (structure.kind == coding::CodedStructure::Kind::kUncoded &&
      !present_[structure.index]) {
    const std::size_t p = structure.index;
    row_coeffs(p)[p] = 1;
    std::memcpy(row_payload(p), view.read_payload().data(), m);
    begin_[p] = static_cast<std::uint16_t>(p);
    end_[p] = static_cast<std::uint16_t>(p + 1);
    present_[p] = 1;
    ++rank_;
    ++stats_.innovative;
    ++stats_.uncoded_hits;
    stats_.pivot_sum += p;
    stats_.max_window = std::max<std::size_t>(stats_.max_window, 1);
    last_pivot_ = static_cast<int>(p);
    return true;
  }

  // Stage the incoming row's live coefficient window into scratch.
  std::size_t b = 0;
  std::size_t e = 0;
  switch (structure.kind) {
    case coding::CodedStructure::Kind::kDense:
      b = 0;
      e = n;
      std::memcpy(scratch_.data(), view.coefficients.data(), n);
      break;
    case coding::CodedStructure::Kind::kWindow:
      b = structure.offset;
      e = b + structure.width;
      std::memcpy(scratch_.data() + b, view.coefficients.data(),
                  structure.width);
      break;
    case coding::CodedStructure::Kind::kUncoded:
      // Pivot occupied: fall back to the generic path with a unit row.
      b = structure.index;
      e = b + 1;
      scratch_[b] = 1;
      break;
  }
  // Trim to the actual support; a zero row is non-innovative outright.
  while (b < e && scratch_[b] == 0) ++b;
  while (e > b && scratch_[e - 1] == 0) --e;
  if (b == e) return false;

  // Forward-eliminate against the triangular basis, coefficients only.  The
  // payload fold is deferred: factors are recorded and applied in one
  // batched pass iff the row survives.
  pending_rows_.clear();
  pending_factors_.clear();
  std::size_t h = b;
  while (true) {
    while (b < e && scratch_[b] == 0) ++b;
    if (b == e) return false;  // reduced to zero: linearly dependent
    h = b;
    if (!present_[h]) break;  // free pivot found
    const std::uint8_t factor = scratch_[h];
    const std::size_t row_end = end_[h];
    if (row_end > e) {
      // The stored row is wider than the working window; the newly exposed
      // scratch region must start from zero before the axpy lands there.
      std::memset(scratch_.data() + e, 0, row_end - e);
      e = row_end;
    }
    // Stored heads are normalized to 1, so this zeroes scratch[h] exactly.
    note_touch(h, row_end);
    gf::region_axpy(scratch_.data() + h, row_coeffs(h) + h, factor,
                    row_end - h);
    pending_rows_.push_back(h);
    pending_factors_.push_back(factor);
  }

  // Install at pivot h: normalize the head to 1, store the window, then run
  // the deferred payload fold (same factor order as the coefficients).
  const std::uint8_t lead = scratch_[h];
  note_touch(h, e);
  if (lead != 1) {
    gf::region_mul(scratch_.data() + h, scratch_.data() + h, gf::inv(lead),
                   e - h);
  }
  std::memcpy(row_coeffs(h) + h, scratch_.data() + h, e - h);
  begin_[h] = static_cast<std::uint16_t>(h);
  end_[h] = static_cast<std::uint16_t>(e);
  present_[h] = 1;
  std::memcpy(row_payload(h), view.read_payload().data(), m);
  if (!pending_rows_.empty()) {
    axpy_srcs_.resize(pending_rows_.size());
    axpy_factors_.resize(pending_rows_.size());
    for (std::size_t k = 0; k < pending_rows_.size(); ++k) {
      axpy_srcs_[k] = row_payload(pending_rows_[k]);
      axpy_factors_[k] = pending_factors_[k];
    }
    gf::region_axpy_many(row_payload(h), axpy_srcs_.data(),
                         axpy_factors_.data(), axpy_srcs_.size(), m);
  }
  if (lead != 1) {
    gf::region_mul(row_payload(h), row_payload(h), gf::inv(lead), m);
  }
  ++rank_;
  ++stats_.innovative;
  stats_.pivot_sum += h;
  stats_.max_window = std::max(stats_.max_window, e - h);
  last_pivot_ = static_cast<int>(h);
  return true;
}

void StructuredDecoder::recover_into(std::span<std::uint8_t> out) const {
  OMNC_SCOPED_TIMER("codes/structured_recover");
  OMNC_ASSERT_MSG(complete(), "recover on an incomplete structured basis");
  OMNC_ASSERT(out.size() == params_.generation_bytes());
  const std::size_t n = params_.generation_blocks;
  const std::size_t m = params_.block_bytes;
  // Bottom-up back-substitution: row p's head is 1, so block p is the row
  // payload minus the already-solved blocks at the row's trailing columns.
  // Every read stays inside the row's stored window — a fully uncoded basis
  // degenerates to n memcpys with zero GF kernel calls.
  for (std::size_t p = n; p-- > 0;) {
    std::uint8_t* dst = out.data() + p * m;
    std::memcpy(dst, row_payload(p), m);
    const std::uint8_t* coeffs = row_coeffs(p);
    axpy_srcs_.clear();
    axpy_factors_.clear();
    for (std::size_t j = p + 1; j < end_[p]; ++j) {
      if (coeffs[j] != 0) {
        axpy_srcs_.push_back(out.data() + j * m);
        axpy_factors_.push_back(coeffs[j]);
      }
    }
    if (!axpy_srcs_.empty()) {
      gf::region_axpy_many(dst, axpy_srcs_.data(), axpy_factors_.data(),
                           axpy_srcs_.size(), m);
    }
  }
}

std::vector<std::uint8_t> StructuredDecoder::recover() const {
  std::vector<std::uint8_t> out(recovered_size());
  recover_into(std::span<std::uint8_t>(out));
  return out;
}

void StructuredDecoder::reset(std::uint32_t generation_id) {
  generation_id_ = generation_id;
  rank_ = 0;
  last_pivot_ = -1;
  std::fill(present_.begin(), present_.end(), 0);
  stats_ = Stats{};
  stats_.touched_lo = params_.generation_blocks;
  stats_.touched_hi = 0;
}

}  // namespace omnc::codes
