#include "codes/family_runtime.h"

#include "common/assert.h"

namespace omnc::codes {

// --- FamilyEncoder ---------------------------------------------------------

FamilyEncoder::FamilyEncoder(const coding::Generation& generation,
                             std::uint32_t session_id, const CodeSpec& spec)
    : dense_(generation, session_id),
      generation_(&generation),
      session_id_(session_id),
      spec_(spec.clamped_for(generation.params())) {}

bool FamilyEncoder::emits_dense() const {
  switch (spec_.family) {
    case CodeFamily::kDense:
      return true;
    case CodeFamily::kSystematic:
      return next_uncoded_ >= generation_->params().generation_blocks;
    case CodeFamily::kBanded:
      return false;
  }
  return false;  // unreachable
}

void FamilyEncoder::next_packet_into(Rng& rng, coding::CodedPacket* out,
                                     coding::CodedStructure* structure) {
  if (emits_dense()) {
    // Draw and fold in the dense encoder's one coding/encode scope.
    dense_.next_packet_into(rng, out);
    *structure = coding::CodedStructure::make_dense();
    return;
  }
  const std::size_t m = generation_->params().block_bytes;
  draw_into(rng, out, structure, &fold_);
  out->payload.resize(m);
  coding::fold_rows(generation_->bytes(), m, fold_.first_row, fold_.factors,
                    out->payload.data(), &fold_ptrs_);
}

void FamilyEncoder::draw_into(Rng& rng, coding::CodedPacket* out,
                              coding::CodedStructure* structure,
                              coding::PayloadFold* fold) {
  if (emits_dense()) {
    // Dense packets and systematic repairs: n draws.
    dense_.draw_into(rng, out, fold);
    *structure = coding::CodedStructure::make_dense();
    return;
  }
  const coding::CodingParams& params = generation_->params();
  const std::size_t n = params.generation_blocks;
  out->session_id = session_id_;
  out->generation_id = generation_->id();
  out->generation_blocks = params.generation_blocks;
  out->block_bytes = params.block_bytes;
  out->coefficients.assign(n, 0);
  out->payload.clear();
  if (spec_.family == CodeFamily::kSystematic) {
    // Original block, uncoded: zero RNG draws, its fold a copy.
    const std::uint16_t index = static_cast<std::uint16_t>(next_uncoded_++);
    out->coefficients[index] = 1;
    fold->first_row = index;
    fold->factors.assign(1, 1);
    *structure = coding::CodedStructure::make_uncoded(index);
    return;
  }
  OMNC_ASSERT(spec_.family == CodeFamily::kBanded);
  const std::size_t w = spec_.band_width;
  OMNC_ASSERT(w >= 1 && w <= n);
  // Pinned draws: exactly w bytes.  The window start slides cyclically so
  // every pivot column is covered once per cycle of n-w+1 packets; a
  // uniformly random start would leave the edge columns uncovered for
  // arbitrarily long (column 0 only appears when start == 0).
  const std::size_t positions = n - w + 1;
  const std::uint16_t start =
      static_cast<std::uint16_t>(band_seq_++ % positions);
  std::uint8_t* window = out->coefficients.data() + start;
  bool nonzero = false;
  for (std::size_t i = 0; i < w; ++i) {
    window[i] = rng.next_byte();
    nonzero |= (window[i] != 0);
  }
  if (!nonzero) window[0] = 1;
  fold->first_row = start;
  fold->factors.assign(window, window + w);
  *structure =
      coding::CodedStructure::make_window(start, static_cast<std::uint16_t>(w));
}

void FamilyEncoder::rewind() {
  next_uncoded_ = 0;
  band_seq_ = 0;
}

// --- FamilyRecoder ---------------------------------------------------------

FamilyRecoder::FamilyRecoder(const coding::CodingParams& params,
                             std::uint32_t session_id,
                             std::uint32_t generation_id, const CodeSpec& spec)
    : dense_(params, session_id, generation_id),
      params_(params),
      session_id_(session_id),
      spec_(spec.clamped_for(params)) {
  scratch_coeffs_.resize(params.generation_blocks);
}

bool FamilyRecoder::offer(const coding::CodedPacketView& view,
                          const coding::CodedStructure& structure) {
  if (structure.dense()) return dense_.offer(view);
  if (view.generation_id != generation_id()) return false;
  if (view.generation_blocks != params_.generation_blocks ||
      view.block_bytes != params_.block_bytes ||
      view.payload.size() != params_.block_bytes ||
      !structure.valid_for(view.generation_blocks)) {
    return false;
  }
  // Expand the compact coefficients to a dense row for the innovation
  // filter, which stays the single source of truth for rank.
  coding::expand_coefficients(structure, view.coefficients,
                              view.generation_blocks, scratch_coeffs_.data());
  coding::CodedPacketView dense_view = view;
  dense_view.coefficients =
      std::span<const std::uint8_t>(scratch_coeffs_.data(),
                                    params_.generation_blocks);
  if (!dense_.offer(dense_view)) return false;
  if (!spec_.is_dense()) {
    // The row just took the last arena slot; remembering the structure is
    // enough for it to survive this relay hop.
    forward_rows_.push_back({structure, dense_.rank() - 1});
  }
  return true;
}

void FamilyRecoder::recode_into(Rng& rng, coding::CodedPacket* out,
                                coding::CodedStructure* structure) {
  if (emits_dense()) {
    // Draw and fold in the dense recoder's one coding/recode scope.
    dense_.recode_into(rng, out);
    *structure = coding::CodedStructure::make_dense();
    return;
  }
  draw_into(rng, out, structure, &fold_);
  const std::span<const std::uint8_t> row = dense_.row_payload(fold_.first_row);
  out->payload.assign(row.begin(), row.end());
}

void FamilyRecoder::draw_into(Rng& rng, coding::CodedPacket* out,
                              coding::CodedStructure* structure,
                              coding::PayloadFold* fold) {
  if (emits_dense()) {
    dense_.draw_into(rng, out, fold);
    *structure = coding::CodedStructure::make_dense();
    return;
  }
  // Structure-preserving forwarding: re-emit a structured row verbatim from
  // the arenas (its coefficients were stored expanded), zero RNG draws.
  const ForwardRow& row = forward_rows_[next_forward_++];
  const std::span<const std::uint8_t> coefficients =
      dense_.row_coefficients(row.slot);
  out->session_id = session_id_;
  out->generation_id = generation_id();
  out->generation_blocks = params_.generation_blocks;
  out->block_bytes = params_.block_bytes;
  out->coefficients.assign(coefficients.begin(), coefficients.end());
  out->payload.clear();
  fold->first_row = static_cast<std::uint16_t>(row.slot);
  fold->factors.assign(1, 1);
  *structure = row.structure;
}

void FamilyRecoder::reset(std::uint32_t generation_id) {
  dense_.reset(generation_id);
  forward_rows_.clear();
  next_forward_ = 0;
}

// --- FamilyDecoder ---------------------------------------------------------

FamilyDecoder::FamilyDecoder(const coding::CodingParams& params,
                             std::uint32_t generation_id, const CodeSpec& spec)
    : params_(params), spec_(spec.clamped_for(params)) {
  if (spec_.is_dense()) {
    dense_.emplace(params, generation_id);
    scratch_coeffs_.resize(params.generation_blocks);
  } else {
    structured_.emplace(params, generation_id);
  }
}

FamilyDecoder::OfferResult FamilyDecoder::offer(
    const coding::CodedPacketView& view,
    const coding::CodedStructure& structure) {
  OfferResult result;
  if (dense_) {
    if (structure.dense()) {
      result.innovative = dense_->offer(view);
    } else {
      // A structured packet reaching a dense-spec decoder (mixed-family
      // peers): expand and decode; the structural fast path is lost but
      // correctness is not.
      if (view.generation_id != dense_->generation_id() ||
          !structure.valid_for(view.generation_blocks) ||
          view.generation_blocks != params_.generation_blocks ||
          view.block_bytes != params_.block_bytes) {
        return result;
      }
      coding::expand_coefficients(structure, view.coefficients,
                                  view.generation_blocks,
                                  scratch_coeffs_.data());
      coding::CodedPacketView dense_view = view;
      dense_view.coefficients = std::span<const std::uint8_t>(
          scratch_coeffs_.data(), params_.generation_blocks);
      result.innovative = dense_->offer(dense_view);
    }
    if (result.innovative) result.pivot = dense_->last_pivot();
    return result;
  }
  result.innovative = structured_->offer(view, structure);
  if (result.innovative) {
    result.pivot = structured_->last_pivot();
    result.uncoded =
        structure.kind == coding::CodedStructure::Kind::kUncoded &&
        result.pivot == static_cast<int>(structure.index);
  }
  return result;
}

std::uint32_t FamilyDecoder::generation_id() const {
  return dense_ ? dense_->generation_id() : structured_->generation_id();
}

std::size_t FamilyDecoder::rank() const {
  return dense_ ? dense_->rank() : structured_->rank();
}

bool FamilyDecoder::complete() const {
  return dense_ ? dense_->complete() : structured_->complete();
}

std::vector<std::uint8_t> FamilyDecoder::recover() const {
  return dense_ ? dense_->recover() : structured_->recover();
}

std::size_t FamilyDecoder::recovered_size() const {
  return dense_ ? dense_->recovered_size() : structured_->recovered_size();
}

void FamilyDecoder::recover_into(std::span<std::uint8_t> out) const {
  if (dense_) {
    dense_->recover_into(out);
  } else {
    structured_->recover_into(out);
  }
}

void FamilyDecoder::reset(std::uint32_t generation_id) {
  if (dense_) {
    dense_->reset(generation_id);
  } else {
    structured_->reset(generation_id);
  }
}

const StructuredDecoder::Stats* FamilyDecoder::structured_stats() const {
  return structured_ ? &structured_->stats() : nullptr;
}

}  // namespace omnc::codes
