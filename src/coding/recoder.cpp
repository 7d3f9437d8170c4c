#include "coding/recoder.h"

#include "common/assert.h"
#include "galois/region.h"
#include "obs/registry.h"

namespace omnc::coding {

Recoder::Recoder(const CodingParams& params, std::uint32_t session_id,
                 std::uint32_t generation_id)
    : params_(params),
      session_id_(session_id),
      generation_id_(generation_id),
      filter_(params.generation_blocks, params.generation_blocks) {}

bool Recoder::offer(const CodedPacket& packet) {
  return offer(packet.as_view());
}

bool Recoder::offer(const CodedPacketView& view) {
  if (view.generation_id != generation_id_) return false;
  if (!view.dimensions_match(params_)) return false;
  // Coefficient-only filter: no payload arena, no row copy.  Only when the
  // row is accepted do its bytes get copied — once — into the flat basis
  // arenas (clear() keeps the capacity, so the steady state re-fills in
  // place without allocating).
  if (!filter_.insert(view.coefficients.data(), nullptr)) return false;
  basis_coeffs_.insert(basis_coeffs_.end(), view.coefficients.begin(),
                       view.coefficients.end());
  const std::span<const std::uint8_t> payload = view.read_payload();
  basis_payloads_.insert(basis_payloads_.end(), payload.begin(),
                         payload.end());
  return true;
}

std::span<const std::uint8_t> Recoder::row_coefficients(
    std::size_t slot) const {
  OMNC_ASSERT(slot < rank());
  const std::size_t n = params_.generation_blocks;
  return {basis_coeffs_.data() + slot * n, n};
}

std::span<const std::uint8_t> Recoder::row_payload(std::size_t slot) const {
  OMNC_ASSERT(slot < rank());
  const std::size_t m = params_.block_bytes;
  return {basis_payloads_.data() + slot * m, m};
}

CodedPacket Recoder::recode(Rng& rng) const {
  CodedPacket out;
  recode_into(rng, &out);
  return out;
}

void Recoder::draw(Rng& rng, CodedPacket* out) const {
  OMNC_ASSERT_MSG(can_send(), "recode() with an empty basis");
  const std::size_t count = filter_.rank();
  const std::size_t n = params_.generation_blocks;
  out->session_id = session_id_;
  out->generation_id = generation_id_;
  out->generation_blocks = params_.generation_blocks;
  out->block_bytes = params_.block_bytes;
  out->coefficients.assign(n, 0);
  // Random combination over the basis.  At least one multiplier must be
  // nonzero, otherwise the output would be the zero packet.  The draw count
  // is pinned at exactly rank() byte draws: the old retry loop re-drew the
  // whole multiplier vector on an all-zero draw (probability 256^-rank —
  // very much reachable at rank 1), which desynchronized det-clock RNG
  // streams between runs that differed only in code family.  An all-zero
  // draw is repaired deterministically instead.
  multipliers_.resize(count);
  bool nonzero = false;
  for (auto& mult : multipliers_) {
    mult = rng.next_byte();
    nonzero |= (mult != 0);
  }
  if (!nonzero) multipliers_[0] = 1;
  // Fold the coefficients through the fused kernels: 2-4 basis rows per
  // destination pass instead of re-reading the output row for each source.
  coeff_srcs_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    coeff_srcs_[k] = basis_coeffs_.data() + k * n;
  }
  gf::region_axpy_many(out->coefficients.data(), coeff_srcs_.data(),
                       multipliers_.data(), count, n);
}

void Recoder::recode_into(Rng& rng, CodedPacket* out) const {
  OMNC_SCOPED_TIMER("coding/recode");
  const std::size_t m = params_.block_bytes;
  draw(rng, out);
  out->payload.resize(m);
  fold_rows(basis_payloads_, m, 0, multipliers_, out->payload.data(),
            &payload_srcs_);
}

void Recoder::draw_into(Rng& rng, CodedPacket* out, PayloadFold* fold) const {
  OMNC_SCOPED_TIMER("coding/recode");
  draw(rng, out);
  out->payload.clear();
  fold->first_row = 0;
  fold->factors.assign(multipliers_.begin(), multipliers_.end());
}

void Recoder::fold_into(const PayloadFold& fold, std::uint8_t* payload) const {
  OMNC_SCOPED_TIMER("coding/recode");
  fold_rows(basis_payloads_, params_.block_bytes, fold.first_row,
            fold.factors, payload, &payload_srcs_);
}

void Recoder::reset(std::uint32_t generation_id) {
  generation_id_ = generation_id;
  filter_.clear();
  basis_coeffs_.clear();
  basis_payloads_.clear();
}

}  // namespace omnc::coding
