#include "coding/encoder.h"

#include "common/assert.h"
#include "obs/registry.h"

namespace omnc::coding {

SourceEncoder::SourceEncoder(const Generation& generation,
                             std::uint32_t session_id)
    : generation_(&generation), session_id_(session_id) {}

CodedPacket SourceEncoder::next_packet(Rng& rng) const {
  CodedPacket pkt;
  next_packet_into(rng, &pkt);
  return pkt;
}

void SourceEncoder::draw(Rng& rng, CodedPacket* out) const {
  const CodingParams& params = generation_->params();
  out->session_id = session_id_;
  out->generation_id = generation_->id();
  out->generation_blocks = params.generation_blocks;
  out->block_bytes = params.block_bytes;
  out->coefficients.resize(params.generation_blocks);
  // Pinned draw count: exactly n byte draws per packet, no retry loop.  The
  // all-zero vector (probability 256^-n) is repaired deterministically so
  // every code family consumes the same number of RNG draws per emission and
  // det-clock traces stay byte-identical across families.
  bool nonzero = false;
  for (auto& c : out->coefficients) {
    c = rng.next_byte();
    nonzero |= (c != 0);
  }
  if (!nonzero) out->coefficients[0] = 1;
}

void SourceEncoder::next_packet_into(Rng& rng, CodedPacket* out) const {
  OMNC_SCOPED_TIMER("coding/encode");
  const std::size_t m = generation_->params().block_bytes;
  draw(rng, out);
  out->payload.resize(m);
  fold_rows(generation_->bytes(), m, 0, out->coefficients,
            out->payload.data(), &block_ptrs_);
}

void SourceEncoder::draw_into(Rng& rng, CodedPacket* out,
                              PayloadFold* fold) const {
  OMNC_SCOPED_TIMER("coding/encode");
  draw(rng, out);
  out->payload.clear();
  fold->first_row = 0;
  fold->factors.assign(out->coefficients.begin(), out->coefficients.end());
}

void SourceEncoder::fold_into(const PayloadFold& fold,
                              std::uint8_t* payload) const {
  OMNC_SCOPED_TIMER("coding/encode");
  fold_rows(generation_->bytes(), generation_->params().block_bytes,
            fold.first_row, fold.factors, payload, &block_ptrs_);
}

CodedPacket SourceEncoder::packet_with_coefficients(
    const std::vector<std::uint8_t>& coefficients) const {
  const CodingParams& params = generation_->params();
  OMNC_ASSERT(coefficients.size() == params.generation_blocks);
  CodedPacket pkt;
  pkt.session_id = session_id_;
  pkt.generation_id = generation_->id();
  pkt.generation_blocks = params.generation_blocks;
  pkt.block_bytes = params.block_bytes;
  pkt.coefficients = coefficients;
  pkt.payload.resize(params.block_bytes);
  fold_rows(generation_->bytes(), params.block_bytes, 0, coefficients,
            pkt.payload.data(), &block_ptrs_);
  return pkt;
}

}  // namespace omnc::coding
