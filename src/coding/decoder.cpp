#include "coding/decoder.h"

#include "common/assert.h"
#include "obs/registry.h"

namespace omnc::coding {

ProgressiveDecoder::ProgressiveDecoder(const CodingParams& params,
                                       std::uint32_t generation_id)
    : params_(params),
      generation_id_(generation_id),
      rref_(params.generation_blocks,
            static_cast<std::size_t>(params.generation_blocks) +
                params.block_bytes) {}

bool ProgressiveDecoder::offer(const CodedPacket& packet) {
  return offer(packet.as_view());
}

bool ProgressiveDecoder::offer(const CodedPacketView& view) {
  OMNC_SCOPED_TIMER("coding/decode");
  if (view.generation_id != generation_id_) return false;
  if (!view.dimensions_match(params_)) return false;
  ++packets_seen_;
  // No row assembly: coefficients and payload go straight into the split
  // arenas, and a non-innovative packet's payload is never even read.
  return rref_.insert(view);
}

std::vector<std::uint8_t> ProgressiveDecoder::recover() const {
  std::vector<std::uint8_t> out(params_.generation_bytes());
  recover_into(std::span<std::uint8_t>(out));
  return out;
}

void ProgressiveDecoder::recover_into(std::span<std::uint8_t> out) const {
  OMNC_ASSERT_MSG(complete(), "recover() before the generation is decodable");
  OMNC_ASSERT(out.size() == params_.generation_bytes());
  // In a complete basis every row's coefficient part is a unit vector, so
  // the row with pivot b is exactly block b: one blocked elimination pass
  // writes the whole generation in place.
  rref_.materialize_into(out.data());
}

void ProgressiveDecoder::reset(std::uint32_t generation_id) {
  generation_id_ = generation_id;
  rref_.clear();
  packets_seen_ = 0;
}

}  // namespace omnc::coding
