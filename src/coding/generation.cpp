#include "coding/generation.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/assert.h"
#include "common/rng.h"

namespace omnc::coding {
namespace {

using StreamWord = std::array<std::uint8_t, 8>;

/// The definition of the synthetic stream, shared by both ends: calls
/// visit(offset, word, count) with the stream bytes at [offset, offset +
/// count), eight per draw (count < 8 only for a final partial word), and
/// stops early once visit returns false.  Returns false iff it stopped.
template <typename Visit>
bool walk_synthetic(std::uint32_t id, std::uint64_t seed, std::size_t size,
                    Visit&& visit) {
  Rng rng(seed ^ (0xabcdef1234567890ULL + id));
  const auto next_word = [&rng] {
    const std::uint64_t draw = rng.next_u64();
    StreamWord word;
    for (std::size_t j = 0; j < 8; ++j) {
      word[j] = static_cast<std::uint8_t>(draw >> (8 * j));
    }
    return word;
  };
  std::size_t offset = 0;
  for (; offset + 8 <= size; offset += 8) {
    if (!visit(offset, next_word(), 8)) return false;
  }
  if (offset < size) return visit(offset, next_word(), size - offset);
  return true;
}

}  // namespace

bool matches_synthetic(std::uint32_t id, std::uint64_t seed,
                       std::span<const std::uint8_t> bytes) {
  return walk_synthetic(
      id, seed, bytes.size(),
      [bytes](std::size_t offset, const StreamWord& word, std::size_t count) {
        return std::memcmp(bytes.data() + offset, word.data(), count) == 0;
      });
}

Generation::Generation(std::uint32_t id, const CodingParams& params)
    : id_(id), params_(params), data_(params.generation_bytes(), 0) {
  OMNC_ASSERT(params.generation_blocks > 0);
  OMNC_ASSERT(params.block_bytes > 0);
}

Generation Generation::from_bytes(std::uint32_t id, const CodingParams& params,
                                  std::span<const std::uint8_t> bytes) {
  Generation gen(id, params);
  OMNC_ASSERT_MSG(bytes.size() <= gen.data_.size(),
                  "input exceeds generation capacity");
  std::copy(bytes.begin(), bytes.end(), gen.data_.begin());
  return gen;
}

Generation Generation::synthetic(std::uint32_t id, const CodingParams& params,
                                 std::uint64_t seed) {
  Generation gen(id, params);
  gen.refill_synthetic(id, seed);
  return gen;
}

void Generation::refill_synthetic(std::uint32_t id, std::uint64_t seed) {
  id_ = id;
  std::uint8_t* out = data_.data();
  walk_synthetic(id, seed, data_.size(),
                 [out](std::size_t offset, const StreamWord& word,
                       std::size_t count) {
                   std::memcpy(out + offset, word.data(), count);
                   return true;
                 });
}

const std::uint8_t* Generation::block(std::size_t index) const {
  OMNC_ASSERT(index < params_.generation_blocks);
  return data_.data() + index * params_.block_bytes;
}

}  // namespace omnc::coding
