#include "coding/generation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace omnc::coding {
namespace {

std::vector<std::uint8_t> slice(std::span<const std::uint8_t> bytes,
                                std::size_t offset, std::size_t count) {
  return {bytes.begin() + static_cast<std::ptrdiff_t>(offset),
          bytes.begin() + static_cast<std::ptrdiff_t>(offset + count)};
}

TEST(Generation, FromBytesZeroPads) {
  CodingParams params{4, 8};
  std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  const Generation gen = Generation::from_bytes(7, params, data);
  EXPECT_EQ(gen.id(), 7u);
  EXPECT_EQ(gen.bytes().size(), 32u);
  EXPECT_EQ(gen.bytes()[0], 1);
  EXPECT_EQ(gen.bytes()[4], 5);
  for (std::size_t i = 5; i < 32; ++i) EXPECT_EQ(gen.bytes()[i], 0);
}

TEST(Generation, BlockAccessIsRowMajor) {
  CodingParams params{3, 4};
  std::vector<std::uint8_t> data(12);
  for (std::size_t i = 0; i < 12; ++i) data[i] = static_cast<std::uint8_t>(i);
  const Generation gen = Generation::from_bytes(0, params, data);
  EXPECT_EQ(gen.block(0)[0], 0);
  EXPECT_EQ(gen.block(1)[0], 4);
  EXPECT_EQ(gen.block(2)[3], 11);
}

TEST(Generation, SyntheticIsDeterministicPerSeedAndId) {
  CodingParams params{8, 64};
  const Generation a = Generation::synthetic(3, params, 42);
  const Generation b = Generation::synthetic(3, params, 42);
  const Generation c = Generation::synthetic(4, params, 42);
  const Generation d = Generation::synthetic(3, params, 43);
  EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(), b.bytes().begin()));
  EXPECT_FALSE(std::equal(a.bytes().begin(), a.bytes().end(), c.bytes().begin()));
  EXPECT_FALSE(std::equal(a.bytes().begin(), a.bytes().end(), d.bytes().begin()));
}

TEST(Generation, SyntheticStreamIsPinned) {
  // No protocol decision reads the payload, so no det pin would notice a
  // change to the stream: these literals do.
  const Generation gen = Generation::synthetic(3, {40, 1024}, 42);
  const std::span<const std::uint8_t> bytes = gen.bytes();
  EXPECT_EQ(slice(bytes, 0, 16),
            (std::vector<std::uint8_t>{0xfa, 0xc0, 0xa8, 0x4c, 0x7d, 0x51,
                                       0x48, 0xfe, 0x81, 0x08, 0x36, 0x8c,
                                       0xd2, 0x75, 0x95, 0x1c}));
  EXPECT_EQ(slice(bytes, bytes.size() - 16, 16),
            (std::vector<std::uint8_t>{0x69, 0x7f, 0x7e, 0xe7, 0x12, 0xba,
                                       0x04, 0x1b, 0x9f, 0xdc, 0x59, 0xbd,
                                       0xf9, 0x2e, 0x53, 0x07}));
}

TEST(Generation, SyntheticTakesEightBytesPerDrawLowByteFirst) {
  // 21 bytes: two whole draws, then the low 5 bytes of the third.
  const Generation gen = Generation::synthetic(3, {3, 7}, 42);
  Rng rng(42 ^ (0xabcdef1234567890ULL + 3));
  std::vector<std::uint8_t> want;
  for (int draw = 0; draw < 3; ++draw) {
    const std::uint64_t word = rng.next_u64();
    for (int j = 0; j < 8; ++j) {
      want.push_back(static_cast<std::uint8_t>(word >> (8 * j)));
    }
  }
  want.resize(21);
  EXPECT_EQ(slice(gen.bytes(), 0, 21), want);
}

TEST(Generation, StreamCheckAcceptsTheStreamAndRejectsAnyFlippedBit) {
  // A whole-word generation and one ending in a partial word.
  for (const CodingParams params :
       {CodingParams{40, 1024}, CodingParams{3, 7}}) {
    const Generation gen = Generation::synthetic(5, params, 9);
    std::vector<std::uint8_t> bytes(gen.bytes().begin(), gen.bytes().end());
    EXPECT_TRUE(matches_synthetic(5, 9, bytes));
    EXPECT_FALSE(matches_synthetic(6, 9, bytes));
    EXPECT_FALSE(matches_synthetic(5, 10, bytes));
    for (const std::size_t at : {std::size_t{0}, bytes.size() / 2,
                                 bytes.size() - 1}) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(matches_synthetic(5, 9, bytes))
            << "byte " << at << " bit " << bit;
        bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
      }
    }
    EXPECT_TRUE(matches_synthetic(5, 9, bytes));
  }
}

TEST(Generation, RefillMatchesAFreshSyntheticGeneration) {
  const CodingParams params{8, 64};
  Generation gen = Generation::synthetic(0, params, 7);
  gen.refill_synthetic(4, 7);
  const Generation fresh = Generation::synthetic(4, params, 7);
  EXPECT_EQ(gen.id(), 4u);
  EXPECT_TRUE(std::equal(gen.bytes().begin(), gen.bytes().end(),
                         fresh.bytes().begin(), fresh.bytes().end()));
}

TEST(Generation, GenerationBytes) {
  CodingParams params{40, 1024};
  EXPECT_EQ(params.generation_bytes(), 40u * 1024u);
}

}  // namespace
}  // namespace omnc::coding
