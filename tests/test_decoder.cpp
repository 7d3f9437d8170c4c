#include "coding/decoder.h"

#include <gtest/gtest.h>

#include "coding/encoder.h"
#include "common/rng.h"

namespace omnc::coding {
namespace {

class DecoderTest : public ::testing::Test {
 protected:
  CodingParams params_{6, 32};
  Generation gen_ = Generation::synthetic(1, params_, 123);
  SourceEncoder encoder_{gen_, 0};
  Rng rng_{7};
};

TEST_F(DecoderTest, ProgressiveDecodeRecoversOriginal) {
  ProgressiveDecoder decoder(params_, 1);
  int offered = 0;
  while (!decoder.complete()) {
    decoder.offer(encoder_.next_packet(rng_));
    ++offered;
    ASSERT_LT(offered, 100);
  }
  const auto recovered = decoder.recover();
  ASSERT_EQ(recovered.size(), gen_.bytes().size());
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen_.bytes().begin()));
}

TEST_F(DecoderTest, RankGrowsByAtMostOnePerPacket) {
  ProgressiveDecoder decoder(params_, 1);
  std::size_t last_rank = 0;
  for (int i = 0; i < 40 && !decoder.complete(); ++i) {
    const bool innovative = decoder.offer(encoder_.next_packet(rng_));
    EXPECT_EQ(decoder.rank(), last_rank + (innovative ? 1 : 0));
    last_rank = decoder.rank();
  }
  EXPECT_TRUE(decoder.complete());
}

TEST_F(DecoderTest, DuplicatePacketIsNotInnovative) {
  ProgressiveDecoder decoder(params_, 1);
  const CodedPacket pkt = encoder_.next_packet(rng_);
  EXPECT_TRUE(decoder.offer(pkt));
  EXPECT_FALSE(decoder.offer(pkt));
  EXPECT_EQ(decoder.rank(), 1u);
  EXPECT_EQ(decoder.packets_seen(), 2u);
  EXPECT_EQ(decoder.packets_innovative(), 1u);
}

TEST_F(DecoderTest, WrongGenerationRejected) {
  ProgressiveDecoder decoder(params_, 2);  // decoder expects generation 2
  EXPECT_FALSE(decoder.offer(encoder_.next_packet(rng_)));  // packet is gen 1
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_EQ(decoder.packets_seen(), 0u);
}

TEST_F(DecoderTest, DimensionMismatchRejected) {
  ProgressiveDecoder decoder(params_, 1);
  CodedPacket pkt = encoder_.next_packet(rng_);
  pkt.block_bytes = 16;
  pkt.payload.resize(16);
  EXPECT_FALSE(decoder.offer(pkt));
}

TEST_F(DecoderTest, SystematicPacketsRecoverOriginal) {
  // Unit-vector packets are each innovative, and n of them decode the
  // generation.
  ProgressiveDecoder decoder(params_, 1);
  for (std::size_t b = 0; b < params_.generation_blocks; ++b) {
    std::vector<std::uint8_t> unit(params_.generation_blocks, 0);
    unit[b] = 1;
    ASSERT_TRUE(decoder.offer(encoder_.packet_with_coefficients(unit)));
    EXPECT_EQ(decoder.last_pivot(), static_cast<int>(b));
  }
  ASSERT_TRUE(decoder.complete());
  const auto recovered = decoder.recover();
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen_.bytes().begin()));
}

TEST_F(DecoderTest, ResetRetargetsGeneration) {
  ProgressiveDecoder decoder(params_, 1);
  while (!decoder.complete()) decoder.offer(encoder_.next_packet(rng_));
  decoder.reset(2);
  EXPECT_EQ(decoder.generation_id(), 2u);
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_FALSE(decoder.complete());
  EXPECT_FALSE(decoder.offer(encoder_.next_packet(rng_)));  // old gen now rejected
}

// Parameterized sweep over generation geometries: decoding must need exactly
// n innovative packets regardless of shape.
class DecoderGeometryTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DecoderGeometryTest, DecodesWithExactlyNInnovativePackets) {
  const auto [blocks, bytes] = GetParam();
  CodingParams params{static_cast<std::uint16_t>(blocks),
                      static_cast<std::uint16_t>(bytes)};
  const Generation gen = Generation::synthetic(0, params, 55);
  SourceEncoder encoder(gen, 0);
  ProgressiveDecoder decoder(params, 0);
  Rng rng(blocks * 1000 + bytes);
  while (!decoder.complete()) decoder.offer(encoder.next_packet(rng));
  EXPECT_EQ(decoder.packets_innovative(), static_cast<std::size_t>(blocks));
  const auto recovered = decoder.recover();
  EXPECT_TRUE(std::equal(recovered.begin(), recovered.end(),
                         gen.bytes().begin()));
}

INSTANTIATE_TEST_SUITE_P(Geometries, DecoderGeometryTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 7},
                                           std::pair{8, 64}, std::pair{16, 17},
                                           std::pair{40, 128},
                                           std::pair{64, 16}));

}  // namespace
}  // namespace omnc::coding
