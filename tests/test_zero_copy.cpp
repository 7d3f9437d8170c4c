// Zero-copy pipeline tests: CodedPacketView / DataFrameView parsing (round
// trips and hardened rejection), serialize_into equivalence, the view-based
// decoder path, and recode-from-basis equivalence against a hand-computed
// GF(2^8) combination of the offered packets.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "coding/coded_packet.h"
#include "coding/decoder.h"
#include "coding/encoder.h"
#include "coding/generation.h"
#include "coding/recoder.h"
#include "common/rng.h"
#include "galois/gf256.h"
#include "wire/frame.h"

namespace omnc {
namespace {

coding::CodedPacket sample_packet(std::uint32_t session, std::uint32_t gen,
                                  std::uint16_t n, std::uint16_t m,
                                  std::uint64_t seed) {
  Rng rng(seed);
  coding::CodedPacket pkt;
  pkt.session_id = session;
  pkt.generation_id = gen;
  pkt.generation_blocks = n;
  pkt.block_bytes = m;
  pkt.coefficients.resize(n);
  pkt.payload.resize(m);
  for (auto& b : pkt.coefficients) b = rng.next_byte();
  if (pkt.coefficients[0] == 0) pkt.coefficients[0] = 1;
  for (auto& b : pkt.payload) b = rng.next_byte();
  return pkt;
}

bool aliases(std::span<const std::uint8_t> inner,
             std::span<const std::uint8_t> outer) {
  return inner.data() >= outer.data() &&
         inner.data() + inner.size() <= outer.data() + outer.size();
}

TEST(CodedPacketView, ParseRoundTripAliasesWire) {
  const coding::CodedPacket pkt = sample_packet(7, 3, 8, 64, 11);
  const std::vector<std::uint8_t> wire = pkt.serialize();
  coding::CodedPacketView view;
  ASSERT_TRUE(coding::CodedPacketView::parse(wire, &view));
  EXPECT_EQ(view.session_id, pkt.session_id);
  EXPECT_EQ(view.generation_id, pkt.generation_id);
  EXPECT_EQ(view.generation_blocks, pkt.generation_blocks);
  EXPECT_EQ(view.block_bytes, pkt.block_bytes);
  // The spans must alias the wire buffer — no copy happened.
  EXPECT_TRUE(aliases(view.coefficients, wire));
  EXPECT_TRUE(aliases(view.payload, wire));
  const coding::CodedPacket back = view.to_packet();
  EXPECT_EQ(back.coefficients, pkt.coefficients);
  EXPECT_EQ(back.payload, pkt.payload);
  EXPECT_EQ(back.serialize(), wire);
}

TEST(CodedPacketView, AsViewMatchesPacket) {
  const coding::CodedPacket pkt = sample_packet(1, 2, 4, 16, 5);
  const coding::CodedPacketView view = pkt.as_view();
  EXPECT_EQ(view.coefficients.data(), pkt.coefficients.data());
  EXPECT_EQ(view.payload.data(), pkt.payload.data());
  EXPECT_EQ(view.generation_id, pkt.generation_id);
  coding::CodingParams params{4, 16};
  EXPECT_TRUE(view.dimensions_match(params));
}

TEST(CodedPacketView, RejectsTruncationAndBadGeometry) {
  const coding::CodedPacket pkt = sample_packet(7, 3, 8, 64, 13);
  std::vector<std::uint8_t> wire = pkt.serialize();
  coding::CodedPacketView view;
  // Every proper prefix fails.
  for (const std::size_t len : {std::size_t{0}, std::size_t{5},
                                coding::CodedPacket::kHeaderBytes,
                                wire.size() - 1}) {
    EXPECT_FALSE(coding::CodedPacketView::parse(
        std::span<const std::uint8_t>(wire.data(), len), &view))
        << "len=" << len;
  }
  // Trailing garbage fails (exact-size contract).
  wire.push_back(0);
  EXPECT_FALSE(coding::CodedPacketView::parse(wire, &view));
}

TEST(DataFrameView, ParseRoundTripAliasesFrame) {
  wire::Frame frame = wire::make_coded_data(sample_packet(9, 4, 8, 32, 17));
  frame.trace_origin = 2;
  frame.trace_seq = 41;
  const std::vector<std::uint8_t> bytes = frame.serialize();
  wire::DataFrameView view;
  ASSERT_TRUE(wire::DataFrameView::parse(bytes, &view));
  EXPECT_EQ(view.session_id, frame.session_id);
  EXPECT_EQ(view.trace_origin, frame.trace_origin);
  EXPECT_EQ(view.trace_seq, frame.trace_seq);
  EXPECT_TRUE(aliases(view.packet.coefficients, bytes));
  EXPECT_TRUE(aliases(view.packet.payload, bytes));
  const coding::CodedPacket back = view.packet.to_packet();
  EXPECT_EQ(back.coefficients, frame.packet.coefficients);
  EXPECT_EQ(back.payload, frame.packet.payload);
}

TEST(DataFrameView, RejectsNonDataFrames) {
  const wire::Frame ack =
      wire::make_ack(9, wire::GenerationAck{3, 1, 0});
  const std::vector<std::uint8_t> bytes = ack.serialize();
  // The frame itself is valid...
  wire::Frame parsed;
  ASSERT_TRUE(wire::Frame::parse(bytes, &parsed));
  // ...but the data-view parser refuses it.
  wire::DataFrameView view;
  EXPECT_FALSE(wire::DataFrameView::parse(bytes, &view));
}

TEST(DataFrameView, RejectsCorruption) {
  const wire::Frame frame =
      wire::make_coded_data(sample_packet(9, 4, 8, 32, 19));
  const std::vector<std::uint8_t> bytes = frame.serialize();
  wire::DataFrameView view;
  // Any single flipped byte must fail (checksum or header validation).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x40;
    EXPECT_FALSE(wire::DataFrameView::parse(corrupt, &view)) << "byte " << i;
  }
  // Truncation fails.
  for (const std::size_t len :
       {std::size_t{0}, wire::kHeaderBytes - 1, bytes.size() - 1}) {
    EXPECT_FALSE(wire::DataFrameView::parse(
        std::span<const std::uint8_t>(bytes.data(), len), &view));
  }
}

TEST(DataFrameView, RejectsEmbeddedSessionMismatch) {
  const wire::Frame frame =
      wire::make_coded_data(sample_packet(9, 4, 8, 32, 23));
  std::vector<std::uint8_t> bytes = frame.serialize();
  // Patch the packet's embedded session id (first payload field, big-endian
  // low byte at offset header+3) and re-stamp a valid checksum, so the
  // session cross-check is the only thing left to catch it.
  bytes[wire::kHeaderBytes + 3] ^= 0x01;
  const std::uint32_t sum = wire::crc32c(std::span<const std::uint8_t>(
      bytes.data() + wire::kTraceTagOffset,
      bytes.size() - wire::kTraceTagOffset));
  bytes[14] = static_cast<std::uint8_t>(sum >> 24);
  bytes[15] = static_cast<std::uint8_t>(sum >> 16);
  bytes[16] = static_cast<std::uint8_t>(sum >> 8);
  bytes[17] = static_cast<std::uint8_t>(sum);
  wire::DataFrameView view;
  EXPECT_FALSE(wire::DataFrameView::parse(bytes, &view));
  wire::Frame parsed;
  EXPECT_FALSE(wire::Frame::parse(bytes, &parsed));
}

TEST(Frame, SerializeIntoIsByteIdenticalAndReusesCapacity) {
  std::vector<wire::Frame> frames;
  frames.push_back(wire::make_coded_data(sample_packet(9, 4, 8, 32, 29)));
  frames.push_back(wire::make_ack(9, wire::GenerationAck{3, 1, 7}));
  frames.push_back(
      wire::make_resync_request(9, wire::ResyncRequest{2, 5}));
  frames[0].trace_origin = 1;
  frames[0].trace_seq = 99;
  std::vector<std::uint8_t> buffer;
  for (const wire::Frame& frame : frames) {
    frame.serialize_into(&buffer);
    EXPECT_EQ(buffer, frame.serialize());
  }
  // Re-serializing the largest frame into the warm buffer must not grow it.
  frames[0].serialize_into(&buffer);
  const std::size_t capacity = buffer.capacity();
  frames[0].serialize_into(&buffer);
  EXPECT_EQ(buffer.capacity(), capacity);
  EXPECT_EQ(buffer, frames[0].serialize());
}

TEST(Decoder, ViewOfferDecodesIdenticallyToOwningOffer) {
  const coding::CodingParams params{8, 64};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 7);
  coding::SourceEncoder encoder(gen, 1);
  Rng rng(5);
  std::vector<coding::CodedPacket> packets;
  for (int i = 0; i < 10; ++i) packets.push_back(encoder.next_packet(rng));

  coding::ProgressiveDecoder by_packet(params, 0);
  coding::ProgressiveDecoder by_view(params, 0);
  for (const auto& pkt : packets) {
    const std::vector<std::uint8_t> wire = pkt.serialize();
    coding::CodedPacketView view;
    ASSERT_TRUE(coding::CodedPacketView::parse(wire, &view));
    EXPECT_EQ(by_view.offer(view), by_packet.offer(pkt));
  }
  ASSERT_TRUE(by_view.complete());
  const std::vector<std::uint8_t> a = by_packet.recover();
  std::vector<std::uint8_t> b(by_view.recovered_size());
  by_view.recover_into(std::span<std::uint8_t>(b));
  EXPECT_EQ(a, b);
  const std::span<const std::uint8_t> want = gen.bytes();
  ASSERT_EQ(b.size(), want.size());
  EXPECT_TRUE(std::equal(b.begin(), b.end(), want.begin()));
}

TEST(Recoder, RecodeIsHandComputedCombinationOfOfferedPackets) {
  const coding::CodingParams params{4, 32};
  const coding::Generation gen = coding::Generation::synthetic(2, params, 3);
  coding::SourceEncoder encoder(gen, 6);
  Rng src_rng(77);
  coding::Recoder recoder(params, 6, 2);
  std::vector<coding::CodedPacket> accepted;
  while (accepted.size() < 3) {
    const coding::CodedPacket pkt = encoder.next_packet(src_rng);
    const std::vector<std::uint8_t> wire = pkt.serialize();
    coding::CodedPacketView view;
    ASSERT_TRUE(coding::CodedPacketView::parse(wire, &view));
    if (recoder.offer(view)) accepted.push_back(pkt);
  }
  ASSERT_EQ(recoder.rank(), 3u);

  // Recode with a known rng, then redo the multiplier draw by hand: the
  // output must be exactly sum_k alpha_k * accepted[k] over GF(2^8), in
  // insertion order.
  Rng recode_rng(123);
  const coding::CodedPacket out = recoder.recode(recode_rng);
  Rng replay_rng(123);
  std::vector<std::uint8_t> alpha(accepted.size());
  bool nonzero = false;
  while (!nonzero) {
    for (auto& a : alpha) {
      a = replay_rng.next_byte();
      nonzero |= (a != 0);
    }
  }
  std::vector<std::uint8_t> coeffs(params.generation_blocks, 0);
  std::vector<std::uint8_t> payload(params.block_bytes, 0);
  for (std::size_t k = 0; k < accepted.size(); ++k) {
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      coeffs[i] = gf::add(coeffs[i],
                          gf::mul(alpha[k], accepted[k].coefficients[i]));
    }
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] =
          gf::add(payload[i], gf::mul(alpha[k], accepted[k].payload[i]));
    }
  }
  EXPECT_EQ(out.coefficients, coeffs);
  EXPECT_EQ(out.payload, payload);
  EXPECT_EQ(out.session_id, 6u);
  EXPECT_EQ(out.generation_id, 2u);

  // recode_into with the same rng state reproduces recode() byte for byte
  // into a reused packet.
  Rng again(123);
  coding::CodedPacket reused = sample_packet(0, 0, 4, 32, 1);  // dirty
  recoder.recode_into(again, &reused);
  EXPECT_EQ(reused.coefficients, out.coefficients);
  EXPECT_EQ(reused.payload, out.payload);
}

TEST(Recoder, NonInnovativeViewPayloadIsNeverCopied) {
  const coding::CodingParams params{4, 16};
  const coding::Generation gen = coding::Generation::synthetic(0, params, 9);
  coding::SourceEncoder encoder(gen, 1);
  Rng rng(4);
  coding::Recoder recoder(params, 1, 0);
  const coding::CodedPacket pkt = encoder.next_packet(rng);
  ASSERT_TRUE(recoder.offer(pkt.as_view()));
  // The identical packet again: dependent, so the payload span may be
  // garbage — hand the view a payload span of poisoned bytes to prove the
  // dependent path never reads it into the basis.
  std::vector<std::uint8_t> poison(params.block_bytes, 0xEE);
  coding::CodedPacketView dup = pkt.as_view();
  dup.payload = std::span<const std::uint8_t>(poison.data(), poison.size());
  EXPECT_FALSE(recoder.offer(dup));
  // A recode still reflects only the accepted packet's payload.
  Rng recode_rng(1);
  const coding::CodedPacket out = recoder.recode(recode_rng);
  Rng replay(1);
  std::uint8_t alpha = 0;
  while (alpha == 0) alpha = replay.next_byte();
  for (std::size_t i = 0; i < out.payload.size(); ++i) {
    EXPECT_EQ(out.payload[i], gf::mul(alpha, pkt.payload[i]));
  }
}

}  // namespace
}  // namespace omnc
