// Wire-frame layer: byte-exact round trips for every frame type, and
// hardened-parser negatives — truncation, corruption, hostile length fields,
// and random garbage must all return false without undefined behaviour
// (the fuzz-style cases run under ASan/UBSan in CI).  Includes the
// CodedPacket::parse audit the frame layer builds on.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "coding/coded_packet.h"
#include "common/rng.h"
#include "wire/crc32c_paths.h"
#include "wire/frame.h"

namespace omnc {
namespace {

coding::CodedPacket sample_packet() {
  coding::CodedPacket packet;
  packet.session_id = 7;
  packet.generation_id = 3;
  packet.generation_blocks = 4;
  packet.block_bytes = 8;
  packet.coefficients = {1, 2, 3, 4};
  packet.payload = {10, 20, 30, 40, 50, 60, 70, 80};
  return packet;
}

/// serialize -> parse -> serialize must reproduce the bytes exactly.
void expect_byte_exact_roundtrip(const wire::Frame& frame) {
  const std::vector<std::uint8_t> bytes = frame.serialize();
  wire::Frame parsed;
  ASSERT_TRUE(wire::Frame::parse(bytes, &parsed));
  EXPECT_EQ(parsed.type, frame.type);
  EXPECT_EQ(parsed.session_id, frame.session_id);
  EXPECT_EQ(parsed.serialize(), bytes);
}

TEST(WireFrame, CodedDataRoundTrip) {
  const wire::Frame frame = wire::make_coded_data(sample_packet());
  expect_byte_exact_roundtrip(frame);
  const std::vector<std::uint8_t> bytes = frame.serialize();
  wire::Frame parsed;
  ASSERT_TRUE(wire::Frame::parse(bytes, &parsed));
  EXPECT_EQ(parsed.packet.serialize(), sample_packet().serialize());
}

TEST(WireFrame, AckRoundTrip) {
  const wire::GenerationAck ack{42, 3, 17};
  expect_byte_exact_roundtrip(wire::make_ack(9, ack));
  wire::Frame parsed;
  ASSERT_TRUE(wire::Frame::parse(wire::make_ack(9, ack).serialize(), &parsed));
  EXPECT_EQ(parsed.ack, ack);
}

TEST(WireFrame, BeaconRoundTrip) {
  const wire::ProbeBeacon beacon{2, 1234};
  expect_byte_exact_roundtrip(wire::make_beacon(9, beacon));
  wire::Frame parsed;
  ASSERT_TRUE(
      wire::Frame::parse(wire::make_beacon(9, beacon).serialize(), &parsed));
  EXPECT_EQ(parsed.beacon, beacon);
}

TEST(WireFrame, ReportRoundTrip) {
  const wire::ProbeReport report{1, 2, 37, 50};
  expect_byte_exact_roundtrip(wire::make_report(9, report));
  wire::Frame parsed;
  ASSERT_TRUE(
      wire::Frame::parse(wire::make_report(9, report).serialize(), &parsed));
  EXPECT_EQ(parsed.report, report);
  EXPECT_DOUBLE_EQ(parsed.report.estimate(), 37.0 / 50.0);
}

TEST(WireFrame, PriceRoundTripBitExactDoubles) {
  wire::PriceUpdate price;
  price.node_local = 2;
  price.iteration = 91;
  price.beta = 0.12345678901234567;    // needs all 53 mantissa bits
  price.rate_bytes_per_s = 9876.54321;
  price.lambdas = {{1, 1.0 / 3.0}, {3, 7.25e-9}};
  expect_byte_exact_roundtrip(wire::make_price(9, price));
  wire::Frame parsed;
  ASSERT_TRUE(
      wire::Frame::parse(wire::make_price(9, price).serialize(), &parsed));
  EXPECT_EQ(parsed.price, price);  // bit-exact double comparison
}

TEST(WireFrame, PriceRoundTripEmptyLambdas) {
  wire::PriceUpdate price;
  price.node_local = 0;
  price.rate_bytes_per_s = 1.0;
  expect_byte_exact_roundtrip(wire::make_price(1, price));
}

TEST(WireFrame, ResyncRequestRoundTrip) {
  const wire::ResyncRequest request{3, 41};
  expect_byte_exact_roundtrip(wire::make_resync_request(9, request));
  wire::Frame parsed;
  ASSERT_TRUE(wire::Frame::parse(
      wire::make_resync_request(9, request).serialize(), &parsed));
  EXPECT_EQ(parsed.resync_request, request);
}

TEST(WireFrame, ResyncInfoRoundTrip) {
  const wire::ResyncInfo info{17, 250};
  expect_byte_exact_roundtrip(wire::make_resync_info(9, info));
  wire::Frame parsed;
  ASSERT_TRUE(
      wire::Frame::parse(wire::make_resync_info(9, info).serialize(), &parsed));
  EXPECT_EQ(parsed.resync_info, info);
}

TEST(WireFrame, PeeksMatchFullParse) {
  const std::vector<std::uint8_t> bytes =
      wire::make_ack(1234, wire::GenerationAck{1, 0, 0}).serialize();
  wire::FrameType type;
  std::uint32_t session = 0;
  ASSERT_TRUE(wire::peek_type(bytes, &type));
  ASSERT_TRUE(wire::peek_session(bytes, &session));
  EXPECT_EQ(type, wire::FrameType::kGenerationAck);
  EXPECT_EQ(session, 1234u);
}

TEST(WireFrame, TraceTagRoundTripAndPeek) {
  wire::Frame frame = wire::make_coded_data(sample_packet());
  frame.trace_origin = 3;
  frame.trace_seq = 41;
  const std::vector<std::uint8_t> bytes = frame.serialize();
  wire::Frame parsed;
  ASSERT_TRUE(wire::Frame::parse(bytes, &parsed));
  EXPECT_EQ(parsed.trace_origin, 3);
  EXPECT_EQ(parsed.trace_seq, 41u);
  EXPECT_EQ(parsed.serialize(), bytes);

  std::uint16_t origin = 0;
  std::uint32_t seq = 0;
  ASSERT_TRUE(wire::peek_trace(bytes, &origin, &seq));
  EXPECT_EQ(origin, 3);
  EXPECT_EQ(seq, 41u);
  std::uint32_t generation = 0;
  ASSERT_TRUE(wire::peek_generation(bytes, &generation));
  EXPECT_EQ(generation, sample_packet().generation_id);
  // Control frames carry no coded-data payload to peek a generation from.
  EXPECT_FALSE(wire::peek_generation(
      wire::make_ack(1, wire::GenerationAck{}).serialize(), &generation));
}

// ---- hostile inputs ------------------------------------------------------

TEST(WireFrameHostile, RejectsEmptyAndShortBuffers) {
  wire::Frame out;
  EXPECT_FALSE(wire::Frame::parse({}, &out));
  const std::vector<std::uint8_t> bytes =
      wire::make_beacon(1, wire::ProbeBeacon{0, 1}).serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(wire::Frame::parse(
        std::span<const std::uint8_t>(bytes.data(), len), &out))
        << "accepted a " << len << "-byte truncation";
  }
}

TEST(WireFrameHostile, RejectsVersion1Frames) {
  // Retired versions are as malformed as any other bad header: the full
  // parsers and every peek refuse them, so no runtime ever sees one.
  const auto expect_rejected = [](const std::vector<std::uint8_t>& bytes,
                                  const char* label) {
    wire::Frame frame;
    EXPECT_FALSE(wire::Frame::parse(bytes, &frame)) << label;
    wire::DataFrameView view;
    EXPECT_FALSE(wire::DataFrameView::parse(bytes, &view)) << label;
    wire::FrameType type;
    EXPECT_FALSE(wire::peek_type(bytes, &type)) << label;
    std::uint32_t value = 0;
    EXPECT_FALSE(wire::peek_session(bytes, &value)) << label;
    EXPECT_FALSE(wire::peek_generation(bytes, &value)) << label;
    EXPECT_FALSE(wire::peek_data_session(bytes, &value)) << label;
    std::uint16_t origin = 0;
    EXPECT_FALSE(wire::peek_trace(bytes, &origin, &value)) << label;
  };
  const std::vector<std::uint8_t> current =
      wire::make_coded_data(sample_packet()).serialize();

  // Version 1: the 18-byte header without the trace tag, checksummed over
  // the payload alone.
  std::vector<std::uint8_t> v1 = current;
  v1.erase(v1.begin() + wire::kTraceTagOffset,
           v1.begin() + wire::kHeaderBytes);
  v1[4] = 1;
  const std::uint32_t sum = wire::crc32c(
      std::span<const std::uint8_t>(v1).subspan(wire::kTraceTagOffset));
  for (int i = 0; i < 4; ++i) {
    v1[14 + i] = static_cast<std::uint8_t>(sum >> (24 - 8 * i));
  }
  expect_rejected(v1, "version 1");

  // Version 2: today's layout under an FNV-1a checksum.  The version byte
  // sits outside the checksummed range, so this frame's checksum is still
  // valid: the version byte alone must reject it.
  std::vector<std::uint8_t> v2 = current;
  v2[4] = 2;
  expect_rejected(v2, "version 2");
}

TEST(WireFrameHostile, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes =
      wire::make_beacon(1, wire::ProbeBeacon{0, 1}).serialize();
  bytes.push_back(0);
  wire::Frame out;
  EXPECT_FALSE(wire::Frame::parse(bytes, &out));
}

TEST(WireFrameHostile, RejectsBadMagicVersionAndType) {
  const std::vector<std::uint8_t> good =
      wire::make_ack(1, wire::GenerationAck{}).serialize();
  wire::Frame out;
  auto mutate = [&](std::size_t at, std::uint8_t value) {
    std::vector<std::uint8_t> bytes = good;
    bytes[at] = value;
    return wire::Frame::parse(bytes, &out);
  };
  EXPECT_FALSE(mutate(0, 0x00));  // magic
  EXPECT_FALSE(mutate(4, 0x00));  // version below range
  EXPECT_FALSE(mutate(4, 0x02));  // retired FNV-1a version
  EXPECT_FALSE(mutate(4, 0x04));  // unknown future version
  EXPECT_FALSE(mutate(5, 0x00));  // type below range
  EXPECT_FALSE(mutate(5, 0x09));  // type above range (8 = kCodedDataCompact
                                  // is top)
  EXPECT_FALSE(mutate(5, 0xff));
  // 0x06/0x07 are valid types now, but the ACK body size does not fit them.
  EXPECT_FALSE(mutate(5, 0x06));
  EXPECT_FALSE(mutate(5, 0x07));
}

TEST(WireFrameHostile, RejectsEveryCorruptedByte) {
  // Any single-byte corruption must be caught: header fields by their own
  // validation, payload bytes by the CRC32C checksum.
  const std::vector<std::uint8_t> good =
      wire::make_price(3, wire::PriceUpdate{1, 2, 0.5, 100.0, {{2, 0.25}}})
          .serialize();
  wire::Frame out;
  for (std::size_t at = 0; at < good.size(); ++at) {
    std::vector<std::uint8_t> bytes = good;
    bytes[at] ^= 0x5a;
    // A session-id flip still parses structurally (the checksum covers only
    // the payload), but then it is a *different*, internally consistent
    // frame; every other position must be rejected.
    if (at >= 6 && at < 10) continue;
    EXPECT_FALSE(wire::Frame::parse(bytes, &out))
        << "accepted corruption at byte " << at;
  }
}

TEST(WireFrameHostile, RejectsHostileLengthFields) {
  std::vector<std::uint8_t> bytes =
      wire::make_ack(1, wire::GenerationAck{}).serialize();
  wire::Frame out;
  // Claim a ~4 GiB payload: must be rejected by the kMaxFrameBytes bound
  // before any arithmetic, not by an allocation or overflow downstream.
  bytes[10] = 0xff;
  bytes[11] = 0xff;
  bytes[12] = 0xff;
  bytes[13] = 0xff;
  EXPECT_FALSE(wire::Frame::parse(bytes, &out));
  // Claim slightly more / fewer bytes than present.
  for (const std::uint8_t claimed : {0x0b, 0x09, 0x00}) {
    std::vector<std::uint8_t> copy =
        wire::make_ack(1, wire::GenerationAck{}).serialize();
    copy[13] = claimed;  // true payload is 10 bytes
    EXPECT_FALSE(wire::Frame::parse(copy, &out));
  }
}

TEST(WireFrameHostile, RejectsResyncTruncationAndTrailingBytes) {
  const std::vector<std::vector<std::uint8_t>> frames = {
      wire::make_resync_request(1, wire::ResyncRequest{2, 9}).serialize(),
      wire::make_resync_info(1, wire::ResyncInfo{9, 4}).serialize(),
  };
  wire::Frame out;
  for (const auto& good : frames) {
    for (std::size_t len = 0; len < good.size(); ++len) {
      EXPECT_FALSE(wire::Frame::parse(
          std::span<const std::uint8_t>(good.data(), len), &out));
    }
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    EXPECT_FALSE(wire::Frame::parse(padded, &out));
  }
}

TEST(WireFrameHostile, RejectsPriceCountMismatch) {
  wire::PriceUpdate price;
  price.lambdas = {{1, 0.5}, {2, 0.25}};
  std::vector<std::uint8_t> bytes = wire::make_price(1, price).serialize();
  // Bump the claimed lambda count without providing the entries; the exact
  // per-type size check must reject it (checksum fixed up to isolate the
  // body validation).
  const std::size_t count_at = wire::kHeaderBytes + 22;
  bytes[count_at + 1] = 3;
  // The checksum covers the trace tag and the payload.
  const std::uint32_t checksum = wire::crc32c(
      std::span<const std::uint8_t>(bytes).subspan(wire::kTraceTagOffset));
  bytes[14] = static_cast<std::uint8_t>(checksum >> 24);
  bytes[15] = static_cast<std::uint8_t>(checksum >> 16);
  bytes[16] = static_cast<std::uint8_t>(checksum >> 8);
  bytes[17] = static_cast<std::uint8_t>(checksum);
  wire::Frame out;
  EXPECT_FALSE(wire::Frame::parse(bytes, &out));
}

TEST(WireFrameHostile, RejectsSessionIdDisagreement) {
  // A coded-data frame whose embedded packet header names a different
  // session than the frame header was corrupted or forged.
  coding::CodedPacket packet = sample_packet();
  wire::Frame frame = wire::make_coded_data(packet);
  frame.session_id = packet.session_id + 1;
  const std::vector<std::uint8_t> bytes = frame.serialize();
  wire::Frame out;
  EXPECT_FALSE(wire::Frame::parse(bytes, &out));
}

// ---- Demux audit ---------------------------------------------------------
// The session mux routes frames by peek_session / peek_data_session before
// any runtime sees them; these pin the exact rejection behaviour a
// demultiplexer relies on (DESIGN.md §16).

TEST(WireFrameDemux, PeekDataSessionReadsEmbeddedId) {
  const wire::Frame frame = wire::make_coded_data(sample_packet());
  const std::vector<std::uint8_t> bytes = frame.serialize();
  std::uint32_t header_session = 0;
  std::uint32_t embedded_session = 0;
  ASSERT_TRUE(wire::peek_session(bytes, &header_session));
  ASSERT_TRUE(wire::peek_data_session(bytes, &embedded_session));
  EXPECT_EQ(header_session, sample_packet().session_id);
  EXPECT_EQ(embedded_session, sample_packet().session_id);
}

TEST(WireFrameDemux, PeekDataSessionRejectsControlFrames) {
  const wire::Frame frame = wire::make_ack(7, wire::GenerationAck{1, 3, 2});
  std::uint32_t session = 0;
  EXPECT_FALSE(wire::peek_data_session(frame.serialize(), &session));
}

TEST(WireFrameDemux, PeeksRejectEveryTruncation) {
  // A truncated datagram must never demux anywhere: both peeks refuse every
  // strict prefix (the length field disagrees with the buffer).
  const std::vector<std::uint8_t> good =
      wire::make_coded_data(sample_packet()).serialize();
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::span<const std::uint8_t> cut(good.data(), len);
    std::uint32_t session = 0;
    EXPECT_FALSE(wire::peek_session(cut, &session)) << "len " << len;
    EXPECT_FALSE(wire::peek_data_session(cut, &session)) << "len " << len;
  }
}

TEST(WireFrameDemux, EmbeddedDisagreementIsVisibleBeforeParse) {
  // A forged frame whose header names session 8 but whose embedded coded
  // packet says 7: the full parse rejects it, and the cheap peeks expose the
  // disagreement so a demux can count it against neither session's runtime.
  coding::CodedPacket packet = sample_packet();
  wire::Frame frame = wire::make_coded_data(packet);
  frame.session_id = packet.session_id + 1;
  const std::vector<std::uint8_t> bytes = frame.serialize();
  wire::Frame parsed;
  EXPECT_FALSE(wire::Frame::parse(bytes, &parsed));
  std::uint32_t header_session = 0;
  std::uint32_t embedded_session = 0;
  ASSERT_TRUE(wire::peek_session(bytes, &header_session));
  ASSERT_TRUE(wire::peek_data_session(bytes, &embedded_session));
  EXPECT_EQ(header_session, packet.session_id + 1);
  EXPECT_EQ(embedded_session, packet.session_id);
  EXPECT_NE(header_session, embedded_session);
}

TEST(WireFrameDemux, PeekDataSessionRejectsShortBody) {
  // A data frame whose payload is too short to hold even the CodedPacket
  // session+generation ids: rebuild the header by hand so magic/version/
  // length are self-consistent and only the body is hostile.
  std::vector<std::uint8_t> bytes =
      wire::make_coded_data(sample_packet()).serialize();
  const std::size_t short_payload = 7;  // < 8-byte packet-header prefix
  bytes.resize(wire::kHeaderBytes + short_payload);
  bytes[10] = 0;
  bytes[11] = 0;
  bytes[12] = 0;
  bytes[13] = static_cast<std::uint8_t>(short_payload);
  std::uint32_t session = 0;
  EXPECT_TRUE(wire::peek_session(bytes, &session));  // header is intact
  EXPECT_FALSE(wire::peek_data_session(bytes, &session));
}

TEST(WireFrameDemux, PeekFuzzNeverCrashes) {
  Rng rng(0x5e55u);
  const std::vector<std::uint8_t> seed =
      wire::make_coded_data(sample_packet()).serialize();
  std::uint32_t session = 0;
  std::size_t garbage_accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes;
    if (rng.chance(0.5)) {
      bytes.assign(seed.begin(), seed.end());
      const int flips = 1 + static_cast<int>(rng.next_below(4));
      for (int f = 0; f < flips; ++f) {
        bytes[rng.next_below(bytes.size())] = rng.next_byte();
      }
      if (rng.chance(0.3)) bytes.resize(rng.next_below(bytes.size() + 1));
    } else {
      bytes.resize(rng.next_below(96));
      for (auto& b : bytes) b = rng.next_byte();
      if (wire::peek_data_session(bytes, &session)) ++garbage_accepted;
    }
    (void)wire::peek_session(bytes, &session);
    (void)wire::peek_data_session(bytes, &session);
  }
  // Pure garbage passing magic+version+type+length is astronomically rare.
  EXPECT_EQ(garbage_accepted, 0u);
}

TEST(WireFrameHostile, SurvivesRandomGarbage) {
  Rng rng(0xfeedu);
  wire::Frame out;
  std::size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(256));
    for (auto& b : bytes) b = rng.next_byte();
    if (wire::Frame::parse(bytes, &out)) ++accepted;
  }
  // Random garbage passing magic + version + type + length + checksum is
  // astronomically unlikely.
  EXPECT_EQ(accepted, 0u);
}

TEST(WireFrameHostile, SurvivesMutatedValidFrames) {
  // Fuzz around the valid corner: random byte mutations of real frames must
  // parse cleanly or fail cleanly — never crash (ASan/UBSan enforce).
  Rng rng(0xabcdu);
  const std::vector<std::vector<std::uint8_t>> seeds = {
      wire::make_coded_data(sample_packet()).serialize(),
      wire::make_ack(7, wire::GenerationAck{1, 3, 2}).serialize(),
      wire::make_price(7, wire::PriceUpdate{0, 1, 0.5, 2e4, {{1, 0.1}}})
          .serialize(),
  };
  wire::Frame out;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes =
        seeds[rng.next_below(seeds.size())];
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.next_below(bytes.size())] = rng.next_byte();
    }
    if (rng.chance(0.3) && !bytes.empty()) {
      bytes.resize(rng.next_below(bytes.size() + 1));  // random truncation
    }
    (void)wire::Frame::parse(bytes, &out);
  }
}

// ---- Exact bytes ---------------------------------------------------------

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

/// `frame` with a nonzero trace tag, so every header field is pinned.
wire::Frame tagged(wire::Frame frame) {
  frame.trace_origin = 0x0102;
  frame.trace_seq = 0x03040506;
  return frame;
}

TEST(WireBytes, EveryFrameKindSerializesToPinnedBytes) {
  // Literals captured from the push_back-per-byte writers: any writer must
  // reproduce the wire format byte for byte.
  coding::CodedPacket uncoded = sample_packet();
  uncoded.coefficients = {0, 0, 1, 0};
  coding::CodedPacket window = sample_packet();
  window.coefficients = {0, 5, 6, 0};
  wire::PriceUpdate price;
  price.node_local = 2;
  price.iteration = 91;
  price.beta = 0.12345678901234567;
  price.rate_bytes_per_s = 9876.54321;
  price.lambdas = {{1, 1.0 / 3.0}, {3, 7.25e-9}};

  const struct {
    const char* name;
    wire::Frame frame;
    const char* bytes;
  } cases[] = {
      {"dense data", tagged(wire::make_coded_data(sample_packet())),
       "4f4d4e43030100000007000000183e67a7ed010203040506"
       "000000070000000300040008010203040a141e28323c4650"},
      {"compact uncoded",
       tagged(wire::make_coded_data_compact(
           uncoded, coding::CodedStructure::make_uncoded(2))),
       "4f4d4e430308000000070000001715de475d010203040506"
       "0000000700000003000400080100020a141e28323c4650"},
      {"compact window",
       tagged(wire::make_coded_data_compact(
           window, coding::CodedStructure::make_window(1, 2))),
       "4f4d4e430308000000070000001bc5ea1e48010203040506"
       "000000070000000300040008020001000205060a141e28323c4650"},
      {"ack", tagged(wire::make_ack(9, wire::GenerationAck{42, 3, 17})),
       "4f4d4e430302000000090000000ac0f08fcb010203040506"
       "0000002a000300000011"},
      {"beacon", tagged(wire::make_beacon(9, wire::ProbeBeacon{2, 1234})),
       "4f4d4e4303030000000900000006a6408ce0010203040506"
       "0002000004d2"},
      {"report",
       tagged(wire::make_report(9, wire::ProbeReport{1, 2, 37, 50})),
       "4f4d4e430304000000090000000c3a7402eb010203040506"
       "000100020000002500000032"},
      {"price", tagged(wire::make_price(9, price)),
       "4f4d4e430305000000090000002cb8b1104d010203040506"
       "00020000005b3fbf9add3746f65e40c34a4587e7c06e000200013fd5"
       "55555555555500033e3f237594c664ee"},
      {"resync request",
       tagged(wire::make_resync_request(9, wire::ResyncRequest{3, 41})),
       "4f4d4e4303060000000900000006ba3c46de010203040506"
       "000300000029"},
      {"resync info",
       tagged(wire::make_resync_info(9, wire::ResyncInfo{17, 250})),
       "4f4d4e4303070000000900000008b29f0389010203040506"
       "00000011000000fa"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(hex(c.frame.serialize()), c.bytes) << c.name;
  }
  EXPECT_EQ(hex(sample_packet().serialize()),
            "000000070000000300040008010203040a141e28323c4650")
      << "CodedPacket";
}

// ---- CRC32C checksum -----------------------------------------------------

std::uint32_t crc_of(const std::vector<std::uint8_t>& bytes) {
  return wire::crc32c(bytes);
}

TEST(Crc32c, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc_of({check.begin(), check.end()}), 0xE3069283u);
  EXPECT_EQ(wire::crc32c({}), 0u);
  // RFC 3720 (iSCSI) appendix B.4.
  EXPECT_EQ(crc_of(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc_of(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc_of(ascending), 0x46DD794Eu);
}

TEST(Crc32c, HardwareAndTablePathsAgree) {
  // Every length through a jumbo frame, at every alignment of the start:
  // covers each path's 8-byte main loop and its 0..7-byte tail.
  constexpr std::size_t kMaxLength = 2100;
  Rng rng(0xc5c3u);
  std::vector<std::uint8_t> buffer(kMaxLength + 8);
  for (auto& b : buffer) b = rng.next_byte();
  const bool hardware = wire::crc32c_paths::hardware_supported();
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const std::span<const std::uint8_t> bytes(buffer.data() + offset,
                                                length);
      const std::uint32_t table = wire::crc32c_paths::table(bytes);
      ASSERT_EQ(wire::crc32c(bytes), table)
          << "offset " << offset << " length " << length;
      if (hardware) {
        ASSERT_EQ(wire::crc32c_paths::hardware(bytes), table)
            << "offset " << offset << " length " << length;
      }
    }
  }
  if (!hardware) GTEST_SKIP() << "no SSE4.2 crc32: only the table path ran";
}

TEST(Crc32c, DataFrameViewRejectsEveryBurstUpTo32Bits) {
  // A paper-geometry (40 x 1 KB) data frame.  Bursts run in the CRC's own
  // bit order (least significant bit of each byte first), the order in
  // which CRC32C detects every burst of up to 32 bits.  Header fields
  // outside the checksum are caught by their own validation.
  coding::CodedPacket packet;
  packet.session_id = 7;
  packet.generation_id = 3;
  packet.generation_blocks = 40;
  packet.block_bytes = 1024;
  Rng rng(0xb0b5u);
  packet.coefficients.resize(packet.generation_blocks);
  for (auto& c : packet.coefficients) c = rng.next_byte();
  packet.payload.resize(packet.block_bytes);
  for (auto& b : packet.payload) b = rng.next_byte();
  wire::Frame frame = wire::make_coded_data(packet);
  frame.trace_origin = 2;
  frame.trace_seq = 17;
  std::vector<std::uint8_t> bytes = frame.serialize();
  wire::DataFrameView view;
  ASSERT_TRUE(wire::DataFrameView::parse(bytes, &view));

  const std::size_t bits = bytes.size() * 8;
  const auto flip = [&](std::size_t bit) {
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  };
  std::size_t accepted = 0;
  for (std::size_t length = 1; length <= 32; ++length) {
    for (std::size_t start = 0; start + length <= bits; ++start) {
      // The burst's first and last bits always flip; the interior is all
      // ones or a random pattern (applying a pattern twice restores it).
      const auto interior = static_cast<std::uint32_t>(rng.next_u64());
      for (const bool solid : {true, false}) {
        const auto apply = [&] {
          for (std::size_t k = 0; k < length; ++k) {
            const bool edge = k == 0 || k + 1 == length;
            if (solid || edge || ((interior >> k) & 1u) != 0) {
              flip(start + k);
            }
          }
        };
        apply();
        if (wire::DataFrameView::parse(bytes, &view)) ++accepted;
        apply();
      }
    }
  }
  EXPECT_EQ(accepted, 0u);
  EXPECT_TRUE(wire::DataFrameView::parse(bytes, &view));
}

// ---- CodedPacket::parse audit -------------------------------------------

TEST(CodedPacketAudit, RejectsZeroGeometry) {
  // n == 0 or m == 0 with a consistent length must fail before any
  // coefficient/payload slicing.
  std::vector<std::uint8_t> wire_bytes(coding::CodedPacket::kHeaderBytes, 0);
  coding::CodedPacket out;
  EXPECT_FALSE(coding::CodedPacket::parse(wire_bytes, &out));  // n = m = 0
  wire_bytes[9] = 4;  // n = 4, m = 0, 4 coefficient bytes appended
  wire_bytes.resize(coding::CodedPacket::kHeaderBytes + 4, 0);
  EXPECT_FALSE(coding::CodedPacket::parse(wire_bytes, &out));
  std::vector<std::uint8_t> m_only(coding::CodedPacket::kHeaderBytes + 8, 0);
  m_only[11] = 8;  // n = 0, m = 8
  EXPECT_FALSE(coding::CodedPacket::parse(m_only, &out));
}

TEST(CodedPacketAudit, RejectsMaxLengthFieldsWithoutOverflow) {
  // n = m = 0xffff claims 12 + 65535 + 65535 bytes; the size_t arithmetic
  // must not wrap and the short buffer must be rejected.
  std::vector<std::uint8_t> wire_bytes(coding::CodedPacket::kHeaderBytes, 0);
  wire_bytes[8] = wire_bytes[9] = wire_bytes[10] = wire_bytes[11] = 0xff;
  coding::CodedPacket out;
  EXPECT_FALSE(coding::CodedPacket::parse(wire_bytes, &out));
}

TEST(CodedPacketAudit, RejectsEveryTruncation) {
  const std::vector<std::uint8_t> good = sample_packet().serialize();
  coding::CodedPacket out;
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(coding::CodedPacket::parse(
        std::span<const std::uint8_t>(good.data(), len), &out));
  }
  EXPECT_TRUE(coding::CodedPacket::parse(good, &out));
}

TEST(CodedPacketAudit, RejectsLengthFieldDisagreement) {
  std::vector<std::uint8_t> bytes = sample_packet().serialize();
  coding::CodedPacket out;
  bytes[9] += 1;  // claims one more coefficient than the buffer holds
  EXPECT_FALSE(coding::CodedPacket::parse(bytes, &out));
  bytes[9] -= 2;  // claims one fewer
  EXPECT_FALSE(coding::CodedPacket::parse(bytes, &out));
}

TEST(CodedPacketAudit, FuzzNeverCrashes) {
  Rng rng(0x77u);
  coding::CodedPacket out;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(64));
    for (auto& b : bytes) b = rng.next_byte();
    (void)coding::CodedPacket::parse(bytes, &out);
  }
}

}  // namespace
}  // namespace omnc
