#include "wire/frame.h"

#include <cstring>

#include "common/assert.h"
#include "common/byte_order.h"

namespace omnc::wire {
namespace {

void store_double(std::uint8_t* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  store_be64(p, bits);
}

double load_double(const std::uint8_t* p) {
  const std::uint64_t bits = load_be64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool valid_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kCodedData) &&
         raw <= static_cast<std::uint8_t>(FrameType::kCodedDataCompact);
}

/// Writes the body of `frame` (everything after the header) into `body`,
/// which holds exactly body_size(frame) bytes: fixed fields at the offsets
/// parse_body reads them from, coded spans with one copy each.
void write_body(const Frame& frame, std::span<std::uint8_t> body) {
  std::uint8_t* p = body.data();
  switch (frame.type) {
    case FrameType::kCodedData:
      frame.packet.serialize_to(body);
      return;
    case FrameType::kCodedDataCompact: {
      const bool ok =
          coding::serialize_compact(frame.packet, frame.structure, body);
      OMNC_ASSERT_MSG(ok, "compact frame with a dense/inconsistent structure");
      return;
    }
    case FrameType::kGenerationAck:
      store_be32(p, frame.ack.generation_id);
      store_be16(p + 4, frame.ack.origin_local);
      store_be32(p + 6, frame.ack.ack_seq);
      return;
    case FrameType::kProbeBeacon:
      store_be16(p, frame.beacon.origin_local);
      store_be32(p + 2, frame.beacon.sequence);
      return;
    case FrameType::kProbeReport:
      store_be16(p, frame.report.reporter_local);
      store_be16(p + 2, frame.report.probed_local);
      store_be32(p + 4, frame.report.beacons_heard);
      store_be32(p + 8, frame.report.window);
      return;
    case FrameType::kPriceUpdate: {
      const PriceUpdate& price = frame.price;
      OMNC_ASSERT(price.lambdas.size() <= 0xffff);
      store_be16(p, price.node_local);
      store_be32(p + 2, price.iteration);
      store_double(p + 6, price.beta);
      store_double(p + 14, price.rate_bytes_per_s);
      store_be16(p + 22, static_cast<std::uint16_t>(price.lambdas.size()));
      p += PriceUpdate::kFixedBytes;
      for (const PriceUpdate::Lambda& entry : price.lambdas) {
        store_be16(p, entry.to_local);
        store_double(p + 2, entry.lambda);
        p += PriceUpdate::kLambdaBytes;
      }
      return;
    }
    case FrameType::kResyncRequest:
      store_be16(p, frame.resync_request.origin_local);
      store_be32(p + 2, frame.resync_request.last_seen_generation);
      return;
    case FrameType::kResyncInfo:
      store_be32(p, frame.resync_info.generation_id);
      store_be32(p + 4, frame.resync_info.price_iteration);
      return;
  }
}

/// Byte count of `frame`'s body.
std::size_t body_size(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kCodedData:
      return frame.packet.wire_size();
    case FrameType::kCodedDataCompact:
      return coding::compact_wire_size(frame.structure,
                                       frame.packet.block_bytes);
    case FrameType::kGenerationAck:
      return GenerationAck::kBytes;
    case FrameType::kProbeBeacon:
      return ProbeBeacon::kBytes;
    case FrameType::kProbeReport:
      return ProbeReport::kBytes;
    case FrameType::kPriceUpdate:
      return PriceUpdate::kFixedBytes +
             PriceUpdate::kLambdaBytes * frame.price.lambdas.size();
    case FrameType::kResyncRequest:
      return ResyncRequest::kBytes;
    case FrameType::kResyncInfo:
      return ResyncInfo::kBytes;
  }
  return 0;
}

/// Parses the body of one frame type; `body` is exactly the payload (the
/// header's length field already matched the buffer).  Returns false when
/// the payload size disagrees with the type's layout.
bool parse_body(FrameType type, std::uint32_t session_id,
                std::span<const std::uint8_t> body, Frame* out) {
  switch (type) {
    case FrameType::kCodedData: {
      if (!coding::CodedPacket::parse(body, &out->packet)) return false;
      // The embedded packet header repeats the session id; a frame whose
      // two copies disagree was corrupted or forged.
      return out->packet.session_id == session_id;
    }
    case FrameType::kCodedDataCompact: {
      coding::CodedPacketView view;
      if (!coding::parse_compact(body, &view, &out->structure)) return false;
      if (view.session_id != session_id) return false;
      // The owning frame always exposes dense coefficients; the kept
      // structure says which of them serialize() re-emits, so the round
      // trip reproduces the compact bytes exactly.
      out->packet.session_id = view.session_id;
      out->packet.generation_id = view.generation_id;
      out->packet.generation_blocks = view.generation_blocks;
      out->packet.block_bytes = view.block_bytes;
      out->packet.coefficients.assign(view.generation_blocks, 0);
      coding::expand_coefficients(out->structure, view.coefficients,
                                  view.generation_blocks,
                                  out->packet.coefficients.data());
      out->packet.payload.assign(view.payload.begin(), view.payload.end());
      return true;
    }
    case FrameType::kGenerationAck:
      if (body.size() != GenerationAck::kBytes) return false;
      out->ack.generation_id = load_be32(body.data());
      out->ack.origin_local = load_be16(body.data() + 4);
      out->ack.ack_seq = load_be32(body.data() + 6);
      return true;
    case FrameType::kProbeBeacon:
      if (body.size() != ProbeBeacon::kBytes) return false;
      out->beacon.origin_local = load_be16(body.data());
      out->beacon.sequence = load_be32(body.data() + 2);
      return true;
    case FrameType::kProbeReport:
      if (body.size() != ProbeReport::kBytes) return false;
      out->report.reporter_local = load_be16(body.data());
      out->report.probed_local = load_be16(body.data() + 2);
      out->report.beacons_heard = load_be32(body.data() + 4);
      out->report.window = load_be32(body.data() + 8);
      return true;
    case FrameType::kPriceUpdate: {
      if (body.size() < PriceUpdate::kFixedBytes) return false;
      PriceUpdate price;
      price.node_local = load_be16(body.data());
      price.iteration = load_be32(body.data() + 2);
      price.beta = load_double(body.data() + 6);
      price.rate_bytes_per_s = load_double(body.data() + 14);
      const std::size_t count = load_be16(body.data() + 22);
      // All size arithmetic in std::size_t: count <= 0xffff and the
      // per-entry size is constant, so the product cannot overflow; the
      // exact-size check then pins the claimed count to the actual payload.
      const std::size_t expected =
          PriceUpdate::kFixedBytes + PriceUpdate::kLambdaBytes * count;
      if (body.size() != expected) return false;
      price.lambdas.resize(count);
      const std::uint8_t* p = body.data() + PriceUpdate::kFixedBytes;
      for (std::size_t i = 0; i < count; ++i) {
        price.lambdas[i].to_local = load_be16(p);
        price.lambdas[i].lambda = load_double(p + 2);
        p += PriceUpdate::kLambdaBytes;
      }
      out->price = std::move(price);
      return true;
    }
    case FrameType::kResyncRequest:
      if (body.size() != ResyncRequest::kBytes) return false;
      out->resync_request.origin_local = load_be16(body.data());
      out->resync_request.last_seen_generation = load_be32(body.data() + 2);
      return true;
    case FrameType::kResyncInfo:
      if (body.size() != ResyncInfo::kBytes) return false;
      out->resync_info.generation_id = load_be32(body.data());
      out->resync_info.price_iteration = load_be32(body.data() + 4);
      return true;
  }
  return false;  // unknown type (already rejected by the header check)
}

/// Everything the fixed header carries.
struct Header {
  FrameType type = FrameType::kCodedData;
  std::uint32_t session_id = 0;
  std::uint16_t trace_origin = 0;
  std::uint32_t trace_seq = 0;
  std::uint32_t checksum = 0;
  std::span<const std::uint8_t> payload;
};

/// Validates the fixed header; on success fills `out`.  Does not verify the
/// checksum (peeks skip it; Frame::parse checks).
bool parse_header(std::span<const std::uint8_t> bytes, Header* out) {
  if (bytes.size() < kHeaderBytes) return false;
  if (load_be32(bytes.data()) != kMagic) return false;
  if (bytes[4] != kWireVersion) return false;
  if (!valid_type(bytes[5])) return false;
  const std::size_t payload_bytes = load_be32(bytes.data() + 10);
  // Bound the length field before any arithmetic with it: a hostile header
  // may claim up to 4 GiB.
  if (payload_bytes > kMaxFrameBytes) return false;
  if (bytes.size() != kHeaderBytes + payload_bytes) return false;
  out->type = static_cast<FrameType>(bytes[5]);
  out->session_id = load_be32(bytes.data() + 6);
  out->checksum = load_be32(bytes.data() + 14);
  out->trace_origin = load_be16(bytes.data() + kTraceTagOffset);
  out->trace_seq = load_be32(bytes.data() + kTraceTagOffset + 2);
  out->payload = bytes.subspan(kHeaderBytes);
  return true;
}

}  // namespace

std::vector<std::uint8_t> Frame::serialize() const {
  std::vector<std::uint8_t> out;
  serialize_into(&out);
  return out;
}

void Frame::serialize_into(std::vector<std::uint8_t>* out) const {
  const std::size_t body_bytes = body_size(*this);
  OMNC_ASSERT(body_bytes <= kMaxFrameBytes);
  // Sized once; every byte below is overwritten, so a reused buffer of the
  // right size is neither cleared nor refilled.
  out->resize(kHeaderBytes + body_bytes);
  std::uint8_t* p = out->data();
  store_be32(p, kMagic);
  p[4] = kWireVersion;
  p[5] = static_cast<std::uint8_t>(type);
  store_be32(p + 6, session_id);
  store_be32(p + 10, static_cast<std::uint32_t>(body_bytes));
  store_be16(p + kTraceTagOffset, trace_origin);
  store_be32(p + kTraceTagOffset + 2, trace_seq);
  write_body(*this, std::span<std::uint8_t>(*out).subspan(kHeaderBytes));
  // The checksum covers bytes 18..end, so it goes in last.
  store_be32(p + 14, crc32c(std::span<const std::uint8_t>(*out).subspan(
                         kTraceTagOffset)));
}

bool Frame::parse(std::span<const std::uint8_t> bytes, Frame* out) {
  Header header;
  if (!parse_header(bytes, &header)) return false;
  if (header.checksum != crc32c(bytes.subspan(kTraceTagOffset))) return false;
  Frame frame;
  frame.type = header.type;
  frame.session_id = header.session_id;
  frame.trace_origin = header.trace_origin;
  frame.trace_seq = header.trace_seq;
  if (!parse_body(header.type, header.session_id, header.payload, &frame)) {
    return false;
  }
  *out = std::move(frame);
  return true;
}

bool DataFrameView::parse(std::span<const std::uint8_t> bytes,
                          DataFrameView* out) {
  Header header;
  if (!parse_header(bytes, &header)) return false;
  if (header.type != FrameType::kCodedData &&
      header.type != FrameType::kCodedDataCompact) {
    return false;
  }
  if (header.checksum != crc32c(bytes.subspan(kTraceTagOffset))) return false;
  DataFrameView view;
  view.session_id = header.session_id;
  view.trace_origin = header.trace_origin;
  view.trace_seq = header.trace_seq;
  if (header.type == FrameType::kCodedData) {
    if (!coding::CodedPacketView::parse(header.payload, &view.packet)) {
      return false;
    }
    view.structure = coding::CodedStructure::make_dense();
  } else {
    if (!coding::parse_compact(header.payload, &view.packet,
                               &view.structure)) {
      return false;
    }
  }
  // The embedded packet header repeats the session id; a frame whose two
  // copies disagree was corrupted or forged (same check as Frame::parse).
  if (view.packet.session_id != header.session_id) return false;
  *out = view;
  return true;
}

Frame make_coded_data(coding::CodedPacket packet) {
  Frame frame;
  frame.type = FrameType::kCodedData;
  frame.session_id = packet.session_id;
  frame.packet = std::move(packet);
  return frame;
}

Frame make_coded_data_compact(coding::CodedPacket packet,
                              const coding::CodedStructure& structure) {
  OMNC_ASSERT(!structure.dense());
  Frame frame;
  frame.type = FrameType::kCodedDataCompact;
  frame.session_id = packet.session_id;
  frame.packet = std::move(packet);
  frame.structure = structure;
  return frame;
}

Frame make_ack(std::uint32_t session_id, const GenerationAck& ack) {
  Frame frame;
  frame.type = FrameType::kGenerationAck;
  frame.session_id = session_id;
  frame.ack = ack;
  return frame;
}

Frame make_beacon(std::uint32_t session_id, const ProbeBeacon& beacon) {
  Frame frame;
  frame.type = FrameType::kProbeBeacon;
  frame.session_id = session_id;
  frame.beacon = beacon;
  return frame;
}

Frame make_report(std::uint32_t session_id, const ProbeReport& report) {
  Frame frame;
  frame.type = FrameType::kProbeReport;
  frame.session_id = session_id;
  frame.report = report;
  return frame;
}

Frame make_price(std::uint32_t session_id, PriceUpdate price) {
  Frame frame;
  frame.type = FrameType::kPriceUpdate;
  frame.session_id = session_id;
  frame.price = std::move(price);
  return frame;
}

Frame make_resync_request(std::uint32_t session_id,
                          const ResyncRequest& request) {
  Frame frame;
  frame.type = FrameType::kResyncRequest;
  frame.session_id = session_id;
  frame.resync_request = request;
  return frame;
}

Frame make_resync_info(std::uint32_t session_id, const ResyncInfo& info) {
  Frame frame;
  frame.type = FrameType::kResyncInfo;
  frame.session_id = session_id;
  frame.resync_info = info;
  return frame;
}

bool peek_type(std::span<const std::uint8_t> bytes, FrameType* out) {
  Header header;
  if (!parse_header(bytes, &header)) return false;
  *out = header.type;
  return true;
}

bool peek_session(std::span<const std::uint8_t> bytes, std::uint32_t* out) {
  Header header;
  if (!parse_header(bytes, &header)) return false;
  *out = header.session_id;
  return true;
}

bool peek_trace(std::span<const std::uint8_t> bytes, std::uint16_t* origin,
                std::uint32_t* seq) {
  Header header;
  if (!parse_header(bytes, &header)) return false;
  *origin = header.trace_origin;
  *seq = header.trace_seq;
  return true;
}

bool peek_generation(std::span<const std::uint8_t> bytes, std::uint32_t* out) {
  Header header;
  if (!parse_header(bytes, &header)) return false;
  if (header.type != FrameType::kCodedData &&
      header.type != FrameType::kCodedDataCompact) {
    return false;
  }
  // Both data bodies open with the CodedPacket wire header: session id
  // (u32) then generation id (u32).
  if (header.payload.size() < 8) return false;
  *out = load_be32(header.payload.data() + 4);
  return true;
}

bool peek_data_session(std::span<const std::uint8_t> bytes,
                       std::uint32_t* out) {
  Header header;
  if (!parse_header(bytes, &header)) return false;
  if (header.type != FrameType::kCodedData &&
      header.type != FrameType::kCodedDataCompact) {
    return false;
  }
  // The CodedPacket wire header opens with its own session id (u32).
  if (header.payload.size() < 8) return false;
  *out = load_be32(header.payload.data());
  return true;
}

}  // namespace omnc::wire
