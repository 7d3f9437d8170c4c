#include "coding/coded_packet.h"

#include <cstring>

#include "common/assert.h"
#include "common/byte_order.h"
#include "galois/region.h"

namespace omnc::coding {
namespace {

/// Copies `bytes` to `p` in one memcpy (skipped when empty: an empty
/// vector's data() may be null) and returns the next write position.
std::uint8_t* put_bytes(std::uint8_t* p, std::span<const std::uint8_t> bytes) {
  if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
  return p + bytes.size();
}

/// The 12-byte header shared by the dense and compact encodings.
void put_header(std::uint8_t* p, const CodedPacket& packet) {
  store_be32(p, packet.session_id);
  store_be32(p + 4, packet.generation_id);
  store_be16(p + 8, packet.generation_blocks);
  store_be16(p + 10, packet.block_bytes);
}

}  // namespace

std::vector<std::uint8_t> CodedPacket::serialize() const {
  std::vector<std::uint8_t> wire(wire_size());
  serialize_to(wire);
  return wire;
}

void CodedPacket::serialize_to(std::span<std::uint8_t> out) const {
  OMNC_ASSERT(out.size() == wire_size());
  put_header(out.data(), *this);
  put_bytes(put_bytes(out.data() + kHeaderBytes, coefficients), payload);
}

void CodedPacket::serialize_head_to(std::span<std::uint8_t> out) const {
  OMNC_ASSERT(payload.empty());
  OMNC_ASSERT(out.size() == wire_size() + block_bytes);
  put_header(out.data(), *this);
  put_bytes(out.data() + kHeaderBytes, coefficients);
}

void fold_rows(std::span<const std::uint8_t> rows, std::size_t row_bytes,
               std::size_t first_row, std::span<const std::uint8_t> factors,
               std::uint8_t* out, std::vector<const std::uint8_t*>* srcs) {
  const std::size_t count = factors.size();
  OMNC_ASSERT(count > 0);
  OMNC_ASSERT((first_row + count) * row_bytes <= rows.size());
  const std::uint8_t* first = rows.data() + first_row * row_bytes;
  if (count == 1 && factors[0] == 1) {
    // An uncoded original or a verbatim forward: the row itself.
    std::memcpy(out, first, row_bytes);
    return;
  }
  std::memset(out, 0, row_bytes);
  // Fused fold: 2-4 source rows per pass over the output instead of one
  // read/write of it per row.
  srcs->resize(count);
  for (std::size_t k = 0; k < count; ++k) (*srcs)[k] = first + k * row_bytes;
  gf::region_axpy_many(out, srcs->data(), factors.data(), count, row_bytes);
}

bool CodedPacketView::parse(std::span<const std::uint8_t> wire,
                            CodedPacketView* out) {
  if (wire.size() < CodedPacket::kHeaderBytes) return false;
  CodedPacketView view;
  view.session_id = load_be32(wire.data());
  view.generation_id = load_be32(wire.data() + 4);
  view.generation_blocks = load_be16(wire.data() + 8);
  view.block_bytes = load_be16(wire.data() + 10);
  // Reject degenerate geometry before any arithmetic with the
  // attacker-controlled length fields.  The sum below cannot overflow —
  // both fields are u16, widened to size_t — but hostile headers should
  // fail on their own terms, not on a downstream size comparison.
  if (view.generation_blocks == 0 || view.block_bytes == 0) return false;
  const std::size_t expected =
      CodedPacket::kHeaderBytes +
      static_cast<std::size_t>(view.generation_blocks) + view.block_bytes;
  if (wire.size() != expected) return false;
  view.coefficients =
      wire.subspan(CodedPacket::kHeaderBytes, view.generation_blocks);
  view.payload = wire.subspan(
      CodedPacket::kHeaderBytes + view.generation_blocks, view.block_bytes);
  *out = view;
  return true;
}

CodedPacket CodedPacketView::to_packet() const {
  CodedPacket pkt;
  pkt.session_id = session_id;
  pkt.generation_id = generation_id;
  pkt.generation_blocks = generation_blocks;
  pkt.block_bytes = block_bytes;
  pkt.coefficients.assign(coefficients.begin(), coefficients.end());
  pkt.payload.assign(payload.begin(), payload.end());
  return pkt;
}

CodedPacketView CodedPacket::as_view() const {
  CodedPacketView view;
  view.session_id = session_id;
  view.generation_id = generation_id;
  view.generation_blocks = generation_blocks;
  view.block_bytes = block_bytes;
  view.coefficients = std::span<const std::uint8_t>(coefficients);
  view.payload = std::span<const std::uint8_t>(payload);
  return view;
}

bool CodedPacket::parse(std::span<const std::uint8_t> wire, CodedPacket* out) {
  CodedPacketView view;
  if (!CodedPacketView::parse(wire, &view)) return false;
  *out = view.to_packet();
  return true;
}

bool CodedStructure::valid_for(std::uint16_t generation_blocks) const {
  switch (kind) {
    case Kind::kDense:
      return true;
    case Kind::kUncoded:
      return index < generation_blocks;
    case Kind::kWindow:
      return width >= 1 &&
             static_cast<std::size_t>(offset) + width <= generation_blocks;
  }
  return false;
}

void expand_coefficients(const CodedStructure& structure,
                         std::span<const std::uint8_t> window,
                         std::uint16_t generation_blocks, std::uint8_t* out) {
  const std::size_t n = generation_blocks;
  switch (structure.kind) {
    case CodedStructure::Kind::kDense:
      std::memcpy(out, window.data(), n);
      return;
    case CodedStructure::Kind::kUncoded:
      std::memset(out, 0, n);
      out[structure.index] = 1;
      return;
    case CodedStructure::Kind::kWindow:
      std::memset(out, 0, n);
      std::memcpy(out + structure.offset, window.data(), structure.width);
      return;
  }
}

namespace {

/// Structure tag + fields, before the window coefficients and payload.
std::size_t structure_header_bytes(const CodedStructure& structure) {
  return structure.kind == CodedStructure::Kind::kUncoded ? 3 : 5;
}

}  // namespace

std::size_t compact_wire_size(const CodedStructure& structure,
                              std::uint16_t block_bytes) {
  const std::size_t coeffs =
      structure.kind == CodedStructure::Kind::kWindow ? structure.width : 0;
  return CodedPacket::kHeaderBytes + structure_header_bytes(structure) +
         coeffs + block_bytes;
}

bool serialize_compact(const CodedPacket& packet,
                       const CodedStructure& structure,
                       std::span<std::uint8_t> out) {
  if (structure.dense()) return false;
  if (!structure.valid_for(packet.generation_blocks)) return false;
  if (packet.coefficients.size() != packet.generation_blocks) return false;
  // Sized by the payload the packet holds, as the dense wire_size() is.
  OMNC_ASSERT(out.size() ==
              compact_wire_size(structure, 0) + packet.payload.size());
  std::uint8_t* p = out.data();
  put_header(p, packet);
  p += CodedPacket::kHeaderBytes;
  p[0] = static_cast<std::uint8_t>(structure.kind);
  std::span<const std::uint8_t> coeffs;
  if (structure.kind == CodedStructure::Kind::kUncoded) {
    store_be16(p + 1, structure.index);
  } else {
    store_be16(p + 1, structure.offset);
    store_be16(p + 3, structure.width);
    coeffs = std::span<const std::uint8_t>(packet.coefficients)
                 .subspan(structure.offset, structure.width);
  }
  p += structure_header_bytes(structure);
  put_bytes(put_bytes(p, coeffs), packet.payload);
  return true;
}

bool parse_compact(std::span<const std::uint8_t> wire, CodedPacketView* view,
                   CodedStructure* structure) {
  if (wire.size() < CodedPacket::kHeaderBytes + 3) return false;
  CodedPacketView v;
  v.session_id = load_be32(wire.data());
  v.generation_id = load_be32(wire.data() + 4);
  v.generation_blocks = load_be16(wire.data() + 8);
  v.block_bytes = load_be16(wire.data() + 10);
  if (v.generation_blocks == 0 || v.block_bytes == 0) return false;
  CodedStructure s;
  const std::uint8_t kind = wire[CodedPacket::kHeaderBytes];
  std::size_t cursor = CodedPacket::kHeaderBytes + 1;
  if (kind == static_cast<std::uint8_t>(CodedStructure::Kind::kUncoded)) {
    s.kind = CodedStructure::Kind::kUncoded;
    if (wire.size() < cursor + 2) return false;
    s.index = load_be16(wire.data() + cursor);
    cursor += 2;
    v.coefficients = {};
  } else if (kind == static_cast<std::uint8_t>(CodedStructure::Kind::kWindow)) {
    s.kind = CodedStructure::Kind::kWindow;
    if (wire.size() < cursor + 4) return false;
    s.offset = load_be16(wire.data() + cursor);
    s.width = load_be16(wire.data() + cursor + 2);
    cursor += 4;
    if (wire.size() < cursor + s.width) return false;
    v.coefficients = wire.subspan(cursor, s.width);
    cursor += s.width;
  } else {
    return false;  // dense packets never use the compact form
  }
  if (!s.valid_for(v.generation_blocks)) return false;
  if (wire.size() != cursor + v.block_bytes) return false;
  v.payload = wire.subspan(cursor, v.block_bytes);
  *view = v;
  *structure = s;
  return true;
}

}  // namespace omnc::coding
