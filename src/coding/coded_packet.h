// Wire format of a coded packet: header, coding-coefficient vector (a row of
// the R matrix) and the coded payload (the corresponding row of X = R * B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/generation.h"

namespace omnc::coding {

struct CodedPacket;

/// Structural side-channel of a coded packet: how its coefficient vector was
/// produced.  Dense packets carry all n coefficients on the wire; structured
/// ones (a systematic original, a banded combination) admit a compact
/// encoding that elides the implied zeros — an uncoded original is fully
/// described by its block index, a banded row by its window offset/width and
/// the window's coefficients.  The structure rides next to the packet through
/// the stack (frame <-> runtime <-> codes) so decoders can exploit it; dense
/// serialization is byte-identical to the pre-structure wire format.
struct CodedStructure {
  enum class Kind : std::uint8_t { kDense = 0, kUncoded = 1, kWindow = 2 };
  Kind kind = Kind::kDense;
  std::uint16_t index = 0;   // kUncoded: original block index
  std::uint16_t offset = 0;  // kWindow: first coefficient column
  std::uint16_t width = 0;   // kWindow: coefficient count

  bool dense() const { return kind == Kind::kDense; }

  static CodedStructure make_dense() { return {}; }
  static CodedStructure make_uncoded(std::uint16_t index) {
    return {Kind::kUncoded, index, 0, 0};
  }
  static CodedStructure make_window(std::uint16_t offset, std::uint16_t width) {
    return {Kind::kWindow, 0, offset, width};
  }

  /// True if the structure is internally consistent for n coefficient
  /// columns (uncoded index in range, window inside [0, n) and nonempty).
  bool valid_for(std::uint16_t generation_blocks) const;

  bool operator==(const CodedStructure&) const = default;
};

/// Writes the dense n-byte coefficient vector implied by `structure` whose
/// explicit entries are `window` (the window bytes for kWindow, empty for
/// kUncoded, all n for kDense) into `out` (n bytes, fully overwritten).
void expand_coefficients(const CodedStructure& structure,
                         std::span<const std::uint8_t> window,
                         std::uint16_t generation_blocks, std::uint8_t* out);

/// The payload half of an emission, kept apart from the draw so that it can
/// run later (DESIGN.md §9): payload = Σ_k factors[k] · row(first_row + k)
/// over the emitter's rows — a source's generation blocks, a relay's arena
/// rows in insertion order.  Rows are named by index, never by address, so
/// a recipe stays valid while the emitter's row storage grows.
struct PayloadFold {
  std::uint16_t first_row = 0;
  std::vector<std::uint8_t> factors;  // one per row from first_row on
};

/// Writes the fold of rows [first_row, first_row + factors.size()) of
/// `rows` (row-major, `row_bytes` per row) into `out` (row_bytes bytes, fully
/// overwritten).  `srcs` is row-pointer scratch.
void fold_rows(std::span<const std::uint8_t> rows, std::size_t row_bytes,
               std::size_t first_row, std::span<const std::uint8_t> factors,
               std::uint8_t* out, std::vector<const std::uint8_t*>* srcs);

/// A payload whose bytes are written on first read: a holder of a coded
/// packet's header and coefficients whose payload fold has not run yet
/// lends one to the view, and CodedPacketView::read_payload() runs it.
class DeferredPayload {
 public:
  /// Writes the payload bytes into the region the view's `payload` spans;
  /// a no-op once they are written.
  virtual void fold() const = 0;

 protected:
  ~DeferredPayload() = default;
};

/// Non-owning parse of a coded packet: the header fields are decoded, the
/// coefficient vector and payload stay as spans into the caller's buffer.
/// This is the zero-copy receive path — a view can be validated and offered
/// to the RREF accumulator without materializing owning vectors; the
/// accumulator copies the payload region directly into its arena only when
/// the row turns out to be innovative.  A view is only valid while the
/// buffer it was parsed from is alive and unmodified.
struct CodedPacketView {
  std::uint32_t session_id = 0;
  std::uint32_t generation_id = 0;
  std::uint16_t generation_blocks = 0;        // n
  std::uint16_t block_bytes = 0;              // m
  std::span<const std::uint8_t> coefficients;  // length n, into the buffer
  /// Length m, into the buffer.  Its bytes are only written once `deferred`
  /// (when set) has run: read them through read_payload().
  std::span<const std::uint8_t> payload;
  /// The slot simulator's frames fold their payload on first read; null
  /// when the bytes are already there (every parsed wire buffer).
  const DeferredPayload* deferred = nullptr;

  /// The payload bytes, folded first if deferred.  Only code that has
  /// already decided the packet is innovative may call it: a rejected
  /// packet's payload is never folded.
  std::span<const std::uint8_t> read_payload() const {
    if (deferred != nullptr) deferred->fold();
    return payload;
  }

  bool dimensions_match(const CodingParams& params) const {
    return generation_blocks == params.generation_blocks &&
           block_bytes == params.block_bytes &&
           coefficients.size() == params.generation_blocks &&
           payload.size() == params.block_bytes;
  }

  /// Validates geometry in place; on success the spans alias `wire`.
  /// Returns false on truncation or inconsistent lengths.
  static bool parse(std::span<const std::uint8_t> wire, CodedPacketView* out);

  /// Owning copy, for paths that must outlive the receive buffer.
  CodedPacket to_packet() const;
};

struct CodedPacket {
  std::uint32_t session_id = 0;
  std::uint32_t generation_id = 0;
  std::uint16_t generation_blocks = 0;        // n
  std::uint16_t block_bytes = 0;              // m
  std::vector<std::uint8_t> coefficients;     // length n
  std::vector<std::uint8_t> payload;          // length m

  /// Fixed header bytes on the wire (session, generation, n, m).
  static constexpr std::size_t kHeaderBytes = 12;

  /// Total bytes this packet occupies on the air; the MAC charges this.
  std::size_t wire_size() const {
    return kHeaderBytes + coefficients.size() + payload.size();
  }

  bool dimensions_match(const CodingParams& params) const {
    return generation_blocks == params.generation_blocks &&
           block_bytes == params.block_bytes &&
           coefficients.size() == params.generation_blocks &&
           payload.size() == params.block_bytes;
  }

  std::vector<std::uint8_t> serialize() const;

  /// Writes the serialize() bytes into `out`, which must hold exactly
  /// wire_size() bytes: fixed-offset header stores, then one copy each for
  /// the coefficients and the payload.
  void serialize_to(std::span<std::uint8_t> out) const;

  /// Writes the header and the coefficients of a packet whose payload is
  /// not drawn yet into the front of `out`, which must hold them plus
  /// block_bytes payload bytes; the payload bytes are left to a later fold.
  void serialize_head_to(std::span<std::uint8_t> out) const;

  /// Non-owning view over this packet's own storage (same lifetime rules as
  /// a parsed view: valid while the packet is alive and unmodified).
  CodedPacketView as_view() const;

  /// Parses a packet; returns false on truncation or inconsistent lengths.
  static bool parse(std::span<const std::uint8_t> wire, CodedPacket* out);
};

/// Bytes the compact encoding of a packet with `block_bytes` of payload
/// occupies under `structure`: the 12-byte header, a structure tag, the
/// structure fields, the window coefficients (kWindow only), the payload.
/// kDense has no compact form; callers keep the dense wire format for it.
std::size_t compact_wire_size(const CodedStructure& structure,
                              std::uint16_t block_bytes);

/// Writes the compact encoding of `packet` (whose coefficients are dense in
/// memory) under `structure` into `out`, which must hold exactly the
/// encoding (compact_wire_size(structure, packet.block_bytes) bytes for a
/// packet whose payload is block_bytes long).  Returns false — writing
/// nothing — if the structure is dense or inconsistent with the packet's
/// geometry.
bool serialize_compact(const CodedPacket& packet,
                       const CodedStructure& structure,
                       std::span<std::uint8_t> out);

/// Parses a compact encoding.  On success the view's `coefficients` span
/// holds only the explicit window bytes (empty for an uncoded original) —
/// dimensions_match() intentionally fails; consumers go through `structure`
/// or expand_coefficients().  The payload span aliases `wire` as usual.
bool parse_compact(std::span<const std::uint8_t> wire, CodedPacketView* view,
                   CodedStructure* structure);

}  // namespace omnc::coding
