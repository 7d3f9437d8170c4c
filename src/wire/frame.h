// Versioned wire-frame layer: everything the protocols exchange, as bytes.
//
// Drift (the paper's emulation testbed) runs *real protocol code* over an
// emulated PHY; independent nodes can only interoperate if every message has
// a precise on-the-wire format — the same reason MORE (Chachulski et al.,
// SIGCOMM'07) and the practical-network-coding line (Chou & Wu) define their
// coded-packet headers down to the byte.  This header defines OMNC's frame
// vocabulary:
//
//   * coded data       — a coding::CodedPacket (coefficients + payload);
//   * generation ACK   — the destination's decode confirmation, flooded back;
//   * link-probe beacon/report — the prober's broadcast beacons and the
//     resulting reception-ratio estimates;
//   * price update     — the λ/β duals and recovered broadcast rate of the
//     sUnicast decomposition (distributed rate control state).
//
// Every frame starts with a fixed 24-byte header (big-endian, like
// CodedPacket):
//
//   offset size  field
//   0      4     magic      0x4F4D4E43 ("OMNC")
//   4      1     version    kWireVersion
//   5      1     frame type (FrameType)
//   6      4     session id
//   10     4     payload length (bytes following the header)
//   14     4     CRC32C checksum of bytes 18..end (trace tag + payload)
//   18     2     trace origin — session-local index of the node that created
//                the frame's span (obs/span.h)
//   20     4     trace sequence — per-origin counter; 0 marks an untraced
//                frame, so (origin, seq) = (0, 0) is the null span id
//
// Only version 3 parses; frames of any other version (the FNV-1a-checksummed
// version 2, the retired 18-byte version-1 header) are rejected like any
// other malformed header.
//
// Parsers are hardened: truncated buffers, inconsistent length fields,
// corrupted checksums, unknown types/versions, and garbage bytes all return
// `false` without reading out of bounds (mirroring CodedPacket::parse).
// serialize(parse(serialize(f))) is byte-identical for every valid frame.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/coded_packet.h"

namespace omnc::wire {

inline constexpr std::uint32_t kMagic = 0x4F4D4E43;  // "OMNC"
inline constexpr std::uint8_t kWireVersion = 3;

/// Fixed bytes before the payload of every frame.
inline constexpr std::size_t kHeaderBytes = 24;
/// Where the trace tag starts — also the first checksummed byte of a frame
/// (the checksum covers the tag and the payload, so a flipped tag bit is
/// caught like any payload corruption).
inline constexpr std::size_t kTraceTagOffset = 18;

/// Upper bound a well-behaved sender may produce (and the emulation
/// transports accept); parsers reject any length field beyond it before
/// touching the payload.
inline constexpr std::size_t kMaxFrameBytes = 256 * 1024;

enum class FrameType : std::uint8_t {
  kCodedData = 1,      // payload: CodedPacket wire bytes
  kGenerationAck = 2,  // payload: GenerationAck
  kProbeBeacon = 3,    // payload: ProbeBeacon
  kProbeReport = 4,    // payload: ProbeReport
  kPriceUpdate = 5,    // payload: PriceUpdate
  kResyncRequest = 6,  // payload: ResyncRequest
  kResyncInfo = 7,     // payload: ResyncInfo
  // Structured coded data with a compressed coefficient vector: the
  // CodedPacket header, a CodedStructure tag (uncoded block index or band
  // offset/width + the window's coefficients), and the payload — the dense
  // n-byte coefficient vector is implied, not carried.  Emitted by the
  // systematic/banded code families (DESIGN.md §15); dense packets keep
  // kCodedData, whose bytes are unchanged.
  kCodedDataCompact = 8,
};

/// CRC32C (Castagnoli) over a byte range: the header checksum.  Detects
/// every burst error of up to 32 bits.
std::uint32_t crc32c(std::span<const std::uint8_t> bytes);

/// Destination -> source decode confirmation for one generation, flooded
/// back over the session DAG.  `ack_seq` counts retransmissions of the same
/// ACK (the destination repeats it until the source moves on), which lets
/// receivers deduplicate without extra state.
struct GenerationAck {
  std::uint32_t generation_id = 0;
  std::uint16_t origin_local = 0;  // session-local index of the destination
  std::uint32_t ack_seq = 0;

  static constexpr std::size_t kBytes = 10;
  bool operator==(const GenerationAck&) const = default;
};

/// One link-probe broadcast: "I am node `origin_local`, this is beacon
/// number `sequence`".  Receivers count beacons per origin.
struct ProbeBeacon {
  std::uint16_t origin_local = 0;
  std::uint32_t sequence = 0;

  static constexpr std::size_t kBytes = 6;
  bool operator==(const ProbeBeacon&) const = default;
};

/// A receiver's reception-ratio estimate for one probed link:
/// p̂ = heard / window.
struct ProbeReport {
  std::uint16_t reporter_local = 0;  // who measured
  std::uint16_t probed_local = 0;    // whose beacons were counted
  std::uint32_t beacons_heard = 0;
  std::uint32_t window = 0;  // beacons the origin sent in the window

  static constexpr std::size_t kBytes = 12;
  bool operator==(const ProbeReport&) const = default;

  double estimate() const {
    return window > 0
               ? static_cast<double>(beacons_heard) / static_cast<double>(window)
               : 0.0;
  }
};

/// Rate-control state for one node of the sUnicast decomposition: the
/// congestion price β_i of the broadcast-MAC constraint, the recovered
/// broadcast rate b̄_i, and the link prices λ_ij of the node's outgoing DAG
/// edges.  Doubles travel as their IEEE-754 bit patterns (big-endian), so a
/// round trip is bit-exact.
struct PriceUpdate {
  struct Lambda {
    std::uint16_t to_local = 0;
    double lambda = 0.0;

    bool operator==(const Lambda&) const = default;
  };

  std::uint16_t node_local = 0;
  std::uint32_t iteration = 0;  // rate-control iteration the state is from
  double beta = 0.0;
  double rate_bytes_per_s = 0.0;  // recovered b̄_i
  std::vector<Lambda> lambdas;    // per outgoing edge

  static constexpr std::size_t kFixedBytes = 24;  // node+iter+beta+rate+count
  static constexpr std::size_t kLambdaBytes = 10;
  bool operator==(const PriceUpdate&) const = default;
};

/// "I lost track of the session — where is it now?"  Broadcast by a node
/// that has heard nothing for a while (post-blackout restart, healed
/// partition); relays re-flood it toward the source with per-origin rate
/// limiting.  `last_seen_generation` is the newest generation the requester
/// knows about, so the source can tell a fresh restart from mild lag.
struct ResyncRequest {
  std::uint16_t origin_local = 0;         // who is asking
  std::uint32_t last_seen_generation = 0;  // newest generation id it saw

  static constexpr std::size_t kBytes = 6;
  bool operator==(const ResyncRequest&) const = default;
};

/// The source's answer (also flooded): the live generation id and the
/// rate-control iteration currently in force, enough for a restarted node to
/// fast-forward its buffers and recognise stale prices.  The source follows
/// it with a full price reflood.
struct ResyncInfo {
  std::uint32_t generation_id = 0;    // the source's live generation
  std::uint32_t price_iteration = 0;  // newest flooded rate-control iteration

  static constexpr std::size_t kBytes = 8;
  bool operator==(const ResyncInfo&) const = default;
};

/// A decoded frame: the header fields that matter to receivers plus the
/// body of the one type the frame carries (the others stay default).
struct Frame {
  FrameType type = FrameType::kCodedData;
  std::uint32_t session_id = 0;

  /// Packet-lifecycle span id (obs/span.h): the session-local index of the
  /// node that created this frame and a per-origin sequence number.  seq 0
  /// means "untraced" — control frames parse as (0, 0).
  std::uint16_t trace_origin = 0;
  std::uint32_t trace_seq = 0;

  coding::CodedPacket packet;  // kCodedData / kCodedDataCompact (dense form)
  /// kCodedDataCompact: how `packet` compresses on the wire.  The in-memory
  /// packet always carries dense coefficients (parse expands them); the
  /// structure says which bytes serialize() re-emits, so a round trip is
  /// byte-identical.  Stays kDense for kCodedData frames.
  coding::CodedStructure structure;
  GenerationAck ack;           // kGenerationAck
  ProbeBeacon beacon;          // kProbeBeacon
  ProbeReport report;          // kProbeReport
  PriceUpdate price;           // kPriceUpdate
  ResyncRequest resync_request;  // kResyncRequest
  ResyncInfo resync_info;        // kResyncInfo

  std::vector<std::uint8_t> serialize() const;

  /// Serializes into a caller-owned buffer, replacing its contents and
  /// reusing its capacity — the transmit path emits one frame per call into
  /// the same vector without allocating in the steady state.  The buffer is
  /// sized once and every field written at its fixed offset.
  /// Byte-identical to serialize().
  void serialize_into(std::vector<std::uint8_t>* out) const;

  /// Parses one frame.  Returns false on anything malformed: short buffer,
  /// bad magic/version/unknown type, length field disagreeing with the
  /// buffer, checksum mismatch, or a body that fails its own validation
  /// (e.g. a CodedPacket whose n/m disagree with the payload size, or whose
  /// embedded session id disagrees with the frame header's).
  static bool parse(std::span<const std::uint8_t> bytes, Frame* out);
};

/// Zero-copy parse of a kCodedData frame: the full header is validated —
/// magic, version, type, length, checksum, and the embedded-vs-header
/// session id cross-check, exactly as Frame::parse does — but the coded
/// packet stays a CodedPacketView whose spans alias `bytes`.  This is the
/// receive hot path: nothing is copied out of the datagram buffer; the
/// caller hands the view to the coding layer, which copies the payload into
/// its arena only if the packet is innovative.  Returns false for any
/// malformed frame and for well-formed frames of any other type (callers
/// peek the type first or fall back to Frame::parse).  The view is only
/// valid while `bytes` is alive and unmodified.
struct DataFrameView {
  std::uint32_t session_id = 0;
  std::uint16_t trace_origin = 0;
  std::uint32_t trace_seq = 0;
  coding::CodedPacketView packet;
  /// kCodedDataCompact frames parse with their structure and a coefficient
  /// span holding only the explicit window bytes (empty for an uncoded
  /// original); kCodedData frames yield kDense and the full n-byte span.
  coding::CodedStructure structure;

  static bool parse(std::span<const std::uint8_t> bytes, DataFrameView* out);
};

// Convenience constructors -------------------------------------------------

/// Wraps a coded packet; the frame's session id is the packet's.
Frame make_coded_data(coding::CodedPacket packet);
/// Wraps a structured coded packet as a compact frame.  `packet` carries
/// dense coefficients; `structure` must be non-dense and consistent with it.
Frame make_coded_data_compact(coding::CodedPacket packet,
                              const coding::CodedStructure& structure);
Frame make_ack(std::uint32_t session_id, const GenerationAck& ack);
Frame make_beacon(std::uint32_t session_id, const ProbeBeacon& beacon);
Frame make_report(std::uint32_t session_id, const ProbeReport& report);
Frame make_price(std::uint32_t session_id, PriceUpdate price);
Frame make_resync_request(std::uint32_t session_id,
                          const ResyncRequest& request);
Frame make_resync_info(std::uint32_t session_id, const ResyncInfo& info);

/// Cheap peeks used by forwarding paths that do not need a full parse; they
/// validate only the header structure (magic/version/length/type range).
bool peek_type(std::span<const std::uint8_t> bytes, FrameType* out);
bool peek_session(std::span<const std::uint8_t> bytes, std::uint32_t* out);

/// Reads the trace tag of a frame that may never be delivered (drop
/// observers).  Control frames yield (0, 0) = untraced.
bool peek_trace(std::span<const std::uint8_t> bytes, std::uint16_t* origin,
                std::uint32_t* seq);

/// Reads the generation id of a kCodedData / kCodedDataCompact frame without
/// a full parse (both body layouts open with the CodedPacket header, which
/// embeds it right after the session id).  False for non-data frames or a
/// payload too short to carry a packet header.
bool peek_generation(std::span<const std::uint8_t> bytes, std::uint32_t* out);

/// Reads the *embedded* session id of a kCodedData / kCodedDataCompact frame
/// — the CodedPacket's own copy at the start of the body, not the frame
/// header's.  Demultiplexers cross-check the two before routing a frame to a
/// session's runtime: a disagreement means corruption or forgery, and
/// Frame::parse / DataFrameView::parse would reject the frame anyway, so it
/// must never be attributed to either session.  False for non-data frames or
/// a payload too short to carry a packet header.
bool peek_data_session(std::span<const std::uint8_t> bytes,
                       std::uint32_t* out);

}  // namespace omnc::wire
