// Relay-side re-encoder (Sec. 3.1 and Sec. 4, "Packet and Queue
// Management").
//
// A relay accepts an incoming packet only if it is innovative with respect to
// what it already holds; innovative packets join the relay's basis, and
// outgoing packets are fresh random linear combinations of that basis, which
// replaces the coding coefficients with a new random set exactly as
// re-encoding is defined in the paper.
//
// Storage is two flat insertion-order arenas (coefficients and payloads of
// the accepted packets) beside the coefficient-only RREF innovation filter —
// no ring of owning CodedPackets.  offer() takes a CodedPacketView, so on
// the zero-copy receive path an innovative packet's bytes are copied exactly
// once (into the arenas) and a non-innovative packet's payload is never
// read.  recode_into() re-encodes straight from the arenas into a reused
// output packet: the steady-state relay path allocates nothing.  Like the
// source encoder's, an emission splits into a draw (multipliers and
// coefficients) and a payload fold that may run later.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/coded_packet.h"
#include "coding/generation.h"
#include "coding/rref.h"
#include "common/rng.h"

namespace omnc::coding {

class Recoder {
 public:
  Recoder(const CodingParams& params, std::uint32_t session_id,
          std::uint32_t generation_id);

  /// Considers an incoming packet: returns true (and absorbs it into the
  /// basis arenas) iff it is innovative for this relay.  Packets from other
  /// generations or with mismatched dimensions are rejected.
  bool offer(const CodedPacket& packet);

  /// Zero-copy variant: reads the view in place; an innovative packet's
  /// coefficients and payload are copied once into the arenas, a
  /// non-innovative packet's payload is never read.
  bool offer(const CodedPacketView& view);

  /// True if this relay can emit packets (holds at least one innovative
  /// packet of the current generation).
  bool can_send() const { return filter_.rank() > 0; }

  std::size_t rank() const { return filter_.rank(); }
  bool is_full() const { return filter_.complete(); }
  std::uint32_t generation_id() const { return generation_id_; }

  /// Coefficients (n bytes) and payload (m bytes) of the `slot`-th
  /// innovative packet of this generation, exactly as offered.  Requires
  /// slot < rank(); valid until the next offer() or reset().
  std::span<const std::uint8_t> row_coefficients(std::size_t slot) const;
  std::span<const std::uint8_t> row_payload(std::size_t slot) const;

  /// Emits a re-encoded packet: a random combination of the basis.
  /// Requires can_send().
  CodedPacket recode(Rng& rng) const;

  /// Allocation-free variant: re-encodes straight from the basis arenas
  /// into `out`, reusing its vectors' capacity.  Identical output bytes to
  /// recode() for the same rng state.
  void recode_into(Rng& rng, CodedPacket* out) const;

  /// The draw half of recode_into() (DESIGN.md §9): the same rank() rng
  /// draws, header and folded coefficients, with `out`'s payload left
  /// empty and the multipliers over the arena rows in `fold`.
  void draw_into(Rng& rng, CodedPacket* out, PayloadFold* fold) const;

  /// The fold half: writes `fold`'s combination of the payload arena rows
  /// into `payload` (block_bytes bytes) — a recode's multipliers, or one
  /// row verbatim.  Exact until the next reset(); accepting more rows keeps
  /// it exact, since rows are named by insertion index.
  void fold_into(const PayloadFold& fold, std::uint8_t* payload) const;

  /// Discards the basis and moves to a new generation (triggered by an
  /// ACK or by overhearing a higher generation ID).
  void reset(std::uint32_t generation_id);

 private:
  CodingParams params_;
  std::uint32_t session_id_;
  std::uint32_t generation_id_;
  // Coefficient-only innovation filter; the original (unreduced) rows live
  // in the flat arenas below, in insertion order.
  RrefAccumulator filter_;
  std::vector<std::uint8_t> basis_coeffs_;    // rank x n, as received
  std::vector<std::uint8_t> basis_payloads_;  // rank x m, as received
  /// Header, rank() multiplier draws into multipliers_ and the coefficient
  /// fold; leaves the payload untouched.
  void draw(Rng& rng, CodedPacket* out) const;

  mutable std::vector<std::uint8_t> multipliers_;
  mutable std::vector<const std::uint8_t*> coeff_srcs_;
  mutable std::vector<const std::uint8_t*> payload_srcs_;
};

}  // namespace omnc::coding
