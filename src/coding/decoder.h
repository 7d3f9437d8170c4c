// Progressive Gauss–Jordan decoder (Sec. 4, "Progressive decoding").
//
// The destination feeds every received packet into the decoder; the decoding
// matrix is kept in reduced row-echelon form so that independence checking
// and decoding happen on the fly.  Non-innovative packets reduce to an
// all-zero row and are discarded immediately.  Once n independent packets
// have been absorbed, the coefficient part is the identity and the payload
// part holds the original blocks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/coded_packet.h"
#include "coding/generation.h"
#include "coding/rref.h"

namespace omnc::coding {

class ProgressiveDecoder {
 public:
  ProgressiveDecoder(const CodingParams& params, std::uint32_t generation_id);

  /// Absorbs a packet.  Returns true if it was innovative.  Packets from
  /// other generations or with mismatched dimensions are rejected (false).
  bool offer(const CodedPacket& packet);

  /// Zero-copy variant: the view's spans are read in place; the payload is
  /// copied exactly once (into the RREF arena) iff the row is innovative,
  /// and never touched otherwise.  The view only needs to stay valid for
  /// the duration of the call.
  bool offer(const CodedPacketView& view);

  std::uint32_t generation_id() const { return generation_id_; }
  std::size_t rank() const { return rref_.rank(); }
  bool complete() const { return rref_.complete(); }

  /// Number of packets offered / accepted so far (for redundancy metrics).
  std::size_t packets_seen() const { return packets_seen_; }
  std::size_t packets_innovative() const { return rref_.rank(); }

  /// Pivot column claimed by the last innovative offer, -1 otherwise.
  int last_pivot() const { return rref_.last_insert_pivot(); }

  /// Concatenated original generation bytes; requires complete().
  std::vector<std::uint8_t> recover() const;

  /// Byte count recover() / recover_into() produce.
  std::size_t recovered_size() const { return params_.generation_bytes(); }

  /// Allocation-free recovery: eliminates every payload straight into
  /// `out` (exactly recovered_size() bytes) in one source-blocked pass, with
  /// no concatenation copy.  Requires complete().
  void recover_into(std::span<std::uint8_t> out) const;

  /// Drops all state and retargets a new generation.
  void reset(std::uint32_t generation_id);

 private:
  CodingParams params_;
  std::uint32_t generation_id_;
  RrefAccumulator rref_;
  std::size_t packets_seen_ = 0;
};

}  // namespace omnc::coding
