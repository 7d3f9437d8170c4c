// Generation model for random linear coding (Sec. 3.1 of the paper).
//
// Source data is grouped into generations; a generation is an n x m matrix B
// whose rows are the n data blocks and whose columns are the m bytes of each
// block.  Coded packets carry linear combinations of the rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace omnc::coding {

/// Coding parameters shared by every node of a session.
struct CodingParams {
  std::uint16_t generation_blocks = 40;  // n — blocks per generation
  std::uint16_t block_bytes = 1024;      // m — bytes per block

  std::size_t generation_bytes() const {
    return static_cast<std::size_t>(generation_blocks) * block_bytes;
  }

  bool operator==(const CodingParams&) const = default;
};

/// True iff `bytes` equals the first bytes.size() bytes of the synthetic
/// stream of (id, seed) (see Generation::synthetic) — the destination's
/// end-to-end check, made without materializing the expected generation.
bool matches_synthetic(std::uint32_t id, std::uint64_t seed,
                       std::span<const std::uint8_t> bytes);

/// One generation of source data (the matrix B).
class Generation {
 public:
  Generation(std::uint32_t id, const CodingParams& params);

  /// Builds a generation from raw bytes; input shorter than n*m is
  /// zero-padded, longer input is rejected by assertion.
  static Generation from_bytes(std::uint32_t id, const CodingParams& params,
                               std::span<const std::uint8_t> bytes);

  /// A generation filled with the synthetic payload stream of (id, seed);
  /// used by simulations that only care about byte counts.  Byte 8k + j of
  /// the stream is bits 8j..8j+7 of the k-th next_u64() of an Rng seeded
  /// from (seed, id), so one draw yields eight bytes; a final partial word
  /// contributes its low bytes.  The byte order is fixed by shifts, so every
  /// host produces the same stream.
  static Generation synthetic(std::uint32_t id, const CodingParams& params,
                              std::uint64_t seed);

  /// Turns this generation into synthetic(id, params(), seed) in place,
  /// reusing its storage (the source's per-generation turnover).
  void refill_synthetic(std::uint32_t id, std::uint64_t seed);

  std::uint32_t id() const { return id_; }
  const CodingParams& params() const { return params_; }

  const std::uint8_t* block(std::size_t index) const;
  std::span<const std::uint8_t> bytes() const { return data_; }

 private:
  std::uint32_t id_;
  CodingParams params_;
  std::vector<std::uint8_t> data_;  // row-major n x m
};

}  // namespace omnc::coding
