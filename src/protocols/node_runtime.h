// Per-node, per-session coding runtime.
//
// A NodeRuntime owns everything one node keeps for one session, keyed by its
// role in the session DAG:
//   * source      — the CBR-gated current generation (one buffer refilled
//                   in place per generation), its family-parameterized
//                   encoder, and the generation lifecycle counters;
//   * relay       — the innovation-filtered recode buffer (Sec. 4, "Packet
//                   and Queue Management") plus generation-expiry flushing;
//   * destination — the family-parameterized decoder (progressive
//                   Gauss–Jordan for dense, the structured CBD-style decoder
//                   for systematic/banded — DESIGN.md §15).
//
// The code family is a construction-time CodeSpec; the default dense spec
// reproduces the pre-family pipeline byte-for-byte and draw-for-draw.  Every
// emitted packet carries a CodedStructure side channel describing its
// coefficient structure, which the wire layer compresses and receive() feeds
// back into the decoder's structural fast paths.
//
// The SessionEngine composes one NodeRuntime per (session, node) pair; in
// the multi-unicast scenario a physical node therefore carries several
// runtimes with different roles, one per session it participates in.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "codes/code_spec.h"
#include "codes/family_runtime.h"
#include "coding/coded_packet.h"
#include "coding/generation.h"
#include "common/rng.h"

namespace omnc::protocols {

class NodeRuntime {
 public:
  enum class Role : std::uint8_t { kSource, kRelay, kDestination };

  static NodeRuntime source(const coding::CodingParams& params,
                            std::uint32_t session_id, std::uint64_t data_seed,
                            const codes::CodeSpec& spec = {});
  static NodeRuntime relay(const coding::CodingParams& params,
                           std::uint32_t session_id,
                           const codes::CodeSpec& spec = {});
  static NodeRuntime destination(const coding::CodingParams& params,
                                 const codes::CodeSpec& spec = {});

  Role role() const { return role_; }
  const codes::CodeSpec& code_spec() const { return spec_; }

  /// The generation this node currently works on: the id the source is
  /// emitting, the relay is buffering, or the destination is decoding.
  std::uint32_t generation_id() const;

  /// True if this node holds something transmittable.  `live_generation` is
  /// the id the session's source is currently emitting; a relay stuck on an
  /// older generation must stay silent.
  bool can_send(std::uint32_t live_generation) const;

  /// Emits one coded packet from the source encoder or the relay's recode
  /// basis.  Requires can_send().  `structure` (optional) receives the
  /// packet's coefficient structure for wire compression; dense-spec
  /// emissions are byte- and draw-identical to the pre-family pipeline.
  coding::CodedPacket next_packet(Rng& rng,
                                  coding::CodedStructure* structure = nullptr);

  /// Allocation-free variant: fills `out` reusing its vectors' capacity.
  /// Identical output bytes (and rng draw sequence) to next_packet().
  void next_packet_into(Rng& rng, coding::CodedPacket* out,
                        coding::CodedStructure* structure = nullptr);

  /// The draw half of next_packet_into() (DESIGN.md §9): the same rng
  /// draws, header, coefficients and structure, with `out`'s payload left
  /// empty and its recipe in `fold`.
  void draw_into(Rng& rng, coding::CodedPacket* out,
                 coding::CodedStructure* structure, coding::PayloadFold* fold);

  /// The fold half: writes `fold`'s payload from this node's rows into
  /// `payload` (block_bytes bytes).  Exact only until the rows change — a
  /// relay's flush_to(), the source's next generation.
  void fold_into(const coding::PayloadFold& fold, std::uint8_t* payload) const;

  struct ReceiveOutcome {
    bool innovative = false;
    /// Destination only: the decoder just reached full rank.
    bool generation_complete = false;
    /// Destination only: pivot column the packet claimed, -1 if rejected.
    int pivot = -1;
    /// Destination only: landed via the systematic zero-work fast path.
    bool uncoded = false;
  };

  /// Absorbs a packet of this node's current generation (relay or
  /// destination).  The overloads without a structure treat the packet as
  /// dense.
  ReceiveOutcome receive(const coding::CodedPacket& packet);
  ReceiveOutcome receive(const coding::CodedPacketView& view);

  /// Zero-copy family-aware variant: the view's coefficient span holds the
  /// structure's explicit bytes (all n for dense, the window for banded,
  /// empty for an uncoded original), exactly as DataFrameView::parse yields.
  ReceiveOutcome receive(const coding::CodedPacketView& view,
                         const coding::CodedStructure& structure);

  // --- source lifecycle --------------------------------------------------

  /// CBR gate: starts generation g once g+1 generations' worth of bytes have
  /// arrived, unless `max_generations` are already done.  Returns true when
  /// a generation actually started.
  bool maybe_start_generation(double now, double cbr_bytes_per_s,
                              int max_generations);
  /// ACK bookkeeping: retires the active generation and advances the emitted
  /// id.
  void complete_generation();

  bool generation_active() const { return generation_active_; }
  double generation_start_time() const { return generation_start_time_; }
  int generations_completed() const { return generations_completed_; }
  /// The plaintext of the active generation (end-to-end integrity checks).
  const coding::Generation& generation() const;

  // --- relay lifecycle ---------------------------------------------------

  /// Discards the buffered generation and retargets `generation_id`.
  /// Returns false (no-op) when already there.
  bool flush_to(std::uint32_t generation_id);

  // --- destination lifecycle --------------------------------------------

  /// The recovered plaintext of the completed generation.
  std::vector<std::uint8_t> recover() const;
  /// recover() byte count for this session's coding geometry.
  std::size_t recovered_size() const;
  /// Allocation-free recovery into a caller-owned buffer of exactly
  /// recovered_size() bytes; byte-identical to recover().
  void recover_into(std::span<std::uint8_t> out) const;
  /// Moves the decoder to the next generation; stale packets are rejected by
  /// generation id from now on.
  void advance_generation();

  std::size_t rank() const;

 private:
  NodeRuntime(Role role, const coding::CodingParams& params,
              std::uint32_t session_id, std::uint64_t data_seed,
              const codes::CodeSpec& spec);

  Role role_;
  coding::CodingParams params_;
  std::uint32_t session_id_ = 0;
  std::uint64_t data_seed_ = 0;
  codes::CodeSpec spec_;  // clamped to params_

  // Source state.
  std::unique_ptr<coding::Generation> source_generation_;
  std::optional<codes::FamilyEncoder> encoder_;
  std::uint32_t current_generation_ = 0;
  bool generation_active_ = false;
  double generation_start_time_ = 0.0;
  int generations_completed_ = 0;

  // Relay / destination state.
  std::unique_ptr<codes::FamilyRecoder> recoder_;
  std::unique_ptr<codes::FamilyDecoder> decoder_;
};

}  // namespace omnc::protocols
