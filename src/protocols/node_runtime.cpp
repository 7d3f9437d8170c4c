#include "protocols/node_runtime.h"

#include "common/assert.h"

namespace omnc::protocols {

NodeRuntime::NodeRuntime(Role role, const coding::CodingParams& params,
                         std::uint32_t session_id, std::uint64_t data_seed,
                         const codes::CodeSpec& spec)
    : role_(role),
      params_(params),
      session_id_(session_id),
      data_seed_(data_seed),
      spec_(spec.clamped_for(params)) {
  switch (role_) {
    case Role::kSource:
      break;
    case Role::kRelay:
      recoder_ = std::make_unique<codes::FamilyRecoder>(
          params_, session_id_, /*generation_id=*/0, spec_);
      break;
    case Role::kDestination:
      decoder_ = std::make_unique<codes::FamilyDecoder>(
          params_, /*generation_id=*/0, spec_);
      break;
  }
}

NodeRuntime NodeRuntime::source(const coding::CodingParams& params,
                                std::uint32_t session_id,
                                std::uint64_t data_seed,
                                const codes::CodeSpec& spec) {
  return NodeRuntime(Role::kSource, params, session_id, data_seed, spec);
}

NodeRuntime NodeRuntime::relay(const coding::CodingParams& params,
                               std::uint32_t session_id,
                               const codes::CodeSpec& spec) {
  return NodeRuntime(Role::kRelay, params, session_id, /*data_seed=*/0, spec);
}

NodeRuntime NodeRuntime::destination(const coding::CodingParams& params,
                                     const codes::CodeSpec& spec) {
  return NodeRuntime(Role::kDestination, params, /*session_id=*/0,
                     /*data_seed=*/0, spec);
}

std::uint32_t NodeRuntime::generation_id() const {
  switch (role_) {
    case Role::kSource:
      return current_generation_;
    case Role::kRelay:
      return recoder_->generation_id();
    case Role::kDestination:
      return decoder_->generation_id();
  }
  return 0;  // unreachable
}

bool NodeRuntime::can_send(std::uint32_t live_generation) const {
  switch (role_) {
    case Role::kSource:
      return generation_active_;
    case Role::kRelay:
      return recoder_->generation_id() == live_generation &&
             recoder_->can_send();
    case Role::kDestination:
      return false;
  }
  return false;  // unreachable
}

coding::CodedPacket NodeRuntime::next_packet(
    Rng& rng, coding::CodedStructure* structure) {
  coding::CodedPacket out;
  next_packet_into(rng, &out, structure);
  return out;
}

void NodeRuntime::next_packet_into(Rng& rng, coding::CodedPacket* out,
                                   coding::CodedStructure* structure) {
  coding::CodedStructure local;
  coding::CodedStructure* sink = structure ? structure : &local;
  if (role_ == Role::kSource) {
    OMNC_ASSERT(encoder_.has_value());
    encoder_->next_packet_into(rng, out, sink);
    return;
  }
  OMNC_ASSERT(role_ == Role::kRelay);
  recoder_->recode_into(rng, out, sink);
}

void NodeRuntime::draw_into(Rng& rng, coding::CodedPacket* out,
                            coding::CodedStructure* structure,
                            coding::PayloadFold* fold) {
  if (role_ == Role::kSource) {
    OMNC_ASSERT(encoder_.has_value());
    encoder_->draw_into(rng, out, structure, fold);
    return;
  }
  OMNC_ASSERT(role_ == Role::kRelay);
  recoder_->draw_into(rng, out, structure, fold);
}

void NodeRuntime::fold_into(const coding::PayloadFold& fold,
                            std::uint8_t* payload) const {
  if (role_ == Role::kSource) {
    OMNC_ASSERT(encoder_.has_value());
    encoder_->fold_into(fold, payload);
    return;
  }
  OMNC_ASSERT(role_ == Role::kRelay);
  recoder_->fold_into(fold, payload);
}

NodeRuntime::ReceiveOutcome NodeRuntime::receive(
    const coding::CodedPacket& packet) {
  return receive(packet.as_view(), coding::CodedStructure::make_dense());
}

NodeRuntime::ReceiveOutcome NodeRuntime::receive(
    const coding::CodedPacketView& view) {
  return receive(view, coding::CodedStructure::make_dense());
}

NodeRuntime::ReceiveOutcome NodeRuntime::receive(
    const coding::CodedPacketView& view,
    const coding::CodedStructure& structure) {
  ReceiveOutcome outcome;
  switch (role_) {
    case Role::kSource:
      break;  // the source ignores data packets
    case Role::kRelay:
      outcome.innovative = recoder_->offer(view, structure);
      break;
    case Role::kDestination: {
      const codes::FamilyDecoder::OfferResult result =
          decoder_->offer(view, structure);
      outcome.innovative = result.innovative;
      outcome.pivot = result.pivot;
      outcome.uncoded = result.uncoded;
      outcome.generation_complete = decoder_->complete();
      break;
    }
  }
  return outcome;
}

bool NodeRuntime::maybe_start_generation(double now, double cbr_bytes_per_s,
                                         int max_generations) {
  OMNC_ASSERT(role_ == Role::kSource);
  if (generation_active_) return false;
  if (generations_completed_ >= max_generations) return false;
  // CBR source: generation g exists once (g+1) * generation_bytes have
  // arrived.
  const double bytes_arrived = cbr_bytes_per_s * now;
  const double needed = static_cast<double>(current_generation_ + 1) *
                        static_cast<double>(params_.generation_bytes());
  if (bytes_arrived + 1e-9 < needed) return false;
  if (!source_generation_) {
    // On the heap, so the encoder's borrow survives moves of this runtime.
    source_generation_ =
        std::make_unique<coding::Generation>(current_generation_, params_);
    encoder_.emplace(*source_generation_, session_id_, spec_);
  }
  // One generation buffer for the whole session, refilled in place; the
  // encoder borrows it and restarts its emission sequence.
  source_generation_->refill_synthetic(current_generation_, data_seed_);
  encoder_->rewind();
  generation_active_ = true;
  generation_start_time_ = now;
  return true;
}

void NodeRuntime::complete_generation() {
  OMNC_ASSERT(role_ == Role::kSource);
  OMNC_ASSERT(generation_active_);
  ++generations_completed_;
  generation_active_ = false;
  ++current_generation_;
}

const coding::Generation& NodeRuntime::generation() const {
  OMNC_ASSERT(role_ == Role::kSource);
  OMNC_ASSERT(source_generation_ != nullptr);
  return *source_generation_;
}

bool NodeRuntime::flush_to(std::uint32_t generation_id) {
  if (role_ != Role::kRelay) return false;
  if (recoder_->generation_id() == generation_id) return false;
  recoder_->reset(generation_id);
  return true;
}

std::vector<std::uint8_t> NodeRuntime::recover() const {
  OMNC_ASSERT(role_ == Role::kDestination);
  return decoder_->recover();
}

std::size_t NodeRuntime::recovered_size() const {
  OMNC_ASSERT(role_ == Role::kDestination);
  return decoder_->recovered_size();
}

void NodeRuntime::recover_into(std::span<std::uint8_t> out) const {
  OMNC_ASSERT(role_ == Role::kDestination);
  decoder_->recover_into(out);
}

void NodeRuntime::advance_generation() {
  OMNC_ASSERT(role_ == Role::kDestination);
  decoder_->reset(decoder_->generation_id() + 1);
}

std::size_t NodeRuntime::rank() const {
  switch (role_) {
    case Role::kSource:
      return 0;
    case Role::kRelay:
      return recoder_->rank();
    case Role::kDestination:
      return decoder_->rank();
  }
  return 0;  // unreachable
}

}  // namespace omnc::protocols
