#include "tests/oracles/spec_finality_oracle.hpp"

#include <stdexcept>

namespace leak::oracle {

void JustificationBits::shift() {
  for (std::size_t i = bits_.size() - 1; i > 0; --i) {
    bits_[i] = bits_[i - 1];
  }
  bits_[0] = false;
}

void JustificationBits::set(std::size_t i) { bits_.at(i) = true; }

GasperFinalizer::GasperFinalizer(chain::Checkpoint genesis)
    : previous_justified_(genesis),
      current_justified_(genesis),
      finalized_(genesis) {
  bits_.set(0);
}

GasperFinalizer::EpochOutcome GasperFinalizer::process(
    const EpochInput& in) {
  if (in.current.value() != last_processed_.value() + 1 &&
      !(last_processed_.value() == 0 && in.current.value() == 1)) {
    throw std::invalid_argument(
        "GasperFinalizer::process: epochs must advance by one");
  }
  last_processed_ = in.current;

  EpochOutcome out;
  // Spec: snapshot, then rotate.
  const chain::Checkpoint old_previous = previous_justified_;
  const chain::Checkpoint old_current = current_justified_;
  previous_justified_ = current_justified_;
  bits_.shift();

  if (in.previous_justified_now) {
    if (in.previous_target.epoch.next() != in.current) {
      throw std::invalid_argument("previous_target must be current - 1");
    }
    if (in.previous_target.epoch > current_justified_.epoch) {
      current_justified_ = in.previous_target;
      out.newly_justified = in.previous_target;
    }
    bits_.set(1);
  }
  if (in.current_justified_now) {
    if (in.current_target.epoch != in.current) {
      throw std::invalid_argument("current_target must be current epoch");
    }
    current_justified_ = in.current_target;
    out.newly_justified = in.current_target;
    bits_.set(0);
  }

  // The four finalization rules.
  const auto e = in.current.value();
  const auto b = bits_.raw();
  if (b[1] && b[2] && b[3] && old_previous.epoch.value() + 3 == e) {
    finalized_ = old_previous;
    out.finalization_rule = 1;
  } else if (b[1] && b[2] && old_previous.epoch.value() + 2 == e) {
    finalized_ = old_previous;
    out.finalization_rule = 2;
  }
  if (b[0] && b[1] && b[2] && old_current.epoch.value() + 2 == e) {
    finalized_ = old_current;
    out.finalization_rule = 3;
  } else if (b[0] && b[1] && old_current.epoch.value() + 1 == e) {
    finalized_ = old_current;
    out.finalization_rule = 4;
  }
  if (out.finalization_rule != 0) out.newly_finalized = finalized_;
  return out;
}

}  // namespace leak::oracle
