// Spec-faithful Gasper epoch accounting, kept as a test oracle.
//
// GasperFinalizer implements the 4-bit justification bitfield and the
// four finalization rules of `process_justification_and_finalization`
// (Combining GHOST and Casper, and the consensus specs).  The paper, and
// production code (src/finality/ffg.*), work with the simplified "two
// consecutive justified checkpoints" rule; this oracle exists only so
// tests/test_spec_finality.cpp can check the simplification against the
// full rule set.
//
// with bits b[0] = current epoch justified, b[1] = previous, ...:
//   1. b[1..3] all set and old_previous + 3 == current  -> finalize old_previous
//   2. b[1..2] all set and old_previous + 2 == current  -> finalize old_previous
//   3. b[0..2] all set and old_current  + 2 == current  -> finalize old_current
//   4. b[0..1] all set and old_current  + 1 == current  -> finalize old_current
//
// Do not "fix" or modernize this code: its value is that it does not
// change.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "src/chain/block.hpp"

namespace leak::oracle {

/// The sliding 4-epoch justification window.
class JustificationBits {
 public:
  /// Bit i says: the checkpoint of (current_epoch - i) is justified.
  [[nodiscard]] bool test(std::size_t i) const { return bits_.at(i); }

  /// Shift the window one epoch (new current epoch enters unjustified).
  void shift();

  /// Mark the checkpoint `i` epochs back as justified.
  void set(std::size_t i);

  [[nodiscard]] std::array<bool, 4> raw() const { return bits_; }

 private:
  std::array<bool, 4> bits_{};
};

/// Epoch-granular justification/finalization state machine driven by
/// supermajority flags, mirroring the spec's epoch processing.  The
/// caller reports, once per epoch, whether the previous and current
/// epoch targets gathered a supermajority link from the state's
/// justified checkpoint(s).
class GasperFinalizer {
 public:
  explicit GasperFinalizer(chain::Checkpoint genesis);

  struct EpochInput {
    Epoch current{};
    /// Supermajority for the previous epoch's target (and that target).
    bool previous_justified_now = false;
    chain::Checkpoint previous_target{};
    /// Supermajority for the current epoch's target.
    bool current_justified_now = false;
    chain::Checkpoint current_target{};
  };

  struct EpochOutcome {
    std::optional<chain::Checkpoint> newly_justified;
    std::optional<chain::Checkpoint> newly_finalized;
    /// Which of the four spec rules fired (1-4), 0 when none.
    int finalization_rule = 0;
  };

  /// Process one epoch transition.  `current` must advance by exactly
  /// one epoch per call.
  EpochOutcome process(const EpochInput& in);

  [[nodiscard]] const chain::Checkpoint& justified() const {
    return current_justified_;
  }
  [[nodiscard]] const chain::Checkpoint& previous_justified() const {
    return previous_justified_;
  }
  [[nodiscard]] const chain::Checkpoint& finalized() const {
    return finalized_;
  }
  [[nodiscard]] const JustificationBits& bits() const { return bits_; }

 private:
  JustificationBits bits_;
  chain::Checkpoint previous_justified_;
  chain::Checkpoint current_justified_;
  chain::Checkpoint finalized_;
  Epoch last_processed_{0};
};

}  // namespace leak::oracle
