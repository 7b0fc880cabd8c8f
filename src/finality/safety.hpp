// Safety monitor: detects conflicting finalization across validator (or
// branch) views — the paper's Safety-loss outcome (1).
#pragma once

#include <optional>
#include <vector>

#include "src/chain/blocktree.hpp"
#include "src/finality/ffg.hpp"

namespace leak::finality {

/// A detected safety violation: two finalized checkpoints on divergent
/// branches (neither block is an ancestor of the other).
struct SafetyViolation {
  Checkpoint a{};
  Checkpoint b{};
};

/// Collects finalized checkpoints reported by any view and checks the
/// prefix property (Property 4 of the paper) against the block tree.
class SafetyMonitor {
 public:
  explicit SafetyMonitor(const chain::BlockTree& tree);

  /// Report a finalized checkpoint; returns a violation if this
  /// checkpoint conflicts with any previously reported one (the pair
  /// names the first conflicting checkpoint in first-seen order).
  /// Reporting the same conflicting checkpoint again returns the
  /// violation again.
  std::optional<SafetyViolation> report(const Checkpoint& c);

  [[nodiscard]] bool violated() const { return violation_.has_value(); }
  [[nodiscard]] const std::optional<SafetyViolation>& violation() const {
    return violation_;
  }
  /// The distinct checkpoints reported so far, in first-seen order.
  [[nodiscard]] const std::vector<Checkpoint>& reported() const {
    return distinct_;
  }

 private:
  const chain::BlockTree& tree_;
  /// Every view reports the same finalized checkpoints, so the scan
  /// runs over distinct ones only: a repeat conflicts exactly when its
  /// first occurrence does.
  std::vector<Checkpoint> distinct_;
  std::optional<SafetyViolation> violation_;
};

}  // namespace leak::finality
