// LMD-GHOST fork choice (latest-message-driven, greediest heaviest
// observed sub-tree), stake-weighted, starting from the justified
// checkpoint — the "fork choice rule" of Section 3.2.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chain/blocktree.hpp"
#include "src/chain/registry.hpp"

namespace leak::chain {

/// Fork choice state: remembers each validator's latest block vote and
/// selects the head by greedily descending into the heaviest subtree.
///
/// Weights come from one pass over the votes: each counted vote's
/// balance (and the proposer boost) lands on its block's dense index,
/// then a reverse-insertion-order sweep folds every block into its
/// parent, so each subtree sum is ready before the descent starts.
class ForkChoice {
 public:
  ForkChoice(const BlockTree& tree, const ValidatorRegistry& registry);

  /// Record a block vote.  Only the latest (by slot) vote per validator
  /// counts; stale votes are ignored.
  void on_attestation(ValidatorIndex v, const Digest& block, Slot slot);

  /// Proposer boost: credit the current slot's timely proposal with
  /// extra weight (a percentage of the total active balance, 40% on
  /// mainnet) until cleared at the next slot.
  void set_proposer_boost(const Digest& block, unsigned percent = 40);
  void clear_proposer_boost();

  /// Latest vote of a validator, if any.
  [[nodiscard]] std::optional<Digest> latest_vote(ValidatorIndex v) const;

  /// Compute the head starting from `justified_root` at epoch `e`
  /// (stake weights are read at epoch e; exited validators weigh 0).
  [[nodiscard]] Digest head(const Digest& justified_root, Epoch e) const;

  /// Total stake voting inside the subtree rooted at `root` at epoch `e`.
  /// Throws std::out_of_range when `root` is not in the tree.
  [[nodiscard]] Gwei subtree_weight(const Digest& root, Epoch e) const;

 private:
  struct Vote {
    Digest block{};
    Slot slot{};
  };

  /// Subtree weight of `root` and of every block inserted after it, at
  /// offset `i - root`.  Only descendants of root are exact; entries of
  /// other blocks are partial sums that are never read.
  [[nodiscard]] std::vector<Gwei> subtree_weights(BlockTree::Index root,
                                                  Epoch e) const;

  const BlockTree& tree_;
  const ValidatorRegistry& registry_;
  std::unordered_map<ValidatorIndex, Vote> votes_;
  std::optional<Digest> boosted_block_;
  unsigned boost_percent_ = 0;
};

}  // namespace leak::chain
