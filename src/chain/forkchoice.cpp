#include "src/chain/forkchoice.hpp"

namespace leak::chain {

ForkChoice::ForkChoice(const BlockTree& tree,
                       const ValidatorRegistry& registry)
    : tree_(tree), registry_(registry) {}

void ForkChoice::on_attestation(ValidatorIndex v, const Digest& block,
                                Slot slot) {
  const auto it = votes_.find(v);
  if (it != votes_.end() && it->second.slot >= slot) return;
  votes_[v] = Vote{block, slot};
}

std::optional<Digest> ForkChoice::latest_vote(ValidatorIndex v) const {
  const auto it = votes_.find(v);
  if (it == votes_.end()) return std::nullopt;
  return it->second.block;
}

std::vector<Gwei> ForkChoice::subtree_weights(BlockTree::Index root,
                                              Epoch e) const {
  using Index = BlockTree::Index;
  const auto n = static_cast<Index>(tree_.size());
  std::vector<Gwei> w(n - root);
  // Descendants of root were inserted after it, so a block with a lower
  // index can never be inside root's subtree.
  const auto weight_of = [&](const Digest& block) -> Gwei* {
    const auto i = tree_.find(block);
    return i && *i >= root ? &w[*i - root] : nullptr;
  };
  for (const auto& [v, vote] : votes_) {
    if (!registry_.is_active(v, e)) continue;
    // Equivocation discounting: slashed validators' latest messages no
    // longer count toward fork choice.
    if (registry_.at(v).slashed) continue;
    // Votes for blocks this view has not received yet weigh nothing
    // (the attestation can arrive before the block it points at).
    if (Gwei* acc = weight_of(vote.block)) *acc += registry_.at(v).balance;
  }
  // Proposer boost: the current slot's timely proposal pulls extra
  // weight into every subtree that contains it.
  if (boosted_block_) {
    if (Gwei* acc = weight_of(*boosted_block_)) {
      const Gwei active = registry_.total_active_balance(e);
      *acc += Gwei{active.value() * boost_percent_ / 100};
    }
  }
  // Children come after parents in insertion order: one reverse sweep
  // completes every subtree sum before its parent reads it.
  for (Index i = n - 1; i > root; --i) {
    const Index p = tree_.parent(i);
    if (p >= root) w[p - root] += w[i - root];
  }
  return w;
}

Gwei ForkChoice::subtree_weight(const Digest& root, Epoch e) const {
  return subtree_weights(tree_.index_of(root), e).front();
}

void ForkChoice::set_proposer_boost(const Digest& block, unsigned percent) {
  boosted_block_ = block;
  boost_percent_ = percent;
}

void ForkChoice::clear_proposer_boost() {
  boosted_block_.reset();
  boost_percent_ = 0;
}

Digest ForkChoice::head(const Digest& justified_root, Epoch e) const {
  // An unknown root has no children in this view: it is its own head.
  const auto root = tree_.find(justified_root);
  if (!root) return justified_root;
  const std::vector<Gwei> w = subtree_weights(*root, e);
  BlockTree::Index cur = *root;
  while (true) {
    const auto& kids = tree_.child_indices(cur);
    if (kids.empty()) return tree_.block(cur).id;
    // Pick the heaviest child; break ties by block id for determinism
    // across validators (the real protocol also has a deterministic rule).
    BlockTree::Index best = kids.front();
    for (std::size_t k = 1; k < kids.size(); ++k) {
      const BlockTree::Index c = kids[k];
      const Gwei wc = w[c - *root];
      const Gwei wb = w[best - *root];
      if (wc > wb || (wc == wb && tree_.block(c).id < tree_.block(best).id)) {
        best = c;
      }
    }
    cur = best;
  }
}

}  // namespace leak::chain
