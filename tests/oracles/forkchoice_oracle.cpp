// Verbatim pre-dense-tree block tree walk and fork-choice rescan.  See
// the header for the contract; the bodies below are the last revision
// of src/chain/blocktree.cpp and src/chain/forkchoice.cpp before the
// single-pass rewrite, reduced to what the differential suite calls.
#include "tests/oracles/forkchoice_oracle.hpp"

#include <stdexcept>

namespace leak::oracle {

// --- HashBlockTree -----------------------------------------------------

const std::vector<Digest> HashBlockTree::kNoChildren{};

HashBlockTree::HashBlockTree() {
  Block g = Block::make(Digest{}, Slot{0}, ValidatorIndex{0});
  genesis_id_ = g.id;
  blocks_.emplace(g.id, g);
}

bool HashBlockTree::insert(const Block& b) {
  if (blocks_.contains(b.id)) return false;
  const auto parent_it = blocks_.find(b.parent);
  if (parent_it == blocks_.end()) {
    throw std::invalid_argument("BlockTree::insert: unknown parent");
  }
  if (b.slot <= parent_it->second.slot) {
    throw std::invalid_argument("BlockTree::insert: slot not increasing");
  }
  blocks_.emplace(b.id, b);
  children_[b.parent].push_back(b.id);
  return true;
}

bool HashBlockTree::contains(const Digest& id) const {
  return blocks_.contains(id);
}

const Block& HashBlockTree::at(const Digest& id) const {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    throw std::out_of_range("BlockTree::at: unknown block");
  }
  return it->second;
}

const std::vector<Digest>& HashBlockTree::children(const Digest& id) const {
  const auto it = children_.find(id);
  return it == children_.end() ? kNoChildren : it->second;
}

bool HashBlockTree::is_ancestor(const Digest& ancestor,
                                const Digest& descendant) const {
  Digest cur = descendant;
  const Slot target_slot = at(ancestor).slot;
  while (true) {
    if (cur == ancestor) return true;
    const Block& b = at(cur);
    if (b.slot <= target_slot) return false;
    if (cur == genesis_id_) return false;
    cur = b.parent;
  }
}

// --- RescanForkChoice --------------------------------------------------

RescanForkChoice::RescanForkChoice(const HashBlockTree& tree,
                                   const chain::ValidatorRegistry& registry)
    : tree_(tree), registry_(registry) {}

void RescanForkChoice::on_attestation(ValidatorIndex v, const Digest& block,
                                      Slot slot) {
  const auto it = votes_.find(v);
  if (it != votes_.end() && it->second.slot >= slot) return;
  votes_[v] = Vote{block, slot};
}

Gwei RescanForkChoice::subtree_weight(const Digest& root, Epoch e) const {
  Gwei total{};
  for (const auto& [v, vote] : votes_) {
    if (!registry_.is_active(v, e)) continue;
    // Equivocation discounting: slashed validators' latest messages no
    // longer count toward fork choice.
    if (registry_.at(v).slashed) continue;
    // Votes for blocks this view has not received yet weigh nothing
    // (the attestation can arrive before the block it points at).
    if (!tree_.contains(vote.block)) continue;
    if (tree_.is_ancestor(root, vote.block)) {
      total += registry_.at(v).balance;
    }
  }
  // Proposer boost: the current slot's timely proposal pulls extra
  // weight into every subtree that contains it.
  if (boosted_block_ && tree_.contains(*boosted_block_) &&
      tree_.is_ancestor(root, *boosted_block_)) {
    const Gwei active = registry_.total_active_balance(e);
    total += Gwei{active.value() * boost_percent_ / 100};
  }
  return total;
}

void RescanForkChoice::set_proposer_boost(const Digest& block,
                                          unsigned percent) {
  boosted_block_ = block;
  boost_percent_ = percent;
}

void RescanForkChoice::clear_proposer_boost() {
  boosted_block_.reset();
  boost_percent_ = 0;
}

Digest RescanForkChoice::head(const Digest& justified_root, Epoch e) const {
  Digest cur = justified_root;
  while (true) {
    const auto& kids = tree_.children(cur);
    if (kids.empty()) return cur;
    // Pick the heaviest child; break ties by block id for determinism
    // across validators (the real protocol also has a deterministic rule).
    Digest best = kids.front();
    Gwei best_w = subtree_weight(best, e);
    for (std::size_t i = 1; i < kids.size(); ++i) {
      const Gwei w = subtree_weight(kids[i], e);
      if (w > best_w || (w == best_w && kids[i] < best)) {
        best = kids[i];
        best_w = w;
      }
    }
    cur = best;
  }
}

}  // namespace leak::oracle
