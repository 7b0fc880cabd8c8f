// Pre-dense-tree fork choice, demoted to a test oracle.
//
// HashBlockTree is the block tree as it stood before blocks moved into
// one insertion-ordered array: two digest-keyed hash maps, and an
// `is_ancestor` that hashes a digest at every step of the walk.
// RescanForkChoice is LMD-GHOST as it stood before the single-pass
// weight accumulation: `head` rescans every vote, with an ancestor walk
// per vote, for every child it weighs.  Production code (src/chain/)
// no longer carries either; they exist only so the differential suite
// (tests/test_forkchoice_oracle.cpp) can check that the dense tree and
// the single-pass head agree with them on random multi-fork trees.
//
// Do not "fix" or modernize this code: its value is that it does not
// change.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chain/block.hpp"
#include "src/chain/registry.hpp"

namespace leak::oracle {

using chain::Block;
using chain::Digest;
using chain::DigestHash;

/// Append-only block tree keyed by digest (hash-walk reference).
class HashBlockTree {
 public:
  HashBlockTree();

  bool insert(const Block& b);
  [[nodiscard]] bool contains(const Digest& id) const;
  [[nodiscard]] const Block& at(const Digest& id) const;
  [[nodiscard]] const std::vector<Digest>& children(const Digest& id) const;
  [[nodiscard]] bool is_ancestor(const Digest& ancestor,
                                 const Digest& descendant) const;

 private:
  std::unordered_map<Digest, Block, DigestHash> blocks_;
  std::unordered_map<Digest, std::vector<Digest>, DigestHash> children_;
  Digest genesis_id_{};
  static const std::vector<Digest> kNoChildren;
};

/// LMD-GHOST by per-child vote rescans (reference).
class RescanForkChoice {
 public:
  RescanForkChoice(const HashBlockTree& tree,
                   const chain::ValidatorRegistry& registry);

  void on_attestation(ValidatorIndex v, const Digest& block, Slot slot);
  void set_proposer_boost(const Digest& block, unsigned percent = 40);
  void clear_proposer_boost();

  [[nodiscard]] Digest head(const Digest& justified_root, Epoch e) const;
  [[nodiscard]] Gwei subtree_weight(const Digest& root, Epoch e) const;

 private:
  struct Vote {
    Digest block{};
    Slot slot{};
  };

  const HashBlockTree& tree_;
  const chain::ValidatorRegistry& registry_;
  std::unordered_map<ValidatorIndex, Vote> votes_;
  std::optional<Digest> boosted_block_;
  unsigned boost_percent_ = 0;
};

}  // namespace leak::oracle
