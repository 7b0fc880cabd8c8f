// The local tree of blocks every validator maintains (Section 2 of the
// paper: "a local data structure in form of a tree containing all the
// blocks perceived").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/chain/block.hpp"

namespace leak::chain {

/// Append-only block tree rooted at a genesis block.
///
/// Blocks live in one dense, insertion-ordered array: a block's index is
/// its insertion rank (genesis is 0), and since a parent must be present
/// before its child, every parent index is below its children's.  Walks
/// toward genesis follow parent indices; the only digest lookup is the
/// one that turns a caller's digest into an index.
class BlockTree {
 public:
  /// Dense block position (insertion rank).
  using Index = std::uint32_t;

  /// Create a tree with a genesis block at slot 0.
  BlockTree();

  /// Like at() and block(), the reference is invalidated by insert().
  [[nodiscard]] const Block& genesis() const { return nodes_.front().block; }
  [[nodiscard]] Digest genesis_id() const { return genesis().id; }

  /// Insert a block.  The parent must already be known and have a lower
  /// slot.  Returns false (no-op) when the block is already present;
  /// throws on an unknown parent or non-increasing slot.
  bool insert(const Block& b);

  [[nodiscard]] bool contains(const Digest& id) const;
  /// Throws std::out_of_range on an unknown block.  The reference is
  /// invalidated by the next insert().
  [[nodiscard]] const Block& at(const Digest& id) const;
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// All children of a block, in insertion order (empty when unknown).
  [[nodiscard]] std::vector<Digest> children(const Digest& id) const;

  /// Is `ancestor` on the path from `descendant` to genesis (inclusive)?
  /// Throws std::out_of_range when either block is unknown.
  [[nodiscard]] bool is_ancestor(const Digest& ancestor,
                                 const Digest& descendant) const;

  /// The ancestor of `id` with the highest slot <= `slot` (used to find
  /// the epoch-boundary block for checkpoints).
  [[nodiscard]] Digest ancestor_at_slot(const Digest& id, Slot slot) const;

  /// Chain from genesis to `id` (inclusive), genesis first.
  [[nodiscard]] std::vector<Digest> chain_to(const Digest& id) const;

  /// Blocks without children, in insertion order.
  [[nodiscard]] std::vector<Digest> leaves() const;

  /// The epoch-boundary checkpoint for `epoch` on the branch ending at
  /// `head`: the block of the first slot of the epoch or, when that slot
  /// was empty, the latest ancestor before it.
  [[nodiscard]] Checkpoint checkpoint_on_branch(const Digest& head,
                                                Epoch epoch) const;

  // ---- index-addressed access (fork choice) --------------------------

  /// Index of a block, or nullopt when unknown.
  [[nodiscard]] std::optional<Index> find(const Digest& id) const;
  /// Index of a block; throws std::out_of_range when unknown.
  [[nodiscard]] Index index_of(const Digest& id) const;
  /// The reference is invalidated by the next insert().
  [[nodiscard]] const Block& block(Index i) const { return nodes_[i].block; }
  /// Parent index; genesis (index 0) is its own parent.
  [[nodiscard]] Index parent(Index i) const { return nodes_[i].parent; }
  /// The reference is invalidated by the next insert().
  [[nodiscard]] const std::vector<Index>& child_indices(Index i) const {
    return nodes_[i].children;
  }

 private:
  struct Node {
    Block block;
    Index parent = 0;
    std::vector<Index> children;
  };

  std::vector<Node> nodes_;
  std::unordered_map<Digest, Index, DigestHash> index_;
};

}  // namespace leak::chain
