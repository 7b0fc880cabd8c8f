#include "src/chain/blocktree.hpp"

#include <algorithm>
#include <stdexcept>

namespace leak::chain {

BlockTree::BlockTree() {
  nodes_.push_back(Node{Block::make(Digest{}, Slot{0}, ValidatorIndex{0}),
                        0, {}});
  index_.emplace(genesis_id(), 0);
}

bool BlockTree::insert(const Block& b) {
  if (index_.contains(b.id)) return false;
  const auto parent_it = index_.find(b.parent);
  if (parent_it == index_.end()) {
    throw std::invalid_argument("BlockTree::insert: unknown parent");
  }
  const Index p = parent_it->second;
  if (b.slot <= nodes_[p].block.slot) {
    throw std::invalid_argument("BlockTree::insert: slot not increasing");
  }
  const auto i = static_cast<Index>(nodes_.size());
  nodes_.push_back(Node{b, p, {}});
  nodes_[p].children.push_back(i);
  index_.emplace(b.id, i);
  return true;
}

bool BlockTree::contains(const Digest& id) const {
  return index_.contains(id);
}

std::optional<BlockTree::Index> BlockTree::find(const Digest& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

BlockTree::Index BlockTree::index_of(const Digest& id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    throw std::out_of_range("BlockTree: unknown block");
  }
  return it->second;
}

const Block& BlockTree::at(const Digest& id) const {
  return nodes_[index_of(id)].block;
}

std::vector<Digest> BlockTree::children(const Digest& id) const {
  std::vector<Digest> out;
  if (const auto i = find(id)) {
    for (const Index c : nodes_[*i].children) out.push_back(nodes_[c].block.id);
  }
  return out;
}

bool BlockTree::is_ancestor(const Digest& ancestor,
                            const Digest& descendant) const {
  const Index a = index_of(ancestor);
  const Slot target_slot = nodes_[a].block.slot;
  Index cur = index_of(descendant);
  // Genesis (slot 0, its own parent) stops every walk.
  while (nodes_[cur].block.slot > target_slot) cur = nodes_[cur].parent;
  return cur == a;
}

Digest BlockTree::ancestor_at_slot(const Digest& id, Slot slot) const {
  Index cur = index_of(id);
  while (nodes_[cur].block.slot > slot) cur = nodes_[cur].parent;
  return nodes_[cur].block.id;
}

std::vector<Digest> BlockTree::chain_to(const Digest& id) const {
  std::vector<Digest> out;
  Index cur = index_of(id);
  while (true) {
    out.push_back(nodes_[cur].block.id);
    if (cur == 0) break;
    cur = nodes_[cur].parent;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::vector<Digest> BlockTree::leaves() const {
  std::vector<Digest> out;
  for (const Node& node : nodes_) {
    if (node.children.empty()) out.push_back(node.block.id);
  }
  return out;
}

Checkpoint BlockTree::checkpoint_on_branch(const Digest& head,
                                           Epoch epoch) const {
  return Checkpoint{ancestor_at_slot(head, epoch.start_slot()), epoch};
}

}  // namespace leak::chain
