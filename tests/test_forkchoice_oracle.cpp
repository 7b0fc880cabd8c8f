// Differential suite: the dense block tree and the single-pass LMD-GHOST
// head against the frozen hash-walk tree and per-child rescan
// (tests/oracles/forkchoice_oracle.hpp) on seeded random multi-fork
// trees.  Every head, subtree weight and ancestor answer must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/chain/forkchoice.hpp"
#include "src/support/random.hpp"
#include "tests/oracles/forkchoice_oracle.hpp"

namespace leak {
namespace {

constexpr std::uint32_t kValidators = 24;
constexpr Epoch kEpoch{2};

/// One random scenario, mirrored into both implementations.
struct Mirror {
  chain::ValidatorRegistry registry{kValidators};
  chain::BlockTree tree;
  oracle::HashBlockTree ref_tree;
  chain::ForkChoice fc{tree, registry};
  oracle::RescanForkChoice ref_fc{ref_tree, registry};
  std::vector<chain::Digest> known;
  /// Blocks built on known parents but never inserted: votes and the
  /// boost can point at them, as when an attestation outruns its block.
  std::vector<chain::Digest> withheld;

  void vote(ValidatorIndex v, const chain::Digest& block, Slot slot) {
    fc.on_attestation(v, block, slot);
    ref_fc.on_attestation(v, block, slot);
  }
};

void build(Mirror& m, Rng& rng, int blocks) {
  m.known.push_back(m.tree.genesis_id());
  std::uint64_t next_slot = 1;
  for (int i = 0; i < blocks; ++i) {
    // Favour recent parents so branches grow deep as well as wide.
    const std::size_t span = std::min<std::size_t>(m.known.size(), 8);
    const std::size_t pick = rng.bernoulli(0.7)
                                 ? m.known.size() - 1 - rng.uniform_index(span)
                                 : rng.uniform_index(m.known.size());
    const auto b = chain::Block::make(
        m.known[pick], Slot{next_slot++},
        ValidatorIndex{static_cast<std::uint32_t>(rng.uniform_index(16))});
    if (rng.bernoulli(0.1)) {
      m.withheld.push_back(b.id);
      continue;
    }
    ASSERT_TRUE(m.tree.insert(b));
    ASSERT_TRUE(m.ref_tree.insert(b));
    m.known.push_back(b.id);
  }
}

void populate(Mirror& m, Rng& rng) {
  for (std::uint32_t i = 0; i < kValidators; ++i) {
    const ValidatorIndex v{i};
    // Half keep the default stake, so equal-weight ties reach the
    // block-id tie-break.
    if (rng.bernoulli(0.5)) {
      m.registry.at(v).balance = Gwei{16'000'000'000 + rng.uniform_index(
                                                           16'000'000'000)};
    }
    if (rng.bernoulli(0.15)) m.registry.at(v).slashed = true;
    // Exited before the queried epoch, or scheduled to exit after it.
    if (rng.bernoulli(0.15)) m.registry.eject(v, Epoch{1});
    if (rng.bernoulli(0.1)) m.registry.eject(v, Epoch{9});
  }
  for (int k = 0; k < 3 * static_cast<int>(kValidators); ++k) {
    const ValidatorIndex v{
        static_cast<std::uint32_t>(rng.uniform_index(kValidators))};
    const bool unknown = !m.withheld.empty() && rng.bernoulli(0.15);
    const auto& block =
        unknown ? m.withheld[rng.uniform_index(m.withheld.size())]
                : m.known[rng.uniform_index(m.known.size())];
    m.vote(v, block, Slot{rng.uniform_index(64)});
  }
}

void expect_agreement(const Mirror& m, Rng& rng) {
  // Genesis plus a handful of non-genesis justified roots.
  std::vector<chain::Digest> roots{m.tree.genesis_id()};
  for (int i = 0; i < 6; ++i) {
    roots.push_back(m.known[rng.uniform_index(m.known.size())]);
  }
  for (const auto& root : roots) {
    EXPECT_EQ(m.fc.head(root, kEpoch), m.ref_fc.head(root, kEpoch));
  }
  for (const auto& id : m.known) {
    EXPECT_EQ(m.fc.subtree_weight(id, kEpoch),
              m.ref_fc.subtree_weight(id, kEpoch));
  }
  for (const auto& a : m.known) {
    for (const auto& d : m.known) {
      EXPECT_EQ(m.tree.is_ancestor(a, d), m.ref_tree.is_ancestor(a, d));
    }
  }
}

class ForkChoiceOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForkChoiceOracle, HeadWeightsAndAncestryMatchRescan) {
  Rng rng(GetParam());
  Mirror m;
  build(m, rng, 60);
  populate(m, rng);
  ASSERT_FALSE(m.withheld.empty());

  // Boost off.
  expect_agreement(m, rng);
  // Boost on a received block, at mainnet and at a dominant percentage.
  for (const unsigned percent : {40u, 90u}) {
    const auto& boosted = m.known[rng.uniform_index(m.known.size())];
    m.fc.set_proposer_boost(boosted, percent);
    m.ref_fc.set_proposer_boost(boosted, percent);
    expect_agreement(m, rng);
  }
  // Boost on a block this view has not received: weighs nothing.
  m.fc.set_proposer_boost(m.withheld.front(), 40);
  m.ref_fc.set_proposer_boost(m.withheld.front(), 40);
  expect_agreement(m, rng);
  // Cleared again.
  m.fc.clear_proposer_boost();
  m.ref_fc.clear_proposer_boost();
  expect_agreement(m, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForkChoiceOracle,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace leak
