// Tests for the spec-faithful 4-bit justification window and the four
// Gasper finalization rules (the oracle in tests/oracles/), including
// agreement with the paper's simplified "two consecutive justified
// checkpoints" rule that production code implements in FfgTracker.
#include <gtest/gtest.h>

#include <tuple>

#include "src/chain/blocktree.hpp"
#include "src/finality/ffg.hpp"
#include "src/support/random.hpp"
#include "tests/oracles/spec_finality_oracle.hpp"

namespace leak::oracle {
namespace {

using chain::Checkpoint;

Checkpoint cp(std::uint64_t e, const std::string& tag = "a") {
  return Checkpoint{crypto::sha256(tag + std::to_string(e)), Epoch{e}};
}

TEST(Bits, ShiftAndSet) {
  JustificationBits b;
  b.set(0);
  b.shift();
  EXPECT_FALSE(b.test(0));
  EXPECT_TRUE(b.test(1));
  b.shift();
  b.shift();
  EXPECT_TRUE(b.test(3));
  b.shift();
  EXPECT_FALSE(b.test(3));  // fell off the window
}

class FinalizerFixture : public ::testing::Test {
 protected:
  FinalizerFixture() : genesis(cp(0, "g")), fin(genesis) {}

  /// Feed an epoch where the current target gets justified.
  GasperFinalizer::EpochOutcome justify_current(std::uint64_t e) {
    GasperFinalizer::EpochInput in;
    in.current = Epoch{e};
    in.current_justified_now = true;
    in.current_target = cp(e);
    return fin.process(in);
  }

  /// Feed an epoch where only the previous target gets justified.
  GasperFinalizer::EpochOutcome justify_previous(std::uint64_t e) {
    GasperFinalizer::EpochInput in;
    in.current = Epoch{e};
    in.previous_justified_now = true;
    in.previous_target = cp(e - 1);
    return fin.process(in);
  }

  /// Feed an idle epoch (nothing justified).
  GasperFinalizer::EpochOutcome idle(std::uint64_t e) {
    GasperFinalizer::EpochInput in;
    in.current = Epoch{e};
    return fin.process(in);
  }

  Checkpoint genesis;
  GasperFinalizer fin;
};

TEST_F(FinalizerFixture, Rule4ConsecutiveCurrentJustification) {
  // Epoch 1 justifies target 1; epoch 2 justifies target 2 -> rule 4
  // finalizes checkpoint 1 (the paper's simplified rule).
  auto o1 = justify_current(1);
  EXPECT_TRUE(o1.newly_justified.has_value());
  // genesis(0) was old_current with bits[0..1] set: rule 4 fires for it.
  EXPECT_EQ(fin.finalized().epoch, Epoch{0});
  auto o2 = justify_current(2);
  EXPECT_EQ(o2.finalization_rule, 4);
  ASSERT_TRUE(o2.newly_finalized.has_value());
  EXPECT_EQ(o2.newly_finalized->epoch, Epoch{1});
  EXPECT_EQ(fin.justified().epoch, Epoch{2});
}

TEST_F(FinalizerFixture, ContinuousOperationAdvancesFinalityEachEpoch) {
  for (std::uint64_t e = 1; e <= 10; ++e) justify_current(e);
  EXPECT_EQ(fin.justified().epoch, Epoch{10});
  EXPECT_EQ(fin.finalized().epoch, Epoch{9});
}

TEST_F(FinalizerFixture, Rule2LateVotesFinalizeViaPreviousTarget) {
  // Epoch 1 justified normally; epoch 2's target only justified during
  // epoch 3 (votes arrived late): rule 2 finalizes epoch 1.
  justify_current(1);
  idle(2);
  auto o = justify_previous(3);
  EXPECT_EQ(o.finalization_rule, 2);
  ASSERT_TRUE(o.newly_finalized.has_value());
  EXPECT_EQ(o.newly_finalized->epoch, Epoch{1});
}

TEST_F(FinalizerFixture, NoFinalizationWhenJustificationSkipsEpochs) {
  // Justification only every other epoch: Section 3.2's "if
  // justification occurs only every other epoch, finalization is not
  // possible".
  justify_current(1);
  idle(2);
  justify_current(3);
  idle(4);
  justify_current(5);
  EXPECT_EQ(fin.justified().epoch, Epoch{5});
  EXPECT_EQ(fin.finalized().epoch, Epoch{0});
}

TEST_F(FinalizerFixture, Rule3DoubleJustificationInOneEpoch) {
  // Epoch 1 justified; epoch 2 idle; during epoch 3 both the previous
  // (2) and current (3) targets justify: old_current = 1 with bits
  // 0,1,2 set -> rule 3 finalizes 1.
  justify_current(1);
  idle(2);
  GasperFinalizer::EpochInput in;
  in.current = Epoch{3};
  in.previous_justified_now = true;
  in.previous_target = cp(2);
  in.current_justified_now = true;
  in.current_target = cp(3);
  auto o = fin.process(in);
  EXPECT_EQ(o.finalization_rule, 3);
  ASSERT_TRUE(o.newly_finalized.has_value());
  EXPECT_EQ(o.newly_finalized->epoch, Epoch{1});
}

TEST_F(FinalizerFixture, IdleEpochsFreezeFinality) {
  justify_current(1);
  justify_current(2);
  const auto fin_before = fin.finalized();
  for (std::uint64_t e = 3; e <= 8; ++e) idle(e);
  EXPECT_EQ(fin.finalized(), fin_before);
  EXPECT_EQ(fin.justified().epoch, Epoch{2});
}

TEST_F(FinalizerFixture, RecoveryAfterLongStall) {
  justify_current(1);
  justify_current(2);
  for (std::uint64_t e = 3; e <= 20; ++e) idle(e);  // leak territory
  justify_current(21);
  EXPECT_EQ(fin.finalized().epoch, Epoch{1});  // not yet
  justify_current(22);
  EXPECT_EQ(fin.finalized().epoch, Epoch{21});  // consecutive again
}

TEST_F(FinalizerFixture, EpochMustAdvanceByOne) {
  justify_current(1);
  GasperFinalizer::EpochInput in;
  in.current = Epoch{5};
  EXPECT_THROW(fin.process(in), std::invalid_argument);
}

TEST_F(FinalizerFixture, TargetEpochValidation) {
  GasperFinalizer::EpochInput in;
  in.current = Epoch{1};
  in.current_justified_now = true;
  in.current_target = cp(3);  // wrong epoch
  EXPECT_THROW(fin.process(in), std::invalid_argument);
}

TEST_F(FinalizerFixture, JustifiedNeverRegresses) {
  justify_current(1);
  justify_current(2);
  // A late justification of the previous epoch (1 again via epoch 2's
  // path) must not lower the justified checkpoint.
  GasperFinalizer::EpochInput in;
  in.current = Epoch{3};
  in.previous_justified_now = true;
  in.previous_target = cp(2);
  fin.process(in);
  EXPECT_EQ(fin.justified().epoch, Epoch{2});
}

// Differential check of FfgTracker against the spec's rules.  A seeded
// linear chain (some slots left empty) is voted on epoch by epoch, each
// validator joining with probability p.  Every vote is timely: its
// source is the tracker's justified checkpoint and its target the
// epoch-e checkpoint.  With timely votes only, the spec's rule 4 is the
// simplified rule, so both must report the same justified and finalized
// checkpoints after every epoch, and no other rule may advance
// finality.  (Rule 2 does fire in an unjustified epoch that follows two
// justified ones, but it only re-finalizes the checkpoint rule 4
// finalized one epoch earlier.)
class TimelyVotesDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(TimelyVotesDifferential, TrackerMatchesSpecRules) {
  const auto [seed, p] = GetParam();
  constexpr std::uint32_t kValidators = 30;
  constexpr std::uint64_t kEpochs = 40;
  Rng rng(seed);
  chain::BlockTree tree;
  const chain::ValidatorRegistry registry(kValidators);
  const Checkpoint genesis{tree.genesis_id(), Epoch{0}};
  finality::FfgTracker ffg(registry, genesis);
  GasperFinalizer spec(genesis);

  chain::Digest head = tree.genesis_id();
  std::uint64_t next_slot = 1;
  int rule4 = 0;
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    // Extend the chain through the first slot of epoch e.
    for (; next_slot <= Epoch{e}.start_slot().value(); ++next_slot) {
      if (!rng.bernoulli(0.8)) continue;
      const auto b = chain::Block::make(
          head, Slot{next_slot},
          ValidatorIndex{static_cast<std::uint32_t>(next_slot % kValidators)});
      tree.insert(b);
      head = b.id;
    }
    const Checkpoint source = ffg.justified();
    const Checkpoint target = tree.checkpoint_on_branch(head, Epoch{e});
    for (std::uint32_t v = 0; v < kValidators; ++v) {
      if (!rng.bernoulli(p)) continue;
      chain::Attestation a;
      a.attester = ValidatorIndex{v};
      a.slot = Epoch{e}.start_slot();
      a.source = source;
      a.target = target;
      ffg.on_checkpoint_vote(a);
    }
    const auto justified = ffg.process_epoch(Epoch{e});

    GasperFinalizer::EpochInput in;
    in.current = Epoch{e};
    in.current_justified_now = justified.has_value();
    in.current_target = target;
    const Checkpoint finalized_before = spec.finalized();
    const auto out = spec.process(in);

    if (out.finalization_rule == 4) {
      ++rule4;
    } else if (out.finalization_rule != 0) {
      EXPECT_EQ(out.finalization_rule, 2) << "epoch " << e;
      EXPECT_EQ(spec.finalized(), finalized_before) << "epoch " << e;
    }
    EXPECT_EQ(ffg.justified(), spec.justified()) << "epoch " << e;
    EXPECT_EQ(ffg.finalized(), spec.finalized()) << "epoch " << e;
  }
  // Full participation justifies every epoch, so every epoch finalizes
  // its predecessor.
  if (p == 1.0) {
    EXPECT_EQ(rule4, static_cast<int>(kEpochs));
    EXPECT_EQ(spec.finalized().epoch, Epoch{kEpochs - 1});
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByParticipation, TimelyVotesDifferential,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u),
                       ::testing::Values(0.6, 0.7, 0.8, 1.0)));

}  // namespace
}  // namespace leak::oracle
