// Tests for the epoch-granular partition simulator against the paper's
// scenario outcomes and the closed-form models (protocol arithmetic vs
// continuous analysis).
#include <gtest/gtest.h>

#include <cmath>

#include "src/analytic/solvers.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/support/env.hpp"

namespace leak::sim {
namespace {

// The protocol-side simulator uses the stated 16.75 ETH threshold; the
// matching analytic reference is AnalyticConfig::stated().
const analytic::AnalyticConfig kStated = analytic::AnalyticConfig::stated();

PartitionSimConfig base(Strategy s, double beta0, double p0 = 0.5) {
  PartitionSimConfig cfg;
  // 1000 validators make every test proportion exact (e.g. beta0 = 0.33
  // -> 330 Byzantine, 335/335 honest split); near beta0 = 1/3 the
  // finalization time is extremely sensitive to rounding of the split.
  cfg.n_validators = 1000;
  cfg.beta0 = beta0;
  cfg.p0 = p0;
  cfg.strategy = s;
  cfg.max_epochs = 6000;
  return cfg;
}

TEST(Scenario51, HonestOnlyConflictingFinalizationAtEjection) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0));
  // Both branches regain 2/3 only through the ejection of the inactive
  // class; the sim's integer arithmetic lands within epochs of the
  // closed form (4661 for the 16.75 threshold), +1 to finalize.
  const double expect =
      analytic::ejection_epoch(analytic::Behavior::kInactive, kStated);
  ASSERT_GT(r.conflicting_finalization_epoch, 0);
  EXPECT_NEAR(static_cast<double>(r.conflicting_finalization_epoch),
              expect + 1.0, 12.0);
  EXPECT_EQ(r.branch[0].supermajority_epoch, r.branch[1].supermajority_epoch);
}

TEST(Scenario51, UnevenSplitFinalizesFasterOnBiggerBranch) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0, 0.6));
  // Branch 1 (p0 = 0.6) crosses at ~3107; branch 2 (0.4) only at the
  // ejection wave.
  EXPECT_NEAR(static_cast<double>(r.branch[0].supermajority_epoch), 3107.0,
              15.0);
  EXPECT_GT(r.branch[1].supermajority_epoch, 4500);
  EXPECT_EQ(r.conflicting_finalization_epoch,
            r.branch[1].finalization_epoch);
}

TEST(Scenario521, SlashableByzantineSpeedsConflict) {
  const auto r = run_partition_sim(base(Strategy::kSlashable, 0.2));
  const double expect =
      analytic::time_to_supermajority_slashing(0.5, 0.2, kStated);
  ASSERT_GT(r.conflicting_finalization_epoch, 0);
  EXPECT_NEAR(static_cast<double>(r.branch[0].supermajority_epoch), expect,
              expect * 0.01);
  // Much faster than honest-only.
  const auto honest = run_partition_sim(base(Strategy::kNone, 0.0));
  EXPECT_LT(r.conflicting_finalization_epoch,
            honest.conflicting_finalization_epoch);
}

TEST(Scenario521, Beta033TenTimesFaster) {
  const auto r = run_partition_sim(base(Strategy::kSlashable, 0.33));
  ASSERT_GT(r.conflicting_finalization_epoch, 0);
  // Paper Table 2: ~502 epochs (sim arithmetic lands within ~2%).
  EXPECT_NEAR(static_cast<double>(r.conflicting_finalization_epoch), 503.0,
              15.0);
}

TEST(Scenario522, SemiActiveSlowerThanSlashableButFast) {
  const auto slash = run_partition_sim(base(Strategy::kSlashable, 0.33));
  const auto semi =
      run_partition_sim(base(Strategy::kSemiActiveFinalize, 0.33));
  ASSERT_GT(semi.conflicting_finalization_epoch, 0);
  EXPECT_GT(semi.conflicting_finalization_epoch,
            slash.conflicting_finalization_epoch);
  // Paper Table 3: ~556 epochs.
  EXPECT_NEAR(static_cast<double>(semi.conflicting_finalization_epoch),
              557.0, 20.0);
}

TEST(Scenario522, SymmetricBranchesFinalizeTogether) {
  const auto r = run_partition_sim(base(Strategy::kSemiActiveFinalize, 0.2));
  // p0 = 0.5: the two branch outcomes are mirror images.
  EXPECT_NEAR(static_cast<double>(r.branch[0].supermajority_epoch),
              static_cast<double>(r.branch[1].supermajority_epoch), 2.0);
}

TEST(Scenario523, OverthrowExceedsThirdOnBothBranches) {
  auto cfg = base(Strategy::kSemiActiveOverthrow, 0.3);
  cfg.max_epochs = 5200;  // past the honest ejection wave
  const auto r = run_partition_sim(cfg);
  // beta0 = 0.3 > 0.2421: the Byzantine proportion must exceed 1/3 on
  // both branches (Figure 7), peaking at the honest ejection.
  EXPECT_TRUE(r.beta_exceeded_third_both);
  EXPECT_GT(r.branch[0].beta_peak, 1.0 / 3.0);
  EXPECT_GT(r.branch[1].beta_peak, 1.0 / 3.0);
  // And no finalization was performed (they withhold it).
  EXPECT_EQ(r.branch[0].finalization_epoch, -1);
  // Peak occurs at/after the honest-inactive ejection.
  ASSERT_GT(r.branch[0].honest_ejection_epoch, 0);
  EXPECT_GE(r.branch[0].beta_peak_epoch, r.branch[0].honest_ejection_epoch);
}

TEST(Scenario523, BelowBoundStaysUnderThird) {
  auto cfg = base(Strategy::kSemiActiveOverthrow, 0.20);
  cfg.max_epochs = 5200;
  const auto r = run_partition_sim(cfg);
  // beta0 = 0.20 < 0.2421: never exceeds 1/3 on either branch.
  EXPECT_FALSE(r.beta_exceeded_third_both);
  EXPECT_LT(r.branch[0].beta_peak, 1.0 / 3.0);
}

TEST(Scenario523, BoundaryMatchesFig7Bound) {
  // Bracket the Figure 7 bound (0.2421 for the calibrated threshold;
  // slightly different for 16.75 — compute it from the stated config).
  const double bound = analytic::beta0_lower_bound(0.5, kStated);
  for (const double delta : {-0.02, 0.02}) {
    auto cfg = base(Strategy::kSemiActiveOverthrow, bound + delta);
    cfg.max_epochs = 5200;
    cfg.n_validators = 1000;
    const auto r = run_partition_sim(cfg);
    EXPECT_EQ(r.beta_exceeded_third_both, delta > 0)
        << "beta0=" << bound + delta;
  }
}

TEST(Mechanics, BranchViewsDivergeIndependently) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0, 0.55));
  // Branch 1 (p0 = 0.55 active) regains 2/3 before the ejection wave and
  // finalizes with no honest ejection; branch 2 (0.45) only recovers by
  // ejecting the inactive class -- the two views diverge.
  EXPECT_EQ(r.branch[0].honest_ejection_epoch, -1);
  ASSERT_GT(r.branch[1].honest_ejection_epoch, 0);
  EXPECT_GT(r.branch[1].supermajority_epoch,
            r.branch[0].supermajority_epoch);
}

TEST(Mechanics, RatioTrajectoryMonotoneUntilFinalization) {
  const auto r = run_partition_sim(base(Strategy::kNone, 0.0));
  const auto& traj = r.branch[0].ratio_trajectory;
  ASSERT_GT(traj.size(), 10u);
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_GE(traj[i], traj[i - 1] - 1e-9);
  }
}

TEST(Mechanics, CountsFollowProportions) {
  auto cfg = base(Strategy::kSlashable, 0.25, 0.4);
  cfg.n_validators = 200;
  cfg.max_epochs = 10;
  const auto r = run_partition_sim(cfg);
  EXPECT_EQ(r.n_byzantine, 50u);
  ASSERT_EQ(r.n_honest_per_branch.size(), 2u);
  EXPECT_EQ(r.n_honest_per_branch[0], 60u);
  EXPECT_EQ(r.n_honest_per_branch[1], 90u);
}

TEST(Mechanics, InvalidConfigThrows) {
  PartitionSimConfig cfg;
  cfg.n_validators = 0;
  EXPECT_THROW(run_partition_sim(cfg), std::invalid_argument);
  cfg.n_validators = 10;
  cfg.beta0 = 1.5;
  EXPECT_THROW(run_partition_sim(cfg), std::invalid_argument);
}

TEST(Mechanics, BetaTrajectoryPeaksThenRecorded) {
  auto cfg = base(Strategy::kSemiActiveOverthrow, 0.33);
  cfg.max_epochs = 5000;
  const auto r = run_partition_sim(cfg);
  double max_seen = 0.0;
  for (double b : r.branch[0].beta_trajectory) max_seen = std::max(max_seen, b);
  EXPECT_NEAR(r.branch[0].beta_peak, max_seen, 0.02);
  EXPECT_GE(r.branch[0].beta_peak + 1e-12, max_seen);
}

TEST(PartitionTrials, RandomSplitsReachScenario51Outcome) {
  // With no Byzantine stake and p0 = 0.5, every realised honest split
  // still leaks to conflicting finalization; the epoch varies with the
  // split's imbalance but stays within the horizon.
  PartitionTrialsConfig cfg;
  cfg.base = base(Strategy::kNone, 0.0);
  cfg.base.n_validators = 200;
  cfg.base.trajectory_stride = cfg.base.max_epochs;
  cfg.trials = env::scaled_count(16);
  const auto r = run_partition_trials(cfg);
  EXPECT_EQ(r.trials, cfg.trials);
  EXPECT_EQ(r.conflict_epochs.size(), cfg.trials);
  EXPECT_DOUBLE_EQ(r.conflicting_fraction, 1.0);
  EXPECT_GT(r.mean_conflict_epoch, 0.0);
  EXPECT_LE(r.mean_conflict_epoch, 6000.0);
}

TEST(PartitionTrials, InvalidConfigThrows) {
  PartitionTrialsConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW(run_partition_trials(cfg), std::invalid_argument);
  cfg.trials = 4;
  cfg.base.n_validators = 0;
  EXPECT_THROW(run_partition_trials(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace leak::sim
