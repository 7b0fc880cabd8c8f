#include "src/bouncing/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/kernel/accumulators.hpp"
#include "src/kernel/cohort.hpp"
#include "src/kernel/stake_batch.hpp"
#include "src/runner/thread_pool.hpp"
#include "src/runner/trial_runner.hpp"

namespace leak::bouncing {

namespace {

void validate(const McConfig& cfg,
              const std::vector<std::size_t>& snapshot_epochs) {
  if (cfg.paths == 0) {
    throw std::invalid_argument("run_bouncing_mc: no paths");
  }
  // The grid must be strictly increasing: a path records one value per
  // matched epoch, so duplicates would leave the merge reading past it.
  if (snapshot_epochs.empty() ||
      !std::is_sorted(snapshot_epochs.begin(), snapshot_epochs.end()) ||
      std::adjacent_find(snapshot_epochs.begin(), snapshot_epochs.end()) !=
          snapshot_epochs.end() ||
      snapshot_epochs.back() > cfg.epochs) {
    throw std::invalid_argument("run_bouncing_mc: bad snapshot grid");
  }
  if (cfg.branches < 2) {
    throw std::invalid_argument("run_bouncing_mc: branches must be >= 2");
  }
}

}  // namespace

McResult run_bouncing_mc(const McConfig& cfg,
                         const std::vector<std::size_t>& snapshot_epochs) {
  validate(cfg, snapshot_epochs);
  McResult res;
  res.epochs = snapshot_epochs;
  const std::size_t snapshots = snapshot_epochs.size();
  if (cfg.keep_paths) {
    res.stakes.assign(snapshots, std::vector<double>(cfg.paths));
  }

  // Each block fills a transient snapshots x block slab; the runner's
  // ordered reduction folds the slabs in ascending block order, so
  // every accumulator sees paths in index order (bit-identical for any
  // block/threads) and, with keep_paths, each row lands at its global
  // path index.  Peak transient memory is O(threads x block x
  // snapshots).
  kernel::SnapshotAccumulators acc(cfg.branches, cfg.beta0, cfg.model,
                                   snapshot_epochs);
  struct SlabFold {
    kernel::SnapshotAccumulators* acc;
    std::vector<std::vector<double>>* stakes;  ///< empty unless keep_paths
    std::size_t snapshots;
    void fold(std::size_t begin, std::size_t end,
              std::vector<double>&& slab) const {
      const std::size_t n = end - begin;
      for (std::size_t k = 0; k < snapshots; ++k) {
        const double* row = slab.data() + k * n;
        for (std::size_t i = 0; i < n; ++i) acc->add(k, row[i]);
        if (!stakes->empty()) {
          std::copy_n(row, n, (*stakes)[k].data() + begin);
        }
      }
    }
  };
  const StreamSeeder seeder(cfg.seed);
  const runner::TrialRunner pool(cfg.threads);
  (void)pool.run_reduce(
      cfg.paths, runner::resolve_block(cfg.block),
      SlabFold{&acc, &res.stakes, snapshots},
      [&](std::size_t begin, std::size_t end) {
        const std::size_t n = end - begin;
        std::vector<double> slab(snapshots * n);  // row-major [snapshot][path]
        std::vector<double*> rows(snapshots);
        for (std::size_t k = 0; k < snapshots; ++k) {
          rows[k] = slab.data() + k * n;
        }
        kernel::BatchPaths scratch;
        kernel::simulate_stake_block(cfg.model, cfg.p0, cfg.epochs,
                                     snapshot_epochs, seeder, begin, n,
                                     scratch, rows.data());
        return slab;
      });
  acc.finalize(cfg.paths, &res.ejected_fraction, &res.capped_fraction,
               &res.prob_beta_exceeds, &res.median_alive_estimate,
               &res.stake_stats);
  return res;
}

namespace {

/// run_population_bouncing over caller-owned cohort scratch, so the
/// ensemble reuses one cohort across the paths of a block.
PopulationRunResult population_run(const PopulationRunConfig& cfg,
                                   kernel::LeakCohort& cohort) {
  PopulationRunResult res;
  Rng rng(cfg.seed);
  const std::uint32_t n = cfg.honest_validators;
  // Honest cohort rides the SoA draw/update kernel: one uniform per
  // live validator in index order (exactly the scalar oracle's stream
  // consumption), then a branchless vectorized update pass.
  cohort.reset(n, cfg.model);

  // Byzantine stake per validator-equivalent; they are semi-active on
  // branch A (tracked branch), with their own floored discrete dynamics.
  double byz_stake = cfg.model.initial_stake;
  double byz_score = 0.0;
  bool byz_ejected = false;

  for (std::size_t t = 1; t <= cfg.epochs; ++t) {
    // Honest validators: iid branch assignment (Figure 8).
    cohort.draw(rng);
    cohort.update(cfg.model, cfg.p0);
    // Byzantine: semi-active from branch A's viewpoint.
    if (!byz_ejected) {
      byz_stake -= byz_score * byz_stake / cfg.model.quotient;
      const bool active = (t % 2 == 0);
      if (active) {
        byz_score = std::max(byz_score - cfg.model.score_active_decrement, 0.0);
      } else {
        byz_score += cfg.model.score_bias;
      }
      if (byz_stake <= cfg.model.ejection_threshold) {
        byz_ejected = true;
        byz_stake = 0.0;
      }
    }
    // Branch-level Byzantine proportion (Eq 23 with population averages).
    const double honest_mean = cohort.stake_sum() / static_cast<double>(n);
    const double byz = cfg.beta0 * byz_stake;
    const double denom = byz + (1.0 - cfg.beta0) * honest_mean;
    const double beta = denom > 0.0 ? byz / denom : 0.0;
    if (t % res.stride == 0) res.beta_trajectory.push_back(beta);
    if (res.first_exceed_epoch < 0 && beta > 1.0 / 3.0 && !byz_ejected) {
      res.first_exceed_epoch = static_cast<std::int64_t>(t);
    }
  }
  return res;
}

/// One path's surviving scalars.
struct PopulationOutcome {
  std::int64_t first_exceed_epoch = -1;
  double final_beta = 0.0;
};

}  // namespace

PopulationRunResult run_population_bouncing(const PopulationRunConfig& cfg) {
  kernel::LeakCohort cohort;
  return population_run(cfg, cohort);
}

PopulationEnsembleResult run_population_ensemble(
    const PopulationEnsembleConfig& cfg) {
  if (cfg.paths == 0) {
    throw std::invalid_argument("run_population_ensemble: no paths");
  }
  PopulationEnsembleResult res;
  if (cfg.keep_paths) res.first_exceed_epochs.assign(cfg.paths, -1);

  // Each block returns its paths' outcomes; the ordered reduction
  // folds them in ascending block order, so the count and the double
  // sum see paths in index order (bit-identical for any block/threads)
  // and, with keep_paths, each outcome lands at its global path index.
  struct OutcomeFold {
    std::vector<std::int64_t>* first_exceed_epochs;  ///< empty unless kept
    std::size_t exceeded = 0;
    double beta_sum = 0.0;
    void fold(std::size_t begin, std::size_t,
              std::vector<PopulationOutcome>&& outcomes) {
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].first_exceed_epoch >= 0) ++exceeded;
        beta_sum += outcomes[i].final_beta;
        if (!first_exceed_epochs->empty()) {
          (*first_exceed_epochs)[begin + i] = outcomes[i].first_exceed_epoch;
        }
      }
    }
  };
  const StreamSeeder seeder(cfg.base.seed);
  const runner::TrialRunner pool(cfg.threads);
  const auto tally = pool.run_reduce(
      cfg.paths, runner::resolve_block(cfg.block),
      OutcomeFold{&res.first_exceed_epochs},
      [&](std::size_t begin, std::size_t end) {
        kernel::LeakCohort cohort;
        PopulationRunConfig per_path = cfg.base;
        std::vector<PopulationOutcome> outcomes(end - begin);
        for (std::size_t path = begin; path < end; ++path) {
          per_path.seed = seeder.seed_for(path);
          const auto r = population_run(per_path, cohort);
          auto& out = outcomes[path - begin];
          out.first_exceed_epoch = r.first_exceed_epoch;
          if (!r.beta_trajectory.empty()) {
            out.final_beta = r.beta_trajectory.back();
          }
        }
        return outcomes;
      });
  res.exceed_fraction =
      static_cast<double>(tally.exceeded) / static_cast<double>(cfg.paths);
  res.mean_final_beta = tally.beta_sum / static_cast<double>(cfg.paths);
  return res;
}

}  // namespace leak::bouncing
