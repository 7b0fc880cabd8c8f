// Per-layer probes for the perfbench harness (perfbench/run.py).
//
// Each probe times calls into one layer's public functions from this
// file, on inputs shaped like the benchmark workloads, so that a change
// to one layer shows up here by name before it shows up end to end.
// Nothing in src/ is instrumented; spans inside the program are a later
// step.
//
//   layer_probe probes --min-time SECONDS --seed N --work-dir DIR
//                      --cascade FILE [--slot-epochs N]
//       Run every probe and print one JSON object
//       {"<metric>": {"value": v, "unit": "u"}, ...} on stdout.
//       --min-time is a bare number of seconds per probe.  The slot
//       simulator is timed at N (default 16) and 2N epochs.  Every cell
//       of the probe's served job, seeded from --seed, is re-run
//       in-process and must match the merged result byte for byte in
//       canonical form (wall-clock metadata zeroed); a mismatch makes
//       the exit code 1.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/bouncing/montecarlo.hpp"
#include "src/chain/block.hpp"
#include "src/chain/blocktree.hpp"
#include "src/chain/forkchoice.hpp"
#include "src/chain/registry.hpp"
#include "src/crypto/sha256.hpp"
#include "src/faults/driver.hpp"
#include "src/faults/schedule.hpp"
#include "src/finality/ffg.hpp"
#include "src/net/event_queue.hpp"
#include "src/net/network.hpp"
#include "src/penalties/inactivity.hpp"
#include "src/penalties/slashing.hpp"
#include "src/runner/trial_runner.hpp"
#include "src/scenario/registry.hpp"
#include "src/scenario/sweep.hpp"
#include "src/search/journal.hpp"
#include "src/search/objective.hpp"
#include "src/serve/job.hpp"
#include "src/serve/service.hpp"
#include "src/serve/store.hpp"
#include "src/serve/worker.hpp"
#include "src/sim/partition_sim.hpp"
#include "src/sim/slot_sim.hpp"
#include "src/support/json.hpp"

namespace {

using namespace leak;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// Results flow into this sink so the optimizer cannot drop timed work.
volatile std::uint64_t g_sink = 0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Median seconds per call of `fn`.  Calls are batched so one round lasts
// at least min_time / 5; rounds repeat until min_time has elapsed and
// three rounds exist.  A call that alone outlasts min_time is timed once.
template <typename Fn>
double per_call(double min_time, Fn&& fn) {
  const double round_target = min_time / 5.0;
  std::size_t batch = 1;
  std::vector<double> samples;
  double total = 0.0;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double dt = seconds_since(t0);
    total += dt;
    if (samples.empty() && dt < round_target) {
      batch *= 2;
      continue;
    }
    samples.push_back(dt / static_cast<double>(batch));
    if (dt >= min_time || (total >= min_time && samples.size() >= 3)) break;
  }
  return median(samples);
}

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    json::Value m = json::Value::object();
    m.set("value", value);
    m.set("unit", unit);
    doc_.set(name, std::move(m));
  }
  [[nodiscard]] std::string dump() const { return doc_.dump(2); }

 private:
  json::Value doc_ = json::Value::object();
};

const scenario::Scenario& find_scenario(const char* name) {
  const scenario::Scenario* sc = scenario::builtin_registry().find(name);
  if (sc == nullptr) throw std::runtime_error(std::string("no scenario ") + name);
  return *sc;
}

scenario::ParamSet with_sets(const scenario::Scenario& sc,
                             const std::vector<std::string>& sets) {
  scenario::ParamSet p = sc.spec().defaults();
  for (const auto& kv : sets) {
    if (auto err = sc.spec().apply_kv(kv, &p)) throw std::runtime_error(*err);
  }
  return p;
}

scenario::SweepAxis axis(const scenario::Scenario& sc, const char* text) {
  scenario::SweepAxis ax;
  if (auto err = scenario::parse_sweep_axis(sc.spec(), text, &ax)) {
    throw std::runtime_error(*err);
  }
  return ax;
}

// --- src/sim ----------------------------------------------------------

void probe_sim(Report& r, double min_time, std::uint64_t seed, std::size_t slot_epochs) {
  // The balancing-attack shape of the `slot` workload.
  sim::SlotSimConfig cfg;
  cfg.n_honest = 32;
  cfg.n_byzantine = 8;
  cfg.proposer_strategy = sim::ProposerStrategy::kBalancing;
  cfg.seed = seed;
  const auto run_slot = [&](std::size_t epochs) {
    cfg.epochs = epochs;
    sim::SlotSim s(cfg);
    g_sink = g_sink + s.run().messages_delivered;
  };
  const double t1 = per_call(min_time, [&] { run_slot(slot_epochs); });
  const double t2 = per_call(min_time, [&] { run_slot(2 * slot_epochs); });
  r.add("sim.slot.ms_per_epoch", t1 * 1e3 / static_cast<double>(slot_epochs), "ms");
  r.add("sim.slot.horizon_ratio", t2 / t1, "1");

  // One partition trial of the `partition` workload at two registry sizes.
  for (const std::uint32_t n : {400U, 5000U}) {
    sim::PartitionSimConfig pc;
    pc.n_validators = n;
    pc.beta0 = 0.2;
    pc.strategy = sim::Strategy::kSemiActiveFinalize;
    pc.max_epochs = 5000;
    pc.trajectory_stride = 1;
    std::size_t epochs = 0;
    const double t = per_call(min_time, [&] {
      const sim::PartitionSimResult res = sim::run_partition_sim(pc);
      epochs = 0;
      for (const auto& b : res.branch) {
        epochs = std::max(epochs, b.ratio_trajectory.size());
      }
    });
    r.add("sim.partition.us_per_epoch.n" + std::to_string(n),
          t * 1e6 / static_cast<double>(std::max<std::size_t>(epochs, 1)), "us");
  }
}

// --- src/penalties ----------------------------------------------------

void probe_penalties(Report& r, double min_time) {
  for (const std::uint32_t n : {400U, 5000U}) {
    chain::ValidatorRegistry reg(n);
    penalties::InactivityTracker tracker(reg, penalties::SpecConfig::paper());
    // Half the registry is offline, as on one branch of a partition.
    std::vector<std::uint8_t> active(n);
    for (std::uint32_t i = 0; i < n; ++i) active[i] = i % 2 == 0 ? 1 : 0;
    std::uint64_t t = 8;  // past the leak trigger from the first epoch
    const double per_epoch = per_call(min_time, [&] {
      if (t > 1024) {  // refill before ejections thin the registry
        reg = chain::ValidatorRegistry(n);
        t = 8;
      }
      penalties::BalanceSums sums;
      (void)tracker.process_epoch(Epoch{t}, Epoch{0}, active, n / 2, &sums);
      g_sink = g_sink + sums.prefix_total.value();
      ++t;
    });
    r.add("penalties.inactivity.ns_per_validator_epoch.n" + std::to_string(n),
          per_epoch * 1e9 / n, "ns");
  }

  // A balancing-attack trial's attestation stream: 40 validators attest
  // once per epoch, split across the two sibling forks, never slashable.
  const auto stream = [](std::size_t epochs) {
    std::vector<chain::Attestation> atts;
    const crypto::Digest root = crypto::sha256(std::string_view("genesis"));
    crypto::Digest side[2] = {crypto::sha256(std::string_view("left")),
                              crypto::sha256(std::string_view("right"))};
    for (std::size_t e = 1; e <= epochs; ++e) {
      side[0] = crypto::sha256_pair(side[0], root);
      side[1] = crypto::sha256_pair(side[1], root);
      for (std::uint32_t v = 0; v < 40; ++v) {
        chain::Attestation a;
        a.attester = ValidatorIndex{v};
        a.slot = Slot{e * kSlotsPerEpoch + v % kSlotsPerEpoch};
        a.head = side[(v + e) % 2];
        a.source = chain::Checkpoint{root, Epoch{0}};
        a.target = chain::Checkpoint{a.head, Epoch{e}};
        atts.push_back(a);
      }
    }
    return atts;
  };
  for (const std::size_t epochs : {16UL, 32UL}) {
    const auto atts = stream(epochs);
    const double t = per_call(min_time, [&] {
      penalties::SlashingDetector det;
      for (const auto& a : atts) g_sink = g_sink + det.observe(a).has_value();
    });
    r.add("penalties.slashing.observe_ns.ep" + std::to_string(epochs),
          t * 1e9 / static_cast<double>(atts.size()), "ns");
    if (epochs == 32) {
      // The attestations the detector keeps, which each observe() scans.
      penalties::SlashingDetector det;
      for (const auto& a : atts) g_sink = g_sink + det.observe(a).has_value();
      std::size_t stored = 0;
      for (std::uint32_t v = 0; v < 40; ++v) stored += det.observed_count(ValidatorIndex{v});
      r.add("penalties.slashing.observations", static_cast<double>(stored), "count");
    }
  }
}

// --- src/chain --------------------------------------------------------

void probe_chain(Report& r, double min_time) {
  std::vector<chain::Block> blocks;
  chain::BlockTree tree;
  crypto::Digest tip = tree.genesis_id();
  for (std::uint64_t s = 1; s <= 512; ++s) {
    blocks.push_back(chain::Block::make(tip, Slot{s}, ValidatorIndex{static_cast<std::uint32_t>(s % 40)}));
    (void)tree.insert(blocks.back());
    tip = blocks.back().id;
  }
  const double anc = per_call(min_time, [&] {
    g_sink = g_sink + tree.is_ancestor(tree.genesis_id(), tip);
  });
  r.add("chain.blocktree.is_ancestor_ns", anc * 1e9, "ns");
  const double ins = per_call(min_time, [&] {
    chain::BlockTree t;
    for (const auto& b : blocks) g_sink = g_sink + t.insert(b);
  });
  r.add("chain.blocktree.insert_ns", ins * 1e9 / static_cast<double>(blocks.size()), "ns");

  // Balanced two-sibling fork, four blocks deep per side, 20 votes each.
  chain::BlockTree fork;
  chain::ValidatorRegistry reg(40);
  crypto::Digest tips[2] = {fork.genesis_id(), fork.genesis_id()};
  for (std::uint64_t s = 1; s <= 4; ++s) {
    for (std::uint32_t side = 0; side < 2; ++side) {
      const chain::Block b = chain::Block::make(
          tips[side], Slot{s}, ValidatorIndex{side},
          crypto::sha256(std::string_view(side == 0 ? "l" : "r")));
      (void)fork.insert(b);
      tips[side] = b.id;
    }
  }
  chain::ForkChoice fc(fork, reg);
  for (std::uint32_t v = 0; v < 40; ++v) {
    fc.on_attestation(ValidatorIndex{v}, tips[v % 2], Slot{4});
  }
  const double head = per_call(min_time, [&] {
    g_sink = g_sink + crypto::short_id(fc.head(fork.genesis_id(), Epoch{0}));
  });
  r.add("chain.forkchoice.head_us", head * 1e6, "us");
}

// --- src/crypto -------------------------------------------------------

void probe_crypto(Report& r, double min_time) {
  std::vector<std::uint8_t> data(64, 7);
  const double sha = per_call(min_time, [&] {
    ++data[0];
    g_sink = g_sink + crypto::sha256(std::span<const std::uint8_t>(data))[0];
  });
  r.add("crypto.sha256.ns_per_64B", sha * 1e9, "ns");
  crypto::Digest d = crypto::sha256(std::string_view("id"));
  const double sid = per_call(min_time, [&] {
    ++d[0];
    g_sink = g_sink + crypto::short_id(d);
  });
  r.add("crypto.short_id_ns", sid * 1e9, "ns");
}

// --- src/net ----------------------------------------------------------

void probe_net(Report& r, double min_time, std::uint64_t seed) {
  for (const bool lossy : {false, true}) {
    net::EventQueue queue;
    net::NetworkConfig nc;
    nc.num_nodes = 40;
    nc.seed = seed;
    if (lossy) nc.loss_episodes.push_back({0.0, 1e15, net::LinkClass::kAll, 0.15});
    net::Network network(queue, nc);
    network.set_deliver([](ValidatorIndex, const net::Packet&) {});
    std::uint64_t id = 0;
    const auto round = [&] {
      for (std::uint32_t v = 0; v < 40; ++v) network.broadcast(ValidatorIndex{v}, ++id);
      g_sink = g_sink + queue.run_all();
    };
    // A message is one per-recipient copy, delivered or dropped.
    const auto copies = [&] {
      return static_cast<double>(network.messages_delivered() + network.messages_dropped());
    };
    round();
    const double per_round = copies();
    const double t = per_call(min_time, round);
    const std::string name = lossy ? "net.network.ns_per_message.lossy"
                                   : "net.network.ns_per_message";
    r.add(name, t * 1e9 / per_round, "ns");
    if (lossy) {
      r.add("net.network.delivered_ratio.lossy",
            static_cast<double>(network.messages_delivered()) / copies(), "1");
    }
  }
}

// --- src/finality -----------------------------------------------------

void probe_finality(Report& r, double min_time) {
  chain::ValidatorRegistry reg(40);
  const chain::Checkpoint genesis{crypto::sha256(std::string_view("genesis")), Epoch{0}};
  constexpr std::uint64_t kEpochs = 16;
  const double t = per_call(min_time, [&] {
    finality::FfgTracker ffg(reg, genesis);
    crypto::Digest block = genesis.block;
    for (std::uint64_t e = 1; e <= kEpochs; ++e) {
      block = crypto::sha256_pair(block, genesis.block);
      const chain::Checkpoint target{block, Epoch{e}};
      for (std::uint32_t v = 0; v < 40; ++v) {
        chain::Attestation a;
        a.attester = ValidatorIndex{v};
        a.source = ffg.justified();
        a.target = target;
        ffg.on_checkpoint_vote(a);
      }
      (void)ffg.process_epoch(Epoch{e});
    }
    g_sink = g_sink + ffg.finalized().epoch.value();
  });
  r.add("finality.ffg.us_per_epoch", t * 1e6 / kEpochs, "us");
}

// --- src/kernel -------------------------------------------------------

void probe_kernel(Report& r, double min_time, std::uint64_t seed) {
  bouncing::McConfig mc;
  mc.paths = 512;
  mc.epochs = 1024;
  mc.seed = seed;
  mc.threads = 1;
  mc.keep_paths = false;
  const double tb = per_call(min_time, [&] {
    g_sink = g_sink + bouncing::run_bouncing_mc(mc, {mc.epochs}).stake_stats.size();
  });
  r.add("kernel.bouncing.ns_per_path_epoch",
        tb * 1e9 / static_cast<double>(mc.paths * mc.epochs), "ns");

  bouncing::PopulationEnsembleConfig pe;
  pe.base.honest_validators = 200;
  pe.base.epochs = 1024;
  pe.base.seed = seed;
  pe.paths = 4;
  pe.threads = 1;
  pe.keep_paths = false;
  const double tp = per_call(min_time, [&] {
    g_sink = g_sink + static_cast<std::uint64_t>(
        bouncing::run_population_ensemble(pe).exceed_fraction * 1e6);
  });
  r.add("kernel.population.ns_per_validator_epoch",
        tp * 1e9 / static_cast<double>(pe.base.honest_validators * pe.base.epochs * pe.paths),
        "ns");
}

// --- src/runner -------------------------------------------------------

void probe_runner(Report& r, double min_time) {
  struct Sum {
    std::uint64_t* total;
    void fold(std::size_t, std::size_t, std::size_t partial) const { *total += partial; }
  };
  const runner::TrialRunner pool(2);
  constexpr std::size_t kBlocks = 256;
  constexpr std::size_t kBlock = 16;
  const double t = per_call(min_time, [&] {
    std::uint64_t total = 0;
    (void)pool.run_reduce(kBlocks * kBlock, kBlock, Sum{&total},
                          [](std::size_t b, std::size_t e) { return e - b; });
    g_sink = g_sink + total;
  });
  r.add("runner.run_reduce.us_per_block", t * 1e6 / kBlocks, "us");
}

// --- src/scenario and src/support -------------------------------------

void probe_scenario(Report& r, double min_time) {
  const scenario::Scenario& ba = find_scenario("balancing-attack");
  const std::vector<std::string> sets = {"n_byzantine=16", "epochs=32", "proposer_boost=40",
                                         "paths=1", "threads=1", "seed=12345"};
  const double resolve = per_call(min_time, [&] {
    scenario::ParamSet p = with_sets(ba, sets);
    g_sink = g_sink + p.items().size() + ba.spec().validate(p).has_value();
  });
  r.add("scenario.resolve_us", resolve * 1e6, "us");

  const scenario::Scenario& mc = find_scenario("bouncing-mc");
  const scenario::ParamSet base = with_sets(mc, {"paths=64", "epochs=512", "threads=1"});
  const std::vector<scenario::SweepAxis> axes = {axis(mc, "beta0=0.2:0.33:0.01"),
                                                 axis(mc, "p0=0.3,0.4,0.5,0.6")};
  const std::size_t cells = scenario::sweep_cell_count(axes);
  std::size_t i = 0;
  const double cell = per_call(min_time, [&] {
    g_sink = g_sink + scenario::sweep_cell_params(base, axes, i++ % cells, true).items().size();
  });
  r.add("scenario.sweep_cell_params_ns", cell * 1e9, "ns");

  const scenario::Scenario& pt = find_scenario("partition-trials");
  const scenario::ScenarioResult result =
      pt.run(with_sets(pt, {"paths=64", "threads=1", "beta0=0.2", "strategy=semiactive"}));
  const double enc = per_call(min_time, [&] { g_sink = g_sink + result.to_json().dump().size(); });
  r.add("scenario.to_json_us", enc * 1e6, "us");

  // A merged-job-sized document: 64 copies of the result above.
  json::Value doc = json::Value::object();
  json::Value arr = json::Value::array();
  for (int k = 0; k < 64; ++k) arr.push_back(result.to_json());
  doc.set("cells", std::move(arr));
  const std::string text = doc.dump(2);
  const double parse = per_call(min_time, [&] {
    g_sink = g_sink + json::Value::parse(text).has_value();
  });
  r.add("support.json.parse_mb_per_s", static_cast<double>(text.size()) / parse / 1e6, "MB/s");
}

// --- src/serve --------------------------------------------------------

serve::JobSpec sweep_job(std::size_t values, std::uint64_t seed) {
  const scenario::Scenario& mc = find_scenario("bouncing-mc");
  serve::JobSpec job;
  job.scenario = "bouncing-mc";
  job.base = with_sets(mc, {"paths=64", "epochs=512", "threads=1",
                            "seed=" + std::to_string(seed)});
  std::string beta = "beta0=";
  for (std::size_t k = 0; k < values; ++k) {
    beta += (k ? "," : "") + std::to_string(0.2 + 0.01 * static_cast<double>(k));
  }
  job.axes = {axis(mc, beta.c_str())};
  job.config.vary_seed = true;
  job.config.workers = 1;
  return job;
}

// The canonical form of one cell result, as in a canonical merged job.
std::string canonical_cell(json::Value cell) {
  json::Value wrap = json::Value::object();
  json::Value one = json::Value::array();
  one.push_back(std::move(cell));
  wrap.set("cells", std::move(one));
  return serve::JobService::canonicalize(std::move(wrap)).find("cells")->at(0).dump();
}

// Returns the number of served cells that differ from their in-process run.
std::size_t probe_serve(Report& r, double min_time, std::uint64_t seed, const fs::path& work) {
  const scenario::Scenario& mc = find_scenario("bouncing-mc");
  const serve::JobSpec job = sweep_job(8, seed);
  const json::Value record = serve::cell_record(job, 0, mc.run(job.cell_params(0)));

  const fs::path store_path = work / "store.jsonl";
  fs::remove(store_path);
  std::vector<double> appends;
  {
    serve::ResultsStore store(store_path.string());
    const auto t_start = Clock::now();
    while (appends.size() < 1000 &&
           (appends.size() < 100 || seconds_since(t_start) < 2.0 * min_time)) {
      const auto t0 = Clock::now();
      if (!store.append(record, /*sync=*/true)) throw std::runtime_error("store append failed");
      appends.push_back(seconds_since(t0));
    }
    r.add("serve.store.append_us.p50", percentile(appends, 0.50) * 1e6, "us");
    r.add("serve.store.append_us.p99", percentile(appends, 0.99) * 1e6, "us");
    const double bytes = static_cast<double>(fs::file_size(store_path));
    const double scan = per_call(min_time, [&] { g_sink = g_sink + store.scan().records.size(); });
    r.add("serve.store.scan_mb_per_s", bytes / scan / 1e6, "MB/s");
  }
  fs::remove(store_path);

  // Served cell wall (fork, task pipe, encode, CRC framing, fsync, merge)
  // minus the same cells run in-process.
  const fs::path jobs = work / "probe_jobs";
  const serve::JobSpec served = sweep_job(16, seed);
  const std::size_t cells = served.cell_count();
  std::vector<double> overheads;
  std::size_t respawns = 0;
  std::size_t mismatches = 0;
  const auto t_start = Clock::now();
  while (overheads.size() < 3 || seconds_since(t_start) < min_time) {
    fs::remove_all(jobs);
    serve::JobService svc(scenario::builtin_registry(), jobs.string());
    std::string error;
    const auto id = svc.submit(served, &error);
    if (!id) throw std::runtime_error("submit: " + error);
    serve::RunOptions opts;
    opts.workers = 1;
    const auto t0 = Clock::now();
    const auto stats = svc.run(*id, opts, &error);
    const double served_wall = seconds_since(t0);
    if (!stats || !stats->completed) throw std::runtime_error("served run: " + error);
    respawns += stats->respawns;
    std::vector<scenario::ScenarioResult> inproc;
    const auto t1 = Clock::now();
    for (std::size_t c = 0; c < cells; ++c) inproc.push_back(mc.run(served.cell_params(c)));
    const double inproc_wall = seconds_since(t1);
    overheads.push_back((served_wall - inproc_wall) / static_cast<double>(cells));

    const auto merged = svc.merged(*id, /*canonical=*/true, &error);
    if (!merged) throw std::runtime_error("merged: " + error);
    const json::Value* got = merged->find("cells");
    if (got == nullptr || got->size() != cells) throw std::runtime_error("merged: cell count");
    for (std::size_t c = 0; c < cells; ++c) {
      if (canonical_cell(inproc[c].to_json()) != got->at(c).dump()) {
        std::fprintf(stderr, "layer_probe: served cell %zu differs from its in-process run\n", c);
        ++mismatches;
      }
    }
  }
  fs::remove_all(jobs);
  r.add("serve.worker.cell_overhead_ms", median(overheads) * 1e3, "ms");
  r.add("serve.worker.respawns", static_cast<double>(respawns), "count");
  return mismatches;
}

// --- src/search -------------------------------------------------------

void probe_search(Report& r, double min_time, const fs::path& work) {
  std::string error;
  const auto rs = search::resolve_search(scenario::builtin_registry(), "partition-timing", {},
                                         {}, &error);
  if (!rs) throw std::runtime_error("resolve_search: " + error);
  const std::size_t n0 = rs->axes[0].values.size();
  const std::size_t cells = scenario::sweep_cell_count(rs->axes);
  std::vector<scenario::ParamSet> params;
  for (std::size_t c = 0; c < cells; ++c) {
    params.push_back(scenario::sweep_cell_params(rs->objective.base, rs->axes, c, false));
  }
  const fs::path path = work / "probe_journal.jsonl";
  const double t = per_call(min_time, [&] {
    fs::remove(path);
    auto journal = search::EvalJournal::open(path.string(), rs->objective, rs->axes, &error);
    if (!journal) throw std::runtime_error("journal open: " + error);
    for (std::size_t c = 0; c < cells; ++c) {
      if (!journal->append({c / (cells / n0), c % (cells / n0)}, params[c], 1.0)) {
        throw std::runtime_error("journal append failed");
      }
    }
  });
  fs::remove(path);
  r.add("search.journal.append_us", t * 1e6 / static_cast<double>(cells), "us");
}

// --- src/faults -------------------------------------------------------

void probe_faults(Report& r, double min_time, const std::string& cascade) {
  std::ifstream in(cascade);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (text.empty()) throw std::runtime_error("cannot read " + cascade);
  const double t = per_call(min_time, [&] {
    sim::PartitionSimConfig cfg;
    faults::compile_partition(faults::FaultSchedule::from_string(text), &cfg);
    g_sink = g_sink + cfg.windows.size();
  });
  r.add("faults.schedule.parse_compile_us", t * 1e6, "us");
}

int cmd_probes(const std::vector<std::string>& args) {
  double min_time = 0.2;
  std::uint64_t seed = 1;
  std::size_t slot_epochs = 16;
  fs::path work = ".";
  std::string cascade;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    if (args[i] == "--min-time") min_time = std::stod(args[i + 1]);
    else if (args[i] == "--seed") seed = std::stoull(args[i + 1]);
    else if (args[i] == "--work-dir") work = args[i + 1];
    else if (args[i] == "--cascade") cascade = args[i + 1];
    else if (args[i] == "--slot-epochs") slot_epochs = std::stoul(args[i + 1]);
    else throw std::runtime_error("unknown option " + args[i]);
  }
  if (!(min_time > 0.0) || cascade.empty()) {
    throw std::runtime_error("probes needs --min-time > 0 and --cascade FILE");
  }
  fs::create_directories(work);
  Report r;
  probe_sim(r, min_time, seed, slot_epochs);
  probe_penalties(r, min_time);
  probe_chain(r, min_time);
  probe_crypto(r, min_time);
  probe_net(r, min_time, seed);
  probe_finality(r, min_time);
  probe_kernel(r, min_time, seed);
  probe_runner(r, min_time);
  probe_scenario(r, min_time);
  const std::size_t mismatches = probe_serve(r, min_time, seed, work);
  probe_search(r, min_time, work);
  probe_faults(r, min_time, cascade);
  std::printf("%s\n", r.dump().c_str());
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "probes") {
      return cmd_probes({args.begin() + 1, args.end()});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "layer_probe: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: layer_probe probes ...\n");
  return 2;
}
