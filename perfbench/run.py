#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of leakctl.

    python3 perfbench/run.py --workload slot|partition --seed N
                             --seconds S --trace 0|1
                             [--scale full|tiny] [--min-time 0.5|0.5s]
                             [--out FILE]

Run from the repository root.  The first call builds leakctl and
perfbench/layer_probe from source into .bench_build/ (Release).

One client drives the workload as a closed loop: it issues the next
leakctl call only after the previous one returned.  The workload's fixed
request list (a "pass") repeats until --seconds have elapsed, at least
once; the end-to-end metrics come from per-request medians over the
passes.  Every input is generated from --seed.  The repeated set-ups
behind setup_s are spread over the timed window.  After the timed
passes, untimed checks verify every output.  --trace 1 runs one
untraced and one traced pass, unit by unit in alternation, plus the
layer probes and reports the per-layer metrics instead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Exit code 0 only when every check passed.  A result file with
provenance (host fingerprint, compiler, build type, git describe, seed,
repetitions, median and quartiles per metric) goes to --out, by default
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
LEAKCTL = BUILD / "leak" / "examples" / "leakctl"
PROBE = BUILD / "layer_probe"
CASCADE = "examples/schedules/cascade.json"
REQUEST_TIMEOUT_S = 150
WORKLOADS = ("slot", "partition")
# Independent journaled searches per untraced pass, each with its own
# seed.  One search is short, and its cost varies with the seed and with
# host speed, so each pass pools several.
SEARCHES = {"slot": 6, "partition": 2}
# Repetitions of the baseline replays within an untraced pass.  A slot
# run measures a single pass, so its short read path repeats for medians.
# A traced run needs neither (one search, one replay each), which keeps
# its two slot passes well inside the time limit of one run.
READ_REPEATS = {"slot": 5, "partition": 2}
# slot-protocol and flaky-network runs per slot pass.
LIGHT_RUNS = 6
# Set-ups per untraced run: SETUP_BURSTS bursts of SETUP_BURST back to
# back, spread evenly over the timed window so that one moment of host
# drift does not set every sample of setup_s.  The first set-up after a
# heavy request runs slower and spreads wider than the ones that follow.
SETUP_BURSTS = 10
SETUP_BURST = 5


# --- build ---------------------------------------------------------------

def require_sources():
    missing = [p for p in ("CMakeLists.txt", "src", "examples/leakctl.cpp", CASCADE,
                           "bench/baselines") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"run.py: not a source checkout (missing {', '.join(missing)}); "
                 "run from the repository root")


def build():
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE.relative_to(ROOT)), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", "leakctl",
                  "layer_probe"])
    with open(log, "w") as fh:
        for cmd in steps:
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, timeout=870).returncode:
                sys.exit(f"run.py: build failed: {' '.join(cmd)} (see {log})")


# --- provenance ----------------------------------------------------------

SPIN = "x = 0\nfor i in range(3_000_000): x += i\n"


def effective_parallelism(n):
    """Throughput of n concurrent spin loops over one, in cores."""
    def spin(k):
        t0 = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", SPIN]) for _ in range(k)]
        for p in procs:
            p.wait()
        return time.perf_counter() - t0
    one = min(spin(1) for _ in range(2))
    return n * one / spin(n)


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def provenance(seed, passes):
    model = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                                  timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        compiler = cxx
    describe = "unknown"  # an exported tree carries no history
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "describe", "--always", "--dirty"],
                               capture_output=True, text=True, timeout=30, cwd=ROOT)
            if r.returncode == 0:
                describe = r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "host": {"cpu_model": model, "nproc": nproc,
                 "effective_parallelism": round(effective_parallelism(nproc), 3)},
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_describe": describe,
        "seed": seed,
        "repetitions": passes,
    }


# --- seeded inputs -------------------------------------------------------

def derive(seed, *labels):
    """Per-request seed: a stable hash of the workload seed and labels."""
    text = "|".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def sets(**params):
    out = []
    for k, v in params.items():
        out += ["--set", f"{k}={v}"]
    return out


class Request:
    """One leakctl call: argv after the binary, its kind and its phase.

    kind: run | search | replay | baseline.  phase: write (the
    workload's own results), read (re-deriving stored results), search.
    """

    def __init__(self, name, kind, phase, argv, scenario=None, rep=0):
        self.name, self.kind, self.phase = name, kind, phase
        self.argv, self.scenario, self.rep = argv, scenario, rep


def slot_requests(seed, tiny):
    epochs = (2, 4) if tiny else (16, 32)
    reqs = []
    for nb in (8, 16):
        for ep in epochs:
            for boost in (0, 40):
                name = f"balancing-attack.nb{nb}.ep{ep}.boost{boost}"
                reqs.append(Request(name, "run", "write", [
                    "run", "balancing-attack", *sets(
                        n_byzantine=nb, epochs=ep, proposer_boost=boost, paths=1, threads=1,
                        seed=derive(seed, name))], "balancing-attack"))
    # The short honest-network runs repeat with their own seeds: they give
    # run_s.p50 a dense middle, where the eight grid runs alone have a
    # seed-dependent gap between their 16- and 32-epoch halves.
    for k in range(LIGHT_RUNS):
        reqs.append(Request(f"slot-protocol.heal.{k}", "run", "write", [
            "run", "slot-protocol", *sets(
                p0=0.5, gst_epoch=1 if tiny else 4, epochs=2 if tiny else 8, paths=1,
                threads=1, seed=derive(seed, "slot-protocol", k))], "slot-protocol"))
        reqs.append(Request(f"flaky-network.{k}", "run", "write", [
            "run", "flaky-network", *sets(epochs=4 if tiny else 10, paths=1, threads=1,
                                          seed=derive(seed, "flaky-network", k))],
            "flaky-network"))
    return reqs, ["balancing-attack", "slot-protocol", "flaky-network"]


def partition_requests(seed, tiny):
    # How long a trial lasts depends on its seed.  At 8 paths the same
    # request ranged over +-20% across seeds; at 32 over +-5%.
    paths = 1 if tiny else 32
    reqs = []
    for st in ("honest", "slashable", "semiactive", "overthrow"):
        reqs.append(Request(f"partition-trials.{st}", "run", "write", [
            "run", "partition-trials", *sets(beta0=0.2, strategy=st, paths=paths, threads=1,
                                             seed=derive(seed, st))], "partition-trials"))
    for sc in ("multi-partition-recovery", "cascading-partitions"):
        reqs.append(Request(sc, "run", "write", [
            "run", sc, *sets(beta0=0.2, paths=paths, threads=1, seed=derive(seed, sc))], sc))
    reqs.append(Request("partition-trials.faults", "run", "write", [
        "run", "partition-trials", "--faults", CASCADE,
        *sets(beta0=0.2, paths=paths, threads=1, seed=derive(seed, "faults"))],
        "partition-trials"))
    reqs.append(Request("partition-trials.n5000", "run", "write", [
        "run", "partition-trials", *sets(n_validators=1000 if tiny else 5000, beta0=0.2,
                                         paths=1 if tiny else 2, threads=1,
                                         seed=derive(seed, "n5000"))], "partition-trials"))
    return reqs, ["partition-trials", "multi-partition-recovery", "cascading-partitions"]


def search_argv(wl, seed, tiny, i):
    """Search i of a pass: a shipped config at a small fixed budget."""
    if wl == "slot":
        return ["balancing-timing", "--budget", "2" if tiny else "4",
                *sets(paths=1, threads=1, seed=derive(seed, "search", i)),
                *(sets(epochs=2) if tiny else [])]
    return ["partition-timing", "--budget", "2" if tiny else "6",
            *sets(threads=1, seed=derive(seed, "search", i))]


# --- process runner ------------------------------------------------------

class Runner:
    """Runs leakctl calls one at a time, recording wall, CPU and peak RSS.

    CPU and RSS come from wait4() on each child, which covers the
    child's own reaped children.  Spans are recorded while `tracing`.
    """

    def __init__(self, work):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracing = False
        self.spans = []

    def note_failure(self, what):
        self.failed += 1
        self.errors.append(what)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.note_failure(what)
        return ok

    def open_span(self, name, parent=None):
        if not self.tracing:
            return None
        self.spans.append({"id": len(self.spans) + 1, "parent": parent, "name": name,
                           "start": time.perf_counter(), "end": None})
        return len(self.spans)

    def close_span(self, span_id):
        if span_id is not None:
            self.spans[span_id - 1]["end"] = time.perf_counter()

    def call(self, argv, out_name, parent=None):
        out = self.work / out_name
        with open(out, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([str(LEAKCTL)] + argv, stdout=fh,
                                    stderr=subprocess.STDOUT, cwd=ROOT)
            # SIGALRM kills a request past its time limit.  A watchdog
            # thread would do too, but starting one waits for the thread
            # to be scheduled, which on a loaded host adds to the wall.
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(REQUEST_TIMEOUT_S)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"argv": argv, "wall_s": end - start, "cpu_s": ru.ru_utime + ru.ru_stime,
               "maxrss_kb": ru.ru_maxrss, "rc": proc.returncode, "out": out}
        if self.tracing:
            self.spans.append({"id": len(self.spans) + 1, "parent": parent,
                               "name": "leakctl " + " ".join(argv[:2]), "start": start,
                               "end": end, "cpu_s": rec["cpu_s"], "maxrss_kb": ru.ru_maxrss})
        self.attempted += 1
        if proc.returncode != 0:
            self.note_failure(f"exit {proc.returncode}: leakctl {' '.join(argv)}: "
                              f"{out.read_text(errors='replace')[-300:]}")
        return rec


# --- one pass of a workload ----------------------------------------------

def new_pass(runner, tag):
    pdir = runner.work / tag
    shutil.rmtree(pdir, ignore_errors=True)
    pdir.mkdir(parents=True)
    return {"tag": tag, "dir": pdir, "recs": [], "wall": 0.0, "unit_walls": [], "cells": 0}


def plan_pass(wl, seed, tiny, p, n_searches=1, read_repeats=1):
    """The workload's fixed request list for pass `p`, as units (a cold
    search and its warm replay form one unit) in a seeded order.  The pass
    runs `n_searches` searches and its baseline replays `read_repeats`
    times."""
    rel = lambda name: str((p["dir"] / name).relative_to(ROOT))  # leakctl runs in ROOT
    reqs, baselines = (slot_requests if wl == "slot" else partition_requests)(seed, tiny)
    for rq in reqs:
        rq.argv = rq.argv + ["--quiet", "--json", rel(f"{rq.name}.json")]
    units = [[rq] for rq in reqs]
    for i in range(n_searches):
        argv = ["search", *search_argv(wl, seed, tiny, i), "--search-threads", "1",
                "--journal", rel(f"journal{i}.jsonl"), "--quiet", "--json"]
        units.append([Request(f"search.cold.{i}", "search", "search",
                              argv + [rel(f"search_cold{i}.json")], rep=i),
                      Request(f"search.warm.{i}", "replay", "read",
                              argv + [rel(f"search_warm{i}.json")], rep=i)])
    for rep in range(read_repeats):
        units += [[Request(f"baseline.{sc}", "baseline", "read",
                           ["run", sc, "--params", f"bench/baselines/{sc}.json",
                            "--threads", "1", "--quiet", "--json",
                            rel(f"baseline{rep}-{sc}.json")], sc, rep)]
                  for sc in baselines]
    # A seeded order spreads the short requests over the whole pass, so
    # drift in host speed averages out in their metrics as it does in the
    # pass wall.
    random.Random(derive(seed, "order")).shuffle(units)
    p["cells"] = len(reqs)
    return units


def run_unit(runner, p, unit, parent=None):
    """Issue one unit's requests in order.  The pass wall is the sum of
    its unit walls, so work between units does not count in it."""
    t0 = time.perf_counter()
    for rq in unit:
        p["recs"].append((rq, runner.call(rq.argv, f"{p['tag']}/{rq.name}.{rq.rep}.log",
                                          parent)))
    dt = time.perf_counter() - t0
    p["wall"] += dt
    p["unit_walls"].append(dt)


def workload_metrics(passes):
    """End-to-end metrics from per-request medians.

    Every pass issues the same request list, so the median wall of each
    request over its passes and repetitions is robust to a burst of host
    noise hitting one of them.  Returns the metrics and the number of
    samples behind run_s.p50.
    """
    by_name = {}
    for p in passes:
        for q, r in p["recs"]:
            by_name.setdefault(q.name, (q, []))[1].append(r)
    med = {key: {n: statistics.median(r[key] for r in rs) for n, (_, rs) in by_name.items()}
           for key in ("wall_s", "cpu_s")}
    pass_list = [q.name for q, _ in passes[0]["recs"]]
    pick = lambda pred: sum(med["wall_s"][n] for n, (q, _) in by_name.items() if pred(q))
    # The client's own time between requests (spawning, bookkeeping).
    client = statistics.median(p["wall"] - sum(r["wall_s"] for _, r in p["recs"])
                               for p in passes)
    # The median over `run` requests of each one's median wall.  Pooling
    # all samples instead would put the median on the edge between two
    # requests' samples, where the odd slow or fast call decides it.
    runs = [r["wall_s"] for p in passes for q, r in p["recs"] if q.kind == "run"]
    run_meds = [med["wall_s"][n] for n, (q, _) in by_name.items() if q.kind == "run"]
    # Per cold search; the median resists the odd seed whose search is slow.
    search_rates = [(load_json(ROOT / r["argv"][-1]) or {}).get("evaluations", 0) / r["wall_s"]
                    for p in passes for q, r in p["recs"] if q.kind == "search"]
    return {
        "wall_s": sum(med["wall_s"][n] for n in pass_list) + client,
        "cpu_s": sum(med["cpu_s"][n] for n in pass_list),
        "run_s.p50": statistics.median(run_meds),
        "peak_rss_mb": max(r["maxrss_kb"] for p in passes for _, r in p["recs"]) / 1024.0,
        "cells_per_s": passes[0]["cells"] / pick(lambda q: q.phase == "write"),
        "replay_s": pick(lambda q: q.phase == "read"),
        "search_evals_per_s": statistics.median(search_rates),
    }, len(runs)


# --- untimed output checks -----------------------------------------------

def load_json(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError):
        return None


def baseline(sc):
    return load_json(ROOT / "bench" / "baselines" / f"{sc}.json")


def outputs(p):
    """The pass's deterministic outputs: reports and searches."""
    out = {}
    for q, _ in p["recs"]:
        if q.kind in ("run", "baseline"):
            rep = load_json(ROOT / q.argv[-1]) or {}
            out[(q.name, q.rep)] = (rep.get("metrics"), rep.get("stats"))
        elif q.kind == "search":
            cold = load_json(ROOT / q.argv[-1]) or {}
            out[(q.name, q.rep)] = (cold.get("best"), cold.get("evaluations"))
    return out


def check_pass(p, runner, reference=None):
    """Check one pass's outputs.  `reference` is another pass of the same
    inputs: its outputs must match exactly (the program is deterministic),
    and the costlier checks then run on the reference only."""
    if reference is not None:
        runner.check(outputs(p) == outputs(reference),
                     f"{p['tag']}: outputs differ from {reference['tag']} on the same inputs")
        return
    for q, r in p["recs"]:
        if q.kind == "run":
            rep = load_json(ROOT / q.argv[-1])
            want = set(baseline(q.scenario)["metrics"])
            runner.check(rep is not None and rep.get("scenario") == q.scenario
                         and want <= set(rep.get("metrics", {}))
                         and all(isinstance(v, (int, float))
                                 for v in rep["metrics"].values()),
                         f"{q.name}: report missing or lacks {q.scenario} metrics")
        elif q.kind == "baseline":
            got, want = load_json(ROOT / q.argv[-1]), baseline(q.scenario)
            runner.check(got is not None and got.get("metrics") == want["metrics"]
                         and got.get("stats") == want.get("stats"),
                         f"baseline {q.scenario}: replay differs from bench/baselines")
    searches = {}
    for q, _ in p["recs"]:
        if q.kind in ("search", "replay"):
            searches.setdefault(q.rep, {})[q.kind] = load_json(ROOT / q.argv[-1])
    for rep, pair in searches.items():
        cold, warm = pair.get("search"), pair.get("replay")
        ok = (cold is not None and warm is not None and cold["evaluations"] >= 1
              and warm["cache_hits"] == warm["evaluations"] == cold["evaluations"]
              and warm["best"] == cold["best"])
        runner.check(ok, f"warm search replay {rep} differs from the cold search "
                         "or missed the journal")


def check_all_baselines(runner, already):
    """Every committed baseline replays exactly (the workload's own ones ran timed)."""
    for path in sorted((ROOT / "bench" / "baselines").glob("*.json")):
        sc = path.stem
        if sc in already:
            continue
        out = f"baselines/{sc}.json"
        (runner.work / "baselines").mkdir(exist_ok=True)
        runner.call(["run", sc, "--params", str(path.relative_to(ROOT)), "--threads", "1",
                     "--quiet", "--json", str((runner.work / out).relative_to(ROOT))],
                    f"baselines/{sc}.log")
        got, want = load_json(runner.work / out), load_json(path)
        runner.check(got is not None and got.get("metrics") == want["metrics"]
                     and got.get("stats") == want.get("stats"),
                     f"baseline {sc}: replay differs from bench/baselines")


# --- set-up --------------------------------------------------------------

def setup_once(wl, seed, tiny, runner, k):
    """Generate the inputs, start leakctl cold (registry build) and check
    every generated parameter name against its scenario's declaration.
    Returns its wall time."""
    t0 = time.perf_counter()
    sdir = runner.work / f"setup{k}"
    shutil.rmtree(sdir, ignore_errors=True)
    sdir.mkdir()
    plan = [r.argv for r in (slot_requests if wl == "slot" else partition_requests)(
        seed, tiny)[0]]
    (sdir / "plan.json").write_text(json.dumps(plan))
    rec = runner.call(["list", "--json"], f"setup{k}/list.json")
    names = {s["name"] for s in load_json(rec["out"]) or []}
    runner.check({"balancing-attack", "partition-trials", "bouncing-mc"} <= names,
                 "leakctl list: registry incomplete")
    used = {}
    for argv in plan:
        used.setdefault(argv[1], set()).update(
            a.split("=", 1)[0] for prev, a in zip(argv, argv[1:]) if prev == "--set")
    for sc, keys in sorted(used.items()):
        rec = runner.call(["describe", sc, "--json"], f"setup{k}/{sc}.json")
        declared = {p["name"] for p in (load_json(rec["out"]) or {}).get("params", [])}
        runner.check(keys <= declared, f"{sc}: generated parameters {sorted(keys - declared)} "
                                       "are not declared")
    return time.perf_counter() - t0


# --- main ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def parse_min_time(text):
    """Accept both the bare (`0.5`) and the suffixed (`0.5s`) form."""
    value = float(text[:-1] if text.endswith("s") else text)
    if value <= 0:
        raise argparse.ArgumentTypeError("min time must be > 0")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: the same requests at toy sizes (harness self-test)")
    ap.add_argument("--min-time", type=parse_min_time, default=None,
                    help="seconds per layer probe, e.g. 0.5 or 0.5s")
    ap.add_argument("--out", default=None, help="result file with provenance")
    args = ap.parse_args()

    require_sources()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    wl, seed, tiny = args.workload, args.seed, args.scale == "tiny"
    work = BUILD / "work" / f"{wl}-{seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)

    setups = [setup_once(wl, seed, tiny, runner, 0)]

    metrics = {}
    passes = []
    if args.trace == 0:
        start = time.perf_counter()

        def bursts_done():
            return (len(setups) - 1) // SETUP_BURST  # the cold first set-up is in none

        def setup_burst():
            for _ in range(SETUP_BURST):
                setups.append(setup_once(wl, seed, tiny, runner, len(setups)))

        def spread_setups():
            """Burst k runs once k / SETUP_BURSTS of the timed window is over."""
            while (bursts_done() < SETUP_BURSTS and time.perf_counter() - start
                   >= args.seconds * bursts_done() / SETUP_BURSTS):
                setup_burst()

        while not passes or time.perf_counter() - start < args.seconds:
            p = new_pass(runner, f"pass{len(passes)}")
            for unit in plan_pass(wl, seed, tiny, p, SEARCHES[wl], READ_REPEATS[wl]):
                run_unit(runner, p, unit)
                spread_setups()
            passes.append(p)
        while bursts_done() < SETUP_BURSTS:
            setup_burst()
        values, run_samples = workload_metrics(passes)
        values["setup_s"] = statistics.median(setups)
        per_pass = [workload_metrics([p])[0] for p in passes]
        samples = {k: [m[k] for m in per_pass] for k in per_pass[0]}
        samples["setup_s"] = setups
    else:
        untraced, traced = new_pass(runner, "untraced"), new_pass(runner, "traced")
        plans = [plan_pass(wl, seed, tiny, p) for p in (untraced, traced)]
        # Each unit runs untraced and traced back to back, the order
        # alternating, so host drift cancels in the paired differences.
        for i, pair in enumerate(zip(*plans)):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runner.tracing = side == 1
                span = runner.open_span(f"unit {i}")
                run_unit(runner, (untraced, traced)[side], pair[side], span)
                runner.close_span(span)
        passes = [untraced, traced]
        runner.tracing = True
        min_time = args.min_time or (0.01 if tiny else 0.2)
        span = runner.open_span("layer_probe probes")
        r = subprocess.run([str(PROBE), "probes", "--min-time", repr(min_time),
                            "--seed", str(seed), "--work-dir", str(work / "probe"),
                            "--cascade", CASCADE] + (["--slot-epochs", "2"] if tiny else []),
                           capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S, cwd=ROOT)
        runner.close_span(span)
        try:
            probe = json.loads(r.stdout)
        except ValueError:
            probe = {}
        runner.check(r.returncode == 0, f"layer_probe failed: {r.stderr.strip()[-300:]}")
        for name, m in probe.items():
            metrics[name] = m
        warm = [load_json(ROOT / q.argv[-1]) or {} for q, _ in traced["recs"]
                if q.kind == "replay"]
        hits = (sum(w.get("cache_hits", 0) for w in warm)
                / max(sum(w.get("evaluations", 0) for w in warm), 1))
        metrics["search.journal_hit_ratio"] = {"value": hits, "unit": "1"}
        # Traced pass wall minus untraced pass wall, as the unit count
        # times the median paired difference.
        diffs = [t - u for u, t in zip(untraced["unit_walls"], traced["unit_walls"])]
        metrics["trace.overhead_s"] = {"value": len(diffs) * statistics.median(diffs),
                                       "unit": "s"}

    for p in passes:
        check_pass(p, runner, None if p is passes[-1] else passes[-1])
    check_all_baselines(runner, set() if not passes else {
        q.scenario for q, _ in passes[0]["recs"] if q.kind == "baseline"})

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    if args.trace == 0:
        for name, vals in samples.items():
            q1, med, q3 = quartiles(vals)
            metrics[name] = {"value": values[name], "unit": units[name]}
            summary[name] = {"value": values[name], "median": med, "q1": q1, "q3": q3,
                             "n": len(vals)}
    else:
        metrics["failed_ratio"] = {"value": runner.failed / max(runner.attempted, 1),
                                   "unit": "1"}
        summary = {k: {"median": v["value"], "n": 1} for k, v in metrics.items()}
        run_samples = 0

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": wl, "trace": args.trace, "scale": args.scale,
              "provenance": provenance(seed, len(passes) if args.trace == 0 else 1),
              "summary": summary, "result": result, "errors": runner.errors,
              "setup_s": setups,
              "requests": [{"pass": p["tag"], "name": q.name, "kind": q.kind,
                            "phase": q.phase, "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                            "maxrss_kb": r["maxrss_kb"], "rc": r["rc"]}
                           for p in passes for q, r in p["recs"]],
              "spans": runner.spans}
    out = pathlib.Path(args.out) if args.out else (
        BUILD / "results" / f"{wl}-seed{seed}-trace{args.trace}-{os.getpid()}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    for err in runner.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print(f"# {wl} seed={seed} trace={args.trace} passes={len(passes)} "
          f"attempted={runner.attempted} failed={runner.failed} "
          f"failed_ratio={runner.failed / max(runner.attempted, 1):.4g} "
          f"run_s.p50 samples={run_samples} result={out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")
    for name, m in metrics.items():
        s = summary.get(name, {})
        spread = f" q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}" if "q1" in s else ""
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{spread}")
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
