#!/usr/bin/env python3
"""Compare perfbench result files of two commits.

    python3 perfbench/compare.py --base P1.json P2.json ... --change C1.json C2.json ...

Each file is one run.py result (see --out).  Files pair up by position:
base[i] against change[i], which should be run back to back with the
side that goes first alternating.  For every workload and end-to-end
metric the report gives each side's median and quartiles, the share of
pairs the change won (ties count for neither side) and a verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ
              by more than the base runs' own quartile spread
  regression  the change median is worse than the base median by more
              than the metric's bound in BENCHMARK.json
  unresolved  the base spread is wider than the bound, and not every
              change run beat every base run
  same        none of the above

Per-layer files (--trace 1) are listed as median ratios without a
verdict.  Results from different hosts are refused: the CPU model and
core count must match, and the median effective parallelism (1 vs nproc
concurrent spin loops) of the two sides must agree within a factor 2.
Exit code: 0, 1 when any metric regressed, 2 when refused.
"""

import argparse
import json
import pathlib
import statistics
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def fingerprint(rec):
    host = rec["provenance"]["host"]
    return host["cpu_model"], host["nproc"]


def refuse_reason(base, change):
    prints = {fingerprint(r) for r in base + change}
    if len(prints) > 1:
        return f"results come from different hosts: {sorted(prints)}"
    par = [statistics.median(r["provenance"]["host"]["effective_parallelism"] for r in side)
           for side in (base, change)]
    if max(par) > 2 * min(par):
        return (f"effective parallelism differs between the sides "
                f"(base {par[0]:.2f}, change {par[1]:.2f} cores)")
    return None


def verdict(base, change, better, bound):
    lower = better == "lower"
    q1, bmed, q3 = quartiles(base)
    cmed = statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if pairs and wins >= 0.9 * len(pairs) and -worse_by * bmed > q3 - q1:
        v = "gain"
    elif worse_by > bound:
        v = "regression"
    elif (q3 - q1) / bmed > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return v, wins, len(pairs), cmed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    load = lambda paths: [json.loads(pathlib.Path(p).read_text()) for p in paths]
    base, change = load(args.base), load(args.change)
    reason = refuse_reason(base, change)
    if reason:
        print(f"compare: refused: {reason}", file=sys.stderr)
        return 2

    groups = {}
    for side, recs in (("base", base), ("change", change)):
        for r in recs:
            key = (r["workload"], r["trace"])
            groups.setdefault(key, {"base": [], "change": []})[side].append(r)
    regressed = False
    for (wl, trace), sides in sorted(groups.items()):
        if not sides["base"] or not sides["change"]:
            print(f"## {wl} trace={trace}: missing one side, skipped")
            continue
        print(f"## {wl} trace={trace}: {len(sides['base'])} base, {len(sides['change'])} change runs")
        names = sides["base"][0]["result"]["metrics"]
        for name in names:
            b = [r["result"]["metrics"][name]["value"] for r in sides["base"]]
            c = [r["result"]["metrics"][name]["value"] for r in sides["change"]
                 if name in r["result"]["metrics"]]
            unit = names[name]["unit"]
            q1, bmed, q3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            line = (f"{name:48s} base {bmed:.5g} [{q1:.5g}, {q3:.5g}]  "
                    f"change {cmed:.5g} [{cq1:.5g}, {cq3:.5g}] {unit}")
            if trace == 0 and name in e2e:
                v, wins, n, _ = verdict(b, c, e2e[name]["better"], e2e[name]["bound"])
                regressed |= v == "regression"
                line += f"  wins {wins}/{n}  {v}"
            elif bmed:
                line += f"  ratio {cmed / bmed:.3f}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
