"""Steadiness report, side-by-side comparison and gate self-check.

Runs are read from JSONL record files written by ``run.py --record``:
one object per run with its workload, seed, fingerprint, environment and
result.  Quartiles are ``statistics.quantiles(values, n=4)`` and a
metric's *spread* is ``(q3 - q1) / median``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        if rec["trace"] == trace and not rec.get("perturb"):
            out[rec["workload"]].append(rec)
    return out


def fingerprint_conflicts(*record_sets: list[dict]) -> list[str]:
    """(workload, seed, seconds) keys whose runs did different work."""
    seen: dict[tuple, dict] = {}
    conflicts = []
    for records in record_sets:
        for rec in records:
            key = (rec["workload"], rec["seed"], rec["seconds"])
            if key in seen and seen[key] != rec["fingerprint"]:
                conflicts.append(f"{key}: {seen[key]} != {rec['fingerprint']}")
            seen.setdefault(key, rec["fingerprint"])
    return conflicts


def values_of(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


# ----------------------------------------------------------------------
def steadiness(records: list[dict], spec: dict) -> int:
    """Print median, quartiles and spread per metric; flag spreads over
    their bound.  Returns the number of flagged metrics."""
    flagged = 0
    print(f"{'workload':<14} {'metric':<13} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  flag")
    for workload, runs in sorted(by_workload(records, 0).items()):
        for metric in spec["end_to_end"]:
            vals = values_of(runs, metric["name"])
            if not vals:
                continue
            s = summary(vals)
            # setup_s is gated on its median only, not on its spread.
            over = metric["name"] != "setup_s" and s["spread"] > metric["bound"]
            tight = s["spread"] <= metric["bound"] / 3
            flag = "OVER BOUND" if over else ("" if tight else "above bound/3")
            flagged += over
            print(f"{workload:<14} {metric['name']:<13} {s['n']:>3} {s['median']:>12.4f} "
                  f"{s['q1']:>12.4f} {s['q3']:>12.4f} {s['spread']:>7.2%} "
                  f"{metric['bound']:>6.2f}  {flag}")
        failed = sum(1 for r in runs if not r["correct"])
        if failed:
            flagged += 1
            print(f"{workload:<14} {failed} run(s) failed the correctness gate")
    return flagged


def verdict(old: list[float], new: list[float], metric: dict) -> tuple[str, float]:
    so, sn = summary(old), summary(new)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    change = (sn["median"] - so["median"]) / so["median"] if so["median"] else 0.0
    worse = sign * change
    bound = metric["bound"]
    if metric["name"] != "setup_s" and max(so["spread"], sn["spread"]) > bound:
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "better", change
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "worse", change
        return "unresolved", change
    if worse > bound:
        return "REGRESSION", change
    if -worse > so["spread"]:
        return "improved", change
    return "same", change


def compare(old: list[dict], new: list[dict], spec: dict) -> int:
    conflicts = fingerprint_conflicts(old, new)
    if conflicts:
        print("refusing to compare: runs of one seed did different work")
        for line in conflicts:
            print("  " + line)
        return 2
    regressions = 0
    old_e2e, new_e2e = by_workload(old, 0), by_workload(new, 0)
    print(f"{'workload':<14} {'metric':<13} {'old median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'change':>8}  verdict")
    for workload in sorted(set(old_e2e) & set(new_e2e)):
        for metric in spec["end_to_end"]:
            o = values_of(old_e2e[workload], metric["name"])
            n = values_of(new_e2e[workload], metric["name"])
            if not o or not n:
                continue
            so, sn = summary(o), summary(n)
            what, change = verdict(o, n, metric)
            regressions += what in ("REGRESSION", "worse")
            print(f"{workload:<14} {metric['name']:<13} "
                  f"{so['median']:>12.4f} [{so['q1']:>9.4f}, {so['q3']:>9.4f}] "
                  f"{sn['median']:>12.4f} [{sn['q1']:>9.4f}, {sn['q3']:>9.4f}] "
                  f"{change:>+8.2%}  {what}")
    old_tr, new_tr = by_workload(old, 1), by_workload(new, 1)
    for workload in sorted(set(old_tr) & set(new_tr)):
        print(f"\n{workload}: per-layer self time and counts (traced runs)")
        for metric in spec["per_layer"]:
            o = values_of(old_tr[workload], metric["name"])
            n = values_of(new_tr[workload], metric["name"])
            if not o or not n:
                continue
            mo, mn = statistics.median(o), statistics.median(n)
            if mo == 0.0 and mn == 0.0:
                continue
            delta = mn - mo
            print(f"  {metric['name']:<28} {mo:>14.4f} -> {mn:>14.4f}  "
                  f"{delta:>+14.4f} {metric['unit']}")
    return 1 if regressions else 0


# ----------------------------------------------------------------------
def run_many(script: Path, workloads: list[str], seeds: list[int], seconds: float,
             trace: int, out: Path, perturb: bool = False) -> None:
    """One subprocess run per workload and seed, recorded into ``out``."""
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace), "--record", str(out)]
            if perturb:
                cmd.append("--perturb")
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            print(f"  {workload} seed={seed} trace={trace}"
                  f"{' perturbed' if perturb else ''}: exit {proc.returncode}", flush=True)


def main(argv: list[str], spec: dict, script: Path) -> int:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog=f"{script.name} {argv[0]}")
    mode = argv[0]
    if mode == "compare":
        parser.add_argument("old")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(load(args.old), load(args.new), spec)
    if mode == "selfcheck":
        parser.add_argument("--seconds", type=float, default=1.0)
        parser.add_argument("--out", default=".perfledger/selfcheck.jsonl")
        args = parser.parse_args(argv[1:])
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.unlink(missing_ok=True)
        run_many(script, names, [1], args.seconds, 0, out, perturb=True)
        caught = {r["workload"]: not r["correct"] for r in load(out)}
        for name in names:
            print(f"{name:<14} perturbed score {'caught' if caught.get(name) else 'MISSED'}")
        return 0 if all(caught.get(n) for n in names) else 1
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--traced", action="store_true", help="also one traced run each")
    parser.add_argument("--out", default=".perfledger/steady.jsonl")
    parser.add_argument("--from", dest="source", help="report on an existing record file")
    args = parser.parse_args(argv[1:])
    if args.source:
        records = load(args.source)
    else:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        chosen = args.workloads.split(",")
        seeds = list(range(args.seed0, args.seed0 + args.runs))
        run_many(script, chosen, seeds, args.seconds, 0, out)
        if args.traced:
            run_many(script, chosen, seeds[:1], args.seconds, 1, out)
        records = load(out)
    conflicts = fingerprint_conflicts(records)
    for line in conflicts:
        print("fingerprint mismatch: " + line)
    return 1 if steadiness(records, spec) or conflicts else 0
