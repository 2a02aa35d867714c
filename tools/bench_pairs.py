"""Paired benchmark runs of two checkouts, summarized in one JSON file.

    python3 tools/bench_pairs.py --base DIR --head DIR --out BENCH_<slug>.json
        [--workloads s2-bp s1-mda-c40] [--pairs 10] [--first-seed 1]
        [--seconds 10] [--traced 1]

Each side runs `bench/run.py` of its own checkout, so both sides use their
own benchmark files and program. Pair k runs `--seed first_seed + k` on both
sides, alternating which side runs first. Then the sides make `--traced`
traced runs each (`--trace 1`, seed 0) for the per-layer metrics, again in
alternating pairs, so that drift of the machine's speed does not land on
one side.

For every end-to-end metric of `BENCHMARK.json` (read from the head) the
file holds each side's runs, median and quartiles, the relative change of
the medians, how many pairs the head won (ties count for neither side),
and three flags:

- `gain_shown`: the head won at least nine tenths of the pairs and its
  median is better than the base median by more than the distance between
  the base quartiles.
- `regressed`: the head median is worse than the base median by more than
  the metric's bound, relative to the base median.
- `unresolved`: the quartile spread of either side exceeds the bound,
  relative to that side's median, and not every head run beats every base
  run; such a metric cannot be called unchanged.

Per-layer metrics are the medians over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int):
    """One `bench/run.py` run; returns its result object, or None on failure."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def alternating(n: int, run):
    """n runs per side: `run(side, k)` for pair k, base first when k is even
    and head first when k is odd. Returns {"base": [...], "head": [...]}."""
    runs = {"base": [], "head": []}
    for k in range(n):
        for side in (("base", "head") if k % 2 == 0 else ("head", "base")):
            runs[side].append(run(side, k))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, base_runs, head_runs):
    """End-to-end comparison of paired runs (a missing run loses its pair)."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"

        def values(runs):
            return [r["metrics"][name]["value"] if r else None for r in runs]

        base, head = values(base_runs), values(head_runs)
        wins = sum(1 for b, h in zip(base, head)
                   if b is not None and h is not None and (h < b if lower else h > b))
        b_ok = [v for v in base if v is not None]
        h_ok = [v for v in head if v is not None]
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "bound": metric["bound"], "pairs": len(base), "head_wins": wins}
        if b_ok and h_ok:
            b1, b2, b3 = quartiles(b_ok)
            h1, h2, h3 = quartiles(h_ok)
            gain = (b2 - h2) if lower else (h2 - b2)
            bound = metric["bound"]
            head_beats_all = (max(h_ok) < min(b_ok)) if lower else (min(h_ok) > max(b_ok))
            entry.update({
                "base": {"median": b2, "q1": b1, "q3": b3, "runs": base},
                "head": {"median": h2, "q1": h1, "q3": h3, "runs": head},
                "change": (h2 - b2) / b2 if b2 else 0.0,
                "gain_shown": (wins >= 0.9 * len(base) and gain > (b3 - b1)),
                "regressed": -gain > bound * abs(b2),
                "unresolved": ((b3 - b1) > bound * abs(b2) or (h3 - h1) > bound * abs(h2))
                              and not head_beats_all,
            })
        out[name] = entry
    return out


def per_layer(runs):
    ok = [r for r in runs if r]
    if not ok:
        return {}
    names = ok[0]["metrics"]
    return {name: {"value": statistics.median(r["metrics"][name]["value"] for r in ok),
                   "unit": names[name]["unit"]} for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired benchmark runs")
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--traced", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    report = {
        "command": " ".join([Path(sys.argv[0]).name] + (argv or sys.argv[1:])),
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "seconds": seconds,
        "workloads": {},
    }
    for workload in workloads:
        runs = alternating(args.pairs, lambda side, k: run_bench(
            sides[side], workload, args.first_seed + k, seconds, 0))
        traced = alternating(args.traced, lambda side, k: run_bench(
            sides[side], workload, 0, seconds, 1))
        report["workloads"][workload] = {
            "failed_ops": {side: [r["failed"] if r else None for r in runs[side]]
                           for side in sides},
            "correct": {side: [bool(r and r["correct"])
                               for r in runs[side] + traced[side]] for side in sides},
            "end_to_end": summarize(spec, runs["base"], runs["head"]),
            "per_layer": {side: per_layer(traced[side]) for side in sides},
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
