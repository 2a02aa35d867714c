"""Benchmark entry point.

    python3 bench/run.py --workload {s1-mda-c40,s2-mda,s2-bp} --seed N
        --seconds S --trace 0|1 [--input-seed N]

Run from the root of a checkout. The program is used from `src/` of that
checkout; nothing is installed. Each workload runs in one process of its own
(`workload.py`), with one BLAS thread and no worker pool.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; `setup_s` is the median over SETUP_PROBES fresh
interpreters (`inputs.py`) of the wall time from starting the interpreter
to the end of set-up (package import, scenario and config construction),
in seconds at reference speed (see `clock`): scaled by REF_UNIT_S over the
median of the reference unit's times measured here just before each probe
and in each probe just after its set-up. With
`--trace 1` it holds the per-layer metrics of a traced run. Full results, with every sample, are written to
`bench/out/`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("s1-mda-c40", "s2-mda", "s2-bp")
SETUP_PROBES = 5
RUN_LIMIT_S = 175.0     # the whole run, set-up probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The same dict and set layouts in every run.
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start(script, argv, env):
    return subprocess.Popen([sys.executable, str(BENCH / script)] + argv,
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def probe_setup(workload: str, env):
    """Wall seconds from starting a fresh interpreter to its end of set-up,
    and the median reference-unit times just before and just after."""
    unit_before = clock.unit_seconds(clock.PROBE_UNITS)
    t0 = time.perf_counter()
    proc = start("inputs.py", ["--workload", workload], env)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "READY":
        raise RuntimeError(f"set-up probe exited with {proc.returncode} ({line!r})")
    return ready, [unit_before, float(rest.split()[0])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trackfuse benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--input-seed", type=int, default=None,
                        help="seed of the inputs in place of --seed or the "
                             "workload's fixed seed (checks on another "
                             "realization)")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (SRC / "trackfuse" / "__init__.py").is_file():
        print(f"no trackfuse package under {SRC}", file=sys.stderr)
        return 2
    # Write the bytecode cache first, so that no set-up sample compiles it.
    compileall.compile_dir(str(SRC / "trackfuse"), quiet=1)
    env = child_env()

    setup_samples = []
    if not args.trace:
        setup_samples = [probe_setup(args.workload, env) for _ in range(SETUP_PROBES)]
    forward = ["--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.input_seed is not None:
        forward += ["--input-seed", str(args.input_seed)]
    proc = start("workload.py", forward, env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    detail = result.pop("detail")
    if not args.trace:
        # One scale for the run: a probe's own two windows of units are too
        # short to stand for the second it takes.
        walls = [wall for wall, _ in setup_samples]
        units = [u for _, pair in setup_samples for u in pair]
        result["metrics"]["setup_s"] = {
            "value": statistics.median(walls) * clock.REF_UNIT_S / statistics.median(units),
            "unit": "s"}
        detail["setup_wall_s"] = walls
        detail["setup_unit_s"] = units
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(result, detail=detail), indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
