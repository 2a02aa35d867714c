"""Command-line entry point: experiments, sweeps, and invariant checks.

`trackfuse run` makes one scenario config per sweep value, runs all their
Monte Carlo jobs through `sim.monte_carlo_sweep` (`--workers` processes)
and writes plot-ready CSV files plus a human-readable communication
summary. `trackfuse check` prints the results of the property batteries
of `checks` (lemmas, solvers, bp-exactness, metrics) and exits nonzero on
any failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bp as bp_mod
from . import checks
from . import sim as sim_mod
from .errors import InputError, TrackfuseError
from .models import PAYLOADS

ENV_SEED = "TRACKFUSE_SEED"
ENV_OUT = "TRACKFUSE_OUT"

SWEEP_PARAMS = ("clutter_rate", "p_d")

# Upper bounds on the scenario-file numbers. Beyond them a run would not end
# in useful time (scans), the clutter draws and their pairwise tables would
# not fit in memory (clutter_rate), or the squares of the numbers would
# overflow; dt and q keep Q = q^2 G G^T inside the absolute tolerance of the
# motion model's positive-semidefinite test (q^2 dt^4 <= 1e8). A clutter rate
# below CLUTTER_RATE[0] would overflow the inverse clutter intensity.
MAX_SCANS = 10_000
MAX_SCALE = {"dt": 10.0, "q": 100.0, "sigma": 1e4, "fov_range": 1e6}
CLUTTER_RATE = (1e-6, 1e3)
# Most jobs (runs x sweep values) of one experiment: each job is a Monte
# Carlo run over every payload arm, a tenth of a second to seconds, and the
# harness lists every job's config before the first one starts.
MAX_JOBS = 100_000


@dataclass
class ExperimentSpec:
    scenario: str = "scenario1"
    fusion: str = "mda"
    payloads: Sequence[str] = PAYLOADS
    sweep_param: Optional[str] = None
    sweep_values: Sequence[float] = ()
    runs: int = 10
    seed: int = 0
    output_dir: str = "out"
    workers: int = 1
    n_particles: int = 1000

    def __post_init__(self):
        if self.fusion not in ("mda", "bp"):
            raise InputError(f"unknown fusion kind: {self.fusion!r}")
        for p in self.payloads:
            if p not in PAYLOADS:
                raise InputError(f"unknown payload: {p!r}")
        if self.sweep_param is not None and self.sweep_param not in SWEEP_PARAMS:
            raise InputError(f"sweep parameter must be one of {SWEEP_PARAMS}")
        if self.sweep_param == "p_d":
            for v in self.sweep_values:
                if not 0.0 < v <= 1.0:
                    raise InputError("P_d sweep values must be in (0, 1]")
        if self.sweep_param == "clutter_rate":
            for v in self.sweep_values:
                if not CLUTTER_RATE[0] <= v <= CLUTTER_RATE[1]:
                    raise InputError("clutter_rate sweep values must be in "
                                     "[{:g}, {:g}]".format(*CLUTTER_RATE))
        if self.runs < 1:
            raise InputError("runs must be >= 1")
        n_values = len(self.sweep_values) if self.sweep_param else 1
        if self.runs * n_values > MAX_JOBS:
            raise InputError(f"runs x sweep values must be at most {MAX_JOBS}, "
                             f"got {self.runs} x {n_values}")
        if self.workers < 1:
            raise InputError("workers must be >= 1")
        bp_mod.BpConfig(n_particles=self.n_particles)  # checks the particle count


def load_scenario(name: str) -> sim_mod.ScenarioConfig:
    if name == "scenario1":
        return sim_mod.scenario1()
    if name == "scenario2":
        return sim_mod.scenario2()
    return parse_scenario_file(Path(name))


def parse_scenario_file(path: Path) -> sim_mod.ScenarioConfig:
    """Line-oriented key=value scenario description with section headers.

    Sections: one [scenario], one or more [sensor] and [target]. Values
    with commas are float lists. Errors carry the offending line number.
    """
    if not path.exists():
        raise InputError(f"scenario file not found: {path}")
    sections = []
    current = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip().lower(), {}, lineno)
            sections.append(current)
            continue
        if "=" not in line or current is None:
            raise InputError(f"{path}:{lineno}: expected 'key=value' inside a section")
        key, value = (part.strip() for part in line.split("=", 1))
        current[1][key.lower()] = (value, lineno)

    def floats(sec, key, n=None, default=None):
        name, fields, secline = sec
        if key not in fields:
            if default is not None:
                return default
            raise InputError(f"{path}:{secline}: [{name}] is missing '{key}'")
        value, lineno = fields[key]
        try:
            vals = [float(v) for v in value.split(",")]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: '{key}' is not numeric") from exc
        if n is not None and len(vals) != n:
            raise InputError(f"{path}:{lineno}: '{key}' needs {n} values")
        return vals

    def finite(sec, key, n, default=None):
        vals = floats(sec, key, n, default)
        if not all(map(math.isfinite, vals)):
            raise InputError(f"{path}:{sec[1][key][1]}: '{key}' must be finite")
        return vals

    def checked(sec, key, default, ok, rule):
        value = floats(sec, key, 1, None if default is None else [default])[0]
        if not ok(value):
            raise InputError(f"{path}:{sec[1][key][1]}: '{key}' must be {rule}")
        return value

    def positive(sec, key, default):
        high = MAX_SCALE[key]
        return checked(sec, key, default, lambda v: 0.0 < v <= high, f"in (0, {high:g}]")

    def integer(sec, key, low, high):
        return int(checked(sec, key, None, lambda v: v.is_integer() and low <= v <= high,
                           f"an integer in [{low}, {high}]"))

    scen = next((s for s in sections if s[0] == "scenario"), None)
    if scen is None:
        raise InputError(f"{path}: no [scenario] section")
    duration = integer(scen, "duration", 1, MAX_SCANS)
    dt = positive(scen, "dt", 1.0)
    q = checked(scen, "q", 0.1, lambda v: 0.0 <= v <= MAX_SCALE["q"],
                f"in [0, {MAX_SCALE['q']:g}]")
    sigma = positive(scen, "sigma", 5.0)

    sensors = []
    targets = []
    for sec in sections:
        name = sec[0]
        if name == "sensor":
            position = finite(sec, "position", 2)
            if "boresight" in sec[1]:
                boresight = finite(sec, "boresight", 1)[0]
            else:
                aim = finite(sec, "aim_at", 2, [0.0, 0.0])
                boresight = math.atan2(aim[1] - position[1], aim[0] - position[0])
            sensors.append(sim_mod.SensorConfig(
                np.array(position), boresight,
                fov_half_angle=checked(sec, "fov_half_angle", math.pi / 4,
                                       lambda v: 0.0 < v <= math.pi, "in (0, pi]"),
                fov_range=positive(sec, "fov_range", 1200.0),
                p_d=checked(sec, "p_d", 0.9, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                clutter_rate=checked(sec, "clutter_rate", 10.0,
                                     lambda v: CLUTTER_RATE[0] <= v <= CLUTTER_RATE[1],
                                     "in [{:g}, {:g}]".format(*CLUTTER_RATE))))
        elif name == "target":
            birth = integer(sec, "birth", 0, duration - 1)
            targets.append(sim_mod.TargetConfig(
                birth, integer(sec, "death", birth + 1, duration),
                np.array(finite(sec, "state", 4))))
        elif name != "scenario":
            raise InputError(f"{path}:{sec[2]}: unknown section [{name}]")
    if not sensors or not targets:
        raise InputError(f"{path}: need at least one [sensor] and one [target]")
    return sim_mod.ScenarioConfig(duration=duration, dt=dt, q=q, sigma=sigma,
                                  sensors=sensors, targets=targets,
                                  name=path.stem)


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute the experiment and write curves.csv, comm.csv, summary.txt.

    One `sim.monte_carlo_sweep` call runs every (sweep value, run) job, a
    repeated sweep value once. The scenario is loaded before the output
    directory is made, so a bad scenario file leaves nothing behind.
    """
    cfg = load_scenario(spec.scenario)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_values = list(dict.fromkeys(spec.sweep_values)) if spec.sweep_param else [None]
    cfgs = [cfg if sv is None else cfg.with_overrides(**{spec.sweep_param: sv})
            for sv in sweep_values]
    per_cfg = sim_mod.monte_carlo_sweep(
        cfgs, spec.fusion, spec.payloads, spec.runs, spec.seed,
        bp_cfg=bp_mod.BpConfig(n_particles=spec.n_particles), workers=spec.workers)
    # results[(sweep_value, payload)] -> list of RunRecord in run order
    results = {(sv, payload): records for sv, per_payload in zip(sweep_values, per_cfg)
               for payload, records in per_payload.items()}

    _write_curves(out_dir / "curves.csv", spec, results)
    _write_comm(out_dir / "comm.csv", spec, results)
    _write_summary(out_dir / "summary.txt", spec, results)
    return 0


def _sweep_key(value):
    return -math.inf if value is None else float(value)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_curves(path: Path, spec: ExperimentSpec, results):
    rows = []
    for (sweep_value, payload), records in results.items():
        sv = "" if sweep_value is None else _fmt(sweep_value)
        for metric in ("card_est", "card_true", "ospa", "ospa2"):
            curve = np.mean([getattr(r, metric) for r in records], axis=0)
            rows += [(scan, _sweep_key(sweep_value), payload, metric, sv, _fmt(mean))
                     for scan, mean in enumerate(curve.tolist(), start=1)]
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("scan,metric,sweep_value,payload,fusion,mean\n")
        for scan, _, payload, metric, sv, mean in rows:
            fh.write(f"{scan},{metric},{sv},{payload},{spec.fusion},{mean}\n")


def _write_comm(path: Path, spec: ExperimentSpec, results):
    rows = []
    for (sweep_value, payload), records in results.items():
        mean_bytes = float(np.mean([r.mean_comm_bytes for r in records]))
        rows.append((_sweep_key(sweep_value),
                     "" if sweep_value is None else _fmt(sweep_value),
                     payload, _fmt(mean_bytes)))
    rows.sort(key=lambda r: (r[0], r[2]))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("sweep_value,payload,mean_bytes_per_scan\n")
        for _, sv, payload, mean_bytes in rows:
            fh.write(f"{sv},{payload},{mean_bytes}\n")


def _write_summary(path: Path, spec: ExperimentSpec, results):
    sweep_values = sorted({k[0] for k in results}, key=_sweep_key)
    header = f"{'payload':<10}" + "".join(
        f"{'default' if sv is None else spec.sweep_param + '=' + _fmt(sv):>18}"
        for sv in sweep_values)

    def table(cell):
        """The header and one row per payload of `cell(records)` columns."""
        return [header] + [f"{payload:<10}" + "".join(
            cell(results[(sv, payload)]) for sv in sweep_values)
            for payload in spec.payloads]

    lines = ["Communication requirements at the fusion center (mean bytes/scan)",
             f"scenario={spec.scenario} fusion={spec.fusion} runs={spec.runs} "
             f"seed={spec.seed}", ""]
    lines += table(lambda records: "{:>17.1f}B".format(
        float(np.mean([r.mean_comm_bytes for r in records]))))
    lines += ["", "Mean OSPA (m) over scans and runs"]
    lines += table(lambda records: "{:>18.3f}".format(
        float(np.mean([r.mean_ospa for r in records]))))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Property check suites
# ---------------------------------------------------------------------------

def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def run_checks(suite: str) -> int:
    if suite == "all":
        names = list(checks.SUITES)
    elif suite in checks.SUITES:
        names = [suite]
    else:
        print(f"unknown check suite {suite!r}; choose from "
              f"{sorted(checks.SUITES)} or 'all'", file=sys.stderr)
        return 2
    all_ok = True
    for name in names:
        print(f"== {name} ==")
        for result in checks.SUITES[name]():
            all_ok &= _report(*result)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackfuse",
        description="Multisensor track association and fusion experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte Carlo experiment")
    run_p.add_argument("--scenario", default="scenario1",
                       help="scenario1, scenario2, or a scenario file path")
    run_p.add_argument("--fusion", default="mda", choices=("mda", "bp"))
    run_p.add_argument("--payload", default="raw,type1,type2",
                       help="comma list from {raw, type1, type2}")
    run_p.add_argument("--runs", type=int, default=10)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--sweep", default=None,
                       help="PARAM=v1,v2,... with PARAM in {clutter_rate, p_d}")
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--workers", type=int, default=1)
    run_p.add_argument("--particles", type=int, default=1000,
                       help=f"particles per BP target (at most {bp_mod.MAX_PARTICLES})")

    check_p = sub.add_parser("check", help="run a property-check suite")
    check_p.add_argument("suite", choices=sorted(checks.SUITES) + ["all"])
    return parser


def spec_from_args(args) -> ExperimentSpec:
    sweep_param = None
    sweep_values: list = []
    if args.sweep:
        if "=" not in args.sweep:
            raise InputError("--sweep must look like clutter_rate=10,20")
        sweep_param, values = args.sweep.split("=", 1)
        sweep_param = sweep_param.strip()
        try:
            sweep_values = [float(v) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise InputError(f"--sweep values must be numeric: {values!r}") from exc
        if not sweep_values:
            raise InputError("--sweep needs at least one value")
    seed = int(os.environ.get(ENV_SEED, args.seed))
    out = os.environ.get(ENV_OUT, args.out)
    return ExperimentSpec(
        scenario=args.scenario, fusion=args.fusion,
        payloads=tuple(p.strip() for p in args.payload.split(",") if p.strip()),
        sweep_param=sweep_param, sweep_values=tuple(sweep_values),
        runs=args.runs, seed=seed, output_dir=out, workers=args.workers,
        n_particles=args.particles)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(spec_from_args(args))
        return run_checks(args.suite)
    except TrackfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
