"""Command-line entry point: experiments, sweeps, and invariant checks.

`trackfuse run` dispatches Monte Carlo experiments and writes plot-ready
CSV files plus a human-readable communication summary. `trackfuse check`
runs the numerical property batteries (lemmas, solvers, bp-exactness,
metrics) with fixed seeds and exits nonzero on any failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bp as bp_mod
from . import mda as mda_mod
from . import metrics as metrics_mod
from . import sim as sim_mod
from .errors import InputError
from .linalg import pinv_psd
from .models import MeasurementModel
from .transform import (
    ClutterModel,
    clutter_density_transformed,
    make_generic,
)

ENV_SEED = "TRACKFUSE_SEED"
ENV_OUT = "TRACKFUSE_OUT"

SWEEP_PARAMS = ("clutter_rate", "p_d")


@dataclass
class ExperimentSpec:
    scenario: str = "scenario1"
    fusion: str = "mda"
    payloads: Sequence[str] = ("raw", "type1", "type2")
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
            if p not in ("raw", "type1", "type2"):
                raise InputError(f"unknown payload: {p!r}")
        if self.sweep_param is not None and self.sweep_param not in SWEEP_PARAMS:
            raise InputError(f"sweep parameter must be one of {SWEEP_PARAMS}")
        if self.sweep_param == "p_d":
            for v in self.sweep_values:
                if not 0.0 < v <= 1.0:
                    raise InputError("P_d sweep values must be in (0, 1]")
        for v in self.sweep_values:
            if v <= 0:
                raise InputError("sweep values must be positive")
        if self.runs < 1:
            raise InputError("runs must be >= 1")
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

    def checked(sec, key, default, ok, rule):
        value = floats(sec, key, 1, [default])[0]
        if not ok(value):
            raise InputError(f"{path}:{sec[1][key][1]}: '{key}' must be {rule}")
        return value

    scen = next((s for s in sections if s[0] == "scenario"), None)
    if scen is None:
        raise InputError(f"{path}: no [scenario] section")
    duration = int(floats(scen, "duration", 1)[0])
    dt = floats(scen, "dt", 1, [1.0])[0]
    q = floats(scen, "q", 1, [0.1])[0]
    sigma = floats(scen, "sigma", 1, [5.0])[0]

    sensors = []
    targets = []
    for sec in sections:
        name = sec[0]
        if name == "sensor":
            position = floats(sec, "position", 2)
            if "boresight" in sec[1]:
                boresight = floats(sec, "boresight", 1)[0]
            else:
                aim = floats(sec, "aim_at", 2, [0.0, 0.0])
                boresight = math.atan2(aim[1] - position[1], aim[0] - position[0])
            p_d = checked(sec, "p_d", 0.9, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
            clutter_rate = checked(sec, "clutter_rate", 10.0, lambda v: v > 0.0,
                                   "positive")
            sensors.append(sim_mod.SensorConfig(
                np.array(position), boresight,
                fov_half_angle=floats(sec, "fov_half_angle", 1, [math.pi / 4])[0],
                fov_range=floats(sec, "fov_range", 1, [1200.0])[0],
                p_d=p_d, clutter_rate=clutter_rate))
        elif name == "target":
            targets.append(sim_mod.TargetConfig(
                int(floats(sec, "birth", 1)[0]),
                int(floats(sec, "death", 1)[0]),
                np.array(floats(sec, "state", 4))))
        elif name != "scenario":
            raise InputError(f"{path}:{sec[2]}: unknown section [{name}]")
    if not sensors or not targets:
        raise InputError(f"{path}: need at least one [sensor] and one [target]")
    return sim_mod.ScenarioConfig(duration=duration, dt=dt, q=q, sigma=sigma,
                                  sensors=sensors, targets=targets,
                                  name=path.stem)


def _run_one_job(args):
    """Worker entry: one (sweep value, run index) pair across payload arms."""
    spec_dict, sweep_value, run_idx = args
    spec = ExperimentSpec(**spec_dict)
    cfg = load_scenario(spec.scenario)
    if spec.sweep_param == "clutter_rate":
        cfg = cfg.with_overrides(clutter_rate=sweep_value)
    elif spec.sweep_param == "p_d":
        cfg = cfg.with_overrides(p_d=sweep_value)
    bp_cfg = bp_mod.BpConfig(n_particles=spec.n_particles)
    single = sim_mod.run_single(cfg, spec.fusion, list(spec.payloads), run_idx,
                                spec.seed, bp_cfg=bp_cfg)
    return sweep_value, run_idx, single


def pool_size(workers: int, n_jobs: int) -> int:
    """Worker processes for n_jobs jobs: no more than requested, than there
    are jobs, or than the machine has CPUs."""
    return min(workers, n_jobs, os.cpu_count() or 1)


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute the experiment and write curves.csv, comm.csv, summary.txt."""
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep_values = list(spec.sweep_values) if spec.sweep_param else [None]

    jobs = [(spec.__dict__.copy(), sv, run)
            for sv in sweep_values for run in range(spec.runs)]
    for job in jobs:
        job[0]["payloads"] = list(spec.payloads)
        job[0]["sweep_values"] = list(spec.sweep_values)
    workers = pool_size(spec.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw_results = list(pool.map(_run_one_job, jobs))
    else:
        raw_results = [_run_one_job(job) for job in jobs]

    # results[(sweep_value, payload)] -> list of RunRecord in run order
    results = {}
    for sweep_value, run_idx, single in sorted(
            raw_results, key=lambda r: (_sweep_key(r[0]), r[1])):
        for payload, record in single.items():
            results.setdefault((sweep_value, payload), []).append(record)

    duration = load_scenario(spec.scenario).duration
    _write_curves(out_dir / "curves.csv", spec, results, duration)
    _write_comm(out_dir / "comm.csv", spec, results)
    _write_summary(out_dir / "summary.txt", spec, results)
    return 0


def _sweep_key(value):
    return -math.inf if value is None else float(value)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _write_curves(path: Path, spec: ExperimentSpec, results, duration: int):
    rows = []
    for (sweep_value, payload), records in results.items():
        curves = {
            "ospa": np.mean([r.ospa for r in records], axis=0),
            "ospa2": np.mean([r.ospa2 for r in records], axis=0),
            "card_est": np.mean([r.card_est for r in records], axis=0),
            "card_true": np.mean([r.card_true for r in records], axis=0),
        }
        sv = "" if sweep_value is None else _fmt(sweep_value)
        for metric in sorted(curves):
            for scan in range(1, duration + 1):
                rows.append((scan, _sweep_key(sweep_value), payload, metric,
                             sv, _fmt(float(curves[metric][scan - 1]))))
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
    payloads = list(spec.payloads)
    label = spec.sweep_param or "default"
    lines = [
        "Communication requirements at the fusion center (mean bytes/scan)",
        f"scenario={spec.scenario} fusion={spec.fusion} runs={spec.runs} "
        f"seed={spec.seed}",
        "",
        f"{'payload':<10}" + "".join(
            f"{(label + '=' + _fmt(sv)) if sv is not None else 'default':>18}"
            for sv in sweep_values),
    ]
    for payload in payloads:
        cells = []
        for sv in sweep_values:
            records = results.get((sv, payload), [])
            mean_bytes = float(np.mean([r.mean_comm_bytes for r in records]))
            cells.append(f"{mean_bytes:>17.1f}B")
        lines.append(f"{payload:<10}" + "".join(cells))
    lines.append("")
    lines.append("Mean OSPA (m) over scans and runs")
    lines.append(f"{'payload':<10}" + "".join(
        f"{(label + '=' + _fmt(sv)) if sv is not None else 'default':>18}"
        for sv in sweep_values))
    for payload in payloads:
        cells = []
        for sv in sweep_values:
            records = results.get((sv, payload), [])
            mean_ospa = float(np.mean([r.mean_ospa for r in records]))
            cells.append(f"{mean_ospa:>18.3f}")
        lines.append(f"{payload:<10}" + "".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Property check suites
# ---------------------------------------------------------------------------

def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def check_lemmas(seed: int = 1234) -> bool:
    """Pseudoinverse, determinant, clutter-volume and MLE identities."""
    rng = np.random.default_rng(seed)
    worst = {"pinv": 0.0, "det": 0.0, "volume": 0.0, "mle": 0.0}
    for _ in range(200):
        m = int(rng.integers(1, 5))
        extra = int(rng.integers(0, 4))
        g = rng.standard_normal((m, m))
        s = g @ g.T + 0.1 * np.eye(m)
        a = rng.standard_normal((m + extra, m))

        lhs = a.T @ pinv_psd(a @ s @ a.T) @ a
        rhs = np.linalg.inv(s)
        worst["pinv"] = max(worst["pinv"],
                            np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))

        eig = np.linalg.eigvalsh(a @ s @ a.T)
        nonzero = eig[eig > 1e-12 * eig.max()]
        prod_e = float(np.prod(nonzero))
        det_form = float(np.linalg.det(s) * np.linalg.det(a.T @ a))
        worst["det"] = max(worst["det"], abs(prod_e - det_form) / abs(det_form))

        clutter = ClutterModel(10.0, 1000.0)
        h = rng.standard_normal((m, 4))
        tr = make_generic(a, MeasurementModel(h, s))
        scaled = clutter_density_transformed(clutter, tr)
        ratio = clutter.density / scaled.density
        worst["volume"] = max(worst["volume"],
                              abs(ratio - math.sqrt(det_form / np.linalg.det(s)))
                              / ratio)

    rng2 = np.random.default_rng(seed + 1)
    done = 0
    while done < 200:
        views_raw, views_tr, meas, meas_t = [], [], [], []
        x_true = rng2.standard_normal(4) * 50
        conditioned = True
        for l in range(2):
            h = rng2.standard_normal((2, 4)) if l else np.hstack(
                [np.eye(2), np.eye(2)])
            g = rng2.standard_normal((2, 2))
            r = g @ g.T + 0.5 * np.eye(2)
            a = rng2.standard_normal((int(rng2.integers(2, 6)), 2))
            # near-rank-deficient draws measure fp amplification, not the
            # identity; keep instances numerically well posed
            if np.linalg.cond(a) > 100 or np.linalg.cond(r) > 1e3:
                conditioned = False
                break
            clut = ClutterModel(10.0, 1e6)
            tr = make_generic(a, MeasurementModel(h, r))
            z = h @ x_true + rng2.standard_normal(2)
            meas.append(z)
            meas_t.append(a @ z)
            views_raw.append(mda_mod.SensorView(h, r, 0.9, clut, False))
            views_tr.append(mda_mod.SensorView(
                tr.Ht, tr.Rt, 0.9, clutter_density_transformed(clut, tr), True))
        if not conditioned:
            continue
        info, _ = mda_mod._stacked_information(meas, views_raw)
        if np.linalg.cond(info) > 1e6:
            continue
        x_raw = mda_mod.mle_state(meas, views_raw)
        x_tr = mda_mod.mle_state(meas_t, views_tr)
        worst["mle"] = max(worst["mle"],
                           np.linalg.norm(x_raw - x_tr)
                           / max(np.linalg.norm(x_raw), 1e-12))
        done += 1

    ok = True
    ok &= _report("pinv identity A'(ASA')+A = S^-1", worst["pinv"] <= 1e-8,
                  f"worst rel residual {worst['pinv']:.3e}")
    ok &= _report("det identity prod(e) = |S||A'A|", worst["det"] <= 1e-8,
                  f"worst rel residual {worst['det']:.3e}")
    ok &= _report("clutter volume ratio sqrt|A'A|", worst["volume"] <= 1e-8,
                  f"worst rel residual {worst['volume']:.3e}")
    ok &= _report("MLE raw = MLE transformed", worst["mle"] <= 1e-8,
                  f"worst rel residual {worst['mle']:.3e}")
    return ok


def check_solvers(seed: int = 77) -> bool:
    """Exact solver vs enumeration; relaxation within 5% of optimal."""
    rng = np.random.default_rng(seed)
    exact_ok = 0
    within = 0
    n_tables = 100
    worst_gap = 0.0
    for _ in range(n_tables):
        n_tracks = int(rng.integers(2, 4))
        m1, m2 = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        groups = []
        for _t in range(n_tracks):
            cands = [mda_mod.Candidate((0, 0), float(abs(rng.normal())) * 0.5)]
            for i in range(m1 + 1):
                for j in range(m2 + 1):
                    if (i, j) == (0, 0) or rng.random() > 0.7:
                        continue
                    cands.append(mda_mod.Candidate((i, j), float(rng.normal())))
            groups.append(cands)
        prob = mda_mod.AssignmentProblem("maintenance", groups, 2, [m1, m2])
        exact = mda_mod.solve_assignment_exact(prob)
        enum_cost, _ = mda_mod.enumerate_assignment_minimum(prob)
        if abs(exact.total_cost - enum_cost) < 1e-12 and \
                not mda_mod.constraint_violations(prob, exact):
            exact_ok += 1
        relaxed = mda_mod.solve_assignment_relaxed(prob)
        rel = (relaxed.total_cost - exact.total_cost) / max(abs(exact.total_cost),
                                                            1e-12)
        worst_gap = max(worst_gap, rel)
        if rel <= 0.05 and not mda_mod.constraint_violations(prob, relaxed):
            within += 1
    ok = True
    ok &= _report("branch-and-bound = enumeration", exact_ok == n_tables,
                  f"{exact_ok}/{n_tables} exact")
    ok &= _report("relaxation within 5% of optimal", within >= 95,
                  f"{within}/{n_tables} within 5%, worst {worst_gap:.4f}")
    return ok


def _enum_association_marginals(beta: np.ndarray, xi: np.ndarray):
    """Brute-force marginals of the constrained association distribution."""
    n, m = beta.shape[0], beta.shape[1] - 1
    pa = np.zeros_like(beta)
    pb = np.zeros_like(xi)
    for avec in itertools.product(range(m + 1), repeat=n):
        for bvec in itertools.product(range(n + 1), repeat=m):
            ok = True
            for t in range(n):
                for i in range(m):
                    a, b = avec[t], bvec[i]
                    if (a == i + 1 and b != t + 1) or (b == t + 1 and a != i + 1):
                        ok = False
            if not ok:
                continue
            w = np.prod([beta[t, avec[t]] for t in range(n)]) * \
                np.prod([xi[i, bvec[i]] for i in range(m)])
            for t in range(n):
                pa[t, avec[t]] += w
            for i in range(m):
                pb[i, bvec[i]] += w
    return (pa / pa.sum(axis=1, keepdims=True),
            pb / pb.sum(axis=1, keepdims=True))


def check_bp_exactness(seed: int = 99) -> bool:
    """BP association marginals equal enumeration on tree instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(50):
        if trial % 2 == 0:
            n, m = 1, int(rng.integers(1, 5))
        else:
            n, m = int(rng.integers(1, 5)), 1
        beta = rng.uniform(0.1, 2.0, (n, m + 1))
        xi = np.ones((m, n + 1))
        xi[:, 0] = rng.uniform(0.5, 3.0, m)
        msgs = bp_mod.AssociationMessages(beta.copy(), xi.copy())
        kappa, iota = bp_mod.iterative_association(msgs, 10)
        pa = beta * kappa
        pa /= pa.sum(axis=1, keepdims=True)
        pb = xi * iota
        pb /= pb.sum(axis=1, keepdims=True)
        pa_ref, pb_ref = _enum_association_marginals(beta, xi)
        worst = max(worst, float(np.max(np.abs(pa - pa_ref))),
                    float(np.max(np.abs(pb - pb_ref))))
    return _report("BP tree exactness vs enumeration", worst <= 1e-12,
                   f"worst abs deviation {worst:.3e}")


def check_metrics(seed: int = 5) -> bool:
    """Byte-table spot checks; OSPA metric axioms."""
    ok = True
    expected = {"raw": 10400, "info_filter": 22400, "type1": 8000, "type2": 4000}
    got = {k: metrics_mod.comm_bytes(k, 2, 4, 100) for k in expected}
    ok &= _report("byte table (m=2, n=4, N=100)", got == expected, f"{got}")

    rng = np.random.default_rng(seed)
    params = metrics_mod.OspaParams(c=50.0, p=2.0)
    worst_tri = 0.0
    sym_ok = True
    for _ in range(200):
        sets = [rng.uniform(-100, 100, (int(rng.integers(0, 6)), 2))
                for _ in range(3)]
        dxy = metrics_mod.ospa(sets[0], sets[1], params)
        dyx = metrics_mod.ospa(sets[1], sets[0], params)
        sym_ok &= dxy == dyx
        dyz = metrics_mod.ospa(sets[1], sets[2], params)
        dxz = metrics_mod.ospa(sets[0], sets[2], params)
        worst_tri = max(worst_tri, dxz - (dxy + dyz))
        ok_id = metrics_mod.ospa(sets[0], sets[0], params) == 0.0
        sym_ok &= ok_id
    ok &= _report("OSPA symmetry and identity", sym_ok, "exact")
    ok &= _report("OSPA triangle inequality", worst_tri <= 1e-9,
                  f"worst violation {worst_tri:.3e}")
    return ok


CHECK_SUITES = {
    "lemmas": check_lemmas,
    "solvers": check_solvers,
    "bp-exactness": check_bp_exactness,
    "metrics": check_metrics,
}


def run_checks(suite: str) -> int:
    if suite == "all":
        names = list(CHECK_SUITES)
    elif suite in CHECK_SUITES:
        names = [suite]
    else:
        print(f"unknown check suite {suite!r}; choose from "
              f"{sorted(CHECK_SUITES)} or 'all'", file=sys.stderr)
        return 2
    all_ok = True
    for name in names:
        print(f"== {name} ==")
        all_ok &= CHECK_SUITES[name]()
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
                       help="particles per BP target")

    check_p = sub.add_parser("check", help="run a property-check suite")
    check_p.add_argument("suite", choices=sorted(CHECK_SUITES) + ["all"])
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
