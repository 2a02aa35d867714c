"""Output and solver checks of the benchmark.

Every check returns a list of failure messages; an empty list means the
check passed. The expected values are computed here, apart from the
program: payload sizes from the paper's scalar-count formulas, the
"report nothing" OSPA baseline from the truth, and maintenance optima from
per-sensor 2-D assignments. None of them is a stored copy of an earlier
output.

scipy is imported inside the solver checks, which run only in traced runs,
so an untraced workload process loads no module that the program does not.
"""

from __future__ import annotations

import math

import numpy as np

from trackfuse import mda

BYTES_PER_SCALAR = 8
EQUIVALENCE_TOL = 1e-8
OPTIMUM_RTOL = 1e-9
RELAXATION_GAP_LIMIT = 0.05
BP_TRACE_RTOL = 1e-9
UNGATED = 1e15


def payload_scalars(kind: str, m: int, n: int) -> int:
    """Scalars sent per track: the paper's counts for each payload kind.

    raw sends (z, H, R): m + m n + m(m+1)/2; type1 sends (z, H): m + m n;
    type2 sends (z, R): m + m(m+1)/2.
    """
    sym = m * (m + 1) // 2
    return {"raw": m + m * n + sym, "type1": m + m * n, "type2": m + sym}[kind]


# -- output checks (every operation) ---------------------------------------

def check_equivalence(records: dict, tol: float = EQUIVALENCE_TOL):
    """All payload arms give the same OSPA, OSPA(2) and cardinality curves."""
    failures = []
    arms = list(records)
    ref = records[arms[0]]
    for arm in arms[1:]:
        rec = records[arm]
        for curve in ("ospa", "ospa2", "card_est"):
            a, b = getattr(ref, curve), getattr(rec, curve)
            if a.shape != b.shape:
                failures.append(f"{curve}: {arms[0]} and {arm} differ in length")
                continue
            worst = float(np.max(np.abs(a - b), initial=0.0))
            if not worst <= tol:
                failures.append(f"{curve}: {arms[0]} vs {arm} differ by {worst:.3e}")
    return failures


def check_bytes(records: dict, sends, m: int, n: int):
    """Each scan's bytes equal 8 x scalars per track x tracks sent."""
    failures = []
    sent = np.array([sum(len(s) for s in scan) for scan in sends], dtype=float)
    for arm, rec in records.items():
        expected = BYTES_PER_SCALAR * payload_scalars(arm, m, n) * sent
        bad = np.nonzero(rec.comm_bytes != expected)[0]
        if bad.size:
            s = int(bad[0])
            failures.append(f"bytes: {arm} scan {s + 1} reports {rec.comm_bytes[s]:.0f},"
                            f" expected {expected[s]:.0f} for {sent[s]:.0f} tracks")
    return failures


def no_report_ospa(truth, duration: int, c: float) -> float:
    """Mean OSPA of reporting no targets: c on every scan with a live target."""
    alive = [any(scan in traj for traj in truth) for scan in range(1, duration + 1)]
    return c * sum(alive) / duration


def check_ospa_baseline(records: dict, truth, duration: int, c: float):
    """Each arm's mean OSPA is below that of reporting no targets."""
    baseline = no_report_ospa(truth, duration, c)
    return [f"ospa: {arm} mean {rec.mean_ospa:.4f} is not below the "
            f"no-report baseline {baseline:.4f}"
            for arm, rec in records.items() if not rec.mean_ospa < baseline]


def check_outputs(records: dict, tapes, sends, duration: int, c: float,
                  m: int, n: int):
    return (check_equivalence(records)
            + check_bytes(records, sends, m, n)
            + check_ospa_baseline(records, tapes["truth"], duration, c))


# -- MDA solver checks (traced runs) ---------------------------------------

def check_feasible(maintenance, initiation, n_tracks: int, meas_counts):
    """Each track appears once; each measurement is used at most once."""
    failures = []
    n_sensors = len(meas_counts)
    tracks = sorted(a[0] for a in maintenance)
    if tracks != list(range(1, n_tracks + 1)):
        failures.append(f"maintenance covers tracks {tracks}, expected 1..{n_tracks}")
    used = set()
    for tup in [a[1:] for a in maintenance] + [tuple(a) for a in initiation]:
        if len(tup) != n_sensors:
            failures.append(f"tuple {tup} does not have {n_sensors} entries")
            continue
        for l, i in enumerate(tup):
            if not 0 <= i <= meas_counts[l]:
                failures.append(f"sensor {l} index {i} out of range")
            elif i > 0 and (l, i) in used:
                failures.append(f"measurement ({l}, {i}) used twice")
            elif i > 0:
                used.add((l, i))
    return failures


def _single_sensor_costs(pred, batch, view, gate_prob: float):
    """Costs of one track against one sensor: (miss cost, costs per measurement).

    The gate is the chi-square gate of the maintenance build, with the
    squared Mahalanobis distance computed here; measurements outside it
    cost UNGATED.
    """
    from scipy.stats import chi2

    miss = -mda.score_with_prior(pred, [None], [view]).log_score
    costs = np.full(batch.n_meas, UNGATED)
    if batch.n_meas:
        s = batch.H @ pred.cov @ batch.H.T + batch.R
        s = 0.5 * (s + s.T)
        diffs = batch.zs - batch.H @ pred.mean
        d2 = np.einsum("ij,ji->i", diffs, np.linalg.pinv(s, hermitian=True) @ diffs.T)
        gamma = chi2.ppf(gate_prob, np.linalg.matrix_rank(s, hermitian=True))
        for i in np.nonzero(d2 <= gamma)[0]:
            costs[i] = -mda.score_with_prior(pred, [batch.zs[i]], [view]).log_score
    return (miss if math.isfinite(miss) else UNGATED), costs


def maintenance_costs(preds, batches, views, cfg):
    """Per-sensor (N, M + N) cost tables; column M + t is track t's miss."""
    n = len(preds)
    tables = []
    for batch, view in zip(batches, views):
        m = batch.n_meas
        table = np.full((n, m + n), UNGATED)
        for t, pred in enumerate(preds):
            table[t, m + t], table[t, :m] = _single_sensor_costs(
                pred, batch, view, cfg.gate_prob)
        tables.append(table)
    return tables


def check_maintenance_optimal(maintenance, preds, batches, views, cfg,
                              rtol: float = OPTIMUM_RTOL):
    """The selection's cost equals the sum of per-sensor assignment optima.

    The with-prior score is a sum of per-sensor terms, so the maintenance
    problem splits into one rectangular assignment per sensor.
    """
    from scipy.optimize import linear_sum_assignment

    tables = maintenance_costs(preds, batches, views, cfg)
    optimum = 0.0
    for table in tables:
        rows, cols = linear_sum_assignment(table)
        optimum += float(table[rows, cols].sum())
    chosen = 0.0
    failures = []
    for tau, *idx in maintenance:
        for l, i in enumerate(idx):
            m = batches[l].n_meas
            cost = tables[l][tau - 1, m + tau - 1 if i == 0 else i - 1]
            if cost >= UNGATED:
                failures.append(f"track {tau} takes ungated ({l}, {i})")
            chosen += cost
    if not abs(chosen - optimum) <= rtol * max(1.0, abs(optimum)):
        failures.append(f"maintenance cost {chosen:.12g} differs from the "
                        f"per-sensor optimum {optimum:.12g}")
    return failures


def check_mda_steps(steps, gaps, gap_limit: float = RELAXATION_GAP_LIMIT):
    """Feasibility and maintenance optimality of every captured MDA step."""
    failures = []
    for k, step in enumerate(steps):
        inputs = step["maintenance_inputs"]
        n_tracks = len(inputs[0]) if inputs else 0
        found = check_feasible(step["maintenance"], step["initiation"],
                               n_tracks, step["meas_counts"])
        if inputs and not found:
            found = check_maintenance_optimal(step["maintenance"], *inputs)
        failures += [f"step {k + 1}: {f}" for f in found]
    failures += [f"relaxation gap {g:.4f} exceeds {gap_limit}"
                 for g in gaps if not g <= gap_limit]
    return failures


# -- BP raw/type2 trace agreement (traced runs) -----------------------------

TRACE_KEYS = ("beta", "xi", "kappa", "iota", "r_prob")


def compare_bp_traces(scan, ref, trace, rtol: float = BP_TRACE_RTOL):
    """Failures where two arms' per-sensor traces of one scan differ."""
    if len(ref) != len(trace):
        return [f"scan {scan}: {len(ref)} and {len(trace)} sensor steps"]
    failures = []
    for a, b in zip(ref, trace):
        if len(a["weights"]) != len(b["weights"]):
            failures.append(f"scan {scan} sensor {a['sensor']}: belief counts differ")
            continue
        pairs = [(k, a[k], b[k]) for k in TRACE_KEYS]
        pairs += [("weights", wa, wb) for wa, wb in zip(a["weights"], b["weights"])]
        failures += [f"scan {scan} sensor {a['sensor']}: {key} differs beyond rtol {rtol}"
                     for key, x, y in pairs
                     if x.shape != y.shape or not np.allclose(x, y, rtol=rtol, atol=1e-300)]
    return failures


class BpTraceMatch(dict):
    """Compares the BP traces of two payload arms scan by scan.

    Both arms get this object as `run_bp_fusion(trace_scans=...)`. The
    first arm to deliver a scan leaves its trace here; the second compares
    against it and removes it. With the arms taking turns the memory held is
    a scan or two; the traces of a whole 100-scan, 500-particle run would
    take hundreds of MB.
    """

    def __init__(self, rtol: float = BP_TRACE_RTOL):
        super().__init__()
        self.rtol = rtol
        self.failures = []
        self.compared = 0

    def __setitem__(self, scan, trace):
        kept = [{k: step[k] for k in TRACE_KEYS + ("sensor", "weights")} for step in trace]
        first = self.pop(scan, None)
        if first is None:
            super().__setitem__(scan, kept)
            return
        self.failures += compare_bp_traces(scan, first, kept, self.rtol)
        self.compared += 1
