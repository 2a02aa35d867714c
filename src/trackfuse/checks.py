"""Property batteries and enumeration oracles.

The paper's losslessness results are identities, and each battery here
checks a family of them on random instances drawn from a fixed seed:
`check_lemmas` (pseudoinverse, determinant, clutter-volume and MLE
identities), `check_solvers` (branch and bound and the cluster solver
against enumeration, the Lagrangian relaxation against the optimum),
`check_bp_exactness` (BP association marginals against enumeration on
trees) and `check_metrics` (the byte table and the OSPA metric axioms).
Each returns a list of `(name, ok, detail)` results; `trackfuse check`
prints them and the acceptance tests run them with their own seeds.

The oracles are plain exhaustive enumerations with no bounding or
decomposition (`enumerate_mda_problem` is MDA maintenance's), so they share
no shortcut with the code they test.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from . import bp as bp_mod
from . import mda as mda_mod
from .errors import ResourceLimitError
from .linalg import chi2_gate, pinv_psd, psd_eig, symmetrize
from .metrics import INFO_FILTER, OspaParams, comm_bytes, ospa
from .models import RAW, TYPE1, TYPE2, MeasurementBatch, MeasurementModel
from .transform import ClutterModel, SensorInput, clutter_density_transformed, make_generic

Result = tuple[str, bool, str]

# Bytes per scan for m = 2, n = 4 and N = 100 tracks.
BYTE_TABLE = {RAW: 10400, INFO_FILTER: 22400, TYPE1: 8000, TYPE2: 4000}


def check_lemmas(seed: int = 1234) -> list[Result]:
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
        inputs_raw, inputs_tr, meas, meas_t = [], [], [], []
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
            inputs_raw.append(SensorInput(MeasurementBatch(l, [], h, r, RAW), 0.9, clut))
            inputs_tr.append(SensorInput(MeasurementBatch(l, [], tr.Ht, tr.Rt, tr.kind),
                                          0.9, clutter_density_transformed(clut, tr)))
        if not conditioned:
            continue
        info, _ = mda_mod._stacked_information(meas, inputs_raw)
        if np.linalg.cond(info) > 1e6:
            continue
        x_raw = mda_mod.mle_state(meas, inputs_raw)
        x_tr = mda_mod.mle_state(meas_t, inputs_tr)
        worst["mle"] = max(worst["mle"],
                           np.linalg.norm(x_raw - x_tr)
                           / max(np.linalg.norm(x_raw), 1e-12))
        done += 1

    names = {"pinv": "pinv identity A'(ASA')+A = S^-1",
             "det": "det identity prod(e) = |S||A'A|",
             "volume": "clutter volume ratio sqrt|A'A|",
             "mle": "MLE raw = MLE transformed"}
    return [(names[k], v <= 1e-8, f"worst rel residual {v:.3e}")
            for k, v in worst.items()]


def random_maintenance_problem(rng: np.random.Generator, n_tracks: int, m1: int,
                               m2: int, keep: float = 0.7):
    """Two-sensor problem of maintenance shape: groups whose measurement-free
    candidate costs > 0; each keeps every other (i, j) tuple with
    probability `keep`."""
    groups = []
    for _ in range(n_tracks):
        cands = [mda_mod.Candidate((0, 0), float(abs(rng.normal())) * 0.5)]
        for i in range(m1 + 1):
            for j in range(m2 + 1):
                if (i, j) == (0, 0) or rng.random() > keep:
                    continue
                cands.append(mda_mod.Candidate((i, j), float(rng.normal())))
        groups.append(cands)
    return mda_mod.AssignmentProblem(groups, 2, [m1, m2])


def random_initiation_problem(rng: np.random.Generator, n_groups: int,
                              meas_counts: list):
    """Initiation problem of overlapping (tuple, null) groups: each tuple
    takes 1-4 measurements on distinct sensors and costs 12 x an integer in
    [-4, 2], so that ties, exact zeros and cost shares are exact."""
    n_sensors = len(meas_counts)
    groups = []
    for _ in range(n_groups):
        sensors = rng.permutation(n_sensors)[:int(rng.integers(1, min(4, n_sensors) + 1))]
        tup = [0] * n_sensors
        for l in sensors:
            tup[l] = int(rng.integers(1, meas_counts[l] + 1))
        groups.append([mda_mod.Candidate(tuple(tup), 12.0 * int(rng.integers(-4, 3))),
                       mda_mod.Candidate((0,) * n_sensors, 0.0)])
    return mda_mod.AssignmentProblem(groups, n_sensors, list(meas_counts))


def check_solvers(seed: int = 77) -> list[Result]:
    """Exact solver vs enumeration; relaxation within 5% of optimal; the
    initiation cluster solver vs enumeration."""
    rng = np.random.default_rng(seed)
    exact_ok = 0
    within = 0
    n_tables = 100
    worst_gap = 0.0
    for _ in range(n_tables):
        prob = random_maintenance_problem(rng, int(rng.integers(2, 4)),
                                          int(rng.integers(3, 6)),
                                          int(rng.integers(3, 6)))
        exact = mda_mod.solve_assignment_exact(prob)
        enum_cost, _ = enumerate_assignment_minimum(prob)
        if abs(exact.total_cost - enum_cost) < 1e-12 and \
                not constraint_violations(prob, exact):
            exact_ok += 1
        relaxed = mda_mod.solve_assignment_relaxed(prob)
        rel = (relaxed.total_cost - exact.total_cost) / max(abs(exact.total_cost),
                                                            1e-12)
        worst_gap = max(worst_gap, rel)
        if rel <= 0.05 and not constraint_violations(prob, relaxed):
            within += 1
    cluster_ok = 0
    for _ in range(n_tables):
        prob = random_initiation_problem(rng, int(rng.integers(1, 9)),
                                         list(rng.integers(1, 5, int(rng.integers(2, 5)))))
        sol = mda_mod.solve_assignment(prob)
        if sol.total_cost == enumerate_assignment_minimum(prob)[0] and \
                not constraint_violations(prob, sol):
            cluster_ok += 1
    return [("branch-and-bound = enumeration", exact_ok == n_tables,
             f"{exact_ok}/{n_tables} exact"),
            ("relaxation within 5% of optimal", within >= 95,
             f"{within}/{n_tables} within 5%, worst {worst_gap:.4f}"),
            ("initiation: cluster solver = enumeration", cluster_ok == n_tables,
             f"{cluster_ok}/{n_tables} exact")]


def check_bp_exactness(seed: int = 99) -> list[Result]:
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
        pa_ref, pb_ref = enum_association_marginals(beta, xi)
        worst = max(worst, float(np.max(np.abs(pa - pa_ref))),
                    float(np.max(np.abs(pb - pb_ref))))
    return [("BP tree exactness vs enumeration", worst <= 1e-12,
             f"worst abs deviation {worst:.3e}")]


def check_metrics(seed: int = 5) -> list[Result]:
    """Byte-table spot checks; OSPA metric axioms on 500 random triples."""
    got = {k: comm_bytes(k, 2, 4, 100) for k in BYTE_TABLE}
    results = [("byte table (m=2, n=4, N=100)", got == BYTE_TABLE, f"{got}")]

    rng = np.random.default_rng(seed)
    params = OspaParams(c=50.0, p=2.0)
    worst_tri = 0.0
    sym_ok = True
    for _ in range(500):
        x, y, z = (rng.uniform(-200, 200, (int(rng.integers(0, 7)), 2))
                   for _ in range(3))
        dxy = ospa(x, y, params)
        sym_ok &= dxy == ospa(y, x, params)
        sym_ok &= ospa(x, x, params) == 0.0
        worst_tri = max(worst_tri, ospa(x, z, params) - (dxy + ospa(y, z, params)))
    return results + [("OSPA symmetry and identity", sym_ok, "exact"),
                      ("OSPA triangle inequality", worst_tri <= 1e-9,
                       f"worst violation {worst_tri:.3e}")]


SUITES = {
    "lemmas": check_lemmas,
    "solvers": check_solvers,
    "bp-exactness": check_bp_exactness,
    "metrics": check_metrics,
}


# ---------------------------------------------------------------------------
# Enumeration oracles
# ---------------------------------------------------------------------------

def enum_association_marginals(beta: np.ndarray, xi: np.ndarray):
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


def gate_distances(est_pred, batch):
    """Squared Mahalanobis innovation of every measurement in the batch.

    Returns (d2 array, degrees of freedom). Transformed batches use the
    pseudoinverse quadratic form, which equals the raw one exactly.
    """
    z_hat = batch.H @ est_pred.mean
    s = symmetrize(batch.H @ est_pred.cov @ batch.H.T + batch.R)
    diffs = batch.zs - z_hat
    if batch.transformed:
        w, v, rank = psd_eig(s)
        proj = diffs @ v
        d2 = np.sum(proj * proj / w, axis=1)
        return d2, rank
    c = np.linalg.cholesky(s)
    y = np.linalg.solve(c, diffs.T)
    return np.sum(y * y, axis=0), s.shape[0]


def enumerate_mda_problem(tracks_pred, batches, sensors,
                          cfg: mda_mod.MdaConfig) -> mda_mod.AssignmentProblem:
    """Gated candidate tuples for track maintenance (one group per track).

    The oracle of `mda.build_mda_problem` and `mda.solve_maintenance`:
    every product of the per-sensor gated options, each scored by
    `mda.score_with_prior`, for `mda.solve_assignment_exact`.
    """
    meas_counts = [b.n_meas for b in batches]
    groups = []
    total = 0
    for est in tracks_pred:
        options = []
        for batch in batches:
            if batch.n_meas == 0:
                options.append([0])
                continue
            d2, dof = gate_distances(est, batch)
            gamma = chi2_gate(cfg.gate_prob, dof)
            options.append([0] + [i + 1 for i in range(batch.n_meas) if d2[i] <= gamma])
        cands = []
        for combo in itertools.product(*options):
            meas = [batches[l].zs[i - 1] if i > 0 else None
                    for l, i in enumerate(combo)]
            hyp = mda_mod.score_with_prior(est, meas, sensors, combo)
            if math.isfinite(hyp.cost):
                cands.append(mda_mod.Candidate(combo, hyp.cost))
            elif not any(combo):
                # the all-zero fallback must stay selectable even when a
                # P_d = 1 sensor makes "missed everywhere" impossible
                cands.append(mda_mod.Candidate(combo, mda_mod.BIG))
        total += len(cands)
        if total > cfg.max_tuples:
            raise ResourceLimitError(
                f"maintenance tuple count exceeded cap ({total} > {cfg.max_tuples})")
        groups.append(mda_mod._by_cost(cands))
    return mda_mod.AssignmentProblem(groups, len(batches), meas_counts)


def enumerate_assignment_minimum(problem: mda_mod.AssignmentProblem):
    """Plain exhaustive enumeration of an assignment problem (no bounding)."""
    groups = [mda_mod._by_cost(g) for g in problem.groups]
    best = [math.inf, None]

    def rec(g, used, total, sel):
        if g == len(groups):
            if total < best[0]:
                best[0], best[1] = total, sel.copy()
            return
        for cand in groups[g]:
            keys = mda_mod._meas_keys(cand.indices)
            if any(k in used for k in keys):
                continue
            rec(g + 1, used | set(keys), total + cand.cost, sel + [cand])

    rec(0, frozenset(), 0.0, [])
    if best[1] is None:
        return math.inf, []
    sol = mda_mod._solution_from_selection(problem, best[1])
    return sol.total_cost, sol.assignments


def constraint_violations(problem: mda_mod.AssignmentProblem,
                          solution: mda_mod.AssociationSolution):
    """Independent check of the one-per-group / one-use-per-measurement sums
    on `solution.indices`, the (groups, L) selection."""
    problems = []
    index_tuples = [tuple(row) for row in solution.indices.tolist()]
    if len(index_tuples) != len(problem.groups):
        problems.append("each group must select exactly one tuple")
    for g, (tup, cands) in enumerate(zip(index_tuples, problem.groups)):
        if tup not in [c.indices for c in cands]:
            problems.append(f"group {g} selected {tup}, not one of its candidates")
    used = Counter(key for tup in index_tuples for key in mda_mod._meas_keys(tup))
    problems += [f"measurement {key} used {count} times"
                 for key, count in used.items() if count > 1]
    for l, count in enumerate(problem.meas_counts):
        for tup in index_tuples:
            if tup[l] > count:
                problems.append(f"tuple index {tup[l]} out of range for sensor {l}")
    return problems
