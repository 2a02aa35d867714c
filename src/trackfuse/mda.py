"""MDA-based track association and fusion.

Hypothesis scores are log likelihood ratios against the all-clutter
hypothesis. Candidate tuples are gated, assembled into an assignment
problem (one tuple per fused track, each measurement used at most once),
and solved either exactly (depth-first branch and bound, also the oracle
for the relaxation) or by Lagrangian relaxation onto 2-D subproblems.

Raw and transformed payloads flow through genuinely different numeric
routes (Cholesky Gaussian vs eigendecomposition/pseudoinverse generalized
likelihood); their score tables agree to floating-point accuracy for any
full-column-rank transformation, which is what the property tests pin down.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateBeliefError,
    InputError,
    ResourceLimitError,
    UnobservableHypothesisError,
)
from .linalg import chi2_gate, pinv_psd, psd_eig, symmetrize
from .models import (
    GaussianEstimate,
    MeasurementBatch,
    MeasurementModel,
    MotionModel,
    predict,
    update_raw,
    update_transformed,
)
from .transform import (
    ClutterModel,
    gaussian_log_likelihood,
    generalized_log_likelihood,
)

BIG = 1e12
# Deepest branch-and-bound recursion `solve_assignment_exact` starts: one
# level per group, well under the interpreter's default limit of 1000.
EXACT_MAX_GROUPS = 500


@dataclass
class SensorView:
    """Per-sensor scoring context: effective (H, R), detection, clutter.

    For transformed payloads R may be singular PSD and the clutter model
    must already live in the transformed measurement space.
    """

    H: np.ndarray
    R: np.ndarray
    p_d: float
    clutter: ClutterModel
    transformed: bool = False

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.R = symmetrize(np.atleast_2d(np.asarray(self.R, dtype=float)))
        if not 0.0 < self.p_d <= 1.0:
            raise InputError("detection probability must be in (0, 1]")

    @classmethod
    def from_batch(cls, batch: MeasurementBatch, p_d: float,
                   clutter: ClutterModel) -> "SensorView":
        return cls(batch.H, batch.R, p_d, clutter, transformed=batch.transformed)

    def log_meas_likelihood(self, z, z_pred, cov) -> float:
        if self.transformed:
            return generalized_log_likelihood(z, z_pred, cov)
        return gaussian_log_likelihood(z, z_pred, cov)


@dataclass
class HypothesisCost:
    """An association tuple with its log likelihood-ratio score."""

    indices: Optional[tuple]
    log_score: float

    @property
    def cost(self) -> float:
        return -self.log_score


class Candidate(NamedTuple):
    indices: tuple
    cost: float


def _log_miss(p_d: float) -> float:
    return math.log1p(-p_d) if p_d < 1.0 else -math.inf


@dataclass
class AssignmentProblem:
    """One-tuple-per-group selection with measurement-disjointness.

    kind "maintenance": groups are fused tracks; every group must pick one
    candidate (the all-zero fallback is always present). kind "initiation":
    groups are optional tuples, each paired with a zero-cost null.
    """

    kind: str
    groups: list
    n_sensors: int
    meas_counts: list

    @property
    def n_candidates(self) -> int:
        return sum(len(g) for g in self.groups)


@dataclass
class AssociationSolution:
    assignments: list
    total_cost: float
    feasible: bool
    gap: float = 0.0


def score_with_prior(track_pred: GaussianEstimate,
                     meas: Sequence[Optional[np.ndarray]],
                     sensors: Sequence[SensorView],
                     indices: Optional[tuple] = None) -> HypothesisCost:
    """Score of one (track, i_1..i_L) hypothesis given the predicted track.

    Each detecting sensor contributes P_d times the measurement likelihood
    (innovation covariance H P H^T + R) over the clutter intensity; each
    missing sensor contributes 1 - P_d.
    """
    log_l = 0.0
    for z, sv in zip(meas, sensors):
        if z is None:
            log_l += _log_miss(sv.p_d)
        else:
            z_hat = sv.H @ track_pred.mean
            s = symmetrize(sv.H @ track_pred.cov @ sv.H.T + sv.R)
            log_l += (math.log(sv.p_d)
                      + sv.log_meas_likelihood(z, z_hat, s)
                      - math.log(sv.clutter.rate) - sv.clutter.log_density)
    return HypothesisCost(indices, log_l)


def _stacked_information(meas, sensors):
    """Stacked (info matrix, info vector) over the detecting sensors."""
    n = None
    info = None
    ivec = None
    for z, sv in zip(meas, sensors):
        if z is None:
            continue
        h, r = sv.H, sv.R
        if n is None:
            n = h.shape[1]
            info = np.zeros((n, n))
            ivec = np.zeros(n)
        r_dag = pinv_psd(r) if sv.transformed else np.linalg.inv(r)
        info += h.T @ r_dag @ h
        ivec += h.T @ r_dag @ np.asarray(z, dtype=float)
    if info is None:
        raise InputError("hypothesis has no measurements")
    return symmetrize(info), ivec


def mle_state(meas: Sequence[Optional[np.ndarray]],
              sensors: Sequence[SensorView],
              observable_subspace: bool = False) -> np.ndarray:
    """Weighted least-squares state estimate from one tuple of measurements.

    With `observable_subspace` the solve uses the pseudoinverse of the
    stacked information matrix, which pins down exactly the observable
    combinations (enough for likelihood evaluation) and leaves the
    unobservable ones at zero. Otherwise a singular stack raises.
    """
    info, ivec = _stacked_information(meas, sensors)
    w = np.linalg.eigvalsh(info)
    singular = w[0] <= 1e-10 * max(w[-1], 1e-300)
    if singular and not observable_subspace:
        raise UnobservableHypothesisError(
            "stacked information matrix is singular")
    if singular:
        return pinv_psd(info) @ ivec
    return np.linalg.solve(info, ivec)


def score_without_prior(meas: Sequence[Optional[np.ndarray]],
                        sensors: Sequence[SensorView],
                        indices: Optional[tuple] = None) -> HypothesisCost:
    """Generalized likelihood-ratio score for a prior-free tuple.

    The likelihood is evaluated at the WLS estimate with the measurement
    noise covariance itself (no prior spread). Tuples with fewer than two
    measurements cannot corroborate a new track and get cost +inf.
    """
    n_meas = sum(z is not None for z in meas)
    if n_meas < 2:
        return HypothesisCost(indices, -math.inf)
    x_ml = mle_state(meas, sensors, observable_subspace=True)
    log_l = 0.0
    for z, sv in zip(meas, sensors):
        if z is None:
            log_l += _log_miss(sv.p_d)
        else:
            z_pred = sv.H @ x_ml
            log_l += (math.log(sv.p_d)
                      + sv.log_meas_likelihood(z, z_pred, sv.R)
                      - math.log(sv.clutter.rate) - sv.clutter.log_density)
    return HypothesisCost(indices, log_l)


def gate_distances(est_pred: GaussianEstimate, batch: MeasurementBatch):
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


@dataclass
class MdaConfig:
    gate_prob: float = 0.99
    init_gate_prob: float = 0.99
    max_tuples: int = 200_000
    solver: str = "auto"            # auto | exact | relaxed
    auto_exact_candidates: int = 4000
    subgradient_iters: int = 200
    confirm_hits: int = 2
    delete_misses: int = 3
    init_min_meas: int = 2
    velocity_prior_var: float = 1e4


def build_mda_problem(tracks_pred: Sequence[GaussianEstimate],
                      batches: Sequence[MeasurementBatch],
                      sensors: Sequence[SensorView],
                      cfg: MdaConfig) -> AssignmentProblem:
    """Gated candidate tuples for track maintenance (one group per track)."""
    n_sensors = len(batches)
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
            gated = [0] + [i + 1 for i in range(batch.n_meas) if d2[i] <= gamma]
            options.append(gated)
        cands = []
        for combo in itertools.product(*options):
            meas = [batches[l].zs[i - 1] if i > 0 else None
                    for l, i in enumerate(combo)]
            hyp = score_with_prior(est, meas, sensors, combo)
            if math.isfinite(hyp.cost):
                cands.append(Candidate(combo, hyp.cost))
            elif not any(combo):
                # the all-zero fallback must stay selectable even when a
                # P_d = 1 sensor makes "missed everywhere" impossible
                cands.append(Candidate(combo, BIG))
        total += len(cands)
        if total > cfg.max_tuples:
            raise ResourceLimitError(
                f"maintenance tuple count exceeded cap ({total} > {cfg.max_tuples})")
        groups.append(_by_cost(cands))
    return AssignmentProblem("maintenance", groups, n_sensors, meas_counts)


def _backprojected_positions(batch: MeasurementBatch, pos_dim: int = 2):
    """WLS position estimate and covariance for each measurement.

    Only valid when the effective H has no velocity component (the
    [E, 0]-shaped models of this artifact); returns None otherwise.
    """
    h = batch.H
    if h.shape[1] > pos_dim and np.max(np.abs(h[:, pos_dim:])) > 1e-12:
        return None
    hp = h[:, :pos_dim]
    r_dag = pinv_psd(batch.R) if batch.transformed else np.linalg.inv(batch.R)
    info = symmetrize(hp.T @ r_dag @ hp)
    w = np.linalg.eigvalsh(info)
    if w[0] <= 1e-10 * max(w[-1], 1e-300):
        return None
    cov = np.linalg.inv(info)
    pts = batch.zs @ (r_dag @ hp) @ cov.T
    return pts, cov


def build_initiation_problem(batches: Sequence[MeasurementBatch],
                             sensors: Sequence[SensorView],
                             cfg: MdaConfig,
                             available: Optional[Sequence[Sequence[int]]] = None
                             ) -> AssignmentProblem:
    """Candidate tuples (>= init_min_meas measurements) for new tracks.

    Tuples are pruned by a pairwise position gate where the payload admits
    a position backprojection; each candidate group is (tuple, null) so the
    solver may leave any measurement to the clutter explanation.
    """
    n_sensors = len(batches)
    meas_counts = [b.n_meas for b in batches]
    if available is None:
        available = [list(range(1, b.n_meas + 1)) for b in batches]
    back = [_backprojected_positions(b) for b in batches]
    gamma = chi2_gate(cfg.init_gate_prob, 2)

    def compatible(l1, i1, l2, i2):
        if back[l1] is None or back[l2] is None:
            return True
        p1, c1 = back[l1][0][i1 - 1], back[l1][1]
        p2, c2 = back[l2][0][i2 - 1], back[l2][1]
        d = p1 - p2
        return float(d @ np.linalg.solve(c1 + c2, d)) <= gamma

    options = [[0] + list(avail) for avail in available]
    groups = []
    total = 0
    for combo in itertools.product(*options):
        picked = [(l, i) for l, i in enumerate(combo) if i > 0]
        if len(picked) < cfg.init_min_meas:
            continue
        if any(not compatible(l1, i1, l2, i2)
               for (l1, i1), (l2, i2) in itertools.combinations(picked, 2)):
            continue
        meas = [batches[l].zs[i - 1] if i > 0 else None
                for l, i in enumerate(combo)]
        hyp = score_without_prior(meas, sensors, combo)
        if math.isfinite(hyp.cost):
            groups.append([Candidate(combo, hyp.cost),
                           Candidate((0,) * n_sensors, 0.0)])
            total += 1
            if total > cfg.max_tuples:
                raise ResourceLimitError(
                    f"initiation tuple count exceeded cap ({total})")
    return AssignmentProblem("initiation", groups, n_sensors, meas_counts)


def _meas_keys(indices):
    return [(l, i) for l, i in enumerate(indices) if i > 0]


def _by_cost(cands):
    """Cheapest first, ties broken toward the lexicographically smallest tuple."""
    return sorted(cands, key=lambda c: (c.cost, c.indices))


def _solution_from_selection(problem, selection):
    assignments = []
    total = 0.0
    for g, cand in enumerate(selection):
        total += cand.cost
        if problem.kind == "maintenance":
            assignments.append((g + 1,) + cand.indices)
        elif any(i > 0 for i in cand.indices):
            assignments.append(cand.indices)
    return assignments, total


def solve_assignment_exact(problem: AssignmentProblem,
                           node_cap: int = 5_000_000) -> AssociationSolution:
    """Depth-first branch and bound; globally optimal, gap 0.

    Candidates in each group are visited in (cost, indices) order with an
    admissible suffix bound, so ties resolve to the lexicographically
    smallest tuple set. The search recurses once per group, so a problem
    of more than EXACT_MAX_GROUPS groups raises ResourceLimitError before
    any node is visited.
    """
    if len(problem.groups) > EXACT_MAX_GROUPS:
        raise ResourceLimitError(
            f"branch and bound over {len(problem.groups)} groups exceeds the "
            f"depth cap ({EXACT_MAX_GROUPS})")
    groups = [_by_cost(g) for g in problem.groups]
    n_groups = len(groups)
    if n_groups == 0:
        return AssociationSolution([], 0.0, True, 0.0)
    suffix = [0.0] * (n_groups + 1)
    for g in range(n_groups - 1, -1, -1):
        suffix[g] = suffix[g + 1] + (groups[g][0].cost if groups[g] else 0.0)

    best_cost = math.inf
    best_sel = None
    sel = [None] * n_groups
    used = set()
    nodes = 0

    def rec(g, total):
        nonlocal best_cost, best_sel, nodes
        if g == n_groups:
            if total < best_cost:
                best_cost = total
                best_sel = sel.copy()
            return
        for cand in groups[g]:
            nodes += 1
            if nodes > node_cap:
                raise ResourceLimitError("branch-and-bound node cap exceeded")
            if total + cand.cost + suffix[g + 1] >= best_cost:
                break
            keys = _meas_keys(cand.indices)
            if any(k in used for k in keys):
                continue
            used.update(keys)
            sel[g] = cand
            rec(g + 1, total + cand.cost)
            used.difference_update(keys)
        sel[g] = None

    rec(0, 0.0)
    if best_sel is None:
        raise DegenerateBeliefError("no feasible assignment exists")
    assignments, total = _solution_from_selection(problem, best_sel)
    return AssociationSolution(assignments, total, True, 0.0)


def enumerate_assignment_minimum(problem: AssignmentProblem):
    """Plain exhaustive enumeration (test oracle; no bounding)."""
    groups = [_by_cost(g) for g in problem.groups]
    best = [math.inf, None]

    def rec(g, used, total, sel):
        if g == len(groups):
            if total < best[0]:
                best[0], best[1] = total, sel.copy()
            return
        for cand in groups[g]:
            keys = _meas_keys(cand.indices)
            if any(k in used for k in keys):
                continue
            rec(g + 1, used | set(keys), total + cand.cost, sel + [cand])

    rec(0, frozenset(), 0.0, [])
    if best[1] is None:
        return math.inf, []
    assignments, total = _solution_from_selection(problem, best[1])
    return total, assignments


def constraint_violations(problem: AssignmentProblem,
                          solution: AssociationSolution):
    """Independent check of the one-per-group / one-use-per-measurement sums."""
    problems = []
    if problem.kind == "maintenance":
        seen_tracks = [a[0] for a in solution.assignments]
        expected = list(range(1, len(problem.groups) + 1))
        if sorted(seen_tracks) != expected:
            problems.append("each track must appear in exactly one tuple")
        index_tuples = [a[1:] for a in solution.assignments]
    else:
        index_tuples = list(solution.assignments)
    used = {}
    for tup in index_tuples:
        for key in _meas_keys(tup):
            used[key] = used.get(key, 0) + 1
    for key, count in used.items():
        if count > 1:
            problems.append(f"measurement {key} used {count} times")
    for l, count in enumerate(problem.meas_counts):
        for tup in index_tuples:
            if tup[l] > count:
                problems.append(f"tuple index {tup[l]} out of range for sensor {l}")
    return problems


def _hungarian_2d(problem: AssignmentProblem) -> AssociationSolution:
    """Exact solve when only one measurement dimension is active."""
    groups = [_by_cost(g) for g in problem.groups]
    n_groups = len(groups)
    active = [l for l in range(problem.n_sensors) if problem.meas_counts[l] > 0
              and any(c.indices[l] > 0 for g in groups for c in g)]
    if len(active) > 1:
        raise InputError("not a 2-D instance")
    l = active[0] if active else 0
    m = problem.meas_counts[l] if problem.meas_counts else 0
    mat = np.full((n_groups, m + n_groups), BIG)
    cell = {}
    for g, cands in enumerate(groups):
        for cand in cands:
            col = cand.indices[l] - 1 if cand.indices[l] > 0 else m + g
            if cand.cost < mat[g, col]:
                mat[g, col] = cand.cost
                cell[(g, col)] = cand
    rows, cols = linear_sum_assignment(mat)
    sel = []
    for g, col in zip(rows, cols):
        if (g, col) not in cell:
            raise DegenerateBeliefError("2-D instance has no feasible assignment")
        sel.append(cell[(g, col)])
    assignments, total = _solution_from_selection(problem, sel)
    return AssociationSolution(assignments, total, True, 0.0)


def _greedy_selection(groups):
    """Always-feasible fallback: cheapest non-conflicting candidate per group."""
    used = set()
    sel = []
    for cands in groups:
        pick = None
        for cand in cands:
            keys = _meas_keys(cand.indices)
            if all(k not in used for k in keys):
                pick = cand
                used.update(keys)
                break
        if pick is None:
            raise DegenerateBeliefError("group has no conflict-free candidate")
        sel.append(pick)
    return sel


def _restore_feasible(problem, groups):
    """Successive 2-D restoration: commit sensor indices one sensor at a time."""
    n_groups = len(groups)
    feasible = [list(cands) for cands in groups]
    for l in range(problem.n_sensors):
        m = problem.meas_counts[l]
        mat = np.full((n_groups, m + n_groups), BIG)
        for g, cands in enumerate(feasible):
            for cand in cands:
                col = cand.indices[l] - 1 if cand.indices[l] > 0 else m + g
                mat[g, col] = min(mat[g, col], cand.cost)
        rows, cols = linear_sum_assignment(mat)
        commit = dict(zip(rows, cols))
        for g in range(n_groups):
            col = commit[g]
            idx = col + 1 if col < m else 0
            keep = [c for c in feasible[g] if c.indices[l] == idx]
            if not keep:
                return None
            feasible[g] = keep
    return [min(cands) for cands in feasible]


def solve_assignment_relaxed(problem: AssignmentProblem,
                             max_iters: int = 200,
                             tol: float = 1e-9) -> AssociationSolution:
    """Lagrangian relaxation with subgradient multiplier updates.

    Sensors 2..L are dualized; the remaining (group, sensor-1) layer is a
    rectangular assignment solved exactly per iteration. The Polyak step
    uses the best feasible primal, halving the scale on dual
    non-improvement. 2-D instances short-circuit to the exact Hungarian.
    """
    groups = [_by_cost(g) for g in problem.groups]
    if not groups:
        return AssociationSolution([], 0.0, True, 0.0)
    n_groups = len(groups)
    L = problem.n_sensors
    active = [l for l in range(L)
              if any(c.indices[l] > 0 for g in groups for c in g)]
    if len(active) <= 1:
        return _hungarian_2d(problem)

    keep = active[0]
    dual_sets = active[1:]
    m_keep = problem.meas_counts[keep]
    u = {l: np.zeros(problem.meas_counts[l] + 1) for l in dual_sets}

    best_sel = _greedy_selection(groups)
    best_primal = sum(c.cost for c in best_sel)
    best_dual = -math.inf
    scale = 1.0

    for _ in range(max_iters):
        mat = np.full((n_groups, m_keep + n_groups), BIG)
        cell = {}
        for g, cands in enumerate(groups):
            for cand in cands:
                rc = cand.cost + sum(u[l][cand.indices[l]]
                                     for l in dual_sets if cand.indices[l] > 0)
                col = cand.indices[keep] - 1 if cand.indices[keep] > 0 else m_keep + g
                if rc < mat[g, col]:
                    mat[g, col] = rc
                    cell[(g, col)] = (cand, rc)
        rows, cols = linear_sum_assignment(mat)
        relaxed_sel = []
        inner = 0.0
        for g, col in zip(rows, cols):
            cand, rc = cell[(g, col)]
            relaxed_sel.append(cand)
            inner += rc
        dual = inner - sum(np.sum(u[l][1:]) for l in dual_sets)
        if dual > best_dual + 1e-12:
            best_dual = dual
        else:
            scale = max(scale * 0.5, 1e-6)

        usage = {l: np.zeros(problem.meas_counts[l] + 1) for l in dual_sets}
        for cand in relaxed_sel:
            for l in dual_sets:
                if cand.indices[l] > 0:
                    usage[l][cand.indices[l]] += 1
        grad = {l: usage[l] - 1.0 for l in dual_sets}
        for l in dual_sets:
            grad[l][0] = 0.0
        grad_norm2 = sum(float(np.sum(g * g)) for g in grad.values())

        if all(np.max(usage[l][1:], initial=0.0) <= 1 for l in dual_sets):
            primal_sel = relaxed_sel
        else:
            primal_sel = _restore_feasible(problem, groups)
        if primal_sel is not None:
            cost = sum(c.cost for c in primal_sel)
            if cost < best_primal:
                best_primal = cost
                best_sel = primal_sel

        if best_primal - best_dual <= tol * max(1.0, abs(best_dual)):
            break
        if grad_norm2 == 0.0:
            break
        step = scale * (best_primal - dual) / grad_norm2
        if step <= 0:
            step = scale
        for l in dual_sets:
            u[l] = np.maximum(0.0, u[l] + step * grad[l])

    assignments, total = _solution_from_selection(problem, best_sel)
    gap = max(0.0, (best_primal - best_dual) / max(abs(best_dual), 1e-12))
    return AssociationSolution(assignments, total, True, gap)


def solve_assignment(problem: AssignmentProblem, cfg: MdaConfig) -> AssociationSolution:
    if cfg.solver == "exact":
        return solve_assignment_exact(problem)
    if cfg.solver == "relaxed":
        return solve_assignment_relaxed(problem, cfg.subgradient_iters)
    if problem.n_candidates <= cfg.auto_exact_candidates:
        try:
            return solve_assignment_exact(problem)
        except ResourceLimitError:
            pass
    return solve_assignment_relaxed(problem, cfg.subgradient_iters)


@dataclass
class MdaTrack:
    """Fused track with confirmation bookkeeping."""

    est: GaussianEstimate
    label: int
    hits: int = 0
    misses: int = 0
    confirmed: bool = False


def _initial_estimate(meas, sensors, cfg: MdaConfig, timestamp: int) -> GaussianEstimate:
    """Newborn state from a tuple: WLS on the observable subspace.

    Unobservable directions (velocity for position-only payloads) get a
    zero-mean prior with variance cfg.velocity_prior_var.
    """
    info, ivec = _stacked_information(meas, sensors)
    w, v = np.linalg.eigh(info)
    wmax = max(float(w[-1]), 1e-300)
    obs = w > 1e-10 * wmax
    cov = np.zeros_like(info)
    mean = np.zeros(info.shape[0])
    if np.any(obs):
        vo = v[:, obs]
        cov += (vo / w[obs]) @ vo.T
        mean = vo @ ((vo.T @ ivec) / w[obs])
    if np.any(~obs):
        vn = v[:, ~obs]
        cov += cfg.velocity_prior_var * (vn @ vn.T)
    return GaussianEstimate(mean, symmetrize(cov), timestamp)


def mda_pipeline_step(tracks: list, batches: Sequence[MeasurementBatch],
                      sensors: Sequence[SensorView], motion: MotionModel,
                      cfg: MdaConfig, next_label: int, scan: int = 0):
    """One scan of predict / maintain / update / initiate / manage.

    Returns (tracks, next_label, info) where info records the selected
    maintenance and initiation tuples for diagnostics.
    """
    preds = [predict(t.est, motion) for t in tracks]
    info = {"maintenance": [], "initiation": []}

    used = [set() for _ in batches]
    if tracks:
        problem = build_mda_problem(preds, batches, sensors, cfg)
        solution = solve_assignment(problem, cfg)
        info["maintenance"] = list(solution.assignments)
        for assign in solution.assignments:
            tau, idx = assign[0], assign[1:]
            track = tracks[tau - 1]
            est = preds[tau - 1]
            n_hit = 0
            for l, i in enumerate(idx):
                if i == 0:
                    continue
                z = batches[l].zs[i - 1]
                if batches[l].transformed:
                    est = update_transformed(est, z, batches[l].H, batches[l].R)
                else:
                    est = update_raw(est, z, MeasurementModel(batches[l].H, batches[l].R))
                used[l].add(i)
                n_hit += 1
            track.est = est
            if n_hit > 0:
                track.hits += n_hit
                track.misses = 0
            else:
                track.misses += 1
            if track.hits >= cfg.confirm_hits:
                track.confirmed = True

    available = [[i for i in range(1, b.n_meas + 1) if i not in used[l]]
                 for l, b in enumerate(batches)]
    if any(available):
        init_problem = build_initiation_problem(batches, sensors, cfg, available)
        if init_problem.groups:
            init_solution = solve_assignment(init_problem, cfg)
            info["initiation"] = list(init_solution.assignments)
            for tup in init_solution.assignments:
                meas = [batches[l].zs[i - 1] if i > 0 else None
                        for l, i in enumerate(tup)]
                est = _initial_estimate(meas, sensors, cfg, scan)
                n_meas = sum(i > 0 for i in tup)
                tracks.append(MdaTrack(est, next_label, hits=n_meas,
                                       confirmed=n_meas >= cfg.confirm_hits))
                next_label += 1

    tracks = [t for t in tracks if t.misses < cfg.delete_misses]
    return tracks, next_label, info
