"""MDA-based track association and fusion.

Hypothesis scores are log likelihood ratios against the all-clutter
hypothesis.

Track maintenance: the with-prior score of a (track, i_1..i_L) tuple is a
sum of per-(track, sensor, measurement) terms, so the maintenance problem
splits exactly into L independent rectangular assignments, one
N x (M_l + N) table per sensor with one miss column per track (the
decomposable case of the S-D assignment problem). `build_mda_problem`
fills each sensor's table from one stacked factorization of the N
innovation covariances, `solve_maintenance` makes one
`linear_sum_assignment` call per sensor, and `update_maintained` updates
sensor by sensor, one stacked Kalman update per sensor. Exact ties
resolve per sensor, as `linear_sum_assignment` resolves them, not by the
lexicographic order of the branch and bound. A sensor with P_d = 1 has no
finite miss cell: a track that lands on a BIG cell on any sensor gets the
all-zero fallback tuple, and its measurements on the other sensors go back
to initiation. The tuple enumeration `enumerate_mda_problem` and the exact
solver stay as the test oracle of this decomposition.

Track initiation is the genuinely multidimensional part: candidate tuples
are gated, assembled into an assignment problem (one tuple per group, each
measurement used at most once), and solved either exactly (depth-first
branch and bound, also the oracle for the relaxation) or by Lagrangian
relaxation onto 2-D subproblems.

Raw and transformed payloads flow through genuinely different numeric
routes (Cholesky Gaussian vs eigendecomposition/pseudoinverse generalized
likelihood); their score tables agree to floating-point accuracy for any
full-column-rank transformation, which is what the property tests pin down.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateBeliefError,
    InconsistentTransformError,
    InputError,
    NumericsError,
    ResourceLimitError,
    UnobservableHypothesisError,
)
from .linalg import (
    chi2_gate,
    cholesky,
    pinv_psd,
    psd_eig,
    psd_eig_stack,
    symmetrize,
)
from .models import (
    GaussianEstimate,
    MeasurementBatch,
    MotionModel,
    PayloadFactor,
    innovation_stack,
    payload_factors,
    predict_stack,
    update_information,
    update_raw_stack,
)
from .transform import (
    LOG_2PI,
    ClutterModel,
    gaussian_log_likelihood,
    generalized_log_likelihood,
)

BIG = 1e12
# Deepest branch-and-bound recursion `solve_assignment_exact` starts: one
# level per group, well under the interpreter's default limit of 1000.
EXACT_MAX_GROUPS = 500
# Initiation problems of at most this many candidates go to branch and bound
# first; larger ones, and those over a cap of the search, to the relaxation.
AUTO_EXACT_CANDIDATES = 4000
# Subgradient iterations of the Lagrangian relaxation.
SUBGRADIENT_ITERS = 200


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
    _factor: Optional[PayloadFactor] = field(default=None, init=False,
                                             repr=False, compare=False)

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.R = symmetrize(np.atleast_2d(np.asarray(self.R, dtype=float)))
        if not 0.0 < self.p_d <= 1.0:
            raise InputError("detection probability must be in (0, 1]")

    @classmethod
    def from_batch(cls, batch: MeasurementBatch, p_d: float,
                   clutter: ClutterModel) -> "SensorView":
        """The view of a batch's payload; it shares the batch's factor."""
        view = cls(batch.H, batch.R, p_d, clutter, transformed=batch.transformed)
        view._factor = batch.factor
        return view

    @property
    def factor(self) -> PayloadFactor:
        """The factored (H, R) (see `PayloadFactor`), computed on first use
        unless the view came from a batch."""
        if self._factor is None:
            self._factor = payload_factors(self.H[None], self.R[None],
                                           self.transformed)[0]
        return self._factor


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
class MaintenanceProblem:
    """Per-sensor maintenance assignment tables.

    tables[l] is (N, M_l + N): row t holds track t's costs against sensor
    l's M_l measurements, then its miss in column M_l + t. Ungated cells,
    the other tracks' miss columns and the miss of a P_d = 1 sensor hold
    BIG.
    """

    tables: list
    n_tracks: int
    meas_counts: list

    @property
    def n_candidates(self) -> int:
        """Cells below BIG: gated (track, measurement) pairs and finite misses."""
        return sum(int(np.count_nonzero(t < BIG)) for t in self.tables)


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
            loglik = (generalized_log_likelihood if sv.transformed
                      else gaussian_log_likelihood)
            log_l += (math.log(sv.p_d) + loglik(z, z_hat, s)
                      - math.log(sv.clutter.rate) - sv.clutter.log_density)
    return HypothesisCost(indices, log_l)


def _stacked_information(meas, sensors):
    """Stacked (info matrix, info vector) over the detecting sensors."""
    info = None
    ivec = None
    for z, sv in zip(meas, sensors):
        if z is None:
            continue
        f = sv.factor
        if info is None:
            n = f.htrh.shape[0]
            info = np.zeros((n, n))
            ivec = np.zeros(n)
        info += f.htrh
        ivec += f.ht_rdag @ np.asarray(z, dtype=float)
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


def _noise_log_likelihood(sv: SensorView, z, z_pred) -> float:
    """log N(z; z_pred, R) from the view's factor: the Cholesky factor of R
    for raw payloads; for transformed ones the nonzero eigenpairs, and the
    residual must lie in the range of R (as in `generalized_log_likelihood`)."""
    f = sv.factor
    d = np.asarray(z, dtype=float).reshape(-1) - z_pred
    if not sv.transformed:
        y = np.linalg.solve(f.chol, d)
        return -0.5 * (d.size * LOG_2PI + f.logdet + float(y @ y))
    if f.rank == 0:
        raise NumericsError("transformed covariance has rank zero")
    proj = f.v.T @ d
    dn = float(np.linalg.norm(d))
    if dn > 0 and float(np.linalg.norm(d - f.v @ proj)) > 1e-8 * dn:
        raise InconsistentTransformError(
            "residual is outside the range of the transformed covariance")
    return -0.5 * (f.rank * LOG_2PI + f.logdet + float(np.sum(proj * proj / f.w)))


def score_without_prior(meas: Sequence[Optional[np.ndarray]],
                        sensors: Sequence[SensorView],
                        indices: Optional[tuple] = None) -> HypothesisCost:
    """Generalized likelihood-ratio score for a prior-free tuple.

    The likelihood is evaluated at the WLS estimate with the measurement
    noise covariance itself (no prior spread), from the view's factor.
    Tuples with fewer than two measurements cannot corroborate a new track
    and get cost +inf.
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
            log_l += (math.log(sv.p_d) + _noise_log_likelihood(sv, z, sv.H @ x_ml)
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
    # Cap on the candidate tuples of initiation (and of the maintenance
    # enumeration oracle); maintenance itself builds per-sensor tables.
    max_tuples: int = 200_000
    confirm_hits: int = 2
    delete_misses: int = 3
    init_min_meas: int = 2
    velocity_prior_var: float = 1e4


def padded_table(meas: np.ndarray, miss: np.ndarray) -> np.ndarray:
    """(N, M + N) rectangular assignment table of N rows over M columns.

    Row t holds meas[t] in the first M columns and miss[t] in its own
    column M + t; the other miss columns hold BIG, so every row can always
    be assigned somewhere.
    """
    n, m = meas.shape
    table = np.full((n, m + n), BIG)
    table[:, :m] = meas
    table[np.arange(n), m + np.arange(n)] = miss
    return table


def _measurement_costs(means: np.ndarray, covs: np.ndarray,
                       batch: MeasurementBatch, view: SensorView,
                       gate_prob: float) -> np.ndarray:
    """(N, M) costs of N predicted tracks against the batch's measurements.

    One stacked innovation covariance and one stacked factorization of it
    give every squared Mahalanobis distance and log-likelihood: Cholesky
    for raw payloads; for transformed ones the eigendecomposition with the
    PSD rank rule, the rank's chi-square gate and the range check of
    `generalized_log_likelihood` on the gated pairs. A gated cell is the
    negative of the with-prior score's term for that sensor (see
    `score_with_prior`); an ungated one is BIG.
    """
    z_hat, s = innovation_stack(means, covs, batch)
    diffs = batch.zs[None, :, :] - z_hat[:, None, :]
    if batch.transformed:
        w, v, keep = psd_eig_stack(s)
        rank = np.count_nonzero(keep, axis=1)
        sq = (diffs @ v) ** 2
        d2 = np.sum(np.divide(sq, w[:, None, :], out=np.zeros_like(sq),
                              where=keep[:, None, :]), axis=2)
        gated = d2 <= np.array([chi2_gate(gate_prob, int(r)) for r in rank])[:, None]
        if np.any(gated & (rank == 0)[:, None]):
            raise NumericsError("transformed covariance has rank zero")
        outside = np.sum(np.where(keep[:, None, :], 0.0, sq), axis=2)
        if np.any(gated & (outside > 1e-16 * np.sum(diffs * diffs, axis=2))):
            raise InconsistentTransformError(
                "residual is outside the range of the transformed covariance")
        norm = rank * LOG_2PI + np.sum(np.log(w, out=np.zeros_like(w), where=keep),
                                       axis=1)
    else:
        c = cholesky(s, "innovation covariance")
        y = np.linalg.solve(c, diffs.swapaxes(1, 2))
        d2 = np.sum(y * y, axis=1)
        gated = d2 <= chi2_gate(gate_prob, s.shape[-1])
        norm = (s.shape[-1] * LOG_2PI
                + 2.0 * np.sum(np.log(np.diagonal(c, axis1=1, axis2=2)), axis=1))
    log_lik = -0.5 * (norm[:, None] + d2)
    cost = -(math.log(view.p_d) + log_lik - math.log(view.clutter.rate)
             - view.clutter.log_density)
    return np.where(gated, cost, BIG)


def build_mda_problem(tracks_pred: Sequence[GaussianEstimate],
                      batches: Sequence[MeasurementBatch],
                      sensors: Sequence[SensorView],
                      cfg: MdaConfig) -> MaintenanceProblem:
    """Per-sensor maintenance tables (see `MaintenanceProblem`).

    The batch supplies the measurements and the effective (H, R) that gate
    and score them, the view P_d and the clutter model. A miss costs
    -log(1 - P_d), BIG when P_d = 1.
    """
    n = len(tracks_pred)
    if n:
        means = np.stack([e.mean for e in tracks_pred])
        covs = np.stack([e.cov for e in tracks_pred])
    tables = []
    for batch, view in zip(batches, sensors):
        meas = np.full((n, batch.n_meas), BIG)
        if n and batch.n_meas:
            meas = _measurement_costs(means, covs, batch, view, cfg.gate_prob)
        tables.append(padded_table(meas, np.full(n, min(-_log_miss(view.p_d), BIG))))
    return MaintenanceProblem(tables, n, [b.n_meas for b in batches])


def solve_maintenance(problem: MaintenanceProblem) -> AssociationSolution:
    """Optimal maintenance selection: one `linear_sum_assignment` per sensor.

    Assignments are (tau, i_1..i_L) in track order, i_l = 0 for a miss. A
    track that lands on a BIG cell on any sensor takes the all-zero
    fallback tuple at cost BIG, which frees its other measurements; the
    selection is then feasible but need not be optimal.
    """
    n = problem.n_tracks
    idx = np.zeros((n, len(problem.tables)), dtype=int)
    cost = np.zeros(n)
    fallback = np.zeros(n, dtype=bool)
    for l, (table, m) in enumerate(zip(problem.tables, problem.meas_counts)):
        rows, cols = linear_sum_assignment(table)
        idx[rows, l] = np.where(cols < m, cols + 1, 0)
        cost[rows] += table[rows, cols]
        fallback[rows] |= table[rows, cols] >= BIG
    idx[fallback] = 0
    total = float(np.sum(np.where(fallback, BIG, cost)))
    assignments = [(t + 1,) + tuple(row) for t, row in enumerate(idx.tolist())]
    return AssociationSolution(assignments, total, True, 0.0)


def update_maintained(preds: Sequence[GaussianEstimate], assignments,
                      batches: Sequence[MeasurementBatch]) -> list:
    """Posterior estimates of the maintained tracks.

    Sensor by sensor, in sensor order, one `update_raw_stack` call updates
    the tracks that took one of the sensor's measurements, with the
    covariance-form model of the batch's factor. A transformed batch with
    singular R keeps the per-track information form (`update_information`
    with the factor's pseudoinverse). Each track sees the
    arithmetic of its own sequential updates, so the estimates equal the
    per-track ones bit for bit. A track with no measurement keeps its
    prediction.
    """
    idx = np.array([a[1:] for a in assignments], dtype=int).reshape(
        len(preds), len(batches))
    means = np.stack([p.mean for p in preds])
    covs = np.stack([p.cov for p in preds])
    for l, batch in enumerate(batches):
        rows = np.flatnonzero(idx[:, l])
        if rows.size == 0:
            continue
        zs = batch.zs[idx[rows, l] - 1]
        factor = batch.factor
        model = factor.model
        if model is None:
            for t, z in zip(rows, zs):
                est = update_information(GaussianEstimate._trusted(
                    means[t], covs[t], preds[t].timestamp), z, batch.H, factor.r_dag)
                means[t], covs[t] = est.mean, est.cov
        else:
            means[rows], covs[rows] = update_raw_stack(means[rows], covs[rows],
                                                       zs, model)
    return [GaussianEstimate._trusted(means[t], covs[t], p.timestamp)
            if np.any(idx[t]) else p for t, p in enumerate(preds)]


def enumerate_mda_problem(tracks_pred: Sequence[GaussianEstimate],
                          batches: Sequence[MeasurementBatch],
                          sensors: Sequence[SensorView],
                          cfg: MdaConfig) -> AssignmentProblem:
    """Gated candidate tuples for track maintenance (one group per track).

    The test oracle of `build_mda_problem` and `solve_maintenance`: every
    product of the per-sensor gated options, each scored by
    `score_with_prior`, for `solve_assignment_exact`.
    """
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


def _backprojected_positions(batch: MeasurementBatch):
    """WLS position estimate and covariance for each measurement.

    Only valid when the effective H has no velocity component (the
    [E, 0]-shaped models of this artifact) and the position information is
    nonsingular; returns None otherwise (see `PayloadFactor`).
    """
    f = batch.factor
    if f.back_cov is None:
        return None
    return batch.zs @ f.back_gain @ f.back_cov.T, f.back_cov


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


def _candidate_table(groups, l: int, m: int, cost=None):
    """Sensor l's padded table over candidate groups.

    Each cell holds the cheapest candidate (by `cost`, default its own
    cost) whose sensor-l index falls there, index 0 in the group's miss
    column. Returns (table, {(group, column): candidate}).
    """
    n_groups = len(groups)
    table = padded_table(np.full((n_groups, m), BIG), np.full(n_groups, BIG))
    cell = {}
    for g, cands in enumerate(groups):
        for cand in cands:
            c = cand.cost if cost is None else cost(cand)
            col = cand.indices[l] - 1 if cand.indices[l] > 0 else m + g
            if c < table[g, col]:
                table[g, col] = c
                cell[(g, col)] = cand
    return table, cell


def _hungarian_2d(problem: AssignmentProblem) -> AssociationSolution:
    """Exact solve when only one measurement dimension is active."""
    groups = [_by_cost(g) for g in problem.groups]
    active = [l for l in range(problem.n_sensors) if problem.meas_counts[l] > 0
              and any(c.indices[l] > 0 for g in groups for c in g)]
    if len(active) > 1:
        raise InputError("not a 2-D instance")
    l = active[0] if active else 0
    m = problem.meas_counts[l] if problem.meas_counts else 0
    mat, cell = _candidate_table(groups, l, m)
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
        mat, _ = _candidate_table(feasible, l, m)
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
                             max_iters: int = SUBGRADIENT_ITERS,
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

    def reduced_cost(cand):
        return cand.cost + sum(u[l][cand.indices[l]]
                               for l in dual_sets if cand.indices[l] > 0)

    for _ in range(max_iters):
        mat, cell = _candidate_table(groups, keep, m_keep, reduced_cost)
        rows, cols = linear_sum_assignment(mat)
        relaxed_sel = []
        inner = 0.0
        for g, col in zip(rows, cols):
            relaxed_sel.append(cell[(g, col)])
            inner += mat[g, col]
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


def solve_assignment(problem: AssignmentProblem) -> AssociationSolution:
    """An initiation problem's solution: branch and bound at or below
    AUTO_EXACT_CANDIDATES candidates, the relaxation above that or when the
    search hits one of its caps (maintenance is always the exact per-sensor
    decomposition)."""
    if problem.n_candidates <= AUTO_EXACT_CANDIDATES:
        try:
            return solve_assignment_exact(problem)
        except ResourceLimitError:
            pass
    return solve_assignment_relaxed(problem)


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

    Maintenance is the per-sensor decomposition (`build_mda_problem`,
    `solve_maintenance`, `update_maintained`); initiation goes through
    `solve_assignment`. Returns (tracks, next_label, info) where info
    records the selected maintenance and initiation tuples for diagnostics.
    """
    info = {"maintenance": [], "initiation": []}

    used = [set() for _ in batches]
    if tracks:
        means, covs = predict_stack(np.stack([t.est.mean for t in tracks]),
                                    np.stack([t.est.cov for t in tracks]), motion)
        preds = [GaussianEstimate._trusted(means[k], covs[k], t.est.timestamp + 1)
                 for k, t in enumerate(tracks)]
        problem = build_mda_problem(preds, batches, sensors, cfg)
        solution = solve_maintenance(problem)
        info["maintenance"] = list(solution.assignments)
        posts = update_maintained(preds, solution.assignments, batches)
        for (_, *idx), track, est in zip(solution.assignments, tracks, posts):
            n_hit = 0
            for l, i in enumerate(idx):
                if i > 0:
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
            init_solution = solve_assignment(init_problem)
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
