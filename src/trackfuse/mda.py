"""MDA-based track association and fusion.

Hypothesis scores are log likelihood ratios against the all-clutter
hypothesis.

Track maintenance: the with-prior score of a (track, i_1..i_L) tuple is a
sum of per-(track, sensor, measurement) terms, so the maintenance problem
splits exactly into L independent rectangular assignments, one
N x (M_l + N) table per sensor with one miss column per track (the
decomposable case of the S-D assignment problem). `build_mda_problem`
fills every sensor's table in one pass: one (L, N) stack of innovation
covariances and one stacked factorization of it (Cholesky, or the
eigendecomposition for transformed payloads), then the gates and costs of
all sensors at once; only each sensor's whitening runs on its own M_l
measurements; it keeps each sensor's innovations (and raw Cholesky
factors) on the problem. `solve_maintenance` makes one
`linear_sum_assignment` call per sensor, and `update_maintained` updates
sensor by sensor, one stacked Kalman update per sensor, reusing the kept
innovations of a sensor whose tracks no earlier sensor has updated in the
scan. Exact ties resolve per sensor, as `linear_sum_assignment` resolves
them, not by the lexicographic order of the branch and bound. A sensor
with P_d = 1 has no finite miss cell: a track that lands on a BIG cell on
any sensor gets the all-zero fallback tuple, and its measurements on the
other sensors go back to initiation. The tuple enumeration
(`checks.enumerate_mda_problem`, scored by `score_with_prior`) and the
exact solver are the oracle of this decomposition.

The fused tracks are one struct of arrays (`FusedTracks`): a scan predicts,
scores and updates them as stacks, counts hits and misses as array
updates, appends the newborns in initiation order and deletes by one row
mask.

Track initiation is the genuinely multidimensional part: candidate tuples
are gated (the pairwise position gate decided once per sensor pair, for
all its measurement pairs in one stacked solve), assembled into an
assignment problem (one tuple per group, each measurement used at most
once), and solved either exactly (depth-first branch and bound, also the
oracle for the relaxation) or by Lagrangian relaxation onto 2-D
subproblems.

Raw and transformed payloads flow through genuinely different numeric
routes (Cholesky Gaussian vs eigendecomposition/pseudoinverse generalized
likelihood); their score tables agree to floating-point accuracy for any
full-column-rank transformation, which is what the property tests pin down.
Initiation scores take the payload factor's noise likelihood, as BP does
(`PayloadFactor.loglik`); every range check is `linalg.require_in_range`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateBeliefError,
    InputError,
    NumericsError,
    ResourceLimitError,
    TrackfuseError,
    UnobservableHypothesisError,
)
from .linalg import (
    chi2_gate,
    cholesky,
    pinv_psd,
    psd_eig,  # noqa: F401 -- bench/layers.py counts its calls through this binding
    psd_eig_stack,
    require_in_range,
    symmetrize,
)
from .models import (
    LOG_2PI,
    EstimateStack,
    GaussianEstimate,
    MeasurementBatch,
    MotionModel,
    PayloadFactor,
    _update_with_innovation,
    innovation_stack,
    payload_factors,
    predict_stack,
    update_information,
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
        """The view of a batch's payload; it shares the batch's (H, R),
        validated when the batch was made, and its factor."""
        if not 0.0 < p_d <= 1.0:
            raise InputError("detection probability must be in (0, 1]")
        view = cls.__new__(cls)
        view.H, view.R, view.transformed = batch.H, batch.R, batch.transformed
        view.p_d, view.clutter, view._factor = p_d, clutter, batch.factor
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
    BIG. innovations[l] holds what scoring sensor l computed for the
    predicted tracks, for `update_maintained`: the (N, m) predicted
    measurements, the (N, m, m) innovation covariances and, for a raw
    payload, their lower Cholesky factors (None for a transformed one); it
    is None for a sensor that was not scored (no measurements or no tracks).
    """

    tables: list
    n_tracks: int
    meas_counts: list
    innovations: list

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
    # maintenance only: the (N, L) measurement indices of `assignments`
    indices: Optional[np.ndarray] = None


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


def score_without_prior(meas: Sequence[Optional[np.ndarray]],
                        sensors: Sequence[SensorView],
                        indices: Optional[tuple] = None) -> HypothesisCost:
    """Generalized likelihood-ratio score for a prior-free tuple.

    The likelihood is evaluated at the WLS estimate with the measurement
    noise covariance itself (no prior spread), by the view's factor.
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
            loglik = sv.factor.loglik(np.asarray(z, dtype=float).reshape(1, -1),
                                      (sv.H @ x_ml)[:, None])
            log_l += (math.log(sv.p_d) + float(loglik[0, 0])
                      - math.log(sv.clutter.rate) - sv.clutter.log_density)
    return HypothesisCost(indices, log_l)


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


def _model_stacks(batches: Sequence[MeasurementBatch]):
    """(L, m, n) H and (L, m, m) R of the batches: rows of their factors'
    common `FactorStack` (the batches of one tape scan), else stacked."""
    factors = [b._factor for b in batches]
    stack = factors[0].stack if factors[0] is not None else None
    if stack is None or any(f is None or f.stack is not stack for f in factors):
        return np.stack([b.H for b in batches]), np.stack([b.R for b in batches])
    rows = [f.row for f in factors]
    if rows == list(range(rows[0], rows[0] + len(rows))):
        rows = slice(rows[0], rows[0] + len(rows))
    return stack.H[rows], stack.R[rows]


def _cost_tables(means: np.ndarray, covs: np.ndarray,
                 batches: Sequence[MeasurementBatch], views: Sequence[SensorView],
                 gate_prob: float) -> list:
    """(N, M_l) costs of N predicted tracks against each batch's measurements,
    for batches of one route (raw or transformed) and one model shape.

    One (L, N) stack of innovation covariances and one stacked factorization
    give every squared Mahalanobis distance and log-likelihood: Cholesky
    for raw payloads; for transformed ones the eigendecomposition with the
    PSD rank rule, the rank's chi-square gate and the range check on the
    gated pairs of rank-deficient rows. Measurements are padded
    to the widest batch, but each batch's whitening (the raw solve, the
    transformed eigen projection) takes exactly its own M_l rows, as these
    calls round differently for other sizes. A gated cell is the negative
    of the with-prior score's term for that sensor (see `score_with_prior`);
    an ungated one is BIG.

    Returns each batch's table and its (z_hat, S, chol) innovations (see
    `MaintenanceProblem`).
    """
    counts = [b.n_meas for b in batches]
    width = max(counts)
    H, R = _model_stacks(batches)
    z_hat, s = innovation_stack(means, covs, SimpleNamespace(H=H[:, None], R=R[:, None]))
    zs = np.zeros((len(batches), width, H.shape[1]))
    for z, b in zip(zs, batches):
        z[:b.n_meas] = b.zs
    diffs = zs[:, None, :, :] - z_hat[:, :, None, :]
    valid = (np.arange(width) < np.array(counts)[:, None])[:, None, :]
    c = None
    if batches[0].transformed:
        w, v, keep = psd_eig_stack(s)
        rank = np.count_nonzero(keep, axis=-1)
        sq = np.zeros(diffs.shape)
        for l, m in enumerate(counts):
            sq[l, :, :m] = (diffs[l, :, :m] @ v[l]) ** 2
        d2 = np.sum(np.divide(sq, w[:, :, None, :], out=np.zeros_like(sq),
                              where=keep[:, :, None, :]), axis=-1)
        gates = np.array([chi2_gate(gate_prob, r) for r in range(H.shape[1] + 1)])
        gated = valid & (d2 <= gates[rank][..., None])
        if np.any(gated & (rank == 0)[..., None]):
            raise NumericsError("transformed covariance has rank zero")
        deficient = gated & (rank < H.shape[1])[..., None]
        if np.any(deficient):
            off2 = np.sum(np.where(keep[:, :, None, :], 0.0, sq), axis=-1)
            require_in_range(np.where(deficient, off2, 0.0),
                             np.linalg.norm(zs, axis=-1)[:, None, :],
                             np.linalg.norm(z_hat, axis=-1)[..., None])
        norm = rank * LOG_2PI + np.sum(np.log(w, out=np.zeros_like(w), where=keep),
                                       axis=-1)
    else:
        c = cholesky(s, "innovation covariance")
        d2 = np.zeros(diffs.shape[:-1])
        for l, m in enumerate(counts):
            y = np.linalg.solve(c[l], diffs[l, :, :m].swapaxes(1, 2))
            d2[l, :, :m] = np.sum(y * y, axis=1)
        gated = valid & (d2 <= chi2_gate(gate_prob, s.shape[-1]))
        norm = (s.shape[-1] * LOG_2PI
                + 2.0 * np.sum(np.log(np.diagonal(c, axis1=-2, axis2=-1)), axis=-1))
    log_lik = -0.5 * (norm[..., None] + d2)
    terms = np.array([(math.log(v.p_d), math.log(v.clutter.rate), v.clutter.log_density)
                      for v in views])[:, :, None, None]
    cost = -(terms[:, 0] + log_lik - terms[:, 1] - terms[:, 2])
    table = np.where(gated, cost, BIG)
    return [(table[l, :, :m], (z_hat[l], s[l], None if c is None else c[l]))
            for l, m in enumerate(counts)]


def build_mda_problem(tracks_pred: Sequence[GaussianEstimate],
                      batches: Sequence[MeasurementBatch],
                      sensors: Sequence[SensorView],
                      cfg: MdaConfig) -> MaintenanceProblem:
    """Per-sensor maintenance tables (see `MaintenanceProblem`), in one pass.

    The batch supplies the measurements and the effective (H, R) that gate
    and score them, the view P_d and the clutter model. Every sensor with
    measurements is scored at once (`_cost_tables`), one pass per route and
    model shape, on the tracks' stacked arrays (an `EstimateStack` is used
    as it is). A miss costs -log(1 - P_d), BIG when P_d = 1. The problem
    keeps each scored sensor's innovations (and raw Cholesky factors), which
    `update_maintained` reuses.

    The checks are those of scoring sensor by sensor: when one fails, the
    sensors are checked again one at a time, in order, so the first sensor
    that fails raises its own first error.
    """
    preds = EstimateStack.of(tracks_pred)
    n = len(preds)
    counts = [b.n_meas for b in batches]
    live = [l for l, m in enumerate(counts) if m and n]
    costs = [None if l in live else np.full((n, m), BIG) for l, m in enumerate(counts)]
    innovations = [None] * len(batches)
    routes: dict = {}
    for l in live:
        routes.setdefault((batches[l].transformed, batches[l].H.shape), []).append(l)
    try:
        for group in routes.values():
            tables = _cost_tables(preds.means, preds.covs, [batches[l] for l in group],
                                  [sensors[l] for l in group], cfg.gate_prob)
            for l, (table, innovation) in zip(group, tables):
                costs[l], innovations[l] = table, innovation
    except (TrackfuseError, ValueError):
        for l in live:
            _cost_tables(preds.means, preds.covs, [batches[l]], [sensors[l]],
                         cfg.gate_prob)
        raise
    tables = [padded_table(c, np.full(n, min(-_log_miss(v.p_d), BIG)))
              for c, v in zip(costs, sensors)]
    return MaintenanceProblem(tables, n, counts, innovations)


def solve_maintenance(problem: MaintenanceProblem) -> AssociationSolution:
    """Optimal maintenance selection: one `linear_sum_assignment` per sensor.

    Assignments are (tau, i_1..i_L) in track order, i_l = 0 for a miss,
    and `indices` is their (N, L) array of i_l. A track that lands on a
    BIG cell on any sensor takes the all-zero fallback tuple at cost BIG,
    which frees its other measurements; the selection is then feasible but
    need not be optimal.
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
    return AssociationSolution(assignments, total, True, 0.0, idx)


def update_maintained(preds: Sequence[GaussianEstimate], idx: np.ndarray,
                      batches: Sequence[MeasurementBatch],
                      problem: Optional[MaintenanceProblem] = None) -> EstimateStack:
    """Posterior estimates of the maintained tracks, as an `EstimateStack`.

    `idx` is the (N, L) array of the measurement each track took on each
    sensor, 0 for a miss. Sensor by sensor, in sensor order, one Kalman
    update (the core of `update_raw_stack`) updates the tracks that took one
    of the sensor's measurements, with the covariance-form model of the
    batch's factor. When no earlier sensor has updated any of these tracks
    in this scan, they take their innovations (and raw Cholesky factors)
    from `problem`, the `build_mda_problem` output the predictions were
    scored by; otherwise, and when `problem` is None, one `innovation_stack`
    call computes them (a track still at its prediction gets the same bits,
    and the call costs about the same for any number of rows). A
    transformed batch with singular R keeps the per-track information form
    (`update_information` with the factor's pseudoinverse). Each track sees
    the arithmetic of its own sequential updates, so the estimates equal
    the per-track ones bit for bit. A track with no measurement keeps its
    prediction.

    The predictions' arrays are never written: an update of every track
    replaces the arrays, and the first update of only some copies them, so
    they are returned as they are when no track took a measurement.
    """
    preds = EstimateStack.of(preds)
    means, covs = preds.means, preds.covs
    for l, batch in enumerate(batches):
        rows = np.flatnonzero(idx[:, l])
        if rows.size == 0:
            continue
        # all rows: views in, the result replaces the arrays, nothing copied
        whole = rows.size == len(means)
        sel = slice(None) if whole else rows
        zs = batch.zs[idx[rows, l] - 1]
        factor = batch.factor
        model = factor.model
        if model is None:
            if means is preds.means:
                means, covs = means.copy(), covs.copy()
            for t, z in zip(rows, zs):
                est = update_information(GaussianEstimate._trusted(means[t], covs[t]),
                                         z, batch.H, factor.r_dag)
                means[t], covs[t] = est.mean, est.cov
            continue
        held = None
        if problem is not None and not idx[sel, :l].any():
            held = problem.innovations[l]
        if held is None:
            z_hat, s = innovation_stack(means[sel], covs[sel], model)
            chol = None
        else:
            z_hat, s, chol = held
            z_hat, s = z_hat[sel], s[sel]
            chol = None if chol is None else chol[sel]
        post = _update_with_innovation(means[sel], covs[sel], zs, model, z_hat, s, chol)
        if whole:
            means, covs = post
        else:
            if means is preds.means:
                means, covs = means.copy(), covs.copy()
            means[rows], covs[rows] = post
    return EstimateStack(means, covs, preds.timestamps)


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


def _pair_gates(back, available, gamma: float) -> dict:
    """{(l1, l2): gate} of the pairwise position gate, for l1 < l2 sensors
    that both have a backprojection and available measurements.

    gate[k1][k2] (nested lists over the positions k1, k2 of measurements in
    `available[l1]` and `available[l2]`) is d^T (C1 + C2)^-1 d <= gamma for
    the difference d of the two measurements' backprojected positions,
    whose covariances are C1 and C2. One `np.linalg.solve` over all
    available pairs and one stacked (K, 1, 2) @ (K, 2, 1) product give the
    sensor pair's decisions; each slice rounds as the solve of one 2-vector
    and its dot product do.
    """
    pos = [None if b is None or not a else b[0].take([i - 1 for i in a], axis=0)
           for b, a in zip(back, available)]
    gates = {}
    for l1, l2 in itertools.combinations(range(len(back)), 2):
        if pos[l1] is None or pos[l2] is None:
            continue
        d = (pos[l1][:, None] - pos[l2]).reshape(-1, 2, 1)
        x = np.linalg.solve(back[l1][1] + back[l2][1], d)
        form = (d.swapaxes(1, 2) @ x).reshape(len(pos[l1]), len(pos[l2]))
        gates[l1, l2] = (form <= gamma).tolist()
    return gates


def build_initiation_problem(batches: Sequence[MeasurementBatch],
                             sensors: Sequence[SensorView],
                             cfg: MdaConfig,
                             available: Optional[Sequence[Sequence[int]]] = None
                             ) -> AssignmentProblem:
    """Candidate tuples (>= init_min_meas measurements) for new tracks.

    Tuples are pruned by a pairwise position gate where the payload admits
    a position backprojection; each candidate group is (tuple, null) so the
    solver may leave any measurement to the clutter explanation. The gate
    is decided once per sensor pair, for all its available measurement
    pairs at once (`_pair_gates`); the tuples, in `itertools.product` order
    over the sensors' options, look their pairs' decisions up. `available`
    lists each sensor's measurement indices (1-based) that may start a
    track, all of them by default.
    """
    n_sensors = len(batches)
    meas_counts = [b.n_meas for b in batches]
    if available is None:
        available = [list(range(1, b.n_meas + 1)) for b in batches]
    groups = []
    if sum(1 for avail in available if avail) < cfg.init_min_meas:
        # no tuple can pick enough measurements
        return AssignmentProblem("initiation", groups, n_sensors, meas_counts)
    back = [_backprojected_positions(b) for b in batches]
    gates = _pair_gates(back, available, chi2_gate(cfg.init_gate_prob, 2))
    # where[l][i]: the position of measurement i in available[l]
    where = [dict(zip(avail, range(len(avail)))) for avail in available]

    options = [[0] + list(avail) for avail in available]
    total = 0
    for combo in itertools.product(*options):
        picked = [(l, i) for l, i in enumerate(combo) if i > 0]
        if len(picked) < cfg.init_min_meas:
            continue
        if not all(gates[l1, l2][where[l1][i1]][where[l2][i2]]
                   for (l1, i1), (l2, i2) in itertools.combinations(picked, 2)
                   if (l1, l2) in gates):
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


@dataclass(eq=False)
class FusedTracks:
    """The fused tracks as one struct of arrays.

    Track k is row k of `means` (N, n), `covs` (N, n, n) and the (N,)
    arrays `timestamps`, `labels`, `hits`, `misses` and `confirmed`.
    """

    means: np.ndarray
    covs: np.ndarray
    timestamps: np.ndarray
    labels: np.ndarray
    hits: np.ndarray
    misses: np.ndarray
    confirmed: np.ndarray

    @classmethod
    def empty(cls, state_dim: int) -> "FusedTracks":
        ints = (np.zeros(0, dtype=int) for _ in range(4))
        return cls(np.zeros((0, state_dim)), np.zeros((0, state_dim, state_dim)),
                   *ints, np.zeros(0, dtype=bool))

    def __len__(self) -> int:
        return len(self.means)

    def _arrays(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __getitem__(self, rows) -> "FusedTracks":
        """The tracks at `rows` (an index array or a boolean mask)."""
        return FusedTracks(*(a[rows] for a in self._arrays()))

    def extended(self, other: "FusedTracks") -> "FusedTracks":
        """These tracks followed by `other`'s."""
        return FusedTracks(*map(np.concatenate, zip(self._arrays(), other._arrays())))


def _initial_estimate(meas, sensors, cfg: MdaConfig):
    """Newborn (mean, covariance) from a tuple: WLS on the observable subspace.

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
    return mean, symmetrize(cov)


def mda_pipeline_step(tracks: FusedTracks, batches: Sequence[MeasurementBatch],
                      sensors: Sequence[SensorView], motion: MotionModel,
                      cfg: MdaConfig, next_label: int, scan: int = 0):
    """One scan of predict / maintain / update / initiate / manage.

    Maintenance is the per-sensor decomposition (`build_mda_problem`,
    `solve_maintenance`, `update_maintained`) on the tracks' arrays, with
    hits, misses and confirmation as array updates; initiation goes through
    `solve_assignment`. The newborns (timestamp `scan`) follow the tracks in
    initiation order, and deletion is one row mask over both. Returns
    (tracks, next_label, info), new `FusedTracks` and info the selected
    maintenance and initiation tuples for diagnostics.
    """
    info = {"maintenance": [], "initiation": []}
    n = len(tracks)
    idx = np.zeros((n, len(batches)), dtype=int)
    posts = EstimateStack(tracks.means, tracks.covs, tracks.timestamps + 1)
    if n:
        means, covs = predict_stack(tracks.means, tracks.covs, motion)
        preds = EstimateStack(means, covs, posts.timestamps)
        problem = build_mda_problem(preds, batches, sensors, cfg)
        solution = solve_maintenance(problem)
        info["maintenance"] = solution.assignments
        idx = solution.indices
        posts = update_maintained(preds, idx, batches, problem)
    n_hit = np.count_nonzero(idx, axis=1)
    hits = tracks.hits + n_hit
    tracks = FusedTracks(posts.means, posts.covs, posts.timestamps, tracks.labels, hits,
                         np.where(n_hit > 0, 0, tracks.misses + 1),
                         tracks.confirmed | (hits >= cfg.confirm_hits))

    taken = [set(col) for col in idx.T.tolist()]
    available = [[i for i in range(1, b.n_meas + 1) if i not in taken[l]]
                 for l, b in enumerate(batches)]
    if any(available):
        init_problem = build_initiation_problem(batches, sensors, cfg, available)
        if init_problem.groups:
            info["initiation"] = list(solve_assignment(init_problem).assignments)
    if info["initiation"]:
        tracks = tracks.extended(_newborns(info["initiation"], batches, sensors, cfg,
                                           next_label, scan))
        next_label += len(info["initiation"])

    keep = tracks.misses < cfg.delete_misses
    return (tracks if keep.all() else tracks[keep]), next_label, info


def _newborns(tuples, batches, sensors, cfg: MdaConfig, first_label: int,
              scan: int) -> FusedTracks:
    """One newborn per initiation tuple (at least one), labelled from
    `first_label` in tuple order."""
    born = [_initial_estimate([batches[l].zs[i - 1] if i > 0 else None
                               for l, i in enumerate(tup)], sensors, cfg)
            for tup in tuples]
    k = len(born)
    n_meas = np.count_nonzero(np.array(tuples, dtype=int), axis=1)
    return FusedTracks(np.stack([mean for mean, _ in born]),
                       np.stack([cov for _, cov in born]), np.full(k, scan),
                       np.arange(first_label, first_label + k), n_meas,
                       np.zeros(k, dtype=int), n_meas >= cfg.confirm_hits)
