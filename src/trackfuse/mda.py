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
all sensors at once (the raw whitening by one elementwise forward
substitution over the padded stack, the transformed eigen projection on
each sensor's own M_l measurements); it keeps each sensor's innovations
and their factors (the Cholesky factors or the eigenpairs) on the problem.
`solve_maintenance` makes one `linear_sum_assignment` call per sensor, and
`update_maintained` updates sensor by sensor, one stacked Kalman update
per sensor on the route of the sensor's payload, reusing the kept
innovations and factors of a sensor whose tracks no earlier sensor has
updated in the scan. Exact ties resolve per sensor, as
`linear_sum_assignment` resolves them, not by the visiting order of the
branch and bound. A sensor
with P_d = 1 has no finite miss cell: a track that lands on a BIG cell on
any sensor gets the all-zero fallback tuple, and its measurements on the
other sensors go back to initiation. The tuple enumeration
(`checks.enumerate_mda_problem`, scored by `score_with_prior`) and the
exact solver are the oracle of this decomposition.

The fused tracks are one struct of arrays (`FusedTracks`): a scan predicts,
scores and updates them as stacks, counts hits and misses as array
updates, appends the newborns in initiation order and deletes by one row
mask.

Track initiation is the genuinely multidimensional part: candidate tuples,
grown sensor by sensor from prefixes that pass the pairwise position gate
(one Cholesky factor per sensor pair) and can still reach init_min_meas
measurements, form an assignment problem (every group picks one of its
candidates, each measurement used at most once); an initiation group is
(tuple, null). `solve_assignment` gives each group whose cheapest
candidate uses no measurement that candidate (an initiation group whose
tuple costs >= 0 its null), splits the rest into clusters that share a
measurement (the track clusters of Reid, IEEE TAC 24(6), 1979) and solves
each by an iterative branch and bound: groups cheapest first, bounded by the
larger of their cheapest costs and a per-measurement sum of cost shares.
Only a cluster whose search passes the node cap goes to the Lagrangian
relaxation, whose primal is a greedy repair of its relaxed selection.

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
from dataclasses import dataclass, field, fields, replace
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
    SINGULAR_RTOL,
    chi2_gate,
    cholesky,
    mahalanobis_sq,
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
# Subgradient iterations of the Lagrangian relaxation, and the relative
# duality gap at which it stops early.
SUBGRADIENT_ITERS = 200
SUBGRADIENT_TOL = 1e-9
INIT_GATE_PROB = 0.99  # of initiation's pairwise position gate
CONFIRM_HITS = 2  # associated measurements that confirm a fused track
DELETE_MISSES = 3  # consecutive missed scans that delete a fused track
VELOCITY_PRIOR_VAR = 1e4  # newborns' prior variance on unobservable directions


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

    Every group picks one of its `Candidate`s, and each measurement (sensor
    l, index i > 0) is used at most once. An initiation group is (tuple,
    zero-cost null); the maintenance oracle's groups are tracks, each with
    its all-zero fallback.
    """

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
    measurements, the (N, m, m) innovation covariances and their factors,
    the lower Cholesky factors (N, m, m) for a raw payload or the
    eigenpairs (w (N, m), v (N, m, m)) of `np.linalg.eigh` for a
    transformed one; it is None for a sensor that was not scored (no
    measurements or no tracks).
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
    # the selected tuples that use a measurement, in group order
    # (`solve_maintenance`: (tau, i_1..i_L) for every track)
    assignments: list
    total_cost: float
    gap: float = 0.0
    # the (groups, L) measurement indices each group selected (0 for a miss)
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
    singular = w[0] <= SINGULAR_RTOL * max(w[-1], 1e-300)
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
    # Cap on the prefixes initiation's sensor-by-sensor walk makes, checked
    # before any tuple is scored (and on the tuples of the maintenance
    # enumeration oracle); maintenance itself builds per-sensor tables.
    max_tuples: int = 200_000
    init_min_meas: int = 2


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
    to the widest batch. The raw route whitens the whole padded stack by
    one forward substitution (`mahalanobis_sq`), elementwise, so a cell has
    the same bits at any width; the transformed eigen projection takes
    exactly each batch's own M_l rows, as a matrix product rounds
    differently for other sizes. A gated cell is the negative
    of the with-prior score's term for that sensor (see `score_with_prior`);
    an ungated one is BIG.

    Returns each batch's table and its innovations (z_hat, S, factors):
    the Cholesky factors or the eigenpairs (w, v) (see `MaintenanceProblem`).
    """
    counts = [b.n_meas for b in batches]
    width = max(counts)
    H, R = np.stack([b.H for b in batches]), np.stack([b.R for b in batches])
    z_hat, s = innovation_stack(means, covs, SimpleNamespace(H=H[:, None], R=R[:, None]))
    zs = np.zeros((len(batches), width, H.shape[1]))
    for z, b in zip(zs, batches):
        z[:b.n_meas] = b.zs
    valid = (np.arange(width) < np.array(counts)[:, None])[:, None, :]
    c = None
    if batches[0].transformed:
        diffs = zs[:, None, :, :] - z_hat[:, :, None, :]
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
        d2 = mahalanobis_sq(c[:, :, None], zs[:, None], z_hat[:, :, None])
        gated = valid & (d2 <= chi2_gate(gate_prob, s.shape[-1]))
        norm = (s.shape[-1] * LOG_2PI
                + 2.0 * np.sum(np.log(np.diagonal(c, axis1=-2, axis2=-1)), axis=-1))
    log_lik = -0.5 * (norm[..., None] + d2)
    terms = np.array([(math.log(v.p_d), math.log(v.clutter.rate), v.clutter.log_density)
                      for v in views])[:, :, None, None]
    cost = -(terms[:, 0] + log_lik - terms[:, 1] - terms[:, 2])
    table = np.where(gated, cost, BIG)
    return [(table[l, :, :m], (z_hat[l], s[l], (w[l], v[l]) if c is None else c[l]))
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
    keeps each scored sensor's innovations and their factors, which
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
    return AssociationSolution(assignments, total, 0.0, idx)


def update_maintained(preds: Sequence[GaussianEstimate], idx: np.ndarray,
                      batches: Sequence[MeasurementBatch],
                      problem: Optional[MaintenanceProblem] = None) -> EstimateStack:
    """Posterior estimates of the maintained tracks, as an `EstimateStack`.

    `idx` is the (N, L) array of the measurement each track took on each
    sensor, 0 for a miss. Sensor by sensor, in sensor order, one Kalman
    update (the core of `update_raw_stack`, on its eigen route for a
    transformed batch) updates the tracks that took one of the sensor's
    measurements, with the covariance-form model of the batch's factor.
    When no earlier sensor has updated any of these tracks in this scan,
    they take their innovations and factors (Cholesky or eigenpairs) from
    `problem`, the `build_mda_problem` output the predictions were scored
    by; otherwise, and when `problem` is None, one `innovation_stack` call
    computes them and the core factors them (a track still at its
    prediction gets the same bits, and the calls cost about the same for
    any number of rows). A transformed batch with singular R keeps the
    per-track information form (`update_information` with the factor's
    pseudoinverse). Each track sees the arithmetic of its own sequential
    updates, so the estimates equal the per-track ones bit for bit. A
    track with no measurement keeps its prediction.

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
            factors = None
        else:
            z_hat, s, factors = held
            z_hat, s = z_hat[sel], s[sel]
            factors = tuple(a[sel] for a in factors) if batch.transformed else factors[sel]
        post = _update_with_innovation(means[sel], covs[sel], zs, model, z_hat, s,
                                       factors, batch.transformed)
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
    whose covariances are C1 and C2. One Cholesky factor of C1 + C2 per
    sensor pair whitens all its measurement pairs at once (`mahalanobis_sq`,
    elementwise, so each form has the bits of its pair whitened alone).
    """
    pos = [None if b is None or not a else b[0].take([i - 1 for i in a], axis=0)
           for b, a in zip(back, available)]
    gates = {}
    for l1, l2 in itertools.combinations(range(len(back)), 2):
        if pos[l1] is None or pos[l2] is None:
            continue
        chol = cholesky(back[l1][1] + back[l2][1], "backprojected position covariance")
        form = mahalanobis_sq(chol, pos[l1][:, None], pos[l2])
        gates[l1, l2] = (form <= gamma).tolist()
    return gates


def build_initiation_problem(batches: Sequence[MeasurementBatch],
                             sensors: Sequence[SensorView],
                             cfg: MdaConfig,
                             available: Optional[Sequence[Sequence[int]]] = None
                             ) -> AssignmentProblem:
    """Candidate tuples (>= init_min_meas measurements) for new tracks.

    Tuples grow sensor by sensor, each prefix over sensor l's options
    [0] + available[l], so they come out in lexicographic order. A
    measurement joins a prefix only if it passes the pairwise position gate
    (`_pair_gates`, one decision table per sensor pair) against every
    measurement in it; a prefix that can no longer reach init_min_meas
    measurements is dropped. Every prefix made counts against
    `cfg.max_tuples` (ResourceLimitError), checked before any tuple is
    scored. Each complete tuple of finite `score_without_prior` cost becomes
    a group (tuple, null), so the solver may leave any measurement to the
    clutter explanation. `available` lists each sensor's measurement
    indices (1-based) that may start a track, all of them by default.
    """
    n_sensors = len(batches)
    meas_counts = [b.n_meas for b in batches]
    if available is None:
        available = [list(range(1, b.n_meas + 1)) for b in batches]
    # reach[l]: the sensors from l on that have a measurement to give
    reach = [sum(1 for avail in available[l:] if avail) for l in range(n_sensors + 1)]
    if reach[0] < cfg.init_min_meas:
        return AssignmentProblem([], n_sensors, meas_counts)
    back = [_backprojected_positions(b) for b in batches]
    gates = _pair_gates(back, available, chi2_gate(INIT_GATE_PROB, 2))

    prefixes = [((), ())]  # (indices so far, (sensor, position) of each measurement)
    made = 0
    for l, avail in enumerate(available):
        grown = []
        for combo, picked in prefixes:
            # only a miss can lose reach: a measurement uses sensor l's
            if len(picked) + reach[l + 1] >= cfg.init_min_meas:
                grown.append((combo + (0,), picked))
            ks = range(len(avail))
            for l1, k1 in picked:
                if (l1, l) in gates:
                    row = gates[l1, l][k1]
                    ks = [k for k in ks if row[k]]
            grown.extend((combo + (avail[k],), picked + ((l, k),)) for k in ks)
            if made + len(grown) > cfg.max_tuples:
                raise ResourceLimitError(
                    f"initiation prefix count exceeded cap ({made + len(grown)})")
        made += len(grown)
        prefixes = grown
    groups = []
    for combo, _ in prefixes:
        meas = [batches[l].zs[i - 1] if i > 0 else None for l, i in enumerate(combo)]
        hyp = score_without_prior(meas, sensors, combo)
        if math.isfinite(hyp.cost):
            groups.append([Candidate(combo, hyp.cost), Candidate((0,) * n_sensors, 0.0)])
    return AssignmentProblem(groups, n_sensors, meas_counts)


def _meas_keys(indices):
    return [(l, i) for l, i in enumerate(indices) if i > 0]


def _by_cost(cands):
    """Cheapest first, ties broken toward the lexicographically smallest tuple."""
    return sorted(cands, key=lambda c: (c.cost, c.indices))


def _solution_from_selection(problem, selection, gap=0.0):
    assignments = [c.indices for c in selection if any(c.indices)]
    indices = np.array([c.indices for c in selection], dtype=int).reshape(-1, problem.n_sensors)
    return AssociationSolution(assignments, sum((c.cost for c in selection), 0.0), gap, indices)


def solve_assignment_exact(problem: AssignmentProblem,
                           node_cap: int = 5_000_000) -> AssociationSolution:
    """Depth-first branch and bound; globally optimal, gap 0.

    Groups are visited by (cheapest cost, index), each group's candidates
    by (cost, indices), and each candidate's measurements are one bitmask.
    A branch is cut once its cost plus a lower bound on the groups still to
    visit cannot beat the incumbent. The bound is the larger of their
    cheapest costs' sum and a per-measurement sum: each measurement's most
    negative share (a candidate's cost over the number of measurements it
    uses) plus each group's most negative measurement-free cost. Only a
    strictly cheaper selection replaces the incumbent, so the tie rule is:
    of equal-cost optima, the first in this visiting order wins (for
    initiation, the tuples of the cheapest groups). The walk is iterative, so
    it takes any number of groups; past `node_cap` examined candidates (a
    cut one counts) it raises ResourceLimitError.
    """
    order = sorted(range(len(problem.groups)), key=lambda g: (
        min((c.cost for c in problem.groups[g]), default=0.0), g))
    groups = [_by_cost(problem.groups[g]) for g in order]
    n_groups = len(groups)
    bits = {}
    masks = [[sum(1 << bits.setdefault(k, len(bits)) for k in _meas_keys(c.indices))
              for c in cands] for cands in groups]
    # bound[g] bounds groups g.. below; measurement-free candidates use key g
    bound = [0.0] * (n_groups + 1)
    cheapest, per_meas, low = 0.0, 0.0, {}
    for g in range(n_groups - 1, -1, -1):
        cheapest += groups[g][0].cost if groups[g] else 0.0
        for cand in groups[g]:
            keys = _meas_keys(cand.indices) or [g]
            for k in keys:
                share = cand.cost / len(keys)
                if share < low.get(k, 0.0):
                    per_meas += share - low.get(k, 0.0)
                    low[k] = share
        bound[g] = max(cheapest, per_meas)

    # per depth g: the candidate position picked, and the cost and the used
    # measurement bits of the picks above it; k is the position g examines next
    costs = [[c.cost for c in cands] for cands in groups]
    pick, total, used = [0] * n_groups, [0.0] * (n_groups + 1), [0] * (n_groups + 1)
    best_cost, best_pick, nodes, g, k = math.inf, None, 0, 0, 0
    while True:
        if g == n_groups:
            if total[g] < best_cost:
                best_cost, best_pick = total[g], pick.copy()
        elif k < len(costs[g]):
            nodes += 1
            if nodes > node_cap:
                raise ResourceLimitError("branch-and-bound node cap exceeded")
            if total[g] + costs[g][k] + bound[g + 1] < best_cost:
                if used[g] & masks[g][k]:
                    k += 1
                else:
                    pick[g] = k
                    total[g + 1] = total[g] + costs[g][k]
                    used[g + 1] = used[g] | masks[g][k]
                    g, k = g + 1, 0
                continue
        # depth g is exhausted or cut (its later candidates cost no less)
        if g == 0:
            break
        g -= 1
        k = pick[g] + 1
    if best_pick is None:
        raise DegenerateBeliefError("no feasible assignment exists")
    return _solution_from_selection(
        problem, [cands[k] for _, cands, k in sorted(zip(order, groups, best_pick))])


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


def _repair(groups, first=None):
    """A feasible selection, group by group: `first[g]` if it conflicts
    with no earlier pick, else the group's first conflict-free candidate
    (the cheapest, `groups` sorted by `_by_cost`); None if a group has none."""
    used = set()
    sel = []
    for g, cands in enumerate(groups):
        for cand in ([first[g]] if first else []) + cands:
            keys = _meas_keys(cand.indices)
            if used.isdisjoint(keys):
                break
        else:
            return None
        used.update(keys)
        sel.append(cand)
    return sel


def solve_assignment_relaxed(problem: AssignmentProblem) -> AssociationSolution:
    """Lagrangian relaxation with subgradient multiplier updates.

    Sensors 2..L are dualized; the remaining (group, sensor-1) layer is a
    rectangular assignment solved exactly per iteration. Each iteration's
    primal is `_repair` of its relaxed selection (the selection itself when
    it is conflict-free); the incumbent starts as the repair of the empty
    selection. The Polyak step uses the best primal, halving the scale on
    dual non-improvement. With one active sensor nothing is dualized: exact.
    """
    groups = [_by_cost(g) for g in problem.groups]
    active = [l for l in range(problem.n_sensors)
              if any(c.indices[l] > 0 for g in groups for c in g)] or [0]
    keep = active[0]
    dual_sets = active[1:]
    m_keep = problem.meas_counts[keep]
    u = {l: np.zeros(problem.meas_counts[l] + 1) for l in dual_sets}

    best_sel = _repair(groups)
    if best_sel is None:
        raise DegenerateBeliefError("group has no conflict-free candidate")
    best_primal = sum(c.cost for c in best_sel)
    best_dual = -math.inf
    scale = 1.0

    def reduced_cost(cand):
        return cand.cost + sum(u[l][cand.indices[l]]
                               for l in dual_sets if cand.indices[l] > 0)

    for _ in range(SUBGRADIENT_ITERS):
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

        primal_sel = _repair(groups, relaxed_sel)
        if primal_sel is not None:
            cost = sum(c.cost for c in primal_sel)
            if cost < best_primal:
                best_primal = cost
                best_sel = primal_sel

        if best_primal - best_dual <= SUBGRADIENT_TOL * max(1.0, abs(best_dual)):
            break
        if grad_norm2 == 0.0:
            break
        step = scale * (best_primal - dual) / grad_norm2
        if step <= 0:
            step = scale
        for l in dual_sets:
            u[l] = np.maximum(0.0, u[l] + step * grad[l])

    gap = max(0.0, (best_primal - best_dual) / max(abs(best_dual), 1e-12))
    return _solution_from_selection(problem, best_sel, gap)


def solve_assignment(problem: AssignmentProblem) -> AssociationSolution:
    """An assignment problem's solution, cluster by cluster, in group order.

    A group whose cheapest candidate, by (cost, indices), uses no
    measurement takes it: it conflicts with nothing, so this is exact (an
    initiation group whose tuple costs >= 0 takes its null, which sorts
    first). The rest split into clusters that share a measurement, each
    solved by `solve_assignment_exact`, or by `solve_assignment_relaxed`
    (`gap` is the largest) once the search passes its node cap.
    """
    indices = np.zeros((len(problem.groups), problem.n_sensors), dtype=int)
    total, gap, live = 0.0, 0.0, []
    for g, cands in enumerate(problem.groups):
        cand = _by_cost(cands)[0]
        if any(cand.indices):
            live.append(g)
        else:
            total += cand.cost
    parent = {}  # union-find over groups and measurement keys, path halving

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    for g in live:
        for c in problem.groups[g]:
            for k in _meas_keys(c.indices):
                parent[find(k)] = find(g)
    clusters = {}
    for g in live:
        clusters.setdefault(find(g), []).append(g)
    for members in clusters.values():
        cluster = replace(problem, groups=[problem.groups[g] for g in members])
        try:
            sol = solve_assignment_exact(cluster)
        except ResourceLimitError:
            sol = solve_assignment_relaxed(cluster)
        indices[members] = sol.indices
        total += sol.total_cost
        gap = max(gap, sol.gap)
    assignments = [tuple(row) for row in indices.tolist() if any(row)]
    return AssociationSolution(assignments, total, gap, indices)


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


def _initial_estimate(meas, sensors):
    """Newborn (mean, covariance) from a tuple: WLS on the observable subspace.

    Unobservable directions (velocity for position-only payloads) get a
    zero-mean prior with variance VELOCITY_PRIOR_VAR.
    """
    info, ivec = _stacked_information(meas, sensors)
    w, v = np.linalg.eigh(info)
    wmax = max(float(w[-1]), 1e-300)
    obs = w > SINGULAR_RTOL * wmax
    cov = np.zeros_like(info)
    mean = np.zeros(info.shape[0])
    if np.any(obs):
        vo = v[:, obs]
        cov += (vo / w[obs]) @ vo.T
        mean = vo @ ((vo.T @ ivec) / w[obs])
    if np.any(~obs):
        vn = v[:, ~obs]
        cov += VELOCITY_PRIOR_VAR * (vn @ vn.T)
    return mean, symmetrize(cov)


def mda_pipeline_step(tracks: FusedTracks, batches: Sequence[MeasurementBatch],
                      sensors: Sequence[SensorView], motion: MotionModel,
                      cfg: MdaConfig, next_label: int, scan: int = 0):
    """One scan of predict / maintain / update / initiate / manage.

    Maintenance is the per-sensor decomposition (`build_mda_problem`,
    `solve_maintenance`, `update_maintained`) on the tracks' arrays, with
    hits, misses and confirmation (at CONFIRM_HITS hits) as array updates;
    initiation goes through `solve_assignment`. The newborns (timestamp
    `scan`) follow the tracks in initiation order, and deletion (at
    DELETE_MISSES consecutive misses) is one row mask over both. Returns
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
                         tracks.confirmed | (hits >= CONFIRM_HITS))

    taken = [set(col) for col in idx.T.tolist()]
    available = [[i for i in range(1, b.n_meas + 1) if i not in taken[l]]
                 for l, b in enumerate(batches)]
    if any(available):
        init_problem = build_initiation_problem(batches, sensors, cfg, available)
        if init_problem.groups:
            info["initiation"] = list(solve_assignment(init_problem).assignments)
    if info["initiation"]:
        tracks = tracks.extended(_newborns(info["initiation"], batches, sensors,
                                           next_label, scan))
        next_label += len(info["initiation"])

    keep = tracks.misses < DELETE_MISSES
    return (tracks if keep.all() else tracks[keep]), next_label, info


def _newborns(tuples, batches, sensors, first_label: int, scan: int) -> FusedTracks:
    """One newborn per initiation tuple (at least one), labelled from
    `first_label` in tuple order."""
    born = [_initial_estimate([batches[l].zs[i - 1] if i > 0 else None
                               for l, i in enumerate(tup)], sensors)
            for tup in tuples]
    k = len(born)
    n_meas = np.count_nonzero(np.array(tuples, dtype=int), axis=1)
    return FusedTracks(np.stack([mean for mean, _ in born]),
                       np.stack([cov for _, cov in born]), np.full(k, scan),
                       np.arange(first_label, first_label + k), n_meas,
                       np.zeros(k, dtype=int), n_meas >= CONFIRM_HITS)
