"""Linear-Gaussian dynamics / measurement models and Kalman-style updates.

The Kalman equations are written once, in a stacked core that works on N
estimates at a time, (N, n) means and (N, n, n) covariances:
`predict_stack`, `innovation_stack` and `update_raw_stack`. Their products
are batched `@`, which makes per slice the BLAS calls of the one-estimate
form, so a row of a stack equals the N = 1 result bit for bit. There is one
covariance-form update route: `update_raw_stack` computes the innovations
and hands them to the core `_update_with_innovation`, which the local GNN
trackers and the MDA maintenance update call directly with the predicted
measurements, innovation covariances and (when they have them) Cholesky
factors that their gates already computed for the same rows. `predict`,
`innovation` and `update_raw` are thin N = 1 wrappers over the core for
callers that hold one `GaussianEstimate` (`update_transformed`, and the
per-track reference loops of the tests); the local GNN trackers and the
MDA pipeline call the core on all their tracks at once, the MDA pipeline
holding them as an `EstimateStack` (the arrays, item k a `GaussianEstimate`
of views into row k).

The fusion center consumes *effective* measurement models (H, R): either the
sensor's raw model or its transformed counterpart. The raw update is the
textbook covariance-form Kalman filter; the transformed update switches to
the information form with a pseudoinverse whenever the transformed noise
covariance is singular, which preserves exact equivalence with the raw route
for any full-column-rank transformation.

Everything the fusion center derives from an effective (H, R) alone lives in
one `PayloadFactor` per `MeasurementBatch`: the validated covariance-form
model (or the singular-R flag), the Cholesky factor of a raw R or the
nonzero eigenpairs of a transformed one, the rank and log
pseudo-determinant, R^dagger, H^T R^dagger H and its pseudoinverse, and the
position backprojection; its `loglik` is the payload's noise likelihood
for BP and MDA initiation. `payload_factors` builds them for K models with
one stacked call per quantity; the simulator's tape pass calls it once per
payload arm on every (scan, sensor) model of a tape, before the scan loop.
A batch built anywhere else computes its factor on first use through the
same call with K = 1. Raw and transformed payloads keep their own numeric
routes (Cholesky and inverse; eigendecomposition and pseudoinverse).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.blas import dtrsm

from .errors import ConfigError, InputError, NumericsError
from .linalg import (
    RANK_RTOL,
    cholesky,
    inv_spd,
    pinv_psd,
    pinv_psd_stack,
    psd_eig_groups,
    require_in_range,
    symmetrize,
)

LOG_2PI = math.log(2.0 * math.pi)

# State components that hold the position, in front of the velocity.
POS_DIM = 2

# Payload kinds a sensor can send: raw measurements or a transformation.
RAW = "raw"
TYPE1 = "type1"
TYPE2 = "type2"
PAYLOADS = (RAW, TYPE1, TYPE2)


@dataclass
class MotionModel:
    """State transition matrix F and process-noise covariance Q."""

    F: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        self.Q = symmetrize(np.asarray(self.Q, dtype=float))
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ConfigError("F must be square")
        if self.Q.shape != self.F.shape:
            raise ConfigError("Q must match F")
        if not np.isfinite(self.Q).all():
            raise ConfigError("Q must be finite")
        # rounding leaves eigenvalues of an exactly PSD Q slightly negative,
        # in proportion to its largest
        w = np.linalg.eigvalsh(self.Q)
        if w[0] < -RANK_RTOL * max(w[-1], 0.0):
            raise ConfigError("Q must be positive semidefinite")

    @property
    def n(self) -> int:
        return self.F.shape[0]


@dataclass
class MeasurementModel:
    """Measurement matrix H (m x n) and noise covariance R (m x m)."""

    H: np.ndarray
    R: np.ndarray
    sensor_id: int = 0

    def __post_init__(self):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.R = symmetrize(np.atleast_2d(np.asarray(self.R, dtype=float)))
        if self.R.shape != (self.H.shape[0], self.H.shape[0]):
            raise ConfigError("R must be m x m for H with m rows")
        if np.min(np.linalg.eigvalsh(self.R)) <= 0:
            raise ConfigError("R must be positive definite")

    @classmethod
    def _trusted(cls, H: np.ndarray, R: np.ndarray, sensor_id: int = 0):
        """A model from float arrays of valid shapes and a symmetric
        positive-definite R (checked by `payload_factors`, or built so by
        the simulator), taken without validation or copy."""
        model = cls.__new__(cls)
        model.H, model.R, model.sensor_id = H, R, sensor_id
        return model

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


@dataclass
class GaussianEstimate:
    """State mean and covariance at a scan index."""

    mean: np.ndarray
    cov: np.ndarray
    timestamp: int = 0

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        self.cov = symmetrize(np.atleast_2d(np.asarray(self.cov, dtype=float)))
        if self.cov.shape != (self.mean.size, self.mean.size):
            raise ConfigError("covariance does not match state dimension")

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray, timestamp: int = 0):
        """An estimate from arrays this package built: an (n,) float mean and
        a symmetric (n, n) float covariance, taken without validation or copy."""
        est = cls.__new__(cls)
        est.mean, est.cov, est.timestamp = mean, cov, timestamp
        return est


@dataclass(eq=False)
class EstimateStack(Sequence):
    """N estimates as (N, n) means, (N, n, n) covariances and (N,) integer
    timestamps; item k is the `GaussianEstimate` of views into row k."""

    means: np.ndarray
    covs: np.ndarray
    timestamps: np.ndarray

    @classmethod
    def of(cls, estimates) -> "EstimateStack":
        """The estimates as a stack: themselves if they are one, else their
        arrays stacked."""
        if isinstance(estimates, cls):
            return estimates
        if not estimates:
            return cls(np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros(0, dtype=int))
        return cls(np.stack([e.mean for e in estimates]),
                   np.stack([e.cov for e in estimates]),
                   np.array([e.timestamp for e in estimates], dtype=int))

    def __len__(self) -> int:
        return len(self.means)

    def __getitem__(self, k: int) -> GaussianEstimate:
        return GaussianEstimate._trusted(self.means[k], self.covs[k],
                                         int(self.timestamps[k]))


@dataclass
class MeasurementBatch:
    """One sensor's per-scan payload as seen by the fusion center.

    `zs` has one row per track measurement; H and R are the effective model
    for this payload (raw or transformed). `kind` is one of "raw", "type1",
    "type2", "generic" and drives the likelihood route downstream.
    """

    sensor_id: int
    zs: np.ndarray
    H: np.ndarray
    R: np.ndarray
    kind: str = RAW
    _factor: Optional["PayloadFactor"] = field(default=None, init=False,
                                               repr=False, compare=False)

    def __post_init__(self):
        self.zs = np.atleast_2d(np.asarray(self.zs, dtype=float))
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.R = symmetrize(np.atleast_2d(np.asarray(self.R, dtype=float)))
        if self.zs.size == 0:
            self.zs = np.zeros((0, self.H.shape[0]))
        if self.zs.shape[1] != self.H.shape[0]:
            raise ConfigError("measurement dimension does not match H")

    @classmethod
    def from_factor(cls, sensor_id: int, zs: np.ndarray, factor: "PayloadFactor",
                    kind: str) -> "MeasurementBatch":
        """A batch of the factor's effective model that carries the factor.

        The factor's (H, R) were validated when it was made and `zs` must be
        a float (M, m) array in its measurement space; they are taken
        without validation or copy.
        """
        batch = cls.__new__(cls)
        batch.sensor_id, batch.zs, batch.kind = sensor_id, zs, kind
        batch.H, batch.R, batch._factor = factor.H, factor.R, factor
        return batch

    @property
    def transformed(self) -> bool:
        return self.kind != RAW

    @property
    def factor(self) -> "PayloadFactor":
        """The factored effective model; computed on first use (K = 1)
        unless the batch was built from one."""
        if self._factor is None:
            self._factor = payload_factors(self.H[None], self.R[None],
                                           self.transformed)[0]
        return self._factor

    @property
    def n_meas(self) -> int:
        return self.zs.shape[0]


@dataclass(eq=False)
class PayloadFactor:
    """Everything the fusion center derives from one effective (H, R).

    `model` is the covariance-form model, None when a transformed R is
    singular and updates take the information form. Raw payloads hold the
    lower Cholesky factor `chol` of R; transformed ones its nonzero
    eigenvalues `w` and eigenvectors `v` (as `psd_eig` returns them).
    `logdet` is the log (pseudo-)determinant of R over its `rank` nonzero
    eigenvalues, `r_dag` is R^-1 or R^+, `ht_rdag` is H^T R^dagger and
    `htrh` is H^T R^dagger H as that product gives it (not symmetrized);
    `info_pinv` is the pseudoinverse of its symmetric part. When H has no
    velocity component and the position information is nonsingular, the
    backprojection of measurements z is z @ `back_gain` @ `back_cov`.T with
    covariance `back_cov`; otherwise both are None. A factor taken from a
    `FactorStack` names it and its row there in `stack` and `row`.
    """

    H: np.ndarray
    R: np.ndarray
    model: Optional[MeasurementModel]
    chol: Optional[np.ndarray]
    w: Optional[np.ndarray]
    v: Optional[np.ndarray]
    rank: int
    logdet: float
    r_dag: np.ndarray
    ht_rdag: np.ndarray
    htrh: np.ndarray
    info_pinv: np.ndarray
    back_gain: Optional[np.ndarray]
    back_cov: Optional[np.ndarray]
    # not fields: set by `FactorStack.__getitem__` on the factors it makes
    stack = None
    row = 0

    def loglik(self, zs: np.ndarray, z_pred: np.ndarray) -> np.ndarray:
        """(G, Np) noise log-likelihoods log N(zs[g]; z_pred, R), zs (G, m).

        z_pred (m, Np) holds predicted measurements for every row of zs, or
        (m, G, Np) one set per row, prediction-last. Raw payloads whiten by
        the Cholesky factor (`_whiten`); transformed ones project on the
        nonzero eigenvectors, and a rank-deficient R needs the residuals in
        its range (`require_in_range`); rank zero raises NumericsError.
        """
        m, n_pred = self.H.shape[0], z_pred.shape[-1]
        z_pred = z_pred.reshape(m, -1, n_pred)
        if self.chol is not None:
            y = self._whiten(zs, z_pred)
            quad = np.sum(y * y, axis=0)
        else:
            if self.rank == 0:
                raise NumericsError("transformed covariance has rank zero")
            diffs = (zs.T[:, :, None] - z_pred).reshape(m, -1)
            proj = self.v.T @ diffs
            if self.rank < m:
                off = diffs - self.v @ proj
                require_in_range(np.sum(off * off, axis=0).reshape(-1, n_pred),
                                 np.linalg.norm(zs, axis=1)[:, None],
                                 np.linalg.norm(z_pred, axis=0))
            quad = np.sum(proj * proj / self.w[:, None], axis=0)
        ll = -0.5 * (self.rank * LOG_2PI + self.logdet + quad)
        return ll.reshape(zs.shape[0], n_pred)

    def _whiten(self, zs: np.ndarray, z_pred: np.ndarray) -> np.ndarray:
        """L^-1 (z - z_pred) for the raw Cholesky factor L, as an (m, G Np)
        C-ordered array, z_pred (m, G or 1, Np).

        One right-side BLAS `dtrsm` solves X L^T = D^T in place on the
        Fortran-ordered transpose of a C-ordered (m, G Np) residual store.
        Posed left-side (`solve_triangular`, LAPACK `dtrtrs`), the (m, G Np)
        right-hand side is a shape OpenBLAS handles badly: 184 against 71 us
        per call at m = 2, G Np = 15,000. This equals `solve_triangular` bit
        for bit at m <= 3 and G Np > 1 (for one residual `dtrtrs` divides by
        the diagonal, `dtrsm` multiplies by its reciprocal; from m = 4 sums
        may round differently). An exact zero on the diagonal (LAPACK's
        info > 0, which `dtrsm` does not report) is checked here.
        """
        m = z_pred.shape[0]
        if not np.diagonal(self.chol).all():
            raise NumericsError("triangular solve failed (zero on the factor's diagonal)")
        store = np.empty((m, zs.shape[0], z_pred.shape[-1]))
        np.subtract(zs.T[:, :, None], z_pred, out=store)
        return dtrsm(1.0, self.chol, store.reshape(m, -1).T, side=1, lower=1,
                     trans_a=1, overwrite_b=1).T


def _covariance_form(eigs: np.ndarray) -> np.ndarray:
    """Mask of the transformed noise covariances, given their ascending
    eigenvalues (K, m), that are nonsingular: smallest eigenvalue above
    1e-12 times the largest. Raises InputError if one has a clearly
    negative eigenvalue."""
    lo, hi = eigs[:, 0], eigs[:, -1]
    if np.any(lo < -1e-8 * np.maximum(hi, 1e-300)):
        raise InputError("transformed noise covariance has a negative eigenvalue")
    return lo > RANK_RTOL * hi


@dataclass(eq=False)
class FactorStack:
    """The `PayloadFactor`s of K models, held as (K, ...) stacks.

    Item k is a `PayloadFactor` of views into the stacks, made on access,
    so a tape's factors cost their arrays and not K sets of objects.
    `cov_form` flags the models with a covariance-form model and `back`
    those with a backprojection. For a transformed R, `groups` is the
    `psd_eig_groups` output of the R stack and `chol` None; for a raw one
    `groups` is None.
    """

    H: np.ndarray
    R: np.ndarray
    cov_form: np.ndarray
    chol: Optional[np.ndarray]
    groups: Optional[list]
    rank: np.ndarray
    logdet: np.ndarray
    r_dag: np.ndarray
    ht_rdag: np.ndarray
    htrh: np.ndarray
    info_pinv: np.ndarray
    back: np.ndarray
    back_gain: np.ndarray
    back_cov: np.ndarray

    def __post_init__(self):
        # model k's eigenpairs are row row_of[k] of group group_of[k]
        self.group_of = np.zeros(len(self.H), dtype=int)
        self.row_of = np.zeros(len(self.H), dtype=int)
        for g, (idx, _, _) in enumerate(self.groups or []):
            self.group_of[idx] = g
            self.row_of[idx] = np.arange(len(idx))

    def __len__(self) -> int:
        return len(self.H)

    def __getitem__(self, k: int) -> PayloadFactor:
        if not 0 <= k < len(self.H):
            raise IndexError(k)
        H, R = self.H[k], self.R[k]
        w = v = None
        if self.groups is not None:
            _, wg, vg = self.groups[self.group_of[k]]
            w, v = wg[self.row_of[k]], vg[self.row_of[k]]
        back = bool(self.back[k])
        factor = PayloadFactor(
            H, R, MeasurementModel._trusted(H, R) if self.cov_form[k] else None,
            None if self.chol is None else self.chol[k], w, v,
            int(self.rank[k]), float(self.logdet[k]), self.r_dag[k], self.ht_rdag[k],
            self.htrh[k], self.info_pinv[k],
            self.back_gain[k] if back else None, self.back_cov[k] if back else None)
        factor.stack, factor.row = self, k
        return factor


def payload_factors(H: np.ndarray, R: np.ndarray, transformed: bool) -> FactorStack:
    """`PayloadFactor`s of K effective models, (K, m, n) H and (K, m, m) R.

    Every quantity comes from one stacked call over the K models (the
    eigenvalue routes one call per rank present), whose slices equal the
    one-model calls bit for bit. A raw R must be positive definite
    (ConfigError, the check of `MeasurementModel`); a transformed R must
    pass the check of `transformed_model` (InputError) and the rank rule of
    `psd_eig` (NumericsError).
    """
    H = np.asarray(H, dtype=float)
    R = symmetrize(np.asarray(R, dtype=float))
    K, m, n = H.shape
    if R.shape != (K, m, m):
        raise ConfigError("R must be m x m for H with m rows")
    eigs = np.linalg.eigvalsh(R)
    chol = groups = None
    if transformed:
        cov_form = _covariance_form(eigs)
        groups = list(psd_eig_groups(R))
        rank = np.zeros(K, dtype=int)
        logdet = np.zeros(K)
        for idx, wg, _ in groups:
            rank[idx] = wg.shape[1]
            logdet[idx] = np.sum(np.log(wg), axis=1)
        r_dag = pinv_psd_stack(R, groups)
    else:
        if np.any(eigs[:, 0] <= 0):
            raise ConfigError("R must be positive definite")
        cov_form = np.ones(K, dtype=bool)
        chol = cholesky(R, "noise covariance")
        rank = np.full(K, m)
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        r_dag = np.linalg.inv(R)
    ht_rdag = H.swapaxes(1, 2) @ r_dag
    htrh = ht_rdag @ H
    info_pinv = pinv_psd_stack(htrh)

    hp = H[:, :, :POS_DIM]
    back = np.ones(K, dtype=bool)
    if n > POS_DIM:
        back = np.max(np.abs(H[:, :, POS_DIM:]), axis=(1, 2)) <= 1e-12
    pos_info = symmetrize(hp.swapaxes(1, 2) @ r_dag @ hp)
    pw = np.linalg.eigvalsh(pos_info)
    back &= pw[:, 0] > 1e-10 * np.maximum(pw[:, -1], 1e-300)
    back_gain = r_dag @ hp
    back_cov = np.zeros(pos_info.shape)
    back_cov[back] = np.linalg.inv(pos_info[back])

    return FactorStack(H, R, cov_form, chol, groups, rank, logdet, r_dag, ht_rdag,
                       htrh, info_pinv, back, back_gain, back_cov)


def predict_stack(means: np.ndarray, covs: np.ndarray, model: MotionModel):
    """One-step prediction of N estimates: mean' = F mean, cov' = F cov F^T + Q."""
    if model.n != means.shape[1]:
        raise ConfigError("motion model dimension does not match estimate")
    return ((model.F @ means[:, :, None])[:, :, 0],
            symmetrize(model.F @ covs @ model.F.T + model.Q))


def innovation_stack(means: np.ndarray, covs: np.ndarray, model):
    """(N, m) predicted measurements H mean and (N, m, m) innovation
    covariances H P H^T + R of N predicted estimates.

    `model` is anything that holds an effective H (m, n) and R (m, m): a
    MeasurementModel, or a MeasurementBatch whose R may be singular. H and
    R may also be stacks (..., m, n) and (..., m, m) whose leading axes
    broadcast against the N estimates; the results then carry them too.
    """
    if model.H.shape[-1] != means.shape[1]:
        raise ConfigError("measurement model dimension does not match estimate")
    return ((model.H @ means[:, :, None])[..., 0],
            symmetrize(model.H @ covs @ model.H.swapaxes(-1, -2) + model.R))


def update_raw_stack(means: np.ndarray, covs: np.ndarray, zs: np.ndarray,
                     model: MeasurementModel):
    """Covariance-form Kalman update of N predicted estimates, row k by the
    raw measurement zs[k]; returns the (N, n) means and (N, n, n) covariances.

    Computes the innovations (`innovation_stack`) and hands them to the one
    update core, `_update_with_innovation`, whose checks it raises.
    """
    z_hat, s = innovation_stack(means, covs, model)
    return _update_with_innovation(means, covs, zs, model, z_hat, s)


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _update_with_innovation(means, covs, zs, model, z_hat, s, chol=None):
    """The Kalman update core: `update_raw_stack` given the rows' predicted
    measurements z_hat (N, m) and innovation covariances s (N, m, m), as
    `innovation_stack` gives them (so s is exactly symmetric), and, when the
    caller holds it, their lower Cholesky factor `chol`.

    Raises NumericsError if any innovation covariance is not finite, is not
    positive definite or has a condition number above 1e12, in that order.
    The condition number is the ratio of the extreme eigenvalues of one
    stacked `eigvalsh` (the 2-norm condition number of an SPD matrix). The
    inverse of s is that of its Cholesky factor, (L^-1)^T L^-1, symmetrized.
    """
    if not np.isfinite(s).all():
        raise NumericsError("innovation covariance is not finite")
    w = np.linalg.eigvalsh(s)
    if np.any(w[:, 0] < 0):
        raise NumericsError("innovation covariance is not positive definite")
    cond = np.divide(w[:, -1], w[:, 0], out=np.full(len(w), np.inf), where=w[:, 0] > 0)
    bad = cond > 1e12
    if np.any(bad):
        raise NumericsError("innovation covariance ill-conditioned "
                            f"(cond={cond[bad][0]:.3e})")
    if chol is None:
        try:
            chol = np.linalg.cholesky(s)
        except np.linalg.LinAlgError as exc:
            raise NumericsError("innovation covariance is not positive definite") from exc
    ci = np.linalg.solve(chol, _identity(s.shape[-1]))
    gain = covs @ model.H.T @ symmetrize(ci.swapaxes(-1, -2) @ ci)
    means = means + (gain @ (zs - z_hat)[:, :, None])[:, :, 0]
    i_kh = _identity(means.shape[1]) - gain @ model.H
    covs = symmetrize(i_kh @ covs @ i_kh.swapaxes(1, 2)
                      + gain @ model.R @ gain.swapaxes(1, 2))
    return means, covs


def predict(est: GaussianEstimate, model: MotionModel) -> GaussianEstimate:
    """One-step prediction of one estimate (`predict_stack` with N = 1)."""
    means, covs = predict_stack(est.mean[None], est.cov[None], model)
    return GaussianEstimate._trusted(means[0], covs[0], est.timestamp + 1)


def innovation(est_pred: GaussianEstimate, model: MeasurementModel):
    """Predicted measurement and innovation covariance (H mean, H P H^T + R)."""
    z_hat, s = innovation_stack(est_pred.mean[None], est_pred.cov[None], model)
    return z_hat[0], s[0]


def update_raw(est_pred: GaussianEstimate, z: np.ndarray,
               model: MeasurementModel) -> GaussianEstimate:
    """Covariance-form Kalman update with a raw measurement (N = 1)."""
    z = np.asarray(z, dtype=float).reshape(1, -1)
    means, covs = update_raw_stack(est_pred.mean[None], est_pred.cov[None], z, model)
    return GaussianEstimate._trusted(means[0], covs[0], est_pred.timestamp)


def transformed_model(Ht: np.ndarray, Rt: np.ndarray) -> Optional[MeasurementModel]:
    """The covariance-form model of a transformed payload (Ht, Rt), or None
    when Rt is singular (its smallest eigenvalue at most 1e-12 times the
    largest) and the update must take the information form.

    Raises InputError if Rt has a clearly negative eigenvalue.
    """
    if _covariance_form(np.linalg.eigvalsh(Rt)[None])[0]:
        return MeasurementModel(Ht, Rt)
    return None


def update_transformed(est_pred: GaussianEstimate, zt: np.ndarray,
                       Ht: np.ndarray, Rt: np.ndarray) -> GaussianEstimate:
    """Update with a transformed measurement zt = A z, Ht = A H, Rt = A R A^T.

    Rt may be singular (generic full-column-rank A); the information form
    with the Moore-Penrose pseudoinverse of Rt is used in that case and
    reproduces the raw update exactly. A nonsingular Rt takes the plain
    covariance-form route.
    """
    zt = np.asarray(zt, dtype=float).reshape(-1)
    Ht = np.atleast_2d(np.asarray(Ht, dtype=float))
    Rt = symmetrize(np.atleast_2d(np.asarray(Rt, dtype=float)))
    model = transformed_model(Ht, Rt)
    if model is not None:
        return update_raw(est_pred, zt, model)
    return update_information(est_pred, zt, Ht, pinv_psd(Rt))


def update_information(est_pred: GaussianEstimate, zt: np.ndarray,
                       Ht: np.ndarray, rt_pinv: np.ndarray) -> GaussianEstimate:
    """Information-form update with the pseudoinverse rt_pinv of a singular
    transformed noise covariance."""
    info_prior = inv_spd(est_pred.cov, "prior covariance")
    info = symmetrize(info_prior + Ht.T @ rt_pinv @ Ht)
    ivec = info_prior @ est_pred.mean + Ht.T @ rt_pinv @ zt
    cov = inv_spd(info, "posterior information")
    return GaussianEstimate(cov @ ivec, cov, est_pred.timestamp)
