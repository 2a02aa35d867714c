"""Linear-Gaussian dynamics / measurement models and Kalman-style updates.

The Kalman equations are written once, in a stacked core that works on N
estimates at a time, (N, n) means and (N, n, n) covariances:
`predict_stack`, `innovation_stack` and `update_raw_stack`. Their products
are batched `@`, which makes per slice the BLAS calls of the one-estimate
form, so a row of a stack equals the N = 1 result bit for bit. `predict`,
`innovation` and `update_raw` are thin N = 1 wrappers over the core for
callers that hold one `GaussianEstimate` (`update_transformed`, and the
per-track reference loops of the tests); the local GNN trackers and the
MDA pipeline call the core on all their tracks at once.

The fusion center consumes *effective* measurement models (H, R): either the
sensor's raw model or its transformed counterpart. The raw update is the
textbook covariance-form Kalman filter; the transformed update switches to
the information form with a pseudoinverse whenever the transformed noise
covariance is singular, which preserves exact equivalence with the raw route
for any full-column-rank transformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InputError, NumericsError
from .linalg import inv_spd, pinv_psd, symmetrize


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
        if np.min(np.linalg.eigvalsh(self.Q)) < -1e-10:
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
    kind: str = "raw"

    def __post_init__(self):
        self.zs = np.atleast_2d(np.asarray(self.zs, dtype=float))
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        self.R = symmetrize(np.atleast_2d(np.asarray(self.R, dtype=float)))
        if self.zs.size == 0:
            self.zs = np.zeros((0, self.H.shape[0]))
        if self.zs.shape[1] != self.H.shape[0]:
            raise ConfigError("measurement dimension does not match H")

    @property
    def transformed(self) -> bool:
        return self.kind != "raw"

    @property
    def n_meas(self) -> int:
        return self.zs.shape[0]


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
    MeasurementModel, or a MeasurementBatch whose R may be singular.
    """
    if model.H.shape[1] != means.shape[1]:
        raise ConfigError("measurement model dimension does not match estimate")
    return ((model.H @ means[:, :, None])[:, :, 0],
            symmetrize(model.H @ covs @ model.H.T + model.R))


def update_raw_stack(means: np.ndarray, covs: np.ndarray, zs: np.ndarray,
                     model: MeasurementModel):
    """Covariance-form Kalman update of N predicted estimates, row k by the
    raw measurement zs[k]; returns the (N, n) means and (N, n, n) covariances.

    Raises NumericsError if any innovation covariance has a condition number
    above 1e12 (or not finite) or is not positive definite.
    """
    z_hat, s = innovation_stack(means, covs, model)
    cond = np.linalg.cond(s)
    bad = ~np.isfinite(cond) | (cond > 1e12)
    if np.any(bad):
        raise NumericsError("innovation covariance ill-conditioned "
                            f"(cond={cond[bad][0]:.3e})")
    gain = covs @ model.H.T @ inv_spd(s, "innovation covariance")
    means = means + (gain @ (zs - z_hat)[:, :, None])[:, :, 0]
    i_kh = np.eye(means.shape[1]) - gain @ model.H
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
    eigs = np.linalg.eigvalsh(Rt)
    if np.min(eigs) < -1e-8 * max(np.max(eigs), 1e-300):
        raise InputError("transformed noise covariance has a negative eigenvalue")
    if np.min(eigs) > 1e-12 * np.max(eigs):
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
    rt_pinv = pinv_psd(Rt)
    info_prior = inv_spd(est_pred.cov, "prior covariance")
    info = symmetrize(info_prior + Ht.T @ rt_pinv @ Ht)
    ivec = info_prior @ est_pred.mean + Ht.T @ rt_pinv @ zt
    cov = inv_spd(info, "posterior information")
    return GaussianEstimate(cov @ ivec, cov, est_pred.timestamp)
