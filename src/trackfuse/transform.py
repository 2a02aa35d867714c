"""Lossless measurement transformations and (generalized) likelihoods.

Two analytical transformations are provided:

* type 1 -- noise whitening built from the full-rank decomposition H = B D,
  A = (B^T R^-1 B)^(-1/2) B^T R^-1, so the transformed noise covariance is
  the identity and only (z, H) need transmission. Only a full-row-rank H
  gives a full-column-rank A; its decomposition is B = I, D = H;
* type 2 -- for H = [E, 0] with invertible E, A = E^-1, so the transformed
  measurement matrix is the constant [I, 0] and only (z, R) need
  transmission.

Both are written once, as stacked cores over K models at a time, (K, m, n)
H and (K, m, m) R: `type1_stack` and `type2_stack` return the (K, ...) A,
Ht, Rt and the (K,) sqrt(det(A^T A)). Their products are batched `@` and
their factorizations stacked LAPACK calls, which make per slice the calls
of the one-model form, so a slice equals the K = 1 result bit for bit. The
simulator's tape pass calls them once per payload arm on every (scan,
sensor) model of a tape; `make_type1` and `make_type2` are K = 1 wrappers.

Likelihoods are evaluated in the log domain: products over ten sensors
underflow in the linear domain. The generalized likelihood uses the product
of nonzero eigenvalues and the pseudoinverse of the (possibly singular)
transformed covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericsError
from .linalg import (
    RANK_RTOL,
    is_full_column_rank,
    psd_eig,
    ranks_by_sv,
    require_in_range,
    sym_sqrt_and_invsqrt,
    symmetrize,
)
from .models import LOG_2PI, TYPE1, TYPE2, MeasurementModel

IDENTITY = "identity"
GENERIC = "generic"


@dataclass
class Transformation:
    """A full-column-rank left transformation of one sensor's measurements."""

    A: np.ndarray
    kind: str
    Ht: np.ndarray
    Rt: np.ndarray
    sqrt_det_ata: float = field(init=False)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.Ht = np.atleast_2d(np.asarray(self.Ht, dtype=float))
        self.Rt = symmetrize(np.atleast_2d(np.asarray(self.Rt, dtype=float)))
        sv = np.linalg.svd(self.A, compute_uv=False)
        if self.A.shape[0] < self.A.shape[1] or sv[-1] <= 1e-10 * sv[0]:
            raise InputError("transformation matrix must have full column rank")
        self.sqrt_det_ata = float(np.prod(sv))

    @classmethod
    def _trusted(cls, A, kind, Ht, Rt, sqrt_det_ata: float):
        """A transformation from a stacked core's slice, whose column rank
        and singular-value product that core has checked and computed."""
        tr = cls.__new__(cls)
        tr.A, tr.kind, tr.Ht, tr.Rt = A, kind, Ht, Rt
        tr.sqrt_det_ata = sqrt_det_ata
        return tr

    def apply(self, zs: np.ndarray) -> np.ndarray:
        """Transform measurements; zs is (M, m) row-wise or a single vector."""
        zs = np.asarray(zs, dtype=float)
        if zs.ndim == 1:
            return self.A @ zs
        return zs @ self.A.T


def make_identity(model: MeasurementModel) -> Transformation:
    """No-op transformation (payload identical to raw)."""
    eye = np.eye(model.m)
    return Transformation(eye, IDENTITY, model.H.copy(), model.R.copy())


def _column_rank_stack(a: np.ndarray) -> np.ndarray:
    """sqrt(det(A^T A)) of each slice of a (K, p, m) stack, the product of
    its singular values; raises InputError unless every slice has full
    column rank (the check of `Transformation`)."""
    sv = np.linalg.svd(a, compute_uv=False)
    if a.shape[1] < a.shape[2] or np.any(sv[:, -1] <= 1e-10 * sv[:, 0]):
        raise InputError("transformation matrix must have full column rank")
    return np.prod(sv, axis=1)


def type1_stack(H: np.ndarray, R: np.ndarray):
    """Whitening transformations of K models: (A, Ht, Rt, sqrt_det_ata).

    For each slice Rt = I and Ht = (B^T R^-1 B)^(1/2) D with B = I, D = H
    (see `make_type1`). An H of rank r < m would leave A with r < m rows,
    so it raises InputError; so does an H of rank zero. Raises
    NumericsError if some B^T R^-1 B is rank deficient.
    """
    K, m, _ = H.shape
    ranks = ranks_by_sv(H)
    if np.any(ranks == 0):
        raise InputError("H has rank zero")
    if np.any(ranks < m):
        raise InputError("transformation matrix must have full column rank")
    # B = I is multiplied through rather than dropped: products with it
    # round like those of the general formula, down to the signs of zeros.
    b = np.tile(np.eye(m), (K, 1, 1))
    bt = b.swapaxes(1, 2)
    r_inv = np.linalg.inv(R)
    core = symmetrize(bt @ r_inv @ b)
    eigs = np.linalg.eigvalsh(core)
    if np.any(eigs[:, 0] <= RANK_RTOL * eigs[:, -1]):
        raise NumericsError("B^T R^-1 B is rank deficient")
    sq, isq = sym_sqrt_and_invsqrt(core)
    a = isq @ bt @ r_inv
    ht = sq @ np.ascontiguousarray(H)
    rt = np.tile(np.eye(m), (K, 1, 1))
    return a, ht, rt, _column_rank_stack(a)


def type2_stack(H: np.ndarray, R: np.ndarray):
    """Leading-block inverses of K models [E, 0]: (A, Ht, Rt, sqrt_det_ata)
    with A = E^-1, Ht = [I, 0] and Rt = E^-1 R E^-T (see `make_type2`)."""
    K, m, n = H.shape
    e = H[:, :, :m]
    tail = H[:, :, m:]
    if tail.size and np.max(np.abs(tail)) > 1e-12:
        raise InputError("H is not of the [E, 0] shape")
    if np.any(ranks_by_sv(e) < m):
        raise InputError("leading block of H is singular")
    a = np.linalg.inv(e)
    ht = np.tile(np.hstack([np.eye(m), np.zeros((m, n - m))]), (K, 1, 1))
    rt = symmetrize(a @ R @ a.swapaxes(1, 2))
    return a, ht, rt, _column_rank_stack(a)


def _one(stack_fn, kind: str, model: MeasurementModel) -> Transformation:
    a, ht, rt, sqrt_det = stack_fn(model.H[None], model.R[None])
    return Transformation._trusted(a[0], kind, ht[0], rt[0], float(sqrt_det[0]))


def make_type1(model: MeasurementModel) -> Transformation:
    """Whitening transformation: Rt = I, Ht = (B^T R^-1 B)^(1/2) D."""
    return _one(type1_stack, TYPE1, model)


def make_type2(model: MeasurementModel) -> Transformation:
    """Leading-block inverse for H = [E, 0]: Ht = [I, 0], Rt = E^-1 R E^-T."""
    return _one(type2_stack, TYPE2, model)


def make_generic(A: np.ndarray, model: MeasurementModel) -> Transformation:
    """Arbitrary full-column-rank transformation; Rt = A R A^T may be singular."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not is_full_column_rank(A):
        raise InputError("A must have full column rank")
    return Transformation(A, GENERIC, A @ model.H, symmetrize(A @ model.R @ A.T))


def gaussian_log_likelihood(z: np.ndarray, z_hat: np.ndarray, S: np.ndarray) -> float:
    """log N(z; z_hat, S) for positive-definite S."""
    z = np.asarray(z, dtype=float).reshape(-1)
    z_hat = np.asarray(z_hat, dtype=float).reshape(-1)
    S = symmetrize(np.atleast_2d(np.asarray(S, dtype=float)))
    try:
        c = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("likelihood covariance is not positive definite") from exc
    d = z - z_hat
    y = np.linalg.solve(c, d)
    logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
    return -0.5 * (z.size * LOG_2PI + logdet + float(y @ y))


def generalized_log_likelihood(zt: np.ndarray, zt_hat: np.ndarray,
                               St: np.ndarray) -> float:
    """Generalized Gaussian log-density with a PSD covariance.

    Uses the product of the nonzero eigenvalues of St and the pseudoinverse
    quadratic form. When St is rank-deficient the residual must lie in its
    range (`require_in_range`, InconsistentTransformError).
    """
    zt = np.asarray(zt, dtype=float).reshape(-1)
    zt_hat = np.asarray(zt_hat, dtype=float).reshape(-1)
    St = np.atleast_2d(np.asarray(St, dtype=float))
    w, v, rank = psd_eig(St)
    if rank == 0:
        raise NumericsError("transformed covariance has rank zero")
    d = zt - zt_hat
    proj = v.T @ d
    if rank < d.size:
        off = d - v @ proj
        require_in_range(float(off @ off), np.linalg.norm(zt), np.linalg.norm(zt_hat))
    quad = float(np.sum(proj * proj / w))
    return -0.5 * (rank * LOG_2PI + float(np.sum(np.log(w))) + quad)


@dataclass
class ClutterModel:
    """Poisson clutter, uniform over a surveillance volume."""

    rate: float
    region_volume: float

    def __post_init__(self):
        if self.rate < 0 or self.region_volume <= 0:
            raise InputError("clutter rate must be >= 0 and volume > 0")

    @property
    def density(self) -> float:
        return 1.0 / self.region_volume

    @property
    def log_density(self) -> float:
        return -math.log(self.region_volume)


def clutter_density_transformed(clutter: ClutterModel,
                                transformation: Transformation) -> ClutterModel:
    """Clutter model in the transformed measurement space.

    A full-column-rank A scales the uniform region's volume by the product
    of its singular values, sqrt(det(A^T A)).
    """
    return ClutterModel(clutter.rate,
                        clutter.region_volume * transformation.sqrt_det_ata)
