"""Small shared linear-algebra helpers.

Rank decisions everywhere use a relative cutoff of 1e-12 times the largest
singular value / eigenvalue, so "nonzero eigenvalues" means the same thing
in every module. Whether a residual lies in the range of a rank-deficient
covariance is decided in one place too, `require_in_range`.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import gammaincinv

from .errors import InconsistentTransformError, NumericsError

RANK_RTOL = 1e-12
# Off-range part of a residual z - z_hat, relative to |z| + |z_hat|, that
# still counts as in the range (see `require_in_range`).
RANGE_RTOL = 1e-8


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2; applied after every covariance arithmetic step.

    A (..., n, n) stack is symmetrized slice by slice.
    """
    return 0.5 * (m + (m.T if m.ndim < 3 else m.swapaxes(-1, -2)))


def _psd_keep(w: np.ndarray, rtol: float) -> np.ndarray:
    """Mask of the nonzero eigenvalues of symmetric PSD matrices.

    w is (..., m), each row ascending as `np.linalg.eigh` returns it.
    Eigenvalues below rtol * max count as zero. A matrix whose largest
    eigenvalue is <= 0 has rank zero and must have no eigenvalue below
    -rtol; any other must have none below -1e-8 * max. Otherwise raises
    NumericsError.
    """
    if w.shape[-1] == 0:
        return np.zeros(w.shape, dtype=bool)
    wmax, wmin = w[..., -1], w[..., 0]
    flat = wmax <= 0.0
    if np.any(flat & (wmin < -rtol)):
        raise NumericsError("matrix has negative eigenvalues")
    bad = ~flat & (wmin < -1e-8 * wmax)
    if np.any(bad):
        raise NumericsError(f"matrix not PSD (min eig {np.min(wmin[bad]):.3e})")
    return (w > (rtol * wmax)[..., None]) & ~flat[..., None]


def _finite(m: np.ndarray) -> np.ndarray:
    """m as a float array; raises NumericsError on a nan or inf entry, for
    which `np.linalg.eigh` may return finite eigenpairs."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NumericsError("matrix is not finite")
    return m


def psd_eig(m: np.ndarray, rtol: float = RANK_RTOL):
    """Eigendecomposition of a symmetric PSD matrix.

    Returns (nonzero eigenvalues, matching eigenvectors, rank). Eigenvalues
    below rtol * max are treated as zero. Raises NumericsError if an entry
    is not finite or a clearly negative eigenvalue is present.
    """
    w, v = np.linalg.eigh(symmetrize(_finite(m)))
    keep = _psd_keep(w, rtol)
    return w[keep], v[:, keep], int(np.count_nonzero(keep))


def psd_eig_stack(mats: np.ndarray):
    """Stacked `psd_eig` of (B, m, m) symmetric PSD matrices.

    Returns the full eigenvalues (B, m) and eigenvectors (B, m, m) of one
    stacked `np.linalg.eigh`, and the (B, m) mask of the nonzero
    eigenvalues by the rank rule of `psd_eig`, whose NumericsError it
    raises.
    """
    w, v = np.linalg.eigh(symmetrize(_finite(mats)))
    return w, v, _psd_keep(w, RANK_RTOL)


def psd_eig_groups(mats: np.ndarray):
    """`psd_eig` of a (B, m, m) stack, one group per rank.

    Eigenvalues come out of `np.linalg.eigh` ascending, so the nonzero ones
    are the top r. Yields (idx, w, v) for each rank r present: the slices
    idx of that rank, their nonzero eigenvalues w (G, r) and eigenvectors v
    (G, m, r), each row laid out as `psd_eig` returns it, so w[j] and v[j]
    equal `psd_eig(mats[idx[j]])` bit for bit.
    """
    w, v, keep = psd_eig_stack(mats)
    rank = np.count_nonzero(keep, axis=-1)
    m = w.shape[-1]
    for r in np.unique(rank).tolist():
        idx = np.flatnonzero(rank == r)
        yield idx, w[idx, m - r:], np.ascontiguousarray(v[idx, :, m - r:])


def pinv_psd_stack(mats: np.ndarray, groups=None) -> np.ndarray:
    """`pinv_psd` of a (B, m, m) stack: one batched product per rank group,
    each slice equal to `pinv_psd` bit for bit. `groups` are the
    `psd_eig_groups` of mats when the caller has them."""
    out = np.zeros(np.shape(mats))
    for idx, w, v in psd_eig_groups(mats) if groups is None else groups:
        if w.shape[1]:
            out[idx] = symmetrize((v / w[:, None, :]) @ v.swapaxes(1, 2))
    return out


def psd_quadforms(mats: np.ndarray, diffs: np.ndarray) -> np.ndarray:
    """Pseudoinverse quadratic forms d^T M^+ d for a stack of PSD matrices.

    mats is (B, m, m) and diffs (B, K, m); returns (B, K). One stacked
    eigendecomposition replaces B calls of `psd_eig`, with the same rank
    rule and NumericsError; the forms equal those built from `psd_eig` up
    to rounding (a rank-zero matrix gives zero forms).
    """
    w, v, keep = psd_eig_stack(mats)
    proj = diffs @ v
    terms = np.divide(proj * proj, w[:, None, :], out=np.zeros_like(proj),
                      where=keep[:, None, :])
    return terms.sum(axis=-1)


def require_in_range(off2, z_norm, z_hat_norm) -> None:
    """Raise InconsistentTransformError if a residual z - z_hat has a
    component off the range of its rank-deficient covariance, of squared
    norm off2, above RANGE_RTOL (|z| + |z_hat|); the arguments broadcast.

    Scaled to the measurement, an exact fit (a residual of rounding size)
    stays in range; the bound is never tighter than RANGE_RTOL |z - z_hat|.
    """
    if np.any(off2 > np.square(RANGE_RTOL * (z_norm + z_hat_norm))):
        raise InconsistentTransformError(
            "residual is outside the range of the transformed covariance")


@functools.lru_cache(maxsize=64)
def chi2_gate(prob: float, dof: int) -> float:
    """Chi-square quantile: the squared-Mahalanobis gate for `dof` dimensions.

    Equal to scipy.stats.chi2.ppf(prob, dof), which computes the same
    expression, without importing scipy.stats.
    """
    return float(2.0 * gammaincinv(dof / 2, prob))


def pinv_psd(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix via eigh."""
    w, v, _ = psd_eig(m, rtol)
    if w.size == 0:
        return np.zeros_like(np.asarray(m, dtype=float))
    return symmetrize((v / w) @ v.T)


def cholesky(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    m may be a (..., n, n) stack; a slice that is not positive definite
    raises NumericsError naming `what`.
    """
    try:
        return np.linalg.cholesky(symmetrize(m))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"{what} is not positive definite") from exc


def inv_spd(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix (or a stack) via Cholesky."""
    c = cholesky(m, what)
    ci = np.linalg.solve(c, np.eye(m.shape[-1]))
    return symmetrize(ci.swapaxes(-1, -2) @ ci)


def sym_sqrt_and_invsqrt(m: np.ndarray, clamp: float = 1e-14):
    """Symmetric square root and inverse square root of an SPD matrix.

    m may be a (..., n, n) stack, each slice computed as on its own.
    Eigenvalues are clamped at `clamp` before the inverse root so that a
    barely-PD input yields a deterministic, symmetric result.
    """
    w, v = np.linalg.eigh(symmetrize(m))
    if np.any(np.max(w, axis=-1) <= 0):
        raise NumericsError("matrix has no positive eigenvalues")
    root = np.sqrt(np.maximum(w, clamp))[..., None, :]
    vt = v.swapaxes(-1, -2)
    return symmetrize((v * root) @ vt), symmetrize((v / root) @ vt)


def matrix_rank_by_sv(a: np.ndarray, rtol: float = 1e-10) -> int:
    """Rank via singular values with a relative threshold."""
    return int(ranks_by_sv(np.atleast_2d(a)[None], rtol)[0])


def ranks_by_sv(a: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """`matrix_rank_by_sv` of each slice of a (B, m, n) stack."""
    if 0 in a.shape[1:]:
        return np.zeros(a.shape[0], dtype=int)
    sv = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(sv > rtol * sv[:, :1], axis=1)


def is_full_column_rank(a: np.ndarray, rtol: float = 1e-10) -> bool:
    a = np.atleast_2d(a)
    return a.shape[0] >= a.shape[1] and matrix_rank_by_sv(a, rtol) == a.shape[1]
