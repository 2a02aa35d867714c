"""Small shared linear-algebra helpers.

Each cutoff is named once here (`RANK_RTOL`, `SINGULAR_RTOL`, `ZERO_ATOL`),
so a decision means the same thing in every module, and whether a residual
lies in the range of a rank-deficient covariance is decided in one place,
`require_in_range`. Stacked PSD eigendecompositions have one layout, the
full ascending (w, v) of `np.linalg.eigh` and the mask `keep` of the
nonzero eigenvalues (`psd_eig_stack`), so a rank-r row keeps its top r
columns; `psd_eig` is its K = 1 case with those columns sliced out.
Gates against Cholesky factors whiten by `mahalanobis_sq`, whose result
for a residual does not depend on the batch it is whitened in.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import gammaincinv

from .errors import InconsistentTransformError, NumericsError

# Eigenvalues of a PSD matrix at most RANK_RTOL times the largest are zero.
RANK_RTOL = 1e-12
# A matrix is singular when its smallest singular value (or eigenvalue, for
# an information matrix) is at most SINGULAR_RTOL times its largest.
SINGULAR_RTOL = 1e-10
# A block of H with no entry above ZERO_ATOL in magnitude is zero ("[E, 0]").
ZERO_ATOL = 1e-12
# Off-range part of a residual z - z_hat, relative to |z| + |z_hat|, that
# still counts as in the range (see `require_in_range`).
RANGE_RTOL = 1e-8


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2; applied after every covariance arithmetic step.

    A (..., n, n) stack is symmetrized slice by slice.
    """
    return 0.5 * (m + (m.T if m.ndim < 3 else m.swapaxes(-1, -2)))


def psd_keep(w: np.ndarray) -> np.ndarray:
    """Mask of the nonzero eigenvalues of symmetric PSD matrices.

    w is (..., m), each row ascending as `np.linalg.eigh` returns it.
    Eigenvalues at most RANK_RTOL * max count as zero. A matrix whose
    largest eigenvalue is <= 0 has rank zero and must have no eigenvalue
    below -RANK_RTOL; any other must have none below -1e-8 * max. Otherwise
    raises NumericsError.
    """
    if w.shape[-1] == 0:
        return np.zeros(w.shape, dtype=bool)
    wmax, wmin = w[..., -1], w[..., 0]
    flat = wmax <= 0.0
    if np.any(flat & (wmin < -RANK_RTOL)):
        raise NumericsError("matrix has negative eigenvalues")
    bad = ~flat & (wmin < -1e-8 * wmax)
    if np.any(bad):
        raise NumericsError(f"matrix not PSD (min eig {np.min(wmin[bad]):.3e})")
    return (w > (RANK_RTOL * wmax)[..., None]) & ~flat[..., None]


def as_finite(m: np.ndarray) -> np.ndarray:
    """m as a float array; raises NumericsError on a nan or inf entry, for
    which `np.linalg.eigh` may return finite eigenpairs."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NumericsError("matrix is not finite")
    return m


def psd_eig_stack(mats: np.ndarray):
    """Eigendecomposition of (B, m, m) symmetric PSD matrices.

    Returns the full eigenvalues w (B, m) and eigenvectors v (B, m, m) of
    one stacked `np.linalg.eigh`, and the (B, m) mask of the nonzero
    eigenvalues by the rank rule of `psd_keep`. Raises NumericsError if an
    entry is not finite or a clearly negative eigenvalue is present.
    """
    w, v = np.linalg.eigh(symmetrize(as_finite(mats)))
    return w, v, psd_keep(w)


def psd_eig(m: np.ndarray):
    """`psd_eig_stack` of one matrix: (nonzero eigenvalues, matching
    eigenvectors, rank)."""
    w, v, keep = psd_eig_stack(np.asarray(m, dtype=float)[None])
    keep = keep[0]
    return w[0, keep], v[0][:, keep], int(np.count_nonzero(keep))


def pinv_psd_stack(mats: np.ndarray, eig=None) -> np.ndarray:
    """`pinv_psd` of a (B, m, m) stack from its `psd_eig_stack` (w, v, keep),
    or from `eig` when the caller has it: v diag(1/w) v^T over the kept
    columns, each slice equal to `pinv_psd` bit for bit (the masked columns
    add exact zeros in front of the kept ones)."""
    w, v, keep = psd_eig_stack(mats) if eig is None else eig
    vw = np.divide(v, w[:, None, :], out=np.zeros_like(v), where=keep[:, None, :])
    return symmetrize(vw @ v.swapaxes(-1, -2))


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


def pinv_psd(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix via eigh."""
    w, v, _ = psd_eig(m)
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


def mahalanobis_sq(chol: np.ndarray, z: np.ndarray, z_hat: np.ndarray) -> np.ndarray:
    """Squared whitened norms |L^-1 d|^2 of residuals d = z - z_hat against
    lower Cholesky factors L.

    chol is (..., m, m) and z, z_hat (..., m), m >= 1; the leading axes of
    all three broadcast. Forward substitution, y_k = (d_k - sum_{j<k} L_kj
    y_j) / L_kk in j order, then the squares summed in k order, all
    elementwise: a residual's distance has the same bits in any batch,
    unlike a LAPACK solve, which rounds differently at other sizes. Each
    d_k is taken as one (...) array, never the (..., m) stack of residuals,
    whose broadcast subtraction costs more than the whitening.
    """
    ys = []
    for k in range(z.shape[-1]):
        acc = z[..., k] - z_hat[..., k]
        for j, y in enumerate(ys):
            acc = acc - chol[..., k, j] * y
        ys.append(acc / chol[..., k, k])
    out = ys[0] * ys[0]
    for y in ys[1:]:
        out = out + y * y
    return out


def inv_spd(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix (or a stack) via Cholesky."""
    c = cholesky(m, what)
    ci = np.linalg.solve(c, np.eye(m.shape[-1]))
    return symmetrize(ci.swapaxes(-1, -2) @ ci)


def sym_sqrt_and_invsqrt(m: np.ndarray):
    """Symmetric square root and inverse square root of an SPD matrix.

    m may be a (..., n, n) stack, each slice computed as on its own.
    Eigenvalues are clamped at 1e-14 before the inverse root so that a
    barely-PD input yields a deterministic, symmetric result.
    """
    w, v = np.linalg.eigh(symmetrize(m))
    if np.any(np.max(w, axis=-1) <= 0):
        raise NumericsError("matrix has no positive eigenvalues")
    root = np.sqrt(np.maximum(w, 1e-14))[..., None, :]
    vt = v.swapaxes(-1, -2)
    return symmetrize((v * root) @ vt), symmetrize((v / root) @ vt)


def ranks_by_sv(a: np.ndarray) -> np.ndarray:
    """Rank of each slice of a (B, m, n) stack: its singular values above
    SINGULAR_RTOL times the largest."""
    if 0 in a.shape[1:]:
        return np.zeros(a.shape[0], dtype=int)
    sv = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(sv > SINGULAR_RTOL * sv[:, :1], axis=1)
