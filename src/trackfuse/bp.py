"""Scalable BP-based multisensor association and fusion.

Each scan is processed sensor by sensor: measurement evaluation builds the
target->association factors (beta) and the newborn factors (xi), a fixed
number of message-passing iterations produces the association products
kappa and iota, and the particle beliefs are reweighted, normalized and
augmented with one potential newborn per measurement.

Beliefs live in blocks: particles (B, Np, n) and weights (B, Np) for
consecutive beliefs with equal particle counts. A belief that this module
builds is a row view of its blocks and records the block and row of its
particles and of its weights; the per-row outputs of the stages (detection
probabilities, birth clouds and likelihoods, posteriors) are `_Rows`,
which record the same for their rows.

Every stage walks the same partition of its belief list into stage blocks
(`_blocks`): the runs of equal particle counts (`_runs`), cut into pieces
of at most BLOCK_PARTICLES particles (a larger belief is a piece of its
own). Pieces keep the belief order, so random draws stay in belief order
and the partition never changes a number. A stage passes any sequence of
rows to `_block_rows` (the records are looked up in `_records` alone): it
returns a slice of the stored block when the piece's rows are consecutive
rows of one block, and a stack of the rows otherwise.

When blocks are built and which rows a step rewrites:
- Prediction writes new particle and weight blocks per stage block (the
  process noise is drawn once per block).
- Births draw each measurement's cloud into one (M, Np, n) block.
- Measurement evaluation projects a block's particles into measurement
  space once, z = H x. The gate takes each belief's weighted mean and
  covariance of z and one stacked eigendecomposition of the innovation
  covariances; the likelihood of every gated (belief, measurement) pair
  reads the same z (a triangular solve for raw payloads, through LAPACK
  `dtrtrs` on Fortran-ordered residuals, an eigen projection for
  transformed ones). The detection probabilities are one (B, Np) block
  per block, handed to the update through `AssociationMessages`.
- The update forms kappa(0) (1 - p_d) per block and adds the gated
  (tau, i) terms of `q_cache` in its order, into one (B, Np) block of
  unnormalized posteriors per block.
- Belief calculation writes one output block per step: the updated
  survivors, then the newborns, go into one new (N+M, Np, n) particle
  block and one (N+M, Np) weight block (one of each per run of equal
  particle counts). Weights are normalized into their rows, particles are
  copied into theirs, and a resampled row is written from its indices.
  Every stage of the next sensor step reads slices of these two arrays.
- After pruning, the survivors of a run that lost rows move to a new
  block (`_compact`), so the scan's result holds no pruned rows.
The detection and posterior blocks are dropped when the step is done with
them, and a superseded block goes with the last belief that views it.
Stacking still runs for beliefs built outside this module, for lists that
were pruned or reordered outside the pipeline, and in `_compact`.

The cap bounds the temporaries of a stage, which grow with its stage
block (the projections, gated likelihoods, detection and posterior
blocks); the stored blocks hold a whole step whatever the cap. It is the
smallest power of two at which a typical scenario-2 step is one stage
block: at Np = 500 a block holds 65 beliefs, and a step carries 54 on
average (p50 51, p95 110, max 136). Measured on the `s2-bp` benchmark
workload (2-core VM, one BLAS thread), the CPU time of both arms' fusion
on tape 0 read 10.9 / 10.4 / 10.1 / 9.9 s at caps 16384 / 32768 / 65536
/ none (medians of four; 11.9 s with copy-on-write blocks at 8192), and
the benchmark's peak RSS 109.0 / 109.5 / 110.0-111.9 / 110.4-110.8 MB
(103.1-103.5 MB before). Past 32768 the time gain is inside the noise
while the peak keeps rising, and an unbounded block would let the
temporaries grow with the whole belief list.

Stacked moments and dot products go through batched `@`, whose per-slice
BLAS calls are those of the per-belief form (einsum would reorder the
sums); the scenario-2 BP traces and curves equal those of the per-belief
form bit for bit.

The association messages have a two-value structure (a measurement-to-target
message takes one value at "assigned to me" and a common value everywhere
else), so the recursions are run on (eq, neq) pairs; the full vectors are
reconstructable for inspection. Messages are renormalized by their maximum
entry every iteration, a global scale that cancels in the belief updates.

The r = 0 component of a belief is carried as the scalar 1 - r_prob; the
dummy pdf for nonexistent newborns integrates to one and never needs
particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DegenerateBeliefError, InputError, NumericsError
from .linalg import chi2_gate, psd_quadforms, symmetrize
from .models import POS_DIM, MeasurementBatch, MotionModel
from .transform import LOG_2PI, ClutterModel

# Most particles in one stage block (see the module docstring).
BLOCK_PARTICLES = 32768


@dataclass
class ParticleBelief:
    """Weighted particle set for one potential target.

    Weights sum to the existence probability r_prob; the complementary
    1 - r_prob mass is implicit. A belief built by this module records
    where its arrays live: `_prow` and `_wrow` are the (block, row) of
    its particles and weights, None for arrays of its own.
    """

    particles: np.ndarray
    weights: np.ndarray
    r_prob: float
    label: object
    missed_scans: int = 0

    _prow = None
    _wrow = None

    def __post_init__(self):
        self.particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.weights.size != self.particles.shape[0]:
            raise InputError("weights do not match particle count")

    @classmethod
    def _trusted(cls, particles: np.ndarray, weights: np.ndarray,
                 r_prob: float, label: object, missed_scans: int = 0,
                 prow=None, wrow=None):
        """A belief from arrays this module built: (Np, n) float particles
        and (Np,) float weights, taken without validation or copy, with the
        (block, row) records of both."""
        b = cls.__new__(cls)
        b.particles, b.weights, b.r_prob = particles, weights, r_prob
        b.label, b.missed_scans = label, missed_scans
        b._prow, b._wrow = prow, wrow
        return b

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    def mean(self) -> np.ndarray:
        total = float(np.sum(self.weights))
        if total <= 0:
            return self.particles.mean(axis=0)
        return (self.weights @ self.particles) / total


@dataclass
class BpConfig:
    iterations: int = 10
    n_particles: int = 1000
    declare_threshold: float = 0.7
    prune_threshold: float = 1e-6
    max_missed_scans: int = 3
    birth_rate: float = 0.1
    survival_prob: float = 0.999
    vel_prior_std: float = 10.0
    birth_cov_inflation: float = 4.0
    gate_prob: float = 1.0 - 1e-6
    resample_ess_frac: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.prune_threshold < self.declare_threshold < 1.0):
            raise InputError("need 0 < P_pr < P_th < 1")
        if self.iterations < 1:
            raise InputError("need at least one message-passing iteration")


@dataclass
class BpSensorInput:
    """One sensor's payload plus its detection/clutter context."""

    batch: MeasurementBatch
    p_d: float
    clutter: ClutterModel
    detect_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def detection_probs(self, positions: np.ndarray) -> np.ndarray:
        if self.detect_fn is None:
            return np.full(positions.shape[0], self.p_d)
        return self.detect_fn(positions)


@dataclass
class AssociationMessages:
    """Factors and messages for one sensor step.

    beta is (N, M+1) over a in {0..M}; xi is (M, N+1) over b in {0..N}.
    nu_eq/nu_neq are (M, N): the measurement->target message at a = i and at
    every other a. phi_eq/phi_neq are (N, M) analogously over b. kappa and
    iota are the final products, normalized per row. p_detect[tau] holds
    the detection probabilities at belief tau's particles, computed once by
    measurement evaluation and reused by the update; measurement evaluation
    returns it as `_Rows` of its detection blocks.
    """

    beta: np.ndarray
    xi: np.ndarray
    nu_eq: Optional[np.ndarray] = None
    nu_neq: Optional[np.ndarray] = None
    phi_eq: Optional[np.ndarray] = None
    phi_neq: Optional[np.ndarray] = None
    kappa: Optional[np.ndarray] = None
    iota: Optional[np.ndarray] = None
    p_detect: Optional[list] = None

    def nu_vector(self, i: int, tau: int) -> np.ndarray:
        m = self.beta.shape[1] - 1
        vec = np.full(m + 1, self.nu_neq[i, tau])
        vec[i + 1] = self.nu_eq[i, tau]
        return vec


class _BatchLikelihood:
    """Vectorized per-particle measurement log-likelihoods for one batch,
    from the batch's factor (Cholesky for raw payloads, nonzero eigenpairs
    for transformed ones)."""

    def __init__(self, batch: MeasurementBatch):
        self.batch = batch
        self.H = batch.H
        f = batch.factor
        self._chol, self._w, self._v = f.chol, f.w, f.v
        self._rank, self._logdet = f.rank, f.logdet

    @property
    def dof(self) -> int:
        return self._rank

    def predict(self, particles: np.ndarray) -> np.ndarray:
        """(m, Np) predicted measurements of the particles, one per column.

        Arrays over particles are kept particle-last so that elementwise
        work runs along the long axis.
        """
        return self.H @ particles.T

    def loglik(self, zs: np.ndarray, z_pred: np.ndarray) -> np.ndarray:
        """(G, Np) log-likelihoods of the measurements zs (G, m).

        z_pred holds the predicted measurements, either (m, Np) for every
        row of zs or (m, G, Np) with one set per row; row g of the result
        holds the log-likelihood of zs[g] at each of its predictions.
        """
        m, n_pred = self.H.shape[0], z_pred.shape[-1]
        z_pred = z_pred.reshape(m, -1, n_pred)
        if self.batch.transformed:
            diffs = (zs.T[:, :, None] - z_pred).reshape(m, -1)
            proj = self._v.T @ diffs
            quad = np.sum(proj * proj / self._w[:, None], axis=0)
        else:
            y = self._whiten(zs, z_pred)
            quad = np.sum(y * y, axis=0)
        ll = -0.5 * (self._rank * LOG_2PI + self._logdet + quad)
        return ll.reshape(zs.shape[0], n_pred)

    def _whiten(self, zs: np.ndarray, z_pred: np.ndarray) -> np.ndarray:
        """L^-1 (z - z_pred) for the raw Cholesky factor L, as an (m, G Np)
        Fortran-ordered array.

        The residuals are written in Fortran order and solved in place by
        LAPACK `dtrtrs`, the routine and argument layout that
        `scipy.linalg.solve_triangular` uses, so the result is the same to
        the bit without its argument handling.
        """
        m, n_pred = z_pred.shape[0], z_pred.shape[-1]
        store = np.empty((zs.shape[0], n_pred, m))
        np.subtract(zs.T[:, :, None], z_pred, out=store.transpose(2, 0, 1))
        diffs = store.reshape(-1, m).T
        chol = self._chol
        if chol.flags.f_contiguous:
            y, info = dtrtrs(chol, diffs, lower=1, overwrite_b=1)
        else:
            # the transposed system, as solve_triangular passes a C-ordered factor
            y, info = dtrtrs(chol.T, diffs, lower=0, trans=1, overwrite_b=1)
        if info != 0:
            raise NumericsError(f"triangular solve failed (LAPACK info {info})")
        return y


class _Rows(list):
    """Row arrays (or tuples led by one), with `at[t]` the (block, row) that
    entry t views, or None for an array of its own."""

    def __init__(self, rows=(), at=None):
        super().__init__(rows)
        self.at = [None] * len(self) if at is None else at

    def add_block(self, block: np.ndarray, rest=None):
        """Append the rows of a (B, ...) block, each paired with the entry of
        `rest` when given."""
        self.extend(block if rest is None else zip(block, rest))
        self.at.extend((block, k) for k in range(len(block)))


def _records(rows: Sequence) -> Sequence:
    """The (block, row) records of `_Rows`; None for each entry of any other
    sequence, whose arrays view no stored block."""
    at = getattr(rows, "at", None)
    return [None] * len(rows) if at is None else at


def _block_rows(rows: Sequence, blk: range, lead: bool = False):
    """The arrays rows[t], t in blk, as one (len(blk), ...) array, and
    whether that array is new. With `lead`, the entries are tuples and
    their first arrays are taken.

    When the rows of blk are consecutive rows of one stored block (see
    `_Rows`), the result is a slice of that block; otherwise the rows are
    stacked (see the module docstring).
    """
    at = _records(rows)
    first = at[blk.start]
    if first is not None:
        block, row = first
        for t in blk:
            rec = at[t]
            if rec is None or rec[0] is not block or rec[1] != row + t - blk.start:
                break
        else:
            return block[row:row + len(blk)], False
    if lead:
        return np.stack([rows[t][0] for t in blk]), True
    return np.stack([rows[t] for t in blk]), True


def _runs(counts: Sequence[int]):
    """Index ranges of the maximal runs of consecutive beliefs with equal
    particle counts."""
    start = 0
    for end in range(1, len(counts) + 1):
        if end == len(counts) or counts[end] != counts[start]:
            yield range(start, end)
            start = end


def _blocks(counts: Sequence[int]):
    """Index ranges of the stage blocks over beliefs with these particle
    counts: each run of equal counts cut into pieces of at most
    BLOCK_PARTICLES particles (and at least one belief)."""
    for run in _runs(counts):
        count = counts[run.start]
        size = max(1, BLOCK_PARTICLES // count) if count else len(run)
        for start in range(run.start, run.stop, size):
            yield range(start, min(start + size, run.stop))


def _stored(beliefs: Sequence[ParticleBelief]):
    """(particle rows, weight rows) of the beliefs, as `_Rows`."""
    return (_Rows([b.particles for b in beliefs], [b._prow for b in beliefs]),
            _Rows([b.weights for b in beliefs], [b._wrow for b in beliefs]))


def bp_predict(beliefs: Sequence[ParticleBelief], motion: MotionModel,
               survival_prob: float, rng: np.random.Generator):
    """Propagate particles through the motion model and decay existence.

    The process noise is drawn once per block, the same stream as one draw
    per belief. The predicted beliefs are rows of new particle and weight
    blocks.
    """
    w, v = np.linalg.eigh(motion.Q)
    sqrt_q = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    prows, wrows = _stored(beliefs)
    out = []
    for blk in _blocks([p.shape[0] for p in prows]):
        parts, _ = _block_rows(prows, blk)
        noise = rng.standard_normal(parts.shape) @ sqrt_q.T
        particles = parts @ motion.F.T + noise
        weights = _block_rows(wrows, blk)[0] * survival_prob
        for k, t in enumerate(blk):
            b = beliefs[t]
            out.append(ParticleBelief._trusted(
                particles[k], weights[k], b.r_prob * survival_prob, b.label,
                b.missed_scans, (particles, k), (weights, k)))
    return out


def propose_births(inp: BpSensorInput, cfg: BpConfig, state_dim: int,
                   rng: np.random.Generator):
    """Measurement-driven birth particle clouds, one per measurement: the
    `_Rows` of one (M, Np, n) block.

    Positions are drawn around the WLS backprojection of the measurement
    with the backprojection covariance inflated by cfg.birth_cov_inflation;
    velocities from a zero-mean prior. The same cloud doubles as the birth
    pdf, so downstream importance ratios reduce to the likelihood.
    """
    batch = inp.batch
    h = batch.H
    r_dag, info_pinv = batch.factor.r_dag, batch.factor.info_pinv
    pos_cov = cfg.birth_cov_inflation * info_pinv[:POS_DIM, :POS_DIM]
    try:
        c_pos = np.linalg.cholesky(symmetrize(pos_cov))
    except np.linalg.LinAlgError as exc:
        raise DegenerateBeliefError("birth position covariance not PD") from exc
    n_vel = min(2, state_dim - POS_DIM)
    clouds = np.zeros((batch.n_meas, cfg.n_particles, state_dim))
    for z, particles in zip(batch.zs, clouds):
        x0 = info_pinv @ (h.T @ (r_dag @ z))
        particles[:, :POS_DIM] = (x0[:POS_DIM]
                                  + rng.standard_normal((cfg.n_particles, POS_DIM))
                                  @ c_pos.T)
        if n_vel > 0:
            particles[:, POS_DIM:POS_DIM + n_vel] = (
                cfg.vel_prior_std * rng.standard_normal((cfg.n_particles, n_vel)))
    out = _Rows()
    out.add_block(clouds)
    return out


def measurement_evaluation(beliefs: Sequence[ParticleBelief],
                           inp: BpSensorInput, cfg: BpConfig,
                           birth_clouds: Sequence[np.ndarray]):
    """Factors beta (survived) and xi (newborn) for one sensor.

    Returns (messages, q_cache, birth_liks): q_cache[(tau, i)] holds the
    per-particle detection-weighted likelihood ratio for gated pairs,
    birth_liks[i] the per-particle likelihood of measurement i under its
    birth cloud.
    """
    batch = inp.batch
    n, m = len(beliefs), batch.n_meas
    if any(b.n_particles == 0 for b in beliefs):
        raise InputError("belief without particles")
    lik = _BatchLikelihood(batch)
    log_clutter_intensity = math.log(inp.clutter.rate) + inp.clutter.log_density
    gamma_gate = chi2_gate(cfg.gate_prob, lik.dof) if m else None

    beta = np.zeros((n, m + 1))
    p_detect = _Rows()
    q_cache = {}
    prows, wrows = _stored(beliefs)
    for blk in _blocks([p.shape[0] for p in prows]):
        particles, _ = _block_rows(prows, blk)
        weights, _ = _block_rows(wrows, blk)
        pd_x = inp.detection_probs(
            particles[:, :, :POS_DIM].reshape(-1, POS_DIM)).reshape(weights.shape)
        p_detect.add_block(pd_x)
        r_prob = np.array([beliefs[t].r_prob for t in blk])
        beta[blk.start:blk.stop, 0] = _row_dots(weights, 1.0 - pd_x) + (1.0 - r_prob)
        if not m:
            continue
        z_pred = lik.predict(particles.reshape(-1, particles.shape[2]))
        z_pred = z_pred.reshape(z_pred.shape[0], len(blk), -1)
        rows, cols = np.nonzero(_gate(z_pred, weights, batch, gamma_gate))
        if not rows.size:
            continue
        ll = lik.loglik(batch.zs[cols], z_pred[:, rows])
        q = pd_x[rows] * np.exp(ll - log_clutter_intensity)
        taus = blk.start + rows
        beta[taus, cols + 1] = _row_dots(weights[rows], q)
        q_cache.update(zip(zip(taus.tolist(), cols.tolist()), q))

    xi = np.ones((m, n + 1))
    birth_liks = _Rows()
    if m:
        # measurement i against its own birth cloud: (dim, M, Np) predictions
        clouds, _ = _block_rows(birth_clouds, range(m))
        birth_pred = lik.predict(clouds.reshape(-1, clouds.shape[-1]))
        lks = np.exp(lik.loglik(batch.zs, birth_pred.reshape(birth_pred.shape[0], m, -1)))
        birth_liks.add_block(lks)
        for i, lk in enumerate(lks):
            ratio = cfg.birth_rate * float(np.mean(lk)) * math.exp(-log_clutter_intensity)
            xi[i, 0] = 1.0 + ratio
    return AssociationMessages(beta, xi, p_detect=p_detect), q_cache, birth_liks


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B,) dot products of the rows of two (B, Np) arrays, each one BLAS dot
    as for a single pair of vectors."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _gate(z_pred: np.ndarray, weights: np.ndarray, batch: MeasurementBatch,
          gamma_gate: float) -> np.ndarray:
    """(B, M) mask of the measurements inside each stacked belief's gate.

    z_pred (m, B, Np) holds the particles' predicted measurements. Each
    belief is summarized by their weighted mean and covariance; the
    innovation covariances of the block go through one stacked
    pseudoinverse quadratic form. Beliefs without weight mass gate nothing.
    """
    total = weights.sum(axis=1)
    live = total > 0
    total = np.where(live, total, 1.0)[:, None]
    z = z_pred.transpose(1, 0, 2)
    z_hat = (z @ weights[:, :, None])[..., 0] / total
    centred = z - z_hat[:, :, None]
    cov = (centred * weights[:, None, :]) @ centred.transpose(0, 2, 1) / total[:, :, None]
    d2 = psd_quadforms(cov + batch.R, batch.zs[None, :, :] - z_hat[:, None, :])
    return (d2 <= gamma_gate) & live[:, None]


def iterative_association(msgs: AssociationMessages, iterations: int):
    """Run the nu/phi recursions and form the products kappa and iota.

    The initial target->measurement message is the beta sum with the
    matching entry excluded (the p = 0 message of the recursion). The final
    phi is computed from the last nu so the iota product is well defined.
    """
    beta, xi = msgs.beta, msgs.xi
    n, m = beta.shape[0], beta.shape[1] - 1

    if n > 0 and m > 0:
        beta_sum = beta.sum(axis=1)
        phi_eq = beta[:, 1:].copy()
        phi_neq = beta_sum[:, None] - phi_eq
        mx = np.maximum(phi_eq, phi_neq)
        _check_messages(mx)
        phi_eq, phi_neq = phi_eq / mx, phi_neq / mx
        nu_eq = np.ones((m, n))
        nu_neq = np.ones((m, n))
        for _ in range(iterations):
            ratio_phi = (phi_eq / phi_neq).T          # (M, N)
            t_i = ratio_phi.sum(axis=1, keepdims=True)
            nu_neq = xi[:, :1] + t_i - ratio_phi
            # the message at a = i is one before scaling, so the scale is
            # at least one and only a non-finite value can degenerate
            mx = np.maximum(nu_neq, 1.0)
            if not mx.max() < np.inf:
                raise DegenerateBeliefError("association message vector degenerated")
            nu_eq, nu_neq = 1.0 / mx, nu_neq / mx

            ratio_nu = (nu_eq / nu_neq).T             # (N, M)
            weighted = beta[:, 1:] * ratio_nu
            s_tau = weighted.sum(axis=1, keepdims=True)
            phi_eq = beta[:, 1:].copy()
            phi_neq = beta[:, :1] + s_tau - weighted
            mx = np.maximum(phi_eq, phi_neq)
            _check_messages(mx)
            phi_eq, phi_neq = phi_eq / mx, phi_neq / mx
        msgs.nu_eq, msgs.nu_neq = nu_eq, nu_neq
        msgs.phi_eq, msgs.phi_neq = phi_eq, phi_neq

        # phi_eq is exactly zero for hard-gated pairs; log(0) = -inf gives
        # the intended zero product entry after exponentiation.
        with np.errstate(divide="ignore"):
            log_nu_eq = np.log(nu_eq)
            log_nu_neq = np.log(nu_neq)
            log_phi_eq = np.log(phi_eq)
            log_phi_neq = np.log(phi_neq)
        log_k0 = log_nu_neq.sum(axis=0)               # (N,)
        kappa = np.empty((n, m + 1))
        kappa[:, 0] = log_k0
        kappa[:, 1:] = (log_k0[:, None] - log_nu_neq.T + log_nu_eq.T)
        kappa = np.exp(kappa - kappa.max(axis=1, keepdims=True))

        log_i0 = log_phi_neq.sum(axis=0)              # (M,)
        iota = np.empty((m, n + 1))
        iota[:, 0] = log_i0
        iota[:, 1:] = (log_i0[:, None] - log_phi_neq.T + log_phi_eq.T)
        iota = np.exp(iota - iota.max(axis=1, keepdims=True))
    else:
        # No targets or no measurements: the products reduce to empty
        # products, kappa(0) = 1 and iota(b) = 1.
        kappa = np.zeros((n, m + 1))
        if n:
            kappa[:, 0] = 1.0
        iota = np.ones((m, n + 1))

    msgs.kappa, msgs.iota = kappa, iota
    return kappa, iota


def _finite_positive(arr: np.ndarray) -> bool:
    """Whether every entry is finite and positive (a NaN fails both
    comparisons)."""
    return arr.min() > 0.0 and arr.max() < np.inf


def _check_messages(arr: np.ndarray):
    if not _finite_positive(arr):
        raise DegenerateBeliefError("association message vector degenerated")


def measurement_update(beliefs: Sequence[ParticleBelief],
                       msgs: AssociationMessages, q_cache: dict,
                       birth_liks: Sequence[np.ndarray],
                       inp: BpSensorInput, cfg: BpConfig):
    """Unnormalized posteriors for survived targets and newborns.

    msgs must come from `measurement_evaluation` of the same beliefs: the
    detection probabilities are taken from msgs.p_detect. Only the gated
    pairs of q_cache are visited. The survived posteriors are rows of one
    (B, Np) block per block of beliefs, the newborn ones rows of one (M, Np)
    block.
    """
    kappa, iota = msgs.kappa, msgs.iota
    batch = inp.batch
    log_clutter_intensity = math.log(inp.clutter.rate) + inp.clutter.log_density
    p_detect = msgs.p_detect
    if (p_detect is None or len(p_detect) != len(beliefs)
            or kappa.shape[0] != len(beliefs)):
        raise InputError("association messages do not come from these beliefs")

    survived_posts = _Rows()
    for blk in _blocks([b.n_particles for b in beliefs]):
        pd_x, _ = _block_rows(p_detect, blk)
        k0 = kappa[blk.start:blk.stop, 0]
        survived_posts.add_block(k0[:, None] * (1.0 - pd_x), k0)
    for (tau, i), q in q_cache.items():
        k = kappa[tau, i + 1]
        if k > 0:
            gamma = survived_posts[tau][0]
            gamma += k * q

    newborn_posts = _Rows()
    m = batch.n_meas
    if m:
        scale = cfg.birth_rate * math.exp(-log_clutter_intensity) / cfg.n_particles
        lks, _ = _block_rows(birth_liks, range(m))
        newborn_posts.add_block((iota[:, 0] * scale)[:, None] * lks,
                                [float(np.sum(row)) for row in iota])
    return survived_posts, newborn_posts


def _systematic_resample(weights: np.ndarray, n: int, u: float) -> np.ndarray:
    positions = (u + np.arange(n)) / n
    cumulative = weights.cumsum()
    cumulative[-1] = 1.0
    return cumulative.searchsorted(positions)


def _normalize(weights: np.ndarray, rest: np.ndarray, us: np.ndarray,
               cfg: BpConfig):
    """Normalize the rows of one block of unnormalized weights in place;
    pick the low-ESS rows to resample.

    Row k becomes weights[k] / c with c = sum(weights[k]) + rest[k]; it is
    resampled systematically with uniform us[k] when the effective sample
    size of its normalized weights is low, and its weights are then made
    uniform. Returns r per row (the total weight before any resampling,
    capped at one) and (row, particle indices) per resampled row.
    """
    c = weights.sum(axis=1) + rest
    if not _finite_positive(c):
        raise DegenerateBeliefError("belief normalization constant <= 0")
    weights /= c[:, None]
    r = weights.sum(axis=1)
    live = r > 0
    wn = weights / np.where(live, r, 1.0)[:, None]
    n = weights.shape[1]
    ess = np.divide(1.0, (wn * wn).sum(axis=1), out=np.full(r.shape, np.inf),
                    where=live)
    resampled = []
    r = r.tolist()
    for k in np.flatnonzero(ess < cfg.resample_ess_frac * n).tolist():
        resampled.append((k, _systematic_resample(wn[k], n, us[k])))
        weights[k] = r[k] / n
    return [min(r_k, 1.0) for r_k in r], resampled


def _output_blocks(rows: Sequence[np.ndarray]) -> list:
    """New blocks for these particle rows: one (R, Np, n) particle block and
    one (R, Np) weight block per run of R rows with equal particle counts.
    Entry t is (particle block, weight block, row) of row t."""
    out = []
    for run in _runs([p.shape[0] for p in rows]):
        particles = np.empty((len(run),) + rows[run.start].shape)
        weights = np.empty(particles.shape[:2])
        out.extend((particles, weights, k) for k in range(len(run)))
    return out


def _posteriors(prows, unnorm, rest: np.ndarray, us: np.ndarray,
                cfg: BpConfig, out: Sequence) -> list:
    """Normalize one list block by block into the rows of `out` (see
    `_output_blocks`); returns r per entry.

    unnorm(blk, dest) writes the block's unnormalized weights to dest, the
    block's weight rows. A block's particles are copied into their rows, a
    resampled row's from its indices.
    """
    r = []
    for blk in _blocks([p.shape[0] for p in prows]):
        sl = slice(blk.start, blk.stop)
        particles, weights, row = out[blk.start]
        dest = weights[row:row + len(blk)]
        unnorm(blk, dest)
        r_blk, resampled = _normalize(dest, rest[sl], us[sl], cfg)
        src, _ = _block_rows(prows, blk)
        particles[row:row + len(blk)] = src
        for k, idx in resampled:
            np.take(src[k], idx, axis=0, out=particles[row + k])
        r.extend(r_blk)
    return r


def belief_calculation(beliefs: Sequence[ParticleBelief], survived_posts,
                       newborn_posts, birth_clouds, labels, cfg: BpConfig,
                       rng: np.random.Generator):
    """Normalize posteriors into updated beliefs; resample when ESS is low.

    One resampling uniform is drawn per belief, survived beliefs first and
    newborns after, regardless of whether the resample triggers, so paired
    runs consume identical random streams. The updated beliefs, then the
    newborns, are rows of one new particle block and one new weight block
    (one of each per run of equal particle counts). Returns (updated
    survived beliefs, newborn beliefs).
    """
    prows, wrows = _stored(beliefs)
    n = len(beliefs)
    out = _output_blocks(list(prows) + list(birth_clouds))

    def survived(blk, dest):
        np.multiply(_block_rows(wrows, blk)[0],
                    _block_rows(survived_posts, blk, lead=True)[0], out=dest)

    def newborn(blk, dest):
        dest[...] = _block_rows(newborn_posts, blk, lead=True)[0]

    rest = (np.array([1.0 - b.r_prob for b in beliefs])
            * np.array([g0 for _, g0 in survived_posts]))
    r = _posteriors(prows, survived, rest, rng.random(n), cfg, out)
    updated = [ParticleBelief._trusted(p[k], w[k], r_t, b.label, b.missed_scans,
                                       (p, k), (w, k))
               for b, (p, w, k), r_t in zip(beliefs, out, r)]

    rest = np.array([denom for _, denom in newborn_posts])
    r = _posteriors(birth_clouds, newborn, rest, rng.random(len(newborn_posts)), cfg,
                    out[n:])
    born = [ParticleBelief._trusted(p[k], w[k], r_i, label, 0, (p, k), (w, k))
            for label, (p, w, k), r_i in zip(labels, out[n:], r)]
    return updated, born


def declare_estimate_prune(beliefs: Sequence[ParticleBelief], cfg: BpConfig):
    """MMSE estimates of declared targets; prune dead or stale beliefs."""
    estimates = []
    surviving = []
    for b in beliefs:
        if b.r_prob > cfg.declare_threshold:
            estimates.append((b.label, b.mean()))
        if b.r_prob >= cfg.prune_threshold and b.missed_scans <= cfg.max_missed_scans:
            surviving.append(b)
    return estimates, surviving


def _sensor_step(beliefs: list, inp: BpSensorInput, motion: MotionModel,
                 cfg: BpConfig, rng_for: Callable[[str, int], np.random.Generator],
                 l: int, scan: int, trace: Optional[list]):
    """One sensor's update; returns (updated, newborn, kappa).

    The per-particle terms of measurement evaluation (q_cache, detection
    probabilities, birth likelihoods) are released before belief
    calculation, the unnormalized posteriors right after it, so a step
    holds no more than one set of them.
    """
    clouds = propose_births(inp, cfg, motion.n, rng_for("birth", l))
    msgs, q_cache, birth_liks = measurement_evaluation(beliefs, inp, cfg, clouds)
    kappa, iota = iterative_association(msgs, cfg.iterations)
    survived_posts, newborn_posts = measurement_update(
        beliefs, msgs, q_cache, birth_liks, inp, cfg)
    beta, xi = msgs.beta, msgs.xi
    del msgs, q_cache, birth_liks  # not needed past the update
    labels = [(scan, inp.batch.sensor_id, i) for i in range(inp.batch.n_meas)]
    updated, newborn = belief_calculation(
        beliefs, survived_posts, newborn_posts, clouds, labels, cfg,
        rng_for("resample", l))
    del survived_posts, newborn_posts, clouds
    if trace is not None:
        trace.append({
            "sensor": inp.batch.sensor_id,
            "beta": beta.copy(),
            "xi": xi.copy(),
            "kappa": kappa.copy(),
            "iota": iota.copy(),
            "weights": [b.weights.copy() for b in updated + newborn],
            "r_prob": np.array([b.r_prob for b in updated + newborn]),
        })
    return updated, newborn, kappa


def bp_pipeline_step(beliefs: list, inputs: Sequence[BpSensorInput],
                     motion: MotionModel, cfg: BpConfig,
                     rng_for: Callable[[str, int], np.random.Generator],
                     scan: int = 0, trace: Optional[list] = None):
    """One scan: predict once, then process every sensor in order.

    rng_for(purpose, sensor) must return an independent deterministic
    stream; paired raw/transformed runs that share the factory consume
    identical draws. Returns (beliefs, estimates).
    """
    beliefs = bp_predict(beliefs, motion, cfg.survival_prob, rng_for("predict", -1))
    scan_support = [False] * len(beliefs)

    for l, inp in enumerate(sorted(inputs, key=lambda s: s.batch.sensor_id)):
        updated, newborn, kappa = _sensor_step(beliefs, inp, motion, cfg,
                                               rng_for, l, scan, trace)
        if kappa.shape[1] > 1:
            for tau in np.flatnonzero(kappa[:, 1:].sum(axis=1) >= 0.5 * kappa[:, 0]):
                scan_support[tau] = True
        beliefs = updated + newborn
        scan_support.extend([True] * len(newborn))

    for b, supported in zip(beliefs, scan_support):
        b.missed_scans = 0 if supported else b.missed_scans + 1
    estimates, beliefs = declare_estimate_prune(beliefs, cfg)
    return _compact(beliefs), estimates


def _compact(beliefs: Sequence[ParticleBelief]):
    """The beliefs on blocks that hold no other rows.

    Pruning leaves rows of dropped beliefs in the survivors' blocks, which
    the caller would keep alive until the next scan's prediction replaces
    them. The survivors of a run of equal particle counts are moved to a
    new block unless they fill one stored block.
    """
    prows, wrows = _stored(beliefs)
    out = []
    for run in _runs([p.shape[0] for p in prows]):
        parts = _whole_rows(prows, run)
        weights = _whole_rows(wrows, run)
        for k, t in enumerate(run):
            b = beliefs[t]
            out.append(ParticleBelief._trusted(
                parts[k], weights[k], b.r_prob, b.label, b.missed_scans,
                (parts, k), (weights, k)))
    return out


def _whole_rows(rows, blk: range) -> np.ndarray:
    """`_block_rows` of blk, copied unless it is a whole stored block."""
    block, fresh = _block_rows(rows, blk)
    return (block if fresh or len(blk) == len(_records(rows)[blk.start][0])
            else block.copy())
