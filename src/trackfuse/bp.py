"""Scalable BP-based multisensor association and fusion.

Each scan is processed sensor by sensor: measurement evaluation builds the
target->association factors (beta) and the newborn factors (xi), ITERATIONS
message-passing iterations produce the association products
kappa and iota, and the particle beliefs are reweighted, normalized and
augmented with one potential newborn per measurement.

The beliefs of a scan are one struct of arrays, `Beliefs`: particles
(N, Np, n), weights (N, Np), existence probabilities and missed-scan counts
(N,) each, and a list of labels. Every belief has cfg.n_particles
particles: births draw that many, and prediction and resampling keep the
count. The stages that take the config reject other counts before any
work. Every stage walks the rows in stage blocks, the slices of at most
BLOCK_PARTICLES particles and at least one belief (`_blocks`). Random draws
stay in belief order, so the partition never changes a number.

A scan runs in one buffer of N + sum(M_l) rows (particles, weights, r,
missed and labels), allocated after the scan's size is checked against
MAX_STEP_PARTICLES and before any draw: the predicted beliefs, then each
sensor's newborns after the rows of the steps before it. Every stage
writes its rows of it; the caller's beliefs are only read.

Per sensor step:
- Prediction (once per scan) writes the predicted particles and weights
  into the buffer's first rows, drawing the process noise once per block.
- Births draw each measurement's cloud into the rows after the step's
  beliefs.
- Measurement evaluation projects a block's particles into measurement
  space once, z = H x. The gate takes each belief's weighted mean and
  covariance of z and one stacked eigendecomposition of the innovation
  covariances; the likelihood of every gated (belief, measurement) pair
  reads the same z through the batch factor's noise likelihood
  (`models.PayloadFactor.loglik`: one right-side BLAS `dtrsm` on raw
  residuals, an eigen projection for transformed ones). The detection
  probabilities are one (N, Np) array, handed to the update through
  `AssociationMessages`.
- The update forms kappa(0) (1 - p_d) and adds the gated (tau, i) terms of
  `q_cache` in its order, into one (N, Np) array of unnormalized
  posteriors; the newborns' are one (M, Np) array.
- Belief calculation multiplies the survivors' weights by their
  posteriors and normalizes them in place, block by block, then writes
  the newborns' posteriors into their rows and normalizes those in place.
  Only a resampled row's particles are rewritten, gathered from its
  indices into a temporary first.
- After the last sensor, pruning keeps the surviving rows by a mask; the
  copy holds no pruned rows, and the buffer is released with it.

The cap bounds the temporaries of a stage, which grow with its stage block
(the projections and gated likelihoods); the scan buffer holds all its
beliefs whatever the cap. It is the smallest power of two at which a
typical scenario-2 step is one stage block: at Np = 500 a block holds 65
beliefs, and a step carries 54 on average (p50 51, p95 110, max 136).
Measured on the `s2-bp` benchmark workload (2-core VM, one BLAS thread)
with per-step belief arrays, before the scan buffer, the CPU time of both
arms' fusion on tape 0 read 10.9 / 10.4 / 10.1 / 9.9 s at caps 16384 /
32768 / 65536 / none (medians of four; 11.9 s with copy-on-write blocks at
8192), and the benchmark's peak RSS 109.0 / 109.5 / 110.0-111.9 /
110.4-110.8 MB (103.1-103.5 MB before). Past 32768 the time
gain is inside the noise while the peak keeps rising, and an unbounded
block would let the temporaries grow with the whole belief set.

Stacked moments and dot products go through batched `@`, whose per-slice
BLAS calls are those of the per-belief form (einsum would reorder the
sums); the scenario-2 BP traces and curves equal those of the per-belief
form bit for bit.

The association messages have a two-value structure (a measurement-to-target
message takes one value at "assigned to me" and a common value everywhere
else), so the recursions are run on (eq, neq) pairs; the full vectors are
reconstructable for inspection. Messages are renormalized by their maximum
entry every iteration, a global scale that cancels in the belief updates.

The r = 0 component of a belief is carried as the scalar 1 - r; the dummy
pdf for nonexistent newborns integrates to one and never needs particles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateBeliefError, InputError, ResourceLimitError, require_count
from .linalg import chi2_gate, psd_quadforms, symmetrize
from .models import POS_DIM, MeasurementBatch, MotionModel
from .transform import SensorInput

# Most particles in one stage block (see the module docstring).
BLOCK_PARTICLES = 32768
# Most particles per belief. A scan's input beliefs and its buffer together
# hold up to 2 x 136 beliefs (the most a scenario-2 step carried) x Np x
# 40 B: about 0.54 GB at this cap.
MAX_PARTICLES = 50_000
# Most particles one scan buffer may hold, (beliefs + every sensor's
# measurements) x Np, which is its last sensor step's size: the scenario-2
# step above at MAX_PARTICLES. A larger scan (a clutter rate near its cap
# with many particles) raises before its buffer is allocated or any draw is
# made. It is checked at each scan, not before a run: a scan's measurements
# are the tracks the local trackers transmit, and its beliefs are the last
# scan's survivors, so both counts follow the local trackers' confirmed
# tracks. Those grow with the Poisson clutter draws, which no scenario-file
# number bounds, and a scan under the cap on one tape can exceed it on
# another.
MAX_STEP_PARTICLES = 136 * MAX_PARTICLES
# The filter's fixed settings, as in the paper's numerical examples.
ITERATIONS = 10  # message-passing iterations per sensor step
DECLARE_THRESHOLD = 0.7  # existence probability above which a belief is declared
MAX_MISSED_SCANS = 3  # a belief is pruned after more scans without support
BIRTH_RATE = 0.1  # Poisson mean of the newborns per sensor step
VEL_PRIOR_STD = 10.0  # newborns' velocity prior standard deviation (m/s)
BIRTH_COV_INFLATION = 4.0  # of the backprojection covariance births are drawn from
GATE_PROB = 1.0 - 1e-6  # of the (belief, measurement) gate
RESAMPLE_ESS_FRAC = 0.5  # a belief is resampled when its ESS falls below this x Np


@dataclass
class Beliefs:
    """The potential targets of one scan as one struct of arrays.

    Row t is one belief: particles[t] (Np, n) with weights[t] (Np,) summing
    to its existence probability r[t] (the complementary 1 - r[t] mass is
    implicit), missed[t] scans without support, and labels[t].
    """

    particles: np.ndarray
    weights: np.ndarray
    r: np.ndarray
    missed: np.ndarray
    labels: list

    def __post_init__(self):
        self.particles = np.asarray(self.particles, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        self.missed = np.asarray(self.missed, dtype=int)
        self.labels = list(self.labels)
        n = len(self.labels)
        if (self.particles.ndim != 3 or self.weights.shape != self.particles.shape[:2]
                or len(self.weights) != n or self.r.shape != (n,)
                or self.missed.shape != (n,)):
            raise InputError(f"belief arrays do not match {n} labels: particles "
                             f"{self.particles.shape}, weights {self.weights.shape}, "
                             f"r {self.r.shape}, missed {self.missed.shape}")
        if not self.particles.shape[1]:
            raise InputError("beliefs without particles")

    @classmethod
    def empty(cls, n_particles: int, state_dim: int) -> "Beliefs":
        return cls(np.empty((0, n_particles, state_dim)), np.empty((0, n_particles)),
                   np.empty(0), np.empty(0, dtype=int), [])

    @property
    def n_particles(self) -> int:
        return self.weights.shape[1]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> "Beliefs":
        """The beliefs at `rows`: a slice (views), or an index array or a
        boolean mask (copies)."""
        kept = np.arange(len(self))[rows]
        return Beliefs(self.particles[rows], self.weights[rows], self.r[rows],
                       self.missed[rows], [self.labels[t] for t in kept])


@dataclass
class BpConfig:
    n_particles: int = 1000
    prune_threshold: float = 1e-6
    survival_prob: float = 0.999

    def __post_init__(self):
        if not 0.0 < self.prune_threshold < DECLARE_THRESHOLD:
            raise InputError(f"need 0 < prune_threshold < {DECLARE_THRESHOLD}")
        require_count(self.n_particles, "particle count")
        if self.n_particles > MAX_PARTICLES:
            raise InputError(f"need at most {MAX_PARTICLES} particles, got {self.n_particles}")
        if not 0.0 < self.survival_prob <= 1.0:
            raise InputError("need 0 < survival_prob <= 1")


@dataclass
class AssociationMessages:
    """Factors and messages for one sensor step.

    beta is (N, M+1) over a in {0..M}; xi is (M, N+1) over b in {0..N}.
    nu_eq/nu_neq are (M, N): the measurement->target message at a = i and at
    every other a. phi_eq/phi_neq are (N, M) analogously over b. kappa and
    iota are the final products, normalized per row. p_detect (N, Np) holds
    the detection probabilities at the beliefs' particles, computed once by
    measurement evaluation and reused by the update.
    """

    beta: np.ndarray
    xi: np.ndarray
    nu_eq: Optional[np.ndarray] = None
    nu_neq: Optional[np.ndarray] = None
    phi_eq: Optional[np.ndarray] = None
    phi_neq: Optional[np.ndarray] = None
    kappa: Optional[np.ndarray] = None
    iota: Optional[np.ndarray] = None
    p_detect: Optional[np.ndarray] = None

    def nu_vector(self, i: int, tau: int) -> np.ndarray:
        m = self.beta.shape[1] - 1
        vec = np.full(m + 1, self.nu_neq[i, tau])
        vec[i + 1] = self.nu_eq[i, tau]
        return vec


def _check_count(beliefs: Beliefs, cfg: BpConfig):
    if beliefs.n_particles != cfg.n_particles:
        raise InputError(f"beliefs of {beliefs.n_particles} particles, "
                         f"configured for {cfg.n_particles}")


def _blocks(n: int, n_particles: int) -> list:
    """The stage blocks of n beliefs: row slices of at most BLOCK_PARTICLES
    particles (and at least one belief)."""
    size = max(1, BLOCK_PARTICLES // n_particles)
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def bp_predict(beliefs: Beliefs, motion: MotionModel, survival_prob: float,
               rng: np.random.Generator, out: Beliefs) -> Beliefs:
    """Propagate particles through the motion model and decay existence.

    The predicted particles, weights, r and missed counts are written into
    `out`, as many scan-buffer rows as `beliefs` has (their labels are the
    buffer's), which is returned; `beliefs` is only read. The process noise
    is drawn once per block, the same stream as one draw per belief.
    """
    if out.particles.shape != beliefs.particles.shape:
        raise InputError(f"predicting {beliefs.particles.shape} particles into "
                         f"{out.particles.shape}")
    w, v = np.linalg.eigh(motion.Q)
    sqrt_q = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    for blk in _blocks(len(beliefs), beliefs.n_particles):
        parts, rows = beliefs.particles[blk], out.particles[blk]
        noise = rng.standard_normal(parts.shape) @ sqrt_q.T
        np.matmul(parts, motion.F.T, out=rows)
        rows += noise
    np.multiply(beliefs.weights, survival_prob, out=out.weights)
    np.multiply(beliefs.r, survival_prob, out=out.r)
    out.missed[...] = beliefs.missed
    return out


def propose_births(inp: SensorInput, cfg: BpConfig, clouds: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """Measurement-driven birth particle clouds, one per measurement, drawn
    into `clouds` (M, Np, n), the scan buffer's newborn rows, and returned.

    Positions are drawn around the WLS backprojection of the measurement
    with the backprojection covariance inflated by BIRTH_COV_INFLATION;
    velocities from a zero-mean prior. The same cloud doubles as the birth
    pdf, so downstream importance ratios reduce to the likelihood.
    """
    batch = inp.batch
    if clouds.shape[:2] != (batch.n_meas, cfg.n_particles):
        raise InputError(f"drawing {batch.n_meas} clouds of {cfg.n_particles} "
                         f"particles into {clouds.shape}")
    h = batch.H
    r_dag, info_pinv = batch.factor.r_dag, batch.factor.info_pinv
    pos_cov = BIRTH_COV_INFLATION * info_pinv[:POS_DIM, :POS_DIM]
    try:
        c_pos = np.linalg.cholesky(symmetrize(pos_cov))
    except np.linalg.LinAlgError as exc:
        raise DegenerateBeliefError("birth position covariance not PD") from exc
    n_vel = min(2, clouds.shape[2] - POS_DIM)
    clouds[:, :, POS_DIM + n_vel:] = 0.0
    for z, particles in zip(batch.zs, clouds):
        x0 = info_pinv @ (h.T @ (r_dag @ z))
        particles[:, :POS_DIM] = (x0[:POS_DIM]
                                  + rng.standard_normal((cfg.n_particles, POS_DIM))
                                  @ c_pos.T)
        if n_vel > 0:
            particles[:, POS_DIM:POS_DIM + n_vel] = (
                VEL_PRIOR_STD * rng.standard_normal((cfg.n_particles, n_vel)))
    return clouds


def measurement_evaluation(beliefs: Beliefs, inp: SensorInput, cfg: BpConfig,
                           birth_clouds: np.ndarray):
    """Factors beta (survived) and xi (newborn) for one sensor.

    Returns (messages, q_cache, birth_liks): q_cache[(tau, i)] holds the
    per-particle detection-weighted likelihood ratio for gated pairs,
    birth_liks (M, Np) the per-particle likelihood of each measurement under
    its birth cloud.
    """
    _check_count(beliefs, cfg)
    batch = inp.batch
    n, m = len(beliefs), batch.n_meas
    h, loglik = batch.H, batch.factor.loglik
    log_clutter_intensity = math.log(inp.clutter.rate) + inp.clutter.log_density
    gamma_gate = chi2_gate(GATE_PROB, batch.factor.rank) if m else None

    beta = np.zeros((n, m + 1))
    p_detect = np.empty(beliefs.weights.shape)
    q_cache = {}
    for blk in _blocks(n, cfg.n_particles):
        particles, weights = beliefs.particles[blk], beliefs.weights[blk]
        pd_x = p_detect[blk]
        pd_x[...] = inp.detection_probs(
            particles[:, :, :POS_DIM].reshape(-1, POS_DIM)).reshape(weights.shape)
        beta[blk, 0] = _row_dots(weights, 1.0 - pd_x) + (1.0 - beliefs.r[blk])
        if not m:
            continue
        # (m, B, Np): particles last, so elementwise work runs along them
        z_pred = (h @ particles.reshape(-1, particles.shape[2]).T).reshape(
            h.shape[0], len(weights), -1)
        rows, cols = np.nonzero(_gate(z_pred, weights, batch, gamma_gate))
        if not rows.size:
            continue
        ll = loglik(batch.zs[cols], z_pred[:, rows])
        q = pd_x[rows] * np.exp(ll - log_clutter_intensity)
        taus = blk.start + rows
        beta[taus, cols + 1] = _row_dots(weights[rows], q)
        q_cache.update(zip(zip(taus.tolist(), cols.tolist()), q))

    xi = np.ones((m, n + 1))
    birth_liks = np.empty((0, cfg.n_particles))
    if m:
        # measurement i against its own birth cloud: (dim, M, Np) predictions
        birth_pred = h @ birth_clouds.reshape(-1, birth_clouds.shape[-1]).T
        birth_liks = np.exp(loglik(batch.zs, birth_pred.reshape(h.shape[0], m, -1)))
        for i, lk in enumerate(birth_liks):
            ratio = BIRTH_RATE * float(np.mean(lk)) * math.exp(-log_clutter_intensity)
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
    belief is summarized by their weighted mean and covariance, centred in
    that layout; one stacked pseudoinverse quadratic form takes the block's
    innovation covariances. Beliefs without weight mass gate nothing.
    """
    total = weights.sum(axis=1)
    live = total > 0
    total = np.where(live, total, 1.0)[:, None]
    z_hat = (z_pred.transpose(1, 0, 2) @ weights[:, :, None])[..., 0] / total
    centred = z_pred - z_hat.T[:, :, None]
    cov = ((centred * weights).transpose(1, 0, 2) @ centred.transpose(1, 2, 0)
           / total[:, :, None])
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


def measurement_update(beliefs: Beliefs, msgs: AssociationMessages, q_cache: dict,
                       birth_liks: np.ndarray, inp: SensorInput, cfg: BpConfig):
    """Unnormalized posteriors for survived targets and newborns.

    msgs must come from `measurement_evaluation` of the same beliefs: the
    detection probabilities are taken from msgs.p_detect. Only the gated
    pairs of q_cache are visited. Returns ((N, Np) survived posteriors,
    kappa(0) per belief) and ((M, Np) newborn posteriors, the sum of iota
    per measurement).
    """
    kappa, iota = msgs.kappa, msgs.iota
    p_detect = msgs.p_detect
    if (p_detect is None or len(p_detect) != len(beliefs)
            or kappa.shape[0] != len(beliefs)):
        raise InputError("association messages do not come from these beliefs")
    k0 = kappa[:, 0]
    survived = k0[:, None] * (1.0 - p_detect)
    for (tau, i), q in q_cache.items():
        k = kappa[tau, i + 1]
        if k > 0:
            survived[tau] += k * q

    log_clutter_intensity = math.log(inp.clutter.rate) + inp.clutter.log_density
    scale = BIRTH_RATE * math.exp(-log_clutter_intensity) / cfg.n_particles
    newborn = (iota[:, 0] * scale)[:, None] * birth_liks
    return (survived, k0), (newborn, iota.sum(axis=1))


def _systematic_resample(weights: np.ndarray, n: int, u: float) -> np.ndarray:
    positions = (u + np.arange(n)) / n
    cumulative = weights.cumsum()
    cumulative[-1] = 1.0
    return cumulative.searchsorted(positions)


def _normalize(weights: np.ndarray, rest: np.ndarray, us: np.ndarray):
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
    for k in np.flatnonzero(ess < RESAMPLE_ESS_FRAC * n).tolist():
        resampled.append((k, _systematic_resample(wn[k], n, us[k])))
        weights[k] = r[k] / n
    return np.minimum(r, 1.0), resampled


def _posteriors(rows: Beliefs, start: int, posts: Optional[np.ndarray],
                rest: np.ndarray, us: np.ndarray, cfg: BpConfig):
    """Normalize the unnormalized weights of rows start.. in place, block by
    block, their r into rows.r; resample the low-ESS rows' particles in
    place. A block's weights are first multiplied by `posts` unless that is
    None (the weights are then the posteriors already)."""
    for blk in _blocks(len(rest), cfg.n_particles):
        at = slice(start + blk.start, start + blk.stop)
        weights = rows.weights[at]
        if posts is not None:
            weights *= posts[blk]
        rows.r[at], resampled = _normalize(weights, rest[blk], us[blk])
        for k, idx in resampled:
            row = rows.particles[at.start + k]
            row[...] = row[idx]


def belief_calculation(rows: Beliefs, survived, newborn, cfg: BpConfig,
                       rng: np.random.Generator) -> Beliefs:
    """Normalize posteriors into updated beliefs; resample when ESS is low.

    `rows` are the scan buffer's rows of one sensor step: its N beliefs,
    then one row per measurement holding the newborn's birth cloud and
    label, M = len(newborn[0]). survived and newborn are the two pairs of
    `measurement_update`. The weights and r of every row and the particles
    of every resampled row are written in place, and `rows` is returned.
    One resampling uniform is drawn per belief, survived beliefs first and
    newborns after, regardless of whether the resample triggers, so paired
    runs consume identical random streams.
    """
    _check_count(rows, cfg)
    (survived, k0), (newborn, iota_sums) = survived, newborn
    n, m = len(survived), len(newborn)
    if len(rows) != n + m:
        raise InputError(f"{len(rows)} rows for {n} beliefs and {m} newborns")
    _posteriors(rows, 0, survived, (1.0 - rows.r[:n]) * k0, rng.random(n), cfg)
    rows.weights[n:] = newborn
    _posteriors(rows, n, None, iota_sums, rng.random(m), cfg)
    return rows


def declare_estimate_prune(beliefs: Beliefs, cfg: BpConfig):
    """MMSE estimates of declared targets; prune dead or stale beliefs."""
    estimates = [(beliefs.labels[t], _mean(beliefs.particles[t], beliefs.weights[t]))
                 for t in np.flatnonzero(beliefs.r > DECLARE_THRESHOLD)]
    keep = (beliefs.r >= cfg.prune_threshold) & (beliefs.missed <= MAX_MISSED_SCANS)
    return estimates, beliefs if keep.all() else beliefs[keep]


def _mean(particles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    total = float(np.sum(weights))
    if total <= 0:
        return particles.mean(axis=0)
    return (weights @ particles) / total


def _sensor_step(rows: Beliefs, inp: SensorInput, cfg: BpConfig,
                 rng_for: Callable[[str, int], np.random.Generator], l: int,
                 trace: Optional[list]):
    """One sensor's update of the scan buffer's first rows (its beliefs, then
    one newborn row per measurement), in place; returns kappa.

    The per-particle terms of measurement evaluation (q_cache, detection
    probabilities, birth likelihoods) are released before belief
    calculation, the unnormalized posteriors right after it, so a step
    holds no more than one set of them.
    """
    n = len(rows) - inp.batch.n_meas
    beliefs = rows[:n]
    clouds = propose_births(inp, cfg, rows.particles[n:], rng_for("birth", l))
    msgs, q_cache, birth_liks = measurement_evaluation(beliefs, inp, cfg, clouds)
    kappa, iota = iterative_association(msgs, ITERATIONS)
    survived, newborn = measurement_update(beliefs, msgs, q_cache, birth_liks, inp, cfg)
    beta, xi = msgs.beta, msgs.xi
    del msgs, q_cache, birth_liks  # not needed past the update
    out = belief_calculation(rows, survived, newborn, cfg, rng_for("resample", l))
    del survived, newborn
    if trace is not None:
        trace.append({
            "sensor": inp.batch.sensor_id,
            "beta": beta.copy(),
            "xi": xi.copy(),
            "kappa": kappa.copy(),
            "iota": iota.copy(),
            "weights": out.weights.copy(),
            "r_prob": out.r.copy(),
        })
    return kappa


def bp_pipeline_step(beliefs: Beliefs, inputs: Sequence[SensorInput],
                     motion: MotionModel, cfg: BpConfig,
                     rng_for: Callable[[str, int], np.random.Generator],
                     scan: int = 0, trace: Optional[list] = None):
    """One scan: predict once, then process every sensor in order.

    The scan runs in one buffer of N + sum(M_l) rows: the predicted beliefs,
    then each sensor's newborns after the rows of the steps before it; each
    stage writes its rows of it, and `beliefs` is only read. A scan of more
    than MAX_STEP_PARTICLES particles in all (its last step's size) raises
    ResourceLimitError before the buffer is allocated or any draw is made.

    rng_for(purpose, sensor) must return an independent deterministic
    stream; paired raw/transformed runs that share the factory consume
    identical draws. Returns (beliefs, estimates).
    """
    _check_count(beliefs, cfg)
    inputs = sorted(inputs, key=lambda s: s.batch.sensor_id)
    n = len(beliefs)
    total = n + sum(inp.batch.n_meas for inp in inputs)
    size = total * cfg.n_particles
    if size > MAX_STEP_PARTICLES:
        raise ResourceLimitError(
            f"scan of {n} beliefs and {total - n} measurements at {cfg.n_particles} "
            f"particles exceeds the step cap ({size} > {MAX_STEP_PARTICLES} "
            f"particles)")
    buffer = Beliefs(np.empty((total, cfg.n_particles, motion.n)),
                     np.empty((total, cfg.n_particles)), np.empty(total),
                     np.zeros(total, dtype=int),
                     beliefs.labels + [(scan, inp.batch.sensor_id, i) for inp in inputs
                                       for i in range(inp.batch.n_meas)])
    bp_predict(beliefs, motion, cfg.survival_prob, rng_for("predict", -1), buffer[:n])
    del beliefs  # frees the previous scan's arrays if the caller let them go
    supported = np.arange(total) >= n  # newborns count as supported
    for l, inp in enumerate(inputs):
        kappa = _sensor_step(buffer[:n + inp.batch.n_meas], inp, cfg, rng_for, l, trace)
        if kappa.shape[1] > 1:
            supported[:n] |= kappa[:, 1:].sum(axis=1) >= 0.5 * kappa[:, 0]
        n += inp.batch.n_meas
    buffer.missed = np.where(supported, 0, buffer.missed + 1)
    estimates, beliefs = declare_estimate_prune(buffer, cfg)
    return beliefs, estimates
