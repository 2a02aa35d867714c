"""Scalable BP-based multisensor association and fusion.

Each scan is processed sensor by sensor: measurement evaluation builds the
target->association factors (beta) and the newborn factors (xi), a fixed
number of message-passing iterations produces the association products
kappa and iota, and the particle beliefs are reweighted, normalized and
augmented with one potential newborn per measurement.

Inside each stage (prediction, measurement evaluation, belief calculation)
the beliefs are stacked into blocks: consecutive runs of beliefs with equal
particle counts, particles (B, Np, n) and weights (B, Np), of at most
BLOCK_PARTICLES particles each (a larger belief is a block of its own).
Runs keep the belief order, so random draws stay in belief order. Blocks
are built one at a time because of peak memory: a late sensor of a scan can
carry over a hundred beliefs, and one block of all of them, with its
centred copies, would stay alive through the whole stage.

Prediction draws the process noise once per block. Per block, measurement
evaluation makes one detection-probability call over all particles, gates
every belief with batched weighted moments and one stacked
eigendecomposition of the innovation covariances, and evaluates all gated
(belief, measurement) pairs in one likelihood call (a triangular solve for
raw payloads, an eigen projection for transformed ones); the (G, Np) rows
back `q_cache`. The detection probabilities go to the update through
`AssociationMessages`, and the update visits only the gated (tau, i) pairs.
Belief calculation normalizes, sums and takes the effective sample size of
a block's rows together and resamples only the rows that need it. Stacked
moments and dot products go through batched `@`, whose per-slice BLAS calls
are those of the per-belief form (einsum would reorder the sums); the
scenario-2 BP traces and curves equal those of the per-belief form bit for
bit.

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
from scipy.linalg import solve_triangular

from .errors import DegenerateBeliefError, InputError
from .linalg import chi2_gate, psd_quadforms, symmetrize
from .models import POS_DIM, MeasurementBatch, MotionModel
from .transform import LOG_2PI, ClutterModel

# Most particles stacked into one block (see the module docstring).
BLOCK_PARTICLES = 8192


@dataclass
class ParticleBelief:
    """Weighted particle set for one potential target.

    Weights sum to the existence probability r_prob; the complementary
    1 - r_prob mass is implicit.
    """

    particles: np.ndarray
    weights: np.ndarray
    r_prob: float
    label: object
    missed_scans: int = 0

    def __post_init__(self):
        self.particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.weights.size != self.particles.shape[0]:
            raise InputError("weights do not match particle count")

    @classmethod
    def _trusted(cls, particles: np.ndarray, weights: np.ndarray,
                 r_prob: float, label: object, missed_scans: int = 0):
        """A belief from arrays this module built: (Np, n) float particles
        and (Np,) float weights, taken without validation or copy."""
        b = cls.__new__(cls)
        b.particles, b.weights, b.r_prob = particles, weights, r_prob
        b.label, b.missed_scans = label, missed_scans
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
    p_detect: Optional[list] = None

    def nu_vector(self, i: int, tau: int) -> np.ndarray:
        m = self.beta.shape[1] - 1
        vec = np.full(m + 1, self.nu_neq[i, tau])
        vec[i + 1] = self.nu_eq[i, tau]
        return vec

    def phi_vector(self, tau: int, i: int) -> np.ndarray:
        n = self.xi.shape[1] - 1
        vec = np.full(n + 1, self.phi_neq[tau, i])
        vec[tau + 1] = self.phi_eq[tau, i]
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
        diffs = (zs.T[:, :, None] - z_pred.reshape(m, -1, n_pred)).reshape(m, -1)
        if self.batch.transformed:
            proj = self._v.T @ diffs
            quad = np.sum(proj * proj / self._w[:, None], axis=0)
        else:
            y = solve_triangular(self._chol, diffs, lower=True,
                                 check_finite=False)
            quad = np.sum(y * y, axis=0)
        ll = -0.5 * (self._rank * LOG_2PI + self._logdet + quad)
        return ll.reshape(zs.shape[0], n_pred)


def _blocks(counts: Sequence[int]):
    """Index ranges of the blocks over beliefs with these particle counts:
    consecutive beliefs with equal counts, at most BLOCK_PARTICLES particles
    (and at least one belief) each."""
    start = 0
    for end in range(1, len(counts) + 1):
        if (end == len(counts) or counts[end] != counts[start]
                or (end - start + 1) * counts[start] > BLOCK_PARTICLES):
            yield range(start, end)
            start = end


def _counts(beliefs: Sequence[ParticleBelief]):
    return [b.n_particles for b in beliefs]


def bp_predict(beliefs: Sequence[ParticleBelief], motion: MotionModel,
               survival_prob: float, rng: np.random.Generator):
    """Propagate particles through the motion model and decay existence.

    The process noise is drawn once per block, the same stream as one draw
    per belief. Each belief gets particles of its own, so that a belief
    resampled later frees them.
    """
    w, v = np.linalg.eigh(motion.Q)
    sqrt_q = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    out = []
    for blk in _blocks(_counts(beliefs)):
        shape = (len(blk),) + beliefs[blk.start].particles.shape
        noise = rng.standard_normal(shape) @ sqrt_q.T
        for b, e in zip((beliefs[t] for t in blk), noise):
            out.append(ParticleBelief._trusted(
                b.particles @ motion.F.T + e, b.weights * survival_prob,
                b.r_prob * survival_prob, b.label, b.missed_scans))
    return out


def propose_births(inp: BpSensorInput, cfg: BpConfig, state_dim: int,
                   rng: np.random.Generator):
    """Measurement-driven birth particle clouds, one per measurement.

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
    clouds = []
    for z in batch.zs:
        x0 = info_pinv @ (h.T @ (r_dag @ z))
        particles = np.zeros((cfg.n_particles, state_dim))
        particles[:, :POS_DIM] = (x0[:POS_DIM]
                                  + rng.standard_normal((cfg.n_particles, POS_DIM))
                                  @ c_pos.T)
        if n_vel > 0:
            particles[:, POS_DIM:POS_DIM + n_vel] = (
                cfg.vel_prior_std * rng.standard_normal((cfg.n_particles, n_vel)))
        clouds.append(particles)
    return clouds


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
    p_detect = []
    q_cache = {}
    for blk in _blocks(_counts(beliefs)):
        particles = np.stack([beliefs[t].particles for t in blk])
        weights = np.stack([beliefs[t].weights for t in blk])
        pd_x = inp.detection_probs(
            particles[:, :, :POS_DIM].reshape(-1, POS_DIM)).reshape(weights.shape)
        p_detect.extend(pd_x)
        r_prob = np.array([beliefs[t].r_prob for t in blk])
        beta[blk.start:blk.stop, 0] = _row_dots(weights, 1.0 - pd_x) + (1.0 - r_prob)
        if not m:
            continue
        rows, cols = np.nonzero(_gate(particles, weights, lik, gamma_gate))
        if not rows.size:
            continue
        z_pred = lik.predict(particles.reshape(-1, particles.shape[2]))
        ll = lik.loglik(batch.zs[cols],
                        z_pred.reshape(z_pred.shape[0], len(blk), -1)[:, rows])
        q = pd_x[rows] * np.exp(ll - log_clutter_intensity)
        taus = blk.start + rows
        beta[taus, cols + 1] = _row_dots(weights[rows], q)
        q_cache.update(zip(zip(taus.tolist(), cols.tolist()), q))

    xi = np.ones((m, n + 1))
    birth_liks = []
    if m:
        # measurement i against its own birth cloud: (dim, M, Np) predictions
        birth_pred = lik.predict(np.concatenate(birth_clouds))
        lls = lik.loglik(batch.zs, birth_pred.reshape(birth_pred.shape[0], m, -1))
        for i, lk in enumerate(np.exp(lls)):
            birth_liks.append(lk)
            ratio = cfg.birth_rate * float(np.mean(lk)) * math.exp(-log_clutter_intensity)
            xi[i, 0] = 1.0 + ratio
    return AssociationMessages(beta, xi, p_detect=p_detect), q_cache, birth_liks


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B,) dot products of the rows of two (B, Np) arrays, each one BLAS dot
    as for a single pair of vectors."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _gate(particles: np.ndarray, weights: np.ndarray, lik: _BatchLikelihood,
          gamma_gate: float) -> np.ndarray:
    """(B, M) mask of the measurements inside each stacked belief's gate.

    Each belief is summarized by the weighted mean and covariance of its
    particles; the innovation covariances of the block go through one
    stacked pseudoinverse quadratic form. Beliefs without weight mass gate
    nothing.
    """
    total = weights.sum(axis=1)
    live = total > 0
    total = np.where(live, total, 1.0)[:, None]
    mu = (weights[:, None, :] @ particles)[:, 0] / total
    centred = particles - mu[:, None, :]
    cov = (centred * weights[..., None]).transpose(0, 2, 1) @ centred / total[:, :, None]
    h, batch = lik.H, lik.batch
    z_hat = (h @ mu[:, :, None])[..., 0]
    d2 = psd_quadforms(h @ cov @ h.T + batch.R,
                       batch.zs[None, :, :] - z_hat[:, None, :])
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
            nu_eq = np.ones_like(nu_neq)
            mx = np.maximum(nu_eq, nu_neq)
            _check_messages(mx)
            nu_eq, nu_neq = nu_eq / mx, nu_neq / mx

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


def _check_messages(arr: np.ndarray):
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DegenerateBeliefError("association message vector degenerated")


def measurement_update(beliefs: Sequence[ParticleBelief],
                       msgs: AssociationMessages, q_cache: dict,
                       birth_liks: Sequence[np.ndarray],
                       inp: BpSensorInput, cfg: BpConfig):
    """Unnormalized posteriors for survived targets and newborns.

    msgs must come from `measurement_evaluation` of the same beliefs: the
    detection probabilities are taken from msgs.p_detect. Only the gated
    pairs of q_cache are visited.
    """
    kappa, iota = msgs.kappa, msgs.iota
    batch = inp.batch
    log_clutter_intensity = math.log(inp.clutter.rate) + inp.clutter.log_density
    p_detect = msgs.p_detect
    if (p_detect is None or len(p_detect) != len(beliefs)
            or kappa.shape[0] != len(beliefs)):
        raise InputError("association messages do not come from these beliefs")

    gammas = [kappa[tau, 0] * (1.0 - pd_x) for tau, pd_x in enumerate(p_detect)]
    for (tau, i), q in q_cache.items():
        k = kappa[tau, i + 1]
        if k > 0:
            gammas[tau] += k * q
    survived_posts = [(gamma, kappa[tau, 0]) for tau, gamma in enumerate(gammas)]

    newborn_posts = []
    scale = cfg.birth_rate * math.exp(-log_clutter_intensity) / cfg.n_particles
    for i in range(batch.n_meas):
        w_unnorm = iota[i, 0] * scale * birth_liks[i]
        denom = float(np.sum(iota[i]))
        newborn_posts.append((w_unnorm, denom))
    return survived_posts, newborn_posts


def _systematic_resample(weights: np.ndarray, n: int, u: float) -> np.ndarray:
    positions = (u + np.arange(n)) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions)


def _normalize(particles: Sequence[np.ndarray], unnorm: np.ndarray,
               rest: np.ndarray, us: np.ndarray, cfg: BpConfig):
    """Normalize the rows of one block; resample low-ESS rows.

    Row k has weights unnorm[k] / c with c = sum(unnorm[k]) + rest[k]; it is
    resampled systematically with uniform us[k] when the effective sample
    size of its normalized weights is low, and otherwise keeps
    particles[k]. Yields (particles, weights, r) per row, r the total weight
    before any resampling, capped at one.
    """
    c = unnorm.sum(axis=1) + rest
    if not np.all(c > 0.0) or not np.all(np.isfinite(c)):
        raise DegenerateBeliefError("belief normalization constant <= 0")
    weights = unnorm / c[:, None]
    r = weights.sum(axis=1)
    live = r > 0
    wn = weights / np.where(live, r, 1.0)[:, None]
    n = weights.shape[1]
    ess = np.divide(1.0, (wn * wn).sum(axis=1), out=np.full(r.shape, np.inf),
                    where=live)
    resample = (ess < cfg.resample_ess_frac * n).tolist()
    for k, (p, w, r_k) in enumerate(zip(particles, weights, r.tolist())):
        if resample[k]:
            p = p[_systematic_resample(wn[k], n, us[k])]
            w = np.full(n, r_k / n)
        yield p, w, min(r_k, 1.0)


def belief_calculation(beliefs: Sequence[ParticleBelief], survived_posts,
                       newborn_posts, birth_clouds, labels, cfg: BpConfig,
                       rng: np.random.Generator):
    """Normalize posteriors into updated beliefs; resample when ESS is low.

    One resampling uniform is drawn per belief, survived beliefs first and
    newborns after, regardless of whether the resample triggers, so paired
    runs consume identical random streams. Returns (updated survived
    beliefs, newborn beliefs).
    """
    updated = []
    us = rng.random(len(beliefs))
    for blk in _blocks(_counts(beliefs)):
        olds = [beliefs[t] for t in blk]
        posts = [survived_posts[t] for t in blk]
        unnorm = np.stack([b.weights for b in olds]) * np.stack([g for g, _ in posts])
        rest = np.array([1.0 - b.r_prob for b in olds]) * np.array([g0 for _, g0 in posts])
        for b, (p, w, r) in zip(olds, _normalize(
                [b.particles for b in olds], unnorm, rest, us[blk.start:blk.stop], cfg)):
            updated.append(ParticleBelief._trusted(p, w, r, b.label, b.missed_scans))

    newborn = []
    us = rng.random(len(newborn_posts))
    for blk in _blocks([c.shape[0] for c in birth_clouds]):
        posts = [newborn_posts[i] for i in blk]
        unnorm = np.stack([w for w, _ in posts])
        rest = np.array([denom for _, denom in posts])
        for i, (p, w, r) in zip(blk, _normalize(
                birth_clouds[blk.start:blk.stop], unnorm, rest,
                us[blk.start:blk.stop], cfg)):
            newborn.append(ParticleBelief._trusted(p, w, r, labels[i]))
    return updated, newborn


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
    calculation, the unnormalized posteriors on return, so a step holds no
    more than one set of them.
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
    return beliefs, estimates
