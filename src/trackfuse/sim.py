"""Scenario simulation, local GNN trackers, and the Monte Carlo harness.

All randomness flows through `rng_stream`, a counter-based stream keyed by
(seed, purpose, scan, sensor, ...). Raw and transformed fusion arms of a
comparison share every key, so they consume identical measurement
realizations and identical in-pipeline draws; only the payload encoding
differs.

The (H, R) of every scan and sensor is drawn when the tape is made, so a
fusion arm encodes and factors its whole tape before its scan loop
(`encode_tape`): one stacked transformation (`transform.type1_stack` or
`type2_stack`) and one stacked `models.payload_factors` call over all the
tape's models. Each scan's batches, views into those stacks with the
measurements mapped by their own A, are made when the loop reaches the
scan. `encode_batch` is the same pass over one (scan, sensor)
transmission; its batches equal the tape pass's bit for bit.

Both engines run in one per-scan fusion loop (`_fuse`); `run_mda_fusion`
and `run_bp_fusion` supply only its engine step, and the BP step builds
its inputs from one scan of `encode_tape` with `bp_inputs`.

The sensor side (`prepare_run`) works on arrays too: `generate_measurements`
makes one field-of-view test of all alive targets per sensor and scan, and
each sensor's `GnnTracker` keeps its tracks and initiators as a struct of
arrays that every scan updates with stacked calls and row masks.

`monte_carlo_sweep` is the one Monte Carlo harness, serial or in one
process pool; `monte_carlo` runs it on one config, and `trackfuse run` on
one config per sweep value.
"""

from __future__ import annotations

import dataclasses
import math
import os
import zlib
from concurrent import futures  # loads the process pool's module on first use
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import bp as bp_mod
from . import mda as mda_mod
from .errors import ConfigError, InputError
from .linalg import chi2_gate, cholesky, mahalanobis_sq, symmetrize
from .mda import BIG, padded_table
from .metrics import CommLedger, OspaParams, TrackHistory, ospa, ospa2
from .models import (
    LOG_2PI,
    RAW,
    TYPE1,
    TYPE2,
    MeasurementBatch,
    MeasurementModel,
    MotionModel,
    _update_with_innovation,
    innovation_stack,
    payload_factors,
    predict_stack,
)
from .transform import ClutterModel, type1_stack, type2_stack


def _key_part(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        return int(part) % (2 ** 32)
    raise InputError(f"rng key parts must be str or int, got {type(part)!r}")


def rng_stream(seed: int, *key) -> np.random.Generator:
    """Deterministic, platform-independent stream for a (seed, key) tuple."""
    entropy = [_key_part(seed)] + [_key_part(p) for p in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# Relative band around max_range^2 in which `FieldOfView.contains` falls
# back to hypot, the ranges for which squares stay normal floats, and the
# fewest points for which the squared test is the cheaper one (measured:
# 3 us against 1-2 us below a few hundred points, 15 us against 92 us at
# 8,000).
RANGE_BAND = 2e-12
RANGE_SQUARED_SAFE = (1e-100, 1e100)
RANGE_SQUARED_MIN_POINTS = 512


@dataclass
class FieldOfView:
    """Angular wedge with a range limit around a sensor position."""

    origin: np.ndarray
    boresight: float
    half_angle: float
    max_range: float

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(2)
        if self.max_range <= 0 or not (0 < self.half_angle <= math.pi):
            raise ConfigError("need max_range > 0 and 0 < half_angle <= pi")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Points within max_range whose bearing is within half_angle of boresight.

        With c and s the dot and cross products of a point's offset with the
        boresight unit vector, c sin(h) - |s| cos(h) = |offset| sin(h - |dtheta|),
        which is >= 0 exactly when |dtheta| <= h for 0 < h <= pi. The sensor
        origin (the wedge apex) is inside; half_angle = pi is the full disc.

        The range test decides hypot(x, y) <= max_range. On large arrays it
        compares x^2 + y^2 with max_range^2 and calls hypot only where the
        two lie within 2e-12 relative of each other: the rounding of the
        squared form (a few 1e-16 relative) cannot flip a decision outside
        that band.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x = pts[:, 0] - self.origin[0]
        y = pts[:, 1] - self.origin[1]
        inside = self._in_range(x, y)
        if self.half_angle >= math.pi:
            return inside
        ux, uy = math.cos(self.boresight), math.sin(self.boresight)
        dot = x * ux + y * uy
        cross = np.abs(y * ux - x * uy)
        return inside & (dot * math.sin(self.half_angle)
                         >= cross * math.cos(self.half_angle))

    def _in_range(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """hypot(x, y) <= max_range, elementwise (see `contains`)."""
        r = self.max_range
        if (x.size < RANGE_SQUARED_MIN_POINTS
                or not RANGE_SQUARED_SAFE[0] <= r <= RANGE_SQUARED_SAFE[1]):
            return np.hypot(x, y) <= r
        r2 = r * r
        s = x * x + y * y
        inside = s <= r2
        near = np.abs(s - r2) <= RANGE_BAND * r2
        if near.any():
            inside[near] = np.hypot(x[near], y[near]) <= r
        return inside

    @property
    def area(self) -> float:
        return self.half_angle * self.max_range ** 2

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform points in the wedge (radius proportional to sqrt(u))."""
        bearings = self.boresight + rng.uniform(-self.half_angle,
                                                self.half_angle, count)
        radii = self.max_range * np.sqrt(rng.uniform(0.0, 1.0, count))
        return self.origin + np.column_stack([radii * np.cos(bearings),
                                              radii * np.sin(bearings)])


@dataclass
class SensorConfig:
    position: np.ndarray
    boresight: float
    fov_half_angle: float = math.pi / 4
    fov_range: float = 1200.0
    p_d: float = 0.9
    clutter_rate: float = 10.0

    def fov(self) -> FieldOfView:
        return FieldOfView(self.position, self.boresight,
                           self.fov_half_angle, self.fov_range)


@dataclass
class TargetConfig:
    birth: int
    death: int
    initial_state: np.ndarray

    def __post_init__(self):
        self.initial_state = np.asarray(self.initial_state, dtype=float).reshape(4)
        if not self.birth < self.death:
            raise ConfigError("target birth must precede death")


@dataclass
class ScenarioConfig:
    duration: int
    dt: float
    q: float
    sigma: float
    sensors: list
    targets: list

    def __post_init__(self):
        for tgt in self.targets:
            if tgt.death > self.duration:
                raise ConfigError("target outlives the scenario duration")

    def with_overrides(self, p_d: Optional[float] = None,
                       clutter_rate: Optional[float] = None) -> "ScenarioConfig":
        sensors = []
        for s in self.sensors:
            sensors.append(dataclasses.replace(
                s,
                p_d=s.p_d if p_d is None else p_d,
                clutter_rate=s.clutter_rate if clutter_rate is None else clutter_rate))
        return dataclasses.replace(self, sensors=sensors)


def motion_model(cfg: ScenarioConfig) -> MotionModel:
    """Nearly-constant-velocity model for state [x1, x2, v1, v2]."""
    dt = cfg.dt
    f = np.kron(np.array([[1.0, dt], [0.0, 1.0]]), np.eye(2))
    gamma = np.kron(np.array([[dt * dt / 2.0], [dt]]), np.eye(2))
    q = gamma @ (cfg.q ** 2 * np.eye(2)) @ gamma.T
    return MotionModel(f, q)


def _aim_at(position, point) -> float:
    d = np.asarray(point, dtype=float) - np.asarray(position, dtype=float)
    return float(math.atan2(d[1], d[0]))


def scenario1() -> ScenarioConfig:
    """Two sensors, three crossing targets on a 1600 m x 1200 m region.

    Target starting states are fixed, documented defaults; override them
    through a scenario file if needed.
    """
    centroid = (0.0, -200.0)
    sensors = [
        SensorConfig(np.array([-600.0, -800.0]), _aim_at([-600.0, -800.0], centroid)),
        SensorConfig(np.array([600.0, -800.0]), _aim_at([600.0, -800.0], centroid)),
    ]
    targets = [
        TargetConfig(1, 100, [-400.0, -200.0, 8.0, 1.0]),
        TargetConfig(1, 100, [400.0, -150.0, -8.0, 1.5]),
        TargetConfig(10, 80, [0.0, 300.0, 1.0, -7.0]),
    ]
    return ScenarioConfig(duration=100, dt=1.0, q=0.1, sigma=5.0,
                          sensors=sensors, targets=targets)


def scenario2(state_seed: int = 20230) -> ScenarioConfig:
    """Ten sensors on a 1000 m circle, ten targets with staggered lifetimes.

    Initial target states are drawn once from `state_seed`: positions
    uniform over the central 60% of the region, speeds uniform in
    [5, 12] m/s with a random heading.
    """
    sensors = []
    for k in range(10):
        ang = 2.0 * math.pi * k / 10.0
        pos = np.array([1000.0 * math.cos(ang), 1000.0 * math.sin(ang)])
        sensors.append(SensorConfig(pos, _aim_at(pos, (0.0, 0.0))))
    spans = [(1, 100)] * 3 + [(20, 60)] * 3 + [(40, 80)] * 4
    rng = rng_stream(state_seed, "scenario2-init")
    targets = []
    for birth, death in spans:
        pos = rng.uniform(-600.0, 600.0, 2)
        speed = rng.uniform(5.0, 12.0)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        vel = speed * np.array([math.cos(heading), math.sin(heading)])
        targets.append(TargetConfig(birth, death, np.concatenate([pos, vel])))
    return ScenarioConfig(duration=100, dt=1.0, q=0.1, sigma=5.0,
                          sensors=sensors, targets=targets)


def generate_truth(cfg: ScenarioConfig, seed: int):
    """Per-target trajectories {scan: state}; deterministic given the seed."""
    motion = motion_model(cfg)
    gamma = np.kron(np.array([[cfg.dt ** 2 / 2.0], [cfg.dt]]), np.eye(2))
    rng = rng_stream(seed, "truth")
    truth = []
    for tgt in cfg.targets:
        x = tgt.initial_state.copy()
        traj = {tgt.birth: x.copy()}
        for scan in range(tgt.birth + 1, tgt.death + 1):
            v = cfg.q * rng.standard_normal(2)
            x = motion.F @ x + gamma @ v
            traj[scan] = x.copy()
        truth.append(traj)
    return truth


@dataclass
class SensorScan:
    """Raw output of one sensor at one scan."""

    sensor_id: int
    zs: np.ndarray
    model: MeasurementModel
    E: np.ndarray
    fov_volume: float

    @property
    def n_meas(self) -> int:
        return self.zs.shape[0]


THETA_RANGE = (-0.02, 0.02)
VARTHETA_RANGE = (0.0, 1.0)


def generate_measurements(truth, cfg: ScenarioConfig, scan: int, seed: int):
    """One scan of detections plus clutter for every sensor.

    The time-varying H = [diag(1 + theta), 0] and R = diag(sigma^2 +
    vartheta) parameters are drawn per scan and sensor, uniform over
    THETA_RANGE and VARTHETA_RANGE, and are carried in the returned models
    (they are known to all trackers). Each sensor tests all alive targets
    against its field of view in one call before its draws.
    """
    scans = []
    alive = [traj[scan] for traj in truth if scan in traj]
    alive_pos = np.array([x[:2] for x in alive]).reshape(-1, 2)
    for sensor_id, sc in enumerate(cfg.sensors):
        rng = rng_stream(seed, "meas", scan, sensor_id)
        theta = rng.uniform(THETA_RANGE[0], THETA_RANGE[1], 2)
        vartheta = rng.uniform(VARTHETA_RANGE[0], VARTHETA_RANGE[1], 2)
        e = np.diag(1.0 + theta)
        h = np.hstack([e, np.zeros((2, 2))])
        r = np.diag(cfg.sigma ** 2 + vartheta)
        model = MeasurementModel._trusted(h, r, sensor_id)
        fov = sc.fov()

        chol_r = np.linalg.cholesky(r)
        detections = [h @ x + chol_r @ rng.standard_normal(2)
                      for x, seen in zip(alive, fov.contains(alive_pos).tolist())
                      if seen and rng.random() <= sc.p_d]
        n_clutter = rng.poisson(sc.clutter_rate)
        clutter = fov.sample(rng, n_clutter) @ e.T if n_clutter else np.zeros((0, 2))
        zs = np.concatenate([np.reshape(detections, (-1, 2)), clutter])
        if len(zs):
            zs = zs[rng.permutation(len(zs))]
        volume = fov.area * float(np.linalg.det(e))
        scans.append(SensorScan(sensor_id, zs, model, e, volume))
    return scans


# The local GNN trackers' fixed settings (see `GnnTracker`).
CONFIRM_HITS = 4
DELETE_MISSES = 3
GATE_PROB = 0.99
CAPTURE_SPEED = 30.0  # m/s


class GnnTracker:
    """Single-sensor global-nearest-neighbor tracker.

    Gated 2-D assignment on negative log-likelihood costs (chi-square gate
    GATE_PROB), two-point differencing initiation (capture speed
    CAPTURE_SPEED), confirmation at CONFIRM_HITS hits and deletion after
    DELETE_MISSES consecutive misses. Returns the measurement indices of
    confirmed tracks updated this scan (the payload the sensor transmits).

    The state is a struct of arrays. Track k is row k of `means` (N, 4),
    `covs` (N, 4, 4), `timestamps`, `hits`, `misses` and `confirmed`;
    pending initiator j is row j of `init_pos` (K, 2) and `init_covs`
    (K, 2, 2). A scan is one `predict_stack`, one `innovation_stack` and
    one Cholesky of the innovation covariances for the log-determinants,
    the (N, M) squared distances by one forward substitution on those
    factors (`mahalanobis_sq`), the cost table by `np.where`, one
    `linear_sum_assignment`, and one Kalman update of the tracks that got a
    measurement, which reuses the gate's predicted measurements, innovation
    covariances and Cholesky factors for those rows (the core of
    `update_raw_stack`); hits, misses, confirmation and deletion are masks
    over the assignment's rows. The newborns of all initiator pairings are
    built as one block and follow the surviving rows, in assignment order.
    """

    def __init__(self, motion: MotionModel, dt: float):
        self.motion = motion
        self.dt = dt
        self.means, self.covs = np.zeros((0, 4)), np.zeros((0, 4, 4))
        self.timestamps, self.hits, self.misses = (np.zeros(0, dtype=int) for _ in range(3))
        self.confirmed = np.zeros(0, dtype=bool)
        self.init_pos, self.init_covs = np.zeros((0, 2)), np.zeros((0, 2, 2))

    def step(self, scan_data: SensorScan):
        dt = self.dt
        zs, model = scan_data.zs, scan_data.model
        free = np.ones(zs.shape[0], dtype=bool)  # measurements no track took
        transmit = self._maintain(zs, model, free) if len(self.means) else []

        e_inv = np.linalg.inv(scan_data.E)
        pos_cov = symmetrize(e_inv @ model.R @ e_inv.T)
        positions = zs[free] @ e_inv.T
        n_left, n_i = positions.shape[0], self.init_pos.shape[0]
        left = np.ones(n_left, dtype=bool)
        born = np.zeros((0, 4)), np.zeros((0, 4, 4))
        if n_i and n_left:
            capture = CAPTURE_SPEED * dt + 4.0 * math.sqrt(
                float(np.max(np.linalg.eigvalsh(2.0 * pos_cov))))
            dx = positions[:, 0] - self.init_pos[:, None, 0]
            dy = positions[:, 1] - self.init_pos[:, None, 1]
            d = np.sqrt(dx * dx + dy * dy)
            mat = np.full((n_i, n_left + n_i), capture ** 2)
            mat[:, :n_left] = np.where(d <= capture, d ** 2, capture ** 2)
            rows, cols = linear_sum_assignment(mat)
            # the padding columns hold capture^2, so they never pair
            paired = mat[rows, cols] < capture ** 2
            rows, cols = rows[paired], cols[paired]
            left[cols] = False
            p1 = positions[cols]
            cov = np.zeros((cols.size, 4, 4))
            cov[:, :2, :2] = pos_cov
            cov[:, :2, 2:] = pos_cov / dt
            cov[:, 2:, :2] = pos_cov / dt
            cov[:, 2:, 2:] = (self.init_covs[rows] + pos_cov) / (dt ** 2)
            # symmetric by construction: pos_cov and the initiators' are symmetrized
            born = np.concatenate([p1, (p1 - self.init_pos[rows]) / dt], axis=1), cov
        self._keep_and_add(self.misses < DELETE_MISSES, *born)
        self.init_pos = positions[left]
        self.init_covs = np.repeat(pos_cov[None], self.init_pos.shape[0], axis=0)
        return sorted(transmit)

    def _keep_and_add(self, keep: np.ndarray, means: np.ndarray, covs: np.ndarray):
        """Keep the track rows of the mask `keep`, then append newborn tracks
        (timestamp 0, two hits, unconfirmed) of these means and covariances."""
        k = means.shape[0]
        if k or not keep.all():
            self.means = np.concatenate([self.means[keep], means])
            self.covs = np.concatenate([self.covs[keep], covs])
            self.timestamps = np.concatenate([self.timestamps[keep], np.zeros(k, int)])
            self.hits = np.concatenate([self.hits[keep], np.full(k, 2)])
            self.misses = np.concatenate([self.misses[keep], np.zeros(k, int)])
            self.confirmed = np.concatenate([self.confirmed[keep], np.zeros(k, bool)])

    def _maintain(self, zs: np.ndarray, model: MeasurementModel, free: np.ndarray):
        """Predict, gate, assign and update every track in stacked calls.

        Clears `free` at the measurements taken and returns the indices of
        those taken by confirmed tracks (the sends).
        """
        m = zs.shape[0]
        means, covs = predict_stack(self.means, self.covs, self.motion)
        z_hat, s = innovation_stack(means, covs, model)
        c = cholesky(s, "innovation covariance")
        logdet = 2.0 * np.sum(np.log(np.diagonal(c, axis1=1, axis2=2)), axis=1)
        base = logdet + model.m * LOG_2PI
        gamma = chi2_gate(GATE_PROB, model.m)
        d2 = mahalanobis_sq(c[:, None], zs[None, :, :], z_hat[:, None, :])
        mat = padded_table(np.where(d2 <= gamma, 0.5 * (d2 + base[:, None]), BIG),
                           0.5 * (gamma + base))
        # rows is every track in order: the table has more columns than rows
        rows, cols = linear_sum_assignment(mat)
        hit = (cols < m) & (mat[rows, cols] < BIG)
        if np.any(hit):
            means[hit], covs[hit] = _update_with_innovation(
                means[hit], covs[hit], zs[cols[hit]], model, z_hat[hit], s[hit], c[hit])
        self.means, self.covs = means, covs
        self.timestamps = self.timestamps + 1
        self.hits = self.hits + hit
        self.misses = np.where(hit, 0, self.misses + 1)
        self.confirmed = self.confirmed | (hit & (self.hits >= CONFIRM_HITS))
        free[cols[hit]] = False
        return cols[hit & self.confirmed].tolist()


def _encoder(scan_data: Sequence[SensorScan], sent: Sequence[Sequence[int]],
             payload: str, clutter_rates: Sequence[float]):
    """One stacked transformation and one stacked factorization of the
    models of all these transmissions (see the module docstring). Returns
    pair(k), the (MeasurementBatch, ClutterModel) of transmission k in
    payload space, built when called."""
    clutters = [ClutterModel(rate, s.fov_volume)
                for s, rate in zip(scan_data, clutter_rates)]
    H = np.stack([s.model.H for s in scan_data])
    R = np.stack([s.model.R for s in scan_data])
    if payload == RAW:
        a = None
        factors = payload_factors(H, R, False)
    elif payload in (TYPE1, TYPE2):
        a, ht, rt, sqrt_det = (type1_stack if payload == TYPE1 else type2_stack)(H, R)
        factors = payload_factors(ht, rt, True)
    else:
        raise InputError(f"unknown payload kind: {payload!r}")

    def pair(k: int):
        s, idx, clutter = scan_data[k], sent[k], clutters[k]
        zs = s.zs[list(idx)] if len(idx) else np.zeros((0, s.model.m))
        if a is not None:
            zs = zs @ a[k].T
            clutter = ClutterModel(clutter.rate,
                                   clutter.region_volume * float(sqrt_det[k]))
        return (MeasurementBatch.from_factor(s.model.sensor_id, zs, factors[k], payload),
                clutter)

    return pair


def encode_batch(scan_data: SensorScan, sent: Sequence[int], payload: str,
                 clutter_rate: float):
    """Fusion-center view of one sensor's transmission for a payload arm.

    Returns (MeasurementBatch, ClutterModel) where both are expressed in
    the payload's measurement space; the batch carries its factor.
    """
    return _encoder([scan_data], [sent], payload, [clutter_rate])(0)


def encode_tape(cfg: ScenarioConfig, tapes, sends, payload: str):
    """`encode_batch` of every transmission of a tape, as one stacked pass.

    The stacked transformation and factorization run on the call; the
    returned iterator then gives, scan by scan, the list of (batch,
    clutter) pairs in sensor order, built as it reaches the scan.
    """
    scans = tapes["scans"]
    flat = [s for scan_list in scans for s in scan_list]
    pair = _encoder(flat, [idx for send_list in sends for idx in send_list], payload,
                    [cfg.sensors[s.sensor_id].clutter_rate for s in flat])
    starts = np.cumsum([0] + [len(scan_list) for scan_list in scans])
    return ([pair(k) for k in range(start, stop)]
            for start, stop in zip(starts[:-1].tolist(), starts[1:].tolist()))


@dataclass
class RunRecord:
    """Per-scan metric curves for one (run, payload, fusion) combination."""

    ospa: np.ndarray
    ospa2: np.ndarray
    card_est: np.ndarray
    card_true: np.ndarray
    comm_bytes: np.ndarray

    @property
    def mean_ospa(self) -> float:
        return float(np.mean(self.ospa))

    @property
    def mean_comm_bytes(self) -> float:
        return float(np.mean(self.comm_bytes))


def _fuse(cfg: ScenarioConfig, tapes, sends, payload: str,
          ospa_params: Optional[OspaParams], step) -> RunRecord:
    """Encode the tape, then per scan book the transmissions, run
    `step(scan, scan_list, pairs) -> [(label, position)]` on the scan's
    sensor outputs and encoded (batch, clutter) pairs, and score its
    estimates (OSPA, OSPA(2), cardinalities, bytes)."""
    params = ospa_params or OspaParams()
    truth = tapes["truth"]
    truth_tracks = {i: {s: x[:2] for s, x in traj.items()}
                    for i, traj in enumerate(truth)}
    ledger = CommLedger()
    est_history = TrackHistory()
    ospa2_cache: dict = {}
    rows = []  # per scan: OSPA, OSPA(2), estimated and true cardinality, bytes
    encoded = encode_tape(cfg, tapes, sends, payload)
    for scan, scan_list, sent_list, pairs in zip(
            range(1, cfg.duration + 1), tapes["scans"], sends, encoded):
        for scan_data, sent in zip(scan_list, sent_list):
            ledger.record(scan, scan_data.sensor_id, len(sent), payload,
                          scan_data.model.m, scan_data.model.n)
        estimates = step(scan, scan_list, pairs)
        for label, pos in estimates:
            est_history.record(label, scan, np.asarray(pos, dtype=float))
        est_pos = [pos for _, pos in estimates]
        truth_pos = [traj[scan][:2] for traj in truth if scan in traj]
        rows.append((ospa(est_pos, truth_pos, params),
                     ospa2(est_history, truth_tracks, scan, params, ospa2_cache),
                     len(est_pos), len(truth_pos), ledger.bytes_for_scan(scan)))
    columns = [np.array(c) for c in zip(*rows)] or [np.zeros(0)] * 5
    return RunRecord(*columns[:4], columns[4].astype(float))


def run_mda_fusion(cfg: ScenarioConfig, tapes, sends, payload: str,
                   mda_cfg: Optional[mda_mod.MdaConfig] = None,
                   ospa_params: Optional[OspaParams] = None) -> RunRecord:
    """Fuse a prepared measurement tape with the MDA pipeline."""
    mda_cfg = mda_cfg or mda_mod.MdaConfig()
    motion = motion_model(cfg)
    tracks, next_label = mda_mod.FusedTracks.empty(motion.n), 0

    def step(scan, scan_list, pairs):
        nonlocal tracks, next_label
        views = [mda_mod.SensorView.from_batch(
                     batch, cfg.sensors[scan_data.sensor_id].p_d, clutter)
                 for scan_data, (batch, clutter) in zip(scan_list, pairs)]
        tracks, next_label, _ = mda_mod.mda_pipeline_step(
            tracks, [batch for batch, _ in pairs], views, motion, mda_cfg,
            next_label, scan)
        confirmed = tracks.confirmed
        return list(zip(tracks.labels[confirmed].tolist(), tracks.means[confirmed, :2]))

    return _fuse(cfg, tapes, sends, payload, ospa_params, step)


def bp_inputs(cfg: ScenarioConfig, scan_list, pairs):
    """Per-sensor BP inputs of one scan: the sensor outputs `scan_list` and
    their encoded (batch, clutter) `pairs`, one item of `encode_tape`."""
    sensors = [cfg.sensors[scan_data.sensor_id] for scan_data in scan_list]
    return [bp_mod.BpSensorInput(batch, sensor.p_d, clutter,
                                 detect_fn=_fov_detect_fn(sensor.fov(), sensor.p_d))
            for sensor, (batch, clutter) in zip(sensors, pairs)]


def bp_rng_factory(seed: int, scan: int):
    """Stream factory shared by paired payload arms of one scan."""
    def rng_for(purpose, sensor):
        return rng_stream(seed, "bp", scan, sensor, purpose)
    return rng_for


def run_bp_fusion(cfg: ScenarioConfig, tapes, sends, payload: str, seed: int,
                  bp_cfg: Optional[bp_mod.BpConfig] = None,
                  ospa_params: Optional[OspaParams] = None,
                  trace_scans: Optional[dict] = None) -> RunRecord:
    """Fuse a prepared measurement tape with the BP pipeline.

    `seed` keys the in-pipeline streams; paired payload arms must pass the
    same value. When `trace_scans` is given, message traces are stored into
    it per scan index.
    """
    bp_cfg = bp_cfg or bp_mod.BpConfig()
    motion = motion_model(cfg)
    # the beliefs between scans; each step is handed the only reference to
    # them, so that its prediction frees the previous scan's arrays
    carried = [bp_mod.Beliefs.empty(bp_cfg.n_particles, motion.n)]

    def step(scan, scan_list, pairs):
        trace = [] if trace_scans is not None else None
        beliefs, estimates = bp_mod.bp_pipeline_step(
            carried.pop(), bp_inputs(cfg, scan_list, pairs), motion, bp_cfg,
            bp_rng_factory(seed, scan), scan, trace)
        carried.append(beliefs)
        if trace_scans is not None:
            trace_scans[scan] = trace
        return [(label, mean[:2]) for label, mean in estimates]

    return _fuse(cfg, tapes, sends, payload, ospa_params, step)


def _fov_detect_fn(fov: FieldOfView, p_d: float):
    def detect(positions: np.ndarray) -> np.ndarray:
        return p_d * fov.contains(positions).astype(float)
    return detect


def prepare_run(cfg: ScenarioConfig, seed: int):
    """Generate truth, measurements and the local trackers' transmissions.

    The returned (tapes, sends) pair is shared verbatim by every payload
    arm of a comparison.
    """
    truth = generate_truth(cfg, seed)
    motion = motion_model(cfg)
    trackers = [GnnTracker(motion, cfg.dt) for _ in cfg.sensors]
    scans = []
    sends = []
    for scan in range(1, cfg.duration + 1):
        scan_list = generate_measurements(truth, cfg, scan, seed)
        scans.append(scan_list)
        sends.append([trackers[s.sensor_id].step(s) for s in scan_list])
    return {"truth": truth, "scans": scans}, sends


def run_single(cfg: ScenarioConfig, fusion: str, payloads: Sequence[str],
               run_idx: int, base_seed: int,
               mda_cfg=None, bp_cfg=None, ospa_params=None):
    """One Monte Carlo run across payload arms sharing one realization."""
    seed = base_seed + run_idx
    tapes, sends = prepare_run(cfg, seed)
    out = {}
    for payload in payloads:
        if fusion == "mda":
            out[payload] = run_mda_fusion(cfg, tapes, sends, payload,
                                          mda_cfg, ospa_params)
        elif fusion == "bp":
            out[payload] = run_bp_fusion(cfg, tapes, sends, payload, seed,
                                         bp_cfg, ospa_params)
        else:
            raise InputError(f"unknown fusion kind: {fusion!r}")
    return out


def pool_size(workers: int, n_jobs: int) -> int:
    """Worker processes for n_jobs jobs: no more than requested, than there
    are jobs, or than the machine has CPUs."""
    return min(workers, n_jobs, os.cpu_count() or 1)


def monte_carlo_sweep(cfgs: Sequence[ScenarioConfig], fusion: str,
                      payloads: Sequence[str], runs: int, base_seed: int = 0,
                      mda_cfg=None, bp_cfg=None, ospa_params=None, workers: int = 1):
    """`run_single` over every (config, run index) job, in-process or in one
    pool of `pool_size(workers, jobs)` processes: one results[payload] per
    config, each a list of RunRecords in run order whatever `workers`."""
    if runs < 1:
        raise InputError("need at least one run")
    run = partial(run_single, base_seed=base_seed, mda_cfg=mda_cfg, bp_cfg=bp_cfg,
                  ospa_params=ospa_params)
    cfg_args = [cfg for cfg in cfgs for _ in range(runs)]
    args = (cfg_args, repeat(fusion), repeat(payloads), list(range(runs)) * len(cfgs))
    n_procs = pool_size(workers, len(cfg_args))
    if n_procs > 1:
        with futures.ProcessPoolExecutor(max_workers=n_procs) as pool:
            singles = list(pool.map(run, *args))
    else:
        singles = list(map(run, *args))
    return [{p: [single[p] for single in singles[k * runs:(k + 1) * runs]]
             for p in payloads} for k in range(len(cfgs))]


def monte_carlo(cfg: ScenarioConfig, fusion: str, payloads: Sequence[str],
                runs: int, base_seed: int = 0, mda_cfg=None, bp_cfg=None,
                ospa_params=None, workers: int = 1):
    """`monte_carlo_sweep` on one config: results[payload] is a list of
    RunRecords in run order."""
    return monte_carlo_sweep([cfg], fusion, payloads, runs, base_seed, mda_cfg,
                             bp_cfg, ospa_params, workers)[0]
