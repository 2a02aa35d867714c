"""Scenario generation, the local GNN tracker, and harness determinism."""

import dataclasses
import itertools
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from trackfuse import bp as bp_mod
from trackfuse import mda as mda_mod
from trackfuse import sim as sim_mod
from trackfuse.errors import InputError, NumericsError
from trackfuse.linalg import chi2_gate, symmetrize
from trackfuse.models import GaussianEstimate, innovation, predict, update_raw
from trackfuse.sim import (
    BIG,
    FieldOfView,
    GnnTracker,
    SensorConfig,
    SensorScan,
    TargetConfig,
    generate_measurements,
    generate_truth,
    monte_carlo,
    motion_model,
    prepare_run,
    rng_stream,
    RunRecord,
    ScenarioConfig,
    run_bp_fusion,
    run_mda_fusion,
    run_single,
    scenario1,
    scenario2,
)
from trackfuse.models import MeasurementModel


class TestTruth:
    def test_noise_free_straight_line(self):
        cfg = scenario1()
        cfg_q0 = cfg.with_overrides()
        cfg_q0.q = 0.0
        truth = generate_truth(cfg_q0, seed=1)
        traj = truth[0]
        x0 = traj[1]
        for scan in (10, 50, 100):
            np.testing.assert_allclose(traj[scan][:2],
                                       x0[:2] + (scan - 1) * x0[2:],
                                       atol=1e-9)

    def test_scenario1_lifetimes(self):
        truth = generate_truth(scenario1(), seed=2)
        assert set(truth[0]) == set(range(1, 101))
        assert set(truth[1]) == set(range(1, 101))
        assert set(truth[2]) == set(range(10, 81))

    def test_scenario2_lifetimes(self):
        truth = generate_truth(scenario2(), seed=3)
        spans = [(1, 100)] * 3 + [(20, 60)] * 3 + [(40, 80)] * 4
        for traj, (birth, death) in zip(truth, spans):
            assert min(traj) == birth and max(traj) == death


class TestMeasurements:
    def test_no_detection_no_clutter(self):
        cfg = scenario1().with_overrides(clutter_rate=1e-12)
        for s in cfg.sensors:
            s.p_d = 1e-12
        truth = generate_truth(cfg, seed=4)
        empty = all(s.n_meas == 0
                    for scan in (1, 25, 50)
                    for s in generate_measurements(truth, cfg, scan, seed=4))
        assert empty

    def test_out_of_range_target_never_detected(self):
        cfg = scenario1()
        cfg.targets = cfg.targets[:1]
        cfg.targets[0].initial_state = np.array([0.0, 3000.0, 0.0, 0.0])
        cfg = cfg.with_overrides(clutter_rate=1e-12)
        truth = generate_truth(cfg, seed=5)
        for scan in range(1, 30):
            for s in generate_measurements(truth, cfg, scan, seed=5):
                assert s.n_meas == 0

    def test_clutter_count_mean(self):
        cfg = scenario1().with_overrides(clutter_rate=10.0)
        for s in cfg.sensors:
            s.p_d = 1e-12
        truth = generate_truth(cfg, seed=6)
        counts = []
        for rep in range(100):
            for scan in range(1, 101):
                scans = generate_measurements(truth, cfg, scan,
                                              seed=1000 + rep)
                counts.extend(s.n_meas for s in scans)
        mean = float(np.mean(counts))
        # LLN: 2e4 draws of Poisson(10), 3 sigma band
        assert abs(mean - 10.0) <= 3.0 * math.sqrt(10.0 / len(counts))

    def test_fov_soundness(self):
        cfg = scenario1().with_overrides(clutter_rate=1e-12)
        truth = generate_truth(cfg, seed=7)
        for scan in (1, 40, 80):
            alive = np.array([t[scan][:2] for t in truth if scan in t])
            for s in generate_measurements(truth, cfg, scan, seed=7):
                fov = cfg.sensors[s.sensor_id].fov()
                inside = alive[fov.contains(alive)]
                e_inv = np.linalg.inv(s.E)
                for z in s.zs:
                    pos = e_inv @ z
                    d = np.linalg.norm(inside - pos, axis=1).min()
                    assert d < 50.0  # noise only, sigma ~ 5

    def test_measurements_deterministic(self):
        cfg = scenario1()
        truth = generate_truth(cfg, seed=8)
        a = generate_measurements(truth, cfg, 10, seed=8)
        b = generate_measurements(truth, cfg, 10, seed=8)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.zs, sb.zs)
            np.testing.assert_array_equal(sa.model.H, sb.model.H)


def reference_measurements(truth, cfg, scan, seed):
    """`generate_measurements` with one FoV test and one checked model per
    target and sensor, and the detections and clutter gathered in a list."""
    scans = []
    alive = [traj[scan] for traj in truth if scan in traj]
    for sensor_id, sc in enumerate(cfg.sensors):
        rng = rng_stream(seed, "meas", scan, sensor_id)
        theta = rng.uniform(sim_mod.THETA_RANGE[0], sim_mod.THETA_RANGE[1], 2)
        vartheta = rng.uniform(sim_mod.VARTHETA_RANGE[0], sim_mod.VARTHETA_RANGE[1], 2)
        e = np.diag(1.0 + theta)
        h = np.hstack([e, np.zeros((2, 2))])
        r = np.diag(cfg.sigma ** 2 + vartheta)
        model = MeasurementModel(h, r, sensor_id)
        fov = sc.fov()
        zs = []
        chol_r = np.linalg.cholesky(r)
        for x in alive:
            if not fov.contains(x[:2])[0]:
                continue
            if rng.random() <= sc.p_d:
                zs.append(h @ x + chol_r @ rng.standard_normal(2))
        n_clutter = rng.poisson(sc.clutter_rate)
        if n_clutter:
            zs.extend(list(fov.sample(rng, n_clutter) @ e.T))
        zs = np.array(zs) if zs else np.zeros((0, 2))
        if len(zs):
            zs = zs[rng.permutation(len(zs))]
        volume = fov.area * float(np.linalg.det(e))
        scans.append(SensorScan(sensor_id, zs, model, e, volume))
    return scans


class TestMeasurementsMatchReference:
    """`generate_measurements` equals the per-target reference bit for bit."""

    @staticmethod
    def _facing_pair(p_d, clutter_rate):
        # Two sensors 1200 m apart, each looking at the other: one still
        # target sits on sensor 0's apex and exactly at sensor 1's range,
        # the other the reverse. Both are born at scan 3, so scans 1 and 2
        # have no alive target; q = 0 keeps them in place.
        sensors = [SensorConfig(np.array([0.0, 0.0]), 0.0, math.pi / 4, 1200.0,
                                p_d, clutter_rate),
                   SensorConfig(np.array([1200.0, 0.0]), math.pi, math.pi / 4, 1200.0,
                                p_d, clutter_rate)]
        targets = [TargetConfig(3, 12, [0.0, 0.0, 0.0, 0.0]),
                   TargetConfig(3, 12, [1200.0, 0.0, 0.0, 0.0]),
                   TargetConfig(3, 12, [600.0, 900.0, 0.0, 0.0])]
        return ScenarioConfig(duration=12, dt=1.0, q=0.0, sigma=5.0,
                              sensors=sensors, targets=targets)

    @staticmethod
    def _assert_same(scans, ref):
        assert len(scans) == len(ref)
        for a, b in zip(scans, ref):
            assert a.sensor_id == b.sensor_id == a.model.sensor_id == b.model.sensor_id
            np.testing.assert_array_equal(a.zs, b.zs)
            assert a.zs.shape == b.zs.shape
            for x, y in ((a.model.H, b.model.H), (a.model.R, b.model.R), (a.E, b.E)):
                np.testing.assert_array_equal(x, y)
            assert a.fov_volume == b.fov_volume

    @pytest.mark.parametrize("p_d, clutter_rate", [(1.0, 0.0), (0.6, 0.0), (0.9, 6.0)])
    def test_edge_targets_match_reference(self, p_d, clutter_rate):
        cfg = self._facing_pair(p_d, clutter_rate)
        fov0, fov1 = (s.fov() for s in cfg.sensors)
        apex, rim = np.array([[0.0, 0.0]]), np.array([[1200.0, 0.0]])
        assert fov0.contains(apex)[0] and fov1.contains(rim)[0]
        assert fov0.contains(rim)[0] and fov1.contains(apex)[0]
        detected = 0
        for seed in range(3):
            truth = generate_truth(cfg, seed)
            assert all(np.array_equal(traj[12][:2], traj[3][:2]) for traj in truth)
            for scan in range(1, cfg.duration + 1):
                scans = generate_measurements(truth, cfg, scan, seed)
                self._assert_same(scans, reference_measurements(truth, cfg, scan, seed))
                if scan < 3 and clutter_rate == 0.0:
                    assert all(s.n_meas == 0 for s in scans)
                detected += sum(s.n_meas for s in scans)
        # p_d = 1 and no clutter: both edge targets seen by both sensors
        if (p_d, clutter_rate) == (1.0, 0.0):
            assert detected == 3 * 10 * 2 * 2
        assert detected > 0

    @pytest.mark.parametrize("cfg, seed", [
        (scenario1().with_overrides(clutter_rate=40.0), 0),
        (scenario2(), 1),
    ])
    def test_paper_scenarios_match_reference(self, cfg, seed):
        truth = generate_truth(cfg, seed)
        for scan in (1, 10, 45, 90, 100):
            self._assert_same(generate_measurements(truth, cfg, scan, seed),
                              reference_measurements(truth, cfg, scan, seed))


def reference_contains(fov, points):
    """Wedge membership by the complex-exponential angle wrap, plus the
    wrapped bearing offset of every point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rel = pts - fov.origin
    rng = np.hypot(rel[:, 0], rel[:, 1])
    bearing = np.arctan2(rel[:, 1], rel[:, 0])
    dber = np.angle(np.exp(1j * (bearing - fov.boresight)))
    return (rng <= fov.max_range) & (np.abs(dber) <= fov.half_angle), dber


class TestFieldOfView:
    @settings(max_examples=200, deadline=None)
    @given(origin=st.tuples(st.floats(-2000, 2000), st.floats(-2000, 2000)),
           boresight=st.floats(-math.pi, math.pi),
           half_angle=st.floats(1e-6, math.pi),
           max_range=st.floats(1.0, 3000.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_angle_wrap_away_from_the_edge(
            self, origin, boresight, half_angle, max_range, seed):
        fov = FieldOfView(np.array(origin), boresight, half_angle, max_range)
        rng = np.random.default_rng(seed)
        offsets = np.concatenate([
            rng.uniform(-math.pi, math.pi, 300),
            # just inside and just outside both edges
            np.outer([-1.0, 1.0], half_angle + np.array(
                [-1e-3, -1e-6, -1e-8, 1e-8, 1e-6, 1e-3])).ravel(),
        ])
        radii = max_range * rng.uniform(0.0, 1.5, offsets.size)
        bearings = boresight + offsets
        pts = fov.origin + np.column_stack([radii * np.cos(bearings),
                                            radii * np.sin(bearings)])
        expected, dber = reference_contains(fov, pts)
        far = ((np.abs(np.abs(dber) - half_angle) > 1e-9)
               & np.any(pts != fov.origin, axis=1))
        np.testing.assert_array_equal(fov.contains(pts)[far], expected[far])

    @settings(max_examples=200, deadline=None)
    @given(origin=st.one_of(st.just((0.0, 0.0)),
                            st.tuples(st.floats(-2000, 2000), st.floats(-2000, 2000))),
           max_range=st.one_of(st.floats(1e-3, 1e6),
                               st.sampled_from((1e-120, 1e-100, 1e100, 1e120))),
           seed=st.integers(0, 2 ** 32 - 1),
           # below and above RANGE_SQUARED_MIN_POINTS in all
           n_ring=st.sampled_from((2, 300)))
    def test_range_test_equals_hypot_rule(self, origin, max_range, seed, n_ring):
        # half_angle = pi leaves the range test alone
        fov = FieldOfView(np.array(origin), 0.3, math.pi, max_range)
        rng = np.random.default_rng(seed)
        ang = rng.uniform(-math.pi, math.pi, n_ring)
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        on = max_range * ring
        offsets = [max_range * rng.uniform(0.0, 1.5, (n_ring, 1)) * ring, on,
                   max_range * np.array([[1.0, 0.0], [0.6, 0.8], [-0.8, 0.6]])]
        # one to three ulps inside and outside the circle
        for direction in (0.0, np.inf):
            step = on
            for _ in range(3):
                step = np.nextafter(step, np.copysign(direction, on) if direction else 0.0)
                offsets.append(step)
        pts = fov.origin + np.concatenate(offsets)
        x, y = pts[:, 0] - fov.origin[0], pts[:, 1] - fov.origin[1]
        np.testing.assert_array_equal(fov.contains(pts), np.hypot(x, y) <= max_range)

    def test_full_disc_at_half_angle_pi(self):
        fov = FieldOfView(np.array([3.0, -2.0]), 0.7, math.pi, 100.0)
        ang = np.linspace(-math.pi, math.pi, 73)
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        assert fov.contains(fov.origin + 99.0 * ring).all()
        assert not fov.contains(fov.origin + 101.0 * ring).any()

    @pytest.mark.parametrize("boresight", [math.pi, -math.pi])
    def test_boresight_at_plus_minus_pi(self, boresight):
        fov = FieldOfView(np.zeros(2), boresight, math.pi / 4, 100.0)
        pts = np.array([[-50.0, 0.0], [-50.0, 1e-3], [-50.0, -1e-3],
                        [-50.0, 49.0], [-50.0, -49.0], [-50.0, 51.0],
                        [50.0, 0.0], [0.0, 50.0]])
        np.testing.assert_array_equal(
            fov.contains(pts), [True, True, True, True, True, False, False, False])
        np.testing.assert_array_equal(fov.contains(pts),
                                      reference_contains(fov, pts)[0])

    def test_points_on_the_range_circle(self):
        # Pythagorean points lie exactly on the circle of radius 5
        fov = FieldOfView(np.zeros(2), 0.0, math.pi / 2 - 0.1, 5.0)
        pts = np.array([[5.0, 0.0], [3.0, 4.0], [4.0, -3.0], [-3.0, 4.0],
                        [3.0, 4.000001]])
        np.testing.assert_array_equal(fov.contains(pts),
                                      [True, True, True, False, False])
        np.testing.assert_array_equal(fov.contains(pts),
                                      reference_contains(fov, pts)[0])

    @pytest.mark.parametrize("boresight", [0.0, 2.0, math.pi, -math.pi / 2])
    @pytest.mark.parametrize("half_angle", [1e-3, math.pi / 4, math.pi])
    def test_sensor_origin_is_inside(self, boresight, half_angle):
        fov = FieldOfView(np.array([10.0, -4.0]), boresight, half_angle, 50.0)
        assert fov.contains(fov.origin)[0]

    @pytest.mark.parametrize("cfg, seeds", [
        (scenario1().with_overrides(clutter_rate=40.0), (0, 1)),
        (scenario2(), (0,)),
    ])
    def test_tapes_match_angle_wrap(self, monkeypatch, cfg, seeds):
        for seed in seeds:
            tapes, sends = prepare_run(cfg, seed)
            with monkeypatch.context() as patched:
                patched.setattr(FieldOfView, "contains",
                                lambda fov, pts: reference_contains(fov, pts)[0])
                ref_tapes, ref_sends = prepare_run(cfg, seed)
            assert sends == ref_sends
            for scans, ref_scans in zip(tapes["scans"], ref_tapes["scans"]):
                for scan, ref in zip(scans, ref_scans):
                    np.testing.assert_array_equal(scan.zs, ref.zs)
                    np.testing.assert_array_equal(scan.E, ref.E)

    def test_wedge_membership(self):
        fov = FieldOfView(np.zeros(2), 0.0, math.pi / 4, 100.0)
        assert fov.contains(np.array([[50.0, 0.0]]))[0]
        assert not fov.contains(np.array([[150.0, 0.0]]))[0]
        assert not fov.contains(np.array([[0.0, 50.0]]))[0]

    def test_sampling_stays_inside(self):
        fov = FieldOfView(np.array([5.0, -3.0]), 1.1, math.pi / 4, 200.0)
        pts = fov.sample(np.random.default_rng(9), 2000)
        assert fov.contains(pts).all()

    def test_area(self):
        fov = FieldOfView(np.zeros(2), 0.0, math.pi / 4, 1200.0)
        assert fov.area == pytest.approx(math.pi / 4 * 1200.0 ** 2)


def _scan(zs, model, e, volume=1.0e6):
    return SensorScan(model.sensor_id, np.atleast_2d(zs) if len(zs) else
                      np.zeros((0, 2)), model, e, volume)


class TestGnnTracker:
    def _tracker(self):
        cfg = scenario1()
        return GnnTracker(motion_model(cfg), cfg.dt), MeasurementModel(
            np.hstack([np.eye(2), np.zeros((2, 2))]), 25.0 * np.eye(2), 0)

    def test_single_track_single_gated_measurement(self):
        tracker, model = self._tracker()
        seed_tracks(tracker, [(GaussianEstimate(
            [0.0, 0.0, 1.0, 0.0], np.diag([10.0, 10.0, 2.0, 2.0])), 4, 0, True)])
        sent = tracker.step(_scan(np.array([[1.1, 0.2]]), model, np.eye(2)))
        assert sent == [0]
        assert tracker.hits[0] == 5

    def test_track_deleted_after_three_empty_scans(self):
        tracker, model = self._tracker()
        seed_tracks(tracker, [(GaussianEstimate(
            [0.0, 0.0, 0.0, 0.0], np.diag([4.0] * 4)), 4, 0, True)])
        for _ in range(3):
            tracker.step(_scan([], model, np.eye(2)))
        assert len(tracker.means) == 0

    def test_two_point_initiation_and_confirmation(self):
        tracker, model = self._tracker()
        pos = np.array([10.0, 20.0])
        vel = np.array([3.0, -1.0])
        for k in range(5):
            z = pos + k * vel
            tracker.step(_scan(z[None, :], model, np.eye(2)))
        assert len(tracker.means) == 1
        assert tracker.confirmed[0]
        np.testing.assert_allclose(tracker.means[0][2:], vel, atol=1.0)

    def test_crossing_assignment_matches_enumeration(self):
        tracker, model = self._tracker()
        from trackfuse.models import innovation
        from trackfuse.transform import gaussian_log_likelihood
        ests = [GaussianEstimate([0.0, 0.0, 0.0, 0.0], np.diag([9.0] * 4)),
                GaussianEstimate([30.0, 0.0, 0.0, 0.0], np.diag([9.0] * 4))]
        seed_tracks(tracker, [(GaussianEstimate(est.mean.copy(), est.cov.copy()),
                               4, 0, True) for est in ests])
        zs = np.array([[2.0, 1.0], [28.0, -1.0]])
        sent = tracker.step(_scan(zs, model, np.eye(2)))
        # brute force over the two permutations on predicted tracks
        best, best_perm = np.inf, None
        motion = motion_model(scenario1())
        for perm in itertools.permutations(range(2)):
            total = 0.0
            for t_idx, m_idx in enumerate(perm):
                pred = GaussianEstimate(motion.F @ ests[t_idx].mean,
                                        motion.F @ ests[t_idx].cov
                                        @ motion.F.T + motion.Q)
                z_hat, s = innovation(pred, model)
                total += -gaussian_log_likelihood(zs[m_idx], z_hat, s)
            if total < best:
                best, best_perm = total, perm
        assert best_perm == (0, 1)
        assert sent == [0, 1]
        np.testing.assert_allclose(tracker.means[0][:2], [2.0, 1.0], atol=2.0)


def seed_tracks(tracker, tracks):
    """Set a tracker's track arrays to (estimate, hits, misses, confirmed)
    tracks, row by row."""
    tracker.means = np.array([est.mean for est, *_ in tracks]).reshape(-1, 4)
    tracker.covs = np.array([est.cov for est, *_ in tracks]).reshape(-1, 4, 4)
    tracker.timestamps = np.array([est.timestamp for est, *_ in tracks], dtype=int)
    tracker.hits = np.array([t[1] for t in tracks], dtype=int)
    tracker.misses = np.array([t[2] for t in tracks], dtype=int)
    tracker.confirmed = np.array([t[3] for t in tracks], dtype=bool)


def reference_gnn_step(tracker, scan_data):
    """The per-track GNN scan the stacked `GnnTracker.step` replaced: one
    predict, innovation, Cholesky and update call per track, on one record
    per track and per initiator read from the tracker's arrays and written
    back to them at the end."""
    zs, model = scan_data.zs, scan_data.model
    m = zs.shape[0]
    tracks = [SimpleNamespace(est=GaussianEstimate._trusted(mean, cov, stamp),
                              hits=hits, misses=misses, confirmed=confirmed)
              for mean, cov, stamp, hits, misses, confirmed in zip(
                  tracker.means, tracker.covs, tracker.timestamps.tolist(),
                  tracker.hits.tolist(), tracker.misses.tolist(),
                  tracker.confirmed.tolist())]
    initiators = list(zip(tracker.init_pos, tracker.init_covs))
    for t in tracks:
        t.est = predict(t.est, tracker.motion)

    gamma = chi2_gate(sim_mod.GATE_PROB, model.m)
    assigned_meas = set()
    transmit = []
    if tracks:
        n_t = len(tracks)
        mat = np.full((n_t, m + n_t), BIG)
        for ti, t in enumerate(tracks):
            z_hat, s = innovation(t.est, model)
            c = np.linalg.cholesky(s)
            logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
            base = logdet + model.m * math.log(2.0 * math.pi)
            if m:
                y = np.linalg.solve(c, (zs - z_hat).T)
                d2 = np.sum(y * y, axis=0)
                inside = d2 <= gamma
                mat[ti, :m][inside] = 0.5 * (d2[inside] + base)
            mat[ti, m + ti] = 0.5 * (gamma + base)
        rows, cols = linear_sum_assignment(mat)
        for ti, col in zip(rows, cols):
            t = tracks[ti]
            if col < m and mat[ti, col] < BIG:
                t.est = update_raw(t.est, zs[col], model)
                t.hits += 1
                t.misses = 0
                assigned_meas.add(int(col))
                if t.hits >= sim_mod.CONFIRM_HITS:
                    t.confirmed = True
                if t.confirmed:
                    transmit.append(int(col))
            else:
                t.misses += 1
    tracks = [t for t in tracks if t.misses < sim_mod.DELETE_MISSES]

    leftovers = [i for i in range(m) if i not in assigned_meas]
    e_inv = np.linalg.inv(scan_data.E)
    pos_cov = symmetrize(e_inv @ model.R @ e_inv.T)
    positions = zs[leftovers] @ e_inv.T if leftovers else np.zeros((0, 2))

    paired = set()
    if initiators and leftovers:
        capture = sim_mod.CAPTURE_SPEED * tracker.dt + 4.0 * math.sqrt(
            float(np.max(np.linalg.eigvalsh(2.0 * pos_cov))))
        n_i = len(initiators)
        mat = np.full((n_i, len(leftovers) + n_i), capture ** 2)
        for ii, (p0, c0) in enumerate(initiators):
            d = np.linalg.norm(positions - p0, axis=1)
            ok = d <= capture
            mat[ii, :len(leftovers)][ok] = d[ok] ** 2
        rows, cols = linear_sum_assignment(mat)
        for ii, col in zip(rows, cols):
            if col >= len(leftovers) or mat[ii, col] >= capture ** 2:
                continue
            p0, c0 = initiators[ii]
            p1 = positions[col]
            vel = (p1 - p0) / tracker.dt
            mean = np.concatenate([p1, vel])
            cov = np.zeros((4, 4))
            cov[:2, :2] = pos_cov
            cov[:2, 2:] = pos_cov / tracker.dt
            cov[2:, :2] = pos_cov / tracker.dt
            cov[2:, 2:] = (c0 + pos_cov) / (tracker.dt ** 2)
            tracks.append(SimpleNamespace(est=GaussianEstimate(mean, cov), hits=2,
                                          misses=0, confirmed=False))
            paired.add(int(col))

    seed_tracks(tracker, [(t.est, t.hits, t.misses, t.confirmed) for t in tracks])
    unpaired = [j for j in range(len(leftovers)) if j not in paired]
    tracker.init_pos = np.array([positions[j] for j in unpaired]).reshape(-1, 2)
    tracker.init_covs = np.array([pos_cov for _ in unpaired]).reshape(-1, 2, 2)
    return sorted(transmit)


def assert_same_trackers(a, b):
    """Bitwise equality of two trackers' tracks and initiators."""
    assert len(a.means) == len(b.means)
    for name in ("hits", "misses", "confirmed", "timestamps"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist()
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.covs, b.covs)
    assert len(a.init_pos) == len(b.init_pos)
    np.testing.assert_array_equal(a.init_pos, b.init_pos)
    np.testing.assert_array_equal(a.init_covs, b.init_covs)


def position_only_model(r=25.0):
    return MeasurementModel(np.hstack([np.eye(2), np.zeros((2, 2))]),
                            r * np.eye(2), 0)


def run_both(tracks, scans):
    """Step a stacked and a reference tracker, both seeded with `tracks`,
    through `scans`, asserting equal sends and states after every step."""
    cfg = scenario1()
    pair = [GnnTracker(motion_model(cfg), cfg.dt) for _ in range(2)]
    for tracker in pair:
        seed_tracks(tracker, tracks)
    stacked, reference = pair
    for scan_data in scans:
        assert stacked.step(scan_data) == reference_gnn_step(reference, scan_data)
        assert_same_trackers(stacked, reference)
    return stacked


class TestStackedGnnStep:
    def test_scenario1_clutter40_tape_matches_reference(self):
        cfg = scenario1().with_overrides(clutter_rate=40.0)
        truth = generate_truth(cfg, seed=3)
        pairs = [(GnnTracker(motion_model(cfg), cfg.dt),
                  GnnTracker(motion_model(cfg), cfg.dt)) for _ in cfg.sensors]
        sent = 0
        for scan in range(1, cfg.duration + 1):
            for s in generate_measurements(truth, cfg, scan, seed=3):
                stacked, reference = pairs[s.sensor_id]
                out = stacked.step(s)
                assert out == reference_gnn_step(reference, s)
                assert_same_trackers(stacked, reference)
                sent += len(out)
        assert sent > 100

    def _track(self, pos, vel=(0.0, 0.0), var=9.0, hits=4, misses=0):
        return (GaussianEstimate(np.concatenate([pos, vel]), np.diag([var] * 4)),
                hits, misses, hits >= 4)

    @pytest.mark.parametrize("case", [
        "no tracks", "no measurements", "all gated out", "third miss",
        "initiation", "crossing"])
    def test_edge_cases_match_reference(self, case):
        model = position_only_model()
        far = np.array([[5000.0, 5000.0], [-4000.0, 300.0]])
        tracks = [self._track([0.0, 0.0], [1.0, 0.0]),
                  self._track([40.0, 0.0], [-1.0, 0.0], misses=1)]
        if case == "no tracks":
            tracks, zs = [], [np.array([[1.0, 2.0], [50.0, 9.0]])] * 2
        elif case == "no measurements":
            zs = [np.zeros((0, 2))] * 3
        elif case == "all gated out":
            zs = [far, far + 10.0]
        elif case == "third miss":
            tracks = [self._track([0.0, 0.0], misses=2)]
            zs = [np.zeros((0, 2))]
        elif case == "initiation":
            tracks = []
            zs = [np.array([[10.0, 20.0]]), np.array([[13.0, 19.0]]),
                  np.array([[16.0, 18.0]])]
        else:
            tracks = [self._track([0.0, 0.0], [4.0, 0.0]),
                      self._track([12.0, 0.0], [-4.0, 0.0])]
            zs = [np.array([[9.0, 0.5], [3.0, -0.5]]),
                  np.array([[5.5, 0.0], [6.5, 0.0]]),
                  np.array([[10.0, 0.0], [2.0, 0.0]])]
        last = run_both(tracks, [_scan(z, model, np.eye(2)) for z in zs])
        if case == "third miss":
            assert len(last.means) == 0
        if case == "initiation":
            assert len(last.means) == 1 and last.hits[0] == 3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_tracks=st.integers(0, 5),
           counts=st.lists(st.integers(0, 6), min_size=1, max_size=4),
           near=st.floats(0.0, 1.0))
    def test_random_scans_match_reference(self, seed, n_tracks, counts, near):
        rng = np.random.default_rng(seed)
        model = MeasurementModel(np.hstack([np.diag(1.0 + rng.uniform(-0.02, 0.02, 2)),
                                            np.zeros((2, 2))]),
                                 np.diag(25.0 + rng.uniform(0.0, 1.0, 2)), 0)
        tracks = [(GaussianEstimate(np.concatenate([rng.uniform(-100, 100, 2),
                                                    rng.uniform(-5, 5, 2)]),
                                    np.diag(rng.uniform(1.0, 50.0, 4)),
                                    int(rng.integers(0, 10))),
                   int(rng.integers(1, 6)), int(rng.integers(0, 3)),
                   bool(rng.random() < 0.5)) for _ in range(n_tracks)]
        anchors = np.array([est.mean[:2] for est, *_ in tracks]).reshape(-1, 2)
        scans = []
        for count in counts:
            zs = rng.uniform(-150, 150, (count, 2))
            # a share of the measurements lands next to a track
            close = rng.random(count) < near
            if anchors.size and close.any():
                zs[close] = (anchors[rng.integers(0, len(anchors), close.sum())]
                             + rng.normal(0.0, 5.0, (close.sum(), 2)))
            scans.append(_scan(zs, model, model.H[:, :2]))
        run_both(tracks, scans)

    def test_non_pd_innovation_raises_typed_error(self):
        tracker = GnnTracker(motion_model(scenario1()), 1.0)
        seed_tracks(tracker, [(GaussianEstimate(
            [0.0, 0.0, 0.0, 0.0], -100.0 * np.eye(4)), 4, 0, True)])
        with pytest.raises(NumericsError, match="innovation covariance"):
            tracker.step(_scan(np.array([[1.0, 1.0]]), position_only_model(),
                               np.eye(2)))


class TestHarness:
    def test_run_single_deterministic(self):
        cfg = scenario1()
        a = run_single(cfg, "mda", ["raw"], 0, base_seed=5)
        b = run_single(cfg, "mda", ["raw"], 0, base_seed=5)
        np.testing.assert_array_equal(a["raw"].ospa, b["raw"].ospa)
        np.testing.assert_array_equal(a["raw"].comm_bytes, b["raw"].comm_bytes)

    def test_payload_arms_share_realizations(self):
        cfg = scenario1()
        out = run_single(cfg, "mda", ["raw", "type1", "type2"], 0,
                         base_seed=11)
        np.testing.assert_allclose(out["raw"].ospa, out["type2"].ospa,
                                   atol=1e-8)
        np.testing.assert_allclose(out["raw"].ospa, out["type1"].ospa,
                                   atol=1e-8)
        np.testing.assert_array_equal(out["raw"].card_est,
                                      out["type2"].card_est)

    def test_comm_ordering(self):
        cfg = scenario1()
        out = run_single(cfg, "mda", ["raw", "type1", "type2"], 0,
                         base_seed=12)
        assert out["raw"].mean_comm_bytes > out["type1"].mean_comm_bytes
        assert out["type1"].mean_comm_bytes > out["type2"].mean_comm_bytes

    @pytest.mark.parametrize("fusion", ["mda", "bp"])
    def test_zero_clutter_rate_is_refused_with_a_typed_error(self, fusion):
        # a zero rate used to reach math.log(rate) in the fusion's scores and
        # end in its untyped ValueError
        cfg = scenario1().with_overrides(clutter_rate=0.0)
        cfg.duration = 8
        tapes, sends = prepare_run(cfg, 3)
        assert any(any(sent) for sent in sends)
        with pytest.raises(InputError, match="clutter rate"):
            if fusion == "mda":
                run_mda_fusion(cfg, tapes, sends, "raw")
            else:
                run_bp_fusion(cfg, tapes, sends, "raw", 3, bp_mod.BpConfig(n_particles=20))

    def test_monte_carlo_shapes(self):
        cfg = scenario1()
        res = monte_carlo(cfg, "mda", ["raw"], runs=2, base_seed=0)
        assert len(res["raw"]) == 2
        assert res["raw"][0].ospa.shape == (100,)

    def test_monte_carlo_pool_matches_serial(self):
        cfg = scenario1()
        cfg.duration = 10
        serial, pooled = (monte_carlo(cfg, "mda", ["raw", "type2"], runs=2, base_seed=5,
                                      workers=workers) for workers in (1, 2))
        assert list(pooled) == ["raw", "type2"]
        for payload, records in serial.items():
            assert len(pooled[payload]) == len(records) == 2
            for a, b in zip(records, pooled[payload]):
                for field in dataclasses.fields(a):
                    assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_bp_scan_frees_the_previous_scans_blocks(self, monkeypatch):
        # the fusion loop keeps no reference to the beliefs that the last
        # scan returned, so the next scan's prediction frees their arrays
        cfg = scenario1()
        cfg.duration = 8
        tapes, sends = prepare_run(cfg, 3)
        prune, evaluate = bp_mod.declare_estimate_prune, bp_mod.measurement_evaluation
        returned = []      # weakrefs to the last scan's arrays
        checked = []       # (arrays returned, arrays alive) per evaluation

        def recording_prune(beliefs, bp_cfg):
            estimates, out = prune(beliefs, bp_cfg)
            returned[:] = ([weakref.ref(out.particles), weakref.ref(out.weights)]
                           if len(out) else [])
            return estimates, out

        def checking_evaluation(*args):
            checked.append((len(returned), sum(r() is not None for r in returned)))
            return evaluate(*args)

        monkeypatch.setattr(bp_mod, "declare_estimate_prune", recording_prune)
        monkeypatch.setattr(bp_mod, "measurement_evaluation", checking_evaluation)
        run_bp_fusion(cfg, tapes, sends, "raw", 3, bp_mod.BpConfig(n_particles=50))
        assert sum(n for n, _ in checked) > 0
        assert [alive for _, alive in checked] == [0] * len(checked)

    @pytest.mark.parametrize("fusion", ["mda", "bp"])
    def test_fusion_loop_calls_the_module_step_once_per_scan(self, monkeypatch, fusion):
        # the benchmark times the scans and hands turns between payload arms
        # by patching the engine step into its module, so the loop has to
        # look the step up there at every scan
        cfg = scenario1()
        cfg.duration = 12
        tapes, sends = prepare_run(cfg, 7)
        if fusion == "mda":
            module, name = mda_mod, "mda_pipeline_step"
            fuse = lambda: run_mda_fusion(cfg, tapes, sends, "type2")
        else:
            module, name = bp_mod, "bp_pipeline_step"
            fuse = lambda: run_bp_fusion(cfg, tapes, sends, "type2", 7,
                                         bp_mod.BpConfig(n_particles=50))
        plain = fuse()
        step, calls = getattr(module, name), []

        def counting(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        counted = fuse()
        assert len(calls) == cfg.duration
        for f in dataclasses.fields(RunRecord):
            np.testing.assert_array_equal(getattr(counted, f.name),
                                          getattr(plain, f.name))
        assert plain.card_est.any()

    def test_rng_stream_independence_and_reproducibility(self):
        a = rng_stream(5, "x", 1).standard_normal(4)
        b = rng_stream(5, "x", 1).standard_normal(4)
        c = rng_stream(5, "x", 2).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)
