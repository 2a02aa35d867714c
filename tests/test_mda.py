"""Association scoring, assignment solvers, and the MDA pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import paired_views, position_model, random_track
from trackfuse import mda as mda_mod
from trackfuse.checks import (
    constraint_violations,
    enumerate_assignment_minimum,
    random_maintenance_problem,
)
from trackfuse.errors import InconsistentTransformError, UnobservableHypothesisError
from trackfuse.mda import (
    BIG,
    EXACT_MAX_GROUPS,
    AssignmentProblem,
    Candidate,
    HypothesisCost,
    MdaConfig,
    MdaTrack,
    SensorView,
    build_initiation_problem,
    build_mda_problem,
    enumerate_mda_problem,
    gate_distances,
    mda_pipeline_step,
    mle_state,
    score_with_prior,
    score_without_prior,
    solve_assignment,
    solve_assignment_exact,
    solve_assignment_relaxed,
    solve_maintenance,
    update_maintained,
)
from trackfuse.models import (
    GaussianEstimate,
    MeasurementBatch,
    MeasurementModel,
    update_raw,
    update_transformed,
)
from trackfuse.sim import motion_model, prepare_run, run_mda_fusion, scenario1
from trackfuse.transform import (
    ClutterModel,
    gaussian_log_likelihood,
    generalized_log_likelihood,
)


class TestScoreWithPrior:
    def test_all_missed_is_sum_of_log_one_minus_pd(self):
        rng = np.random.default_rng(0)
        views, _, _ = paired_views(rng, 3, "type2", p_d=0.8)
        hyp = score_with_prior(random_track(rng), [None, None, None], views)
        assert hyp.log_score == pytest.approx(3 * math.log(0.2), rel=1e-12)

    def test_clutter_tuple_has_unit_score(self):
        # tau = 0 tuples are pure clutter explanations with ratio one.
        hyp = HypothesisCost((0, 1, 2), 0.0)
        assert hyp.cost == 0.0

    def test_raw_and_transformed_scores_agree(self):
        rng = np.random.default_rng(1)
        for kind in ("type1", "type2", "generic"):
            for _ in range(60):
                views_raw, views_tr, trs = paired_views(rng, 2, kind)
                est = random_track(rng)
                meas, meas_t = [], []
                for v, tr in zip(views_raw, trs):
                    if rng.random() < 0.8:
                        z = v.H @ est.mean + 5 * rng.standard_normal(2)
                        meas.append(z)
                        meas_t.append(tr.A @ z)
                    else:
                        meas.append(None)
                        meas_t.append(None)
                s_raw = score_with_prior(est, meas, views_raw)
                s_tr = score_with_prior(est, meas_t, views_tr)
                assert s_raw.log_score == pytest.approx(s_tr.log_score,
                                                        abs=1e-9)


class TestMleState:
    def test_square_invertible_single_sensor(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        view = SensorView(h, np.eye(4), 0.9, ClutterModel(1.0, 1e6))
        z = rng.standard_normal(4)
        x = mle_state([z], [view])
        np.testing.assert_allclose(x, np.linalg.solve(h, z), rtol=1e-9)

    def test_two_identical_position_sensors_unobservable(self):
        h = np.hstack([np.eye(2), np.zeros((2, 2))])
        views = [SensorView(h, np.eye(2), 0.9, ClutterModel(1.0, 1e6))] * 2
        z1, z2 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        with pytest.raises(UnobservableHypothesisError):
            mle_state([z1, z2], views)
        # subspace solve recovers the mean position, zero velocity
        x = mle_state([z1, z2], views, observable_subspace=True)
        np.testing.assert_allclose(x[:2], [2.0, 3.0], rtol=1e-12)
        np.testing.assert_allclose(x[2:], [0.0, 0.0], atol=1e-12)

    def test_raw_vs_transformed_mle_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            views_raw, views_tr, trs = paired_views(rng, 2, "generic")
            x_true = rng.standard_normal(4) * 50
            meas = [v.H @ x_true + rng.standard_normal(2) for v in views_raw]
            meas_t = [tr.A @ z for tr, z in zip(trs, meas)]
            x_raw = mle_state(meas, views_raw, observable_subspace=True)
            x_tr = mle_state(meas_t, views_tr, observable_subspace=True)
            np.testing.assert_allclose(x_raw, x_tr, rtol=1e-8, atol=1e-10)


class TestScoreWithoutPrior:
    def test_degenerate_tuples_are_infinite(self):
        rng = np.random.default_rng(4)
        views, _, _ = paired_views(rng, 2, "type2")
        assert score_without_prior([None, None], views).cost == math.inf
        z = views[0].H @ np.array([10.0, 10.0, 0.0, 0.0])
        assert score_without_prior([z, None], views).cost == math.inf

    def test_raw_and_transformed_scores_agree(self):
        rng = np.random.default_rng(5)
        for kind in ("type1", "type2", "generic"):
            for _ in range(60):
                views_raw, views_tr, trs = paired_views(rng, 2, kind)
                x_true = rng.standard_normal(4) * 50
                meas = [v.H @ x_true + rng.standard_normal(2)
                        for v in views_raw]
                meas_t = [tr.A @ z for tr, z in zip(trs, meas)]
                s_raw = score_without_prior(meas, views_raw)
                s_tr = score_without_prior(meas_t, views_tr)
                assert s_raw.log_score == pytest.approx(s_tr.log_score,
                                                        abs=1e-9)

    def test_factor_route_equals_the_likelihood_functions(self):
        # the score reads each view's factor; it equals, bit for bit, the
        # same sum built from log-likelihoods that factor R on every call
        rng = np.random.default_rng(6)
        for kind in ("type1", "type2", "generic"):
            for _ in range(20):
                views_raw, views_tr, trs = paired_views(rng, 2, kind)
                x_true = rng.standard_normal(4) * 50
                meas = [v.H @ x_true + rng.standard_normal(2) for v in views_raw]
                meas_t = [tr.A @ z for tr, z in zip(trs, meas)]
                for views, zs, loglik in ((views_raw, meas, gaussian_log_likelihood),
                                          (views_tr, meas_t, generalized_log_likelihood)):
                    x_ml = mle_state(zs, views, observable_subspace=True)
                    want = 0.0
                    for z, v in zip(zs, views):
                        want += (math.log(v.p_d) + loglik(z, v.H @ x_ml, v.R)
                                 - math.log(v.clutter.rate) - v.clutter.log_density)
                    assert score_without_prior(zs, views).log_score == want

    def test_residual_outside_the_noise_range_is_rejected(self):
        h = np.hstack([np.eye(2), np.zeros((2, 2))])
        views = [SensorView(h, np.diag([25.0, 0.0]), 0.9, ClutterModel(5.0, 1e6),
                            transformed=True) for _ in range(2)]
        in_range = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        assert math.isfinite(score_without_prior(in_range, views).log_score)
        with pytest.raises(InconsistentTransformError):
            score_without_prior([np.array([1.0, 3.0]), np.array([2.0, 0.0])], views)


class TestBuildProblem:
    def test_empty_instance(self):
        problem = enumerate_mda_problem([], [], [], MdaConfig())
        assert problem.groups == []

    def test_single_track_single_gated_measurement(self):
        rng = np.random.default_rng(6)
        model = position_model(rng)
        est = GaussianEstimate([0.0, 0.0, 0.0, 0.0], np.diag([10.0] * 4))
        z = model.H @ est.mean  # dead center, surely gated
        batch = MeasurementBatch(0, z[None, :], model.H, model.R, "raw")
        view = SensorView(model.H, model.R, 0.9, ClutterModel(10.0, 1e6))
        problem = enumerate_mda_problem([est], [batch], [view], MdaConfig())
        assert sorted(c.indices for c in problem.groups[0]) == [(0,), (1,)]
        init = build_initiation_problem([batch], [view], MdaConfig())
        # single-sensor singleton tuples cannot initiate
        assert init.groups == []

    def test_gated_tuple_count_matches_brute_force(self):
        rng = np.random.default_rng(7)
        cfg = MdaConfig()
        model0, model1 = position_model(rng, 0), position_model(rng, 1)
        tracks = [random_track(rng, spread=40.0) for _ in range(3)]
        batches = []
        for model in (model0, model1):
            zs = rng.uniform(-150, 150, (13, 2))
            batches.append(MeasurementBatch(model.sensor_id, zs, model.H,
                                            model.R, "raw"))
        views = [SensorView(m.H, m.R, 0.9, ClutterModel(10.0, 1e6))
                 for m in (model0, model1)]
        problem = enumerate_mda_problem(tracks, batches, views, cfg)
        # oracle: per-track gate recount via direct quadratic forms
        gamma = chi2.ppf(cfg.gate_prob, 2)
        for t_idx, est in enumerate(tracks):
            counts = []
            for batch in batches:
                z_hat = batch.H @ est.mean
                s = batch.H @ est.cov @ batch.H.T + batch.R
                d2 = [float((z - z_hat) @ np.linalg.solve(s, z - z_hat))
                      for z in batch.zs]
                counts.append(1 + sum(d <= gamma for d in d2))
            assert len(problem.groups[t_idx]) == counts[0] * counts[1]

    def test_gate_distances_equal_across_payloads(self):
        rng = np.random.default_rng(8)
        views_raw, views_tr, trs = paired_views(rng, 1, "generic")
        est = random_track(rng)
        zs = est.mean[:2] + rng.uniform(-30, 30, (6, 2))
        zs = zs @ np.diag([1.0, 1.0])
        raw_batch = MeasurementBatch(0, zs @ views_raw[0].H[:, :2].T,
                                     views_raw[0].H, views_raw[0].R, "raw")
        tr_batch = MeasurementBatch(0, raw_batch.zs @ trs[0].A.T,
                                    views_tr[0].H, views_tr[0].R, "generic")
        d_raw, dof_raw = gate_distances(est, raw_batch)
        d_tr, dof_tr = gate_distances(est, tr_batch)
        assert dof_raw == dof_tr == 2
        np.testing.assert_allclose(d_raw, d_tr, rtol=1e-9)


class TestExactSolver:
    def test_forced_full_assignment_picks_diagonal(self):
        groups = [
            [Candidate((1,), 1.0), Candidate((2,), 2.0)],
            [Candidate((1,), 2.0), Candidate((2,), 1.0)],
        ]
        problem = AssignmentProblem("maintenance", groups, 1, [2])
        sol = solve_assignment_exact(problem)
        assert sol.total_cost == pytest.approx(2.0)
        assert sol.assignments == [(1, 1), (2, 2)]

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            problem = random_maintenance_problem(
                rng, int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                int(rng.integers(2, 5)))
            exact = solve_assignment_exact(problem)
            enum_cost, _ = enumerate_assignment_minimum(problem)
            assert exact.total_cost == pytest.approx(enum_cost, abs=1e-12)
            assert exact.gap == 0.0
            assert not constraint_violations(problem, exact)

    def test_identical_argmin_for_matching_cost_tables(self):
        # Cost tables that agree to 1e-9 produce identical assignment sets.
        rng = np.random.default_rng(10)
        for _ in range(30):
            problem = random_maintenance_problem(rng, 3, 4, 4)
            jittered = AssignmentProblem(
                "maintenance",
                [[Candidate(c.indices, c.cost + 1e-10 * rng.uniform(-1, 1))
                  for c in g] for g in problem.groups],
                2, problem.meas_counts)
            sol_a = solve_assignment_exact(problem)
            sol_b = solve_assignment_exact(jittered)
            assert sol_a.assignments == sol_b.assignments


class TestRelaxedSolver:
    def test_two_dimensional_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            groups = []
            m1 = int(rng.integers(2, 6))
            for _t in range(int(rng.integers(1, 5))):
                cands = [Candidate((0,), float(abs(rng.normal())))]
                cands += [Candidate((i + 1,), float(rng.normal()))
                          for i in range(m1)]
                groups.append(cands)
            problem = AssignmentProblem("maintenance", groups, 1, [m1])
            relaxed = solve_assignment_relaxed(problem)
            enum_cost, _ = enumerate_assignment_minimum(problem)
            assert relaxed.total_cost == pytest.approx(enum_cost, abs=1e-12)
            assert relaxed.gap == 0.0

    def test_three_dimensional_close_to_optimal(self):
        rng = np.random.default_rng(12)
        within = 0
        for _ in range(100):
            problem = random_maintenance_problem(
                rng, int(rng.integers(2, 4)), int(rng.integers(3, 6)),
                int(rng.integers(3, 6)))
            exact = solve_assignment_exact(problem)
            relaxed = solve_assignment_relaxed(problem)
            assert not constraint_violations(problem, relaxed)
            rel = (relaxed.total_cost - exact.total_cost) / max(
                abs(exact.total_cost), 1e-12)
            if rel <= 0.05:
                within += 1
        assert within >= 95

    def test_raw_vs_transformed_tables_same_argmin(self):
        rng = np.random.default_rng(13)
        for kind in ("type2", "generic"):
            views_raw, views_tr, trs = paired_views(rng, 2, kind)
            tracks = [random_track(rng, spread=30.0) for _ in range(3)]
            zs = [np.vstack([t.mean[:2] for t in tracks])
                  @ views_raw[l].H[:, :2].T + rng.standard_normal((3, 2)) * 4
                  for l in range(2)]
            batches_raw = [MeasurementBatch(l, zs[l], views_raw[l].H,
                                            views_raw[l].R, "raw")
                           for l in range(2)]
            batches_tr = [MeasurementBatch(l, zs[l] @ trs[l].A.T,
                                           views_tr[l].H, views_tr[l].R, kind)
                          for l in range(2)]
            cfg = MdaConfig()
            prob_raw = enumerate_mda_problem(tracks, batches_raw, views_raw, cfg)
            prob_tr = enumerate_mda_problem(tracks, batches_tr, views_tr, cfg)
            for g_raw, g_tr in zip(prob_raw.groups, prob_tr.groups):
                assert [c.indices for c in g_raw] == [c.indices for c in g_tr]
                np.testing.assert_allclose([c.cost for c in g_raw],
                                           [c.cost for c in g_tr], atol=1e-9)
            sol_raw = solve_assignment_exact(prob_raw)
            sol_tr = solve_assignment_exact(prob_tr)
            assert sol_raw.assignments == sol_tr.assignments


class TestPipeline:
    def _make_scene(self, rng, payload="raw"):
        cfg = scenario1()
        motion = motion_model(cfg)
        model0, model1 = position_model(rng, 0), position_model(rng, 1)
        return cfg, motion, (model0, model1)

    def test_zero_measurements_coast(self):
        rng = np.random.default_rng(14)
        cfg, motion, (model0, model1) = self._make_scene(rng)
        track = MdaTrack(random_track(rng), label=0, hits=3, confirmed=True)
        batches = [MeasurementBatch(l, np.zeros((0, 2)), m.H, m.R, "raw")
                   for l, m in enumerate((model0, model1))]
        views = [SensorView(m.H, m.R, 0.9, ClutterModel(10.0, 1e6))
                 for m in (model0, model1)]
        before = track.est.mean.copy()
        tracks, _, _ = mda_pipeline_step([track], batches, views, motion,
                                         MdaConfig(), 1)
        assert tracks[0].misses == 1
        np.testing.assert_allclose(tracks[0].est.mean, motion.F @ before)

    def test_single_track_single_measurement_updates(self):
        rng = np.random.default_rng(15)
        _, motion, (model0, model1) = self._make_scene(rng)
        est = GaussianEstimate([50.0, 60.0, 1.0, -1.0], np.diag([20.0] * 4))
        track = MdaTrack(est, label=0, hits=2, confirmed=True)
        pred_mean = motion.F @ est.mean
        batches, views = [], []
        for l, model in enumerate((model0, model1)):
            z = model.H @ pred_mean + np.array([1.0, -1.0])
            batches.append(MeasurementBatch(l, z[None, :], model.H, model.R,
                                            "raw"))
            views.append(SensorView(model.H, model.R, 0.9,
                                    ClutterModel(10.0, 1e6)))
        tracks, _, info = mda_pipeline_step([track], batches, views, motion,
                                            MdaConfig(), 1)
        assert len(tracks) == 1
        assert info["maintenance"] == [(1, 1, 1)]
        assert info["initiation"] == []
        assert tracks[0].hits == 4

    def test_dual_path_pipelines_identical(self):
        # one scan of a scenario-1-sized instance through both payload arms
        from trackfuse.sim import generate_measurements, generate_truth
        from trackfuse.sim import scenario1 as s1
        from trackfuse.sim import encode_batch

        cfg = s1()
        motion = motion_model(cfg)
        truth = generate_truth(cfg, seed=99)
        scan_list = generate_measurements(truth, cfg, 50, seed=99)
        rng = np.random.default_rng(16)
        tracks_raw = [MdaTrack(GaussianEstimate(
            np.concatenate([traj[49][:2], traj[49][2:]]),
            np.diag([25.0, 25.0, 4.0, 4.0])), label=i, hits=4, confirmed=True)
            for i, traj in enumerate(truth) if 49 in traj]
        tracks_tr = [MdaTrack(GaussianEstimate(t.est.mean.copy(),
                                               t.est.cov.copy()),
                              label=t.label, hits=t.hits, confirmed=True)
                     for t in tracks_raw]
        sent = [list(range(s.n_meas)) for s in scan_list]
        arms = {}
        for payload, tracks in (("raw", tracks_raw), ("type2", tracks_tr)):
            batches, views = [], []
            for s, idx in zip(scan_list, sent):
                sensor = cfg.sensors[s.sensor_id]
                batch, clutter = encode_batch(s, idx, payload,
                                              sensor.clutter_rate)
                batches.append(batch)
                views.append(SensorView.from_batch(batch, sensor.p_d, clutter))
            arms[payload], _, _ = mda_pipeline_step(
                tracks, batches, views, motion, MdaConfig(), 100, scan=50)
        assert len(arms["raw"]) == len(arms["type2"])
        for a, b in zip(arms["raw"], arms["type2"]):
            np.testing.assert_allclose(a.est.mean, b.est.mean, rtol=0,
                                       atol=1e-8)
            assert a.hits == b.hits and a.misses == b.misses


class TestErrorPaths:
    def test_tuple_cap_reports_count(self):
        rng = np.random.default_rng(30)
        cfg = MdaConfig(max_tuples=5)
        model0, model1 = position_model(rng, 0), position_model(rng, 1)
        tracks = [GaussianEstimate([0.0, 0.0, 0.0, 0.0],
                                   np.diag([400.0] * 4))]
        batches = [MeasurementBatch(m.sensor_id,
                                    rng.uniform(-20, 20, (6, 2)), m.H, m.R,
                                    "raw") for m in (model0, model1)]
        views = [SensorView(m.H, m.R, 0.9, ClutterModel(10.0, 1e6))
                 for m in (model0, model1)]
        from trackfuse.errors import ResourceLimitError
        with pytest.raises(ResourceLimitError, match="cap"):
            enumerate_mda_problem(tracks, batches, views, cfg)

    def test_exact_solver_node_cap(self):
        from trackfuse.errors import ResourceLimitError
        rng = np.random.default_rng(31)
        problem = random_maintenance_problem(rng, 3, 5, 5, keep=1.0)
        with pytest.raises(ResourceLimitError):
            solve_assignment_exact(problem, node_cap=3)


def disjoint_initiation_problem(n_groups, seed=32):
    """n_groups optional two-sensor tuples on disjoint measurements."""
    rng = np.random.default_rng(seed)
    groups = [[Candidate((g + 1, g + 1), -1.0 - float(rng.random())),
               Candidate((0, 0), 0.0)] for g in range(n_groups)]
    return AssignmentProblem("initiation", groups, 2, [n_groups, n_groups])


class TestExactDepthCap:
    def test_auto_mode_falls_back_to_the_relaxation(self):
        # 3,000 candidates, under AUTO_EXACT_CANDIDATES, used to recurse
        # 1,500 levels deep and raise RecursionError
        problem = disjoint_initiation_problem(1500)
        assert problem.n_candidates <= mda_mod.AUTO_EXACT_CANDIDATES
        sol = solve_assignment(problem)
        assert sol.feasible
        assert not constraint_violations(problem, sol)
        assert len(sol.assignments) == 1500

    def test_exact_mode_raises_before_the_search(self):
        from trackfuse.errors import ResourceLimitError
        problem = disjoint_initiation_problem(1500)
        with pytest.raises(ResourceLimitError, match="depth"):
            solve_assignment_exact(problem)
        with pytest.raises(ResourceLimitError, match="depth"):
            solve_assignment_exact(problem, node_cap=10 ** 9)

    def test_cap_is_the_deepest_problem_solved(self):
        from trackfuse.errors import ResourceLimitError
        sol = solve_assignment_exact(disjoint_initiation_problem(EXACT_MAX_GROUPS))
        assert len(sol.assignments) == EXACT_MAX_GROUPS
        with pytest.raises(ResourceLimitError):
            solve_assignment_exact(disjoint_initiation_problem(EXACT_MAX_GROUPS + 1))


def maintenance_instance(rng, n_tracks, meas_counts, kind, p_ds=None):
    """Predicted tracks and paired raw / transformed (batches, views) of one
    random maintenance scan; about half the measurements fall near a track."""
    views_raw, views_tr, trs = paired_views(rng, len(meas_counts), kind)
    for l, p_d in enumerate(p_ds or []):
        views_raw[l].p_d = views_tr[l].p_d = p_d
    tracks = [random_track(rng, spread=20.0) for _ in range(n_tracks)]
    batches_raw, batches_tr = [], []
    for l, m in enumerate(meas_counts):
        pos = rng.uniform(-40.0, 40.0, (m, 2))
        for k in range(m):
            if tracks and rng.random() < 0.5:
                pos[k] = tracks[rng.integers(n_tracks)].mean[:2] + 6.0 * rng.standard_normal(2)
        zs = pos @ views_raw[l].H[:, :2].T
        batches_raw.append(MeasurementBatch(l, zs, views_raw[l].H, views_raw[l].R, "raw"))
        batches_tr.append(MeasurementBatch(l, zs @ trs[l].A.T, views_tr[l].H,
                                           views_tr[l].R, kind))
    return tracks, (batches_raw, views_raw), (batches_tr, views_tr)


def oracle_cost(oracle, assignments):
    """Cost of a maintenance selection under the enumerated tuple costs; each
    selected tuple must be one of its track's candidates."""
    total = 0.0
    for tau, *idx in assignments:
        costs = {c.indices: c.cost for c in oracle.groups[tau - 1]}
        assert tuple(idx) in costs
        total += costs[tuple(idx)]
    return total


class TestSensorSplit:
    """Per-sensor tables and assignments against the tuple enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_tracks=st.integers(0, 3),
           meas_counts=st.lists(st.integers(0, 3), min_size=1, max_size=4),
           kind=st.sampled_from(["raw", "type2", "generic"]))
    def test_decomposed_optimum_equals_the_enumeration(self, seed, n_tracks,
                                                       meas_counts, kind):
        rng = np.random.default_rng(seed)
        p_ds = list(rng.uniform(0.5, 0.99, len(meas_counts)))
        tracks, raw, tr = maintenance_instance(rng, n_tracks, meas_counts,
                                               "type2" if kind == "raw" else kind, p_ds)
        batches, views = raw if kind == "raw" else tr
        cfg = MdaConfig()
        oracle = enumerate_mda_problem(tracks, batches, views, cfg)
        best = solve_assignment_exact(oracle)
        sol = solve_maintenance(build_mda_problem(tracks, batches, views, cfg))
        assert sol.total_cost == pytest.approx(best.total_cost, rel=1e-9, abs=1e-9)
        assert oracle_cost(oracle, sol.assignments) == pytest.approx(
            sol.total_cost, rel=1e-9, abs=1e-9)
        assert not constraint_violations(oracle, sol)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_tracks=st.integers(1, 3),
           meas_counts=st.lists(st.integers(0, 3), min_size=1, max_size=3))
    def test_unit_detection_probability(self, seed, n_tracks, meas_counts):
        # A P_d = 1 sensor has no finite miss: a track that cannot take one
        # of its measurements falls back to the all-zero tuple at cost BIG.
        rng = np.random.default_rng(seed)
        p_ds = [1.0 if rng.random() < 0.6 else 0.9 for _ in meas_counts]
        tracks, (batches, views), _ = maintenance_instance(
            rng, n_tracks, meas_counts, "type2", p_ds)
        cfg = MdaConfig()
        problem = build_mda_problem(tracks, batches, views, cfg)
        for table, view, m in zip(problem.tables, views, meas_counts):
            miss = table[np.arange(n_tracks), m + np.arange(n_tracks)]
            assert np.all(miss == BIG) if view.p_d == 1.0 else np.all(miss < BIG)
        oracle = enumerate_mda_problem(tracks, batches, views, cfg)
        best = solve_assignment_exact(oracle)
        sol = solve_maintenance(problem)
        assert not constraint_violations(oracle, sol)
        assert oracle_cost(oracle, sol.assignments) == pytest.approx(
            sol.total_cost, rel=1e-9, abs=1e-9)
        # Below BIG: no track of the optimum takes the fallback; otherwise
        # the per-sensor selection need only be feasible.
        if all(oracle_cost(oracle, [a]) < BIG for a in best.assignments):
            assert sol.total_cost == pytest.approx(best.total_cost, rel=1e-9, abs=1e-9)

    def test_fallback_frees_the_other_sensors_measurement(self):
        # Sensor 0 (P_d = 1) has no measurement near the track, sensor 1
        # has one: the track takes the fallback and leaves sensor 1's
        # measurement to initiation.
        rng = np.random.default_rng(40)
        model0, model1 = position_model(rng, 0), position_model(rng, 1)
        est = GaussianEstimate([0.0, 0.0, 0.0, 0.0], np.diag([10.0] * 4))
        batches = [MeasurementBatch(0, [[500.0, 500.0]], model0.H, model0.R),
                   MeasurementBatch(1, [model1.H[:, :2] @ [1.0, 1.0]],
                                    model1.H, model1.R)]
        views = [SensorView(model0.H, model0.R, 1.0, ClutterModel(10.0, 1e6)),
                 SensorView(model1.H, model1.R, 0.9, ClutterModel(10.0, 1e6))]
        problem = build_mda_problem([est], batches, views, MdaConfig())
        assert problem.tables[0].tolist() == [[BIG, BIG]]
        assert problem.tables[1][0, 0] < BIG
        sol = solve_maintenance(problem)
        assert sol.assignments == [(1, 0, 0)]
        assert sol.total_cost == BIG

    def test_raw_and_transformed_tables_agree(self):
        rng = np.random.default_rng(41)
        for kind in ("type1", "type2", "generic"):
            for _ in range(20):
                tracks, (b_raw, v_raw), (b_tr, v_tr) = maintenance_instance(
                    rng, 4, [5, 0, 4], kind)
                p_raw = build_mda_problem(tracks, b_raw, v_raw, MdaConfig())
                p_tr = build_mda_problem(tracks, b_tr, v_tr, MdaConfig())
                for t_raw, t_tr in zip(p_raw.tables, p_tr.tables):
                    np.testing.assert_allclose(t_raw, t_tr, rtol=1e-12, atol=1e-9)
                assert p_raw.n_candidates == p_tr.n_candidates
                assert (solve_maintenance(p_raw).assignments
                        == solve_maintenance(p_tr).assignments)

    def test_cells_are_single_sensor_scores(self):
        rng = np.random.default_rng(42)
        for kind in ("raw", "generic"):
            tracks, raw, tr = maintenance_instance(rng, 3, [6, 2], "generic")
            batches, views = raw if kind == "raw" else tr
            problem = build_mda_problem(tracks, batches, views, MdaConfig())
            count = 0
            for table, batch, view in zip(problem.tables, batches, views):
                m = batch.n_meas
                for t, est in enumerate(tracks):
                    miss = -score_with_prior(est, [None], [view]).log_score
                    assert table[t, m + t] == pytest.approx(miss, rel=1e-12)
                    d2, dof = gate_distances(est, batch)
                    for i in range(m):
                        if d2[i] <= chi2.ppf(0.99, dof):
                            hit = -score_with_prior(est, [batch.zs[i]], [view]).log_score
                            assert table[t, i] == pytest.approx(hit, rel=1e-12)
                            count += 1
                        else:
                            assert table[t, i] == BIG
                    off = np.delete(table[t, m:], t)
                    assert np.all(off == BIG)
            assert problem.n_candidates == count + 3 * len(batches)

    def test_gated_measurement_outside_the_range_raises(self):
        rng = np.random.default_rng(43)
        tracks, _, (batches, views) = maintenance_instance(rng, 1, [1], "generic")
        est = tracks[0]
        z = views[0].H @ est.mean
        _, v = np.linalg.eigh(views[0].R)
        off_range = v[:, 0] * 1e-3 * np.linalg.norm(z)  # null direction of Rt
        bad = MeasurementBatch(0, (z + off_range)[None], views[0].H, views[0].R,
                               "generic")
        with pytest.raises(InconsistentTransformError):
            build_mda_problem(tracks, [bad], views, MdaConfig())
        far = MeasurementBatch(0, (z + off_range + 1e4 * v[:, -1])[None],
                               views[0].H, views[0].R, "generic")
        # an ungated measurement is never scored, as in the enumeration
        problem = build_mda_problem(tracks, [far], views, MdaConfig())
        assert problem.tables[0][0, 0] == BIG

    def test_pipeline_enumerates_no_maintenance_tuples(self, monkeypatch):
        from trackfuse.errors import ResourceLimitError
        kinds, exact_kinds = [], []
        real_solve = mda_mod.solve_assignment

        def recording_solve(problem):
            kinds.append(problem.kind)
            return real_solve(problem)

        def forbidden(*args, **kwargs):
            raise AssertionError("maintenance must not enumerate tuples")

        def capped(problem, *args, **kwargs):
            # every initiation problem goes on to the relaxation
            exact_kinds.append(problem.kind)
            raise ResourceLimitError("search cap")

        monkeypatch.setattr(mda_mod, "solve_assignment", recording_solve)
        monkeypatch.setattr(mda_mod, "score_with_prior", forbidden)
        monkeypatch.setattr(mda_mod, "enumerate_mda_problem", forbidden)
        monkeypatch.setattr(mda_mod, "solve_assignment_exact", capped)
        cfg = scenario1()
        tapes, sends = prepare_run(cfg, 7)
        record = run_mda_fusion(cfg, tapes, sends, "raw")
        assert record.card_est.max() > 0
        assert set(kinds) == {"initiation"}
        assert set(exact_kinds) == {"initiation"}

    def test_unit_detection_scenario_arms_agree(self):
        cfg = scenario1().with_overrides(p_d=1.0)
        tapes, sends = prepare_run(cfg, 5)
        raw = run_mda_fusion(cfg, tapes, sends, "raw")
        type2 = run_mda_fusion(cfg, tapes, sends, "type2")
        np.testing.assert_allclose(raw.ospa, type2.ospa, rtol=0, atol=1e-8)
        assert np.all(raw.card_est == type2.card_est)


def sequential_update(preds, assignments, batches):
    """The per-track loop: each track's updates in sensor order, one
    measurement model per update."""
    posts = []
    for (tau, *idx), est in zip(assignments, preds):
        for l, i in enumerate(idx):
            b = batches[l]
            if i and b.transformed:
                est = update_transformed(est, b.zs[i - 1], b.H, b.R)
            elif i:
                est = update_raw(est, b.zs[i - 1], MeasurementModel(b.H, b.R))
        posts.append(est)
    return posts


class TestStackedMaintenanceUpdate:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_tracks=st.integers(1, 6),
           kinds=st.lists(st.sampled_from(["raw", "type1", "type2", "generic"]),
                          min_size=1, max_size=4))
    def test_equals_per_track_updates_bit_for_bit(self, seed, n_tracks, kinds):
        rng = np.random.default_rng(seed)
        preds = []
        for _ in range(n_tracks):
            a = rng.standard_normal((4, 4))
            preds.append(GaussianEstimate(rng.standard_normal(4) * 50,
                                          a @ a.T + np.diag(rng.uniform(1, 30, 4)),
                                          int(rng.integers(0, 9))))
        batches = []
        idx = np.zeros((n_tracks, len(kinds)), dtype=int)
        for l, kind in enumerate(kinds):
            _, tr_views, trs = paired_views(rng, 1, "type2" if kind == "raw" else kind)
            m = int(rng.integers(0, n_tracks + 2))
            zs = rng.standard_normal((m, 2)) * 30
            if kind == "raw":
                h, r = np.hstack([np.eye(2), np.zeros((2, 2))]), np.diag([25.0, 30.0])
                batches.append(MeasurementBatch(l, zs, h, r, "raw"))
            else:
                batches.append(MeasurementBatch(l, zs @ trs[0].A.T, tr_views[0].H,
                                                tr_views[0].R, kind))
            takers = rng.permutation(n_tracks)[:min(m, n_tracks)]
            for i, t in enumerate(takers):
                if rng.random() < 0.8:
                    idx[t, l] = i + 1
        assignments = [(t + 1,) + tuple(row) for t, row in enumerate(idx.tolist())]
        stacked = update_maintained(preds, assignments, batches)
        for got, want, pred, row in zip(stacked, sequential_update(preds, assignments, batches),
                                        preds, idx):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.cov, want.cov)
            assert got.timestamp == want.timestamp == pred.timestamp
            if not row.any():
                assert got is pred
