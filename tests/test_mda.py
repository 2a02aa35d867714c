"""Association scoring, assignment solvers, and the MDA pipeline."""

import itertools
import math
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from conftest import make_transformation, paired_views, position_model, random_track
from trackfuse import checks as checks_mod
from trackfuse import mda as mda_mod
from trackfuse.checks import (
    constraint_violations,
    enumerate_assignment_minimum,
    enumerate_mda_problem,
    gate_distances,
    random_initiation_problem,
    random_maintenance_problem,
)
from trackfuse.errors import (
    InconsistentTransformError,
    NumericsError,
    ResourceLimitError,
    TrackfuseError,
    UnobservableHypothesisError,
)
from trackfuse.linalg import chi2_gate, cholesky, psd_eig_stack
from trackfuse.mda import (
    BIG,
    AssignmentProblem,
    Candidate,
    FusedTracks,
    HypothesisCost,
    MdaConfig,
    SensorView,
    build_initiation_problem,
    build_mda_problem,
    mda_pipeline_step,
    mle_state,
    padded_table,
    score_with_prior,
    score_without_prior,
    solve_assignment,
    solve_assignment_exact,
    solve_assignment_relaxed,
    solve_maintenance,
    update_maintained,
)
from trackfuse.mda import _backprojected_positions, _pair_gates
from trackfuse.models import (
    EstimateStack,
    GaussianEstimate,
    MeasurementBatch,
    MeasurementModel,
    innovation_stack,
    payload_factors,
    update_raw,
    update_transformed,
)
from trackfuse.sim import motion_model, prepare_run, run_mda_fusion, scenario1, scenario2
from trackfuse.transform import (
    LOG_2PI,
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

    def test_noise_free_raw_and_generic_tuples_score(self):
        # an exact fit leaves residuals of rounding size off range(R); the
        # range check scales with the measurements, so they score as the raw
        # route does, on all-generic and mixed raw/generic tuples
        rng = np.random.default_rng(7)
        for _ in range(100):
            views_raw, views_tr, trs = paired_views(rng, 3, "generic")
            x_true = rng.standard_normal(4) * 50
            meas = [v.H @ x_true for v in views_raw]
            meas_t = [tr.A @ z for tr, z in zip(trs, meas)]
            raw = score_without_prior(meas, views_raw).log_score
            pick = rng.random(3) < 0.5  # the sensors that send generic payloads
            mixed = ([t if p else r for r, t, p in zip(views_raw, views_tr, pick)],
                     [zt if p else z for z, zt, p in zip(meas, meas_t, pick)])
            for views, zs in ((views_tr, meas_t), mixed):
                assert score_without_prior(zs, views).log_score == pytest.approx(
                    raw, rel=0, abs=1e-9)

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
        problem = AssignmentProblem(groups, 1, [2])
        sol = solve_assignment_exact(problem)
        assert sol.total_cost == pytest.approx(2.0)
        assert sol.indices.tolist() == [[1], [2]]

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
                [[Candidate(c.indices, c.cost + 1e-10 * rng.uniform(-1, 1))
                  for c in g] for g in problem.groups],
                2, problem.meas_counts)
            sol_a = solve_assignment_exact(problem)
            sol_b = solve_assignment_exact(jittered)
            assert sol_a.indices.tolist() == sol_b.indices.tolist()


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
            problem = AssignmentProblem(groups, 1, [m1])
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

    def test_initiation_clusters_close_their_gap(self):
        # large overlapping (tuple, null) clusters: the primal is the greedy
        # repair of each relaxed selection
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = rng.integers(80, 200)
            mc = [rng.integers(20, 60) for _ in range(rng.integers(3, 6))]
            problem = random_initiation_problem(rng, n, mc)
            sol = solve_assignment_relaxed(problem)
            assert not constraint_violations(problem, sol)
            assert sol.gap <= 0.05, seed

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
            assert sol_raw.indices.tolist() == sol_tr.indices.tolist()


def fused_tracks(estimates, hits, labels=None):
    """Confirmed fused tracks of these estimates, no misses, labelled 0, 1, ...
    unless `labels` are given."""
    stack = EstimateStack.of(estimates)
    n = len(stack)
    return FusedTracks(stack.means, stack.covs, stack.timestamps,
                       np.arange(n) if labels is None else np.asarray(labels),
                       np.full(n, hits), np.zeros(n, dtype=int), np.ones(n, dtype=bool))


class TestPipeline:
    def _make_scene(self, rng, payload="raw"):
        cfg = scenario1()
        motion = motion_model(cfg)
        model0, model1 = position_model(rng, 0), position_model(rng, 1)
        return cfg, motion, (model0, model1)

    def test_zero_measurements_coast(self):
        rng = np.random.default_rng(14)
        cfg, motion, (model0, model1) = self._make_scene(rng)
        track = fused_tracks([random_track(rng)], hits=3)
        batches = [MeasurementBatch(l, np.zeros((0, 2)), m.H, m.R, "raw")
                   for l, m in enumerate((model0, model1))]
        views = [SensorView(m.H, m.R, 0.9, ClutterModel(10.0, 1e6))
                 for m in (model0, model1)]
        before = track.means[0].copy()
        tracks, _, _ = mda_pipeline_step(track, batches, views, motion,
                                         MdaConfig(), 1)
        assert tracks.misses.tolist() == [1]
        np.testing.assert_allclose(tracks.means[0], motion.F @ before)

    def test_single_track_single_measurement_updates(self):
        rng = np.random.default_rng(15)
        _, motion, (model0, model1) = self._make_scene(rng)
        est = GaussianEstimate([50.0, 60.0, 1.0, -1.0], np.diag([20.0] * 4))
        track = fused_tracks([est], hits=2)
        pred_mean = motion.F @ est.mean
        batches, views = [], []
        for l, model in enumerate((model0, model1)):
            z = model.H @ pred_mean + np.array([1.0, -1.0])
            batches.append(MeasurementBatch(l, z[None, :], model.H, model.R,
                                            "raw"))
            views.append(SensorView(model.H, model.R, 0.9,
                                    ClutterModel(10.0, 1e6)))
        tracks, _, info = mda_pipeline_step(track, batches, views, motion,
                                            MdaConfig(), 1)
        assert len(tracks) == 1
        assert info["maintenance"] == [(1, 1, 1)]
        assert info["initiation"] == []
        assert tracks.hits.tolist() == [4]

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
        alive = [(i, traj[49]) for i, traj in enumerate(truth) if 49 in traj]
        tracks_raw = fused_tracks(
            [GaussianEstimate(np.concatenate([x[:2], x[2:]]),
                              np.diag([25.0, 25.0, 4.0, 4.0])) for _, x in alive],
            hits=4, labels=[i for i, _ in alive])
        tracks_tr = FusedTracks(tracks_raw.means.copy(), tracks_raw.covs.copy(),
                                tracks_raw.timestamps, tracks_raw.labels,
                                tracks_raw.hits, tracks_raw.misses,
                                tracks_raw.confirmed)
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
        a, b = arms["raw"], arms["type2"]
        assert len(a) == len(b)
        np.testing.assert_allclose(a.means, b.means, rtol=0, atol=1e-8)
        assert np.array_equal(a.hits, b.hits) and np.array_equal(a.misses, b.misses)


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
    return AssignmentProblem(groups, 2, [n_groups, n_groups])


def recording_relaxation(monkeypatch):
    """The group counts of every problem `solve_assignment` relaxes."""
    calls = []

    def relaxed(problem, *args, **kwargs):
        calls.append(len(problem.groups))
        return solve_assignment_relaxed(problem, *args, **kwargs)

    monkeypatch.setattr(mda_mod, "solve_assignment_relaxed", relaxed)
    return calls


def linked_initiation_problem(n_groups):
    """`disjoint_initiation_problem` with a second tuple per group on the
    next group's measurements, which links all groups into one cluster; the
    optimum is every group's own tuple."""
    problem = disjoint_initiation_problem(n_groups)
    for g, cands in enumerate(problem.groups[:-1]):
        cands.append(Candidate((g + 2, g + 2), -0.5))
    return problem


class TestExactDepthCap:
    """The branch and bound has no depth cap: a cluster of any number of
    groups is searched, and only the node cap sends it to the relaxation."""

    def test_a_linked_cluster_of_1500_groups_is_solved_exactly(self, monkeypatch):
        problem = linked_initiation_problem(1500)
        relaxed = recording_relaxation(monkeypatch)
        sol = solve_assignment(problem)
        assert relaxed == []
        assert not constraint_violations(problem, sol)
        assert len(sol.assignments) == 1500
        assert sol.total_cost == sum(cands[0].cost for cands in problem.groups)

    def test_the_search_takes_a_cluster_past_the_recursion_limit(self):
        # 5,000 groups, five times the interpreter's default recursion limit
        problem = linked_initiation_problem(5000)
        sol = solve_assignment_exact(problem)
        assert not constraint_violations(problem, sol)
        assert sol.indices.tolist() == [list(cands[0].indices) for cands in problem.groups]
        assert sol.total_cost == sum(cands[0].cost for cands in problem.groups)

    def test_disjoint_groups_are_solved_exactly_past_the_cap(self, monkeypatch):
        problem = disjoint_initiation_problem(1500)
        relaxed = recording_relaxation(monkeypatch)
        sol = solve_assignment(problem)
        assert relaxed == []
        assert sol.assignments == [cands[0].indices for cands in problem.groups]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_groups=st.integers(0, 20),
           meas_counts=st.lists(st.integers(1, 3), min_size=2, max_size=4))
    def test_ties_go_to_the_first_optimum_in_the_search_order(self, seed, n_groups,
                                                            meas_counts):
        # costs are multiples of 12, so equal-cost optima are common and exact;
        # 600 forced measurement-free groups, cheaper than any drawn one, are
        # visited first and put the drawn groups past depth 600
        problem = random_initiation_problem(np.random.default_rng(seed), n_groups,
                                            meas_counts)
        problem.groups += [[Candidate((0,) * len(meas_counts), -60.0)]] * 600
        order = sorted(range(len(problem.groups)), key=lambda g: (
            min(c.cost for c in problem.groups[g]), g))
        # on one extra sensor each group's tuple takes a measurement of its
        # own, so the enumeration's tuples name their groups; this adds no
        # conflict and moves no cost or candidate order
        tagged = AssignmentProblem(
            [[Candidate(c.indices + ((g + 1) * any(c.indices),), c.cost)
              for c in problem.groups[g]] for g in order],
            len(meas_counts) + 1, meas_counts + [len(problem.groups)])
        cost, assignments = enumerate_assignment_minimum(tagged)
        expected = np.zeros((len(problem.groups), len(meas_counts)), dtype=int)
        for tup in assignments:
            expected[tup[-1] - 1] = tup[:-1]
        sol = solve_assignment_exact(problem)
        assert sol.indices.tolist() == expected.tolist()
        assert sol.total_cost == cost


class TestClusterSolver:
    """`solve_assignment`: null for tuples that never win, then one branch
    and bound per cluster of groups that share a measurement."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_groups=st.integers(0, 10),
           meas_counts=st.lists(st.integers(1, 4), min_size=1, max_size=5))
    def test_optimum_equals_the_enumeration_and_the_whole_search(self, seed, n_groups,
                                                                meas_counts):
        problem = random_initiation_problem(np.random.default_rng(seed), n_groups,
                                            meas_counts)
        sol = solve_assignment(problem)
        assert sol.total_cost == enumerate_assignment_minimum(problem)[0]
        assert sol.assignments == solve_assignment_exact(problem).assignments
        assert not constraint_violations(problem, sol)
        # group order: the selected rows, each one of its group's candidates
        rows = [tuple(row) for row in sol.indices.tolist()]
        assert all(row in [c.indices for c in cands]
                   for row, cands in zip(rows, problem.groups))
        assert sol.assignments == [row for row in rows if any(row)]

    def test_tuples_that_never_win_take_the_null(self):
        # a zero-cost tuple ties its null, and the null sorts first
        groups = [[Candidate((1, 1), 0.0), Candidate((0, 0), 0.0)],
                  [Candidate((2, 1), 12.0), Candidate((0, 0), 0.0)],
                  [Candidate((2, 2), -12.0), Candidate((0, 0), 0.0)]]
        sol = solve_assignment(AssignmentProblem(groups, 2, [2, 2]))
        assert sol.assignments == [(2, 2)]
        assert sol.indices.tolist() == [[0, 0], [0, 0], [2, 2]]

    def test_groups_without_a_free_null_are_solved_exactly(self):
        # every group's measurement-free candidate costs > 0: a group where
        # it is cheapest takes it in the first pass, the search solves the rest
        rng = np.random.default_rng(0)
        for _ in range(50):
            problem = random_maintenance_problem(rng, 3, 3, 3)
            sol = solve_assignment(problem)
            assert sol.total_cost == pytest.approx(
                enumerate_assignment_minimum(problem)[0], abs=1e-12)
            assert not constraint_violations(problem, sol)

    def test_scenario2_tape2_scan_is_solved_without_the_relaxation(self, monkeypatch):
        # one scan of this arm has 532 initiation groups
        relaxed = recording_relaxation(monkeypatch)
        cfg = scenario2()
        tapes, sends = prepare_run(cfg, 2)
        record = run_mda_fusion(cfg, tapes, sends, "type2")
        assert record.card_est.max() > 0
        assert relaxed == []


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
        if all(oracle_cost(oracle, [(t + 1, *row)]) < BIG
               for t, row in enumerate(best.indices.tolist())):
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

    def test_generic_measurement_at_the_prediction_scores(self):
        # z = H mean exactly: the residual is rounding off range(S); the
        # table and the with-prior score equal the raw route's
        rng = np.random.default_rng(9)
        cfg = MdaConfig()
        for _ in range(100):
            views_raw, views_tr, trs = paired_views(rng, 1, "generic")
            est = random_track(rng)
            z = views_raw[0].H @ est.mean
            raw = MeasurementBatch(0, z[None], views_raw[0].H, views_raw[0].R, "raw")
            tr = MeasurementBatch(0, trs[0].apply(z)[None], views_tr[0].H,
                                  views_tr[0].R, "generic")
            want = -score_with_prior(est, [z], views_raw).log_score
            assert -score_with_prior(est, [tr.zs[0]], views_tr).log_score == \
                pytest.approx(want, rel=0, abs=1e-9)
            for batch, views in ((raw, views_raw), (tr, views_tr)):
                table = build_mda_problem([est], [batch], views, cfg).tables[0]
                assert table[0, 0] == pytest.approx(want, rel=0, abs=1e-9)

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
        shapes, exact_shapes = [], []
        real_solve = mda_mod.solve_assignment

        def initiation_shaped(problem):
            """Every group is (tuple, zero-cost null)."""
            null = Candidate((0,) * problem.n_sensors, 0.0)
            return all(len(g) == 2 and any(g[0].indices) and g[1] == null
                       for g in problem.groups)

        def recording_solve(problem):
            shapes.append(initiation_shaped(problem))
            return real_solve(problem)

        def forbidden(*args, **kwargs):
            raise AssertionError("maintenance must not enumerate tuples")

        def capped(problem, *args, **kwargs):
            # every initiation problem goes on to the relaxation
            exact_shapes.append(initiation_shaped(problem))
            raise ResourceLimitError("search cap")

        monkeypatch.setattr(mda_mod, "solve_assignment", recording_solve)
        monkeypatch.setattr(mda_mod, "score_with_prior", forbidden)
        monkeypatch.setattr(checks_mod, "enumerate_mda_problem", forbidden)
        monkeypatch.setattr(mda_mod, "solve_assignment_exact", capped)
        cfg = scenario1()
        tapes, sends = prepare_run(cfg, 7)
        record = run_mda_fusion(cfg, tapes, sends, "raw")
        assert record.card_est.max() > 0
        assert set(shapes) == {True}
        assert set(exact_shapes) == {True}

    def test_unit_detection_scenario_arms_agree(self):
        cfg = scenario1().with_overrides(p_d=1.0)
        tapes, sends = prepare_run(cfg, 5)
        raw = run_mda_fusion(cfg, tapes, sends, "raw")
        type2 = run_mda_fusion(cfg, tapes, sends, "type2")
        np.testing.assert_allclose(raw.ospa, type2.ospa, rtol=0, atol=1e-8)
        assert np.all(raw.card_est == type2.card_est)


def whitened_sq(chol, d):
    """|chol^-1 d|^2 of one residual by forward substitution in Python
    floats, one row at a time: the reference of the stacked whitening."""
    y = []
    for k in range(len(d)):
        acc = float(d[k])
        for j in range(k):
            acc -= float(chol[k, j]) * y[j]
        y.append(acc / float(chol[k, k]))
    total = y[0] * y[0]
    for v in y[1:]:
        total += v * v
    return total


def measurement_costs(means, covs, batch, view, gate_prob):
    """The per-sensor cost route the one-pass build replaced, kept as its
    reference: one sensor's (N, M) table from its own innovation stack,
    each raw cell whitened on its own (`whitened_sq`)."""
    z_hat, s = innovation_stack(means, covs, batch)
    diffs = batch.zs[None, :, :] - z_hat[:, None, :]
    if batch.transformed:
        w, v, keep = psd_eig_stack(s)
        rank = np.count_nonzero(keep, axis=1)
        sq = (diffs @ v) ** 2
        d2 = np.sum(np.divide(sq, w[:, None, :], out=np.zeros_like(sq),
                              where=keep[:, None, :]), axis=2)
        gated = d2 <= np.array([chi2_gate(gate_prob, int(r)) for r in rank])[:, None]
        if np.any(gated & (rank == 0)[:, None]):
            raise NumericsError("transformed covariance has rank zero")
        # out of range: the part off range(S) above 1e-8 (|z| + |z_hat|)
        outside = np.sum(np.where(keep[:, None, :], 0.0, sq), axis=2)
        scale = (np.linalg.norm(batch.zs, axis=1)[None, :]
                 + np.linalg.norm(z_hat, axis=1)[:, None])
        if np.any(gated & (outside > (1e-8 * scale) ** 2)):
            raise InconsistentTransformError(
                "residual is outside the range of the transformed covariance")
        norm = rank * LOG_2PI + np.sum(np.log(w, out=np.zeros_like(w), where=keep),
                                       axis=1)
    else:
        c = cholesky(s, "innovation covariance")
        d2 = np.array([[whitened_sq(ct, d) for d in dt] for ct, dt in zip(c, diffs)],
                      dtype=float).reshape(diffs.shape[:2])
        gated = d2 <= chi2_gate(gate_prob, s.shape[-1])
        norm = (s.shape[-1] * LOG_2PI
                + 2.0 * np.sum(np.log(np.diagonal(c, axis1=1, axis2=2)), axis=1))
    log_lik = -0.5 * (norm[:, None] + d2)
    cost = -(math.log(view.p_d) + log_lik - math.log(view.clutter.rate)
             - view.clutter.log_density)
    return np.where(gated, cost, BIG)


def per_sensor_tables(preds, batches, views, cfg):
    """Maintenance tables scored sensor by sensor (`measurement_costs`)."""
    n = len(preds)
    if n:
        means = np.stack([e.mean for e in preds])
        covs = np.stack([e.cov for e in preds])
    tables = []
    for batch, view in zip(batches, views):
        meas = np.full((n, batch.n_meas), BIG)
        if n and batch.n_meas:
            meas = measurement_costs(means, covs, batch, view, cfg.gate_prob)
        tables.append(padded_table(meas, np.full(n, min(-math.log1p(-view.p_d), BIG)
                                                 if view.p_d < 1 else BIG)))
    return tables


def outcome(fn):
    """fn()'s value, or the type and message of the TrackfuseError it raises."""
    try:
        return fn()
    except TrackfuseError as exc:
        return type(exc), str(exc)


class TestOnePassBuild:
    """The one-pass build against the per-sensor reference, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_tracks=st.integers(0, 6),
           meas_counts=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           kind=st.sampled_from(["raw", "type1", "type2", "generic"]),
           from_stack=st.booleans(),
           fault=st.sampled_from([None, "nan", "indefinite", "off_range", "off_range"]))
    def test_tables_and_errors_equal_the_per_sensor_route(
            self, seed, n_tracks, meas_counts, kind, from_stack, fault):
        rng = np.random.default_rng(seed)
        p_ds = [1.0 if rng.random() < 0.3 else float(rng.uniform(0.5, 0.99))
                for _ in meas_counts]
        tracks, raw, tr = maintenance_instance(
            rng, n_tracks, meas_counts, "type2" if kind == "raw" else kind, p_ds)
        batches, views = raw if kind == "raw" else tr
        if from_stack:
            # views into one FactorStack, as a tape scan's batches are
            factors = payload_factors(np.stack([b.H for b in batches]),
                                      np.stack([b.R for b in batches]), kind != "raw")
            batches = [MeasurementBatch.from_factor(l, b.zs, factors[l], b.kind)
                       for l, b in enumerate(batches)]
        if fault in ("nan", "indefinite") and tracks:
            t = int(rng.integers(n_tracks))
            cov = tracks[t].cov.copy()
            if fault == "nan":
                cov[0, 0] = np.nan
            else:
                cov = cov - 2.0 * np.max(np.abs(cov)) * np.eye(4)
            tracks[t] = GaussianEstimate._trusted(tracks[t].mean, cov)
        if fault == "off_range" and kind == "generic":
            for l, b in enumerate(batches):
                if b.n_meas and rng.random() < 0.5:
                    # along the null direction of the rank-deficient R
                    _, v = np.linalg.eigh(b.R)
                    zs = b.zs + 1e-3 * np.linalg.norm(b.zs, axis=1)[:, None] * v[:, 0]
                    batches[l] = MeasurementBatch(l, zs, b.H, b.R, b.kind)
        cfg = MdaConfig()
        want = outcome(lambda: per_sensor_tables(tracks, batches, views, cfg))
        got = outcome(lambda: build_mda_problem(tracks, batches, views, cfg))
        if isinstance(want, tuple):
            assert got == want
            return
        assert [t.shape for t in got.tables] == [t.shape for t in want]
        for g, w in zip(got.tables, want):
            assert np.array_equal(g, w)
        assert got.n_candidates == sum(int(np.count_nonzero(t < BIG)) for t in want)

    def test_single_measurement_sensors_and_the_first_failing_sensor(self):
        # M_l = 1 next to wider sensors, whitened in the padded stack, has
        # the bits of its own row; when two sensors fail, the first in
        # sensor order raises its own error
        rng = np.random.default_rng(44)
        cfg = MdaConfig()
        for _ in range(10):
            tracks, raw, tr = maintenance_instance(rng, 3, [1, 4, 1], "generic")
            for batches, views in (raw, tr):
                for g, w in zip(build_mda_problem(tracks, batches, views, cfg).tables,
                                per_sensor_tables(tracks, batches, views, cfg)):
                    assert np.array_equal(g, w)
        est = tracks[0]
        _, v = np.linalg.eigh(views[0].R)
        z = views[0].H @ est.mean
        off_range = MeasurementBatch(0, (z + v[:, 0] * 1e-3 * np.linalg.norm(z))[None],
                                     views[0].H, views[0].R, "generic")
        nan_noise = MeasurementBatch(1, batches[1].zs, batches[1].H,
                                     np.full(batches[1].R.shape, np.nan), "generic")
        for pair, error in (((off_range, nan_noise), InconsistentTransformError),
                            ((nan_noise, off_range), NumericsError)):
            want = outcome(lambda: per_sensor_tables([est], pair, views[:2], cfg))
            assert want[0] is error
            assert outcome(lambda: build_mda_problem([est], pair, views[:2], cfg)) == want


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
        stacked = update_maintained(preds, idx, batches)
        for got, want, pred, row in zip(stacked, sequential_update(preds, assignments, batches),
                                        preds, idx):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.cov, want.cov)
            assert got.timestamp == want.timestamp == pred.timestamp
            if not row.any():
                assert np.array_equal(got.mean, pred.mean)
                assert np.array_equal(got.cov, pred.cov)


class TestHeldInnovations:
    """`update_maintained` fed the build's innovations gives the bits of
    the update that computes its own."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_tracks=st.integers(0, 6),
           meas_counts=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           kind=st.sampled_from(["raw", "type1", "type2", "generic"]),
           from_stack=st.booleans())
    def test_equals_the_update_that_computes_its_own(self, seed, n_tracks, meas_counts,
                                                    kind, from_stack):
        rng = np.random.default_rng(seed)
        tracks, raw, tr = maintenance_instance(
            rng, n_tracks, meas_counts, "type2" if kind == "raw" else kind)
        batches, views = raw if kind == "raw" else tr
        if from_stack:
            factors = payload_factors(np.stack([b.H for b in batches]),
                                      np.stack([b.R for b in batches]), kind != "raw")
            batches = [MeasurementBatch.from_factor(l, b.zs, factors[l], b.kind)
                       for l, b in enumerate(batches)]
        preds = EstimateStack.of(tracks)
        idx = np.zeros((n_tracks, len(batches)), dtype=int)
        for l, m in enumerate(meas_counts):
            for i, t in enumerate(rng.permutation(n_tracks)[:m]):
                if rng.random() < 0.7:
                    idx[t, l] = i + 1
        problem = build_mda_problem(preds, batches, views, MdaConfig())
        before = preds.means.tobytes(), preds.covs.tobytes()
        calls = []
        innovation = mda_mod.innovation_stack
        with mock.patch.object(mda_mod, "innovation_stack",
                               lambda *args: calls.append(1) or innovation(*args)):
            got = update_maintained(preds, idx, batches, problem)
        # only rows an earlier sensor updated compute their innovations
        if kind != "generic" and np.all(np.count_nonzero(idx, axis=1) <= 1):
            assert calls == []
        want = update_maintained(preds, idx, batches)
        assert got.means.tobytes() == want.means.tobytes()
        assert got.covs.tobytes() == want.covs.tobytes()
        assert np.array_equal(got.timestamps, preds.timestamps)
        assert (preds.means.tobytes(), preds.covs.tobytes()) == before
        if not idx.any():
            # nothing changed, nothing copied
            assert got.means is preds.means and got.covs is preds.covs


def counted(calls, name, fn):
    """fn, appending `name` to `calls` on every call."""
    return lambda *args, **kw: calls.append(name) or fn(*args, **kw)


class TestEigenRouteUpdate:
    """Transformed covariance-form updates take the core's eigen route: no
    Cholesky factor, `eigvalsh` or inverse solve, the build's eigenpairs
    where they are held and one `eigh` per sensor where they are not."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_tracks=st.integers(0, 6),
           meas_counts=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           kind=st.sampled_from(["type1", "type2"]))
    def test_factors_each_unheld_sensor_once(self, seed, n_tracks, meas_counts, kind):
        rng = np.random.default_rng(seed)
        tracks, _, (batches, views) = maintenance_instance(rng, n_tracks, meas_counts, kind)
        preds = EstimateStack.of(tracks)
        idx = np.zeros((n_tracks, len(batches)), dtype=int)
        for l, m in enumerate(meas_counts):
            for i, t in enumerate(rng.permutation(n_tracks)[:m]):
                if rng.random() < 0.7:
                    idx[t, l] = i + 1
        problem = build_mda_problem(preds, batches, views, MdaConfig())
        for b in batches:
            b.factor  # made on first use, outside the count
        # the sensors whose rows an earlier sensor updated
        unheld = 0
        for l in range(len(batches)):
            rows = np.flatnonzero(idx[:, l])
            if rows.size:
                sel = slice(None) if rows.size == n_tracks else rows
                unheld += bool(idx[sel, :l].any())
        calls = []
        with mock.patch.multiple(np.linalg, **{
                name: counted(calls, name, getattr(np.linalg, name))
                for name in ("cholesky", "eigvalsh", "solve", "eigh")}):
            update_maintained(preds, idx, batches, problem)
        assert calls == ["eigh"] * unheld

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_unheld_innovation_raises_typed_error(self, bad):
        rng = np.random.default_rng(7)
        tracks, _, (batches, views) = maintenance_instance(rng, 2, [2, 2], "type2")
        preds = EstimateStack.of(tracks)
        problem = build_mda_problem(preds, batches, views, MdaConfig())
        # track 0 takes a measurement of sensor 0, then one of sensor 1,
        # whose innovations are computed again and come out non-finite
        idx = np.array([[1, 1], [0, 0]])
        calls = []
        innovation = mda_mod.innovation_stack

        def corrupted(*args):
            calls.append(1)
            z_hat, s = innovation(*args)
            s[0, 0, 0] = s[0, 1, 1] = bad
            return z_hat, s

        with mock.patch.object(mda_mod, "innovation_stack", corrupted), \
                pytest.raises(NumericsError, match="^innovation covariance is not finite$"):
            update_maintained(preds, idx, batches, problem)
        assert calls == [1]


def reference_initiation_problem(batches, sensors, cfg, available):
    """The initiation build with one Cholesky factor and one forward
    substitution (`whitened_sq`) per measurement pair, kept as the
    reference of the per-sensor-pair gate."""
    n_sensors = len(batches)
    back = [_backprojected_positions(b) for b in batches]
    gamma = chi2_gate(mda_mod.INIT_GATE_PROB, 2)

    def compatible(l1, i1, l2, i2):
        if back[l1] is None or back[l2] is None:
            return True
        p1, c1 = back[l1][0][i1 - 1], back[l1][1]
        p2, c2 = back[l2][0][i2 - 1], back[l2][1]
        return whitened_sq(np.linalg.cholesky(c1 + c2), p1 - p2) <= gamma

    groups = []
    for combo in itertools.product(*[[0] + list(avail) for avail in available]):
        picked = [(l, i) for l, i in enumerate(combo) if i > 0]
        if len(picked) < cfg.init_min_meas:
            continue
        if any(not compatible(l1, i1, l2, i2)
               for (l1, i1), (l2, i2) in itertools.combinations(picked, 2)):
            continue
        meas = [batches[l].zs[i - 1] if i > 0 else None for l, i in enumerate(combo)]
        hyp = score_without_prior(meas, sensors, combo)
        if math.isfinite(hyp.cost):
            groups.append([Candidate(combo, hyp.cost), Candidate((0,) * n_sensors, 0.0)])
    return groups, compatible


def initiation_instance(rng, kinds, meas_counts):
    """Batches and views of one initiation scan: sensors of position models
    (raw or type2, with a backprojection) or of models that see velocity
    (without one), measuring three targets, with a spread drawn per scan,
    or clutter in an 80 m box, so that the pairwise gate both passes and
    fails and many pairs fall near its threshold."""
    targets = rng.uniform(-30.0, 30.0, (3, 2))
    spread = rng.uniform(2.0, 15.0)
    batches, views = [], []
    for l, (kind, m) in enumerate(zip(kinds, meas_counts)):
        model = position_model(rng, l)
        if kind == "velocity":
            model = MeasurementModel(np.hstack([model.H[:, :2], 0.3 * np.eye(2)]), model.R, l)
        pos = rng.uniform(-40.0, 40.0, (m, 2))
        near = rng.random(m) < 0.6
        pos[near] = targets[rng.integers(3, size=int(near.sum()))] + spread * rng.standard_normal(
            (int(near.sum()), 2))
        zs = pos @ model.H[:, :2].T
        clutter = ClutterModel(10.0, 1e6)
        if kind == "type2":
            tr = make_transformation("type2", model, rng)
            batches.append(MeasurementBatch(l, zs @ tr.A.T, tr.Ht, tr.Rt, "type2"))
            views.append(SensorView(tr.Ht, tr.Rt, 0.9, clutter, True))
        else:
            batches.append(MeasurementBatch(l, zs, model.H, model.R, "raw"))
            views.append(SensorView(model.H, model.R, 0.9, clutter, False))
    return batches, views


class TestInitiationGate:
    """One stacked gate per sensor pair against the per-pair whitening."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["raw", "type2", "velocity"]),
                          min_size=2, max_size=5),
           min_meas=st.sampled_from([2, 3]),
           data=st.data())
    def test_decisions_and_groups_equal_the_per_pair_solves(self, seed, kinds, min_meas,
                                                            data):
        rng = np.random.default_rng(seed)
        meas_counts = data.draw(st.lists(st.integers(0, 4), min_size=len(kinds),
                                         max_size=len(kinds)))
        batches, views = initiation_instance(rng, kinds, meas_counts)
        available = [sorted(data.draw(st.sets(st.integers(1, m), max_size=m)))
                     if m else [] for m in meas_counts]
        cfg = MdaConfig(init_min_meas=min_meas)
        want_groups, compatible = reference_initiation_problem(batches, views, cfg,
                                                               available)
        back = [_backprojected_positions(b) for b in batches]
        gates = _pair_gates(back, available, chi2_gate(mda_mod.INIT_GATE_PROB, 2))
        for l1, l2 in itertools.combinations(range(len(kinds)), 2):
            both = back[l1] is not None and back[l2] is not None
            assert ((l1, l2) in gates) == (both and bool(available[l1])
                                           and bool(available[l2]))
            for k1, i1 in enumerate(available[l1]):
                for k2, i2 in enumerate(available[l2]):
                    got = gates[l1, l2][k1][k2] if (l1, l2) in gates else True
                    assert got == compatible(l1, i1, l2, i2)
        problem = build_initiation_problem(batches, views, cfg, available)
        assert problem.groups == want_groups
        assert problem.meas_counts == meas_counts

    def test_gated_pairs_occur_on_both_sides_of_the_gate(self):
        # the instances above exercise both decisions, not one
        rng = np.random.default_rng(5)
        batches, views = initiation_instance(rng, ["raw", "type2", "raw"], [4, 4, 4])
        back = [_backprojected_positions(b) for b in batches]
        available = [[1, 2, 3, 4]] * 3
        gates = _pair_gates(back, available, chi2_gate(0.99, 2))
        decided = [gates[pair][k1][k2] for pair in gates
                   for k1 in range(4) for k2 in range(4)]
        assert len(gates) == 3 and 0 < sum(decided) < len(decided)

    def test_decisions_at_the_threshold_equal_the_per_pair_solves(self):
        # sensor 1's backprojected positions put the quadratic form within
        # about 20 ulps of the gate, where a form rounded differently from
        # the per-pair forward substitution flips decisions
        rng = np.random.default_rng(11)
        batches, views = initiation_instance(rng, ["raw", "type2"], [1, 1])
        back = [_backprojected_positions(b) for b in batches]
        cfg = MdaConfig()
        gamma = chi2_gate(mda_mod.INIT_GATE_PROB, 2)
        c = back[0][1] + back[1][1]
        angle = rng.uniform(0.0, 2.0 * math.pi, 60)
        u = np.stack([np.cos(angle), np.sin(angle)], axis=1)
        q = np.array([whitened_sq(np.linalg.cholesky(c), v) for v in u])
        r = np.sqrt(gamma / q) * (1.0 + rng.uniform(-2e-15, 2e-15, 60))
        # a type2 payload's measurements are positions
        batches[1] = MeasurementBatch(1, back[0][0][0] + r[:, None] * u, batches[1].H,
                                      batches[1].R, "type2")
        available = [[1], list(range(1, 61))]
        want_groups, compatible = reference_initiation_problem(batches, views, cfg,
                                                               available)
        back = [_backprojected_positions(b) for b in batches]
        gate = _pair_gates(back, available, gamma)[0, 1][0]
        assert gate == [compatible(0, 1, 1, i) for i in range(1, 61)]
        assert 0 < sum(gate) < 60
        assert build_initiation_problem(batches, views, cfg, available).groups == want_groups

    def test_one_cholesky_and_no_solve_per_sensor_pair(self, monkeypatch):
        rng = np.random.default_rng(9)
        kinds = ["raw", "type2", "velocity", "raw"]
        batches, views = initiation_instance(rng, kinds, [6, 5, 4, 6])
        for b in batches:
            b.factor  # factored before counting
        calls = []

        def counting(name, call):
            def counted(a, *args):
                calls.append((name, np.shape(a)))
                return call(a, *args)
            return counted

        # scoring factors per tuple; stubbed, the gate's calls are all that is left
        monkeypatch.setattr(mda_mod, "score_without_prior",
                            lambda meas, sensors, combo: HypothesisCost(combo, 0.0))
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
        problem = build_initiation_problem(batches, views, MdaConfig(),
                                           [[1, 2, 3, 4, 5, 6], [2, 3, 5], [1, 4], []])
        # one factor for the 18 pairs of the backprojecting sensors 0 and 1
        # (sensor 3 has nothing available, sensor 2 no backprojection)
        assert calls == [("cholesky", (2, 2))]
        assert problem.groups


class BuildTooLong(BaseException):
    """Raised into a build that exceeds its time bound."""


def separated_instance(rng, n_sensors, n_targets, n_clutter):
    """Raw batches and views of position sensors that each measure
    `n_targets` targets 1 km apart without noise, then `n_clutter[l]`
    clutter points, each at least 1 km from every other point, in a shuffled
    order; with the measurement's target (-1 for clutter) per sensor."""
    targets = 1000.0 * np.stack([np.arange(n_targets), np.zeros(n_targets)], axis=1)
    batches, views, owners = [], [], []
    for l in range(n_sensors):
        model = position_model(rng, l)
        clutter = 1000.0 * np.stack([np.full(n_clutter[l], l + 1.0),
                                     1.0 + np.arange(n_clutter[l])], axis=1)
        owner = rng.permutation(np.r_[np.arange(n_targets), np.full(n_clutter[l], -1)])
        pos = targets[owner]
        pos[owner < 0] = clutter
        batches.append(MeasurementBatch(l, pos @ model.H[:, :2].T, model.H, model.R, "raw"))
        views.append(SensorView(model.H, model.R, 0.9, ClutterModel(10.0, 1e6)))
        owners.append(owner)
    return batches, views, owners


class TestPrefixWalk:
    """Initiation tuples grown sensor by sensor, counted before scoring."""

    SECONDS = 5.0

    def test_ten_sensors_with_mostly_failing_pairs_build_in_seconds(self):
        # 7^4 x 6^6 (1.1e8) tuples in the product; a measurement gates only
        # with the same target's, so 3 x (2^10 - 11) tuples survive
        rng = np.random.default_rng(40)
        n_clutter = [3] * 4 + [2] * 6
        batches, views, owners = separated_instance(rng, 10, 3, n_clutter)
        assert math.prod(b.n_meas + 1 for b in batches) >= 6 ** 10

        def too_long(signum, frame):
            raise BuildTooLong(f"the build ran past {self.SECONDS} s")

        previous = signal.signal(signal.SIGALRM, too_long)
        signal.setitimer(signal.ITIMER_REAL, self.SECONDS)
        try:
            problem = build_initiation_problem(batches, views, MdaConfig())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        tuples = [g[0].indices for g in problem.groups]
        assert len(tuples) == 3 * (2 ** 10 - 11)
        assert tuples == sorted(tuples)
        for tup in tuples:
            owner = {owners[l][i - 1] for l, i in enumerate(tup) if i}
            assert len(owner) == 1 and owner != {-1}

    def test_cap_counts_prefixes_before_any_tuple_is_scored(self, monkeypatch):
        # three sensors with three measurements of one point each: the walk
        # makes 4 + 15 + 54 prefixes, the 54 tuples of two or three of them
        rng = np.random.default_rng(41)
        batches, views, _ = separated_instance(rng, 3, 1, [0, 0, 0])
        batches = [MeasurementBatch(l, np.repeat(b.zs, 3, axis=0), b.H, b.R, "raw")
                   for l, b in enumerate(batches)]
        scored = []

        def counting(meas, sensors, indices):
            scored.append(indices)
            return score_without_prior(meas, sensors, indices)

        monkeypatch.setattr(mda_mod, "score_without_prior", counting)
        assert len(build_initiation_problem(batches, views, MdaConfig(max_tuples=73)).groups) == 54
        assert len(scored) == 54
        scored.clear()
        for cap in (72, 10, 3):
            with pytest.raises(ResourceLimitError, match="cap"):
                build_initiation_problem(batches, views, MdaConfig(max_tuples=cap))
        assert scored == []
