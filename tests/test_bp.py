"""Particle-BP tracker: messages, updates, beliefs, pipeline equivalence."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import solve_triangular
from scipy.stats import chi2

from conftest import paired_views, position_model
from trackfuse import bp
from trackfuse.bp import (
    AssociationMessages,
    BpConfig,
    BpSensorInput,
    ParticleBelief,
    belief_calculation,
    bp_pipeline_step,
    bp_predict,
    declare_estimate_prune,
    iterative_association,
    measurement_evaluation,
    measurement_update,
    propose_births,
)
from trackfuse.errors import DegenerateBeliefError, InputError, NumericsError
from trackfuse.linalg import psd_eig
from trackfuse.models import MeasurementBatch, MotionModel
from trackfuse.transform import LOG_2PI, ClutterModel


def cv_motion(q=0.0):
    f = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    gamma = np.kron(np.array([[0.5], [1.0]]), np.eye(2))
    return MotionModel(f, gamma @ (q ** 2 * np.eye(2)) @ gamma.T)


def enum_association_marginals(beta, xi):
    """Exhaustive marginals over admissible association events (oracle)."""
    n, m = beta.shape[0], beta.shape[1] - 1
    pa = np.zeros_like(beta)
    pb = np.zeros_like(xi)
    for avec in itertools.product(range(m + 1), repeat=n):
        for bvec in itertools.product(range(n + 1), repeat=m):
            admissible = True
            for t in range(n):
                for i in range(m):
                    a, b = avec[t], bvec[i]
                    if (a == i + 1 and b != t + 1) or \
                            (b == t + 1 and a != i + 1):
                        admissible = False
            if not admissible:
                continue
            w = np.prod([beta[t, avec[t]] for t in range(n)]) * \
                np.prod([xi[i, bvec[i]] for i in range(m)])
            for t in range(n):
                pa[t, avec[t]] += w
            for i in range(m):
                pb[i, bvec[i]] += w
    return (pa / pa.sum(axis=1, keepdims=True),
            pb / pb.sum(axis=1, keepdims=True))


def uniform_belief(particles, r, label=0):
    n = particles.shape[0]
    return ParticleBelief(particles, np.full(n, r / n), r, label)


def simple_input(rng, zs, p_d=0.9, rate=10.0, volume=1.13e6, sensor_id=0):
    model = position_model(rng, sensor_id)
    batch = MeasurementBatch(sensor_id, zs, model.H, model.R, "raw")
    return BpSensorInput(batch, p_d, ClutterModel(rate, volume))


class TestPredict:
    def test_deterministic_shift_when_noise_free(self):
        rng = np.random.default_rng(0)
        particles = rng.standard_normal((100, 4))
        belief = uniform_belief(particles, 0.8)
        out = bp_predict([belief], cv_motion(q=0.0), 1.0,
                         np.random.default_rng(1))
        np.testing.assert_allclose(out[0].particles,
                                   particles @ cv_motion().F.T)
        assert out[0].r_prob == pytest.approx(0.8)

    def test_nonexistent_stays_nonexistent(self):
        belief = uniform_belief(np.zeros((10, 4)), 0.0)
        out = bp_predict([belief], cv_motion(), 0.95, np.random.default_rng(2))
        assert out[0].r_prob == 0.0

    def test_survival_decay(self):
        belief = uniform_belief(np.zeros((10, 4)), 0.8)
        out = bp_predict([belief], cv_motion(), 0.95, np.random.default_rng(3))
        assert out[0].r_prob == pytest.approx(0.76)
        assert np.sum(out[0].weights) == pytest.approx(0.76)

    def test_block_draws_equal_per_belief_draws(self):
        rng = np.random.default_rng(4)
        # runs of 300 and 500 particles; the run of 18 beliefs of 500
        # splits at the block cap
        counts = (300, 500, 500, 300) + (500,) * 18
        beliefs = [uniform_belief(rng.standard_normal((n, 4)), 0.5, label=k)
                   for k, n in enumerate(counts)]
        motion = cv_motion(q=0.3)
        out = bp_predict(beliefs, motion, 0.9, np.random.default_rng(5))
        w, v = np.linalg.eigh(motion.Q)
        sqrt_q = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
        ref_rng = np.random.default_rng(5)
        for b, new in zip(beliefs, out):
            noise = ref_rng.standard_normal(b.particles.shape) @ sqrt_q.T
            np.testing.assert_array_equal(new.particles,
                                          b.particles @ motion.F.T + noise)
            np.testing.assert_array_equal(new.weights, b.weights * 0.9)
            assert (new.r_prob, new.label) == (b.r_prob * 0.9, b.label)


class TestMeasurementEvaluation:
    def test_far_target_has_vanishing_measurement_terms(self):
        rng = np.random.default_rng(4)
        inp = simple_input(rng, np.array([[500.0, 500.0]]))
        particles = np.zeros((200, 4))
        belief = uniform_belief(particles, 0.9)
        clouds = propose_births(inp, BpConfig(n_particles=50), 4,
                                np.random.default_rng(5))
        msgs, _, _ = measurement_evaluation([belief], inp,
                                            BpConfig(n_particles=50), clouds)
        assert msgs.beta[0, 1] <= 1e-12 * msgs.beta[0, 0]

    @pytest.mark.parametrize("kind", ["raw", "type2"])
    def test_gate_edge_from_weighted_innovation_moments(self, kind):
        rng = np.random.default_rng(9)
        particles = rng.standard_normal((400, 4)) * [6.0, 3.0, 1.0, 1.0]
        weights = rng.uniform(0.2, 1.0, 400)
        belief = ParticleBelief(particles, 0.8 * weights / weights.sum(), 0.8, "b")
        h = np.array([[1.0, 0.3, 0.0, 0.0], [-0.2, 1.0, 0.0, 0.0]])
        r = np.array([[9.0, 2.0], [2.0, 4.0]])
        total = belief.weights.sum()
        mu = belief.weights @ particles / total
        centred = particles - mu
        cov = (centred * belief.weights[:, None]).T @ centred / total
        s_cov = h @ cov @ h.T + r
        cfg = BpConfig(n_particles=20)
        gamma = chi2.ppf(cfg.gate_prob, 2)
        # two measurements along one direction at squared distances just
        # inside and just outside the gate
        u = np.array([0.6, 0.8])
        step = u / math.sqrt(u @ np.linalg.solve(s_cov, u))
        zs = h @ mu + np.outer(np.sqrt([0.999 * gamma, 1.001 * gamma]), step)
        batch = MeasurementBatch(0, zs, h, r, "raw")
        if kind == "type2":
            a = np.array([[2.0, 1.0], [0.5, 3.0]])
            batch = MeasurementBatch(0, zs @ a.T, a @ h, a @ r @ a.T, "type2")
        inp = BpSensorInput(batch, 0.9, ClutterModel(10.0, 1e6))
        clouds = propose_births(inp, cfg, 4, np.random.default_rng(10))
        _, q_cache, _ = measurement_evaluation([belief], inp, cfg, clouds)
        assert list(q_cache) == [(0, 0)]

    def test_zero_detection_probability(self):
        rng = np.random.default_rng(6)
        zs = np.array([[0.0, 0.0]])
        model = position_model(rng)
        batch = MeasurementBatch(0, zs, model.H, model.R, "raw")
        inp = BpSensorInput(batch, 0.5, ClutterModel(10.0, 1e6),
                            detect_fn=lambda pos: np.zeros(pos.shape[0]))
        belief = uniform_belief(np.zeros((100, 4)), 0.7)
        clouds = propose_births(inp, BpConfig(n_particles=20), 4,
                                np.random.default_rng(7))
        msgs, _, _ = measurement_evaluation([belief], inp,
                                            BpConfig(n_particles=20), clouds)
        assert msgs.beta[0, 1] == 0.0
        # r-marginalized miss term: 1*w-mass + (1 - r) = 0.7 + 0.3
        assert msgs.beta[0, 0] == pytest.approx(1.0)

    def test_raw_vs_transformed_messages_agree(self):
        rng = np.random.default_rng(8)
        for kind in ("type1", "type2", "generic"):
            views_raw, views_tr, trs = paired_views(rng, 1, kind)
            tr = trs[0]
            particles = np.hstack([rng.uniform(-20, 20, (400, 2)),
                                   rng.standard_normal((400, 2))])
            belief = uniform_belief(particles, 0.85)
            zs = rng.uniform(-25, 25, (4, 2))
            batch_raw = MeasurementBatch(0, zs @ views_raw[0].H[:, :2].T,
                                         views_raw[0].H, views_raw[0].R, "raw")
            batch_tr = MeasurementBatch(0, batch_raw.zs @ tr.A.T,
                                        views_tr[0].H, views_tr[0].R, kind)
            cfg = BpConfig(n_particles=60)
            inp_raw = BpSensorInput(batch_raw, 0.9, views_raw[0].clutter)
            inp_tr = BpSensorInput(batch_tr, 0.9, views_tr[0].clutter)
            rng_a = np.random.default_rng(1234)
            rng_b = np.random.default_rng(1234)
            clouds_raw = propose_births(inp_raw, cfg, 4, rng_a)
            clouds_tr = propose_births(inp_tr, cfg, 4, rng_b)
            m_raw, q_raw, bl_raw = measurement_evaluation(
                [belief], inp_raw, cfg, clouds_raw)
            m_tr, q_tr, bl_tr = measurement_evaluation(
                [belief], inp_tr, cfg, clouds_tr)
            np.testing.assert_allclose(m_raw.beta, m_tr.beta, rtol=1e-9,
                                       atol=1e-300)
            np.testing.assert_allclose(m_raw.xi, m_tr.xi, rtol=1e-9)
            for key in q_raw:
                np.testing.assert_allclose(q_raw[key], q_tr[key], rtol=1e-9)


class TestIterativeAssociation:
    def test_tree_exact_single_track_single_measurement(self):
        rng = np.random.default_rng(9)
        beta = rng.uniform(0.2, 2.0, (1, 2))
        xi = np.array([[1.4, 1.0]])
        msgs = AssociationMessages(beta.copy(), xi.copy())
        kappa, iota = iterative_association(msgs, 10)
        pa = beta * kappa
        pa /= pa.sum()
        pa_ref, _ = enum_association_marginals(beta, xi)
        np.testing.assert_allclose(pa, pa_ref, atol=1e-12)

    def test_zero_targets_newborn_only(self):
        msgs = AssociationMessages(np.zeros((0, 3)), np.array([[1.5], [2.0]]))
        kappa, iota = iterative_association(msgs, 5)
        assert kappa.shape == (0, 3)
        np.testing.assert_allclose(iota, [[1.0], [1.0]])

    def test_two_by_two_close_to_enumeration(self):
        # hand-set, moderately determinate case
        beta = np.array([[0.2, 5.0, 0.4], [0.3, 0.5, 6.0]])
        xi = np.array([[1.2, 1.0, 1.0], [1.1, 1.0, 1.0]])
        msgs = AssociationMessages(beta.copy(), xi.copy())
        kappa, iota = iterative_association(msgs, 10)
        pa = beta * kappa
        pa /= pa.sum(axis=1, keepdims=True)
        pb = xi * iota
        pb /= pb.sum(axis=1, keepdims=True)
        pa_ref, pb_ref = enum_association_marginals(beta, xi)
        assert np.max(np.abs(pa - pa_ref)) <= 0.02
        assert np.max(np.abs(pb - pb_ref)) <= 0.02

    def test_message_vectors_reconstruct(self):
        beta = np.array([[0.5, 1.0, 0.7], [0.4, 0.6, 1.2]])
        xi = np.ones((2, 3))
        xi[:, 0] = [1.3, 1.6]
        msgs = AssociationMessages(beta.copy(), xi.copy())
        iterative_association(msgs, 3)
        vec = msgs.nu_vector(0, 1)
        assert vec.shape == (3,)
        assert vec[1] == msgs.nu_eq[0, 1]
        assert vec[0] == vec[2] == msgs.nu_neq[0, 1]
        assert np.all(np.isfinite(vec)) and np.all(vec > 0)


class TestMeasurementUpdate:
    def test_missed_detection_only(self):
        rng = np.random.default_rng(10)
        inp = simple_input(rng, np.zeros((0, 2)))
        belief = uniform_belief(np.zeros((50, 4)), 0.6)
        cfg = BpConfig(n_particles=50)
        clouds = []
        msgs, q_cache, bl = measurement_evaluation([belief], inp, cfg, clouds)
        kappa, iota = iterative_association(msgs, 3)
        posts, newborn = measurement_update([belief], msgs, q_cache, bl, inp,
                                            cfg)
        gamma, gamma0 = posts[0]
        np.testing.assert_allclose(gamma, (1 - 0.9) * np.ones(50))
        assert gamma0 == 1.0

    def test_certain_association_weights_proportional_to_likelihood(self):
        rng = np.random.default_rng(11)
        model = position_model(rng)
        particles = np.hstack([rng.uniform(-5, 5, (300, 2)),
                               np.zeros((300, 2))])
        belief = uniform_belief(particles, 0.99)
        z = np.zeros(2)
        inp = simple_input(rng, z[None, :] @ np.eye(2))
        cfg = BpConfig(n_particles=30)
        clouds = propose_births(inp, cfg, 4, np.random.default_rng(12))
        msgs, q_cache, bl = measurement_evaluation([belief], inp, cfg, clouds)
        kappa = np.array([[0.0, 1.0]])
        iota = np.ones((1, 2))
        msgs.kappa, msgs.iota = kappa, iota
        posts, _ = measurement_update([belief], msgs, q_cache, bl, inp, cfg)
        gamma, _ = posts[0]
        q = q_cache[(0, 0)]
        np.testing.assert_allclose(gamma, q)

    def _evaluated(self, rng):
        beliefs = [uniform_belief(np.hstack([rng.uniform(-5, 5, (60, 2)),
                                             np.zeros((60, 2))]), 0.7, label=k)
                   for k in range(2)]
        inp = simple_input(rng, np.array([[0.5, -0.5], [30.0, 30.0]]))
        inp.detect_fn = lambda p: 0.5 + 0.4 * (p[:, 0] > 0)
        cfg = BpConfig(n_particles=60)
        clouds = propose_births(inp, cfg, 4, np.random.default_rng(13))
        msgs, q_cache, bl = measurement_evaluation(beliefs, inp, cfg, clouds)
        iterative_association(msgs, 3)
        return beliefs, msgs, q_cache, bl, inp, cfg

    def test_messages_of_other_beliefs_rejected(self):
        beliefs, msgs, q_cache, bl, inp, cfg = self._evaluated(
            np.random.default_rng(15))
        measurement_update(beliefs, msgs, q_cache, bl, inp, cfg)
        with pytest.raises(InputError):
            measurement_update(beliefs[:1], msgs, q_cache, bl, inp, cfg)
        # messages built by hand carry no detection probabilities
        bare = AssociationMessages(msgs.beta, msgs.xi, kappa=msgs.kappa,
                                   iota=msgs.iota)
        with pytest.raises(InputError):
            measurement_update(beliefs, bare, q_cache, bl, inp, cfg)


class TestBeliefCalculation:
    def test_uninformative_update_keeps_existence(self):
        belief = uniform_belief(np.zeros((40, 4)), 0.55)
        posts = [(np.full(40, 2.5), 2.5)]
        updated, _ = belief_calculation([belief], posts, [], [], [],
                                        BpConfig(n_particles=40),
                                        np.random.default_rng(13))
        assert updated[0].r_prob == pytest.approx(0.55, rel=1e-12)

    def test_zero_newborn_mass(self):
        cloud = np.zeros((20, 4))
        updated, newborn = belief_calculation(
            [], [], [(np.zeros(20), 3.0)], [cloud], ["x"],
            BpConfig(n_particles=20), np.random.default_rng(14))
        assert newborn[0].r_prob == 0.0

    def test_existence_matches_grid_oracle(self):
        # 2-D toy state, one measurement, known kappa: compare the particle
        # r update against dense-grid numerical integration.
        rng = np.random.default_rng(15)
        prior_mean = np.array([1.0, -2.0])
        prior_cov = np.diag([4.0, 9.0])
        r0 = 0.6
        p_d, lam, vol = 0.85, 8.0, 1.0e4
        z = np.array([2.0, -1.0])
        r_meas = np.diag([2.0, 3.0])
        h = np.eye(2)

        grid = np.linspace(-15, 15, 401)
        gx, gy = np.meshgrid(prior_mean[0] + grid, prior_mean[1] + grid,
                             indexing="ij")
        cell = (grid[1] - grid[0]) ** 2
        prior_pdf = np.exp(-0.5 * ((gx - prior_mean[0]) ** 2 / 4.0
                                   + (gy - prior_mean[1]) ** 2 / 9.0))
        prior_pdf /= prior_pdf.sum() * cell
        lik = np.exp(-0.5 * ((gx - z[0]) ** 2 / 2.0 + (gy - z[1]) ** 2 / 3.0))
        lik /= 2 * math.pi * math.sqrt(6.0)
        kappa = np.array([[0.35, 0.65]])
        gamma_grid = kappa[0, 0] * (1 - p_d) + kappa[0, 1] * p_d * lik / (
            lam / vol)
        mass1 = r0 * float(np.sum(prior_pdf * gamma_grid)) * cell
        mass0 = (1 - r0) * kappa[0, 0]
        r_oracle = mass1 / (mass1 + mass0)

        n_p = 20000
        particles = prior_mean + rng.standard_normal((n_p, 2)) @ np.diag(
            [2.0, 3.0])
        belief = uniform_belief(particles, r0)
        batch = MeasurementBatch(0, z[None, :], h, r_meas, "raw")
        inp = BpSensorInput(batch, p_d, ClutterModel(lam, vol))
        cfg = BpConfig(n_particles=n_p)
        msgs, q_cache, bl = measurement_evaluation([belief], inp, cfg,
                                                   [particles.copy()])
        msgs.kappa, msgs.iota = kappa, np.ones((1, 2))
        posts, _ = measurement_update([belief], msgs, q_cache, bl, inp, cfg)
        updated, _ = belief_calculation([belief], posts, [], [], [], cfg,
                                        np.random.default_rng(16))
        assert updated[0].r_prob == pytest.approx(r_oracle, abs=0.01)


class TestDeclareEstimatePrune:
    def test_declaration_threshold(self):
        belief = uniform_belief(np.zeros((10, 4)), 0.71)
        estimates, _ = declare_estimate_prune([belief], BpConfig())
        assert len(estimates) == 1

    def test_prune_threshold(self):
        belief = uniform_belief(np.zeros((10, 4)), 1e-7)
        _, surviving = declare_estimate_prune([belief], BpConfig())
        assert surviving == []

    def test_mmse_estimate_is_weighted_mean(self):
        particles = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0]])
        belief = ParticleBelief(particles, np.array([0.4, 0.4]), 0.8, "t")
        estimates, _ = declare_estimate_prune([belief], BpConfig())
        np.testing.assert_allclose(estimates[0][1][:2], [1.0, 1.0])


class TestPipeline:
    def _rng_factory(self, seed):
        import zlib

        def rng_for(purpose, sensor):
            return np.random.default_rng(np.random.SeedSequence(
                [seed, zlib.crc32(purpose.encode()), sensor % 2 ** 32]))
        return rng_for

    def test_no_measurements_survival_decay_only(self):
        # out of the sensor's view, an empty scan only applies the
        # survival decay; inside the view the missed-detection factor
        # additionally lowers existence
        rng = np.random.default_rng(17)
        model = position_model(rng)
        batch = MeasurementBatch(0, np.zeros((0, 2)), model.H, model.R, "raw")
        blind = BpSensorInput(batch, 0.9, ClutterModel(10.0, 1e6),
                              detect_fn=lambda pos: np.zeros(pos.shape[0]))
        belief = uniform_belief(rng.standard_normal((100, 4)), 0.9)
        cfg = BpConfig(n_particles=100, survival_prob=0.95)
        beliefs, _ = bp_pipeline_step([belief], [blind], cv_motion(q=0.1),
                                      cfg, self._rng_factory(1), scan=1)
        assert len(beliefs) == 1
        assert beliefs[0].r_prob == pytest.approx(0.95 * 0.9, rel=1e-9)

        seeing = simple_input(rng, np.zeros((0, 2)))
        belief2 = uniform_belief(rng.standard_normal((100, 4)), 0.9)
        beliefs2, _ = bp_pipeline_step([belief2], [seeing], cv_motion(q=0.1),
                                       cfg, self._rng_factory(1), scan=1)
        decayed = 0.95 * 0.9
        expected = decayed * 0.1 / (decayed * 0.1 + (1 - decayed))
        assert beliefs2[0].r_prob == pytest.approx(expected, rel=1e-9)

    def test_measurement_at_prediction_raises_existence(self):
        rng = np.random.default_rng(18)
        state = np.array([10.0, 5.0, 1.0, 0.0])
        particles = state + 0.5 * rng.standard_normal((500, 4))
        belief = uniform_belief(particles, 0.5)
        motion = cv_motion(q=0.1)
        pred = motion.F @ state
        model = position_model(rng)
        z = model.H @ pred
        batch = MeasurementBatch(0, z[None, :], model.H, model.R, "raw")
        inp = BpSensorInput(batch, 0.9, ClutterModel(10.0, 1.13e6))
        cfg = BpConfig(n_particles=500)
        beliefs, _ = bp_pipeline_step([belief], [inp], motion, cfg,
                                      self._rng_factory(2), scan=1)
        assert beliefs[0].r_prob > 0.5

    def test_raw_vs_transformed_full_step(self):
        rng = np.random.default_rng(19)
        views_raw, views_tr, trs = paired_views(rng, 3, "type2")
        state = np.array([0.0, 0.0, 2.0, -1.0])
        beliefs_raw = []
        for i in range(2):
            particles = state + rng.standard_normal((300, 4)) * [5, 5, 1, 1]
            beliefs_raw.append(uniform_belief(particles, 0.7, label=i))
        beliefs_tr = [ParticleBelief(b.particles.copy(), b.weights.copy(),
                                     b.r_prob, b.label) for b in beliefs_raw]
        zs = rng.uniform(-30, 30, (4, 2))
        inputs_raw, inputs_tr = [], []
        for l in range(3):
            raw_z = zs @ views_raw[l].H[:, :2].T
            batch_raw = MeasurementBatch(l, raw_z, views_raw[l].H,
                                         views_raw[l].R, "raw")
            batch_tr = MeasurementBatch(l, raw_z @ trs[l].A.T, views_tr[l].H,
                                        views_tr[l].R, "type2")
            inputs_raw.append(BpSensorInput(batch_raw, 0.9,
                                            views_raw[l].clutter))
            inputs_tr.append(BpSensorInput(batch_tr, 0.9,
                                           views_tr[l].clutter))
        cfg = BpConfig(n_particles=300)
        motion = cv_motion(q=0.1)
        trace_raw, trace_tr = [], []
        out_raw, _ = bp_pipeline_step(beliefs_raw, inputs_raw, motion, cfg,
                                      self._rng_factory(55), 1, trace_raw)
        out_tr, _ = bp_pipeline_step(beliefs_tr, inputs_tr, motion, cfg,
                                     self._rng_factory(55), 1, trace_tr)
        assert len(out_raw) == len(out_tr)
        for step_raw, step_tr in zip(trace_raw, trace_tr):
            for key in ("beta", "xi", "kappa", "iota", "r_prob"):
                np.testing.assert_allclose(step_raw[key], step_tr[key],
                                           rtol=1e-9, atol=1e-300)
            for w_raw, w_tr in zip(step_raw["weights"], step_tr["weights"]):
                np.testing.assert_allclose(w_raw, w_tr, rtol=1e-9,
                                           atol=1e-300)

    def test_sensor_count_bookkeeping(self):
        rng = np.random.default_rng(20)
        beliefs = [uniform_belief(rng.standard_normal((50, 4)) * 10, 0.8,
                                  label=i) for i in range(2)]
        inputs = [simple_input(rng, rng.uniform(-50, 50, (3, 2)), sensor_id=0),
                  simple_input(rng, rng.uniform(-50, 50, (2, 2)), sensor_id=1)]
        cfg = BpConfig(n_particles=50, prune_threshold=1e-300)
        counts = []
        trace = []
        bp_pipeline_step(beliefs, inputs, cv_motion(q=0.1), cfg,
                         self._rng_factory(3), 1, trace)
        # N_{k,l+1} = N_{k,l} + M_{k,l}: 2 -> 5 -> 7 potentials
        assert trace[0]["r_prob"].size == 2 + 3
        assert trace[1]["r_prob"].size == 5 + 2


def reference_evaluation(beliefs, inp, cfg, birth_clouds):
    """Per-belief loop with one psd_eig gate and one likelihood call per
    gated pair, the form the batched evaluation replaced (reference)."""
    batch = inp.batch
    h, r, zs = batch.H, batch.R, batch.zs
    n, m = len(beliefs), batch.n_meas
    if batch.transformed:
        w_r, v_r, rank = psd_eig(r)
        logdet = float(np.sum(np.log(w_r)))

        def quad(d):
            proj = d @ v_r
            return np.sum(proj * proj / w_r, axis=1)
    else:
        c = np.linalg.cholesky(r)
        rank = r.shape[0]
        logdet = 2.0 * float(np.sum(np.log(np.diag(c))))

        def quad(d):
            y = np.linalg.solve(c, d.T)
            return np.sum(y * y, axis=0)

    def loglik(z, particles):
        return -0.5 * (rank * LOG_2PI + logdet + quad(z - particles @ h.T))

    log_ci = math.log(inp.clutter.rate) + inp.clutter.log_density
    gamma = chi2.ppf(cfg.gate_prob, rank)
    beta = np.zeros((n, m + 1))
    q_cache = {}
    for tau, b in enumerate(beliefs):
        pd_x = inp.detection_probs(b.particles[:, :2])
        beta[tau, 0] = float(b.weights @ (1.0 - pd_x)) + (1.0 - b.r_prob)
        total = float(np.sum(b.weights))
        if m == 0 or total <= 0:
            continue
        mu = (b.weights @ b.particles) / total
        centered = b.particles - mu
        cov = (centered * b.weights[:, None]).T @ centered / total
        w_s, v_s, _ = psd_eig(h @ cov @ h.T + r)
        proj = (zs - h @ mu) @ v_s
        for i in np.flatnonzero(np.sum(proj * proj / w_s, axis=1) <= gamma):
            q = pd_x * np.exp(loglik(zs[i], b.particles) - log_ci)
            q_cache[(tau, int(i))] = q
            beta[tau, i + 1] = float(b.weights @ q)
    xi = np.ones((m, n + 1))
    for i in range(m):
        mean_lik = float(np.mean(np.exp(loglik(zs[i], birth_clouds[i]))))
        xi[i, 0] = 1.0 + cfg.birth_rate * mean_lik * math.exp(-log_ci)
    return beta, xi, q_cache


def reference_belief_calculation(beliefs, survived_posts, cfg, rng):
    """Per-belief normalization with one scalar uniform per belief (reference)."""
    out = []
    for b, (gamma, gamma0) in zip(beliefs, survived_posts):
        unnorm1 = b.weights * gamma
        c = float(np.sum(unnorm1)) + (1.0 - b.r_prob) * gamma0
        weights = unnorm1 / c
        r = float(np.sum(weights))
        u = float(rng.random())
        particles = b.particles
        if r > 0:
            wn = weights / r
            if 1.0 / float(np.sum(wn * wn)) < cfg.resample_ess_frac * b.n_particles:
                cumulative = np.cumsum(wn)
                cumulative[-1] = 1.0
                idx = np.searchsorted(cumulative,
                                      (u + np.arange(b.n_particles)) / b.n_particles)
                particles = particles[idx]
                weights = np.full(b.n_particles, r / b.n_particles)
        out.append((particles, weights, min(r, 1.0)))
    return out


def run_step(beliefs, inputs, cfg, trace):
    """One pipeline scan with fixed streams, recording the per-sensor trace."""
    def rng_for(purpose, sensor):
        purposes = ("predict", "birth", "resample")
        return np.random.default_rng([7, purposes.index(purpose), sensor % 2 ** 32])
    return bp_pipeline_step(beliefs, inputs, cv_motion(q=0.1), cfg, rng_for, 1,
                            trace)


class TestBatchedSensorStep:
    def _beliefs(self, rng, counts, spread=4.0):
        beliefs = []
        for k, n_p in enumerate(counts):
            centre = np.array([15.0 * k, -10.0 * k, 1.0, 0.5])
            particles = centre + rng.standard_normal((n_p, 4)) * [spread, spread, 1, 1]
            beliefs.append(uniform_belief(particles, 0.4 + 0.1 * k, label=k))
        return beliefs

    def test_evaluation_matches_per_belief_reference(self):
        rng = np.random.default_rng(60)
        for kind in ("raw", "type2", "generic"):
            views_raw, views_tr, trs = paired_views(
                rng, 1, "type2" if kind == "raw" else kind)
            beliefs = self._beliefs(rng, (200, 350, 500))
            beliefs.append(ParticleBelief(beliefs[0].particles.copy(),
                                          np.zeros(200), 0.0, "empty"))
            zs = np.array([[0.0, 0.0], [15.0, -10.0], [31.0, -19.0], [400.0, 0.0]])
            raw_z = zs @ views_raw[0].H[:, :2].T
            if kind == "raw":
                batch = MeasurementBatch(0, raw_z, views_raw[0].H, views_raw[0].R)
                inp = BpSensorInput(batch, 0.9, views_raw[0].clutter,
                                    detect_fn=lambda p: 0.8 * (p[:, 0] < 20.0))
            else:
                batch = MeasurementBatch(0, raw_z @ trs[0].A.T, views_tr[0].H,
                                         views_tr[0].R, kind)
                inp = BpSensorInput(batch, 0.9, views_tr[0].clutter,
                                    detect_fn=lambda p: 0.8 * (p[:, 0] < 20.0))
            cfg = BpConfig(n_particles=100)
            clouds = propose_births(inp, cfg, 4, np.random.default_rng(61))
            msgs, q_cache, _ = measurement_evaluation(beliefs, inp, cfg, clouds)
            beta, xi, q_ref = reference_evaluation(beliefs, inp, cfg, clouds)
            assert sorted(q_cache) == sorted(q_ref)
            assert {tau for tau, _ in q_cache} == {0, 1, 2}
            np.testing.assert_allclose(msgs.beta, beta, rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(msgs.xi, xi, rtol=1e-12)
            for key, q in q_ref.items():
                np.testing.assert_allclose(q_cache[key], q, rtol=1e-12, atol=1e-300)

    def test_belief_calculation_matches_per_belief_reference(self):
        rng = np.random.default_rng(62)
        beliefs = self._beliefs(rng, (100, 250, 400, 50))
        # a peaked likelihood forces resampling on some beliefs, a flat one
        # keeps the weights of the others
        posts = [(np.exp(-0.5 * np.sum(b.particles[:, :2] ** 2, axis=1) / s), 0.3)
                 for b, s in zip(beliefs, (1.0, 1e6, 4.0, 1e6))]
        cfg = BpConfig(n_particles=100)
        updated, _ = belief_calculation(beliefs, posts, [], [], [], cfg,
                                        np.random.default_rng(63))
        expected = reference_belief_calculation(beliefs, posts, cfg,
                                                 np.random.default_rng(63))
        resampled = 0
        for b, new, (particles, weights, r) in zip(beliefs, updated, expected):
            np.testing.assert_array_equal(new.particles, particles)
            np.testing.assert_array_equal(new.weights, weights)
            assert new.r_prob == r
            resampled += not np.array_equal(new.particles, b.particles)
        assert 0 < resampled < len(beliefs)
        # four particle counts are four runs: each updated belief is the one
        # row of a new particle block and a new weight block
        assert [(new._prow[0].shape, new._prow[1]) for new in updated] == [
            ((1, n_p, 4), 0) for n_p in (100, 250, 400, 50)]
        assert [(new._wrow[0].shape, new._wrow[1]) for new in updated] == [
            ((1, n_p), 0) for n_p in (100, 250, 400, 50)]

    def test_step_writes_one_block(self):
        rng = np.random.default_rng(66)
        # predicted stage blocks of per_block and 4 rows, then 2 newborns
        per_block = bp.BLOCK_PARTICLES // 500
        n = per_block + 4
        beliefs = bp_predict([uniform_belief(rng.standard_normal((500, 4)) * 5.0, 0.5, k)
                              for k in range(n)], cv_motion(q=0.1), 1.0,
                             np.random.default_rng(67))
        assert len({id(b._prow[0]) for b in beliefs}) == 2
        before = [b.particles.copy() for b in beliefs]
        flat = [(np.ones(500), 0.3) for _ in beliefs]
        # one peaked row in the second stage block
        peaked = per_block + 2
        flat[peaked] = (np.exp(-0.5 * np.sum((beliefs[peaked].particles[:, :2]
                                              - beliefs[peaked].particles[0, :2]) ** 2,
                                             axis=1)), 0.3)
        cfg = BpConfig(n_particles=500)
        clouds = propose_births(simple_input(rng, np.array([[0.0, 0.0], [5.0, 5.0]])),
                                cfg, 4, rng)
        newborn_posts = [(np.ones(500), 1.0), (np.ones(500), 2.0)]
        updated, newborn = belief_calculation(beliefs, flat, newborn_posts, clouds,
                                              ["a", "b"], cfg, np.random.default_rng(68))
        out = updated + newborn
        for record, shape in (("_prow", (n + 2, 500, 4)), ("_wrow", (n + 2, 500))):
            assert [getattr(b, record)[1] for b in out] == list(range(n + 2))
            block = getattr(out[0], record)[0]
            assert block.shape == shape
            assert all(getattr(b, record)[0] is block for b in out)
        assert out[0]._prow[0] is not beliefs[0]._prow[0]
        for k in range(n):
            changed = not np.array_equal(updated[k].particles, beliefs[k].particles)
            assert changed == (k == peaked)
        for b, cloud in zip(newborn, clouds):
            np.testing.assert_array_equal(b.particles, cloud)
        # the input blocks are unchanged
        for b, old in zip(beliefs, before):
            np.testing.assert_array_equal(b.particles, old)

    def test_detect_fn_sees_every_particle_once_per_sensor(self):
        rng = np.random.default_rng(64)
        # two beliefs fill a stage block
        n_p = bp.BLOCK_PARTICLES // 2
        inputs, calls = [], []
        for l, m in enumerate((3, 2)):
            inp = simple_input(rng, rng.uniform(-20, 20, (m, 2)), sensor_id=l)
            sizes = []

            def detect(positions, sizes=sizes):
                sizes.append(positions.shape[0])
                return np.full(positions.shape[0], 0.9)

            inp.detect_fn = detect
            inputs.append(inp)
            calls.append(sizes)
        beliefs = self._beliefs(rng, (n_p,) * 3, spread=10.0)
        cfg = BpConfig(n_particles=n_p, prune_threshold=1e-300)
        trace = []
        run_step(beliefs, inputs, cfg, trace)
        # sensor 0 sees the 3 beliefs, sensor 1 also its 3 newborns: every
        # particle once, in one call per stage block
        assert [step["r_prob"].size for step in trace] == [6, 8]
        assert calls == [[2 * n_p, n_p], [2 * n_p] * 3]

    def test_mixed_particle_counts_keep_raw_type2_traces_equal(self):
        rng = np.random.default_rng(65)
        views_raw, views_tr, trs = paired_views(rng, 2, "type2")
        beliefs_raw = self._beliefs(rng, (300, 500))
        beliefs_tr = [ParticleBelief(b.particles.copy(), b.weights.copy(),
                                     b.r_prob, b.label) for b in beliefs_raw]
        zs = np.array([[1.0, 0.5], [16.0, -9.0], [-30.0, 25.0]])
        inputs_raw, inputs_tr = [], []
        for l in range(2):
            raw_z = zs @ views_raw[l].H[:, :2].T
            inputs_raw.append(BpSensorInput(
                MeasurementBatch(l, raw_z, views_raw[l].H, views_raw[l].R, "raw"),
                0.9, views_raw[l].clutter))
            inputs_tr.append(BpSensorInput(
                MeasurementBatch(l, raw_z @ trs[l].A.T, views_tr[l].H,
                                 views_tr[l].R, "type2"),
                0.9, views_tr[l].clutter))
        cfg = BpConfig(n_particles=400)
        trace_raw, trace_tr = [], []
        run_step(beliefs_raw, inputs_raw, cfg, trace_raw)
        run_step(beliefs_tr, inputs_tr, cfg, trace_tr)
        # both old beliefs gate a measurement at the first sensor
        assert np.all(trace_raw[0]["beta"][:2, 1:].max(axis=1) > 0)
        assert [w.size for w in trace_raw[0]["weights"][:2]] == [300, 500]
        for step_raw, step_tr in zip(trace_raw, trace_tr):
            for key in ("beta", "xi", "kappa", "iota", "r_prob"):
                np.testing.assert_allclose(step_raw[key], step_tr[key],
                                           rtol=1e-9, atol=1e-300)
            for w_raw, w_tr in zip(step_raw["weights"], step_tr["weights"]):
                np.testing.assert_allclose(w_raw, w_tr, rtol=1e-9, atol=1e-300)


CAP = bp.BLOCK_PARTICLES


class TestBlockProperties:
    """Blocked stages against the per-belief references on random mixes."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           # CAP // 2 fills a stage block with two beliefs; three of
           # CAP // 3 + 1 exceed one by one particle
           counts=st.lists(st.sampled_from((1, 2, 300, 500, CAP // 3 + 1, CAP // 2,
                                            5 * CAP // 8)),
                           min_size=1, max_size=7),
           zero_weight=st.integers(-1, 6),
           meas=st.sampled_from(("none", "far", "near")),
           kind=st.sampled_from(("raw", "type2")))
    def test_blocks_match_per_belief_references(self, seed, counts, zero_weight,
                                                meas, kind):
        rng = np.random.default_rng(seed)
        beliefs = []
        for k, n_p in enumerate(counts):
            centre = np.array([15.0 * k, -10.0 * k, 1.0, 0.5])
            particles = centre + rng.standard_normal((n_p, 4)) * [4.0, 4.0, 1, 1]
            if k == zero_weight:
                beliefs.append(ParticleBelief(particles, np.zeros(n_p), 0.0, k))
            else:
                weights = rng.uniform(0.1, 1.0, n_p)
                r = rng.uniform(0.05, 0.95)
                beliefs.append(ParticleBelief(particles, weights * r / weights.sum(),
                                              r, k))
        zs = {"none": np.zeros((0, 2)),
              "far": np.array([[1e5, 1e5], [-1e5, 3e4]]),
              "near": np.array([[0.0, 0.0], [16.0, -9.0], [44.0, -31.0],
                                [-30.0, 25.0]])}[meas]
        views_raw, views_tr, trs = paired_views(rng, 1, "type2")
        raw_z = zs @ views_raw[0].H[:, :2].T
        if kind == "raw":
            batch = MeasurementBatch(0, raw_z, views_raw[0].H, views_raw[0].R)
            clutter = views_raw[0].clutter
        else:
            batch = MeasurementBatch(0, raw_z @ trs[0].A.T, views_tr[0].H,
                                     views_tr[0].R, kind)
            clutter = views_tr[0].clutter
        inp = BpSensorInput(batch, 0.9, clutter,
                            detect_fn=lambda p: 0.8 * (p[:, 0] < 20.0) + 0.1)
        cfg = BpConfig(n_particles=50)
        clouds = propose_births(inp, cfg, 4, rng)

        msgs, q_cache, _ = measurement_evaluation(beliefs, inp, cfg, clouds)
        beta, xi, q_ref = reference_evaluation(beliefs, inp, cfg, clouds)
        assert sorted(q_cache) == sorted(q_ref)
        if meas != "near":
            assert not q_cache
        np.testing.assert_allclose(msgs.beta, beta, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(msgs.xi, xi, rtol=1e-12)
        for key, q in q_ref.items():
            np.testing.assert_allclose(q_cache[key], q, rtol=1e-12, atol=1e-300)

        # a peaked likelihood on some beliefs forces resampling
        posts = [(np.exp(-0.5 * np.sum(b.particles[:, :2] ** 2, axis=1)
                         / rng.choice((1.0, 1e6))), 0.3) for b in beliefs]
        updated, _ = belief_calculation(beliefs, posts, [], [], [], cfg,
                                        np.random.default_rng(seed))
        expected = reference_belief_calculation(beliefs, posts, cfg,
                                                np.random.default_rng(seed))
        for b, new, (particles, weights, r) in zip(beliefs, updated, expected):
            np.testing.assert_array_equal(new.particles, particles)
            np.testing.assert_array_equal(new.weights, weights)
            assert new.r_prob == r
            assert (new.label, new.missed_scans) == (b.label, b.missed_scans)


def independent(beliefs):
    """The beliefs rebuilt on arrays of their own."""
    return [ParticleBelief(b.particles.copy(), b.weights.copy(), b.r_prob, b.label,
                           b.missed_scans) for b in beliefs]


def assert_beliefs_identical(got, expected):
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        np.testing.assert_array_equal(x.particles, y.particles)
        np.testing.assert_array_equal(x.weights, y.weights)
        assert (x.r_prob, x.label, x.missed_scans) == (y.r_prob, y.label, y.missed_scans)


def every_stage(beliefs, inp, cfg, clouds, seed, plain_posts=False):
    """The outputs of every stage of one sensor step on these beliefs."""
    pred = bp_predict(beliefs, cv_motion(q=0.2), 0.95, np.random.default_rng(seed))
    msgs, q_cache, birth_liks = measurement_evaluation(beliefs, inp, cfg, clouds)
    iterative_association(msgs, cfg.iterations)
    survived, newborn_posts = measurement_update(beliefs, msgs, q_cache, birth_liks,
                                                 inp, cfg)
    if plain_posts:
        survived = [(g.copy(), g0) for g, g0 in survived]
        newborn_posts = [(w.copy(), d) for w, d in newborn_posts]
    labels = [("new", i) for i in range(inp.batch.n_meas)]
    updated, newborn = belief_calculation(beliefs, survived, newborn_posts, clouds,
                                          labels, cfg, np.random.default_rng(seed + 1))
    return dict(pred=pred, msgs=msgs, q_cache=q_cache, birth_liks=birth_liks,
                survived=survived, newborn_posts=newborn_posts, updated=updated,
                newborn=newborn)


def assert_one_block_per_run(beliefs):
    """Beliefs of equal particle counts view consecutive rows of one
    particle block and one weight block, from row 0."""
    if len({b.n_particles for b in beliefs}) != 1:
        return
    for record in ("_prow", "_wrow"):
        block = getattr(beliefs[0], record)[0]
        assert len(block) == len(beliefs)
        assert [getattr(b, record)[1] for b in beliefs] == list(range(len(beliefs)))
        assert all(getattr(b, record)[0] is block for b in beliefs)


class TestPersistentBlocks:
    """Stages on pipeline-built beliefs (rows of stored blocks) against the
    same beliefs on arrays of their own, bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           # CAP // 2 fills a stage block with two beliefs; three of
           # CAP // 3 + 1 exceed one by one particle
           counts=st.lists(st.sampled_from((1, 300, 500, CAP // 3 + 1, CAP // 2)),
                           min_size=1, max_size=6),
           n_newborn=st.sampled_from((300, 500, CAP // 2)),
           edit=st.sampled_from(("none", "prune", "reorder", "both")),
           kind=st.sampled_from(("raw", "type2")))
    def test_block_rows_equal_independent_arrays(self, seed, counts, n_newborn, edit,
                                                 kind):
        rng = np.random.default_rng(seed)
        views_raw, views_tr, trs = paired_views(rng, 3, "type2")

        def sensor(l, zs):
            raw_z = zs @ views_raw[l].H[:, :2].T
            if kind == "raw":
                batch = MeasurementBatch(l, raw_z, views_raw[l].H, views_raw[l].R)
                clutter = views_raw[l].clutter
            else:
                batch = MeasurementBatch(l, raw_z @ trs[l].A.T, views_tr[l].H,
                                         views_tr[l].R, kind)
                clutter = views_tr[l].clutter
            return BpSensorInput(batch, 0.9, clutter,
                                 detect_fn=lambda p: 0.8 * (p[:, 0] < 20.0) + 0.1)

        zs = np.array([[0.0, 0.0], [16.0, -9.0], [44.0, -31.0], [-30.0, 25.0]])
        cfg = BpConfig(n_particles=n_newborn)
        # one pipeline step: predicted blocks, then survivors and newborns
        outside = []
        for k, n_p in enumerate(counts):
            centre = np.array([15.0 * k, -10.0 * k, 1.0, 0.5])
            particles = centre + rng.standard_normal((n_p, 4)) * [4.0, 4.0, 1, 1]
            outside.append(uniform_belief(particles, rng.uniform(0.05, 0.95), label=k))
        first = sensor(0, zs[:3])
        step = every_stage(bp_predict(outside, cv_motion(q=0.1), 0.99, rng), first,
                           cfg, propose_births(first, cfg, 4, rng), seed)
        built = step["updated"] + step["newborn"]
        assert_one_block_per_run(built)
        if edit in ("prune", "both"):
            keep = rng.random(len(built)) < 0.6
            keep[int(rng.integers(len(built)))] = True
            built = [b for b, k in zip(built, keep) if k]
        if edit in ("reorder", "both"):
            built = [built[i] for i in rng.permutation(len(built))]
        assert all(b._prow is not None and b._wrow is not None for b in built)

        second = sensor(1, zs[1:])
        clouds = propose_births(second, cfg, 4, rng)
        got = every_stage(built, second, cfg, clouds, seed + 7)
        expected = every_stage(independent(built), second, cfg,
                               [c.copy() for c in clouds], seed + 7, plain_posts=True)

        assert_beliefs_identical(got["pred"], expected["pred"])
        for key in ("beta", "xi", "kappa", "iota"):
            np.testing.assert_array_equal(getattr(got["msgs"], key),
                                          getattr(expected["msgs"], key))
        assert list(got["q_cache"]) == list(expected["q_cache"])
        for key, q in expected["q_cache"].items():
            np.testing.assert_array_equal(got["q_cache"][key], q)
        for name in ("birth_liks",):
            assert len(got[name]) == len(expected[name])
            for a, b in zip(got[name], expected[name]):
                np.testing.assert_array_equal(a, b)
        for a, b in zip(got["msgs"].p_detect, expected["msgs"].p_detect):
            np.testing.assert_array_equal(a, b)
        for name in ("survived", "newborn_posts"):
            assert len(got[name]) == len(expected[name])
            for (a, a0), (b, b0) in zip(got[name], expected[name]):
                np.testing.assert_array_equal(a, b)
                assert a0 == b0
        assert_beliefs_identical(got["updated"], expected["updated"])
        assert_beliefs_identical(got["newborn"], expected["newborn"])
        assert_one_block_per_run(got["updated"] + got["newborn"])
        assert_one_block_per_run(expected["updated"] + expected["newborn"])

        # a whole scan of two sensors on the same lists
        inputs = [second, sensor(2, zs[:2] + 0.5)]
        trace_got, trace_expected = [], []
        out, est = run_step(built, inputs, cfg, trace_got)
        out_ref, est_ref = run_step(independent(built), inputs, cfg, trace_expected)
        assert_beliefs_identical(out, out_ref)
        assert [label for label, _ in est] == [label for label, _ in est_ref]
        for (_, x), (_, y) in zip(est, est_ref):
            np.testing.assert_array_equal(x, y)
        assert len(trace_got) == len(trace_expected) == 2
        for a, b in zip(trace_got, trace_expected):
            for key in ("beta", "xi", "kappa", "iota", "r_prob"):
                np.testing.assert_array_equal(a[key], b[key])
            assert len(a["weights"]) == len(b["weights"])
            for wa, wb in zip(a["weights"], b["weights"]):
                np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("pruned", [
        lambda k: k % 3 == 0,  # survivors are stacked into new blocks
        lambda k: k >= 12,     # survivors are the first rows of one block
    ])
    def test_survivors_of_pruning_fill_their_blocks(self, pruned):
        rng = np.random.default_rng(70)
        # the rows of the pruned beliefs leave the survivors' blocks
        beliefs = [uniform_belief(rng.standard_normal((500, 4)) + [10.0 * k, 0, 0, 0],
                                  1e-9 if pruned(k) else 0.9, k) for k in range(40)]
        inp = simple_input(rng, np.zeros((0, 2)))
        cfg = BpConfig(n_particles=500, prune_threshold=1e-7)
        out, _ = run_step(beliefs, [inp], cfg, [])
        assert [b.label for b in out] == [k for k in range(40) if not pruned(k)]
        for record in ("_prow", "_wrow"):
            users = {}
            for b in out:
                block, row = getattr(b, record)
                users.setdefault(id(block), (block, []))[1].append(row)
            for block, rows in users.values():
                assert block.base is None
                assert sorted(rows) == list(range(block.shape[0]))
        expected, _ = run_step(independent(beliefs), [inp], cfg, [])
        assert_beliefs_identical(out, expected)


class TestRawLikelihood:
    def _lik(self, fortran):
        rng = np.random.default_rng(69)
        h = np.hstack([np.eye(2), np.zeros((2, 2))])
        batch = MeasurementBatch(0, rng.uniform(-20, 20, (3, 2)), h,
                                 [[9.0, 2.0], [2.0, 4.0]])
        lik = bp._BatchLikelihood(batch)
        assert lik._chol[1, 0] != 0.0
        if fortran:
            lik._chol = np.asfortranarray(lik._chol)
        return lik, batch.zs, rng.uniform(-20, 20, (2, 3, 50))

    @pytest.mark.parametrize("fortran", [False, True])
    def test_lapack_solve_equals_solve_triangular(self, fortran):
        lik, zs, z_pred = self._lik(fortran)
        diffs = (zs.T[:, :, None] - z_pred).reshape(2, -1)
        np.testing.assert_array_equal(
            lik._whiten(zs, z_pred), solve_triangular(lik._chol, diffs, lower=True))

    @pytest.mark.parametrize("fortran", [False, True])
    def test_zero_diagonal_raises_numerics_error(self, fortran):
        lik, zs, z_pred = self._lik(fortran)
        lik._chol = lik._chol.copy(order="F" if fortran else "C")
        lik._chol[1, 1] = 0.0
        with pytest.raises(NumericsError):
            lik.loglik(zs, z_pred)


class TestErrorPaths:
    def test_weights_not_matching_particles_rejected(self):
        with pytest.raises(InputError):
            ParticleBelief(np.zeros((5, 4)), np.full(4, 0.1), 0.4, "x")
    def test_empty_belief_rejected(self):
        rng = np.random.default_rng(40)
        inp = simple_input(rng, np.zeros((0, 2)))
        bad = ParticleBelief(np.zeros((0, 4)), np.zeros(0), 0.5, "x")
        with pytest.raises(InputError):
            measurement_evaluation([bad], inp, BpConfig(n_particles=10), [])

    def test_all_zero_messages_degenerate(self):
        msgs = AssociationMessages(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(DegenerateBeliefError):
            iterative_association(msgs, 3)

    @pytest.mark.parametrize("beta, xi", [
        ([[np.nan, 0.5]], [[1.0, 1.0]]),          # phi check: not finite
        ([[0.2, 0.5], [0.0, 0.0]], [[1.0, 1.0, 1.0]]),  # phi check: a zero row
        ([[0.2, 0.5]], [[np.inf, 1.0]]),          # nu check: infinite
        ([[0.2, 0.5]], [[np.nan, 1.0]]),          # nu check: not a number
        ([[0.0, 0.5]], [[1.0, 1.0]]),             # nu check: phi_neq = 0 gives inf - inf
    ])
    def test_degenerate_messages_raise(self, beta, xi):
        msgs = AssociationMessages(np.array(beta), np.array(xi))
        with np.errstate(all="ignore"), pytest.raises(DegenerateBeliefError):
            iterative_association(msgs, 3)

    def test_message_check_needs_finite_positive_entries(self):
        assert bp._check_messages(np.array([[1e-300, 1.0], [2.0, 1e300]])) is None
        for bad in (0.0, -1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(DegenerateBeliefError):
                bp._check_messages(np.array([[1.0, bad], [2.0, 3.0]]))

    def test_nonpositive_normalization_degenerate(self):
        belief = uniform_belief(np.zeros((5, 4)), 1.0)
        with pytest.raises(DegenerateBeliefError):
            belief_calculation([belief], [(np.zeros(5), 0.0)], [], [], [],
                               BpConfig(n_particles=5),
                               np.random.default_rng(0))
