"""Particle-BP tracker: messages, updates, beliefs, pipeline equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import solve_triangular
from scipy.stats import chi2

from conftest import paired_views, position_model, scan_buffer
from trackfuse import bp
from trackfuse import mda as mda_mod
from trackfuse.bp import (
    AssociationMessages,
    Beliefs,
    BpConfig,
    BpSensorInput,
    belief_calculation,
    bp_pipeline_step,
    bp_predict,
    declare_estimate_prune,
    iterative_association,
    measurement_evaluation,
    measurement_update,
    propose_births,
)
from trackfuse.checks import enum_association_marginals
from trackfuse.errors import (
    DegenerateBeliefError,
    InconsistentTransformError,
    InputError,
    NumericsError,
    ResourceLimitError,
)
from trackfuse.linalg import psd_eig
from trackfuse.models import GaussianEstimate, MeasurementBatch, MotionModel
from trackfuse.transform import LOG_2PI, ClutterModel


def cv_motion(q=0.0):
    f = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    gamma = np.kron(np.array([[0.5], [1.0]]), np.eye(2))
    return MotionModel(f, gamma @ (q ** 2 * np.eye(2)) @ gamma.T)


def uniform_belief(particles, r, label=0):
    """One belief: (Np, n) particles of equal weight summing to r."""
    n = particles.shape[0]
    return Beliefs(particles[None], np.full((1, n), r / n), [r], [0], [label])


def stacked(*beliefs):
    """The rows of several Beliefs, in order, as one."""
    return Beliefs(np.concatenate([b.particles for b in beliefs]),
                   np.concatenate([b.weights for b in beliefs]),
                   np.concatenate([b.r for b in beliefs]),
                   np.concatenate([b.missed for b in beliefs]),
                   [label for b in beliefs for label in b.labels])


def no_newborns(n_p):
    """The newborn posteriors of a measurement-free sensor step."""
    return np.zeros((0, n_p)), np.zeros(0)


def simple_input(rng, zs, p_d=0.9, rate=10.0, volume=1.13e6, sensor_id=0):
    model = position_model(rng, sensor_id)
    batch = MeasurementBatch(sensor_id, zs, model.H, model.R, "raw")
    return BpSensorInput(batch, p_d, ClutterModel(rate, volume))


class TestPredict:
    def test_deterministic_shift_when_noise_free(self):
        rng = np.random.default_rng(0)
        particles = rng.standard_normal((100, 4))
        belief = uniform_belief(particles, 0.8)
        out = bp_predict(belief, cv_motion(q=0.0), 1.0,
                         np.random.default_rng(1), scan_buffer(belief))
        np.testing.assert_allclose(out.particles[0],
                                   particles @ cv_motion().F.T)
        assert out.r[0] == pytest.approx(0.8)

    def test_nonexistent_stays_nonexistent(self):
        belief = uniform_belief(np.zeros((10, 4)), 0.0)
        out = bp_predict(belief, cv_motion(), 0.95, np.random.default_rng(2),
                         scan_buffer(belief))
        assert out.r[0] == 0.0

    def test_survival_decay(self):
        belief = uniform_belief(np.zeros((10, 4)), 0.8)
        out = bp_predict(belief, cv_motion(), 0.95, np.random.default_rng(3),
                         scan_buffer(belief))
        assert out.r[0] == pytest.approx(0.76)
        assert np.sum(out.weights[0]) == pytest.approx(0.76)

    def test_block_draws_equal_per_belief_draws(self):
        # 150 beliefs span three stage blocks of 65 at 500 particles; three
        # span two blocks, of two and one, at half the cap
        for n_p, n in [(500, 150), (bp.BLOCK_PARTICLES // 2, 3)]:
            rng = np.random.default_rng(4)
            beliefs = stacked(*[uniform_belief(rng.standard_normal((n_p, 4)), 0.5,
                                               label=k)
                                for k in range(n)])
            motion = cv_motion(q=0.3)
            out = bp_predict(beliefs, motion, 0.9, np.random.default_rng(5),
                             scan_buffer(beliefs))
            w, v = np.linalg.eigh(motion.Q)
            sqrt_q = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
            ref_rng = np.random.default_rng(5)
            for t in range(n):
                particles = beliefs.particles[t]
                noise = ref_rng.standard_normal(particles.shape) @ sqrt_q.T
                np.testing.assert_array_equal(out.particles[t],
                                              particles @ motion.F.T + noise)
                np.testing.assert_array_equal(out.weights[t],
                                              beliefs.weights[t] * 0.9)
                assert out.r[t] == beliefs.r[t] * 0.9
            assert out.labels == beliefs.labels


class TestMeasurementEvaluation:
    def test_far_target_has_vanishing_measurement_terms(self):
        rng = np.random.default_rng(4)
        inp = simple_input(rng, np.array([[500.0, 500.0]]))
        particles = np.zeros((200, 4))
        belief = uniform_belief(particles, 0.9)
        births = scan_buffer(200, inp.batch.n_meas)
        clouds = propose_births(inp, BpConfig(n_particles=200), births.particles,
                                np.random.default_rng(5))
        msgs, _, _ = measurement_evaluation(belief, inp,
                                            BpConfig(n_particles=200), clouds)
        assert msgs.beta[0, 1] <= 1e-12 * msgs.beta[0, 0]

    @pytest.mark.parametrize("kind", ["raw", "type2"])
    def test_gate_edge_from_weighted_innovation_moments(self, kind):
        rng = np.random.default_rng(9)
        particles = rng.standard_normal((400, 4)) * [6.0, 3.0, 1.0, 1.0]
        weights = rng.uniform(0.2, 1.0, 400)
        weights = 0.8 * weights / weights.sum()
        belief = Beliefs(particles[None], weights[None], [0.8], [0], ["b"])
        h = np.array([[1.0, 0.3, 0.0, 0.0], [-0.2, 1.0, 0.0, 0.0]])
        r = np.array([[9.0, 2.0], [2.0, 4.0]])
        total = weights.sum()
        mu = weights @ particles / total
        centred = particles - mu
        cov = (centred * weights[:, None]).T @ centred / total
        s_cov = h @ cov @ h.T + r
        cfg = BpConfig(n_particles=400)
        gamma = chi2.ppf(bp.GATE_PROB, 2)
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
        births = scan_buffer(cfg.n_particles, inp.batch.n_meas)
        clouds = propose_births(inp, cfg, births.particles, np.random.default_rng(10))
        _, q_cache, _ = measurement_evaluation(belief, inp, cfg, clouds)
        assert list(q_cache) == [(0, 0)]

    def test_zero_detection_probability(self):
        rng = np.random.default_rng(6)
        zs = np.array([[0.0, 0.0]])
        model = position_model(rng)
        batch = MeasurementBatch(0, zs, model.H, model.R, "raw")
        inp = BpSensorInput(batch, 0.5, ClutterModel(10.0, 1e6),
                            detect_fn=lambda pos: np.zeros(pos.shape[0]))
        belief = uniform_belief(np.zeros((100, 4)), 0.7)
        births = scan_buffer(100, inp.batch.n_meas)
        clouds = propose_births(inp, BpConfig(n_particles=100), births.particles,
                                np.random.default_rng(7))
        msgs, _, _ = measurement_evaluation(belief, inp,
                                            BpConfig(n_particles=100), clouds)
        assert msgs.beta[0, 1] == 0.0
        # r-marginalized miss term: 1*w-mass + (1 - r) = 0.7 + 0.3
        assert msgs.beta[0, 0] == pytest.approx(1.0)

    def test_out_of_range_generic_payload_raises(self):
        # a measurement off the range of the singular Rt raises, as in MDA
        rng = np.random.default_rng(16)
        _, views_tr, trs = paired_views(rng, 1, "generic")
        view = views_tr[0]
        belief = uniform_belief(np.hstack([rng.uniform(-5, 5, (200, 2)),
                                           np.zeros((200, 2))]), 0.9)
        z = trs[0].A @ np.array([1.0, -1.0])
        off = z + 1e-3 * np.linalg.norm(z) * np.linalg.eigh(view.R)[1][:, 0]
        cfg = BpConfig(n_particles=200)
        for zt, fails in ((z, False), (off, True)):
            batch = MeasurementBatch(0, zt[None], view.H, view.R, "generic")
            inp = BpSensorInput(batch, 0.9, view.clutter)
            births = scan_buffer(cfg.n_particles, inp.batch.n_meas)
            clouds = propose_births(inp, cfg, births.particles, np.random.default_rng(17))
            track = GaussianEstimate(np.zeros(4), np.eye(4))
            runs = (lambda: measurement_evaluation(belief, inp, cfg, clouds),
                    lambda: mda_mod.build_mda_problem([track], [batch], [view],
                                                      mda_mod.MdaConfig()))
            for run in runs:
                if fails:
                    with pytest.raises(InconsistentTransformError):
                        run()
                else:
                    run()

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
            cfg = BpConfig(n_particles=400)
            inp_raw = BpSensorInput(batch_raw, 0.9, views_raw[0].clutter)
            inp_tr = BpSensorInput(batch_tr, 0.9, views_tr[0].clutter)
            rng_a = np.random.default_rng(1234)
            rng_b = np.random.default_rng(1234)
            births_raw = scan_buffer(cfg.n_particles, inp_raw.batch.n_meas)
            clouds_raw = propose_births(inp_raw, cfg, births_raw.particles, rng_a)
            births_tr = scan_buffer(cfg.n_particles, inp_tr.batch.n_meas)
            clouds_tr = propose_births(inp_tr, cfg, births_tr.particles, rng_b)
            m_raw, q_raw, bl_raw = measurement_evaluation(
                belief, inp_raw, cfg, clouds_raw)
            m_tr, q_tr, bl_tr = measurement_evaluation(
                belief, inp_tr, cfg, clouds_tr)
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
        clouds = np.zeros((0, 50, 4))
        msgs, q_cache, bl = measurement_evaluation(belief, inp, cfg, clouds)
        kappa, iota = iterative_association(msgs, 3)
        (gamma, gamma0), newborn = measurement_update(belief, msgs, q_cache, bl, inp,
                                                      cfg)
        np.testing.assert_allclose(gamma[0], (1 - 0.9) * np.ones(50))
        assert gamma0[0] == 1.0

    def test_certain_association_weights_proportional_to_likelihood(self):
        rng = np.random.default_rng(11)
        model = position_model(rng)
        particles = np.hstack([rng.uniform(-5, 5, (300, 2)),
                               np.zeros((300, 2))])
        belief = uniform_belief(particles, 0.99)
        z = np.zeros(2)
        inp = simple_input(rng, z[None, :] @ np.eye(2))
        cfg = BpConfig(n_particles=300)
        births = scan_buffer(cfg.n_particles, inp.batch.n_meas)
        clouds = propose_births(inp, cfg, births.particles, np.random.default_rng(12))
        msgs, q_cache, bl = measurement_evaluation(belief, inp, cfg, clouds)
        kappa = np.array([[0.0, 1.0]])
        iota = np.ones((1, 2))
        msgs.kappa, msgs.iota = kappa, iota
        (gamma, _), _ = measurement_update(belief, msgs, q_cache, bl, inp, cfg)
        q = q_cache[(0, 0)]
        np.testing.assert_allclose(gamma[0], q)

    def _evaluated(self, rng):
        beliefs = stacked(*[uniform_belief(np.hstack([rng.uniform(-5, 5, (60, 2)),
                                                      np.zeros((60, 2))]), 0.7, label=k)
                            for k in range(2)])
        inp = simple_input(rng, np.array([[0.5, -0.5], [30.0, 30.0]]))
        inp.detect_fn = lambda p: 0.5 + 0.4 * (p[:, 0] > 0)
        cfg = BpConfig(n_particles=60)
        births = scan_buffer(cfg.n_particles, inp.batch.n_meas)
        clouds = propose_births(inp, cfg, births.particles, np.random.default_rng(13))
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
        posts = (np.full((1, 40), 2.5), np.array([2.5]))
        updated = belief_calculation(scan_buffer(belief), posts, no_newborns(40),
                                     BpConfig(n_particles=40),
                                     np.random.default_rng(13))
        assert updated.r[0] == pytest.approx(0.55, rel=1e-12)

    def test_zero_newborn_mass(self):
        clouds = np.zeros((1, 20, 4))
        newborn = belief_calculation(
            scan_buffer(20, clouds, ["x"]), (np.zeros((0, 20)), np.zeros(0)),
            (np.zeros((1, 20)), np.array([3.0])),
            BpConfig(n_particles=20), np.random.default_rng(14))
        assert newborn.labels == ["x"]
        assert newborn.r[0] == 0.0

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
        msgs, q_cache, bl = measurement_evaluation(belief, inp, cfg,
                                                   particles[None].copy())
        msgs.kappa, msgs.iota = kappa, np.ones((1, 2))
        posts, _ = measurement_update(belief, msgs, q_cache, bl, inp, cfg)
        updated = belief_calculation(scan_buffer(belief), posts, no_newborns(n_p),
                                     cfg, np.random.default_rng(16))
        assert updated.r[0] == pytest.approx(r_oracle, abs=0.01)


class TestDeclareEstimatePrune:
    def test_declaration_threshold(self):
        belief = uniform_belief(np.zeros((10, 4)), 0.71)
        estimates, _ = declare_estimate_prune(belief, BpConfig())
        assert len(estimates) == 1

    def test_prune_threshold(self):
        belief = uniform_belief(np.zeros((10, 4)), 1e-7)
        _, surviving = declare_estimate_prune(belief, BpConfig())
        assert len(surviving) == 0

    def test_mmse_estimate_is_weighted_mean(self):
        particles = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0]])
        belief = Beliefs(particles[None], [[0.4, 0.4]], [0.8], [0], ["t"])
        estimates, _ = declare_estimate_prune(belief, BpConfig())
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
        beliefs, _ = bp_pipeline_step(belief, [blind], cv_motion(q=0.1),
                                      cfg, self._rng_factory(1), scan=1)
        assert len(beliefs) == 1
        assert beliefs.r[0] == pytest.approx(0.95 * 0.9, rel=1e-9)

        seeing = simple_input(rng, np.zeros((0, 2)))
        belief2 = uniform_belief(rng.standard_normal((100, 4)), 0.9)
        beliefs2, _ = bp_pipeline_step(belief2, [seeing], cv_motion(q=0.1),
                                       cfg, self._rng_factory(1), scan=1)
        decayed = 0.95 * 0.9
        expected = decayed * 0.1 / (decayed * 0.1 + (1 - decayed))
        assert beliefs2.r[0] == pytest.approx(expected, rel=1e-9)

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
        beliefs, _ = bp_pipeline_step(belief, [inp], motion, cfg,
                                      self._rng_factory(2), scan=1)
        assert beliefs.r[0] > 0.5

    def test_raw_vs_transformed_full_step(self):
        rng = np.random.default_rng(19)
        views_raw, views_tr, trs = paired_views(rng, 3, "type2")
        state = np.array([0.0, 0.0, 2.0, -1.0])
        beliefs_raw = stacked(*[
            uniform_belief(state + rng.standard_normal((300, 4)) * [5, 5, 1, 1], 0.7,
                           label=i) for i in range(2)])
        beliefs_tr = independent(beliefs_raw)
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

    def test_scan_leaves_the_callers_beliefs_unchanged(self, monkeypatch):
        # two scans of three sensors each: the second scan's input is the
        # first one's output, rows of its scan buffer; both inputs keep every
        # byte though beliefs are resampled in both scans
        rng = np.random.default_rng(21)
        beliefs = spread_beliefs(rng, 4, 300, spread=8.0)
        zs = np.array([[15.0 + 1.0, -10.0 + 2.0], [30.0 - 2.0, -20.0], [0.5, 0.5]])
        inputs = [simple_input(rng, zs + 0.3 * l, sensor_id=l) for l in range(3)]
        cfg = BpConfig(n_particles=300, prune_threshold=1e-300)
        resampled = []
        resample = bp._systematic_resample
        monkeypatch.setattr(bp, "_systematic_resample",
                            lambda *args: resampled.append(1) or resample(*args))
        for scan in (1, 2):
            before = independent(beliefs)
            count = len(resampled)
            out, _ = bp_pipeline_step(beliefs, inputs, cv_motion(q=0.1), cfg,
                                      self._rng_factory(4), scan)
            assert len(resampled) > count
            for name in ("particles", "weights", "r", "missed"):
                assert getattr(beliefs, name).tobytes() == getattr(before, name).tobytes()
            assert beliefs.labels == before.labels
            assert not np.shares_memory(out.particles, beliefs.particles)
            beliefs = out

    def test_sensor_count_bookkeeping(self):
        rng = np.random.default_rng(20)
        beliefs = stacked(*[uniform_belief(rng.standard_normal((50, 4)) * 10, 0.8,
                                           label=i) for i in range(2)])
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
    gamma = chi2.ppf(bp.GATE_PROB, rank)
    beta = np.zeros((n, m + 1))
    q_cache = {}
    for tau in range(n):
        particles, weights = beliefs.particles[tau], beliefs.weights[tau]
        pd_x = inp.detection_probs(particles[:, :2])
        beta[tau, 0] = float(weights @ (1.0 - pd_x)) + (1.0 - beliefs.r[tau])
        total = float(np.sum(weights))
        if m == 0 or total <= 0:
            continue
        mu = (weights @ particles) / total
        centered = particles - mu
        cov = (centered * weights[:, None]).T @ centered / total
        w_s, v_s, _ = psd_eig(h @ cov @ h.T + r)
        proj = (zs - h @ mu) @ v_s
        for i in np.flatnonzero(np.sum(proj * proj / w_s, axis=1) <= gamma):
            q = pd_x * np.exp(loglik(zs[i], particles) - log_ci)
            q_cache[(tau, int(i))] = q
            beta[tau, i + 1] = float(weights @ q)
    xi = np.ones((m, n + 1))
    for i in range(m):
        mean_lik = float(np.mean(np.exp(loglik(zs[i], birth_clouds[i]))))
        xi[i, 0] = 1.0 + bp.BIRTH_RATE * mean_lik * math.exp(-log_ci)
    return beta, xi, q_cache


def reference_belief_calculation(beliefs, survived_posts, cfg, rng):
    """Per-belief normalization with one scalar uniform per belief (reference)."""
    out = []
    n_p = beliefs.n_particles
    for tau, (gamma, gamma0) in enumerate(zip(*survived_posts)):
        unnorm1 = beliefs.weights[tau] * gamma
        c = float(np.sum(unnorm1)) + (1.0 - beliefs.r[tau]) * gamma0
        weights = unnorm1 / c
        r = float(np.sum(weights))
        u = float(rng.random())
        particles = beliefs.particles[tau]
        if r > 0:
            wn = weights / r
            if 1.0 / float(np.sum(wn * wn)) < bp.RESAMPLE_ESS_FRAC * n_p:
                cumulative = np.cumsum(wn)
                cumulative[-1] = 1.0
                idx = np.searchsorted(cumulative, (u + np.arange(n_p)) / n_p)
                particles = particles[idx]
                weights = np.full(n_p, r / n_p)
        out.append((particles, weights, min(r, 1.0)))
    return out


def run_step(beliefs, inputs, cfg, trace):
    """One pipeline scan with fixed streams, recording the per-sensor trace."""
    def rng_for(purpose, sensor):
        purposes = ("predict", "birth", "resample")
        return np.random.default_rng([7, purposes.index(purpose), sensor % 2 ** 32])
    return bp_pipeline_step(beliefs, inputs, cv_motion(q=0.1), cfg, rng_for, 1,
                            trace)


def spread_beliefs(rng, n, n_p, spread=4.0):
    """n beliefs of n_p particles, belief k around (15 k, -10 k) with
    existence 0.4 + 0.1 k."""
    return stacked(*[
        uniform_belief(np.array([15.0 * k, -10.0 * k, 1.0, 0.5])
                       + rng.standard_normal((n_p, 4)) * [spread, spread, 1, 1],
                       0.4 + 0.1 * k, label=k) for k in range(n)])


def peaked_posts(beliefs, scales):
    """Survived posteriors peaked at the origin with width scales[t] per
    belief, and kappa(0) = 0.3."""
    gamma = np.exp(-0.5 * np.sum(beliefs.particles[:, :, :2] ** 2, axis=2)
                   / np.asarray(scales)[:, None])
    return gamma, np.full(len(beliefs), 0.3)


class TestBatchedSensorStep:
    def test_evaluation_matches_per_belief_reference(self):
        rng = np.random.default_rng(60)
        for kind in ("raw", "type2", "generic"):
            views_raw, views_tr, trs = paired_views(
                rng, 1, "type2" if kind == "raw" else kind)
            beliefs = spread_beliefs(rng, 3, 500)
            beliefs = stacked(beliefs, Beliefs(beliefs.particles[:1].copy(),
                                               np.zeros((1, 500)), [0.0], [0],
                                               ["empty"]))
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
            cfg = BpConfig(n_particles=500)
            births = scan_buffer(cfg.n_particles, inp.batch.n_meas)
            clouds = propose_births(inp, cfg, births.particles, np.random.default_rng(61))
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
        beliefs = spread_beliefs(rng, 4, 400)
        # a peaked likelihood forces resampling on some beliefs, a flat one
        # keeps the weights of the others
        posts = peaked_posts(beliefs, (1.0, 1e6, 4.0, 1e6))
        cfg = BpConfig(n_particles=400)
        updated = belief_calculation(scan_buffer(beliefs), posts, no_newborns(400),
                                     cfg, np.random.default_rng(63))
        expected = reference_belief_calculation(beliefs, posts, cfg,
                                                np.random.default_rng(63))
        resampled = 0
        for t, (particles, weights, r) in enumerate(expected):
            np.testing.assert_array_equal(updated.particles[t], particles)
            np.testing.assert_array_equal(updated.weights[t], weights)
            assert updated.r[t] == r
            resampled += not np.array_equal(updated.particles[t], beliefs.particles[t])
        assert 0 < resampled < len(beliefs)

    def test_step_writes_one_block(self):
        rng = np.random.default_rng(66)
        # predicted stage blocks of per_block and 4 rows, then 2 newborns
        per_block = bp.BLOCK_PARTICLES // 500
        n = per_block + 4
        prior = stacked(*[uniform_belief(rng.standard_normal((500, 4)) * 5.0, 0.5, k)
                          for k in range(n)])
        beliefs = bp_predict(prior, cv_motion(q=0.1), 1.0, np.random.default_rng(67),
                             scan_buffer(prior))
        before = beliefs.particles.copy()
        gamma = np.ones((n, 500))
        # one peaked row in the second stage block
        peaked = per_block + 2
        gamma[peaked] = np.exp(-0.5 * np.sum((beliefs.particles[peaked, :, :2]
                                              - beliefs.particles[peaked, 0, :2]) ** 2,
                                             axis=1))
        cfg = BpConfig(n_particles=500)
        clouds = propose_births(simple_input(rng, np.array([[0.0, 0.0], [5.0, 5.0]])),
                                cfg, scan_buffer(500, 2).particles, rng)
        newborn_posts = (np.ones((2, 500)), np.array([1.0, 2.0]))
        out = belief_calculation(scan_buffer(beliefs, clouds, ["a", "b"]),
                                 (gamma, np.full(n, 0.3)), newborn_posts, cfg,
                                 np.random.default_rng(68))
        assert out.particles.shape == (n + 2, 500, 4)
        assert out.weights.shape == (n + 2, 500)
        assert out.labels == list(range(n)) + ["a", "b"]
        assert not np.shares_memory(out.particles, beliefs.particles)
        for k in range(n):
            changed = not np.array_equal(out.particles[k], beliefs.particles[k])
            assert changed == (k == peaked)
        np.testing.assert_array_equal(out.particles[n:], clouds)
        # the input arrays are unchanged
        np.testing.assert_array_equal(beliefs.particles, before)

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
        beliefs = spread_beliefs(rng, 3, n_p, spread=10.0)
        cfg = BpConfig(n_particles=n_p, prune_threshold=1e-300)
        trace = []
        run_step(beliefs, inputs, cfg, trace)
        # sensor 0 sees the 3 beliefs, sensor 1 also its 3 newborns: every
        # particle once, in one call per stage block
        assert [step["r_prob"].size for step in trace] == [6, 8]
        assert calls == [[2 * n_p, n_p], [2 * n_p] * 3]

    def test_stage_slices_keep_raw_type2_traces_equal(self):
        rng = np.random.default_rng(65)
        views_raw, views_tr, trs = paired_views(rng, 2, "type2")
        # three beliefs of half the cap make two stage blocks
        n_p = bp.BLOCK_PARTICLES // 2
        beliefs_raw = spread_beliefs(rng, 3, n_p)
        beliefs_tr = independent(beliefs_raw)
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
        cfg = BpConfig(n_particles=n_p)
        trace_raw, trace_tr = [], []
        run_step(beliefs_raw, inputs_raw, cfg, trace_raw)
        run_step(beliefs_tr, inputs_tr, cfg, trace_tr)
        # both first beliefs gate a measurement at the first sensor
        assert np.all(trace_raw[0]["beta"][:2, 1:].max(axis=1) > 0)
        for step_raw, step_tr in zip(trace_raw, trace_tr):
            for key in ("beta", "xi", "kappa", "iota", "r_prob"):
                np.testing.assert_allclose(step_raw[key], step_tr[key],
                                           rtol=1e-9, atol=1e-300)
            for w_raw, w_tr in zip(step_raw["weights"], step_tr["weights"]):
                np.testing.assert_allclose(w_raw, w_tr, rtol=1e-9, atol=1e-300)


CAP = bp.BLOCK_PARTICLES


def slice_count(n_p, slices, extra):
    """A belief count that spans `slices` stage blocks of n_p particles."""
    size = max(1, CAP // n_p)
    return (slices - 1) * size + 1 + extra % size


class TestBlockProperties:
    """Blocked stages against the per-belief references on random sets."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           # CAP // 2 fills a stage block with two beliefs, 500 with 65
           n_p=st.sampled_from((500, CAP // 2)),
           slices=st.integers(1, 3),
           extra=st.integers(0, CAP),
           zero_weight=st.integers(-1, 6),
           meas=st.sampled_from(("none", "far", "near")),
           kind=st.sampled_from(("raw", "type2")))
    def test_blocks_match_per_belief_references(self, seed, n_p, slices, extra,
                                                zero_weight, meas, kind):
        rng = np.random.default_rng(seed)
        n = slice_count(n_p, slices, extra)
        centres = np.array([[15.0 * k, -10.0 * k, 1.0, 0.5] for k in range(n)])
        particles = (centres[:, None, :]
                     + rng.standard_normal((n, n_p, 4)) * [4.0, 4.0, 1, 1])
        weights = rng.uniform(0.1, 1.0, (n, n_p))
        r = rng.uniform(0.05, 0.95, n)
        weights *= (r / weights.sum(axis=1))[:, None]
        if 0 <= zero_weight < n:
            weights[zero_weight], r[zero_weight] = 0.0, 0.0
        beliefs = Beliefs(particles, weights, r, np.zeros(n, dtype=int), list(range(n)))
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
        cfg = BpConfig(n_particles=n_p)
        births = scan_buffer(cfg.n_particles, inp.batch.n_meas)
        clouds = propose_births(inp, cfg, births.particles, rng)

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
        posts = peaked_posts(beliefs, rng.choice((1.0, 1e6), n))
        updated = belief_calculation(scan_buffer(beliefs), posts, no_newborns(n_p),
                                     cfg, np.random.default_rng(seed))
        expected = reference_belief_calculation(beliefs, posts, cfg,
                                                np.random.default_rng(seed))
        for t, (particles, weights, r) in enumerate(expected):
            np.testing.assert_array_equal(updated.particles[t], particles)
            np.testing.assert_array_equal(updated.weights[t], weights)
            assert updated.r[t] == r
        assert updated.labels == beliefs.labels
        np.testing.assert_array_equal(updated.missed, beliefs.missed)


def independent(beliefs):
    """The beliefs rebuilt on arrays of their own."""
    return Beliefs(beliefs.particles.copy(), beliefs.weights.copy(), beliefs.r.copy(),
                   beliefs.missed.copy(), list(beliefs.labels))


def assert_beliefs_identical(got, expected):
    np.testing.assert_array_equal(got.particles, expected.particles)
    np.testing.assert_array_equal(got.weights, expected.weights)
    np.testing.assert_array_equal(got.r, expected.r)
    np.testing.assert_array_equal(got.missed, expected.missed)
    assert got.labels == expected.labels


def every_stage(beliefs, inp, cfg, clouds, seed, plain_posts=False):
    """The outputs of every stage of one sensor step on these beliefs."""
    pred = bp_predict(beliefs, cv_motion(q=0.2), 0.95, np.random.default_rng(seed),
                      scan_buffer(beliefs))
    msgs, q_cache, birth_liks = measurement_evaluation(beliefs, inp, cfg, clouds)
    iterative_association(msgs, bp.ITERATIONS)
    survived, newborn_posts = measurement_update(beliefs, msgs, q_cache, birth_liks,
                                                 inp, cfg)
    if plain_posts:
        survived = tuple(a.copy() for a in survived)
        newborn_posts = tuple(a.copy() for a in newborn_posts)
    labels = [("new", i) for i in range(inp.batch.n_meas)]
    out = belief_calculation(scan_buffer(beliefs, clouds, labels), survived,
                             newborn_posts, cfg, np.random.default_rng(seed + 1))
    return dict(pred=pred, msgs=msgs, q_cache=q_cache, birth_liks=birth_liks,
                survived=survived, newborn_posts=newborn_posts, out=out)


class TestPersistentBlocks:
    """Stages on pipeline-built beliefs (the step's arrays, or copies of
    their rows after pruning or reordering) against the same beliefs on
    arrays of their own, bit for bit; no stage writes outside its
    destination rows."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           # CAP // 2 fills a stage block with two beliefs, 500 with 65
           n_p=st.sampled_from((500, CAP // 2)),
           slices=st.integers(1, 3),
           extra=st.integers(0, CAP),
           edit=st.sampled_from(("none", "prune", "reorder", "both")),
           kind=st.sampled_from(("raw", "type2")))
    def test_block_rows_equal_independent_arrays(self, seed, n_p, slices, extra, edit,
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
        cfg = BpConfig(n_particles=n_p)
        # one pipeline step: predicted arrays, then survivors and newborns
        n = slice_count(n_p, slices, extra)
        outside = spread_beliefs(rng, n, n_p)
        outside.r = rng.uniform(0.05, 0.95, n)
        outside.weights = np.repeat((outside.r / n_p)[:, None], n_p, axis=1)
        first = sensor(0, zs[:3])
        predicted = bp_predict(outside, cv_motion(q=0.1), 0.99, rng, scan_buffer(outside))
        births = scan_buffer(n_p, first.batch.n_meas)
        built = every_stage(predicted, first, cfg,
                            propose_births(first, cfg, births.particles, rng), seed)["out"]
        if edit in ("prune", "both"):
            keep = rng.random(len(built)) < 0.6
            keep[int(rng.integers(len(built)))] = True
            built = built[keep]
        if edit in ("reorder", "both"):
            built = built[rng.permutation(len(built))]
        copies = independent(built)

        second = sensor(1, zs[1:])
        births = scan_buffer(cfg.n_particles, second.batch.n_meas)
        clouds = propose_births(second, cfg, births.particles, rng)
        got = every_stage(built, second, cfg, clouds, seed + 7)
        assert_beliefs_identical(built, copies)
        expected = every_stage(copies, second, cfg, clouds.copy(), seed + 7,
                               plain_posts=True)

        assert_beliefs_identical(got["pred"], expected["pred"])
        for key in ("beta", "xi", "kappa", "iota", "p_detect"):
            np.testing.assert_array_equal(getattr(got["msgs"], key),
                                          getattr(expected["msgs"], key))
        assert list(got["q_cache"]) == list(expected["q_cache"])
        for key, q in expected["q_cache"].items():
            np.testing.assert_array_equal(got["q_cache"][key], q)
        np.testing.assert_array_equal(got["birth_liks"], expected["birth_liks"])
        for name in ("survived", "newborn_posts"):
            for a, b in zip(got[name], expected[name]):
                np.testing.assert_array_equal(a, b)
        assert_beliefs_identical(got["out"], expected["out"])

        # a whole scan of two sensors on the same beliefs
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
        lambda k: k % 3 == 0,  # survivors scattered over the step's arrays
        lambda k: k >= 12,     # survivors are the first rows
    ])
    def test_survivors_of_pruning_fill_their_blocks(self, pruned):
        rng = np.random.default_rng(70)
        # the rows of the pruned beliefs leave the survivors' arrays
        beliefs = stacked(*[uniform_belief(rng.standard_normal((500, 4))
                                           + [10.0 * k, 0, 0, 0],
                                           1e-9 if pruned(k) else 0.9, k)
                            for k in range(40)])
        inp = simple_input(rng, np.zeros((0, 2)))
        cfg = BpConfig(n_particles=500, prune_threshold=1e-7)
        out, _ = run_step(beliefs, [inp], cfg, [])
        assert out.labels == [k for k in range(40) if not pruned(k)]
        assert out.particles.shape == (len(out), 500, 4)
        assert out.particles.base is None and out.weights.base is None
        expected, _ = run_step(independent(beliefs), [inp], cfg, [])
        assert_beliefs_identical(out, expected)


class TestRawLikelihood:
    def _factor(self, fortran):
        rng = np.random.default_rng(69)
        h = np.hstack([np.eye(2), np.zeros((2, 2))])
        batch = MeasurementBatch(0, rng.uniform(-20, 20, (3, 2)), h,
                                 [[9.0, 2.0], [2.0, 4.0]])
        factor = batch.factor
        assert factor.chol[1, 0] != 0.0
        if fortran:
            factor.chol = np.asfortranarray(factor.chol)
        return factor, batch.zs, rng.uniform(-20, 20, (2, 3, 50))

    @pytest.mark.parametrize("fortran", [False, True])
    def test_lapack_solve_equals_solve_triangular(self, fortran):
        factor, zs, z_pred = self._factor(fortran)
        diffs = (zs.T[:, :, None] - z_pred).reshape(2, -1)
        np.testing.assert_array_equal(
            factor._whiten(zs, z_pred), solve_triangular(factor.chol, diffs, lower=True))

    @pytest.mark.parametrize("fortran", [False, True])
    def test_zero_diagonal_raises_numerics_error(self, fortran):
        factor, zs, z_pred = self._factor(fortran)
        factor.chol = factor.chol.copy(order="F" if fortran else "C")
        factor.chol[1, 1] = 0.0
        with pytest.raises(NumericsError):
            factor.loglik(zs, z_pred)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), g=st.integers(1, 4), n_pred=st.integers(1, 600),
           fortran=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_whiten_equals_solve_triangular(self, m, g, n_pred, fortran, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m))
        batch = MeasurementBatch(0, rng.uniform(-20, 20, (g, m)),
                                 np.hstack([np.eye(m), np.zeros((m, 2))]),
                                 a @ a.T + 0.5 * np.eye(m))
        factor = batch.factor
        factor.chol = factor.chol.copy(order="F" if fortran else "C")
        z_pred = rng.uniform(-20, 20, (m, g, n_pred))
        diffs = (batch.zs.T[:, :, None] - z_pred).reshape(m, -1)
        got = factor._whiten(batch.zs, z_pred)
        want = solve_triangular(factor.chol, diffs, lower=True)
        if m <= 3 and g * n_pred > 1:
            np.testing.assert_array_equal(got, want)
        else:
            # from m = 4 the sums may round differently, and for a single
            # residual LAPACK divides by the diagonal where dtrsm multiplies
            # by its reciprocal; an entry can cancel to far below its terms,
            # so the bound is relative to |L^-1| |D|
            inv = solve_triangular(factor.chol, np.eye(m), lower=True)
            scale = np.abs(inv) @ np.abs(diffs)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)


def reference_gate(z_pred, weights, batch, gamma_gate):
    """`bp._gate` with the centring on the (B, m, Np) transpose of z_pred;
    returns the mask and the arguments of its quadratic forms."""
    total = weights.sum(axis=1)
    live = total > 0
    total = np.where(live, total, 1.0)[:, None]
    z = z_pred.transpose(1, 0, 2)
    z_hat = (z @ weights[:, :, None])[..., 0] / total
    centred = z - z_hat[:, :, None]
    cov = (centred * weights[:, None, :]) @ centred.transpose(0, 2, 1) / total[:, :, None]
    args = (cov + batch.R, batch.zs[None, :, :] - z_hat[:, None, :])
    d2 = bp.psd_quadforms(*args)
    return (d2 <= gamma_gate) & live[:, None], args


class TestGate:
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 3), n_beliefs=st.integers(1, 6), n_pred=st.integers(1, 300),
           n_meas=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_gate_equals_transposed_centring(self, m, n_beliefs, n_pred, n_meas, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m))
        batch = MeasurementBatch(0, rng.uniform(-30, 30, (n_meas, m)),
                                 np.hstack([np.eye(m), np.zeros((m, 2))]),
                                 a @ a.T + 0.5 * np.eye(m))
        z_pred = (rng.uniform(-30, 30, (m, n_beliefs, 1))
                  + rng.normal(0.0, 3.0, (m, n_beliefs, n_pred)))
        weights = rng.uniform(0.0, 1.0, (n_beliefs, n_pred)) / n_pred
        weights[rng.random(n_beliefs) < 0.2] = 0.0    # beliefs without mass
        gamma = chi2.ppf(0.99, m)
        want, want_args = reference_gate(z_pred, weights, batch, gamma)
        calls = []
        quadforms = bp.psd_quadforms
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bp, "psd_quadforms",
                       lambda *args: calls.append(args) or quadforms(*args))
            got = bp._gate(z_pred, weights, batch, gamma)
        np.testing.assert_array_equal(got, want)
        (got_args,) = calls
        for got_arg, want_arg in zip(got_args, want_args):
            np.testing.assert_array_equal(got_arg, want_arg)


class TestErrorPaths:
    def test_particle_count_must_be_a_positive_integer(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(InputError, match="particle count"):
                BpConfig(n_particles=bad)
        assert BpConfig(n_particles=np.int64(3)).n_particles == 3

    def test_particle_count_is_capped(self):
        # checked before anything is allocated: the cap itself is accepted
        assert BpConfig(n_particles=bp.MAX_PARTICLES).n_particles == 50_000
        with pytest.raises(InputError, match="at most 50000 particles"):
            BpConfig(n_particles=bp.MAX_PARTICLES + 1)

    @pytest.mark.parametrize("threshold", [0.0, -1e-6, bp.DECLARE_THRESHOLD, 0.9, 1.5])
    def test_prune_threshold_must_lie_below_the_declare_threshold(self, threshold):
        with pytest.raises(InputError, match="prune_threshold"):
            BpConfig(prune_threshold=threshold)
        assert BpConfig(prune_threshold=1e-300).prune_threshold == 1e-300

    def test_weights_not_matching_particles_rejected(self):
        with pytest.raises(InputError):
            Beliefs(np.zeros((1, 5, 4)), np.full((1, 4), 0.1), [0.4], [0], ["x"])
        with pytest.raises(InputError):
            Beliefs(np.zeros((1, 5, 4)), np.full((1, 5), 0.1), [0.4, 0.2], [0], ["x"])

    def test_empty_belief_rejected(self):
        rng = np.random.default_rng(40)
        inp = simple_input(rng, np.zeros((0, 2)))
        with pytest.raises(InputError):
            bad = Beliefs(np.zeros((1, 0, 4)), np.zeros((1, 0)), [0.5], [0], ["x"])
            measurement_evaluation(bad, inp, BpConfig(n_particles=10),
                                   np.zeros((0, 10, 4)))

    def test_particle_count_mismatch_rejected_before_any_work(self):
        rng = np.random.default_rng(41)
        inp = simple_input(rng, np.array([[0.0, 0.0]]))
        beliefs = spread_beliefs(rng, 2, 40)
        cfg = BpConfig(n_particles=50)
        streams = []

        def rng_for(purpose, sensor):
            streams.append(purpose)
            return np.random.default_rng(0)

        with pytest.raises(InputError, match="40 particles"):
            bp_pipeline_step(beliefs, [inp], cv_motion(q=0.1), cfg, rng_for)
        assert streams == []
        births = scan_buffer(cfg.n_particles, inp.batch.n_meas)
        clouds = propose_births(inp, cfg, births.particles, np.random.default_rng(1))
        with pytest.raises(InputError, match="configured for 50"):
            measurement_evaluation(beliefs, inp, cfg, clouds)
        with pytest.raises(InputError, match="configured for 50"):
            belief_calculation(scan_buffer(beliefs), (np.ones((2, 40)), np.ones(2)),
                               no_newborns(40), cfg, np.random.default_rng(2))

    def test_step_size_is_capped_before_births_are_drawn(self, monkeypatch):
        # 2 beliefs and 3 measurements at 50 particles: 250 particles a step
        rng = np.random.default_rng(42)
        inp = simple_input(rng, np.array([[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]]))
        beliefs = spread_beliefs(rng, 2, 50)
        cfg = BpConfig(n_particles=50)
        drawn = []
        propose = bp.propose_births
        monkeypatch.setattr(bp, "propose_births",
                            lambda *args: drawn.append(1) or propose(*args))
        monkeypatch.setattr(bp, "MAX_STEP_PARTICLES", 249)
        with pytest.raises(ResourceLimitError, match="250 > 249 particles"):
            bp_pipeline_step(beliefs, [inp], cv_motion(q=0.1), cfg,
                             lambda purpose, sensor: np.random.default_rng(0))
        assert drawn == []
        monkeypatch.setattr(bp, "MAX_STEP_PARTICLES", 250)
        bp_pipeline_step(beliefs, [inp], cv_motion(q=0.1), cfg,
                         lambda purpose, sensor: np.random.default_rng(0))
        assert drawn == [1]

        # the same measurements over two sensors: the first step holds 150
        # particles, the second 250, and the scan raises before any draw
        inputs = [simple_input(rng, inp.batch.zs[:1], sensor_id=0),
                  simple_input(rng, inp.batch.zs[1:], sensor_id=1)]
        drawn.clear()
        monkeypatch.setattr(bp, "MAX_STEP_PARTICLES", 249)
        with pytest.raises(ResourceLimitError, match="250 > 249 particles"):
            bp_pipeline_step(beliefs, inputs, cv_motion(q=0.1), cfg,
                             lambda purpose, sensor: np.random.default_rng(0))
        assert drawn == []
        monkeypatch.setattr(bp, "MAX_STEP_PARTICLES", 250)
        bp_pipeline_step(beliefs, inputs, cv_motion(q=0.1), cfg,
                         lambda purpose, sensor: np.random.default_rng(0))
        assert drawn == [1, 1]

    @pytest.mark.parametrize("p_d", [1.5, 0.0, -0.2, np.nan])
    def test_detection_probability_outside_the_unit_interval_rejected(self, p_d):
        rng = np.random.default_rng(43)
        with pytest.raises(InputError, match="detection probability"):
            simple_input(rng, np.zeros((1, 2)), p_d=p_d)
        assert simple_input(rng, np.zeros((1, 2)), p_d=1.0).p_d == 1.0

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
            belief_calculation(scan_buffer(belief), (np.zeros((1, 5)), np.zeros(1)),
                               no_newborns(5), BpConfig(n_particles=5),
                               np.random.default_rng(0))
