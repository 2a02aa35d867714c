"""Prediction, innovation and the raw/transformed update routes."""

import numpy as np
import pytest

from trackfuse.errors import ConfigError, InputError, NumericsError
from trackfuse.linalg import inv_spd, pinv_psd, symmetrize
from trackfuse.models import (
    GaussianEstimate,
    MeasurementModel,
    MotionModel,
    innovation,
    innovation_stack,
    predict,
    predict_stack,
    update_raw,
    update_raw_stack,
    update_transformed,
)


def cv_model(dt=1.0, q=0.0):
    f = np.kron(np.array([[1.0, dt], [0.0, 1.0]]), np.eye(2))
    gamma = np.kron(np.array([[dt * dt / 2.0], [dt]]), np.eye(2))
    return MotionModel(f, gamma @ (q ** 2 * np.eye(2)) @ gamma.T)


def random_spd(rng, m, jitter=0.1):
    g = rng.standard_normal((m, m))
    return g @ g.T + jitter * np.eye(m)


class TestPredict:
    def test_cv_propagation(self):
        est = GaussianEstimate([0.0, 0.0, 1.0, 1.0], np.eye(4))
        out = predict(est, cv_model(dt=1.0))
        np.testing.assert_allclose(out.mean, [1.0, 1.0, 1.0, 1.0])

    def test_zero_covariance_zero_noise(self):
        est = GaussianEstimate([1.0, 2.0, 0.0, 0.0], np.zeros((4, 4)))
        out = predict(est, cv_model())
        np.testing.assert_array_equal(out.cov, np.zeros((4, 4)))

    def test_hand_example_matches_matrix_product(self):
        # Oracle: brute-force matrix products for F=[[1,1],[0,1]], cov=I,
        # Q=0.01 I give mean [1,-1] and cov [[2.01,1],[1,1.01]].
        f = np.array([[1.0, 1.0], [0.0, 1.0]])
        q = 0.01 * np.eye(2)
        est = GaussianEstimate([2.0, -1.0], np.eye(2))
        oracle_mean = f @ est.mean
        oracle_cov = f @ est.cov @ f.T + q
        out = predict(est, MotionModel(f, q))
        np.testing.assert_allclose(out.mean, [1.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(out.cov, [[2.01, 1.0], [1.0, 1.01]], atol=1e-15)
        np.testing.assert_allclose(out.mean, oracle_mean)
        np.testing.assert_allclose(out.cov, oracle_cov)

    def test_dimension_mismatch(self):
        est = GaussianEstimate([1.0, 2.0], np.eye(2))
        with pytest.raises(ConfigError):
            predict(est, cv_model())


class TestInnovation:
    def test_identity_h_zero_r_not_allowed_but_small_r(self):
        # H = I with R -> 0 gives S -> P
        p = np.diag([1.0, 2.0])
        est = GaussianEstimate([0.0, 0.0], p)
        model = MeasurementModel(np.eye(2), 1e-12 * np.eye(2))
        _, s = innovation(est, model)
        np.testing.assert_allclose(s, p, atol=1e-10)

    def test_position_projection(self):
        est = GaussianEstimate([3.0, 4.0, 1.0, 1.0], np.eye(4))
        model = MeasurementModel(np.hstack([np.eye(2), np.zeros((2, 2))]),
                                 np.eye(2))
        z_hat, _ = innovation(est, model)
        np.testing.assert_allclose(z_hat, [3.0, 4.0])

    def test_diagonal_example(self):
        est = GaussianEstimate(np.zeros(4), np.diag([1.0, 2.0, 3.0, 4.0]))
        model = MeasurementModel(np.hstack([np.eye(2), np.zeros((2, 2))]),
                                 np.diag([25.0, 25.0]))
        _, s = innovation(est, model)
        np.testing.assert_allclose(s, np.diag([26.0, 27.0]))


class TestUpdateRaw:
    def test_zero_innovation_keeps_mean(self):
        est = GaussianEstimate([1.0, -2.0, 0.5, 0.0], np.diag([4.0, 4.0, 1.0, 1.0]))
        model = MeasurementModel(np.hstack([np.eye(2), np.zeros((2, 2))]),
                                 np.eye(2))
        z_hat, _ = innovation(est, model)
        out = update_raw(est, z_hat, model)
        np.testing.assert_allclose(out.mean, est.mean, atol=1e-12)

    def test_uninformative_measurement_limit(self):
        est = GaussianEstimate([1.0, 2.0], np.diag([3.0, 5.0]))
        model = MeasurementModel(np.eye(2), 1e12 * np.eye(2))
        out = update_raw(est, np.array([100.0, -50.0]), model)
        np.testing.assert_allclose(out.mean, est.mean, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(out.cov, est.cov, rtol=1e-6)

    def test_scalar_case_information_form_oracle(self):
        # Oracle: scalar information form. info = 1/1 + 1/1 = 2, so the
        # posterior variance is 0.5 and mean 0.5 * (0/1 + 1/1) = 0.5.
        est = GaussianEstimate([0.0], np.array([[1.0]]))
        model = MeasurementModel(np.array([[1.0]]), np.array([[1.0]]))
        out = update_raw(est, np.array([1.0]), model)
        np.testing.assert_allclose(out.mean, [0.5], atol=1e-14)
        np.testing.assert_allclose(out.cov, [[0.5]], atol=1e-14)

    def test_posterior_not_larger_than_prior(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            est = GaussianEstimate(rng.standard_normal(4), random_spd(rng, 4))
            model = MeasurementModel(rng.standard_normal((2, 4)),
                                     random_spd(rng, 2))
            out = update_raw(est, rng.standard_normal(2), model)
            eigs = np.linalg.eigvalsh(est.cov - out.cov)
            assert eigs.min() >= -1e-10

    def test_singular_innovation_reports_condition(self):
        est = GaussianEstimate([0.0, 0.0], np.zeros((2, 2)))
        model = MeasurementModel(np.eye(2), np.diag([1.0, 1e-14]))
        with pytest.raises(NumericsError, match="cond"):
            update_raw(est, np.zeros(2), model)

    @pytest.mark.parametrize("cond, accepted", [(0.5e12, True), (2e12, False)])
    def test_condition_threshold(self, cond, accepted):
        # the innovation covariance is R = diag(1, 1 / cond)
        est = GaussianEstimate([0.0, 0.0], np.zeros((2, 2)))
        model = MeasurementModel(np.eye(2), np.diag([1.0, 1.0 / cond]))
        if accepted:
            out = update_raw(est, np.ones(2), model)
            np.testing.assert_array_equal(out.mean, [0.0, 0.0])
        else:
            with pytest.raises(NumericsError, match="cond=2.000e"):
                update_raw(est, np.ones(2), model)

    def test_nan_covariance_raises_numerics_error(self):
        # used to end in numpy's untyped LinAlgError("SVD did not converge")
        est = GaussianEstimate([0.0, 0.0], [[np.nan, 0.0], [0.0, 1.0]])
        model = MeasurementModel(np.eye(2), np.eye(2))
        with pytest.raises(NumericsError, match="not finite"):
            update_raw(est, np.zeros(2), model)


class TestUpdateTransformed:
    def test_identity_transform_matches_raw(self):
        rng = np.random.default_rng(5)
        est = GaussianEstimate(rng.standard_normal(4), random_spd(rng, 4))
        model = MeasurementModel(rng.standard_normal((2, 4)), random_spd(rng, 2))
        z = rng.standard_normal(2)
        raw = update_raw(est, z, model)
        tr = update_transformed(est, z, model.H, model.R)
        np.testing.assert_allclose(tr.mean, raw.mean, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(tr.cov, raw.cov, rtol=1e-9)

    def test_full_column_rank_transform_matches_raw(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            est = GaussianEstimate(rng.standard_normal(4), random_spd(rng, 4))
            model = MeasurementModel(rng.standard_normal((2, 4)),
                                     random_spd(rng, 2))
            z = rng.standard_normal(2)
            a = rng.standard_normal((int(rng.integers(2, 6)), 2))
            raw = update_raw(est, z, model)
            tr = update_transformed(est, a @ z, a @ model.H,
                                    a @ model.R @ a.T)
            np.testing.assert_allclose(tr.mean, raw.mean, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(tr.cov, raw.cov, rtol=1e-9)

    def test_fisher_information_identity(self):
        # H_t' R_t^+ H_t equals H' R^-1 H for a random tall transform.
        rng = np.random.default_rng(7)
        h = rng.standard_normal((2, 4))
        r = random_spd(rng, 2)
        a = rng.standard_normal((5, 2))
        lhs = (a @ h).T @ pinv_psd(a @ r @ a.T) @ (a @ h)
        rhs = h.T @ np.linalg.inv(r) @ h
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_negative_eigenvalue_rejected(self):
        est = GaussianEstimate([0.0, 0.0], np.eye(2))
        with pytest.raises(InputError):
            update_transformed(est, np.zeros(2), np.eye(2),
                               np.diag([1.0, -0.5]))


class TestInvariants:
    def test_covariance_symmetry_after_operations(self):
        rng = np.random.default_rng(11)
        est = GaussianEstimate(rng.standard_normal(4), random_spd(rng, 4))
        motion = cv_model(q=0.3)
        model = MeasurementModel(rng.standard_normal((2, 4)), random_spd(rng, 2))
        for _ in range(20):
            est = predict(est, motion)
            est = update_raw(est, rng.standard_normal(2), model)
            assert np.max(np.abs(est.cov - est.cov.T)) == 0.0

    def test_pseudoinverse_identity_property(self):
        # 200 random SPD S with full-column-rank A, relative Frobenius
        # residual of A'(ASA')+A - S^-1 below 1e-8.
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(200):
            m = int(rng.integers(1, 5))
            s = random_spd(rng, m)
            a = rng.standard_normal((m + int(rng.integers(0, 4)), m))
            lhs = a.T @ pinv_psd(a @ s @ a.T) @ a
            rhs = np.linalg.inv(s)
            worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
        assert worst <= 1e-8

    def test_two_sensor_update_order_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            est = GaussianEstimate(rng.standard_normal(4), random_spd(rng, 4))
            m1 = MeasurementModel(rng.standard_normal((2, 4)), random_spd(rng, 2))
            m2 = MeasurementModel(rng.standard_normal((2, 4)), random_spd(rng, 2))
            z1, z2 = rng.standard_normal(2), rng.standard_normal(2)
            seq = update_raw(update_raw(est, z1, m1), z2, m2)
            stacked_h = np.vstack([m1.H, m2.H])
            stacked_r = np.block([[m1.R, np.zeros((2, 2))],
                                  [np.zeros((2, 2)), m2.R]])
            stacked = update_raw(est, np.concatenate([z1, z2]),
                                 MeasurementModel(stacked_h, stacked_r))
            np.testing.assert_allclose(seq.mean, stacked.mean, rtol=1e-9,
                                       atol=1e-9)
            np.testing.assert_allclose(seq.cov, stacked.cov, rtol=1e-9)


def textbook_predict_update(est, motion, z, model):
    """Reference: the one-estimate Kalman equations written out in 2-D."""
    mean = motion.F @ est.mean
    cov = symmetrize(motion.F @ est.cov @ motion.F.T + motion.Q)
    z_hat = model.H @ mean
    s = symmetrize(model.H @ cov @ model.H.T + model.R)
    gain = cov @ model.H.T @ inv_spd(s)
    i_kh = np.eye(mean.size) - gain @ model.H
    return ((mean, cov), (z_hat, s),
            (mean + gain @ (z - z_hat),
             symmetrize(i_kh @ cov @ i_kh.T + gain @ model.R @ gain.T)))


class TestStackedCore:
    def _stack(self, rng, n):
        ests = [GaussianEstimate(rng.standard_normal(4) * 100.0,
                                 random_spd(rng, 4) * 10.0, int(k))
                for k in rng.integers(0, 50, n)]
        return (ests, np.stack([e.mean for e in ests]),
                np.stack([e.cov for e in ests]))

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_rows_equal_one_estimate_calls_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        motion = cv_model(q=0.3)
        model = MeasurementModel(np.hstack([np.diag([1.01, 0.99]), np.zeros((2, 2))]),
                                 random_spd(rng, 2) + 25.0 * np.eye(2))
        ests, means, covs = self._stack(rng, n)
        zs = rng.standard_normal((n, 2)) * 100.0
        p_means, p_covs = predict_stack(means, covs, motion)
        z_hats, ss = innovation_stack(p_means, p_covs, model)
        u_means, u_covs = update_raw_stack(p_means, p_covs, zs, model)
        for k, est in enumerate(ests):
            pred = predict(est, motion)
            z_hat, s = innovation(pred, model)
            upd = update_raw(pred, zs[k], model)
            assert pred.timestamp == est.timestamp + 1
            assert upd.timestamp == pred.timestamp
            ref = textbook_predict_update(est, motion, zs[k], model)
            for got, one, textbook in [
                    ((p_means[k], p_covs[k]), (pred.mean, pred.cov), ref[0]),
                    ((z_hats[k], ss[k]), (z_hat, s), ref[1]),
                    ((u_means[k], u_covs[k]), (upd.mean, upd.cov), ref[2])]:
                for a, b, c in zip(got, one, textbook):
                    np.testing.assert_array_equal(a, b)
                    np.testing.assert_array_equal(a, c)

    def test_one_ill_conditioned_row_raises(self):
        rng = np.random.default_rng(44)
        _, means, covs = self._stack(rng, 5)
        covs[3] = np.zeros((4, 4))
        model = MeasurementModel(np.hstack([np.eye(2), np.zeros((2, 2))]),
                                 np.diag([1.0, 1e-14]))
        with pytest.raises(NumericsError, match="cond"):
            update_raw_stack(means, covs, np.zeros((5, 2)), model)
        # the same stack without the bad row updates
        keep = [0, 1, 2, 4]
        update_raw_stack(means[keep], covs[keep], np.zeros((4, 2)),
                         MeasurementModel(model.H, np.eye(2)))

    def test_one_negative_definite_row_raises(self):
        rng = np.random.default_rng(45)
        _, means, covs = self._stack(rng, 4)
        covs[1] = -100.0 * np.eye(4)
        model = MeasurementModel(np.hstack([np.eye(2), np.zeros((2, 2))]),
                                 25.0 * np.eye(2))
        with pytest.raises(NumericsError, match="not positive definite"):
            update_raw_stack(means, covs, np.zeros((4, 2)), model)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            predict_stack(np.zeros((3, 2)), np.zeros((3, 2, 2)), cv_model())
        model = MeasurementModel(np.hstack([np.eye(2), np.zeros((2, 2))]), np.eye(2))
        with pytest.raises(ConfigError):
            innovation_stack(np.zeros((3, 2)), np.zeros((3, 2, 2)), model)
