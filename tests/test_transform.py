"""Transformation builders, likelihoods, clutter scaling."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from trackfuse.errors import InconsistentTransformError, InputError
from trackfuse.linalg import ranks_by_sv
from trackfuse.models import MeasurementModel
from trackfuse.transform import (
    ClutterModel,
    clutter_density_transformed,
    gaussian_log_likelihood,
    generalized_log_likelihood,
    make_generic,
    make_type1,
    make_type2,
)


def random_spd(rng, m, jitter=0.1):
    g = rng.standard_normal((m, m))
    return g @ g.T + jitter * np.eye(m)


def position_model(rng, sigma2=25.0):
    e = np.diag(1.0 + rng.uniform(-0.02, 0.02, 2))
    h = np.hstack([e, np.zeros((2, 2))])
    r = np.diag(sigma2 + rng.uniform(0.0, 1.0, 2))
    return MeasurementModel(h, r)


def rank(a):
    return int(ranks_by_sv(np.atleast_2d(a)[None])[0])


class TestGeneric:
    def test_wrong_column_count_raises_input_error(self):
        # A with 3 columns against m = 2 once reached numpy's matmul and
        # raised its untyped ValueError
        model = position_model(np.random.default_rng(2))
        with pytest.raises(InputError, match="2 columns"):
            make_generic(np.ones((4, 3)) + np.eye(4, 3), model)

    def test_rank_deficient_raises_input_error(self):
        model = position_model(np.random.default_rng(3))
        for a in (np.ones((4, 2)), np.ones((1, 2))):
            with pytest.raises(InputError, match="full column rank"):
                make_generic(a, model)


class TestType1:
    def test_identity_noise_whitening(self):
        h = np.hstack([np.eye(2), np.zeros((2, 2))])
        model = MeasurementModel(h, np.eye(2))
        tr = make_type1(model)
        np.testing.assert_allclose(tr.A @ model.R @ tr.A.T, np.eye(2),
                                   atol=1e-12)

    def test_transformed_noise_is_identity(self):
        h = np.hstack([np.diag([1.01, 0.99]), np.zeros((2, 2))])
        model = MeasurementModel(h, np.diag([26.0, 26.0]))
        tr = make_type1(model)
        np.testing.assert_allclose(tr.Rt, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(tr.A @ model.R @ tr.A.T, np.eye(2),
                                   atol=1e-10)

    def test_fisher_information_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            h = rng.standard_normal((2, 4))
            model = MeasurementModel(h, random_spd(rng, 2))
            tr = make_type1(model)
            lhs = tr.Ht.T @ np.linalg.solve(tr.Rt, tr.Ht)
            rhs = h.T @ np.linalg.solve(model.R, h)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-10)


class TestType2:
    def test_identity_block(self):
        h = np.hstack([np.eye(2), np.zeros((2, 2))])
        model = MeasurementModel(h, np.diag([25.0, 26.0]))
        tr = make_type2(model)
        np.testing.assert_allclose(tr.A, np.eye(2))
        np.testing.assert_allclose(tr.Rt, model.R)

    def test_diagonal_inverse(self):
        h = np.hstack([np.diag([2.0, 2.0]), np.zeros((2, 2))])
        model = MeasurementModel(h, np.eye(2))
        tr = make_type2(model)
        np.testing.assert_allclose(tr.apply(np.array([4.0, 6.0])), [2.0, 3.0])

    def test_noise_scaling_closed_form(self):
        e = np.diag([1.02, 0.98])
        h = np.hstack([e, np.zeros((2, 2))])
        r = np.diag([25.5, 25.2])
        tr = make_type2(MeasurementModel(h, r))
        np.testing.assert_allclose(
            tr.Rt, np.diag([25.5 / 1.02 ** 2, 25.2 / 0.98 ** 2]), rtol=1e-12)
        np.testing.assert_allclose(tr.Ht,
                                   np.hstack([np.eye(2), np.zeros((2, 2))]))

    def test_rejects_wrong_shape(self):
        h = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0]])
        with pytest.raises(InputError):
            make_type2(MeasurementModel(h, np.eye(2)))


class TestGaussianLikelihood:
    def test_mode_of_standard_normal(self):
        val = math.exp(gaussian_log_likelihood(np.zeros(2), np.zeros(2), np.eye(2)))
        assert val == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_scalar_unit_residual(self):
        val = math.exp(gaussian_log_likelihood(np.array([1.0]), np.array([0.0]),
                                               np.array([[1.0]])))
        assert val == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi),
                                    rel=1e-12)

    def test_against_scipy_pdf_oracle(self):
        s = np.diag([26.0, 27.0])
        z = np.array([5.0, 5.0])
        expected = multivariate_normal(mean=np.zeros(2), cov=s).pdf(z)
        assert math.exp(gaussian_log_likelihood(z, np.zeros(2), s)) == pytest.approx(
            expected, rel=1e-12)


class TestGeneralizedLikelihood:
    def test_nonsingular_equals_gaussian(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            s = random_spd(rng, 3)
            z, z_hat = rng.standard_normal(3), rng.standard_normal(3)
            assert generalized_log_likelihood(z, z_hat, s) == pytest.approx(
                gaussian_log_likelihood(z, z_hat, s), rel=1e-10)

    def test_likelihood_ratio_scaling_on_random_instances(self):
        # Ratio of the raw to the transformed likelihood equals
        # sqrt(prod nonzero eigs) / sqrt(det S).
        rng = np.random.default_rng(32)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            s = random_spd(rng, m)
            a = rng.standard_normal((m + int(rng.integers(1, 4)), m))
            z, z_hat = rng.standard_normal(m), rng.standard_normal(m)
            st = a @ s @ a.T
            eig = np.linalg.eigvalsh(st)
            prod_e = float(np.prod(eig[eig > 1e-12 * eig.max()]))
            lhs = (gaussian_log_likelihood(z, z_hat, s)
                   - generalized_log_likelihood(a @ z, a @ z_hat, st))
            rhs = 0.5 * (math.log(prod_e) - math.log(np.linalg.det(s)))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_determinant_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            s = random_spd(rng, m)
            a = rng.standard_normal((m + int(rng.integers(0, 4)), m))
            eig = np.linalg.eigvalsh(a @ s @ a.T)
            prod_e = float(np.prod(eig[eig > 1e-12 * eig.max()]))
            det_form = float(np.linalg.det(s) * np.linalg.det(a.T @ a))
            assert prod_e == pytest.approx(det_form, rel=1e-8)

    def test_out_of_range_residual_rejected(self):
        a = np.array([[1.0], [1.0]])
        st = a @ np.array([[2.0]]) @ a.T
        with pytest.raises(InconsistentTransformError):
            generalized_log_likelihood(np.array([1.0, -1.0]), np.zeros(2), st)


class TestClutter:
    @pytest.mark.parametrize("rate, volume", [(0.0, 1e6), (-1.0, 1e6), (math.nan, 1e6),
                                              (10.0, 0.0), (10.0, -1.0)])
    def test_rate_and_volume_must_be_positive(self, rate, volume):
        # a zero rate used to pass here and end every score in math.log's
        # untyped ValueError
        with pytest.raises(InputError, match="must be > 0"):
            ClutterModel(rate, volume)

    def test_identity_transform_keeps_density(self):
        clutter = ClutterModel(10.0, 1e6)
        model = position_model(np.random.default_rng(0))
        tr = make_generic(np.eye(2), model)
        out = clutter_density_transformed(clutter, tr)
        assert out.density == pytest.approx(clutter.density, rel=1e-12)

    def test_area_scaling(self):
        clutter = ClutterModel(10.0, 100.0)
        model = position_model(np.random.default_rng(1))
        out = clutter_density_transformed(clutter, make_generic(2 * np.eye(2),
                                                                model))
        assert out.density == pytest.approx(clutter.density / 4.0, rel=1e-12)

    def test_singular_value_product_oracle(self):
        rng = np.random.default_rng(41)
        clutter = ClutterModel(5.0, 123.0)
        for _ in range(50):
            a = rng.standard_normal((4, 2))
            model = position_model(rng)
            out = clutter_density_transformed(clutter, make_generic(a, model))
            ratio = clutter.density / out.density
            assert ratio == pytest.approx(
                math.sqrt(np.linalg.det(a.T @ a)), rel=1e-10)


class TestInvariants:
    def test_likelihood_ratio_invariance(self):
        # [p(z|x)/p_f(z)] is invariant under every transformation kind.
        rng = np.random.default_rng(51)
        clutter = ClutterModel(10.0, 1.13e6)
        for trial in range(150):
            model = position_model(rng)
            est_mean = rng.standard_normal(4) * 100
            cov = np.diag(rng.uniform(1.0, 50.0, 4))
            z = model.H @ est_mean + rng.standard_normal(2) * 5
            z_hat = model.H @ est_mean
            s = model.H @ cov @ model.H.T + model.R
            if trial % 3 == 0:
                tr = make_type1(model)
            elif trial % 3 == 1:
                tr = make_type2(model)
            else:
                tr = make_generic(rng.standard_normal((5, 2)), model)
            ct = clutter_density_transformed(clutter, tr)
            raw = gaussian_log_likelihood(z, z_hat, s) - math.log(clutter.density)
            trv = generalized_log_likelihood(
                tr.A @ z, tr.A @ z_hat, tr.A @ s @ tr.A.T) - math.log(ct.density)
            assert raw == pytest.approx(trv, abs=1e-9)

    def test_type1_payload_not_larger_than_raw(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            h = rng.standard_normal((m, n))
            r_h = rank(h)
            raw = m + m * n + m * (m + 1) // 2
            type1 = r_h + r_h * n
            assert type1 <= raw

    def test_rank_preserved_by_transformations(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            model = position_model(rng)
            for tr in (make_type1(model), make_type2(model),
                       make_generic(rng.standard_normal((4, 2)), model)):
                assert rank(tr.Ht) == rank(model.H)
