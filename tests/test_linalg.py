"""Shared linear-algebra helpers: the stacked PSD gate, the Cholesky
whitening and the chi-square gate."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import trackfuse
from trackfuse import bp, mda, sim
from trackfuse.errors import NumericsError
from trackfuse.linalg import (
    chi2_gate,
    mahalanobis_sq,
    pinv_psd,
    psd_eig,
    psd_eig_stack,
    psd_quadforms,
)


def per_matrix_quadforms(mats, diffs):
    """Reference: one psd_eig per matrix, as the BP gate did before stacking."""
    out = np.zeros(diffs.shape[:2])
    for b, (m, d) in enumerate(zip(mats, diffs)):
        w, v, _ = psd_eig(m)
        proj = d @ v
        out[b] = np.sum(proj * proj / w, axis=1)
    return out


def assert_same_forms(mats, diffs):
    # the stacked product may round differently in the last bit
    np.testing.assert_allclose(psd_quadforms(mats, diffs),
                               per_matrix_quadforms(mats, diffs), rtol=1e-12)


def random_psd(rng, dim, rank):
    a = rng.standard_normal((dim, rank))
    return a @ a.T


class TestPsdQuadforms:
    def test_matches_per_matrix_psd_eig(self):
        rng = np.random.default_rng(0)
        mats = np.array([random_psd(rng, 2, 2) * s for s in (1e-3, 1.0, 25.0, 1e4)])
        diffs = rng.standard_normal((4, 6, 2)) * 10
        assert_same_forms(mats, diffs)

    def test_rank_deficient_generic_transform(self):
        # a generic full-column-rank A (5 x 2) maps a 2-D R to a rank-2
        # 5 x 5 covariance; residuals in its range keep only two terms
        rng = np.random.default_rng(1)
        mats, diffs = [], []
        for _ in range(5):
            a = rng.standard_normal((5, 2))
            r = np.diag(rng.uniform(20.0, 30.0, 2))
            mats.append(a @ r @ a.T)
            diffs.append(rng.standard_normal((3, 2)) @ a.T)
        mats, diffs = np.array(mats), np.array(diffs)
        assert all(psd_eig(m)[2] == 2 for m in mats)
        assert_same_forms(mats, diffs)

    def test_zero_matrix_gives_zero_forms(self):
        mats = np.zeros((2, 3, 3))
        mats[1] = np.eye(3)
        diffs = np.ones((2, 4, 3))
        out = psd_quadforms(mats, diffs)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_allclose(out[1], 3.0)

    def test_non_psd_raises(self):
        mats = np.array([np.eye(2), np.diag([1.0, -0.5])])
        with pytest.raises(NumericsError):
            psd_quadforms(mats, np.ones((2, 1, 2)))
        with pytest.raises(NumericsError):
            psd_eig(mats[1])

    def test_negative_semidefinite_raises(self):
        with pytest.raises(NumericsError):
            psd_quadforms(-np.eye(2)[None], np.ones((1, 1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_raises(self, bad):
        # eigh returns finite eigenpairs for a nan matrix: psd_eig once
        # took [[nan, 0], [0, 1]] as rank 1 and psd_quadforms gave 1.0
        m = np.array([[bad, 0.0], [0.0, 1.0]])
        mats = np.array([np.eye(2), m])
        for call in (lambda: psd_eig(m), lambda: pinv_psd(m),
                     lambda: psd_eig_stack(mats),
                     lambda: psd_quadforms(mats, np.ones((2, 1, 2)))):
            with pytest.raises(NumericsError, match="not finite"):
                call()

    def test_empty_stack(self):
        assert psd_quadforms(np.zeros((0, 2, 2)), np.zeros((0, 3, 2))).shape == (0, 3)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 5),
           stack=st.integers(1, 6), data=st.data())
    def test_property_matches_per_matrix(self, seed, dim, stack, data):
        rng = np.random.default_rng(seed)
        ranks = data.draw(st.lists(st.integers(0, dim), min_size=stack,
                                   max_size=stack))
        mats = np.array([random_psd(rng, dim, r) for r in ranks])
        diffs = rng.standard_normal((stack, 4, dim))
        assert_same_forms(mats, diffs)


def lower_factor(rng, dim, log_cond):
    """A lower triangular factor with a positive diagonal and condition
    number 10 ** log_cond, at a random scale: the L of the LQ
    decomposition of U diag(sv) V for random orthogonal U, V."""
    u, v = (np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(2))
    sv = np.logspace(0.0, log_cond, dim) * 10.0 ** rng.uniform(-4.0, 4.0)
    low = np.linalg.qr(((u * sv) @ v).T)[1].T
    return low * np.sign(np.diag(low))


class TestMahalanobisSq:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           stack=st.integers(1, 5), width=st.integers(1, 6))
    def test_a_residual_has_the_same_bits_in_any_batch(self, seed, dim, stack, width):
        rng = np.random.default_rng(seed)
        chol = np.array([lower_factor(rng, dim, rng.uniform(0.0, 8.0))
                         for _ in range(stack)])
        scale = 10.0 ** rng.uniform(-3, 3)
        zs = rng.standard_normal((width, dim)) * scale
        z_hat = rng.standard_normal((stack, dim)) * scale
        alone = np.array([[mahalanobis_sq(c, z, zh) for z in zs]
                          for c, zh in zip(chol, z_hat)])
        assert alone.shape == (stack, width)
        # a stack of factors, each against every measurement
        assert np.array_equal(mahalanobis_sq(chol[:, None], zs[None], z_hat[:, None]), alone)
        # the residuals given as one stack against zero
        diffs = zs[None] - z_hat[:, None]
        assert np.array_equal(mahalanobis_sq(chol[:, None], diffs, np.zeros(dim)), alone)
        # one factor broadcast over many residuals
        for b in range(stack):
            assert np.array_equal(mahalanobis_sq(chol[b], zs, z_hat[b]), alone[b])
        # strided residuals, factors broadcast along the other axis
        assert np.array_equal(mahalanobis_sq(chol, diffs.swapaxes(0, 1), np.zeros(dim)),
                              alone.T)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
           log_cond=st.floats(0.0, 8.0))
    def test_equals_a_solve_and_dot_product_to_1e_12(self, seed, dim, log_cond):
        rng = np.random.default_rng(seed)
        chol = lower_factor(rng, dim, log_cond)
        assert np.linalg.cond(chol) <= 1e8 * (1.0 + 1e-6)
        zs = rng.standard_normal((8, dim)) * 10.0 ** rng.uniform(-3, 3)
        z_hat = rng.standard_normal(dim)
        want = np.array([float(x @ x) for x in np.linalg.solve(chol, (zs - z_hat).T).T])
        np.testing.assert_allclose(mahalanobis_sq(chol, zs, z_hat), want, rtol=1e-12,
                                   atol=0)


class TestChi2Gate:
    def test_equals_chi2_ppf_at_the_configured_gates(self):
        probs = {bp.GATE_PROB, mda.MdaConfig().gate_prob, mda.INIT_GATE_PROB, sim.GATE_PROB}
        for prob in probs:
            for dof in range(1, 7):
                assert chi2_gate(prob, dof) == chi2.ppf(prob, dof)

    @settings(max_examples=300, deadline=None)
    @given(prob=st.floats(0.5, 1.0 - 1e-9), dof=st.integers(1, 12))
    def test_property_equals_chi2_ppf(self, prob, dof):
        assert chi2_gate(prob, dof) == chi2.ppf(prob, dof)

    def test_program_does_not_import_scipy_stats(self):
        code = ("import sys, trackfuse.cli, trackfuse.sim; "
                "print('scipy.stats' in sys.modules)")
        src = os.path.dirname(os.path.dirname(trackfuse.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"
