"""The tape pass: stacked payload transformations, payload factors and the
code that reads them, each against the per-call form it replaced, bit for
bit.

The `reference_*` functions are copies of the per-batch code that
refactored each (H, R) where it was used."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from trackfuse import bp as bp_mod
from trackfuse import mda as mda_mod
from trackfuse.errors import ConfigError, InputError, NumericsError
from trackfuse.linalg import pinv_psd, psd_eig, symmetrize
from trackfuse.models import (
    MeasurementBatch,
    MeasurementModel,
    PayloadFactor,
    payload_factors,
)
from trackfuse.sim import (
    encode_batch,
    encode_tape,
    prepare_run,
    run_bp_fusion,
    run_mda_fusion,
    scenario1,
    scenario2,
)
from trackfuse.transform import (
    ClutterModel,
    SensorInput,
    Transformation,
    clutter_density_transformed,
    gaussian_log_likelihood,
    generalized_log_likelihood,
    make_generic,
    make_type1,
    make_type2,
    type1_stack,
    type2_stack,
)

from conftest import position_model, scan_buffer, sensor_input


# -- reference copies of the per-call code ---------------------------------

def reference_rank(a, rtol=1e-10):
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rtol * sv[0]))


def reference_full_rank_decomposition(H, rtol=1e-10):
    m = H.shape[0]
    r = reference_rank(H, rtol)
    if r == m:
        return np.eye(m), H.copy()
    q, rr, piv = scipy.linalg.qr(H, pivoting=True)
    perm = np.empty_like(piv)
    perm[piv] = np.arange(piv.size)
    return q[:, :r], rr[:r, :][:, perm]


def reference_type1(model):
    b, d = reference_full_rank_decomposition(model.H)
    r_inv = np.linalg.inv(model.R)
    core = symmetrize(b.T @ r_inv @ b)
    if np.min(np.linalg.eigvalsh(core)) <= 1e-12 * np.max(np.linalg.eigvalsh(core)):
        raise NumericsError("B^T R^-1 B is rank deficient")
    w, v = np.linalg.eigh(symmetrize(core))
    w = np.maximum(w, 1e-14)
    sq = symmetrize((v * np.sqrt(w)) @ v.T)
    isq = symmetrize((v / np.sqrt(w)) @ v.T)
    a = isq @ b.T @ r_inv
    ht = sq @ d
    return Transformation(a, "type1", ht, np.eye(ht.shape[0]))


def reference_type2(model):
    m, n = model.m, model.n
    e = model.H[:, :m]
    tail = model.H[:, m:]
    if tail.size and np.max(np.abs(tail)) > 1e-12:
        raise InputError("H is not of the [E, 0] shape")
    if reference_rank(e) < m:
        raise InputError("leading block of H is singular")
    a = np.linalg.inv(e)
    ht = np.hstack([np.eye(m), np.zeros((m, n - m))])
    return Transformation(a, "type2", ht, symmetrize(a @ model.R @ a.T))


def reference_encode(scan_data, sent, payload, clutter_rate):
    model = scan_data.model
    zs = scan_data.zs[list(sent)] if len(sent) else np.zeros((0, model.m))
    clutter = ClutterModel(clutter_rate, scan_data.fov_volume)
    if payload == "raw":
        return MeasurementBatch(model.sensor_id, zs, model.H, model.R, "raw"), clutter
    tr = (reference_type1 if payload == "type1" else reference_type2)(model)
    batch = MeasurementBatch(model.sensor_id, tr.apply(zs), tr.Ht, tr.Rt, payload)
    return batch, clutter_density_transformed(clutter, tr)


def reference_backprojection(batch, pos_dim=2):
    h = batch.H
    if h.shape[1] > pos_dim and np.max(np.abs(h[:, pos_dim:])) > 1e-12:
        return None
    hp = h[:, :pos_dim]
    r_dag = pinv_psd(batch.R) if batch.transformed else np.linalg.inv(batch.R)
    info = symmetrize(hp.T @ r_dag @ hp)
    w = np.linalg.eigvalsh(info)
    if w[0] <= 1e-10 * max(w[-1], 1e-300):
        return None
    cov = np.linalg.inv(info)
    return batch.zs @ (r_dag @ hp) @ cov.T, cov


def reference_information(meas, sensors):
    info = ivec = None
    for z, sv in zip(meas, sensors):
        if z is None:
            continue
        h, r = sv.batch.H, sv.batch.R
        if info is None:
            info = np.zeros((h.shape[1], h.shape[1]))
            ivec = np.zeros(h.shape[1])
        r_dag = pinv_psd(r) if sv.batch.transformed else np.linalg.inv(r)
        info += h.T @ r_dag @ h
        ivec += h.T @ r_dag @ np.asarray(z, dtype=float)
    return symmetrize(info), ivec


def reference_likelihood_terms(batch):
    """(chol, w, v, rank, logdet) as the per-batch likelihood code built them."""
    if batch.transformed:
        w, v, rank = psd_eig(batch.R)
        return None, w, v, rank, float(np.sum(np.log(w)))
    c = np.linalg.cholesky(symmetrize(batch.R))
    return c, None, None, batch.R.shape[0], 2.0 * float(np.sum(np.log(np.diag(c))))


def reference_births(inp, cfg, state_dim, rng):
    batch = inp.batch
    h, r = batch.H, batch.R
    r_dag = pinv_psd(r) if batch.transformed else np.linalg.inv(r)
    info_pinv = pinv_psd(symmetrize(h.T @ r_dag @ h))
    c_pos = np.linalg.cholesky(symmetrize(
        bp_mod.BIRTH_COV_INFLATION * info_pinv[:2, :2]))
    clouds = []
    for z in batch.zs:
        x0 = info_pinv @ (h.T @ (r_dag @ z))
        particles = np.zeros((cfg.n_particles, state_dim))
        particles[:, :2] = x0[:2] + rng.standard_normal((cfg.n_particles, 2)) @ c_pos.T
        particles[:, 2:4] = bp_mod.VEL_PRIOR_STD * rng.standard_normal((cfg.n_particles, 2))
        clouds.append(particles)
    return clouds


# -- comparison helpers ----------------------------------------------------

def same(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_batch(got, want):
    assert (got.sensor_id, got.kind) == (want.sensor_id, want.kind)
    for name in ("zs", "H", "R"):
        assert same(getattr(got, name), getattr(want, name)), name


def assert_same_clutter(got, want):
    assert got.rate == want.rate
    assert got.region_volume == want.region_volume


def assert_same_factor(got: PayloadFactor, want: PayloadFactor):
    for name in PayloadFactor.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if name == "model":
            assert (a is None) == (b is None)
            if a is not None:
                assert same(a.H, b.H) and same(a.R, b.R)
        elif isinstance(b, (bool, int, float)):
            assert a == b and type(a) is type(b), name
        else:
            assert same(a, b), name


def random_models(rng, count, m=2, n=4):
    """[E, 0]-shaped models with well-conditioned E and random SPD R."""
    models = []
    for _ in range(count):
        e = np.eye(m) + 0.3 * rng.standard_normal((m, m))
        g = rng.standard_normal((m, m))
        r = g @ g.T + rng.uniform(0.1, 30.0) * np.eye(m)
        models.append(position_model(rng) if (m, n) == (2, 4) and rng.random() < 0.3 else
                      MeasurementModel(np.hstack([e, np.zeros((m, n - m))]), r))
    return models


def batches_of_every_kind(rng, n_meas=4):
    """One raw, type1, type2 and generic (singular Rt) batch per model."""
    out = []
    for model in random_models(rng, 3):
        zs = rng.standard_normal((n_meas, model.m)) * 30
        out.append(MeasurementBatch(0, zs, model.H, model.R, "raw"))
        tall = rng.standard_normal((model.m + 2, model.m))
        for kind, tr in (("type1", make_type1(model)), ("type2", make_type2(model)),
                         ("generic", make_generic(tall, model))):
            out.append(MeasurementBatch(0, tr.apply(zs), tr.Ht, tr.Rt, kind))
    return out


# -- stacked transformation cores ------------------------------------------

class TestStackedTransforms:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 7),
           m=st.integers(1, 3), extra=st.integers(0, 2))
    def test_stack_equals_per_model_and_reference(self, seed, count, m, extra):
        rng = np.random.default_rng(seed)
        models = random_models(rng, count, m, m + extra)
        H = np.stack([md.H for md in models])
        R = np.stack([md.R for md in models])
        for stack_fn, one, ref in ((type1_stack, make_type1, reference_type1),
                                   (type2_stack, make_type2, reference_type2)):
            a, ht, rt, sqrt_det = stack_fn(H, R)
            for k, model in enumerate(models):
                for tr in (one(model), ref(model)):
                    assert same(a[k], tr.A) and same(ht[k], tr.Ht) and same(rt[k], tr.Rt)
                    assert float(sqrt_det[k]) == tr.sqrt_det_ata

    def test_rank_deficient_type1_fails_as_the_reference(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 2))
        models = [MeasurementModel(b @ rng.standard_normal((2, 4)),
                                   np.diag(rng.uniform(1, 9, 3))) for _ in range(4)]
        for model in models:
            with pytest.raises(InputError, match="full column rank"):
                reference_type1(model)
        with pytest.raises(InputError, match="full column rank"):
            type1_stack(np.stack([md.H for md in models]),
                        np.stack([md.R for md in models]))

    def test_one_bad_slice_fails_the_stack(self):
        rng = np.random.default_rng(6)
        models = random_models(rng, 5)
        H = np.stack([md.H for md in models])
        R = np.stack([md.R for md in models])
        H[2, 0, 3] = 0.5
        with pytest.raises(InputError, match="E, 0"):
            type2_stack(H, R)
        H[2, 0, 3] = 0.0
        H[2, :, :2] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(InputError, match="singular"):
            type2_stack(H, R)


# -- payload factors -------------------------------------------------------

class TestPayloadFactors:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["raw", "type1", "type2", "generic"]),
           count=st.integers(1, 6))
    def test_stack_equals_one_model_at_a_time(self, seed, kind, count):
        rng = np.random.default_rng(seed)
        models = random_models(rng, count)
        if kind == "raw":
            pairs = [(md.H, md.R) for md in models]
        else:
            make = {"type1": make_type1, "type2": make_type2,
                    "generic": lambda md: make_generic(
                        rng.standard_normal((md.m + 2, md.m)), md)}[kind]
            trs = [make(md) for md in models]
            pairs = [(tr.Ht, tr.Rt) for tr in trs]
        stacked = payload_factors(np.stack([h for h, _ in pairs]),
                                  np.stack([r for _, r in pairs]), kind != "raw")
        for got, (h, r) in zip(stacked, pairs):
            assert_same_factor(got, payload_factors(h[None], r[None], kind != "raw")[0])
            assert (got.model is None) == (kind == "generic")

    def test_negative_eigenvalue_in_the_middle_raises(self):
        rts = np.stack([np.eye(2), 2 * np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
        hts = np.tile(np.hstack([np.eye(2), np.zeros((2, 2))]), (4, 1, 1))
        with pytest.raises(InputError, match="negative eigenvalue"):
            payload_factors(hts, rts, True)
        with pytest.raises(ConfigError, match="positive definite"):
            payload_factors(hts, rts, False)

    def test_singular_slice_takes_the_information_form_alone(self):
        # a stack of mixed ranks: each item keeps the top rank[k] eigenpairs
        # of its row, equal to those of its own matrices bit for bit
        q = np.linalg.qr(np.random.default_rng(8).standard_normal((2, 2)))[0]
        rts = symmetrize(q @ np.stack([np.diag([3.0, 7.0]), np.diag([0.0, 4.0]),
                                       np.diag([0.5, 2.0])]) @ q.T)
        hts = np.tile(np.hstack([np.eye(2), np.zeros((2, 2))]), (3, 1, 1))
        factors = payload_factors(hts, rts, True)
        assert [f.model is None for f in factors] == [False, True, False]
        assert [f.rank for f in factors] == [2, 1, 2]
        assert factors[1].back_cov is None and factors[0].back_cov is not None
        for f, r in zip(factors, rts):
            w, v, rank = psd_eig(r)
            assert same(f.w, w) and same(f.v, v) and f.v.flags.c_contiguous
            assert f.rank == rank and f.logdet == float(np.sum(np.log(w)))
            assert same(f.r_dag, pinv_psd(r)) and same(f.info_pinv, pinv_psd(f.htrh))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("transformed", [True, False])
    def test_non_finite_noise_covariance_raises(self, bad, transformed):
        # eigh and Cholesky may return factors of a non-finite R: an inf raw
        # R once passed, with an infinite Cholesky factor and log-determinant
        rts = np.stack([np.eye(2), np.array([[bad, 0.0], [0.0, 1.0]])])
        hts = np.tile(np.hstack([np.eye(2), np.zeros((2, 2))]), (2, 1, 1))
        with pytest.raises(NumericsError, match="not finite"):
            payload_factors(hts, rts, transformed)

    def test_batch_factor_is_lazy_and_kept(self):
        rng = np.random.default_rng(3)
        batch = batches_of_every_kind(rng)[0]
        assert batch._factor is None
        assert batch.factor is batch.factor


# -- consumers against their per-batch references --------------------------

class TestConsumers:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_every_consumer_matches_its_reference(self, seed):
        rng = np.random.default_rng(seed)
        for batch in batches_of_every_kind(rng):
            got = mda_mod._backprojected_positions(batch)
            want = reference_backprojection(batch)
            assert (got is None) == (want is None)
            if want is not None:
                assert same(got[0], want[0]) and same(got[1], want[1])

            f = batch.factor
            chol, w, v, rank, logdet = reference_likelihood_terms(batch)
            assert same(f.chol, chol) and same(f.w, w) and same(f.v, v)
            assert f.rank == rank and f.logdet == logdet

            view = SensorInput(batch, 0.9, ClutterModel(10.0, 1e6))
            lone = sensor_input(batch.H, batch.R, 0.9, ClutterModel(10.0, 1e6),
                                batch.transformed)
            meas = [batch.zs[0], None, batch.zs[1]]
            want_info = reference_information(meas, [view] * 3)
            for sv in (view, lone):
                info = mda_mod._stacked_information(meas, [sv] * 3)
                assert same(info[0], want_info[0]) and same(info[1], want_info[1])

            cfg = bp_mod.BpConfig(n_particles=20)
            inp = SensorInput(batch, 0.9, ClutterModel(10.0, 1e6))
            births = scan_buffer(cfg.n_particles, batch.n_meas)
            clouds = bp_mod.propose_births(inp, cfg, births.particles,
                                           np.random.default_rng(seed))
            want = reference_births(inp, cfg, 4, np.random.default_rng(seed))
            assert len(clouds) == len(want)
            assert all(same(c, w) for c, w in zip(clouds, want))


# -- the payload noise likelihood ------------------------------------------

class TestNoiseLikelihood:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), g=st.integers(1, 4),
           n_pred=st.integers(1, 8), per_row=st.booleans())
    def test_loglik_equals_the_likelihood_functions(self, seed, g, n_pred, per_row):
        # BP's (G, Np) evaluation and MDA's single residual, against the
        # Gaussian (raw) and generalized (transformed) log-densities
        rng = np.random.default_rng(seed)
        for batch in batches_of_every_kind(rng, g):
            f = batch.factor
            loglik = (generalized_log_likelihood if batch.transformed
                      else gaussian_log_likelihood)
            # predictions H x keep a generic payload's residuals in range(R)
            x = rng.standard_normal((g if per_row else 1, n_pred, batch.H.shape[1])) * 30
            z_pred = (x @ batch.H.T).transpose(2, 0, 1)
            got = f.loglik(batch.zs, z_pred if per_row else z_pred[:, 0])
            assert got.shape == (g, n_pred)
            for k, z in enumerate(batch.zs):
                for p in range(n_pred):
                    zp = z_pred[:, k if per_row else 0, p]
                    want = loglik(z, zp, batch.R)
                    single = f.loglik(z[None], zp[:, None])
                    assert single.shape == (1, 1)
                    np.testing.assert_allclose([got[k, p], single[0, 0]], want,
                                               rtol=1e-9, atol=0)


# -- the tape pass ---------------------------------------------------------

@pytest.mark.parametrize("make_cfg, seed", [(scenario1, 11), (scenario2, 12)])
def test_tape_pass_equals_per_scan_encoding(make_cfg, seed):
    cfg = make_cfg()
    tapes, sends = prepare_run(cfg, seed)
    for payload in ("raw", "type1", "type2"):
        encoded = list(encode_tape(cfg, tapes, sends, payload))
        assert len(encoded) == cfg.duration
        for scan_list, send_list, pairs in zip(tapes["scans"], sends, encoded):
            assert len(pairs) == len(scan_list)
            for scan_data, sent, (batch, clutter) in zip(scan_list, send_list, pairs):
                rate = cfg.sensors[scan_data.sensor_id].clutter_rate
                one_batch, one_clutter = encode_batch(scan_data, sent, payload, rate)
                ref_batch, ref_clutter = reference_encode(scan_data, sent, payload, rate)
                for b, c in ((one_batch, one_clutter), (ref_batch, ref_clutter)):
                    assert_same_batch(batch, b)
                    assert_same_clutter(clutter, c)
                assert_same_factor(batch.factor, one_batch.factor)


def test_negative_transformed_eigenvalue_mid_tape_raises():
    cfg = scenario1()
    cfg.duration = 60
    tapes, sends = prepare_run(cfg, 4)
    # valid when the tape was made, broken before fusion
    tapes["scans"][29][1].model.R = np.diag([25.0, -1.0])
    with pytest.raises(InputError, match="negative eigenvalue"):
        run_mda_fusion(cfg, tapes, sends, "type2")
    with pytest.raises(InputError, match="negative eigenvalue"):
        run_bp_fusion(cfg, tapes, sends, "type2", 4, bp_mod.BpConfig(n_particles=50))
    with pytest.raises(ConfigError, match="positive definite"):
        run_mda_fusion(cfg, tapes, sends, "raw")
