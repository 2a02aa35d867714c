"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines including measured residuals and runtimes.
"""

import time

import numpy as np

from conftest import paired_views, random_track
from trackfuse import bp as bp_mod
from trackfuse import checks, cli
from trackfuse import mda as mda_mod
from trackfuse import sim as sim_mod
from trackfuse.metrics import comm_bytes


def _criterion(num, desc, ok, detail="", elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.2f}s / {budget:.0f}s budget]"
    print(f"\n[criterion {num:2d}] {status}: {desc}{timing} {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _battery(results):
    """Whether every result of a `checks` battery passed, and their details."""
    return (all(ok for _, ok, _ in results),
            "; ".join(f"{name}: {detail}" for name, _, detail in results))


def test_criterion_01_comm_table_exact():
    comm_bytes("raw", 2, 4, 100)  # warm up import paths before timing
    t0 = time.perf_counter()
    got = {kind: comm_bytes(kind, 2, 4, 100) for kind in checks.BYTE_TABLE}
    elapsed = time.perf_counter() - t0
    _criterion(1, "byte table m=2 n=4 N=100 exact", got == checks.BYTE_TABLE
               and elapsed < 1e-3, f"{got}", elapsed, 1e-3)


def test_criterion_02_identity_suite():
    t0 = time.perf_counter()
    ok, detail = _battery(checks.check_lemmas(1234))
    elapsed = time.perf_counter() - t0
    _criterion(2, "matrix identities on 200 instances each",
               ok and elapsed < 5.0, detail, elapsed, 5.0)


def test_criterion_03_score_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    kinds = ("type1", "type2", "generic")
    worst_prior = 0.0
    worst_noprior = 0.0
    for trial in range(1000):
        kind = kinds[trial % 3]
        views_raw, views_tr, trs = paired_views(rng, 2, kind)
        est = random_track(rng)
        meas, meas_t = [], []
        for v, tr in zip(views_raw, trs):
            if rng.random() < 0.85:
                z = v.H @ est.mean + 5 * rng.standard_normal(2)
                meas.append(z)
                meas_t.append(tr.A @ z)
            else:
                meas.append(None)
                meas_t.append(None)
        s_raw = mda_mod.score_with_prior(est, meas, views_raw)
        s_tr = mda_mod.score_with_prior(est, meas_t, views_tr)
        worst_prior = max(worst_prior, abs(s_raw.log_score - s_tr.log_score))

        x_true = rng.standard_normal(4) * 50
        meas2 = [v.H @ x_true + rng.standard_normal(2) for v in views_raw]
        meas2_t = [tr.A @ z for tr, z in zip(trs, meas2)]
        w_raw = mda_mod.score_without_prior(meas2, views_raw)
        w_tr = mda_mod.score_without_prior(meas2_t, views_tr)
        worst_noprior = max(worst_noprior,
                            abs(w_raw.log_score - w_tr.log_score))
    elapsed = time.perf_counter() - t0
    ok = worst_prior <= 1e-8 and worst_noprior <= 1e-8 and elapsed < 5.0
    _criterion(3, "score equivalence, 1000 draws with and without prior", ok,
               f"worst |dlog| prior={worst_prior:.2e} "
               f"no-prior={worst_noprior:.2e}", elapsed, 5.0)


def _synthetic_scenario2_beliefs(cfg, truth, scan, n_particles, seed):
    rng = sim_mod.rng_stream(seed, "accept-beliefs")
    particles, labels = [], []
    for i, traj in enumerate(truth):
        if scan not in traj:
            continue
        particles.append(traj[scan] + rng.standard_normal((n_particles, 4))
                         * np.array([5.0, 5.0, 1.0, 1.0]))
        labels.append(("t", i))
    n = len(labels)
    return bp_mod.Beliefs(np.array(particles).reshape(n, n_particles, 4),
                          np.full((n, n_particles), 0.9 / n_particles),
                          np.full(n, 0.9), np.zeros(n, dtype=int), labels)


def _copy_beliefs(beliefs):
    return bp_mod.Beliefs(beliefs.particles.copy(), beliefs.weights.copy(),
                          beliefs.r.copy(), beliefs.missed.copy(), beliefs.labels)


def _compare_traces(tr_a, tr_b, rtol):
    assert len(tr_a) == len(tr_b)
    for step_a, step_b in zip(tr_a, tr_b):
        for key in ("beta", "xi", "kappa", "iota", "r_prob"):
            np.testing.assert_allclose(step_a[key], step_b[key], rtol=rtol,
                                       atol=1e-300, err_msg=key)
        assert len(step_a["weights"]) == len(step_b["weights"])
        for w_a, w_b in zip(step_a["weights"], step_b["weights"]):
            np.testing.assert_allclose(w_a, w_b, rtol=rtol, atol=1e-300,
                                       err_msg="weights")


def test_criterion_04_bp_single_scan_equivalence():
    t0 = time.perf_counter()
    cfg = sim_mod.scenario2()
    seed = 2024
    scan = 50
    truth = sim_mod.generate_truth(cfg, seed)
    scan_list = sim_mod.generate_measurements(truth, cfg, scan, seed)
    sends = [list(range(s.n_meas)) for s in scan_list]
    motion = sim_mod.motion_model(cfg)
    bp_cfg = bp_mod.BpConfig(n_particles=500)
    base = _synthetic_scenario2_beliefs(cfg, truth, scan, 500, seed)
    traces = {}
    for payload in ("raw", "type2"):
        pairs = next(sim_mod.encode_tape(cfg, {"scans": [scan_list]}, [sends], payload))
        inputs = sim_mod.bp_inputs(cfg, scan_list, pairs)
        trace = []
        bp_mod.bp_pipeline_step(_copy_beliefs(base), inputs, motion, bp_cfg,
                                sim_mod.bp_rng_factory(seed, scan), scan,
                                trace)
        traces[payload] = trace
    n_meas = sum(s.n_meas for s in scan_list)
    _compare_traces(traces["raw"], traces["type2"], rtol=1e-9)
    elapsed = time.perf_counter() - t0
    _criterion(4, "one full 10-sensor BP scan, raw vs transformed",
               elapsed < 30.0,
               f"{len(base)} targets, {n_meas} measurements; all messages, "
               "weights and existence probabilities within 1e-9 relative",
               elapsed, 30.0)


def test_criterion_05_assignment_oracle():
    t0 = time.perf_counter()
    ok, detail = _battery(checks.check_solvers(11))
    elapsed = time.perf_counter() - t0
    _criterion(5, "assignment: exact = enumeration, relaxed within 5%",
               ok and elapsed < 60.0, detail, elapsed, 60.0)


def test_criterion_06_bp_tree_exactness():
    ok, detail = _battery(checks.check_bp_exactness(99))
    _criterion(6, "BP tree instances match enumeration", ok,
               f"{detail} over 50 instances")


def test_criterion_07_scenario1_scaled():
    t0 = time.perf_counter()
    base = sim_mod.scenario1()
    runs = 10

    res = sim_mod.monte_carlo(base, "mda", ["raw", "type1", "type2"],
                              runs=runs, base_seed=0)
    worst_curve = max(float(np.max(np.abs(r1.ospa - r2.ospa)))
                      for r1, r2 in zip(res["raw"], res["type2"]))
    equal_ok = worst_curve <= 1e-8

    mean_clutter = {}
    for rate in (10.0, 40.0):
        if rate == 10.0:
            records = res["raw"]
        else:
            records = sim_mod.monte_carlo(base.with_overrides(
                clutter_rate=rate), "mda", ["raw"], runs=runs,
                base_seed=0)["raw"]
        mean_clutter[rate] = float(np.mean([r.mean_ospa for r in records]))
    mean_pd = {}
    for p_d in (0.7, 0.99):
        records = sim_mod.monte_carlo(base.with_overrides(p_d=p_d), "mda",
                                      ["raw"], runs=runs, base_seed=0)["raw"]
        mean_pd[p_d] = float(np.mean([r.mean_ospa for r in records]))
    trend_ok = (mean_clutter[40.0] >= mean_clutter[10.0]
                and mean_pd[0.7] >= mean_pd[0.99])

    comm = {p: float(np.mean([r.mean_comm_bytes for r in res[p]]))
            for p in ("raw", "type1", "type2")}
    comm_ok = comm["raw"] > comm["type1"] > comm["type2"]

    elapsed = time.perf_counter() - t0
    ok = equal_ok and trend_ok and comm_ok and elapsed < 300.0
    _criterion(7, "scaled scenario 1 (MDA, 10 runs)", ok,
               f"worst |dOSPA|={worst_curve:.2e}; "
               f"OSPA clutter 10->40: {mean_clutter[10.0]:.2f}->"
               f"{mean_clutter[40.0]:.2f}; P_d 0.7->0.99: "
               f"{mean_pd[0.7]:.2f}->{mean_pd[0.99]:.2f}; comm raw/type1/"
               f"type2 = {comm['raw']:.1f}/{comm['type1']:.1f}/"
               f"{comm['type2']:.1f} B", elapsed, 300.0)


def test_criterion_08_scenario2_scaled():
    t0 = time.perf_counter()
    cfg = sim_mod.scenario2()
    motion = sim_mod.motion_model(cfg)
    bp_cfg = bp_mod.BpConfig(n_particles=500)
    runs_hitting_ten = 0
    for run in range(3):
        seed = 100 + run
        tapes, sends = sim_mod.prepare_run(cfg, seed)
        beliefs = {p: bp_mod.Beliefs.empty(500, 4) for p in ("raw", "type2")}
        encoded = {p: sim_mod.encode_tape(cfg, tapes, sends, p) for p in beliefs}
        reached_ten = False
        for scan in range(1, cfg.duration + 1):
            traces = {}
            cards = {}
            for payload in ("raw", "type2"):
                inputs = sim_mod.bp_inputs(
                    cfg, tapes["scans"][scan - 1], next(encoded[payload]))
                trace = []
                beliefs[payload], estimates = bp_mod.bp_pipeline_step(
                    beliefs[payload], inputs, motion, bp_cfg,
                    sim_mod.bp_rng_factory(seed, scan), scan, trace)
                traces[payload] = trace
                cards[payload] = len(estimates)
            _compare_traces(traces["raw"], traces["type2"], rtol=1e-9)
            assert cards["raw"] == cards["type2"]
            labels_raw = beliefs["raw"].labels
            labels_tr = beliefs["type2"].labels
            assert labels_raw == labels_tr
            r_raw = beliefs["raw"].r
            r_tr = beliefs["type2"].r
            np.testing.assert_allclose(r_raw, r_tr, rtol=1e-9, atol=1e-300)
            if 45 <= scan <= 75 and cards["raw"] >= 10:
                reached_ten = True
        runs_hitting_ten += int(reached_ten)
    elapsed = time.perf_counter() - t0
    ok = runs_hitting_ten >= 2 and elapsed < 1200.0
    _criterion(8, "scaled scenario 2 (BP, 3 runs, Np=500)", ok,
               f"cardinality reached 10 in {runs_hitting_ten}/3 runs; "
               "per-scan raw/transformed equivalence held at 1e-9",
               elapsed, 1200.0)


def test_criterion_09_ospa_axioms():
    ok, detail = _battery(checks.check_metrics(2))
    _criterion(9, "OSPA metric axioms on 500 random triples", ok, detail)


def test_criterion_10_determinism(tmp_path):
    argv = ["run", "--scenario", "scenario1", "--fusion", "mda",
            "--payload", "raw,type2", "--runs", "1", "--seed", "31"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    identical = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("curves.csv", "comm.csv", "summary.txt"))
    _criterion(10, "byte-identical outputs on repeated runs", identical,
               "curves.csv, comm.csv, summary.txt compared")
