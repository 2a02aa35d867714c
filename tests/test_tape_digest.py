"""tools/tape_digest.py: one digest per tape, sensitive to tracker state."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from trackfuse import sim

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("tape_digest", ROOT / "tools" / "tape_digest.py")
tape_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tape_digest)

CFG = sim.scenario1().with_overrides(clutter_rate=40.0)


def test_command_prints_the_digest_of_each_tape():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "tape_digest.py"), "--checkout", str(ROOT),
         "--workload", "s1-mda-c40", "--seeds", "0", "1"],
        capture_output=True, text=True, check=True).stdout.split()
    assert out[0::2] == ["0", "1"]
    assert out[1::2] == [tape_digest.tape_digest(sim, CFG, 0),
                         tape_digest.tape_digest(sim, CFG, 1)]
    assert out[1] != out[3] and len(out[1]) == 64


def test_digest_changes_with_one_final_track_state(monkeypatch):
    plain = tape_digest.tape_digest(sim, CFG, 0)
    step = sim.GnnTracker.step

    def late_clock(self, scan_data):
        # moves the timestamps of sensor 1's tracks, which neither the
        # filtering nor the sends read
        sent = step(self, scan_data)
        if scan_data.sensor_id == 1:
            self.timestamps += 1
        return sent

    monkeypatch.setattr(sim.GnnTracker, "step", late_clock)
    assert tape_digest.tape_digest(sim, CFG, 0) != plain
    monkeypatch.undo()
    assert tape_digest.tape_digest(sim, CFG, 0) == plain


def _setup(name):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from inputs import build_setup
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return build_setup(name)


def test_curves_command_prints_one_digest_per_tape_and_arm():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "tape_digest.py"), "--checkout", str(ROOT),
         "--workload", "s1-mda-c40", "--seeds", "0", "--curves"],
        capture_output=True, text=True, check=True).stdout.split()
    assert out[0::3] == ["0"] * 3
    assert out[1::3] == ["raw", "type1", "type2"]
    digests = tape_digest.curve_digests(sim, _setup("s1-mda-c40"), 0)
    assert out[2::3] == [digests[arm] for arm in ("raw", "type1", "type2")]
    assert len(set(out[2::3])) == 3


def test_curve_digest_changes_with_one_ospa_value(monkeypatch):
    setup = _setup("s1-mda-c40")
    plain = tape_digest.curve_digests(sim, setup, 1)
    ospa = sim.ospa
    calls = []

    def nudged(*args):
        calls.append(1)
        value = ospa(*args)
        return value + 1e-12 if len(calls) == 150 else value

    monkeypatch.setattr(sim, "ospa", nudged)
    moved = tape_digest.curve_digests(sim, setup, 1)
    # the arms run in order, 100 scans each: call 150 is scan 50 of type1
    assert [moved[a] == plain[a] for a in ("raw", "type1", "type2")] == [True, False, True]


def _small_bp_setup():
    """Scenario 1 fused by BP at 20 particles: a BP workload that runs in
    about a second per arm."""
    from types import SimpleNamespace
    from trackfuse import bp, mda, metrics
    wl = SimpleNamespace(fusion="bp", arms=("raw", "type2"))
    return SimpleNamespace(wl=wl, cfg=sim.scenario1(), mda_cfg=mda.MdaConfig(),
                           bp_cfg=bp.BpConfig(n_particles=20),
                           ospa_params=metrics.OspaParams())


def test_bp_trace_digest_hashes_every_traced_scan(monkeypatch):
    setup = _small_bp_setup()
    both = tape_digest.curve_digests(sim, setup, 0, bp_traces=True)
    assert {arm: d[0] for arm, d in both.items()} == tape_digest.curve_digests(
        sim, setup, 0)
    assert both["raw"][1] != both["type2"][1]
    # the digest of the raw arm's traces, kept whole and hashed afterwards
    tapes, sends = sim.prepare_run(setup.cfg, 0)
    kept = {}
    sim.run_bp_fusion(setup.cfg, tapes, sends, "raw", 0, setup.bp_cfg,
                      setup.ospa_params, kept)
    hasher = tape_digest.TraceHasher()
    for scan, trace in kept.items():
        hasher[scan] = trace
    assert hasher.hexdigest() == both["raw"][1]
    # one ulp in one weight of one step changes it
    step = kept[50][1]
    step["weights"][0] = step["weights"][0].copy()
    step["weights"][0][3] = np.nextafter(step["weights"][0][3], 1.0)
    moved = tape_digest.TraceHasher()
    for scan, trace in kept.items():
        moved[scan] = trace
    assert moved.hexdigest() != hasher.hexdigest()

    # the command prints the seed, the arm and the digests asked for
    monkeypatch.setattr(tape_digest, "_load", lambda checkout: (sim, lambda name: setup))
    lines = []
    monkeypatch.setattr("builtins.print", lambda *args, **kw: lines.append(args))
    tape_digest.main(["--checkout", str(ROOT), "--workload", "small", "--seeds", "0",
                      "--bp-traces"])
    tape_digest.main(["--checkout", str(ROOT), "--workload", "small", "--seeds", "0",
                      "--curves", "--bp-traces"])
    assert lines == [(0, arm, both[arm][1]) for arm in ("raw", "type2")] + [
        (0, arm, f"{both[arm][0]} {both[arm][1]}") for arm in ("raw", "type2")]


def test_bp_traces_refused_for_an_mda_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "tape_digest.py"), "--checkout", str(ROOT),
         "--workload", "s1-mda-c40", "--seeds", "0", "--bp-traces"],
        capture_output=True, text=True)
    assert proc.returncode != 0 and "--bp-traces needs a BP workload" in proc.stderr


def test_mda_steps_command_prints_one_digest_per_tape_and_arm():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "tape_digest.py"), "--checkout", str(ROOT),
         "--workload", "s1-mda-c40", "--seeds", "0", "--mda-steps"],
        capture_output=True, text=True, check=True).stdout.split()
    assert out[0::3] == ["0"] * 3
    assert out[1::3] == ["raw", "type1", "type2"]
    digests = tape_digest.mda_step_digests(sim, _setup("s1-mda-c40"), 0)
    assert out[2::3] == [digests[arm] for arm in ("raw", "type1", "type2")]
    assert len(set(out[2::3])) == 3


def test_mda_steps_with_curves_prints_both_digests_from_one_pass(monkeypatch):
    # --curves was once dropped silently when --mda-steps was given
    setup = _setup("s1-mda-c40")
    curves = tape_digest.curve_digests(sim, setup, 0)
    steps = tape_digest.mda_step_digests(sim, setup, 0)
    run, fused = sim.run_mda_fusion, []

    def counted(*args, **kwargs):
        fused.append(args[3])
        return run(*args, **kwargs)

    monkeypatch.setattr(sim, "run_mda_fusion", counted)
    monkeypatch.setattr(tape_digest, "_load", lambda checkout: (sim, _setup))
    lines = []
    monkeypatch.setattr("builtins.print", lambda *args, **kw: lines.append(args))
    tape_digest.main(["--checkout", str(ROOT), "--workload", "s1-mda-c40", "--seeds", "0",
                      "--mda-steps", "--curves"])
    arms = ["raw", "type1", "type2"]
    assert lines == [(0, arm, f"{curves[arm]} {steps[arm]}") for arm in arms]
    assert fused == arms


def test_mda_step_digest_changes_with_one_track_value(monkeypatch):
    from trackfuse import mda
    setup = _setup("s1-mda-c40")
    plain = tape_digest.mda_step_digests(sim, setup, 2)
    step, calls = mda.mda_pipeline_step, []

    def nudged(*args, **kwargs):
        # one ulp in one covariance entry, returned at scan 60 of type1 only
        tracks, next_label, info = step(*args, **kwargs)
        calls.append(1)
        if len(calls) == 160:
            assert len(tracks)
            tracks = tracks[np.arange(len(tracks))]
            tracks.covs[0, 3, 3] = np.nextafter(tracks.covs[0, 3, 3], np.inf)
        return tracks, next_label, info

    monkeypatch.setattr(mda, "mda_pipeline_step", nudged)
    moved = tape_digest.mda_step_digests(sim, setup, 2)
    assert [moved[a] == plain[a] for a in ("raw", "type1", "type2")] == [True, False, True]


def test_track_rows_read_a_list_of_tracks_as_the_arrays():
    from types import SimpleNamespace
    from trackfuse import mda
    from trackfuse.models import GaussianEstimate
    rng = np.random.default_rng(3)
    tracks = mda.FusedTracks(rng.standard_normal((3, 4)), rng.standard_normal((3, 4, 4)),
                             np.array([4, 5, 6]), np.array([7, 1, 9]), np.array([2, 5, 3]),
                             np.array([0, 1, 2]), np.array([False, True, True]))
    listed = [SimpleNamespace(label=label, hits=hits, misses=misses, confirmed=conf,
                              est=GaussianEstimate._trusted(mean, cov, stamp))
              for label, stamp, hits, misses, conf, mean, cov in zip(
                  [7, 1, 9], [4, 5, 6], [2, 5, 3], [0, 1, 2], [False, True, True],
                  tracks.means, tracks.covs)]
    rows, list_rows = tape_digest._track_rows(tracks), tape_digest._track_rows(listed)
    assert len(rows) == len(list_rows) == 3
    for row, list_row in zip(rows, list_rows):
        assert row[:5] == list_row[:5]
        assert np.array_equal(row[5], list_row[5]) and np.array_equal(row[6], list_row[6])


def test_mda_steps_refused_for_a_bp_workload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "tape_digest.py"), "--checkout", str(ROOT),
         "--workload", "s2-bp", "--seeds", "0", "--mda-steps"],
        capture_output=True, text=True)
    assert proc.returncode != 0 and "--mda-steps needs an MDA workload" in proc.stderr


def test_clutter_rate_overrides_the_workload_scenario_in_every_mode(monkeypatch):
    # the tape digest is that of the scenario at the given clutter rate
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends the checkout
    lines = []
    monkeypatch.setattr("builtins.print", lambda *args, **kw: lines.append(args))
    tape_digest.main(["--checkout", str(ROOT), "--workload", "s1-mda-c40", "--seeds", "0",
                      "--clutter-rate", "10"])
    ten = sim.scenario1().with_overrides(clutter_rate=10.0)
    assert lines == [(0, tape_digest.tape_digest(sim, ten, 0))]
    assert lines[0][1] != tape_digest.tape_digest(sim, CFG, 0)
    # the fusion modes get the same scenario
    rates = []

    def recorded(sim_, setup, seed, *args):
        rates.append(sorted({s.clutter_rate for s in setup.cfg.sensors}))
        return {}

    monkeypatch.setattr(tape_digest, "curve_digests", recorded)
    monkeypatch.setattr(tape_digest, "mda_step_digests", recorded)
    for mode in ("--curves", "--mda-steps", "--bp-traces"):
        tape_digest.main(["--checkout", str(ROOT), "--workload", "s2-mda", "--seeds", "0",
                          mode, "--clutter-rate", "40"])
    tape_digest.main(["--checkout", str(ROOT), "--workload", "s2-mda", "--seeds", "0",
                      "--curves"])
    assert rates == [[40.0]] * 3 + [sorted({s.clutter_rate
                                            for s in sim.scenario2().sensors})]
