"""Tests of the benchmark's own checks and tracing.

Each check must pass on real program output and reject a perturbed copy:
one OSPA value moved by 1e-6, one extra track in a send list, a
maintenance selection replaced by a worse feasible one. The traced run
must leave curves and bytes identical to an untraced one.

    PYTHONPATH=src python -m pytest -q bench
"""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trackfuse import linalg, mda, metrics, sim

import checks
import clock
import inputs
import layers
import workload

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def setup():
    return inputs.build_setup("s1-mda-c40")


@pytest.fixture(scope="module")
def tape(setup):
    """(tapes, sends) of the tape the operations below run on."""
    return sim.prepare_run(setup.cfg, 3)


@pytest.fixture(scope="module")
def operation(setup):
    return workload.run_operation(setup, tape_seed=3, seed=0)


@pytest.fixture(scope="module")
def traced(setup):
    tracer = layers.LayerTrace()
    tracer.install()
    try:
        op = workload.run_operation(setup, tape_seed=3, seed=0)
    finally:
        tracer.uninstall()
    return op, tracer


def test_real_operation_passes_output_checks(operation):
    assert operation.failures == []


def test_equivalence_rejects_ospa_moved_by_1e_6(operation):
    records = dict(operation.records)
    moved = records["type2"].ospa.copy()
    moved[40] += 1e-6
    records["type2"] = dataclasses.replace(records["type2"], ospa=moved)
    assert any("ospa" in f for f in checks.check_equivalence(records))


def test_bytes_rejects_one_extra_track_in_a_send_list(operation, tape):
    _, sent = tape
    scan = next(k for k, s in enumerate(sent) if s[0])
    sends = copy.deepcopy(sent)
    sends[scan][0].append(max(sends[scan][0]) + 1)
    assert checks.check_bytes(operation.records, sent, 2, 4) == []
    failures = checks.check_bytes(operation.records, sends, 2, 4)
    assert len(failures) == len(operation.records)


def test_payload_scalars_are_the_papers_counts():
    assert [checks.payload_scalars(k, 2, 4) for k in ("raw", "type1", "type2")] == [13, 10, 5]


def test_ospa_baseline_rejects_an_arm_no_better_than_reporting_nothing(operation, tape):
    truth = tape[0]["truth"]
    duration = len(tape[1])
    baseline = checks.no_report_ospa(truth, duration, 50.0)
    assert 0.0 < baseline <= 50.0
    records = dict(operation.records)
    records["raw"] = dataclasses.replace(records["raw"], ospa=np.full(duration, baseline))
    failures = checks.check_ospa_baseline(records, truth, duration, 50.0)
    assert len(failures) == 1 and "raw" in failures[0]


def test_tracing_leaves_curves_and_bytes_identical(operation, traced, tape):
    op, tracer = traced
    assert workload.same_outputs(operation, op) == []
    assert tracer.seconds["mda.pipeline_step"] > tracer.self_seconds("mda.pipeline_step") > 0
    assert tracer.counts["sim.tracks_sent"] == sum(len(s) for scan in tape[1] for s in scan)
    assert tracer.counts["linalg.psd_eig_calls"] > 0


def test_uninstall_restores_every_replaced_function(traced):
    assert mda.psd_eig is linalg.psd_eig
    assert sim.ospa is metrics.ospa
    assert "wrapper" not in mda.mda_pipeline_step.__qualname__
    assert "wrapper" not in sim.GnnTracker.step.__qualname__


def test_solver_checks_pass_on_captured_steps(traced):
    _, tracer = traced
    steps = tracer.mda_steps
    assert len(steps) == 3 * 100
    assert checks.check_mda_steps(steps, tracer.relaxed_gaps) == []


def test_maintenance_check_rejects_a_worse_feasible_selection(traced):
    _, tracer = traced
    step = next(s for s in tracer.mda_steps
                if s["maintenance_inputs"] and any(any(a[1:]) for a in s["maintenance"]))
    worse = [(a[0],) + (0,) * (len(a) - 1) if any(a[1:]) else a
             for a in step["maintenance"]]
    n_tracks = len(step["maintenance_inputs"][0])
    assert checks.check_feasible(worse, step["initiation"], n_tracks,
                                 step["meas_counts"]) == []
    failures = checks.check_maintenance_optimal(worse, *step["maintenance_inputs"])
    assert any("optimum" in f for f in failures)


def test_feasibility_rejects_a_measurement_used_twice():
    maintenance = [(1, 2, 0), (2, 2, 1)]
    failures = checks.check_feasible(maintenance, [], 2, [3, 3])
    assert failures == ["measurement (0, 2) used twice"]


def test_relaxation_gap_above_limit_is_rejected():
    assert checks.check_mda_steps([], [0.01, 0.2]) == ["relaxation gap 0.2000 exceeds 0.05"]


def test_bp_trace_compare_rejects_a_perturbed_weight():
    rng = np.random.default_rng(0)
    step = {"sensor": 0, "beta": rng.random((3, 4)), "xi": rng.random((3, 4)),
            "kappa": rng.random((3, 4)), "iota": rng.random((3, 4)),
            "r_prob": rng.random(6), "weights": [rng.random(5) for _ in range(6)]}
    same = checks.BpTraceMatch()
    same[10] = [step]
    same[10] = [copy.deepcopy(step)]
    assert same.failures == [] and same.compared == 1 and len(same) == 0
    perturbed = copy.deepcopy(step)
    perturbed["weights"][2][1] *= 1 + 1e-8
    other = checks.BpTraceMatch()
    other[10] = [perturbed]
    other[10] = [step]
    assert other.compared == 1 and "weights" in other.failures[0]


def _third_party_modules(code: str):
    """Modules outside the standard library that `code` leaves loaded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(BENCH.parent / "src"), str(BENCH)]))
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys\nprint(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return {name for name in out.split()
            if name.split(".")[0] not in sys.stdlib_module_names}


def test_benchmark_loads_no_module_the_program_does_not():
    # The set-up probe must time the program's imports alone, and the
    # untraced workload process must not add to the program's memory: if
    # the program stops importing scipy.stats, so must the benchmark.
    program = _third_party_modules("from trackfuse import bp, mda, metrics, sim")
    probe = _third_party_modules("import inputs\ninputs.build_setup('s2-bp')")
    process = _third_party_modules("import workload")
    assert probe - program == {"inputs"}
    assert process - program <= {"inputs", "workload", "checks", "layers", "turns",
                                 "clock"}


def test_speed_clock_scales_gaps_and_leaves_out_ticks():
    c = clock.SpeedClock()
    # Ticks at 0, 1, 2 and 3 s; the first two take 2 units' time (half
    # speed), the last two one unit's.
    unit = clock.REF_UNIT_S
    c._starts = [0.0, 1.0, 2.0, 3.0]
    c._durs = [2 * unit, 2 * unit, unit, unit]
    first_gap = 1.0 - 2 * unit
    # The median of the ticks around the first gap is 2 units: half speed.
    assert c.seconds(2 * unit, 1.0) == pytest.approx(first_gap / 2)
    # Over a tick the scaled time stands still.
    assert c.seconds(1.0, 1.0 + 2 * unit) == pytest.approx(0.0, abs=1e-12)
    # Around the last gap the median is 1 unit: wall time.
    assert c.seconds(2.5, 2.9) == pytest.approx(0.4)
    assert clock.SpeedClock(scaled=False).seconds(1.0, 3.5) == 2.5
