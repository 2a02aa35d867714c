"""One workload process: timed Monte Carlo runs and their output checks.

    python3 bench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 [--input-seed N]

`run.py` starts this with `src` on PYTHONPATH. The process builds the
workload's set-up (`inputs.py`), runs whole rounds of operations until
`--seconds` have passed, and prints one JSON line with its results last.

An operation is one Monte Carlo run: `sim.prepare_run` builds the
measurement tape, then `sim.run_mda_fusion` or `sim.run_bp_fusion` fuses it
once per payload arm. A round is the workload's fixed list of tape seeds,
so every round repeats the same operations on the same inputs. Of each
operation the process keeps its timings; of the first operation on each
tape it also keeps the curves, for the repeat check and the quality
metrics. Nothing else outlives the operation, so the peak memory does not
grow with the number of rounds.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from trackfuse import bp, mda, sim

import checks
import layers
from inputs import Setup, build_setup, input_seed, tape_seeds, WORKLOADS
from clock import SpeedClock
from turns import TakeTurns

CURVES = ("ospa", "ospa2", "card_est", "card_true", "comm_bytes")


@dataclass(frozen=True)
class Timing:
    mc_run_s: float
    fusion_s: dict
    step_s: list


@dataclass
class Operation:
    tape_seed: int
    records: dict
    timing: Timing
    failures: list = field(default_factory=list)


def run_operation(setup: Setup, tape_seed: int, seed: int,
                  compare_bp_traces: bool = False,
                  clock: Optional[SpeedClock] = None) -> Operation:
    """One Monte Carlo run over every payload arm, then its output checks.

    The arms take turns (see `turns`); `fusion_s[arm]` is the time the arm
    held the turn. Times are converted by `clock` (see `clock`), plain wall
    time without one. With `compare_bp_traces` the per-sensor BP traces of
    the two arms are compared scan by scan.
    """
    wl, cfg = setup.wl, setup.cfg
    clock = clock or SpeedClock(scaled=False)
    match = checks.BpTraceMatch() if compare_bp_traces else None

    def fuse(arm):
        if wl.fusion == "mda":
            return sim.run_mda_fusion(cfg, tapes, sends, arm, setup.mda_cfg,
                                      setup.ospa_params)
        return sim.run_bp_fusion(cfg, tapes, sends, arm, seed, setup.bp_cfg,
                                 setup.ospa_params,
                                 trace_scans=match)

    turns = TakeTurns(wl.arms, clock)
    step = (mda, "mda_pipeline_step") if wl.fusion == "mda" else (bp, "bp_pipeline_step")
    clock.tick()
    t0 = time.perf_counter()
    with clock.before_each(sim, "generate_measurements"):
        tapes, sends = sim.prepare_run(cfg, tape_seed)
    with turns.at_each(*step):
        records = turns.run({arm: (lambda arm=arm: fuse(arm)) for arm in wl.arms})
    t1 = time.perf_counter()
    clock.tick()
    steps = np.array(turns.steps)
    timing = Timing(float(clock.seconds(t0, t1)),
                    {arm: float(np.sum(clock.seconds(*np.array(held).T)))
                     for arm, held in turns.held.items()},
                    list(clock.seconds(steps[:, 0], steps[:, 1])))
    clock.reset()
    op = Operation(tape_seed, records, timing)
    if match is not None:
        op.failures += match.failures
        if match.compared != cfg.duration:
            op.failures.append(f"BP traces compared on {match.compared} scans")
    model = tapes["scans"][0][0].model
    op.failures += checks.check_outputs(records, tapes, sends, cfg.duration,
                                        setup.ospa_params.c, model.m, model.n)
    return op


def same_outputs(a: Operation, b: Operation):
    """Failures unless two operations on one tape gave identical curves."""
    return [f"tape {a.tape_seed} {arm}: {curve} changed between repeats"
            for arm in a.records for curve in CURVES
            if not np.array_equal(getattr(a.records[arm], curve),
                                  getattr(b.records[arm], curve))]


class Runner:
    """Runs operations, counting attempted and failed ones."""

    def __init__(self, setup: Setup, seed: int, clock: SpeedClock):
        self.setup = setup
        self.clock = clock
        self.seed = seed
        self.seeds = tape_seeds(setup.wl, seed)
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.failures = []
        self.first = {}
        self.traced = 0

    def attempt(self, tape_seed: int, tracer: Optional[layers.LayerTrace] = None):
        """Run, check and record one operation; its timing, or None if it
        raised or failed."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                op = run_operation(self.setup, tape_seed, self.seed,
                                   compare_bp_traces=tracer is not None
                                   and self.setup.wl.fusion == "bp",
                                   clock=self.clock)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if tracer is not None:
                op.failures += checks.check_mda_steps(*tracer.take_solver_data())
            if tape_seed in self.first:
                op.failures += same_outputs(self.first[tape_seed], op)
            else:
                self.first[tape_seed] = op
        except Exception:
            traceback.print_exc()
            self.raised += 1
            self.failures.append(f"tape {tape_seed}: raised "
                                 f"{traceback.format_exc(limit=1).splitlines()[-1]}")
            return None
        if op.failures:
            self.wrong += 1
            self.failures += [f"tape {tape_seed}: {f}" for f in op.failures]
            return None
        return op.timing

    def rounds(self, seconds: float):
        """Timings of whole rounds until `seconds` have passed (at least one)."""
        timings = []
        start = time.perf_counter()
        while True:
            timings += [t for t in map(self.attempt, self.seeds) if t]
            if time.perf_counter() - start >= seconds:
                return timings

    def traced_rounds(self, seconds: float, tracer: layers.LayerTrace):
        """Like `rounds`, running each tape untraced and then traced.

        Returns the traced minus the untraced `mc_run_s` of each tape. The
        traced operation's curves must equal the untraced ones exactly.
        """
        overheads = []
        start = time.perf_counter()
        while True:
            for tape_seed in self.seeds:
                plain = self.attempt(tape_seed)
                self.traced += 1
                traced = self.attempt(tape_seed, tracer)
                if plain and traced:
                    overheads.append(traced.mc_run_s - plain.mc_run_s)
            if time.perf_counter() - start >= seconds:
                return overheads


def _quality(runner: Runner):
    """Quality metrics over the distinct tapes of a round."""
    ops = list(runner.first.values())
    out = {
        "ospa_m": float(np.mean([r.ospa for op in ops for r in op.records.values()])),
        "ospa2_m": float(np.mean([r.ospa2 for op in ops for r in op.records.values()])),
    }
    for arm in ("raw", "type2"):
        out[f"comm_bytes_per_scan.{arm}"] = float(
            np.mean([op.records[arm].comm_bytes for op in ops]))
    return out


def end_to_end(runner: Runner, timings):
    """End-to-end metrics: medians over the run's operations.

    The per-scan percentiles are taken per operation (at least 200 samples,
    so at least 10 beyond the 95th percentile) and then their median over
    operations: a second-long slow spell of the machine covers hundreds of
    2 ms scenario-1 scans and would otherwise move the pooled tail.
    """
    def scan_ms(q):
        return statistics.median(1e3 * float(np.percentile(t.step_s, q)) for t in timings)

    values = {
        "mc_run_s": statistics.median(t.mc_run_s for t in timings),
        "fusion_s.raw": statistics.median(t.fusion_s["raw"] for t in timings),
        "fusion_s.type2": statistics.median(t.fusion_s["type2"] for t in timings),
        "scan_ms.p50": scan_ms(50),
        "scan_ms.p95": scan_ms(95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    values.update(_quality(runner))
    units = {"mc_run_s": "s", "fusion_s.raw": "s", "fusion_s.type2": "s",
             "scan_ms.p50": "ms", "scan_ms.p95": "ms", "peak_rss_mb": "MB",
             "ospa_m": "m", "ospa2_m": "m", "comm_bytes_per_scan.raw": "B",
             "comm_bytes_per_scan.type2": "B"}
    detail = {"scan_samples_per_op": [len(t.step_s) for t in timings],
              "mc_run_s": [t.mc_run_s for t in timings],
              "fusion_s": {arm: [t.fusion_s[arm] for t in timings]
                           for arm in runner.setup.wl.arms}}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, detail


PER_LAYER_SECONDS = {
    "sim.prepare_run_s": "sim.prepare_run",
    "sim.gnn_step_s": "sim.gnn_step",
    "sim.generate_measurements_s": "sim.generate_measurements",
    "sim.encode_batch_s": "sim.encode_batch",
    "mda.pipeline_step_s": "mda.pipeline_step",
    "mda.build_mda_problem_s": "mda.build_mda_problem",
    "mda.build_initiation_problem_s": "mda.build_initiation_problem",
    "mda.solve_assignment_s": "mda.solve_assignment",
    "bp.pipeline_step_s": "bp.pipeline_step",
    "bp.predict_s": "bp.predict",
    "bp.propose_births_s": "bp.propose_births",
    "bp.measurement_evaluation_s": "bp.measurement_evaluation",
    "bp.iterative_association_s": "bp.iterative_association",
    "bp.measurement_update_s": "bp.measurement_update",
    "bp.belief_calculation_s": "bp.belief_calculation",
    "metrics.ospa_s": "metrics.ospa",
    "metrics.ospa2_s": "metrics.ospa2",
}

PER_LAYER_COUNTS = (
    "sim.tracks_sent", "mda.maintenance_candidates", "mda.initiation_candidates",
    "mda.exact_solves", "mda.relaxed_solves", "mda.exact_cap_fallbacks",
    "transform.gaussian_loglik_calls", "transform.generalized_loglik_calls",
    "linalg.psd_eig_calls", "bp.belief_evaluations", "bp.gated_pairs",
)


def per_layer(tracer: layers.LayerTrace, n_ops: int, overhead_s: float):
    """Per-layer metrics, per Monte Carlo run; idle layers read 0."""
    out = {k: (tracer.seconds[span] / n_ops, "s")
           for k, span in PER_LAYER_SECONDS.items()}
    out["mda.pipeline_step_self_s"] = (tracer.self_seconds("mda.pipeline_step") / n_ops, "s")
    out["bp.pipeline_step_self_s"] = (tracer.self_seconds("bp.pipeline_step") / n_ops, "s")
    out.update({k: (tracer.counts[k] / n_ops, "count") for k in PER_LAYER_COUNTS})
    c = tracer.counts
    out["mda.candidates_per_track"] = (
        c["mda.maintenance_candidates"] / c["mda.tracks_maintained"]
        if c["mda.tracks_maintained"] else 0.0, "ratio")
    out["bp.gated_fraction"] = (
        c["bp.gated_pairs"] / c["bp.pair_slots"] if c["bp.pair_slots"] else 0.0, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seed", type=int, default=None)
    args = parser.parse_args(argv)

    setup = build_setup(args.workload)
    # Traced runs report plain wall time, so that no span contains a tick.
    runner = Runner(setup, input_seed(setup.wl, args.seed, args.input_seed),
                    SpeedClock(scaled=not args.trace))
    if args.trace:
        tracer = layers.LayerTrace()
        overheads = runner.traced_rounds(args.seconds, tracer)
        ok = bool(overheads)
        if ok:
            metrics_out = per_layer(tracer, runner.traced, statistics.median(overheads))
            detail = {"traced_ops": runner.traced, "overhead_s": overheads}
    else:
        timings = runner.rounds(args.seconds)
        ok = bool(timings)
        if ok:
            metrics_out, detail = end_to_end(runner, timings)

    failed = runner.raised + runner.wrong
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": metrics_out if ok else {},
              "detail": dict(detail if ok else {}, failures=runner.failures[:50],
                             input_seed=runner.seed, tape_seeds=runner.seeds)}
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
