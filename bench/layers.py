"""Timing and counting wrappers around the public functions of each layer.

The benchmark replaces module attributes (and `GnnTracker.step`) with
wrappers for the duration of a traced run, so the program itself is not
changed. A function imported into several modules (`psd_eig`, `ospa`, the
log-likelihoods) is replaced in every `trackfuse` module that holds it.

Spans nest: a span's self time is its duration minus the part covered by
child spans. Counters add a number per call and record no time, so that
functions called hundreds of thousands of times per run stay cheap.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from trackfuse import bp, linalg, mda, metrics, sim, transform
from trackfuse.errors import ResourceLimitError

SPANS = {
    "sim.prepare_run": (sim, "prepare_run"),
    "sim.generate_measurements": (sim, "generate_measurements"),
    "sim.gnn_step": (sim.GnnTracker, "step"),
    "sim.encode_batch": (sim, "encode_batch"),
    "mda.pipeline_step": (mda, "mda_pipeline_step"),
    "mda.build_mda_problem": (mda, "build_mda_problem"),
    "mda.build_initiation_problem": (mda, "build_initiation_problem"),
    "mda.solve_assignment": (mda, "solve_assignment"),
    "bp.pipeline_step": (bp, "bp_pipeline_step"),
    "bp.predict": (bp, "bp_predict"),
    "bp.propose_births": (bp, "propose_births"),
    "bp.measurement_evaluation": (bp, "measurement_evaluation"),
    "bp.iterative_association": (bp, "iterative_association"),
    "bp.measurement_update": (bp, "measurement_update"),
    "bp.belief_calculation": (bp, "belief_calculation"),
    "metrics.ospa": (metrics, "ospa"),
    "metrics.ospa2": (metrics, "ospa2"),
}

CALL_COUNTERS = {
    "transform.gaussian_loglik_calls": (transform, "gaussian_log_likelihood"),
    "transform.generalized_loglik_calls": (transform, "generalized_log_likelihood"),
    "linalg.psd_eig_calls": (linalg, "psd_eig"),
}


def _holders(original):
    """(owner, attribute) pairs of every trackfuse module binding `original`."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "trackfuse" or name.startswith("trackfuse.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
    return found


class LayerTrace:
    """Spans and counters for one traced run, plus captured solver data.

    `mda_steps` holds, per `mda_pipeline_step` call, the maintenance inputs
    and the returned selections, and `relaxed_gaps` the gap of every
    relaxation solve; the solver checks read them after each operation.
    """

    def __init__(self):
        self.seconds = defaultdict(float)
        self.child_seconds = defaultdict(float)
        self.counts = Counter()
        self.mda_steps = []
        self.relaxed_gaps = []
        self._pending_maintenance = None
        self._stack = []
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self):
        for name, (owner, attr) in SPANS.items():
            self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        for name, (owner, attr) in CALL_COUNTERS.items():
            self._replace(owner, attr, self._counter(name, getattr(owner, attr)))
        self._replace(mda, "solve_assignment_exact",
                      self._exact(mda.solve_assignment_exact))
        self._replace(mda, "solve_assignment_relaxed",
                      self._relaxed(mda.solve_assignment_relaxed))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        holders = [(owner, attr)] if isinstance(owner, type) else _holders(original)
        for holder, name in holders:
            self._patches.append((holder, name, original))
            setattr(holder, name, wrapper)

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn):
        on_call = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._stack.pop()
                self.seconds[name] += elapsed
                self.child_seconds[name] += frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if on_call is not None:
                on_call(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _exact(self, fn):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                self.counts["mda.exact_cap_fallbacks"] += 1
                raise
            self.counts["mda.exact_solves"] += 1
            return result

        return wrapper

    def _relaxed(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["mda.relaxed_solves"] += 1
            self.relaxed_gaps.append(float(result.gap))
            return result

        return wrapper

    # -- per-call hooks (run after the span closes) -------------------

    def _on_sim_gnn_step(self, args, sent):
        self.counts["sim.tracks_sent"] += len(sent)

    def _on_mda_build_mda_problem(self, args, problem):
        tracks_pred, batches, sensors, cfg = args[:4]
        self.counts["mda.maintenance_candidates"] += problem.n_candidates
        self.counts["mda.tracks_maintained"] += len(tracks_pred)
        self._pending_maintenance = (list(tracks_pred), list(batches),
                                     list(sensors), cfg)

    def _on_mda_build_initiation_problem(self, args, problem):
        self.counts["mda.initiation_candidates"] += problem.n_candidates

    def _on_mda_pipeline_step(self, args, result):
        batches = list(args[1])
        _, _, info = result
        self.mda_steps.append({
            "maintenance_inputs": self._pending_maintenance,
            "meas_counts": [b.n_meas for b in batches],
            "maintenance": list(info["maintenance"]),
            "initiation": list(info["initiation"]),
        })
        self._pending_maintenance = None

    def _on_bp_measurement_evaluation(self, args, result):
        beliefs, inp = args[0], args[1]
        _, q_cache, _ = result
        self.counts["bp.belief_evaluations"] += len(beliefs)
        self.counts["bp.gated_pairs"] += len(q_cache)
        self.counts["bp.pair_slots"] += len(beliefs) * inp.batch.n_meas

    # -- results ------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]

    def take_solver_data(self):
        """Return and clear the captured MDA steps and relaxation gaps."""
        steps, gaps = self.mda_steps, self.relaxed_gaps
        self.mda_steps, self.relaxed_gaps = [], []
        return steps, gaps
