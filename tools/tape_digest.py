"""SHA-256 digests of the measurement tapes and local-tracker transmissions.

    python3 tools/tape_digest.py --checkout DIR --workload NAME --seeds 0 1 2 ...
        [--curves] [--bp-traces | --mda-steps] [--clutter-rate R]

Imports the program from `DIR/src` and the workload's scenario from
`DIR/bench/inputs.py`, runs `sim.prepare_run` on each tape seed and prints
one line per tape: the seed and a SHA-256 over the tape's measurements, the
local trackers' sends and the trackers' final states (every local track's
mean, covariance, timestamp, hits, misses and confirmation, and every
pending initiator). Run on two checkouts, equal lines show that a change to
the sensor side kept the tape bit for bit.

With `--curves` it fuses each tape once per payload arm of the workload,
with the workload's fusion engine and configs (a BP arm's streams keyed by
the tape seed, as in `sim.run_single`), and prints one line per tape and
arm instead: the seed, the arm and a SHA-256 over the arm's curves (OSPA,
OSPA(2), estimated and true cardinality, bytes per scan). Equal lines on two
checkouts show that a change to the fusion side kept its outputs bit for
bit.

With `--mda-steps` (MDA workloads) each tape and arm gets a SHA-256 over
every scan of the arm's MDA pipeline instead: the selected maintenance and
initiation tuples and the fused tracks it returns (each track's label,
timestamp, hits, misses, confirmation, mean and covariance, in track
order). It reads the tracks as a list of track objects or as one struct of
arrays, so checkouts on either side of that change compare. With
`--curves` as well, a line holds the seed, the arm, the curve digest and
the step digest, from one fusion pass.

With `--bp-traces` (BP workloads) each tape and arm gets a SHA-256 over
the arm's per-sensor BP traces instead (beta, xi, kappa, iota, the
beliefs' weights and r_prob, sensor by sensor and scan by scan), hashed as
each scan is traced so a run's traces are never held at once. With both
flags a line holds the seed, the arm, the curve digest and the trace
digest, from one fusion pass.

`--clutter-rate R` sets every sensor's clutter rate of the workload's
scenario to R in each mode, so that a workload can be compared across
checkouts at a clutter rate it does not declare (say `s2-mda` at 40).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np


def _load(checkout: Path):
    """(sim module, build_setup) of a checkout."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from trackfuse import sim
    from inputs import build_setup
    return sim, build_setup


def _array(h, x):
    a = np.ascontiguousarray(x, dtype=float)
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def tape_digest(sim, cfg, seed: int) -> str:
    """Digest of one `prepare_run` tape, its sends and final tracker states."""
    trackers = []
    original = sim.GnnTracker

    class Recorded(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trackers.append(self)

    sim.GnnTracker = Recorded
    try:
        tapes, sends = sim.prepare_run(cfg, seed)
    finally:
        sim.GnnTracker = original
    h = hashlib.sha256()
    h.update(json.dumps(sends).encode())
    for scan_list in tapes["scans"]:
        for scan in scan_list:
            _array(h, scan.zs)
    for tracker in trackers:
        h.update(f"tracker {len(tracker.means)} {len(tracker.init_pos)}".encode())
        flags = zip(tracker.timestamps.tolist(), tracker.hits.tolist(),
                    tracker.misses.tolist(), tracker.confirmed.tolist())
        for (stamp, hits, misses, confirmed), mean, cov in zip(flags, tracker.means,
                                                               tracker.covs):
            h.update(f"{stamp} {hits} {misses} {confirmed}".encode())
            _array(h, mean)
            _array(h, cov)
        for pos, cov in zip(tracker.init_pos, tracker.init_covs):
            _array(h, pos)
            _array(h, cov)
    return h.hexdigest()


CURVES = ("ospa", "ospa2", "card_est", "card_true", "comm_bytes")
BP_TRACE_KEYS = ("beta", "xi", "kappa", "iota", "r_prob")


class TraceHasher:
    """A `run_bp_fusion(trace_scans=...)` sink that hashes each scan's
    per-sensor traces as they arrive and keeps none of them."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def __setitem__(self, scan, trace):
        self.hash.update(f"scan {scan} {len(trace)}".encode())
        for step in trace:
            self.hash.update(f"sensor {step['sensor']}".encode())
            for key in BP_TRACE_KEYS:
                self.hash.update(key.encode())
                _array(self.hash, step[key])
            self.hash.update(f"weights {len(step['weights'])}".encode())
            for w in step["weights"]:
                _array(self.hash, w)

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


def _track_rows(tracks):
    """(label, timestamp, hits, misses, confirmed, mean, cov) of each fused
    track, from a list of track objects or a struct of arrays."""
    if hasattr(tracks, "means"):
        flags = zip(tracks.labels.tolist(), tracks.timestamps.tolist(),
                    tracks.hits.tolist(), tracks.misses.tolist(),
                    tracks.confirmed.tolist())
        return [(*f, mean, cov) for f, mean, cov in zip(flags, tracks.means, tracks.covs)]
    return [(t.label, t.est.timestamp, t.hits, t.misses, t.confirmed, t.est.mean,
             t.est.cov) for t in tracks]


class StepHasher:
    """Wraps `mda_pipeline_step` in its module and hashes what each call
    selects and returns, scan by scan."""

    def __init__(self, mda):
        self.hash = hashlib.sha256()
        self.mda, self.step = mda, mda.mda_pipeline_step

    def __enter__(self):
        def hashed(*args, **kwargs):
            tracks, next_label, info = self.step(*args, **kwargs)
            self.hash.update(json.dumps([info["maintenance"], info["initiation"],
                                         next_label]).encode())
            for *flags, mean, cov in _track_rows(tracks):
                self.hash.update(json.dumps([int(x) for x in flags]).encode())
                _array(self.hash, mean)
                _array(self.hash, cov)
            return tracks, next_label, info

        self.mda.mda_pipeline_step = hashed
        return self

    def __exit__(self, *exc):
        self.mda.mda_pipeline_step = self.step

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


def _curve_digest(record) -> str:
    """SHA-256 over a fusion record's `CURVES`."""
    h = hashlib.sha256()
    for name in CURVES:
        h.update(name.encode())
        _array(h, getattr(record, name))
    return h.hexdigest()


def mda_step_digests(sim, setup, seed: int, curves: bool = False) -> dict:
    """{arm: digest of the arm's MDA steps} for one tape of an MDA workload;
    with `curves`, {arm: (curve digest, step digest)}."""
    if setup.wl.fusion != "mda":
        raise SystemExit(f"--mda-steps needs an MDA workload, not {setup.wl.fusion}")
    cfg = setup.cfg
    tapes, sends = sim.prepare_run(cfg, seed)
    out = {}
    for arm in setup.wl.arms:
        with StepHasher(sim.mda_mod) as steps:
            record = sim.run_mda_fusion(cfg, tapes, sends, arm, setup.mda_cfg,
                                        setup.ospa_params)
        out[arm] = (_curve_digest(record), steps.hexdigest()) if curves else steps.hexdigest()
    return out


def curve_digests(sim, setup, seed: int, bp_traces: bool = False) -> dict:
    """{arm: digest of the arm's fusion curves} for one tape of a workload;
    with `bp_traces`, {arm: (curve digest, BP trace digest)}."""
    if bp_traces and setup.wl.fusion != "bp":
        raise SystemExit(f"--bp-traces needs a BP workload, not {setup.wl.fusion}")
    cfg = setup.cfg
    tapes, sends = sim.prepare_run(cfg, seed)
    out = {}
    for arm in setup.wl.arms:
        traces = TraceHasher() if bp_traces else None
        if setup.wl.fusion == "mda":
            record = sim.run_mda_fusion(cfg, tapes, sends, arm, setup.mda_cfg,
                                        setup.ospa_params)
        else:
            record = sim.run_bp_fusion(cfg, tapes, sends, arm, seed, setup.bp_cfg,
                                       setup.ospa_params, traces)
        curve = _curve_digest(record)
        out[arm] = (curve, traces.hexdigest()) if bp_traces else curve
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tape digests of one checkout")
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--curves", action="store_true",
                        help="digest each arm's fusion curves instead of the tape")
    steps = parser.add_mutually_exclusive_group()
    steps.add_argument("--bp-traces", action="store_true",
                       help="digest each BP arm's per-sensor traces instead of the tape")
    steps.add_argument("--mda-steps", action="store_true",
                       help="digest each MDA arm's per-scan selections and tracks")
    parser.add_argument("--clutter-rate", type=float,
                        help="every sensor's clutter rate, in place of the workload's")
    args = parser.parse_args(argv)
    sim, build_setup = _load(args.checkout.resolve())
    setup = build_setup(args.workload)
    if args.clutter_rate is not None:
        setup.cfg = setup.cfg.with_overrides(clutter_rate=args.clutter_rate)
    for seed in args.seeds:
        if args.mda_steps:
            for arm, digests in mda_step_digests(sim, setup, seed, args.curves).items():
                print(seed, arm, " ".join(digests) if args.curves else digests, flush=True)
        elif args.curves or args.bp_traces:
            for arm, digests in curve_digests(sim, setup, seed, args.bp_traces).items():
                if args.bp_traces:
                    digests = " ".join(digests if args.curves else digests[1:])
                print(seed, arm, digests, flush=True)
        else:
            print(seed, tape_digest(sim, setup.cfg, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
