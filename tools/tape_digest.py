"""SHA-256 digests of the measurement tapes and local-tracker transmissions.

    python3 tools/tape_digest.py --checkout DIR --workload NAME --seeds 0 1 2 ...
        [--curves]

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
        h.update(f"tracker {len(tracker.tracks)} {len(tracker.initiators)}".encode())
        for t in tracker.tracks:
            h.update(f"{t.est.timestamp} {t.hits} {t.misses} {t.confirmed}".encode())
            _array(h, t.est.mean)
            _array(h, t.est.cov)
        for pos, cov in tracker.initiators:
            _array(h, pos)
            _array(h, cov)
    return h.hexdigest()


CURVES = ("ospa", "ospa2", "card_est", "card_true", "comm_bytes")


def curve_digests(sim, setup, seed: int) -> dict:
    """{arm: digest of the arm's fusion curves} for one tape of a workload."""
    cfg = setup.cfg
    tapes, sends = sim.prepare_run(cfg, seed)
    out = {}
    for arm in setup.wl.arms:
        if setup.wl.fusion == "mda":
            record = sim.run_mda_fusion(cfg, tapes, sends, arm, setup.mda_cfg,
                                        setup.ospa_params)
        else:
            record = sim.run_bp_fusion(cfg, tapes, sends, arm, seed, setup.bp_cfg,
                                       setup.ospa_params)
        h = hashlib.sha256()
        for name in CURVES:
            h.update(name.encode())
            _array(h, getattr(record, name))
        out[arm] = h.hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tape digests of one checkout")
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--curves", action="store_true",
                        help="digest each arm's fusion curves instead of the tape")
    args = parser.parse_args(argv)
    sim, build_setup = _load(args.checkout.resolve())
    setup = build_setup(args.workload)
    for seed in args.seeds:
        if args.curves:
            for arm, digest in curve_digests(sim, setup, seed).items():
                print(seed, arm, digest, flush=True)
        else:
            print(seed, tape_digest(sim, setup.cfg, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
