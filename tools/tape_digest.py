"""SHA-256 digests of the measurement tapes and local-tracker transmissions.

    python3 tools/tape_digest.py --checkout DIR --workload NAME --seeds 0 1 2 ...

Imports the program from `DIR/src` and the workload's scenario from
`DIR/bench/inputs.py`, runs `sim.prepare_run` on each tape seed and prints
one line per tape: the seed and a SHA-256 over the tape's measurements, the
local trackers' sends and the trackers' final states (every local track's
mean, covariance, timestamp, hits, misses and confirmation, and every
pending initiator). Run on two checkouts, equal lines show that a change to
the sensor side kept the tape bit for bit.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tape digests of one checkout")
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sim, build_setup = _load(args.checkout.resolve())
    cfg = build_setup(args.workload).cfg
    for seed in args.seeds:
        print(seed, tape_digest(sim, cfg, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
