"""Wall time scaled to the machine's speed of the moment.

The benchmark runs on a few cores of a shared host whose speed drifts. A
fixed reference computation took from 1.27 ms to 2.4 ms (median of 2 s
windows) within one minute on the 2-core VM of the reference figures, and
identical scenario-2 runs a few minutes apart took 34 s and 50 s. Medians
within one run cannot remove drift between runs, so every time metric of
an untraced run is a wall time converted to seconds at a reference speed.

`SpeedClock.tick` runs `reference_unit`, a fixed mix of small-matrix
linear algebra, particle-array arithmetic and interpreter work like the
program's, and records when it ran and how long it took. `maybe_tick`
ticks when EVERY_S of wall time have passed since the last tick; the
workload calls it before each scan's measurement generation and fusion
step, and ticks at the start and end of each operation. `seconds(t0, t1)`
converts the wall interval [t0, t1]: each stretch between two ticks is
scaled by REF_UNIT_S over the median time of the four ticks around it,
and the ticks themselves count nothing. A second of the program's work
therefore reads the same in a slow phase and a fast one, as long as the
slowdown hits the reference unit and the program alike.

On scenario-1 operations repeated on identical tapes, this cut the spread
of the per-operation wall time from a coefficient of variation of 0.13 to
0.05. Ticks cost ~1.3 ms every 20 ms, so runs take ~6% longer.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

EVERY_S = 0.02
# Time of one reference unit, back to back, in a fast phase of the 2-core
# VM of the reference figures. It only sets the scale of the results.
REF_UNIT_S = 1.3e-3
# Reference units timed around each set-up probe (`run.py`).
PROBE_UNITS = 25

_rng = np.random.default_rng(0)
_MATS = [a @ a.T + 4.0 * np.eye(4) for a in _rng.standard_normal((8, 4, 4))]
_VEC = _rng.standard_normal(4)
_PARTICLES = _rng.standard_normal((500, 4))


def reference_unit() -> float:
    """Fixed work whose speed stands for the machine's; returns a checksum."""
    acc = 0.0
    for i in range(40):
        a = _MATS[i & 7]
        low = np.linalg.cholesky(a)
        w, _ = np.linalg.eigh(a)
        x = np.linalg.solve(a, _VEC)
        acc += float(x @ _VEC) + float(w[0]) + float(low[0, 0])
        table = {j: j * 0.5 + acc for j in range(30)}
        acc += sum(table.values()) * 1e-9
        y = _PARTICLES @ a
        acc += float(np.exp(-0.5e-3 * np.einsum("ij,ij->i", y, y)).sum())
    return acc


def unit_seconds(n: int) -> float:
    """Median time of `n` reference units run back to back."""
    reference_unit()
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedClock:
    """Ticks of the reference unit, and wall intervals converted by them.

    With `scaled=False` the clock never ticks and `seconds` is plain wall
    time (traced runs, whose per-layer spans should not contain ticks).
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self._starts, self._durs = [], []
        self._last = -float("inf")
        self._knots = None

    def tick(self):
        if not self.scaled:
            return
        t0 = time.perf_counter()
        reference_unit()
        t1 = time.perf_counter()
        self._starts.append(t0)
        self._durs.append(t1 - t0)
        self._last = t1
        self._knots = None

    def maybe_tick(self):
        if self.scaled and time.perf_counter() - self._last >= EVERY_S:
            self.tick()

    @contextmanager
    def before_each(self, module, attr: str):
        """Offer a tick before every call of `module.attr`."""
        original = getattr(module, attr)

        def ticking(*args, **kwargs):
            self.maybe_tick()
            return original(*args, **kwargs)

        setattr(module, attr, ticking)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def _build(self):
        s = np.asarray(self._starts)
        d = np.asarray(self._durs)
        e = s + d
        n = len(s)
        if n < 2:
            raise RuntimeError("a scaled interval needs a tick at each end")
        rates = np.array([REF_UNIT_S / np.median(d[max(0, i - 1):i + 3])
                          for i in range(n - 1)])
        # Knots e0, s1, e1, s2, ..., s_{n-1}: the scaled time grows over
        # each gap (e_i, s_{i+1}) and stays flat over each tick.
        times = np.empty(2 * n - 2)
        times[0::2], times[1::2] = e[:-1], s[1:]
        values = np.zeros(2 * n - 2)
        values[1::2] = np.cumsum(rates * (s[1:] - e[:-1]))
        values[2::2] = values[1:-1:2]
        self._knots = (times, values)

    def seconds(self, t0, t1):
        """Seconds at reference speed in the wall interval(s) [t0, t1]."""
        if not self.scaled:
            return np.asarray(t1) - np.asarray(t0)
        if self._knots is None:
            self._build()
        times, values = self._knots
        return np.interp(t1, times, values) - np.interp(t0, times, values)

    def reset(self):
        """Forget every tick (after an operation's intervals are converted)."""
        self._starts, self._durs = [], []
        self._knots = None
