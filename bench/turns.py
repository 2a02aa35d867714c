"""Run the payload arms of one Monte Carlo run in turns of a few scans.

The machine the benchmark runs on drifts in speed by 10-20% over phases of
several seconds. Run one after the other, each arm of a scenario-2 run
takes ~15 s, so a slow phase is charged to whichever arm it falls in, and
the per-arm fusion times spread by ~30% between identical runs. Here each
arm runs in a thread of its own, and a thread hands the turn to the next
arm at the first per-scan fusion step after it has held the turn for
QUANTUM_S, so all arms see the same machine phases. Only the thread that
holds the turn runs; the others wait on a condition variable. An arm's busy
time is made of the wall intervals during which it held the turn, which is
its own work; `clock.SpeedClock` converts them to seconds at reference
speed, and ticks (runs its reference unit) before a fusion step at most
every `clock.EVERY_S`.
The quantum spans many short scenario-1 scans: handing over on every 2 ms
scan made those runs 10-20% slower.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

QUANTUM_S = 0.05


class TakeTurns:
    def __init__(self, arms, clock):
        self._clock = clock
        self._cv = threading.Condition()
        self._live = list(arms)
        self._turn = self._live[0]
        self._since = 0.0
        self._local = threading.local()
        self.held = {arm: [] for arm in arms}
        self.steps = []

    def _wait(self, arm):
        self._cv.wait_for(lambda: self._turn == arm)
        self._since = time.perf_counter()

    def _pass(self, arm, leaving: bool = False):
        self.held[arm].append((self._since, time.perf_counter()))
        i = self._live.index(arm)
        if leaving:
            self._live.pop(i)
            self._turn = self._live[i % len(self._live)] if self._live else None
        else:
            self._turn = self._live[(i + 1) % len(self._live)]
        self._cv.notify_all()

    def yield_turn(self):
        if time.perf_counter() - self._since < QUANTUM_S:
            return
        arm = self._local.arm
        with self._cv:
            self._pass(arm)
            self._wait(arm)

    @contextmanager
    def at_each(self, module, attr: str):
        """Offer the turn and a tick at every call of `module.attr`, and
        record the call's wall interval."""
        original = getattr(module, attr)

        def step(*args, **kwargs):
            self.yield_turn()
            self._clock.maybe_tick()
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.steps.append((t0, time.perf_counter()))

        setattr(module, attr, step)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def run(self, jobs: dict) -> dict:
        """Run `jobs` (arm -> callable) taking turns; return arm -> result."""
        results, errors = {}, []

        def body(arm, job):
            self._local.arm = arm
            with self._cv:
                self._wait(arm)
            try:
                results[arm] = job()
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)
            finally:
                with self._cv:
                    self._pass(arm, leaving=True)

        threads = [threading.Thread(target=body, args=item, daemon=True)
                   for item in jobs.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results
