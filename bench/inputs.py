"""Workload definitions and the set-up before the first timed call.

    python3 bench/inputs.py --workload NAME

run as a script is the set-up probe: it imports the package, builds the
workload's scenario and configs and prints `READY`. `run.py` times fresh
interpreters from their start to `READY` for `setup_s`. After `READY` the
probe prints the median time of `clock.PROBE_UNITS` reference units, the
machine's speed just after its set-up. This module
imports nothing but the program and the standard library, so the probe
measures the program's set-up alone; the benchmark's own checks and
tracing live in other modules.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

from trackfuse import bp, mda, metrics, sim

READY = "READY"


@dataclass(frozen=True)
class Workload:
    scenario: str
    fusion: str
    arms: tuple
    tapes_per_round: int
    clutter_rate: Optional[float] = None
    particles: Optional[int] = None
    # None: the inputs follow --seed; otherwise every run uses this seed.
    fixed_seed: Optional[int] = None


WORKLOADS = {
    # Sensor side (measurement generation, GNN trackers) and OSPA(2) take a
    # large share; small 2-sensor MDA instances with initiation work.
    "s1-mda-c40": Workload("scenario1", "mda", ("raw", "type1", "type2"),
                           tapes_per_round=12, clutter_rate=40.0),
    # Maintenance tuple scoring dominates; BP idle. The input is fixed: the
    # MDA work of a scenario-2 tape varies up to 2x between tape seeds and a
    # run affords one tape.
    "s2-mda": Workload("scenario2", "mda", ("raw", "type2"),
                       tapes_per_round=1, fixed_seed=0),
    # Same tape as s2-mda, so the two isolate the fusion engine. The BP
    # particle streams are fixed too: they move the per-scan tail.
    "s2-bp": Workload("scenario2", "bp", ("raw", "type2"),
                      tapes_per_round=1, particles=500, fixed_seed=0),
}


def input_seed(wl: Workload, seed: int, override: Optional[int] = None) -> int:
    """Seed of a run's inputs: `override`, else the workload's fixed seed, else `seed`."""
    if override is not None:
        return override
    return seed if wl.fixed_seed is None else wl.fixed_seed


def tape_seeds(wl: Workload, seed: int):
    """Tape seeds of one round for input seed `seed`."""
    return [wl.tapes_per_round * seed + k for k in range(wl.tapes_per_round)]


@dataclass
class Setup:
    """Everything built before the first timed call."""

    wl: Workload
    cfg: sim.ScenarioConfig
    mda_cfg: mda.MdaConfig
    bp_cfg: bp.BpConfig
    ospa_params: metrics.OspaParams


def build_setup(name: str) -> Setup:
    wl = WORKLOADS[name]
    cfg = sim.scenario1() if wl.scenario == "scenario1" else sim.scenario2()
    if wl.clutter_rate is not None:
        cfg = cfg.with_overrides(clutter_rate=wl.clutter_rate)
    bp_cfg = bp.BpConfig(n_particles=wl.particles) if wl.particles else bp.BpConfig()
    return Setup(wl, cfg, mda.MdaConfig(), bp_cfg, metrics.OspaParams())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="set-up probe")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    build_setup(parser.parse_args().workload)
    print(READY, flush=True)
    import clock
    print(clock.unit_seconds(clock.PROBE_UNITS), flush=True)
    sys.exit(0)
