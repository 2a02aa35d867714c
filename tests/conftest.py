"""Shared builders for random scoring instances used across test modules."""

import numpy as np

from trackfuse.bp import Beliefs
from trackfuse.models import RAW, GaussianEstimate, MeasurementBatch, MeasurementModel
from trackfuse.transform import (
    GENERIC,
    ClutterModel,
    SensorInput,
    clutter_density_transformed,
    make_generic,
    make_type1,
    make_type2,
)


def position_model(rng, sensor_id=0, sigma2=25.0):
    """[diag(1 + theta), 0] measurement model with jittered noise floor."""
    e = np.diag(1.0 + rng.uniform(-0.02, 0.02, 2))
    h = np.hstack([e, np.zeros((2, 2))])
    r = np.diag(sigma2 + rng.uniform(0.0, 1.0, 2))
    return MeasurementModel(h, r, sensor_id)


def sensor_input(H, R, p_d, clutter, transformed=False):
    """A `SensorInput` of the effective (H, R) with no measurements, its
    batch of a transformed kind when `transformed`."""
    batch = MeasurementBatch(0, [], H, R, GENERIC if transformed else RAW)
    return SensorInput(batch, p_d, clutter)


def make_transformation(kind, model, rng):
    if kind == "type1":
        return make_type1(model)
    if kind == "type2":
        return make_type2(model)
    return make_generic(rng.standard_normal((model.m + 3, model.m)), model)


def paired_views(rng, n_sensors, kind, p_d=0.9, clutter_rate=10.0,
                 volume=1.13e6):
    """(raw views, transformed views, transformations) for n_sensors."""
    views_raw, views_tr, transforms = [], [], []
    for l in range(n_sensors):
        model = position_model(rng, l)
        tr = make_transformation(kind, model, rng)
        clutter = ClutterModel(clutter_rate, volume)
        views_raw.append(sensor_input(model.H, model.R, p_d, clutter, False))
        views_tr.append(sensor_input(tr.Ht, tr.Rt, p_d,
                                     clutter_density_transformed(clutter, tr),
                                     True))
        transforms.append(tr)
    return views_raw, views_tr, transforms


def random_track(rng, spread=100.0):
    return GaussianEstimate(rng.standard_normal(4) * spread,
                            np.diag(rng.uniform(1.0, 50.0, 4)))


def scan_buffer(beliefs, births=0, labels=None):
    """Destination rows for a BP stage called on its own, laid out as
    `bp.bp_pipeline_step` allocates its scan buffer: a copy of `beliefs` (a
    `Beliefs`, or a particle count for none), then one newborn row per
    birth. `births` is a count of rows left for `bp.propose_births` to draw
    into, or the (M, Np, n) clouds already drawn; the newborns are labelled
    by `labels`, their row numbers by default."""
    if not isinstance(beliefs, Beliefs):
        beliefs = Beliefs.empty(beliefs, 4)
    n_p, dim = beliefs.particles.shape[1:]
    if np.ndim(births) == 0:
        births = np.empty((births, n_p, dim))
    m = len(births)
    labels = list(range(len(beliefs), len(beliefs) + m)) if labels is None else labels
    return Beliefs(np.concatenate([beliefs.particles, births]),
                   np.concatenate([beliefs.weights, np.empty((m, n_p))]),
                   np.concatenate([beliefs.r, np.empty(m)]),
                   np.concatenate([beliefs.missed, np.zeros(m, dtype=int)]),
                   beliefs.labels + list(labels))
