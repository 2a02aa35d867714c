"""Multisensor track-to-track association and fusion.

MDA-based and belief-propagation-based track association over raw and
losslessly transformed sensor payloads, with a scenario simulator, OSPA
metrics and communication accounting.
"""

from .models import (
    GaussianEstimate,
    MeasurementBatch,
    MeasurementModel,
    MotionModel,
    innovation,
    predict,
    update_raw,
    update_transformed,
)
from .transform import (
    ClutterModel,
    Transformation,
    clutter_density_transformed,
    gaussian_likelihood,
    gaussian_log_likelihood,
    generalized_log_likelihood,
    make_generic,
    make_identity,
    make_type1,
    make_type2,
)
from .metrics import CommLedger, OspaParams, comm_bytes, ospa, ospa2

__all__ = [
    "GaussianEstimate", "MeasurementBatch", "MeasurementModel", "MotionModel",
    "innovation", "predict", "update_raw", "update_transformed",
    "ClutterModel", "Transformation", "clutter_density_transformed",
    "gaussian_likelihood", "gaussian_log_likelihood",
    "generalized_log_likelihood",
    "make_generic", "make_identity", "make_type1", "make_type2",
    "CommLedger", "OspaParams", "comm_bytes", "ospa", "ospa2",
]

__version__ = "0.1.0"
