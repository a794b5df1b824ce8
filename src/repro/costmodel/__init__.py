"""The cost-model layer: analytic bounds, the first-class
:class:`CostModel` every selection/replay/sweep consumer shares, fitted
(calibrated) models, and adaptive runtime selection."""

from .adaptive import AdaptiveSelector, Agreed, AlgorithmSwitch, consistent_mean
from .bounds import (
    Bounds,
    beta_dense,
    beta_sparse,
    dense_rabenseifner_time,
    dense_rec_dbl_time,
    dense_ring_time,
    dsar_split_ag_bounds,
    latency_rec_dbl,
    latency_split,
    lemma_5_1_lower,
    lemma_5_2_lower,
    max_dsar_speedup,
    ssar_rec_dbl_bounds,
    ssar_split_ag_bounds,
)
from .calibrate import (
    DEFAULT_CALIBRATION_OUT,
    fit_alpha_beta,
    fit_gamma,
    fit_model,
    measure_launch,
    run_calibration,
)
from .model import (
    MAX_AUTO_CHUNKS,
    RING_MIN_RANKS,
    SMALL_MESSAGE_BYTES,
    SCHEDULES,
    CostModel,
    Instance,
    PredictedCost,
    SelectionReport,
)

__all__ = [
    "Bounds",
    "beta_dense",
    "beta_sparse",
    "dense_rabenseifner_time",
    "dense_rec_dbl_time",
    "dense_ring_time",
    "dsar_split_ag_bounds",
    "latency_rec_dbl",
    "latency_split",
    "lemma_5_1_lower",
    "lemma_5_2_lower",
    "max_dsar_speedup",
    "ssar_rec_dbl_bounds",
    "ssar_split_ag_bounds",
    "CostModel",
    "Instance",
    "PredictedCost",
    "SelectionReport",
    "AdaptiveSelector",
    "Agreed",
    "AlgorithmSwitch",
    "consistent_mean",
    "SMALL_MESSAGE_BYTES",
    "RING_MIN_RANKS",
    "SCHEDULES",
    "MAX_AUTO_CHUNKS",
    "fit_alpha_beta",
    "fit_gamma",
    "fit_model",
    "measure_launch",
    "run_calibration",
    "DEFAULT_CALIBRATION_OUT",
]
