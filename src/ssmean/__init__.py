"""Semisupervised mean estimation with calibrated prediction scores.

Combines a small labeled sample, a large unlabeled sample, and a black-box
prediction score into efficient estimates of a population mean, with
post-hoc calibration of the score, influence-function and bootstrap
inference, cross-validated method selection, cross-fitting, a Monte Carlo
study harness, and a two-arm treatment-effect wrapper.

A method is one of the names in METHOD_NAMES, each run with fixed settings
by estimate(). Other settings go through the fit_* functions with
calibrated_plugin, or through CandidateSet with autocal_select.
"""
from .calibrators import (
    AffineCalibrator,
    SigmoidCalibrator,
    StepCalibrator,
    fit_histogram,
    fit_isotonic,
    fit_linear,
    fit_linear_cov,
    fit_platt,
    fit_venn_abers,
    predict,
)
from .design import (
    EstimateReport,
    LabeledSample,
    TwoSampleDesign,
    UnlabeledSample,
    design_from_arrays,
)
from .estimators import (
    METHOD_NAMES,
    ScoredDesign,
    calibrated_plugin,
    eem_lambda,
    estimate,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DataError,
    DimensionError,
    MisuseError,
    SsmeanError,
)
from .inference import BootstrapResult, bootstrap, wald_interval
from .selection import CandidateSet, autocal_select, crossfit_calibrated, ols_trainer
from .simulate import (
    DgpSpec,
    McSummary,
    ate_two_arm,
    draw_dataset,
    run_grid,
    summaries_to_csv,
)

__version__ = "0.1.0"
