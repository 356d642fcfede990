"""Wald intervals and the refitting bootstrap.

The influence-function standard error is computed by estimators._family_core.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import ndtri

from ._rng import BOOT_RESAMPLE, derive_seed, substream
from .design import TwoSampleDesign
from .exceptions import ConfigError

__all__ = [
    "BootstrapResult",
    "wald_interval",
    "normal_quantile",
    "bootstrap",
]


def normal_quantile(p: float) -> float:
    """Standard normal quantile, accurate to well below 1e-8."""
    return float(ndtri(p))


def _check_alpha(alpha) -> None:
    """ConfigError naming alpha unless it is a real number in (0, 1); neither bool lies inside."""
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be a real number in (0, 1), got {alpha!r}")


def wald_interval(estimate: float, se: float, alpha: float) -> Tuple[float, float]:
    """estimate +/- z_{1-alpha/2} * se; ConfigError unless the estimate is finite and se finite and >= 0."""
    _check_alpha(alpha)
    if not math.isfinite(estimate):
        raise ConfigError(f"estimate must be finite, got {estimate!r}")
    if not 0.0 <= se < np.inf:
        raise ConfigError(f"standard error must be finite and nonnegative, got {se!r}")
    # a float32 alpha would take its quantile at float32 precision
    z = normal_quantile(1.0 - float(alpha) / 2.0)
    return (estimate - z * se, estimate + z * se)


@dataclass
class BootstrapResult:
    """Point estimate and replicate estimates with percentile and normal intervals."""

    estimate: float
    replicates: np.ndarray
    se_boot: float
    percentile_ci: Tuple[float, float]
    normal_ci: Tuple[float, float]
    seed: int
    b: int


def bootstrap_indices(seed: int, rep: int, n: int, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """With-replacement row indices for one replicate.

    The labeled and unlabeled index draws come from distinct substreams keyed
    by (seed, rep), so the two streams are independent and the result does not
    depend on replicate execution order.
    """
    lab = substream(seed, BOOT_RESAMPLE, rep, 0).integers(0, n, size=n)
    unl = substream(seed, BOOT_RESAMPLE, rep, 1).integers(0, N, size=N)
    return lab, unl


def bootstrap(design: TwoSampleDesign, method: str, b: int, seed: int, alpha: float = 0.05) -> BootstrapResult:
    """Nonparametric bootstrap that refits the method within each replicate.

    Rows are resampled with replacement, independently for the labeled and
    unlabeled samples, keeping (score, outcome, covariates) together. Any
    calibrator or scaling coefficient the method uses is re-estimated on the
    resampled data. Deterministic given the seed.

    The point estimate is estimate() on the design. A replicate runs only its
    two index draws (bootstrap_indices), the gather of those rows (without
    re-checking values the design already checked), the method's refit and
    its point estimate (Method.point); no per-replicate report, interval or
    diagnostics are built. It refuses exactly what estimate() on the
    resampled design would refuse.
    """
    from .estimators import REGISTRY, estimate, method_name

    try:
        b = operator.index(b)
    except TypeError:
        raise ConfigError(f"bootstrap needs an integer number of replicates b, got {b!r}") from None
    if b < 2:
        raise ConfigError(f"bootstrap needs b >= 2 replicates, got {b}")
    _check_alpha(alpha)
    point = estimate(design, method, alpha=alpha, seed=seed).estimate
    name = method_name(method)
    lab, unl = design.labeled, design.unlabeled
    reps = np.empty(b)
    for i in range(b):
        idx_l, idx_u = bootstrap_indices(seed, i, design.n, design.N)
        # the labeled rows stay in draw order: auto-cal's folds split them in that order
        design_b = TwoSampleDesign(lab.take(idx_l), unl.take(idx_u))
        reps[i] = REGISTRY[name].point(design_b, name, derive_seed(seed, BOOT_RESAMPLE, i, 2))
    se_boot = float(np.std(reps, ddof=1))
    lo = float(np.quantile(reps, alpha / 2.0))
    hi = float(np.quantile(reps, 1.0 - alpha / 2.0))
    z = normal_quantile(1.0 - alpha / 2.0)
    return BootstrapResult(
        estimate=point,
        replicates=reps,
        se_boot=se_boot,
        percentile_ci=(lo, hi),
        normal_ci=(point - z * se_boot, point + z * se_boot),
        seed=seed,
        b=b,
    )
