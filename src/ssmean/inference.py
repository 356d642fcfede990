"""Wald intervals and the refitting bootstrap.

The influence-function standard error is computed by the family core in estimators.

bootstrap refits the method on every replicate and keeps each replicate's
psi alone. Every method but auto-cal fits its replicates as training sets
of its fold-stacked fit, in chunks of max(1, _STACKED_ROWS // n), which
bounds the stacked arrays at about 2**15 labeled rows; a chunk is one call
of estimators._stacked_core, whose route calibrators' comment "fold-stacked
fits" tells. An auto-cal
replicate, and each replicate of a chunk that holds a refused one, is a
gathered resample run by estimate()'s route (Method.run) with no report. A
replicate's labeled and unlabeled rows are drawn from two substreams keyed
by (seed, replicate) (bootstrap_indices), so a replicate's value does not
depend on its chunk or its route. A gathered unlabeled resample holds the scores alone,
unless the method is linear-cov-cal, the one method that reads the
unlabeled covariates. platt-cal's Newton fits dominate its bootstrap, and
linear-cov-cal's least squares and venn-abers' sweeps, one per replicate,
theirs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from statistics import NormalDist
from typing import Tuple

import numpy as np

from ._rng import BOOT_RESAMPLE, _integer, derive_seed, substream
from .calibrators import _Context
from .design import TwoSampleDesign, UnlabeledSample
from .exceptions import ConfigError, SsmeanError

__all__ = [
    "BootstrapResult",
    "wald_interval",
    "normal_quantile",
    "bootstrap",
]


_STANDARD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile of p in (0, 1) (ConfigError otherwise).

    The standard library's NormalDist.inv_cdf (Wichura's AS241), within a
    few ulps of scipy.special.ndtri, so importing the package loads no SciPy.
    """
    if not 0.0 < p < 1.0:
        raise ConfigError(f"normal quantile needs p in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)


def _check_alpha(alpha) -> None:
    """ConfigError naming alpha unless it is a real number in (0, 1); neither bool lies inside.

    An alpha at or below 2**-53 is refused too: 1 - alpha/2 rounds to 1.0,
    whose normal quantile is infinite.
    """
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must be a real number in (0, 1), got {alpha!r}")
    if not 1.0 - float(alpha) / 2.0 < 1.0:
        raise ConfigError(f"alpha must exceed 2**-53, or its normal quantile is infinite; got {alpha!r}")


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


def _draw(seed: int, rep: int, side: int, size: int) -> np.ndarray:
    """size row indices drawn with replacement from substream (seed, BOOT_RESAMPLE, rep, side)."""
    return substream(seed, BOOT_RESAMPLE, rep, side).integers(0, size, size=size)


def bootstrap_indices(seed: int, rep: int, n: int, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """With-replacement row indices for one replicate.

    The labeled (side 0) and unlabeled (side 1) index draws come from
    distinct substreams keyed by (seed, rep), so the two streams are
    independent and the result does not depend on replicate execution order.
    The stacked replicates of bootstrap draw from the same two expressions.
    """
    return _draw(seed, rep, 0, n), _draw(seed, rep, 1, N)


# labeled rows per fold-stacked fit: each call fits max(1, _STACKED_ROWS // n)
# replicates, which bounds the working set of the stacked arrays
_STACKED_ROWS = 2**15


def _replicate_points(design: TwoSampleDesign, method, name: str, seed: int, reps: range) -> list:
    """The point estimates of replicates reps, one resampled design and one Method.run, estimate()'s route, each."""
    out = []
    for i in reps:
        idx_l, idx_u = bootstrap_indices(seed, i, design.n, design.N)
        # the labeled rows stay in draw order: auto-cal's folds split them in that order
        resample = TwoSampleDesign(design.labeled.take(idx_l), design.unlabeled.take(idx_u))
        out.append(method.run(resample, name, None, derive_seed(seed, BOOT_RESAMPLE, i, 2))[0].psi)
    return out


def _stacked_points(design: TwoSampleDesign, method, name: str, seed: int, reps: range) -> np.ndarray:
    """The point estimates of replicates reps from one call of estimators._stacked_core.

    Each replicate is one training set of rows of the labeled sample in
    score order (by_score), in draw order, and its map is scored at those
    same rows. The context resamples the unlabeled side per replicate, and
    each replicate's map is summarised on its own resample. Every value
    equals _replicate_points' bit for bit. A replicate that would be
    refused raises an SsmeanError, but not necessarily the one estimate()
    raises on the first refused resample.
    """
    from .estimators import _stacked_core

    rank, n = design.labeled.by_score[2], design.n
    # every replicate's rows of the sample in score order, in draw order, one replicate after another
    sets = rank[np.stack([_draw(seed, i, 0, n) for i in reps])].ravel(), np.arange(len(reps) + 1) * n
    context = _Context(design.labeled, design.unlabeled, lambda: (_draw(seed, i, 1, design.N) for i in reps))
    return _stacked_core(method, context, sets, sets, name).psi


def bootstrap(design: TwoSampleDesign, method: str, b: int, seed: int, alpha: float = 0.05) -> BootstrapResult:
    """Nonparametric bootstrap that refits the method within each replicate.

    Rows are resampled with replacement, independently for the labeled and
    unlabeled samples, keeping (score, outcome, covariates) together. Any
    calibrator or scaling coefficient the method uses is re-estimated on the
    resampled data. Deterministic given the seed.

    The point estimate is estimate() on the design; it is the only report
    built. Every method but auto-cal fits its replicates in chunks, each
    replicate one training set of the method's fold-stacked fit; auto-cal
    refits per replicate (see the module docstring). Each replicate is bit
    for bit what estimate() on the resampled design gives, and the
    bootstrap refuses exactly what estimate() on the first refused resample
    refuses: a chunk with a refused replicate is replayed one replicate at a
    time. alpha is read as a Python float.
    """
    from .estimators import REGISTRY, estimate, method_name

    b = _integer(b, "bootstrap needs an integer number of replicates b, got {!r}")
    if b < 2:
        raise ConfigError(f"bootstrap needs b >= 2 replicates, got {b}")
    _check_alpha(alpha)
    # a numpy float32 alpha would take its quantiles at float32 precision
    alpha = float(alpha)
    point = estimate(design, method, alpha=alpha, seed=seed).estimate
    name = method_name(method)
    fit = REGISTRY[name]
    if name != "linear-cov-cal" and design.unlabeled.covariates is not None:
        # no other method reads the unlabeled covariates, so its resamples gather the scores alone
        design = TwoSampleDesign(design.labeled, UnlabeledSample(design.unlabeled.scores))
    points = _replicate_points if name == "auto-cal" else _stacked_points
    chunk = max(1, _STACKED_ROWS // design.n)
    reps = np.empty(b)
    for start in range(0, b, chunk):
        part = range(start, min(start + chunk, b))
        try:
            reps[start : part.stop] = points(design, fit, name, seed, part)
        except SsmeanError:
            # replayed one replicate at a time, so the refusal is estimate()'s on the first refused resample
            reps[start : part.stop] = _replicate_points(design, fit, name, seed, part)
    se_boot = float(np.std(reps, ddof=1))
    lo = float(np.quantile(reps, alpha / 2.0))
    hi = float(np.quantile(reps, 1.0 - alpha / 2.0))
    z = normal_quantile(1.0 - alpha / 2.0)
    return BootstrapResult(point, reps, se_boot, (lo, hi), (point - z * se_boot, point + z * se_boot), seed, b)
