"""Influence-function variance, Wald intervals, and the refitting bootstrap."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import ndtri

from ._rng import BOOT_RESAMPLE, derive_seed, substream
from .design import LabeledSample, TwoSampleDesign, UnlabeledSample
from .exceptions import ConfigError, DimensionError

__all__ = [
    "InfluencePair",
    "BootstrapResult",
    "influence_values",
    "wald_se",
    "wald_interval",
    "normal_quantile",
    "bootstrap",
]


@dataclass(frozen=True)
class InfluencePair:
    """Estimated influence values for the labeled and unlabeled samples."""

    labeled_vals: np.ndarray
    unlabeled_vals: np.ndarray


def influence_values(design: TwoSampleDesign, adj_labeled, adj_unlabeled, psi_hat: float) -> InfluencePair:
    """Influence values for the estimator family at adjustment values a.

    Labeled: a_i - psi_hat + (1/rho) * (Y_i - a_i).
    Unlabeled: a_j - psi_hat.
    """
    a_l = np.asarray(adj_labeled, dtype=np.float64)
    a_u = np.asarray(adj_unlabeled, dtype=np.float64)
    if a_l.shape != (design.n,):
        raise DimensionError(f"adj_labeled has shape {a_l.shape}, expected ({design.n},)")
    if a_u.shape != (design.N,):
        raise DimensionError(f"adj_unlabeled has shape {a_u.shape}, expected ({design.N},)")
    rho = design.rho
    labeled = a_l - psi_hat + (design.labeled.outcomes - a_l) / rho
    unlabeled = a_u - psi_hat
    return InfluencePair(labeled_vals=labeled, unlabeled_vals=unlabeled)


def wald_se(pair: InfluencePair, design: TwoSampleDesign) -> float:
    """Plug-in standard error sqrt{ (sum D_L^2 + sum D_U^2) / (n+N)^2 }.

    Algebraically identical to sqrt(sigma2 / M) with
    sigma2 = rho * mean(D_L^2) + (1 - rho) * mean(D_U^2).
    """
    m = design.m_total
    # an overflowing square makes the SE inf, which the caller reports
    with np.errstate(over="ignore"):
        total = float(np.sum(pair.labeled_vals**2) + np.sum(pair.unlabeled_vals**2))
    return float(np.sqrt(total)) / m


def normal_quantile(p: float) -> float:
    """Standard normal quantile, accurate to well below 1e-8."""
    return float(ndtri(p))


def wald_interval(estimate: float, se: float, alpha: float) -> Tuple[float, float]:
    """estimate +/- z_{1-alpha/2} * se."""
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    if se < 0:
        raise ConfigError("standard error must be nonnegative")
    z = normal_quantile(1.0 - alpha / 2.0)
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

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "se_boot": self.se_boot,
            "percentile_ci": list(self.percentile_ci),
            "normal_ci": list(self.normal_ci),
            "seed": self.seed,
            "b": self.b,
        }


def bootstrap_indices(seed: int, rep: int, n: int, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """With-replacement row indices for one replicate.

    The labeled and unlabeled index draws come from distinct substreams keyed
    by (seed, rep), so the two streams are independent and the result does not
    depend on replicate execution order.
    """
    lab = substream(seed, BOOT_RESAMPLE, rep, 0).integers(0, n, size=n)
    unl = substream(seed, BOOT_RESAMPLE, rep, 1).integers(0, N, size=N)
    return lab, unl


def bootstrap(design: TwoSampleDesign, method, b: int, seed: int, alpha: float = 0.05) -> BootstrapResult:
    """Nonparametric bootstrap that refits the method within each replicate.

    Rows are resampled with replacement, independently for the labeled and
    unlabeled samples, keeping (score, outcome, covariates) together. Any
    calibrator or scaling coefficient the method uses is re-estimated on the
    resampled data. Deterministic given the seed.
    """
    from .estimators import estimate as _estimate

    if b < 2:
        raise ConfigError(f"bootstrap needs b >= 2 replicates, got {b}")
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    lab, unl = design.labeled, design.unlabeled
    point = _estimate(design, method, alpha=alpha, seed=seed).estimate
    reps = np.empty(b)
    for i in range(b):
        idx_l, idx_u = bootstrap_indices(seed, i, design.n, design.N)
        lab_b = LabeledSample(
            lab.scores[idx_l],
            lab.outcomes[idx_l],
            None if lab.covariates is None else lab.covariates[idx_l],
        )
        unl_b = UnlabeledSample(
            unl.scores[idx_u],
            None if unl.covariates is None else unl.covariates[idx_u],
        )
        design_b = TwoSampleDesign(lab_b, unl_b)
        reps[i] = _estimate(design_b, method, alpha=alpha, seed=derive_seed(seed, BOOT_RESAMPLE, i, 2)).estimate
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
