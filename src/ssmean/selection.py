"""Cross-validated method selection and K-fold cross-fitting.

autocal_select picks among candidate estimators by the cross-validated
influence-function variance: each candidate's calibration step is refit on
out-of-fold labeled data and its variance criterion evaluated on the held-out
fold plus a capped unlabeled subsample. A candidate's k fold fits are one
call of its fold-stacked fit core (see calibrators), the method's only fit,
on every fold's training rows of the labeled sample in its cached score
order, stacked. The k maps are evaluated at once: the held-out values in one
gather, and on the subsample step maps from one count of its scores per
block, unclipped affine maps from its cached moments, and any other map
(clipped linear-cal, platt-cal) at every score, one fold at a time. The
criterion of all folds comes from one call of the family core per
candidate, which takes every fold as its own design from per-fold sums
(np.bincount over fold ids); no design, report or calibrator is built per
fold. The winner's refit, its diagnostics plus the CV table, is auto-cal's
fit.

crossfit_calibrated implements the out-of-fold pipeline for a user-supplied
score trainer: out-of-fold predictions for the labeled rows, one calibrator
fit on the pooled out-of-fold pairs, and fold-averaged calibrated predictions
for the unlabeled rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import calibrators as cal
from ._rng import CROSSFIT_SHUFFLE, FOLD_SHUFFLE, UNLABELED_SUBSAMPLE, _integer, substream
from .design import EstimateReport, TwoSampleDesign, _as_matrix, design_from_arrays
from .estimators import (
    REGISTRY,
    Adjuster,
    ScoredDesign,
    _family_core,
    _summary,
    family_report,
    method_name,
)
from .exceptions import ConfigError, DataError
from .inference import _check_alpha

__all__ = [
    "CandidateSet",
    "autocal_select",
    "crossfit_calibrated",
    "ols_trainer",
]


# criteria within this relative distance of the smallest are tied; the first
# of them in candidate order wins, so rounding in the sums cannot pick a winner
TIE_RTOL = 1e-12


def _check_selectable(name: str, role: str) -> None:
    if REGISTRY[name].stacked_fit is None:
        choices = ", ".join(key for key, method in REGISTRY.items() if method.stacked_fit is not None)
        raise ConfigError(f"{name!r} {role}; choose from {choices}")


@dataclass(frozen=True)
class CandidateSet:
    """Ordered estimator candidates for cross-validated selection; frozen
    once checked, with methods stored as a tuple of registered names."""

    methods: Sequence[str]
    folds: int = 20
    unlabeled_cap_factor: int = 10

    def __post_init__(self):
        if isinstance(self.methods, str):
            raise ConfigError(f"methods must be a list of method names, got the string {self.methods!r}")
        if not self.methods:
            raise ConfigError("candidate list is empty")
        object.__setattr__(self, "methods", tuple(method_name(m) for m in self.methods))
        for name in self.methods:
            _check_selectable(name, "is not selectable")
        for setting in ("folds", "unlabeled_cap_factor"):
            value = _integer(getattr(self, setting), setting + " must be an integer, got {!r}")
            object.__setattr__(self, setting, value)
        if self.folds < 2:
            raise ConfigError(f"need at least 2 folds, got {self.folds}")
        if self.unlabeled_cap_factor < 1:
            raise ConfigError("unlabeled_cap_factor must be >= 1")


def _fold_blocks(n: int, k: int, rng_key: Tuple[int, ...]) -> np.ndarray:
    """The fold of every row: a keyed permutation cut into k contiguous blocks
    of np.array_split's sizes (the first n % k of them one row longer)."""
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    fold = np.empty(n, dtype=np.intp)
    fold[substream(*rng_key).permutation(n)] = np.repeat(np.arange(k), sizes)
    return fold


def _training_rows(fold: np.ndarray, k: int) -> np.ndarray:
    """Every fold's training rows, fold-major: for j = 0..k-1 the ascending i with fold[i] != j."""
    n = len(fold)
    return np.broadcast_to(np.arange(n), (k, n))[fold != np.arange(k)[:, None]]


def _fold_summaries(maps, sample, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The mean and centered sum of squares of each of k stacked maps on an unlabeled sample.

    Step maps are summarised, as _unlabeled_side summarises one, from the
    counts of the sorted scores in each block, all folds' from one
    searchsorted of their cuts. Unclipped affine maps take the scores'
    cached moments. Any other map is evaluated at every score, one fold at
    a time.
    """
    if isinstance(maps, cal._StepFolds):
        cut_fold, cuts, values = maps.steps()
        lower, upper = cal._spans(cut_fold, np.searchsorted(sample.sorted_scores, cuts), k, sample.n)
        counts = upper - lower
        # only the values some score takes, as when a map is evaluated per score
        taken = counts > 0
        block_fold = np.repeat(np.arange(k), np.bincount(cut_fold, minlength=k) + 1)[taken]
        counts, values = counts[taken], values[taken]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.bincount(block_fold, counts * values, k) / sample.n
            dev = values - mean[block_fold]
            return mean, np.bincount(block_fold, counts * (dev * dev), k)
    if isinstance(maps, cal._AffineFolds) and maps.clip is None:
        mean, root_css = sample.score_moments
        slope, intercept = maps.slope, maps.intercept
        # a zero slope is constant, even where the scores' root overflows
        with np.errstate(over="ignore", invalid="ignore"):
            spread = slope * root_css
            return np.where(slope == 0.0, intercept, slope * mean + intercept), np.where(slope == 0.0, 0.0, spread * spread)
    summaries = [_summary(maps.at(j, sample.scores)) for j in range(k)]
    return np.array([u.mean for u in summaries]), np.array([u.css for u in summaries])


def _autocal_fit(design: TwoSampleDesign, candidates: CandidateSet, seed: int) -> Tuple[str, Adjuster]:
    """The winner and auto-cal's adjuster: the winner's refit, its diagnostics plus the CV table."""
    if not isinstance(candidates, CandidateSet):
        raise ConfigError(f"candidates must be a CandidateSet, got {type(candidates).__name__}")
    n, N = design.n, design.N
    k = min(candidates.folds, n // 2)
    if k < 2:
        raise ConfigError(f"selection needs n >= 4 labeled points, got n={n}")
    fold_of = _fold_blocks(n, k, (seed, FOLD_SHUFFLE))
    cap = min(N, candidates.unlabeled_cap_factor * n)
    if cap < N:
        unl_sub = design.unlabeled.take(substream(seed, UNLABELED_SUBSAMPLE).choice(N, size=cap, replace=False))
    else:
        # the folds then share the design's sample, and its sort, with the winner's refit
        unl_sub = design.unlabeled
    # the sample in score order, every row held out by its own fold
    s, y, rank = design.labeled.by_score
    fold = np.empty(n, dtype=np.intp)
    fold[rank] = fold_of
    held = np.bincount(fold, minlength=k)
    bounds = np.concatenate(([0], np.cumsum(n - held)))
    train = (None, None)

    criteria = {}
    for name in candidates.methods:
        if name in criteria:  # duplicate candidates: first occurrence wins
            continue
        method = REGISTRY[name]
        # each fold's training rows of s in score order or in row order; one order is kept at a time
        if train[0] != method.ordered:
            train = (method.ordered, _training_rows(fold, k) if method.ordered else rank[_training_rows(fold_of, k)])
        maps = method.stacked_fit(s, y, train[1], bounds)
        mu, css = _fold_summaries(maps, unl_sub, k)
        # sum_j M_j SE_j^2 / k: each fold a design of its held-out rows and the subsample
        total = _family_core(maps.on_sample(fold, s), y, (cap, mu, css), "auto-cal", (fold, held)).total
        with np.errstate(over="ignore"):
            criterion = float(np.sum(total / (held + cap))) / k
        if not math.isfinite(criterion):
            raise DataError("auto-cal: standard error overflows float64; rescale the scores and outcomes")
        criteria[name] = criterion

    best = min(criteria.values())
    winner = next(name for name, c in criteria.items() if c - best <= TIE_RTOL * best)
    fitted = REGISTRY[winner].fit(design)
    cv = {
        "selected": winner,
        "cv_criteria": {name: float(v) for name, v in criteria.items()},
        "cv_folds": int(k),
        "cv_unlabeled_subsample": int(cap),
    }
    return winner, Adjuster(fitted.f, lambda scored: {**fitted.describe(scored), **cv})


def autocal_select(
    design: TwoSampleDesign,
    candidates: CandidateSet,
    seed: int,
    alpha: float = 0.05,
) -> Tuple[str, EstimateReport]:
    """Pick the candidate with the smallest cross-validated variance criterion.

    The labeled sample is shuffled once (by seed) into K contiguous folds,
    with K clamped so every fold holds at least two points; the unlabeled
    evaluation subsample of size min(N, cap_factor * n) is drawn once per
    call. A candidate's K fold fits are one call of its fold-stacked core
    on every fold's training rows, in the order the method's own fit reads
    them (score order for iso-cal, row order for the others), so fold j's
    map is bit for bit the method's fit of the rows outside fold j. The
    criterion of a candidate, sum_j M_j SE_j^2 / k over the held-out folds,
    comes from the family core's per-fold totals. Criteria within TIE_RTOL
    of the smallest count as tied, and the first of them in candidate order
    wins. The winner is refit on the full sample; its name is returned with
    auto-cal's report, which carries the CV table in diagnostics.
    """
    _check_alpha(alpha)
    winner, adjuster = _autocal_fit(design, candidates, seed)
    return winner, adjuster.report(design, "auto-cal", alpha)


def ols_trainer(covariates: np.ndarray, outcomes: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Built-in trainer: least squares of outcomes on covariates with intercept."""
    x = _as_matrix(covariates)
    y = np.asarray(outcomes, dtype=np.float64)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(len(x)), x]), y, rcond=None)

    def predict(xnew: np.ndarray) -> np.ndarray:
        return coef[0] + _as_matrix(xnew) @ coef[1:]

    return predict


def crossfit_calibrated(
    labeled_covariates,
    labeled_outcomes,
    unlabeled_covariates,
    trainer: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]],
    calibration_method: str = "iso-cal",
    k: int = 5,
    seed: int = 0,
    alpha: float = 0.05,
) -> EstimateReport:
    """Cross-fitted calibrated estimate when the score model is trained in-house.

    For each fold, the trainer is fit on the other folds and produces
    out-of-fold scores for the held-out labeled rows and scores for every
    unlabeled row. One calibrator is then fit on the pooled out-of-fold
    (score, outcome) pairs. Labeled rows are calibrated through their own
    out-of-fold score; unlabeled predictions average the calibrated scores
    over the K fold models, which makes them invariant to fold relabeling.

    trainer(covariates, outcomes) returns a score function that maps a
    covariate matrix to a score vector. Trainers must be deterministic given
    their inputs; this is what makes cross-fitted results reproducible.
    """
    _check_alpha(alpha)
    x_l = _as_matrix(labeled_covariates)
    y = np.asarray(labeled_outcomes, dtype=np.float64)
    x_u = _as_matrix(unlabeled_covariates)
    n = len(y)
    if x_l.shape[0] != n:
        raise DataError(f"labeled covariates have {x_l.shape[0]} rows, outcomes have {n}")
    k = _integer(k, "cross-fitting needs an integer number of folds k, got {!r}")
    if k < 2:
        raise ConfigError(f"cross-fitting needs k >= 2 folds, got {k}")
    if k > n:
        raise ConfigError(f"cannot split n={n} labeled points into k={k} folds")
    name = method_name(calibration_method)
    _check_selectable(name, "cannot be used as a cross-fit calibration")

    fold_of = _fold_blocks(n, k, (seed, CROSSFIT_SHUFFLE))
    oof = np.empty(n)
    unl_by_fold = np.empty((k, len(x_u)))
    for j in range(k):
        held = fold_of == j
        try:
            model = trainer(x_l[~held], y[~held])
            oof[held] = np.asarray(model(x_l[held]), dtype=np.float64).reshape(-1)
            unl_by_fold[j] = np.asarray(model(x_u), dtype=np.float64).reshape(-1)
        except Exception as exc:
            raise DataError(f"trainer failed on fold {j}: {exc}") from exc
    if not (np.isfinite(oof).all() and np.isfinite(unl_by_fold).all()):
        raise DataError("trainer produced non-finite scores")

    design = design_from_arrays(oof, y, unl_by_fold.mean(axis=0))
    f = REGISTRY[name].fit(design).f
    pred_u = np.mean([cal.predict(f, unl_by_fold[j]) for j in range(k)], axis=0)
    scored = ScoredDesign(design, cal.predict(f, oof), pred_u)
    return family_report(scored, f"crossfit-{name}", alpha, {"folds": int(k), "calibration": name})
