"""Cross-validated method selection and K-fold cross-fitting.

autocal_select picks among candidate estimators by the cross-validated
influence-function variance: each candidate's calibration step is refit on
out-of-fold labeled data and its variance criterion evaluated on the held-out
fold plus a capped unlabeled subsample. Every fold refits a candidate by its
one pair fit on the labeled sample's cached score order, the fold's rows
masked out. The criterion of all folds comes from one call of the family
core per candidate, which takes every fold as its own design from per-fold
sums (np.bincount over fold ids); no design or report is built per fold.
The winner's refit, its diagnostics plus the CV table, is auto-cal's fit.

crossfit_calibrated implements the out-of-fold pipeline for a user-supplied
score trainer: out-of-fold predictions for the labeled rows, one calibrator
fit on the pooled out-of-fold pairs, and fold-averaged calibrated predictions
for the unlabeled rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import calibrators as cal
from ._rng import CROSSFIT_SHUFFLE, FOLD_SHUFFLE, UNLABELED_SUBSAMPLE, _integer, substream
from .design import EstimateReport, TwoSampleDesign, _as_matrix, design_from_arrays
from .estimators import (
    REGISTRY,
    Adjuster,
    ScoredDesign,
    _family_core,
    _unlabeled_side,
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
    if REGISTRY[name].pair_fit is None:
        choices = ", ".join(key for key, method in REGISTRY.items() if method.pair_fit is not None)
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


def _fold_blocks(n: int, k: int, rng_key: Tuple[int, ...]) -> List[np.ndarray]:
    perm = substream(*rng_key).permutation(n)
    return np.array_split(perm, k)


def _autocal_fit(design: TwoSampleDesign, candidates: CandidateSet, seed: int) -> Tuple[str, Adjuster]:
    """The winner and auto-cal's adjuster: the winner's refit, its diagnostics plus the CV table."""
    if not isinstance(candidates, CandidateSet):
        raise ConfigError(f"candidates must be a CandidateSet, got {type(candidates).__name__}")
    n, N = design.n, design.N
    k = min(candidates.folds, n // 2)
    if k < 2:
        raise ConfigError(f"selection needs n >= 4 labeled points, got n={n}")
    fold_of = np.empty(n, dtype=np.intp)
    for j, rows in enumerate(_fold_blocks(n, k, (seed, FOLD_SHUFFLE))):
        fold_of[rows] = j
    cap = min(N, candidates.unlabeled_cap_factor * n)
    if cap < N:
        sub_idx = substream(seed, UNLABELED_SUBSAMPLE).choice(N, size=cap, replace=False)
        unl_sub = design.unlabeled.take(sub_idx)
    else:
        # the folds then share the design's sample, and its sort, with the winner's refit
        unl_sub = design.unlabeled
    lab = design.labeled
    order = lab.score_order
    s, y, fold = lab.scores[order], lab.outcomes[order], fold_of[order]
    held = np.bincount(fold, minlength=k)
    # per fold: its rows, then the training pairs and the held-out scores, in score order
    splits = [(out, s[~out], y[~out], s[out]) for out in (fold == j for j in range(k))]

    criteria = {}
    for name in candidates.methods:
        if name in criteria:  # duplicate candidates: first occurrence wins
            continue
        pair_fit = REGISTRY[name].pair_fit
        f_l, mu, css = np.empty(n), np.empty(k), np.empty(k)
        for j, (out, s_train, y_train, s_held) in enumerate(splits):
            f = pair_fit(s_train, y_train).f
            f_l[out] = cal.predict(f, s_held)
            _, mu[j], css[j] = _unlabeled_side(f, unl_sub)
        # sum_j M_j SE_j^2 / k: each fold a design of its held-out rows and the subsample
        total = _family_core(f_l, y, (cap, mu, css), "auto-cal", (fold, held)).total
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
    call. Each fold is fit by the candidate's pair fit on the labeled rows
    in the sample's cached score order (a stable sort, which an iso-cal
    winner's refit reuses) with the fold's own rows masked out. The
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

    folds = _fold_blocks(n, k, (seed, CROSSFIT_SHUFFLE))
    oof = np.empty(n)
    unl_by_fold = np.empty((k, len(x_u)))
    for j, fold in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        try:
            model = trainer(x_l[mask], y[mask])
            oof[fold] = np.asarray(model(x_l[fold]), dtype=np.float64).reshape(-1)
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
