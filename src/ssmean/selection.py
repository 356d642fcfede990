"""Cross-validated method selection and K-fold cross-fitting.

autocal_select picks among candidate estimators by the cross-validated
influence-function variance: each candidate's calibration step is refit on
out-of-fold labeled data and its variance criterion evaluated on the held-out
fold plus a capped unlabeled subsample. Every method but auto-cal is a
candidate. A candidate's criterion comes from one call of
estimators._stacked_core: its k fold fits in one call of its fold-stacked
fit core, on every fold's training rows, with one capped unlabeled
subsample as every fold's unlabeled sample, and fold j's map scored at the
fold's held-out rows in row order, so fold j's term is, bit for bit, the
family core of the design of those rows and the subsample. One array of
training rows and one of held-out rows serve every candidate
(calibrators' comment "fold-stacked fits" tells this route). The winner's
refit, the k = 1 call of its core with the CV
table as its last diagnostics, is auto-cal's fit, which estimate()'s route
(Method.run) takes as it takes any method's; so does autocal_select, with
its own candidates.

crossfit_calibrated implements the out-of-fold pipeline for a user-supplied
score trainer: out-of-fold predictions for the labeled rows, one calibrator
fit on the pooled out-of-fold pairs, and fold-averaged calibrated predictions
for the unlabeled rows. Its calibration is any method but auto-cal, fit by
the method's own k = 1 fit on the design of the out-of-fold scores, whose
map is evaluated at the scores of each fold model (the stack's at()).
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
    METHOD_NAMES,
    REGISTRY,
    ScoredDesign,
    _AutoCal,
    _stacked_core,
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
    if name == "auto-cal":
        raise ConfigError(f"{name!r} {role}; choose from {', '.join(m for m in METHOD_NAMES if m != name)}")


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


# estimate()'s auto-cal: these four with CandidateSet's default folds and cap
AUTO_CAL_CANDIDATES = CandidateSet(["aipw", "linear-cal", "iso-cal", "hist-cal"])


def _fold_blocks(n: int, k: int, rng_key: Tuple[int, ...]) -> np.ndarray:
    """The fold of every row: a keyed permutation cut into k contiguous blocks
    of np.array_split's sizes (the first n % k of them one row longer)."""
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    # the smallest integer type: _fold_rows sorts and compares the fold ids
    fold = np.empty(n, dtype=np.min_scalar_type(k))
    fold[substream(*rng_key).permutation(n)] = np.repeat(np.arange(k), sizes)
    return fold


def _fold_rows(fold: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every fold's held-out rows and every fold's training rows, each fold-major, each fold's ascending."""
    grid = np.broadcast_to(np.arange(len(fold)), (k, len(fold)))
    return np.argsort(fold, kind="stable"), grid[fold != np.arange(k, dtype=fold.dtype)[:, None]]


def _cv_folds(design: TwoSampleDesign, candidates: CandidateSet) -> int:
    """The number of folds; ConfigError unless candidates is a CandidateSet and the design has n >= 4."""
    if not isinstance(candidates, CandidateSet):
        raise ConfigError(f"candidates must be a CandidateSet, got {type(candidates).__name__}")
    k = min(candidates.folds, design.n // 2)
    if k < 2:
        raise ConfigError(f"selection needs n >= 4 labeled points, got n={design.n}")
    return k


def _autocal_fit(design: TwoSampleDesign, candidates: CandidateSet, seed: int):
    """auto-cal's fit, as Method.fit gives it: the winner's refit, with the CV table."""
    n, N = design.n, design.N
    k = _cv_folds(design, candidates)
    fold_of = _fold_blocks(n, k, (seed, FOLD_SHUFFLE))
    cap = min(N, candidates.unlabeled_cap_factor * n)
    if cap < N:
        unl_sub = design.unlabeled.take(substream(seed, UNLABELED_SUBSAMPLE).choice(N, size=cap, replace=False))
    else:
        # the folds then share the design's sample, and its sort, with the winner's refit
        unl_sub = design.unlabeled
    context = cal._Context(design.labeled, unl_sub)
    # each fold's held-out and training rows of the sample in score order, in row order
    rank = design.labeled.by_score[2]
    held_out, train = (rank[rows] for rows in _fold_rows(fold_of, k))
    held = np.bincount(fold_of, minlength=k)
    scored = held_out, np.concatenate(([0], np.cumsum(held)))
    sets = train, np.concatenate(([0], np.cumsum(n - held)))

    criteria = {}
    for name in candidates.methods:
        if name in criteria:  # duplicate candidates: first occurrence wins
            continue
        # sum_j M_j SE_j^2 / k: each fold a design of its held-out rows and the subsample
        total = _stacked_core(REGISTRY[name], context, sets, scored, "auto-cal").total
        with np.errstate(over="ignore"):
            criterion = float(np.sum(total / (held + cap))) / k
        if not math.isfinite(criterion):
            raise DataError("auto-cal: standard error overflows float64; rescale the scores and outcomes")
        criteria[name] = criterion

    best = min(criteria.values())
    winner = next(name for name, c in criteria.items() if c - best <= TIE_RTOL * best)
    cv = {"selected": winner, "cv_criteria": {name: float(v) for name, v in criteria.items()},
          "cv_folds": int(k), "cv_unlabeled_subsample": int(cap)}
    return REGISTRY[winner].fit(design)._replace(extra=cv)


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
    on every fold's training rows in row order, as the method's own fit
    reads a design's rows, so fold j's map is bit for bit the method's fit
    of the rows outside fold j. The criterion of a candidate is sum_j M_j
    SE_j^2 / k over the held-out folds, where M_j SE_j^2 is, bit for bit,
    the family core's total for the design of fold j's held-out rows, in
    row order, and the subsample. Criteria within TIE_RTOL of the smallest count as
    tied, and the first of them in candidate order wins. The winner is
    refit on the full sample; its name is returned with auto-cal's report,
    which carries the CV table in diagnostics.
    """
    _check_alpha(alpha)
    # refused before estimate()'s n >= 2 check, as a selection
    _cv_folds(design, candidates)
    report = _AutoCal(candidates=candidates).run(design, "auto-cal", alpha, seed)[1]
    return report.diagnostics["selected"], report


def ols_trainer(covariates: np.ndarray, outcomes: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Built-in trainer: least squares of outcomes on covariates with intercept."""
    x = _as_matrix(covariates)
    y = np.asarray(outcomes, dtype=np.float64)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(len(x)), x]), y, rcond=None)

    def predict(xnew: np.ndarray) -> np.ndarray:
        return coef[0] + _as_matrix(xnew) @ coef[1:]

    return predict


def crossfit_calibrated(
    labeled_covariates, labeled_outcomes, unlabeled_covariates,
    trainer: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]],
    calibration_method: str = "iso-cal", k: int = 5, seed: int = 0, alpha: float = 0.05,
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

    # only linear-cov-cal reads the covariates
    design = design_from_arrays(oof, y, unl_by_fold.mean(axis=0), *((x_l, x_u) if name == "linear-cov-cal" else ()))
    maps = REGISTRY[name].fit(design).maps
    pred_u = np.mean([maps.at(0, unl_by_fold[j], design.unlabeled.covariates) for j in range(k)], axis=0)
    scored = ScoredDesign(design, maps.at(0, oof, design.labeled.covariates), pred_u)
    return family_report(scored, f"crossfit-{name}", alpha, {"folds": int(k), "calibration": name})
