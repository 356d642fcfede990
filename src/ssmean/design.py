"""Two-sample data model shared by every estimator.

A design holds a labeled sample of (score, outcome) pairs and an unlabeled
sample of scores, where "score" means the value of a black-box prediction
model evaluated at each unit's covariates. Optional covariate matrices are
carried only for the covariate-adjusted linear calibration method.

All arrays are stored as read-only float64; instances are immutable and safe
to share across threads. An unlabeled sample also keeps two things computed
from its scores on first use: a sorted copy (8 bytes per row, held for the
sample's lifetime) and the scores' mean and root centered sum of squares,
also kept scaled by the power of two that brings the scores into (-1, 1).
Every estimate run on a sample, and every auto-cal fold that shares it,
reuses them; this is what lets estimators._summaries summarise step and
affine adjustments on the unlabeled side without evaluating them per row.
A labeled sample keeps the stable order of its scores (score_order), and its
pairs in that order with the place of every row in it (by_score), which every
method's fit, auto-cal's folds, the winner's refit and the bootstrap's
replicates all read. A sample's take(rows) gathers rows into a new sample
without checking the values again; the bootstrap's unlabeled resamples, and
auto-cal's replicates, are built that way.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .exceptions import DataError, DimensionError

__all__ = [
    "LabeledSample",
    "UnlabeledSample",
    "TwoSampleDesign",
    "EstimateReport",
    "design_from_arrays",
]


def _read_only(*arrays):
    """The arrays, made read-only in place: the one array, or a tuple of them."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


def _as_readonly_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"{name} is empty")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise DataError(f"{name} has non-finite value at index {bad[0]}")
    return _read_only(arr.copy())


def _as_matrix(x) -> np.ndarray:
    """x as a float64 array, a vector taken as one column; the caller checks its shape and values."""
    arr = np.asarray(x, dtype=np.float64)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def _as_readonly_matrix(x, n_rows: int, name: str) -> np.ndarray:
    arr = _as_matrix(x)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got shape {arr.shape}")
    if arr.shape[0] != n_rows:
        raise DimensionError(
            f"{name} has {arr.shape[0]} rows, expected {n_rows}"
        )
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"{name} has non-finite value at row {i}, column {j}")
    return _read_only(arr.copy())


def _taken(sample, rows):
    """A new sample of sample's type holding the given rows of each array field, read-only.

    The values passed the checks when sample was built, so they are not
    checked again; only a selection that is not one-dimensional, or is
    empty, is refused.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise DimensionError(f"rows must be one-dimensional, got shape {rows.shape}")
    out = object.__new__(type(sample))
    for name in (f.name for f in fields(sample)):
        arr = getattr(sample, name)
        object.__setattr__(out, name, None if arr is None else _read_only(arr[rows]))
    if out.scores.size == 0:
        raise DataError(f"{type(sample).__name__}.take selects no rows")
    return out


@dataclass(frozen=True)
class LabeledSample:
    """Scores m(X_i) paired with observed outcomes Y_i, plus optional covariates."""

    scores: np.ndarray
    outcomes: np.ndarray
    covariates: Optional[np.ndarray] = None

    def __post_init__(self):
        scores = _as_readonly_vector(self.scores, "labeled scores")
        outcomes = _as_readonly_vector(self.outcomes, "labeled outcomes")
        if len(scores) != len(outcomes):
            raise DimensionError(
                f"labeled scores (n={len(scores)}) and outcomes (n={len(outcomes)}) differ in length"
            )
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "outcomes", outcomes)
        if self.covariates is not None:
            object.__setattr__(
                self, "covariates", _as_readonly_matrix(self.covariates, len(scores), "labeled covariates")
            )

    @property
    def n(self) -> int:
        return len(self.scores)

    def take(self, rows) -> "LabeledSample":
        """The sample restricted to rows (an index array or a boolean mask), in that order.

        Scores, outcomes and covariate rows stay aligned. The values are not
        checked again, since they passed this sample's checks.
        """
        return _taken(self, rows)

    @cached_property
    def score_order(self) -> np.ndarray:
        """Row indices of the scores in ascending order, ties in row order, read-only; sorted once, on first use."""
        return _read_only(np.argsort(self.scores, kind="stable"))

    @cached_property
    def by_score(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(scores, outcomes, rank): the pairs in score_order, and the place in it of every row; read-only, on first use.

        With score_order it takes 32 bytes per labeled row, kept for the
        sample's lifetime. Every method's fit, every auto-cal fold, the
        winner's refit and the bootstrap's replicates read it, so the labeled
        sample is sorted at most once.
        """
        order = self.score_order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return _read_only(self.scores[order], self.outcomes[order], rank)

    @cached_property
    def tie_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """(group, distinct): the tie group of every score of by_score, numbered up from 0, and each group's score.

        A group is a run of equal scores, and distinct[g] is group g's
        score. 0.0 and -0.0 are one group, whose score is 0.0, so it does not
        depend on which rows a set holds. iso-cal and venn-abers count any set
        of rows into its tie blocks from them, with no sort. Read-only, on
        first use.
        """
        s = self.by_score[0]
        first = np.concatenate(([True], s[1:] != s[:-1]))
        return _read_only(np.cumsum(first) - 1, s[first] + 0.0)

    @cached_property
    def score_mse(self) -> float:
        """mean((outcomes - scores)**2), the raw score's calibration MSE, inf or NaN where it overflows float64.

        Every calibrated method's report gives it as calibration_mse_before
        (None where it is not finite), so it is computed once, on first use,
        with no numpy warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.mean((self.outcomes - self.scores) ** 2))


@dataclass(frozen=True)
class UnlabeledSample:
    """Scores m(X̃_j) for units whose outcome is unobserved."""

    scores: np.ndarray
    covariates: Optional[np.ndarray] = None

    def __post_init__(self):
        scores = _as_readonly_vector(self.scores, "unlabeled scores")
        object.__setattr__(self, "scores", scores)
        if self.covariates is not None:
            object.__setattr__(
                self, "covariates", _as_readonly_matrix(self.covariates, len(scores), "unlabeled covariates")
            )

    @property
    def n(self) -> int:
        return len(self.scores)

    def take(self, rows) -> "UnlabeledSample":
        """The sample restricted to rows (an index array or a boolean mask), in that order.

        Scores and covariate rows stay aligned; the sorted copy and moments
        are computed afresh for the new sample on first use. The values are
        not checked again, since they passed this sample's checks.
        """
        return _taken(self, rows)

    @cached_property
    def sorted_scores(self) -> np.ndarray:
        """The scores in ascending order, read-only; sorted once, on first use."""
        return _read_only(np.sort(self.scores))

    @cached_property
    def score_moments(self) -> Tuple[float, float]:
        """The scores' mean and root centered sum of squares: scaled_moments scaled back by 2**e."""
        mean, root, e = self.scaled_moments
        with np.errstate(over="ignore"):
            return float(np.ldexp(mean, e)), float(np.ldexp(root, e))

    @cached_property
    def scaled_moments(self) -> Tuple[float, float, int]:
        """(mean, root, e): the mean and root centered sum of squares of the scores times 2**-e.

        e is the exponent of the largest |score|, so the scaling is exact and
        no sum or square overflows; the root then scales with any coefficient
        applied to the scores without under- or overflowing in between.
        ppi-pp's and aipw-em's fits take Var_U(m) and mean_U(m^2) from it, and
        the unlabeled summary of an unclipped affine map of the score (and
        venn-abers' anchor, through score_moments) the mean and root, so none
        of them reads an unlabeled score. Computed once, on first use, and
        kept with sorted_scores (8 bytes per row) for the sample's lifetime:
        every method run on a design, and every auto-cal fold that shares its
        sample, reuses both.
        """
        e = int(np.frexp(np.abs(self.scores).max())[1])
        dev = np.ldexp(self.scores, -e)
        mean = float(dev.mean())
        dev -= mean
        return mean, float(np.sqrt(np.sum(np.square(dev, out=dev)))), e


@dataclass(frozen=True)
class TwoSampleDesign:
    """A labeled and an unlabeled sample with the derived labeled fraction.

    The labeled fraction rho = n / (n + N) is always computed from the stored
    sample sizes and is never user-supplied.
    """

    labeled: LabeledSample
    unlabeled: UnlabeledSample

    def __post_init__(self):
        lc, uc = self.labeled.covariates, self.unlabeled.covariates
        if lc is not None and uc is not None and lc.shape[1] != uc.shape[1]:
            raise DimensionError(
                f"covariate dimension mismatch: labeled d={lc.shape[1]}, unlabeled d={uc.shape[1]}"
            )

    @property
    def n(self) -> int:
        return self.labeled.n

    @property
    def N(self) -> int:
        return self.unlabeled.n

    @property
    def m_total(self) -> int:
        return self.n + self.N

    @property
    def rho(self) -> float:
        return self.n / self.m_total


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with standard error, confidence interval, and diagnostics."""

    estimate: float
    std_error: float
    ci_lower: float
    ci_upper: float
    alpha: float
    method: str
    n: int
    N: int
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "ci": [self.ci_lower, self.ci_upper],
            "alpha": self.alpha,
            "n": self.n,
            "N": self.N,
            "diagnostics": self.diagnostics,
        }


def design_from_arrays(
    labeled_scores,
    labeled_outcomes,
    unlabeled_scores,
    labeled_covariates=None,
    unlabeled_covariates=None,
) -> TwoSampleDesign:
    """Convenience constructor from raw arrays."""
    return TwoSampleDesign(
        LabeledSample(labeled_scores, labeled_outcomes, labeled_covariates),
        UnlabeledSample(unlabeled_scores, unlabeled_covariates),
    )
