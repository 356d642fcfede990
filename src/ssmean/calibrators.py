"""Post-hoc calibration maps fit on the labeled sample.

Each fit_* function learns a transformation of the prediction score from
labeled (score, outcome) pairs; predict() evaluates a fitted calibrator at
arbitrary scores. Supported families: isotonic step functions (exact
least-squares monotone fit via pooled adjacent violators), affine least
squares in the score and, through fit_linear_cov, in covariates (one
AffineCalibrator class, whose covariate coefficients are otherwise empty),
Platt scaling (logistic loss on the stabilized logit), histogram binning on
a fixed partition, and Venn-Abers interval shrinkage. The Venn-Abers
interval at a score holds the values there of the isotonic fits with that
score added under label 0 and under label 1; it depends only on the score's
place among the unique labeled scores, so the shrunk map is a step
function. Its values come from two amortized-linear stack passes over one
cumulative-sum diagram of the labeled sample, one per label, with no
isotonic fit per evaluation point.

The step maps (isotonic, Venn-Abers and histogram) also give their cut
points and block values through steps(), so the counts of a sorted sample
in each block stand in for evaluating them per score.

The isotonic, affine, Platt and histogram fits each have one fold-stacked
core that fits k training sets in one call (see "fold-stacked fits"
below); every fit_* function and every registry fit is its k = 1 call, and
auto-cal's cross-validation calls it once on all its folds.

Fitted calibrators are immutable. A fit keeps a read-only copy of its
training (score, outcome) pairs in fitted_on, which is left out of equality
and repr; estimators.calibrated_plugin compares it with a design's labeled
pairs to refuse a calibrator fit on another sample.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .design import LabeledSample, _as_matrix
from .exceptions import ConfigError, ConvergenceError, DataError, DimensionError

__all__ = [
    "StepCalibrator",
    "AffineCalibrator",
    "SigmoidCalibrator",
    "BinnedCalibrator",
    "fit_isotonic",
    "fit_linear",
    "fit_platt",
    "fit_histogram",
    "fit_linear_cov",
    "fit_venn_abers",
    "predict",
]

DEFAULT_LOGIT_EPS = 1e-6
DEFAULT_HISTOGRAM_BINS = 10

_PLATT_MAX_ITER = 100
_PLATT_GRAD_TOL = 1e-10
_PLATT_RIDGE = 1e-8
_PLATT_DECREMENT_ULPS = 8


def _freeze(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64).copy()
    out.setflags(write=False)
    return out


def _pairs(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A fit's fitted_on: a read-only copy of its (score, outcome) pairs."""
    return _freeze(np.column_stack((s, y)))


@dataclass(frozen=True)
class StepCalibrator:
    """Step function of the score: the isotonic fit, or the Venn-Abers map.

    The prediction is values[j] on [boundaries[j], boundaries[j+1]),
    values[0] below boundaries[1] and values[-1] from boundaries[-1] on. For
    the isotonic fit, values are nondecreasing and boundaries[j] is the
    smallest training score of block j, so this floor lookup reproduces the
    fitted value of every training point exactly. Equal boundaries leave an
    empty block; boundaries that are NaN or decrease are refused with
    ConfigError, since the map would then disagree with its own steps().
    """

    boundaries: np.ndarray
    values: np.ndarray
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        b = _freeze(self.boundaries)
        # a NaN fails every comparison, so only a lone first boundary needs its own test
        if b.ndim != 1 or len(b) == 0 or math.isnan(b[0]) or not (b[1:] >= b[:-1]).all():
            raise ConfigError("boundaries must be a nonempty nondecreasing vector with no NaN")
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "values", _freeze(self.values))
        if len(self.values) != len(self.boundaries):
            raise DimensionError("values must have one entry per boundary")

    def __call__(self, scores) -> np.ndarray:
        t = np.asarray(scores, dtype=np.float64)
        idx = np.searchsorted(self.boundaries, t, side="right") - 1
        return self.values[np.maximum(idx, 0, out=idx)]

    def steps(self) -> Tuple[np.ndarray, np.ndarray]:
        """(cuts, values): values[j] on [cuts[j-1], cuts[j]), unbounded at both ends."""
        return self.boundaries[1:], self.values


@dataclass(frozen=True)
class AffineCalibrator:
    """Affine map slope * score + intercept, optionally clipped.

    With covariate coefficients (fit_linear_cov) the map is
    (intercept + covariates @ cov_coefs) + slope * score, and it needs a
    covariate matrix of one row per score. cov_coefs is kept as a tuple of
    floats, so maps compare and hash by value. Every coefficient must be
    finite (DataError) and a clip range must have lo <= hi (ConfigError).
    """

    slope: float
    intercept: float
    clip_range: Optional[Tuple[float, float]] = None
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    cov_coefs: Tuple[float, ...] = ()

    def __post_init__(self):
        coefs = np.asarray(self.cov_coefs, dtype=np.float64)
        if coefs.ndim != 1:
            raise DimensionError(f"cov_coefs must be a vector, got shape {coefs.shape}")
        object.__setattr__(self, "cov_coefs", tuple(coefs.tolist()))
        if not all(map(math.isfinite, (self.slope, self.intercept, *self.cov_coefs))):
            raise DataError("affine calibrator coefficients must be finite")
        # a NaN bound fails the comparison
        if self.clip_range is not None and not self.clip_range[0] <= self.clip_range[1]:
            raise ConfigError(f"invalid clip range {self.clip_range}")

    def __call__(self, scores, covariates=None) -> np.ndarray:
        t = np.asarray(scores, dtype=np.float64)
        d = len(self.cov_coefs)
        if d == 0:
            return _affine(self.slope, self.intercept, self.clip_range, t)
        if covariates is None:
            raise DimensionError("covariate-adjusted calibrator needs covariates at prediction time")
        x = _as_matrix(covariates)
        if x.shape != (len(t), d):
            raise DimensionError(f"covariates have shape {x.shape}, expected ({len(t)}, {d})")
        return _affine(self.slope, self.intercept + x @ self.cov_coefs, self.clip_range, t)


def _affine(slope, intercept, clip: Optional[Tuple], t: np.ndarray) -> np.ndarray:
    """slope * t + intercept, clipped to clip = (lo, hi) unless None."""
    out = slope * t
    out += intercept
    return out if clip is None else np.clip(out, clip[0], clip[1])


@dataclass(frozen=True)
class SigmoidCalibrator:
    """Platt map sigma(scale * logit(score) + shift); predictions in (0, 1).

    ridge_active records that the fit needed the ridge penalty (separable
    labels or a near-singular Hessian).
    """

    scale: float
    shift: float
    logit_eps: float = DEFAULT_LOGIT_EPS
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    ridge_active: bool = False

    def __post_init__(self):
        if not (0.0 < self.logit_eps < 0.5):
            raise ConfigError(f"logit_eps must lie in (0, 0.5), got {self.logit_eps}")
        if not (np.isfinite(self.scale) and np.isfinite(self.shift)):
            raise DataError("sigmoid calibrator coefficients must be finite")

    def __call__(self, scores) -> np.ndarray:
        return _sigmoid(self.scale, self.shift, self.logit_eps, scores)


def _checked_edges(edges) -> np.ndarray:
    """A read-only copy of histogram edges; ConfigError unless finite, strictly increasing and at least two."""
    edges = _freeze(edges)
    # a NaN fails every comparison, and only the end edges of an increasing vector can be infinite
    increasing = edges.ndim == 1 and len(edges) >= 2 and (edges[1:] > edges[:-1]).all()
    if not (increasing and math.isfinite(edges[0]) and math.isfinite(edges[-1])):
        raise ConfigError("edges must be a finite, strictly increasing vector with at least two entries")
    return edges


@dataclass(frozen=True)
class BinnedCalibrator:
    """Per-bin outcome means on a fixed partition; empty bins use the fallback.

    Scores below and above the partition take the end bins' means, so this
    is a step function with StepCalibrator's floor lookup at the inner edges.
    The edges must be finite and strictly increasing, at least two of them
    (ConfigError otherwise).
    """

    edges: np.ndarray
    bin_means: np.ndarray
    fallback: float
    empty_bins: int = 0
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", _checked_edges(self.edges))
        object.__setattr__(self, "bin_means", _freeze(self.bin_means))
        if len(self.bin_means) != len(self.edges) - 1:
            raise DimensionError("bin_means must have one entry per bin")

    def __call__(self, scores) -> np.ndarray:
        t = np.asarray(scores, dtype=np.float64)
        # a score's bin is the count of inner edges at or below it; the end bins extend outward
        return self.bin_means[np.searchsorted(self.edges[1:-1], t, side="right")]

    def steps(self) -> Tuple[np.ndarray, np.ndarray]:
        """(cuts, values) as in StepCalibrator.steps: the inner edges and the bin means."""
        return self.edges[1:-1], self.bin_means


def _check_xy(scores, outcomes):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    if s.ndim != 1 or y.ndim != 1:
        raise DimensionError("scores and outcomes must be one-dimensional")
    if len(s) != len(y):
        raise DimensionError(f"scores (n={len(s)}) and outcomes (n={len(y)}) differ in length")
    if len(s) == 0:
        raise DataError("empty training sample")
    if not np.isfinite(s).all():
        raise DataError("scores have non-finite entries")
    if not np.isfinite(y).all():
        raise DataError("outcomes have non-finite entries")
    return s, y


def pava(values, weights) -> np.ndarray:
    """Weighted least-squares nondecreasing fit of values already ordered by the score.

    SciPy's pooled-adjacent-violators. scipy.optimize is slow to import, so it
    is imported on the first fit rather than by ``import ssmean``.
    """
    from scipy.optimize import isotonic_regression

    return isotonic_regression(values, weights=weights).x


# --- fold-stacked fits ---------------------------------------------------------
#
# Each selectable family has one fit core, core(s, y, rows, bounds), that fits
# k training sets in one call. s and y are a labeled sample in ascending score
# order (a stable sort); rows holds the k training sets one after another, as
# indices into s and y: fold j's in rows[bounds[j]:bounds[j+1]], in the order
# the fit reads them. The core returns the k maps stacked in one *Folds
# value: map(j) is map j as a calibrator, and on_sample(fold, s) is the value
# of map fold[p] at s[p] for every p. Every fit_* function and every registry
# fit is the k = 1 call, so fold j of a k-fold call equals the fit of fold j's
# rows alone, bit for bit.


def _single(s: np.ndarray, y: np.ndarray, rank: np.ndarray, ordered: bool):
    """A core's arguments for its k = 1 call on a sample's pairs s, y in score order, rank the place of every row.

    The one training set is every row: in score order if ordered, else in row order.
    """
    return s, y, np.arange(len(s)) if ordered else rank, np.array([0, len(s)])


def _by_segment(reduce, bounds: np.ndarray, *arrays) -> np.ndarray:
    """reduce(*rows) over each segment [bounds[j], bounds[j+1]) of the arrays, one value per segment.

    A run of segments of one length is reduced as the rows of one matrix, and
    numpy sums each row of a matrix exactly as it sums that row alone
    (pairwise for mean, BLAS for vecdot); so segment j's value equals the
    one-segment call's on its rows bit for bit. Fold sizes take at most two
    lengths, so this is two reductions, not k.
    """
    b = bounds.tolist()
    out, first = [], 0
    for j in range(1, len(b)):
        # a run ends where the next segment's length differs, or at the last segment
        if j + 1 == len(b) or b[j + 1] - b[j] != b[j] - b[j - 1]:
            rows = slice(b[first], b[j])
            out.append(reduce(*(x[rows].reshape(j - first, -1) for x in arrays)))
            first = j
    return out[0] if len(out) == 1 else np.concatenate(out)


def _segment_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """values[a:b].mean() of each segment, bit for bit: mean is the pairwise sum over the count."""
    return _by_segment(lambda rows: np.add.reduce(rows, axis=1) / rows.shape[1], bounds, values)


def _spans(cut_fold: np.ndarray, below: np.ndarray, k: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper): the rows of a sorted sample of n scores in each block of k stacked step maps.

    below[c] counts the sample's scores under cut c, and cut_fold[c] is its
    map. Map j has one more block than cuts, and its blocks follow those of
    the maps before it, so cut c closes block c + cut_fold[c] and opens the
    next; a map's first block opens at 0 and its last closes at n.
    """
    closing = np.arange(len(below)) + cut_fold
    upper = np.full(len(below) + k, n)
    upper[closing] = below
    lower = np.zeros(len(below) + k, dtype=upper.dtype)
    lower[closing + 1] = below
    return lower, upper


def _cells(cut_fold: np.ndarray, below: np.ndarray, k: int, n: int, cell: np.ndarray) -> np.ndarray:
    """The block among k stacked step maps of each cell = fold * n + position: map fold's block holding the
    score at that position of a sorted sample of n scores.

    below[c] counts the sample's scores under cut c, so a map's blocks split
    the n positions into runs (_spans); the runs of all k maps, one after
    another, name every cell's block, with no search per score:
    StepCalibrator's floor lookup.
    """
    lower, upper = _spans(cut_fold, below, k, n)
    return np.repeat(np.arange(len(upper)), upper - lower)[cell]


class _StepFolds:
    """k step maps stacked; steps() gives (fold of each cut, cuts, values), each fold's cuts ascending."""

    def on_sample(self, fold: np.ndarray, s: np.ndarray) -> np.ndarray:
        cut_fold, cuts, values = self.steps()
        n = len(s)
        return values[_cells(cut_fold, np.searchsorted(s, cuts), len(values) - len(cuts), n, fold * n + np.arange(n))]


@dataclass(frozen=True)
class _IsotonicFolds(_StepFolds):
    """k isotonic fits: map j is StepCalibrator(boundaries[a:b], values[a:b]) with a, b = bounds[j:j+2]."""

    boundaries: np.ndarray
    values: np.ndarray
    bounds: np.ndarray

    def map(self, j: int = 0, fitted_on=None) -> StepCalibrator:
        rows = slice(self.bounds[j], self.bounds[j + 1])
        return StepCalibrator(self.boundaries[rows], self.values[rows], fitted_on)

    def steps(self):
        # a map's cuts are its boundaries but the first
        counts = self.bounds[1:] - self.bounds[:-1]
        inner = np.ones(len(self.values), dtype=bool)
        inner[self.bounds[:-1]] = False
        return np.repeat(np.arange(len(counts)), counts - 1), self.boundaries[inner], self.values


def _block_starts(st: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The first row of every tie block of sorted segments of scores st, then len(st).

    A block starts at each segment's first row and wherever a score differs
    from its left neighbour.
    """
    starts = np.empty(len(st) + 1, dtype=bool)
    np.not_equal(st[1:], st[:-1], out=starts[1:-1])
    starts[bounds] = True
    return np.flatnonzero(starts)


def _isotonic_folds(s: np.ndarray, y: np.ndarray, rows: np.ndarray, bounds: np.ndarray) -> _IsotonicFolds:
    """The isotonic fits of k training sets; each set's rows must ascend, so its pairs are in stable score order.

    One np.add.reduceat pools every fold's tie blocks (_block_starts), and
    PAVA runs once per fold.
    """
    edges = _block_starts(s[rows], bounds)
    first = edges[:-1]
    w_pooled = np.subtract(edges[1:], first, dtype=np.float64)
    means = np.add.reduceat(y[rows], first) / w_pooled
    # fold j's tie blocks are [blocks[j], blocks[j+1])
    blocks = np.searchsorted(first, bounds)
    fitted = np.concatenate([pava(means[a:b], w_pooled[a:b]) for a, b in zip(blocks[:-1], blocks[1:])])
    # a block is kept where its value rises, and at the start of each fold
    keep = np.empty(len(fitted), dtype=bool)
    np.greater(fitted[1:], fitted[:-1], out=keep[1:])
    keep[blocks[:-1]] = True
    kept = np.flatnonzero(keep)
    return _IsotonicFolds(s[rows[first[kept]]], fitted[kept], np.searchsorted(kept, blocks))


def fit_isotonic(scores, outcomes) -> StepCalibrator:
    """Exact least-squares monotone nondecreasing fit of outcomes on scores.

    Equal scores are pooled by their mean before running PAVA, weighted by
    their count, so the fit is a genuine function of the score. On every
    fitted block the residuals sum to zero.
    """
    s, y = _check_xy(scores, outcomes)
    return _isotonic_folds(*_single(*LabeledSample(s, y).by_score, ordered=True)).map(0, _pairs(s, y))


@dataclass(frozen=True)
class _AffineFolds:
    """k affine maps slope[j] * score + intercept[j], each clipped to (lo[j], hi[j]) when clip is (lo, hi).

    Every coefficient must be finite (DataError), as AffineCalibrator's.
    """

    slope: np.ndarray
    intercept: np.ndarray
    clip: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if not all(map(math.isfinite, [*self.slope.tolist(), *self.intercept.tolist()])):
            raise DataError("affine calibrator coefficients must be finite")

    def map(self, j: int = 0, fitted_on=None) -> AffineCalibrator:
        clip = None if self.clip is None else (float(self.clip[0][j]), float(self.clip[1][j]))
        return AffineCalibrator(float(self.slope[j]), float(self.intercept[j]), clip, fitted_on)

    def at(self, fold, t) -> np.ndarray:
        """Map fold[i] at t[i], or map fold at every t for an integer fold."""
        clip = None if self.clip is None else (self.clip[0][fold], self.clip[1][fold])
        return _affine(self.slope[fold], self.intercept[fold], clip, np.asarray(t, dtype=np.float64))

    on_sample = at


def _unit_folds(s: np.ndarray, y: np.ndarray, rows: np.ndarray, bounds: np.ndarray) -> _AffineFolds:
    """The score itself on every fold, whatever the pairs: aipw's fit."""
    k = len(bounds) - 1
    return _AffineFolds(np.ones(k), np.zeros(k))


def _linear_folds(s: np.ndarray, y: np.ndarray, rows: np.ndarray, bounds: np.ndarray, clip: bool = True) -> _AffineFolds:
    """The least-squares lines of y on s of k training sets (slope 0 for a constant s), clipped to each y's range if clip."""
    s, y = s[rows], y[rows]
    starts, lengths = bounds[:-1], bounds[1:] - bounds[:-1]
    s_mean, y_mean = _segment_means(s, bounds), _segment_means(y, bounds)
    ranges = (np.minimum.reduceat(y, starts), np.maximum.reduceat(y, starts)) if clip else None
    # s and y are centered in place
    sc = np.subtract(s, np.repeat(s_mean, lengths), out=s)
    # weights sc / 2**e lie in (-1, 1), so no product below overflows; a power
    # of two scales both sums exactly, so the slope is sum(sc*yc) / sum(sc*sc)
    w = np.ldexp(sc, np.repeat(-np.frexp(np.maximum.reduceat(np.abs(sc), starts))[1], lengths))
    denom = _by_segment(np.vecdot, bounds, w, sc)
    num = _by_segment(np.vecdot, bounds, w, np.subtract(y, np.repeat(y_mean, lengths), out=y))
    slope = np.divide(num, denom, out=np.zeros(len(starts)), where=denom != 0.0)
    return _AffineFolds(slope, y_mean - slope * s_mean, ranges)


def fit_linear(scores, outcomes, clip: bool = False) -> AffineCalibrator:
    """Least-squares affine calibration of outcomes on scores.

    A zero-variance score degenerates to intercept-only calibration:
    slope 0 and intercept mean(outcomes). When clip is set, predictions are
    clipped to the observed outcome range.
    """
    s, y = _check_xy(scores, outcomes)
    if len(s) < 2:
        raise DataError("linear calibration needs at least two labeled points")
    return _linear_folds(*_single(*LabeledSample(s, y).by_score, ordered=False), clip).map(0, _pairs(s, y))


def _stabilized_logit(m: np.ndarray, eps: float) -> np.ndarray:
    clipped = np.clip(m, eps, 1.0 - eps)
    return np.log(clipped) - np.log1p(-clipped)


def _sigmoid(scale, shift, eps: float, scores) -> np.ndarray:
    """sigma(scale * logit(score) + shift), kept strictly inside (0, 1)."""
    from scipy.special import expit

    out = expit(scale * _stabilized_logit(np.asarray(scores, dtype=np.float64), eps) + shift)
    # the sigmoid never reaches 0 or 1; undo float saturation
    return np.clip(out, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))


def _is_separable(t: np.ndarray, y: np.ndarray) -> bool:
    """Exact separation check for the scalar-feature logistic model.

    The likelihood has no maximizer when one class is degenerate or the two
    classes do not overlap in t (including touching boundaries).
    """
    t0 = t[y == 0.0]
    t1 = t[y == 1.0]
    if len(t0) == 0 or len(t1) == 0:
        return True
    return bool(t0.max() <= t1.min() or t1.max() <= t0.min())


def _platt_newton(t: np.ndarray, y: np.ndarray, ridge_active: bool):
    """Damped Newton for the two-parameter logistic loss.

    Returns (theta, objective_path, ridge_active). The ridge penalty is on
    when the labels are separable or the Hessian turns (near) singular; once
    on it stays on.
    """
    from scipy.special import expit

    theta = np.array([1.0, 0.0])

    def nll(th):
        eta = th[0] * t + th[1]
        val = float(np.sum(np.logaddexp(0.0, eta) - y * eta))
        if ridge_active:
            val += 0.5 * _PLATT_RIDGE * float(th @ th)
        return val

    path = [nll(theta)]
    for _ in range(_PLATT_MAX_ITER):
        eta = theta[0] * t + theta[1]
        p = expit(eta)
        resid = p - y
        grad = np.array([float(np.dot(resid, t)), float(np.sum(resid))])
        if ridge_active:
            grad = grad + _PLATT_RIDGE * theta
        if np.max(np.abs(grad)) < _PLATT_GRAD_TOL:
            return theta, path, ridge_active
        w = p * (1.0 - p)
        h11 = float(np.dot(w, t * t))
        h12 = float(np.dot(w, t))
        h22 = float(np.sum(w))
        hess = np.array([[h11, h12], [h12, h22]])
        if ridge_active:
            hess = hess + _PLATT_RIDGE * np.eye(2)
        det = hess[0, 0] * hess[1, 1] - hess[0, 1] * hess[1, 0]
        if not np.isfinite(det) or det <= 1e-12 * max(hess[0, 0] * hess[1, 1], 1e-300):
            if not ridge_active:
                return _platt_newton(t, y, ridge_active=True)
            raise ConvergenceError("singular Hessian in Platt scaling", last_iterate=tuple(theta))
        step = np.linalg.solve(hess, -grad)
        current = path[-1]
        if -float(grad @ step) <= _PLATT_DECREMENT_ULPS * np.finfo(np.float64).eps * abs(current):
            # the predicted decrease is below the rounding of the loss, so the
            # line search cannot rank steps; the full Newton step is exact to
            # second order here
            return theta + step, path, ridge_active
        scale = 1.0
        for _ in range(60):
            cand = theta + scale * step
            val = nll(cand)
            if val <= current:
                break
            scale *= 0.5
        else:
            # no descent available: at the floating-point floor of the loss
            return theta, path, ridge_active
        theta = theta + scale * step
        path.append(val)
        if not ridge_active and np.max(np.abs(theta)) > 100.0:
            # safety net: drifting toward separation the pre-check missed
            return _platt_newton(t, y, ridge_active=True)
    raise ConvergenceError(
        f"Platt scaling did not converge in {_PLATT_MAX_ITER} iterations",
        last_iterate=tuple(theta),
    )


@dataclass(frozen=True)
class _SigmoidFolds:
    """k Platt maps sigma(scale[j] * logit(score) + shift[j]); every coefficient must be finite, as SigmoidCalibrator's."""

    scale: np.ndarray
    shift: np.ndarray
    ridge_active: np.ndarray
    logit_eps: float = DEFAULT_LOGIT_EPS

    def __post_init__(self):
        if not all(map(math.isfinite, [*self.scale.tolist(), *self.shift.tolist()])):
            raise DataError("sigmoid calibrator coefficients must be finite")

    def map(self, j: int = 0, fitted_on=None) -> SigmoidCalibrator:
        return SigmoidCalibrator(
            float(self.scale[j]), float(self.shift[j]), self.logit_eps, fitted_on, bool(self.ridge_active[j])
        )

    def at(self, fold, t) -> np.ndarray:
        """Map fold[i] at t[i], or map fold at every t for an integer fold."""
        return _sigmoid(self.scale[fold], self.shift[fold], self.logit_eps, t)

    on_sample = at


def _platt_folds(
    s: np.ndarray, y: np.ndarray, rows: np.ndarray, bounds: np.ndarray, logit_eps: float = DEFAULT_LOGIT_EPS
) -> _SigmoidFolds:
    """The Platt fits of k training sets of binary outcomes; Newton's iterations are sequential, so one per fold."""
    y = y[rows]
    t = _stabilized_logit(s[rows], logit_eps)
    fits = [_platt_newton(t[a:b], y[a:b], _is_separable(t[a:b], y[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]
    theta = np.array([theta for theta, _, _ in fits])
    return _SigmoidFolds(theta[:, 0], theta[:, 1], np.array([ridge for _, _, ridge in fits]), logit_eps)


def fit_platt(scores, outcomes, logit_eps: float = DEFAULT_LOGIT_EPS) -> SigmoidCalibrator:
    """Logistic regression of a binary outcome on the stabilized logit of the score."""
    s, y = _check_xy(scores, outcomes)
    if len(s) < 2:
        raise DataError("Platt scaling needs at least two labeled points")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("Platt scaling requires binary outcomes in {0, 1}")
    if not (0.0 < logit_eps < 0.5):
        raise ConfigError(f"logit_eps must lie in (0, 0.5), got {logit_eps}")
    return _platt_folds(*_single(*LabeledSample(s, y).by_score, ordered=False), logit_eps).map(0, _pairs(s, y))


@dataclass(frozen=True)
class _BinnedFolds(_StepFolds):
    """k histogram fits: map j has edges[a:b] with a, b = edge_bounds[j:j+2], the bin means
    bin_means[a-j:b-j-1], and fallback[j] and empty_bins[j]; the cuts are the inner edges."""

    edges: np.ndarray
    edge_bounds: np.ndarray
    bin_means: np.ndarray
    fallback: np.ndarray
    empty_bins: np.ndarray
    cut_fold: np.ndarray
    cuts: np.ndarray

    def map(self, j: int = 0, fitted_on=None) -> BinnedCalibrator:
        a, b = self.edge_bounds[j], self.edge_bounds[j + 1]
        return BinnedCalibrator(
            self.edges[a:b], self.bin_means[a - j : b - j - 1], float(self.fallback[j]), int(self.empty_bins[j]), fitted_on
        )

    def steps(self):
        return self.cut_fold, self.cuts, self.bin_means


_EDGE_GRID = np.arange(DEFAULT_HISTOGRAM_BINS + 1.0)


def _default_edges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(edges, count) of the default histogram edges of k score ranges [lo[j], hi[j]]: range j's count[j] edges, stacked.

    DEFAULT_HISTOGRAM_BINS equal-width bins, computed as np.linspace computes
    them, fewer when a range holds fewer distinct floats, and one bin for a
    range of one value.
    """
    nbins = DEFAULT_HISTOGRAM_BINS
    # a width that overflows is taken over the halved range; doubling back is exact
    with np.errstate(over="ignore"):
        scale = 1.0 + np.isinf(hi - lo)
    start, stop = lo / scale, hi / scale
    delta = stop - start
    step = delta / nbins
    # np.linspace's arithmetic, with its route for a step that underflows to 0
    edges = np.multiply.outer(step, _EDGE_GRID)
    zero = step == 0.0
    if np.count_nonzero(zero):
        edges[zero] = np.multiply.outer(delta[zero], _EDGE_GRID / nbins)
    edges += start[:, None]
    edges[:, -1] = stop
    edges *= scale[:, None]
    keep = np.empty(edges.shape, dtype=bool)
    keep[:, 0] = True
    np.greater(edges[:, 1:], edges[:, :-1], out=keep[:, 1:])
    if np.count_nonzero(keep) == keep.size:
        return edges.ravel(), np.full(len(lo), nbins + 1)
    # a range of fewer than eleven floats keeps its distinct edges, as np.unique gives them
    edges.sort(axis=1)
    np.not_equal(edges[:, 1:], edges[:, :-1], out=keep[:, 1:])
    # one bin; from 2**52 on lo + 1 may round to lo, and lo / 2 is a distinct edge
    one = lo == hi
    small = np.abs(lo[one]) < 2.0**52
    edges[one, 0] = np.where(small, lo[one], np.minimum(lo[one], 0.5 * lo[one]))
    edges[one, 1] = np.where(small, lo[one] + 1.0, np.maximum(lo[one], 0.5 * lo[one]))
    keep[one] = _EDGE_GRID < 2
    return edges[keep], keep.sum(axis=1)


def _histogram_folds(s: np.ndarray, y: np.ndarray, rows: np.ndarray, bounds: np.ndarray, edges=None) -> _BinnedFolds:
    """The histogram fits of k training sets: per-bin outcome means, empty bins at the set's mean.

    Every set takes the given edges, or by default its own (_default_edges
    of its score range). A row's bin is read from its position in the sorted
    sample (_cells), and one np.bincount over (fold, bin) keys gives every
    fold's counts and sums, each bin's in row order.
    """
    k, starts, lengths = len(bounds) - 1, bounds[:-1], bounds[1:] - bounds[:-1]
    if edges is None:
        # s ascends, so each set's lowest and highest rows hold its score range
        edges, count = _default_edges(s[np.minimum.reduceat(rows, starts)], s[np.maximum.reduceat(rows, starts)])
    else:
        edges, count = np.tile(edges, k), np.full(k, len(edges))
    edge_bounds = np.concatenate(([0], np.cumsum(count)))
    fold_of_bin = np.repeat(np.arange(k), count - 1)
    # a fold's cuts are its edges but the first and last, one fewer than its bins
    inner = np.ones(len(edges), dtype=bool)
    inner[edge_bounds[:-1]] = inner[edge_bounds[1:] - 1] = False
    cut_fold, cuts = np.repeat(np.arange(k), count - 2), edges[inner]
    bins = _cells(cut_fold, np.searchsorted(s, cuts), k, len(s), np.repeat(np.arange(k) * len(s), lengths) + rows)
    y = y[rows]
    counts = np.bincount(bins, minlength=len(fold_of_bin))
    sums = np.bincount(bins, weights=y, minlength=len(fold_of_bin))
    fallback = _segment_means(y, bounds)
    bin_means = np.repeat(fallback, count - 1)
    nonempty = counts > 0
    bin_means[nonempty] = sums[nonempty] / counts[nonempty]
    empty = np.bincount(fold_of_bin[~nonempty], minlength=k)
    return _BinnedFolds(edges, edge_bounds, bin_means, fallback, empty, cut_fold, cuts)


def fit_histogram(scores, outcomes, edges=None) -> BinnedCalibrator:
    """Per-bin outcome means over a fixed partition of the score range.

    Default edges: DEFAULT_HISTOGRAM_BINS equal-width bins over the labeled
    score range (fewer when the range holds fewer distinct floats). Given
    edges must be finite and strictly increasing, at least two of them.
    Scores outside [edges[0], edges[-1]] clamp to the end bins; empty bins
    predict the global labeled outcome mean.
    """
    s, y = _check_xy(scores, outcomes)
    if edges is not None:
        edges = _checked_edges(edges)
    return _histogram_folds(*_single(*LabeledSample(s, y).by_score, ordered=False), edges).map(0, _pairs(s, y))


def fit_linear_cov(scores, outcomes, covariates, clip: bool = False) -> AffineCalibrator:
    """Least squares of outcomes on an intercept, the covariates, and the score.

    The fit is an AffineCalibrator whose slope is the score coefficient and
    whose cov_coefs are the covariate coefficients, one per column.
    """
    s, y = _check_xy(scores, outcomes)
    x = _as_matrix(covariates)
    if x.ndim != 2 or x.shape[0] != len(s):
        raise DimensionError(f"covariates have shape {x.shape}, expected ({len(s)}, d)")
    if not np.isfinite(x).all():
        raise DataError("covariates have non-finite entries")
    n, d = x.shape
    if n <= d + 2:
        raise DataError(f"need n > d + 2 labeled points (n={n}, d={d})")
    design = np.column_stack([np.ones(n), x, s])
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] <= max(design.shape) * np.finfo(np.float64).eps * sv[0]:
        raise DataError(
            "rank-deficient calibration design; remove collinear covariate columns"
        )
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    clip_range = (float(y.min()), float(y.max())) if clip else None
    return AffineCalibrator(
        float(coef[d + 1]), float(coef[0]), clip_range, _pairs(s, y), coef[1 : d + 1]
    )


def _prefix_sums(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Prefix sums 0, v1, v1 + v2, ... as hi + lo, each accurate to about one rounding.

    np.cumsum adds in order, and lo accumulates the exact rounding error of
    each of its additions (Knuth's two-sum). A difference of two prefix sums
    then keeps the relative accuracy of the block sum it stands for, instead
    of the absolute accuracy of the running total.
    """
    hi = np.concatenate(([0.0], np.cumsum(values)))
    prev, total = hi[:-1], hi[1:]
    added = total - prev
    errors = (prev - (total - added)) + (values - added)
    return hi, np.concatenate(([0.0], np.cumsum(errors)))


def _tied_values(x: np.ndarray, hi: np.ndarray, lo: np.ndarray, label: float) -> list:
    """Isotonic fitted value of a point with outcome label tied with each labeled block.

    The diagram P_j = (x[j], hi[j] + lo[j]) has one vertex per tie-pooled
    labeled block. A point tied with block j joins the block from P_j to
    P_j+1. Moving the prefix P_0..P_j by (-1, -label), rather than the
    suffix by (1, label), leaves every slope as it is, and the fitted value
    is the slope of the bridge between the moved prefix and the suffix,

        max over i <= j of  min over r > j of  (C_r - C_i + label) / (x_r - x_i + 1).

    One pass over j = 0..k-1 finds them all (Vovk, Petej and Fedorova,
    2015, Algorithms 1-4). A stack holds the lower hull of the unmoved
    suffix, its left end on top, with the slope of each vertex's right edge.
    At step j, P_j moves. If it falls below the bridge, or the bridge ended
    at its own vertex, it starts the new bridge: it pops its own vertex and
    every vertex it sees past, and the new value is its slope to the top.
    Otherwise the bridge and its value stay. Each vertex is pushed and
    popped at most once, so the pass is O(k). Every block mean must be at
    most label: then the moved P_j sees its own unmoved vertex at the
    steepest slope, and no suffix point that vertex hides can start a bridge.
    """
    xs, his, los = x.tolist(), hi.tolist(), lo.tolist()

    def moved(i, r):
        return ((his[r] - his[i]) + (los[r] - los[i]) + label) / (xs[r] - xs[i] + 1.0)

    def edge(v, w):
        return ((his[w] - his[v]) + (los[w] - los[v])) / (xs[w] - xs[v])

    # the hull's vertices, its left end last, and the slope of the edge right of each
    hull, slopes = [len(xs) - 1], [math.inf]
    for v in range(len(xs) - 2, -1, -1):
        slope = edge(v, hull[-1])
        while slope >= slopes[-1]:
            hull.pop()
            slopes.pop()
            slope = edge(v, hull[-1])
        hull.append(v)
        slopes.append(slope)
    values = []
    for j in range(len(xs) - 1):
        own = hull[-1] == j
        if own:
            hull.pop()
            slopes.pop()
        slope = moved(j, hull[-1])
        if own or slope > values[-1]:
            while slope >= slopes[-1]:
                hull.pop()
                slopes.pop()
                slope = moved(j, hull[-1])
            values.append(slope)
        else:
            values.append(values[-1])
    return values


def fit_venn_abers(scores, outcomes, shrink_target: float) -> StepCalibrator:
    """Venn-Abers interval predictions shrunk toward an anchor estimate, as a step map.

    At a score t, f0 and f1 are the values at t of the isotonic fits of the
    labeled sample augmented with the hypothetical points (t, 0) and (t, 1);
    the prediction is the interval midpoint moved toward shrink_target in
    proportion to the interval width,

        mid + (f1 - f0) * (shrink_target - mid),   mid = (f0 + f1) / 2.

    No fit is rerun per point. (f0, f1) depends only on where t falls among
    the k unique labeled scores u_0 < ... < u_{k-1}: below u_0, tied with
    u_j, strictly between two, or above u_{k-1}. So the map is a step
    function of 2k + 1 classes: class 2j is the open interval below u_j
    (above u_{j-1}), class 2j + 1 the point u_j, and class 2k everything
    above u_{k-1}. Its cuts interleave each u_j with the next float up, so
    the floor lookup puts u_j alone in its block (two labeled scores that
    are adjacent floats leave an empty block between them).

    The classes reduce to k values per label (the min-max bridge formula of
    _tied_values): a point strictly between blocks j - 1 and j has the f1 of a
    point tied with block j and the f0 of one tied with block j - 1, and
    f0 = 0 below all blocks and f1 = 1 above them. Following the
    cumulative-sum-diagram construction of inductive Venn-Abers predictors
    (Vovk, Petej and Fedorova, 2015), each label's tied values come from one
    stack pass over the diagram of the tie-pooled sample; label 0 runs on the
    mirrored diagram (-x, C), whose values are the negated ones in reverse
    order. Both passes read the compensated prefix sums, so every value is a
    quotient of one exact-to-rounding block sum. The fit costs O(n log n + k),
    and evaluating it at N scores O(N log k).
    """
    if not (isinstance(shrink_target, numbers.Real) and math.isfinite(shrink_target)):
        raise ConfigError(f"shrink_target must be a finite real number, got {shrink_target!r}")
    s, y = _check_xy(scores, outcomes)
    if (y < 0).any() or (y > 1).any():
        raise DataError("outcomes must lie in [0, 1]; rescale before calling")

    uniq, block, counts = np.unique(s, return_inverse=True, return_counts=True)
    k = len(uniq)
    x = np.concatenate(([0.0], np.cumsum(counts, dtype=np.float64)))
    hi, lo = _prefix_sums(np.bincount(block, weights=y, minlength=k))

    f1 = np.repeat(_tied_values(x, hi, lo, 1.0), 2)
    f0 = -np.repeat(_tied_values(-x[::-1], hi[::-1], lo[::-1], 0.0)[::-1], 2)
    f0, f1 = np.concatenate(([0.0], f0)), np.concatenate((f1, [1.0]))
    mid = 0.5 * (f0 + f1)
    cuts = np.column_stack((uniq, np.nextafter(uniq, np.inf))).ravel()
    return StepCalibrator(
        boundaries=np.concatenate(([-np.inf], cuts)),
        values=mid + (f1 - f0) * (shrink_target - mid),
        fitted_on=_pairs(s, y),
    )


def predict(calibrator, scores, covariates=None) -> np.ndarray:
    """Evaluate a fitted calibrator, or any callable on scores, at the given scores.

    Only an AffineCalibrator receives the covariates, which it reads when it
    has covariate coefficients.
    """
    if isinstance(calibrator, AffineCalibrator):
        return calibrator(scores, covariates)
    return calibrator(np.asarray(scores, dtype=np.float64))

