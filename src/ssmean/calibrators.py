"""Post-hoc calibration maps fit on the labeled sample.

Each fit_* function learns a transformation of the prediction score from
labeled (score, outcome) pairs; predict() evaluates a fitted calibrator at
arbitrary scores. Supported families: isotonic step functions (exact
least-squares monotone fit via pooled adjacent violators), affine least
squares, Platt scaling (logistic loss on the stabilized logit), histogram
binning on a fixed partition, covariate-adjusted affine maps, and
Venn-Abers interval shrinkage. The Venn-Abers interval at a score holds the
values there of the isotonic fits with that score added under label 0 and
under label 1; all of them are read from one cumulative-sum diagram of the
labeled sample, with no isotonic fit per evaluation point.

Fitted calibrators are immutable and carry a fingerprint of their training
data so downstream estimators can detect misuse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .exceptions import ConfigError, ConvergenceError, DataError, DimensionError

__all__ = [
    "FitFingerprint",
    "StepCalibrator",
    "AffineCalibrator",
    "SigmoidCalibrator",
    "BinnedCalibrator",
    "LinearCovCalibrator",
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


@dataclass(frozen=True)
class FitFingerprint:
    """Permutation-invariant digest of the training sample.

    Sums are exact (math.fsum), so reordering training rows does not change
    the fingerprint.
    """

    n: int
    scores_sum: float
    scores_sumsq: float
    outcomes_sum: float
    outcomes_sumsq: float

    @classmethod
    def from_data(cls, scores: np.ndarray, outcomes: np.ndarray) -> "FitFingerprint":
        # Python floats: faster than numpy scalars, and a square that
        # overflows is inf without a numpy warning
        sl = np.asarray(scores, dtype=np.float64).tolist()
        yl = np.asarray(outcomes, dtype=np.float64).tolist()
        return cls(
            n=len(sl),
            scores_sum=math.fsum(sl),
            scores_sumsq=math.fsum(s * s for s in sl),
            outcomes_sum=math.fsum(yl),
            outcomes_sumsq=math.fsum(y * y for y in yl),
        )

    def matches(self, scores: np.ndarray, outcomes: np.ndarray) -> bool:
        return self == FitFingerprint.from_data(scores, outcomes)


def _freeze(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StepCalibrator:
    """Nondecreasing step function from isotonic regression.

    boundaries[j] is the smallest training score in block j; the prediction
    is values[j] on [boundaries[j], boundaries[j+1]) and values[0] / values[-1]
    below / above the training range. This floor lookup reproduces the fitted
    value of every training point exactly.
    """

    boundaries: np.ndarray
    values: np.ndarray
    fitted_on: Optional[FitFingerprint] = None

    def __post_init__(self):
        object.__setattr__(self, "boundaries", _freeze(self.boundaries))
        object.__setattr__(self, "values", _freeze(self.values))

    def __call__(self, scores) -> np.ndarray:
        t = np.asarray(scores, dtype=np.float64)
        idx = np.searchsorted(self.boundaries, t, side="right") - 1
        return self.values[np.clip(idx, 0, len(self.values) - 1)]


@dataclass(frozen=True)
class AffineCalibrator:
    """Affine map slope * score + intercept, optionally clipped."""

    slope: float
    intercept: float
    clip_range: Optional[Tuple[float, float]] = None
    fitted_on: Optional[FitFingerprint] = None

    def __post_init__(self):
        if not (np.isfinite(self.slope) and np.isfinite(self.intercept)):
            raise DataError("affine calibrator coefficients must be finite")
        if self.clip_range is not None and self.clip_range[0] > self.clip_range[1]:
            raise ConfigError(f"invalid clip range {self.clip_range}")

    def __call__(self, scores) -> np.ndarray:
        out = self.slope * np.asarray(scores, dtype=np.float64) + self.intercept
        if self.clip_range is not None:
            out = np.clip(out, self.clip_range[0], self.clip_range[1])
        return out


@dataclass(frozen=True)
class SigmoidCalibrator:
    """Platt map sigma(scale * logit(score) + shift); predictions in (0, 1).

    ridge_active records that the fit needed the ridge penalty (separable
    labels or a near-singular Hessian).
    """

    scale: float
    shift: float
    logit_eps: float = DEFAULT_LOGIT_EPS
    fitted_on: Optional[FitFingerprint] = None
    ridge_active: bool = False

    def __post_init__(self):
        if not (0.0 < self.logit_eps < 0.5):
            raise ConfigError(f"logit_eps must lie in (0, 0.5), got {self.logit_eps}")
        if not (np.isfinite(self.scale) and np.isfinite(self.shift)):
            raise DataError("sigmoid calibrator coefficients must be finite")

    def __call__(self, scores) -> np.ndarray:
        from scipy.special import expit

        t = _stabilized_logit(np.asarray(scores, dtype=np.float64), self.logit_eps)
        out = expit(self.scale * t + self.shift)
        # the sigmoid never reaches 0 or 1; undo float saturation
        return np.clip(out, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class BinnedCalibrator:
    """Per-bin outcome means on a fixed partition; empty bins use the fallback."""

    edges: np.ndarray
    bin_means: np.ndarray
    fallback: float
    empty_bins: int = 0
    fitted_on: Optional[FitFingerprint] = None

    def __post_init__(self):
        object.__setattr__(self, "edges", _freeze(self.edges))
        object.__setattr__(self, "bin_means", _freeze(self.bin_means))
        if len(self.bin_means) != len(self.edges) - 1:
            raise DimensionError("bin_means must have one entry per bin")

    def __call__(self, scores) -> np.ndarray:
        t = np.asarray(scores, dtype=np.float64)
        idx = np.searchsorted(self.edges, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.bin_means) - 1)
        return self.bin_means[idx]


@dataclass(frozen=True)
class LinearCovCalibrator:
    """Affine map in (score, covariates): intercept + covariates @ cov_coefs + score_coef * score."""

    intercept: float
    score_coef: float
    cov_coefs: np.ndarray
    clip_range: Optional[Tuple[float, float]] = None
    fitted_on: Optional[FitFingerprint] = None

    def __post_init__(self):
        object.__setattr__(self, "cov_coefs", _freeze(self.cov_coefs))
        if not (np.isfinite(self.intercept) and np.isfinite(self.score_coef)):
            raise DataError("calibrator coefficients must be finite")

    def __call__(self, scores, covariates=None) -> np.ndarray:
        t = np.asarray(scores, dtype=np.float64)
        d = len(self.cov_coefs)
        if d == 0:
            out = self.intercept + self.score_coef * t
        else:
            if covariates is None:
                raise DimensionError("covariate-adjusted calibrator needs covariates at prediction time")
            x = np.asarray(covariates, dtype=np.float64)
            if x.ndim == 1:
                x = x.reshape(-1, 1)
            if x.shape != (len(t), d):
                raise DimensionError(f"covariates have shape {x.shape}, expected ({len(t)}, {d})")
            out = self.intercept + x @ self.cov_coefs + self.score_coef * t
        if self.clip_range is not None:
            out = np.clip(out, self.clip_range[0], self.clip_range[1])
        return out


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


def fit_isotonic(scores, outcomes, weights=None) -> StepCalibrator:
    """Exact least-squares monotone nondecreasing fit of outcomes on scores.

    Equal scores are pooled by weighted mean before running PAVA, so the fit
    is a genuine function of the score. On every fitted block the weighted
    residuals sum to zero.
    """
    s, y = _check_xy(scores, outcomes)
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != y.shape:
            raise DimensionError("weights must match the sample length")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise DataError("weights must be positive and finite")

    order = np.argsort(s, kind="stable")
    s_sorted, y_sorted, w_sorted = s[order], y[order], w[order]
    uniq, first = np.unique(s_sorted, return_index=True)
    w_pooled = np.add.reduceat(w_sorted, first)
    wy_pooled = np.add.reduceat(w_sorted * y_sorted, first)
    y_pooled = wy_pooled / w_pooled

    fitted = pava(y_pooled, w_pooled)

    keep = np.empty(len(fitted), dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(fitted) > 0
    return StepCalibrator(
        boundaries=uniq[keep],
        values=fitted[keep],
        fitted_on=FitFingerprint.from_data(s, y),
    )


def fit_linear(scores, outcomes, clip: bool = False) -> AffineCalibrator:
    """Least-squares affine calibration of outcomes on scores.

    A zero-variance score degenerates to intercept-only calibration:
    slope 0 and intercept mean(outcomes). When clip is set, predictions are
    clipped to the observed outcome range.
    """
    s, y = _check_xy(scores, outcomes)
    if len(s) < 2:
        raise DataError("linear calibration needs at least two labeled points")
    sc = s - s.mean()
    denom = float(np.dot(sc, sc))
    if denom == 0.0:
        slope = 0.0
    else:
        slope = float(np.dot(sc, y - y.mean()) / denom)
    intercept = float(y.mean() - slope * s.mean())
    clip_range = (float(y.min()), float(y.max())) if clip else None
    return AffineCalibrator(
        slope=slope,
        intercept=intercept,
        clip_range=clip_range,
        fitted_on=FitFingerprint.from_data(s, y),
    )


def _stabilized_logit(m: np.ndarray, eps: float) -> np.ndarray:
    clipped = np.clip(m, eps, 1.0 - eps)
    return np.log(clipped) - np.log1p(-clipped)


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


def fit_platt(scores, outcomes, logit_eps: float = DEFAULT_LOGIT_EPS) -> SigmoidCalibrator:
    """Logistic regression of a binary outcome on the stabilized logit of the score."""
    s, y = _check_xy(scores, outcomes)
    if len(s) < 2:
        raise DataError("Platt scaling needs at least two labeled points")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("Platt scaling requires binary outcomes in {0, 1}")
    if not (0.0 < logit_eps < 0.5):
        raise ConfigError(f"logit_eps must lie in (0, 0.5), got {logit_eps}")
    t = _stabilized_logit(s, logit_eps)
    theta, _, ridge_active = _platt_newton(t, y, ridge_active=_is_separable(t, y))
    return SigmoidCalibrator(
        scale=float(theta[0]),
        shift=float(theta[1]),
        logit_eps=logit_eps,
        fitted_on=FitFingerprint.from_data(s, y),
        ridge_active=ridge_active,
    )


def fit_histogram(scores, outcomes, edges=None) -> BinnedCalibrator:
    """Per-bin outcome means over a fixed partition of the score range.

    Default edges: DEFAULT_HISTOGRAM_BINS equal-width bins over the labeled
    score range. Scores outside [edges[0], edges[-1]] clamp to the end bins;
    empty bins predict the global labeled outcome mean.
    """
    s, y = _check_xy(scores, outcomes)
    if edges is None:
        lo, hi = float(s.min()), float(s.max())
        if lo == hi:
            edges = np.array([lo, lo + 1.0])
        else:
            edges = np.linspace(lo, hi, DEFAULT_HISTOGRAM_BINS + 1)
    else:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2 or not np.all(np.diff(edges) > 0):
            raise ConfigError("edges must be a strictly increasing vector with at least two entries")
    nbins = len(edges) - 1
    idx = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, nbins - 1)
    fallback = float(y.mean())
    bin_means = np.full(nbins, fallback)
    counts = np.bincount(idx, minlength=nbins)
    sums = np.bincount(idx, weights=y, minlength=nbins)
    nonempty = counts > 0
    bin_means[nonempty] = sums[nonempty] / counts[nonempty]
    return BinnedCalibrator(
        edges=edges,
        bin_means=bin_means,
        fallback=fallback,
        empty_bins=int(np.sum(~nonempty)),
        fitted_on=FitFingerprint.from_data(s, y),
    )


def fit_linear_cov(scores, outcomes, covariates, clip: bool = False) -> LinearCovCalibrator:
    """Least squares of outcomes on an intercept, the covariates, and the score."""
    s, y = _check_xy(scores, outcomes)
    x = np.asarray(covariates, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
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
    return LinearCovCalibrator(
        intercept=float(coef[0]),
        score_coef=float(coef[d + 1]),
        cov_coefs=coef[1 : d + 1],
        clip_range=clip_range,
        fitted_on=FitFingerprint.from_data(s, y),
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


def _minorant_links(x: np.ndarray, hi: np.ndarray, lo: np.ndarray):
    """Greatest convex minorants of every prefix of a cumulative-sum diagram.

    The points are (x[j], hi[j] + lo[j]), x strictly increasing. One
    left-to-right scan gives link[j], the vertex before j on the minorant of
    points 0..j (link[0] = 0), and edge[j], the slope of that last edge
    (-inf at j = 0). A vertex's links are fixed when it is pushed, so following
    link from j walks the whole minorant of prefix j.
    """
    xs, his, los = x.tolist(), hi.tolist(), lo.tolist()

    def slope(i, j):
        return ((his[j] - his[i]) + (los[j] - los[i])) / (xs[j] - xs[i])

    link = [0] * len(xs)
    edge = [-math.inf] * len(xs)
    stack = [0]
    for j in range(1, len(xs)):
        while len(stack) >= 2 and slope(stack[-2], stack[-1]) >= slope(stack[-1], j):
            stack.pop()
        link[j] = stack[-1]
        edge[j] = slope(stack[-1], j)
        stack.append(j)
    return np.array(link), np.array(edge)


def _jump_table(link: np.ndarray, levels: int) -> list:
    """link applied 2**l times, for l = levels - 1 down to 0."""
    table = [link]
    for _ in range(levels - 1):
        table.append(table[-1][table[-1]])
    return table[::-1]


def _inserted_point_values(x, hi, lo, m, m2, label) -> np.ndarray:
    """Isotonic fitted value of one inserted point, for each query (m, m2, label).

    The diagram P_j = (x[j], hi[j] + lo[j]) has one vertex per tie-pooled
    labeled block. A query's augmented diagram is the prefix P_0..P_m, then
    the suffix P_m2..P_k shifted by (1, label): m2 = m for a point inserted
    between blocks m and m + 1, m2 = m + 1 for a point tied with block m + 1,
    whose pooled block then spans x[m]..x[m + 1] + 1. The fitted value there
    is the slope of the bridge between the two parts' convex minorants,

        min over r >= m2 of  max over i <= m of  (C_r - C_i + label) / (x_r - x_i + 1),

    where only minorant vertices matter. The inner max is the tangent from the
    shifted right vertex Q_r to the left minorant; the outer min stops at the
    first right vertex whose next edge does not fall below that tangent. Both
    tests are monotone along their chains, so each is a binary search over a
    jump table, run for all queries at once.
    """
    levels = (len(x) - 1).bit_length()
    pred, left_edge = _minorant_links(x, hi, lo)
    # the suffix minorants are the prefix minorants of the mirrored diagram
    rev_pred, rev_edge = _minorant_links(-x[::-1], hi[::-1], lo[::-1])
    succ, right_edge = len(x) - 1 - rev_pred[::-1], -rev_edge[::-1]
    pred_jumps, succ_jumps = _jump_table(pred, levels), _jump_table(succ, levels)

    def slope_to(i, r):
        return ((hi[r] - hi[i]) + (lo[r] - lo[i]) + label) / (x[r] - x[i] + 1.0)

    def tangent(r):
        # first vertex on the left minorant from m whose predecessor lies on
        # or above the line through it and Q_r
        i = m
        for jump in pred_jumps:
            far = jump[i]
            i = np.where(left_edge[far] <= slope_to(far, r), i, far)
        return np.where(left_edge[i] <= slope_to(i, r), i, pred[i])

    def at_bridge(r):
        return right_edge[r] >= slope_to(tangent(r), r)

    r = m2
    for jump in succ_jumps:
        far = jump[r]
        r = np.where(at_bridge(far), r, far)
    r = np.where(at_bridge(r), r, succ[r])
    return slope_to(tangent(r), r)


def fit_venn_abers(scores, outcomes, eval_scores, shrink_target: float) -> np.ndarray:
    """Interval-based calibrated predictions shrunk toward an anchor estimate.

    For each evaluation score t, f0 and f1 are the values at t of the isotonic
    fits of the labeled sample augmented with the hypothetical points (t, 0)
    and (t, 1); the prediction is the interval midpoint moved toward
    shrink_target in proportion to the interval width,

        mid + (f1 - f0) * (shrink_target - mid),   mid = (f0 + f1) / 2.

    No fit is rerun per point. (f0, f1) depends only on where t falls among
    the k unique labeled scores, tied with one or strictly between two, so
    there are at most 2k + 1 classes. Following the cumulative-sum-diagram
    construction of inductive Venn-Abers predictors (Vovk, Petej and
    Fedorova, 2015), every class's f0 and f1 is the slope of a bridge between
    the greatest convex minorants of a prefix and a shifted suffix of one
    diagram of the tie-pooled sample (_inserted_point_values). The classes
    cost O(n log n + k log^2 k), and placing the N evaluation points with
    searchsorted O(N log k). Each point is placed on its own, so the output
    does not depend on their order.
    """
    s, y = _check_xy(scores, outcomes)
    if (y < 0).any() or (y > 1).any():
        raise DataError("outcomes must lie in [0, 1]; rescale before calling")
    ts = np.asarray(eval_scores, dtype=np.float64)
    if ts.ndim != 1:
        raise DimensionError("eval_scores must be one-dimensional")
    if not np.isfinite(ts).all():
        raise DataError("eval_scores have non-finite entries")

    uniq, block, counts = np.unique(s, return_inverse=True, return_counts=True)
    k = len(uniq)
    x = np.concatenate(([0.0], np.cumsum(counts, dtype=np.float64)))
    hi, lo = _prefix_sums(np.bincount(block, weights=y, minlength=k))

    # class 2 * pos: strictly below uniq[pos] (above uniq[pos - 1]);
    # class 2 * pos + 1: tied with uniq[pos]
    pos = np.searchsorted(uniq, ts)
    key = 2 * pos + (uniq[np.minimum(pos, k - 1)] == ts)
    present = np.zeros(2 * k + 1, dtype=bool)
    present[key] = True
    classes = np.flatnonzero(present)
    m = np.tile(classes // 2, 2)
    m2 = m + np.tile(classes % 2, 2)
    label = np.repeat([0.0, 1.0], len(classes))
    f0, f1 = np.split(_inserted_point_values(x, hi, lo, m, m2, label), 2)
    mid = 0.5 * (f0 + f1)
    shrunk = mid + (f1 - f0) * (shrink_target - mid)
    return shrunk[(np.cumsum(present) - 1)[key]]


def predict(calibrator, scores, covariates=None) -> np.ndarray:
    """Evaluate a fitted calibrator, or any callable on scores, at the given scores.

    Only the covariate-adjusted calibrator receives the covariates.
    """
    if isinstance(calibrator, LinearCovCalibrator):
        return calibrator(scores, covariates)
    return calibrator(np.asarray(scores, dtype=np.float64))

