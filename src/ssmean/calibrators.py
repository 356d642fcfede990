"""Post-hoc calibration maps fit on the labeled sample.

Each fit_* function learns a transformation of the prediction score from
labeled (score, outcome) pairs; predict() evaluates a fitted calibrator at
arbitrary scores. Supported families: isotonic step functions (exact
least-squares monotone fit via pooled adjacent violators), affine least
squares, Platt scaling (logistic loss on the stabilized logit), histogram
binning on a fixed partition, covariate-adjusted affine maps, and
Venn-Abers interval shrinkage. The Venn-Abers interval at a score holds the
values there of the isotonic fits with that score added under label 0 and
under label 1; it depends only on the score's place among the unique
labeled scores, so the shrunk map is a step function. Its values come from
two amortized-linear stack passes over one cumulative-sum diagram of the
labeled sample, one per label, with no isotonic fit per evaluation point.

The step maps (isotonic, Venn-Abers and histogram) also give their cut
points and block values through steps(), so the counts of a sorted sample
in each block stand in for evaluating them per score.

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

from .exceptions import ConfigError, ConvergenceError, DataError, DimensionError

__all__ = [
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


def _freeze(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64).copy()
    out.setflags(write=False)
    return out


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
    """Affine map slope * score + intercept, optionally clipped."""

    slope: float
    intercept: float
    clip_range: Optional[Tuple[float, float]] = None
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

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
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
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


@dataclass(frozen=True)
class LinearCovCalibrator:
    """Affine map in (score, covariates): intercept + covariates @ cov_coefs + score_coef * score."""

    intercept: float
    score_coef: float
    cov_coefs: np.ndarray
    clip_range: Optional[Tuple[float, float]] = None
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

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


def _isotonic_sorted(s: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Boundaries and values of the isotonic fit of pairs given in ascending score order.

    fit_isotonic calls it after its stable sort. iso-cal's registry fit calls
    it on a labeled sample in the sample's cached stable order, and auto-cal's
    folds on the training rows of that order, so every one of these fits agrees
    with fit_isotonic's on the same rows bit for bit.
    """
    # tie blocks start where a sorted score differs from its left neighbour;
    # the bounds are the block starts followed by len(s)
    starts = np.empty(len(s) + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(s[1:], s[:-1], out=starts[1:-1])
    bounds = np.flatnonzero(starts)
    first = bounds[:-1]
    w_pooled = np.subtract(bounds[1:], first, dtype=np.float64)
    fitted = pava(np.add.reduceat(y, first) / w_pooled, w_pooled)
    keep = np.empty(len(fitted), dtype=bool)
    keep[0] = True
    np.greater(fitted[1:], fitted[:-1], out=keep[1:])
    return s[first[keep]], fitted[keep]


def fit_isotonic(scores, outcomes) -> StepCalibrator:
    """Exact least-squares monotone nondecreasing fit of outcomes on scores.

    Equal scores are pooled by their mean before running PAVA, weighted by
    their count, so the fit is a genuine function of the score. On every
    fitted block the residuals sum to zero.
    """
    s, y = _check_xy(scores, outcomes)
    order = np.argsort(s, kind="stable")
    boundaries, values = _isotonic_sorted(s[order], y[order])
    return StepCalibrator(boundaries, values, fitted_on=_freeze(np.column_stack((s, y))))


def _linear_coefs(s: np.ndarray, y: np.ndarray) -> Tuple[float, float, Tuple[float, float]]:
    """Slope and intercept of the least-squares line of y on s (slope 0 for a constant s), and y's clip range."""
    sc = s - s.mean()
    # weights sc / 2**e lie in (-1, 1), so no product below overflows; a power
    # of two scales both sums exactly, so the slope is sum(sc*yc) / sum(sc*sc)
    w = np.ldexp(sc, -np.frexp(np.abs(sc).max())[1])
    denom = float(np.dot(w, sc))
    if denom == 0.0:
        slope = 0.0
    else:
        slope = float(np.dot(w, y - y.mean()) / denom)
    return slope, float(y.mean() - slope * s.mean()), (float(y.min()), float(y.max()))


def fit_linear(scores, outcomes, clip: bool = False) -> AffineCalibrator:
    """Least-squares affine calibration of outcomes on scores.

    A zero-variance score degenerates to intercept-only calibration:
    slope 0 and intercept mean(outcomes). When clip is set, predictions are
    clipped to the observed outcome range.
    """
    s, y = _check_xy(scores, outcomes)
    if len(s) < 2:
        raise DataError("linear calibration needs at least two labeled points")
    slope, intercept, clip_range = _linear_coefs(s, y)
    return AffineCalibrator(slope, intercept, clip_range if clip else None, fitted_on=_freeze(np.column_stack((s, y))))


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
        fitted_on=_freeze(np.column_stack((s, y))),
        ridge_active=ridge_active,
    )


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
    return BinnedCalibrator(*_histogram(s, y, edges), fitted_on=_freeze(np.column_stack((s, y))))


def _histogram(s: np.ndarray, y: np.ndarray, edges: Optional[np.ndarray] = None):
    """(edges, bin_means, fallback, empty_bins) of the histogram fit; the default edges when None."""
    if edges is None:
        lo, hi = float(s.min()), float(s.max())
        if lo == hi:
            # one bin; from 2**52 on lo + 1 may round to lo, and lo / 2 is a distinct edge
            edges = np.array([lo, lo + 1.0] if abs(lo) < 2.0**52 else sorted((lo, 0.5 * lo)))
        else:
            # a width that overflows is taken over the halved range; doubling back is exact
            scale = 2.0 if math.isinf(hi - lo) else 1.0
            edges = scale * np.linspace(lo / scale, hi / scale, DEFAULT_HISTOGRAM_BINS + 1)
            if not (edges[1:] > edges[:-1]).all():
                # a range of fewer than eleven floats keeps its distinct edges
                edges = np.unique(edges)
    nbins = len(edges) - 1
    idx = np.searchsorted(edges[1:-1], s, side="right")
    fallback = float(y.mean())
    bin_means = np.full(nbins, fallback)
    counts = np.bincount(idx, minlength=nbins)
    sums = np.bincount(idx, weights=y, minlength=nbins)
    nonempty = counts > 0
    bin_means[nonempty] = sums[nonempty] / counts[nonempty]
    return edges, bin_means, fallback, int(np.sum(~nonempty))


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
        fitted_on=_freeze(np.column_stack((s, y))),
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
        fitted_on=_freeze(np.column_stack((s, y))),
    )


def predict(calibrator, scores, covariates=None) -> np.ndarray:
    """Evaluate a fitted calibrator, or any callable on scores, at the given scores.

    Only the covariate-adjusted calibrator receives the covariates.
    """
    if isinstance(calibrator, LinearCovCalibrator):
        return calibrator(scores, covariates)
    return calibrator(np.asarray(scores, dtype=np.float64))

