"""Post-hoc calibration maps fit on the labeled sample.

Each fit_* function learns a transformation of the prediction score from
labeled (score, outcome) pairs; predict() evaluates a fitted calibrator at
arbitrary scores. Supported families: isotonic step functions (exact
least-squares monotone fit via pooled adjacent violators), affine least
squares in the score and, through fit_linear_cov, in covariates (one
AffineCalibrator class, whose covariate coefficients are otherwise empty),
Platt scaling (logistic loss on the stabilized logit), histogram binning on
a fixed partition (a step function of the score, as the isotonic fit is),
and Venn-Abers interval shrinkage. The Venn-Abers
interval at a score holds the values there of the isotonic fits with that
score added under label 0 and under label 1; it depends only on the score's
place among the unique labeled scores, so the shrunk map is a step
function. Its values come from one scan of the lower hull of the labeled
sample's cumulative-sum diagram, then one amortized-linear bridge pass per
label, with no isotonic fit per evaluation point.

Every registry method but auto-cal has one fold-stacked fit core that fits
k training sets in one call, and the matching fit_* function is its k = 1
call. The comment "fold-stacked fits" below tells the whole route from a
core to a report. Every calibrator holds a one-map stack, which calling it,
or predict(), evaluates: a public fit's calibrator keeps the stack its core
built, and a hand-built one builds its own.

Fitted calibrators are immutable. A fit keeps a read-only copy of its
training (score, outcome) pairs in fitted_on, which is left out of equality
and repr; estimators.calibrated_plugin compares it with a design's labeled
pairs to refuse a calibrator fit on another sample.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .design import LabeledSample, UnlabeledSample, _as_matrix
from .exceptions import ConfigError, ConvergenceError, DataError, DimensionError

__all__ = [
    "StepCalibrator",
    "AffineCalibrator",
    "SigmoidCalibrator",
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


def _pairs(sample: LabeledSample) -> np.ndarray:
    """A fit's fitted_on: a read-only copy of its sample's (score, outcome) pairs."""
    return _freeze(np.column_stack((sample.scores, sample.outcomes)))


class _Calibrator:
    """A fitted calibrator: a frozen dataclass that holds its one-map stack.

    The stack (a *Folds value, see "fold-stacked fits" below) is the
    attribute _stack, which is not a field, so fields(), asdict, == and repr
    do not see it. A public fit's calibrator keeps the k = 1 stack its core
    built (_fit); a hand-built calibrator checks its fields and builds its
    stack in __post_init__. Calling the
    calibrator, with the covariate rows of the scores where its map reads
    them, evaluates the stack's map 0. Calibrators compare and hash by their
    compared fields, an array field as the tuple of its values.
    """

    def __call__(self, scores, covariates=None) -> np.ndarray:
        return self._stack.at(0, np.asarray(scores, dtype=np.float64), covariates)

    def _key(self) -> tuple:
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self) if f.compare))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class StepCalibrator(_Calibrator):
    """Step function of the score: the isotonic fit, the histogram fit, or the Venn-Abers map.

    The prediction is values[j] on [boundaries[j], boundaries[j+1]),
    values[0] below boundaries[1] and values[-1] from boundaries[-1] on. For
    the isotonic fit, values are nondecreasing and boundaries[j] is the
    smallest training score of block j, so this floor lookup reproduces the
    fitted value of every training point exactly. For the histogram fit,
    boundaries are the edges but the last and values the bin means, so a
    score outside the edges takes an end bin's mean. Equal boundaries leave an
    empty block; boundaries that are NaN or decrease are refused with
    ConfigError, since counting a sorted sample in the map's blocks would
    then disagree with the map.
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
        if self.values.shape != b.shape:
            raise DimensionError("values must have one entry per boundary")
        object.__setattr__(self, "_stack", _BoundaryFolds(b, self.values, np.array([0, len(b)])))


@dataclass(frozen=True, eq=False)
class AffineCalibrator(_Calibrator):
    """Affine map slope * score + intercept, optionally clipped.

    With covariate coefficients (fit_linear_cov) the map is
    (intercept + covariates @ cov_coefs) + slope * score, and it needs a
    covariate matrix of one row per score. cov_coefs is kept as a tuple of
    floats, and clip_range as a tuple of two floats lo <= hi (ConfigError
    otherwise). Every coefficient must be finite (DataError, from the stack).
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
        clip = self.clip_range
        if clip is not None:
            try:
                lo, hi = clip
            except (TypeError, ValueError):
                lo = hi = None
            # a NaN bound fails the comparison
            if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real) and lo <= hi):
                raise ConfigError(f"invalid clip range {clip}")
            clip = (float(lo), float(hi))
        object.__setattr__(self, "clip_range", clip)
        object.__setattr__(self, "_stack", _AffineFolds(
            np.array([self.slope], dtype=np.float64), np.array([self.intercept], dtype=np.float64),
            None if clip is None else (np.array(clip[:1]), np.array(clip[1:])), np.array([coefs]) if len(coefs) else None))


@dataclass(frozen=True, eq=False)
class SigmoidCalibrator(_Calibrator):
    """Platt map sigma(scale * logit(score) + shift); predictions in (0, 1).

    ridge_active records that the fit needed the ridge penalty (separable
    labels or a near-singular Hessian). Both coefficients must be finite
    (DataError, from the stack).
    """

    scale: float
    shift: float
    logit_eps: float = DEFAULT_LOGIT_EPS
    fitted_on: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    ridge_active: bool = False

    def __post_init__(self):
        _check_logit_eps(self.logit_eps)
        object.__setattr__(self, "_stack", _SigmoidFolds(
            np.array([self.scale], dtype=np.float64), np.array([self.shift], dtype=np.float64),
            np.array([self.ridge_active]), self.logit_eps))


def _checked_edges(edges) -> np.ndarray:
    """A read-only copy of histogram edges; ConfigError unless finite, strictly increasing and at least two."""
    edges = _freeze(edges)
    # a NaN fails every comparison, and only the end edges of an increasing vector can be infinite
    increasing = edges.ndim == 1 and len(edges) >= 2 and (edges[1:] > edges[:-1]).all()
    if not (increasing and math.isfinite(edges[0]) and math.isfinite(edges[-1])):
        raise ConfigError("edges must be a finite, strictly increasing vector with at least two entries")
    return edges


def pava(values, weights) -> np.ndarray:
    """Weighted least-squares nondecreasing fit of values already ordered by the score.

    SciPy's pooled-adjacent-violators, imported on the first fit: ``import
    ssmean`` loads no SciPy module. iso-cal and auto-cal load SciPy here,
    platt-cal at its expit and the simulation draws at theirs; nothing else
    does.
    """
    from scipy.optimize import isotonic_regression

    return isotonic_regression(values, weights=weights).x


# --- fold-stacked fits ---------------------------------------------------------
#
# The stacked route from labeled pairs to a report, told here once; the other
# modules state their own part and point here.
#
# The fit. Each registry method but auto-cal has one fit core, core(s, y,
# rows, bounds, context), that fits k training sets in one call. s and y are
# a labeled sample in ascending score order (a stable sort, cached as
# LabeledSample.by_score); rows holds the k training sets one after another,
# as indices into s and y: set j's in rows[bounds[j]:bounds[j+1]], as stored
# (a design's and a fold's rows in row order, a replicate's in draw order),
# which is how every core reads them. No core sorts: iso-cal and venn-abers
# count each set into its tie blocks, ascending, from the sample's cached tie
# groups (LabeledSample.tie_groups). context (_Context) gives the labeled
# covariates in the same score order and each set's unlabeled sample, whose
# size ppi reads, whose cached moments ppi-pp, aipw-em and venn-abers read,
# and whether it holds covariates, which linear-cov-cal checks.
#
# The maps. The core returns the k maps stacked in one *Folds value: fields(j)
# is map j's calibrator fields, map(j) map j as a calibrator built from them,
# described(j) the facts a report's diagnostics take of map j (an affine
# map's slope, intercept and clip_range, a Platt map's ridge_active, a
# histogram's empty_bins), at(j, t, x) map j at the scores t (and their
# covariate rows x), and on_sample(fold, s, rows) the value of map fold[p] at
# s[rows[p]] for every p, in one gather. Every fit_* function and every
# registry fit is the k = 1 call, so set j of a k-set call equals the fit of
# set j's rows alone, bit for bit. Only fit_* turns a stack into a
# calibrator (_fit), which keeps that k = 1 stack as its one-map stack and
# evaluates it: at(0, t, x).
#
# The report. A stack reaches the family core (estimators._family_core) as
# its labeled values and one unlabeled summary per map, the count, mean and
# centered sum of squares of f (estimators._summaries, whose docstring names
# its three routes: block counts for step maps, cached score moments for
# unclipped affine maps, per-score evaluation for the rest). Its callers:
# - estimate() runs the k = 1 call on the design (estimators.Method.run):
#   the map at the labeled scores, its summary, the core and the report;
#   calibrated_plugin runs a calibrator's one-map stack, or a plain
#   callable, by the same route, so estimate() builds no calibrator and
#   calls no predict;
# - auto-cal's cross-validation and the refitting bootstrap take one route,
#   estimators._stacked_core: one call of the core on k training sets, set
#   j's map scored at segment j of given rows in one gather (on_sample), the
#   summaries in one call, and the family core once per run of equal-size
#   segments (_by_segment), one segment per row, so each set's results are
#   the one-design core's of its segment, bit for bit;
# - auto-cal's sets (selection) are its folds' training rows, with a capped
#   unlabeled subsample as every fold's, and fold j's map is scored at its
#   held-out rows in row order. The winner's refit is its k = 1 call, which
#   Method.run then takes like any method's;
# - the bootstrap's sets (inference) are a chunk of replicates, each
#   replicate's labeled rows in draw order, scored at those rows. The
#   context draws each replicate's unlabeled resample when reached and
#   drops it: one pass takes every resample's moments, for the fits and the
#   affine summaries; step summaries count each replicate's drawn rows into
#   the chunk's cut slots, with no resample gathered; per-score summaries
#   gather it again. auto-cal's replicates, and a chunk that holds a refused
#   one, run Method.run per replicate on a gathered resample instead.
# No design, report or calibrator is built per fold or per stacked replicate.


@dataclass
class _Context:
    """A fit core's inputs beside the labeled pairs.

    labeled is the sample the pairs come from; a core reads only its
    covariates, in the pairs' score order, and its tie groups. Every set's
    map is summarised on the unlabeled sample, or, given draws (a function
    giving a fresh iterator of k row selections), set j's on the j-th
    selection of its rows: the bootstrap's resamples, each drawn and dropped
    when reached. Their moments are drawn for once and kept, each resample
    gathered (unlabeled.take), so a core that reads them and the summary of
    its affine maps share one pass; a step or per-score summary draws the
    resamples again, and only the per-score one gathers them. A public
    fit_* call has no unlabeled sample (None).
    """

    labeled: Optional[LabeledSample]
    unlabeled: Optional[UnlabeledSample]
    draws: Optional[Callable[[], Iterator[np.ndarray]]] = None

    def moments(self, k: int) -> list:
        """(scaled_moments, score_moments) of each of the k sets' samples; resamples are drawn for them once."""
        return [(self.unlabeled.scaled_moments, self.unlabeled.score_moments)] * k if self.draws is None else self._drawn

    @cached_property
    def _drawn(self) -> list:
        return [(u.scaled_moments, u.score_moments) for u in map(self.unlabeled.take, self.draws())]


def _single(sample: LabeledSample, unlabeled: Optional[UnlabeledSample] = None):
    """A core's arguments for its k = 1 call on a labeled sample: its pairs in score order (by_score).

    The one training set is every row, in row order (rank), and the context
    holds the sample, whose tie groups iso-cal and venn-abers count the set
    into and hist-cal reads its score range from. Its map is summarised on
    unlabeled.
    """
    s, y, rank = sample.by_score
    return s, y, rank, np.array([0, len(s)]), _Context(sample, unlabeled)


def _fit(core, sample: LabeledSample, *args):
    """A public fit: core's k = 1 call on the sample, as a calibrator that keeps the sample's pairs.

    The calibrator's fields are the stack's fields(0), and the stack is its
    one-map stack: nothing is checked or built again. A sum that overflows
    float64 raises no numpy warning; the stack's own check, or
    _refuse_overflow, refuses it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stack = core(*_single(sample), *args)
    fit = object.__new__(stack.calibrator)
    for name, value in {**stack.fields(0), "fitted_on": _pairs(sample), "_stack": stack}.items():
        object.__setattr__(fit, name, value)
    return fit


def _refuse_overflow(fit, family: str, *params):
    """fit, unless one of its parameters overflowed float64 (DataError)."""
    if not all(np.isfinite(p).all() for p in params):
        raise DataError(f"{family} fit overflows float64; rescale the outcomes")
    return fit


def _by_segment(reduce, bounds: np.ndarray, *arrays) -> np.ndarray:
    """reduce(*rows) over each segment [bounds[j], bounds[j+1]) of the arrays, concatenated.

    A run of segments of one length goes to reduce as one matrix, a row per
    segment, and reduce gives a value per row, along its last axis. numpy
    sums each row of a matrix (pairwise for mean and the family core, BLAS
    for vecdot) as it sums that row alone, so segment j's values equal the
    one-segment call's bit for bit. Fold sizes take at most two lengths.
    """
    b = bounds.tolist()
    out, first = [], 0
    for j in range(1, len(b)):
        # a run ends where the next segment's length differs, or at the last segment
        if j + 1 == len(b) or b[j + 1] - b[j] != b[j] - b[j - 1]:
            rows = slice(b[first], b[j])
            out.append(reduce(*(x[rows].reshape(j - first, -1) for x in arrays)))
            first = j
    return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)


def _segment_means(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """values[a:b].mean() of each segment, bit for bit: mean is the pairwise sum over the count.

    One segment (a k = 1 fit) is one reduction, with no _by_segment pass.
    """
    if len(bounds) == 2:
        return np.add.reduce(values, keepdims=True) / len(values)
    return _by_segment(lambda rows: np.add.reduce(rows, axis=1) / rows.shape[1], bounds, values)


def _block_counts(cut_fold: np.ndarray, below: np.ndarray, k: int, n: int) -> np.ndarray:
    """The rows of a sorted sample of n scores in each block of k stacked step maps.

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
    return upper - lower


def _cells(cut_fold: np.ndarray, cuts: np.ndarray, k: int, s: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """The block among k stacked step maps of each cell = fold * len(s) + position: map fold's block holding the
    score at that position of the sorted sample s.

    A map's blocks split the positions of s into runs (_block_counts); the
    runs of all k maps, one after another, name every cell's block, with no
    search per score: StepCalibrator's floor lookup.
    """
    counts = _block_counts(cut_fold, np.searchsorted(s, cuts), k, len(s))
    return np.repeat(np.arange(len(counts)), counts)[cell]


class _Folds:
    """A *Folds stack: calibrator is its maps' class, and fields(j) map j's fields as that class holds them."""

    def map(self, j: int = 0, fitted_on=None) -> _Calibrator:
        """Map j as a hand-built calibrator of its fields, which builds a one-map stack of its own.

        A public fit's calibrator keeps its k = 1 stack instead (_fit).
        """
        return self.calibrator(**self.fields(j), fitted_on=fitted_on)


@dataclass(frozen=True)
class _BoundaryFolds(_Folds):
    """k step maps stacked: the isotonic, histogram or Venn-Abers fits.

    Map j is StepCalibrator(boundaries[a:b], values[a:b]) with a, b =
    bounds[j:j+2]; facts[j], when given, is map j's fit facts, which
    described(j) gives. steps is (fold of each cut, cuts, values), each
    fold's cuts ascending.
    """

    boundaries: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    facts: Optional[list] = None
    calibrator = StepCalibrator

    def fields(self, j: int) -> dict:
        rows = slice(self.bounds[j], self.bounds[j + 1])
        return {"boundaries": _freeze(self.boundaries[rows]), "values": _freeze(self.values[rows])}

    def described(self, j: int) -> dict:
        return self.facts[j] if self.facts else {}

    @cached_property
    def steps(self):
        # a map's cuts are its boundaries but the first
        counts = self.bounds[1:] - self.bounds[:-1]
        inner = np.ones(len(self.values), dtype=bool)
        inner[self.bounds[:-1]] = False
        return np.repeat(np.arange(len(counts)), counts - 1), self.boundaries[inner], self.values

    def on_sample(self, fold: np.ndarray, s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        cut_fold, cuts, values = self.steps
        return values[_cells(cut_fold, cuts, len(values) - len(cuts), s, fold * len(s) + rows)]

    def at(self, fold: int, t: np.ndarray, x=None) -> np.ndarray:
        """Map fold at every score of t, by the floor lookup; x is ignored.

        Map fold's cuts are cuts[a:b], and its values follow the fold maps
        before it, each with one more value than cuts; a score takes the
        value after the last cut at or below it. This is every step
        calibrator's evaluation.
        """
        cut_fold, cuts, values = self.steps
        a, b = np.searchsorted(cut_fold, [fold, fold + 1]).tolist()
        return values[a + fold + np.searchsorted(cuts[a:b], t, side="right")]


def _tie_blocks(keys: np.ndarray, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bins, counts, sums) of the nonzero bins of keys: their ids ascending, their row counts and weight sums.

    np.bincount adds each bin's weights in the order the keys are stored.
    """
    counts = np.bincount(keys)
    bins = np.flatnonzero(counts)
    return bins, counts[bins], np.bincount(keys, weights)[bins]


def _isotonic_folds(s, y, rows, bounds, context) -> _BoundaryFolds:
    """The isotonic fits of k training sets, each on its tie blocks in ascending score order.

    Set j's rows take the keys j * m + group over the m tie groups of the
    labeled sample (LabeledSample.tie_groups), so one np.bincount
    (_tie_blocks) gives every set's blocks in score order, their counts
    (PAVA's weights) and their outcome sums, each over the set's rows as
    stored. PAVA runs once per fold.
    """
    group, distinct = context.labeled.tie_groups
    m = len(distinct)
    keys = np.repeat(np.arange(len(bounds) - 1) * m, np.diff(bounds)) + group[rows]
    bins, counts, sums = _tie_blocks(keys, y[rows])
    means = sums / counts
    # fold j's tie blocks are [blocks[j], blocks[j+1])
    blocks = np.searchsorted(bins, np.arange(len(bounds)) * m)
    fitted = np.concatenate([pava(means[a:b], counts[a:b]) for a, b in zip(blocks[:-1], blocks[1:])])
    # a block is kept where its value rises, and at the start of each fold
    keep = np.empty(len(fitted), dtype=bool)
    np.greater(fitted[1:], fitted[:-1], out=keep[1:])
    keep[blocks[:-1]] = True
    kept = np.flatnonzero(keep)
    return _BoundaryFolds(distinct[bins[kept] % m], fitted[kept], np.searchsorted(kept, blocks))


def fit_isotonic(scores, outcomes) -> StepCalibrator:
    """Exact least-squares monotone nondecreasing fit of outcomes on scores.

    Equal scores are pooled by their mean before running PAVA, weighted by
    their count, so the fit is a genuine function of the score; each tie
    block's outcomes are summed in row order (np.bincount), with no sort
    beyond the sample's one. On every fitted block the residuals sum to
    zero.
    """
    fit = _fit(_isotonic_folds, LabeledSample(scores, outcomes))
    return _refuse_overflow(fit, "isotonic", fit.values)


@dataclass(frozen=True)
class _AffineFolds(_Folds):
    """k affine maps slope[j] * score + intercept[j], each clipped to (lo[j], hi[j]) when clip is (lo, hi).

    A covariate map (linear-cov-cal's) adds covariates @ cov[j] to the
    intercept; x holds the labeled covariates in score order, which
    on_sample reads. facts[j], when given, is map j's fit facts. Every
    coefficient must be finite (DataError); this is AffineCalibrator's check.
    """

    slope: np.ndarray
    intercept: np.ndarray
    clip: Optional[Tuple[np.ndarray, np.ndarray]] = None
    cov: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    facts: Optional[list] = None
    calibrator = AffineCalibrator

    def __post_init__(self):
        cov = [] if self.cov is None else self.cov.ravel().tolist()
        if not all(map(math.isfinite, [*self.slope.tolist(), *self.intercept.tolist(), *cov])):
            raise DataError("affine calibrator coefficients must be finite")

    def fields(self, j: int) -> dict:
        return {**self.described(j), "cov_coefs": () if self.cov is None else tuple(self.cov[j].tolist())}

    def described(self, j: int) -> dict:
        """Map j's slope, intercept and clip_range, as its calibrator holds them."""
        clip = None if self.clip is None else (float(self.clip[0][j]), float(self.clip[1][j]))
        return {"slope": float(self.slope[j]), "intercept": float(self.intercept[j]), "clip_range": clip}

    def at(self, fold, t, x=None) -> np.ndarray:
        """Map fold[i] at t[i], or map fold at every t for an integer fold: slope * t + intercept, then the clip.

        A covariate map takes an integer fold and x, the covariate rows of t,
        one row per score and one column per coefficient (DimensionError
        otherwise).
        """
        if self.cov is not None:
            if x is None:
                raise DimensionError("covariate-adjusted calibrator needs covariates at prediction time")
            x = _as_matrix(x)
            if x.shape != (len(t), self.cov.shape[1]):
                raise DimensionError(f"covariates have shape {x.shape}, expected ({len(t)}, {self.cov.shape[1]})")
        out = self.slope[fold] * np.asarray(t, dtype=np.float64)
        out += self.intercept[fold] if self.cov is None else self.intercept[fold] + x @ self.cov[fold]
        return out if self.clip is None else np.clip(out, self.clip[0][fold], self.clip[1][fold])

    def on_sample(self, fold, s, rows) -> np.ndarray:
        if self.cov is None:
            return self.at(fold, s[rows])
        # one map at a time, each one product of its rows' covariates, as the map's own calibrator takes it
        out = np.empty(len(rows))
        for j in np.unique(fold).tolist():
            held = fold == j
            out[held] = self.at(j, s[rows[held]], self.x[rows[held]])
        return out


def _unit_folds(s, y, rows, bounds, context, slope: float = 1.0) -> _AffineFolds:
    """slope times the score on every set, whatever the pairs: aipw's fit, and labeled-only's with slope 0."""
    return _AffineFolds(np.full(len(bounds) - 1, slope), np.zeros(len(bounds) - 1))


def _ppi_folds(s, y, rows, bounds, context) -> _AffineFolds:
    """ppi's fits: the score / (1 - rho_j) on set j, rho_j = n_j / (n_j + N) for its N unlabeled rows."""
    n = bounds[1:] - bounds[:-1]
    return _AffineFolds(1.0 / (1.0 - n / (n + context.unlabeled.n)), np.zeros(len(n)))


def _eem_folds(s, y, rows, bounds, context, clip: bool = False) -> _AffineFolds:
    """aipw-em's fits, and ppi-pp's with clip: lambda_j times the score on set j.

    lambda_j = Cov_L(Y, m) / [(1-rho_j) Var_L(m) + rho_j Var_U(m)] is the
    empirical variance-minimizing scaling, clamped to [0, 1/(1-rho_j)] with
    clip, and 0 where the score has no variance in either sample (the
    coefficient is unidentified). Var_U(m) comes from the cached
    scaled_moments of the set's unlabeled sample, so no unlabeled score is
    read, and every mean is its set's own (_segment_means). facts[j] is set
    j's lambda, its unclipped value, the clip interval and whether the clip
    or the degenerate case applied.
    """
    n, N = bounds[1:] - bounds[:-1], context.unlabeled.n
    moments = [scaled for scaled, _ in context.moments(len(n))]
    facts = []
    # m / 2**e lies in (-1, 1), so none of its squares overflow; a power of two
    # scales num by 2**-e and den and the threshold by 4**-e exactly. Outcomes
    # near the float64 limit can still overflow num; the fit or the report refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        m, y = s[rows], y[rows]
        e = np.maximum(np.frexp(np.maximum.reduceat(np.abs(m), bounds[:-1]))[1], [e_u for _, _, e_u in moments])
        m = np.ldexp(m, np.repeat(-e, n))
        dev = m - np.repeat(_segment_means(m, bounds), n)
        num = _segment_means((y - np.repeat(_segment_means(y, bounds), n)) * dev, bounds)
        sums = zip(num.tolist(), _segment_means(dev * dev, bounds).tolist(), _segment_means(m * m, bounds).tolist())
        # each set's coefficient in Python floats, whose min and max keep a -0.0 lambda where numpy's give 0.0
        for (mean_u, root_u, e_u), e_j, (num_j, var_l, sq), n_j in zip(moments, e.tolist(), sums, n.tolist()):
            mean_u, root_u = math.ldexp(mean_u, e_u - e_j), math.ldexp(root_u, e_u - e_j)
            var_u = root_u * root_u / N
            rho = n_j / (n_j + N)
            den = (1.0 - rho) * var_l + rho * var_u
            flat = den <= 1e-12 * max(float(np.ldexp(1.0, -2 * e_j)), sq + var_u + mean_u * mean_u)
            raw = 0.0 if flat else float(np.ldexp(num_j / den, -e_j))
            lam = raw if flat or not clip else min(max(raw, 0.0), 1.0 / (1.0 - rho))
            clipped = {"clip": [0.0, 1.0 / (1.0 - rho)] if clip else None, "clip_active": lam != raw}
            facts.append({"lambda": lam, "lambda_unclipped": raw, **clipped, **({"degenerate_score": True} if flat else {})})
    return _AffineFolds(np.array([f["lambda"] for f in facts]), np.zeros(len(n)), facts=facts)


def _linear_folds(s, y, rows, bounds, context, clip: bool = True) -> _AffineFolds:
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
    lab = LabeledSample(scores, outcomes)
    if lab.n < 2:
        raise DataError("linear calibration needs at least two labeled points")
    return _fit(_linear_folds, lab, clip)


def _check_logit_eps(logit_eps) -> None:
    """ConfigError unless logit_eps lies in (0, 0.5)."""
    if not (0.0 < logit_eps < 0.5):
        raise ConfigError(f"logit_eps must lie in (0, 0.5), got {logit_eps}")


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


@dataclass(frozen=True)
class _SigmoidFolds(_Folds):
    """k Platt maps sigma(scale[j] * logit(score) + shift[j]); every coefficient must be finite (DataError)."""

    scale: np.ndarray
    shift: np.ndarray
    ridge_active: np.ndarray
    logit_eps: float = DEFAULT_LOGIT_EPS
    calibrator = SigmoidCalibrator

    def __post_init__(self):
        if not all(map(math.isfinite, [*self.scale.tolist(), *self.shift.tolist()])):
            raise DataError("sigmoid calibrator coefficients must be finite")

    def fields(self, j: int) -> dict:
        return {"scale": float(self.scale[j]), "shift": float(self.shift[j]), "logit_eps": self.logit_eps,
                **self.described(j)}

    def described(self, j: int) -> dict:
        return {"ridge_active": self.ridge_active.tolist()[j]}

    def at(self, fold, t, x=None) -> np.ndarray:
        """Map fold[i] at t[i], or map fold at every t for an integer fold, strictly inside (0, 1); x is ignored."""
        from scipy.special import expit

        out = expit(self.scale[fold] * _stabilized_logit(np.asarray(t, dtype=np.float64), self.logit_eps) + self.shift[fold])
        # the sigmoid never reaches 0 or 1; undo float saturation
        return np.clip(out, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))

    def on_sample(self, fold, s, rows) -> np.ndarray:
        return self.at(fold, s[rows])


def _platt_folds(s, y, rows, bounds, context, logit_eps: float = DEFAULT_LOGIT_EPS) -> _SigmoidFolds:
    """The Platt fits of k training sets of binary outcomes (DataError for any other outcome).

    Newton's iterations are sequential, so they run once per fold.
    """
    y = y[rows]
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("Platt scaling requires binary outcomes in {0, 1}")
    _check_logit_eps(logit_eps)
    t = _stabilized_logit(s[rows], logit_eps)
    fits = [_platt_newton(t[a:b], y[a:b], _is_separable(t[a:b], y[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]
    theta = np.array([theta for theta, _, _ in fits])
    return _SigmoidFolds(theta[:, 0], theta[:, 1], np.array([ridge for _, _, ridge in fits]), logit_eps)


def fit_platt(scores, outcomes, logit_eps: float = DEFAULT_LOGIT_EPS) -> SigmoidCalibrator:
    """Logistic regression of a binary outcome on the stabilized logit of the score."""
    lab = LabeledSample(scores, outcomes)
    if lab.n < 2:
        raise DataError("Platt scaling needs at least two labeled points")
    return _fit(_platt_folds, lab, logit_eps)


def _range_edges(lo: float, hi: float) -> np.ndarray:
    """The default histogram edges of the score range [lo, hi]."""
    if lo == hi:
        # one bin; from 2**52 on lo + 1 may round to lo, and lo / 2 is a distinct edge
        return np.array([lo, lo + 1.0] if abs(lo) < 2.0**52 else sorted((lo, 0.5 * lo)))
    # a width that overflows is taken over the halved range; doubling back is exact
    scale = 2.0 if math.isinf(hi - lo) else 1.0
    edges = scale * np.linspace(lo / scale, hi / scale, DEFAULT_HISTOGRAM_BINS + 1)
    # a range of fewer than eleven floats keeps its distinct edges
    return edges if (edges[1:] > edges[:-1]).all() else np.unique(edges)


def _default_edges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(edges, count) of the default histogram edges of k score ranges [lo[j], hi[j]]: range j's count[j] edges, stacked.

    DEFAULT_HISTOGRAM_BINS equal-width bins from np.linspace, fewer when a
    range holds fewer distinct floats, and one bin for a range of one value
    (_range_edges). np.linspace runs once per distinct range, told apart by
    bit pattern; folds and bootstrap replicates differ in a few rows, so
    they share few ranges.
    """
    table, edges = {}, []
    bits = zip(lo.view(np.int64).tolist(), hi.view(np.int64).tolist())
    for a, b, key in zip(lo.tolist(), hi.tolist(), bits):
        if key not in table:
            table[key] = _range_edges(a, b)
        edges.append(table[key])
    return np.concatenate(edges), np.array([len(e) for e in edges])


def _histogram_folds(s, y, rows, bounds, context, edges=None) -> _BoundaryFolds:
    """The histogram fits of k training sets: per-bin outcome means, empty bins at the set's mean.

    Every set takes the given edges, or by default its own (_default_edges
    of its score range). Set j's map is the step map whose boundaries are
    its edges but the last and whose values are its bin means, so its cuts
    are its inner edges; facts[j] counts its empty bins. A row's bin is read
    from its position in the sorted sample (_cells), and one np.bincount
    over (fold, bin) keys gives every fold's counts and sums, each bin's in
    the set's stored order.
    """
    k, starts, lengths = len(bounds) - 1, bounds[:-1], bounds[1:] - bounds[:-1]
    if edges is None:
        # s ascends, so each set's lowest and highest rows hold its score range, read from
        # their tie groups' scores, where a zero is 0.0 whichever zeros the set holds
        group, distinct = context.labeled.tie_groups
        lo, hi = (distinct[group[reduce.reduceat(rows, starts)]] for reduce in (np.minimum, np.maximum))
        edges, count = _default_edges(lo, hi)
    else:
        edges, count = np.tile(edges, k), np.full(k, len(edges))
    edge_bounds = np.concatenate(([0], np.cumsum(count)))
    # a fold's boundaries are its edges but the last, and its cuts its edges but the first and the last
    inner = np.ones(len(edges), dtype=bool)
    inner[edge_bounds[1:] - 1] = False
    boundaries = edges[inner]
    inner[edge_bounds[:-1]] = False
    cut_fold, cuts = np.repeat(np.arange(k), count - 2), edges[inner]
    bins = _cells(cut_fold, cuts, k, s, np.repeat(np.arange(k) * len(s), lengths) + rows)
    y = y[rows]
    counts = np.bincount(bins, minlength=len(boundaries))
    sums = np.bincount(bins, weights=y, minlength=len(boundaries))
    bin_means = np.repeat(_segment_means(y, bounds), count - 1)
    nonempty = counts > 0
    bin_means[nonempty] = sums[nonempty] / counts[nonempty]
    empty = np.bincount(np.repeat(np.arange(k), count - 1)[~nonempty], minlength=k)
    maps = _BoundaryFolds(boundaries, bin_means, edge_bounds - np.arange(k + 1), [{"empty_bins": e} for e in empty.tolist()])
    maps.__dict__["steps"] = cut_fold, cuts, bin_means  # the cached steps, found once above
    return maps


def fit_histogram(scores, outcomes, edges=None) -> StepCalibrator:
    """Per-bin outcome means over a fixed partition of the score range, as a step map.

    Default edges: DEFAULT_HISTOGRAM_BINS equal-width bins over the labeled
    score range (fewer when the range holds fewer distinct floats). Given
    edges must be finite and strictly increasing, at least two of them.
    Scores outside [edges[0], edges[-1]] clamp to the end bins; empty bins
    predict the global labeled outcome mean. The map's boundaries are the
    edges but the last, and its values the bin means.
    """
    lab = LabeledSample(scores, outcomes)
    if edges is not None:
        edges = _checked_edges(edges)
    fit = _fit(_histogram_folds, lab, edges)
    # the labeled mean, which an empty bin takes, must be finite even where no bin is empty
    with np.errstate(over="ignore", invalid="ignore"):
        return _refuse_overflow(fit, "histogram", fit.values, np.mean(lab.outcomes))


def _linear_cov_folds(s, y, rows, bounds, context, clip: bool = True) -> _AffineFolds:
    """The least-squares fits of y on an intercept, the covariates and the score, one per training set.

    Each set takes one SVD rank check and one lstsq, on its rows as given,
    and is clipped to its y range if clip. DimensionError without labeled
    covariates, or, with a covariate column, without unlabeled ones where
    the maps are summarised.
    """
    if context.labeled.covariates is None:
        raise DimensionError("linear-cov-cal needs labeled covariates")
    x = context.labeled.covariates[context.labeled.score_order]
    d = x.shape[1]
    coefs = []
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if b - a <= d + 2:
            raise DataError(f"need n > d + 2 labeled points (n={b - a}, d={d})")
        design = np.column_stack([np.ones(b - a), x[rows[a:b]], s[rows[a:b]]])
        sv = np.linalg.svd(design, compute_uv=False)
        if sv[-1] <= max(design.shape) * np.finfo(np.float64).eps * sv[0]:
            raise DataError("rank-deficient calibration design; remove collinear covariate columns")
        coefs.append(np.linalg.lstsq(design, y[rows[a:b]], rcond=None)[0])
    coef, y = np.array(coefs), y[rows]
    ranges = (np.minimum.reduceat(y, bounds[:-1]), np.maximum.reduceat(y, bounds[:-1])) if clip else None
    maps = _AffineFolds(coef[:, d + 1], coef[:, 0], ranges, coef[:, 1 : d + 1] if d else None, x)
    if d and context.unlabeled is not None and context.unlabeled.covariates is None:
        raise DimensionError("covariate-adjusted calibration needs covariates in both samples")
    return maps


def fit_linear_cov(scores, outcomes, covariates, clip: bool = False) -> AffineCalibrator:
    """Least squares of outcomes on an intercept, the covariates, and the score.

    The fit is an AffineCalibrator whose slope is the score coefficient and
    whose cov_coefs are the covariate coefficients, one per column.
    """
    # None too is refused, as a matrix of no dimensions
    return _fit(_linear_cov_folds, LabeledSample(scores, outcomes, _as_matrix(covariates)), clip)


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


def _lower_hull(xs: list, his: list, los: list) -> Tuple[list, list]:
    """The lower hull of the diagram P_j = (xs[j], his[j] + los[j]), j = 0..k, from one right-to-left stack scan.

    Returns the vertices, P_k first and P_0 last, and the slope of the edge
    right of each (inf for P_k). A vertex is popped when the point left of
    it sees it at a slope no less than its right edge's, so no hull vertex
    is collinear with its neighbours. Each point is pushed and popped at
    most once, so the scan is O(k).
    """
    hull, slopes = [len(xs) - 1], [math.inf]
    for v in range(len(xs) - 2, -1, -1):
        w = hull[-1]
        slope = ((his[w] - his[v]) + (los[w] - los[v])) / (xs[w] - xs[v])
        while slope >= slopes[-1]:
            hull.pop()
            slopes.pop()
            w = hull[-1]
            slope = ((his[w] - his[v]) + (los[w] - los[v])) / (xs[w] - xs[v])
        hull.append(v)
        slopes.append(slope)
    return hull, slopes


def _bridges(xs: list, his: list, los: list, hull: list, slopes: list, label: float) -> list:
    """Isotonic fitted value of a point with outcome label tied with each of the k labeled blocks.

    xs[j] counts the rows of blocks 0..j-1 and C_j = his[j] + los[j] sums
    their outcomes (_prefix_sums), so the diagram P_j = (xs[j], C_j) has a
    vertex at the end of every tie-pooled labeled block; hull and slopes are
    its lower hull (_lower_hull), which the pass consumes. A point tied with
    block j joins the block from P_j to P_j+1. Moving the prefix P_0..P_j by
    (-1, -label), rather than the suffix by (1, label), leaves every slope
    as it is, and the fitted value is the slope of the bridge between the
    moved prefix and the suffix,

        max over i <= j of  min over r > j of  (C_r - C_i + label) / (x_r - x_i + 1),

    with C_r - C_i taken as (his[r] - his[i]) + (los[r] - los[i]), as
    accurate as the block sum it stands for. One pass over j = 0..k-1 finds
    them all (Vovk, Petej and Fedorova, 2015, Algorithms 1-4). The stack
    holds the lower hull of the unmoved suffix, its left end on top, with
    the slope of each vertex's right edge. At step j, P_j moves. If it falls
    below the bridge, or the bridge ended at its own vertex, it starts the
    new bridge: it pops its own vertex and every vertex it sees past, and
    the new value is its slope to the top. Otherwise the bridge and its
    value stay. Each vertex is popped at most once, so the pass is O(k).
    Every block mean must be at most label: then the moved P_j sees its own
    unmoved vertex at the steepest slope, and no suffix point that vertex
    hides can start a bridge. The slopes are written out in the loop, not
    taken from a helper, since a Python call per slope is a large part of
    the pass's cost.
    """
    values, value = [], -math.inf
    for j in range(len(xs) - 1):
        if hull[-1] == j:
            # the bridge ended at P_j's own vertex (always so at j = 0): P_j starts the new one
            hull.pop()
            slopes.pop()
            value = -math.inf
        # the slope of the moved P_j to the unmoved P_r; every slope is finite
        r = hull[-1]
        slope = ((his[r] - his[j]) + (los[r] - los[j]) + label) / (xs[r] - xs[j] + 1.0)
        if slope > value:
            while slope >= slopes[-1]:
                hull.pop()
                slopes.pop()
                r = hull[-1]
                slope = ((his[r] - his[j]) + (los[r] - los[j]) + label) / (xs[r] - xs[j] + 1.0)
            value = slope
        values.append(value)
    return values


def _finite_target(shrink_target) -> float:
    """shrink_target, unless it is not a finite real number (ConfigError)."""
    if not (isinstance(shrink_target, numbers.Real) and math.isfinite(shrink_target)):
        raise ConfigError(f"shrink_target must be a finite real number, got {shrink_target!r}")
    return shrink_target


def _venn_abers(distinct, counts, sums, shrink_target: float) -> Tuple[np.ndarray, np.ndarray]:
    """(boundaries, values) of the Venn-Abers map of a labeled sample's tie blocks.

    The blocks are given by their scores, ascending, their row counts and
    their outcome sums (_tie_blocks of the sample's tie groups, each sum
    over the rows as stored). The one fit of fit_venn_abers and, once per
    training set, of venn-abers' fold-stacked fit (_venn_abers_folds). The
    outcomes must lie in [0, 1] and the target be finite; the callers check
    them.

    The diagram's lower hull is scanned once (_lower_hull), and each label
    runs one bridge pass from it (_bridges). Label 1 runs on the diagram
    (x, C). Label 0 runs on the mirrored diagram (-x[::-1], C[::-1]), whose
    values are the negated ones in reverse order; its hull is the same hull
    mirrored, the vertices k - v in reverse order, and each edge slope is
    exactly the negated one, since IEEE subtraction and negation are exact.
    So label 1's values are those of a scan of its own, and label 0's are
    those of a scan of the mirrored diagram whenever the slope comparisons
    are exact. That holds on binary outcomes and on outcomes on a coarse
    dyadic grid: the prefix sums are exact (lo is 0), every slope is a
    correctly rounded quotient with denominator at most n, and two distinct
    slopes differ by at least 1/n^2, far above rounding for n below about
    6e7, so a scan in either direction keeps the same vertices. On other
    outcomes a vertex within an ulp of collinear can survive one direction
    and not the other, which moves a label-0 value by an ulp or so.
    """
    hi, lo = _prefix_sums(sums)
    x = np.concatenate(([0], np.cumsum(counts))).astype(np.float64)
    xs, his, los = x.tolist(), hi.tolist(), lo.tolist()
    hull, slopes = _lower_hull(xs, his, los)
    # label 0's hull on the mirrored diagram: the vertices k - v in reverse order, the slopes negated
    mirrored = [len(xs) - 1 - v for v in reversed(hull)], [math.inf] + [-slope for slope in slopes[:0:-1]]
    f0 = -np.repeat(_bridges((-x[::-1]).tolist(), his[::-1], los[::-1], *mirrored, 0.0)[::-1], 2)
    f1 = np.repeat(_bridges(xs, his, los, hull, slopes, 1.0), 2)
    f0, f1 = np.concatenate(([0.0], f0)), np.concatenate((f1, [1.0]))
    mid = 0.5 * (f0 + f1)
    cuts = np.column_stack((distinct, np.nextafter(distinct, np.inf))).ravel()
    return np.concatenate(([-np.inf], cuts)), mid + (f1 - f0) * (shrink_target - mid)


def _venn_abers_folds(s, y, rows, bounds, context) -> _BoundaryFolds:
    """venn-abers' fits: on each set, the Venn-Abers map shrunk toward the set's raw-score aipw estimate.

    Outcomes outside [0, 1] are affinely rescaled for the calibration step
    and the values mapped back; facts[j] records the map and the target.
    The anchor sums the set's rows as stored with the cached score mean of
    its unlabeled sample, and the map is one call of _venn_abers on the
    set's tie blocks, counted from its rows' tie groups
    (LabeledSample.tie_groups) and rescaled outcomes as stored.
    """
    means = [mean for _, (mean, _) in context.moments(len(bounds) - 1)]
    group, distinct = context.labeled.tie_groups
    maps, facts = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b, mean in zip(bounds[:-1].tolist(), bounds[1:].tolist(), means):
            m_l, y_l = s[rows[a:b]], y[rows[a:b]]
            lo, hi = float(y_l.min()), float(y_l.max())
            lo, span = (0.0, 1.0) if lo >= 0.0 and hi <= 1.0 else (lo, hi - lo or 1.0)
            rho = (b - a) / (b - a + context.unlabeled.n)
            anchor = float(rho * m_l.mean() + (1.0 - rho) * mean) + float((y_l - m_l).mean())
            if not math.isfinite(anchor):
                raise DataError("venn-abers: the aipw anchor overflows float64; rescale the scores and outcomes")
            if math.isinf(span):
                raise DataError("venn-abers: the labeled outcome range overflows float64; rescale the outcomes")
            # the anchor must live on the calibration (rescaled) outcome scale
            target = (anchor - lo) / span
            if not math.isfinite(target):
                raise DataError("venn-abers: the aipw anchor rescaled to the outcome range overflows float64; "
                                "rescale the scores and outcomes")
            bins, counts, sums = _tie_blocks(group[rows[a:b]], (y_l - lo) / span)
            boundaries, shrunk = _venn_abers(distinct[bins], counts, sums, target)
            maps.append((boundaries, lo + span * shrunk))
            facts.append({"shrink_target": lo + span * target, "outcome_rescale": [lo, span]})
    return _BoundaryFolds(*(np.concatenate(part) for part in zip(*maps)), np.cumsum([0] + [len(b) for b, _ in maps]), facts)


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
    _bridges): a point strictly between blocks j - 1 and j has the f1 of a
    point tied with block j and the f0 of one tied with block j - 1, and
    f0 = 0 below all blocks and f1 = 1 above them. Following the
    cumulative-sum-diagram construction of inductive Venn-Abers predictors
    (Vovk, Petej and Fedorova, 2015), each label's tied values come from one
    stack pass over the diagram of the tie-pooled sample, and both passes
    start from its lower hull, scanned once (_venn_abers); label 0 runs on
    the mirrored diagram (-x, C), whose values are the negated ones in
    reverse order. Both passes read the compensated prefix sums, so every
    value is a quotient of one exact-to-rounding block sum. The pairs are
    validated once, sorted once (the sample's by_score and tie_groups),
    counted into tie blocks and fit by _venn_abers, the fit venn-abers'
    fold-stacked fit runs once per set. The fit costs O(n log n + k), and
    evaluating it at N scores O(N log k).
    """
    _finite_target(shrink_target)
    lab = LabeledSample(scores, outcomes)
    if (lab.outcomes < 0).any() or (lab.outcomes > 1).any():
        raise DataError("outcomes must lie in [0, 1]; rescale before calling")
    group, distinct = lab.tie_groups
    bins, counts, sums = _tie_blocks(group[lab.by_score[2]], lab.outcomes)
    return StepCalibrator(*_venn_abers(distinct[bins], counts, sums, shrink_target), _pairs(lab))


def predict(calibrator, scores, covariates=None) -> np.ndarray:
    """Evaluate a fitted calibrator, or any callable on scores, at the given scores.

    Every calibrator receives the covariates, which only an affine map with
    covariate coefficients reads.
    """
    if isinstance(calibrator, _Calibrator):
        return calibrator(scores, covariates)
    return calibrator(np.asarray(scores, dtype=np.float64))

