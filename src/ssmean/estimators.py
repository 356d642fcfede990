"""The semisupervised mean estimator family and its method registry.

All estimators are members of one family indexed by an adjustment function f:

    psi_hat(f) = rho * mean_L{f} + (1 - rho) * mean_U{f} + mean_L{Y - f},

which is unbiased for E[Y] for any fixed f. A method is nothing but its fit
of f: zero (labeled-only), the raw score (aipw), the raw score rescaled by
1/(1-rho) (ppi), the score times an empirical coefficient (ppi-pp /
aipw-em), a fitted calibrator (the *-cal methods), the shrunk interval map
of venn-abers, or auto-cal's cross-validated winner. REGISTRY maps every
method name to its fit (Method), and estimate() runs it by one route,
Method.run, which calibrated_plugin shares; how a fit reaches the family
core, in estimate(), auto-cal's cross-validation and the bootstrap, is told
once in calibrators' comment "fold-stacked fits".

The core reads the unlabeled side only as a summary: the count N, the mean
of f and its centered sum of squares (UnlabeledSummary). _family_core is
the only code of the family algebra, _summaries the only code that
summarises a stack of maps, and _stacked_core the one route from a
fold-stacked fit of many training sets to the core; their docstrings give
their contracts.

Standard errors follow the influence-function plug-in: the adjustment values
are recentered so their pooled weighted mean equals the point estimate (the
recentering that appears in the asymptotic theory; exact intercept
calibration for the raw-score methods, a no-op for mean-calibrated ones),
then

    D_L = a - psi + (Y - a)/rho,   D_U = a - psi,
    SE^2 = (sum D_L^2 + sum D_U^2) / (n + N)^2,

where sum D_U^2 = css + N (mean_U f - plugin)^2 comes from the summary.

labeled-only is the one documented exception: its Method.std_error keeps
the classical ddof=1 standard error of the labeled mean. Every method
refuses n < 2 and a standard error that overflows float64.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Any, Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import calibrators as cal
from ._rng import _seed
from .design import EstimateReport, TwoSampleDesign
from .exceptions import ConfigError, DataError, DimensionError, MisuseError
from .inference import _check_alpha, wald_interval

__all__ = [
    "UnlabeledSummary",
    "ScoredDesign",
    "METHOD_NAMES",
    "REGISTRY",
    "method_name",
    "family_report",
    "eem_lambda",
    "calibrated_plugin",
    "estimate",
]

# families whose fit makes the labeled residual mean exactly zero, so the
# pooled plug-in coincides with its residual-corrected form
MEAN_CALIBRATED_TOL = 1e-10


class UnlabeledSummary(NamedTuple):
    """The unlabeled side of a report: N, the mean of f and sum (f - mean)^2."""

    count: int
    mean: float
    css: float


@dataclass(frozen=True)
class ScoredDesign:
    """A design with adjustment values f on the labeled rows and their summary on the unlabeled ones.

    f_unlabeled is given as the N values of f or as their UnlabeledSummary;
    it is stored as the summary. A summary's css must be nonnegative; an inf
    css, a sum of squares that overflowed, is kept for the core to refuse.
    """

    design: TwoSampleDesign
    f_labeled: np.ndarray
    f_unlabeled: Union[np.ndarray, UnlabeledSummary]

    def __post_init__(self):
        fl = np.asarray(self.f_labeled, dtype=np.float64)
        fu = self.f_unlabeled
        if fl.shape != (self.design.n,):
            raise DimensionError(f"f_labeled has shape {fl.shape}, expected ({self.design.n},)")
        if not isinstance(fu, UnlabeledSummary):
            fu = np.asarray(fu, dtype=np.float64)
            if fu.shape != (self.design.N,):
                raise DimensionError(f"f_unlabeled has shape {fu.shape}, expected ({self.design.N},)")
            fu = _summary(fu)
        elif fu.count != self.design.N:
            raise DimensionError(f"f_unlabeled summarises {fu.count} values, expected {self.design.N}")
        if not (np.isfinite(fl).all() and math.isfinite(fu.mean)):
            raise DataError("adjustment values must be finite")
        if not fu.css >= 0.0:
            raise DataError(f"f_unlabeled summary has css={fu.css!r}; a sum of squares is nonnegative")
        object.__setattr__(self, "f_labeled", fl)
        object.__setattr__(self, "f_unlabeled", fu)


def _summary(values: np.ndarray) -> UnlabeledSummary:
    """The count, mean and centered sum of squares of adjustment values; DataError unless finite.

    A value that is not finite makes the mean not finite, so only the mean is checked.
    """
    # an overflowing sum or square makes the mean or css inf: the former is refused
    # here, the latter by _family_core
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        if not math.isfinite(mean):
            raise DataError("adjustment values must be finite")
        dev = values - mean
        return UnlabeledSummary(len(dev), mean, float(np.add.reduce(np.square(dev, out=dev))))


# the family algebra of one design, or of each row of a matrix of equal-size designs
_Core = namedtuple("_Core", "plugin residual_mean psi total d_l")


def _family_core(f_l, y, unlabeled, method: str) -> _Core:
    """The family algebra: plugin, residual mean, psi, total = sum D_L^2 + sum D_U^2, and D_L.

    f_l and y are the labeled values of f and the outcomes, and unlabeled is
    (count, mean, css) of f on the unlabeled rows. With a = f + (psi - plugin),
    D_L = a - psi + (Y - a)/rho and D_U = a - psi = f - plugin, whose squares
    sum to css + count (mean - plugin)^2; SE = sqrt(total) / (n + count).
    The sums are np.add.reduce, as in .mean(). f_l and y are one design's
    n values (estimate()'s route), or (r, n) matrices, row i a design with
    the summary's mean[i] and css[i] (_stacked_core's route): numpy sums each
    row of a C-contiguous matrix exactly as it sums that row alone, so row
    i's results equal its own call's bit for bit. A total that overflows
    float64 is refused with DataError naming method.
    """
    count, mean_u, css = unlabeled
    n = f_l.shape[-1]
    if f_l.ndim == 1:
        per_row, summed = (lambda v: v), (lambda v: float(np.add.reduce(v)))
    else:
        per_row, summed = (lambda v: v[:, None]), (lambda v: np.add.reduce(v, axis=-1))
    # an overflowing value makes total non-finite, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        mean_l, residual_mean = summed(f_l) / n, summed(y - f_l) / n
        rho = n / (n + count)
        plugin = rho * mean_l + (1.0 - rho) * mean_u
        psi = plugin + residual_mean
        a_l = f_l + per_row(psi - plugin)
        d_l = a_l - per_row(psi) + (y - a_l) / rho
        sq = d_l * d_l
        gap = mean_u - plugin
        total = summed(sq) + css + count * gap * gap
    if not np.isfinite(total).all():
        raise DataError(f"{method}: standard error overflows float64; rescale the scores and outcomes")
    return _Core(plugin, residual_mean, psi, total, d_l)


def _family_se(design: TwoSampleDesign, core: _Core) -> float:
    return math.sqrt(core.total) / design.m_total


def _report(design: TwoSampleDesign, method: str, alpha: float, core: _Core, se: float, diagnostics: dict) -> EstimateReport:
    """The report of core with standard error se; the method's diagnostics follow the core's.

    An SE of exactly 0 gives a zero-width interval, which the report flags
    with the warning code degenerate_se, last in its diagnostics.
    """
    lo, hi = wald_interval(core.psi, se, alpha)
    own = {"plugin_estimate": core.plugin, "aipw_estimate": core.psi, "residual_mean": core.residual_mean}
    caveats = {"warnings": ["degenerate_se"]} if se == 0.0 else {}
    return EstimateReport(core.psi, se, lo, hi, alpha, method, design.n, design.N, {**own, **diagnostics, **caveats})


def family_report(
    scored: ScoredDesign,
    method: str = "family",
    alpha: float = 0.05,
    diagnostics: Optional[dict] = None,
) -> EstimateReport:
    """The family core's psi(f) and SE (see _family_core) with their Wald CI.

    Every report carries plugin_estimate (the pooled mean of f), residual_mean
    (the labeled mean of Y - f) and aipw_estimate (their sum, the estimate);
    the given diagnostics follow.
    """
    d = scored.design
    core = _family_core(scored.f_labeled, d.labeled.outcomes, scored.f_unlabeled, method)
    return _report(d, method, alpha, core, _family_se(d, core), diagnostics or {})


def _summaries(maps, k: int, context) -> list:
    """The mean and centered sum of squares of each of k stacked maps, as a list of k float pairs.

    maps is a calibrators *Folds value, and each map j is summarised on set
    j's unlabeled sample of context (calibrators._Context): one shared
    sample, or the bootstrap's resamples of unlabeled.n rows each, each
    drawn, read and dropped in turn. Every summary from block counts or
    cached moments is computed here, by one of three routes:
    - step maps (iso-cal, hist-cal, venn-abers) from the count of scores in
      each of their blocks, every block of every map summed by one
      np.bincount over map ids. On one shared sample (estimate(), auto-cal's
      folds, calibrated_plugin) the counts below every cut come from one
      np.searchsorted into its once-sorted scores, in O(cuts log N). On the
      bootstrap's resamples every unlabeled row is first given its slot, the
      number of the chunk's distinct cuts at or below its score, in O(N)
      from the sample's sorted scores and cached score_order (one argsort
      per sample, on first use); a resample is then one gather of its rows'
      slots and one np.bincount, O(N) with no resample gathered or sorted,
      and its count below a cut is the cumulative count at the cut's slot;
    - unclipped affine maps of the score alone (labeled-only, ppi, aipw,
      ppi-pp, aipw-em, linear fits without clip) from each sample's cached
      score moments, in O(1) per map, in Python floats;
    - any other map (clipped linear-cal, linear-cov-cal, platt-cal)
      evaluated at every score and covariate row, one map at a time.
    A np.bincount adds each map's blocks in order, so map j's summary equals
    its own one-map call's bit for bit: estimate(), auto-cal's folds and
    the bootstrap's replicates share one summation order.
    """
    u = context.unlabeled
    if isinstance(maps, cal._BoundaryFolds):
        cut_fold, cuts, values = maps.steps
        per_map = np.bincount(cut_fold, minlength=k)
        if context.draws is None:
            # all maps' cuts in the one shared sample at once
            below = np.searchsorted(u.sorted_scores, cuts)
        else:
            # every row's slot: how many of the chunk's distinct cuts lie at or below its score
            slots, inverse = np.unique(cuts, return_inverse=True)
            runs = np.diff(np.searchsorted(u.sorted_scores, slots), prepend=0, append=u.n)
            slot = np.empty(u.n, dtype=np.intp)
            slot[u.score_order] = np.repeat(np.arange(len(slots) + 1), runs)
            # a resample's scores below slots[m] are its rows in slots 0 to m
            pieces = zip(context.draws(), np.split(inverse, np.cumsum(per_map)[:-1]))
            below = np.concatenate([np.cumsum(np.bincount(slot[rows], minlength=len(slots) + 1))[c] for rows, c in pieces])
        counts = cal._block_counts(cut_fold, below, k, u.n)
        # only the values some score takes, as when a map is evaluated per score
        taken = counts > 0
        block = np.repeat(np.arange(k), per_map + 1)[taken]
        counts, values = counts[taken], values[taken]
        # a sum or square that overflows makes a mean or css non-finite, which
        # ScoredDesign or _family_core refuses
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.bincount(block, counts * values, k) / u.n
            dev = values - mean[block]
            return list(zip(mean.tolist(), np.bincount(block, counts * (dev * dev), k).tolist()))
    if isinstance(maps, cal._AffineFolds) and maps.clip is None and maps.cov is None:
        # constant maps (labeled-only's) read no moments, so their resamples are not drawn
        moments = context.moments(k) if maps.slope.any() else [((), (0.0, 0.0))] * k
        pairs = []
        for slope, intercept, (_, (mean, root)) in zip(maps.slope.tolist(), maps.intercept.tolist(), moments):
            if slope:
                spread = slope * root
                pairs.append((slope * mean + intercept, spread * spread))
            else:  # constant, even where the scores' root overflows
                pairs.append((intercept, 0.0))
        return pairs
    samples = repeat(u, k) if context.draws is None else map(u.take, context.draws())
    return [_summary(maps.at(j, v.scores, v.covariates))[1:] for j, v in enumerate(samples)]


def _stacked_core(method: "Method", context, sets, scored, name: str) -> _Core:
    """The family core of each of k training sets, from one call of method's fold-stacked fit.

    context (calibrators._Context) holds the labeled sample, whose pairs in
    score order (by_score) the rows index, and each set's unlabeled sample.
    sets = (rows, bounds) gives the k training sets, and scored = (rows,
    bounds) k segments of the same pairs: set j's map is scored at segment
    j (a bootstrap replicate's own rows, or auto-cal fold j's held-out rows
    in row order) and summarised on its unlabeled sample (_summaries). The
    core runs once per run of equal-size segments (calibrators._by_segment),
    one segment per row, so set j's plugin, residual_mean, psi and total,
    the k-vectors returned (with no d_l), equal the 1-D core's of segment j
    bit for bit. A refusal raises an SsmeanError, not necessarily the one
    the first refused set's own run raises.
    """
    s, y, _ = context.labeled.by_score
    rows, bounds = scored
    k = len(bounds) - 1
    fold = np.arange(k).repeat(bounds[1:] - bounds[:-1])
    # a value that overflows makes its set's total non-finite, which the core refuses
    with np.errstate(over="ignore", invalid="ignore"):
        maps = method.stacked_fit(s, y, *sets, context)
        f_l = maps.on_sample(fold, s, rows)
        mean, css = np.array(_summaries(maps, k, context)).T

    def run(j, f_l, y):
        j = j[:, 0]  # the set of each row
        return _family_core(f_l, y, (context.unlabeled.n, mean[j], css[j]), name)[:4]

    return _Core(*cal._by_segment(run, bounds, fold, f_l, y[rows]), None)


def _calibration(labeled, f_l: np.ndarray, residual_mean: float, slope=None, intercept=None, clip_range=None, **own) -> dict:
    """A calibrated method's diagnostics from its labeled values f_l, the core's residual mean and its map's facts.

    The facts are the stack's described(0). The calibration MSEs of the raw
    score and of f, then an affine map's slope and intercept, with its clip
    range and whether the clip moved the labeled residual mean, then the
    map's other facts: a Platt map's ridge_active, or a histogram's
    empty_bins, which its stack keeps and no calibrator field holds. For mean-calibrated fits (isotonic, least-squares linear
    with inactive clipping, histogram, covariate-adjusted linear) the
    labeled residual mean is zero, so the pooled plug-in mean and its
    residual-corrected form coincide to machine precision. When clipping is
    active the two differ; the residual-corrected form is the estimate,
    since it retains the family's unbiasedness, and clip_active records the
    gap.
    """
    y = labeled.outcomes
    # a sum that overflows raises no numpy warning, since a report may refuse it after this runs
    with np.errstate(over="ignore", invalid="ignore"):
        mse = [labeled.score_mse, float(np.mean((y - f_l) ** 2))]
        # a mean square that overflows float64 is reported as unknown
        before, after = (v if math.isfinite(v) else None for v in mse)
        diagnostics = {"calibration_mse_before": before, "calibration_mse_after": after}
        if slope is not None:
            diagnostics["slope"], diagnostics["intercept"] = slope, intercept
            if clip_range is not None:
                diagnostics["clip_range"] = list(clip_range)
                diagnostics["clip_active"] = abs(residual_mean) > MEAN_CALIBRATED_TOL * max(1.0, float(np.mean(np.abs(y))))
    return {**diagnostics, **own}


class _CallableMap(NamedTuple):
    """Any callable on scores as a one-map stack with no facts: calibrated_plugin's map for it."""

    f: Callable

    def at(self, fold, t, x=None) -> np.ndarray:
        values = np.asarray(cal.predict(self.f, t), dtype=np.float64)
        if values.shape != t.shape:
            raise DimensionError(f"adjustment values have shape {values.shape}, expected {t.shape}")
        return values

    def described(self, j: int) -> dict:
        return {}


def calibrated_plugin(
    design: TwoSampleDesign,
    calibrator,
    alpha: float = 0.05,
    method_name: str = "calibrated",
) -> EstimateReport:
    """Report of a calibrator fitted elsewhere, or of any callable on scores, in residual-corrected form.

    The one place that checks what a calibrator was fit on: its fitted_on
    pairs must be exactly this design's labeled (score, outcome) pairs, in any
    row order, or MisuseError is raised. A hand-built calibrator (fitted_on
    None, or any callable without it) is taken as given. estimate() runs no
    check, since it fits its maps on the very labeled sample. The map then
    takes estimate()'s route (Method.run) under method_name: a calibrator's
    is its one-map stack, and any other callable's is evaluated at every
    score. So the report is estimate()'s for the same map, n < 2 is refused,
    and a DataError of the scoring or the core names method_name.
    """
    pairs = getattr(calibrator, "fitted_on", None)
    if pairs is not None:
        pairs, ours = np.asarray(pairs, dtype=np.float64), cal._pairs(design.labeled)
        # equal as multisets: both sets of rows sorted by (outcome, score)
        if pairs.shape != ours.shape or not np.array_equal(pairs[np.lexsort(pairs.T)], ours[np.lexsort(ours.T)]):
            raise MisuseError("calibrator was not fit on this design's labeled sample")
    _check_alpha(alpha)
    maps = calibrator._stack if isinstance(calibrator, cal._Calibrator) else _CallableMap(calibrator)
    return _GivenMap(maps=maps).run(design, method_name, alpha, 0)[1]


def eem_lambda(design: TwoSampleDesign, clip: Optional[Tuple[float, float]] = None) -> float:
    """Empirical variance-minimizing scaling of the score over {lambda * m}: aipw-em's fit.

    lambda_hat = Cov_L(Y, m) / [(1-rho) Var_L(m) + rho Var_U(m)], clamped to
    the clip interval when one is given. Returns 0 when the score has no
    variance in either sample (the coefficient is unidentified). It reads
    the facts of aipw-em's k = 1 stack.
    """
    facts = REGISTRY["aipw-em"].fit(design).maps.facts[0]
    return facts["lambda"] if clip is None or "degenerate_score" in facts else min(max(facts["lambda"], clip[0]), clip[1])


# --- registry ----------------------------------------------------------------


class _Fit(NamedTuple):
    """A method's k = 1 fit on a design (Method.fit)."""

    method: "Method"  # the method whose diagnostics the fit carries: auto-cal's winner
    maps: Any  # the k = 1 stack (a calibrators *Folds value)
    extra: dict  # diagnostics that follow the method's: auto-cal's CV table


@dataclass(frozen=True)
class Method:
    """A registry entry: the fit that gives a method its adjustment map f.

    stacked_fit(s, y, rows, bounds, context) is the method's fold-stacked
    fit core, which fits k training sets in one call (see calibrators'
    comment "fold-stacked fits"), and fit(design) is its k = 1 call on the
    design. run takes a fit to the family core and the report. A calibrated
    method's diagnostics are its map's calibration facts (_calibration);
    any other method's are its fit's facts, if the stack has any.
    std_error(design, core) gives the report's SE, the core's for every
    method but labeled-only.
    """

    stacked_fit: Optional[Callable[..., Any]] = None
    calibrated: bool = True

    def fit(self, design: TwoSampleDesign, seed: int = 0) -> _Fit:
        return _Fit(self, self.stacked_fit(*cal._single(design.labeled, design.unlabeled)), {})

    def describe(self, maps, labeled, f_l: np.ndarray, core: _Core) -> dict:
        if self.calibrated:
            return _calibration(labeled, f_l, core.residual_mean, **maps.described(0))
        return maps.facts[0] if maps.facts else {}

    def run(self, design: TwoSampleDesign, name: str, alpha: Optional[float], seed: int) -> Tuple[_Core, Optional[EstimateReport], Any]:
        """The core, the report and the k = 1 stack of the method on design: estimate()'s one route.

        The k = 1 fit, the map at the labeled scores (maps.at, in row
        order), its unlabeled summary from _summaries, and the family core,
        which the report is built from. Every method needs n >= 2 for an
        honest SE. A value that overflows float64 is refused by the fit, the
        finiteness check of the adjustment values or the family core, with
        no numpy warning before the refusal. A DataError of the fit or the
        scoring names the method: one raised below the registry gets its
        prefix. With alpha None (the bootstrap's replay of a replicate) the
        report is None: a replicate computes psi alone.
        """
        if design.n < 2:
            raise DataError(f"{name} needs n >= 2 labeled points for a standard error, got n={design.n}")
        lab = design.labeled
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                fitted, maps, extra = self.fit(design, seed)
                f_l = maps.at(0, lab.scores, lab.covariates)
                [(mean, css)] = _summaries(maps, 1, cal._Context(None, design.unlabeled))
                if not (np.isfinite(f_l).all() and math.isfinite(mean)):
                    raise DataError("adjustment values must be finite")
            except DataError as exc:
                if str(exc).startswith(f"{name}: "):
                    raise
                raise DataError(f"{name}: {exc}") from exc
        core = _family_core(f_l, lab.outcomes, (design.N, mean, css), name)
        if alpha is None:
            return core, None, maps
        diagnostics = {**fitted.describe(maps, lab, f_l, core), **extra}
        return core, _report(design, name, alpha, core, self.std_error(design, core), diagnostics), maps

    std_error = staticmethod(_family_se)


class _LabeledOnly(Method):
    """f = 0, but with the classical ddof=1 standard error of the labeled
    mean; its estimate is the family's, so only its report's SE differs."""

    @staticmethod
    def std_error(design, core):
        y = design.labeled.outcomes
        return float(y.std(ddof=1) / np.sqrt(len(y)))


@dataclass(frozen=True)
class _AutoCal(Method):
    """The cross-validated winner among candidates, by default
    selection.AUTO_CAL_CANDIDATES; see selection.autocal_select. Its fit is
    the winner's, with the CV table."""

    candidates: Any = None

    def fit(self, design, seed=0):
        from . import selection

        return selection._autocal_fit(design, self.candidates or selection.AUTO_CAL_CANDIDATES, seed)


@dataclass(frozen=True)
class _GivenMap(Method):
    """calibrated_plugin's method: a calibrated method whose fit is the given
    stack, which it returns without reading the design."""

    maps: Any = None

    def fit(self, design, seed=0):
        return _Fit(self, self.maps, {})


REGISTRY = {
    "labeled-only": _LabeledOnly(partial(cal._unit_folds, slope=0.0), calibrated=False),
    "ppi": Method(cal._ppi_folds, calibrated=False),
    "aipw": Method(cal._unit_folds, calibrated=False),
    "ppi-pp": Method(partial(cal._eem_folds, clip=True), calibrated=False),
    "aipw-em": Method(cal._eem_folds, calibrated=False),
    "linear-cal": Method(cal._linear_folds),
    "linear-cov-cal": Method(cal._linear_cov_folds),
    "platt-cal": Method(cal._platt_folds),
    "iso-cal": Method(cal._isotonic_folds),
    "hist-cal": Method(cal._histogram_folds),
    "venn-abers": Method(cal._venn_abers_folds, calibrated=False),
    "auto-cal": _AutoCal(),
}

METHOD_NAMES = tuple(REGISTRY)


def method_name(method: str) -> str:
    """The method's registered name; ConfigError for any other value."""
    name = str(method)
    if name not in REGISTRY:
        raise ConfigError(f"unknown method {name!r}; valid methods: {', '.join(METHOD_NAMES)}")
    return name


def estimate(
    design: TwoSampleDesign,
    method: str,
    alpha: float = 0.05,
    seed: int = 0,
) -> EstimateReport:
    """Run one named method on a design.

    The seed only matters for auto-cal (fold shuffling and the unlabeled
    subsample); every other method is deterministic in the data. Every
    method refuses a seed that is not a non-negative integer (ConfigError).
    """
    name = method_name(method)
    _check_alpha(alpha)
    return REGISTRY[name].run(design, name, alpha, _seed(seed))[1]
