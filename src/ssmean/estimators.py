"""The semisupervised mean estimator family and its method registry.

All estimators are members of one family indexed by an adjustment function f:

    psi_hat(f) = rho * mean_L{f} + (1 - rho) * mean_U{f} + mean_L{Y - f},

which is unbiased for E[Y] for any fixed f. A method is nothing but its fit
of f, an Adjuster: zero (labeled-only), the raw score (aipw), the raw score
rescaled by 1/(1-rho) (ppi), the score times an empirical coefficient
(ppi-pp / aipw-em), a fitted calibrator (the *-cal methods), the shrunk
interval map of venn-abers, or auto-cal's cross-validated winner. REGISTRY
maps every method name to its fit; a selectable method's is the k = 1 call
of its fold-stacked fit core, which auto-cal's cross-validation calls once
on all its folds. _family_core is the only code of the family algebra: from the
labeled values of f, the outcomes and the unlabeled summary it gives the
plug-in, the residual mean, psi, the labeled influence values and the sum
of squares of the SE. Every method is fit and scored once (Method.scored)
and Method.report builds its report from the core once and returns both, so
ate_two_arm takes each arm's influence values and plug-in from its report's
core; Method.point keeps psi alone; auto-cal's cross-validation runs the
core once per candidate with every fold its own design; and the refitting
bootstrap runs it once per chunk of replicates, each replicate a row of
one matrix, after one stacked fit of the chunk (a method without a stacked
fit runs Method.point per replicate).

The core reads the unlabeled side only as a summary: the count N, the mean
of f and its centered sum of squares (UnlabeledSummary). Step maps
(iso-cal, hist-cal, venn-abers) give it from the counts of the sample's
once-sorted scores in each of their k blocks, in O(k log N); unclipped
affine maps of the score alone (ppi, aipw, ppi-pp, aipw-em, and linear
fits without clip or covariates) from the sample's cached score moments, in
O(1), from which ppi-pp and aipw-em also fit their coefficient; the
constant zero of labeled-only needs neither. Every other f is evaluated at
the N scores and the values summarised.

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
from typing import Any, Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import calibrators as cal
from ._rng import _seed
from .design import EstimateReport, TwoSampleDesign, UnlabeledSample
from .exceptions import ConfigError, DataError, DimensionError, MisuseError
from .inference import _check_alpha, wald_interval

__all__ = [
    "Adjuster",
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
        return UnlabeledSummary(len(dev), mean, float(np.sum(np.square(dev, out=dev))))


# the family algebra of one design, or per fold of every fold's design
_Core = namedtuple("_Core", "plugin residual_mean psi total d_l")


def _family_core(f_l, y, unlabeled, method: str, folds=None) -> _Core:
    """The family algebra: plugin, residual mean, psi, total = sum D_L^2 + sum D_U^2, and D_L.

    f_l and y are the labeled values of f and the outcomes, and unlabeled is
    (count, mean, css) of f on the unlabeled rows. With a = f + (psi - plugin),
    D_L = a - psi + (Y - a)/rho and D_U = a - psi = f - plugin, whose squares
    sum to css + count (mean - plugin)^2; SE = sqrt(total) / (n + count).
    folds = (fold, held) makes each fold j a design of its held[j] labeled
    rows and the summary's mean[j] and css[j], with per-fold results from
    np.bincount sums. Without folds the sums are np.sum, as in .mean(), and
    f_l and y may be (r, n) matrices, row i a design with the summary's
    mean[i] and css[i] (the bootstrap's replicates): numpy sums each row of
    a C-contiguous matrix exactly as it sums that row alone, so row i's
    results equal its own call's bit for bit. A total that overflows
    float64 is refused with DataError naming method.
    """
    count, mean_u, css = unlabeled
    # an overflowing value makes total non-finite, which is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if folds is None:
            n = f_l.shape[-1]
            if f_l.ndim == 1:
                per_row, summed = (lambda v: v), (lambda v: float(np.sum(v)))
            else:
                per_row, summed = (lambda v: np.expand_dims(v, -1)), (lambda v: np.sum(v, axis=-1))
        else:
            fold, n = folds
            k = len(n)
            per_row, summed = (lambda v: v[fold]), (lambda v: np.bincount(fold, v, k))
        mean_l, residual_mean = summed(f_l) / n, summed(y - f_l) / n
        rho = n / (n + count)
        plugin = rho * mean_l + (1.0 - rho) * mean_u
        psi = plugin + residual_mean
        a_l = f_l + per_row(psi - plugin)
        d_l = a_l - per_row(psi) + (y - a_l) / per_row(rho)
        sq = d_l * d_l
        gap = mean_u - plugin
        total = summed(sq) + css + count * gap * gap
    if not np.isfinite(total).all():
        raise DataError(f"{method}: standard error overflows float64; rescale the scores and outcomes")
    return _Core(plugin, residual_mean, psi, total, d_l)


def _family_se(scored: ScoredDesign, core: _Core) -> float:
    return math.sqrt(core.total) / scored.design.m_total


def _report(scored: ScoredDesign, method: str, alpha: float, describe, std_error=_family_se) -> Tuple[_Core, EstimateReport]:
    """The core of scored and its report; std_error(scored, core) gives the SE.

    describe(scored) and std_error run once the core has found its total finite.
    """
    d = scored.design
    core = _family_core(scored.f_labeled, d.labeled.outcomes, scored.f_unlabeled, method)
    se = std_error(scored, core)
    lo, hi = wald_interval(core.psi, se, alpha)
    diagnostics = {"plugin_estimate": core.plugin, "aipw_estimate": core.psi, "residual_mean": core.residual_mean}
    return core, EstimateReport(core.psi, se, lo, hi, alpha, method, d.n, d.N, {**diagnostics, **describe(scored)})


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
    return _report(scored, method, alpha, lambda _: diagnostics or {})[1]


def _no_diagnostics(scored: ScoredDesign) -> dict:
    return {}


def _unlabeled_side(f, sample: UnlabeledSample) -> UnlabeledSummary:
    """The summary of f on an unlabeled sample.

    A step map (StepCalibrator, BinnedCalibrator) is summarised from the
    counts of the sorted scores in each of its blocks, and an AffineCalibrator
    with no clip and no covariate coefficients from the scores' mean and root
    centered sum of squares; neither is evaluated per score. Any other f,
    a clipped or covariate-adjusted affine map included, is evaluated at
    every score (and covariate row) through calibrators.predict, and the
    values are checked and summarised.
    """
    if isinstance(f, (cal.StepCalibrator, cal.BinnedCalibrator)):
        cuts, values = f.steps()
        counts = np.diff(np.concatenate(([0], np.searchsorted(sample.sorted_scores, cuts), [sample.n])))
        # only the values some score takes, as when f is evaluated per score
        taken = counts > 0
        counts, values = counts[taken], values[taken]
        mean = float(counts @ values) / sample.n
        dev = values - mean
        with np.errstate(over="ignore"):
            return UnlabeledSummary(sample.n, mean, float(counts @ (dev * dev)))
    if isinstance(f, cal.AffineCalibrator) and f.clip_range is None and not f.cov_coefs:
        if not f.slope:  # constant, even where the scores' root overflows
            return UnlabeledSummary(sample.n, f.intercept, 0.0)
        mean, root_css = sample.score_moments
        spread = f.slope * root_css
        return UnlabeledSummary(sample.n, f.slope * mean + f.intercept, spread * spread)
    return _summary(cal.predict(f, sample.scores, sample.covariates))


class Adjuster(NamedTuple):
    """A fitted family member: its adjustment map f and its own diagnostics.

    f is evaluated on the labeled rows through calibrators.predict, so it is
    any callable on scores, or a fitted calibrator (an AffineCalibrator
    also receives the covariates), and summarised on the unlabeled sample by
    _unlabeled_side. describe(scored) gives the member's diagnostics from
    the values of f on a design.
    """

    f: Callable[..., np.ndarray]
    describe: Callable[[ScoredDesign], dict] = _no_diagnostics

    def scored(self, design: TwoSampleDesign) -> ScoredDesign:
        lab = design.labeled
        return ScoredDesign(
            design,
            cal.predict(self.f, lab.scores, lab.covariates),
            _unlabeled_side(self.f, design.unlabeled),
        )

    def report(self, design: TwoSampleDesign, method: str, alpha: float = 0.05) -> EstimateReport:
        return _report(self.scored(design), method, alpha, self.describe)[1]


# --- adjusters ---------------------------------------------------------------


def _fit_zero(design: TwoSampleDesign) -> Adjuster:
    return Adjuster(cal.AffineCalibrator(0.0, 0.0))


def _fit_ppi(design: TwoSampleDesign) -> Adjuster:
    """f = m / (1 - rho): psi is the unlabeled score mean plus the labeled residual."""
    return Adjuster(cal.AffineCalibrator(1.0 / (1.0 - design.rho), 0.0))


def _eem_lambda_full(design: TwoSampleDesign, clip: Optional[Tuple[float, float]]):
    y, m, rho = design.labeled.outcomes, design.labeled.scores, design.rho
    # the unlabeled side is its sample's cached moments of m / 2**e_u; no score is read
    mean_u, root_u, e_u = design.unlabeled.scaled_moments
    # m / 2**e lies in (-1, 1), so none of its squares overflow; a power of two
    # scales num by 2**-e and den and the threshold by 4**-e exactly
    e = max(int(np.frexp(np.abs(m).max())[1]), e_u)
    m_l = np.ldexp(m, -e)
    mean_u, root_u = math.ldexp(mean_u, e_u - e), math.ldexp(root_u, e_u - e)
    var_u = root_u * root_u / design.N
    # outcomes near the float64 limit can still overflow num; the report refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        num = float(np.mean((y - y.mean()) * (m_l - m_l.mean())))
        var_l = float(np.mean((m_l - m_l.mean()) ** 2))
        scale = max(float(np.ldexp(1.0, -2 * e)), float(np.mean(m_l**2)) + var_u + mean_u * mean_u)
    den = (1.0 - rho) * var_l + rho * var_u
    degenerate = den <= 1e-12 * scale
    lam_raw = 0.0 if degenerate else float(np.ldexp(num / den, -e))
    lam = lam_raw if clip is None or degenerate else min(max(lam_raw, clip[0]), clip[1])
    return lam, lam_raw, degenerate, lam != lam_raw


def eem_lambda(design: TwoSampleDesign, clip: Optional[Tuple[float, float]] = None) -> float:
    """Empirical variance-minimizing scaling of the score over {lambda * m}.

    lambda_hat = Cov_L(Y, m) / [(1-rho) Var_L(m) + rho Var_U(m)], clamped to
    the clip interval when one is given. Returns 0 when the score has no
    variance in either sample (the coefficient is unidentified).
    """
    lam, _, _, _ = _eem_lambda_full(design, clip)
    return lam


def _scaled(design: TwoSampleDesign, clip: Optional[Tuple[float, float]]) -> Adjuster:
    """f = lambda_hat * m, so psi = mean_L(Y) + (1-rho) * lambda_hat * (mean_U(m) - mean_L(m))."""
    lam, lam_raw, degenerate, clip_active = _eem_lambda_full(design, clip)
    diagnostics = {
        "lambda": lam,
        "lambda_unclipped": lam_raw,
        "clip": None if clip is None else list(clip),
        "clip_active": clip_active,
    }
    if degenerate:
        diagnostics["degenerate_score"] = True
    return Adjuster(cal.AffineCalibrator(lam, 0.0), lambda scored: diagnostics)


def _fit_aipw_em(design: TwoSampleDesign) -> Adjuster:
    return _scaled(design, None)


def _fit_ppi_pp(design: TwoSampleDesign) -> Adjuster:
    """Clipped empirical efficiency maximization: lambda in [0, 1/(1-rho)]."""
    return _scaled(design, (0.0, 1.0 / (1.0 - design.rho)))


def _calibrated(calibrator) -> Adjuster:
    """The adjuster of a fitted calibrator, with its fit and calibration facts.

    For mean-calibrated fits (isotonic, least-squares linear with inactive
    clipping, histogram, covariate-adjusted linear) the labeled residual mean
    is zero, so the pooled plug-in mean and its residual-corrected form
    coincide to machine precision. When clipping is active the two differ;
    the residual-corrected form is the estimate, since it retains the
    family's unbiasedness, and clip_active records the gap.
    """

    def describe(scored: ScoredDesign) -> dict:
        lab = scored.design.labeled
        y, pred_l = lab.outcomes, scored.f_labeled
        with np.errstate(over="ignore"):
            mse = [float(np.mean((y - pred) ** 2)) for pred in (lab.scores, pred_l)]
        # a mean square that overflows float64 is reported as unknown
        before, after = (v if math.isfinite(v) else None for v in mse)
        diagnostics = {"calibration_mse_before": before, "calibration_mse_after": after}
        if isinstance(calibrator, cal.AffineCalibrator):
            diagnostics["slope"] = calibrator.slope
            diagnostics["intercept"] = calibrator.intercept
            if calibrator.clip_range is not None:
                residual_mean = float((y - pred_l).mean())
                diagnostics["clip_range"] = list(calibrator.clip_range)
                diagnostics["clip_active"] = abs(residual_mean) > MEAN_CALIBRATED_TOL * max(1.0, float(np.mean(np.abs(y))))
        if isinstance(calibrator, cal.BinnedCalibrator):
            diagnostics["empty_bins"] = calibrator.empty_bins
        if isinstance(calibrator, cal.SigmoidCalibrator):
            diagnostics["ridge_active"] = calibrator.ridge_active
        return diagnostics

    return Adjuster(calibrator, describe)


def _fit_linear_cov(design: TwoSampleDesign) -> Adjuster:
    lab = design.labeled
    if lab.covariates is None:
        raise DimensionError("linear-cov-cal needs labeled covariates")
    calib = cal.fit_linear_cov(lab.scores, lab.outcomes, lab.covariates, clip=True)
    if calib.cov_coefs and design.unlabeled.covariates is None:
        raise DimensionError("covariate-adjusted calibration needs covariates in both samples")
    return _calibrated(calib)


def _fit_venn_abers(design: TwoSampleDesign) -> Adjuster:
    """Interval-calibrated predictions shrunk toward the raw-score aipw estimate.

    Outcomes outside [0, 1] are affinely rescaled for the calibration step and
    the predictions mapped back; the map is recorded in diagnostics. The
    shrunk map is a step function, so the unlabeled side is counted per block.
    The map is fit by fit_venn_abers' core on the labeled sample's cached
    score order (by_score), with no second validation or sort.
    """
    m_l, y = design.labeled.scores, design.labeled.outcomes
    if y.min() >= 0.0 and y.max() <= 1.0:
        lo, span = 0.0, 1.0
    else:
        lo = float(y.min())
        span = float(y.max()) - lo if y.max() > y.min() else 1.0
    rho = design.rho
    # the aipw estimate; the unlabeled score mean is the sample's cached one
    with np.errstate(over="ignore", invalid="ignore"):
        anchor = float(rho * m_l.mean() + (1.0 - rho) * design.unlabeled.score_moments[0]) + float((y - m_l).mean())
    if not math.isfinite(anchor):
        raise DataError("venn-abers: the aipw anchor overflows float64; rescale the scores and outcomes")
    # the anchor must live on the calibration (rescaled) outcome scale
    target_scaled = cal._finite_target((anchor - lo) / span)
    if math.isinf(span):
        # the outcomes farthest from lo rescale to inf / inf, a NaN outcome of the calibration sample
        raise DataError(f"labeled outcomes has non-finite value at index {int(np.argmax(y - lo == np.inf))}")
    s, y_sorted, _ = design.labeled.by_score
    boundaries, values = cal._venn_abers(s, (y_sorted - lo) / span, target_scaled)
    diagnostics = {"shrink_target": lo + span * target_scaled, "outcome_rescale": [lo, span]}
    return Adjuster(cal.StepCalibrator(boundaries, lo + span * values), lambda scored: diagnostics)


def calibrated_plugin(
    design: TwoSampleDesign,
    calibrator,
    alpha: float = 0.05,
    method_name: str = "calibrated",
) -> EstimateReport:
    """Report of a calibrator fitted elsewhere, in residual-corrected form.

    The one place that checks what a calibrator was fit on: its fitted_on
    pairs must be exactly this design's labeled (score, outcome) pairs, in any
    row order, or MisuseError is raised. A hand-built calibrator (fitted_on
    None, or any callable without it) is taken as given. estimate() runs no
    check, since it fits its calibrators on the very labeled sample.
    """
    pairs = getattr(calibrator, "fitted_on", None)
    if pairs is not None:
        lab = design.labeled
        ours = np.column_stack((lab.scores, lab.outcomes))
        # equal as multisets: both sets of rows sorted by (outcome, score)
        if pairs.shape != ours.shape or not np.array_equal(pairs[np.lexsort(pairs.T)], ours[np.lexsort(ours.T)]):
            raise MisuseError("calibrator was not fit on this design's labeled sample")
    return _calibrated(calibrator).report(design, method_name, alpha)


# --- registry ----------------------------------------------------------------


def _check_n(design: TwoSampleDesign, name: str) -> None:
    if design.n < 2:
        raise DataError(f"{name} needs n >= 2 labeled points for a standard error, got n={design.n}")


@dataclass(frozen=True)
class Method:
    """A registry entry: the fit that gives a method its adjuster f.

    A selectable method is one fold-stacked fit core of labeled pairs,
    stacked_fit(s, y, rows, bounds) (see calibrators' fold-stacked fits),
    which fits k training sets, given as rows of a labeled sample in stable
    score order, in one call and reads nothing else. fit(design) is its
    k = 1 call on design.labeled.by_score, wrapped by adjuster; cross-fitting,
    auto-cal's cross-validation, which runs the core on all its folds at
    once, and the refitting bootstrap, which runs it on a chunk of
    replicates at once, run the same code. An ordered core (iso-cal's) reads
    each set in stable ascending score order, so its fit(design) runs on the
    labeled sample in the sample's cached score_order. The others give the
    same map for the pairs in any order, up to the order of their sums, and
    read the rows as stored; auto-cal's folds and the bootstrap's replicates
    give them each set in that order too. Any other method is its
    design_fit. run and point share one fit and scoring: scored.
    std_error(scored, core) gives the report's SE, the core's for every
    method but labeled-only.
    """

    design_fit: Optional[Callable[[TwoSampleDesign], Adjuster]] = None
    stacked_fit: Optional[Callable[..., Any]] = None
    ordered: bool = False
    adjuster: Callable[[Callable[..., np.ndarray]], Adjuster] = _calibrated

    def fit(self, design: TwoSampleDesign, seed: int = 0) -> Adjuster:
        if self.stacked_fit is None:
            return self.design_fit(design)
        return self.adjuster(self.stacked_fit(*cal._single(design.labeled, self.ordered)).map(0))

    def scored(self, design: TwoSampleDesign, name: str, seed: int) -> Tuple[Adjuster, ScoredDesign]:
        """The method's adjuster and its values on design; every method needs n >= 2 for an honest SE.

        A value that overflows float64 is refused by the fit, ScoredDesign or
        the family core, with no numpy warning before the refusal.
        """
        _check_n(design, name)
        with np.errstate(over="ignore", invalid="ignore"):
            adjuster = self.fit(design, seed)
            return adjuster, adjuster.scored(design)

    def run(self, design: TwoSampleDesign, name: str, alpha: float, seed: int) -> EstimateReport:
        adjuster, scored = self.scored(design, name, seed)
        return self.report(scored, adjuster.describe, name, alpha)[1]

    def point(self, design: TwoSampleDesign, name: str, seed: int) -> float:
        """run(...).estimate with the same refusals, but with no interval or diagnostics built.

        The bootstrap's replicates of a method without a stacked fit, and
        of any chunk of replicates with a refused one, run it per resample.
        """
        _, scored = self.scored(design, name, seed)
        return _family_core(scored.f_labeled, design.labeled.outcomes, scored.f_unlabeled, name).psi

    def report(self, scored: ScoredDesign, describe, name: str, alpha: float) -> Tuple[_Core, EstimateReport]:
        """The core of scored and the method's report built from it."""
        return _report(scored, name, alpha, describe, self.std_error)

    std_error = staticmethod(_family_se)


class _LabeledOnly(Method):
    """f = 0, but with the classical ddof=1 standard error of the labeled
    mean; its estimate is the family's, so only its report's SE differs."""

    @staticmethod
    def std_error(scored, core):
        y = scored.design.labeled.outcomes
        return float(y.std(ddof=1) / np.sqrt(len(y)))


class _AutoCal(Method):
    """The cross-validated winner among aipw, linear-cal, iso-cal and hist-cal
    with CandidateSet's default folds and cap; see selection.autocal_select."""

    def fit(self, design, seed=0):
        from . import selection

        candidates = selection.CandidateSet(["aipw", "linear-cal", "iso-cal", "hist-cal"])
        return selection._autocal_fit(design, candidates, seed)[1]


REGISTRY = {
    "labeled-only": _LabeledOnly(_fit_zero),
    "ppi": Method(_fit_ppi),
    "aipw": Method(stacked_fit=cal._unit_folds, adjuster=Adjuster),
    "ppi-pp": Method(_fit_ppi_pp),
    "aipw-em": Method(_fit_aipw_em),
    "linear-cal": Method(stacked_fit=cal._linear_folds),
    "linear-cov-cal": Method(_fit_linear_cov),
    "platt-cal": Method(stacked_fit=cal._platt_folds),
    "iso-cal": Method(stacked_fit=cal._isotonic_folds, ordered=True),
    "hist-cal": Method(stacked_fit=cal._histogram_folds),
    "venn-abers": Method(_fit_venn_abers),
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
    return REGISTRY[name].run(design, name, alpha, _seed(seed))
