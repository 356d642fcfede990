"""The semisupervised mean estimator family and its method registry.

All estimators are members of one family indexed by an adjustment function f:

    psi_hat(f) = rho * mean_L{f} + (1 - rho) * mean_U{f} + mean_L{Y - f},

which is unbiased for E[Y] for any fixed f. A method is nothing but its fit
of f, an Adjuster: zero (labeled-only), the raw score (aipw), the raw score
rescaled by 1/(1-rho) (ppi), the score times an empirical coefficient
(ppi-pp / aipw-em), a fitted calibrator (the *-cal methods), or the shrunk
interval map of venn-abers. REGISTRY maps every method name to its fit, and
_family_core is the one place that turns adjustment values into psi and its
SE: family_report adds the interval and diagnostics, and Method.point, which
the bootstrap runs per replicate, returns psi alone. Its labeled influence
values come from _labeled_influence, which auto-cal's cross-validation also
calls, on the rows of all its folds at once.

The core reads the unlabeled side only as a summary: the count N, the mean
of f and its centered sum of squares (UnlabeledSummary). Step maps
(iso-cal, hist-cal, venn-abers) give it from the counts of the sample's
once-sorted scores in each of their k blocks, in O(k log N); affine maps
(ppi, aipw, ppi-pp, aipw-em, unclipped linear maps) from the sample's
cached score moments, in O(1), from which ppi-pp and aipw-em also fit
their coefficient; the constant zero of labeled-only needs neither. Every
other f is evaluated at the N scores and the values summarised.

Standard errors follow the influence-function plug-in: the adjustment values
are recentered so their pooled weighted mean equals the point estimate (the
recentering that appears in the asymptotic theory; exact intercept
calibration for the raw-score methods, a no-op for mean-calibrated ones),
then

    D_L = a - psi + (Y - a)/rho,   D_U = a - psi,
    SE^2 = (sum D_L^2 + sum D_U^2) / (n + N)^2,

where sum D_U^2 = css + N (mean_U f - plugin)^2 comes from the summary.

labeled-only is the one documented exception: it keeps the classical
ddof=1 standard error of the labeled mean. Every method refuses n < 2 and
a standard error that overflows float64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import calibrators as cal
from .design import EstimateReport, TwoSampleDesign, UnlabeledSample
from .exceptions import ConfigError, DataError, DimensionError, MisuseError
from .inference import wald_interval

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
    it is stored as the summary.
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
        object.__setattr__(self, "f_labeled", fl)
        object.__setattr__(self, "f_unlabeled", fu)


def _summary(values: np.ndarray) -> UnlabeledSummary:
    """The count, mean and centered sum of squares of adjustment values; DataError unless finite."""
    if not np.isfinite(values).all():
        raise DataError("adjustment values must be finite")
    mean = float(values.mean())
    dev = values - mean
    # an overflowing square makes css inf, which family_report refuses
    with np.errstate(over="ignore"):
        return UnlabeledSummary(len(dev), mean, float(np.sum(np.square(dev, out=dev))))


def _labeled_influence(f_l, y, rho, plugin, psi):
    """D_L = a - psi + (Y - a)/rho on the labeled rows, with a = f + (psi - plugin).

    rho, plugin and psi are scalars, or per-row arrays when the rows come
    from several designs (cross-validation folds).
    """
    a_l = f_l + (psi - plugin)
    return a_l - psi + (y - a_l) / rho


def _family_core(scored: ScoredDesign, method: str) -> Tuple[float, float, float, float]:
    """The family algebra of a scored design: (plugin, residual_mean, psi, se).

    With a = f + (psi - plugin), the influence values are D_L = a - psi +
    (Y - a)/rho on the labeled rows and D_U = a - psi = f - plugin on the
    unlabeled rows, and SE = sqrt(sum D_L^2 + sum D_U^2) / (n + N). The
    unlabeled sum is css + N (mean - plugin)^2 of the summary. A standard
    error that overflows float64 is refused with DataError naming method.
    """
    d = scored.design
    fl, fu = scored.f_labeled, scored.f_unlabeled
    rho = d.rho
    plugin = float(rho * fl.mean() + (1.0 - rho) * fu.mean)
    residual_mean = float((d.labeled.outcomes - fl).mean())
    psi = plugin + residual_mean
    d_l = _labeled_influence(fl, d.labeled.outcomes, rho, plugin, psi)
    gap = fu.mean - plugin
    # an overflowing square makes the SE inf, which is refused below
    with np.errstate(over="ignore"):
        total = float(np.sum(d_l**2)) + fu.css + fu.count * gap * gap
    se = float(np.sqrt(total)) / d.m_total
    if not np.isfinite(se):
        raise DataError(f"{method}: standard error overflows float64; rescale the scores and outcomes")
    return plugin, residual_mean, psi, se


def family_report(
    scored: ScoredDesign,
    method: str = "family",
    alpha: float = 0.05,
    diagnostics: Optional[dict] = None,
) -> EstimateReport:
    """The family core's psi(f) and SE (see _family_core) with their Wald CI.

    Every report carries plugin_estimate (the pooled mean of f), residual_mean
    (the labeled mean of Y - f) and aipw_estimate (their sum, the estimate);
    the method's own diagnostics follow.
    """
    plugin, residual_mean, psi, se = _family_core(scored, method)
    lo, hi = wald_interval(psi, se, alpha)
    diagnostics = {
        "plugin_estimate": plugin,
        "aipw_estimate": psi,
        "residual_mean": residual_mean,
        **(diagnostics or {}),
    }
    d = scored.design
    return EstimateReport(psi, se, lo, hi, alpha, method, d.n, d.N, diagnostics)


def _no_diagnostics(scored: ScoredDesign) -> dict:
    return {}


def _unlabeled_side(f, sample: UnlabeledSample) -> UnlabeledSummary:
    """The summary of f on an unlabeled sample.

    A step map (StepCalibrator, BinnedCalibrator) is summarised from the
    counts of the sorted scores in each of its blocks, and an unclipped
    AffineCalibrator from the scores' mean and root centered sum of squares;
    neither is evaluated per score. Any other f is evaluated at every score
    through calibrators.predict, and the values are checked and summarised.
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
    if isinstance(f, cal.AffineCalibrator) and f.clip_range is None:
        if not f.slope:  # constant, even where the scores' root overflows
            return UnlabeledSummary(sample.n, f.intercept, 0.0)
        mean, root_css = sample.score_moments
        spread = f.slope * root_css
        return UnlabeledSummary(sample.n, f.slope * mean + f.intercept, spread * spread)
    return _summary(cal.predict(f, sample.scores, sample.covariates))


class Adjuster(NamedTuple):
    """A fitted family member: its adjustment map f and its own diagnostics.

    f is evaluated on the labeled rows through calibrators.predict, so it is
    any callable on scores, or a fitted calibrator (the covariate-adjusted one
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
        scored = self.scored(design)
        # describe only data whose standard error family_report has found finite
        report = family_report(scored, method, alpha)
        return replace(report, diagnostics={**report.diagnostics, **self.describe(scored)})


# --- adjusters ---------------------------------------------------------------


def _fit_zero(design: TwoSampleDesign) -> Adjuster:
    return Adjuster(cal.AffineCalibrator(0.0, 0.0))


def _fit_ppi(design: TwoSampleDesign) -> Adjuster:
    """f = m / (1 - rho): psi is the unlabeled score mean plus the labeled residual."""
    return Adjuster(cal.AffineCalibrator(1.0 / (1.0 - design.rho), 0.0))


def _fit_aipw(design: TwoSampleDesign) -> Adjuster:
    return Adjuster(cal.AffineCalibrator(1.0, 0.0))


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
        if isinstance(calibrator, cal.BinnedCalibrator):
            diagnostics["empty_bins"] = calibrator.empty_bins
        if isinstance(calibrator, cal.SigmoidCalibrator):
            diagnostics["ridge_active"] = calibrator.ridge_active
        if getattr(calibrator, "clip_range", None) is not None:
            residual_mean = float((y - pred_l).mean())
            diagnostics["clip_range"] = list(calibrator.clip_range)
            diagnostics["clip_active"] = abs(residual_mean) > MEAN_CALIBRATED_TOL * max(1.0, float(np.mean(np.abs(y))))
        return diagnostics

    return Adjuster(calibrator, describe)


def _fit_linear(design: TwoSampleDesign) -> Adjuster:
    lab = design.labeled
    return _calibrated(cal.fit_linear(lab.scores, lab.outcomes, clip=True))


def _fit_linear_cov(design: TwoSampleDesign) -> Adjuster:
    lab = design.labeled
    if lab.covariates is None:
        raise DimensionError("linear-cov-cal needs labeled covariates")
    calib = cal.fit_linear_cov(lab.scores, lab.outcomes, lab.covariates, clip=True)
    if len(calib.cov_coefs) > 0 and design.unlabeled.covariates is None:
        raise DimensionError("covariate-adjusted calibration needs covariates in both samples")
    return _calibrated(calib)


def _fit_platt(design: TwoSampleDesign) -> Adjuster:
    lab = design.labeled
    if not np.all((lab.outcomes == 0.0) | (lab.outcomes == 1.0)):
        raise DataError("platt-cal requires binary outcomes in {0, 1}")
    return _calibrated(cal.fit_platt(lab.scores, lab.outcomes))


def _fit_isotonic(design: TwoSampleDesign) -> Adjuster:
    return _calibrated(cal.fit_isotonic(design.labeled.scores, design.labeled.outcomes))


def _fit_histogram(design: TwoSampleDesign) -> Adjuster:
    return _calibrated(cal.fit_histogram(design.labeled.scores, design.labeled.outcomes))


def _fit_venn_abers(design: TwoSampleDesign) -> Adjuster:
    """Interval-calibrated predictions shrunk toward the raw-score aipw estimate.

    Outcomes outside [0, 1] are affinely rescaled for the calibration step and
    the predictions mapped back; the map is recorded in diagnostics. The
    shrunk map is a step function, so the unlabeled side is counted per block.
    """
    m_l, y = design.labeled.scores, design.labeled.outcomes
    if y.min() >= 0.0 and y.max() <= 1.0:
        lo, span = 0.0, 1.0
    else:
        lo = float(y.min())
        span = float(y.max()) - lo if y.max() > y.min() else 1.0
    rho = design.rho
    # the aipw estimate; the unlabeled score mean is the sample's cached one
    anchor = float(rho * m_l.mean() + (1.0 - rho) * design.unlabeled.score_moments[0]) + float((y - m_l).mean())
    # the anchor must live on the calibration (rescaled) outcome scale
    target_scaled = (anchor - lo) / span
    va = cal.fit_venn_abers(m_l, (y - lo) / span, target_scaled)
    diagnostics = {"shrink_target": lo + span * target_scaled, "outcome_rescale": [lo, span]}
    return Adjuster(cal.StepCalibrator(va.boundaries, lo + span * va.values), lambda scored: diagnostics)


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

    Selectable fits read only the labeled scores and outcomes, so
    cross-validation and cross-fitting may refit them on any labeled subsample.
    fold_fit(scores, outcomes), where a selectable method has one, returns the
    map f of fit from labeled pairs given in stable ascending score order (the
    same map, up to the order of its sums), with no design built and no
    training pairs kept; cross-validation fits its folds with it.
    """

    fit: Optional[Callable[[TwoSampleDesign], Adjuster]]
    selectable: bool = False
    fold_fit: Optional[Callable[[np.ndarray, np.ndarray], Callable[..., np.ndarray]]] = None

    def run(self, design: TwoSampleDesign, name: str, alpha: float, seed: int) -> EstimateReport:
        """The method's report; every method needs n >= 2 for an honest standard error."""
        _check_n(design, name)
        return self.report(design, name, alpha, seed)

    def point(self, design: TwoSampleDesign, name: str, seed: int) -> float:
        """run(...).estimate with the same refusals, but with no interval or diagnostics built."""
        _check_n(design, name)
        return _family_core(self.fit(design).scored(design), name)[2]

    def report(self, design: TwoSampleDesign, name: str, alpha: float, seed: int) -> EstimateReport:
        return self.fit(design).report(design, name, alpha)


class _LabeledOnly(Method):
    """f = 0, but with the classical ddof=1 standard error of the labeled mean.

    Its estimate is the family's, so it keeps Method.point.
    """

    def report(self, design, name, alpha, seed):
        y = design.labeled.outcomes
        report = super().report(design, name, alpha, seed)
        se = float(y.std(ddof=1) / np.sqrt(len(y)))
        lo, hi = wald_interval(report.estimate, se, alpha)
        return replace(report, std_error=se, ci_lower=lo, ci_upper=hi)


class _AutoCal(Method):
    """Cross-validated selection among aipw, linear-cal, iso-cal and hist-cal
    with CandidateSet's default folds and cap; see selection.autocal_select."""

    def report(self, design, name, alpha, seed):
        from . import selection

        candidates = selection.CandidateSet(["aipw", "linear-cal", "iso-cal", "hist-cal"])
        _, report = selection.autocal_select(design, candidates, seed=seed, alpha=alpha)
        return report

    def point(self, design, name, seed):
        # alpha moves only the report's interval, not the selection or the estimate
        return self.run(design, name, 0.05, seed).estimate


REGISTRY = {
    "labeled-only": _LabeledOnly(_fit_zero),
    "ppi": Method(_fit_ppi),
    "aipw": Method(_fit_aipw, True, lambda s, y: cal.AffineCalibrator(1.0, 0.0)),
    "ppi-pp": Method(_fit_ppi_pp),
    "aipw-em": Method(_fit_aipw_em),
    "linear-cal": Method(
        _fit_linear, True, lambda s, y: cal.AffineCalibrator(*cal._linear_coefs(s, y), (float(y.min()), float(y.max())))
    ),
    "linear-cov-cal": Method(_fit_linear_cov),
    "platt-cal": Method(_fit_platt, selectable=True),
    "iso-cal": Method(_fit_isotonic, True, lambda s, y: cal.StepCalibrator(*cal._isotonic_sorted(s, y))),
    "hist-cal": Method(_fit_histogram, True, lambda s, y: cal.BinnedCalibrator(*cal._histogram(s, y))),
    "venn-abers": Method(_fit_venn_abers),
    "auto-cal": _AutoCal(None),
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
    subsample); every other method is deterministic in the data.
    """
    name = method_name(method)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return REGISTRY[name].run(design, name, alpha, seed)
