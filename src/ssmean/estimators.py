"""The semisupervised mean estimator family and its method registry.

All estimators are members of one family indexed by an adjustment function f:

    psi_hat(f) = rho * mean_L{f} + (1 - rho) * mean_U{f} + mean_L{Y - f},

which is unbiased for E[Y] for any fixed f. A method is nothing but its fit
of f, an Adjuster: zero (labeled-only), the raw score (aipw), the raw score
rescaled by 1/(1-rho) (ppi), the score times an empirical coefficient
(ppi-pp / aipw-em), a fitted calibrator (the *-cal methods), or the shrunk
interval map of venn-abers. REGISTRY maps every method name to its fit, and
family_report is the one core that turns adjustment values into a report.

Standard errors follow the influence-function plug-in: the adjustment values
are recentered so their pooled weighted mean equals the point estimate (the
recentering that appears in the asymptotic theory; exact intercept
calibration for the raw-score methods, a no-op for mean-calibrated ones),
then

    D_L = a - psi + (Y - a)/rho,   D_U = a - psi,
    SE^2 = (sum D_L^2 + sum D_U^2) / (n + N)^2.

labeled-only is the one documented exception: it keeps the classical
ddof=1 standard error of the labeled mean. Every method refuses n < 2 and
a standard error that overflows float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import calibrators as cal
from .design import EstimateReport, TwoSampleDesign
from .exceptions import ConfigError, DataError, DimensionError, MisuseError
from .inference import influence_values, wald_interval, wald_se

__all__ = [
    "Adjuster",
    "MethodTag",
    "ScoredDesign",
    "METHOD_NAMES",
    "REGISTRY",
    "aipw_general",
    "family_report",
    "eem_lambda",
    "calibrated_plugin",
    "estimate",
]

METHOD_NAMES = (
    "labeled-only",
    "ppi",
    "aipw",
    "ppi-pp",
    "aipw-em",
    "linear-cal",
    "linear-cov-cal",
    "platt-cal",
    "iso-cal",
    "hist-cal",
    "venn-abers",
    "auto-cal",
)

# families whose fit makes the labeled residual mean exactly zero, so the
# pooled plug-in coincides with its residual-corrected form
MEAN_CALIBRATED_TOL = 1e-10


@dataclass(frozen=True)
class MethodTag:
    """A method name plus free-form parameters; names are the stable contract."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ConfigError(
                f"unknown method {self.name!r}; valid methods: {', '.join(METHOD_NAMES)}"
            )

    @classmethod
    def parse(cls, method: Union[str, "MethodTag"]) -> "MethodTag":
        if isinstance(method, MethodTag):
            return method
        return cls(name=str(method))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ScoredDesign:
    """A design together with adjustment values f evaluated on both samples."""

    design: TwoSampleDesign
    f_labeled: np.ndarray
    f_unlabeled: np.ndarray
    provenance: str = "raw"

    def __post_init__(self):
        fl = np.asarray(self.f_labeled, dtype=np.float64)
        fu = np.asarray(self.f_unlabeled, dtype=np.float64)
        if fl.shape != (self.design.n,):
            raise DimensionError(f"f_labeled has shape {fl.shape}, expected ({self.design.n},)")
        if fu.shape != (self.design.N,):
            raise DimensionError(f"f_unlabeled has shape {fu.shape}, expected ({self.design.N},)")
        if not (np.isfinite(fl).all() and np.isfinite(fu).all()):
            raise DataError("adjustment values must be finite")
        object.__setattr__(self, "f_labeled", fl)
        object.__setattr__(self, "f_unlabeled", fu)


def family_report(
    scored: ScoredDesign,
    method: str = "family",
    alpha: float = 0.05,
    diagnostics: Optional[dict] = None,
) -> EstimateReport:
    """The family core: psi(f), its recentered influence values, SE and CI.

    Every report carries plugin_estimate (the pooled mean of f), residual_mean
    (the labeled mean of Y - f) and aipw_estimate (their sum, the estimate);
    the method's own diagnostics follow.
    """
    d = scored.design
    fl, fu = scored.f_labeled, scored.f_unlabeled
    rho = d.rho
    plugin = float(rho * fl.mean() + (1.0 - rho) * fu.mean())
    residual_mean = float((d.labeled.outcomes - fl).mean())
    psi = plugin + residual_mean
    shift = psi - plugin
    pair = influence_values(d, fl + shift, fu + shift, psi)
    se = wald_se(pair, d)
    if not np.isfinite(se):
        raise DataError(f"{method}: standard error overflows float64; rescale the scores and outcomes")
    lo, hi = wald_interval(psi, se, alpha)
    diagnostics = {
        "plugin_estimate": plugin,
        "aipw_estimate": psi,
        "residual_mean": residual_mean,
        **(diagnostics or {}),
    }
    return EstimateReport(psi, se, lo, hi, alpha, method, d.n, d.N, diagnostics)


def aipw_general(scored: ScoredDesign) -> float:
    """rho * mean_L{f} + (1-rho) * mean_U{f} + mean_L{Y - f}."""
    return family_report(scored).estimate


def _no_diagnostics(scored: ScoredDesign) -> dict:
    return {}


class Adjuster(NamedTuple):
    """A fitted family member: its adjustment map f and its own diagnostics.

    f is evaluated through calibrators.predict, so it is any callable on
    scores, or a fitted calibrator (the covariate-adjusted one also receives
    the covariates). describe(scored) gives the member's diagnostics from the
    values of f on a design.
    """

    f: Callable[..., np.ndarray]
    describe: Callable[[ScoredDesign], dict] = _no_diagnostics

    def scored(self, design: TwoSampleDesign, provenance: str = "raw") -> ScoredDesign:
        lab, unl = design.labeled, design.unlabeled
        return ScoredDesign(
            design,
            cal.predict(self.f, lab.scores, lab.covariates),
            cal.predict(self.f, unl.scores, unl.covariates),
            provenance,
        )

    def report(self, design: TwoSampleDesign, method: str, alpha: float = 0.05) -> EstimateReport:
        scored = self.scored(design, method)
        # describe only data whose standard error family_report has found finite
        report = family_report(scored, method, alpha)
        return replace(report, diagnostics={**report.diagnostics, **self.describe(scored)})


# --- adjusters ---------------------------------------------------------------


def _fit_zero(design: TwoSampleDesign, params: dict) -> Adjuster:
    return Adjuster(np.zeros_like)


def _fit_ppi(design: TwoSampleDesign, params: dict) -> Adjuster:
    """f = m / (1 - rho): psi is the unlabeled score mean plus the labeled residual."""
    scale = 1.0 / (1.0 - design.rho)
    return Adjuster(lambda t: t * scale)


def _fit_aipw(design: TwoSampleDesign, params: dict) -> Adjuster:
    return Adjuster(np.asarray)


def _eem_lambda_full(design: TwoSampleDesign, clip: Optional[Tuple[float, float]]):
    m_l, m_u = design.labeled.scores, design.unlabeled.scores
    y = design.labeled.outcomes
    rho = design.rho
    num = float(np.mean((y - y.mean()) * (m_l - m_l.mean())))
    var_l = float(np.mean((m_l - m_l.mean()) ** 2))
    var_u = float(np.mean((m_u - m_u.mean()) ** 2))
    den = (1.0 - rho) * var_l + rho * var_u
    scale = max(1.0, float(np.mean(m_l**2)) + float(np.mean(m_u**2)))
    degenerate = den <= 1e-12 * scale
    lam_raw = 0.0 if degenerate else num / den
    lam = lam_raw
    clip_active = False
    if clip is not None and not degenerate:
        lo, hi = clip
        lam = min(max(lam_raw, lo), hi)
        clip_active = lam != lam_raw
    return lam, lam_raw, degenerate, clip_active


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
    return Adjuster(lambda t: lam * t, lambda scored: diagnostics)


def _fit_aipw_em(design: TwoSampleDesign, params: dict) -> Adjuster:
    return _scaled(design, None)


def _fit_ppi_pp(design: TwoSampleDesign, params: dict) -> Adjuster:
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
        diagnostics = {
            "calibration_mse_before": float(np.mean((y - lab.scores) ** 2)),
            "calibration_mse_after": float(np.mean((y - pred_l) ** 2)),
        }
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


def _fit_linear(design: TwoSampleDesign, params: dict) -> Adjuster:
    lab = design.labeled
    return _calibrated(cal.fit_linear(lab.scores, lab.outcomes, clip=params.get("clip", True)))


def _fit_linear_cov(design: TwoSampleDesign, params: dict) -> Adjuster:
    lab = design.labeled
    if lab.covariates is None:
        raise DimensionError("linear-cov-cal needs labeled covariates")
    calib = cal.fit_linear_cov(lab.scores, lab.outcomes, lab.covariates, clip=params.get("clip", True))
    if len(calib.cov_coefs) > 0 and design.unlabeled.covariates is None:
        raise DimensionError("covariate-adjusted calibration needs covariates in both samples")
    return _calibrated(calib)


def _fit_platt(design: TwoSampleDesign, params: dict) -> Adjuster:
    lab = design.labeled
    if not np.all((lab.outcomes == 0.0) | (lab.outcomes == 1.0)):
        raise DataError("platt-cal requires binary outcomes in {0, 1}")
    logit_eps = params.get("logit_eps", cal.DEFAULT_LOGIT_EPS)
    return _calibrated(cal.fit_platt(lab.scores, lab.outcomes, logit_eps=logit_eps))


def _fit_isotonic(design: TwoSampleDesign, params: dict) -> Adjuster:
    return _calibrated(cal.fit_isotonic(design.labeled.scores, design.labeled.outcomes))


def _fit_histogram(design: TwoSampleDesign, params: dict) -> Adjuster:
    m_l = design.labeled.scores
    edges = params.get("edges")
    if edges is None and "bins" in params:
        nbins = int(params["bins"])
        if nbins < 1:
            raise ConfigError("hist-cal needs at least one bin")
        lo, hi = float(m_l.min()), float(m_l.max())
        edges = np.linspace(lo, hi, nbins + 1) if hi > lo else np.array([lo, lo + 1.0])
    return _calibrated(cal.fit_histogram(m_l, design.labeled.outcomes, edges=edges))


def _fit_venn_abers(design: TwoSampleDesign, params: dict) -> Adjuster:
    """Interval-calibrated predictions shrunk toward the raw-score aipw estimate.

    Outcomes outside [0, 1] are affinely rescaled for the calibration step and
    the predictions mapped back; the map is recorded in diagnostics.
    """
    m_l, y = design.labeled.scores, design.labeled.outcomes
    if y.min() >= 0.0 and y.max() <= 1.0:
        lo, span = 0.0, 1.0
    else:
        lo = float(y.min())
        span = float(y.max()) - lo if y.max() > y.min() else 1.0
    y_scaled = (y - lo) / span
    # the anchor must live on the calibration (rescaled) outcome scale
    target_scaled = (aipw_general(ScoredDesign(design, m_l, design.unlabeled.scores)) - lo) / span
    diagnostics = {"shrink_target": lo + span * target_scaled, "outcome_rescale": [lo, span]}
    return Adjuster(
        lambda t: lo + span * cal.fit_venn_abers(m_l, y_scaled, t, target_scaled),
        lambda scored: diagnostics,
    )


def calibrated_plugin(
    design: TwoSampleDesign,
    calibrator,
    alpha: float = 0.05,
    method_name: str = "calibrated",
) -> EstimateReport:
    """Report of a calibrator fitted elsewhere, in residual-corrected form.

    The only path that checks the calibrator's fingerprint: a calibrator
    fitted inside estimate() was fitted on this very labeled sample.
    """
    fp = getattr(calibrator, "fitted_on", None)
    if fp is not None and not fp.matches(design.labeled.scores, design.labeled.outcomes):
        raise MisuseError("calibrator was not fit on this design's labeled sample")
    return _calibrated(calibrator).report(design, method_name, alpha)


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Method:
    """A registry entry: the fit that gives a method its adjuster f.

    Selectable fits read only the labeled scores and outcomes, so
    cross-validation and cross-fitting may refit them on any labeled subsample.
    """

    fit: Optional[Callable[[TwoSampleDesign, dict], Adjuster]]
    selectable: bool = False

    def run(self, design: TwoSampleDesign, tag: MethodTag, alpha: float, seed: int) -> EstimateReport:
        """The method's report; every method needs n >= 2 for an honest standard error."""
        if design.n < 2:
            raise DataError(f"{tag.name} needs n >= 2 labeled points for a standard error, got n={design.n}")
        return self.report(design, tag, alpha, seed)

    def report(self, design: TwoSampleDesign, tag: MethodTag, alpha: float, seed: int) -> EstimateReport:
        return self.fit(design, tag.params).report(design, tag.name, alpha)


class _LabeledOnly(Method):
    """f = 0, but with the classical ddof=1 standard error of the labeled mean."""

    def report(self, design, tag, alpha, seed):
        y = design.labeled.outcomes
        report = super().report(design, tag, alpha, seed)
        se = float(y.std(ddof=1) / np.sqrt(len(y)))
        lo, hi = wald_interval(report.estimate, se, alpha)
        return replace(report, std_error=se, ci_lower=lo, ci_upper=hi)


class _AutoCal(Method):
    """Cross-validated selection among selectable methods; see selection.autocal_select."""

    def report(self, design, tag, alpha, seed):
        from . import selection

        params = tag.params
        candidates = selection.CandidateSet(
            methods=params.get("candidates", ["aipw", "linear-cal", "iso-cal", "hist-cal"]),
            folds=params.get("folds", 20),
            unlabeled_cap_factor=params.get("unlabeled_cap_factor", 10),
        )
        _, report = selection.autocal_select(design, candidates, seed=seed, alpha=alpha)
        return report


REGISTRY = {
    "labeled-only": _LabeledOnly(_fit_zero),
    "ppi": Method(_fit_ppi),
    "aipw": Method(_fit_aipw, selectable=True),
    "ppi-pp": Method(_fit_ppi_pp),
    "aipw-em": Method(_fit_aipw_em),
    "linear-cal": Method(_fit_linear, selectable=True),
    "linear-cov-cal": Method(_fit_linear_cov),
    "platt-cal": Method(_fit_platt, selectable=True),
    "iso-cal": Method(_fit_isotonic, selectable=True),
    "hist-cal": Method(_fit_histogram, selectable=True),
    "venn-abers": Method(_fit_venn_abers),
    "auto-cal": _AutoCal(None),
}


def estimate(
    design: TwoSampleDesign,
    method: Union[str, MethodTag],
    alpha: float = 0.05,
    seed: int = 0,
) -> EstimateReport:
    """Run one named method on a design.

    The seed only matters for auto-cal (fold shuffling and the unlabeled
    subsample); every other method is deterministic in the data.
    """
    tag = MethodTag.parse(method)
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return REGISTRY[tag.name].run(design, tag, alpha, seed)
