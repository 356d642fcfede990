"""Synthetic study harness and the two-arm average-treatment-effect wrapper.

The data-generating process draws a latent standard normal S, a binary
outcome with success probability expit(5 S), and a prediction score that is
either the true success probability (well calibrated) or a clipped,
nonlinearly distorted version of it (miscalibrated). The true target mean is
exactly 0.5 by symmetry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ._rng import SIM_DRAW, _integer, _seed, derive_seed, standard_normal, substream
from .design import EstimateReport, TwoSampleDesign, design_from_arrays
from .estimators import REGISTRY, estimate, method_name
from .exceptions import ConfigError, DataError, DimensionError
from .inference import _check_alpha, wald_interval

__all__ = [
    "DgpSpec",
    "McSummary",
    "TRUE_MEAN",
    "true_regression",
    "score_curve",
    "draw_dataset",
    "run_grid",
    "summaries_to_csv",
    "ate_two_arm",
]

TRUE_MEAN = 0.5

SCORE_CLIP = (0.01, 0.99)


@dataclass(frozen=True)
class DgpSpec:
    """One cell of the synthetic study: n labeled, ratio*n unlabeled points."""

    n: int
    ratio: int
    seed: int
    miscalibrated: bool = True

    def __post_init__(self):
        for name, low in (("n", 2), ("ratio", 1), ("seed", 0)):
            value = _integer(getattr(self, name), f"DgpSpec {name} must be an integer, got {{!r}}")
            if value < low:
                raise ConfigError(f"need {name} >= {low}, got {value}")
        if not isinstance(self.miscalibrated, (bool, np.bool_)):
            raise ConfigError(f"DgpSpec miscalibrated must be a bool, got {self.miscalibrated!r}")


def true_regression(s) -> np.ndarray:
    """Conditional success probability expit(5 s).

    It imports scipy.special when called, as score_curve and the draws do,
    so that ``import ssmean`` loads no SciPy.
    """
    from scipy.special import expit

    return expit(5.0 * np.asarray(s, dtype=np.float64))


def score_curve(s, miscalibrated: bool = True) -> np.ndarray:
    """Prediction score as a function of the latent variable.

    The miscalibrated variant distorts the true probability through a cubic
    map on its logit scale z = 5 s, then rescales and clips.
    """
    from scipy.special import expit

    s = np.asarray(s, dtype=np.float64)
    if not miscalibrated:
        return true_regression(s)
    z = 5.0 * s
    raw = -0.15 + 0.75 * expit(0.8 * z + 0.1 * (z * z * z) - 1.0)
    return np.clip(raw, SCORE_CLIP[0], SCORE_CLIP[1])


def draw_dataset(spec: DgpSpec) -> TwoSampleDesign:
    """Draw one labeled/unlabeled dataset; deterministic in the spec fields."""
    rng = substream(spec.seed, SIM_DRAW, spec.n, spec.ratio, int(spec.miscalibrated))
    s_lab = standard_normal(rng, spec.n)
    y = (rng.random(spec.n) < true_regression(s_lab)).astype(np.float64)
    s_unl = standard_normal(rng, spec.ratio * spec.n)
    return design_from_arrays(
        score_curve(s_lab, spec.miscalibrated), y, score_curve(s_unl, spec.miscalibrated)
    )


@dataclass
class McSummary:
    """Monte Carlo summary for one (method, n, ratio) cell."""

    method: str
    n: int
    ratio: int
    reps: int
    bias: float
    sd: float
    rmse: float
    coverage: float
    rel_eff_vs_ppi: float


def run_grid(
    ns: Sequence[int],
    ratios: Sequence[int],
    methods: Sequence[str],
    reps: int,
    alpha: float = 0.05,
    seed: int = 0,
    miscalibrated: bool = True,
) -> List[McSummary]:
    """Monte Carlo comparison over the (n, ratio) grid.

    Every method is evaluated on the same dataset within a replicate, so the
    comparison is paired; each replicate uses its own substream derived from
    (seed, n, ratio, rep). Relative efficiency is MSE of the ppi method over
    the method's MSE, with ppi evaluated on the same replicates whether or not
    it appears in the method list.
    """
    reps = _integer(reps, "run_grid needs an integer number of replicates reps, got {!r}")
    if reps < 2:
        raise ConfigError(f"need reps >= 2, got {reps}")
    names = [method_name(m) for m in methods]
    _check_alpha(alpha)
    rows: List[McSummary] = []
    for n in ns:
        for ratio in ratios:
            # names a bad n, ratio, seed or miscalibrated before a seed is derived from it
            DgpSpec(n, ratio, seed, miscalibrated)
            est = {name: np.empty(reps) for name in names}
            cov = {name: np.empty(reps, dtype=bool) for name in names}
            ppi_est = np.empty(reps)
            for rep in range(reps):
                spec = DgpSpec(
                    n=n,
                    ratio=ratio,
                    seed=derive_seed(seed, SIM_DRAW, n, ratio, rep),
                    miscalibrated=miscalibrated,
                )
                design = draw_dataset(spec)
                rep_seed = derive_seed(seed, SIM_DRAW, n, ratio, rep, 1)
                for name in names:
                    report = estimate(design, name, alpha=alpha, seed=rep_seed)
                    est[name][rep] = report.estimate
                    cov[name][rep] = report.ci_lower <= TRUE_MEAN <= report.ci_upper
                if "ppi" in est:
                    ppi_est[rep] = est["ppi"][rep]
                else:
                    ppi_est[rep] = estimate(design, "ppi", alpha=alpha).estimate
            mse_ppi = float(np.mean((ppi_est - TRUE_MEAN) ** 2))
            for name in names:
                e = est[name]
                mse = float(np.mean((e - TRUE_MEAN) ** 2))
                if mse > 0:
                    rel = mse_ppi / mse
                elif mse_ppi > 0:
                    rel = math.inf
                else:
                    rel = math.nan
                rows.append(
                    McSummary(
                        method=name,
                        n=int(n),
                        ratio=int(ratio),
                        reps=int(reps),
                        bias=float(e.mean() - TRUE_MEAN),
                        sd=float(e.std(ddof=1)),
                        rmse=math.sqrt(mse),
                        coverage=float(np.mean(cov[name])),
                        rel_eff_vs_ppi=rel,
                    )
                )
    rows.sort(key=lambda r: (r.n, r.ratio, r.method))
    return rows


_CSV_HEADER = "method,n,ratio,reps,bias,sd,rmse,coverage,rel_eff_vs_ppi"


def summaries_to_csv(rows: Sequence[McSummary]) -> str:
    """Serialize Monte Carlo summaries; floats use shortest round-trip decimals."""
    fields = _CSV_HEADER.split(",")[1:]
    lines = [_CSV_HEADER] + [",".join([r.method] + [repr(getattr(r, f)) for f in fields]) for r in rows]
    return "\n".join(lines) + "\n"


def _score_pair(scores, arm: str):
    """(own-arm scores, other-arm scores); DimensionError for anything but a pair."""
    try:
        own, other = scores
    except (TypeError, ValueError):
        raise DimensionError(f"{arm}_scores must be a pair (own-arm scores, other-arm scores)") from None
    return own, other


def _arm(own, outcomes, other, name: str, alpha: float, seed: int):
    """One arm's report and its influence values on its own units and on the other arm's.

    The method is fit, the arm's design scored and the family core run
    once. The report comes from that core, and so do the values whose sum of
    squares gives the arm's own SE: the core's D_L on the arm's labeled
    units and D_U = f - plugin on the other arm's units.
    """
    design = design_from_arrays(own, outcomes, other)
    core, report, maps = REGISTRY[name].run(design, name, alpha, seed)
    return report, core.d_l, maps.at(0, design.unlabeled.scores) - core.plugin


def ate_two_arm(
    treated_outcomes,
    treated_scores,
    control_outcomes,
    control_scores,
    method: str = "aipw",
    alpha: float = 0.05,
    seed: int = 0,
) -> EstimateReport:
    """Difference of two arm-specific semisupervised means in a two-arm design.

    Each arm's mean is estimated from a design in which that arm is the
    labeled sample and the other arm contributes scores only, using that
    arm's own prediction model evaluated on all units:

    - treated_scores = (treated-model scores on treated units,
                        treated-model scores on control units)
    - control_scores = (control-model scores on control units,
                        control-model scores on treated units)

    Rows are aligned across arms: treated_scores[1] holds the treated model's
    scores on the control units in the order of control_outcomes, and
    control_scores[1] the control model's scores on the treated units in the
    order of treated_outcomes. Misaligned lengths raise DimensionError.

    Both arm estimates are averages over the same M units, so the standard
    error is sqrt(sum_i (D1_i - D0_i)^2) / M over the per-unit influence
    values of the two arms. labeled-only, whose f is 0 and whose arms share
    no unit, combines its two ddof=1 arm errors as independent.
    """
    _check_alpha(alpha)
    name = method_name(method)
    seed = _seed(seed)
    y1 = np.asarray(treated_outcomes, dtype=np.float64)
    y0 = np.asarray(control_outcomes, dtype=np.float64)
    if y1.size == 0 or y0.size == 0:
        raise DataError("both arms must be nonempty")
    m1_own, m1_other = _score_pair(treated_scores, "treated")
    m0_own, m0_other = _score_pair(control_scores, "control")
    if np.size(m1_other) != y0.size:
        raise DimensionError(f"treated_scores[1] has {np.size(m1_other)} scores, control_outcomes {y0.size}")
    if np.size(m0_other) != y1.size:
        raise DimensionError(f"control_scores[1] has {np.size(m0_other)} scores, treated_outcomes {y1.size}")
    r1, d1_treated, d1_control = _arm(m1_own, y1, m1_other, name, alpha, seed)
    r0, d0_control, d0_treated = _arm(m0_own, y0, m0_other, name, alpha, seed)
    tau = r1.estimate - r0.estimate
    if r1.method == "labeled-only":
        se = math.hypot(r1.std_error, r0.std_error)
    else:
        with np.errstate(over="ignore"):
            total = float(np.sum((d1_treated - d0_treated) ** 2) + np.sum((d1_control - d0_control) ** 2))
        se = math.sqrt(total) / (len(y1) + len(y0))
        if not math.isfinite(se):
            raise DataError(f"ate({r1.method}): standard error overflows float64; rescale the scores and outcomes")
    lo, hi = wald_interval(tau, se, alpha)
    return EstimateReport(
        estimate=tau,
        std_error=se,
        ci_lower=lo,
        ci_upper=hi,
        alpha=alpha,
        method=f"ate({r1.method})",
        n=len(y1),
        N=len(y0),
        diagnostics={"treated_mean": r1.to_dict(), "control_mean": r0.to_dict()},
    )
