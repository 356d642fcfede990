import json
import re
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmean import (
    METHOD_NAMES,
    AffineCalibrator,
    CandidateSet,
    ConfigError,
    ConvergenceError,
    DataError,
    MisuseError,
    ScoredDesign,
    ate_two_arm,
    autocal_select,
    bootstrap,
    calibrated_plugin,
    crossfit_calibrated,
    design_from_arrays,
    eem_lambda,
    estimate,
    fit_histogram,
    fit_isotonic,
    fit_linear,
    fit_linear_cov,
    fit_platt,
    ols_trainer,
    run_grid,
    wald_interval,
)
from ssmean.estimators import REGISTRY, UnlabeledSummary, _eem_lambda_full, family_report
from ssmean.simulate import DgpSpec, draw_dataset


class PluginCheck(NamedTuple):
    ppi: float
    ppi_plugin: float
    aipw: float
    aipw_plugin: float


def ppi_as_plugin_check(design) -> PluginCheck:
    """Both raw-score estimators recomputed through intercept-only calibration.

    The intercept fit a_hat = mean_L(Y - m) makes m + a_hat mean-calibrated;
    its unlabeled mean reproduces the ppi estimate and its pooled mean
    reproduces the aipw estimate. The criterion-1b oracle.
    """
    m_l, m_u = design.labeled.scores, design.unlabeled.scores
    y = design.labeled.outcomes
    rho = design.rho
    a_hat = float((y - m_l).mean())
    ppi_val = float(m_u.mean() + (y - m_l).mean())
    aipw_val = family_report(ScoredDesign(design, m_l, m_u)).estimate
    plugin_u = float((m_u + a_hat).mean())
    plugin_pooled = float(rho * (m_l + a_hat).mean() + (1.0 - rho) * (m_u + a_hat).mean())
    return PluginCheck(ppi=ppi_val, ppi_plugin=plugin_u, aipw=aipw_val, aipw_plugin=plugin_pooled)


def scaled_estimate(design, clip):
    """The family member f = lambda_hat * m with lambda_hat clamped to clip."""
    lam = eem_lambda(design, clip=clip)
    m_l, m_u = design.labeled.scores, design.unlabeled.scores
    return family_report(ScoredDesign(design, lam * m_l, lam * m_u)).estimate


def random_design(rng, n=None, N=None, scale=1.0):
    n = n or int(rng.integers(2, 40))
    N = N or int(rng.integers(1, 60))
    m_l = rng.normal(scale=scale, size=n)
    y = m_l + rng.normal(size=n)
    m_u = rng.normal(scale=scale, size=N)
    return design_from_arrays(m_l, y, m_u)


# --- the family estimate ------------------------------------------------------

def test_aipw_general_zero_adjustment_is_labeled_mean():
    rng = np.random.default_rng(30)
    d = random_design(rng)
    scored = ScoredDesign(d, np.zeros(d.n), np.zeros(d.N))
    assert family_report(scored).estimate == pytest.approx(d.labeled.outcomes.mean(), abs=1e-14)


def test_aipw_general_outcome_adjustment():
    d = design_from_arrays([0.1, 0.2], [1.0, 3.0], [0.5, 0.5])
    c = 7.0
    scored = ScoredDesign(d, d.labeled.outcomes, np.full(2, c))
    # rho = 1/2: psi = mean(Y)/2 + c/2 + 0
    assert family_report(scored).estimate == pytest.approx((2.0 + c) / 2.0, abs=1e-14)


def test_aipw_general_shift_invariance():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = random_design(rng)
        f_l = rng.normal(size=d.n)
        f_u = rng.normal(size=d.N)
        c = rng.uniform(-10, 10)
        base = family_report(ScoredDesign(d, f_l, f_u)).estimate
        shifted = family_report(ScoredDesign(d, f_l + c, f_u + c)).estimate
        assert shifted == pytest.approx(base, rel=1e-10, abs=1e-10)


# --- labeled-only ----------------------------------------------------------------

def test_labeled_only_constant():
    d = design_from_arrays([0.0] * 3, [1.0, 1.0, 1.0], [0.0])
    rep = estimate(d, "labeled-only")
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0
    assert rep.ci_lower == rep.ci_upper == 1.0


def test_labeled_only_two_points():
    d = design_from_arrays([0.0, 0.0], [0.0, 2.0], [0.0])
    rep = estimate(d, "labeled-only")
    assert rep.estimate == 1.0
    assert rep.std_error == pytest.approx(1.0)


def test_labeled_only_mean():
    d = design_from_arrays([0.0] * 4, [0.0, 1.0, 0.0, 1.0], [0.0])
    assert estimate(d, "labeled-only").estimate == 0.5


def test_labeled_only_needs_two():
    d = design_from_arrays([0.0], [1.0], [0.0])
    with pytest.raises(DataError):
        estimate(d, "labeled-only")


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_every_method_refuses_a_single_labeled_point(name):
    # one labeled point gives no honest standard error for any method
    d = design_from_arrays([0.4], [1.0], [0.2, 0.5, 0.9], [[0.1]], [[0.3], [0.2], [0.7]])
    with pytest.raises(DataError, match=f"^{name} needs n >= 2"):
        estimate(d, name)


@pytest.mark.parametrize(
    "name", ["aipw", "ppi-pp", "aipw-em", "linear-cal", "iso-cal", "hist-cal", "venn-abers", "auto-cal"]
)
def test_overflowing_standard_error_raises(name):
    # the point estimate is finite, but the squared influence values overflow;
    # near 1e154 each square is finite but their sums are not
    rng = np.random.default_rng(91)
    for scale, n, N in ((1e200, 20, 40), (1e154, 50, 50)):
        m, y, m_u = (rng.uniform(1.0, 2.0, size=k) * scale for k in (n, n, N))
        d = design_from_arrays(m, y, m_u)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match=f"^{name}: standard error overflows float64"):
                estimate(d, name)


def test_auto_cal_refusal_names_auto_cal_when_only_the_full_sample_overflows():
    # the 200-point CV subsample keeps every criterion finite; the full
    # sample's 20000 squares near 1e152 do not
    rng = np.random.default_rng(91)
    m, y, m_u = (rng.uniform(1.0, 2.0, size=k) * 1e152 for k in (20, 20, 20000))
    d = design_from_arrays(m, y, m_u)
    with pytest.raises(DataError, match="^auto-cal: standard error overflows float64"):
        estimate(d, "auto-cal")
    with pytest.raises(DataError, match="^auto-cal: standard error overflows float64"):
        autocal_select(d, CandidateSet(["aipw", "iso-cal"]), seed=0)


@pytest.mark.parametrize("css", [-1.0, float("nan")])
def test_scored_design_refuses_a_summary_with_a_negative_or_nan_css(css):
    d = design_from_arrays([0.1, 0.5, 0.9, 0.3], [0.0, 1.0, 1.0, 0.0], [0.2, 0.4, 0.6])
    with pytest.raises(DataError, match=re.escape(f"f_unlabeled summary has css={css!r}")):
        ScoredDesign(d, d.labeled.scores, UnlabeledSummary(3, 0.4, css))


def test_scored_design_keeps_an_inf_css_for_the_core_to_refuse():
    d = design_from_arrays([0.1, 0.5, 0.9, 0.3], [0.0, 1.0, 1.0, 0.0], [0.2, 0.4, 0.6])
    scored = ScoredDesign(d, d.labeled.scores, UnlabeledSummary(3, 0.4, float("inf")))
    with pytest.raises(DataError, match="^family: standard error overflows float64"):
        family_report(scored)


def _squares_overflow_design(scale):
    """n = N = 50 scores near `scale`, outcomes in [0, 1]: at 1e160 the squares
    of the scores overflow but every report stays finite."""
    rng = np.random.default_rng(0)
    u, y, w = rng.uniform(1.0, 2.0, 50), rng.uniform(0.0, 1.0, 50), rng.uniform(1.0, 2.0, 50)
    return design_from_arrays(u * scale, y, w * scale)


def test_eem_lambda_survives_overflowing_score_squares():
    d = _squares_overflow_design(1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = estimate(d, "aipw-em")
    assert "degenerate_score" not in rep.diagnostics
    want = eem_lambda(_squares_overflow_design(1.0))
    assert rep.diagnostics["lambda"] * 1e160 == pytest.approx(want, rel=1e-12)
    assert eem_lambda(d) == rep.diagnostics["lambda"]


@pytest.mark.parametrize("name", ["iso-cal", "linear-cal"])
def test_overflowing_calibration_mse_is_reported_as_none(name):
    d = _squares_overflow_design(1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = estimate(d, name)
    assert rep.diagnostics["calibration_mse_before"] is None
    assert np.isfinite(rep.diagnostics["calibration_mse_after"])
    json.dumps(rep.to_dict(), allow_nan=False)


# --- ppi / aipw ------------------------------------------------------------------

def test_ppi_constant_score_cancels():
    d = design_from_arrays([3.0, 3.0], [1.0, 2.0], [3.0, 3.0, 3.0])
    assert estimate(d, "ppi").estimate == pytest.approx(1.5, abs=1e-14)


def test_ppi_example_value():
    d = design_from_arrays([1.0, 3.0], [2.0, 4.0], [2.0])
    assert estimate(d, "ppi").estimate == pytest.approx(3.0, abs=1e-14)


def test_ppi_zero_residuals():
    rng = np.random.default_rng(32)
    y = rng.normal(size=6)
    d = design_from_arrays(y, y, np.full(4, 2.5))
    assert estimate(d, "ppi").estimate == pytest.approx(2.5, abs=1e-14)


def test_aipw_zero_score_is_labeled_mean():
    d = design_from_arrays([0.0, 0.0], [1.0, 3.0], [0.0, 0.0])
    assert estimate(d, "aipw").estimate == pytest.approx(2.0, abs=1e-14)


def test_aipw_example_value():
    # rho = 2/3: (2/3)*2 + (1/3)*2 + 1 = 3
    d = design_from_arrays([1.0, 3.0], [2.0, 4.0], [2.0])
    assert estimate(d, "aipw").estimate == pytest.approx(3.0, abs=1e-14)


def test_aipw_shift_invariant_estimate():
    rng = np.random.default_rng(33)
    d = random_design(rng)
    c = 4.2
    shifted = design_from_arrays(
        d.labeled.scores + c, d.labeled.outcomes, d.unlabeled.scores + c
    )
    assert estimate(shifted, "aipw").estimate == pytest.approx(estimate(d, "aipw").estimate, rel=1e-12, abs=1e-12)


# --- empirical efficiency maximization ------------------------------------------

def test_eem_lambda_formula_when_outcome_equals_score():
    rng = np.random.default_rng(34)
    m_l = rng.normal(size=20)
    m_u = rng.normal(size=30)
    d = design_from_arrays(m_l, m_l, m_u)
    rho = d.rho
    var_l = np.mean((m_l - m_l.mean()) ** 2)
    var_u = np.mean((m_u - m_u.mean()) ** 2)
    want = var_l / ((1 - rho) * var_l + rho * var_u)
    assert eem_lambda(d) == pytest.approx(want, rel=1e-12)


def pointwise_eem(design, clip):
    """(lambda, lambda_unclipped, degenerate, clip_active) from every score, the oracle.

    The scores are scaled by the power of two 2**-e of the largest |score| in
    either sample, so no square overflows; the threshold is 1e-12 of the
    pooled mean square, or of 4**-e when that is smaller.
    """
    y, rho = design.labeled.outcomes, design.rho
    e = int(np.frexp(max(np.abs(design.labeled.scores).max(), np.abs(design.unlabeled.scores).max()))[1])
    m_l, m_u = np.ldexp(design.labeled.scores, -e), np.ldexp(design.unlabeled.scores, -e)
    num = np.mean((y - y.mean()) * (m_l - m_l.mean()))
    den = (1 - rho) * np.mean((m_l - m_l.mean()) ** 2) + rho * np.mean((m_u - m_u.mean()) ** 2)
    degenerate = den <= 1e-12 * max(np.ldexp(1.0, -2 * e), np.mean(m_l**2) + np.mean(m_u**2))
    lam_raw = 0.0 if degenerate else float(np.ldexp(num / den, -e))
    lam = lam_raw if clip is None or degenerate else min(max(lam_raw, clip[0]), clip[1])
    return lam, lam_raw, bool(degenerate), lam != lam_raw


@st.composite
def eem_designs(draw):
    """Tie-heavy scores (offset + k/16) * scale with outcomes on the same scale.

    scale 1e160 overflows the squares of the scores, 1e-150 underflows
    them, offsets 1e4 and 1e6 leave a small spread on a large mean (below
    the degenerate threshold at 1e6), and the unlabeled scores may all be
    equal.
    """
    scale = draw(st.sampled_from([1.0, 1e160, 1e-150]))
    offset = draw(st.sampled_from([0.0, -3.0, 1e4, 1e6]))
    n, N = draw(st.integers(2, 20)), draw(st.integers(1, 30))
    k_l = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)))
    if draw(st.booleans()):
        k_u = np.full(N, draw(st.integers(-8, 8)))
    else:
        k_u = np.array(draw(st.lists(st.integers(-8, 8), min_size=N, max_size=N)))
    y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    # half the time the outcome follows the score, so lambda is far from 0
    y = y + draw(st.sampled_from([0.0, 1.0])) * k_l / 16.0
    return design_from_arrays((offset + k_l / 16.0) * scale, y * scale, (offset + k_u / 16.0) * scale)


@settings(max_examples=200, deadline=None)
@given(eem_designs(), st.booleans())
def test_eem_lambda_matches_the_pointwise_formula(design, clipped):
    clip = (0.0, 1.0 / (1.0 - design.rho)) if clipped else None
    lam, lam_raw, degenerate, clip_active = _eem_lambda_full(design, clip)
    want = pointwise_eem(design, clip)
    assert (degenerate, clip_active) == want[2:]
    for got, ref in ((lam, want[0]), (lam_raw, want[1])):
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_eem_lambda_reads_the_cached_unlabeled_moments_not_the_scores():
    rng = np.random.default_rng(40)
    m_l, m_u, other = rng.normal(size=30), rng.normal(size=60), 3.0 * rng.normal(size=60) + 1.0
    y = m_l + rng.normal(size=30)
    d, d_other = design_from_arrays(m_l, y, m_u), design_from_arrays(m_l, y, other)
    assert eem_lambda(d) != eem_lambda(d_other)
    # the fit follows the moments cached on the sample, even with its scores made unreadable
    object.__setattr__(d.unlabeled, "scaled_moments", d_other.unlabeled.scaled_moments)
    object.__setattr__(d.unlabeled, "scores", np.full(60, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert eem_lambda(d) == eem_lambda(d_other)
        assert eem_lambda(d, clip=(0.0, 0.5)) == eem_lambda(d_other, clip=(0.0, 0.5))


def test_eem_lambda_zero_when_uncorrelated():
    d = design_from_arrays([1.0, 1.0, 2.0, 2.0], [0.0, 1.0, 0.0, 1.0], [1.5, 1.5])
    assert eem_lambda(d) == 0.0


def test_eem_lambda_clip_clamps():
    # negatively correlated: unclipped lambda < 0, clip floor at 0
    d = design_from_arrays([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [1.0, 2.0, 3.0])
    assert eem_lambda(d) < 0
    assert eem_lambda(d, clip=(0.0, 10.0)) == 0.0


def test_eem_degenerate_score_falls_back_to_labeled_mean():
    d = design_from_arrays([2.0, 2.0], [1.0, 3.0], [2.0, 2.0])
    assert eem_lambda(d) == 0.0
    rep = estimate(d, "aipw-em")
    assert rep.estimate == pytest.approx(2.0, abs=1e-14)
    assert rep.diagnostics["degenerate_score"] is True


def test_eem_clip_zero_is_labeled_only_estimate():
    rng = np.random.default_rng(35)
    d = random_design(rng)
    assert scaled_estimate(d, clip=(0.0, 0.0)) == pytest.approx(d.labeled.outcomes.mean(), abs=1e-12)


def test_eem_clip_one_is_aipw_estimate():
    rng = np.random.default_rng(36)
    d = random_design(rng)
    assert scaled_estimate(d, clip=(1.0, 1.0)) == pytest.approx(estimate(d, "aipw").estimate, abs=1e-12)


def test_eem_closed_form_identity():
    rng = np.random.default_rng(37)
    for _ in range(100):
        d = random_design(rng)
        lam = eem_lambda(d)
        delta = d.unlabeled.scores.mean() - d.labeled.scores.mean()
        want = d.labeled.outcomes.mean() + (1 - d.rho) * lam * delta
        assert estimate(d, "aipw-em").estimate == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_ppi_pp_carries_clip_diagnostics():
    rng = np.random.default_rng(38)
    d = random_design(rng)
    rep = estimate(d, "ppi-pp")
    assert rep.diagnostics["clip"] == [0.0, 1.0 / (1.0 - d.rho)]


def test_ppi_pp_equals_ppi_when_clip_binds_above():
    # strong signal: unclipped lambda exceeds 1/(1-rho)
    rng = np.random.default_rng(39)
    m_l = rng.normal(size=50)
    y = 5.0 * m_l + rng.normal(scale=0.1, size=50)
    d = design_from_arrays(m_l, y, rng.normal(size=50))
    assert eem_lambda(d) > 1.0 / (1.0 - d.rho)
    assert estimate(d, "ppi-pp").estimate == pytest.approx(estimate(d, "ppi").estimate, rel=1e-12)


# --- calibrated plug-in -----------------------------------------------------------

def test_isotonic_plugin_example():
    d = design_from_arrays([1.0, 2.0], [0.0, 1.0], [1.5])
    cal = fit_isotonic(d.labeled.scores, d.labeled.outcomes)
    rep = calibrated_plugin(d, cal, method_name="iso-cal")
    assert rep.estimate == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert rep.diagnostics["plugin_estimate"] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_linear_plugin_toy_value():
    d = design_from_arrays([0.0, 1.0], [1.0, 3.0], [0.5])
    cal = fit_linear(d.labeled.scores, d.labeled.outcomes)
    rep = calibrated_plugin(d, cal, method_name="linear-cal")
    assert rep.estimate == pytest.approx(2.0, abs=1e-14)


def test_constant_calibrator_reduces_to_labeled_mean():
    d = design_from_arrays([5.0, 5.0, 5.0], [1.0, 2.0, 3.0], [5.0, 5.0])
    cal = fit_linear(d.labeled.scores, d.labeled.outcomes)
    assert cal.slope == 0.0
    rep = calibrated_plugin(d, cal, method_name="linear-cal")
    assert rep.estimate == pytest.approx(2.0, abs=1e-14)


def test_plugin_equals_aipw_form_for_mean_calibrated_families():
    rng = np.random.default_rng(40)
    for _ in range(50):
        d = random_design(rng)
        y, m = d.labeled.outcomes, d.labeled.scores
        for cal in (
            fit_isotonic(m, y),
            fit_linear(m, y, clip=False),
            fit_histogram(m, y),
        ):
            rep = calibrated_plugin(d, cal)
            gap = abs(rep.diagnostics["plugin_estimate"] - rep.diagnostics["aipw_estimate"])
            assert gap <= 1e-10 * max(1.0, abs(rep.estimate))


def test_clipped_linear_breaks_plugin_identity_but_reports_both():
    # the fitted line dips below min(y) at the left labeled point, so the
    # clipped fit is no longer mean-calibrated on the labeled sample
    d = design_from_arrays([0.0, 1.0, 2.0], [0.0, 0.0, 1.0], [1.0, 1.5])
    cal = fit_linear(d.labeled.scores, d.labeled.outcomes, clip=True)
    assert (cal.slope * 0.0 + cal.intercept) < 0.0
    rep = calibrated_plugin(d, cal, method_name="linear-cal")
    assert rep.diagnostics["clip_active"]
    assert rep.diagnostics["plugin_estimate"] != rep.diagnostics["aipw_estimate"]
    assert rep.estimate == rep.diagnostics["aipw_estimate"]


def test_fingerprint_mismatch_raises():
    d = design_from_arrays([1.0, 2.0], [0.0, 1.0], [1.5])
    other = fit_isotonic([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(MisuseError):
        calibrated_plugin(d, other)


def test_manual_calibrator_without_fingerprint_is_allowed():
    d = design_from_arrays([1.0, 2.0], [2.0, 2.0], [1.5])
    rep = calibrated_plugin(d, AffineCalibrator(slope=0.0, intercept=2.0))
    assert rep.estimate == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(4))
def test_iso_cal_registry_map_is_fit_isotonic_bit_for_bit(seed):
    # tie-heavy scores, given out of order: the registry fit reads the sample's cached stable sort
    rng = np.random.default_rng(seed)
    m_l = np.round(rng.uniform(size=300), 1)
    d = design_from_arrays(m_l, rng.normal(m_l), rng.uniform(size=50))
    got = REGISTRY["iso-cal"].fit(d).f
    want = fit_isotonic(m_l, d.labeled.outcomes)
    assert np.array_equal(got.boundaries, want.boundaries)
    assert np.array_equal(got.values, want.values)


# each calibrator fit with the arguments its estimate() method passes
PLUGIN_FITS = {
    "linear-cal": lambda s, y, x: fit_linear(s, y, clip=True),
    "linear-cov-cal": lambda s, y, x: fit_linear_cov(s, y, x, clip=True),
    "platt-cal": lambda s, y, x: fit_platt(s, y),
    "iso-cal": lambda s, y, x: fit_isotonic(s, y),
    "hist-cal": lambda s, y, x: fit_histogram(s, y),
}


@st.composite
def plugin_cases(draw):
    """A method, a dyadic-grid design and a row permutation of its labeled sample."""
    name = draw(st.sampled_from(sorted(PLUGIN_FITS)))
    n = draw(st.integers(4, 20))
    N = draw(st.integers(1, 20))

    def column(size, lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), dtype=float)

    if name == "platt-cal" or draw(st.booleans()):
        y = column(n, 0, 1)
    else:
        y = column(n, -8, 8) / 4.0
    x_l = x_u = None
    if name == "linear-cov-cal":
        x_l, x_u = column(n, -3, 3), column(N, -3, 3)
    d = design_from_arrays(column(n, 0, 16) / 16.0, y, column(N, 0, 16) / 16.0, x_l, x_u)
    return name, d, np.array(draw(st.permutations(range(n))))


@settings(max_examples=100)
@given(plugin_cases())
def test_calibrated_plugin_accepts_exactly_the_labeled_pairs(case):
    name, d, perm = case
    lab = d.labeled
    s, y, x = lab.scores, lab.outcomes, lab.covariates

    def fit(rows, outcomes):
        return PLUGIN_FITS[name](s[rows], outcomes[rows], None if x is None else x[rows])

    try:
        calib = fit(perm, y)
    except (ConvergenceError, DataError):  # Platt without an optimum; collinear covariates
        assume(False)

    # fit on the same pairs in another row order: accepted, with estimate()'s report
    got = calibrated_plugin(d, calib, method_name=name)
    want = estimate(d, name)
    assert got.method == want.method
    for key in ("estimate", "std_error", "ci_lower", "ci_upper"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=1e-12)
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        assert got.diagnostics[key] == pytest.approx(value, rel=1e-12, abs=1e-12)

    # the same map built by hand, with no training pairs: taken as given
    assert calibrated_plugin(d, replace(calib, fitted_on=None), method_name=name) == got

    # a sample of another size: refused
    with pytest.raises(MisuseError):
        calibrated_plugin(d, fit(np.append(perm, perm[0]), y))

    # the same rows with two unequal outcomes swapped: refused
    pairs = [(i, j) for i in range(d.n) for j in range(i) if s[i] != s[j] and y[i] != y[j]]
    if pairs:
        i, j = pairs[0]
        swapped = y.copy()
        swapped[[i, j]] = y[[j, i]]
        try:
            other = fit(perm, swapped)
        except ConvergenceError:
            return
        with pytest.raises(MisuseError):
            calibrated_plugin(d, other)


# --- intercept-only representation -------------------------------------------------

def test_plugin_check_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = random_design(rng)
        chk = ppi_as_plugin_check(d)
        assert chk.ppi == pytest.approx(chk.ppi_plugin, rel=1e-12, abs=1e-12)
        assert chk.aipw == pytest.approx(chk.aipw_plugin, rel=1e-12, abs=1e-12)


def test_plugin_check_zero_score():
    d = design_from_arrays([0.0, 0.0], [1.0, 2.0], [0.0, 0.0, 0.0])
    chk = ppi_as_plugin_check(d)
    assert chk.ppi == chk.ppi_plugin == pytest.approx(1.5, abs=1e-14)


def test_plugin_check_single_points():
    d = design_from_arrays([0.3], [1.2], [0.9])
    chk = ppi_as_plugin_check(d)
    assert chk.ppi == pytest.approx(chk.ppi_plugin, abs=1e-14)
    assert chk.aipw == pytest.approx(chk.aipw_plugin, abs=1e-14)


# --- first-order equivalence of the rescaled and linear estimators -----------------

def test_scaled_vs_linear_exact_difference():
    rng = np.random.default_rng(43)
    for _ in range(100):
        d = random_design(rng)
        lam = eem_lambda(d)  # unclipped
        lin = fit_linear(d.labeled.scores, d.labeled.outcomes, clip=False)
        psi_pp = estimate(d, "aipw-em").estimate
        psi_lin = calibrated_plugin(d, lin).estimate
        delta = d.unlabeled.scores.mean() - d.labeled.scores.mean()
        want = (1 - d.rho) * (lam - lin.slope) * delta
        assert psi_pp - psi_lin == pytest.approx(want, rel=1e-10, abs=1e-12)


# --- statistical behavior ----------------------------------------------------------

def test_fixed_adjustment_unbiased_monte_carlo():
    # tiny linear-gaussian design with psi_0 = 0.5 and a fixed adjustment map
    rng = np.random.default_rng(44)
    reps = 20000
    n, N = 8, 16
    vals = np.empty(reps)
    for r in range(reps):
        s_l = rng.random(n)
        y = s_l + rng.normal(scale=0.5, size=n)
        s_u = rng.random(N)
        d = design_from_arrays(s_l, y, s_u)
        vals[r] = family_report(ScoredDesign(d, s_l, s_u)).estimate
    mc_se = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean() - 0.5) <= 4 * mc_se


def test_ppi_less_efficient_than_aipw_at_perfect_score():
    # well-calibrated score equals the true regression function
    reps = 500
    ppi_vals = np.empty(reps)
    aipw_vals = np.empty(reps)
    for r in range(reps):
        d = draw_dataset(DgpSpec(n=400, ratio=16, seed=1000 + r, miscalibrated=False))
        ppi_vals[r] = estimate(d, "ppi").estimate
        aipw_vals[r] = estimate(d, "aipw").estimate
    sd_ppi = ppi_vals.std(ddof=1)
    sd_aipw = aipw_vals.std(ddof=1)
    margin = 2.0 * sd_ppi / np.sqrt(2 * (reps - 1))
    assert sd_aipw <= sd_ppi + margin


# --- dispatch ----------------------------------------------------------------------

def test_estimate_dispatch_matches_direct_calls():
    rng = np.random.default_rng(45)
    d = random_design(rng)
    m_l, m_u, y = d.labeled.scores, d.unlabeled.scores, d.labeled.outcomes
    assert estimate(d, "aipw").estimate == family_report(ScoredDesign(d, m_l, m_u)).estimate
    assert estimate(d, "ppi").estimate == pytest.approx(m_u.mean() + (y - m_l).mean(), rel=1e-12)
    assert estimate(d, "labeled-only").estimate == y.mean()


def test_estimate_unknown_method():
    rng = np.random.default_rng(46)
    d = random_design(rng)
    with pytest.raises(ConfigError, match="valid methods"):
        estimate(d, "nope")


def _cli_exit_code(tmp_path, *argv) -> int:
    from ssmean.cli import main, write_labeled_csv, write_unlabeled_csv

    lab, unl = tmp_path / "l.csv", tmp_path / "u.csv"
    write_labeled_csv(lab, scores=[0.1, 0.5, 0.9], outcomes=[0.0, 1.0, 1.0])
    write_unlabeled_csv(unl, scores=[0.2, 0.7])
    data = ["--labeled", str(lab), "--unlabeled", str(unl)] if argv[0] == "estimate" else []
    return main([*argv, *data])


LIBRARY_ROUTES = {
    "estimate": lambda d: estimate(d, "nope"),
    "bootstrap": lambda d: bootstrap(d, "nope", b=2, seed=0),
    "CandidateSet": lambda d: CandidateSet(["aipw", "nope"]),
    "crossfit_calibrated": lambda d: crossfit_calibrated(
        d.labeled.scores, d.labeled.outcomes, d.unlabeled.scores, ols_trainer, "nope", k=2
    ),
    "run_grid": lambda d: run_grid([10], [1], ["aipw", "nope"], reps=2),
    "ate_two_arm": lambda d: ate_two_arm(
        [0.0, 1.0, 1.0], ([0.2, 0.5, 0.9], [0.3, 0.6]), [1.0, 0.0], ([0.4, 0.7], [0.1, 0.2, 0.8]), method="nope"
    ),
}
CLI_ROUTES = {
    "cli estimate": ["estimate", "--method", "nope"],
    "cli simulate": ["simulate", "--ns", "10", "--ratios", "1", "--reps", "2", "--method", "aipw,nope"],
}


@pytest.mark.parametrize("route", [*LIBRARY_ROUTES, *CLI_ROUTES])
def test_unknown_method_name_is_refused_by_every_route(route, tmp_path, capsys):
    assert METHOD_NAMES == tuple(REGISTRY)
    message = "unknown method 'nope'; valid methods: " + ", ".join(METHOD_NAMES)
    if route in LIBRARY_ROUTES:
        d = random_design(np.random.default_rng(46), n=8, N=6)
        with pytest.raises(ConfigError, match=re.escape(message)):
            LIBRARY_ROUTES[route](d)
    else:
        assert _cli_exit_code(tmp_path, *CLI_ROUTES[route]) == 2
        assert message in capsys.readouterr().err


def _no_work(*args, **kwargs):
    raise AssertionError("ran before alpha was checked")


ALPHA_ROUTES = {
    "estimate": lambda d, a: estimate(d, "aipw", alpha=a),
    "bootstrap": lambda d, a: bootstrap(d, "aipw", b=2, seed=0, alpha=a),
    "wald_interval": lambda d, a: wald_interval(0.5, 0.1, a),
    "family_report": lambda d, a: family_report(ScoredDesign(d, d.labeled.scores, d.unlabeled.scores), "aipw", a),
    "calibrated_plugin": lambda d, a: calibrated_plugin(d, AffineCalibrator(1.0, 0.0), alpha=a),
    # a draw or a trainer would fail with another error than ConfigError
    "run_grid": lambda d, a: run_grid([10], [1], ["aipw"], reps=2, alpha=a),
    "crossfit_calibrated": lambda d, a: crossfit_calibrated(
        d.labeled.scores, d.labeled.outcomes, d.unlabeled.scores, _no_work, "iso-cal", k=2, alpha=a
    ),
    "ate_two_arm": lambda d, a: ate_two_arm(
        [0.0, 1.0, 1.0], ([0.2, 0.5, 0.9], [0.3, 0.6]), [1.0, 0.0], ([0.4, 0.7], [0.1, 0.2, 0.8]), alpha=a
    ),
    "autocal_select": lambda d, a: autocal_select(d, CandidateSet(["aipw", "iso-cal"]), seed=0, alpha=a),
}


@pytest.mark.parametrize("alpha", [None, "0.05", True, 0.0, 1.0, np.float64(1.5), float("nan")])
@pytest.mark.parametrize("route", ALPHA_ROUTES)
def test_alpha_outside_the_open_unit_interval_is_refused_by_every_route(route, alpha, monkeypatch):
    monkeypatch.setattr("ssmean.simulate.draw_dataset", _no_work)
    monkeypatch.setattr("ssmean.selection._fold_blocks", _no_work)
    d = random_design(np.random.default_rng(46), n=8, N=6)
    with pytest.raises(ConfigError, match=re.escape(f"alpha must be a real number in (0, 1), got {alpha!r}")):
        ALPHA_ROUTES[route](d, alpha)


def test_numpy_float_alpha_is_accepted():
    d = random_design(np.random.default_rng(46), n=8, N=6)
    assert estimate(d, "aipw", alpha=np.float64(0.1)) == estimate(d, "aipw", alpha=0.1)
    assert wald_interval(0.5, 0.1, np.float32(0.25)) == wald_interval(0.5, 0.1, float(np.float32(0.25)))


def test_overflowing_influence_values_raise_no_warning_before_the_error():
    # the labeled influence values overflow to inf and nan; no RuntimeWarning precedes the refusal
    d = design_from_arrays([1.7e308, -1.7e308, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0], [1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^aipw: standard error overflows"):
            estimate(d, "aipw")


def test_venn_abers_refuses_an_anchor_that_overflows():
    # the labeled score sum overflows, so the aipw anchor is not finite
    d = _squares_overflow_design(5e307)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^venn-abers: the aipw anchor overflows float64"):
            estimate(d, "venn-abers")


def test_linear_cov_method_requires_covariates():
    rng = np.random.default_rng(47)
    d = random_design(rng)
    with pytest.raises(Exception):
        estimate(d, "linear-cov-cal")


def test_linear_cov_method_end_to_end():
    rng = np.random.default_rng(48)
    n, N = 25, 40
    x_l = rng.normal(size=(n, 2))
    m_l = rng.normal(size=n)
    y = x_l @ [1.0, -1.0] + m_l + rng.normal(scale=0.3, size=n)
    x_u = rng.normal(size=(N, 2))
    m_u = rng.normal(size=N)
    d = design_from_arrays(m_l, y, m_u, x_l, x_u)
    rep = estimate(d, "linear-cov-cal")
    want = calibrated_plugin(d, fit_linear_cov(m_l, y, x_l, clip=True), method_name="linear-cov-cal")
    assert rep == want


def test_platt_method_requires_binary():
    d = design_from_arrays([0.2, 0.8], [0.1, 0.9], [0.5])
    with pytest.raises(DataError):
        estimate(d, "platt-cal")


def test_venn_abers_rescales_outcomes():
    rng = np.random.default_rng(49)
    m = rng.uniform(size=12)
    y = rng.uniform(size=12) * 10.0 - 3.0  # outside [0, 1]
    d = design_from_arrays(m, y, rng.uniform(size=8))
    rep = estimate(d, "venn-abers")
    assert rep.diagnostics["outcome_rescale"][0] == pytest.approx(y.min())
    assert np.isfinite(rep.estimate)


def test_venn_abers_runs_one_sweep_per_estimate(monkeypatch):
    import ssmean.calibrators

    fits, evaluated = [], []
    real_fit = ssmean.calibrators.fit_venn_abers
    real_call = ssmean.calibrators.StepCalibrator.__call__

    def counting_fit(*args, **kwargs):
        fits.append(len(args[0]))
        return real_fit(*args, **kwargs)

    def counting_call(self, scores):
        evaluated.append(len(scores))
        return real_call(self, scores)

    monkeypatch.setattr(ssmean.calibrators, "fit_venn_abers", counting_fit)
    monkeypatch.setattr(ssmean.calibrators.StepCalibrator, "__call__", counting_call)
    rng = np.random.default_rng(17)
    d = design_from_arrays(rng.uniform(size=15), rng.uniform(size=15), rng.uniform(size=25))
    estimate(d, "venn-abers")
    assert fits == [d.n]  # one fit, on the labeled sample
    assert evaluated == [d.n]  # the unlabeled side is counted per block, not evaluated


def test_venn_abers_keeps_unit_interval_outcomes_unscaled():
    rng = np.random.default_rng(90)
    m = rng.uniform(size=10)
    y = rng.uniform(0.2, 0.8, size=10)  # inside [0, 1]: no rescale
    d = design_from_arrays(m, y, rng.uniform(size=6))
    rep = estimate(d, "venn-abers")
    assert rep.diagnostics["outcome_rescale"] == [0.0, 1.0]
