import warnings
from typing import NamedTuple

import numpy as np
import pytest

from ssmean import (
    METHOD_NAMES,
    AffineCalibrator,
    ConfigError,
    DataError,
    MisuseError,
    MethodTag,
    ScoredDesign,
    aipw_general,
    calibrated_plugin,
    design_from_arrays,
    eem_lambda,
    estimate,
    fit_histogram,
    fit_isotonic,
    fit_linear,
    fit_linear_cov,
)
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
    aipw_val = aipw_general(ScoredDesign(design, m_l, m_u, "raw"))
    plugin_u = float((m_u + a_hat).mean())
    plugin_pooled = float(rho * (m_l + a_hat).mean() + (1.0 - rho) * (m_u + a_hat).mean())
    return PluginCheck(ppi=ppi_val, ppi_plugin=plugin_u, aipw=aipw_val, aipw_plugin=plugin_pooled)


def scaled_estimate(design, clip):
    """The family member f = lambda_hat * m with lambda_hat clamped to clip."""
    lam = eem_lambda(design, clip=clip)
    m_l, m_u = design.labeled.scores, design.unlabeled.scores
    return aipw_general(ScoredDesign(design, lam * m_l, lam * m_u))


def random_design(rng, n=None, N=None, scale=1.0):
    n = n or int(rng.integers(2, 40))
    N = N or int(rng.integers(1, 60))
    m_l = rng.normal(scale=scale, size=n)
    y = m_l + rng.normal(size=n)
    m_u = rng.normal(scale=scale, size=N)
    return design_from_arrays(m_l, y, m_u)


# --- aipw_general --------------------------------------------------------------

def test_aipw_general_zero_adjustment_is_labeled_mean():
    rng = np.random.default_rng(30)
    d = random_design(rng)
    scored = ScoredDesign(d, np.zeros(d.n), np.zeros(d.N))
    assert aipw_general(scored) == pytest.approx(d.labeled.outcomes.mean(), abs=1e-14)


def test_aipw_general_outcome_adjustment():
    d = design_from_arrays([0.1, 0.2], [1.0, 3.0], [0.5, 0.5])
    c = 7.0
    scored = ScoredDesign(d, d.labeled.outcomes, np.full(2, c))
    # rho = 1/2: psi = mean(Y)/2 + c/2 + 0
    assert aipw_general(scored) == pytest.approx((2.0 + c) / 2.0, abs=1e-14)


def test_aipw_general_shift_invariance():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = random_design(rng)
        f_l = rng.normal(size=d.n)
        f_u = rng.normal(size=d.N)
        c = rng.uniform(-10, 10)
        base = aipw_general(ScoredDesign(d, f_l, f_u))
        shifted = aipw_general(ScoredDesign(d, f_l + c, f_u + c))
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


@pytest.mark.parametrize("name", ["aipw", "iso-cal"])
def test_overflowing_standard_error_raises(name):
    # the point estimate is finite, but the squared influence values overflow
    rng = np.random.default_rng(91)
    m = rng.uniform(1.0, 2.0, size=20) * 1e200
    y = rng.uniform(1.0, 2.0, size=20) * 1e200
    d = design_from_arrays(m, y, rng.uniform(1.0, 2.0, size=40) * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match="standard error overflows float64"):
            estimate(d, name)


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
        vals[r] = aipw_general(ScoredDesign(d, s_l, s_u))
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
    assert estimate(d, "aipw").estimate == aipw_general(ScoredDesign(d, m_l, m_u))
    assert estimate(d, "ppi").estimate == pytest.approx(m_u.mean() + (y - m_l).mean(), rel=1e-12)
    assert estimate(d, MethodTag("labeled-only")).estimate == y.mean()


def test_estimate_unknown_method():
    rng = np.random.default_rng(46)
    d = random_design(rng)
    with pytest.raises(ConfigError, match="valid methods"):
        estimate(d, "nope")


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
    rep = estimate(d, MethodTag("linear-cov-cal", {"clip": False}))
    calib = fit_linear_cov(m_l, y, x_l, clip=False)
    want = calibrated_plugin(d, calib).estimate
    assert rep.estimate == pytest.approx(want, abs=1e-14)


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


def test_venn_abers_keeps_unit_interval_outcomes_unscaled():
    rng = np.random.default_rng(90)
    m = rng.uniform(size=10)
    y = rng.uniform(0.2, 0.8, size=10)  # inside [0, 1]: no rescale
    d = design_from_arrays(m, y, rng.uniform(size=6))
    rep = estimate(d, "venn-abers")
    assert rep.diagnostics["outcome_rescale"] == [0.0, 1.0]
