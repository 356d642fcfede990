import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.special import expit

from ssmean import (
    METHOD_NAMES,
    ConfigError,
    LabeledSample,
    SsmeanError,
    TwoSampleDesign,
    UnlabeledSample,
    bootstrap,
    design_from_arrays,
    estimate,
    predict,
    wald_interval,
)
from ssmean._rng import BOOT_RESAMPLE, derive_seed
from ssmean.estimators import REGISTRY, ScoredDesign, family_report
from ssmean.inference import bootstrap_indices, normal_quantile
from ssmean.simulate import DgpSpec, draw_dataset


def influence_oracle(design, a_l, a_u, psi):
    """Per-row influence values (D_L, D_U) of the family at adjustment values a.

    D_L = a - psi + (Y - a)/rho on the labeled rows and D_U = a - psi on the
    unlabeled rows; the oracle for family_report's standard error.
    """
    a_l, a_u = np.asarray(a_l, float), np.asarray(a_u, float)
    return a_l - psi + (design.labeled.outcomes - a_l) / design.rho, a_u - psi


def oracle_se(design, f_l, f_u):
    """sqrt(sigma2 / M), sigma2 = rho mean D_L^2 + (1-rho) mean D_U^2, at the
    adjustment f recentered by the labeled residual mean."""
    y, rho = design.labeled.outcomes, design.rho
    shift = np.mean(y - f_l)
    psi = rho * np.mean(f_l) + (1 - rho) * np.mean(f_u) + shift
    d_l, d_u = influence_oracle(design, f_l + shift, f_u + shift, psi)
    sigma2 = rho * np.mean(d_l**2) + (1 - rho) * np.mean(d_u**2)
    return float(np.sqrt(sigma2 / design.m_total))


def test_influence_formula_single_point():
    d = design_from_arrays([0.0], [2.0], [0.0])  # rho = 1/2
    d_l, d_u = influence_oracle(d, [1.0], [1.0], psi=1.0)
    assert d_l[0] == pytest.approx(2.0)  # 1 - 1 + 2*(2-1)
    assert d_u[0] == pytest.approx(0.0)
    # f = (0 | 1): psi = 2.5, a = f + 2, so D_L = -1/2 and D_U = 1/2
    rep = family_report(ScoredDesign(d, [0.0], [1.0]))
    assert rep.estimate == 2.5
    assert rep.std_error == pytest.approx(np.sqrt(0.5) / 2.0, rel=1e-15)
    assert rep.std_error == pytest.approx(oracle_se(d, np.array([0.0]), np.array([1.0])), rel=1e-15)


def test_influence_outcome_adjustment_drops_residual():
    rng = np.random.default_rng(50)
    y = rng.normal(size=5)
    d = design_from_arrays(np.zeros(5), y, np.zeros(3))
    adj_u = rng.normal(size=3)
    psi = (y.sum() + adj_u.sum()) / 8.0
    d_l, _ = influence_oracle(d, y, adj_u, psi)
    assert np.allclose(d_l, y - psi, atol=1e-14)
    # f = Y on the labeled rows leaves no residual, so no recentering
    rep = family_report(ScoredDesign(d, y, adj_u))
    assert rep.diagnostics["residual_mean"] == 0.0
    assert rep.estimate == pytest.approx(psi, abs=1e-14)
    assert rep.std_error == pytest.approx(oracle_se(d, y, adj_u), rel=1e-12)


def test_influence_constant_everything_is_zero():
    c = 3.0
    d = design_from_arrays([0.0, 0.0], [c, c], [0.0])
    d_l, d_u = influence_oracle(d, [c, c], [c], psi=c)
    assert np.all(d_l == 0.0)
    assert np.all(d_u == 0.0)
    assert family_report(ScoredDesign(d, [c, c], [c])).std_error == 0.0


def test_wald_se_examples():
    d = design_from_arrays([0.0], [0.0], [0.0])
    assert family_report(ScoredDesign(d, [0.0], [0.0])).std_error == 0.0
    # f = (2 | 0): psi = -1, a = f - 2, so D_L = 1, D_U = -1 and M = 2
    assert family_report(ScoredDesign(d, [2.0], [0.0])).std_error == np.sqrt(2.0) / 2.0
    assert family_report(ScoredDesign(d, [4.0], [0.0])).std_error == np.sqrt(2.0)


def test_influence_centering_for_mean_calibrated_adjustments():
    from ssmean import fit_isotonic, predict

    rng = np.random.default_rng(59)
    for _ in range(20):
        n, N = int(rng.integers(5, 40)), int(rng.integers(5, 40))
        m_l = rng.normal(size=n)
        y = m_l + rng.normal(size=n)
        m_u = rng.normal(size=N)
        d = design_from_arrays(m_l, y, m_u)
        cal = fit_isotonic(m_l, y)
        pred_l, pred_u = predict(cal, m_l), predict(cal, m_u)
        psi = family_report(ScoredDesign(d, pred_l, pred_u)).estimate
        d_l, d_u = influence_oracle(d, pred_l, pred_u, psi)
        rho = d.rho
        pooled = rho * d_l.mean() + (1 - rho) * d_u.mean()
        assert abs(pooled) <= 1e-9


def test_wald_se_two_forms_agree():
    rng = np.random.default_rng(51)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        N = int(rng.integers(1, 30))
        d = design_from_arrays(np.zeros(n), np.zeros(n), np.zeros(N))
        f_l, f_u = rng.normal(size=n), rng.normal(size=N)
        direct = family_report(ScoredDesign(d, f_l, f_u)).std_error
        assert direct == pytest.approx(oracle_se(d, f_l, f_u), rel=1e-12)


def oracle_design(seed):
    """Covariates and binary outcomes, so every method applies; scores rounded
    to 0.01, so the unlabeled scores tie with each other and with the labeled ones."""
    n, N = ((40, 300), (120, 900), (300, 2400))[seed]
    rng = np.random.default_rng(300 + seed)
    x_l, x_u = rng.normal(size=(n, 2)), rng.normal(size=(N, 2))
    m_l, m_u = (np.round(expit(x[:, 0] + 0.3 * x[:, 1]), 2) for x in (x_l, x_u))
    y = (rng.uniform(size=n) < expit(1.5 * x_l[:, 0])).astype(float)
    return design_from_arrays(m_l, y, m_u, x_l, x_u)


@pytest.mark.parametrize("seed", range(3))
def test_every_method_matches_the_per_row_oracle(seed):
    d = oracle_design(seed)
    lab, unl = d.labeled, d.unlabeled
    for name in METHOD_NAMES:
        rep = estimate(d, name, seed=seed)
        # auto-cal reports its refit winner
        f = REGISTRY[rep.diagnostics.get("selected", name)].fit(d).maps.map(0)
        f_l, f_u = predict(f, lab.scores, lab.covariates), predict(f, unl.scores, unl.covariates)
        psi = d.rho * np.mean(f_l) + (1 - d.rho) * np.mean(f_u) + np.mean(lab.outcomes - f_l)
        if name == "labeled-only":
            se = np.std(lab.outcomes, ddof=1) / np.sqrt(d.n)
        else:
            se = oracle_se(d, f_l, f_u)
        assert rep.estimate == pytest.approx(psi, rel=1e-12), name
        assert rep.std_error == pytest.approx(se, rel=1e-12), name


def test_warm_unlabeled_caches_reproduce_a_fresh_report_bit_for_bit():
    d = oracle_design(0)
    lab, unl = d.labeled, d.unlabeled

    def fresh():
        return design_from_arrays(lab.scores, lab.outcomes, unl.scores, lab.covariates, unl.covariates)

    warm = fresh()
    for name in METHOD_NAMES:
        estimate(warm, name)
    assert {"sorted_scores", "score_moments"} <= set(vars(warm.unlabeled))
    for name in METHOD_NAMES:
        a, b = estimate(fresh(), name), estimate(warm, name)
        assert (a.estimate, a.std_error, a.ci_lower, a.ci_upper) == (b.estimate, b.std_error, b.ci_lower, b.ci_upper)


def test_wald_interval_values():
    assert wald_interval(1.0, 0.0, 0.05) == (1.0, 1.0)
    lo, hi = wald_interval(0.0, 1.0, 0.05)
    assert hi == pytest.approx(1.95996, abs=1e-4)
    assert lo == -hi
    lo, hi = wald_interval(0.0, 1.0, 0.32)
    assert hi == pytest.approx(0.9945, abs=1e-3)
    with pytest.raises(ConfigError):
        wald_interval(0.0, 1.0, 1.5)


@pytest.mark.parametrize("se", [float("nan"), float("inf"), -float("inf"), -1e-300])
def test_wald_interval_refuses_a_standard_error_that_is_not_finite_and_nonnegative(se):
    with pytest.raises(ConfigError, match=f"^standard error must be finite and nonnegative, got {se!r}$"):
        wald_interval(0.0, se, 0.05)


@pytest.mark.parametrize("estimate", [float("nan"), float("inf"), -float("inf")])
def test_wald_interval_refuses_an_estimate_that_is_not_finite(estimate):
    with pytest.raises(ConfigError, match=f"^estimate must be finite, got {estimate!r}$"):
        wald_interval(estimate, 1.0, 0.05)


def test_normal_quantile_reference_values():
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.84) == pytest.approx(0.994457883209753, abs=1e-9)
    assert normal_quantile(0.999) == pytest.approx(3.090232306167813, abs=1e-9)


@settings(max_examples=300)
@given(st.floats(0.5, 1.0 - 2.0**-53))
@example(0.5).via("the median")
@example(0.5 + 2.0**-53).via("the smallest positive quantile")
@example(1.0 - 2.0**-53).via("the largest p below 1")
def test_normal_quantile_agrees_with_scipy_ndtri(p):
    from scipy.special import ndtri

    assert abs(normal_quantile(p) - float(ndtri(p))) <= 4e-15 * abs(float(ndtri(p)))


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_normal_quantile_refuses_p_outside_the_open_unit_interval(p):
    with pytest.raises(ConfigError, match=re.escape(f"normal quantile needs p in (0, 1), got {p!r}")):
        normal_quantile(p)


def test_report_interval_half_width_matches_quantile():
    rng = np.random.default_rng(52)
    d = design_from_arrays(rng.normal(size=30), rng.normal(size=30), rng.normal(size=50))
    rep = estimate(d, "aipw", alpha=0.1)
    half = (rep.ci_upper - rep.ci_lower) / 2.0
    assert half == pytest.approx(normal_quantile(0.95) * rep.std_error, rel=1e-12)
    assert rep.ci_lower <= rep.estimate <= rep.ci_upper


def test_permuting_rows_leaves_estimate_and_se():
    rng = np.random.default_rng(53)
    m = rng.normal(size=25)
    y = rng.normal(size=25)
    u = rng.normal(size=40)
    d1 = design_from_arrays(m, y, u)
    perm = rng.permutation(25)
    permu = rng.permutation(40)
    d2 = design_from_arrays(m[perm], y[perm], u[permu])
    for method in ("ppi", "aipw", "aipw-em", "iso-cal", "linear-cal"):
        r1 = estimate(d1, method)
        r2 = estimate(d2, method)
        assert r1.estimate == pytest.approx(r2.estimate, rel=1e-12, abs=1e-12)
        assert r1.std_error == pytest.approx(r2.std_error, rel=1e-12, abs=1e-12)


# --- bootstrap --------------------------------------------------------------------

def test_bootstrap_deterministic():
    rng = np.random.default_rng(54)
    d = design_from_arrays(rng.normal(size=20), rng.normal(size=20), rng.normal(size=30))
    r1 = bootstrap(d, "iso-cal", b=25, seed=7)
    r2 = bootstrap(d, "iso-cal", b=25, seed=7)
    assert np.array_equal(r1.replicates, r2.replicates)
    assert r1.percentile_ci == r2.percentile_ci
    assert r1.normal_ci == r2.normal_ci


def test_bootstrap_zero_variance_data():
    d = design_from_arrays([1.0] * 5, [2.0] * 5, [1.0] * 8)
    res = bootstrap(d, "labeled-only", b=50, seed=0)
    assert res.se_boot == 0.0
    assert res.percentile_ci == (2.0, 2.0)
    assert res.normal_ci == (2.0, 2.0)


def test_bootstrap_matches_analytic_se_labeled_only():
    rng = np.random.default_rng(55)
    y = rng.normal(loc=0.3, scale=1.2, size=200)
    d = design_from_arrays(np.zeros(200), y, np.zeros(50))
    res = bootstrap(d, "labeled-only", b=1000, seed=3)
    analytic = y.std(ddof=1) / np.sqrt(200)
    assert abs(res.se_boot / analytic - 1.0) <= 0.15


def test_bootstrap_needs_two_replicates():
    d = design_from_arrays([1.0, 2.0], [1.0, 2.0], [1.0])
    with pytest.raises(ConfigError):
        bootstrap(d, "labeled-only", b=1, seed=0)


def test_bootstrap_refits_calibration():
    # a fixed calibrator would give zero spread on constant-score resamples;
    # refitting tracks the resampled outcomes
    rng = np.random.default_rng(56)
    y = rng.normal(size=40)
    d = design_from_arrays(np.linspace(0, 1, 40), y, np.linspace(0, 1, 60))
    res = bootstrap(d, "linear-cal", b=60, seed=1)
    assert res.se_boot > 0


def test_bootstrap_index_streams_independent():
    n = N = 1000
    lab, unl = bootstrap_indices(seed=11, rep=0, n=n, N=N)
    assert lab.shape == (n,)
    assert unl.shape == (N,)
    corr = np.corrcoef(lab, unl)[0, 1]
    assert abs(corr) < 0.08
    # and across replicates the labeled stream changes
    lab2, _ = bootstrap_indices(seed=11, rep=1, n=n, N=N)
    assert not np.array_equal(lab, lab2)


def test_bootstrap_percentile_quantiles():
    rng = np.random.default_rng(57)
    d = design_from_arrays(rng.normal(size=30), rng.normal(size=30), rng.normal(size=30))
    res = bootstrap(d, "labeled-only", b=200, seed=5, alpha=0.1)
    assert res.percentile_ci[0] == pytest.approx(np.quantile(res.replicates, 0.05))
    assert res.percentile_ci[1] == pytest.approx(np.quantile(res.replicates, 0.95))
    assert res.se_boot == pytest.approx(res.replicates.std(ddof=1))


def _replicate_designs():
    """Designs for the replicate oracle; all carry covariates, five have binary outcomes."""
    rng = np.random.default_rng(58)

    def with_covariates(m_l, y, m_u):
        return design_from_arrays(m_l, y, m_u, rng.normal(size=(len(m_l), 2)), rng.normal(size=(len(m_u), 2)))

    def binary(m):
        return (rng.uniform(size=len(m)) < np.clip(m, 0.0, 1.0)).astype(float)

    paper = draw_dataset(DgpSpec(n=50, ratio=4, seed=3))
    ties_l, ties_u = np.round(rng.uniform(size=60), 1), np.round(rng.uniform(size=200), 1)
    cont_l, cont_u = rng.normal(size=45), rng.normal(size=150)
    bin_l, small = rng.uniform(size=70), rng.uniform(size=6)
    return {
        "paper": with_covariates(paper.labeled.scores, paper.labeled.outcomes, paper.unlabeled.scores),
        "heavy-ties-binary": with_covariates(ties_l, binary(ties_l), ties_u),
        "heavy-ties-continuous": with_covariates(ties_l, ties_l + rng.normal(size=60), ties_u),
        "continuous": with_covariates(cont_l, 2.0 * cont_l + rng.normal(size=45), cont_u),
        "binary": with_covariates(bin_l, binary(bin_l), rng.uniform(size=180)),
        "small-binary": with_covariates(small, np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0]), rng.uniform(size=15)),
        "offset-binary": with_covariates(1e3 + rng.normal(size=40), binary(rng.uniform(size=40)), 1e3 + rng.normal(size=90)),
    }


def _materialized_replicates(design, name, b, seed):
    """The replicates as estimate() on each resample, built and checked afresh from bootstrap_indices."""
    lab, unl = design.labeled, design.unlabeled
    out = np.empty(b)
    for i in range(b):
        idx_l, idx_u = bootstrap_indices(seed, i, design.n, design.N)
        resample = TwoSampleDesign(
            LabeledSample(lab.scores[idx_l], lab.outcomes[idx_l], lab.covariates[idx_l]),
            UnlabeledSample(unl.scores[idx_u], unl.covariates[idx_u]),
        )
        out[i] = estimate(resample, name, seed=derive_seed(seed, BOOT_RESAMPLE, i, 2)).estimate
    return out


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_bootstrap_replicates_equal_estimate_on_materialized_resamples(name):
    b = 3 if name == "auto-cal" else 8
    ran = 0
    for label, d in _replicate_designs().items():
        try:
            expected = _materialized_replicates(d, name, b, seed=9)
        except SsmeanError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                bootstrap(d, name, b=b, seed=9)
            continue
        res = bootstrap(d, name, b=b, seed=9)
        assert res.estimate == estimate(d, name, seed=9).estimate, label
        assert res.replicates.tobytes() == expected.tobytes(), label
        ran += 1
    assert ran >= 5


# every method but auto-cal bootstraps through its fold-stacked fit
STACKED = tuple(name for name in METHOD_NAMES if name != "auto-cal")


@pytest.mark.parametrize("name", STACKED)
def test_stacked_replicates_are_bit_identical_across_chunks(monkeypatch, name):
    import ssmean.inference

    method = REGISTRY[name]
    fits = []

    def counting_fit(s, y, rows, bounds, context):
        fits.append(len(bounds) - 1)
        return method.stacked_fit(s, y, rows, bounds, context)

    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(method, stacked_fit=counting_fit))
    ran = 0
    for label, d in _replicate_designs().items():
        # three replicates per stacked call: b = 8 takes three calls
        monkeypatch.setattr(ssmean.inference, "_STACKED_ROWS", 3 * d.n)
        try:
            estimate(d, name)
            expected = _materialized_replicates(d, name, 8, seed=4)
        except SsmeanError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                bootstrap(d, name, b=8, seed=4)
            continue
        fits.clear()
        res = bootstrap(d, name, b=8, seed=4)
        assert fits == [1, 3, 3, 2], label  # the point estimate's fit, then one call per chunk
        assert res.replicates.tobytes() == expected.tobytes(), label
        ran += 1
    assert ran >= 5


@st.composite
def tie_heavy_bootstraps(draw):
    """A stacked method's bootstrap on a tie-heavy design, n from below to above a chunk of 12 rows.

    Scores lie on a grid of 9 levels, the grid moved to 1e6, 9 adjacent
    floats, or the grid times 1e153, whose squares overflow in some
    resamples and not in others; outcomes are binary (always for platt-cal)
    or on a grid. Both samples carry a column of covariates on a grid of 5
    levels, which _materialized_replicates gathers and linear-cov-cal reads.
    """
    name = draw(st.sampled_from(STACKED))
    n, N = draw(st.integers(2, 30)), draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["grid", "offset", "adjacent floats", "huge"]))

    def scores(size):
        level = np.array(draw(st.lists(st.integers(0, 8), min_size=size, max_size=size)))
        return {"grid": level / 8.0, "offset": 1e6 + level / 8.0, "adjacent floats": 0.5 + level * 2.0**-53,
                "huge": level * 1e153}[kind]

    m_l, m_u = scores(n), scores(N)
    levels = 1 if name == "platt-cal" else draw(st.sampled_from([1, 4]))
    y = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    x = np.array(draw(st.lists(st.integers(-2, 2), min_size=n + N, max_size=n + N))).reshape(-1, 1) / 2.0
    d = design_from_arrays(m_l, y, m_u, x[:n], x[n:])
    return d, name, draw(st.integers(2, 7)), draw(st.integers(0, 2**16))


@settings(max_examples=150)
@given(tie_heavy_bootstraps())
# replicate 2 of 6 refuses (platt-cal's Newton fit does not converge), one replicate per chunk
@example((design_from_arrays([0.5, 0.25, 0.0, 1.0, 0.625, 0.125, 0.75, 0.125], [1, 1, 0, 0, 0, 1, 1, 1], [0.5],
                             np.zeros((8, 1)), np.zeros((1, 1))), "platt-cal", 6, 1))
def test_stacked_replicates_equal_estimate_on_materialized_resamples(case):
    import ssmean.inference

    d, name, b, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ssmean.inference, "_STACKED_ROWS", 12)
        try:
            estimate(d, name, seed=seed)
            expected = _materialized_replicates(d, name, b, seed)
        except SsmeanError as exc:
            # the point estimate's refusal, else the first refused resample's
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                bootstrap(d, name, b=b, seed=seed)
            return
        assert bootstrap(d, name, b=b, seed=seed).replicates.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["aipw", "ppi-pp", "iso-cal"])
def test_covariates_leave_the_bootstrap_replicates_of_a_method_that_reads_none_unchanged(name, monkeypatch):
    # only linear-cov-cal reads the unlabeled covariates; the others' resamples gather the scores alone
    d = draw_dataset(DgpSpec(n=120, ratio=4, seed=2))
    rng = np.random.default_rng(8)
    lab, unl = d.labeled, d.unlabeled
    with_x = design_from_arrays(lab.scores, lab.outcomes, unl.scores, rng.normal(size=(d.n, 2)), rng.normal(size=(d.N, 2)))
    gathered, real_take = [], UnlabeledSample.take

    def take(self, rows):
        gathered.append(self.covariates is not None)
        return real_take(self, rows)

    monkeypatch.setattr(UnlabeledSample, "take", take)
    got = bootstrap(with_x, name, b=40, seed=3)
    assert gathered and not any(gathered)
    want = bootstrap(d, name, b=40, seed=3)
    assert got.replicates.tobytes() == want.replicates.tobytes()
    assert got.estimate == want.estimate


def test_auto_cal_bootstrap_builds_one_report(monkeypatch):
    import ssmean.estimators

    reports = []
    real_report = ssmean.estimators._report

    def counting_report(scored, method, *args, **kwargs):
        reports.append(method)
        return real_report(scored, method, *args, **kwargs)

    monkeypatch.setattr(ssmean.estimators, "_report", counting_report)
    d = draw_dataset(DgpSpec(n=40, ratio=2, seed=0))
    bootstrap(d, "auto-cal", b=3, seed=0)
    assert reports == ["auto-cal"]  # the point estimate's; each replicate computes psi alone


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), "3", True, np.True_])
def test_seeds_must_be_non_negative_integers(seed):
    d = draw_dataset(DgpSpec(n=20, ratio=2, seed=0))
    with pytest.raises(ConfigError, match=re.escape(f"got {seed!r}")):
        bootstrap(d, "aipw", b=5, seed=seed)
    with pytest.raises(ConfigError, match=re.escape(f"got {seed!r}")):
        estimate(d, "auto-cal", seed=seed)


@pytest.mark.parametrize("b", [2.5, 5.0, "5", None, True, np.True_])
def test_bootstrap_replicate_count_must_be_an_integer(b):
    d = design_from_arrays([1.0, 2.0], [1.0, 2.0], [1.0])
    with pytest.raises(ConfigError, match=f"^bootstrap needs an integer number of replicates b, got {re.escape(repr(b))}$"):
        bootstrap(d, "aipw", b=b, seed=0)
    assert bootstrap(d, "aipw", b=np.int64(3), seed=0).b == 3


def test_bootstrap_reads_a_numpy_float32_alpha_as_a_python_float():
    d = draw_dataset(DgpSpec(200, 4, 0))
    got = bootstrap(d, "aipw", b=20, seed=0, alpha=np.float32(0.05))
    want = bootstrap(d, "aipw", b=20, seed=0, alpha=float(np.float32(0.05)))
    assert (got.normal_ci, got.percentile_ci) == (want.normal_ci, want.percentile_ci)


@pytest.mark.parametrize("name, draws", [("iso-cal", 16), ("aipw", 16), ("labeled-only", 8), ("ppi-pp", 16), ("venn-abers", 24)])
def test_bootstrap_draws_each_resample_once_per_pass_over_the_unlabeled_side(monkeypatch, name, draws):
    # b = 8: one labeled draw per replicate, and one unlabeled draw per pass
    # over the resamples. A fit that reads their moments shares its pass with
    # the summary of affine maps (ppi-pp); venn-abers' step maps are counted
    # in each resample's sorted scores, a second pass; labeled-only's f = 0
    # reads no resample
    import ssmean.inference

    calls = []
    real_draw = ssmean.inference._draw

    def counting_draw(seed, rep, side, size):
        calls.append(side)
        return real_draw(seed, rep, side, size)

    monkeypatch.setattr(ssmean.inference, "_draw", counting_draw)
    d = draw_dataset(DgpSpec(60, 4, 1))
    bootstrap(d, name, b=8, seed=2)
    assert len(calls) == draws and calls.count(0) == 8
