import re

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import expit

from ssmean import (
    ConfigError,
    DataError,
    DgpSpec,
    DimensionError,
    ate_two_arm,
    design_from_arrays,
    draw_dataset,
    fit_isotonic,
    run_grid,
    summaries_to_csv,
)
from ssmean.simulate import TRUE_MEAN, score_curve, true_regression


def test_true_regression_at_zero():
    assert true_regression(0.0) == 0.5


def test_score_curve_at_zero():
    assert score_curve(np.array([0.0]))[0] == pytest.approx(0.0517060660274963, abs=1e-6)


def test_score_curve_saturation():
    # the lower clip binds; the upper limit of the distortion is 0.6
    assert score_curve(np.array([-10.0]))[0] == 0.01
    assert score_curve(np.array([10.0]))[0] == pytest.approx(0.6, abs=1e-12)


def log_form_score_curve(s):
    """The miscalibrated score curve with its logit z in the log form log(mu) - log(1 - mu)."""
    x = 5.0 * s
    z = np.logaddexp(0.0, x) - np.logaddexp(0.0, -x)
    return np.clip(-0.15 + 0.75 * expit(0.8 * z + 0.1 * z**3 - 1.0), 0.01, 0.99)


def test_score_curve_matches_the_log_form_of_its_logit():
    # where the lower clip starts to bind, with its neighbouring floats, and where expit saturates
    knee = optimize.brentq(lambda t: -0.15 + 0.75 * expit(0.8 * 5 * t + 0.1 * (5 * t) ** 3 - 1.0) - 0.01, -2, 0)
    edges = [knee, np.nextafter(knee, -1), np.nextafter(knee, 1), -8.0, 8.0, -1.5, 1.5, 0.0]
    s = np.concatenate((np.random.default_rng(70).uniform(-8, 8, size=20000), edges))
    assert score_curve(s)[s < knee - 1e-9].max() == 0.01 < score_curve(s)[s > knee + 1e-9].min()
    assert np.max(np.abs(score_curve(s) - log_form_score_curve(s))) <= 1e-15


@pytest.mark.parametrize("field", ["n", "ratio", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "4", None])
def test_dgp_spec_names_a_field_that_is_not_an_integer(field, value):
    with pytest.raises(ConfigError, match=f"^DgpSpec {field} must be an integer, got {re.escape(repr(value))}$"):
        DgpSpec(**{"n": 10, "ratio": 2, "seed": 0, field: value})


def test_dgp_spec_bounds_and_numpy_integers():
    for field, low in (("n", 2), ("ratio", 1), ("seed", 0)):
        with pytest.raises(ConfigError, match=f"^need {field} >= {low}, got {low - 1}$"):
            DgpSpec(**{"n": 10, "ratio": 2, "seed": 0, field: low - 1})
    spec = DgpSpec(n=np.int64(10), ratio=np.int32(2), seed=np.uint64(7), miscalibrated=np.bool_(True))
    assert np.array_equal(draw_dataset(spec).unlabeled.scores, draw_dataset(DgpSpec(10, 2, 7)).unlabeled.scores)


@pytest.mark.parametrize("value", ["no", 2, 1, None, 0.0])
def test_dgp_spec_miscalibrated_must_be_a_bool(value):
    with pytest.raises(ConfigError, match=f"^DgpSpec miscalibrated must be a bool, got {re.escape(repr(value))}$"):
        DgpSpec(10, 2, 0, miscalibrated=value)


def test_target_mean_is_half_by_symmetry():
    val, _ = integrate.quad(
        lambda s: true_regression(s) * np.exp(-s * s / 2) / np.sqrt(2 * np.pi), -12, 12
    )
    assert val == pytest.approx(TRUE_MEAN, abs=1e-10)


def test_draw_dataset_shapes_and_ranges():
    d = draw_dataset(DgpSpec(n=50, ratio=3, seed=1))
    assert d.n == 50 and d.N == 150
    y = d.labeled.outcomes
    assert np.all((y == 0.0) | (y == 1.0))
    assert d.labeled.scores.min() >= 0.01 and d.labeled.scores.max() <= 0.99
    well = draw_dataset(DgpSpec(n=50, ratio=1, seed=1, miscalibrated=False))
    assert np.all((well.labeled.scores > 0) & (well.labeled.scores < 1))


def test_draw_dataset_deterministic():
    a = draw_dataset(DgpSpec(n=20, ratio=2, seed=9))
    b = draw_dataset(DgpSpec(n=20, ratio=2, seed=9))
    assert np.array_equal(a.labeled.scores, b.labeled.scores)
    assert np.array_equal(a.labeled.outcomes, b.labeled.outcomes)
    assert np.array_equal(a.unlabeled.scores, b.unlabeled.scores)
    c = draw_dataset(DgpSpec(n=20, ratio=2, seed=10))
    assert not np.array_equal(a.labeled.scores, c.labeled.scores)


def test_run_grid_deterministic_and_sorted():
    args = dict(ns=[20, 10], ratios=[2, 1], methods=["ppi", "labeled-only"], reps=3, seed=4)
    rows1 = run_grid(**args)
    rows2 = run_grid(**args)
    assert rows1 == rows2
    keys = [(r.n, r.ratio, r.method) for r in rows1]
    assert keys == sorted(keys)


def test_run_grid_ppi_self_relative_efficiency():
    rows = run_grid([20], [2], ["ppi", "aipw"], reps=5, seed=0)
    ppi_row = next(r for r in rows if r.method == "ppi")
    assert ppi_row.rel_eff_vs_ppi == 1.0


def test_run_grid_rmse_identity():
    rows = run_grid([30], [2], ["aipw", "iso-cal"], reps=20, seed=2)
    for r in rows:
        assert r.rmse**2 == pytest.approx(r.bias**2 + r.sd**2 * (r.reps - 1) / r.reps, rel=1e-10)


def test_run_grid_paired_datasets_across_method_sets():
    solo = run_grid([25], [2], ["iso-cal"], reps=4, seed=11)
    multi = run_grid([25], [2], ["ppi", "iso-cal", "aipw-em"], reps=4, seed=11)
    solo_row = next(r for r in solo if r.method == "iso-cal")
    multi_row = next(r for r in multi if r.method == "iso-cal")
    assert solo_row == multi_row


def test_run_grid_degenerate_stub(monkeypatch):
    def stub(spec):
        return design_from_arrays(
            np.linspace(0, 1, spec.n),
            np.full(spec.n, TRUE_MEAN),
            np.linspace(0, 1, spec.ratio * spec.n),
        )

    monkeypatch.setattr("ssmean.simulate.draw_dataset", stub)
    rows = run_grid([10], [1], ["labeled-only"], reps=2, seed=0)
    (row,) = rows
    assert row.bias == 0.0
    assert row.sd == 0.0
    assert row.coverage == 1.0


def test_run_grid_validation():
    with pytest.raises(Exception):
        run_grid([10], [1], ["labeled-only"], reps=1, seed=0)
    with pytest.raises(Exception):
        run_grid([10], [1], ["bogus"], reps=2, seed=0)


@pytest.mark.parametrize("reps", [2.5, 2.0, "3", None, True, np.True_])
def test_run_grid_refuses_a_non_integer_reps(reps):
    with pytest.raises(ConfigError, match=f"^run_grid needs an integer number of replicates reps, got {re.escape(repr(reps))}$"):
        run_grid([10], [1], ["ppi"], reps=reps)


def test_run_grid_names_a_non_integer_n_or_ratio():
    with pytest.raises(ConfigError, match="^DgpSpec n must be an integer"):
        run_grid([10.0], [1], ["ppi"], reps=2)
    with pytest.raises(ConfigError, match="^DgpSpec ratio must be an integer"):
        run_grid([10], [True], ["ppi"], reps=2)
    with pytest.raises(ConfigError, match="^DgpSpec miscalibrated must be a bool"):
        run_grid([10], [1], ["ppi"], reps=2, miscalibrated="no")


def test_csv_header_and_round_trip():
    rows = run_grid([12], [1], ["labeled-only", "ppi"], reps=3, seed=1)
    text = summaries_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "method,n,ratio,reps,bias,sd,rmse,coverage,rel_eff_vs_ppi"
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert fields[0] == row.method
        assert int(fields[1]) == row.n
        assert float(fields[4]) == row.bias  # exact: repr round-trips
        assert float(fields[6]) == row.rmse


# --- two-arm wrapper ----------------------------------------------------------

def test_ate_identical_arms_is_zero():
    rng = np.random.default_rng(71)
    y = rng.normal(size=12)
    m_own = rng.normal(size=12)
    m_other = rng.normal(size=12)
    rep = ate_two_arm(y, (m_own, m_other), y, (m_own, m_other), method="aipw")
    assert rep.estimate == 0.0
    assert rep.ci_lower <= 0.0 <= rep.ci_upper


def test_ate_constant_outcomes():
    ones = np.ones(6)
    zeros = np.zeros(5)
    s1 = (np.full(6, 0.3), np.full(5, 0.3))
    s0 = (np.full(5, 0.3), np.full(6, 0.3))
    rep = ate_two_arm(ones, s1, zeros, s0, method="linear-cal")
    assert rep.estimate == pytest.approx(1.0, abs=1e-12)


def test_ate_labeled_only_difference_of_means():
    rep = ate_two_arm(
        [1.0, 3.0],
        (np.zeros(2), np.zeros(2)),
        [0.0, 1.0],
        (np.zeros(2), np.zeros(2)),
        method="labeled-only",
    )
    assert rep.estimate == pytest.approx(2.0 - 0.5, abs=1e-14)
    se1 = np.std([1.0, 3.0], ddof=1) / np.sqrt(2)
    se0 = np.std([0.0, 1.0], ddof=1) / np.sqrt(2)
    assert rep.std_error == pytest.approx(np.hypot(se1, se0), rel=1e-12)


def two_arm_draw(rng, M):
    """M units, Bernoulli(1/2) assignment, arm models m1 = 2x + 1 and m0 = 2x, outcome noise sd 0.5; ATE 1."""
    x = rng.normal(size=M)
    t = rng.random(M) < 0.5
    m1, m0 = 2.0 * x + 1.0, 2.0 * x
    y = np.where(t, m1, m0) + 0.5 * rng.normal(size=M)
    return y[t], (m1[t], m1[~t]), y[~t], (m0[~t], m0[t])


def arm_influence(f, own, y, other):
    """One arm's per-unit influence values, written out: D_L on its units, D_U on the other arm's."""
    rho = len(y) / (len(y) + len(other))
    plugin = rho * f(own).mean() + (1 - rho) * f(other).mean()
    residual = (y - f(own)).mean()
    return f(own) - plugin + (y - f(own) - residual) / rho, f(other) - plugin


@pytest.mark.parametrize("method", ["aipw", "iso-cal"])
def test_ate_standard_error_is_the_per_unit_influence_norm(method):
    y1, s1, y0, s0 = two_arm_draw(np.random.default_rng(72), 150)
    rep = ate_two_arm(y1, s1, y0, s0, method=method)
    fits = {"aipw": lambda m, y: (lambda s: s), "iso-cal": fit_isotonic}
    d1_treated, d1_control = arm_influence(fits[method](s1[0], y1), s1[0], y1, s1[1])
    d0_control, d0_treated = arm_influence(fits[method](s0[0], y0), s0[0], y0, s0[1])
    diff = np.concatenate((d1_treated - d0_treated, d1_control - d0_control))
    assert rep.std_error == pytest.approx(np.sqrt(np.sum(diff**2)) / 150, rel=1e-12)
    assert rep.estimate == pytest.approx(
        rep.diagnostics["treated_mean"]["estimate"] - rep.diagnostics["control_mean"]["estimate"], rel=1e-15
    )


# The influence values leave out the noise of the isotonic fit itself, which
# does not cancel between the arms: at M = 400, iso-cal's SE / sd is about 0.85
# and its coverage about 0.90 (1000 replicates), at M = 3200 about 0.95 and 0.94.
@pytest.mark.parametrize("method, M, reps", [("aipw", 400, 1000), ("iso-cal", 3200, 400)])
def test_ate_standard_error_matches_monte_carlo_spread(method, M, reps):
    rng = np.random.default_rng(0)
    reports = [ate_two_arm(*two_arm_draw(rng, M), method=method) for _ in range(reps)]
    est = np.array([r.estimate for r in reports])
    se = np.array([r.std_error for r in reports])
    assert abs(se.mean() / est.std(ddof=1) - 1.0) <= 0.15
    coverage = np.mean([r.ci_lower <= 1.0 <= r.ci_upper for r in reports])
    assert 0.92 <= coverage <= 0.98


def test_ate_fits_the_method_once_per_arm(monkeypatch):
    import ssmean.estimators

    fitted = []
    real_fit = ssmean.estimators.Method.fit

    def counting_fit(self, design, *args, **kwargs):
        fitted.append(design.n)
        return real_fit(self, design, *args, **kwargs)

    monkeypatch.setattr(ssmean.estimators.Method, "fit", counting_fit)
    y1, s1, y0, s0 = two_arm_draw(np.random.default_rng(72), 150)
    ate_two_arm(y1, s1, y0, s0, method="iso-cal")
    assert fitted == [len(y1), len(y0)]


def test_ate_runs_the_family_core_once_per_arm(monkeypatch):
    import ssmean.estimators
    import ssmean.simulate

    cores = []
    real_core = ssmean.estimators._family_core

    def counting_core(f_l, *args, **kwargs):
        cores.append(len(f_l))
        return real_core(f_l, *args, **kwargs)

    monkeypatch.setattr(ssmean.estimators, "_family_core", counting_core)
    # any module that imports the core by name must not run it beside the report
    monkeypatch.setattr(ssmean.simulate, "_family_core", counting_core, raising=False)
    y1, s1, y0, s0 = two_arm_draw(np.random.default_rng(73), 150)
    ate_two_arm(y1, s1, y0, s0, method="iso-cal")
    assert cores == [len(y1), len(y0)]


def test_ate_empty_arm_rejected():
    with pytest.raises(DataError):
        ate_two_arm([], (np.zeros(0), np.zeros(2)), [1.0], (np.zeros(1), np.zeros(0)), "aipw")


def test_ate_misaligned_arms_rejected():
    zeros = np.zeros
    # treated scores on 7 control units, but 2 control outcomes
    with pytest.raises(DimensionError, match=r"treated_scores\[1\]"):
        ate_two_arm([1, 2, 3], (zeros(3), zeros(7)), [0, 1], (zeros(2), zeros(5)))
    with pytest.raises(DimensionError, match=r"control_scores\[1\]"):
        ate_two_arm([1, 2, 3], (zeros(3), zeros(2)), [0, 1], (zeros(2), zeros(5)))
    for bad in (zeros(3), (zeros(3),), (zeros(3), zeros(2), zeros(2)), None):
        with pytest.raises(DimensionError, match="must be a pair"):
            ate_two_arm([1, 2, 3], bad, [0, 1], (zeros(2), zeros(3)))
