from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ssmean import (
    AffineCalibrator,
    BinnedCalibrator,
    ConfigError,
    ConvergenceError,
    DataError,
    DimensionError,
    SsmeanError,
    SigmoidCalibrator,
    StepCalibrator,
    TwoSampleDesign,
    design_from_arrays,
    estimate,
    fit_histogram,
    fit_isotonic,
    fit_linear,
    fit_linear_cov,
    fit_platt,
    fit_venn_abers,
    predict,
)
from ssmean.calibrators import (
    _Context,
    _eem_folds,
    _isotonic_folds,
    _platt_newton,
    _segment_means,
    _stabilized_logit,
    _venn_abers_folds,
)
from ssmean.estimators import REGISTRY
from ssmean.simulate import DgpSpec, draw_dataset


# --- exhaustive oracles -------------------------------------------------------

def iso_oracle_sse(scores, outcomes, weights=None):
    """Min SSE over every monotone step fit: each ordered partition of the
    (tie-pooled) sequence whose blockwise means are nondecreasing."""
    s = np.asarray(scores, float)
    y = np.asarray(outcomes, float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, float)
    order = np.argsort(s, kind="stable")
    s, y, w = s[order], y[order], w[order]
    uniq, first = np.unique(s, return_index=True)
    wg = np.add.reduceat(w, first)
    yg = np.add.reduceat(w * y, first) / wg
    within = float(np.dot(w, y**2) - np.dot(wg, yg**2))
    k = len(uniq)
    best = np.inf
    for mask in range(2 ** (k - 1)):
        cuts = [0] + [i + 1 for i in range(k - 1) if (mask >> i) & 1] + [k]
        sse = 0.0
        prev = -np.inf
        ok = True
        for a, b in zip(cuts[:-1], cuts[1:]):
            c = float(np.dot(wg[a:b], yg[a:b]) / np.sum(wg[a:b]))
            if c < prev - 1e-12:
                ok = False
                break
            prev = c
            sse += float(np.dot(wg[a:b], (yg[a:b] - c) ** 2))
        if ok:
            best = min(best, sse + within)
    return best


def fit_sse(cal, scores, outcomes, weights=None):
    w = np.ones_like(np.asarray(outcomes, float)) if weights is None else np.asarray(weights, float)
    resid = np.asarray(outcomes, float) - predict(cal, scores)
    return float(np.dot(w, resid**2))


def platt_grid_oracle(t, y, half_width=40.0, levels=6, grid=41, ridge=0.0):
    """Grid refinement for the (penalized) two-parameter logistic loss."""
    t = np.asarray(t, float)
    y = np.asarray(y, float)

    def objective(aa, bb):
        eta = aa[:, None, None] * t[None, None, :] + bb[None, :, None]
        val = np.sum(np.logaddexp(0.0, eta) - y[None, None, :] * eta, axis=2)
        if ridge:
            val = val + 0.5 * ridge * (aa[:, None] ** 2 + bb[None, :] ** 2)
        return val

    a_lo, a_hi = -half_width, half_width
    b_lo, b_hi = -half_width, half_width
    for _ in range(levels):
        aa = np.linspace(a_lo, a_hi, grid)
        bb = np.linspace(b_lo, b_hi, grid)
        vals = objective(aa, bb)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        da = aa[1] - aa[0]
        db = bb[1] - bb[0]
        a_lo, a_hi = aa[i] - da, aa[i] + da
        b_lo, b_hi = bb[j] - db, bb[j] + db
    return aa[i], bb[j]


# --- isotonic -----------------------------------------------------------------

def test_isotonic_already_monotone():
    cal = fit_isotonic([1.0, 2.0], [0.0, 1.0])
    assert np.array_equal(cal.boundaries, [1.0, 2.0])
    assert np.array_equal(cal.values, [0.0, 1.0])


def test_isotonic_single_violating_pair():
    cal = fit_isotonic([1.0, 2.0], [1.0, 0.0])
    assert np.array_equal(cal.values, [0.5])


def test_isotonic_three_point_case():
    # brute force over monotone step fits gives the constant 2
    assert iso_oracle_sse([1, 2, 3], [3, 1, 2]) == pytest.approx(2.0, abs=1e-12)
    cal = fit_isotonic([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    assert np.array_equal(predict(cal, [1.0, 2.0, 3.0]), [2.0, 2.0, 2.0])


def test_isotonic_matches_exhaustive_oracle():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        s = rng.normal(size=n)
        if rng.random() < 0.25 and n >= 3:
            s[1] = s[0]  # exercise tie pooling
        y = rng.normal(size=n)
        # integer weights as repeated rows, which the tie pooling turns back into weights
        w = rng.integers(1, 4, size=n) if rng.random() < 0.5 else None
        cal = fit_isotonic(s, y) if w is None else fit_isotonic(np.repeat(s, w), np.repeat(y, w))
        assert fit_sse(cal, s, y, w) == pytest.approx(iso_oracle_sse(s, y, w), abs=1e-10)


def test_isotonic_ties_share_fitted_value():
    cal = fit_isotonic([1.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    pred = predict(cal, [1.0, 2.0])
    assert pred[0] == pytest.approx(0.5)
    assert pred[1] == pytest.approx(1.0)


def test_isotonic_training_predictions_match_fit():
    rng = np.random.default_rng(11)
    s = rng.normal(size=60)
    y = s + rng.normal(scale=2.0, size=60)
    cal = fit_isotonic(s, y)
    pred = predict(cal, s)
    # residuals orthogonal to any function of the fitted values
    for h in (lambda v: np.ones_like(v), lambda v: v, lambda v: v**2):
        assert float(np.sum(h(pred) * (y - pred))) == pytest.approx(0.0, abs=1e-9)
    # random step function of the fitted values
    cuts = np.quantile(pred, [0.3, 0.7])
    hstep = np.searchsorted(cuts, pred).astype(float)
    assert float(np.sum(hstep * (y - pred))) == pytest.approx(0.0, abs=1e-9)
    # heavily tied scores: monotone in the score, residuals orthogonal to
    # functions of the fitted values
    for _ in range(50):
        n = int(rng.integers(1, 200))
        s = rng.integers(0, max(1, n // 3), size=n).astype(float)
        y = rng.normal(size=n)
        pred = predict(fit_isotonic(s, y), s)
        order = np.argsort(s, kind="stable")
        assert np.all(np.diff(pred[order]) >= 0.0)
        for h in (lambda v: np.ones_like(v), lambda v: v):
            assert float(np.sum(h(pred) * (y - pred))) == pytest.approx(0.0, abs=1e-9)


def test_isotonic_calibeating():
    rng = np.random.default_rng(12)
    s = rng.uniform(-2, 2, size=80)
    y = np.tanh(s) + rng.normal(scale=0.5, size=80)
    cal = fit_isotonic(s, y)
    mse_iso = np.mean((y - predict(cal, s)) ** 2)
    assert mse_iso <= np.mean((y - s) ** 2) + 1e-12
    lo, hi = s.min(), s.max()
    for _ in range(25):
        knots = np.sort(rng.uniform(lo, hi, size=5))
        vals = np.sort(rng.uniform(y.min(), y.max(), size=5))
        theta = np.interp(s, knots, vals)
        assert mse_iso <= np.mean((y - theta) ** 2) + 1e-12


def test_isotonic_flat_extrapolation():
    cal = fit_isotonic([1.0, 2.0], [0.0, 1.0])
    assert predict(cal, [0.0])[0] == 0.0
    assert predict(cal, [10.0])[0] == 1.0
    # between-block scores take the left block's value
    assert predict(cal, [1.5])[0] == 0.0


def test_isotonic_weight_validation():
    with pytest.raises(DimensionError):
        fit_isotonic([1.0, 2.0], [0.0])


# --- input validation ---------------------------------------------------------

_S, _Y = [0.1, 0.4, 0.5, 0.9, 0.2], [0.0, 1.0, 1.0, 0.0, 1.0]
_X = [[0.3], [1.2], [0.7], [2.5], [0.1]]

PAIR_FITS = {
    "fit_isotonic": fit_isotonic,
    "fit_linear": fit_linear,
    "fit_platt": fit_platt,
    "fit_histogram": fit_histogram,
    "fit_venn_abers": lambda s, y: fit_venn_abers(s, y, 0.5),
    # well-formed covariates of one row per score
    "fit_linear_cov": lambda s, y: fit_linear_cov(s, y, np.square(np.arange(len(s)))[:, None]),
}

# one fault each, and the class every fit raises for it
MALFORMED_PAIRS = {
    "2-D scores": ([[v] for v in _S], _Y, DimensionError),
    "length mismatch": (_S, _Y[:4], DimensionError),
    "empty": ([], [], DataError),
    "NaN score": ([np.nan, *_S[1:]], _Y, DataError),
    "inf outcome": (_S, [*_Y[:4], np.inf], DataError),
}


@pytest.mark.parametrize("fault", MALFORMED_PAIRS)
@pytest.mark.parametrize("fit", PAIR_FITS)
def test_every_fit_refuses_a_malformed_labeled_sample(fit, fault):
    s, y, error = MALFORMED_PAIRS[fault]
    with pytest.raises(SsmeanError) as exc:
        PAIR_FITS[fit](s, y)
    assert type(exc.value) is error


@pytest.mark.parametrize("fit", ["fit_isotonic", "fit_linear", "fit_histogram"])
def test_a_fit_that_overflows_float64_is_refused_with_no_numpy_warning(fit):
    # every outcome is finite, but the sums the fits take overflow; the suite turns a RuntimeWarning into an error
    with pytest.raises(DataError):
        PAIR_FITS[fit]([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1e308, -1.7e308, 1.5e308, -1e308, 1.7e308, 1.2e308])


@pytest.mark.parametrize(
    "covariates, error", [(_X[:4], DimensionError), ([*_X[:4], [np.nan]], DataError), (None, DimensionError)]
)
def test_fit_linear_cov_refuses_malformed_covariates(covariates, error):
    assert fit_linear_cov(_S, _Y, _X).cov_coefs
    with pytest.raises(SsmeanError) as exc:
        fit_linear_cov(_S, _Y, covariates)
    assert type(exc.value) is error


# --- linear -------------------------------------------------------------------

def test_linear_two_points():
    cal = fit_linear([0.0, 1.0], [1.0, 3.0])
    assert cal.slope == pytest.approx(2.0, abs=1e-14)
    assert cal.intercept == pytest.approx(1.0, abs=1e-14)


def test_linear_zero_variance_score():
    cal = fit_linear([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    assert cal.slope == 0.0
    assert cal.intercept == pytest.approx(2.0)


def test_linear_identity():
    cal = fit_linear([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert cal.slope == pytest.approx(1.0)
    assert cal.intercept == pytest.approx(0.0, abs=1e-15)


def test_linear_needs_two_points():
    with pytest.raises(DataError):
        fit_linear([1.0], [1.0])


def test_linear_normal_equations():
    rng = np.random.default_rng(13)
    for _ in range(30):
        s = rng.normal(size=40)
        y = 2.0 * s + rng.normal(size=40)
        cal = fit_linear(s, y)
        pred = predict(cal, s)
        scale = max(1.0, float(np.mean(np.abs(y))))
        assert float(np.mean(y - pred)) == pytest.approx(0.0, abs=1e-9 * scale)
        assert float(np.mean(pred * (y - pred))) == pytest.approx(0.0, abs=1e-9 * scale)


def test_linear_clip_range_set_from_outcomes():
    cal = fit_linear([0.0, 1.0], [1.0, 3.0], clip=True)
    assert cal.clip_range == (1.0, 3.0)
    assert np.array_equal(predict(cal, [-5.0, 5.0]), [1.0, 3.0])


def test_monotone_in_slope():
    rng = np.random.default_rng(14)
    s = rng.normal(size=25)
    cal = AffineCalibrator(slope=1.7, intercept=-0.3)
    pred = predict(cal, s)
    assert np.array_equal(np.argsort(pred), np.argsort(s))


def test_affine_evaluation_and_clip():
    cal = AffineCalibrator(slope=2.0, intercept=1.0)
    assert np.array_equal(predict(cal, [0.0, 0.5]), [1.0, 2.0])
    clipped = AffineCalibrator(slope=2.0, intercept=1.0, clip_range=(1.0, 1.5))
    assert np.array_equal(predict(clipped, [0.0, 0.5]), [1.0, 1.5])


# --- Platt --------------------------------------------------------------------

def test_platt_degenerate_labels_returns():
    cal = fit_platt([0.2, 0.5, 0.8], [1.0, 1.0, 1.0])
    pred = predict(cal, np.linspace(0.01, 0.99, 9))
    assert np.all((pred > 0) & (pred < 1))


def test_platt_matches_grid_oracle_on_separable_data():
    # perfectly separated labels: the solver takes the ridge path, so the
    # oracle searches the penalized loss (the stock [-10, 10] box is too
    # small to contain the penalized optimum for this data)
    s = np.tile([0.3, 0.7, 0.3, 0.7], 25)
    y = np.tile([0.0, 1.0, 0.0, 1.0], 25)
    cal = fit_platt(s, y)
    t = _stabilized_logit(s, cal.logit_eps)
    a_star, b_star = platt_grid_oracle(t, y, ridge=1e-8)
    assert cal.scale == pytest.approx(a_star, abs=1e-3)
    assert cal.shift == pytest.approx(b_star, abs=1e-3)


def test_platt_matches_grid_oracle_on_mixed_data():
    rng = np.random.default_rng(15)
    s = rng.uniform(0.05, 0.95, size=60)
    y = (rng.random(60) < s).astype(float)
    cal = fit_platt(s, y)
    t = _stabilized_logit(s, cal.logit_eps)
    a_star, b_star = platt_grid_oracle(t, y, half_width=10.0)
    assert cal.scale == pytest.approx(a_star, abs=1e-3)
    assert cal.shift == pytest.approx(b_star, abs=1e-3)


def test_platt_recovers_exact_fraction_construction():
    from scipy.special import expit, logit

    a_true, b_true = 2.0, -1.0
    probs = np.array([0.2, 0.4, 0.6, 0.8])
    scores = expit((logit(probs) - b_true) / a_true)
    s = np.repeat(scores, 5)
    y = np.concatenate([np.r_[np.ones(int(round(p * 5))), np.zeros(5 - int(round(p * 5)))] for p in probs])
    cal = fit_platt(s, y)
    assert cal.scale == pytest.approx(a_true, abs=1e-6)
    assert cal.shift == pytest.approx(b_true, abs=1e-6)


def test_platt_objective_nonincreasing():
    rng = np.random.default_rng(16)
    s = rng.uniform(0.05, 0.95, size=50)
    y = (rng.random(50) < s).astype(float)
    t = _stabilized_logit(s, 1e-6)
    _, path, _ = _platt_newton(t, y, ridge_active=False)
    assert all(b <= a + 1e-12 for a, b in zip(path[:-1], path[1:]))


def test_platt_records_ridge_flag():
    separable = fit_platt([0.2, 0.3, 0.7, 0.8], [0.0, 0.0, 1.0, 1.0])
    overlapping = fit_platt([0.2, 0.3, 0.7, 0.8], [0.0, 1.0, 0.0, 1.0])
    assert separable.ridge_active is True
    assert overlapping.ridge_active is False
    d = design_from_arrays([0.2, 0.3, 0.7, 0.8], [0.0, 0.0, 1.0, 1.0], [0.5])
    assert estimate(d, "platt-cal").diagnostics["ridge_active"] is True


def test_platt_converges_at_the_float_floor_of_the_loss():
    # Newton reaches the optimum while the gradient is still above the
    # absolute tolerance; further steps leave the loss unchanged in float64
    d = draw_dataset(DgpSpec(n=1200, ratio=16, seed=1093364357))
    s, y = d.labeled.scores, d.labeled.outcomes
    cal = fit_platt(s, y)
    t = _stabilized_logit(s, cal.logit_eps)
    a_star, b_star = platt_grid_oracle(t, y, half_width=10.0)
    assert cal.ridge_active is False
    assert cal.scale == pytest.approx(a_star, abs=1e-3)
    assert cal.shift == pytest.approx(b_star, abs=1e-3)


def test_platt_rejects_nonbinary():
    with pytest.raises(DataError):
        fit_platt([0.2, 0.8], [0.0, 0.5])


def test_platt_predictions_strictly_inside_unit_interval():
    cal = fit_platt([0.1, 0.9, 0.2, 0.8], [0.0, 1.0, 0.0, 1.0])
    pred = predict(cal, [0.0, 1.0, 0.5])
    assert np.all((pred > 0.0) & (pred < 1.0))


# --- histogram ----------------------------------------------------------------

def test_histogram_bin_means():
    cal = fit_histogram([0.2, 0.3, 0.7], [0.0, 1.0, 1.0], edges=[0.0, 0.5, 1.0])
    assert np.array_equal(cal.bin_means, [0.5, 1.0])
    assert cal.empty_bins == 0


def test_histogram_empty_bin_uses_global_mean():
    cal = fit_histogram([0.1, 0.2], [0.0, 1.0], edges=[0.0, 0.5, 1.0])
    assert cal.bin_means[1] == pytest.approx(0.5)
    assert cal.empty_bins == 1
    assert predict(cal, [0.9])[0] == pytest.approx(0.5)


def test_histogram_single_datum_per_bin_is_identity():
    cal = fit_histogram([0.25, 0.75], [3.0, 7.0], edges=[0.0, 0.5, 1.0])
    assert np.array_equal(predict(cal, [0.25, 0.75]), [3.0, 7.0])


def test_histogram_unsorted_edges_rejected():
    # a hand-built map with a decreasing edge gave a counted unlabeled mean unlike its values per score
    malformed = ([1.0, 0.0], [0.0, 0.7, 0.3, 1.0], [0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [0.5], [0.0, 0.0, 1.0])
    for edges in malformed:
        with pytest.raises(ConfigError, match="^edges must be a finite, strictly increasing vector"):
            fit_histogram([0.5], [1.0], edges=edges)
        with pytest.raises(ConfigError, match="^edges must be a finite, strictly increasing vector"):
            BinnedCalibrator(edges, np.full(max(len(edges) - 1, 0), 0.5), 0.5)


@pytest.mark.parametrize(
    "scores",
    [[1.0, np.nextafter(1.0, 2.0)], [-1e308, 1e308], [3e17, 3e17], [np.finfo(float).max] * 2, [0.5, 0.5]],
    ids=["adjacent-floats", "overflowing-width", "equal-beyond-2**53", "equal-at-float-max", "equal"],
)
def test_histogram_default_edges_hold_for_any_finite_scores(scores):
    s = np.array(scores * 2)
    y = np.array([0.0, 1.0, 1.0, 0.0])
    cal = fit_histogram(s, y)
    assert np.isfinite(cal.edges).all() and (cal.edges[1:] > cal.edges[:-1]).all()
    assert cal.edges[0] <= s.min() and s.max() <= cal.edges[-1]
    rep = estimate(design_from_arrays(s, y, s[:3]), "hist-cal")
    assert rep.estimate == pytest.approx(float(np.mean(predict(cal, s[:3]))) * 3 / 7 + 0.5 * 4 / 7)


@pytest.mark.parametrize("boundaries", [[0.0, 0.8, 0.5], [0.0, np.nan, 1.0], [np.nan], [], [[0.0, 1.0]]])
def test_step_calibrator_refuses_nan_or_decreasing_boundaries(boundaries):
    with pytest.raises(ConfigError, match="^boundaries must be a nonempty nondecreasing vector with no NaN$"):
        StepCalibrator(boundaries, np.zeros(np.shape(boundaries)))


def test_step_calibrator_accepts_a_leading_minus_inf_and_equal_boundaries():
    f = StepCalibrator([-np.inf, 0.2, 0.2, 0.5], [0.0, 1.0, 2.0, 3.0])
    # the tied boundaries leave block 1 empty
    assert predict(f, [-1e300, 0.1, 0.2, 0.3, 0.5, 9.0]).tolist() == [0.0, 0.0, 2.0, 2.0, 3.0, 3.0]


def test_histogram_out_of_range_clamps_to_end_bins():
    cal = fit_histogram([0.25, 0.75], [1.0, 2.0], edges=[0.0, 0.5, 1.0])
    assert predict(cal, [-4.0])[0] == 1.0
    assert predict(cal, [4.0])[0] == 2.0


def test_histogram_default_edges():
    rng = np.random.default_rng(17)
    s = rng.uniform(size=50)
    cal = fit_histogram(s, rng.normal(size=50))
    assert len(cal.edges) == 11
    assert cal.edges[0] == s.min() and cal.edges[-1] == s.max()


# --- covariate-adjusted linear --------------------------------------------------

def test_linear_cov_reduces_to_linear_when_no_covariates():
    rng = np.random.default_rng(18)
    s = rng.normal(size=12)
    y = 1.5 * s + rng.normal(size=12)
    plain = fit_linear(s, y)
    cov = fit_linear_cov(s, y, np.empty((12, 0)))
    assert cov.slope == pytest.approx(plain.slope, abs=1e-10)
    assert cov.intercept == pytest.approx(plain.intercept, abs=1e-10)


def test_linear_cov_perfect_predictor():
    rng = np.random.default_rng(19)
    s = rng.normal(size=10)
    y = rng.normal(size=10)
    cal = fit_linear_cov(s, y, y.reshape(-1, 1))
    pred = predict(cal, s, y.reshape(-1, 1))
    assert np.allclose(pred, y, atol=1e-10)


def test_linear_cov_matches_normal_equation_oracle():
    rng = np.random.default_rng(20)
    n, d = 30, 3
    x = rng.normal(size=(n, d))
    s = rng.normal(size=n)
    y = x @ [1.0, -2.0, 0.5] + 0.7 * s + rng.normal(size=n)
    cal = fit_linear_cov(s, y, x)
    design = np.column_stack([np.ones(n), x, s])
    beta = np.linalg.inv(design.T @ design) @ design.T @ y
    assert cal.intercept == pytest.approx(beta[0], abs=1e-10)
    assert np.allclose(cal.cov_coefs, beta[1:4], atol=1e-10)
    assert cal.slope == pytest.approx(beta[4], abs=1e-10)
    assert float(np.mean(y - predict(cal, s, x))) == pytest.approx(0.0, abs=1e-10)


def test_linear_cov_rank_deficiency():
    rng = np.random.default_rng(21)
    s = rng.normal(size=10)
    x = np.column_stack([s, s])  # collinear with the score and each other
    with pytest.raises(DataError, match="collinear"):
        fit_linear_cov(s, rng.normal(size=10), x)


def test_linear_cov_needs_enough_points():
    with pytest.raises(DataError):
        fit_linear_cov([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], np.ones((3, 1)))


@pytest.mark.parametrize("d", [1, 2])
def test_linear_cov_map_evaluates_in_its_fixed_order(d):
    rng = np.random.default_rng(22)
    s, x = rng.normal(size=40), rng.normal(size=(40, d))
    cal = fit_linear_cov(s, x @ rng.normal(size=d) + 0.6 * s + rng.normal(size=40), x)
    assert isinstance(cal, AffineCalibrator) and len(cal.cov_coefs) == d
    want = (cal.intercept + x @ np.array(cal.cov_coefs)) + cal.slope * s
    assert np.array_equal(predict(cal, s, x), want)
    with pytest.raises(DimensionError, match="needs covariates"):
        predict(cal, s)


def test_affine_maps_compare_and_hash_by_value():
    assert AffineCalibrator(1.0, 0.0) == AffineCalibrator(1.0, 0.0)
    assert hash(AffineCalibrator(1.0, 0.0)) == hash(AffineCalibrator(1.0, 0.0))
    with_cov = AffineCalibrator(1.0, 0.0, None, None, np.array([0.5, -2.0]))
    assert with_cov.cov_coefs == (0.5, -2.0)
    assert with_cov == AffineCalibrator(1.0, 0.0, cov_coefs=[0.5, -2.0])
    assert hash(with_cov) == hash(AffineCalibrator(1.0, 0.0, cov_coefs=(0.5, -2.0)))
    assert with_cov != AffineCalibrator(1.0, 0.0, cov_coefs=(0.5, -1.0))
    assert with_cov != AffineCalibrator(1.0, 0.0)


@pytest.mark.parametrize("coefs", [(np.nan,), (0.0, np.inf)])
def test_affine_calibrator_refuses_non_finite_covariate_coefficients(coefs):
    with pytest.raises(DataError, match="coefficients must be finite"):
        AffineCalibrator(1.0, 0.0, cov_coefs=coefs)


@pytest.mark.parametrize("clip", [(np.nan, 1.0), (0.0, np.nan), (1.0, 0.0)])
def test_affine_calibrator_refuses_a_nan_or_reversed_clip_range(clip):
    with pytest.raises(ConfigError, match="invalid clip range"):
        AffineCalibrator(1.0, 0.0, clip)


@pytest.mark.parametrize("clip", [(0.0,), (0, 1, 2), 1.0, "01", (0.0, "1"), (None, 1.0)])
def test_affine_calibrator_refuses_a_clip_range_that_is_not_two_numbers(clip):
    with pytest.raises(ConfigError, match="^invalid clip range "):
        AffineCalibrator(1.0, 0.0, clip)


@pytest.mark.parametrize("clip", [[0, 1], (0, 1), np.array([0.0, 1.0]), (np.float32(0.0), np.int64(1))])
def test_affine_clip_range_is_kept_as_a_tuple_of_two_floats(clip):
    f = AffineCalibrator(1.0, 0.0, clip)
    assert f.clip_range == (0.0, 1.0) and [type(b) for b in f.clip_range] == [float, float]
    assert f == AffineCalibrator(1.0, 0.0, (0.0, 1.0))
    assert hash(f) == hash(AffineCalibrator(1.0, 0.0, (0.0, 1.0)))


def test_step_maps_compare_and_hash_by_value():
    s, y = [0.0, 0.5, 0.5, 1.0, 0.25], [0.0, 1.0, 0.0, 1.0, 1.0]
    for fit in (fit_isotonic, fit_histogram, lambda s, y: fit_venn_abers(s, y, 0.5)):
        a, b = fit(s, y), fit(s, y)
        assert a == b and hash(a) == hash(b)
        # fitted_on is left out
        assert a == replace(a, fitted_on=None) and hash(a) == hash(replace(a, fitted_on=None))
        assert len({a, b}) == 1
    assert StepCalibrator([0, 1], [0, 1]) == StepCalibrator([0.0, 1.0], [0.0, 1.0])
    assert StepCalibrator([0.0, 1.0], [0.0, 1.0]) != StepCalibrator([0.0, 1.0], [0.0, 2.0])
    assert StepCalibrator([0.0, 1.0], [0.0, 1.0]) != StepCalibrator([0.0, 2.0], [0.0, 1.0])
    binned = BinnedCalibrator([0.0, 1.0], [0.5], 0.5)
    assert binned == BinnedCalibrator([0, 1], [0.5], 0.5) and hash(binned) == hash(BinnedCalibrator([0, 1], [0.5], 0.5))
    assert binned != BinnedCalibrator([0.0, 1.0], [0.5], 0.5, empty_bins=1)
    assert binned != BinnedCalibrator([0.0, 1.0], [0.5], 0.25)
    # the same numbers in another class are another map
    assert StepCalibrator([0.0, 1.0], [0.5, 0.5]) != BinnedCalibrator([0.0, 1.0], [0.5], 0.5)


def test_a_calibrators_one_map_stack_is_no_field():
    for f in (fit_isotonic([0.0, 1.0], [0.0, 1.0]), fit_histogram([0.0, 1.0], [0.0, 1.0]),
              fit_linear([0.0, 1.0], [0.0, 1.0], clip=True), fit_platt([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])):
        assert "_stack" not in {g.name for g in fields(f)} and "_stack" not in asdict(f)
        assert "_stack" not in repr(f)


# --- evaluation: every calibrator against a per-score formula -----------------
# A calibrator evaluates its one-map stack, the code estimate() evaluates its
# maps with; these formulas, one score at a time, are the reference for both.

def per_score(f, t, x=None) -> np.ndarray:
    """f at each score of t (and covariate row of x), one score at a time."""
    from scipy.special import expit

    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if isinstance(f, StepCalibrator):
        out = [f.values[max(np.searchsorted(f.boundaries, v, "right") - 1, 0)] for v in t]
    elif isinstance(f, BinnedCalibrator):
        # a score's bin is the count of inner edges at or below it
        out = [f.bin_means[np.searchsorted(f.edges[1:-1], v, "right")] for v in t]
    elif isinstance(f, AffineCalibrator):
        shift = f.intercept + x @ np.array(f.cov_coefs) if f.cov_coefs else np.full(len(t), f.intercept)
        lo, hi = f.clip_range or (-np.inf, np.inf)
        out = [np.clip(f.slope * v + shift[i], lo, hi) for i, v in enumerate(t)]
    else:
        tiny, below_one = np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0)
        out = []
        for v in t:
            m = np.clip(v, f.logit_eps, 1.0 - f.logit_eps)
            out.append(np.clip(expit(f.scale * (np.log(m) - np.log1p(-m)) + f.shift), tiny, below_one))
    return np.array(out, dtype=np.float64).reshape(len(t))


finite = st.floats(-4.0, 4.0)


@st.composite
def calibrators_and_scores(draw):
    """A public fit or a hand-built map of any class, scores to evaluate it at and their covariate rows."""
    n = draw(st.integers(2, 24))
    s = np.array(draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))) / 16.0
    y01 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    y = y01 if draw(st.booleans()) else np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    d = draw(st.integers(1, 2))
    x = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d)), dtype=float).reshape(n, d)
    kind = draw(st.sampled_from(["isotonic", "venn-abers", "histogram", "histogram-edges", "linear", "linear-cov",
                                 "platt", "step", "binned", "affine", "sigmoid"]))
    clip = draw(st.booleans())
    fits = {
        "isotonic": lambda: fit_isotonic(s, y),
        "venn-abers": lambda: fit_venn_abers(s, y01, draw(finite)),
        "histogram": lambda: fit_histogram(s, y),
        "histogram-edges": lambda: fit_histogram(s, y, np.linspace(-0.25, 1.25, draw(st.integers(2, 21)))),
        "linear": lambda: fit_linear(s, y, clip),
        "linear-cov": lambda: fit_linear_cov(s, y, x, clip),
        "platt": lambda: fit_platt(s, y01),
    }
    if kind not in fits:
        f = draw(hand_built(kind))
    else:
        try:
            f = fits[kind]()
        except (ConvergenceError, DataError):  # Platt without an optimum; too few or collinear rows
            assume(False)
    t = np.array(draw(st.lists(st.one_of(st.sampled_from(s.tolist()), st.floats(-2.0, 2.0)), max_size=30)))
    width = len(f.cov_coefs) if isinstance(f, AffineCalibrator) else 0
    x_t = None
    if width:
        x_t = np.array(draw(st.lists(st.integers(-3, 3), min_size=len(t) * width, max_size=len(t) * width)))
        x_t = x_t.reshape(len(t), width).astype(float)
    return f, t, x_t


@st.composite
def hand_built(draw, kind):
    if kind == "step":
        b = sorted(draw(st.lists(finite, min_size=1, max_size=8)))
        if draw(st.booleans()):
            b[0] = -np.inf
        return StepCalibrator(b, draw(st.lists(finite, min_size=len(b), max_size=len(b))))
    if kind == "binned":
        edges = sorted(draw(st.sets(finite, min_size=2, max_size=8)))
        return BinnedCalibrator(edges, draw(st.lists(finite, min_size=len(edges) - 1, max_size=len(edges) - 1)), 0.0)
    if kind == "affine":
        clip = tuple(sorted(draw(st.lists(finite, min_size=2, max_size=2)))) if draw(st.booleans()) else None
        return AffineCalibrator(draw(finite), draw(finite), clip, cov_coefs=draw(st.lists(finite, max_size=2)))
    return SigmoidCalibrator(draw(finite), draw(finite), draw(st.sampled_from([1e-6, 1e-3, 0.25])))


@settings(max_examples=300)
@given(calibrators_and_scores())
def test_predict_is_the_per_score_formula_bit_for_bit(case):
    f, t, x = case
    assert predict(f, t, x).tobytes() == per_score(f, t, x).tobytes()
    if x is None:
        # a 0-d score gives a 0-d value
        for v in t[:3]:
            one = predict(f, v)
            assert np.ndim(one) == 0 and np.asarray(one).tobytes() == per_score(f, v).tobytes()


def test_every_class_evaluates_a_0d_score():
    assert predict(StepCalibrator([0.0, 1.0], [0.0, 1.0]), 0.5) == 0.0
    assert StepCalibrator([0.0, 1.0], [0.0, 1.0])(np.float64(1.0)) == 1.0
    assert BinnedCalibrator([0.0, 0.5, 1.0], [0.25, 0.75], 0.5)(0.75) == 0.75
    assert AffineCalibrator(2.0, 1.0)(0.5) == 2.0
    assert SigmoidCalibrator(1.0, 0.0)(0.5) == 0.5


# --- Venn-Abers ---------------------------------------------------------------

def va_oracle(scores, outcomes, t, target):
    """Literal recomputation: two augmented isotonic fits and the shrinkage map."""
    s_aug = np.append(np.asarray(scores, float), t)
    f0 = predict(fit_isotonic(s_aug, np.append(outcomes, 0.0)), [t])[0]
    f1 = predict(fit_isotonic(s_aug, np.append(outcomes, 1.0)), [t])[0]
    mid = 0.5 * (f0 + f1)
    return f0, f1, mid + (f1 - f0) * (target - mid)


def test_venn_abers_small_case_matches_literal_recomputation():
    s = [0.1, 0.4, 0.6, 0.9]
    y = [0.0, 1.0, 0.0, 1.0]
    evals = [0.05, 0.3, 0.5, 0.7, 0.95]
    target = 0.4
    got = fit_venn_abers(s, y, target)(evals)
    for i, t in enumerate(evals):
        _, _, want = va_oracle(s, y, t, target)
        assert got[i] == pytest.approx(want, abs=1e-12)


def test_venn_abers_containment():
    rng = np.random.default_rng(22)
    s = rng.uniform(size=12)
    y = (rng.random(12) < s).astype(float)
    for t in rng.uniform(size=6):
        f0, f1, _ = va_oracle(s, y, t, 0.0)
        target = rng.uniform(f0, f1) if f1 > f0 else f0
        out = fit_venn_abers(s, y, target)([t])[0]
        assert f0 - 1e-12 <= out <= f1 + 1e-12


def test_venn_abers_degenerate_single_point():
    y0 = 0.6
    out = fit_venn_abers([0.5], [y0], 0.3)([0.5])[0]
    f0, f1 = y0 / 2.0, (y0 + 1.0) / 2.0
    assert f0 - 1e-12 <= out <= f1 + 1e-12


def test_venn_abers_zero_width_formula_degenerates():
    # f0 == f1 == v collapses the shrinkage map to v regardless of the target
    f0 = f1 = 0.37
    for target in (-3.0, 0.0, 0.5, 9.0):
        mid = 0.5 * (f0 + f1)
        assert mid + (f1 - f0) * (target - mid) == 0.37


def test_venn_abers_requires_unit_interval_outcomes():
    with pytest.raises(DataError):
        fit_venn_abers([0.1, 0.9], [0.0, 1.5], 0.5)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf, None])
def test_venn_abers_refuses_a_shrink_target_that_is_not_finite(target):
    with pytest.raises(ConfigError, match="^shrink_target must be a finite real number"):
        fit_venn_abers([0.1, 0.2, 0.3], [0.0, 1.0, 1.0], target)


def test_venn_abers_order_independent():
    rng = np.random.default_rng(23)
    s = rng.uniform(size=10)
    y = (rng.random(10) < 0.5).astype(float)
    evals = rng.uniform(size=5)
    a = fit_venn_abers(s, y, 0.5)(evals)
    b = fit_venn_abers(s, y, 0.5)(evals[::-1])[::-1]
    assert np.array_equal(a, b)


def test_venn_abers_empty_evaluation_returns_empty():
    out = fit_venn_abers([0.1, 0.4, 0.4], [0.0, 1.0, 0.5], 0.5)([])
    assert out.shape == (0,)


@st.composite
def tie_heavy_samples(draw):
    """Labeled scores on a small grid, some moved up one float so that
    adjacent floats occur, outcomes in [0, 1], and evaluation points tied
    with labeled scores, one float above them, between them, below, above,
    repeated."""
    grid = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    s = np.array(draw(st.lists(st.integers(0, grid), min_size=n, max_size=n))) / grid
    if draw(st.booleans()):
        # some scores move up one float, next to the ties left in place
        bumped = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        s = np.where(bumped, np.nextafter(s, np.inf), s)
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    else:
        y = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    pool = np.concatenate([s, np.nextafter(s, np.inf), s + 0.5 / grid, s - 0.5 / grid, [s.min() - 1.0, s.max() + 1.0]])
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    return s, y, pool[picks]


@given(tie_heavy_samples(), st.floats(-0.5, 1.5), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_venn_abers_sweep_matches_per_point_refits(sample, target, random):
    s, y, evals = sample
    got = fit_venn_abers(s, y, target)(evals)
    for t, out in zip(evals, got):
        f0, f1, want = va_oracle(s, y, t, target)
        assert out == pytest.approx(want, abs=1e-12)
        if f0 <= target <= f1:
            assert f0 - 1e-12 <= out <= f1 + 1e-12
    order = list(range(len(evals)))
    random.shuffle(order)
    assert np.array_equal(fit_venn_abers(s, y, target)(evals[order]), got[order])


@st.composite
def rising_samples(draw):
    """Distinct continuous scores with outcomes that rise with them: noiseless,
    noisy or binary. Such a diagram has long hull chains, so each stack pass
    pops several vertices at a step and often keeps its bridge for a run of
    steps."""
    n = draw(st.integers(1, 60))
    s = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n, unique=True)))
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["noiseless", "noisy", "binary"]))
    if kind == "noiseless":
        y = s**2
    elif kind == "noisy":
        y = np.clip(s + 0.4 * (u - 0.5), 0.0, 1.0)
    else:
        y = (u < s).astype(float)
    return s, y


@given(rising_samples(), st.floats(-0.5, 1.5))
@settings(max_examples=100)
def test_venn_abers_on_long_hull_chains_matches_per_point_refits(sample, target):
    s, y = sample
    # every class: each labeled score, each gap between two, below and above all
    evals = np.concatenate((s, 0.5 * (s[1:] + s[:-1]), [s[0] - 1.0, s[-1] + 1.0]))
    got = fit_venn_abers(s, y, target)(evals)
    for t, out in zip(evals, got):
        assert out == pytest.approx(va_oracle(s, y, t, target)[2], abs=1e-12)


def test_venn_abers_keeps_full_precision_at_large_n():
    # n = 20000 continuous scores: the differences of prefix sums near 1e4
    # keep their digits only as compensated (hi, lo) pairs, and so do the
    # label-0 slopes only when they are not read from C - x
    n = 20000
    rng = np.random.default_rng(7)
    s = rng.random(n)
    u = np.sort(s)
    ranks = (np.array([0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999]) * n).astype(int)
    evals = np.concatenate((u[ranks[::2]], 0.5 * (u[ranks[1::2]] + u[ranks[1::2] + 1])))
    for y in (rng.random(n), s):
        got = fit_venn_abers(s, y, 0.3)(evals)
        for t, out in zip(evals, got):
            assert abs(out - va_oracle(s, y, t, 0.3)[2]) <= 2e-15


@settings(max_examples=100)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-300, 1e300]))
def test_one_segment_mean_is_the_arrays_mean_bit_for_bit(n, seed, scale):
    # one segment takes one reduction, with no _by_segment pass; sums that overflow give the same inf
    values = np.random.default_rng(seed).normal(size=n) * scale
    with np.errstate(over="ignore"):
        assert _segment_means(values, np.array([0, n])).tobytes() == np.array([values.mean()]).tobytes()


@settings(max_examples=60)
@given(st.integers(2, 400), st.integers(0, 2**32 - 1), st.booleans())
def test_a_one_set_eem_fit_equals_each_set_of_a_two_set_call(n, seed, clip):
    # the k = 1 fit of ppi-pp (clip) and aipw-em takes _segment_means' one-segment
    # path, a two-set call its _by_segment pass; the facts and coefficients agree
    rng = np.random.default_rng(seed)
    d = design_from_arrays(rng.uniform(size=n), rng.normal(size=n), rng.uniform(size=3 * n))
    s, y, rank = d.labeled.by_score
    context = _Context(d.labeled, d.unlabeled)
    one = _eem_folds(s, y, rank, np.array([0, n]), context, clip=clip)
    two = _eem_folds(s, y, np.concatenate([rank, rank]), np.array([0, n, 2 * n]), context, clip=clip)
    assert repr(one.facts) == repr(two.facts[:1]) == repr(two.facts[1:])
    assert one.slope.tobytes() == two.slope[:1].tobytes() == two.slope[1:].tobytes()


def _training_sets(rng, n: int) -> list:
    """Three training sets of rows 0..n-1, as a fit core may be given them.

    The rows outside a fold in row order, a drawn permutation of about
    three quarters of the rows, and n draws with repeats (a bootstrap
    replicate's rows, in draw order).
    """
    fold = rng.integers(0, 5, size=n)
    return [np.flatnonzero(fold != 0), rng.permutation(np.flatnonzero(fold != 1)), rng.integers(0, n, size=n)]


def _iso_oracle(scores, outcomes):
    """The distinct scores and each one's isotonic value: outcome sums over the rows as given, then SciPy's PAVA."""
    from scipy.optimize import isotonic_regression

    distinct, group = np.unique(scores, return_inverse=True)
    counts = np.bincount(group)
    return distinct, isotonic_regression(np.bincount(group, outcomes) / counts, weights=counts).x


@settings(max_examples=60)
@given(st.integers(100, 400), st.integers(0, 2**32 - 1))
def test_isotonic_block_values_pool_each_sets_rows_as_stored_bit_for_bit(n, seed):
    # continuous outcomes on scores of one decimal, so most tie blocks hold 9
    # or more rows, where a pairwise sum would round differently: the public
    # fit, and each set of one stacked call (a fold's rows, a drawn
    # permutation, a bootstrap replicate's draws), give the oracle's block
    # values bit for bit
    rng = np.random.default_rng(seed)
    d = design_from_arrays(np.round(rng.uniform(size=n), 1), rng.normal(size=n), rng.uniform(size=n))
    lab = d.labeled
    distinct, values = _iso_oracle(lab.scores, lab.outcomes)
    assert predict(fit_isotonic(lab.scores, lab.outcomes), distinct).tobytes() == values.tobytes()
    sets = _training_sets(rng, n)
    s, y, rank = lab.by_score
    bounds = np.cumsum([0] + [len(rows) for rows in sets])
    maps = _isotonic_folds(s, y, rank[np.concatenate(sets)], bounds, _Context(lab, d.unlabeled))
    for j, rows in enumerate(sets):
        distinct, values = _iso_oracle(lab.scores[rows], lab.outcomes[rows])
        assert maps.at(j, distinct).tobytes() == values.tobytes(), j


@pytest.mark.parametrize("core", [_isotonic_folds, _venn_abers_folds])
def test_no_step_fit_core_sorts_a_training_set(core, monkeypatch):
    # the labeled sample is sorted once, into by_score and its tie groups;
    # the cores count any set of its rows into tie blocks with no sort
    rng = np.random.default_rng(29)
    n = 200
    d = design_from_arrays(np.round(rng.uniform(size=n), 1), rng.uniform(size=n), rng.uniform(size=60))
    lab = d.labeled
    s, y, rank = lab.by_score
    lab.tie_groups, d.unlabeled.score_moments
    sets = _training_sets(rng, n)
    calls = []
    for name in ("argsort", "sort"):
        real = getattr(np, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    np.sort(np.zeros(1))
    assert calls == ["sort"]  # the counters see a call
    maps = core(s, y, rank[np.concatenate(sets)], np.cumsum([0] + [len(rows) for rows in sets]), _Context(lab, d.unlabeled))
    assert calls == ["sort"] and len(maps.bounds) == 4


@pytest.mark.parametrize("name", ["iso-cal", "venn-abers"])
def test_a_set_fits_the_same_map_whichever_signed_zeros_it_holds(name):
    # 0.0 and -0.0 are one tie block, whose boundary is 0.0: a set without
    # the sample's -0.0 rows fits, bit for bit, the map of its own design
    d =design_from_arrays([-0.0, 0.0, 0.5, 0.0, -0.0, 0.5, 1.0, 0.0], [0.1, 0.4, 0.6, 0.2, 0.3, 0.9, 1.0, 0.2],
                           [0.0, 0.5, 1.0])
    s, y, rank = d.labeled.by_score
    rows = np.array([1, 2, 3, 5, 6, 7])
    method = REGISTRY[name]
    stacked = method.stacked_fit(s, y, rank[rows], np.array([0, len(rows)]), _Context(d.labeled, d.unlabeled))
    own = method.fit(TwoSampleDesign(d.labeled.take(rows), d.unlabeled)).maps
    assert stacked.boundaries.tobytes() == own.boundaries.tobytes()
    assert stacked.values.tobytes() == own.values.tobytes()
