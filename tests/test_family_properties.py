"""Property tests of the estimator family over every registry method.

Designs are drawn on a dyadic grid (scores k/16, outcomes k/4 or binary,
integer covariates), so the shifts and score transforms below are exact in
floating point and any failure is the estimator's, not rounding's.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmean import (
    METHOD_NAMES,
    AffineCalibrator,
    ConvergenceError,
    UnlabeledSample,
    design_from_arrays,
    estimate,
    fit_histogram,
    fit_isotonic,
    fit_venn_abers,
)
from ssmean.estimators import UnlabeledSummary, _unlabeled_side
from ssmean.inference import normal_quantile

SETTINGS = settings(max_examples=40)
Z = normal_quantile(0.975)

# methods whose estimate moves by c when c is added to outcomes and scores
SHIFT_EQUIVARIANT = (
    "labeled-only", "ppi", "aipw", "ppi-pp", "aipw-em", "linear-cal", "iso-cal", "hist-cal",
)


@st.composite
def designs(draw):
    n = draw(st.integers(4, 24))
    N = draw(st.integers(2, 30))
    m_l = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
    m_u = draw(st.lists(st.integers(0, 16), min_size=N, max_size=N))
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    else:
        y = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    x_l = x_u = None
    if draw(st.booleans()):
        x_l = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
        x_u = np.array(draw(st.lists(st.integers(-3, 3), min_size=N, max_size=N)), dtype=float)
    return design_from_arrays(np.array(m_l) / 16.0, y, np.array(m_u) / 16.0, x_l, x_u)


def applicable(design):
    """The registry methods whose preconditions the design meets."""
    lab = design.labeled
    methods = []
    for name in METHOD_NAMES:
        if name == "platt-cal" and not np.all((lab.outcomes == 0.0) | (lab.outcomes == 1.0)):
            continue
        if name == "linear-cov-cal":
            if lab.covariates is None:
                continue
            basis = np.column_stack([np.ones(design.n), lab.covariates, lab.scores])
            if design.n <= 3 or np.linalg.matrix_rank(basis) < basis.shape[1]:
                continue
        methods.append(name)
    return methods


def run(design, name):
    """The method's report, or None when Platt scaling does not converge."""
    try:
        return estimate(design, name)
    except ConvergenceError:
        if name == "platt-cal":
            return None
        raise


def permuted(design, perm_l, perm_u):
    lab, unl = design.labeled, design.unlabeled
    x_l = None if lab.covariates is None else lab.covariates[perm_l]
    x_u = None if unl.covariates is None else unl.covariates[perm_u]
    return design_from_arrays(lab.scores[perm_l], lab.outcomes[perm_l], unl.scores[perm_u], x_l, x_u)


def close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@SETTINGS
@given(designs())
def test_estimate_is_plugin_plus_residual_and_ci_is_wald(design):
    for name in applicable(design):
        report = run(design, name)
        if report is None:
            continue
        d = report.diagnostics
        scale = max(1.0, abs(report.estimate))
        assert abs(report.estimate - (d["plugin_estimate"] + d["residual_mean"])) <= 1e-12 * scale, name
        assert report.ci_lower == pytest.approx(report.estimate - Z * report.std_error, abs=1e-12 * scale)
        assert report.ci_upper == pytest.approx(report.estimate + Z * report.std_error, abs=1e-12 * scale)


@SETTINGS
@given(designs(), st.data())
def test_row_permutations_leave_estimate_and_se(design, data):
    perm_l = np.array(data.draw(st.permutations(range(design.n))))
    perm_u = np.array(data.draw(st.permutations(range(design.N))))
    shuffled = permuted(design, perm_l, perm_u)
    # auto-cal is left out: its folds are a seeded split of the labeled rows in their given order
    for name in applicable(design):
        if name == "auto-cal":
            continue
        a, b = run(design, name), run(shuffled, name)
        if a is None or b is None:
            continue
        assert close(a.estimate, b.estimate), name
        assert close(a.std_error, b.std_error), name


@SETTINGS
@given(designs(), st.integers(-40, 40))
def test_shift_moves_estimate_and_keeps_se(design, k):
    c = k / 8.0
    lab, unl = design.labeled, design.unlabeled
    shifted = design_from_arrays(lab.scores + c, lab.outcomes + c, unl.scores + c)
    for name in SHIFT_EQUIVARIANT:
        a, b = estimate(design, name), estimate(shifted, name)
        assert close(b.estimate, a.estimate + c), name
        assert close(b.std_error, a.std_error), name


TRANSFORMS = (
    lambda t: 4.0 * t - 3.0,
    lambda t: t**2,
    lambda t: t**3 + t,
)


@SETTINGS
@given(designs(), st.sampled_from(TRANSFORMS))
def test_isotonic_invariant_under_increasing_score_map(design, g):
    lab, unl = design.labeled, design.unlabeled
    mapped = design_from_arrays(g(lab.scores), lab.outcomes, g(unl.scores))
    a, b = estimate(design, "iso-cal"), estimate(mapped, "iso-cal")
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error


# --- counted unlabeled summaries ---------------------------------------------
# Step and unclipped affine maps are summarised on the unlabeled side from
# block counts of the sorted scores or from the scores' moments; each must
# give the mean and centered sum of squares of f evaluated per score.


def assert_matches_pointwise(f, scores):
    got = _unlabeled_side(f, UnlabeledSample(scores))
    assert isinstance(got, UnlabeledSummary)
    values = f(np.asarray(scores, dtype=float))
    mean = values.mean()
    css = np.sum((values - mean) ** 2)
    scale = np.abs(values).max()
    assert got.count == len(values)
    # relative to the mean, or to the values' scale when the mean cancels
    assert abs(got.mean - mean) <= 1e-12 * max(abs(mean), scale)
    # the floor is the rounding of a mean that all N values share
    assert abs(got.css - css) <= 1e-12 * css + len(values) * (4 * np.finfo(float).eps * scale) ** 2


@st.composite
def step_fits(draw):
    """Tie-heavy labeled pairs on the grid k/8, k in 0..12; one_block forces a single block."""
    n = draw(st.integers(1, 20))
    m_l = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))) / 8.0
    if draw(st.booleans()):
        y = -m_l
    else:
        y = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    return m_l, y


def unlabeled_around(draw, points):
    """1 to 40 scores, each a given point or a grid value below, inside or above the fitted range."""
    grid = st.integers(-8, 20).map(lambda k: k / 8.0)
    return draw(st.lists(st.one_of(st.sampled_from(sorted(set(points))), grid), min_size=1, max_size=40))


@SETTINGS
@given(step_fits(), st.data())
def test_isotonic_counted_summary_matches_pointwise(fit, data):
    f = fit_isotonic(*fit)
    assert_matches_pointwise(f, unlabeled_around(data.draw, f.boundaries))


@SETTINGS
@given(step_fits(), st.booleans(), st.data())
def test_histogram_counted_summary_matches_pointwise(fit, own_edges, data):
    edges = None
    if own_edges:
        edges = np.array(sorted(data.draw(st.sets(st.integers(-4, 16), min_size=2, max_size=8)))) / 8.0
    f = fit_histogram(*fit, edges=edges)
    assert_matches_pointwise(f, unlabeled_around(data.draw, f.edges))


@SETTINGS
@given(step_fits(), st.floats(-0.5, 1.5), st.data())
def test_venn_abers_counted_summary_matches_pointwise(fit, target, data):
    m_l, _ = fit
    n = len(m_l)
    # some scores move up one float: adjacent labeled floats give an empty block
    bumped = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    m_l = np.where(bumped, np.nextafter(m_l, np.inf), m_l)
    y = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    f = fit_venn_abers(m_l, y, target)
    cuts, _ = f.steps()
    assert_matches_pointwise(f, unlabeled_around(data.draw, cuts))


@SETTINGS
@given(
    st.integers(-64, 64).map(lambda k: k / 8.0),
    st.integers(-1000, 1000).map(lambda k: k / 4.0),
    st.sampled_from([0.0, 1.0, -1000.0, 1e6]),
    st.lists(st.integers(-64, 64), min_size=1, max_size=40),
)
def test_affine_summary_from_score_moments_matches_pointwise(slope, intercept, offset, ks):
    # slope * score + intercept is exact on this grid, so the pointwise values are exact
    assert_matches_pointwise(AffineCalibrator(slope, intercept), offset + np.array(ks) / 16.0)
