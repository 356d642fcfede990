import dataclasses

import numpy as np
import pytest

from ssmean import (
    DataError,
    DimensionError,
    EstimateReport,
    LabeledSample,
    TwoSampleDesign,
    UnlabeledSample,
    design_from_arrays,
)


def test_rho_from_sizes():
    d = design_from_arrays([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], np.zeros(9))
    assert d.rho == 0.25
    assert d.m_total == 12


def test_rho_permutation_invariant():
    rng = np.random.default_rng(1)
    s = rng.normal(size=7)
    y = rng.normal(size=7)
    u = rng.normal(size=5)
    d1 = design_from_arrays(s, y, u)
    perm = rng.permutation(7)
    d2 = design_from_arrays(s[perm], y[perm], u)
    assert d1.rho == d2.rho


def test_empty_sample_rejected():
    with pytest.raises(DataError):
        LabeledSample(np.array([]), np.array([]))
    with pytest.raises(DataError):
        UnlabeledSample(np.array([]))


def test_nonfinite_rejected_with_index():
    with pytest.raises(DataError, match="index 1"):
        LabeledSample([1.0, 2.0], [0.0, np.nan])
    with pytest.raises(DataError, match="index 0"):
        UnlabeledSample([np.inf, 1.0])


def test_length_mismatch():
    with pytest.raises(DimensionError):
        LabeledSample([1.0, 2.0], [1.0])


def test_covariate_dim_mismatch():
    lab = LabeledSample([1.0, 2.0], [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
    unl = UnlabeledSample([1.0], [[1.0]])
    with pytest.raises(DimensionError):
        TwoSampleDesign(lab, unl)


def test_covariate_row_count_must_match():
    with pytest.raises(DimensionError):
        LabeledSample([1.0, 2.0], [0.0, 1.0], [[1.0]])


def test_arrays_are_readonly():
    d = design_from_arrays([1.0, 2.0], [0.0, 1.0], [3.0])
    with pytest.raises(ValueError):
        d.labeled.scores[0] = 9.0


def test_report_is_frozen():
    rep = EstimateReport(1.0, 0.5, 0.02, 1.98, 0.05, "aipw", 10, 20, {"k": 1.0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.method = "auto-cal"
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.estimate = 2.0


def test_sorted_scores_are_cached_and_read_only():
    s = UnlabeledSample([3.0, 1.0, 2.0, 1.0])
    assert s.sorted_scores is s.sorted_scores
    assert s.sorted_scores.tolist() == [1.0, 1.0, 2.0, 3.0]
    assert not s.sorted_scores.flags.writeable
    with pytest.raises(ValueError):
        s.sorted_scores[0] = 0.0
    assert s.scores.tolist() == [3.0, 1.0, 2.0, 1.0]


def test_labeled_score_order_is_stable_cached_and_read_only():
    lab = LabeledSample([3.0, 1.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0, 4.0])
    assert lab.score_order is lab.score_order
    # tied scores keep their row order
    assert lab.score_order.tolist() == [1, 3, 2, 0, 4]
    assert not lab.score_order.flags.writeable
    with pytest.raises(ValueError):
        lab.score_order[0] = 0
    # a taken sample sorts its own rows rather than inheriting its parent's order
    taken = lab.take([4, 3, 0, 1])
    assert "score_order" not in vars(taken)
    assert taken.score_order.tolist() == [1, 3, 0, 2]


def test_score_moments_survive_overflowing_squares():
    # the centered squares near 1e160 overflow, but the root of their sum does not
    s = UnlabeledSample(np.array([1.0, 2.0, 3.0, 6.0]) * 1e160)
    mean, root_css = s.score_moments
    assert mean == pytest.approx(3e160, rel=1e-15)
    assert root_css == pytest.approx(np.sqrt(14.0) * 1e160, rel=1e-15)


def test_take_keeps_rows_aligned_and_read_only():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 2))
    lab = LabeledSample(rng.normal(size=6), rng.normal(size=6), x)
    unl = UnlabeledSample(rng.normal(size=5), rng.normal(size=(5, 2)))
    rows = np.array([4, 0, 4, 5, 1, 1])
    lab_t = lab.take(rows)
    assert isinstance(lab_t, LabeledSample)
    assert np.array_equal(lab_t.scores, lab.scores[rows])
    assert np.array_equal(lab_t.outcomes, lab.outcomes[rows])
    assert np.array_equal(lab_t.covariates, x[rows])
    mask = np.array([True, False, True, True, False])
    unl_t = unl.take(mask)
    assert isinstance(unl_t, UnlabeledSample)
    assert np.array_equal(unl_t.scores, unl.scores[mask])
    assert np.array_equal(unl_t.covariates, unl.covariates[mask])
    assert unl_t.sorted_scores.tolist() == sorted(unl.scores[mask].tolist())
    for arr in (lab_t.scores, lab_t.outcomes, lab_t.covariates, unl_t.scores, unl_t.covariates):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the new sample owns its values rather than viewing the parent's
    assert not np.shares_memory(lab_t.scores, lab.scores)
    assert LabeledSample(rng.normal(size=2), rng.normal(size=2)).take([1, 0]).covariates is None


def test_take_refuses_empty_and_non_vector_selections():
    lab = LabeledSample([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    with pytest.raises(DataError):
        lab.take(np.zeros(3, dtype=bool))
    with pytest.raises(DimensionError):
        UnlabeledSample([1.0, 2.0]).take([[0, 1]])
