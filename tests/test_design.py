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


def test_score_moments_survive_overflowing_squares():
    # the centered squares near 1e160 overflow, but the root of their sum does not
    s = UnlabeledSample(np.array([1.0, 2.0, 3.0, 6.0]) * 1e160)
    mean, root_css = s.score_moments
    assert mean == pytest.approx(3e160, rel=1e-15)
    assert root_css == pytest.approx(np.sqrt(14.0) * 1e160, rel=1e-15)
