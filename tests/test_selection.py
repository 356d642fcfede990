import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ssmean import (
    METHOD_NAMES,
    CandidateSet,
    ConfigError,
    DataError,
    DgpSpec,
    SsmeanError,
    TwoSampleDesign,
    autocal_select,
    crossfit_calibrated,
    design_from_arrays,
    draw_dataset,
    estimate,
    ols_trainer,
    predict,
)
from ssmean._rng import CROSSFIT_SHUFFLE, FOLD_SHUFFLE, UNLABELED_SUBSAMPLE, substream
from ssmean.calibrators import _Context
from ssmean.estimators import REGISTRY, ScoredDesign, _family_core, _summaries, family_report
from ssmean.selection import TIE_RTOL


def make_design(rng, n=60, N=120):
    m_l = rng.uniform(size=n)
    y = (rng.random(n) < m_l).astype(float)
    m_u = rng.uniform(size=N)
    return design_from_arrays(m_l, y, m_u)


def test_single_candidate_degenerate_selection():
    rng = np.random.default_rng(60)
    d = make_design(rng)
    winner, report = autocal_select(d, CandidateSet(["iso-cal"]), seed=0)
    assert winner == "iso-cal"
    direct = estimate(d, "iso-cal")
    assert report.estimate == direct.estimate
    assert report.std_error == direct.std_error
    assert report.method == "auto-cal"
    assert report.diagnostics["selected"] == "iso-cal"


def test_autocal_report_is_winner_report_plus_cv_keys():
    rng = np.random.default_rng(69)
    d = make_design(rng)
    winner, report = autocal_select(d, CandidateSet(["aipw", "linear-cal", "iso-cal"]), seed=2)
    direct = estimate(d, winner, seed=2)
    cv_keys = {"selected", "cv_criteria", "cv_folds", "cv_unlabeled_subsample"}
    assert set(report.diagnostics) == set(direct.diagnostics) | cv_keys
    assert {k: v for k, v in report.diagnostics.items() if k not in cv_keys} == direct.diagnostics
    assert dataclasses.replace(report, method=direct.method, diagnostics=direct.diagnostics) == direct
    assert report.method == "auto-cal"
    assert direct.method == winner


def test_duplicate_candidates_first_wins():
    rng = np.random.default_rng(61)
    d = make_design(rng)
    winner, report = autocal_select(d, CandidateSet(["aipw", "aipw"]), seed=0)
    assert winner == "aipw"
    assert list(report.diagnostics["cv_criteria"]) == ["aipw"]


def test_perfect_score_selects_aipw_over_binning():
    rng = np.random.default_rng(62)
    m_l = rng.normal(size=80)
    d = design_from_arrays(m_l, m_l.copy(), rng.normal(size=100))
    winner, _ = autocal_select(d, CandidateSet(["hist-cal", "aipw"]), seed=0)
    assert winner == "aipw"


def test_selection_deterministic_in_seed():
    rng = np.random.default_rng(63)
    d = make_design(rng)
    cands = CandidateSet(["aipw", "linear-cal", "iso-cal", "hist-cal"])
    w1, r1 = autocal_select(d, cands, seed=5)
    w2, r2 = autocal_select(d, cands, seed=5)
    assert w1 == w2
    assert r1.estimate == r2.estimate
    assert r1.diagnostics["cv_criteria"] == r2.diagnostics["cv_criteria"]


def first_within_tie(criteria):
    """The first candidate, in candidate order, within TIE_RTOL of the smallest criterion."""
    best = min(criteria.values())
    return next(name for name, c in criteria.items() if c - best <= TIE_RTOL * best)


def test_selected_criterion_is_minimal():
    # minimal up to the tie rule: the winner is the first candidate within 1e-12 of the minimum
    assert TIE_RTOL == 1e-12
    rng = np.random.default_rng(64)
    for trial in range(5):
        d = make_design(rng)
        _, report = autocal_select(
            d, CandidateSet(["aipw", "linear-cal", "iso-cal", "hist-cal"]), seed=trial
        )
        crit = report.diagnostics["cv_criteria"]
        assert report.diagnostics["selected"] == first_within_tie(crit)


def test_maps_equal_up_to_rounding_tie_by_candidate_order():
    # two score levels: linear-cal, iso-cal and hist-cal fit the same map on
    # every fold, and their criteria differ only by rounding
    rng = np.random.default_rng(3)
    m_l = rng.choice([0.2, 0.7], size=60)
    y = (rng.random(60) < m_l).astype(float)
    d = design_from_arrays(m_l, y, rng.choice([0.2, 0.7], size=600))
    names = ["linear-cal", "iso-cal", "hist-cal"]
    winner, report = autocal_select(d, CandidateSet(names), seed=3)
    crit = report.diagnostics["cv_criteria"]
    assert max(crit.values()) - min(crit.values()) <= 1e-14 * min(crit.values())
    assert winner == "linear-cal"
    assert autocal_select(d, CandidateSet(names[::-1]), seed=3)[0] == "hist-cal"


def test_fold_clamping_and_bounds():
    rng = np.random.default_rng(65)
    d = make_design(rng, n=10, N=30)
    _, report = autocal_select(d, CandidateSet(["aipw"], folds=50), seed=0)
    assert report.diagnostics["cv_folds"] == 5
    tiny = make_design(rng, n=3, N=10)
    with pytest.raises(ConfigError):
        autocal_select(tiny, CandidateSet(["aipw"]), seed=0)


def test_unlabeled_subsample_capped():
    rng = np.random.default_rng(66)
    d = make_design(rng, n=8, N=200)
    _, report = autocal_select(d, CandidateSet(["aipw"], unlabeled_cap_factor=10), seed=0)
    assert report.diagnostics["cv_unlabeled_subsample"] == 80


def cv_criteria_oracle(design, names, k, seed, cap_factor=10):
    """autocal_select's criteria by a loop over folds: for each fold, one fit on
    the other rows, one held-out design and one report, with per-row
    adjustment values on a copy of the unlabeled subsample (the whole sample
    when cap >= N)."""
    lab, unl = design.labeled, design.unlabeled.scores.copy()
    cap = min(design.N, cap_factor * design.n)
    if cap < design.N:
        unl = unl[substream(seed, UNLABELED_SUBSAMPLE).choice(design.N, size=cap, replace=False)]
    folds = np.array_split(substream(seed, FOLD_SHUFFLE).permutation(design.n), k)
    criteria = {}
    for name in dict.fromkeys(names):
        total = 0.0
        for fold in folds:
            rest = np.setdiff1d(np.arange(design.n), fold)
            f = REGISTRY[name].fit(design_from_arrays(lab.scores[rest], lab.outcomes[rest], unl)).maps.map(0)
            held_out = design_from_arrays(lab.scores[fold], lab.outcomes[fold], unl)
            scored = ScoredDesign(held_out, predict(f, held_out.labeled.scores), predict(f, unl))
            total += held_out.m_total * family_report(scored).std_error ** 2
        criteria[name] = total / k
    # autocal_select refits the winner on the full sample, and refuses where that fit does
    REGISTRY[first_within_tie(criteria)].fit(design)
    return criteria


def test_uncapped_selection_evaluates_the_design_sample_itself():
    rng = np.random.default_rng(67)
    d = make_design(rng, n=40, N=300)  # N / n = 7.5, under the default cap factor of 10
    names = ["aipw", "linear-cal", "iso-cal", "hist-cal"]
    winner, report = autocal_select(d, CandidateSet(names), seed=3)
    assert report.diagnostics["cv_unlabeled_subsample"] == d.N
    # the folds sorted the design's own samples, which the winner's refit shares
    assert "sorted_scores" in vars(d.unlabeled)
    assert "score_order" in vars(d.labeled)
    want = cv_criteria_oracle(d, names, 20, seed=3)
    assert winner == first_within_tie(want)
    for name in names:
        assert report.diagnostics["cv_criteria"][name] == pytest.approx(want[name], rel=1e-12), name


@st.composite
def selection_cases(draw):
    """Tie-heavy designs from n = 4 up, with fold counts, caps and candidate lists (duplicates allowed)."""
    n = draw(st.integers(4, 40))
    N = draw(st.integers(1, 120))
    pool = ["aipw", "linear-cal", "iso-cal", "hist-cal", "platt-cal"]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    levels = 1 if "platt-cal" in names else draw(st.sampled_from([1, 4]))
    grid = st.integers(0, 12)
    m_l = np.array(draw(st.lists(grid, min_size=n, max_size=n))) / 8.0
    y = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    m_u = np.array(draw(st.lists(grid, min_size=N, max_size=N))) / 8.0
    cands = CandidateSet(names, folds=draw(st.integers(2, 25)), unlabeled_cap_factor=draw(st.integers(1, 3)))
    return design_from_arrays(m_l, y, m_u), cands, draw(st.integers(0, 2**32))


@settings(max_examples=150)
@given(selection_cases())
# platt-cal's fold fits must read their rows in row order, as its fit of a design does
@example((design_from_arrays([0, 0, 0.25, 0, 0, 1, 1, 1], np.zeros(8), [0.0]),
          CandidateSet(["platt-cal"], folds=2, unlabeled_cap_factor=1), 0))
# platt-cal wins the CV, but its Newton fit on the full sample does not converge
@example((design_from_arrays([1, .375, 1, .875, 1, 1, .5, 1], [1, 0, 1, 0, 1, 1, 0, 1], [0.0]),
          CandidateSet(["platt-cal"], folds=2, unlabeled_cap_factor=1), 0))
# candidates whose fits read the subsample's size or cached moments, or sort each fold themselves
@example((draw_dataset(DgpSpec(40, 4, 1)), CandidateSet(["labeled-only", "ppi-pp", "venn-abers"], folds=5), 7))
@example((draw_dataset(DgpSpec(30, 2, 2)), CandidateSet(["ppi", "aipw-em", "venn-abers", "ppi"], folds=4), 3))
def test_selection_matches_per_fold_oracle(case):
    d, cands, seed = case
    k = min(cands.folds, d.n // 2)
    try:
        want = cv_criteria_oracle(d, cands.methods, k, seed, cands.unlabeled_cap_factor)
    except SsmeanError as exc:
        with pytest.raises(type(exc)):
            autocal_select(d, cands, seed=seed)
        return
    winner, report = autocal_select(d, cands, seed=seed)
    diag = report.diagnostics
    assert list(diag["cv_criteria"]) == list(want)
    for name, value in want.items():
        assert diag["cv_criteria"][name] == pytest.approx(value, rel=1e-12, abs=1e-300), name
    assert winner == diag["selected"] == first_within_tie(want)
    assert diag["cv_folds"] == k
    assert diag["cv_unlabeled_subsample"] == min(d.N, cands.unlabeled_cap_factor * d.n)


@pytest.mark.parametrize("n", [120, 123])  # 8 folds of 15 rows; 3 folds of 16 rows and 5 of 15
def test_each_cv_term_is_the_family_core_of_its_held_out_fold(n):
    # bit for bit, criterion = sum_j total_j / (held_j + cap) / k, where total_j
    # is the one-design family core of fold j's held-out rows in row order,
    # with fold j's values from the stacked fit of every fold's training rows
    # and its summary on the capped subsample; a per-fold sum in another
    # order (np.bincount over the rows in score order) moves some criteria
    # by an ulp or two
    d, k, seed = draw_dataset(DgpSpec(n, 4, 1)), 8, 3
    cands = CandidateSet(["aipw", "linear-cal", "iso-cal", "hist-cal", "venn-abers"], folds=k, unlabeled_cap_factor=2)
    got = autocal_select(d, cands, seed=seed)[1].diagnostics["cv_criteria"]
    cap = 2 * n
    unl = d.unlabeled.take(substream(seed, UNLABELED_SUBSAMPLE).choice(d.N, size=cap, replace=False))
    held_out = [np.sort(rows) for rows in np.array_split(substream(seed, FOLD_SHUFFLE).permutation(n), k)]
    held = np.array([len(rows) for rows in held_out])
    assert sorted(set(held.tolist())) == ([15] if n == 120 else [15, 16])
    s, y, rank = d.labeled.by_score
    train = rank[np.concatenate([np.setdiff1d(np.arange(n), rows) for rows in held_out])]
    context = _Context(d.labeled, unl)
    for name in cands.methods:
        maps = REGISTRY[name].stacked_fit(s, y, train, np.concatenate(([0], np.cumsum(n - held))), context)
        summaries = _summaries(maps, k, context)
        totals = []
        for j, rows in enumerate(held_out):
            f_l = maps.on_sample(np.full(len(rows), j), s, rank[rows])
            totals.append(_family_core(f_l, y[rank[rows]], (cap, *summaries[j]), name).total)
        want = float(np.sum(np.array(totals) / (held + cap))) / k
        assert got[name].hex() == want.hex(), name


# every method but auto-cal is a fold-stacked fit core, and so a candidate
SELECTABLE = tuple(name for name in METHOD_NAMES if name != "auto-cal")


def test_every_method_but_auto_cal_has_a_stacked_fit():
    # and so is a candidate and a cross-fit calibration; linear-cov-cal's
    # cross-fit calibration reads the covariates
    assert [name for name, method in REGISTRY.items() if method.stacked_fit is None] == ["auto-cal"]
    rng = np.random.default_rng(8)
    x_l, x_u = rng.normal(size=(40, 2)), rng.normal(size=(60, 2))
    y = (rng.random(40) < 1.0 / (1.0 + np.exp(-x_l[:, 0]))).astype(float)

    def logistic_trainer(covariates, outcomes):
        return lambda xnew: 1.0 / (1.0 + np.exp(-np.atleast_2d(xnew)[:, 0]))

    for name in SELECTABLE:
        assert CandidateSet([name]).methods == (name,)
        report = crossfit_calibrated(x_l, y, x_u, logistic_trainer, name, k=4)
        assert report.method == f"crossfit-{name}" and np.isfinite(report.std_error)


@st.composite
def stacked_cases(draw):
    """Tie-heavy labeled samples cut into k = 2..25 folds, as (design, fold of each row, k).

    Scores lie on a grid, the grid moved to 1e6, five adjacent floats (a
    range of fewer than eleven floats) or two values; a fold may hold whole
    tie blocks, and the smallest and largest scores may share a fold, so
    some training sets lose an end of the range or keep a single value. The
    unlabeled scores lie on the same grid, some below or above the labeled
    ones. Half the designs carry a column of covariates in both samples, for
    linear-cov-cal.
    """
    k = draw(st.integers(2, 25))
    n = draw(st.integers(2, 40))
    level = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["grid", "offset", "few floats", "two values"]))
    grid = {"grid": lambda v: v / 8.0, "offset": lambda v: 1e6 + v / 8.0,
            "few floats": lambda v: 0.5 + (v % 5) * 2.0**-53, "two values": lambda v: (v % 2) / 4.0}[kind]
    s = grid(level)
    u = grid(np.array(draw(st.lists(st.integers(-2, 14), min_size=1, max_size=30))))
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    else:
        y = np.array(draw(st.lists(st.integers(-4, 8), min_size=n, max_size=n))) / 4.0
    if draw(st.booleans()):  # every tie block in one fold
        fold_of_level = draw(st.lists(st.integers(0, k - 1), min_size=13, max_size=13))
        fold_of = np.array(fold_of_level)[np.unique(s, return_inverse=True)[1]]
    else:
        fold_of = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        fold_of[(s == s.min()) | (s == s.max())] = fold_of[0]
    # every fold keeps a training row
    assume(len(np.unique(fold_of)) > 1)
    if draw(st.booleans()):
        x = np.array(draw(st.lists(st.integers(-3, 3), min_size=n + len(u), max_size=n + len(u)))).reshape(-1, 1) / 2.0
        return design_from_arrays(s, y, u, x[:n], x[n:]), fold_of, k
    return design_from_arrays(s, y, u), fold_of, k


def _bits(calibrator) -> dict:
    """Every field of a fitted calibrator but fitted_on, as bytes."""
    return {f.name: np.asarray(getattr(calibrator, f.name)).tobytes()
            for f in dataclasses.fields(calibrator) if f.name != "fitted_on"}


@settings(max_examples=150)
@given(stacked_cases())
# a paper design on which a second summation order for one map (a BLAS dot) moves some fold's step-map summary
@example((draw_dataset(DgpSpec(1200, 16, 0)), np.arange(1200) % 3, 3))
def test_each_fold_of_a_stacked_fit_is_the_fit_of_its_training_rows(case):
    # fold j of one k-fold call of a family's core, given one shared unlabeled
    # sample or a sample per fold and fold j's training rows in a drawn order
    # (the set as stored), equals the method's own fit of the design of those
    # rows in that order and that sample, bit for bit, facts included,
    # and so do its held-out values (the public map's predict, which
    # test_calibrators checks against a per-score formula); and its unlabeled
    # summary in one call of the summary core equals the one-map summary of
    # its map on that sample
    d, fold_of, k = case
    rng = np.random.default_rng(k)
    draws = rng.integers(0, d.N, size=(k, d.N))
    stored = [rng.permutation(np.flatnonzero(fold_of != j)) for j in range(k)]
    s, y, rank = d.labeled.by_score
    fold = np.empty(d.n, dtype=np.intp)
    fold[rank] = fold_of
    bounds = np.concatenate(([0], np.cumsum(d.n - np.bincount(fold, minlength=k))))
    rows = rank[np.concatenate(stored)]
    shared, per_fold = _Context(d.labeled, d.unlabeled), _Context(d.labeled, d.unlabeled, lambda: iter(draws))
    # the covariates in score order, as the cores read them
    x = None if d.labeled.covariates is None else d.labeled.covariates[d.labeled.score_order]
    for name in SELECTABLE:
        method = REGISTRY[name]
        for context, samples in ((shared, [d.unlabeled] * k), (per_fold, [d.unlabeled.take(r) for r in draws])):

            def fold_fit(j):
                return method.fit(TwoSampleDesign(d.labeled.take(stored[j]), samples[j])).maps

            try:
                maps = method.stacked_fit(s, y, rows, bounds, context)
            except SsmeanError as exc:
                # the first fold whose own fit refuses refuses the same way
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    for j in range(k):
                        fold_fit(j)
                continue
            held_out = maps.on_sample(fold, s, np.arange(d.n))
            summaries = _summaries(maps, k, context)
            for j in range(k):
                own = fold_fit(j)
                f, x_held = own.map(0), None if x is None else x[fold == j]
                assert _bits(maps.map(j)) == _bits(f), (name, j)
                if getattr(maps, "facts", None):
                    assert maps.facts[j] == own.facts[0], (name, j)
                assert held_out[fold == j].tobytes() == predict(f, s[fold == j], x_held).tobytes(), (name, j)
                # the summary calibrated_plugin takes of the public map: its own one-map stack's
                [one] = _summaries(maps.map(j)._stack, 1, _Context(None, samples[j]))
                assert np.array(summaries[j]).tobytes() == np.array(one).tobytes(), (name, j)


def test_candidate_validation():
    with pytest.raises(ConfigError):
        CandidateSet([])
    with pytest.raises(ConfigError, match="^methods must be a list of method names, got the string 'aipw'$"):
        CandidateSet("aipw")
    with pytest.raises(ConfigError, match="^'auto-cal' is not selectable; choose from labeled-only, ppi, aipw, "):
        CandidateSet(["auto-cal"])
    with pytest.raises(ConfigError):
        CandidateSet(["aipw"], folds=1)


@pytest.mark.parametrize("candidates", [["aipw", "iso-cal"], ("aipw",), "aipw", None])
def test_autocal_select_refuses_candidates_that_are_not_a_candidate_set(candidates):
    d = make_design(np.random.default_rng(0))
    with pytest.raises(ConfigError, match="^candidates must be a CandidateSet, got "):
        autocal_select(d, candidates, seed=0)


@pytest.mark.parametrize("setting", ["folds", "unlabeled_cap_factor"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_candidate_settings_must_be_integers(setting, value):
    with pytest.raises(ConfigError, match=f"{setting} must be an integer, got {value!r}"):
        CandidateSet(["aipw"], **{setting: value})


@pytest.mark.parametrize(
    "setting, value", [("methods", ["nope"]), ("methods", ["labeled-only"]), ("folds", 1), ("unlabeled_cap_factor", 0)]
)
def test_candidate_set_cannot_change_after_its_checks(setting, value):
    cands = CandidateSet(["aipw", "iso-cal"])
    assert cands.methods == ("aipw", "iso-cal")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cands, setting, value)
    assert cands == CandidateSet(["aipw", "iso-cal"])


def test_candidate_settings_accept_numpy_integers():
    cands = CandidateSet(["aipw"], folds=np.int64(3), unlabeled_cap_factor=np.int32(2))
    assert (cands.folds, cands.unlabeled_cap_factor) == (3, 2)
    assert type(cands.folds) is int and type(cands.unlabeled_cap_factor) is int


# --- cross-fitting ------------------------------------------------------------

def mean_trainer(covariates, outcomes):
    c = float(np.mean(outcomes))
    return lambda xnew: np.full(len(np.atleast_2d(xnew)), c)


def test_crossfit_constant_trainer_gives_labeled_mean():
    rng = np.random.default_rng(67)
    x_l = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    x_u = rng.normal(size=(40, 2))

    def zero_trainer(cov, out):
        return lambda xnew: np.zeros(len(np.atleast_2d(xnew)))

    rep = crossfit_calibrated(x_l, y, x_u, zero_trainer, "linear-cal", k=4, seed=0)
    assert rep.estimate == pytest.approx(float(y.mean()), abs=1e-12)


def test_crossfit_two_fold_manual_trace():
    x_l = np.arange(8.0).reshape(-1, 1)
    y = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
    x_u = np.zeros((4, 1))
    seed = 3
    rep = crossfit_calibrated(x_l, y, x_u, mean_trainer, "aipw", k=2, seed=seed)

    # literal transcription of the pipeline given the same fold assignment
    perm = substream(seed, CROSSFIT_SHUFFLE).permutation(8)
    folds = np.array_split(perm, 2)
    oof = np.empty(8)
    unl = np.empty((2, 4))
    for j, fold in enumerate(folds):
        mask = np.ones(8, dtype=bool)
        mask[fold] = False
        c = y[mask].mean()
        oof[fold] = c
        unl[j] = c
    pred_l = oof
    pred_u = unl.mean(axis=0)
    rho = 8 / 12
    want = rho * pred_l.mean() + (1 - rho) * pred_u.mean() + (y - pred_l).mean()
    assert rep.estimate == pytest.approx(want, abs=1e-13)
    assert rep.diagnostics["folds"] == 2


def test_crossfit_coinciding_fold_models_match_non_crossfit():
    # exactly linear data: every subset-trained model is the same line, so
    # cross-fitting coincides with the plain fit-on-everything pipeline
    x_l = np.linspace(0, 1, 12).reshape(-1, 1)
    y = 2.0 * x_l[:, 0] + 1.0
    x_u = np.linspace(0.2, 0.8, 9).reshape(-1, 1)
    rep = crossfit_calibrated(x_l, y, x_u, ols_trainer, "linear-cal", k=3, seed=1)

    model = ols_trainer(x_l, y)
    scores_l = model(x_l)
    scores_u = model(x_u)
    from ssmean import calibrated_plugin, fit_linear

    d = design_from_arrays(scores_l, y, scores_u)
    want = calibrated_plugin(d, fit_linear(scores_l, y, clip=True)).estimate
    assert rep.estimate == pytest.approx(want, abs=1e-10)


def test_crossfit_unlabeled_average_symmetric_in_folds():
    rng = np.random.default_rng(68)
    consts = rng.normal(size=3)
    preds = np.stack([np.full(5, c) for c in consts])
    assert np.allclose(preds.mean(axis=0), preds[::-1].mean(axis=0))


@pytest.mark.parametrize("k", [2.5, "3", None, True, np.True_])
def test_crossfit_refuses_a_non_integer_k(k):
    x, y = np.arange(8.0), np.arange(8.0) % 2
    with pytest.raises(ConfigError, match=f"^cross-fitting needs an integer number of folds k, got {k!r}$"):
        crossfit_calibrated(x, y, x, mean_trainer, k=k)


@pytest.mark.parametrize("seed", [True, np.True_])
def test_crossfit_refuses_a_bool_seed(seed):
    x, y = np.arange(8.0), np.arange(8.0) % 2
    with pytest.raises(ConfigError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
        crossfit_calibrated(x, y, x, mean_trainer, seed=seed)


def test_crossfit_errors():
    x = np.ones((4, 1))
    y = np.ones(4)
    u = np.ones((2, 1))
    with pytest.raises(ConfigError):
        crossfit_calibrated(x, y, u, mean_trainer, k=1)
    with pytest.raises(ConfigError):
        crossfit_calibrated(x, y, u, mean_trainer, k=9)
    with pytest.raises(ConfigError):
        crossfit_calibrated(x, y, u, mean_trainer, calibration_method="auto-cal", k=2)

    def broken_trainer(cov, out):
        raise RuntimeError("boom")

    with pytest.raises(DataError, match="fold 0"):
        crossfit_calibrated(x, y, u, broken_trainer, k=2)


def test_ols_trainer_exact_on_linear_data():
    x = np.column_stack([np.arange(6.0), np.arange(6.0) ** 2])
    y = 3.0 + x @ [2.0, -1.0]
    model = ols_trainer(x, y)
    assert np.allclose(model(x), y, atol=1e-9)
