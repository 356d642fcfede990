"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the lines as they execute
(or `pytest -rA` for the captured output of passed tests). Criteria 3 to 6
share one cached 500-replicate Monte Carlo grid; expect a few minutes.
"""
import json
import time

import numpy as np
import pytest

from ssmean import (
    bootstrap,
    calibrated_plugin,
    design_from_arrays,
    eem_lambda,
    estimate,
    fit_isotonic,
    fit_linear,
    predict,
    run_grid,
)
from ssmean.cli import main, write_labeled_csv, write_unlabeled_csv
from ssmean.estimators import ScoredDesign, family_report

from test_calibrators import iso_oracle_sse
from test_estimators import ppi_as_plugin_check
from test_inference import oracle_se


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_design(rng):
    n = int(rng.integers(3, 40))
    N = int(rng.integers(2, 60))
    loc = rng.uniform(-2, 2)
    scale = rng.uniform(0.5, 3.0)
    m_l = rng.normal(loc, scale, size=n)
    if rng.random() < 0.15 and n >= 4:
        m_l[1] = m_l[0]
    y = rng.uniform(-1, 1) + rng.uniform(0, 2) * m_l + rng.normal(size=n)
    m_u = rng.normal(loc, scale, size=N)
    return design_from_arrays(m_l, y, m_u)


# --- criterion 1: exact algebraic identities --------------------------------------

def test_criterion_1a_plugin_equals_aipw_form():
    rng = np.random.default_rng(100)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        d = _random_design(rng)
        y, m = d.labeled.outcomes, d.labeled.scores
        for calib in (fit_isotonic(m, y), fit_linear(m, y, clip=False)):
            rep = calibrated_plugin(d, calib)
            gap = abs(rep.diagnostics["plugin_estimate"] - rep.diagnostics["aipw_estimate"])
            worst = max(worst, gap / max(1.0, abs(rep.estimate)))
    elapsed = time.time() - start
    _report(
        "1a",
        worst <= 1e-10 and elapsed < 10,
        f"pooled plug-in vs residual-corrected form, max rel gap {worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_1b_intercept_only_representation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        d = _random_design(rng)
        chk = ppi_as_plugin_check(d)
        scale = max(1.0, abs(chk.ppi), abs(chk.aipw))
        worst = max(worst, abs(chk.ppi - chk.ppi_plugin) / scale, abs(chk.aipw - chk.aipw_plugin) / scale)
    _report("1b", worst <= 1e-10, f"intercept-calibration representation, max rel gap {worst:.2e}")


def test_criterion_1c_rescaled_vs_linear_difference():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        d = _random_design(rng)
        lam = eem_lambda(d)  # unclipped
        lin = fit_linear(d.labeled.scores, d.labeled.outcomes, clip=False)
        psi_pp = estimate(d, "aipw-em").estimate
        psi_lin = calibrated_plugin(d, lin).estimate
        delta = d.unlabeled.scores.mean() - d.labeled.scores.mean()
        want = (1.0 - d.rho) * (lam - lin.slope) * delta
        got = psi_pp - psi_lin
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report("1c", worst <= 1e-10, f"rescaled-vs-linear exact difference, max rel gap {worst:.2e}")


def test_criterion_1d_blockwise_orthogonality():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        d = _random_design(rng)
        y, m = d.labeled.outcomes, d.labeled.scores
        pred = predict(fit_isotonic(m, y), m)
        resid = y - pred
        cuts = np.sort(rng.normal(size=2))
        tests = [
            np.ones_like(pred),
            pred,
            pred**2,
            np.searchsorted(cuts, pred).astype(float),
        ]
        for h in tests:
            num = abs(float(np.sum(h * resid)))
            scale = max(1.0, float(np.sum(np.abs(h) * np.abs(resid))))
            worst = max(worst, num / scale)
    _report("1d", worst <= 1e-10, f"isotonic residual orthogonality, max rel gap {worst:.2e}")


def test_criterion_1e_shift_invariance_and_se_forms():
    rng = np.random.default_rng(104)
    worst_shift = 0.0
    worst_se = 0.0
    for _ in range(1000):
        d = _random_design(rng)
        f_l = rng.normal(size=d.n)
        f_u = rng.normal(size=d.N)
        c = rng.uniform(-5, 5)
        report = family_report(ScoredDesign(d, f_l, f_u))
        base = report.estimate
        shifted = family_report(ScoredDesign(d, f_l + c, f_u + c)).estimate
        worst_shift = max(worst_shift, abs(shifted - base) / max(1.0, abs(base)))
        other = oracle_se(d, f_l, f_u)
        worst_se = max(worst_se, abs(report.std_error - other) / max(1e-12, other))
    ok = worst_shift <= 1e-10 and worst_se <= 1e-12
    _report("1e", ok, f"shift invariance {worst_shift:.2e}, SE-form agreement {worst_se:.2e}")


# --- criterion 2: PAVA vs exhaustive oracle ----------------------------------------

def test_criterion_2_pava_oracle_equivalence():
    rng = np.random.default_rng(105)
    start = time.time()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        s = rng.normal(size=n)
        if rng.random() < 0.2 and n >= 3:
            s[1] = s[0]
        y = rng.normal(size=n)
        # integer weights as repeated rows, which the tie pooling turns back into weights
        w = rng.integers(1, 4, size=n) if rng.random() < 0.3 else np.ones(n, dtype=int)
        calib = fit_isotonic(np.repeat(s, w), np.repeat(y, w))
        sse = float(np.dot(w, (y - predict(calib, s)) ** 2))
        worst = max(worst, abs(sse - iso_oracle_sse(s, y, w)))
    elapsed = time.time() - start
    _report(
        "2",
        worst <= 1e-10 and elapsed < 30,
        f"isotonic SSE vs exhaustive ordered-partition oracle, max gap {worst:.2e} ({elapsed:.1f}s)",
    )


# --- criteria 3-6: the 500-replicate Monte Carlo grid -------------------------------

GRID_METHODS = [
    "labeled-only",
    "ppi",
    "aipw",
    "ppi-pp",
    "aipw-em",
    "linear-cal",
    "iso-cal",
    "auto-cal",
]
GRID_REPS = 500


@pytest.fixture(scope="module")
def mc_grid():
    start = time.time()
    rows = run_grid([400, 800, 1200], [16], GRID_METHODS, reps=GRID_REPS, alpha=0.05, seed=0)
    elapsed = time.time() - start
    table = {(r.method, r.n): r for r in rows}
    table["elapsed"] = elapsed
    return table


def test_criterion_3_rmse_reproduction(mc_grid):
    rmse_ppi_400 = mc_grid[("ppi", 400)].rmse
    rmse_iso_400 = mc_grid[("iso-cal", 400)].rmse
    rmse_ppi_1200 = mc_grid[("ppi", 1200)].rmse
    rmse_iso_1200 = mc_grid[("iso-cal", 1200)].rmse
    ok_i = 0.0155 <= rmse_ppi_400 <= 0.0190
    ok_ii = (rmse_iso_400 / rmse_ppi_400 <= 1.00) and (rmse_iso_1200 / rmse_ppi_1200 <= 0.98)
    ok_iii = 0.0078 <= rmse_iso_1200 <= 0.0096
    ok_time = mc_grid["elapsed"] < 600
    detail = (
        f"rmse(ppi,400)={rmse_ppi_400:.5f}, iso/ppi@400={rmse_iso_400 / rmse_ppi_400:.3f}, "
        f"iso/ppi@1200={rmse_iso_1200 / rmse_ppi_1200:.3f}, rmse(iso,1200)={rmse_iso_1200:.5f}, "
        f"grid {mc_grid['elapsed']:.0f}s"
    )
    _report("3", ok_i and ok_ii and ok_iii and ok_time, detail)


def test_criterion_4_coverage(mc_grid):
    methods = ["aipw", "linear-cal", "iso-cal", "auto-cal"]
    covs = {(m, n): mc_grid[(m, n)].coverage for m in methods for n in (400, 1200)}
    ok = all(0.92 <= c <= 0.98 for c in covs.values())
    detail = ", ".join(f"{m}@{n}={c:.3f}" for (m, n), c in covs.items())
    _report("4", ok, detail)


def test_coverage_invariant_at_n800(mc_grid):
    # module-level invariant (not a numbered criterion): Wald coverage for the
    # raw-score and main calibrated estimators also holds at n=800
    for m in ("aipw", "linear-cal", "iso-cal"):
        assert 0.92 <= mc_grid[(m, 800)].coverage <= 0.98


def test_criterion_5_unbiasedness(mc_grid):
    parts = []
    ok = True
    for m in ("labeled-only", "ppi", "aipw"):
        row = mc_grid[(m, 400)]
        margin = 4.0 * row.sd / np.sqrt(row.reps)
        ok = ok and abs(row.bias) <= margin
        parts.append(f"{m}: |bias|={abs(row.bias):.5f} <= {margin:.5f}")
    _report("5", ok, "; ".join(parts))


def test_criterion_6_unclipped_beats_clipped_rescaling(mc_grid):
    mse_em = np.mean([mc_grid[("aipw-em", n)].rmse ** 2 for n in (400, 800, 1200)])
    mse_pp = np.mean([mc_grid[("ppi-pp", n)].rmse ** 2 for n in (400, 800, 1200)])
    ratio = mse_em / mse_pp
    _report("6", ratio <= 1.0, f"avg MSE ratio unclipped/clipped = {ratio:.4f}")


# --- criterion 7: bootstrap sanity --------------------------------------------------

def test_criterion_7_bootstrap():
    rng = np.random.default_rng(106)
    y = rng.normal(loc=0.2, scale=1.5, size=200)
    d = design_from_arrays(rng.normal(size=200), y, rng.normal(size=100))
    res = bootstrap(d, "labeled-only", b=1000, seed=0)
    analytic = y.std(ddof=1) / np.sqrt(200)
    rel = abs(res.se_boot / analytic - 1.0)
    ok_se = rel <= 0.15

    flat = design_from_arrays([1.0] * 6, [3.0] * 6, [1.0] * 9)
    res_flat = bootstrap(flat, "iso-cal", b=50, seed=0)
    ok_flat = res_flat.se_boot == 0.0 and res_flat.percentile_ci == (3.0, 3.0)

    again = bootstrap(d, "labeled-only", b=1000, seed=0)
    ok_det = np.array_equal(res.replicates, again.replicates)
    _report(
        "7",
        ok_se and ok_flat and ok_det,
        f"se_boot/analytic-1 = {rel:.3f}, degenerate width 0: {ok_flat}, seed-reproducible: {ok_det}",
    )


# --- criterion 8: CLI integration ----------------------------------------------------

def test_criterion_8_cli(tmp_path, capsys):
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=[0.0, 1.0], outcomes=[1.0, 3.0])
    write_unlabeled_csv(unl, scores=[0.5])
    code = main(
        ["estimate", "--labeled", str(lab), "--unlabeled", str(unl), "--method", "linear-cal"]
    )
    out = capsys.readouterr().out
    ok_golden = code == 0 and json.loads(out)["estimate"] == 2.0

    bad = tmp_path / "bad.csv"
    bad.write_text("score\n0.5\n", encoding="utf-8")
    code_missing = main(
        ["estimate", "--labeled", str(bad), "--unlabeled", str(unl), "--method", "aipw"]
    )
    capsys.readouterr()
    code_b1 = main(
        ["bootstrap", "--labeled", str(lab), "--unlabeled", str(unl), "--b", "1"]
    )
    capsys.readouterr()
    ok_exit = code_missing == 2 and code_b1 == 2

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for target in (s1, s2):
        assert (
            main(
                [
                    "simulate", "--ns", "40", "--ratios", "2", "--reps", "3",
                    "--method", "ppi,iso-cal", "--seed", "7", "--output", str(target),
                ]
            )
            == 0
        )
    ok_sim = s1.read_bytes() == s2.read_bytes()
    _report(
        "8",
        ok_golden and ok_exit and ok_sim,
        f"golden linear-cal toy = 2.0: {ok_golden}, exit codes: {ok_exit}, simulate reruns identical: {ok_sim}",
    )


# --- criterion 9: excluded reproductions ----------------------------------------------

def test_criterion_9_out_of_scope_exclusions():
    # external-data benchmark tables and figure percentages are out of scope
    # by design; the property and simulation suites above stand in for them.
    # The package ships no dataset downloads: the CLI only ingests user CSVs.
    import ssmean

    ok = not any(hasattr(ssmean, name) for name in ("download", "datasets", "load_benchmark"))
    _report("9", ok, "external-dataset reproductions excluded; covered by property suites")
