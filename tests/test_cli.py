import json

import numpy as np
import pytest

from ssmean.cli import main, write_labeled_csv, write_unlabeled_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def toy_files(tmp_path):
    lab = tmp_path / "labeled.csv"
    unl = tmp_path / "unlabeled.csv"
    write_labeled_csv(lab, scores=[0.0, 1.0], outcomes=[1.0, 3.0])
    write_unlabeled_csv(unl, scores=[0.5])
    return str(lab), str(unl)


def test_estimate_linear_cal_toy_is_exactly_two(capsys, toy_files):
    lab, unl = toy_files
    code, out, _ = run_cli(
        capsys, "estimate", "--labeled", lab, "--unlabeled", unl, "--method", "linear-cal"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"] == 2.0
    assert payload["method"] == "linear-cal"
    assert payload["n"] == 2 and payload["N"] == 1
    assert payload["ci"][0] <= 2.0 <= payload["ci"][1]
    assert set(payload) == {"method", "estimate", "std_error", "ci", "alpha", "n", "N", "diagnostics"}


def test_estimate_constant_score_aipw(capsys, tmp_path):
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=[0.0, 0.0], outcomes=[0.0, 2.0])
    write_unlabeled_csv(unl, scores=[0.0])
    code, out, _ = run_cli(
        capsys, "estimate", "--labeled", str(lab), "--unlabeled", str(unl), "--method", "aipw"
    )
    assert code == 0
    assert json.loads(out)["estimate"] == 1.0


def test_missing_column_exit_2(capsys, tmp_path):
    lab = tmp_path / "l.csv"
    lab.write_text("outcome,score\n1,0\n", encoding="utf-8")
    unl = tmp_path / "u.csv"
    write_unlabeled_csv(unl, scores=[0.5])
    code, _, err = run_cli(
        capsys, "estimate", "--labeled", str(lab), "--unlabeled", str(unl), "--method", "aipw"
    )
    assert code == 2
    assert "'y'" in err


def test_malformed_row_exit_2_cites_line(capsys, tmp_path):
    lab = tmp_path / "l.csv"
    lab.write_text("y,score\n1,0.5\n0,abc\n", encoding="utf-8")
    unl = tmp_path / "u.csv"
    write_unlabeled_csv(unl, scores=[0.5])
    code, _, err = run_cli(
        capsys, "estimate", "--labeled", str(lab), "--unlabeled", str(unl), "--method", "aipw"
    )
    assert code == 2
    assert "line 3" in err
    assert "abc" in err


def test_empty_unlabeled_exit_2(capsys, tmp_path):
    lab = tmp_path / "l.csv"
    write_labeled_csv(lab, scores=[0.1, 0.2], outcomes=[0.0, 1.0])
    unl = tmp_path / "u.csv"
    unl.write_text("score\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "compare", "--labeled", str(lab), "--unlabeled", str(unl)
    )
    assert code == 2
    assert "no data rows" in err


def test_missing_file_exit_2(capsys, tmp_path):
    unl = tmp_path / "u.csv"
    write_unlabeled_csv(unl, scores=[0.5])
    code, _, err = run_cli(
        capsys, "estimate", "--labeled", str(tmp_path / "none.csv"), "--unlabeled", str(unl)
    )
    assert code == 2


def test_unknown_method_exit_2_lists_tags(capsys, toy_files):
    lab, unl = toy_files
    code, _, err = run_cli(
        capsys, "estimate", "--labeled", lab, "--unlabeled", unl, "--method", "median"
    )
    assert code == 2
    assert "valid methods" in err and "iso-cal" in err


def test_compare_constant_score_all_methods_agree(capsys, tmp_path):
    rng = np.random.default_rng(80)
    y = (rng.random(30) < 0.5).astype(float)
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=np.full(30, 0.4), outcomes=y)
    write_unlabeled_csv(unl, scores=np.full(50, 0.4))
    code, out, _ = run_cli(capsys, "compare", "--labeled", str(lab), "--unlabeled", str(unl))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,estimate,std_error,ci_lo,ci_hi"
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) == pytest.approx(y.mean(), abs=1e-6), fields[0]


def test_compare_ppi_aipw_difference(capsys, tmp_path):
    rng = np.random.default_rng(81)
    m_l = rng.uniform(size=25)
    y = (rng.random(25) < m_l).astype(float)
    m_u = rng.uniform(size=60)
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=m_l, outcomes=y)
    write_unlabeled_csv(unl, scores=m_u)
    code, out, _ = run_cli(capsys, "compare", "--labeled", str(lab), "--unlabeled", str(unl))
    assert code == 0
    rows = {line.split(",")[0]: float(line.split(",")[1]) for line in out.strip().split("\n")[1:]}
    rho = 25 / 85
    want = rho * (m_l.mean() - m_u.mean())
    assert rows["aipw"] - rows["ppi"] == pytest.approx(want, abs=1e-12)
    assert "platt-cal" in rows  # binary outcomes make it applicable


def test_compare_row_order_deterministic(capsys, toy_files):
    lab, unl = toy_files
    _, out1, _ = run_cli(capsys, "compare", "--labeled", lab, "--unlabeled", unl)
    _, out2, _ = run_cli(capsys, "compare", "--labeled", lab, "--unlabeled", unl)
    assert out1 == out2


def test_simulate_smoke_row(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--ns", "50", "--ratios", "1", "--reps", "2",
        "--method", "labeled-only",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "method,n,ratio,reps,bias,sd,rmse,coverage,rel_eff_vs_ppi"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "labeled-only"
    assert np.isfinite(float(fields[4]))


def test_simulate_byte_identical_reruns(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(
            [
                "simulate", "--ns", "30,20", "--ratios", "2", "--reps", "3",
                "--method", "ppi,iso-cal", "--seed", "12", "--output", str(out),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_unknown_method_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--ns", "10", "--ratios", "1", "--reps", "2", "--method", "nope"
    )
    assert code == 2
    assert "valid methods" in err


def test_bootstrap_b_must_be_at_least_two(capsys, toy_files):
    lab, unl = toy_files
    code, _, err = run_cli(
        capsys, "bootstrap", "--labeled", lab, "--unlabeled", unl,
        "--method", "labeled-only", "--b", "1",
    )
    assert code == 2


def test_bootstrap_degenerate_and_deterministic(capsys, tmp_path):
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=[0.5] * 4, outcomes=[2.0] * 4)
    write_unlabeled_csv(unl, scores=[0.5] * 6)
    args = [
        "bootstrap", "--labeled", str(lab), "--unlabeled", str(unl),
        "--method", "labeled-only", "--b", "20", "--seed", "1",
    ]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out1)
    assert payload["se_boot"] == 0.0
    assert payload["percentile_ci"] == [2.0, 2.0]
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bootstrap_computes_point_estimate_once(capsys, monkeypatch, toy_files):
    import ssmean.cli
    import ssmean.estimators

    calls = []
    real = ssmean.estimators.estimate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ssmean.estimators, "estimate", counting)
    monkeypatch.setattr(ssmean.cli, "estimate", counting)
    lab, unl = toy_files
    code, out, _ = run_cli(capsys, "bootstrap", "--labeled", lab, "--unlabeled", unl, "--b", "5")
    assert code == 0
    assert len(calls) == 6  # the point estimate plus one refit per replicate
    assert json.loads(out)["estimate"] == real(ssmean.cli._load_design(lab, unl, None), "aipw").estimate


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(82)
    scores = rng.normal(size=40)
    outcomes = rng.normal(size=40)
    path = tmp_path / "roundtrip.csv"
    write_labeled_csv(path, scores=scores, outcomes=outcomes)
    from ssmean.cli import _read_csv_columns

    cols = _read_csv_columns(str(path), required=["y", "score"], optional=[])
    assert np.array_equal(cols["score"], scores)
    assert np.array_equal(cols["y"], outcomes)


def test_covariate_columns_flow_through(capsys, tmp_path):
    rng = np.random.default_rng(83)
    n, N = 20, 30
    x_l = rng.normal(size=(n, 1))
    m_l = rng.normal(size=n)
    y = x_l[:, 0] + m_l + rng.normal(scale=0.1, size=n)
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=m_l, outcomes=y, covariates=x_l, covariate_names=["age"])
    write_unlabeled_csv(unl, scores=rng.normal(size=N), covariates=rng.normal(size=(N, 1)), covariate_names=["age"])
    code, out, _ = run_cli(
        capsys, "estimate", "--labeled", str(lab), "--unlabeled", str(unl),
        "--method", "linear-cov-cal", "--covariates", "age",
    )
    assert code == 0
    assert np.isfinite(json.loads(out)["estimate"])
