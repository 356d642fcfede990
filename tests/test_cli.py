import csv
import json
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ssmean.cli
from ssmean import METHOD_NAMES, design_from_arrays, estimate
from ssmean.cli import _read_csv_columns, main, write_labeled_csv, write_unlabeled_csv
from ssmean.exceptions import DataError, SsmeanError


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


def test_missing_labeled_covariate_is_refused_before_the_unlabeled_file_is_read(capsys, tmp_path):
    lab = tmp_path / "l.csv"
    write_labeled_csv(lab, scores=[0.1, 0.5, 0.9], outcomes=[0.0, 1.0, 1.0])
    code, out, err = run_cli(
        capsys, "estimate", "--labeled", str(lab), "--unlabeled", str(tmp_path / "missing.csv"),
        "--method", "linear-cov-cal", "--covariates", "x1",
    )
    assert code == 2 and out == ""
    assert f"{lab}: missing column 'x1'" in err


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
    import dataclasses

    import ssmean.cli
    import ssmean.estimators
    import ssmean.inference

    calls, reports, fits, points, designs = [], [], [], [], []
    real, real_report, real_points = ssmean.estimators.estimate, ssmean.estimators._report, ssmean.inference._replicate_points
    real_design, aipw = ssmean.inference.TwoSampleDesign, ssmean.estimators.REGISTRY["aipw"]

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    def counting_report(scored, method, *args, **kwargs):
        reports.append(method)
        return real_report(scored, method, *args, **kwargs)

    def counting_fit(s, y, rows, bounds, context):
        fits.append(len(bounds) - 1)
        return aipw.stacked_fit(s, y, rows, bounds, context)

    def counting_points(design, method, name, seed, reps):
        points.append(name)
        return real_points(design, method, name, seed, reps)

    def counting_design(*args):
        designs.append(args)
        return real_design(*args)

    monkeypatch.setattr(ssmean.estimators, "estimate", counting)
    monkeypatch.setattr(ssmean.cli, "estimate", counting)
    monkeypatch.setattr(ssmean.estimators, "_report", counting_report)
    monkeypatch.setitem(ssmean.estimators.REGISTRY, "aipw", dataclasses.replace(aipw, stacked_fit=counting_fit))
    monkeypatch.setattr(ssmean.inference, "_replicate_points", counting_points)
    monkeypatch.setattr(ssmean.inference, "TwoSampleDesign", counting_design)
    # the toy has two labeled rows, so each stacked call fits two replicates
    monkeypatch.setattr(ssmean.inference, "_STACKED_ROWS", 4)
    lab, unl = toy_files
    code, out, _ = run_cli(capsys, "bootstrap", "--labeled", lab, "--unlabeled", unl, "--b", "5")
    assert code == 0
    assert calls == reports == ["aipw"]  # one report, for the point estimate
    assert fits == [1, 2, 2, 1]  # the point estimate's fit, then one stacked call per chunk of replicates
    assert points == designs == []  # no replicate builds a design or runs estimate()'s route alone
    assert json.loads(out)["estimate"] == real(ssmean.cli._load_design(lab, unl, None)[0], "aipw").estimate


def test_negative_seed_is_a_usage_error(capsys, toy_files):
    lab, unl = toy_files
    code, out, err = run_cli(capsys, "bootstrap", "--labeled", lab, "--unlabeled", unl, "--b", "5", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err.strip() == "ssmean: error: seed must be a non-negative integer, got -1"


@pytest.mark.parametrize("outcomes", ["binary", "continuous", "equal"])
def test_every_report_dumps_to_json_with_no_default(outcomes):
    """The CLI's json.dumps takes no default: every report field is a plain Python value.

    Each design holds covariates, so linear-cov-cal runs on it too.
    """
    rng = np.random.default_rng(85)
    n, N = 60, 240
    s, s_u = rng.uniform(size=n), rng.uniform(size=N)
    x, x_u = rng.normal(size=(n, 2)), rng.normal(size=(N, 2))
    y = {
        "binary": (rng.uniform(size=n) < s).astype(float),
        "continuous": s + x @ [1.0, -0.5] + rng.normal(size=n),
        "equal": np.full(n, 1.0),
    }[outcomes]
    design = design_from_arrays(s, y, s_u, x, x_u)
    for name in METHOD_NAMES:
        if name == "platt-cal" and outcomes == "continuous":
            with pytest.raises(SsmeanError):  # its outcomes are not binary
                estimate(design, name)
            continue
        report = estimate(design, name).to_dict()
        assert json.loads(json.dumps(report))["method"] == report["method"]


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


@pytest.mark.parametrize(
    "covariates, refused",
    [("score", "'score' is a required column"), ("y", "'y' is a required column"),
     ("age,age", "'age' is given more than once"), ("age,score", "'score' is a required column")],
)
def test_covariates_that_repeat_or_name_a_required_column_are_refused(capsys, tmp_path, covariates, refused):
    rng = np.random.default_rng(84)
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=rng.normal(size=20), outcomes=rng.normal(size=20),
                      covariates=rng.normal(size=(20, 1)), covariate_names=["age"])
    write_unlabeled_csv(unl, scores=rng.normal(size=30), covariates=rng.normal(size=(30, 1)), covariate_names=["age"])
    code, out, err = run_cli(
        capsys, "estimate", "--labeled", str(lab), "--unlabeled", str(unl),
        "--method", "linear-cov-cal", "--covariates", covariates,
    )
    assert code == 2 and out == ""
    assert f"--covariates: {refused}" in err


def _row_loop_oracle(path, required, optional):
    """The reader as it was before the loadtxt pass, opened as utf-8-sig."""
    columns = {name: [] for name in required + optional}
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc.strerror}") from exc
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, expected a header row")
        for name in required:
            if name not in reader.fieldnames:
                raise DataError(f"{path}: missing column '{name}'")
        present_optional = [name for name in optional if name in reader.fieldnames]
        for name in optional:
            if name not in reader.fieldnames:
                del columns[name]
        for row in reader:
            for name in required + present_optional:
                raw = row.get(name)
                if raw is None or raw == "":
                    raise DataError(f"{path} line {reader.line_num}: empty value in column '{name}'")
                try:
                    columns[name].append(float(raw))
                except ValueError:
                    raise DataError(
                        f"{path} line {reader.line_num}: could not parse {raw!r} in column '{name}'"
                    ) from None
    return {name: np.array(vals, dtype=np.float64) for name, vals in columns.items()}


def _outcome(reader, path, required, optional):
    try:
        columns = reader(path, required, optional)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    for vec in columns.values():
        assert vec.dtype == np.float64 and vec.ndim == 1
    return "ok", {name: vec.view(np.int64).tolist() for name, vec in columns.items()}


_ODD_FIELDS = [
    "", " ", "\t", "nan", "-nan", "NaN", "inf", "-Infinity", "1e999", "-1e999", "1e-400", "abc",
    "1_000", " 1.5 ", "١", "１", "0x1p3", "1e", "+.5", "#1", "1,5", '"2"', 'x"y', "a\nb", "3\r",
]
_float_fields = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.integers(-99, 99).map(str)
_fields = st.integers(0, 14).flatmap(
    lambda k: _float_fields if k else st.sampled_from(_ODD_FIELDS) | st.text(',"\r\n a1.e', max_size=6)
)
_newlines = st.sampled_from(["\n", "\r\n", "\r"])


def _quote(field, quoted):
    return '"' + field.replace('"', '""') + '"' if quoted else field


@st.composite
def _csv_cases(draw):
    """(CSV bytes, required, optional): an optional BOM, mixed line endings, quoting,
    blank lines, ragged rows, and headers that mostly hold the required names."""
    required = draw(st.sampled_from([["y", "score"], ["score"]]))
    optional = draw(st.sampled_from([[], ["age"], ["note", "age"], ["score"]]))
    names = st.sampled_from(["y", "score", "age", "note", ""])
    header = draw(st.lists(names, max_size=3))
    if draw(st.integers(0, 4)):
        header = draw(st.permutations(header + required))
    header = header or [""]
    width = len(header)
    rows = draw(st.lists(st.lists(_fields, min_size=width, max_size=width), max_size=5))
    if rows and draw(st.integers(0, 3)) == 0:  # a ragged row
        rows[-1] = rows[-1][: draw(st.integers(0, width - 1))] + draw(st.lists(_fields, max_size=2))
    lines = [header] + rows
    text = ""
    for i, cells in enumerate(lines):
        if i and draw(st.integers(0, 5)) == 0:
            text += draw(st.sampled_from(["", "  ", '""'])) + draw(_newlines)
        text += ",".join(_quote(cell, draw(st.booleans())) for cell in cells)
        if i < len(lines) - 1 or draw(st.booleans()):
            text += draw(_newlines)
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), required, optional


@settings(max_examples=400)
@given(case=_csv_cases())
@example(case=(b'note,score\r\n"a,7,b",3.5\r\n', ["score"], []))
@example(case=(b"score,y,score\n1,2,3\n", ["y", "score"], []))
@example(case=(b"y,score\n", ["y", "score"], []))
@example(case=(b'score,"a\n1,2"\n3,4\n', ["score"], []))
@example(case=(b"score\n#1\n2\n", ["score"], []))
@example(case=(b"\xef\xbb\xbfscore\r\n0.5\r\n", ["score"], []))
def test_ingest_matches_the_row_loop_bit_for_bit(case):
    """Each file gives the row loop's values bit for bit, or its exact error, and no warning."""
    data, required, optional = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        want = _outcome(_row_loop_oracle, path, required, optional)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _outcome(_read_csv_columns, path, required, optional)
    assert got == want
    assert [str(w.message) for w in caught] == []


def test_well_formed_files_never_reach_the_row_loop(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("row loop called")

    monkeypatch.setattr(ssmean.cli, "_read_rows", refuse)
    path = tmp_path / "in.csv"
    path.write_bytes(b'\xef\xbb\xbfnote,y,score,y\r\n"a,""b""\r\nc",9,0.25,1e-3\r\n\r\n x ,9,-0.0,nan\r\n')
    cols = _read_csv_columns(str(path), required=["y", "score"], optional=["age"])
    assert set(cols) == {"y", "score"}
    assert cols["y"][0] == 1e-3 and np.isnan(cols["y"][1])
    assert cols["score"].tolist() == [0.25, 0.0] and np.signbit(cols["score"][1])


def test_piped_input_is_read_once_and_whole(tmp_path):
    """A pipe named by path (as ``/dev/stdin`` or ``<(zcat u.csv.gz)`` are) can be
    read once: every row must arrive, though the file is well past one 8 KB buffer."""
    path = tmp_path / "u.csv"
    write_unlabeled_csv(path, scores=np.random.default_rng(84).normal(size=5000))
    data = path.read_bytes()
    assert len(data) > 64 * 1024
    want = _outcome(_row_loop_oracle, str(path), ["score"], [])
    read_end, write_end = os.pipe()

    def feed():
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        got = _outcome(_read_csv_columns, f"/dev/fd/{read_end}", ["score"], [])
    finally:
        os.close(read_end)
        feeder.join(timeout=30)
    assert not feeder.is_alive()
    assert got == want


def test_utf8_bom_is_not_part_of_the_header(capsys, tmp_path):
    lab = tmp_path / "l.csv"
    unl = tmp_path / "u.csv"
    write_labeled_csv(lab, scores=[0.0, 1.0], outcomes=[1.0, 3.0])
    write_unlabeled_csv(unl, scores=[0.5])
    for path in (lab, unl):
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    code, out, err = run_cli(
        capsys, "estimate", "--labeled", str(lab), "--unlabeled", str(unl), "--method", "linear-cal"
    )
    assert code == 0, err
    assert json.loads(out)["estimate"] == 2.0


def _reference_csv(path, header, columns):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*[np.asarray(col).tolist() for col in columns]):
            writer.writerow([repr(float(v)) for v in row])


@pytest.mark.parametrize("covariates", [False, True])
@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)])
def test_writers_match_csv_writer_byte_for_byte(tmp_path, covariates, chunks, extra):
    rows = chunks * ssmean.cli._WRITE_CHUNK_ROWS + extra
    rng = np.random.default_rng(rows + covariates)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e300, -1e300, 3.0, -42.0, 1e16, np.inf, np.nan]
    exotic = np.concatenate([special, rng.standard_normal(400) * 10.0 ** rng.integers(-300, 300, size=400)])
    values = rng.integers(-9999, 9999, size=(rows, 3)) / 8.0  # short reprs keep the 65k-row cases quick
    values.flat[: min(values.size, exotic.size)] = exotic[: values.size]
    y, score, cov = values[:, 0], values[:, 1], values[:, 2:]
    names = ['a,"b"'] if covariates else None
    write_labeled_csv(tmp_path / "l.csv", scores=score, outcomes=y, covariates=cov if covariates else None,
                      covariate_names=names)
    write_unlabeled_csv(tmp_path / "u.csv", scores=score, covariates=cov if covariates else None,
                        covariate_names=names)
    cov_cols = list(cov.T) if covariates else []
    _reference_csv(tmp_path / "l_ref.csv", ["y", "score"] + (names or []), [y, score] + cov_cols)
    _reference_csv(tmp_path / "u_ref.csv", ["score"] + (names or []), [score] + cov_cols)
    assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "l_ref.csv").read_bytes()
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "u_ref.csv").read_bytes()


@pytest.mark.parametrize("command", ["estimate", "compare", "bootstrap"])
def test_trace_leaves_stdout_and_output_byte_identical(capsys, tmp_path, toy_files, command):
    lab, unl = toy_files
    argv = [command, "--labeled", lab, "--unlabeled", unl] + (["--b", "5"] if command == "bootstrap" else [])
    code, plain, plain_err = run_cli(capsys, *argv)
    assert code == 0 and plain_err == ""
    code, traced, traced_err = run_cli(capsys, *argv, "--trace")
    assert code == 0 and traced == plain
    record = json.loads(traced_err)
    assert record["command"] == command and record["n"] == 2 and record["N"] == 1
    assert set(record) == {"command", "n", "N", "ingest_s", "design_s", "fit_report_s"}
    assert all(record[k] >= 0.0 for k in ("ingest_s", "design_s", "fit_report_s"))
    outputs = []
    for flags in ([], ["--trace"]):
        out = tmp_path / f"{command}{len(flags)}.out"
        code, stdout, _ = run_cli(capsys, *argv, *flags, "--output", str(out))
        assert code == 0 and stdout == ""
        outputs.append(out.read_bytes())
    assert outputs == [plain.encode("utf-8")] * 2
