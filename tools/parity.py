"""Output parity of a checkout: one ``<entry> <sha256>`` line per output.

Run it from the root of each of two checkouts and compare the outputs:

    PYTHONPATH=src python tools/parity.py > parity.txt
    diff old/parity.txt new/parity.txt

The code hashed is the first ssmean on the import path: PYTHONPATH chooses
it, and without one the tool falls back to its own checkout's src.

The first line names the Python, numpy and SciPy versions. The output at
the last change that moved an output is committed as tests/data/parity.txt,
which tests/test_parity.py compares entry by entry; a change that moves an
output on purpose regenerates it with

    PYTHONPATH=src python tools/parity.py > tests/data/parity.txt

Every entry hashes its output exactly: floats by float.hex, arrays by dtype,
shape and bytes, dict keys in their order, and a refusal by its exception
class and message. Any numpy warning raised on the way is part of the
entry. It covers every method's estimate(...).to_dict() on seeded
draw_dataset designs, tie-heavy, covariate, near-limit, signed-zero and
refusal designs; bootstrap replicates (auto-cal at b=3; iso-cal, hist-cal
and venn-abers also at n=1200 with b=100, four chunks); autocal_select's
CV tables; every fit_* (fields, repr and predictions) with
calibrated_plugin of it; crossfit_calibrated, ate_two_arm and eem_lambda;
and the exit code, stdout and stderr of ssmean.cli.main (estimate,
compare, bootstrap) on fixed CSV files, a well-formed pair and odd ones (a
byte-order mark, a quoted newline in the header, blank lines, a malformed
field, a missing column, an empty body, covariates): about 1850 entries in
a few seconds. ``--show ENTRY`` prints the hashed value of each entry
whose name starts with ENTRY instead of its hash.

To say by how much a change moves the outputs that differ, dump the hashed
values in both checkouts and compare the dumps:

    PYTHONPATH=src python tools/parity.py --dump values.jsonl > parity.txt
    python tools/parity.py --diff old/values.jsonl new/values.jsonl

``--dump FILE`` writes each entry's hashed value to FILE as one JSON line,
``{"entry": name, "value": value}``, and prints the hashes as usual.
``--diff OLD NEW`` reads two dumps and prints, for each entry that differs,
how many floats differ (each float and each float64 array element counts
once), the largest relative change |new - old| / |old| among them with its
distance in units in the last place of the old value, where in the value
it is and both values, and how many other values differ; it runs no entry.
A dataclass is compared by its fields: its repr, which restates them,
counts as one other value only when no field differs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import scipy

# appended, so an ssmean earlier on the path (PYTHONPATH=<checkout>/src) is the code hashed
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import ssmean  # noqa: E402
import ssmean.cli  # noqa: E402
from ssmean import (  # noqa: E402
    METHOD_NAMES,
    CandidateSet,
    DgpSpec,
    ate_two_arm,
    autocal_select,
    bootstrap,
    calibrated_plugin,
    crossfit_calibrated,
    design_from_arrays,
    draw_dataset,
    eem_lambda,
    estimate,
    ols_trainer,
    predict,
)

SELECTABLE = tuple(m for m in METHOD_NAMES if m != "auto-cal")


def canon(v):
    """v as nested tuples of exact primitives: floats as float.hex, arrays as (dtype, shape, bytes)."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, np.ndarray):
        return (str(v.dtype), v.shape, v.tobytes().hex())
    if isinstance(v, dict):
        return tuple((k, canon(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return (type(v).__name__, *map(canon, v))
    if dataclasses.is_dataclass(v):
        return (type(v).__name__, repr(v), *((f.name, canon(getattr(v, f.name))) for f in dataclasses.fields(v)))
    return repr(v)


def record(call) -> tuple:
    """call()'s value, or its exception's class and message, with the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = ("value", canon(call()))
        except Exception as exc:  # every refusal counts, whatever its class
            out = ("raise", type(exc).__name__, str(exc))
    return out + tuple((w.category.__name__, str(w.message)) for w in caught)


def designs() -> dict:
    """Paper designs at three sizes, then tie-heavy, covariate, near-limit, refusal and signed-zero designs."""
    out = {}
    for n, ratio, seeds in ((1200, 16, 8), (200, 5, 30), (50, 4, 30)):
        for seed in range(seeds):
            out[f"dgp{n}x{ratio}s{seed}"] = draw_dataset(DgpSpec(n, ratio, seed))
    rng = np.random.default_rng(20261020)
    for n in (8, 12, 30, 57, 120, 400):
        s_l, s_u = np.round(rng.uniform(size=n), 1), np.round(rng.uniform(size=4 * n), 1)
        out[f"ties-continuous{n}"] = design_from_arrays(s_l, s_l + rng.normal(size=n), s_u)
        out[f"ties-binary{n}"] = design_from_arrays(s_l, (rng.uniform(size=n) < s_l).astype(float), s_u)
        out[f"ties-scaled{n}"] = design_from_arrays(1e153 * s_l, 1e150 * rng.normal(size=n), 1e153 * s_u)
    for n, d in ((40, 1), (90, 2), (300, 3)):
        s_l, s_u = rng.uniform(size=n), rng.uniform(size=5 * n)
        x_l, x_u = rng.normal(size=(n, d)), rng.normal(size=(5 * n, d))
        y = s_l + x_l @ np.arange(1.0, d + 1) + rng.normal(size=n)
        out[f"cov{n}d{d}"] = design_from_arrays(s_l, y, s_u, x_l, x_u)
        out[f"cov{n}d{d}-ties"] = design_from_arrays(np.round(s_l, 1), (y > 0).astype(float), np.round(s_u, 1), x_l, x_u)
    adjacent = np.nextafter(0.5, 1.0) ** np.arange(5) * 0.5
    out["adjacent-floats"] = design_from_arrays(np.repeat(adjacent, 4), rng.normal(size=20), rng.choice(adjacent, 50))
    out["offset1e6"] = design_from_arrays(1e6 + rng.normal(size=30), rng.uniform(size=30), 1e6 + rng.normal(size=90))
    out["binary-n8"] = design_from_arrays(np.linspace(0.1, 0.9, 8), [0, 0, 1, 0, 1, 1, 0, 1], rng.uniform(size=20))
    # refusal designs: too few rows, constant scores, values near the float64 limit, bad covariates
    out["n1"] = design_from_arrays([0.3], [1.0], [0.1, 0.2])
    out["n3"] = design_from_arrays([0.1, 0.5, 0.9], [0.0, 1.0, 1.0], [0.2, 0.4, 0.6, 0.8])
    out["constant-score"] = design_from_arrays(np.full(12, 0.4), rng.uniform(size=12), np.full(30, 0.4))
    out["outcomes1e308"] = design_from_arrays(np.arange(6) / 6, [1e308, -1e308, 1.7e308, 1e308, -1.7e308, 1e308],
                                              np.arange(12) / 12)
    out["outcomes1e308-ties"] = design_from_arrays([0.1, 0.1, 0.5, 0.5, 0.9, 0.9], [1.7e308] * 6, [0.1, 0.5, 0.9])
    out["scores1e308"] = design_from_arrays([1.7e308, -1.7e308, 1e308, 0.0, 1.0, 2.0], np.arange(6.0), [1.7e308, 0.0])
    x = rng.normal(size=(20, 1))
    out["collinear-cov"] = design_from_arrays(x[:10, 0], rng.normal(size=10), x[10:, 0], np.hstack([x[:10], x[:10]]),
                                              np.hstack([x[10:], x[10:]]))
    out["labeled-cov-only"] = design_from_arrays(x[:10, 0], rng.normal(size=10), x[10:, 0], x[:10])
    # -0.0 and 0.0 in both samples: one tie group, and a cut at zero in the step maps
    zeros = np.array([-0.0, 0.0, -0.5, 0.5, 1.0])
    s_l = rng.choice(zeros, 30)
    out["signed-zeros"] = design_from_arrays(s_l, (rng.uniform(size=30) < 0.5 + 0.4 * s_l).astype(float),
                                             rng.choice(zeros, 90))
    return out


def entries():
    """Yield (name, call) for every output."""
    ds = designs()
    for label, d in ds.items():
        for method in METHOD_NAMES:
            yield f"estimate/{label}/{method}", lambda d=d, m=method: estimate(d, m, seed=7).to_dict()
        yield f"eem_lambda/{label}", lambda d=d: (eem_lambda(d), eem_lambda(d, (0.0, 1.0)))

    boots = ["dgp1200x16s0", "dgp1200x16s1", "dgp200x5s0", "dgp200x5s1", "dgp50x4s0", "ties-continuous12",
             "ties-binary400", "ties-continuous30", "ties-binary120", "cov90d2", "cov40d1-ties", "offset1e6",
             "outcomes1e308", "binary-n8", "signed-zeros"]
    for label in boots:
        for method in METHOD_NAMES:
            b = 3 if method == "auto-cal" else (30 if ds[label].n > 1000 else 12)

            def boot(d=ds[label], m=method, b=b):
                res = bootstrap(d, m, b=b, seed=11)
                return res.estimate, res.replicates, res.se_boot, res.percentile_ci, res.normal_ci

            yield f"bootstrap/{label}/{method}", boot
    # the step maps at paper size over 4 chunks of replicates
    for method in ("iso-cal", "hist-cal", "venn-abers"):
        yield f"bootstrap-b100/dgp1200x16s0/{method}", lambda m=method: bootstrap(ds["dgp1200x16s0"], m, b=100,
                                                                                  seed=11).replicates

    candidate_sets = {
        "default": CandidateSet(["aipw", "linear-cal", "iso-cal", "hist-cal"]),
        "all5": CandidateSet(list(SELECTABLE), folds=5),
        "steps3": CandidateSet(["iso-cal", "venn-abers", "platt-cal", "iso-cal"], folds=3, unlabeled_cap_factor=2),
    }
    for label in ("dgp1200x16s1", "dgp200x5s0", "dgp50x4s1", "ties-continuous30", "ties-binary120", "cov300d3", "n3"):
        for cname, cands in candidate_sets.items():
            yield f"autocal_select/{label}/{cname}", lambda d=ds[label], c=cands: autocal_select(d, c, seed=3)

    for label in ("dgp200x5s0", "dgp50x4s2", "ties-continuous30", "ties-binary120", "cov90d2", "cov40d1-ties",
                  "constant-score", "offset1e6", "outcomes1e308", "binary-n8"):
        d = ds[label]
        lab = d.labeled
        grid = np.concatenate((lab.scores, d.unlabeled.scores[:200], [-1e9, -1.0, 0.0, 0.5, 1.0, 1e9]))
        x_grid = None if lab.covariates is None else np.concatenate(
            (lab.covariates, d.unlabeled.covariates[:200], np.zeros((6, lab.covariates.shape[1]))))
        s, y, x = lab.scores, lab.outcomes, lab.covariates
        fits = {
            "isotonic": lambda: ssmean.fit_isotonic(s, y),
            "linear": lambda: ssmean.fit_linear(s, y),
            "linear-clip": lambda: ssmean.fit_linear(s, y, clip=True),
            "platt": lambda: ssmean.fit_platt(s, y),
            "platt-eps": lambda: ssmean.fit_platt(s, y, logit_eps=1e-3),
            "histogram": lambda: ssmean.fit_histogram(s, y),
            "histogram-edges": lambda: ssmean.fit_histogram(s, y, edges=np.linspace(-0.5, 1.5, 21)),
            "venn-abers": lambda: ssmean.fit_venn_abers(s, np.clip(y, 0.0, 1.0), 0.3),
        }
        if x is not None:
            fits["linear-cov"] = lambda: ssmean.fit_linear_cov(s, y, x)
            fits["linear-cov-clip"] = lambda: ssmean.fit_linear_cov(s, y, x, clip=True)
        # each fit runs here, before this design's loop moves on, so its closure reads this design
        for fname, fit in fits.items():
            try:
                f = fit()
            except Exception:
                yield f"fit/{label}/{fname}", fit  # recorded at once, as its refusal
                continue
            yield f"fit/{label}/{fname}", lambda f=f: f
            yield f"predict/{label}/{fname}", lambda f=f: predict(f, grid, x_grid)
            yield f"calibrated_plugin/{label}/{fname}", lambda f=f, d=d, fname=fname: calibrated_plugin(
                d, f, method_name=fname).to_dict()
    # one-decimal outcomes whose diagram has a vertex within an ulp of collinear with its hull neighbours:
    # its label-0 values depend on the direction the hull is scanned in
    s = np.repeat(np.arange(34), [2, 2, 1, 2, 2, 3, 3, 3, 1, 3, 3, 3, 3, 2, 1, 1, 2, 1, 1, 3, 1, 1, 2, 2, 1, 1, 2, 2, 3,
                                  1, 1, 2, 1, 1]) / 100
    y = [0.3, 0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3, 0.7, 0.3, 0.5, 0.8, 0.9, 0.0, 0.5, 0.5, 0.1, 0.8, 0.1, 0.4, 0.2, 0.6,
         0.7, 0.4, 0.3, 0.9, 0.9, 0.9, 0.5, 0.6, 0.9, 0.8, 0.6, 0.7, 0.3, 1.0, 0.2, 0.6, 0.8, 0.3, 0.5, 0.2, 0.8, 0.5,
         0.9, 0.4, 0.9, 0.1, 0.3, 0.4, 0.5, 0.9, 0.8, 0.1, 0.3, 0.0, 0.2, 0.9, 0.8, 0.8, 0.3, 0.6, 0.5]
    yield "fit/near-collinear-decimal/venn-abers", lambda s=s, y=y: ssmean.fit_venn_abers(s, y, -0.5)

    for label in ("cov90d2", "cov300d3", "cov40d1-ties"):
        d = ds[label]
        lab, unl = d.labeled, d.unlabeled
        for method in SELECTABLE:
            yield f"crossfit/{label}/{method}", lambda lab=lab, unl=unl, m=method: crossfit_calibrated(
                lab.covariates, lab.outcomes, unl.covariates, ols_trainer, m, k=5, seed=2).to_dict()

    arms = [(draw_dataset(DgpSpec(200, 1, s)), draw_dataset(DgpSpec(150, 1, s + 10))) for s in range(2)]
    arms.append((ds["ties-continuous120"], ds["ties-binary30"]))
    for i, (t, c) in enumerate(arms):
        for method in METHOD_NAMES:
            yield f"ate/{i}/{method}", lambda t=t, c=c, m=method: ate_two_arm(
                t.labeled.outcomes, (t.labeled.scores, c.labeled.scores + 0.05),
                c.labeled.outcomes, (c.labeled.scores, t.labeled.scores - 0.05), m, seed=5).to_dict()

    yield from cli_entries()


def cli_files() -> dict:
    """(labeled, unlabeled) CSV text for each CLI entry: a well-formed pair, then one odd file each."""
    rng = np.random.default_rng(20261021)
    s_l, s_u = np.round(rng.uniform(size=40), 3), np.round(rng.uniform(size=120), 3)
    y = (rng.uniform(size=40) < s_l).astype(int).tolist()
    x_l, x_u = np.round(rng.normal(size=40), 2).tolist(), np.round(rng.normal(size=120), 2).tolist()
    s_l, s_u = s_l.tolist(), s_u.tolist()
    lab = "y,score\r\n" + "".join(f"{a},{b!r}\r\n" for a, b in zip(y, s_l))
    unl = "score\n" + "".join(f"{b!r}\n" for b in s_u)
    rows = lab.split("\r\n")
    return {
        "pair": (lab, unl),
        "bom": ("\ufeff" + lab, "\ufeff" + unl),
        "quoted-newline-header": ('y,"note\nkept",score\r\n' + "".join(f"{a},n,{b!r}\r\n" for a, b in zip(y, s_l)),
                                  unl),
        "blank-lines": ("\r\n".join(rows[:5] + ["", ""] + rows[5:]), unl.replace("\n", "\n\n", 3)),
        "malformed-field": ("\r\n".join(rows[:7] + ["1,0.5x"] + rows[7:]), unl),
        "missing-column": (lab.replace("y,score", "outcome,score", 1), unl),
        "empty-body": (lab, "score\n"),
        "covariates": ("y,score,x1\n" + "".join(f"{a},{b!r},{c!r}\n" for a, b, c in zip(y, s_l, x_l)),
                       "x1,score\n" + "".join(f"{c!r},{b!r}\n" for b, c in zip(s_u, x_u))),
    }


def run_cli(files, *argv):
    """ssmean.cli.main's exit code, stdout and stderr on the two files, named relative to a fresh directory."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # contextlib.chdir is Python 3.11 on
        try:
            for name, text in zip(("labeled.csv", "unlabeled.csv"), files):
                with open(name, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ssmean.cli.main([*argv, "--labeled", "labeled.csv", "--unlabeled", "unlabeled.csv"])
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def cli_entries():
    """Yield (name, call) for each CLI run: estimate, compare and bootstrap on the pair, estimate on each odd file."""
    files = cli_files()
    pair = files.pop("pair")
    for method in ("aipw", "iso-cal"):
        yield f"cli/estimate/pair/{method}", lambda m=method: run_cli(pair, "estimate", "--method", m)
    yield "cli/compare/pair", lambda: run_cli(pair, "compare")
    yield "cli/bootstrap/pair/iso-cal", lambda: run_cli(pair, "bootstrap", "--method", "iso-cal", "--b", "5")
    for label, case in files.items():
        argv = ("--method", "linear-cov-cal", "--covariates", "x1") if label == "covariates" else ()
        yield f"cli/estimate/{label}", lambda case=case, argv=argv: run_cli(case, "estimate", *argv)


# a float as canon writes it: float.hex, or inf and nan
_HEX_FLOAT = re.compile(r"-?(0x[0-9a-f]\.?[0-9a-f]*p[-+]\d+|inf)|nan")


def _is_dataclass(v) -> bool:
    """Whether v, loaded from a dump, is canon's form of a dataclass: [name, repr, [field, value], ...]."""
    return isinstance(v, list) and len(v) >= 2 and isinstance(v[0], str) and isinstance(v[1], str) \
        and v[1].startswith(v[0] + "(") and all(isinstance(f, list) and len(f) == 2 and isinstance(f[0], str) for f in v[2:])


def _moved(old, new, out: dict, path: str = "") -> None:
    """Add the differences of two canonical values at path to out: floats that differ, the largest change, other values."""
    if isinstance(old, str) and isinstance(new, str) and old != new and _HEX_FLOAT.fullmatch(old) and _HEX_FLOAT.fullmatch(new):
        pairs = np.array([float.fromhex(old)]), np.array([float.fromhex(new)])
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new) == 3 and old[0] == new[0] == "float64" \
            and old[1] == new[1] and isinstance(old[2], str) and isinstance(new[2], str):
        # a float64 array, as (dtype, shape, bytes in hex)
        pairs = tuple(np.frombuffer(bytes.fromhex(v[2]), dtype=np.float64) for v in (old, new))
    elif _is_dataclass(old) and _is_dataclass(new) and old[0] == new[0] and len(old) == len(new):
        # compared by its fields; the repr, which restates them, counts only when no field differs
        before = (out["floats"], out["other"])
        _moved(old[2:], new[2:], out, path)
        out["other"] += before == (out["floats"], out["other"]) and old[1] != new[1]
        return
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            if isinstance(a, list) and len(a) == 2 and isinstance(a[0], str) and a[0] == b[0]:
                # a dict item, (key, value), is named by its key
                _moved(a[1], b[1], out, f"{path}/{a[0]}")
            else:
                _moved(a, b, out, f"{path}/{i}")
        return
    else:
        out["other"] += old != new
        return
    a, b = pairs
    differ = a.view(np.int64) != b.view(np.int64)
    out["floats"] += int(differ.sum())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = np.abs(b - a) / np.abs(a)
        ulps = np.abs(b - a) / np.spacing(np.abs(a))
    for i in np.flatnonzero(differ).tolist():
        # a NaN change (one side NaN) ranks above every finite one
        if out["rel"] is None or not rel[i] <= out["rel"]:
            out.update(rel=float(rel[i]), ulps=float(ulps[i]), at=path if len(a) == 1 else f"{path}[{i}]",
                       was=float(a[i]), now=float(b[i]))


def diff(old_path: str, new_path: str) -> None:
    """Print, for each entry of two --dump files that differs, how much of it moved."""
    dumps = []
    for path in (old_path, new_path):
        with open(path) as f:
            dumps.append({row["entry"]: row["value"] for row in map(json.loads, f)})
    old, new = dumps
    for name in [*old, *(name for name in new if name not in old)]:
        if name not in old or name not in new:
            print(name, "only in", old_path if name in old else new_path)
        elif old[name] != new[name]:
            out = {"floats": 0, "rel": None, "other": 0}
            _moved(old[name], new[name], out)
            change = "" if out["rel"] is None else \
                f", largest relative change {out['rel']:.3g} ({out['ulps']:.3g} ulp) at {out['at']}: " \
                f"{out['was']!r} -> {out['now']!r}"
            print(f"{name}: {out['floats']} floats differ{change}; {out['other']} other values differ")


def header() -> str:
    """The output's first line: the Python, numpy and SciPy versions the hashes were taken under."""
    return f"# python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"


def hashed(dump=None):
    """Yield the header, then one "<entry> <sha256>" line per entry; dump, if given, gets each hashed value."""
    yield header()
    for name, call in entries():
        value = record(call)
        if dump is not None:
            dump.write(json.dumps({"entry": name, "value": value}) + "\n")
        yield f"{name} {hashlib.sha256(repr(value).encode()).hexdigest()}"


def main(argv) -> None:
    if "--diff" in argv:
        i = argv.index("--diff")
        return diff(argv[i + 1], argv[i + 2])
    if "--show" in argv:
        show = argv[argv.index("--show") + 1]
        for name, call in entries():
            if name.startswith(show):
                print(name, record(call))
        return
    with open(argv[argv.index("--dump") + 1], "w") if "--dump" in argv else contextlib.nullcontext() as dump:
        for line in hashed(dump):
            print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
