"""Output parity of a checkout: one ``<entry> <sha256>`` line per output.

Run it from the root of each of two checkouts and compare the outputs:

    PYTHONPATH=src python tools/parity.py > parity.txt
    diff old/parity.txt new/parity.txt

Every entry hashes its output exactly: floats by float.hex, arrays by dtype,
shape and bytes, dict keys in their order, and a refusal by its exception
class and message. Any numpy warning raised on the way is part of the
entry. It covers every method's estimate(...).to_dict() on seeded
draw_dataset designs, tie-heavy, covariate, near-limit and refusal designs;
bootstrap replicates (auto-cal at b=3); autocal_select's CV tables; every
fit_* (fields, repr and predictions) with calibrated_plugin of it;
crossfit_calibrated, ate_two_arm and eem_lambda, about 1800 entries in a
few seconds. ``--show ENTRY`` prints the hashed value of each entry whose
name starts with ENTRY instead of its hash.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ssmean  # noqa: E402
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
    """Paper designs at three sizes, then tie-heavy, covariate, near-limit and refusal designs."""
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
             "outcomes1e308", "binary-n8"]
    for label in boots:
        for method in METHOD_NAMES:
            b = 3 if method == "auto-cal" else (30 if ds[label].n > 1000 else 12)

            def boot(d=ds[label], m=method, b=b):
                res = bootstrap(d, m, b=b, seed=11)
                return res.estimate, res.replicates, res.se_boot, res.percentile_ci, res.normal_ci

            yield f"bootstrap/{label}/{method}", boot

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


def main(argv) -> None:
    show = argv[argv.index("--show") + 1] if "--show" in argv else None
    for name, call in entries():
        if show is None:
            print(name, hashlib.sha256(repr(record(call)).encode()).hexdigest())
        elif name.startswith(show):
            print(name, record(call))


if __name__ == "__main__":
    main(sys.argv[1:])
