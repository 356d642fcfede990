"""The five seeded workloads and the checks on their outputs.

Every input comes from ``ssmean.simulate.draw_dataset`` with the default
miscalibrated DGP (its 0.01/0.99 clip makes real ties in the scores). A
workload owns a small pool of entries derived from the workload seed; the
timed loop cycles over them. Ops look the public functions up on the
``ssmean`` modules at call time, so the traced run sees every call.

Checks run after the timed phase and are independent of the code under
test where possible: closed forms for the raw-score methods, a
tie-pooled ``scipy.optimize.isotonic_regression`` fit for iso-cal, and
``np.loadtxt`` for the CLI input files. ``reference(out)`` lists the numbers
of an output: every op is compared by it with the first op on the same
input, and reference.json stores it for the default seed.
"""
import json
import math
import zlib
from statistics import NormalDist

import numpy as np
from scipy.optimize import isotonic_regression

import ssmean
import ssmean.cli
from ssmean import simulate
from ssmean._rng import SIM_DRAW

Z = NormalDist().inv_cdf(0.975)  # every op uses the default alpha = 0.05
RAW_TOL = 1e-10
ISO_TOL = 1e-9
SAME_TOL = 1e-12

PAPER_N, PAPER_RATIO = 1200, 16
RAW = ("labeled-only", "ppi", "aipw", "ppi-pp", "aipw-em")
CALIBRATED = ("linear-cal", "iso-cal", "hist-cal", "venn-abers")


def entry_seed(seed, name, j):
    """Seed of pool entry j, derived from the workload seed and name only."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode()), j])
    return int(ss.generate_state(1, np.uint32)[0])


def _draw(n, ratio, seed):
    return simulate.draw_dataset(simulate.DgpSpec(n=n, ratio=ratio, seed=seed))


# --- independent expected values ---------------------------------------------


def _family_se(y, f_l, f_u, psi):
    """Influence SE of the family member with adjustment f, recentered on psi."""
    n, big_n = len(f_l), len(f_u)
    rho = n / (n + big_n)
    shift = psi - (rho * f_l.mean() + (1.0 - rho) * f_u.mean())
    d_l = f_l + shift - psi + (y - f_l - shift) / rho
    d_u = f_u + shift - psi
    return math.sqrt(float(d_l @ d_l + d_u @ d_u)) / (n + big_n)


def raw_forms(y, m_l, m_u):
    """(estimate, SE) of each raw-score method in closed form."""
    n, big_n = len(m_l), len(m_u)
    rho = n / (n + big_n)
    out = {"labeled-only": (y.mean(), y.std(ddof=1) / math.sqrt(n))}
    psi = m_u.mean() + (y - m_l).mean()
    out["ppi"] = (psi, _family_se(y, m_l / (1 - rho), m_u / (1 - rho), psi))
    psi = rho * m_l.mean() + (1 - rho) * m_u.mean() + (y - m_l).mean()
    out["aipw"] = (psi, _family_se(y, m_l, m_u, psi))
    cov = np.mean((y - y.mean()) * (m_l - m_l.mean()))
    lam = cov / ((1 - rho) * m_l.var() + rho * m_u.var())
    for name, coef in (("aipw-em", lam), ("ppi-pp", min(max(lam, 0.0), 1 / (1 - rho)))):
        psi = y.mean() + (1 - rho) * coef * (m_u.mean() - m_l.mean())
        out[name] = (psi, _family_se(y, coef * m_l, coef * m_u, psi))
    return {k: (float(e), float(s)) for k, (e, s) in out.items()}


def iso_form(y, m_l, m_u):
    """(estimate, SE) of iso-cal from a tie-pooled scipy isotonic fit."""
    uniq, inverse, counts = np.unique(m_l, return_inverse=True, return_counts=True)
    pooled = np.bincount(inverse, weights=y) / counts
    fitted = isotonic_regression(pooled, weights=counts.astype(np.float64)).x
    f_l = fitted[inverse]
    f_u = fitted[np.clip(np.searchsorted(uniq, m_u, side="right") - 1, 0, len(uniq) - 1)]
    rho = len(m_l) / (len(m_l) + len(m_u))
    psi = rho * f_l.mean() + (1 - rho) * f_u.mean() + (y - f_l).mean()
    return float(psi), _family_se(y, f_l, f_u, psi)


def _arrays(design):
    return design.labeled.outcomes, design.labeled.scores, design.unlabeled.scores


# --- checks ------------------------------------------------------------------


def _close(errs, label, got, want, tol):
    if not abs(got - want) <= tol:
        errs.append(f"{label}: got {got!r}, expected {want!r} (tol {tol})")


def check_interval(errs, label, est, se, lo, hi):
    """SE finite and positive; the CI is estimate +/- z * SE."""
    if not (math.isfinite(se) and se > 0):
        errs.append(f"{label}: standard error {se!r} is not finite and positive")
        return
    tol = SAME_TOL * max(1.0, abs(est))
    _close(errs, f"{label} ci_lower", lo, est - Z * se, tol)
    _close(errs, f"{label} ci_upper", hi, est + Z * se, tol)


def check_reports(errs, entry, reports, methods):
    """Check one op's EstimateReports against the entry's expected values."""
    exp = entry["expected"]
    if len(reports) != len(methods):
        errs.append(f"expected {len(methods)} reports, got {len(reports)}")
        return
    for name, r in zip(methods, reports):
        if r.method != name:
            errs.append(f"report for {name} is labeled {r.method!r}")
        check_interval(errs, name, r.estimate, r.std_error, r.ci_lower, r.ci_upper)
        if name in RAW:
            _close(errs, f"{name} estimate", r.estimate, exp[name][0], RAW_TOL)
            _close(errs, f"{name} std_error", r.std_error, exp[name][1], RAW_TOL)
        if name in CALIBRATED:
            d = r.diagnostics
            _close(errs, f"{name} plugin+residual", r.estimate,
                   d["plugin_estimate"] + d["residual_mean"], RAW_TOL)
        if name == "iso-cal":
            _close(errs, "iso-cal estimate vs scipy", r.estimate, exp["iso-cal"][0], ISO_TOL)
            _close(errs, "iso-cal std_error vs scipy", r.std_error, exp["iso-cal"][1], ISO_TOL)
        if name == "auto-cal":
            selected = r.diagnostics["selected"]
            if selected not in exp["auto-cal"]:
                exp["auto-cal"][selected] = ssmean.estimate(entry["design"], selected, seed=entry["rep_seed"]).estimate
            _close(errs, f"auto-cal vs {selected}", r.estimate, exp["auto-cal"][selected], SAME_TOL)


def _report_refs(reports):
    return [v for r in reports for v in (r.estimate, r.std_error, r.ci_lower, r.ci_upper)]


# --- workloads ----------------------------------------------------------------


class PaperCell:
    """Every method the paper tabulates on one prebuilt paper-size design."""

    name = "paper-cell"
    # platt-cal is left out: fit_platt raises ConvergenceError on about 1 in
    # 60 of these draws (its absolute gradient tolerance of 1e-10 is below
    # the rounding floor of a 1200-term sum), and a benchmark op must not fail.
    methods = ("labeled-only", "ppi", "aipw", "ppi-pp", "aipw-em", "linear-cal", "iso-cal", "hist-cal")

    def setup(self, seed, j, tmp):
        return {"design": _draw(PAPER_N, PAPER_RATIO, entry_seed(seed, self.name, j))}

    def op(self, entry):
        design = entry["design"]
        return [ssmean.estimate(design, m) for m in self.methods]

    def expect(self, entry):
        arrays = _arrays(entry["design"])
        return {**raw_forms(*arrays), "iso-cal": iso_form(*arrays)}

    def check(self, entry, out):
        errs = []
        check_reports(errs, entry, out, self.methods)
        return errs

    reference = staticmethod(_report_refs)


class McReplicate(PaperCell):
    """One Monte Carlo replicate exactly as run_grid runs it."""

    name = "mc-replicate"
    methods = ("labeled-only", "ppi", "aipw", "ppi-pp", "aipw-em", "linear-cal", "iso-cal", "auto-cal")

    def setup(self, seed, j, tmp):
        grid, rep = entry_seed(seed, self.name, 0), j
        spec_seed = simulate.derive_seed(grid, SIM_DRAW, PAPER_N, PAPER_RATIO, rep)
        return {
            "grid": grid,
            "rep": rep,
            "design": _draw(PAPER_N, PAPER_RATIO, spec_seed),
            "rep_seed": simulate.derive_seed(grid, SIM_DRAW, PAPER_N, PAPER_RATIO, rep, 1),
        }

    def op(self, entry):
        grid, rep = entry["grid"], entry["rep"]
        spec = ssmean.DgpSpec(
            n=PAPER_N, ratio=PAPER_RATIO, seed=simulate.derive_seed(grid, SIM_DRAW, PAPER_N, PAPER_RATIO, rep)
        )
        design = ssmean.draw_dataset(spec)
        rep_seed = simulate.derive_seed(grid, SIM_DRAW, PAPER_N, PAPER_RATIO, rep, 1)
        return [ssmean.estimate(design, m, seed=rep_seed) for m in self.methods]

    def expect(self, entry):
        arrays = _arrays(entry["design"])
        return {**raw_forms(*arrays), "iso-cal": iso_form(*arrays), "auto-cal": {}}


class Bootstrap:
    """Refitting iso-cal bootstrap, b=100, on a paper-size design."""

    name = "bootstrap"
    b = 100

    def setup(self, seed, j, tmp):
        s = entry_seed(seed, self.name, j)
        return {"design": _draw(PAPER_N, PAPER_RATIO, s), "boot_seed": s}

    def op(self, entry):
        return ssmean.bootstrap(entry["design"], "iso-cal", b=self.b, seed=entry["boot_seed"])

    def expect(self, entry):
        return {"iso-cal": iso_form(*_arrays(entry["design"]))}

    def check(self, entry, out):
        errs = []
        reps = np.asarray(out.replicates)
        if reps.shape != (self.b,) or not np.isfinite(reps).all():
            errs.append(f"replicates: shape {reps.shape}, all finite: {bool(np.isfinite(reps).all())}")
            return errs
        if not (math.isfinite(out.se_boot) and out.se_boot > 0):
            errs.append(f"se_boot {out.se_boot!r} is not finite and positive")
        _close(errs, "se_boot", out.se_boot, float(np.std(reps, ddof=1)), SAME_TOL)
        lo, hi = out.normal_ci
        _close(errs, "normal_ci centre vs scipy iso-cal", (lo + hi) / 2, entry["expected"]["iso-cal"][0], ISO_TOL)
        _close(errs, "normal_ci half-width", (hi - lo) / 2, Z * out.se_boot, SAME_TOL)
        _close(errs, "percentile_ci lower", out.percentile_ci[0], float(np.quantile(reps, 0.025)), SAME_TOL)
        _close(errs, "percentile_ci upper", out.percentile_ci[1], float(np.quantile(reps, 0.975)), SAME_TOL)
        return errs

    @staticmethod
    def reference(out):
        return [out.se_boot, *out.percentile_ci, *out.normal_ci]


class CliIngest:
    """The CLI's estimate subcommand on a 1e6-row unlabeled CSV."""

    name = "cli-ingest"
    rows = 1_000_000
    ratio = -(-rows // PAPER_N)  # smallest ratio that draws at least `rows` unlabeled scores

    def setup(self, seed, j, tmp):
        design = _draw(PAPER_N, self.ratio, entry_seed(seed, self.name, j))
        paths = {k: str(tmp / f"{self.name}-{j}-{k}") for k in ("labeled.csv", "unlabeled.csv", "report.json")}
        ssmean.cli.write_labeled_csv(paths["labeled.csv"], design.labeled.scores, design.labeled.outcomes)
        ssmean.cli.write_unlabeled_csv(paths["unlabeled.csv"], design.unlabeled.scores[: self.rows])
        return paths

    def op(self, entry):
        argv = ["estimate", "--labeled", entry["labeled.csv"], "--unlabeled", entry["unlabeled.csv"],
                "--method", "iso-cal", "--output", entry["report.json"]]
        code = ssmean.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"ssmean estimate exited with code {code}")
        with open(entry["report.json"], encoding="utf-8") as handle:
            return json.load(handle)

    def expect(self, entry):
        lab = np.loadtxt(entry["labeled.csv"], delimiter=",", skiprows=1, ndmin=2)
        unl = np.loadtxt(entry["unlabeled.csv"], delimiter=",", skiprows=1)
        y, m_l = lab[:, 0], lab[:, 1]
        library = ssmean.estimate(ssmean.design_from_arrays(m_l, y, unl), "iso-cal")
        return {"library": library, "iso-cal": iso_form(y, m_l, unl), "rows": len(unl)}

    def check(self, entry, out):
        errs = []
        exp = entry["expected"]
        lib = exp["library"]
        if exp["rows"] != self.rows or out["N"] != self.rows:
            errs.append(f"unlabeled rows: file {exp['rows']}, report {out['N']}, expected {self.rows}")
        check_interval(errs, "cli", out["estimate"], out["std_error"], *out["ci"])
        _close(errs, "cli estimate vs library", out["estimate"], lib.estimate, SAME_TOL)
        _close(errs, "cli std_error vs library", out["std_error"], lib.std_error, SAME_TOL)
        _close(errs, "cli estimate vs scipy", out["estimate"], exp["iso-cal"][0], ISO_TOL)
        return errs

    @staticmethod
    def reference(out):
        return [out["estimate"], out["std_error"], *out["ci"]]


class VennAbers:
    """venn-abers at n=200, N=1000: two isotonic refits per evaluation point."""

    name = "venn-abers"

    def setup(self, seed, j, tmp):
        return {"design": _draw(200, 5, entry_seed(seed, self.name, j))}

    def op(self, entry):
        return ssmean.estimate(entry["design"], "venn-abers")

    def expect(self, entry):
        return {}

    def check(self, entry, out):
        errs = []
        check_reports(errs, entry, [out], ("venn-abers",))
        return errs

    @staticmethod
    def reference(out):
        return _report_refs([out])


WORKLOADS = {w.name: w for w in (PaperCell(), McReplicate(), Bootstrap(), CliIngest(), VennAbers())}
