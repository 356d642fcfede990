"""Outside-in tracing of the ssmean layers for the traced benchmark run.

Each traced function is wrapped at the attribute its caller looks it up
through: several modules bind names at import (``ssmean.calibrators.pava``,
``ssmean.inference.substream``, ``ssmean.cli.estimate``), so patching only
the defining module would miss those calls. Nothing under ``src/`` is
edited; the wrappers are installed for one op and removed afterwards.

A span is ``[name, start_ns, end_ns, parent, op, size]``: ``parent`` is the
index of the enclosing span (-1 for none), ``op`` the op it belongs to and
``size`` the work the call was given (rows, points, replicates), or 0.
Spans stay in memory and are written out when the run ends.
"""
import importlib
import json
import statistics
import time


def _len0(args, kwargs):
    return len(args[0])


def _len1(args, kwargs):
    return len(args[1])


def _design_rows(args, kwargs):
    return len(args[0]) + len(args[2])


def _replicates(args, kwargs):
    return int(kwargs["b"] if "b" in kwargs else args[2])


_PREDICTORS = ("StepCalibrator", "AffineCalibrator", "SigmoidCalibrator", "BinnedCalibrator", "LinearCovCalibrator")

# (span name, [(module, attribute path), ...], size function or None)
TARGETS = [
    ("cli.main", [("ssmean.cli", "main")], None),
    ("design.design_from_arrays", [("ssmean.cli", "design_from_arrays"), ("ssmean.simulate", "design_from_arrays"),
                                   ("ssmean.selection", "design_from_arrays")], _design_rows),
    ("design.LabeledSample", [("ssmean.inference", "LabeledSample")], _len0),
    ("design.UnlabeledSample", [("ssmean.inference", "UnlabeledSample")], _len0),
    ("design.TwoSampleDesign", [("ssmean.inference", "TwoSampleDesign")], None),
    ("calibrators.fit_isotonic", [("ssmean.calibrators", "fit_isotonic")], _len0),
    ("calibrators.fit_linear", [("ssmean.calibrators", "fit_linear")], _len0),
    ("calibrators.fit_platt", [("ssmean.calibrators", "fit_platt")], _len0),
    ("calibrators.fit_histogram", [("ssmean.calibrators", "fit_histogram")], _len0),
    ("calibrators.fit_venn_abers", [("ssmean.calibrators", "fit_venn_abers")], None),
    ("calibrators.fingerprint", [("ssmean.calibrators", "FitFingerprint.from_data")], _len1),
    ("calibrators.fingerprint_match", [("ssmean.calibrators", "FitFingerprint.matches")], _len1),
    ("calibrators.predict", [("ssmean.calibrators", c + ".__call__") for c in _PREDICTORS], _len1),
    ("kernels.pava", [("ssmean.calibrators", "pava")], _len0),
    ("estimators.estimate", [("ssmean", "estimate"), ("ssmean.estimators", "estimate"), ("ssmean.selection", "estimate"),
                             ("ssmean.simulate", "estimate"), ("ssmean.cli", "estimate")], None),
    ("inference.influence", [("ssmean.estimators", "influence_values"), ("ssmean.estimators", "wald_se")], None),
    ("inference.bootstrap", [("ssmean", "bootstrap"), ("ssmean.inference", "bootstrap"), ("ssmean.cli", "bootstrap")],
     _replicates),
    ("rng.substream", [("ssmean.inference", "substream"), ("ssmean.inference", "derive_seed"),
                       ("ssmean.selection", "substream"),
                       ("ssmean.simulate", "substream"), ("ssmean.simulate", "derive_seed")], None),
    ("selection.autocal_select", [("ssmean", "autocal_select"), ("ssmean.selection", "autocal_select")], None),
    ("simulate.draw_dataset", [("ssmean", "draw_dataset"), ("ssmean.simulate", "draw_dataset")], None),
]

FITS = ("calibrators.fit_isotonic", "calibrators.fit_linear", "calibrators.fit_platt", "calibrators.fit_histogram")
DESIGN = ("design.design_from_arrays", "design.LabeledSample", "design.UnlabeledSample", "design.TwoSampleDesign")

# per-layer metric -> unit, as emitted by the traced run
UNITS = {
    "cli.self_ms": "ms",
    "cli.rows_per_s": "1/s",
    "design.build_ms": "ms",
    "design.builds": "count",
    "design.rows_validated": "count",
    "calibrators.fit_ms": "ms",
    "calibrators.fits": "count",
    "calibrators.fingerprint_ms": "ms",
    "calibrators.fingerprints": "count",
    "calibrators.fingerprint_use_frac": "fraction",
    "calibrators.predict_ms": "ms",
    "calibrators.points_predicted": "count",
    "calibrators.venn_abers_ms": "ms",
    "calibrators.venn_abers_iso_fits": "count",
    "kernels.pava_ms": "ms",
    "kernels.pava_calls": "count",
    "kernels.pava_points": "count",
    "kernels.tie_pool_frac": "fraction",
    "estimators.estimate_ms": "ms",
    "estimators.self_ms": "ms",
    "estimators.estimates": "count",
    "inference.influence_ms": "ms",
    "inference.bootstrap_self_ms": "ms",
    "inference.replicates": "count",
    "rng.substream_ms": "ms",
    "rng.substreams": "count",
    "selection.autocal_ms": "ms",
    "selection.self_ms": "ms",
    "selection.fold_fits": "count",
    "simulate.draw_ms": "ms",
    "simulate.draws": "count",
    "trace.op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _resolve(module, path):
    """Return (owner, attribute, raw value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Holds the spans of one run and installs or removes the wrappers."""

    def __init__(self, targets=TARGETS):
        self.spans = []
        self.op = -1
        self._stack = []
        self._sites = []
        self.absent = []
        for name, sites, size in targets:
            for module, path in sites:
                found = _resolve(module, path)
                if found is None:
                    self.absent.append(f"{module}.{path}")
                    continue
                owner, attr, raw = found
                self._sites.append((owner, attr, raw, self._wrap(name, raw, size)))

    def _wrap(self, name, raw, size):
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            n = size(args, kwargs) if size is not None else 0
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op, n])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return classmethod(traced) if is_classmethod else traced

    def install(self, op):
        self.op = op
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, raw, _ in self._sites:
            setattr(owner, attr, raw)

    def span(self, name, op):
        """Open a root span for one op and return the function that closes it."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, -1, op, 0])
        self._stack.append(index)

        def close():
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

        return close

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s) + "\n")


def _ms(ns):
    return ns / 1e6


def layer_metrics(spans):
    """Per-layer metrics from the spans of a traced run.

    Times and counts are per op and reported as the median over ops; the
    ratios are taken over all ops together. A layer's time is the time of
    its outermost spans; self time is a span minus its direct children.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d

    def has_ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    ops = sorted({s[4] for s in spans if s[0] == "op"})
    per_op = {op: {} for op in ops}
    totals = {}

    def add(op, key, value):
        per_op[op][key] = per_op[op].get(key, 0) + value
        totals[key] = totals.get(key, 0) + value

    inclusive = {
        "design.build_ms": DESIGN,
        "calibrators.fit_ms": FITS,
        "calibrators.fingerprint_ms": ("calibrators.fingerprint", "calibrators.fingerprint_match"),
        "calibrators.predict_ms": ("calibrators.predict",),
        "calibrators.venn_abers_ms": ("calibrators.fit_venn_abers",),
        "kernels.pava_ms": ("kernels.pava",),
        "estimators.estimate_ms": ("estimators.estimate",),
        "inference.influence_ms": ("inference.influence",),
        "rng.substream_ms": ("rng.substream",),
        "selection.autocal_ms": ("selection.autocal_select",),
        "simulate.draw_ms": ("simulate.draw_dataset",),
    }
    self_time = {
        "cli.self_ms": "cli.main",
        "estimators.self_ms": "estimators.estimate",
        "inference.bootstrap_self_ms": "inference.bootstrap",
        "selection.self_ms": "selection.autocal_select",
    }
    counts = {
        "design.builds": ("design.design_from_arrays", "design.TwoSampleDesign"),
        "calibrators.fits": FITS,
        "calibrators.fingerprints": ("calibrators.fingerprint",),
        "kernels.pava_calls": ("kernels.pava",),
        "estimators.estimates": ("estimators.estimate",),
        "rng.substreams": ("rng.substream",),
        "simulate.draws": ("simulate.draw_dataset",),
        "_matches": ("calibrators.fingerprint_match",),
    }
    sizes = {
        "design.rows_validated": ("design.design_from_arrays", "design.LabeledSample", "design.UnlabeledSample"),
        "calibrators.points_predicted": ("calibrators.predict",),
        "kernels.pava_points": ("kernels.pava",),
        "inference.replicates": ("inference.bootstrap",),
        "_iso_rows": ("calibrators.fit_isotonic",),
    }
    for i, s in enumerate(spans):
        name, op = s[0], s[4]
        if op not in per_op:
            continue
        for key, names in inclusive.items():
            if name in names and not has_ancestor(i, names):
                add(op, key, _ms(dur[i]))
        for key, owner in self_time.items():
            if name == owner:
                add(op, key, _ms(dur[i] - child[i]))
        for key, names in counts.items():
            if name in names:
                add(op, key, 1)
        for key, names in sizes.items():
            if name in names:
                add(op, key, s[5])
        if name == "calibrators.fit_isotonic" and has_ancestor(i, ("calibrators.fit_venn_abers",)):
            add(op, "calibrators.venn_abers_iso_fits", 1)
        if name in FITS and s[3] >= 0 and spans[s[3]][0] == "selection.autocal_select":
            add(op, "selection.fold_fits", 1)
        if name == "design.design_from_arrays" and s[3] >= 0 and spans[s[3]][0] == "cli.main":
            add(op, "_cli_rows", s[5])

    out = {}
    for key in UNITS:
        if key.startswith("trace.") or key in ("cli.rows_per_s", "calibrators.fingerprint_use_frac",
                                               "kernels.tie_pool_frac"):
            continue
        out[key] = float(statistics.median(per_op[op].get(key, 0) for op in ops)) if ops else 0.0
    cli_ms = totals.get("cli.self_ms", 0)
    out["cli.rows_per_s"] = totals.get("_cli_rows", 0) / (cli_ms / 1e3) if cli_ms else 0.0
    fits = totals.get("calibrators.fits", 0)
    out["calibrators.fingerprint_use_frac"] = totals.get("_matches", 0) / fits if fits else 0.0
    iso_rows = totals.get("_iso_rows", 0)
    out["kernels.tie_pool_frac"] = totals.get("kernels.pava_points", 0) / iso_rows if iso_rows else 0.0
    return out
