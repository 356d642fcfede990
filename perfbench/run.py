"""Seeded benchmark of the ssmean package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-cell --seed 1 --seconds 10 --trace 0

Imports ssmean from the checkout's ``src/`` (it is pure Python, so there is
nothing to build), sets up a pool of inputs from the seed, runs the
workload in a closed loop for ``--seconds`` (one caller, the next op starts
when the previous one returns), checks every output and prints the
results as JSON. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
op once untraced and once with the layer wrappers of ``spans.py`` installed,
and reports the per-layer metrics and the tracing overhead. The last line
of stdout is the summary; the line before it is the full record, with
machine facts, failures, the tail latency and the layer shares.
"""
import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0  # stored references (reference.json) are for this seed only
POOL = 3  # pool entries per run; each is set up (and warmed up) once
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(Exception):
    """The checkout does not hold an importable ssmean."""


def import_ssmean():
    """Import ssmean from the checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import ssmean
        import ssmean.cli  # noqa: F401  (cli-ingest needs it; the package does not import it)
    except ImportError as exc:
        raise SetupError(f"cannot import ssmean from {src}: {exc}") from exc
    elapsed = time.perf_counter() - start
    if Path(ssmean.__file__).resolve().parent != src / "ssmean":
        raise SetupError(f"imported ssmean from {ssmean.__file__}, not from {src}")
    return elapsed


def machine_facts():
    import numpy
    import scipy
    import ssmean

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pava_backend": getattr(ssmean, "PAVA_BACKEND", None),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": None,
        "git_dirty": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            facts["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")),
                                      None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            facts["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            facts["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                                                 timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True,
                                    timeout=30, check=True).stdout
            facts["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return facts


def _run_op(wl, entry):
    """Run one op; return (output, error, nanoseconds). Errors are kept, not raised."""
    start = time.perf_counter_ns()
    try:
        out, err = wl.op(entry), None
    except Exception as exc:  # every failure is counted, none is retried
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter_ns() - start


def _tail(latencies_ms):
    """Highest listed percentile with at least ten ops beyond it, or None."""
    ordered = sorted(latencies_ms)
    count = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * count)
        if count - rank >= 10:
            return {"percentile": p, "ms": ordered[rank - 1], "ops_beyond": count - rank, "ops": count}
    return None


def _load_reference(name):
    path = HERE / "reference.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(name)


def run(name, seed, seconds, trace, pool=POOL, tracer_targets=None):
    """Run one workload; return (summary, record)."""
    import_s = import_ssmean()
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    reference = _load_reference(name) if seed == DEFAULT_SEED else None
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    # The first good output of each pool entry is kept and checked in full
    # after the timed phase. Ops are deterministic, so every later op on that
    # entry must reproduce its numbers (wl.reference) exactly; that is
    # compared as the op ends, so the harness keeps no outputs that would
    # count in peak_rss_mb.
    ops = []  # (pool index, error or None)
    kept = {}  # pool index -> (first good output, its numbers)

    def note(j, out, err):
        if err is None:
            digest = tuple(wl.reference(out))
            first = kept.setdefault(j, (out, digest))[1]
            if digest != first:
                err = f"output {list(digest)} differs from {list(first)} of the first op on this input"
        ops.append((j, err))

    try:
        entries, setup_times = [], []
        for j in range(pool):
            start = time.perf_counter()
            entries.append(wl.setup(seed, j, tmp))
            out, err, _ = _run_op(wl, entries[j])  # warm-up op
            setup_times.append(time.perf_counter() - start)
            note(j, out, err)

        plain_ns, traced_ns = [], []
        tracer = spans.Tracer(tracer_targets or spans.TARGETS) if trace else None
        phase_start = time.perf_counter_ns()
        deadline = phase_start + int(seconds * 1e9)
        i = 0
        while True:
            j = i % pool
            out, err, ns = _run_op(wl, entries[j])
            plain_ns.append(ns)
            note(j, out, err)
            if tracer is not None:
                tracer.install(i)
                close = tracer.span("op", i)
                try:
                    out, err, ns = _run_op(wl, entries[j])
                finally:
                    close()
                    tracer.remove()
                traced_ns.append(ns)
                note(j, out, err)
            i += 1
            if time.perf_counter_ns() >= deadline:
                break
        phase_s = (time.perf_counter_ns() - phase_start) / 1e9
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = {}  # pool index -> what the full check of its kept output found
        for j, (out, digest) in kept.items():
            entry = entries[j]
            entry["expected"] = wl.expect(entry)
            found = wl.check(entry, out)
            if reference is not None:
                want = reference[j]
                if len(digest) != len(want) or any(not abs(a - b) <= 1e-9 for a, b in zip(digest, want)):
                    found.append(f"reference values differ: {list(digest)} vs stored {want}")
            problems[j] = "; ".join(found)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f"pool entry {j}: {err or problems[j]}" for j, err in ops if err or problems[j]]

    plain_ms = [ns / 1e6 for ns in plain_ns]
    op_p50_ms = statistics.median(plain_ms)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "pool": pool,
        "reference_checked": reference is not None,
        "machine": machine_facts(),
        "attempted": len(ops),
        "failed": len(failures),
        "ops_failed_frac": len(failures) / len(ops),
        "failures": failures[:10],
        "op_p50_ms": op_p50_ms,
        "op_mean_ms": statistics.fmean(plain_ms),
        "op_tail": _tail(plain_ms),
        "ops_per_s": len(plain_ms) / phase_s if tracer is None else None,
        "import_s": import_s,
        "setup_entry_s": setup_times,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is None:
        # op_p50_ms stays in the record only: on a host whose speed switches
        # between states for tens of seconds, a run's median jumps between
        # them, while the throughput moves with the share of slow time.
        metrics = {
            "ops_per_s": (record["ops_per_s"], "1/s"),
            "setup_s": (record["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = spans.layer_metrics(tracer.spans)
        traced_p50 = statistics.median(ns / 1e6 for ns in traced_ns)
        layers["trace.op_p50_ms"] = traced_p50
        layers["trace.overhead_ms"] = traced_p50 - op_p50_ms
        metrics = {k: (layers[k], unit) for k, unit in spans.UNITS.items()}
        record["absent_targets"] = tracer.absent
        record["shares_of_traced_op"] = {k: v / traced_p50 for k, v in layers.items()
                                         if k.endswith("_ms") and not k.startswith("trace.")}
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    summary = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record["summary"] = summary
    return summary, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="one of: paper-cell, mc-replicate, bootstrap, "
                                                          "cli-ingest, venn-abers")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also append the full record as one JSON line to this file")
    args = parser.parse_args(argv)
    try:
        summary, record = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in record["failures"]:
        print(f"perfbench: failed op: {failure}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
