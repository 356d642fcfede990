"""Fast self-test of the benchmark harness, with one-op runs.

    python3 perfbench/selftest.py

Shows that every metric named in BENCHMARK.json is emitted with its unit
and that each workload passes its checks, that a perturbed output and a
raising op are counted as failed, and that a trace target that no longer
exists is reported as absent instead of stopping the run. Exits 1 on the
first kind of problem it finds, after printing all of them.
"""
import json
import sys

import run


def _units(summary):
    return {k: v["unit"] for k, v in summary["metrics"].items()}


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    want = {trace: {m["name"]: m["unit"] for m in bench[key]} for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    for w in bench["workloads"]:
        for trace in (0, 1) if w["name"] == "paper-cell" else (0,):
            summary, record = run.run(w["name"], run.DEFAULT_SEED, 0, trace, pool=1)
            expect(_units(summary) == want[trace], f"{w['name']} trace {trace}: emitted {_units(summary)}")
            expect(summary["correct"] and summary["failed"] == 0, f"{w['name']}: {record['failures']}")
            expect(record["reference_checked"], f"{w['name']}: no stored reference was compared")

    import ssmean
    import spans
    import workloads

    wl = workloads.WORKLOADS["paper-cell"]
    iso = wl.methods.index("iso-cal")

    calls = []

    def perturbed(entry, skip=0):
        out = type(wl).op(wl, entry)
        calls.append(1)
        if len(calls) > skip:
            out[iso].estimate += 1e-6
        return out

    def raising(entry):
        raise ssmean.ConvergenceError("injected")

    cases = (
        ("perturbed output", perturbed, 0, "iso-cal estimate vs scipy"),
        ("perturbed after the first op", lambda entry: perturbed(entry, skip=1), 1, "differs from"),
        ("raising op", raising, 0, "ConvergenceError: injected"),
    )
    for name, op, good, needle in cases:
        calls.clear()
        wl.op = op
        try:
            summary, record = run.run("paper-cell", run.DEFAULT_SEED + 1, 0, 0, pool=1)
        finally:
            del wl.op
        expect(not summary["correct"] and summary["failed"] == summary["attempted"] - good > 0,
               f"{name}: {summary['failed']} of {summary['attempted']} ops counted as failed")
        expect(needle in " ".join(record["failures"]), f"{name}: failures {record['failures']}")

    gone = ("kernels.pava", [("ssmean.calibrators", "no_such_kernel")], None)
    summary, record = run.run("paper-cell", run.DEFAULT_SEED, 0, 1, pool=1, tracer_targets=spans.TARGETS + [gone])
    expect("ssmean.calibrators.no_such_kernel" in record["absent_targets"],
           f"missing target not reported absent: {record['absent_targets']}")
    expect(summary["correct"] and _units(summary) == want[1], "a missing target broke the traced run")

    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
