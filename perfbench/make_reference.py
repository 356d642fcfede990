"""Write reference.json: the outputs of every pool entry at the default seed.

    python3 perfbench/make_reference.py

run.py compares each op against these values within 1e-9 when it runs with
the default seed. Every output must pass its independent checks before it
is stored. Rerun this only for a change that is meant to move the outputs,
and say so in the change.
"""
import json
import shutil
import sys

import run


def main():
    run.import_ssmean()
    import workloads

    refs = {}
    tmp = run.OUT_DIR / "tmp-reference"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in workloads.WORKLOADS.items():
            refs[name] = []
            for j in range(run.POOL):
                entry = wl.setup(run.DEFAULT_SEED, j, tmp)
                out = wl.op(entry)
                entry["expected"] = wl.expect(entry)
                errs = wl.check(entry, out)
                if errs:
                    print(f"{name} pool entry {j}: {'; '.join(errs)}", file=sys.stderr)
                    return 1
                refs[name].append(wl.reference(out))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
