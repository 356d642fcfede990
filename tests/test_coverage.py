"""The small-n coverage slice recomputes byte for byte as committed in tests/data/coverage_small_n_slice.csv.

tools/coverage.py wrote the file (see its docstring for how to regenerate
it, with the full table beside it, after a change that moves it on purpose).
The slice is the table's eight methods other than auto-cal, at n = 50 and
100, at 300 replicates. No coverage floor is checked: the table records
where the intervals stand, and a failure names every method whose rows
moved, with both of its committed and recomputed rows.
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _coverage_tool():
    spec = importlib.util.spec_from_file_location("coverage_tool", ROOT / "tools" / "coverage.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(csv: str) -> dict:
    """The data rows of a table by method, each method's rows in file order."""
    out = {}
    for line in csv.splitlines()[1:]:
        out.setdefault(line.split(",", 1)[0], []).append(line)
    return out


def test_the_small_n_coverage_slice_equals_the_committed_table():
    tool = _coverage_tool()
    want_header, want = (ROOT / "tests" / "data" / "coverage_small_n_slice.csv").read_text().split("\n", 1)
    got = tool.table(tool.SLICE_METHODS, tool.SLICE_REPS)
    if got == want:
        return
    versions = "" if tool.header() == want_header else f"; versions differ: committed {want_header!r}, here {tool.header()!r}"
    want_rows, got_rows = _rows(want), _rows(got)
    moved = [m for m in {**want_rows, **got_rows} if want_rows.get(m) != got_rows.get(m)]
    raise AssertionError(f"{len(moved)} methods moved{versions}:\n" + "\n".join(
        f"{m}:\n  committed {want_rows.get(m)}\n  here      {got_rows.get(m)}" for m in moved
    ) + ("" if moved else f"\nthe header line differs: {got.splitlines()[:1]}"))

