"""Every output tools/parity.py hashes equals its committed hash in tests/data/parity.txt.

The file was written by the tool (see its docstring for how to regenerate
it after a change that moves an output on purpose). Its first line names
the Python, numpy and SciPy versions it was taken under; a failure names
every entry that differs, their count, and any version that differs.
"""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parity_tool():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_output_equals_the_committed_parity_set():
    want_header, *want = (ROOT / "tests" / "data" / "parity.txt").read_text().splitlines()
    got_header, *got = _parity_tool().hashed()
    want, got = (dict(line.split(" ", 1) for line in lines) for lines in (want, got))
    differ = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    versions = "" if got_header == want_header else f"; versions differ: committed {want_header!r}, here {got_header!r}"
    assert not differ, f"{len(differ)} entries differ{versions}:\n" + "\n".join(
        f"{name}: {'missing here' if name not in got else 'not committed' if name not in want else 'hash differs'}"
        for name in differ
    )
