"""Every output tools/parity.py hashes equals its committed hash in tests/data/parity.txt.

The file was written by the tool (see its docstring for how to regenerate
it after a change that moves an output on purpose). Its first line names
the Python, numpy and SciPy versions it was taken under; a failure names
every entry that differs, their count, and any version that differs.
"""
import importlib.util
import os
import subprocess
import sys
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


def test_pythonpath_chooses_the_code_the_tool_hashes(tmp_path):
    # an ssmean first on PYTHONPATH is the one imported; with no PYTHONPATH
    # the tool falls back to its own checkout's src
    (tmp_path / "ssmean").mkdir()
    (tmp_path / "ssmean" / "__init__.py").write_text('raise SystemExit("stub ssmean imported")\n')
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    tool = [sys.executable, str(ROOT / "tools" / "parity.py"), "--show", "estimate/dgp50x4s0/aipw"]
    stub = subprocess.run(tool, env={**env, "PYTHONPATH": str(tmp_path)}, cwd=tmp_path, capture_output=True, text=True)
    assert (stub.returncode, stub.stderr.strip()) == (1, "stub ssmean imported")
    own = subprocess.run(tool, env=env, cwd=tmp_path, capture_output=True, text=True)
    assert own.returncode == 0 and own.stdout.startswith("estimate/dgp50x4s0/aipw ('value', "), own.stderr


def test_diff_compares_a_dataclass_by_its_fields(tmp_path, capsys):
    # the repr restates the moved float, so it is not counted again beside it
    tool = _parity_tool()
    report = tool.ssmean.EstimateReport(0.5, 0.1, 0.3, 0.7, 0.05, "iso-cal", 50, 800, {"slope": 1.0})
    moved = tool.dataclasses.replace(report, std_error=0.1 + 2**-55)
    paths = []
    for name, value in (("old", report), ("new", moved), ("relabeled", tool.dataclasses.replace(report, n=51))):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text(tool.json.dumps({"entry": "e", "value": tool.record(lambda v=value: v)}) + "\n")
    tool.diff(*map(str, paths[:2]))
    tool.diff(str(paths[0]), str(paths[2]))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("e: 1 floats differ, largest relative change ") and " at /1/std_error: " in lines[0]
    assert lines[0].endswith("; 0 other values differ")
    assert lines[1] == "e: 0 floats differ; 1 other values differ"
