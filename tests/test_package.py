"""Package-level checks of the public surface."""
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import ssmean
from ssmean import calibrators

MODULES = ["ssmean"] + [f"ssmean.{info.name}" for info in pkgutil.iter_modules(ssmean.__path__)]
FITS = [name for name in calibrators.__all__ if name.startswith("fit_")]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def _fresh_python(code: str) -> str:
    """stdout of code run by a new interpreter that imports ssmean from this checkout."""
    src = os.path.dirname(os.path.dirname(ssmean.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def _loaded(package: str) -> str:
    """Code that prints whether package or any of its submodules is in sys.modules."""
    return f"print(any(m == {package!r} or m.startswith({package + '.'!r}) for m in sys.modules))\n"


def test_importing_the_package_and_its_cli_loads_no_scipy_and_no_numpy_random():
    # SciPy and numpy.random take most of the import time; only the calls that need them load them
    code = "import sys, ssmean, ssmean.cli\n" + _loaded("scipy") + _loaded("numpy.random")
    assert _fresh_python(code).split() == ["False", "False"]


def test_the_cli_default_method_runs_without_scipy_and_iso_cal_loads_it(tmp_path):
    from ssmean.cli import write_labeled_csv, write_unlabeled_csv

    lab, unl, out = tmp_path / "l.csv", tmp_path / "u.csv", tmp_path / "out.json"
    write_labeled_csv(lab, scores=[0.1, 0.5, 0.9, 0.3, 0.7], outcomes=[0.0, 1.0, 1.0, 0.0, 1.0])
    write_unlabeled_csv(unl, scores=[0.2, 0.7, 0.4])
    data = ["--labeled", str(lab), "--unlabeled", str(unl), "--output", str(out)]
    runs = [["estimate", *data], ["bootstrap", *data, "--b", "50"], ["estimate", *data, "--method", "iso-cal"]]
    code = "import sys, ssmean.cli\n" + "".join(f"assert ssmean.cli.main({argv!r}) == 0\n" + _loaded("scipy") for argv in runs)
    assert _fresh_python(code).split() == ["False", "False", "True"]


@pytest.mark.parametrize("name", FITS)
def test_every_fit_returns_a_calibrator_that_keeps_its_pairs(name):
    s = np.array([0.1, 0.3, 0.3, 0.6, 0.8, 0.9])
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    x = np.array([1.0, -1.0, 2.0, 0.0, 1.0, 3.0])
    fit = getattr(calibrators, name)
    extra = {"covariates": x, "shrink_target": 0.5}
    kwargs = {p: extra[p] for p in inspect.signature(fit).parameters if p in extra}
    f = fit(s, y, **kwargs)
    t = np.array([0.0, 0.3, 0.5, 1.0])
    values = calibrators.predict(f, t, np.ones((len(t), 1)))
    assert values.shape == t.shape and np.isfinite(values).all()
    assert np.array_equal(f.fitted_on, np.column_stack((s, y)))
