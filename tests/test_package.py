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


def test_importing_the_package_and_its_cli_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes a large share of import time; only the first isotonic fit loads it
    src = os.path.dirname(os.path.dirname(ssmean.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ssmean, ssmean.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
