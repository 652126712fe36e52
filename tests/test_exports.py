"""Every exported name resolves."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import fluidrisk
import fluidrisk.homogeneous as homogeneous
from fluidrisk import LevelDurationGrid, bridge_recursion
from fluidrisk.gallery import pareto_renewal_model, two_state_model

MODULES = [fluidrisk] + [
    importlib.import_module(f"fluidrisk.{info.name}")
    for info in pkgutil.iter_modules(fluidrisk.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone would take over half of the package's import time.
    src = os.path.dirname(os.path.dirname(fluidrisk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fluidrisk, fluidrisk.cli; print('scipy.stats' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def test_homogeneous_binds_its_fft_names_at_module_level():
    # Tracing wraps these module attributes to count the split engine's
    # transforms.
    for name in ("rfft", "irfft", "rfft2", "irfft2"):
        assert callable(getattr(homogeneous, name))


def _counted(name, fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_split_engine_transforms_through_the_module_names(monkeypatch):
    names = ("rfft", "irfft", "rfft2", "irfft2")
    calls = []
    for name in names:
        monkeypatch.setattr(homogeneous, name, _counted(name, getattr(homogeneous, name), calls))
    grid = LevelDurationGrid(u_max=2.0, du=0.25, l_max=2.0, dl=0.25)
    bridge_recursion(two_state_model(), grid, n_max=4, method="split")
    # Every transform of the split engine goes through a module attribute.
    assert set(calls) == set(names)


@pytest.mark.filterwarnings("ignore:bridge density at the level-window edge")
def test_z_engine_transforms_through_the_scipy_fft_names(monkeypatch):
    # Tracing wraps these scipy.fft attributes to count the z engine's
    # transforms, so the engine must look them up when it runs.
    import scipy.fft

    calls = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(scipy.fft, name, _counted(name, getattr(scipy.fft, name), calls))
    grid = LevelDurationGrid(u_max=2.0, du=0.25, l_max=2.0, dl=0.25)
    bridge_recursion(pareto_renewal_model(), grid, n_max=5, method="z")
    # Order 2's factors fit under the hold cap and order 3's do not.  Order 4
    # transforms order 2, which is then held, and inverts its interior sum;
    # order 5 transforms order 3 and inverts once.
    assert calls == ["rfft", "irfft", "rfft", "irfft"]
