"""Every exported name resolves."""

import importlib
import pkgutil

import pytest

import fluidrisk
import fluidrisk.homogeneous as homogeneous
from fluidrisk import LevelGrid, level_fixed_point
from fluidrisk.gallery import two_state_model

MODULES = [fluidrisk] + [
    importlib.import_module(f"fluidrisk.{info.name}")
    for info in pkgutil.iter_modules(fluidrisk.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_homogeneous_binds_its_fft_names_at_module_level():
    # Tracing wraps these module attributes to count the level and split
    # engines' transforms.
    for name in ("rfft", "irfft", "rfft2", "irfft2"):
        assert callable(getattr(homogeneous, name))


def _counted(name, fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_level_sweeps_transform_through_the_module_names(monkeypatch):
    calls = []
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(homogeneous, name, _counted(name, getattr(homogeneous, name), calls))
    result = level_fixed_point(two_state_model(), LevelGrid(l_max=2.0, dl=0.125), max_iter=3)
    # Two kernel spectra and the two-epoch inverse, then one forward and one
    # inverse call per sweep.
    assert calls == ["rfft", "rfft", "irfft"] + ["rfft", "irfft"] * 3
    # The benchmark tracer reads the sweep count at this position.
    assert result[2]["iterations"] == 3
