"""The public surface: every module's __all__ names exist, and the package
resolves each of its names on first access."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import simflow

_SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(simflow.__path__))
# names in the __all__ of a submodule other than cli, figures and report
# that the package does not export
_NOT_EXPORTED = {"ConjugateApproximator", "RowStreams", "cell_seed", "lag1_autocorr",
                 "map_chunks", "mean_difference", "mean_stat", "pooled_t", "row_blocks",
                 "row_streams", "sample_max", "sample_sum", "usable_cpus", "variance_ratio"}


@pytest.mark.parametrize("module", ["simflow", *(f"simflow.{m}" for m in _SUBMODULES)])
def test_star_import(module):
    # fails on an __all__ entry whose name was deleted
    exec(f"from {module} import *", {})


def test_package_exports_its_submodules_names():
    # every exported name is the object its submodule defines
    sources = {name: module for module in _SUBMODULES if module not in ("cli", "figures", "report")
               for name in getattr(importlib.import_module(f"simflow.{module}"), "__all__", ())}
    assert set(simflow.__all__) == sources.keys() - _NOT_EXPORTED
    for name in simflow.__all__:
        assert getattr(simflow, name) is getattr(sys.modules[f"simflow.{sources[name]}"], name)
    for module in _SUBMODULES:
        assert getattr(simflow, module) is importlib.import_module(f"simflow.{module}")
    assert {*simflow.__all__, *_SUBMODULES} <= set(dir(simflow))
    with pytest.raises(AttributeError):
        simflow.no_such_name


def test_import_loads_no_submodule():
    # A fresh interpreter: this process has imported the submodules already.
    env = {**os.environ, "PYTHONPATH": str(Path(simflow.__file__).parents[1])}
    code = ("import sys, simflow\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('simflow', 'numpy')))\n"
            "simflow.run_sbc\n"
            "print('simflow.calibration' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "['simflow']\nTrue\n"
