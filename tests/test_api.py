"""The public surface: every module's __all__ names exist."""

import pkgutil

import pytest

import simflow


@pytest.mark.parametrize("module", ["simflow", *(f"simflow.{m.name}" for m in
                                                 pkgutil.iter_modules(simflow.__path__))])
def test_star_import(module):
    # fails on an __all__ entry whose name was deleted
    exec(f"from {module} import *", {})
