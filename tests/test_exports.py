"""Every name a module lists in ``__all__`` resolves, so no export goes stale."""

import importlib
import pkgutil

import pytest

import qmridesign

MODULES = ["qmridesign"] + [
    f"qmridesign.{info.name}"
    for info in pkgutil.iter_modules(qmridesign.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"
