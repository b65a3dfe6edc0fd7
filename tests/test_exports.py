"""Every name a module lists in ``__all__`` resolves, and so does every
function the traced benchmark wraps, so no export goes stale."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def traced_boundaries() -> list:
    """``perfbench/tracer.py``'s ``MODULE_BOUNDARIES``, read from its source
    without importing the benchmark."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if "MODULE_BOUNDARIES" in names:
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"{tracer} defines no MODULE_BOUNDARIES")


@pytest.mark.parametrize("module_name, attr", traced_boundaries())
def test_traced_boundary_resolves(module_name, attr):
    """A traced benchmark run wraps each boundary with ``getattr``, so a
    rename must fail here, not only in ``--trace 1`` runs."""
    assert callable(getattr(importlib.import_module(module_name), attr, None))
