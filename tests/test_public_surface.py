"""One name per entry point: no public name in the package is a deprecation shim."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro
from repro.core.ifocus import run_ifocus
from repro.core.registry import ALGORITHMS
from repro.session.session import Session


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # __main__ runs the CLI
            yield importlib.import_module(info.name)


def test_no_public_name_is_a_deprecation_shim():
    shims = []
    for module in _modules():
        for name, obj in vars(module).items():
            if not name.startswith("_") and hasattr(obj, "__deprecated__"):
                shims.append(f"{module.__name__}.{name}")
    for name, obj in inspect.getmembers(Session):
        if hasattr(obj, "__deprecated__"):
            shims.append(f"Session.{name}")
    assert shims == []


def test_run_ifocus_is_the_fused_loop_itself():
    assert run_ifocus.__name__ == "run_ifocus"
    assert run_ifocus.__module__ == "repro.core.ifocus"
    assert not hasattr(run_ifocus, "__wrapped__")
    assert ALGORITHMS["ifocus"] is ALGORITHMS["ifocusr"] is run_ifocus
