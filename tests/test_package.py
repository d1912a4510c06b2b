import dataclasses
import importlib
import pkgutil
import runpy
import typing
from pathlib import Path

import pytest

import realityvote

MODULES = [
    importlib.import_module(f"realityvote.{info.name}")
    for info in pkgutil.iter_modules(realityvote.__path__)
]
PUBLIC_DATACLASSES = sorted(
    {
        obj
        for module in MODULES
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    },
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
)


@pytest.mark.parametrize(
    "cls", PUBLIC_DATACLASSES, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}"
)
def test_type_hints_resolve(cls):
    # Annotations are strings under `from __future__ import annotations`;
    # a name missing from the defining module only fails when resolved.
    hints = typing.get_type_hints(cls)
    assert set(hints) >= {field.name for field in dataclasses.fields(cls)}


def test_every_export_resolves():
    # A stale name in __all__ only fails at a caller's `from realityvote import *`.
    assert [name for name in realityvote.__all__ if not hasattr(realityvote, name)] == []


def _tracing_table():
    # Run by path: the benchmark directory is not a package.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    return runpy.run_path(str(path))["WRAPPED"]


def test_traced_names_exist():
    # The traced benchmark wraps these by name and stops on a missing one;
    # a rename should fail here first.
    missing = [
        f"{layer}.{name}"
        for layer, names in _tracing_table().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"realityvote.{layer}"), name, None))
    ]
    assert not missing
    verifier = importlib.import_module("realityvote.verifier")
    assert callable(verifier._cached_range)
    assert isinstance(verifier._range_cache, dict)
