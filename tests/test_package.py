import dataclasses
import importlib
import pkgutil
import typing

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

