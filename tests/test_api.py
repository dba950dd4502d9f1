"""The exported names of the package and of each submodule."""

from __future__ import annotations

import importlib
import pkgutil

import permmobius


def test_every_exported_name_resolves():
    modules = [permmobius] + [
        importlib.import_module(f"permmobius.{info.name}")
        for info in pkgutil.iter_modules(permmobius.__path__)
        if not info.name.startswith("_")
    ]
    assert permmobius.engine in modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
