"""The exported names of the package and of each submodule."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import permmobius

SUBMODULES = [
    importlib.import_module(f"permmobius.{info.name}")
    for info in pkgutil.iter_modules(permmobius.__path__)
    if not info.name.startswith("_")
]


def test_every_exported_name_resolves():
    modules = [permmobius] + SUBMODULES
    assert permmobius.engine in modules
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_function_and_class_is_exported_from_its_own_module():
    for module in SUBMODULES:
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_every_package_export_has_a_submodule_home():
    homes = {name for module in SUBMODULES for name in getattr(module, "__all__", ())}
    missing = set(permmobius.__all__) - {"__version__"} - homes
    assert not missing, sorted(missing)
