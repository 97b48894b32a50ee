"""The package's exports: each public name is declared once, in its module's ``__all__``."""

from __future__ import annotations

import importlib
import pkgutil

import sparsewatch


def test_each_public_name_is_declared_by_one_module():
    """A name in two modules' lists would have one star import shadow the
    other; each export is the object its module defines."""
    modules = [
        importlib.import_module(f"sparsewatch.{info.name}")
        for info in pkgutil.iter_modules(sparsewatch.__path__)
    ]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    for module in modules:
        for name in set(module.__all__) & set(sparsewatch.__all__):
            assert getattr(sparsewatch, name) is getattr(module, name)
