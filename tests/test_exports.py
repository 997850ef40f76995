"""Every exported name resolves: each module's ``__all__`` and the names the
package re-exports from its modules."""

import importlib
import inspect
import pkgutil

import pytest

import cityroad

MODULES = sorted(f"cityroad.{m.name}" for m in pkgutil.iter_modules(cityroad.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_module_exports():
    exported = {name: value for name, value in vars(cityroad).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    unlisted = [name for name, value in exported.items()
                if name not in importlib.import_module(value.__module__).__all__]
    assert unlisted == []
