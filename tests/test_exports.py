import importlib
import pkgutil

import pytest

import ergokit

MODULES = sorted(m.name for m in pkgutil.iter_modules(ergokit.__path__, "ergokit."))


@pytest.mark.parametrize("name", ["ergokit"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)

