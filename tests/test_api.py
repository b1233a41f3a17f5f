"""
The public names of every momentflow module.

Core claims:
    - every name in a module's ``__all__`` resolves, so ``from momentflow.X
      import *`` works and no entry outlives the code it named
    - the package root re-exports nothing; library code imports from the
      submodules
"""

import importlib
import pkgutil

import pytest

import momentflow

_MODULES = sorted(
    f"momentflow.{info.name}" for info in pkgutil.iter_modules(momentflow.__path__)
)


def test_every_module_found():
    assert _MODULES == [
        "momentflow.cli",
        "momentflow.dynamics",
        "momentflow.gradient",
        "momentflow.network",
        "momentflow.scenarios",
    ]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_root_exports_nothing():
    # Importing a submodule binds its name on the package; nothing else may.
    public = {key for key in vars(momentflow) if not key.startswith("_")}
    assert not hasattr(momentflow, "__all__")
    assert public <= {name.rpartition(".")[2] for name in _MODULES}
