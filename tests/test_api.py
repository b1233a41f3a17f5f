"""
The public names of every momentflow module.

Core claims:
    - every name in a module's ``__all__`` resolves, so ``from momentflow.X
      import *`` works and no entry outlives the code it named
    - every callable in a module's ``__all__`` is defined there: no module
      re-exports another's names
    - the package root re-exports nothing; library code imports from the
      submodules
    - the layers below scenarios (network, gradient, dynamics) run without
      loading scenarios or cli
    - cli imports no underscore name from another momentflow module: the
      command line reaches the library through its public names
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_are_defined_where_listed(name):
    module = importlib.import_module(name)
    exported = [getattr(module, entry) for entry in module.__all__]
    foreign = [f"{obj.__module__}.{obj.__name__}" for obj in exported
               if callable(obj) and obj.__module__ != name]
    assert foreign == []


def test_package_root_exports_nothing():
    # Importing a submodule binds its name on the package; nothing else may.
    public = {key for key in vars(momentflow) if not key.startswith("_")}
    assert not hasattr(momentflow, "__all__")
    assert public <= {name.rpartition(".")[2] for name in _MODULES}


# Imports the three lower layers and calls into each, then prints which of
# the upper modules that loaded.
_LOWER_LAYERS = """
import sys
from momentflow.network import RobotConfiguration
from momentflow.gradient import ControllerParams, TargetSpectrum, cost, moment_gradient
from momentflow.dynamics import step
config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
params = ControllerParams(metric=2, order=3)
targets = TargetSpectrum([0.0, 0.01, 0.001])
moment_gradient(config, params, 2)
cost(config, targets, params)
step(config, targets, params, 0.01)
print([name for name in ("momentflow.scenarios", "momentflow.cli") if name in sys.modules])
"""


def test_lower_layers_do_not_load_upper_ones():
    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _LOWER_LAYERS], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_imports_only_public_names():
    tree = ast.parse(Path(importlib.import_module("momentflow.cli").__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("momentflow"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
