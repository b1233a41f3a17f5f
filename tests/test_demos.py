"""
The narrative demo scripts.

Core claims:
    - every script in demos/ runs to exit status 0 and writes nothing to
      stderr, so no warning or traceback hides in a demo
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert [path.name[:2] for path in _DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("script", _DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script):
    paths = [str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
