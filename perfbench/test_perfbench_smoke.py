"""Smoke test: every workload, every check and both modes, at tiny sizes.

Runs ``run.py --smoke`` as the benchmark command runs, and checks that the
printed result carries exactly the metrics BENCHMARK.json declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1
    # Only the two underflow inputs of the cli workload may fail.
    failures = [line for line in done.stderr.splitlines() if line.startswith("failed: ")]
    assert all("underflow" in line for line in failures), failures
    assert result["failed"] <= (2 if workload == "cli" else 0)
