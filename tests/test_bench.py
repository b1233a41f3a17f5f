"""Smoke test of bench.py: perfbench's tiny inputs, one round, layers at n = 7 and 10.

Core claims:
    - ``bench.py --smoke`` writes BENCH_<label>.json with every workload's solve_s, failures
      and counters, the per-layer table and the environment, in well under 2 s
    - the counters count what they name: a flow evaluates its start once, again after each
      compression, and one candidate per trial step, so on round_trip and large_n the
      evaluations are the trial steps plus one per flow plus the compressions
    - reading spectrum files recomputes no moments from a spectrum
    - it counts momentflow's Python frames per trial step at n = 7 and 10, times one trial
      step and counts its frames at n = 8 for s = 3, 4 and 5, and times one trial step of a
      taxicab team at n = 200, s = 4; every timed trial step is accepted
    - ``--against TREE`` times a workload here and in TREE, one process, pair by pair: against
      this very tree every record hashes equal and no operation fails; it times trial steps
      in both trees the same way, one row per team size and order; every row carries both
      trees' quartiles and the claim rule's boolean verdict, printed beside its ratio
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"distances", "weights", "half_chain_moments", "evaluation_drift", "trial_step"}


def test_smoke(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench.py"), "--label", "smoke", "--smoke",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert result["label"] == "smoke" and result["smoke"] is True
    assert set(result["environment"]) >= {"python", "numpy", "blas", "blas_core"}
    assert set(result["workloads"]) == {"round_trip", "large_n", "cli"}
    for name, found in result["workloads"].items():
        counters = found["counters"]
        assert found["failed"] == 0 and found["problems"] == [], name
        assert found["rounds"] == 1 and found["solve_s"] > 0.0
        assert counters["accepted_steps"] > 0 and counters["products"] > 0
        if name != "cli":  # whose verify evaluates outside any flow
            flows = found["operations"]
            trial = counters["accepted_steps"] + counters["rejected_steps"]
            assert counters["evaluations"] == trial + flows + counters["start_compressions"]
    cli = result["workloads"]["cli"]["counters"]
    assert cli["spectrum_calls"] == 7  # six files and the underflow positions
    assert cli["moments_from_eigenvalues_per_spectrum_call"] == 0.0
    table = result["layers"]["n"]
    assert set(table) == {"7", "10"}
    for row in table.values():
        assert set(row) == LAYERS and row["trial_step"]["accepted"] is True
        assert all(cell["us"] > 0.0 and cell["minor_faults"] >= 0.0 for cell in row.values())
    # At least _advance and the candidate's evaluation, distances, weights and half chain.
    frames = result["layers"]["frames_per_trial_step"]
    assert set(frames) == {"7", "10"} and all(count >= 5.0 for count in frames.values())
    orders = result["layers"]["by_order"]["s"]
    assert set(orders) == {"3", "4", "5"}
    for row in orders.values():
        assert row["trial_step"]["us"] > 0.0 and row["frames_per_trial_step"] >= 5.0
        assert row["trial_step"]["accepted"] is True
    taxicab = result["layers"]["taxicab"]
    assert taxicab["team"] == "planar, taxicab, c = 1, n = 200, s = 4"
    assert taxicab["trial_step"]["us"] > 0.0 and taxicab["trial_step"]["accepted"] is True


def test_against_this_tree(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench.py"), "--label", "pairs", "--smoke",
         "--against", str(ROOT), "--pairs", "2", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "BENCH_pairs.json").read_text())
    assert result["workload"] == "round_trip" and result["pairs"] == 2
    assert result["failed"] == {"this": 0, "against": 0}
    assert set(result["operations"]) == {"round_trip_04", "round_trip_08", "round_trip_10"}
    for row in [*result["operations"].values(), result["round"]]:
        assert row["records_equal"] and row["ratio"] > 0.0 and 0 <= row["wins"] <= 2
        assert len(row["against_quartiles_s"]) == len(row["this_quartiles_s"]) == 3
        assert type(row["claim_rule_met"]) is bool
    (row,) = result["trial_steps"].values()  # --smoke: n = 8, s = 3 only
    assert row["ratio"] > 0.0 and 0 <= row["wins"] <= 2 and len(row["against_quartiles_us"]) == 3
    assert len(row["this_quartiles_us"]) == 3 and type(row["claim_rule_met"]) is bool
    assert done.stderr.count("claim rule ") == len(result["operations"]) + 2
