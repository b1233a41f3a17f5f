"""Smoke test of bench.py: perfbench's tiny inputs, one round, layers and rows up to n = 200.

Core claims:
    - ``bench.py --smoke`` writes BENCH_<label>.json with every workload's solve_s, failures
      and counters, the per-layer table and the environment, in well under 2 s, into an
      ``--out-dir`` that it makes; one it cannot make is refused in one line before any timing
    - the counters count what they name: a flow evaluates its start once, again after each
      compression, and one candidate per trial step, so on round_trip and large_n the
      evaluations are the trial steps plus one per flow plus the compressions
    - reading spectrum files recomputes no moments from a spectrum
    - it times the four kernel layers at each size, and one trial step of every row of
      ``bench.ROWS`` up to n = 200 under the row's label, with its frames per trial step;
      every timed trial step is accepted
    - ``--against TREE`` times a workload here and in TREE, one process, pair by pair: against
      this very tree every record hashes equal and no operation fails; it times the rows'
      trial steps in both trees the same way, under the same labels (``--smoke``: the first
      row); every row carries both trees' quartiles and the claim rule's boolean verdict,
      printed beside its ratio
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = {"distances", "weights", "half_chain_moments", "evaluation_drift"}
SMOKE_ROWS = ["n=7,s=4", "n=10,s=4", "n=50,s=4", "n=200,s=4", "n=8,s=3", "n=8,s=4", "n=8,s=5",
              "n=200,s=4,z=1"]  # bench.ROWS but n = 800, in order


def test_smoke(tmp_path):
    out = tmp_path / "not" / "yet"  # made by bench.py
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench.py"), "--label", "smoke", "--smoke",
         "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((out / "BENCH_smoke.json").read_text())
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
    assert set(table) == {"7", "10", "50", "200"}
    for row in table.values():
        assert set(row) == LAYERS
        assert all(cell["us"] > 0.0 and cell["minor_faults"] >= 0.0 for cell in row.values())
    rows = result["layers"]["rows"]
    assert list(rows) == SMOKE_ROWS
    # At least _advance and the candidate's evaluation, distances, weights and half chain.
    for row in rows.values():
        assert row["accepted"] is True and row["us"] > 0.0 and row["minor_faults"] >= 0.0
        assert row["frames_per_trial_step"] >= 5.0


def test_unusable_out_dir_is_refused_before_timing(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"  # below a file: no directory can be made there
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench.py"), "--label", "none", "--out-dir", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == f"bench.py: --out-dir {out}: Not a directory\n"
    assert done.stdout == ""


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
    (label, row), = result["rows"].items()  # --smoke: the first row only
    assert label == SMOKE_ROWS[0]
    assert row["ratio"] > 0.0 and 0 <= row["wins"] <= 2 and len(row["against_quartiles_us"]) == 3
    assert len(row["this_quartiles_us"]) == 3 and type(row["claim_rule_met"]) is bool
    assert done.stderr.count("claim rule ") == len(result["operations"]) + 2
