"""
Unit and end-to-end tests for the command-line interface.

Core claims:
    - scenario dictionaries round-trip losslessly and malformed input is
      rejected with one message per problem
    - dotted --set overrides edit schema data in place, JSON-decoding values
    - trajectory CSVs carry full-precision samples under a stable header
    - run, verify, and spectrum return the documented exit statuses
      (0 converged, 1 horizon, 2 validation, 3 unrealizable, 4 stalled, 5 I/O)
    - verify's fault injection flag makes the control-law check fail
    - a malformed value of any schema field makes run and spectrum exit 2
      with one-line reasons that name the field; a huge robot count does
      so before anything is allocated
    - targets at or above their ceilings make run exit 3, not spectrum
    - an order s whose ceilings or moments overflow floats makes run and
      spectrum exit 2 with one line that names s
    - a stalled run says why it stalled, in its report and summary line
    - a start whose weights underflow to 0 runs and converges, and spectrum
      prints it, like any other input
"""

import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from momentflow.cli import (
    EXIT_CONVERGED,
    EXIT_HORIZON,
    EXIT_IO,
    EXIT_STALLED,
    EXIT_UNREALIZABLE,
    EXIT_VALIDATION,
    apply_override,
    build_report,
    main,
    scenario_from_dict,
    scenario_to_dict,
    write_trajectory_csv,
)
from momentflow.dynamics import simulate
from momentflow.gradient import ControllerParams
from momentflow.network import build_adjacency, moments_from_eigenvalues, spectral_moments
from momentflow.scenarios import (
    hexagon_formation,
    preset,
    random_geometric_config,
    target_from_formation,
)


# -- Helpers -----------------------------------------------------------------

# A pair 900 apart: exp(-900) underflows to 0 at decay 1.
_UNDERFLOW_POSITIONS = [[0.0], [1.0], [900.0]]
# A valid file whose m_2* sits above its ceiling n - 1 = 2.
_UNREALIZABLE = {"name": "ceiling", "n": 3, "d": 2, "seed": 1, "s": 2,
                 "targets": {"moments": [0, 5]}}


def _fast_scenario_data(seed=0, n=5):
    """Schema data for a quick order-2 run with realizable targets."""
    start = random_geometric_config(n, 2, seed)
    adjacency = build_adjacency(start, 1.0, 2)
    goal = 0.8 * spectral_moments(adjacency, 2).values
    return {
        "name": "quick",
        "n": n,
        "d": 2,
        "seed": seed,
        "z": 2,
        "s": 2,
        "targets": {"moments": [float(v) for v in goal]},
    }


def _build(data):
    scenario, problems = scenario_from_dict(data)
    assert problems == [], problems
    return scenario


# == 1. Scenario dictionaries ================================================

class TestScenarioDicts:
    def test_preset_round_trip(self):
        data = scenario_to_dict(preset("rgg10"))
        back = _build(data)
        assert scenario_to_dict(back) == data

    def test_positions_round_trip(self):
        data = _fast_scenario_data()
        del data["seed"]
        data["positions"] = [
            list(map(float, row))
            for row in random_geometric_config(5, 2, 0).positions
        ]
        back = _build(data)
        assert back.seed is None
        assert np.array_equal(
            back.initial_positions, np.array(data["positions"])
        )
        # Defaults are filled in on the first pass; after that the
        # dictionary form is a fixed point.
        full = scenario_to_dict(back)
        assert "seed" not in full
        assert full["positions"] == data["positions"]
        assert scenario_to_dict(_build(full)) == full

    def test_unknown_field_rejected(self):
        data = _fast_scenario_data()
        data["extra"] = 1
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("unknown fields" in p for p in problems)

    def test_missing_required_fields(self):
        scenario, problems = scenario_from_dict({})
        assert scenario is None
        text = " ".join(problems)
        for needle in ("'name'", "'n'", "'d'", "'targets'", "'seed'"):
            assert needle in text

    def test_type_guards(self):
        data = _fast_scenario_data()
        data.update(n="five", c=-1.0, z=3, s=1, seed=True)
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        text = " ".join(problems)
        assert "'n' must be an integer" in text
        assert "'c' must be positive" in text
        assert "'z' must be 1 or 2" in text
        assert "'s' must be at least 2" in text
        assert "'seed' must be an integer" in text

    def test_seed_xor_positions(self):
        data = _fast_scenario_data()
        data["positions"] = [[0.0, 0.0]] * 5
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("exactly one of 'seed' and 'positions'" in p for p in problems)
        del data["seed"], data["positions"]
        scenario, problems = scenario_from_dict(data)
        assert scenario is None

    def test_moments_truncated_by_order(self):
        data = _fast_scenario_data()
        data["targets"]["moments"] = [0.0, 0.8, 0.9, 1.0]
        data["s"] = 2
        scenario = _build(data)
        assert scenario.params.order == 2
        assert np.array_equal(scenario.targets.moments, [0.0, 0.8])

    def test_order_defaults_to_moment_count(self):
        data = _fast_scenario_data()
        del data["s"]
        scenario = _build(data)
        assert scenario.params.order == 2

    def test_order_exceeding_moments(self):
        data = _fast_scenario_data()
        data["s"] = 5
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("exceeds the 2 provided target moments" in p for p in problems)

    def test_formation_targets(self):
        data = {
            "name": "hex",
            "n": 7,
            "d": 2,
            "seed": 3,
            "z": 2,
            "s": 4,
            "targets": {
                "formation": {"type": "hexagon", "parameters": {"side_length": 1.0}}
            },
        }
        scenario = _build(data)
        params = ControllerParams(decay=1.0, metric=2, order=4)
        goal = target_from_formation(hexagon_formation(1.0), params)
        assert scenario.targets.moments == approx(goal.moments)
        assert scenario.targets.reference_eigenvalues.shape == (7,)

    def test_formation_robot_count_mismatch(self):
        data = {
            "name": "hex",
            "n": 6,
            "d": 2,
            "seed": 3,
            "targets": {"formation": {"type": "hexagon", "parameters": {}}},
        }
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("declares n=6" in p for p in problems)

    def test_formation_rejects_reference_eigenvalues(self):
        data = {
            "name": "hex",
            "n": 7,
            "d": 2,
            "seed": 3,
            "reference_eigenvalues": [0.0] * 7,
            "targets": {"formation": {"type": "hexagon", "parameters": {}}},
        }
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("cannot accompany" in p for p in problems)

    def test_targets_need_exactly_one_style(self):
        data = _fast_scenario_data()
        data["targets"]["formation"] = {"type": "hexagon", "parameters": {}}
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("exactly one of 'moments' and 'formation'" in p for p in problems)

    def test_explicit_epsilons(self):
        data = _fast_scenario_data()
        data["epsilons"] = [0.0, 0.001, 0.002]
        scenario = _build(data)
        assert scenario.params.epsilons == (0.0, 0.001)

    def test_short_epsilons_rejected(self):
        data = _fast_scenario_data()
        data["epsilons"] = [0.0]
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("epsilons has 1 entries" in p for p in problems)

    def test_nonzero_leading_epsilon_rejected(self):
        data = _fast_scenario_data()
        data["epsilons"] = [0.5, 0.5]
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert problems

    def test_semantic_violations_reported(self):
        data = _fast_scenario_data()
        data["targets"]["moments"][0] = 0.1
        scenario, problems = scenario_from_dict(data)
        assert scenario is None
        assert any("m_1*" in p for p in problems)


# == 2. Overrides ============================================================

class TestApplyOverride:
    def test_json_value(self):
        data = {"dt": 1.0}
        apply_override(data, "dt=0.01")
        assert data["dt"] == 0.01

    def test_string_fallback(self):
        data = {}
        apply_override(data, "name=tuned")
        assert data["name"] == "tuned"

    def test_nested_list(self):
        data = {"targets": {"moments": [0.0, 1.0]}}
        apply_override(data, "targets.moments=[0, 0.5]")
        assert data["targets"]["moments"] == [0, 0.5]

    def test_creates_missing_path(self):
        data = {}
        apply_override(data, "targets.moments=[0, 1]")
        assert data == {"targets": {"moments": [0, 1]}}

    def test_replaces_non_dict_intermediate(self):
        data = {"targets": 3}
        apply_override(data, "targets.moments=[0]")
        assert data["targets"] == {"moments": [0]}

    def test_malformed(self):
        with pytest.raises(ValueError):
            apply_override({}, "dt")
        with pytest.raises(ValueError):
            apply_override({}, "=5")


# == 3. Run outputs ==========================================================

@pytest.fixture(scope="module")
def quick_record():
    return simulate(_build(_fast_scenario_data()))


class TestTrajectoryCsv:
    def test_header(self, quick_record, tmp_path):
        path = tmp_path / "out.csv"
        write_trajectory_csv(quick_record, path)
        with path.open(newline="") as handle:
            header = next(csv.reader(handle))
        assert header == (
            ["t", "m_1", "m_2", "cost", "barrier"]
            + [f"x_{i}_{r}" for i in range(1, 6) for r in range(1, 3)]
        )

    def test_full_precision_round_trip(self, quick_record, tmp_path):
        path = tmp_path / "out.csv"
        write_trajectory_csv(quick_record, path)
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == len(quick_record.samples)
        for row, sample in zip(rows, quick_record.samples):
            values = [float(cell) for cell in row]
            expected = (
                [sample.t]
                + list(sample.moments.values)
                + [sample.cost, sample.barrier]
                + list(sample.configuration.positions.reshape(-1))
            )
            assert values == expected  # bitwise, thanks to %.17g


class TestBuildReport:
    def test_contents(self, quick_record, tmp_path):
        scenario = _build(_fast_scenario_data())
        report = build_report(
            scenario, quick_record, tmp_path / "a.csv", tmp_path / "b.json"
        )
        assert report["scenario"] == "quick"
        assert report["converged"] is True
        assert report["accepted_steps"] == quick_record.accepted_steps
        assert len(report["final_moments"]) == 2
        assert len(report["final_eigenvalues"]) == 5
        expected = abs(
            report["final_moments"][1] - report["target_moments"][1]
        ) / abs(report["target_moments"][1])
        assert report["relative_errors"][1] == approx(expected)
        assert report["termination_detail"] == ""
        json.dumps(report)  # JSON-ready throughout


# == 4. run ==================================================================

class TestRunCommand:
    def test_preset_run(self, tmp_path, capsys):
        code = main(["run", "--preset", "rgg10", "-o", str(tmp_path)])
        assert code == EXIT_CONVERGED
        out = capsys.readouterr().out
        assert "converged" in out
        with (tmp_path / "rgg10_report.json").open() as handle:
            report = json.load(handle)
        assert report["converged"] is True
        assert (tmp_path / "rgg10_trajectory.csv").exists()

    def test_scenario_file_run(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main(["run", str(path), "-o", str(tmp_path)])
        assert code == EXIT_CONVERGED
        assert (tmp_path / "quick_report.json").exists()

    def test_horizon_exit(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main(
            [
                "run", str(path), "-o", str(tmp_path),
                "--set", "max_time=0.2", "--set", "cost_tolerance=1e-30",
            ]
        )
        assert code == EXIT_HORIZON
        assert "horizon" in capsys.readouterr().out

    def test_trials(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main(["run", str(path), "-o", str(tmp_path), "--trials", "2"])
        assert code == EXIT_CONVERGED
        assert "2/2 trials converged" in capsys.readouterr().out
        for index in range(2):
            assert (tmp_path / f"trial_{index:03d}" / "quick_report.json").exists()

    def test_seed_override(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        data = _fast_scenario_data()
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "-o", str(tmp_path), "--seed", "9"])
        assert code == EXIT_CONVERGED

    def test_seed_override_needs_seeded_scenario(self, tmp_path, capsys):
        data = _fast_scenario_data()
        del data["seed"]
        data["positions"] = [
            list(map(float, row))
            for row in random_geometric_config(5, 2, 0).positions
        ]
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path), "--seed", "9"])
        assert code == EXIT_VALIDATION
        assert "does not apply" in capsys.readouterr().err

    def test_validation_exit(self, tmp_path, capsys):
        data = _fast_scenario_data()
        data["mystery"] = True
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(data))
        code = main(["run", str(path)])
        assert code == EXIT_VALIDATION
        assert "unknown fields" in capsys.readouterr().err

    def test_bad_override_exit(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        assert main(["run", str(path), "--set", "s=banana"]) == EXIT_VALIDATION
        assert main(["run", str(path), "--set", "nonsense"]) == EXIT_VALIDATION

    def test_io_exits(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == EXIT_IO
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        assert main(["run", str(broken)]) == EXIT_IO

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        assert main(["run"]) == EXIT_VALIDATION
        assert main(["run", str(path), "--preset", "rgg10"]) == EXIT_VALIDATION

    def test_bad_trial_count(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        assert main(["run", str(path), "--trials", "0"]) == EXIT_VALIDATION

    def test_unrealizable_exit(self, tmp_path, capsys):
        path = tmp_path / "ceiling.json"
        path.write_text(json.dumps(_UNREALIZABLE))
        code = main(["run", str(path), "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_UNREALIZABLE
        assert captured.out == ""
        assert captured.err.startswith("unrealizable targets: ")
        assert "m_2* = 5" in captured.err and "ceiling 2" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not list(tmp_path.glob("*_report.json"))

    def test_underflowing_start_exit(self, tmp_path, capsys):
        # The start is compressed like any infeasible one and converges.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "name": "far", "n": 3, "d": 1, "s": 2,
            "positions": _UNDERFLOW_POSITIONS,
            "targets": {"moments": [0.0, 0.5]},
        }))
        code = main(["run", str(path), "-o", str(tmp_path)])
        assert code == EXIT_CONVERGED
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "far_report.json").read_text())
        assert report["converged"]
        final, goal = report["final_moments"], report["target_moments"]
        assert all(got > want for got, want in zip(final[1:], goal[1:]))

    def test_overflowing_ceiling_exit(self, tmp_path, capsys):
        # (n-1)^k overflows floats for k > 133 at n = 200.
        path = tmp_path / "high_order.json"
        path.write_text(json.dumps({
            "name": "high_order", "n": 200, "d": 2, "s": 200, "seed": 1,
            "targets": {"moments": [0.0] + [0.1] * 199},
        }))
        code = main(["run", str(path), "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "s = 200" in captured.err and "ceiling" in captured.err
        assert "overflows" in captured.err
        assert "underflow" not in captured.err and "Warning" not in captured.err

    def test_zero_drift_start_exit(self, tmp_path, capsys):
        path = tmp_path / "coincident.json"
        path.write_text(json.dumps({
            "name": "coincident", "n": 5, "d": 2, "s": 2, "max_time": 10,
            "positions": [[0.5, 0.5]] * 5,
            "targets": {"moments": [0.0, 1.0]},
        }))
        code = main(["run", str(path), "-o", str(tmp_path)])
        assert code == EXIT_STALLED
        assert "stalled after 0 accepted steps" in capsys.readouterr().out

    def test_zero_drift_stall_says_why(self, tmp_path, capsys):
        path = tmp_path / "coincident.json"
        path.write_text(json.dumps({
            "name": "coincident", "n": 5, "d": 2, "s": 2, "max_time": 10,
            "positions": [[0.5, 0.5]] * 5,
            "targets": {"moments": [0.0, 1.0]},
        }))
        assert main(["run", str(path), "-o", str(tmp_path)]) == EXIT_STALLED
        summary = capsys.readouterr().out.splitlines()[0]
        assert "stalled after 0 accepted steps" in summary
        assert "drift is exactly zero" in summary
        report = json.loads((tmp_path / "coincident_report.json").read_text())
        assert "drift is exactly zero" in report["termination_detail"]

    def test_step_floor_stall_says_why(self, tmp_path, capsys, monkeypatch):
        # No candidate can be built, so every trial step is rejected and the
        # step size halves down to its floor.
        def unbuildable(positions):
            raise ValueError("positions must be finite")

        monkeypatch.setattr("momentflow.dynamics.RobotConfiguration", unbuildable)
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        assert main(["run", str(path), "-o", str(tmp_path)]) == EXIT_STALLED
        summary = capsys.readouterr().out.splitlines()[0]
        assert "minimum step size" in summary
        report = json.loads((tmp_path / "quick_report.json").read_text())
        assert report["accepted_steps"] == 0
        assert "minimum step size" in report["termination_detail"]

    def test_stalled_exit(self, tmp_path, capsys, monkeypatch, quick_record):
        stalled = replace(quick_record, termination_reason="stalled")
        monkeypatch.setattr("momentflow.cli.simulate", lambda scenario: stalled)
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main(["run", str(path), "-o", str(tmp_path)])
        assert code == EXIT_STALLED
        assert "stalled" in capsys.readouterr().out


# == 5. verify ===============================================================

class TestVerifyCommand:
    def test_checks_pass(self, capsys):
        code = main(["verify", "--trials", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 5
        assert "all checks passed" in out

    def test_fault_injection_fails(self, capsys):
        code = main(["verify", "--trials", "2", "--perturb", "0.5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_bad_arguments(self, capsys):
        assert main(["verify", "--n", "1"]) == EXIT_VALIDATION

    def test_zero_trials_warns(self, capsys):
        code = main(["verify", "--trials", "0"])
        assert code == 0
        assert "vacuously" in capsys.readouterr().out


# == 6. spectrum =============================================================

class TestSpectrumCommand:
    def test_preset(self, capsys):
        code = main(["spectrum", "--preset", "hexagon7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "eigenvalues (descending)" in out
        assert "target moments" in out
        assert "reference eigenvalues" in out

    def test_positions_file(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"positions": [[0.0, 0.0], [1.0, 0.0]], "s": 2}))
        code = main(["spectrum", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        # Two robots one unit apart at decay 1: m_2 = exp(-2).
        assert f"m_2 = {np.exp(-2.0):.6g}" in out

    def test_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main(["spectrum", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "initial configuration" in out

    def test_unknown_positions_field(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"positions": [[0.0], [1.0]], "bogus": 1}))
        assert main(["spectrum", str(path)]) == EXIT_VALIDATION

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["spectrum"]) == EXIT_VALIDATION
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"positions": [[0.0], [1.0]]}))
        assert main(["spectrum", str(path), "--preset", "rgg10"]) == EXIT_VALIDATION

    def test_missing_file(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "absent.json")]) == EXIT_IO

    def test_unrealizable_targets_printed(self, tmp_path, capsys):
        # Realizability is a property of a run; spectrum only reads the file.
        path = tmp_path / "ceiling.json"
        path.write_text(json.dumps(_UNREALIZABLE))
        assert main(["spectrum", str(path)]) == 0
        assert "target moments: 0, 5" in capsys.readouterr().out

    def test_underflowing_positions_exit(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"positions": _UNDERFLOW_POSITIONS}))
        code = main(["spectrum", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        printed = [float(v) for v in lines[1].split(": ", 1)[1].split(", ")]
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = np.exp(-1.0)
        eigs = np.linalg.eigvalsh(weights)[::-1]
        assert printed == approx(eigs, rel=1e-5, abs=1e-9)
        m2 = moments_from_eigenvalues(eigs, 3).values[1]
        assert float(lines[3].split(" = ", 1)[1]) == approx(m2, rel=1e-5)

    def test_overflowing_moments_exit(self, tmp_path, capsys):
        # The default s = n = 200 makes m_k of a gathered team overflow.
        path = tmp_path / "gathered.json"
        path.write_text(json.dumps({"positions": [[0.0, 0.0]] * 200}))
        code = main(["spectrum", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "s = 200" in captured.err and "smaller s" in captured.err
        assert "Warning" not in captured.err

    def test_too_many_positions_exit(self, tmp_path, capsys):
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps({"positions": [[0.5]] * 4097}))
        assert main(["spectrum", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid positions file: need at most 4096 robots, got n=4097\n"


# == 7. Malformed fields =====================================================

# Phrases that would mean a Python or numpy error leaked through unexplained.
_INTERNALS = (
    "Traceback", "<lambda>", "unexpected keyword", "array element", "could not convert",
    "float() argument", "NoneType", "not supported between", "numpy",
)
_SCENARIO = {
    "name": "quick", "n": 5, "d": 2, "seed": 0, "z": 2, "s": 2,
    "targets": {"moments": [0.0, 0.5]},
}
_UNSEEDED = {key: value for key, value in _SCENARIO.items() if key != "seed"}
_POSITIONS_FILE = {"positions": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "c": 1.0, "z": 2}
_HEXAGON = {"formation": {"type": "hexagon", "parameters": {"side_length": 1.0}}}
_RAGGED = [[0.0, 0.0], [1.0]] + [[0.5, 0.5]] * 3


def _malformed(base, path, value):
    data = json.loads(json.dumps(base))
    *parents, key = path.split(".")
    node = data
    for part in parents:
        node = node[part]
    node[key] = value
    return data


def _hexagon(path, value):
    data = dict(_SCENARIO, n=7, targets=_HEXAGON)
    return _malformed(data, path, value)


# (file data, a phrase every reason list must contain)
_MALFORMED = {
    "name type": (_malformed(_SCENARIO, "name", 5), "'name'"),
    "name empty": (_malformed(_SCENARIO, "name", ""), "name"),
    "n type": (_malformed(_SCENARIO, "n", "five"), "'n'"),
    "n null": (_malformed(_SCENARIO, "n", None), "'n'"),
    "n range": (_malformed(_SCENARIO, "n", 1), "n=1"),
    "n huge": (_malformed(_SCENARIO, "n", 10**9), "n=1000000000"),
    "n beyond floats": (_malformed(_SCENARIO, "n", 10**400), "at most 4096 robots, got n=1"),
    "d type": (_malformed(_SCENARIO, "d", 2.5), "'d'"),
    "d range": (_malformed(_SCENARIO, "d", 0), "d=0"),
    "seed type": (_malformed(_SCENARIO, "seed", "3"), "'seed'"),
    "seed range": (_malformed(_SCENARIO, "seed", -1), "seed"),
    "c type": (_malformed(_SCENARIO, "c", "one"), "'c'"),
    "c range": (_malformed(_SCENARIO, "c", -1.0), "'c'"),
    "z type": (_malformed(_SCENARIO, "z", 2.0), "'z'"),
    "z range": (_malformed(_SCENARIO, "z", 3), "'z'"),
    "s type": (_malformed(_SCENARIO, "s", True), "'s'"),
    "s range": (_malformed(_SCENARIO, "s", 1), "'s'"),
    "s above moments": (_malformed(_SCENARIO, "s", 3), "s=3"),
    "epsilons type": (_malformed(_SCENARIO, "epsilons", "small"), "'epsilons'"),
    "epsilons short": (_malformed(_SCENARIO, "epsilons", [0.0]), "epsilons"),
    "epsilons leading": (_malformed(_SCENARIO, "epsilons", [0.5, 0.0]), "epsilons"),
    "epsilons negative": (_malformed(_SCENARIO, "epsilons", [0.0, -1.0]), "epsilons"),
    "dt type": (_malformed(_SCENARIO, "dt", "fast"), "'dt'"),
    "dt range": (_malformed(_SCENARIO, "dt", 0.0), "dt"),
    "max_time type": (_malformed(_SCENARIO, "max_time", [1]), "'max_time'"),
    "max_time range": (_malformed(_SCENARIO, "max_time", -1.0), "max_time"),
    "cost_tolerance type": (_malformed(_SCENARIO, "cost_tolerance", True), "'cost_tolerance'"),
    "cost_tolerance range": (_malformed(_SCENARIO, "cost_tolerance", 0.0), "cost_tolerance"),
    "record_every type": (_malformed(_SCENARIO, "record_every", 1.5), "'record_every'"),
    "record_every range": (_malformed(_SCENARIO, "record_every", 0), "record_every"),
    "targets type": (_malformed(_SCENARIO, "targets", "x"), "'targets'"),
    "targets.moments type": (_malformed(_SCENARIO, "targets.moments", [0.0, "x"]),
                             "'targets.moments'"),
    "targets.moments m_1": (_malformed(_SCENARIO, "targets.moments", [0.1, 0.5]), "m_1*"),
    "targets.moments short": (_malformed(_SCENARIO, "targets.moments", [0.0]), "moments"),
    "reference_eigenvalues type": (_malformed(_SCENARIO, "reference_eigenvalues", "x"),
                                   "'reference_eigenvalues'"),
    "reference_eigenvalues short": (_malformed(_SCENARIO, "reference_eigenvalues", [1.0]),
                                    "reference_eigenvalues"),
    "positions type": (_malformed(_UNSEEDED, "positions", "x"), "'positions'"),
    "positions ragged": (_malformed(_UNSEEDED, "positions", _RAGGED), "'positions'"),
    "positions shape": (_malformed(_UNSEEDED, "positions", [[0.0]] * 5), "positions"),
    "unknown field": (_malformed(_SCENARIO, "mystery", 1), "mystery"),
    "formation type": (_hexagon("targets.formation.type", "square"),
                       "'targets.formation.type'"),
    "formation parameter type": (_hexagon("targets.formation.parameters.side_length", "x"),
                                 "'targets.formation.parameters.side_length'"),
    "formation parameter range": (_hexagon("targets.formation.parameters.side_length", -1.0),
                                  "side_length"),
    "formation parameter unknown": (_hexagon("targets.formation.parameters.radius", 1.0),
                                    "radius"),
    "formation positions ragged": (_malformed(
        _SCENARIO, "targets", {"formation": {"type": "positions",
                                             "parameters": {"positions": _RAGGED}}}),
        "'targets.formation.parameters.positions'"),
    "positions file positions": (_malformed(_POSITIONS_FILE, "positions", _RAGGED),
                                 "'positions'"),
    "positions file c": (_malformed(_POSITIONS_FILE, "c", 0.0), "'c'"),
    "positions file z": (_malformed(_POSITIONS_FILE, "z", "two"), "'z'"),
    "positions file s": (_malformed(_POSITIONS_FILE, "s", 0), "'s'"),
    "positions file unknown": (_malformed(_POSITIONS_FILE, "bogus", 1), "bogus"),
}


class TestMalformedFields:
    @pytest.mark.parametrize("command", ["run", "spectrum"])
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_exit_2_with_field_named_reasons(self, case, command, tmp_path, capsys):
        data, needle = _MALFORMED[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main([command, str(path), "-o", str(tmp_path)] if command == "run"
                    else [command, str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        reasons = captured.err.splitlines()
        assert reasons and all(line.startswith("invalid ") for line in reasons)
        assert needle in captured.err
        assert not [phrase for phrase in _INTERNALS if phrase in captured.err]

    @pytest.mark.parametrize("n", [10**9, 10**400])
    def test_huge_robot_count_allocates_nothing(self, n, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_malformed(_SCENARIO, "n", n)))
        tracemalloc.start()
        try:
            code = main(["run", str(path), "-o", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert peak < 1_000_000
