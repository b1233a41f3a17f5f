"""
Unit and end-to-end tests for the command-line interface.

Core claims:
    - scenario dictionaries are read into the fields they name, and
      malformed input is rejected with one message per problem
    - dotted --set overrides edit schema data in place, JSON-decoding values
    - trajectory CSVs carry full-precision samples under a stable header
    - run, verify, and spectrum return the documented exit statuses
      (0 converged, 1 horizon, 2 validation, 3 unrealizable, 4 stalled, 5 I/O)
    - verify's fault injection flag makes the control-law check fail, a NaN
      or overflowing perturbation included, and a NaN error fails any check
    - verify refuses --n above 100 and --d above 3 (cli._MAX_VERIFY_ROBOTS
      and scenarios.MAX_DIMENSION, which its help names) with one line,
      before any work, and measures its errors against
      finite_difference_gradient's closure form exactly, of the cost and of
      the barrier, on both sides of the stacked route's chunk rule
    - verify runs end to end at its edge instances (2 robots on a line, 3 in
      space, 64 robots, whose stencil differences are one batched product,
      6 in space, and 63 in space, 68 on a line and 100 in space, on both
      sides of the stacked route's chunk rule), printing its five checks in
      order; --perturb there fails exactly the two control-law lines
    - main builds its parser once per process; repeated in-process calls
      parse, print help and apply -v exactly as one-shot calls do, and no
      call touches the root logger's handlers
    - -v prints, to stderr, how many robot pair slots changed coordinate
      order during a run, when any did, and one line with the command's
      wall time and exit status
    - a malformed value of any schema field makes run and spectrum exit 2
      with one-line reasons that name the field; a huge robot count does
      so before anything is allocated
    - a formation with more coordinates than the scenario's d makes run and
      spectrum exit 2 with one line; a planar hexagon embeds in d = 3, and
      runs
    - targets at or above their ceilings, or with m_2* = 0 and some
      m_k* > 0, make run exit 3 with one line, not spectrum
    - an order s whose ceilings or moments overflow floats makes run and
      spectrum exit 2 with one line that names s; spectrum's default s
      stops below that order, so a gathered team of 200 prints
    - an order whose n x n arrays would pass the 1.21 GB bound makes run and
      spectrum exit 2 with one line that names s, n and the memory, before
      any n x n array forms: 4,096 robots in the plane at s = 85 (positions
      file, within a second and below one 4,096^2 array of traced memory)
      and at s = 8 (seeded scenario)
    - a stalled run says why it stalled, in its report and summary line
    - a start whose weights underflow to 0 runs and converges, and spectrum
      prints it, like any other input; so do a pair 1e-170 apart, whose
      squared gap underflows, and a pair 1e300 apart, and a
      start that compression cannot repair exits 2 with one line, a pair at
      x = 1.7e308 among them, which says where compression stopped
    - a Euclidean distance that overflows is a weight of 0: run and
      spectrum print no numpy warning
    - every failure prints its reason to stderr, one line per problem: a
      file that is not a JSON object, an output path that is a file (once
      per trial, and the other trials still run), --trials with explicit
      positions, and moments that overflow at a scenario's s
    - a preset's data carries its whole moment table at its default s, so
      --set s can raise the order up to the table's length, and run --preset
      writes what run writes on a file that holds that data; an order outside
      the table exits 2 with the reason that preset() raises
    - a null seed takes its default: beside positions the file runs as one
      without the key, and alone it needs a seed or positions
    - ``python -m momentflow.cli`` hands main's status to the shell: 128
      robots at s = 6 (-v) and a team with a coincident pair and a pair whose
      squared gap underflows run to their horizons (exit 1) after 54 + 11 and
      552 + 95 trial steps, the latter with nothing on stderr; a reader
      that closes stdout early makes run, verify and spectrum exit 5 with no
      traceback, buffered or not
    - run --set record_every=1 writes a header, the start and one CSV row
      per accepted step, every line ending in CRLF
    - on generated files with one to three hostile schema values, max_time
      among them, run and spectrum exit 0..5 within 2 s under a budget of
      2,000 trial steps (a timer interrupts a call that overruns), without a
      traceback or warning, printing at most one stderr line unless every
      line is an ``invalid ...`` reason
    - a run that spends its trial-step budget, or whose record reaches its
      bound, ends stalled (exit 4) and says so
    - spectrum of 100 spread robots, whose differences are a BLAS product,
      prints the eigenvalues and power-sum moments of an independent oracle
    - spectrum prints pinned bytes for one file of each kind it reads
      (positions in d = 1, 2 and 3, moment targets, formation targets);
      files are strict UTF-8, so a BOM, UTF-16 or Latin-1 file exits 5 with
      one line; and a warm call opens at most 35.7 frames of momentflow's
      code, on average over those files, and none of the logging package's
"""

import argparse
import contextlib
import csv
import io
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from momentflow.cli import (
    EXIT_CONVERGED,
    EXIT_HORIZON,
    EXIT_IO,
    EXIT_STALLED,
    EXIT_UNREALIZABLE,
    EXIT_VALIDATION,
    _tie_free_config,
    apply_override,
    build_parser,
    build_report,
    main,
    write_trajectory_csv,
)
from momentflow.dynamics import TrajectoryRecord, TrajectorySample, simulate
from momentflow.gradient import (
    ControllerParams,
    TargetSpectrum,
    barrier,
    cost,
    finite_difference_gradient,
)
from momentflow.network import (
    MomentVector,
    RobotConfiguration,
    build_adjacency,
    _max_planned_order,
    complete_graph_moments,
    moments_from_eigenvalues,
    spectral_moments,
)
from momentflow.scenarios import (
    PRESET_NAMES,
    SCHEMA,
    hexagon_formation,
    preset,
    preset_data,
    random_geometric_config,
    scenario_from_dict,
    target_from_formation,
)


# -- Helpers -----------------------------------------------------------------

# A pair 900 apart: exp(-900) underflows to 0 at decay 1.
_UNDERFLOW_POSITIONS = [[0.0], [1.0], [900.0]]
# The squared x-offset 1e400 overflows; robots 0 and 2 still have a weight.
_OVERFLOWING_POSITIONS = [[0.0, 0.0], [1e200, 0.0], [1.0, 1.0]]
# A valid file whose m_2* sits above its ceiling n - 1 = 2.
_UNREALIZABLE = {"name": "ceiling", "n": 3, "d": 2, "seed": 1, "s": 2,
                 "targets": {"moments": [0, 5]}}
# m_2* = 0 forces every weight to 0, so m_3* = 7 cannot be met.
_ZERO_SECOND_MOMENT = {"name": "fz", "n": 6, "d": 3, "seed": 0, "cost_tolerance": 3.5,
                       "max_time": 2, "targets": {"moments": [0, 0, 7, 0]}}


def _assert_overflowing_moments_exit(tmp_path, capsys, n):
    """spectrum of n robots at one point with s = n exits 2 with one line naming s."""
    path = tmp_path / "gathered.json"
    path.write_text(json.dumps({"positions": [[0.0, 0.0]] * n, "s": n}))
    code = main(["spectrum", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert f"s = {n}" in captured.err and "smaller s" in captured.err
    assert "Warning" not in captured.err


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
    def test_explicit_positions(self):
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
        # Data that is not a JSON object has no fields to name.
        for data in ([], "scenario", None):
            assert scenario_from_dict(data) == (None, ["scenario data must be a JSON object"])

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

    def test_formation_dimension(self):
        # A formation in fewer dimensions embeds; one in more is refused, since its spectrum
        # may be out of the team's reach (three robots on a line cannot hold an equilateral
        # triangle's m_2 and m_3 together).
        data = {"name": "hex", "n": 7, "d": 3, "seed": 3, "z": 2, "s": 4,
                "targets": {"formation": {"type": "hexagon", "parameters": {}}}}
        params = ControllerParams(decay=1.0, metric=2, order=4)
        goal = target_from_formation(hexagon_formation(1.0), params)
        assert _build(data).targets.moments.tobytes() == goal.moments.tobytes()
        scenario, problems = scenario_from_dict(_TRIANGLE_ON_A_LINE)
        assert scenario is None
        assert problems == ["invalid formation: formation has d=2 coordinates but the "
                            "scenario declares d=1"]

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


def _csv_writer_reference(record, path):
    """The trajectory CSV as ``csv.writer`` writes it, the byte-for-byte reference."""
    order = record.samples[0].moments.order
    n, d = record.final_configuration.positions.shape
    header = (["t"] + [f"m_{k}" for k in range(1, order + 1)] + ["cost", "barrier"]
              + [f"x_{i}_{r}" for i in range(1, n + 1) for r in range(1, d + 1)])
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for sample in record.samples:
            row = ([sample.t] + list(sample.moments.values) + [sample.cost, sample.barrier]
                   + list(sample.configuration.positions.reshape(-1)))
            writer.writerow(["%.17g" % value for value in row])


def _record(*samples):
    """A finished record of the given samples, the last one final."""
    last = samples[-1]
    return TrajectoryRecord(
        samples=samples, final_configuration=last.configuration, final_moments=last.moments,
        final_eigenvalues=np.zeros(last.configuration.n), termination_reason="converged",
        accepted_steps=len(samples) - 1, rejected_steps=0, simulated_time=last.t)


def _sample(t, moments, cost, barrier, positions):
    return TrajectorySample(t=t, configuration=RobotConfiguration(positions),
                            moments=MomentVector(moments), cost=cost, barrier=barrier)


class TestTrajectoryCsvBytes:
    # Every byte as csv.writer wrote it: the header, then %.17g fields, CRLF line ends.
    @pytest.mark.parametrize("case", ["flow", "one sample", "extremes"])
    def test_same_bytes_as_csv_writer(self, quick_record, tmp_path, case):
        record = {
            "flow": quick_record,
            "one sample": _record(quick_record.samples[0]),
            "extremes": _record(
                _sample(0.0, [-0.0, 1e-300, 1e300], 1e300, -0.0, [[-0.0, 1e-300], [1e300, 0.5]]),
                _sample(1e-300, [0.0, 1e300, -1e-300], 1e-300, 1e300,
                        [[1e-300, -0.0], [-1e300, 3]]),
            ),
        }[case]
        path, reference = tmp_path / "out.csv", tmp_path / "reference.csv"
        write_trajectory_csv(record, path)
        _csv_writer_reference(record, reference)
        written = path.read_bytes()
        assert written == reference.read_bytes()
        assert written.count(b"\r\n") == len(record.samples) + 1
        assert written.count(b"\n") == len(record.samples) + 1
        if case == "extremes":
            assert written.splitlines()[1] == (b"0,-0,1e-300,1.0000000000000001e+300,"
                                               b"1.0000000000000001e+300,-0,-0,1e-300,"
                                               b"1.0000000000000001e+300,0.5")


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

    def test_record_every_one_writes_a_row_per_sample(self, tmp_path, capsys):
        # A header, the start and one row per accepted step, each line ending in CRLF.
        argv = ["run", "--preset", "rgg10", "--set", "record_every=1", "-o", str(tmp_path)]
        assert main(argv) == EXIT_CONVERGED
        report = json.loads((tmp_path / "rgg10_report.json").read_text())
        written = (tmp_path / "rgg10_trajectory.csv").read_bytes()
        assert written.count(b"\r\n") == written.count(b"\n") == report["accepted_steps"] + 2 > 2

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

    @pytest.mark.parametrize("metric", [1, 2])
    def test_verbose_counts_coordinate_order_flips(self, tmp_path, capsys, metric):
        # Robots 0 and 1 tie on y and repel each other only along x; robot 2
        # pushes the nearer robot 0 harder, so the tie breaks: one pair slot
        # changes order, and no pair crosses on x.
        path = tmp_path / "tie.json"
        path.write_text(json.dumps({
            "name": "tie", "n": 3, "d": 2, "z": metric, "s": 2, "max_time": 0.5,
            "positions": [[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]],
            "targets": {"moments": [0.0, 0.05]},
        }))
        assert main(["-v", "run", str(path), "-o", str(tmp_path)]) == EXIT_HORIZON
        with (tmp_path / "tie_report.json").open() as handle:
            assert json.load(handle)["accepted_steps"] > 0
        flips, finished = capsys.readouterr().err.splitlines()
        assert flips == "coordinate ordering changed for 1 robot pair slots during the run"
        assert finished.startswith("command finished in ")

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

    def test_non_object_file_exit(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for argv in (["run", str(path)], ["spectrum", str(path)]):
            assert main(argv) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "file must contain a JSON object\n"

    def test_output_path_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main(["run", str(path), "-o", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == ""
        assert captured.err.startswith("cannot write outputs: ")
        assert len(captured.err.splitlines()) == 1

    def test_failed_trial_says_why_and_the_next_runs(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main(["run", str(path), "-o", str(path), "--trials", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.out == "trial 0 (seed 0):\ntrial 1 (seed 1):\n0/2 trials converged\n"
        reasons = captured.err.splitlines()
        assert len(reasons) == 2
        assert all(line.startswith("cannot write outputs: ") for line in reasons)
        assert "trial_000" in reasons[0] and "trial_001" in reasons[1]

    def test_trials_need_a_seed(self, tmp_path, capsys):
        data = {key: value for key, value in _fast_scenario_data().items() if key != "seed"}
        data["positions"] = random_geometric_config(5, 2, 0).positions.tolist()
        path = tmp_path / "placed.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--trials", "2"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "--trials varies the seed; it does not apply to explicit positions\n"
        )

    def test_trials_at_horizon_exit(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        code = main([
            "run", str(path), "-o", str(tmp_path), "--trials", "2",
            "--set", "max_time=0.2", "--set", "cost_tolerance=1e-30",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_HORIZON
        assert "0/2 trials converged" in captured.out
        assert captured.out.count(": horizon after ") == 2
        assert captured.err == ""

    @pytest.mark.parametrize("order", [5, 6])
    def test_preset_order_raised_to_its_table(self, order, tmp_path, capsys):
        # rgg10 runs at s = 4 by default; its moment table goes up to m_6.
        code = main([
            "run", "--preset", "rgg10", "--set", f"s={order}", "--set", "max_time=1e-3",
            "-o", str(tmp_path),
        ])
        assert code != EXIT_VALIDATION
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "rgg10_report.json").read_text())
        table = preset("rgg10", order=6).targets.moments
        assert report["target_moments"] == table[:order].tolist()

    @pytest.mark.parametrize("name, order", [("hexagon7", 8), ("rgg10", 7), ("rgg10", 1)])
    def test_preset_order_out_of_range(self, name, order, tmp_path, capsys):
        # preset() and run --preset give an out-of-range order the same reason.
        with pytest.raises(ValueError) as raised:
            preset(name, order)
        code = main(["run", "--preset", name, "--set", f"s={order}", "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err == f"invalid scenario: {raised.value}\n"

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_runs_as_its_file_data(self, name, tmp_path, capsys):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(preset_data(name)))
        outputs = []
        for source, out in ((["--preset", name], "preset"), ([str(path)], "file")):
            assert main(["run", *source, "-o", str(tmp_path / out)]) == EXIT_CONVERGED
            report = json.loads((tmp_path / out / f"{name}_report.json").read_text())
            del report["files"]
            outputs.append((report, (tmp_path / out / f"{name}_trajectory.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert capsys.readouterr().err == ""

    def test_null_seed_beside_positions_runs(self, tmp_path, capsys):
        # A null seed takes its default, no seed, as a file without the key does.
        data = {key: value for key, value in _fast_scenario_data().items() if key != "seed"}
        data["positions"] = random_geometric_config(5, 2, 0).positions.tolist()
        csv_bytes = []
        for form, seed in (("absent", {}), ("null", {"seed": None})):
            path = tmp_path / f"{form}.json"
            path.write_text(json.dumps({**data, **seed}))
            assert main(["run", str(path), "-o", str(tmp_path / form)]) == EXIT_CONVERGED
            csv_bytes.append((tmp_path / form / "quick_trajectory.csv").read_bytes())
        assert csv_bytes[0] == csv_bytes[1]
        assert capsys.readouterr().err == ""

    def test_null_seed_alone_names_the_file_keys(self, tmp_path, capsys):
        path = tmp_path / "unplaced.json"
        path.write_text(json.dumps({**_fast_scenario_data(), "seed": None}))
        assert main(["run", str(path), "-o", str(tmp_path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid scenario: exactly one of 'seed' and 'positions' is required\n"
        )

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

    def test_zero_second_moment_exit(self, tmp_path, capsys):
        path = tmp_path / "fz.json"
        path.write_text(json.dumps(_ZERO_SECOND_MOMENT))
        code = main(["run", str(path), "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_UNREALIZABLE
        assert captured.out == ""
        assert captured.err.startswith("unrealizable targets: ")
        assert "m_3* = 7" in captured.err and "m_2* = 0" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not list(tmp_path.glob("*_report.json"))

    def test_underflowing_start_exit(self, tmp_path, capsys):
        # A weight that underflows: the start is compressed like any infeasible
        # one and converges.  A squared gap that underflows: the pair still parts.
        files = [
            {"name": "far", "n": 3, "d": 1, "s": 2, "positions": _UNDERFLOW_POSITIONS,
             "targets": {"moments": [0.0, 0.5]}},
            {"name": "pair", "n": 3, "d": 2, "z": 2, "positions": [[0, 0], [1e-170, 0], [1, 1]],
             "targets": {"moments": [0, 0.01]}},
        ]
        for data in files:
            path = tmp_path / f"{data['name']}.json"
            path.write_text(json.dumps(data))
            code = main(["run", str(path), "-o", str(tmp_path)])
            assert code == EXIT_CONVERGED
            assert capsys.readouterr().err == ""
            report = json.loads((tmp_path / f"{data['name']}_report.json").read_text())
            assert report["converged"]
            final, goal = report["final_moments"], report["target_moments"]
            assert all(got > want for got, want in zip(final[1:], goal[1:]))

    def test_pair_1e300_apart_converges(self, tmp_path, capsys):
        # Every weight underflows and no number of x0.9 steps could help;
        # one larger contraction brings the pair to within 700 of each other.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "name": "far", "n": 2, "d": 1, "s": 2,
            "positions": [[0], [1e300]], "targets": {"moments": [0, 0.5]},
        }))
        code = main(["run", str(path), "-o", str(tmp_path)])
        assert code == EXIT_CONVERGED
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "far_report.json").read_text())
        assert report["final_moments"][1] > 0.5

    def test_unrepairable_start_exit(self, tmp_path, capsys):
        # Two robots 2 ulps apart at 1e20: rounding stops every contraction
        # short, so the start never becomes feasible.
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps({
            "name": "stuck", "n": 2, "d": 1, "s": 2,
            "positions": [[1e20], [1e20 + 32768.0]],
            "targets": {"moments": [0, 0.5]},
        }))
        code = main(["run", str(path), "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert captured.err.startswith("cannot run: centroid compression failed")
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("metric", [1, 2])
    def test_far_pair_sharing_a_coordinate_exit(self, tmp_path, capsys, metric):
        # Every coordinate is finite, and so is every centre that compression
        # takes; at a centre near 8.5e307 it stops short, and says so.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "name": "far", "n": 4, "d": 2, "z": metric,
            "positions": [[1.7e308, 0], [1.7e308, 1], [0, 0], [0, 1]],
            "targets": {"moments": [0, 0.1, 0.01]},
        }))
        code = main(["run", str(path), "-o", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.err.startswith("cannot run: centroid compression failed")
        assert "about a centre at 8.5e+307, is below the precision" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_overflowing_distance_run_quiet(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "name": "wide", "n": 3, "d": 2, "s": 2, "z": 2,
            "positions": _OVERFLOWING_POSITIONS,
            "targets": {"moments": [0, 0.5]},
        }))
        code = main(["run", str(path), "-o", str(tmp_path)])
        assert code == EXIT_CONVERGED
        assert capsys.readouterr().err == ""

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
        # Every drift is infinite, so no candidate has finite positions:
        # every trial step is rejected and the step size halves down to its
        # floor.
        def infinite(state, coefficients):
            return np.full(state.positions.shape, np.inf)

        monkeypatch.setattr("momentflow.gradient._Evaluation._project", infinite)
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(_fast_scenario_data()))
        assert main(["run", str(path), "-o", str(tmp_path)]) == EXIT_STALLED
        summary = capsys.readouterr().out.splitlines()[0]
        assert "minimum step size" in summary
        report = json.loads((tmp_path / "quick_report.json").read_text())
        assert report["accepted_steps"] == 0
        assert "minimum step size" in report["termination_detail"]

    def test_budget_stall_says_why(self, tmp_path, capsys, monkeypatch):
        # At dt = 1e-8, rgg10 takes about 350,000 trial steps to converge;
        # the budget ends the run first.
        monkeypatch.setattr("momentflow.dynamics.MAX_TRIAL_STEPS", 100)
        argv = ["run", "--preset", "rgg10", "--set", "dt=1e-8", "-o", str(tmp_path)]
        assert main(argv) == EXIT_STALLED
        summary = capsys.readouterr().out.splitlines()[0]
        assert "the budget of 100 trial steps ran out" in summary
        report = json.loads((tmp_path / "rgg10_report.json").read_text())
        assert report["termination_reason"] == "stalled"
        assert report["accepted_steps"] + report["rejected_steps"] == 100
        assert report["termination_detail"].startswith("the budget of 100 trial steps")

    def test_record_bound_stall_says_why(self, tmp_path, capsys, monkeypatch):
        # hexagon7 (n = 7, d = 2, s = 7) accepts 833 steps; room for 50 samples ends it.
        monkeypatch.setattr("momentflow.dynamics._MAX_PLAN_BYTES", 50 * 8 * (7 * 2 + 7))
        argv = ["run", "--preset", "hexagon7", "--set", "record_every=1", "-o", str(tmp_path)]
        assert main(argv) == EXIT_STALLED
        summary = capsys.readouterr().out.splitlines()[0]
        assert "the record's bound of 50 samples" in summary and "record_every = 1" in summary
        report = json.loads((tmp_path / "hexagon7_report.json").read_text())
        assert report["accepted_steps"] == 50
        written = (tmp_path / "hexagon7_trajectory.csv").read_bytes()
        assert written.count(b"\n") <= 52  # a header and at most 51 samples

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

    def test_negative_seed_exit(self, capsys):
        assert main(["verify", "--seed", "-1"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verify needs n >= 2, d >= 1, trials >= 0, seed >= 0\n"

    @pytest.mark.parametrize("perturb", ["nan", "1e308", "inf"])
    def test_non_finite_perturbation_fails(self, capsys, perturb):
        # NaN must not vanish in the worst-error maximum, and an overflowing
        # product fails without a numpy warning (warnings are errors here).
        code = main(["verify", "--trials", "2", "--perturb", perturb])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        failing = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failing] == [
            "FAIL  control law vs cost gradient (metric 1)",
            "FAIL  control law vs cost gradient (metric 2)",
        ]

    @pytest.mark.parametrize("name, check", [
        ("walk_weight_sum", "walk enumeration"),
        ("trace_derivative", "trace derivative"),
        ("control_law", "control law"),
        ("barrier_gradient", "barrier gradient"),
    ])
    def test_nan_error_fails_its_check(self, capsys, monkeypatch, name, check):
        def nan_like(*args):
            first = args[0]
            return np.full(first.positions.shape, np.nan) if hasattr(first, "positions") else np.nan

        monkeypatch.setattr(f"momentflow.cli.{name}", nan_like)
        assert main(["verify", "--trials", "2"]) == 1
        failing = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("FAIL")]
        assert failing and all(check in line and "worst error nan" in line for line in failing)

    def test_robot_count_bound(self, capsys):
        # Finite differences cost about n^3 per trial: refused before any work.
        start = time.perf_counter()
        assert main(["verify", "--n", "101", "--trials", "1"]) == EXIT_VALIDATION
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verify takes n <= 100, got n=101\n"
        text = " ".join(_help_text(main, ["verify", "--help"], capsys).split())
        assert "--n N robots per instance, 2..100 (default 6)" in text
        assert main(["verify", "--n", "100", "--trials", "0"]) == 0

    def test_dimension_bound(self, capsys):
        # As in scenario files; 300 dimensions ran 11 s to a false NaN failure.
        start = time.perf_counter()
        assert main(["verify", "--d", "4", "--trials", "1"]) == EXIT_VALIDATION
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verify takes d <= 3, got d=4\n"
        text = " ".join(_help_text(main, ["verify", "--help"], capsys).split())
        assert "--d D spatial dimension, 1..3 (default 2)" in text
        assert main(["verify", "--d", "3", "--trials", "0"]) == 0

    @pytest.mark.parametrize("n, d, metric", [
        (2, 1, 1), (3, 3, 2), (6, 2, 1), (6, 2, 2), (9, 3, 1), (31, 2, 2), (63, 1, 1), (64, 1, 2),
        (69, 1, 2), (61, 3, 1),
    ])
    def test_stacked_differences_are_the_oracle_s(self, n, d, metric):
        rng = np.random.default_rng(n * d)
        order = min(5, n)
        config = _tie_free_config(rng, n, d)
        params = ControllerParams(metric=metric, order=order,
                                  epsilons=(0.0, *(0.05 * (k + 2) for k in range(order - 1))))
        far = target_from_formation(_tie_free_config(rng, n, d), params)
        below = TargetSpectrum(target_from_formation(config, params).moments * 0.5)
        for field, targets in ((cost, far), (barrier, below)):
            oracle = finite_difference_gradient(lambda c: field(c, targets, params), config)
            assert np.abs(oracle).max() > 0.0
            stacked = finite_difference_gradient(field, config, targets, params)
            assert np.array_equal(oracle, stacked)

    @pytest.mark.parametrize("argv, failing", [
        # walk_n = 2, order 2, one barrier constant, and the trace check's j is always 1
        (["--n", "2", "--d", "1", "--trials", "3"], ()),
        (["--n", "2", "--d", "1", "--trials", "3", "--perturb", "1e-3"], (2, 3)),
        (["--n", "3", "--d", "3", "--trials", "2"], ()),
        (["--n", "64", "--trials", "1"], ()),  # the stencil's differences: one batched product
        (["--trials", "2", "--d", "3"], ()),
        # The chunk rule's sides: 63 robots in space take one team a call, 68 on a line the
        # largest stack (a batched product); 100 in space, the largest n, one team a call.
        (["--n", "63", "--d", "3", "--trials", "1"], ()),
        (["--n", "68", "--d", "1", "--trials", "1"], ()),
        (["--n", "100", "--d", "3", "--trials", "1"], ()),
    ])
    def test_edge_instances(self, capsys, argv, failing):
        labels = ["walk enumeration vs matrix powers", "trace derivative vs finite differences",
                  "control law vs cost gradient (metric 1)",
                  "control law vs cost gradient (metric 2)",
                  "barrier gradient vs finite differences"]
        assert main(["verify", *argv]) == (1 if failing else 0)
        captured = capsys.readouterr()
        assert captured.err == ""
        *checks, last = captured.out.splitlines()
        assert [line.split(": worst error ")[0] for line in checks] == [
            f"{'FAIL' if index in failing else 'PASS'}  {label}"
            for index, label in enumerate(labels)]
        assert last == (f"{len(failing)} check(s) failed" if failing else "all checks passed")

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

    def test_overflowing_distance_quiet(self, tmp_path, capsys):
        # Robot 1's distances overflow to inf, a weight of 0.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"positions": _OVERFLOWING_POSITIONS, "z": 2}))
        code = main(["spectrum", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        m2 = 2.0 * np.exp(-2.0 * np.sqrt(2.0)) / 3.0
        assert float(captured.out.splitlines()[3].split(" = ", 1)[1]) == approx(m2, rel=1e-5)

    def test_overflowing_moments_exit(self, tmp_path, capsys):
        # An explicit s = n = 200 makes m_k of a gathered team overflow.
        _assert_overflowing_moments_exit(tmp_path, capsys, 200)

    def test_overflowing_moments_exit_from_144_robots(self, tmp_path, capsys):
        # The smallest such team: ||A^72||_F^2 = 143^144 + 143 is not a float.
        _assert_overflowing_moments_exit(tmp_path, capsys, 144)

    def test_overflowing_moments_of_a_scenario_exit(self, tmp_path, capsys):
        # A valid scenario whose start, 150 robots at one point, has no
        # finite m_142: spectrum says so in one line that names s.
        path = tmp_path / "gathered.json"
        path.write_text(json.dumps({
            "name": "gathered", "n": 150, "d": 2, "s": 150,
            "positions": [[0.0, 0.0]] * 150, "targets": {"moments": [0.0] * 150},
        }))
        assert main(["spectrum", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot evaluate the spectrum: ")
        assert "m_142" in captured.err and "s = 150" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("metric", [1, 2])
    def test_team_above_the_product_switch(self, tmp_path, capsys, metric):
        # 100 robots form their differences as one BLAS product; the oracle
        # subtracts all axes at once and sums the powers of eigvalsh's spectrum.
        positions = 20.0 * np.random.default_rng(5).random((100, 2))
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps({"positions": positions.tolist(), "z": metric}))
        assert main(["spectrum", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == f"n = 100, d = 2, c = 1, z = {metric}"
        offsets = np.abs(positions[:, None, :] - positions[None, :, :])
        dist = offsets.sum(axis=2) if metric == 1 else np.sqrt((offsets**2).sum(axis=2))
        weights = np.exp(-dist)
        np.fill_diagonal(weights, 0.0)
        eigs = np.linalg.eigvalsh(weights)[::-1]
        printed = [float(v) for v in lines[1].split(": ", 1)[1].split(", ")]
        assert printed == approx(eigs, rel=1e-5, abs=1e-9)
        moments = [float(line.split(" = ", 1)[1]) for line in lines[2:]]
        assert lines[2] == "m_1 = 0" and len(moments) == _max_planned_order(100, 0) == 100
        assert moments[1:] == approx([np.mean(eigs**k) for k in range(2, 101)], rel=1e-5)

    def test_one_robot_exit(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"positions": [[0.0, 0.0]]}))
        assert main(["spectrum", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid positions file: a network needs at least 2 robots, got n=1\n"
        )

    def test_gathered_team_default_order(self, tmp_path, capsys):
        # Without s, the order stops where the ceilings would overflow.
        path = tmp_path / "gathered.json"
        path.write_text(json.dumps({"positions": [[0.0, 0.0]] * 200}))
        code = main(["spectrum", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 2 + _max_planned_order(200, 0) == 136
        ceilings = complete_graph_moments(200, 134).values
        assert float(lines[-1].split(" = ", 1)[1]) == approx(ceilings[-1], rel=1e-5)

    def test_too_many_positions_exit(self, tmp_path, capsys):
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps({"positions": [[0.5]] * 4097}))
        assert main(["spectrum", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid positions file: need at most 4096 robots, got n=4097\n"

    def test_order_beyond_the_memory_bound_exit(self, tmp_path, capsys):
        # 4,096 robots in the plane at s = 85 plan 49 arrays of 134 MB, over
        # the 1.21 GB bound: refused before the weights or any n x n array form.
        positions = np.random.default_rng(3).random((4096, 2))
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps({"positions": positions.tolist(), "s": 85}))
        tracemalloc.start()
        try:
            started = time.perf_counter()
            code = main(["spectrum", str(path)])
            elapsed, peak = time.perf_counter() - started, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION and elapsed < 1.0 and peak < 4096 * 4096 * 8
        assert capsys.readouterr() == ("", (
            "cannot evaluate the spectrum: s = 85 needs 6.58 GB of 4096 x 4096 arrays, "
            "over the 1.21 GB bound; a smaller s is needed\n"))

    @pytest.mark.parametrize("command", ["run", "spectrum"])
    def test_seeded_team_beyond_the_memory_bound_exit(self, tmp_path, capsys, command):
        # s = 8 plans 4 + 4 + 2 arrays for 4,096 robots in the plane, one too many.
        data = {"name": "crowd", "n": 4096, "d": 2, "seed": 1,
                "targets": {"moments": [0.0] + [1.0] * 7}}
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps(data))
        argv = [command, str(path)] + (["-o", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == EXIT_VALIDATION
        reason = "cannot run" if command == "run" else "cannot evaluate the spectrum"
        assert capsys.readouterr() == ("", (
            f"{reason}: s = 8 needs 1.34 GB of 4096 x 4096 arrays, "
            "over the 1.21 GB bound; a smaller s is needed\n"))
        assert not (tmp_path / "out").exists()


# One file of each kind that spectrum reads, with the stdout it prints: positions
# for d = 1, 2 and 3 (both metrics, default c and s included), moment targets on
# a seeded start and formation targets on explicit positions.
_SPECTRUM_FILES = {
    "line": ({"positions": [[0.0], [0.7], [1.9], [2.2]], "z": 1, "s": 4}, (
        "n = 4, d = 1, c = 1, z = 1\n"
        "eigenvalues (descending): 1.03773, 0.218335, -0.510307, -0.745758\n"
        "m_1 = 0\nm_2 = 0.485281\nm_3 = 0.145069\nm_4 = 0.384769\n")),
    "plane": ({"positions": [[0.1, 0.2], [0.9, 0.4], [0.5, 1.1], [1.3, 1.0], [0.4, 0.6]],
               "c": 1.5, "z": 2, "s": 5}, (
        "n = 5, d = 2, c = 1.5, z = 2\n"
        "eigenvalues (descending): 1.30161, -0.0512407, -0.275472, -0.391349, -0.58355\n"
        "m_1 = 0\nm_2 = 0.453278\nm_3 = 0.385098\nm_4 = 0.603095\nm_5 = 0.731514\n")),
    "space": ({"positions": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.2, 1.0, 0.3],
                             [0.6, 0.4, 1.0], [1.0, 1.0, 1.0], [0.3, 0.8, 0.1]],
               "c": 0.5, "z": 1}, (
        "n = 6, d = 3, c = 0.5, z = 1\n"
        "eigenvalues (descending): 2.3365, -0.0487768, -0.262892, -0.576486, -0.656393, "
        "-0.791956\n"
        "m_1 = 0\nm_2 = 1.15352\nm_3 = 1.96103\nm_4 = 5.08294\nm_5 = 11.5229\n"
        "m_6 = 27.178\n")),
    "moments": ({"name": "moments", "n": 6, "d": 2, "seed": 3, "z": 2,
                 "targets": {"moments": [0.0, 0.4, 0.2, 0.3]}}, (
        "scenario moments: initial configuration\n"
        "n = 6, d = 2, c = 1, z = 2\n"
        "eigenvalues (descending): 3.135, -0.236568, -0.515592, -0.733583, -0.798914, "
        "-0.850341\n"
        "m_1 = 0\nm_2 = 2.00825\nm_3 = 4.85693\nm_4 = 16.3146\n"
        "target moments: 0, 0.4, 0.2, 0.3\n")),
    "formation": ({"name": "formation", "n": 5, "d": 2, "s": 4, "c": 2.0, "z": 2,
                   "positions": [[0.0, 0.0], [0.5, 0.1], [0.2, 0.6], [0.8, 0.7], [0.4, 0.3]],
                   "targets": {"formation": {"type": "positions", "parameters": {"positions": [
                       [0.0, 0.0], [0.3, 0.0], [0.0, 0.3], [0.3, 0.3], [0.15, 0.5]]}}}}, (
        "scenario formation: initial configuration\n"
        "n = 5, d = 2, c = 2, z = 2\n"
        "eigenvalues (descending): 1.4296, -0.101771, -0.307459, -0.345288, -0.675081\n"
        "m_1 = 0\nm_2 = 0.544719\nm_3 = 0.50856\nm_4 = 0.881574\n"
        "target moments: 0, 1.02193, 1.44331, 3.24473\n"
        "reference eigenvalues: 1.99298, -0.218217, -0.428044, -0.669579, -0.677141\n")),
}


def _spectrum_file(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(_SPECTRUM_FILES[kind][0]))
    return path


class TestColdSpectrum:
    @pytest.mark.parametrize("kind", sorted(_SPECTRUM_FILES))
    def test_golden_stdout(self, tmp_path, capsys, kind):
        assert main(["spectrum", str(_spectrum_file(tmp_path, kind))]) == 0
        assert capsys.readouterr() == (_SPECTRUM_FILES[kind][1], "")

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "latin-1"])
    def test_files_are_read_as_utf8(self, tmp_path, capsys, encoding):
        # RFC 8259: JSON exchanged between systems is UTF-8, without a BOM.
        # The Latin-1 file differs from UTF-8 only in its name's "e acute".
        data = {**_SPECTRUM_FILES["moments"][0], "name": "caf\u00e9"}
        path = tmp_path / "encoded.json"
        path.write_bytes(json.dumps(data, ensure_ascii=False).encode(encoding))
        assert main(["spectrum", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("file is not valid JSON: ")
        assert len(captured.err.splitlines()) == 1

    def test_utf8_names_print(self, tmp_path, capsys):
        data = {**_SPECTRUM_FILES["moments"][0], "name": "caf\u00e9"}
        path = tmp_path / "named.json"
        path.write_bytes(json.dumps(data, ensure_ascii=False).encode("utf-8"))
        assert main(["spectrum", str(path)]) == 0
        assert capsys.readouterr().out.startswith("scenario caf\u00e9: initial configuration\n")

    def test_frames_per_call(self, tmp_path, capsys):
        # A cold spectrum call's own evaluation is a few numpy calls on small
        # arrays, so Python glue sets much of its time.  Count the frames that
        # momentflow's code and the logging package open (numpy's and argparse's
        # vary with their versions), after one warm call per file: 35.2 and 0
        # per call over these five files on Python 3.11 (3.12 on count fewer).
        paths = [_spectrum_file(tmp_path, kind) for kind in sorted(_SPECTRUM_FILES)]
        for path in paths:
            assert main(["spectrum", str(path)]) == 0
        package = os.path.dirname(main.__code__.co_filename) + os.sep
        logs = os.path.dirname(logging.__file__) + os.sep
        calls = {package: 0, logs: 0}

        def profile(frame, event, arg):
            if event == "call":
                for prefix in calls:
                    if frame.f_code.co_filename.startswith(prefix):
                        calls[prefix] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            codes = [main(["spectrum", str(path)]) for path in paths]
        finally:
            sys.setprofile(previous)
        assert codes == [0] * len(paths)
        capsys.readouterr()
        # At least main, the file's reader and the evaluation per call; at most
        # the measured counts + 0.5 per call.
        assert 10 * len(paths) <= calls[package] <= 35.7 * len(paths)
        assert calls[logs] == 0


# == 7. One parser per process ==============================================

def _help_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


class TestSharedParser:
    def test_built_once(self, monkeypatch, capsys):
        assert build_parser() is build_parser()
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(5):
            assert main(["spectrum", "--preset", "rgg10"]) == 0
        assert main(["verify", "--trials", "0"]) == 0
        assert built == [
            "momentflow", "momentflow run", "momentflow verify", "momentflow spectrum",
        ]

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["spectrum", "--preset", "hexagon7"]) == 0
        before = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["spectrum", "--preset", "nosuch"])
        assert exit_info.value.code == EXIT_VALIDATION
        assert "invalid choice" in capsys.readouterr().err
        assert main(["spectrum", "--preset", "hexagon7"]) == 0
        assert capsys.readouterr().out == before

    def test_overrides_do_not_accumulate(self, monkeypatch, capsys):
        seen = []

        def record(data):
            seen.append(json.loads(json.dumps(data)))
            return None, ["recorded"]

        monkeypatch.setattr("momentflow.cli.scenario_from_dict", record)
        assert main(["run", "--preset", "rgg10", "--set", "s=2"]) == EXIT_VALIDATION
        assert main(["run", "--preset", "rgg10", "--set", "record_every=5"]) == EXIT_VALIDATION
        # The preset's data: its whole moment table (m_1..m_6) at its default s = 4.
        expected = preset_data("rgg10")
        assert len(expected["targets"]["moments"]) == 6 and expected["s"] == 4
        assert seen[1] == {**expected, "record_every": 5}
        assert seen[0]["s"] == 2 and seen[1]["s"] == expected["s"] != 2

    @pytest.mark.parametrize("argv", [
        ["--help"], ["run", "--help"], ["verify", "--help"], ["spectrum", "--help"],
    ])
    def test_help_matches_fresh_parser(self, capsys, argv):
        assert main(["spectrum", "--preset", "rgg10"]) == 0
        capsys.readouterr()
        shared = _help_text(main, argv, capsys)
        fresh = _help_text(build_parser.__wrapped__().parse_args, argv, capsys)
        assert shared == fresh
        assert shared.startswith("usage: momentflow")

    @pytest.mark.parametrize("verbose_first", [False, True])
    def test_verbose_applies_per_call(self, capsys, verbose_first):
        quiet_argv = ["spectrum", "--preset", "rgg10"]
        verbose_argv = ["-v", *quiet_argv]
        calls = [verbose_argv, quiet_argv] if verbose_first else [quiet_argv, verbose_argv]
        handlers = logging.root.handlers[:]
        errs = []
        for argv in calls:
            assert main(argv) == 0
            errs.append(capsys.readouterr().err)
        assert logging.root.handlers == handlers
        verbose, quiet = errs if verbose_first else errs[::-1]
        assert quiet == ""
        assert re.fullmatch(r"command finished in \d+\.\d\d s with exit status 0\n", verbose)


# == 8. Malformed fields =====================================================

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
_TRIANGLE_ON_A_LINE = {
    "name": "tri", "n": 3, "d": 1, "positions": [[0], [0.5], [2]], "max_time": 2000,
    "targets": {"formation": {"type": "positions", "parameters": {
        "positions": [[0, 0], [1, 0], [0.5, 0.8660254037844386]]}}},
}
_RAGGED = [[0.0, 0.0], [1.0]] + [[0.5, 0.5]] * 3
# Coordinate rows whose first entry is not a JSON number, though Python's float() reads it.
_BOOLEAN_ROWS = [[True, 0], [0, 1], [2, 2], [1, 3], [3, 0]]
_STRING_ROWS = [["0.5", 0], [0, 1], [2, 2], [1, 3], [3, 0]]


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
    "reference_eigenvalues overflow": (
        _malformed(dict(_SCENARIO, n=2), "reference_eigenvalues", [1e200, -1e200]),
        "reference eigenvalues"),
    "reference_eigenvalues overflow s=3": (
        _malformed(dict(_SCENARIO, n=3, s=3, targets={"moments": [0.0, 0.5, 0.1]}),
                   "reference_eigenvalues", [1e103, -1e103, 0.0]),
        "reference eigenvalues"),
    "positions type": (_malformed(_UNSEEDED, "positions", "x"), "'positions'"),
    "positions ragged": (_malformed(_UNSEEDED, "positions", _RAGGED), "'positions'"),
    "positions shape": (_malformed(_UNSEEDED, "positions", [[0.0]] * 5), "positions"),
    "positions boolean": (_malformed(_UNSEEDED, "positions", _BOOLEAN_ROWS), "'positions'"),
    "positions string": (_malformed(_UNSEEDED, "positions", _STRING_ROWS), "'positions'"),
    "unknown field": (_malformed(_SCENARIO, "mystery", 1), "mystery"),
    "formation type": (_hexagon("targets.formation.type", "square"),
                       "'targets.formation.type'"),
    "formation parameter type": (_hexagon("targets.formation.parameters.side_length", "x"),
                                 "'targets.formation.parameters.side_length'"),
    "formation parameter range": (_hexagon("targets.formation.parameters.side_length", -1.0),
                                  "side_length"),
    "formation parameter unknown": (_hexagon("targets.formation.parameters.radius", 1.0),
                                    "radius"),
    "formation s above n": (_hexagon("s", 9), "s=9"),
    "formation d above d": (_hexagon("d", 1), "formation has d=2 coordinates"),
    "formation positions ragged": (_malformed(
        _SCENARIO, "targets", {"formation": {"type": "positions",
                                             "parameters": {"positions": _RAGGED}}}),
        "'targets.formation.parameters.positions'"),
    "formation positions boolean": (_malformed(
        _SCENARIO, "targets", {"formation": {"type": "positions",
                                             "parameters": {"positions": _BOOLEAN_ROWS}}}),
        "'targets.formation.parameters.positions'"),
    "formation positions string": (_malformed(
        _SCENARIO, "targets", {"formation": {"type": "positions",
                                             "parameters": {"positions": _STRING_ROWS}}}),
        "'targets.formation.parameters.positions'"),
    "positions file positions": (_malformed(_POSITIONS_FILE, "positions", _RAGGED),
                                 "'positions'"),
    "positions file boolean": (_malformed(_POSITIONS_FILE, "positions", _BOOLEAN_ROWS[:3]),
                               "'positions'"),
    "positions file string": (_malformed(_POSITIONS_FILE, "positions", _STRING_ROWS[:3]),
                              "'positions'"),
    "positions file c": (_malformed(_POSITIONS_FILE, "c", 0.0), "'c'"),
    "positions file z": (_malformed(_POSITIONS_FILE, "z", "two"), "'z'"),
    "positions file s": (_malformed(_POSITIONS_FILE, "s", 0), "'s'"),
    "positions file unknown": (_malformed(_POSITIONS_FILE, "bogus", 1), "bogus"),
    "positions file without positions": ({"c": 1.0, "z": 2}, "'positions'"),
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

    @pytest.mark.parametrize("command", ["run", "spectrum"])
    def test_formation_dimension(self, command, tmp_path, capsys):
        # Refused in one line where the formation has more coordinates than d; a planar
        # hexagon in d = 3 runs.
        for data, code, err in [
                (_TRIANGLE_ON_A_LINE, EXIT_VALIDATION, "invalid scenario: invalid formation: "
                 "formation has d=2 coordinates but the scenario declares d=1\n"),
                (dict(_SCENARIO, n=7, d=3, s=4, targets=_HEXAGON), 0, "")]:
            path = tmp_path / "formation.json"
            path.write_text(json.dumps(data))
            assert main([command, str(path), "-o", str(tmp_path)] if command == "run"
                        else [command, str(path)]) == code
            assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command", ["run", "spectrum"])
    def test_inconsistent_reference_eigenvalues(self, command, tmp_path, capsys):
        # A file's own reference spectrum is still checked against its moment targets.
        path = tmp_path / "reference.json"
        path.write_text(json.dumps(dict(_SCENARIO, reference_eigenvalues=[1, 1, -1, -1, 0])))
        assert main([command, str(path), "-o", str(tmp_path)] if command == "run"
                    else [command, str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "invalid scenario: reference eigenvalues reproduce "
                                       "m_2 = 0.8 but the target is 0.5 (difference 0.3 "
                                       "exceeds 0.01)\n")

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


# == 9. The status a shell sees ==============================================

def _module_cli(*argv, stdout=subprocess.PIPE, **environ):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **environ)
    return subprocess.run(
        [sys.executable, "-m", "momentflow.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


def test_module_entry_point_exit_statuses(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed(_SCENARIO, "mystery", 1)))
    done = _module_cli("spectrum", str(path))
    assert done.returncode == EXIT_VALIDATION
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "mystery" in done.stderr
    done = _module_cli("spectrum", "--preset", "rgg10")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert "target moments: 0, 3.11, 13.45, 71.6" in done.stdout


def _crowd():
    """128 robots at s = 6, 0.95 of the way from a 14 x 14 formation's centroid to it."""
    rng = np.random.default_rng(7)
    goal = 14.0 * rng.random((128, 2))
    start = goal.mean(axis=0) + 0.95 * (goal - goal.mean(axis=0)) + rng.normal(0.0, 1e-3, (128, 2))
    return {"name": "crowd", "n": 128, "d": 2, "z": 2, "s": 6, "max_time": 0.2,
            "positions": start.tolist(), "targets": {"formation": {"type": "positions",
            "parameters": {"positions": goal.tolist()}}}}


_TOUCHING = {"name": "touching", "n": 7, "d": 2, "z": 2, "max_time": 0.05,
             "positions": [[0, 0], [1e-163, 0], [1, 1], [1, 1], [2, 0], [0, 2], [2, 2]],
             "targets": {"formation": {"type": "hexagon"}}}


@pytest.mark.parametrize("data, verbose, steps", [
    # The large-team kernels: the batched difference product, the half chain A..A^3 and the
    # drift's product, each by matmul(..., out=) into the flow's workspace.
    (_crowd(), ("-v",), (54, 11)),
    # A coincident pair and a pair 1e-163 apart, whose squared gap underflows: the careful
    # route forms their distances again, with nothing on stderr.
    (_TOUCHING, (), (552, 95)),
], ids=["crowd", "touching"])
def test_module_entry_point_runs_to_its_horizon(tmp_path, data, verbose, steps):
    path = tmp_path / "team.json"
    path.write_text(json.dumps(data))
    done = _module_cli(*verbose, "run", str(path), "-o", str(tmp_path))
    assert done.returncode == EXIT_HORIZON, done.stderr
    assert verbose or done.stderr == ""
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    report = json.loads((tmp_path / f"{data['name']}_report.json").read_text())
    assert (report["accepted_steps"], report["rejected_steps"]) == steps


@pytest.mark.parametrize("command", [
    ("spectrum", "--preset", "rgg10"), ("verify", "--trials", "2"), ("run", "--preset", "rgg10"),
])
def test_closed_stdout_is_an_io_failure(tmp_path, command):
    # The reader is gone before the child writes.  Unbuffered, a print meets the closed pipe;
    # buffered, the flush at the end does.  Either way: status 5 and no traceback.
    argv = (*command, "-o", str(tmp_path)) if command[0] == "run" else command
    for unbuffered in ("", "1"):
        read, write = os.pipe()
        os.close(read)
        try:
            done = _module_cli(*argv, stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert done.returncode == EXIT_IO, done.stderr
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


# == 10. Exit contract on generated files ====================================

# Values that break a field's type, range or float arithmetic.
_HOSTILE = st.sampled_from([
    0, 1, -1, 1e-300, -1e-300, 1e300, -1e300, 1e-320, 745.2, 2**53 + 1,
    None, "", "x", "2", [], [0.0, 0.5], [[0.0, 0.0], [1.0, 1.0]], ["x"],
])
_MUTABLE_KEYS = sorted(SCHEMA)
# Each call must end within _WALL_BOUND seconds; a budget of _SMALL_BUDGET
# trial steps ends a run toward a huge horizon (max_time 1e300) well before.
# A timer interrupts a call that overruns, so a run that never ends fails.
_SMALL_BUDGET = 2000
_WALL_BOUND = 2.0


def _overran(signum, frame):
    raise AssertionError(f"the call did not end within {_WALL_BOUND} s")


@st.composite
def _hostile_files(draw):
    """A valid scenario of 2..8 robots with one to three keys set to hostile values."""
    n = draw(st.integers(2, 8))
    order = draw(st.integers(2, min(n, 4)))
    seed = draw(st.integers(0, 3))
    start = random_geometric_config(n, 2, seed)
    goal = 0.8 * spectral_moments(build_adjacency(start, 1.0, 2), order).values
    data = {
        "name": "hostile", "n": n, "d": 2, "seed": seed, "z": 2, "s": order,
        "max_time": draw(st.sampled_from([1e-6, 1e-5, 1e300])),
        "targets": {"moments": goal.tolist()},
    }
    keys = draw(st.lists(st.sampled_from(_MUTABLE_KEYS), min_size=1, max_size=3, unique=True))
    for key in keys:
        data[key] = draw(_HOSTILE)
    return data


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=_hostile_files())
def test_generated_files_keep_the_exit_contract(data, tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    path = root / "hostile.json"
    path.write_text(json.dumps(data))
    for argv in (["run", str(path), "-o", str(root)], ["spectrum", str(path)]):
        out, err = io.StringIO(), io.StringIO()
        # hypothesis refuses function-scoped fixtures, so no monkeypatch here.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch(
            "momentflow.dynamics.MAX_TRIAL_STEPS", _SMALL_BUDGET
        ):
            handler = signal.signal(signal.SIGALRM, _overran)
            signal.setitimer(signal.ITIMER_REAL, _WALL_BOUND)
            try:
                started = time.perf_counter()
                code = main(argv)
                wall = time.perf_counter() - started
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, handler)
        printed = out.getvalue() + err.getvalue()
        assert code in range(6), (argv, printed)
        assert wall < _WALL_BOUND, (argv, wall)
        assert "Traceback" not in printed and "Warning" not in printed
        reasons = err.getvalue().splitlines()
        assert len(reasons) <= 1 or all(line.startswith("invalid ") for line in reasons), reasons
