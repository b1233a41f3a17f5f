"""The benchmark's three workloads: inputs, operations and output checks.

A workload is built from ``--seed`` (its set-up) and then offers one
*round*: a fixed list of operations.  Each operation has a ``call``, which
invokes momentflow and is the only part that is timed, and a ``check``,
which judges the call's output against ``oracle`` and the properties the
program promises.  An operation's outcome is one of

    ok      the output passed every check
    failed  the call raised, or the CLI answered with an error status
            (2 validation, 3 unrealizable, 4 stalled, 5 I/O) where it
            should have succeeded
    wrong   the call returned an output that contradicts a check

Both ``failed`` and ``wrong`` count as failed operations; only ``wrong``
makes the run incorrect.

momentflow is reached through module attributes at call time
(``mf.dynamics.simulate``), so the tracer's patched functions are the
ones called when tracing is on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass
class Outcome:
    status: str = "ok"  # "ok", "failed" or "wrong"
    problems: list[str] = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0

    def wrong(self, problem: str) -> None:
        self.status = "wrong"
        self.problems.append(problem)

    def failed(self, problem: str) -> None:
        if self.status == "ok":
            self.status = "failed"
        self.problems.append(problem)


@dataclass
class Operation:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _start_positions(seed: int, n: int, d: int) -> np.ndarray:
    """The start momentflow draws for a seeded scenario (PCG64, unit cube)."""
    return np.random.default_rng(seed).random((n, d))


# == trajectory checks shared by round_trip and large_n ======================

def check_record(record, scenario, out: Outcome) -> None:
    """Final state against the oracle; flow invariants along the samples."""
    params = scenario.params
    goal = np.asarray(scenario.targets.moments)
    out.accepted += record.accepted_steps
    out.rejected += record.rejected_steps
    for problem in oracle.state_problems(
        record.final_configuration.positions, params.decay, params.metric,
        record.final_moments.values, record.final_eigenvalues,
    ):
        out.wrong(problem)
    potential = np.array([s.cost + s.barrier for s in record.samples])
    if np.any(np.diff(potential) > 0.0):
        out.wrong("cost + barrier increased between samples")
    margins = np.array([s.moments.values[1:] - goal[1:] for s in record.samples])
    if np.any(margins <= 0.0):
        out.wrong("a sampled margin m_k - m_k* is not strictly positive")
    if any(abs(s.moments.values[0]) > 1e-14 for s in record.samples):
        out.wrong("a sampled m_1 is not 0")


# == round_trip ==============================================================

ROUND_TRIP_INSTANCES = 25
SMOKE_ROUND_TRIP = (4, 8, 10)
GATE = 0.005  # acceptance criterion 4: every moment within 0.5%, from above


def round_trip(mf, seed: int, smoke: bool, workdir: Path) -> list[Operation]:
    """Acceptance criterion 4's batch, one ``simulate`` call per instance.

    Sizes and orders come from the criterion's generator (seed 42), goal
    formations from seeds 1000+i scaled into a half-unit box, starts from
    seeds 2000+i.  ``seed`` picks, per instance, a rotation, a translation
    and a relabelling applied to goal and start alike, and the order in
    which the instances run.  Moments are invariant under all three, so
    every seed poses the same 25 problems, stiff instances #2 and #12
    included, in different coordinates.
    """
    rng = np.random.default_rng(42)
    sizes = [(int(rng.integers(6, 9)), int(rng.integers(2, 6)))
             for _ in range(ROUND_TRIP_INSTANCES)]
    motion = np.random.default_rng(seed)
    indices = list(SMOKE_ROUND_TRIP) if smoke else list(range(ROUND_TRIP_INSTANCES))
    ops = []
    for index in motion.permutation(indices):
        n, order = sizes[index]
        angle = motion.uniform(0.0, 2.0 * np.pi)
        rotation = np.array([[np.cos(angle), -np.sin(angle)],
                             [np.sin(angle), np.cos(angle)]])
        shift = motion.uniform(-1.0, 1.0, size=2)
        relabel = motion.permutation(n)

        def place(points):
            return points[relabel] @ rotation.T + shift

        goal = place(_start_positions(1000 + index, n, 2) * 0.5)
        start = place(_start_positions(2000 + index, n, 2))
        params = mf.gradient.ControllerParams(
            decay=1.0, metric=2, order=order,
            epsilons=(0.0,) + (1e-9,) * (order - 1),
        )
        targets = mf.scenarios.target_from_formation(
            mf.network.RobotConfiguration(goal), params)
        # Stopping at cost (0.004 m_s*)^2 / 4s bounds the top residual by
        # 0.4%; the barrier holds the lower moments tighter (criterion 4).
        tolerance = (0.004 * targets.moments[-1]) ** 2 / (4.0 * order)
        scenario = mf.scenarios.Scenario(
            name=f"round_trip_{index:02d}", n=n, d=2, params=params,
            targets=targets,
            settings=mf.dynamics.SimulationSettings(
                cost_tolerance=tolerance, max_time=300.0),
            initial_positions=start,
        )
        ops.append(Operation(
            scenario.name,
            lambda scenario=scenario: mf.dynamics.simulate(scenario),
            lambda record, scenario=scenario: _check_round_trip(record, scenario),
        ))
    return ops


def _check_round_trip(record, scenario) -> Outcome:
    out = Outcome()
    check_record(record, scenario, out)
    if record.termination_reason != "converged":
        out.wrong(f"ended {record.termination_reason}, not converged")
    final = record.final_moments.values[1:]
    goal = scenario.targets.moments[1:]
    if np.any(final < goal - 1e-12):
        out.wrong("a final moment is below its target")
    if np.any(np.abs(final - goal) > GATE * goal):
        out.wrong("a final moment is more than 0.5% from its target")
    return out


# == large_n =================================================================

def large_n(mf, seed: int, smoke: bool, workdir: Path) -> list[Operation]:
    """One n = 200, s = 4 flow to a fixed simulated-time horizon.

    The goal is a seeded formation in a 20 x 20 box (a tighter box makes
    the flow stiff enough to run for minutes); the start is that goal
    contracted by 0.95 toward its centroid plus 1e-3 jitter, so the flow
    starts feasible and close enough to accept every step.
    """
    n, box, horizon = (30, 6.0, 0.25) if smoke else (200, 20.0, 2.5)
    rng = np.random.default_rng(seed)
    goal = rng.random((n, 2)) * box
    centroid = goal.mean(axis=0)
    start = centroid + 0.95 * (goal - centroid) + rng.normal(0.0, 1e-3, size=(n, 2))
    params = mf.gradient.ControllerParams(decay=1.0, metric=2, order=4)
    scenario = mf.scenarios.Scenario(
        name="large_n", n=n, d=2, params=params,
        targets=mf.scenarios.target_from_formation(
            mf.network.RobotConfiguration(goal), params),
        settings=mf.dynamics.SimulationSettings(max_time=horizon),
        initial_positions=start,
    )

    def check(record) -> Outcome:
        out = Outcome()
        check_record(record, scenario, out)
        if record.termination_reason != "horizon":
            out.wrong(f"ended {record.termination_reason}, not at the horizon")
        return out

    return [Operation(f"large_n_{n}", lambda: mf.dynamics.simulate(scenario), check)]


# == cli =====================================================================

SPECTRUM_FILES = 100
SPECTRUM_PASSES = 30
# A pair 900 apart underflows exp(-c * dist) to 0 for c = 1.
UNDERFLOW_POSITIONS = [[0.0], [1.0], [900.0]]
# Preset tolerances: every final moment within this share of its target.
PRESET_TOLERANCE = {"hexagon7": 0.05, "rgg10": 0.02}


def _cli_call(mf, argv: list[str]):
    """Run ``momentflow.cli.main(argv)``; return (status, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = mf.cli.main(argv)
    return status, stdout.getvalue(), stderr.getvalue()


def _status_problem(got: int, want: int, out: Outcome, stderr: str) -> bool:
    """Record an unexpected exit status; True when the output is unusable."""
    if got == want:
        return False
    reason = stderr.strip().splitlines()[-1:] or [""]
    if got in (2, 3, 4, 5):
        out.failed(f"exit status {got}, expected {want}: {reason[0]}")
    else:
        out.wrong(f"exit status {got}, expected {want}")
    return True


def _close_printed(printed, want, scale) -> bool:
    """Values printed with %.6g against reference values."""
    printed = np.asarray(printed, dtype=float)
    want = np.asarray(want, dtype=float)
    return printed.shape == want.shape and bool(
        np.all(np.abs(printed - want) <= 1e-5 * np.abs(want) + 1e-9 * scale))


def _spectrum_check(positions, decay, metric, order, goal=None):
    reference = []  # eigenvalues and moments, computed at the first check

    def check(result) -> Outcome:
        status, stdout, stderr = result
        out = Outcome()
        if _status_problem(status, 0, out, stderr):
            return out
        if not reference:
            eigs = oracle.spectrum(positions, decay, metric)
            reference.extend((eigs, oracle.moments(eigs, order)))
        eigs, want = reference
        scale = float(np.abs(eigs).max())
        lines = stdout.splitlines()
        printed_eigs = [float(v) for line in lines
                        if line.startswith("eigenvalues (descending): ")
                        for v in line.split(": ", 1)[1].split(", ")]
        printed_moments = [float(line.split(" = ", 1)[1]) for line in lines
                           if line.startswith("m_")]
        if not _close_printed(printed_eigs, eigs, scale):
            out.wrong("printed eigenvalues disagree with the reference")
        if not _close_printed(printed_moments, want, scale**order):
            out.wrong("printed moments disagree with the reference")
        if goal is not None:
            printed_goal = [float(v) for line in lines
                            if line.startswith("target moments: ")
                            for v in line.split(": ", 1)[1].split(", ")]
            if not _close_printed(printed_goal, goal, max(abs(g) for g in goal)):
                out.wrong("printed target moments disagree with the file")
        return out

    return check


def _spectrum_inputs(rng, index: int):
    """One positions file or scenario file for ``spectrum``, and its check.

    Sizes and orders follow ``index`` alone, so every seed asks for the same
    amount of work; the seed draws positions, decay, metric and targets.
    """
    n = 4 + (index // 8) % 6
    d = 1 + index % 3
    order = 2 + index % (min(n, 5) - 1)
    decay = float(rng.choice([0.5, 1.0, 2.0]))
    metric = int(rng.integers(1, 3))
    if index % 2 == 0:
        positions = rng.random((n, d))
        data = {"positions": positions.tolist(), "c": decay, "z": metric, "s": order}
        return data, _spectrum_check(positions, decay, metric, order)
    data = {"name": f"spectrum_{index}", "n": n, "d": d, "c": decay, "z": metric,
            "s": order}
    if index % 4 == 1:
        data["seed"] = int(rng.integers(0, 2**31))
        positions = _start_positions(data["seed"], n, d)
    else:
        positions = rng.random((n, d))
        data["positions"] = positions.tolist()
    formation = rng.random((n, d))
    goal = oracle.moments(oracle.spectrum(formation, decay, metric), order)
    goal[0] = 0.0
    if index % 8 < 4:
        data["targets"] = {"moments": goal.tolist()}
    else:
        data["targets"] = {"formation": {"type": "positions",
                                         "parameters": {"positions": formation.tolist()}}}
    return data, _spectrum_check(positions, decay, metric, order, goal)


def _run_check(out_dir: Path, name: str, record_every: int, decay: float,
               metric: int, within):
    """Check a finished ``run``: exit status 0, its report and its CSV.

    ``within(goal)`` returns the largest allowed |m_k - m_k*| for each
    k = 2..s.
    """
    def check(result) -> Outcome:
        status, stdout, stderr = result
        out = Outcome()
        if _status_problem(status, 0, out, stderr):
            return out
        report = json.loads((out_dir / f"{name}_report.json").read_text())
        out.accepted += report["accepted_steps"]
        out.rejected += report["rejected_steps"]
        final = np.array(report["final_moments"])
        goal = np.array(report["target_moments"])
        positions = np.array(report["final_positions"])
        if not report["converged"] or report["termination_reason"] != "converged":
            out.wrong(f"ended {report['termination_reason']}, not converged")
        for problem in oracle.state_problems(
                positions, decay, metric, final, report["final_eigenvalues"]):
            out.wrong(problem)
        if np.any(final[1:] < goal[1:]):
            out.wrong("a final moment is below its target")
        if np.any(np.abs(final[1:] - goal[1:]) > within(goal[1:])):
            out.wrong("a final moment is outside the scenario's tolerance")
        with (out_dir / f"{name}_trajectory.csv").open(newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], np.array(rows[1:], dtype=float)
        accepted = report["accepted_steps"]
        samples = 1 + accepted // record_every + (1 if accepted % record_every else 0)
        if len(body) != samples:
            out.wrong(f"CSV has {len(body)} rows for {samples} samples")
        order = len(goal)
        if header[: order + 3] != ["t"] + [f"m_{k}" for k in range(1, order + 1)] + [
                "cost", "barrier"]:
            out.wrong("CSV header is not t, m_1..m_s, cost, barrier, positions")
        elif len(body):
            last = body[-1]
            if last[0] != report["simulated_time"] or not np.array_equal(
                    last[order + 3:], positions.reshape(-1)):
                out.wrong("the CSV's last row is not the final state")
            if np.any(np.diff(body[:, order + 1] + body[:, order + 2]) > 0.0):
                out.wrong("cost + barrier increased between CSV rows")
            if np.any(body[:, 2: order + 1] <= goal[1:]):
                out.wrong("a CSV row has a margin m_k - m_k* that is not positive")
        return out

    return check


def _verify_check(want_status: int):
    def check(result) -> Outcome:
        status, stdout, stderr = result
        out = Outcome()
        _status_problem(status, want_status, out, stderr)
        lines = [line for line in stdout.splitlines() if line[:4] in ("PASS", "FAIL")]
        failing = [line for line in lines if line.startswith("FAIL")]
        if len(lines) != 5:
            out.wrong(f"verify printed {len(lines)} checks, expected 5")
        if want_status == 0 and failing:
            out.wrong(f"verify failed: {failing[0]}")
        if want_status == 1 and not all("control law" in line for line in failing):
            out.wrong("verify --perturb failed a check that the perturbation does not touch")
        if want_status == 1 and len(failing) != 2:
            out.wrong("verify --perturb did not fail both control-law checks")
        return out

    return check


def cli(mf, seed: int, smoke: bool, workdir: Path) -> list[Operation]:
    """A fixed script of in-process ``momentflow.cli.main`` calls.

    Thousands of ``spectrum`` calls on seeded positions and scenario files
    (cold, independent evaluations dominated by parsing and validation),
    three preset runs, the gradient oracle and its fault injection, and
    two inputs whose weights underflow to 0 and make momentflow raise
    today.
    """
    rng = np.random.default_rng(seed)
    files = 6 if smoke else SPECTRUM_FILES
    spectrum_ops = []
    for index in range(files):
        data, check = _spectrum_inputs(rng, index)
        path = workdir / f"spectrum_{index:04d}.json"
        path.write_text(json.dumps(data))
        spectrum_ops.append(Operation(
            "spectrum", lambda argv=["spectrum", str(path)]: _cli_call(mf, argv), check))
    ops = spectrum_ops * (1 if smoke else SPECTRUM_PASSES)

    def run(name, argv, **check_args):
        out_dir = workdir / f"out_{len(ops)}"
        ops.append(Operation(
            f"run {name}",
            lambda: _cli_call(mf, ["run", *argv, "-o", str(out_dir)]),
            _run_check(out_dir, name, **check_args),
        ))

    def preset_share(name):
        return lambda goal: PRESET_TOLERANCE[name] * np.abs(goal)

    # Smoke mode trims the presets to orders that converge in a few hundred
    # steps.
    trim = ["--set", "s=3"] if smoke else []
    run("hexagon7", ["--preset", "hexagon7", *trim],
        record_every=10, decay=1.0, metric=2, within=preset_share("hexagon7"))
    run("hexagon7", ["--preset", "hexagon7", "--set", "record_every=1", *trim],
        record_every=1, decay=1.0, metric=2, within=preset_share("hexagon7"))
    trim = ["--set", "s=2"] if smoke else []
    run("rgg10", ["--preset", "rgg10", "--seed", "2", *trim],
        record_every=10, decay=1.0, metric=2, within=preset_share("rgg10"))
    trials = "3" if smoke else "50"
    ops.append(Operation(
        "verify",
        lambda: _cli_call(mf, ["verify", "--trials", trials, "--seed", str(seed)]),
        _verify_check(0)))
    ops.append(Operation(
        "verify --perturb",
        lambda: _cli_call(mf, ["verify", "--trials", "3" if smoke else "20",
                               "--seed", str(seed), "--perturb", "1e-3"]),
        _verify_check(1)))

    # The underflow inputs do not depend on the seed: both fail on every run
    # until momentflow tolerates weights that underflow to 0.
    positions_file = workdir / "underflow_positions.json"
    positions_file.write_text(json.dumps({"positions": UNDERFLOW_POSITIONS}))
    ops.append(Operation(
        "spectrum underflow",
        lambda: _cli_call(mf, ["spectrum", str(positions_file)]),
        _spectrum_check(np.array(UNDERFLOW_POSITIONS), 1.0, 1, 3)))
    scenario_file = workdir / "underflow_scenario.json"
    scenario_file.write_text(json.dumps({
        "name": "underflow", "n": 3, "d": 1, "s": 2,
        "positions": UNDERFLOW_POSITIONS, "targets": {"moments": [0.0, 0.5]},
    }))
    # Converged means cost <= 1e-4 (the default tolerance), which bounds
    # |m_k - m_k*| by sqrt(4 k 1e-4).
    run("underflow", [str(scenario_file)], record_every=10, decay=1.0, metric=1,
        within=lambda goal: np.sqrt(4.0 * np.arange(2, len(goal) + 2) * 1e-4))
    return ops


WORKLOADS = {"round_trip": round_trip, "large_n": large_n, "cli": cli}


def remove(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
