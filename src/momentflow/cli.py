"""Command-line front end: run scenarios, verify gradients, inspect spectra.

Three subcommands:

    run        integrate a scenario (from a JSON file or a named preset) to
               termination, writing a trajectory CSV and a report JSON
    verify     re-derive the analytic gradient identities on random
               instances against enumeration and finite differences
    spectrum   print eigenvalues and moments for a scenario's initial
               configuration or for an explicit positions file

Exit statuses: 0 success/converged, 1 horizon reached without convergence,
2 scenario validation failure, 3 unrealizable targets, 4 stalled flow,
5 file or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import re
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .dynamics import TrajectoryRecord, UnrealizableTargetsError, simulate
from .gradient import (
    ControllerParams,
    barrier,
    barrier_gradient,
    control_law,
    cost,
    finite_difference_gradient,
    trace_derivative,
)
from .network import (
    RobotConfiguration,
    WeightedAdjacency,
    build_adjacency,
    eigenvalues,
    power_chain,
    spectral_moments,
    walk_weight_sum,
)
from .scenarios import (
    PRESET_NAMES,
    Scenario,
    TargetSpectrum,
    positions_from_dict,
    preset,
    scenario_from_dict,
    scenario_to_dict,
    target_from_formation,
)

__all__ = [
    "EXIT_CONVERGED",
    "EXIT_HORIZON",
    "EXIT_VALIDATION",
    "EXIT_UNREALIZABLE",
    "EXIT_STALLED",
    "EXIT_IO",
    "scenario_to_dict",
    "scenario_from_dict",
    "apply_override",
    "write_trajectory_csv",
    "build_report",
    "main",
]

logger = logging.getLogger(__name__)

EXIT_CONVERGED = 0
EXIT_HORIZON = 1
EXIT_VALIDATION = 2
EXIT_UNREALIZABLE = 3
EXIT_STALLED = 4
EXIT_IO = 5

_FLOAT_FMT = "%.17g"


# == scenario dictionaries =================================================

def apply_override(data: dict[str, Any], assignment: str) -> None:
    """Apply one ``--set path=value`` assignment to schema data in place.

    The path is dot-separated (``dt``, ``targets.moments``); the value is
    parsed as JSON when possible and kept as a string otherwise.  Creating
    new leaves is allowed so overrides can, for example, switch a preset
    from a seed to explicit positions; unknown names are still caught by
    schema validation afterwards.
    """
    path, sep, raw = assignment.partition("=")
    if not sep or not path:
        raise ValueError(f"override {assignment!r} is not of the form key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    parts = path.split(".")
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


# == run outputs ===========================================================

def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name) or "scenario"


def write_trajectory_csv(record: TrajectoryRecord, path: Path) -> None:
    """Trajectory samples as CSV: t, m_1..m_s, cost, barrier, x_1_1..x_n_d.

    Floats are written with 17 significant digits so values round-trip
    exactly through the file.
    """
    order = record.samples[0].moments.order
    n = record.final_configuration.n
    d = record.final_configuration.d
    header = (
        ["t"]
        + [f"m_{k}" for k in range(1, order + 1)]
        + ["cost", "barrier"]
        + [f"x_{i}_{r}" for i in range(1, n + 1) for r in range(1, d + 1)]
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for sample in record.samples:
            row = (
                [sample.t]
                + list(sample.moments.values)
                + [sample.cost, sample.barrier]
                + list(sample.configuration.positions.reshape(-1))
            )
            writer.writerow([_FLOAT_FMT % value for value in row])


def relative_moment_errors(final: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|m_k - m_k*| / max(|m_k*|, 1e-12) per moment."""
    return np.abs(final - target) / np.maximum(np.abs(target), 1e-12)


def build_report(
    scenario: Scenario,
    record: TrajectoryRecord,
    csv_path: Path,
    json_path: Path,
) -> dict[str, Any]:
    """Summary of one finished run in JSON-ready form."""
    target = scenario.targets.moments
    final = record.final_moments.values
    reference = scenario.targets.reference_eigenvalues
    return {
        "scenario": scenario.name,
        "termination_reason": record.termination_reason,
        "termination_detail": record.termination_detail,
        "converged": record.termination_reason == "converged",
        "accepted_steps": record.accepted_steps,
        "rejected_steps": record.rejected_steps,
        "simulated_time": record.simulated_time,
        "target_moments": [float(v) for v in target],
        "final_moments": [float(v) for v in final],
        "relative_errors": [
            float(v) for v in relative_moment_errors(final, target)
        ],
        "final_eigenvalues": [float(v) for v in record.final_eigenvalues],
        "reference_eigenvalues": (
            None if reference is None else [float(v) for v in reference]
        ),
        "final_positions": [
            list(map(float, row)) for row in record.final_configuration.positions
        ],
        "files": {"trajectory_csv": str(csv_path), "report_json": str(json_path)},
    }


def _print_report(report: dict[str, Any]) -> None:
    detail = report["termination_detail"]
    print(
        f"scenario {report['scenario']}: {report['termination_reason']} "
        f"after {report['accepted_steps']} accepted steps "
        f"(t = {report['simulated_time']:.4g}, {report['rejected_steps']} rejected)"
        + (f": {detail}" if detail else "")
    )
    print(f"  {'k':>2}  {'target':>12}  {'final':>12}  {'rel err':>9}")
    for idx, (goal, got, err) in enumerate(
        zip(
            report["target_moments"],
            report["final_moments"],
            report["relative_errors"],
        ),
        start=1,
    ):
        print(f"  {idx:>2}  {goal:>12.6g}  {got:>12.6g}  {err:>9.2e}")
    eigs = ", ".join(f"{v:.4f}" for v in report["final_eigenvalues"])
    print(f"  final eigenvalues: {eigs}")
    if report["reference_eigenvalues"] is not None:
        ref = ", ".join(f"{v:.4f}" for v in report["reference_eigenvalues"])
        print(f"  reference eigenvalues: {ref}")
    print(f"  wrote {report['files']['trajectory_csv']}")
    print(f"  wrote {report['files']['report_json']}")


def _exit_for_reason(reason: str) -> int:
    return {
        "converged": EXIT_CONVERGED,
        "horizon": EXIT_HORIZON,
        "stalled": EXIT_STALLED,
    }[reason]


def _run_one(scenario: Scenario, out_dir: Path) -> int:
    try:
        record = simulate(scenario)
    except UnrealizableTargetsError as exc:
        print(f"unrealizable targets: {exc}", file=sys.stderr)
        return EXIT_UNREALIZABLE
    except ValueError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    base = _sanitize(scenario.name)
    csv_path = out_dir / f"{base}_trajectory.csv"
    json_path = out_dir / f"{base}_report.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(record, csv_path)
        report = build_report(scenario, record, csv_path, json_path)
        with json_path.open("w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_report(report)
    return _exit_for_reason(record.termination_reason)


def _load(command: str, path: Optional[str], preset_name: Optional[str]) -> Any:
    """Schema data from a JSON file or a preset, or the exit status on failure."""
    if (path is None) == (preset_name is None):
        print(f"{command} needs a JSON file or --preset, not both", file=sys.stderr)
        return EXIT_VALIDATION
    if preset_name is not None:
        return scenario_to_dict(preset(preset_name))
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        print(f"cannot read file: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        print(f"file is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    if not isinstance(data, dict):
        print("file must contain a JSON object", file=sys.stderr)
        return EXIT_VALIDATION
    return data


def _print_problems(problems: list[str], what: str) -> int:
    for problem in problems:
        print(f"invalid {what}: {problem}", file=sys.stderr)
    return EXIT_VALIDATION


def cmd_run(args: argparse.Namespace) -> int:
    data = _load("run", args.scenario, args.preset)
    if isinstance(data, int):
        return data
    for assignment in args.set or []:
        try:
            apply_override(data, assignment)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_VALIDATION

    if args.seed is not None:
        if "positions" in data:
            print(
                "--seed does not apply to a scenario with explicit positions",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
        data["seed"] = args.seed

    trials = args.trials
    if trials is not None and trials < 1:
        print(f"--trials must be at least 1, got {trials}", file=sys.stderr)
        return EXIT_VALIDATION
    if trials is not None and "positions" in data:
        print(
            "--trials varies the seed; it does not apply to explicit positions",
            file=sys.stderr,
        )
        return EXIT_VALIDATION

    scenario, problems = scenario_from_dict(data)
    if scenario is None:
        return _print_problems(problems, "scenario")

    out_dir = Path(args.output)
    if trials is None:
        return _run_one(scenario, out_dir)

    outcomes = []
    for index in range(trials):
        seed = scenario.seed + index
        print(f"trial {index} (seed {seed}):")
        code = _run_one(replace(scenario, seed=seed), out_dir / f"trial_{index:03d}")
        outcomes.append(code)
    converged = sum(1 for code in outcomes if code == EXIT_CONVERGED)
    print(f"{converged}/{trials} trials converged")
    for code in outcomes:
        if code != EXIT_CONVERGED:
            return code
    return EXIT_CONVERGED


# == verify ================================================================

def _tie_free_config(rng: np.random.Generator, n: int, d: int) -> RobotConfiguration:
    """Random configuration with per-axis coordinate gaps of at least 0.4/n.

    Keeps finite-difference stencils away from taxicab sign flips and from
    robot coincidence.
    """
    positions = np.empty((n, d))
    for axis in range(d):
        slots = (rng.permutation(n) + 0.5) / n
        jitter = rng.uniform(-0.3 / n, 0.3 / n, size=n)
        positions[:, axis] = slots + jitter
    return RobotConfiguration(positions)


def _random_adjacency(rng: np.random.Generator, n: int) -> WeightedAdjacency:
    upper = rng.uniform(0.05, 1.0, size=(n, n))
    weights = np.triu(upper, k=1)
    weights = weights + weights.T
    return WeightedAdjacency(weights)


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    d = args.d
    trials = args.trials
    if n < 2 or d < 1 or trials < 0:
        print("verify needs n >= 2, d >= 1, trials >= 0", file=sys.stderr)
        return EXIT_VALIDATION
    if trials == 0:
        print("warning: 0 trials requested; every check passes vacuously")
    rng = np.random.default_rng(args.seed)
    order = min(5, n)
    failures = 0

    def report(check: str, worst: float, tol: float) -> None:
        nonlocal failures
        ok = worst < tol
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {check}: worst error {worst:.3e} (tolerance {tol:g})")

    # Walk enumeration against matrix powers.
    worst = 0.0
    walk_n = min(n, 5)
    for _ in range(trials):
        adjacency = _random_adjacency(rng, walk_n)
        chain = power_chain(adjacency, 4)
        for k in range(1, 5):
            i = int(rng.integers(walk_n))
            j = int(rng.integers(walk_n))
            direct = walk_weight_sum(adjacency, k, i, j)
            worst = max(worst, abs(direct - chain[k][i, j]))
    report("walk enumeration vs matrix powers", worst, 1e-12)

    # Trace derivative against finite differences in one matrix entry.
    worst = 0.0
    fd_step = 1e-6
    for _ in range(trials):
        adjacency = _random_adjacency(rng, n)
        k = int(rng.integers(1, 7))
        i, j = 0, 1 + int(rng.integers(n - 1))
        analytic = trace_derivative(adjacency, k, i, j)
        bump = np.zeros((n, n))
        bump[i, j] = bump[j, i] = fd_step
        upper = np.linalg.matrix_power(adjacency.weights + bump, k).trace()
        lower = np.linalg.matrix_power(adjacency.weights - bump, k).trace()
        fd = (upper - lower) / (2.0 * fd_step)
        worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1.0))
    report("trace derivative vs finite differences", worst, 1e-6)

    # Control law against finite differences of the cost, both metrics.
    for metric in (1, 2):
        worst = 0.0
        params = ControllerParams(metric=metric, order=order)
        for _ in range(trials):
            config = _tie_free_config(rng, n, d)
            targets = target_from_formation(_tie_free_config(rng, n, d), params)
            analytic = control_law(config, targets, params)
            if args.perturb:
                analytic = analytic * (1.0 + args.perturb)
            fd = finite_difference_gradient(
                lambda c: cost(c, targets, params), config
            )
            scale = max(float(np.abs(fd).max()), 1e-12)
            worst = max(worst, float(np.abs(analytic + fd).max()) / scale)
        report(f"control law vs cost gradient (metric {metric})", worst, 1e-5)

    # Barrier gradient against finite differences, substantial constants.
    worst = 0.0
    eps = (0.0,) + tuple(0.05 * (k + 2) for k in range(order - 1))
    params = ControllerParams(order=order, epsilons=eps)
    for _ in range(trials):
        config = _tie_free_config(rng, n, d)
        current = target_from_formation(config, params)
        targets = TargetSpectrum(current.moments * 0.5)
        analytic = barrier_gradient(config, targets, params)
        fd = finite_difference_gradient(
            lambda c: barrier(c, targets, params), config
        )
        scale = max(float(np.abs(fd).max()), 1e-12)
        worst = max(worst, float(np.abs(analytic - fd).max()) / scale)
    report("barrier gradient vs finite differences", worst, 1e-4)

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# == spectrum ==============================================================

def _print_spectrum(
    config: RobotConfiguration, decay: float, metric: int, order: int, title: str = ""
) -> int:
    adjacency = build_adjacency(config, decay, metric)
    try:
        moments = spectral_moments(adjacency, order)
    except ValueError as exc:
        print(f"cannot evaluate the spectrum: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    eigs = eigenvalues(adjacency)
    if title:
        print(title)
    print(f"n = {config.n}, d = {config.d}, c = {decay:g}, z = {metric}")
    print("eigenvalues (descending): " + ", ".join(f"{v:.6g}" for v in eigs))
    for k in range(1, order + 1):
        print(f"m_{k} = {moments.values[k - 1]:.6g}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    data = _load("spectrum", args.path, args.preset)
    if isinstance(data, int):
        return data

    if "targets" in data:
        scenario, problems = scenario_from_dict(data)
        if scenario is None:
            return _print_problems(problems, "scenario")
        config = scenario.initial_configuration()
        params = scenario.params
        title = f"scenario {scenario.name}: initial configuration"
        if _print_spectrum(config, params.decay, params.metric, params.order, title):
            return EXIT_VALIDATION
        goals = ", ".join(f"{v:.6g}" for v in scenario.targets.moments)
        print(f"target moments: {goals}")
        if scenario.targets.reference_eigenvalues is not None:
            ref = ", ".join(
                f"{v:.6g}" for v in scenario.targets.reference_eigenvalues
            )
            print(f"reference eigenvalues: {ref}")
        return 0

    found, problems = positions_from_dict(data)
    if found is None:
        return _print_problems(problems, "positions file")
    return _print_spectrum(*found)


# == entry point ===========================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentflow",
        description=(
            "Steer robot networks by gradient flow until the spectral "
            "moments of their distance-weighted adjacency matrix match "
            "prescribed targets."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable info-level logging"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="integrate a scenario and write trajectory + report",
        description=(
            "Integrate one scenario to termination.  Exit status: 0 "
            "converged, 1 horizon, 2 validation, 3 unrealizable, 4 stalled, "
            "5 I/O."
        ),
    )
    run.add_argument("scenario", nargs="?", help="scenario JSON file")
    run.add_argument(
        "--preset", choices=PRESET_NAMES, help="use a bundled scenario instead"
    )
    run.add_argument(
        "-o", "--output", default=".", help="directory for output files (default: .)"
    )
    run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario field by dotted path (repeatable), "
        "e.g. --set s=4 or --set targets.moments=[0,0.5,0.7]",
    )
    run.add_argument(
        "--trials",
        type=int,
        help="repeat with seeds seed..seed+N-1 in trial_NNN subdirectories",
    )
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.set_defaults(handler=cmd_run)

    verify = sub.add_parser(
        "verify",
        help="check gradient identities against enumeration and finite differences",
        description=(
            "Re-derive the analytic machinery on random instances: walk "
            "enumeration vs matrix powers, trace derivatives, control law, "
            "and barrier gradient vs central finite differences."
        ),
    )
    verify.add_argument("--n", type=int, default=6, help="robots per instance (default 6)")
    verify.add_argument("--d", type=int, default=2, help="spatial dimension (default 2)")
    verify.add_argument(
        "--trials", type=int, default=20, help="instances per check (default 20)"
    )
    verify.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    verify.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="inflate the analytic control law by this relative amount "
        "(fault injection; nonzero values must make the check fail)",
    )
    verify.set_defaults(handler=cmd_verify)

    spectrum = sub.add_parser(
        "spectrum",
        help="print eigenvalues and moments for a scenario or positions file",
        description=(
            "Print the adjacency spectrum and moments of a scenario's "
            "initial configuration (echoing its targets) or of an explicit "
            "positions file {positions, c?, z?, s?}."
        ),
    )
    spectrum.add_argument("path", nargs="?", help="scenario or positions JSON file")
    spectrum.add_argument(
        "--preset", choices=PRESET_NAMES, help="use a bundled scenario instead"
    )
    spectrum.set_defaults(handler=cmd_spectrum)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    start = time.perf_counter()
    code = args.handler(args)
    logger.info("command finished in %.2f s with exit status %d",
                time.perf_counter() - start, code)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
