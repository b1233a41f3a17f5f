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
5 file or parse error or a closed output stream.  A failure is raised where
it happens and leaves through one function, which prints its reason to
stderr, one line per problem, and returns its status.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
    TargetSpectrum,
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
    moments_and_eigenvalues,
    power_chain,
    walk_weight_sum,
)
from .scenarios import (
    MAX_DIMENSION,
    PRESET_NAMES,
    Scenario,
    positions_from_dict,
    preset_data,
    scenario_from_dict,
    target_from_formation,
)

__all__ = [
    "EXIT_CONVERGED",
    "EXIT_HORIZON",
    "EXIT_VALIDATION",
    "EXIT_UNREALIZABLE",
    "EXIT_STALLED",
    "EXIT_IO",
    "apply_override",
    "write_trajectory_csv",
    "build_report",
    "main",
]

EXIT_CONVERGED = 0
EXIT_HORIZON = 1
EXIT_VALIDATION = 2
EXIT_UNREALIZABLE = 3
EXIT_STALLED = 4
EXIT_IO = 5
_EXIT_FOR_REASON = {"converged": EXIT_CONVERGED, "horizon": EXIT_HORIZON, "stalled": EXIT_STALLED}

_FLOAT_FMT = "%.17g"
_G6 = "{:.6g}".format  # spectrum's numbers, formatted without a Python frame each
# verify's finite-difference checks cost about n^3 per trial: 0.5 s at n = 100, 4.4 s at 200.
_MAX_VERIFY_ROBOTS = 100


class _Failure(Exception):
    """A failed command, raised as ``_Failure(status, *stderr_lines)``."""


def _exit_status(handler: Any, *args: Any) -> int:
    """``handler(*args)``, or the status of its failure after printing its lines."""
    try:
        return handler(*args)
    except _Failure as failure:
        status, *lines = failure.args
        print("\n".join(lines), file=sys.stderr)
        return status


def _valid(found: tuple[Any, list[str]], what: str) -> Any:
    """The value of a ``(value, problems)`` pair; fails with one line per problem."""
    value, problems = found
    if value is None:
        raise _Failure(EXIT_VALIDATION, *(f"invalid {what}: {problem}" for problem in problems))
    return value


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
    *branches, leaf = path.split(".")
    node = data
    for part in branches:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[leaf] = value


# == run outputs ===========================================================

def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def write_trajectory_csv(record: TrajectoryRecord, path: Path) -> None:
    """Trajectory samples as CSV: t, m_1..m_s, cost, barrier, x_1_1..x_n_d.

    Each sample is one line of ``%.17g`` floats, which round-trip exactly, and
    every line ends in CRLF, as ``csv.writer`` ends them; no field needs quoting.
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
    line = ",".join([_FLOAT_FMT] * len(header)) + "\r\n"
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(
            line % (sample.t, *sample.moments.values.tolist(), sample.cost, sample.barrier,
                    *sample.configuration.positions.ravel().tolist())
            for sample in record.samples
        )


def build_report(
    scenario: Scenario,
    record: TrajectoryRecord,
    csv_path: Path,
    json_path: Path,
) -> dict[str, Any]:
    """Summary of one finished run in JSON-ready form.

    Relative errors are |m_k - m_k*| / max(|m_k*|, 1e-12) per moment.
    """
    target = scenario.targets.moments
    final = record.final_moments.values
    errors = np.abs(final - target) / np.maximum(np.abs(target), 1e-12)
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
        "relative_errors": [float(v) for v in errors],
        "final_eigenvalues": [float(v) for v in record.final_eigenvalues],
        "reference_eigenvalues": None if reference is None else [float(v) for v in reference],
        "final_positions": record.final_configuration.positions.tolist(),
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
    rows = zip(report["target_moments"], report["final_moments"], report["relative_errors"])
    for idx, (goal, got, err) in enumerate(rows, start=1):
        print(f"  {idx:>2}  {goal:>12.6g}  {got:>12.6g}  {err:>9.2e}")
    eigs = ", ".join(f"{v:.4f}" for v in report["final_eigenvalues"])
    print(f"  final eigenvalues: {eigs}")
    if report["reference_eigenvalues"] is not None:
        ref = ", ".join(f"{v:.4f}" for v in report["reference_eigenvalues"])
        print(f"  reference eigenvalues: {ref}")
    print(f"  wrote {report['files']['trajectory_csv']}")
    print(f"  wrote {report['files']['report_json']}")


def _run_one(scenario: Scenario, out_dir: Path, verbose: bool) -> int:
    try:
        record = simulate(scenario)
    except UnrealizableTargetsError as exc:
        raise _Failure(EXIT_UNREALIZABLE, f"unrealizable targets: {exc}") from exc
    except ValueError as exc:
        raise _Failure(EXIT_VALIDATION, f"cannot run: {exc}") from exc
    if verbose:
        start = record.samples[0].configuration.positions
        end = record.final_configuration.positions
        # Pair slots i < j, per axis, whose sign of x_i - x_j differs between start and end.
        flipped = sum(
            int(np.sum(np.sign(np.subtract.outer(a, a)) != np.sign(np.subtract.outer(b, b)))) // 2
            for a, b in zip(start.T, end.T)
        )
        if flipped:
            print(f"coordinate ordering changed for {flipped} robot pair slots during the run",
                  file=sys.stderr)
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
        raise _Failure(EXIT_IO, f"cannot write outputs: {exc}") from exc
    _print_report(report)
    return _EXIT_FOR_REASON[record.termination_reason]


def _load(command: str, path: Optional[str], preset_name: Optional[str]) -> dict[str, Any]:
    """Schema data from a JSON file or a preset."""
    if (path is None) == (preset_name is None):
        raise _Failure(EXIT_VALIDATION, f"{command} needs a JSON file or --preset, not both")
    if preset_name is not None:
        return preset_data(preset_name)
    try:
        with open(path, "rb", buffering=0) as handle:  # unbuffered: one read of the whole file
            raw = handle.read()
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read file: {exc}") from exc
    try:
        # Strict UTF-8 (RFC 8259): a BOM stays and fails; newlines as text mode reads them.
        data = json.loads(raw.decode().replace("\r\n", "\n").replace("\r", "\n"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise _Failure(EXIT_IO, f"file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise _Failure(EXIT_VALIDATION, "file must contain a JSON object")
    return data


def cmd_run(args: argparse.Namespace) -> int:
    data = _load("run", args.scenario, args.preset)
    for assignment in args.set or []:
        try:
            apply_override(data, assignment)
        except ValueError as exc:
            raise _Failure(EXIT_VALIDATION, str(exc)) from exc

    if args.seed is not None:
        if "positions" in data:
            raise _Failure(
                EXIT_VALIDATION, "--seed does not apply to a scenario with explicit positions"
            )
        data["seed"] = args.seed

    trials = args.trials
    if trials is not None and trials < 1:
        raise _Failure(EXIT_VALIDATION, f"--trials must be at least 1, got {trials}")
    if trials is not None and "positions" in data:
        raise _Failure(
            EXIT_VALIDATION, "--trials varies the seed; it does not apply to explicit positions"
        )

    scenario = _valid(scenario_from_dict(data), "scenario")
    out_dir = Path(args.output)
    if trials is None:
        return _run_one(scenario, out_dir, args.verbose)

    outcomes = []
    for index in range(trials):
        trial = replace(scenario, seed=scenario.seed + index)
        print(f"trial {index} (seed {trial.seed}):")
        trial_dir = out_dir / f"trial_{index:03d}"
        outcomes.append(_exit_status(_run_one, trial, trial_dir, args.verbose))
    print(f"{outcomes.count(EXIT_CONVERGED)}/{trials} trials converged")
    return next((code for code in outcomes if code != EXIT_CONVERGED), EXIT_CONVERGED)


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
    n, d, trials = args.n, args.d, args.trials
    if n < 2 or d < 1 or trials < 0 or args.seed < 0:
        raise _Failure(EXIT_VALIDATION, "verify needs n >= 2, d >= 1, trials >= 0, seed >= 0")
    if n > _MAX_VERIFY_ROBOTS:
        raise _Failure(EXIT_VALIDATION, f"verify takes n <= {_MAX_VERIFY_ROBOTS}, got n={n}")
    if d > MAX_DIMENSION:  # it also caps a stencil at 6 n teams
        raise _Failure(EXIT_VALIDATION, f"verify takes d <= {MAX_DIMENSION}, got d={d}")
    if trials == 0:
        print("warning: 0 trials requested; every check passes vacuously")
    rng = np.random.default_rng(args.seed)
    order = walk_n = min(5, n)

    def walks() -> list[float]:  # walk enumeration against one entry of each of A..A^4
        adjacency = _random_adjacency(rng, walk_n)
        chain = power_chain(adjacency, 4)
        ends = [(int(rng.integers(walk_n)), int(rng.integers(walk_n))) for _ in range(4)]
        return [abs(walk_weight_sum(adjacency, k, i, j) - chain[k][i, j])
                for k, (i, j) in enumerate(ends, 1)]

    def trace() -> list[float]:  # the trace derivative against central differences in (0, j)
        fd_step, adjacency = 1e-6, _random_adjacency(rng, n)
        k, j = int(rng.integers(1, 7)), 1 + int(rng.integers(n - 1))
        analytic = trace_derivative(adjacency, k, 0, j)
        bump = np.zeros((n, n))
        bump[0, j] = bump[j, 0] = fd_step
        upper = np.linalg.matrix_power(adjacency.weights + bump, k).trace()
        lower = np.linalg.matrix_power(adjacency.weights - bump, k).trace()
        return [abs((upper - lower) / (2.0 * fd_step) - analytic) / max(abs(analytic), 1.0)]

    def gradient(field: Any, params: ControllerParams) -> list[float]:
        """The control law (minus the cost gradient) or the barrier gradient against ``field``'s
        finite differences, toward a formation's moments or half the configuration's own."""
        config = _tie_free_config(rng, n, d)
        if field is cost:
            targets = target_from_formation(_tie_free_config(rng, n, d), params)
            with np.errstate(over="ignore"):  # --perturb inflates the law, to inf if need be
                analytic = -control_law(config, targets, params) * (1.0 + args.perturb)
        else:
            targets = TargetSpectrum(target_from_formation(config, params).moments * 0.5)
            analytic = barrier_gradient(config, targets, params)
        fd = finite_difference_gradient(field, config, targets, params)
        return [float(np.abs(analytic - fd).max()) / max(float(np.abs(fd).max()), 1e-12)]

    eps = (0.0,) + tuple(0.05 * (k + 2) for k in range(order - 1))  # substantial constants
    checks = [  # label, tolerance, one trial's errors
        ("walk enumeration vs matrix powers", 1e-12, walks),
        ("trace derivative vs finite differences", 1e-6, trace),
        *((f"control law vs cost gradient (metric {metric})", 1e-5,
           functools.partial(gradient, cost, ControllerParams(metric=metric, order=order)))
          for metric in (1, 2)),
        ("barrier gradient vs finite differences", 1e-4,
         functools.partial(gradient, barrier, ControllerParams(order=order, epsilons=eps))),
    ]
    failures = 0
    for label, tol, trial in checks:
        worst = 0.0
        for _ in range(trials):
            for error in trial():
                worst = np.maximum(worst, error)  # np.maximum keeps a NaN error
        ok = worst < tol  # False for a NaN
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {label}: worst error {worst:.3e} (tolerance {tol:g})")
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


# == spectrum ==============================================================

def cmd_spectrum(args: argparse.Namespace) -> int:
    data = _load("spectrum", args.path, args.preset)
    if "targets" not in data:
        config, decay, metric, order = _valid(positions_from_dict(data), "positions file")
        lines, targets = [], None
    else:
        scenario = _valid(scenario_from_dict(data), "scenario")
        config, targets = scenario.initial_configuration(), scenario.targets
        decay, metric, order = scenario.params.decay, scenario.params.metric, scenario.params.order
        lines = [f"scenario {scenario.name}: initial configuration"]
    try:
        moments, eigs = moments_and_eigenvalues(config, decay, metric, order)
    except ValueError as exc:
        raise _Failure(EXIT_VALIDATION, f"cannot evaluate the spectrum: {exc}") from exc
    n, d = config.positions.shape
    lines.append(f"n = {n}, d = {d}, c = {decay:g}, z = {metric}")
    lines.append("eigenvalues (descending): " + ", ".join(map(_G6, eigs.tolist())))
    lines += map("m_{} = {:.6g}".format, range(1, order + 1), moments)
    if targets is not None:
        lines.append("target moments: " + ", ".join(map(_G6, targets.moments.tolist())))
        if targets.reference_eigenvalues is not None:
            reference = targets.reference_eigenvalues.tolist()
            lines.append("reference eigenvalues: " + ", ".join(map(_G6, reference)))
    print("\n".join(lines))
    return 0


# == entry point ===========================================================

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``momentflow`` parser, built once and shared; ``commands`` maps names to sub-parsers."""
    parser = argparse.ArgumentParser(
        prog="momentflow",
        description=(
            "Steer robot networks by gradient flow until the spectral "
            "moments of their distance-weighted adjacency matrix match "
            "prescribed targets."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print order flips and wall time to stderr"
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
    verify.add_argument("--n", type=int, default=6,
                        help=f"robots per instance, 2..{_MAX_VERIFY_ROBOTS} (default 6)")
    verify.add_argument("--d", type=int, default=2,
                        help=f"spatial dimension, 1..{MAX_DIMENSION} (default 2)")
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
    parser.commands = sub.choices
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv, parser = sys.argv[1:] if argv is None else argv, build_parser()
    # A named command parses once, in its own sub-parser; the root parser takes all the rest.
    command = parser.commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, True)
    if rest:
        args = parser.parse_args(argv)
    else:
        args.verbose, args.command = False, argv[0]
    start = time.perf_counter()
    try:
        code = _exit_status(args.handler, args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; what is left goes nowhere, at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    if args.verbose:
        print(f"command finished in {time.perf_counter() - start:.2f} s with exit status {code}",
              file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
