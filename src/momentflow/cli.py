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
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .dynamics import (
    DEFAULT_COST_TOLERANCE,
    DEFAULT_DT,
    DEFAULT_MAX_TIME,
    DEFAULT_RECORD_EVERY,
    SimulationSettings,
    TrajectoryRecord,
    UnrealizableTargetsError,
    simulate,
)
from .gradient import (
    ControllerParams,
    barrier,
    barrier_gradient,
    control_law,
    cost,
    default_epsilons,
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
    ScenarioValidationError,
    TargetSpectrum,
    hexagon_formation,
    preset,
    scenario_violations,
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

# Finite positions fail to give an adjacency only when a weight underflows.
_UNDERFLOW_HINT = " (exp(-c * dist) underflows to 0 for robots about 745/c apart)"

_TOP_LEVEL_KEYS = {
    "name", "n", "d", "seed", "positions", "c", "z", "s", "epsilons",
    "dt", "max_time", "cost_tolerance", "record_every", "targets",
    "reference_eigenvalues",
}
_TARGET_KEYS = {"moments", "formation"}
_FORMATION_KEYS = {"type", "parameters"}
_FORMATION_TYPES = {"hexagon", "positions"}

_FLOAT_FMT = "%.17g"


# == scenario dictionaries =================================================

def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """JSON-ready dictionary in the scenario file schema."""
    out: dict[str, Any] = {
        "name": scenario.name,
        "n": scenario.n,
        "d": scenario.d,
        "c": scenario.params.decay,
        "z": scenario.params.metric,
        "s": scenario.params.order,
        "epsilons": list(scenario.params.epsilons),
        "dt": scenario.settings.dt,
        "max_time": scenario.settings.max_time,
        "cost_tolerance": scenario.settings.cost_tolerance,
        "record_every": scenario.settings.record_every,
        "targets": {"moments": [float(v) for v in scenario.targets.moments]},
    }
    if scenario.seed is not None:
        out["seed"] = scenario.seed
    if scenario.initial_positions is not None:
        out["positions"] = [list(map(float, row)) for row in scenario.initial_positions]
    if scenario.targets.reference_eigenvalues is not None:
        out["reference_eigenvalues"] = [
            float(v) for v in scenario.targets.reference_eigenvalues
        ]
    return out


def _want_int(data: dict, key: str, problems: list[str]) -> Optional[int]:
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"field {key!r} must be an integer, got {value!r}")
        return None
    return value


def _want_real(data: dict, key: str, problems: list[str]) -> Optional[float]:
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"field {key!r} must be a number, got {value!r}")
        return None
    return float(value)


def _want_real_list(value: Any, what: str, problems: list[str]) -> Optional[list[float]]:
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        problems.append(f"{what} must be a list of numbers")
        return None
    return [float(v) for v in value]


def _resolve_targets(
    data: dict,
    n: Optional[int],
    order_given: Optional[int],
    problems: list[str],
) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[int]]:
    """Target moments, reference eigenvalues, and the resolved order.

    Moments-style targets default the order to the table length and may be
    truncated by an explicit smaller ``s``; formation-style targets are
    computed at the resolved order (default n) from the named formation.
    """
    target_block = data.get("targets")
    if not isinstance(target_block, dict):
        problems.append("field 'targets' must be an object")
        return None, None, order_given
    unknown = set(target_block) - _TARGET_KEYS
    if unknown:
        problems.append(f"unknown keys in targets: {sorted(unknown)}")
    has_moments = "moments" in target_block
    has_formation = "formation" in target_block
    if has_moments == has_formation:
        problems.append("targets must contain exactly one of 'moments' and 'formation'")
        return None, None, order_given

    reference = None
    if "reference_eigenvalues" in data:
        reference_list = _want_real_list(
            data["reference_eigenvalues"], "reference_eigenvalues", problems
        )
        if reference_list is not None:
            reference = np.array(reference_list)

    if has_moments:
        moments = _want_real_list(target_block["moments"], "targets.moments", problems)
        if moments is None:
            return None, None, order_given
        if len(moments) < 2:
            problems.append("targets.moments needs at least 2 entries")
            return None, None, order_given
        order = order_given if order_given is not None else len(moments)
        if order > len(moments):
            problems.append(
                f"s={order} exceeds the {len(moments)} provided target moments"
            )
            return None, None, order
        return np.array(moments[:order]), reference, order

    if reference is not None:
        problems.append(
            "reference_eigenvalues cannot accompany formation targets; "
            "the formation's own spectrum is used"
        )
        return None, None, order_given
    formation = target_block["formation"]
    if not isinstance(formation, dict):
        problems.append("targets.formation must be an object")
        return None, None, order_given
    unknown = set(formation) - _FORMATION_KEYS
    if unknown:
        problems.append(f"unknown keys in targets.formation: {sorted(unknown)}")
    ftype = formation.get("type")
    if ftype not in _FORMATION_TYPES:
        problems.append(
            f"formation type must be one of {sorted(_FORMATION_TYPES)}, got {ftype!r}"
        )
        return None, None, order_given
    parameters = formation.get("parameters", {})
    if not isinstance(parameters, dict):
        problems.append("formation parameters must be an object")
        return None, None, order_given
    try:
        if ftype == "hexagon":
            unknown = set(parameters) - {"side_length"}
            if unknown:
                problems.append(f"unknown hexagon parameters: {sorted(unknown)}")
                return None, None, order_given
            side = parameters.get("side_length", 1.0)
            if isinstance(side, bool) or not isinstance(side, (int, float)):
                problems.append("hexagon side_length must be a number")
                return None, None, order_given
            config = hexagon_formation(float(side))
        else:
            unknown = set(parameters) - {"positions"}
            if unknown:
                problems.append(f"unknown positions parameters: {sorted(unknown)}")
                return None, None, order_given
            rows = parameters.get("positions")
            if not isinstance(rows, list) or not rows:
                problems.append("formation positions must be a nonempty list of rows")
                return None, None, order_given
            config = RobotConfiguration(np.array(rows, dtype=float))
    except (ValueError, TypeError) as exc:
        problems.append(f"invalid formation: {exc}")
        return None, None, order_given
    if n is not None and config.n != n:
        problems.append(
            f"formation has {config.n} robots but the scenario declares n={n}"
        )
        return None, None, order_given
    order = order_given if order_given is not None else (n if n is not None else config.n)
    if order > config.n:
        problems.append(
            f"s={order} exceeds the formation's {config.n} robots"
        )
        return None, None, order
    decay = data.get("c", 1.0)
    metric = data.get("z", 1)
    if metric not in (1, 2) or isinstance(decay, bool) or not isinstance(decay, (int, float)) or decay <= 0:
        # The main resolver reports these; bail out quietly here.
        return None, None, order
    params = ControllerParams(decay=float(decay), metric=metric, order=max(order, 2))
    goal = target_from_formation(config, params, order)
    return goal.moments, goal.reference_eigenvalues, order


def scenario_from_dict(data: dict[str, Any]) -> tuple[Optional[Scenario], list[str]]:
    """Build a validated Scenario from schema data.

    Returns ``(scenario, [])`` on success or ``(None, violations)`` listing
    every problem found: unknown fields, type mismatches, schema rule
    violations, and the semantic checks of
    :func:`momentflow.scenarios.scenario_violations`.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return None, ["scenario data must be a JSON object"]
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")

    name = data.get("name")
    if not isinstance(name, str) or not name:
        problems.append("field 'name' must be a nonempty string")
        name = "unnamed"
    n = _want_int(data, "n", problems)
    if "n" not in data:
        problems.append("field 'n' is required")
    d = _want_int(data, "d", problems)
    if "d" not in data:
        problems.append("field 'd' is required")
    if "targets" not in data:
        problems.append("field 'targets' is required")

    has_seed = "seed" in data
    has_positions = "positions" in data
    if has_seed == has_positions:
        problems.append("exactly one of 'seed' and 'positions' is required")
    seed = _want_int(data, "seed", problems) if has_seed else None
    if has_seed and seed is not None and seed < 0:
        problems.append(f"seed must be nonnegative, got {seed}")
    positions = None
    if has_positions:
        rows = data["positions"]
        if not isinstance(rows, list) or not rows or not all(
            isinstance(r, list) for r in rows
        ):
            problems.append("field 'positions' must be a list of coordinate rows")
        else:
            try:
                positions = np.array(rows, dtype=float)
            except (TypeError, ValueError):
                problems.append("field 'positions' must contain numeric rows")
            if positions is not None and positions.ndim != 2:
                problems.append("field 'positions' must be rectangular")
                positions = None

    decay = _want_real(data, "c", problems)
    decay = 1.0 if decay is None else decay
    if decay <= 0:
        problems.append(f"field 'c' must be positive, got {decay}")
    metric = _want_int(data, "z", problems)
    metric = 1 if metric is None else metric
    if metric not in (1, 2):
        problems.append(f"field 'z' must be 1 or 2, got {metric}")
    order_given = _want_int(data, "s", problems)
    if order_given is not None and order_given < 2:
        problems.append(f"field 's' must be at least 2, got {order_given}")
        order_given = None

    dt = _want_real(data, "dt", problems)
    max_time = _want_real(data, "max_time", problems)
    cost_tolerance = _want_real(data, "cost_tolerance", problems)
    record_every = _want_int(data, "record_every", problems)

    target_moments, reference, order = (None, None, order_given)
    if "targets" in data and not problems:
        target_moments, reference, order = _resolve_targets(
            data, n, order_given, problems
        )

    epsilons = None
    if "epsilons" in data:
        eps_list = _want_real_list(data["epsilons"], "epsilons", problems)
        if eps_list is not None and order is not None:
            if len(eps_list) < order:
                problems.append(
                    f"epsilons has {len(eps_list)} entries but s={order} requires that many"
                )
            else:
                epsilons = tuple(eps_list[:order])

    if problems:
        return None, problems

    try:
        params = ControllerParams(
            decay=decay,
            metric=metric,
            order=order,
            epsilons=epsilons if epsilons is not None else default_epsilons(order),
        )
        settings = SimulationSettings(
            dt=DEFAULT_DT if dt is None else dt,
            max_time=DEFAULT_MAX_TIME if max_time is None else max_time,
            cost_tolerance=(
                DEFAULT_COST_TOLERANCE if cost_tolerance is None else cost_tolerance
            ),
            record_every=(
                DEFAULT_RECORD_EVERY if record_every is None else record_every
            ),
        )
        targets = TargetSpectrum(target_moments, reference)
        scenario = Scenario(
            name=name,
            n=n,
            d=d,
            params=params,
            targets=targets,
            settings=settings,
            seed=seed,
            initial_positions=positions,
        )
    except ValueError as exc:
        return None, [str(exc)]

    problems = scenario_violations(scenario)
    if problems:
        return None, problems
    return scenario, []


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
    print(
        f"scenario {report['scenario']}: {report['termination_reason']} "
        f"after {report['accepted_steps']} accepted steps "
        f"(t = {report['simulated_time']:.4g}, {report['rejected_steps']} rejected)"
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
        print(f"invalid start: {exc}{_UNDERFLOW_HINT}", file=sys.stderr)
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


def cmd_run(args: argparse.Namespace) -> int:
    if (args.scenario is None) == (args.preset is None):
        print("run needs a scenario file or --preset, not both", file=sys.stderr)
        return EXIT_VALIDATION
    if args.preset is not None:
        try:
            data = scenario_to_dict(preset(args.preset))
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_VALIDATION
    else:
        try:
            with open(args.scenario) as handle:
                data = json.load(handle)
        except OSError as exc:
            print(f"cannot read scenario: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            print(f"scenario is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_IO
    if not isinstance(data, dict):
        print("scenario data must be a JSON object", file=sys.stderr)
        return EXIT_VALIDATION
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
        for problem in problems:
            print(f"invalid scenario: {problem}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.output)
    if trials is None:
        return _run_one(scenario, out_dir)

    base_seed = scenario.seed
    outcomes = []
    for index in range(trials):
        trial_data = dict(data)
        trial_data["seed"] = base_seed + index
        trial_scenario, problems = scenario_from_dict(trial_data)
        if trial_scenario is None:  # pragma: no cover - same data validated above
            for problem in problems:
                print(f"invalid scenario: {problem}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"trial {index} (seed {base_seed + index}):")
        code = _run_one(trial_scenario, out_dir / f"trial_{index:03d}")
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


def _random_targets(
    rng: np.random.Generator, n: int, d: int, params: ControllerParams
) -> TargetSpectrum:
    reference = _tie_free_config(rng, n, d)
    return target_from_formation(reference, params)


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
            targets = _random_targets(rng, n, d, params)
            analytic = control_law(config, targets, params).velocities
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
    try:
        adjacency = build_adjacency(config, decay, metric)
    except ValueError as exc:
        print(f"invalid positions: {exc}{_UNDERFLOW_HINT}", file=sys.stderr)
        return EXIT_VALIDATION
    eigs = eigenvalues(adjacency)
    moments = spectral_moments(adjacency, order)
    if title:
        print(title)
    print(f"n = {config.n}, d = {config.d}, c = {decay:g}, z = {metric}")
    print("eigenvalues (descending): " + ", ".join(f"{v:.6g}" for v in eigs))
    for k in range(1, order + 1):
        print(f"m_{k} = {moments.values[k - 1]:.6g}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    if (args.path is None) == (args.preset is None):
        print("spectrum needs a JSON file or --preset, not both", file=sys.stderr)
        return EXIT_VALIDATION
    if args.preset is not None:
        try:
            scenario = preset(args.preset)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_VALIDATION
        data = scenario_to_dict(scenario)
    else:
        try:
            with open(args.path) as handle:
                data = json.load(handle)
        except OSError as exc:
            print(f"cannot read file: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            print(f"file is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_IO
    if not isinstance(data, dict):
        print("file must contain a JSON object", file=sys.stderr)
        return EXIT_VALIDATION

    if "targets" in data:
        scenario, problems = scenario_from_dict(data)
        if scenario is None:
            for problem in problems:
                print(f"invalid scenario: {problem}", file=sys.stderr)
            return EXIT_VALIDATION
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

    unknown = set(data) - {"positions", "c", "z", "s"}
    if unknown:
        print(f"unknown fields: {sorted(unknown)}", file=sys.stderr)
        return EXIT_VALIDATION
    if "positions" not in data:
        print("file needs either 'targets' (scenario) or 'positions'", file=sys.stderr)
        return EXIT_VALIDATION
    problems: list[str] = []
    decay = _want_real(data, "c", problems)
    decay = 1.0 if decay is None else decay
    metric = _want_int(data, "z", problems)
    metric = 1 if metric is None else metric
    order = _want_int(data, "s", problems)
    try:
        config = RobotConfiguration(np.array(data["positions"], dtype=float))
    except (TypeError, ValueError) as exc:
        problems.append(f"invalid positions: {exc}")
        config = None
    if config is not None and order is None:
        order = config.n
    if config is not None and not 1 <= order <= config.n:
        problems.append(f"s must be in 1..{config.n}, got {order}")
    if config is not None and (decay <= 0 or metric not in (1, 2)):
        problems.append("c must be positive and z must be 1 or 2")
    if problems:
        for problem in problems:
            print(f"invalid positions file: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    return _print_spectrum(config, decay, metric, order)


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
