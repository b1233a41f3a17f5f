"""Scenario assembly: targets, initial configurations, presets, validation.

A scenario bundles everything one simulation run needs: robot count and
dimension, an initial configuration (explicit positions or a seeded random
draw), the controller's inputs (:mod:`momentflow.gradient`'s
``ControllerParams`` and ``TargetSpectrum``), and integrator settings.
Targets are literal moment values, as in the two presets, or a reference
formation's own moments and spectrum (realizable by construction: a formation
has the scenario's n robots and at most its d coordinates).

Validation is centralized here: type constructors check structure and
ranges, and ``scenario_violations`` enforces the semantic rules (m_1* = 0,
even moments nonnegative, order bounds, eigenvalue/moment consistency of
reference data).  Realizability (each target strictly below its
complete-graph ceiling) is a property of the run, not of the file, and is
checked by :func:`momentflow.dynamics.ensure_feasible`.

This module also owns the JSON file schema.  ``SCHEMA`` lists every key of
a scenario file with its kind, its default and the field it fills, the
only such map: ``scenario_from_dict`` groups a file's values by the part
that owns them and calls each part's constructor once.
``positions_from_dict`` reads the ``{positions, c?, z?, s?}`` files of
``momentflow spectrum``, whose keys mean what they mean in a scenario file.
The two bundled presets are scenario file data too: ``preset_data`` hands
out a copy, and ``preset`` reads it through ``scenario_from_dict``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Any, Optional

import numpy as np

from .dynamics import (
    DEFAULT_COST_TOLERANCE,
    DEFAULT_DT,
    DEFAULT_MAX_TIME,
    DEFAULT_RECORD_EVERY,
    SimulationSettings,
)
from .gradient import DEFAULT_DECAY, ControllerParams, TargetSpectrum
from .network import (
    MAX_ROBOTS,
    RobotConfiguration,
    _freeze,
    _max_planned_order,
    _positive_real,
    moments_and_eigenvalues,
    moments_from_eigenvalues,
)

__all__ = [
    "Scenario",
    "random_geometric_config",
    "hexagon_formation",
    "target_from_formation",
    "preset",
    "preset_data",
    "PRESET_NAMES",
    "scenario_violations",
    "SCHEMA",
    "scenario_from_dict",
    "positions_from_dict",
    "MAX_DIMENSION",
]

# The bundled reference tables round to two decimals, so moments recomputed
# from reference eigenvalues match stored targets only to about 1e-2
# relative to the moment magnitude (absolute for small moments).
EIGEN_CONSISTENCY_TOL = 1e-2

MAX_DIMENSION = 3  # the largest spatial dimension d a scenario, or verify, takes


@dataclass(frozen=True, eq=False)
class Scenario:
    """One fully specified simulation run.

    Exactly one of ``seed`` (random start in the unit square/cube) and
    ``initial_positions`` (explicit start) must be given, and ``n`` must
    not exceed ``MAX_ROBOTS``.
    """

    name: str
    n: int
    d: int
    params: ControllerParams
    targets: TargetSpectrum
    settings: SimulationSettings
    seed: Optional[int] = None
    initial_positions: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("scenario name must be a nonempty string")
        if type(self.n) is not int or type(self.d) is not int:  # a bool is no count (see _as)
            raise ValueError(f"n and d must be integers, got n={self.n!r}, d={self.d!r}")
        if self.n < 2:
            raise ValueError(f"need at least 2 robots, got n={self.n}")
        if self.n > MAX_ROBOTS:
            raise ValueError(f"need at most {MAX_ROBOTS} robots, got n={self.n}")
        if self.d < 1:
            raise ValueError(f"spatial dimension must be at least 1, got d={self.d}")
        if (self.seed is None) == (self.initial_positions is None):
            raise ValueError(
                "exactly one of seed and initial_positions must be provided"
            )
        if self.seed is not None and (type(self.seed) is not int or self.seed < 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.initial_positions is not None:
            pos = RobotConfiguration(self.initial_positions).positions  # frozen already
            if pos.shape != (self.n, self.d):
                raise ValueError(f"initial positions have shape {pos.shape}, "
                                 f"expected ({self.n}, {self.d})")
            object.__setattr__(self, "initial_positions", pos)

    def initial_configuration(self) -> RobotConfiguration:
        """Starting configuration: explicit positions, checked already, or the seeded draw."""
        if self.initial_positions is not None:
            return _freeze(object.__new__(RobotConfiguration), "positions", self.initial_positions)
        return random_geometric_config(self.n, self.d, self.seed)


def random_geometric_config(n: int, d: int, seed: int) -> RobotConfiguration:
    """n robots placed uniformly at random in the unit d-cube.

    Uses numpy's seeded default generator (PCG64), so a given (n, d, seed)
    triple reproduces the same configuration on every platform.
    """
    rng = np.random.default_rng(seed)
    return RobotConfiguration(rng.random((n, d)))


def hexagon_formation(side_length: float = 1.0) -> RobotConfiguration:
    """Regular hexagon with a central robot: 7 robots in the plane.

    Vertex j sits at angle j*60 degrees and radius ``side_length`` from the
    center (for a regular hexagon the circumradius equals the side length).
    """
    side_length = _positive_real(side_length, "side_length")
    angles = np.arange(6) * np.pi / 3.0
    positions = np.zeros((7, 2))
    positions[1:, 0] = side_length * np.cos(angles)
    positions[1:, 1] = side_length * np.sin(angles)
    return RobotConfiguration(positions)


def target_from_formation(
    config: RobotConfiguration, params: ControllerParams
) -> TargetSpectrum:
    """Moments m_1..m_s (s = ``params.order``) and spectrum of a formation.

    The returned targets are realizable by construction: a configuration
    attaining them exactly is ``config`` itself.
    """
    return TargetSpectrum(
        *moments_and_eigenvalues(config, params.decay, params.metric, params.order)
    )


# The bundled scenarios as scenario file data: the whole moment table, so that
# --set s can raise the default order s, a seed and reference eigenvalues, at
# two decimals.  The decay behind them is unknown, but scaling positions trades
# off exactly against it, so c = 1 (the default) loses no generality.  A
# tolerance tol forces |m_k - m_k*| <= sqrt(4 k tol): within 5% (hexagon7) and
# 2% (rgg10) of target, yet well above the barrier's cost floor (about 4e-5 at
# order 7).
_PRESETS = {
    "hexagon7": {"name": "hexagon7", "n": 7, "d": 2, "seed": 4, "z": 2, "s": 7,
                 "cost_tolerance": 8e-5,
                 "targets": {"moments": [0.0, 0.53, 0.64, 1.22, 2.02, 3.47, 5.90]},
                 "reference_eigenvalues": [1.70, 0.05, 0.05, -0.40, -0.40, -0.47, -0.51]},
    "rgg10": {"name": "rgg10", "n": 10, "d": 2, "seed": 0, "z": 2, "s": 4, "cost_tolerance": 2e-4,
              "targets": {"moments": [0.0, 3.11, 13.45, 71.60, 368.36, 1905.0]},
              "reference_eigenvalues": [5.16, 0.27, 0.02, -0.61, -0.68, -0.77, -0.79, -0.84,
                                        -0.85, -0.89]},
}

PRESET_NAMES = tuple(_PRESETS)


def preset_data(name: str) -> dict[str, Any]:
    """A fresh copy of a bundled scenario's file data, see ``_PRESETS``."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return copy.deepcopy(_PRESETS[name])


def preset(name: str, order: Optional[int] = None) -> Scenario:
    """One of the bundled scenarios by name, read from :func:`preset_data`.

    ``hexagon7``: 7 robots matching the spectrum of a hexagon-with-center
    formation; full order 7 by default, any order in 2..7 on request.

    ``rgg10``: 10 robots matching a reference random-geometric-graph
    spectrum; order 4 by default.  The reference moment table stops at
    m_6, so orders above 6 are unavailable.

    Both use Euclidean distances, decay 1, a seeded start in the unit square
    and a tolerance that keeps every final moment within a few percent.
    """
    data = preset_data(name)
    if order is not None:
        data["s"] = order
    scenario, problems = scenario_from_dict(data)
    if problems:
        raise ValueError("; ".join(problems))
    return scenario


def scenario_violations(scenario: Scenario) -> list[str]:
    """All semantic rule violations of a scenario, empty when valid.

    Checks, in order: spatial dimension 1..3, moment order against robot
    count, m_1* = 0, nonnegative even-order targets, and reference-eigenvalue
    consistency (count matches n; moments recomputed from the spectrum are
    finite and agree with the stored targets to EIGEN_CONSISTENCY_TOL
    relative to max(1, |m_k*|)).  Targets at or above their ceilings are
    left to :func:`momentflow.dynamics.ensure_feasible`; targets and params
    orders agree in every file read, and the flow itself refuses a mismatch.
    """
    return _violations(scenario, True)


def _violations(scenario: Scenario, check_reference: bool) -> list[str]:
    """:func:`scenario_violations`, with the reference-eigenvalue check only if asked for."""
    out: list[str] = []
    if scenario.d > MAX_DIMENSION:
        out.append(f"spatial dimension d={scenario.d} exceeds {MAX_DIMENSION}")
    params, targets = scenario.params, scenario.targets
    if params.order > scenario.n:
        out.append(f"moment order s={params.order} exceeds robot count n={scenario.n}")
    goal = targets.moments
    if goal[0] != 0.0:
        out.append(f"m_1* must be exactly 0, got {goal[0]:.6g}")
    for k in range(2, len(goal) + 1, 2):
        if goal[k - 1] < 0.0:
            out.append(f"even-order target m_{k}* = {goal[k - 1]:.6g} is negative")
    eigs = targets.reference_eigenvalues
    if check_reference and eigs is not None:
        if eigs.shape != (scenario.n,):
            out.append(
                f"reference spectrum has {eigs.size} eigenvalues, expected n={scenario.n}"
            )
        elif targets.order <= scenario.n:
            try:
                recomputed = moments_from_eigenvalues(eigs, targets.order).values
            except ValueError:  # a power of a reference eigenvalue overflowed
                out.append("reference eigenvalues are too large: their moments overflow floats")
                return out
            for k in range(1, targets.order + 1):
                allowed = EIGEN_CONSISTENCY_TOL * max(1.0, abs(targets.moments[k - 1]))
                gap = abs(recomputed[k - 1] - targets.moments[k - 1])
                if gap > allowed:
                    out.append(
                        f"reference eigenvalues reproduce m_{k} = {recomputed[k - 1]:.6g} "
                        f"but the target is {targets.moments[k - 1]:.6g} "
                        f"(difference {gap:.3g} exceeds {allowed:.3g})"
                    )
    return out


# == file schema =============================================================

def _as(kind: type, value: Any) -> Any:
    """``value`` as a field of ``kind``: int, float, str, dict, a list of
    numbers (list) or coordinate rows (np.ndarray) of JSON numbers.

    Raises TypeError, ValueError or OverflowError on a value of another
    JSON kind; booleans and numeric strings are not numbers.
    """
    if kind is np.ndarray:
        rows = isinstance(value, list) and value and all(map(isinstance, value, repeat(list)))
        if not rows or not set(map(type, chain.from_iterable(value))) <= {int, float}:
            raise TypeError(value)
        return np.array(value, dtype=float)
    if kind is list:
        numbers = isinstance(value, list) and all(map(isinstance, value, repeat((int, float))))
        if not numbers or any(map(isinstance, value, repeat(bool))):
            raise TypeError(value)
        return list(map(float, value))
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError(value)
    return float(value) if kind is float else value


# What each kind of field must hold, for the message when it does not.
_WANTED = {
    int: "an integer",
    float: "a number",
    list: "a list of numbers",
    np.ndarray: "a nonempty list of numeric coordinate rows",
    str: "a string",
    dict: "an object",
}

_REQUIRED = object()

# Every key of a scenario file: its kind (see _as), its default (_REQUIRED
# when the key must be given; None when the key is optional or resolved from
# the others), and the Scenario attribute it is read into.
# This column is the only map from file keys to constructor fields.
SCHEMA: dict[str, tuple[type, Any, str]] = {
    "name": (str, _REQUIRED, "name"),
    "n": (int, _REQUIRED, "n"),
    "d": (int, _REQUIRED, "d"),
    "seed": (int, None, "seed"),
    "positions": (np.ndarray, None, "initial_positions"),
    "c": (float, DEFAULT_DECAY, "params.decay"),
    "z": (int, 1, "params.metric"),
    "s": (int, None, "params.order"),
    "epsilons": (list, None, "params.epsilons"),
    "dt": (float, DEFAULT_DT, "settings.dt"),
    "max_time": (float, DEFAULT_MAX_TIME, "settings.max_time"),
    "cost_tolerance": (float, DEFAULT_COST_TOLERANCE, "settings.cost_tolerance"),
    "record_every": (int, DEFAULT_RECORD_EVERY, "settings.record_every"),
    "targets": (dict, _REQUIRED, "targets"),
    "reference_eigenvalues": (list, None, "targets.reference_eigenvalues"),
}

# The parts of a Scenario that SCHEMA's attribute paths name, in build order.
_PARTS = {"targets": TargetSpectrum, "params": ControllerParams, "settings": SimulationSettings}
# SCHEMA's attribute paths split once: (file key, owning part, keyword); "" is the Scenario.
_FIELDS = tuple((key, *attribute.rpartition(".")[::2]) for key, (*_, attribute) in SCHEMA.items())

# Per formation type its constructor and the rows of its parameters (a table, below).
_FORMATIONS = {
    "hexagon": (hexagon_formation, {"side_length": (float, 1.0)}),
    "positions": (RobotConfiguration, {"positions": (np.ndarray, _REQUIRED)}),
}

# Ranges checked here, by path, so that they are reported under the file's
# keys together with every other problem of the file.  The bounds of s
# differ between the two file forms and are checked where each is read.
_RANGES = {
    "c": (lambda c: 0.0 < c < np.inf, "must be positive and finite"),
    "z": ((1, 2).__contains__, "must be 1 or 2"),
    "targets.formation.type": (_FORMATIONS.__contains__, f"must be one of {sorted(_FORMATIONS)}"),
}


def _table(rows: dict[str, tuple], prefix: str = "") -> tuple[str, frozenset, tuple]:
    """(prefix, keys, rows) of ``rows``, each row (key, kind, default, path, _RANGES rule)."""
    return prefix, frozenset(rows), tuple(
        (key, kind, default, prefix + key, _RANGES.get(prefix + key))
        for key, (kind, default, *_) in rows.items())


# Tables formed once: scenario and positions files, the targets and formation blocks, formations.
_SCENARIO_FILE = _table(SCHEMA)
_POSITIONS_FILE = _table({key: SCHEMA[key] for key in ("positions", "c", "z", "s")})
_TARGETS = _table({"moments": (list, None), "formation": (dict, None)}, "targets.")
_FORMATION = _table({"type": (str, _REQUIRED), "parameters": (dict, {})}, "targets.formation.")
_FORMATIONS.update({name: (make, _table(rows, "targets.formation.parameters."))
                    for name, (make, rows) in _FORMATIONS.items()})


def _read(data: dict, table: tuple[str, frozenset, tuple], problems: list[str]) -> dict[str, Any]:
    """The fields of a :func:`_table` in ``data``, converted, with defaults filled in.

    Unknown and missing required keys, values of the wrong kind and values
    outside ``_RANGES`` are appended to ``problems``.  A JSON null in a
    number field stands for its default.
    """
    prefix, known, rows = table
    if unknown := data.keys() - known:
        problems.append(f"unknown fields: {sorted(prefix + key for key in unknown)}")
    values = {}
    for key, kind, default, path, rule in rows:
        value = data.get(key)
        if value is None and (key not in data or kind in (int, float)):
            if default is _REQUIRED:
                problems.append(f"field {path!r} is required")
            values[key] = default
            continue
        try:
            values[key] = _as(kind, value)
        except (TypeError, ValueError, OverflowError):
            problems.append(f"field {path!r} must be {_WANTED[kind]}, got {value!r:.40}")
            continue
        if rule is not None and not rule[0](values[key]):
            problems.append(f"field {path!r} {rule[1]}, got {values[key]!r:.40}")
    return values


def _resolve_targets(
    parts: dict[str, dict[str, Any]], problems: list[str]
) -> Optional[tuple[Any, Any, int]]:
    """Target moments, reference eigenvalues and order, or None on a problem.

    ``parts`` holds the constructor keywords of each part, the Scenario's
    own under "".  Moment targets set the order to their count unless ``s``
    truncates them.  Formation targets are the named formation's own
    moments and spectrum, up to order ``s``, which defaults to n.
    """
    block = parts[""]["targets"]
    targets = _read(block, _TARGETS, problems)
    if ("moments" in block) == ("formation" in block):
        problems.append("targets must contain exactly one of 'moments' and 'formation'")
    if problems:
        return None
    order = parts["params"]["order"]
    reference = parts["targets"]["reference_eigenvalues"]
    moments = targets["moments"]
    if moments is not None:
        order = len(moments) if order is None else order
        if order > len(moments):
            problems.append(f"s={order} exceeds the {len(moments)} provided target moments")
            return None
        return moments[:order], reference, order

    if reference is not None:
        problems.append(
            "reference_eigenvalues cannot accompany formation targets; "
            "the formation's own spectrum is used"
        )
    formation = _read(targets["formation"], _FORMATION, problems)
    if problems:
        return None
    make, table = _FORMATIONS[formation["type"]]
    parameters = _read(formation["parameters"], table, problems)
    if problems:
        return None
    try:
        config, (n, d) = make(**parameters), (parts[""]["n"], parts[""]["d"])
        if config.n != n:
            raise ValueError(f"formation has {config.n} robots but the scenario declares n={n}")
        if config.d > d:  # a formation in fewer dimensions embeds, one in more does not
            raise ValueError(
                f"formation has d={config.d} coordinates but the scenario declares d={d}")
        order = n if order is None else order
        if order > n:
            raise ValueError(f"s={order} exceeds the formation's {n} robots")
        # target_from_formation's values, without the ControllerParams it would need.
        params = parts["params"]
        moments, eigs = moments_and_eigenvalues(config, params["decay"], params["metric"], order)
    except ValueError as exc:
        problems.append(f"invalid formation: {exc}")
        return None
    return moments, eigs, order


def scenario_from_dict(data: Any) -> tuple[Optional[Scenario], list[str]]:
    """Build a validated Scenario from scenario file data.

    Returns ``(scenario, [])`` on success or ``(None, problems)``.  The
    problems are every schema problem (unknown, missing or mistyped keys,
    the ranges of c, z and s, unresolvable targets) if there are any; else
    the first one a constructor raises; else the semantic violations of
    :func:`scenario_violations`, except that formation targets skip its
    reference-spectrum check: their moments and spectrum come from one
    evaluation of the formation.
    """
    if not isinstance(data, dict):
        return None, ["scenario data must be a JSON object"]
    problems: list[str] = []
    fields = _read(data, _SCENARIO_FILE, problems)
    if (data.get("seed") is None) == ("positions" not in data):
        problems.append("exactly one of 'seed' and 'positions' is required")
    if fields.get("s") is not None and fields["s"] < 2:
        problems.append(f"field 's' must be at least 2, got {fields['s']}")
    if problems:
        return None, problems
    parts: dict[str, dict[str, Any]] = {}  # constructor keywords by owning part
    for key, part, name in _FIELDS:
        parts.setdefault(part, {})[name] = fields[key]
    resolved = _resolve_targets(parts, problems)
    if resolved is None:
        return None, problems
    targets, params = parts["targets"], parts["params"]
    checked = targets["reference_eigenvalues"] is not None  # the file's own, not a formation's
    targets["moments"], targets["reference_eigenvalues"], order = resolved
    epsilons = params["epsilons"]
    if epsilons is not None and len(epsilons) < order:
        return None, [f"epsilons has {len(epsilons)} entries but s={order} requires that many"]
    params["order"] = order
    params["epsilons"] = () if epsilons is None else tuple(epsilons[:order])

    own = parts[""]
    try:
        for part, make in _PARTS.items():
            own[part] = make(**parts[part])
        scenario = Scenario(**own)
    except ValueError as exc:
        return None, [str(exc)]
    problems = _violations(scenario, checked)
    return (None, problems) if problems else (scenario, [])


def positions_from_dict(
    data: dict[str, Any],
) -> tuple[Optional[tuple[RobotConfiguration, float, int, int]], list[str]]:
    """Configuration, c, z and s of a positions file ``{positions, c?, z?, s?}``.

    Returns ``((configuration, c, z, s), [])`` or ``(None, problems)``.  The
    keys mean what they mean in a scenario file, except that ``s`` defaults
    to the robot count, capped as ``network._max_planned_order`` says, and may be 1.
    As in a scenario, at most ``MAX_ROBOTS`` robots.
    """
    problems: list[str] = []
    fields = _read(data, _POSITIONS_FILE, problems)
    if "positions" not in data:
        problems.append("field 'positions' is required")
    if problems:
        return None, problems
    try:
        config = RobotConfiguration(fields["positions"])
    except ValueError as exc:
        return None, [str(exc)]
    n, d = config.positions.shape
    if n > MAX_ROBOTS:
        return None, [f"need at most {MAX_ROBOTS} robots, got n={n}"]
    order = _max_planned_order(n, d) if fields["s"] is None else fields["s"]
    if not 1 <= order <= n:
        return None, [f"field 's' must be in 1..{n}, got {order}"]
    return (config, fields["c"], fields["z"], order), []
