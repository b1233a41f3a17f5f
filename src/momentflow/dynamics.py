"""Closed-loop gradient flow of robot positions toward target moments.

The continuous dynamics are x_dot = -grad(f + b): the moment-matching cost
plus the interior barrier from :mod:`momentflow.gradient`.  Integration is
explicit first order with an accept/reject rule that enforces, in discrete
time, the two properties the continuous flow has for free: the state stays
inside the feasible region

    F = { x : m_k(x) > m_k*  for every k = 2..s },

and f + b never increases.  A trial step that violates either property is
rejected and the step size halved; five consecutive acceptances double it
back up to its initial value.  A trial step never runs past the horizon,
and the run ends there once less than the step-size floor remains: 2**-23
of the first trial step, min(dt, max_time), and never below the smallest
normal float.  If the step size bottoms out at that floor, 23 halvings
below the first trial step, and the trial step is still rejected, the flow
has stalled; so has a state whose drift is exactly zero (all robots
coincident, say), which no step moves, and so has a run that spends
``MAX_TRIAL_STEPS`` trial steps or whose samples would outgrow
``network._MAX_PLAN_BYTES``.  Each state is evaluated once, the start
included, into floats: an accepted candidate's evaluation is the next
state, and a configuration or moment vector is wrapped only for the
record.  A weight that underflows to 0 (robots about 745/decay or more
apart) is an ordinary weight: a far-apart start is compressed like any
other infeasible start.

Feasible starting points always exist whenever each target sits strictly
below its coincident-configuration ceiling: contracting the team toward its
centroid scales every pairwise distance by the same factor, which raises
every weight and hence every moment of order >= 2, so moments approach the
complete-graph values from below.  ``ensure_feasible`` applies exactly that
compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .gradient import ControllerParams, TargetSpectrum, _evaluate, _Evaluation, _Flow
from .network import (
    MomentVector,
    RobotConfiguration,
    _BOOLEANS,
    _MAX_PLAN_BYTES,
    _freeze,
    _quiet,
    _workspace,
    build_adjacency,
    complete_graph_moments,
    eigenvalues,
)

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .scenarios import Scenario

__all__ = [
    "SimulationSettings",
    "TrajectorySample",
    "TrajectoryRecord",
    "UnrealizableTargetsError",
    "FlowStalled",
    "feasibility_margin",
    "ensure_feasible",
    "step",
    "simulate",
    "DEFAULT_DT",
    "DEFAULT_COST_TOLERANCE",
    "DEFAULT_MAX_TIME",
    "DEFAULT_RECORD_EVERY",
    "MAX_TRIAL_STEPS",
]

DEFAULT_DT = 0.05
_STEP_FLOOR = 1e-8  # a bare step()'s; a run's is relative to its dt (see simulate)
_TINY = np.finfo(float).tiny  # the smallest normal float, under a run's floor
# The barrier puts a floor of about sqrt(eps) * sum_k 1/(4k) under the
# reachable cost (see momentflow.gradient.DEFAULT_EPSILON); the default
# tolerance sits a comfortable factor above that floor so barrier-guarded
# runs terminate instead of stalling against it.
DEFAULT_COST_TOLERANCE = 1e-4
DEFAULT_MAX_TIME = 1e4
DEFAULT_RECORD_EVERY = 10
# Trial steps after which a run ends "stalled": about 25x the 40,250 of the longest
# shipped run, so that a tiny dt and a huge horizon cannot run for days.
MAX_TRIAL_STEPS = 10**6

# Accept/reject bookkeeping: how many consecutive acceptances earn a step
# doubling; the contraction factor and the slack used by ensure_feasible.
_ACCEPTS_PER_DOUBLING = 5
_COMPRESSION_FACTOR = 0.9
_SLACK_FRACTION = 0.1
_SLACK_FLOOR = 1e-3
_MAX_COMPRESSIONS = 5000
_JUMP_REACH = 350.0  # decay x taxicab centroid distance after a jump


class UnrealizableTargetsError(ValueError):
    """A target is at or above its coincident-configuration ceiling, or positive while m_2* = 0."""


class FlowStalled(RuntimeError):
    """No acceptable step exists even at the minimum step size."""


@dataclass(frozen=True, eq=False)
class SimulationSettings:
    """Integrator knobs for the closed-loop flow.

    dt              initial (and maximum) step size
    max_time        simulated-time horizon
    cost_tolerance  stop once the cost falls to or below this value
    record_every    sample the trajectory every this many accepted steps

    The three reals are stored as Python floats, whatever real type they came as.
    """

    dt: float = DEFAULT_DT
    max_time: float = DEFAULT_MAX_TIME
    cost_tolerance: float = DEFAULT_COST_TOLERANCE
    record_every: int = DEFAULT_RECORD_EVERY

    def __post_init__(self) -> None:
        for name in ("dt", "max_time", "cost_tolerance"):
            value = getattr(self, name)
            if isinstance(value, _BOOLEANS) or not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be a positive real, got {value}")
            object.__setattr__(self, name, float(value))
        if type(self.record_every) is not int or self.record_every < 1:  # a bool is no count
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    """State snapshot at one accepted instant of the flow."""

    t: float
    configuration: RobotConfiguration
    moments: MomentVector
    cost: float
    barrier: float


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Complete outcome of one simulation run.

    ``termination_reason`` is one of "converged" (cost reached tolerance),
    "horizon" (simulated time hit max_time first), or "stalled" (no
    acceptable step at the minimum step size, a drift of exactly zero,
    ``MAX_TRIAL_STEPS`` trial steps spent, or a record at its bound).
    ``termination_detail`` says why a run stalled and is empty otherwise.
    ``samples`` always contains the initial state and the final state;
    intermediate samples appear every ``record_every`` accepted steps.
    """

    samples: tuple[TrajectorySample, ...]
    final_configuration: RobotConfiguration
    final_moments: MomentVector
    final_eigenvalues: np.ndarray
    termination_reason: str
    accepted_steps: int
    rejected_steps: int
    simulated_time: float
    termination_detail: str = ""

    def __post_init__(self) -> None:
        if self.termination_reason not in ("converged", "horizon", "stalled"):
            raise ValueError(
                f"unknown termination reason {self.termination_reason!r}"
            )
        if not self.samples:
            raise ValueError("a trajectory record needs at least one sample")
        eigs = np.array(self.final_eigenvalues, dtype=float)
        _freeze(self, "final_eigenvalues", eigs)
        object.__setattr__(self, "samples", tuple(self.samples))


def feasibility_margin(
    config: RobotConfiguration, targets: TargetSpectrum, params: ControllerParams
) -> np.ndarray:
    """Margins m_k(x) - m_k* for k = 2..order, in that order.

    All entries strictly positive means the state is feasible.
    """
    return np.array(_evaluate(config, targets, params).margins)


@_quiet
def ensure_feasible(
    config: RobotConfiguration,
    targets: TargetSpectrum,
    params: ControllerParams,
) -> RobotConfiguration:
    """Return a feasible configuration, compressing toward the centroid if needed.

    First verifies realizability, before it evaluates ``config``: every target
    must sit strictly below the coincident-configuration moment for its order,
    and none be positive if m_2* = 0, which forces A = 0; else
    :class:`UnrealizableTargetsError`, raised only here.  A configuration whose
    margins all clear a per-moment slack is returned unchanged; otherwise
    positions are repeatedly pulled toward their centroid by a fixed factor,
    which monotonically raises every moment of order >= 2 toward its ceiling.
    While every moment is 0 (a team 1e300 apart, say), one larger factor
    scales the team, about the origin so that it stays representable, to at
    most 700 / decay across, where weights exp(-decay * dist) are floats.

    The slack for moment k is min(max(_SLACK_FRACTION * |m_k*|,
    _SLACK_FLOOR), half the gap between target and ceiling); the cap keeps
    the demand attainable; ValueError, saying why, if the compression stops short.
    """
    return _feasible_start(config, targets, params).config


def _feasible_start(config, targets, params) -> _Evaluation:
    """:func:`ensure_feasible`, returning the evaluation of the configuration it returns."""
    goal = targets.moments
    ceilings = complete_graph_moments(config.n, targets.order).values
    gaps = ceilings[1:] - goal[1:]
    if np.any(gaps <= 0.0):
        bad = int(np.argmax(gaps <= 0.0)) + 2
        raise UnrealizableTargetsError(
            f"target moment m_{bad}* = {goal[bad - 1]:.6g} is not strictly below "
            f"its coincident-configuration ceiling {ceilings[bad - 1]:.6g} "
            f"for n={config.n}"
        )
    if goal[1] == 0.0 and np.any(goal[2:] > 0.0):
        k = int(np.argmax(goal[2:] > 0.0)) + 3
        raise UnrealizableTargetsError(f"target moment m_{k}* = {goal[k - 1]:.6g} > 0 needs a "
                                       f"nonzero weight, but m_2* = {goal[1]:.6g} allows none")
    slack = np.minimum(
        np.maximum(_SLACK_FRACTION * np.abs(goal[1:]), _SLACK_FLOOR), 0.5 * gaps
    )
    flow = _Flow(targets, params, *config.positions.shape)
    current = config
    for _ in range(_MAX_COMPRESSIONS):
        state = _Evaluation(flow, np.asfortranarray(current.positions), current)  # see _advance
        if np.all(slack <= state.margins):
            return state
        vanished = np.array_equal(state.margins, -goal[1:])  # every moment is 0
        del state  # its n x n arrays go before the next try's come
        positions = np.ascontiguousarray(current.positions)  # one summation order, any layout
        centroid = positions.mean(axis=0)
        if not np.isfinite(positions - centroid).all():  # its sum or an offset overflows
            centroid = positions.min(axis=0) / 2 + positions.max(axis=0) / 2
        offsets = positions - centroid
        reach = min(params.decay * np.abs(offsets).sum(axis=1).max(), np.finfo(float).max)
        if reach > _JUMP_REACH and vanished:
            pulled = (_JUMP_REACH / reach) * positions  # reach is finite, so this is not 0
        else:
            pulled = centroid + _COMPRESSION_FACTOR * offsets
        spread = f"{reach / params.decay:.3g} about a centre at {abs(centroid).max():.3g}"
        if np.array_equal(pulled, positions):
            raise ValueError(f"centroid compression failed to reach the requested slack: the "
                             f"team's spread, {spread}, is below the precision of its coordinates")
        current = RobotConfiguration(pulled)
    raise ValueError(f"centroid compression failed to reach the requested slack in "
                     f"{_MAX_COMPRESSIONS:,} steps: the team's spread was still {spread}")


@_quiet
def step(
    config: RobotConfiguration,
    targets: TargetSpectrum,
    params: ControllerParams,
    dt: float,
) -> tuple[RobotConfiguration, bool, float]:
    """One explicit trial step of the flow with the accept/reject rule.

    Computes the drift -grad(f + b) at ``config``, forms the candidate
    x + dt * drift, and accepts it iff the candidate is feasible (every
    margin strictly positive) and does not increase f + b; a candidate
    whose positions are not finite is rejected too.  Returns
    ``(new_config, accepted, next_dt)``: on acceptance the candidate and
    the unchanged dt; on rejection the original configuration and dt
    halved, clamped to the floor 1e-8.  Raises :class:`FlowStalled`
    if dt is already at the floor and the trial still fails, or if the
    drift is exactly zero, since then no step moves the robots (see _advance).
    """
    if isinstance(dt, _BOOLEANS) or not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be a positive real, got {dt}")
    state, accepted, next_dt = _advance(_evaluate(config, targets, params), float(dt))
    return state.config, accepted, next_dt


def _advance(state: _Evaluation, dt: float,
             floor: float = _STEP_FLOOR) -> tuple[_Evaluation, bool, float]:
    """:func:`step` from an evaluated state, with the step-size ``floor`` (a run's, from
    :func:`simulate`, or a bare step's); the next state comes evaluated.

    Runs under its caller's error state: a candidate with a coordinate that is not finite (only
    a sum of squares that is not finite tests each) is rejected unevaluated.  A candidate is
    evaluated from its F-ordered positions alone; its configuration is wrapped only if asked for.
    A zero drift leaves f + b as it was, bit for bit, so a stall is counted only on a rejected
    trial or an accepted one whose f + b did not fall (a fall proves that the robots moved).
    The first trial step makes the flow's workspace; x + dt * v goes to the other column slot,
    so the state's drift is projected before the candidate's evaluation (see _Evaluation).
    """
    drift, flow, candidate = state.drift, state.flow, None
    if flow.workspace is None:  # the flow's first trial step: its evaluations write there on
        flow.workspace = _workspace(*drift.shape, flow.metric, flow.plan)
    positions, flat = (slots := flow.workspace.slots)[state.positions is slots[0][0]]  # the other
    np.add(state.positions, np.multiply(dt, drift, positions), positions)  # x + dt * v
    if math.isfinite(flat.dot(flat)) or np.isfinite(positions).all():
        try:
            candidate = _Evaluation(flow, positions)
        except ValueError:  # a moment overflowed: no ceiling bounds a bare step()
            pass
    before = state.cost + state.barrier
    if candidate is not None and min(candidate.margins) > 0.0 and (
            after := candidate.cost + candidate.barrier) <= before:
        if after < before or np.count_nonzero(drift):
            return candidate, True, dt
    elif np.count_nonzero(drift):
        if dt <= floor:
            raise FlowStalled(f"no acceptable step at the minimum step size {floor:g}")
        return state, False, max(dt / 2.0, floor)
    raise FlowStalled("the drift is exactly zero, so no step moves the robots")


@_quiet
def simulate(scenario: "Scenario") -> TrajectoryRecord:
    """Integrate the closed loop for one scenario to termination.

    The starting configuration comes from the scenario (explicit positions
    or a seeded random draw) and is made feasible first; unrealizable
    targets surface as :class:`UnrealizableTargetsError` before any
    integration happens.  Runs until the cost reaches the tolerance
    ("converged"), less than the step-size floor of simulated time remains
    before the horizon ("horizon"; trial steps are clamped so that
    ``simulated_time`` never exceeds ``max_time``), or no
    acceptable step exists at that floor, the drift is exactly
    zero, ``MAX_TRIAL_STEPS`` trial steps are spent or the record reaches its
    bound ("stalled"); a stall is recorded, with its reason, rather than raised.

    Identical scenarios produce bitwise-identical records: every quantity
    is computed by fixed-order numpy expressions from the seeded start.
    The floor, min(dt, max_time) * 2**-23 and at least the smallest normal float, scales as
    dt does, so a run in another length unit takes the same steps (README).
    """
    settings, params = scenario.settings, scenario.params
    state = _feasible_start(scenario.initial_configuration(), scenario.targets, params)

    def snapshot(t: float) -> TrajectorySample:
        return TrajectorySample(
            t=t,
            configuration=state.config,
            moments=state.moment_vector,
            cost=state.cost,
            barrier=state.barrier,
        )

    t, accepted, rejected, streak = 0.0, 0, 0, 0
    dt = cap = settings.dt  # the settings are read once, the floor formed once
    horizon, tolerance, every = settings.max_time, settings.cost_tolerance, settings.record_every
    floor = max(min(cap, horizon) * 2.0**-23, _TINY)  # 23 halvings from the first trial step
    limit = _MAX_PLAN_BYTES // (8 * (state.positions.size + params.order))  # samples kept at most
    samples, reason, detail = [snapshot(t)], None, ""
    while True:
        if state.cost <= tolerance:
            reason = "converged"
            break
        remaining = horizon - t
        if remaining < floor:
            reason = "horizon"
            break
        if accepted + rejected >= MAX_TRIAL_STEPS:
            reason = "stalled"
            detail = f"the budget of {MAX_TRIAL_STEPS:,} trial steps ran out at t = {t:.6g}"
            break
        trial = remaining if remaining < dt else dt  # min(dt, remaining)
        try:
            state, ok, dt_next = _advance(state, trial, floor)
        except FlowStalled as exc:
            reason = "stalled"
            detail = str(exc)
            break
        if ok:
            t = min(t + trial, horizon)
            accepted += 1
            streak += 1
            if streak >= _ACCEPTS_PER_DOUBLING:
                dt = min(2.0 * dt, cap)
                streak = 0
            if accepted % every == 0:
                if len(samples) >= limit:
                    reason = "stalled"
                    detail = (f"the record's bound of {limit:,} samples, "
                              f"{_MAX_PLAN_BYTES / 1e9:.3g} GB, was reached at t = {t:.6g} "
                              f"with record_every = {every}")
                    break
                samples.append(snapshot(t))
        else:
            dt = dt_next
            rejected += 1
            streak = 0

    config = state.config
    if samples[-1].configuration is not config or samples[-1].t != t:
        samples.append(snapshot(t))
    del state  # and its flow's workspace: the final weights are formed again, alone

    return TrajectoryRecord(
        samples=tuple(samples),
        final_configuration=config,
        final_moments=samples[-1].moments,
        final_eigenvalues=eigenvalues(build_adjacency(config, params.decay, params.metric)),
        termination_reason=reason,
        accepted_steps=accepted,
        rejected_steps=rejected,
        simulated_time=t,
        termination_detail=detail,
    )
