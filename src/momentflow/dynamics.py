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
and the run ends there once less than the step-size floor
``DEFAULT_MIN_STEP`` remains.  If the step size bottoms out at that floor
and the trial step is still rejected, the flow has stalled; so has a state
whose drift is exactly zero (all robots coincident, say), which no step
moves.  Each state is evaluated once, and an accepted candidate's
evaluation is the next state.  A weight that underflows to 0 (robots about
745/decay or more apart) is an ordinary weight: a far-apart start is
compressed like any other infeasible start.

Feasible starting points always exist whenever each target sits strictly
below its coincident-configuration ceiling: contracting the team toward its
centroid scales every pairwise distance by the same factor, which raises
every weight and hence every moment of order >= 2, so moments approach the
complete-graph values from below.  ``ensure_feasible`` applies exactly that
compression.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .gradient import ControllerParams, _Evaluation
from .network import (
    MomentVector,
    RobotConfiguration,
    complete_graph_moments,
    eigenvalues,
)

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .scenarios import Scenario, TargetSpectrum

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
    "DEFAULT_MIN_STEP",
    "DEFAULT_COST_TOLERANCE",
    "DEFAULT_MAX_TIME",
    "DEFAULT_RECORD_EVERY",
]

logger = logging.getLogger(__name__)

DEFAULT_DT = 0.05
DEFAULT_MIN_STEP = 1e-8
# The barrier puts a floor of about sqrt(eps) * sum_k 1/(4k) under the
# reachable cost (see momentflow.gradient.DEFAULT_EPSILON); the default
# tolerance sits a comfortable factor above that floor so barrier-guarded
# runs terminate instead of stalling against it.
DEFAULT_COST_TOLERANCE = 1e-4
DEFAULT_MAX_TIME = 1e4
DEFAULT_RECORD_EVERY = 10

# Accept/reject bookkeeping: how many consecutive acceptances earn a step
# doubling; the contraction factor and the slack used by ensure_feasible.
_ACCEPTS_PER_DOUBLING = 5
_COMPRESSION_FACTOR = 0.9
_SLACK_FRACTION = 0.1
_SLACK_FLOOR = 1e-3
_MAX_COMPRESSIONS = 5000


class UnrealizableTargetsError(ValueError):
    """A moment target is at or above its coincident-configuration ceiling."""


class FlowStalled(RuntimeError):
    """No acceptable step exists even at the minimum step size."""


@dataclass(frozen=True, eq=False)
class SimulationSettings:
    """Integrator knobs for the closed-loop flow.

    dt              initial (and maximum) step size, at least the step-size
                    floor DEFAULT_MIN_STEP
    max_time        simulated-time horizon
    cost_tolerance  stop once the cost falls to or below this value
    record_every    sample the trajectory every this many accepted steps
    """

    dt: float = DEFAULT_DT
    max_time: float = DEFAULT_MAX_TIME
    cost_tolerance: float = DEFAULT_COST_TOLERANCE
    record_every: int = DEFAULT_RECORD_EVERY

    def __post_init__(self) -> None:
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError(f"dt must be a positive real, got {self.dt}")
        if self.dt < DEFAULT_MIN_STEP:
            raise ValueError(
                f"dt {self.dt} must not be below the minimum step size {DEFAULT_MIN_STEP:g}"
            )
        if not np.isfinite(self.max_time) or self.max_time <= 0.0:
            raise ValueError(f"max_time must be a positive real, got {self.max_time}")
        if not np.isfinite(self.cost_tolerance) or self.cost_tolerance <= 0.0:
            raise ValueError(
                f"cost_tolerance must be a positive real, got {self.cost_tolerance}"
            )
        if self.record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {self.record_every}")


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
    acceptable step at the minimum step size, or a drift of exactly zero).
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
        eigs.setflags(write=False)
        object.__setattr__(self, "final_eigenvalues", eigs)
        object.__setattr__(self, "samples", tuple(self.samples))


def feasibility_margin(
    config: RobotConfiguration, targets: "TargetSpectrum", params: ControllerParams
) -> np.ndarray:
    """Margins m_k(x) - m_k* for k = 2..order, in that order.

    All entries strictly positive means the state is feasible.
    """
    return _Evaluation(config, targets, params).margins


def ensure_feasible(
    config: RobotConfiguration,
    targets: "TargetSpectrum",
    params: ControllerParams,
) -> RobotConfiguration:
    """Return a feasible configuration, compressing toward the centroid if needed.

    First verifies realizability, before it evaluates ``config``: every
    target must sit strictly below the coincident-configuration moment for
    its order, else :class:`UnrealizableTargetsError`.  This is the one
    place that checks that rule.  A configuration whose margins all clear a
    per-moment slack is returned unchanged; otherwise positions are
    repeatedly pulled toward their centroid by a fixed factor, which
    monotonically raises every moment of order >= 2 toward its ceiling.

    The slack for moment k is min(max(_SLACK_FRACTION * |m_k*|,
    _SLACK_FLOOR), half the gap between target and ceiling); the cap keeps
    the demand strictly attainable, so the compression loop always
    terminates.
    """
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
    slack = np.minimum(
        np.maximum(_SLACK_FRACTION * np.abs(goal[1:]), _SLACK_FLOOR), 0.5 * gaps
    )
    current = config
    for _ in range(_MAX_COMPRESSIONS):
        if np.all(feasibility_margin(current, targets, params) >= slack):
            return current
        centroid = current.positions.mean(axis=0)
        pulled = centroid + _COMPRESSION_FACTOR * (current.positions - centroid)
        current = RobotConfiguration(pulled)
    raise RuntimeError(
        "centroid compression failed to reach the requested slack; "
        "this indicates a numerical degeneracy in the configuration"
    )


def step(
    config: RobotConfiguration,
    targets: "TargetSpectrum",
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
    halved, clamped to ``DEFAULT_MIN_STEP``.  Raises :class:`FlowStalled`
    if dt is already at the floor and the trial still fails, or if the
    drift is exactly zero, since then no step moves the robots.
    """
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dt must be a positive real, got {dt}")
    state, accepted, next_dt = _advance(_Evaluation(config, targets, params), dt)
    return state.config, accepted, next_dt


def _advance(state: _Evaluation, dt: float) -> tuple[_Evaluation, bool, float]:
    """:func:`step` from an evaluated state; the next state comes evaluated.

    The ValueError caught is a candidate with non-finite positions.
    """
    drift = state.drift
    if not np.any(drift):
        raise FlowStalled("the drift is exactly zero, so no step moves the robots")
    try:
        candidate = _Evaluation(
            RobotConfiguration(state.config.positions + dt * drift),
            state.targets,
            state.params,
        )
    except ValueError:
        candidate = None
    if (
        candidate is not None
        and np.all(candidate.margins > 0.0)
        and candidate.cost + candidate.barrier <= state.cost + state.barrier
    ):
        return candidate, True, dt
    if dt <= DEFAULT_MIN_STEP:
        raise FlowStalled(
            f"no acceptable step at the minimum step size {DEFAULT_MIN_STEP:g}"
        )
    return state, False, max(dt / 2.0, DEFAULT_MIN_STEP)


def simulate(scenario: "Scenario") -> TrajectoryRecord:
    """Integrate the closed loop for one scenario to termination.

    The starting configuration comes from the scenario (explicit positions
    or a seeded random draw) and is made feasible first; unrealizable
    targets surface as :class:`UnrealizableTargetsError` before any
    integration happens.  Runs until the cost reaches the tolerance
    ("converged"), less than ``DEFAULT_MIN_STEP`` of simulated time remains
    before the horizon ("horizon"; trial steps are clamped so that
    ``simulated_time`` never exceeds ``max_time``), or no
    acceptable step exists at the minimum step size or the drift is exactly
    zero ("stalled"); a stall is recorded, with its reason, rather than raised.

    Identical scenarios produce bitwise-identical records: every quantity
    is computed by fixed-order numpy expressions from the seeded start.
    """
    params = scenario.params
    targets = scenario.targets
    settings = scenario.settings
    start = ensure_feasible(scenario.initial_configuration(), targets, params)
    state = _Evaluation(start, targets, params)

    def snapshot(t: float) -> TrajectorySample:
        return TrajectorySample(
            t=t,
            configuration=state.config,
            moments=state.moments,
            cost=state.cost,
            barrier=state.barrier,
        )

    t = 0.0
    dt = settings.dt
    accepted = 0
    rejected = 0
    streak = 0
    samples = [snapshot(t)]
    reason = None
    detail = ""
    while True:
        if state.cost <= settings.cost_tolerance:
            reason = "converged"
            break
        remaining = settings.max_time - t
        if remaining < DEFAULT_MIN_STEP:
            reason = "horizon"
            break
        trial = min(dt, remaining)
        try:
            state, ok, dt_next = _advance(state, trial)
        except FlowStalled as exc:
            reason = "stalled"
            detail = str(exc)
            break
        if ok:
            t = min(t + trial, settings.max_time)
            accepted += 1
            streak += 1
            if streak >= _ACCEPTS_PER_DOUBLING:
                dt = min(2.0 * dt, settings.dt)
                streak = 0
            if accepted % settings.record_every == 0:
                samples.append(snapshot(t))
        else:
            dt = dt_next
            rejected += 1
            streak = 0

    config = state.config
    if samples[-1].configuration is not config or samples[-1].t != t:
        samples.append(snapshot(t))

    flipped = 0
    for before, after in zip(start.positions.T, config.positions.T):
        flipped += int(np.sum(
            np.sign(np.subtract.outer(before, before))
            != np.sign(np.subtract.outer(after, after))
        )) // 2
    if flipped:
        logger.info(
            "coordinate ordering changed for %d robot pair slots during the run",
            flipped,
        )

    return TrajectoryRecord(
        samples=tuple(samples),
        final_configuration=config,
        final_moments=state.moments,
        final_eigenvalues=eigenvalues(state.adjacency),
        termination_reason=reason,
        accepted_steps=accepted,
        rejected_steps=rejected,
        simulated_time=t,
        termination_detail=detail,
    )
