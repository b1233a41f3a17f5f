"""The controller's inputs, its cost and barrier, and their analytic gradients.

The controller takes two inputs: :class:`TargetSpectrum`, the desired
moments m_k*, and :class:`ControllerParams`, its gains and model constants.
It drives robot positions down the gradient of

    f(x) = sum_{k=2}^{s} (1/4k) * (m_k(x) - m_k*)^2,

optionally augmented by the interior barrier

    b(x) = sum_{k=2}^{s} (eps_k / 4k) * (m_k(x) - m_k*)^(-2),

which blows up as a moment approaches its target from above and thereby
keeps every margin m_k - m_k* positive along the flow.  The k = 1 terms are
omitted throughout: m_1 is identically zero for zero-diagonal weight
matrices, targets pin m_1* = 0, and eps_1 = 0 by convention.

All gradients here are exact.  With d tr(A^k) / d a_ij = 2k [A^(k-1)]_ij
for a symmetric zero-diagonal A and i != j, each one is a single projection

    (decay / n) * [(A o T_r) W]_ii,    W = sum_{k=2}^{s} coef_k A^(k-1),

per robot i and coordinate r, where "o" is the entrywise product and T_r
is d dist / d x_ir: sign(x_ir - x_jr) for the taxicab metric, and
(x_ir - x_jr) / dist(i, j), zero for coincident pairs, for the Euclidean
one.  Only the coefficients differ: m_k - m_k* for -grad f,
eps_k / (m_k - m_k*)^3 for grad b, their difference for the drift, and
-2k at k alone for grad m_k.  With M = A o W, robot i's velocity is one
contraction sum_j M'_ij D_ij: M' = M and D = sign(x_i - x_j) (taxicab), or
M' = M / dist (0 where dist = 0 or inf) and D = x_i - x_j (Euclidean), from
the exact differences that the distances keep for every team.  The moments,
cost and barrier need only A..A^h, h = ceil(s/2),
from h - 1 n x n products, and W one more from s = 4 on; what depends only
on the targets, the constants and n is derived once per flow.  A central
finite-difference oracle checks every analytic formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .network import (
    MomentVector,
    RobotConfiguration,
    WeightedAdjacency,
    _BOOLEANS,
    _INTEGERS,
    _chain_plan,
    _check_overflow,
    _freeze,
    _half_chain,
    _index_pair,
    _metric,
    _positive_real,
    _quiet,
    _weights,
    _workspace,
    power_chain,
)

__all__ = [
    "TargetSpectrum",
    "ControllerParams",
    "InfeasibleStateError",
    "DEFAULT_DECAY",
    "DEFAULT_EPSILON",
    "trace_derivative",
    "moment_gradient",
    "cost",
    "control_law",
    "barrier",
    "barrier_gradient",
    "finite_difference_gradient",
]

DEFAULT_DECAY = 1.0
# Barrier strength.  The stationary point of f + b sits at a margin of
# roughly eps**(1/4) per moment, which adds about sqrt(eps) * sum_k 1/(4k)
# to the reachable cost floor, so the convergence tolerance on f must sit
# above that floor.  1e-8 leaves the floor near 4e-5 for typical orders
# while keeping settled margins around 1e-2; much smaller values stiffen
# the barrier enough to stall an explicit integrator near the boundary.
DEFAULT_EPSILON = 1e-8
DEFAULT_FD_STEP = 1e-6
_STENCIL_BYTES = 2**19  # bounds the arrays of one chunk of a stacked stencil


class InfeasibleStateError(RuntimeError):
    """A barrier-guarded moment margin is not strictly positive."""


@dataclass(frozen=True, eq=False)
class TargetSpectrum:
    """Desired spectral moments, optionally with reference eigenvalues.

    ``moments[k-1]`` is the target m_k*.  ``reference_eigenvalues``, when
    present, is the full n-point spectrum the moments were derived from;
    it is reporting metadata and does not enter the control law.  Semantic
    constraints (m_1* = 0, nonnegative even moments, consistency with the
    reference spectrum) are checked by
    :func:`momentflow.scenarios.scenario_violations`.
    """

    moments: np.ndarray
    reference_eigenvalues: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        vals = np.array(self.moments, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError(
                f"target moments must be a 1-D array of at least 2 values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("target moments must be finite")
        _freeze(self, "moments", vals)
        if self.reference_eigenvalues is not None:
            eigs = np.array(self.reference_eigenvalues, dtype=float)
            if eigs.ndim != 1 or eigs.size < 2:
                raise ValueError("reference_eigenvalues must be a 1-D array of at least 2 values")
            if not np.isfinite(eigs).all():
                raise ValueError("reference_eigenvalues must be finite")
            _freeze(self, "reference_eigenvalues", eigs)

    @property
    def order(self) -> int:
        """Highest targeted moment index s."""
        return self.moments.shape[0]


@dataclass(frozen=True, eq=False)
class ControllerParams:
    """Fixed parameters of the moment controller.

    decay        positive weight-decay constant of the adjacency model, stored as a
                 Python float
    metric       1 (taxicab) or 2 (Euclidean) inter-robot distance
    order        highest controlled moment s; moments 2..s are steered
    epsilons     s barrier constants, epsilons[k-1] guarding moment k;
                 entry 0 must be 0 and the rest nonnegative; all zero
                 turns the barrier off; empty means 0, then DEFAULT_EPSILON
    """

    decay: float = DEFAULT_DECAY
    metric: int = 1
    order: int = 2
    epsilons: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "decay", _positive_real(self.decay, "decay"))
        _metric(self.metric)
        if type(self.order) is not int or self.order < 2:
            raise ValueError(f"order must be at least 2 and an integer, got {self.order!r}")
        eps = tuple(self.epsilons)  # read once, as it may be an iterator
        if any(map(isinstance, eps, repeat(_BOOLEANS))):  # True is no barrier constant of 1.0
            raise ValueError(f"epsilons (barrier constants) must be reals, not booleans, got {eps}")
        try:  # one term's exact fsum each, as network._positive_real reads a real: no string
            eps = tuple(map(math.fsum, zip(eps))) or (0.0,) + (DEFAULT_EPSILON,) * (self.order - 1)
        except (TypeError, OverflowError):
            raise ValueError(f"epsilons (barrier constants) must be reals, got {eps}") from None
        if len(eps) != self.order:
            raise ValueError(
                f"need {self.order} epsilons (barrier constants), got {len(eps)}"
            )
        if eps[0] != 0.0:
            raise ValueError("epsilons[0], the k=1 barrier constant, must be zero")
        if not all(map(math.isfinite, eps)) or min(eps) < 0.0:
            raise ValueError("epsilons (barrier constants) must be finite and nonnegative")
        object.__setattr__(self, "epsilons", eps)


def trace_derivative(adjacency: WeightedAdjacency, k: int, i: int, j: int) -> float:
    """Derivative of tr(A^k) with respect to the symmetric pair a_ij = a_ji.

    Equals 2k * [A^(k-1)]_ij for i != j: each of the k cyclic positions at
    which a length-k closed walk can traverse edge {i, j} contributes
    [A^(k-1)]_ij, and the symmetric entry doubles it.  For k = 1 the
    derivative is zero since the trace never touches off-diagonal entries.
    """
    n = adjacency.n
    if isinstance(k, bool) or not isinstance(k, _INTEGERS) or k < 1:
        raise ValueError(f"power k must be an integer of at least 1, got {k!r}")
    _index_pair(i, j, n, "indices")
    if i == j:
        raise ValueError("diagonal entries are structurally zero; no derivative there")
    return 2.0 * k * power_chain(adjacency, k - 1)[k - 1][i, j]


@_quiet
def moment_gradient(config: RobotConfiguration, params: ControllerParams, k: int) -> np.ndarray:
    """Exact gradient of m_k with respect to every robot coordinate.

    Returns an (n, d) array G with

        G[i, r] = d m_k / d x_ir = -(2 k decay / n) * [(A o T_r) A^(k-1)]_ii.

    Valid for 2 <= k <= order; the formula assumes no coordinate ties under
    the taxicab metric and no coincident robots under the Euclidean metric
    (at such points the returned value is the natural subgradient choice
    with sign(0) = 0).
    """
    if not 2 <= k <= params.order:
        raise ValueError(f"moment index k={k} outside 2..{params.order}")
    coefficients = [0.0] * (params.order - 1)
    coefficients[k - 2] = -2.0 * k
    state = _evaluate(config, TargetSpectrum(np.zeros(params.order)), params)
    return state._project(coefficients)


class _Flow:
    """What every evaluation in one flow reads, derived once from (targets, params), n and d:
    metric, decay, scale = decay / n, the terms (m_k*, 4k, eps_k) for k = 2..s, the chain's plan;
    and the network._workspace its first evaluation makes and each writes (see _Evaluation)."""

    def __init__(self, targets: TargetSpectrum, params: ControllerParams, n: int, d: int) -> None:
        if targets.order != params.order:
            raise ValueError(
                f"targets carry {targets.order} moments but params.order is {params.order}"
            )
        self.metric, self.decay, self.scale = params.metric, params.decay, params.decay / n
        self.workspace = None
        self.terms = [(goal, 4.0 * k, eps) for k, (goal, eps) in
                      enumerate(zip(targets.moments[1:].tolist(), params.epsilons[1:]), 2)]
        self.plan = _chain_plan(params.order, n, d)


class _Evaluation:
    """Everything a flow derives from one configuration, computed once.

    The weights come from its one distance matrix, which :meth:`_project` reuses if Euclidean,
    its careful route too, as it does the differences; the half chain A..A^h, h = ceil(s/2),
    gives the moments m_1..m_s, then one pass over the flow's terms (m_k*, 4k, eps_k) the
    margins m_k - m_k* (k = 2..s), the cost and the barrier, all floats, each sum in one fixed
    order (not by 3.12's compensated ``sum``).  One :meth:`_project` gives any one gradient.
    The configuration (a copy) and moment vector are wrapped only when asked for.
    This and the drift run the bound calls of the flow's workspace (network._workspace, made by
    its first evaluation) in this one frame each; its arrays last until the flow's next
    evaluation, so an evaluation is projected before the flow evaluates again, and only its
    positions, drift and floats outlive it: dynamics._advance forms x + dt * drift first, and
    the tests' reference flow, whose every evaluation has a flow of its own, checks it.
    """

    __slots__ = ("flow", "positions", "_config", "_distance", "_differences", "moments",
                 "margins", "cost", "barrier", "_drift")

    def __init__(self, flow: _Flow, positions: np.ndarray, config=None) -> None:
        self.flow, self.positions, self._config, self._drift = flow, positions, config, None
        if (work := flow.workspace) is None:  # the flow's first evaluation makes it
            work = flow.workspace = _workspace(*positions.shape, flow.metric, flow.decay, flow.plan)
        work.lefts[...] = work.rights[...] = positions.T
        for call, operands in work.calls:  # distances, weights, half chain, bound once
            call(*operands)
        distance, self._differences = work.formed
        self.moments, n = [0.0], len(positions)
        for dot, flat in work.pairs:  # n m_k = <A^i, A^j>, one ddot of two flat powers
            self.moments.append(float(dot(flat)) / n)
        if not math.isfinite(sum(self.moments)):  # as network._half_chain checks
            _check_overflow(self.moments, "moment")
        self._distance = distance if flow.metric == 2 else None
        margins, cost, barrier = [], 0.0, 0.0
        # An interior barrier: +inf where a guarded margin, or its term's divisor, is not positive.
        for moment, (goal, divisor, eps) in zip(self.moments[1:], flow.terms):
            margins.append(margin := moment - goal)
            cost += margin * margin / divisor
            if eps:
                barrier += eps / q if margin > 0 and (q := divisor * margin * margin) else np.inf
        self.margins, self.cost, self.barrier = margins, cost, barrier

    @property
    def config(self) -> RobotConfiguration:
        if self._config is None:  # a copy: the positions may be a column slot
            self._config = _freeze(object.__new__(RobotConfiguration), "positions",
                                   self.positions.copy("K"))
        return self._config

    @property
    def moment_vector(self) -> MomentVector:
        return _freeze(object.__new__(MomentVector), "values", np.array(self.moments))

    def _barrier_coefficients(self) -> tuple[list[float], int]:
        """eps_k / (m_k - m_k*)^3 / 2**shift for k = 2..s (0 where eps_k is 0) and shift: 0, or,
        if one overflows, the largest below 8; InfeasibleStateError on a guarded margin <= 0."""
        coefficients, shift = [0.0] * len(self.margins), 0
        guarded = [(k, eps) for k, (_, _, eps) in enumerate(self.flow.terms, 2) if eps]
        for k, eps in guarded:
            margin = self.margins[k - 2]
            if margin <= 0.0:
                raise InfeasibleStateError(
                    f"barrier-guarded margin for moment {k} is {margin:.3e}; "
                    "the state has left the feasible region"
                )
            # numpy's cube where Python's could overflow or reach 0 and raise
            cube = margin**3 if 1e-100 < margin < 1e100 else np.float64(margin) ** 3
            coefficients[k - 2] = eps / cube if cube else np.inf
        if np.inf in coefficients:  # eps = g 2^a over margin^3 = (f 2^e)^3
            parts = [(k, *math.frexp(eps), *math.frexp(self.margins[k - 2])) for k, eps in guarded]
            shift = max(a - 3 * e for _, _, a, _, e in parts)
            for k, g, a, f, e in parts:
                coefficients[k - 2] = math.ldexp(g / f**3, a - 3 * e - shift)
        return coefficients, shift

    def _project(self, coefficients: Sequence[float]) -> np.ndarray:
        """(decay / n) [(A o T_r) W]_ii, W = sum_k coefficients[k-2] A^(k-1).

        From the half chain, W = sum_{p<h} c_p A^p + A^h (c_h I + sum_i c_(h+i) A^i):
        one product from s = 4 on, each term c_k A^k through Q.  The rows contract the kept
        differences x_i - x_j, exact for every team (taxicab: their signs; Euclidean: M / dist
        in Q, 0 for each self-term by the distances' +inf diagonal; rows whose sum of squares is
        not finite come again from these distances and differences, corrected in place: an inf
        difference counts 0, an underflowed squared gap is re-taken at max-abs scale, and scaled
        by it where M / dist overflows).  Once per evaluation, before the flow's next (see
        _Evaluation): it writes Q, W and the taxicab signs over the workspace's arrays.
        """
        flow, (q, mixed, buffer, calls) = self.flow, self.flow.workspace.drift
        buffer[...] = coefficients
        for call, operands in calls:  # W through Q, then M = A o W: the weights' last read
            call(*operands)
        differences, self._differences = self._differences, None
        if flow.metric == 1:  # rows_i = sum_j M'_ij D_ij, as the (d, n) columns
            rows = np.vecdot(mixed, np.sign(differences, differences))
        else:  # M / dist into Q: the distances' +inf diagonal gives each self-term 0
            dist, self._distance = self._distance, None
            rows = np.vecdot(np.divide(mixed, dist, q), differences)
            if not math.isfinite(np.vdot(rows, rows)):  # a far pair, a zero gap or huge rows
                differences[:, dist == np.inf] = 0.0  # an inf x_i - x_j times its 0 weight is NaN
                if dist.min() == 0.0:  # a gap whose square underflowed takes its distance again
                    i, j = np.nonzero(dist == 0.0)
                    gaps = differences[:, i, j]
                    top = np.abs(gaps).max(axis=0)
                    top[top == 0.0] = 1.0  # a coincident pair stays at 0
                    scaled = gaps / top
                    dist[i, j] = top * (norm := np.sqrt(np.square(scaled).sum(axis=0)))
                    dist[dist == 0.0] = np.inf
                    with np.errstate(over="ignore"):  # M / dist overflows: M / norm by gaps / top
                        over = np.isinf(mixed[i, j] / dist[i, j])
                    differences[:, i[over], j[over]] = scaled[:, over]
                    dist[i[over], j[over]] = norm[over]
                rows = np.vecdot(np.divide(mixed, dist, q), differences)
        rows *= flow.scale
        return rows.T

    @property
    def drift(self) -> np.ndarray:
        """The flow's velocity -grad(f + b) as an (n, d) array: one projection of the
        coefficients m_k - m_k* - eps_k / (m_k - m_k*)^3, formed in one pass over the terms.
        Whether it moves any robot is the trial step's question (see dynamics._advance)."""
        if self._drift is None:
            coefficients, shift = [], 0
            for margin, (_, _, eps) in zip(self.margins, self.flow.terms):  # in the common case
                if eps and (not 1e-100 < margin < 1e100 or (term := eps / margin**3) == math.inf):
                    terms, shift = self._barrier_coefficients()  # raises, or scales by 2**-shift
                    coefficients = [math.ldexp(m, -shift) - t for m, t in zip(self.margins, terms)]
                    break  # a cube left range or a term overflowed
                coefficients.append(margin - term if eps else margin)
            drift = self._project(coefficients)
            self._drift = np.ldexp(drift, shift, out=drift) if shift else drift
        return self._drift


@_quiet
def _evaluate(config: RobotConfiguration, targets: TargetSpectrum, params: ControllerParams):
    """The public entry points evaluate quietly, as the flow does (see network._quiet)."""
    return _Evaluation(_Flow(targets, params, *config.positions.shape), config.positions, config)


def cost(config: RobotConfiguration, targets: TargetSpectrum, params: ControllerParams) -> float:
    """Moment-matching cost sum_{k=2}^{s} (m_k - m_k*)^2 / (4k).

    The k = 1 term is omitted: m_1 is identically zero and valid targets
    pin m_1* = 0, so it would contribute exactly nothing.
    """
    return _evaluate(config, targets, params).cost


@_quiet
def control_law(
    config: RobotConfiguration, targets: TargetSpectrum, params: ControllerParams
) -> np.ndarray:
    """Negative cost gradient u = -grad f: the (n, d) array of robot velocities.

    u[i, r] = (decay / n) * [(A o T_r) W]_ii with W = sum_{k=2}^{s}
    (m_k - m_k*) A^(k-1), from the half chain A..A^ceil(s/2) and, from
    s = 4 on, one product more.
    """
    state = _evaluate(config, targets, params)
    return state._project(state.margins)


@_quiet
def barrier(config: RobotConfiguration, targets: TargetSpectrum, params: ControllerParams) -> float:
    """Interior barrier sum_{k} (eps_k / 4k) * (m_k - m_k*)^(-2).

    Only terms with eps_k > 0 participate; with all constants zero the
    value is exactly 0.  Raises :class:`InfeasibleStateError` if any guarded
    margin is not strictly positive, since the barrier is defined only
    inside the feasible region.
    """
    state = _evaluate(config, targets, params)
    state._barrier_coefficients()  # the check that every guarded margin is positive
    return state.barrier


@_quiet
def barrier_gradient(
    config: RobotConfiguration, targets: TargetSpectrum, params: ControllerParams
) -> np.ndarray:
    """Exact gradient of the barrier with respect to robot coordinates.

    grad b = sum_k -(eps_k / 2k) (m_k - m_k*)^(-3) grad m_k over guarded
    terms, projected once as in :func:`control_law`.  Zeros when all
    constants vanish; :class:`InfeasibleStateError` on a nonpositive
    guarded margin.
    """
    state = _evaluate(config, targets, params)
    coefficients, shift = state._barrier_coefficients()
    rows = state._project(coefficients)
    return np.ldexp(rows, shift, out=rows) if shift else rows


def finite_difference_gradient(scalar_field: Callable[..., float], config: RobotConfiguration,
                               *args, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central finite differences of ``scalar_field(c, *args)`` over robot coordinates.

    Evaluates the 2 n d teams x + step e_ir, then x - step e_ir, coordinate by coordinate, and
    applies the second-order central quotient.  This is the derivative-free oracle used to
    verify every analytic gradient in this module; keep ``step`` well below the smallest
    coordinate gap so taxicab sign structure does not flip inside the stencil.  For
    :func:`cost` or :func:`barrier` with ``(targets, params)`` the teams are one stack where a
    chunk of it holds two teams or more (one is no faster than one call), a rule read from n, d
    and s before any team forms, bitwise as one team a call; any other field, or a stencil with
    a team that would raise, goes one team a call, as it raises.
    """
    step = _positive_real(step, "step")
    base = config.positions
    n, d = base.shape
    values = None
    if scalar_field in (cost, barrier) and len(args) == 2 and (  # the chunk rule, from n, d, s
            size := _STENCIL_BYTES // ((d + (args[1].order + 1) // 2 + 3) * 8 * n * n)) >= 2:
        teams = np.zeros((2 * n * d, n, d))  # teams 2k, 2k + 1: x +- step e_k; x + 0.0 is x
        teams.ravel()[:: 2 * n * d + 1], teams.ravel()[n * d :: 2 * n * d + 1] = step, -step
        values = _stacked_values(scalar_field, np.add(teams, base, out=teams), *args, size)
    if values is None:
        values = np.empty(2 * n * d)
        for k in range(2 * n * d):
            team = base.copy()
            team.flat[k // 2] += -step if k % 2 else step
            values[k] = scalar_field(RobotConfiguration(team), *args)
    with np.errstate(over="ignore", invalid="ignore"):  # as quiet as Python's floats
        return np.subtract(*values.reshape(n, d, 2).transpose(2, 0, 1)) / (2.0 * step)


@_quiet
def _stacked_values(field: Callable[..., float], teams: np.ndarray, targets: TargetSpectrum,
                    params: ControllerParams, size: int) -> Optional[np.ndarray]:
    """``field(RobotConfiguration(team), targets, params)`` for each team of an (m, n, d) stack,
    bitwise, for ``field`` :func:`cost` or :func:`barrier`; None if a team would raise.  In
    chunks of ``size`` teams, each one stack through the one-team kernels."""
    if not np.isfinite(teams).all():
        return None
    flow, values = _Flow(targets, params, *teams.shape[1:]), []
    for chunk in np.split(teams, range(size, len(teams), size)):  # robot-major, (n, size, d)
        moments = _half_chain(_weights(chunk.swapaxes(0, 1), flow.decay, flow.metric), flow.plan)[0]
        margins = [moment - goal for moment, (goal, _, _) in zip(moments[1:], flow.terms)]
        pairs = list(zip(margins, flow.terms))
        if not np.isfinite(margins).all() or field is barrier and any(
                (x <= 0.0).any() for x, (_, _, eps) in pairs if eps):
            return None
        terms = ([eps / (q * x * x) for x, (_, q, eps) in pairs if eps] if field is barrier
                 else [x * x / q for x, (_, q, _) in pairs])
        values.append(functools.reduce(np.add, terms, np.zeros(len(chunk))))  # eps / 0 is inf
    return np.concatenate(values)
