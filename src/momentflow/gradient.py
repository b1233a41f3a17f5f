"""Moment-matching cost, feasibility barrier, and their analytic gradients.

The controller drives robot positions down the gradient of

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
-2k at k alone for grad m_k.  With M = A o W, the taxicab form is a row
sum per axis, and the Euclidean form is one (n, n) x (n, d) product,

    x_ir * sum_j M'_ij - (M' X)_ir,    M' = M / dist (0 where dist = 0).

Its two terms nearly cancel, so X is taken relative to the centroid: far
from the origin, raw coordinates would cost digits that the unit
directions never lose.  A central finite-difference oracle checks every
analytic formula without derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .network import (
    RobotConfiguration,
    WeightedAdjacency,
    _moments_and_chain,
    build_adjacency,
    pairwise_distance,
    power_chain,
)

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .scenarios import TargetSpectrum

__all__ = [
    "ControllerParams",
    "InfeasibleStateError",
    "DEFAULT_DECAY",
    "DEFAULT_EPSILON",
    "DEFAULT_FD_STEP",
    "default_epsilons",
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


def default_epsilons(order: int) -> tuple[float, ...]:
    """Barrier constants (0, eps, ..., eps): index k-1 guards moment k.

    The leading zero disables the k = 1 term, which has no margin to guard.
    """
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    return (0.0,) + (DEFAULT_EPSILON,) * (order - 1)


class InfeasibleStateError(RuntimeError):
    """A barrier-guarded moment margin is not strictly positive."""


@dataclass(frozen=True, eq=False)
class ControllerParams:
    """Fixed parameters of the moment controller.

    decay        positive weight-decay constant of the adjacency model
    metric       1 (taxicab) or 2 (Euclidean) inter-robot distance
    order        highest controlled moment s; moments 2..s are steered
    epsilons     s barrier constants, epsilons[k-1] guarding moment k;
                 entry 0 must be 0 and the rest nonnegative; all zero
                 turns the barrier off
    """

    decay: float = DEFAULT_DECAY
    metric: int = 1
    order: int = 2
    epsilons: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.decay) or self.decay <= 0.0:
            raise ValueError(f"decay must be a positive real, got {self.decay}")
        if self.metric not in (1, 2):
            raise ValueError(f"metric must be 1 or 2, got {self.metric}")
        if self.order < 2:
            raise ValueError(f"order must be at least 2, got {self.order}")
        eps = tuple(float(e) for e in self.epsilons) or default_epsilons(self.order)
        if len(eps) != self.order:
            raise ValueError(
                f"need {self.order} epsilons (barrier constants), got {len(eps)}"
            )
        if eps[0] != 0.0:
            raise ValueError("epsilons[0], the k=1 barrier constant, must be zero")
        if any(not np.isfinite(e) or e < 0.0 for e in eps):
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
    if k < 1:
        raise ValueError(f"power k must be at least 1, got {k}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices ({i}, {j}) out of range for n={n}")
    if i == j:
        raise ValueError("diagonal entries are structurally zero; no derivative there")
    prev = power_chain(adjacency, k - 1)[k - 1]
    return 2.0 * k * prev[i, j]


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
    if params.order > config.n:
        raise ValueError(f"order {params.order} exceeds robot count {config.n}")
    from .scenarios import TargetSpectrum  # scenarios imports this module

    coefficients = np.zeros(params.order - 1)
    coefficients[k - 2] = -2.0 * k
    state = _Evaluation(config, TargetSpectrum(np.zeros(params.order)), params)
    return state._project(coefficients)


class _Evaluation:
    """Everything the flow derives from one configuration, computed once.

    Construction checks that the targets carry ``params.order`` moments and
    builds the adjacency (a weight that underflowed to 0 is ordinary).  The
    chain A..A^(s-1), exactly the powers that W uses, gives the moments,
    the margins m_k - m_k* for k = 2..s and the cost.  The barrier and
    every gradient come from the same chain on demand, each gradient
    through one :meth:`_project` call (the drift included); the barrier
    and its gradient raise :class:`InfeasibleStateError` on a nonpositive
    guarded margin.  Every sum over k runs in increasing k, so results are
    bitwise reproducible.
    """

    def __init__(
        self, config: RobotConfiguration, targets: "TargetSpectrum", params: ControllerParams
    ) -> None:
        if targets.order != params.order:
            raise ValueError(
                f"targets carry {targets.order} moments but params.order is {params.order}"
            )
        self.config = config
        self.targets = targets
        self.params = params
        self.adjacency = build_adjacency(config, params.decay, params.metric)
        self.moments, self.chain = _moments_and_chain(self.adjacency, params.order)
        self.margins = self.moments.values[1:] - targets.moments[1:]
        total = 0.0
        for k, margin in enumerate(self.margins, start=2):
            total += margin * margin / (4.0 * k)
        self.cost = total

    def _guarded(self) -> list[tuple[int, float, float]]:
        """(k, eps_k, margin_k) for every moment the barrier guards."""
        eps = self.params.epsilons
        guarded = []
        for k, margin in enumerate(self.margins, start=2):
            if eps[k - 1] == 0.0:
                continue
            if margin <= 0.0:
                raise InfeasibleStateError(
                    f"barrier-guarded margin for moment {k} is {margin:.3e}; "
                    "the state has left the feasible region"
                )
            guarded.append((k, eps[k - 1], margin))
        return guarded

    @cached_property
    def barrier(self) -> float:
        total = 0.0
        for k, eps, margin in self._guarded():
            total += eps / (4.0 * k * margin * margin)
        return total

    def _barrier_coefficients(self) -> np.ndarray:
        """eps_k / (m_k - m_k*)^3 for k = 2..s, zero where eps_k is zero."""
        coefficients = np.zeros(self.params.order - 1)
        for k, eps, margin in self._guarded():
            coefficients[k - 2] = eps / margin**3
        return coefficients

    def _project(self, coefficients: np.ndarray) -> np.ndarray:
        """(decay / n) [(A o T_r) W]_ii, W = sum_k coefficients[k-2] A^(k-1)."""
        n = self.config.n
        weighted = np.zeros((n, n))
        for coefficient, power in zip(coefficients, self.chain):
            if coefficient:
                weighted += coefficient * power
        mixed = np.multiply(weighted, self.adjacency.weights, out=weighted)
        positions = self.config.positions
        if self.params.metric == 1:
            rows = np.empty_like(positions)
            for r, column in enumerate(positions.T):
                signs = np.subtract.outer(column, column)
                rows[:, r] = np.einsum("ij,ij->i", mixed, np.sign(signs, out=signs))
        else:
            dist = pairwise_distance(self.config, 2)
            dist[dist == 0.0] = np.inf
            mixed /= dist
            centred = positions - positions.mean(axis=0)
            rows = centred * mixed.sum(axis=1)[:, None] - mixed @ centred
        return (self.params.decay / n) * rows

    @cached_property
    def drift(self) -> np.ndarray:
        """The flow's velocity -grad(f + b) as an (n, d) array, one projection."""
        return self._project(self.margins - self._barrier_coefficients())


def cost(config: RobotConfiguration, targets: "TargetSpectrum", params: ControllerParams) -> float:
    """Moment-matching cost sum_{k=2}^{s} (m_k - m_k*)^2 / (4k).

    The k = 1 term is omitted: m_1 is identically zero and valid targets
    pin m_1* = 0, so it would contribute exactly nothing.
    """
    return _Evaluation(config, targets, params).cost


def control_law(
    config: RobotConfiguration, targets: "TargetSpectrum", params: ControllerParams
) -> np.ndarray:
    """Negative cost gradient u = -grad f: the (n, d) array of robot velocities.

    u[i, r] = (decay / n) * [(A o T_r) W]_ii with W = sum_{k=2}^{s}
    (m_k - m_k*) A^(k-1), from one chain A..A^(s-1) per call.
    """
    state = _Evaluation(config, targets, params)
    return state._project(state.margins)


def barrier(config: RobotConfiguration, targets: "TargetSpectrum", params: ControllerParams) -> float:
    """Interior barrier sum_{k} (eps_k / 4k) * (m_k - m_k*)^(-2).

    Only terms with eps_k > 0 participate; with all constants zero the
    value is exactly 0.  Raises
    :class:`InfeasibleStateError` if any guarded margin is not strictly
    positive, since the barrier is defined only inside the feasible region.
    """
    return _Evaluation(config, targets, params).barrier


def barrier_gradient(
    config: RobotConfiguration, targets: "TargetSpectrum", params: ControllerParams
) -> np.ndarray:
    """Exact gradient of the barrier with respect to robot coordinates.

    grad b = sum_k -(eps_k / 2k) (m_k - m_k*)^(-3) grad m_k over guarded
    terms, projected once as in :func:`control_law`.  Zeros when all
    constants vanish; :class:`InfeasibleStateError` on a nonpositive
    guarded margin.
    """
    state = _Evaluation(config, targets, params)
    return state._project(state._barrier_coefficients())


def finite_difference_gradient(
    scalar_field: Callable[[RobotConfiguration], float],
    config: RobotConfiguration,
    step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Central finite differences of a scalar field over robot coordinates.

    Perturbs one coordinate at a time by +-step and applies the second-order
    central quotient.  This is the derivative-free oracle used to verify
    every analytic gradient in this module; keep ``step`` well below the
    smallest coordinate gap so taxicab sign structure does not flip inside
    the stencil.
    """
    if not np.isfinite(step) or step <= 0.0:
        raise ValueError(f"step must be a positive real, got {step}")
    base = config.positions
    grad = np.empty_like(base)
    for i in range(config.n):
        for r in range(config.d):
            upper = base.copy()
            upper[i, r] += step
            lower = base.copy()
            lower[i, r] -= step
            grad[i, r] = (
                scalar_field(RobotConfiguration(upper))
                - scalar_field(RobotConfiguration(lower))
            ) / (2.0 * step)
    return grad
