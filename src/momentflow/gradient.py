"""Moment-matching cost, feasibility barrier, and their analytic gradients.

The controller drives robot positions down the gradient of

    f(x) = sum_{k=2}^{s} (1/4k) * (m_k(x) - m_k*)^2,

optionally augmented by the interior barrier

    b(x) = sum_{k=2}^{s} (eps_k / 4k) * (m_k(x) - m_k*)^(-2),

which blows up as a moment approaches its target from above and thereby
keeps every margin m_k - m_k* positive along the flow.  The k = 1 terms are
omitted throughout: m_1 is identically zero for zero-diagonal weight
matrices, targets pin m_1* = 0, and eps_1 = 0 by convention.

All gradients here are exact.  The key identity, for a symmetric zero
diagonal A and i != j, is

    d tr(A^k) / d a_ij = 2k * [A^(k-1)]_ij,

which chains with d a_ij / d x_ir to give, per robot i and coordinate r,

    d m_k / d x_ir = -(2 k decay / n) * [(A o T_r) A^(k-1)]_ii,

where "o" is the entrywise product and T_r encodes the metric: for the
taxicab metric it is the sign matrix sign(x_ir - x_jr); for the Euclidean
metric it is the unit-direction matrix (x_ir - x_jr) / dist(i, j), taken as
zero for coincident pairs.  A central finite-difference oracle is included
so every analytic formula can be checked against a derivative-free
computation.
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


def _metric_factors(config: RobotConfiguration, metric: int) -> list[np.ndarray]:
    """Derivative factors T_r of dist w.r.t. coordinate r of the row robot.

    Taxicab metric: the sign matrices sign(x_ir - x_jr), with sign(0) = 0 on
    ties.  Euclidean metric: the unit-direction matrices
    (x_ir - x_jr) / dist(i, j), with zeros for coincident pairs.  One (n, n)
    matrix per axis.
    """
    positions = config.positions
    diffs = [positions[:, r, None] - positions[None, :, r] for r in range(config.d)]
    if metric == 1:
        return [np.sign(diff) for diff in diffs]
    dist = pairwise_distance(config, 2)
    return [
        np.divide(diff, dist, out=np.zeros_like(diff), where=dist > 0.0)
        for diff in diffs
    ]


def _project(mixed: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """The (n, d) array of row sums [(M o T_r) 1]_i for M = ``mixed``."""
    return np.stack([np.einsum("ij,ij->i", mixed, factor) for factor in factors], axis=1)


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
        raise ValueError(
            f"order {params.order} exceeds robot count {config.n}"
        )
    adjacency = build_adjacency(config, params.decay, params.metric)
    prev = power_chain(adjacency, k - 1)[k - 1]
    scale = -2.0 * k * params.decay / config.n
    return scale * _project(
        adjacency.weights * prev, _metric_factors(config, params.metric)
    )


class _Evaluation:
    """Everything the flow derives from one configuration, computed once.

    Construction checks that the targets carry ``params.order`` moments and
    builds the adjacency through :func:`build_adjacency`, whose validation
    rejects a weight that underflows to 0 with a ValueError.  One power
    chain A^0..A^s then gives the moments, the margins m_k - m_k* for
    k = 2..s and the cost.  The barrier and the drift -grad(f + b) come from
    the same chain on first use; the barrier and its gradient raise
    :class:`InfeasibleStateError` on a nonpositive guarded margin.

    Every sum over k runs in increasing k, so results are bitwise
    reproducible.
    """

    def __init__(
        self, config: RobotConfiguration, targets: "TargetSpectrum", params: ControllerParams
    ) -> None:
        goal = np.asarray(targets.moments, dtype=float)
        if goal.shape != (params.order,):
            raise ValueError(
                f"targets carry {goal.shape[0] if goal.ndim == 1 else 'malformed'} "
                f"moments but params.order is {params.order}"
            )
        self.config = config
        self.targets = targets
        self.params = params
        self.adjacency = build_adjacency(config, params.decay, params.metric)
        self.moments, self.chain = _moments_and_chain(self.adjacency, params.order)
        self.margins = self.moments.values[1:] - goal[1:]
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

    @cached_property
    def _factors(self) -> list[np.ndarray]:
        return _metric_factors(self.config, self.params.metric)

    def _project_powers(self, terms) -> np.ndarray:
        """[(A o T_r) W]_ii for W = sum of coefficient * A^(k-1) over ``terms``."""
        n = self.config.n
        weighted = np.zeros((n, n))
        for coefficient, power in terms:
            weighted += coefficient * power
        return _project(self.adjacency.weights * weighted, self._factors)

    def cost_descent(self) -> np.ndarray:
        """-grad f = (decay / n) [(A o T_r) W]_ii, W = sum_k (m_k - m_k*) A^(k-1)."""
        terms = zip(self.margins, self.chain[1:-1])
        return (self.params.decay / self.config.n) * self._project_powers(terms)

    def barrier_gradient(self) -> np.ndarray:
        """grad b = sum_k -(eps_k / 2k) * (m_k - m_k*)^(-3) * grad m_k."""
        n = self.config.n
        guarded = self._guarded()
        if not guarded:
            return np.zeros((n, self.config.d))
        # -(eps/2k) margin^-3 multiplies grad m_k, whose own prefactor is
        # -(2 k decay / n); the 2k factors cancel against each other.
        return self._project_powers(
            (eps * self.params.decay / (n * margin**3), self.chain[k - 1])
            for k, eps, margin in guarded
        )

    @cached_property
    def drift(self) -> np.ndarray:
        """The flow's velocity -grad(f + b) as an (n, d) array."""
        return self.cost_descent() - self.barrier_gradient()


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

    Expanding the chain rule and collecting the shared power chain gives

        u[i, r] = (decay / n) * [(A o T_r) W]_ii,
        W = sum_{k=2}^{s} (m_k - m_k*) A^(k-1),

    evaluated with one chain A^0..A^s per call.
    """
    return _Evaluation(config, targets, params).cost_descent()


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

    Composed from the moment gradients:

        grad b = sum_k -(eps_k / 2k) * (m_k - m_k*)^(-3) * grad m_k,

    again over guarded terms only, with the power chain shared across k
    exactly as in :func:`control_law`.  Returns an (n, d) array of zeros
    when all constants vanish; raises
    :class:`InfeasibleStateError` on a nonpositive guarded margin.
    """
    return _Evaluation(config, targets, params).barrier_gradient()


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
