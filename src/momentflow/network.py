"""Robot networks as position-dependent weighted graphs.

A team of n point robots induces a complete weighted graph on n nodes: the
edge weight between robots i and j is exp(-decay * dist(x_i, x_j)), so
weights approach 1 as robots meet and decay toward 0 as they separate.  The
k-th spectral moment of the weight matrix A,

    m_k = tr(A^k) / n = (1/n) * sum_i lambda_i^k,

summarizes the eigenvalue spectrum and is the quantity steered by the rest
of this package.  Because the diagonal of A is identically zero, m_1 is
always zero, and because A is entrywise nonnegative every moment is
nonnegative as well.

Entries of A^k admit a combinatorial reading: [A^k]_ij is the total weight
of all length-k walks from i to j, where the weight of a walk is the product
of its edge weights.  ``walk_weight_sum`` evaluates that sum by direct
enumeration and serves as an independent cross-check on the linear-algebra
route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RobotConfiguration",
    "WeightedAdjacency",
    "MomentVector",
    "pairwise_distance",
    "build_adjacency",
    "power_chain",
    "spectral_moments",
    "eigenvalues",
    "moments_from_eigenvalues",
    "complete_graph_moments",
    "walk_weight_sum",
    "WALK_ENUMERATION_LIMIT",
    "MAX_WALK_LENGTH",
]

# Enumeration of length-k walks touches n**(k-1) interior node sequences per
# endpoint pair; refuse anything beyond these bounds rather than hang.
WALK_ENUMERATION_LIMIT = 1_000_000
MAX_WALK_LENGTH = 5


@dataclass(frozen=True, eq=False)
class RobotConfiguration:
    """Positions of n point robots in d-dimensional space.

    ``positions`` is an (n, d) array, one row per robot.  The array is
    copied on construction and frozen, so a configuration never changes
    after the fact; every operation that moves robots returns a new
    configuration.
    """

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError(
                f"positions must be an (n, d) array, got shape {pos.shape}"
            )
        n, d = pos.shape
        if n < 2:
            raise ValueError(f"a network needs at least 2 robots, got n={n}")
        if d < 1:
            raise ValueError(f"spatial dimension must be at least 1, got d={d}")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        """Number of robots."""
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        """Spatial dimension."""
        return self.positions.shape[1]


@dataclass(frozen=True, eq=False)
class WeightedAdjacency:
    """Symmetric nonnegative weight matrix with a zero diagonal.

    Off-diagonal entries lie in [0, 1]: exp(-decay * dist) is one only for
    coincident robots and underflows to exactly zero about 745/decay apart,
    an edge whose weight and derivative are both 0; moments stay defined.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if w.shape[0] < 2:
            raise ValueError("weight matrix needs at least 2 nodes")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("diagonal weights must be exactly zero")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric")
        off = w[~np.eye(w.shape[0], dtype=bool)]
        if np.any(off < 0.0) or np.any(off > 1.0):
            raise ValueError("off-diagonal weights must lie in [0, 1]")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Spectral moments m_1 .. m_s packed as ``values[k-1] == m_k``.

    The constructor checks only structure (a finite 1-D array); properties
    that depend on where the values came from, such as m_1 == 0 for moments
    of a zero-diagonal matrix, are guaranteed by the producing operations
    and exercised in the test suite.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError(f"moment values must be a nonempty 1-D array, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("moment values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        """Highest moment index s."""
        return self.values.shape[0]


def pairwise_distance(config: RobotConfiguration, metric: int) -> np.ndarray:
    """All inter-robot distances as an (n, n) array.

    ``metric`` selects the norm: 1 for the taxicab (l1) distance, 2 for the
    Euclidean (l2) distance.  The per-axis terms are accumulated one axis at
    a time, so no (n, n, d) array is formed.  The result is symmetric with
    an exactly zero diagonal because x_i - x_i is computed as an exact zero.
    """
    if metric not in (1, 2):
        raise ValueError(f"metric must be 1 or 2, got {metric}")
    total = np.zeros((config.n, config.n))
    for column in config.positions.T:
        diff = np.subtract.outer(column, column)
        total += np.abs(diff, out=diff) if metric == 1 else np.square(diff, out=diff)
    return total if metric == 1 else np.sqrt(total, out=total)


def build_adjacency(config: RobotConfiguration, decay: float, metric: int) -> WeightedAdjacency:
    """Weight matrix a_ij = exp(-decay * dist(x_i, x_j)), zero diagonal.

    ``decay`` must be positive; larger values make weights fall off faster
    with distance.  The diagonal is forced to exactly zero (robots carry no
    self-loops), which in turn pins the first spectral moment at zero.
    Finite symmetric distances give symmetric weights in [0, 1], a weight
    that underflows to 0 included, so the result meets the
    :class:`WeightedAdjacency` contract by construction and the
    constructor's checks are not run again.
    """
    if not np.isfinite(decay) or decay <= 0.0:
        raise ValueError(f"decay must be a positive real, got {decay}")
    weights = pairwise_distance(config, metric)
    weights *= -decay
    np.exp(weights, out=weights)
    np.fill_diagonal(weights, 0.0)
    weights.setflags(write=False)
    adjacency = object.__new__(WeightedAdjacency)
    object.__setattr__(adjacency, "weights", weights)
    return adjacency


def power_chain(adjacency: WeightedAdjacency, max_power: int) -> list[np.ndarray]:
    """Matrix powers [I, A, A^2, ..., A^max_power] by repeated multiplication.

    The chain is the shared workhorse for moments and their gradients:
    entry k of the returned list is A^k, so both tr(A^k) and the A^(k-1)
    factors of the gradient formulas come from one pass of dense
    multiplications (entry 1 is the read-only weight array itself).
    """
    if max_power < 0:
        raise ValueError(f"max_power must be nonnegative, got {max_power}")
    chain = [np.eye(adjacency.n), adjacency.weights][: max_power + 1]
    for _ in range(max_power - 1):
        chain.append(chain[-1] @ adjacency.weights)
    return chain


def spectral_moments(adjacency: WeightedAdjacency, order: int) -> MomentVector:
    """Moments m_k = tr(A^k)/n for k = 1..order.

    ``order`` must satisfy 1 <= order <= n.  m_1 is exactly zero (zero
    diagonal) and every moment of a nonnegative matrix is nonnegative.
    """
    return _moments_and_chain(adjacency, order)[0]


def _moments_and_chain(
    adjacency: WeightedAdjacency, order: int
) -> tuple[MomentVector, list[np.ndarray]]:
    """:func:`spectral_moments` with the powers [A, ..., A^(order-1)].

    A is symmetric, so tr(A^order) = sum(A^(order-1) o A) without A^order.
    """
    n = adjacency.n
    if not 1 <= order <= n:
        raise ValueError(f"order must satisfy 1 <= order <= {n}, got {order}")
    # Overflowing powers are reported with their order, not as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        chain = power_chain(adjacency, order - 1)
        traces = [np.trace(power) for power in chain[1:]]
        traces.append(np.vdot(chain[-1], adjacency.weights))
        values = np.array(traces) / n
    _check_overflow(values, "moment")
    return MomentVector(values), chain[1:]


def _check_overflow(values: np.ndarray, what: str) -> None:
    """ValueError naming the order s = len(values) if a value overflowed."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(
            f"{what} m_{int(np.argmin(finite)) + 1} overflows floats, so "
            f"s = {len(values)} is too high; a smaller s is needed"
        )


def eigenvalues(adjacency: WeightedAdjacency) -> np.ndarray:
    """Real eigenvalues of the symmetric weight matrix, sorted descending."""
    return np.linalg.eigvalsh(adjacency.weights)[::-1].copy()


def moments_from_eigenvalues(eigs, order: int) -> MomentVector:
    """Moments m_k = (1/n) sum_i lambda_i^k computed from a full spectrum.

    This is the power-sum route to the same quantities as
    ``spectral_moments`` and doubles as its cross-check.  ``eigs`` must be
    the complete list of n eigenvalues; ``order`` must satisfy
    1 <= order <= n.
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError(f"need a 1-D array of at least 2 eigenvalues, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite")
    if not 1 <= order <= lam.size:
        raise ValueError(f"order must satisfy 1 <= order <= {lam.size}, got {order}")
    values = np.array([np.mean(lam**k) for k in range(1, order + 1)])
    return MomentVector(values)


def complete_graph_moments(n: int, order: int) -> MomentVector:
    """Moments of the unit-weight complete graph on n nodes.

    All robots coincident gives a_ij = 1 for i != j, whose spectrum is
    {n-1} once and {-1} with multiplicity n-1, hence

        m_k = ((n-1)**k + (n-1) * (-1)**k) / n.

    Every moment of every configuration lies strictly below this value for
    k >= 2 (weights can only fall below 1), so these are the realizability
    ceilings for moment targets.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got n={n}")
    if not 1 <= order <= n:
        raise ValueError(f"order must satisfy 1 <= order <= {n}, got {order}")
    k = np.arange(1, order + 1)
    with np.errstate(over="ignore"):
        values = (float(n - 1) ** k + (n - 1) * (-1.0) ** k) / n
    _check_overflow(values, f"the complete-graph (n = {n}) ceiling of")
    return MomentVector(values)


def walk_weight_sum(adjacency: WeightedAdjacency, length: int, start: int, end: int) -> float:
    """Total weight of all length-``length`` walks from ``start`` to ``end``.

    A walk of length k is an ordered node sequence (start, v_1, ..., v_{k-1},
    end); its weight is the product of the k traversed edge weights.  Walks
    may revisit nodes, and any stationary hop contributes a zero factor via
    the zero diagonal, so the enumeration over all n**(k-1) interior
    sequences reproduces [A^k]_{start,end} without special-casing.

    Enumeration cost grows as n**(k-1); requests beyond
    ``MAX_WALK_LENGTH`` or ``WALK_ENUMERATION_LIMIT`` interior sequences
    are rejected.
    """
    n = adjacency.n
    if not 1 <= length <= MAX_WALK_LENGTH:
        raise ValueError(f"walk length must be in 1..{MAX_WALK_LENGTH}, got {length}")
    if not (0 <= start < n and 0 <= end < n):
        raise ValueError(f"endpoints ({start}, {end}) out of range for n={n}")
    if n ** (length - 1) > WALK_ENUMERATION_LIMIT:
        raise ValueError(
            f"enumerating {n}**{length - 1} walks exceeds the "
            f"{WALK_ENUMERATION_LIMIT} limit"
        )
    w = adjacency.weights
    total = 0.0
    for interior in itertools.product(range(n), repeat=length - 1):
        weight = 1.0
        node = start
        for nxt in interior:
            weight *= w[node, nxt]
            node = nxt
        total += weight * w[node, end]
    return total
