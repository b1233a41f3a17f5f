"""Robot networks as position-dependent weighted graphs.

A team of n point robots induces a complete weighted graph on n nodes: the
edge weight of robots i and j is exp(-decay * dist(x_i, x_j)) in the taxicab
or Euclidean distance, near 1 as robots meet and toward 0 as they separate.  The
k-th spectral moment of the weight matrix A,

    m_k = tr(A^k) / n = (1/n) * sum_i lambda_i^k,

summarizes the eigenvalue spectrum and is the quantity steered by the rest
of this package.  Each robot is at distance +inf from itself, so the diagonal
of A is identically zero and m_1 is always zero; because A is entrywise
nonnegative every moment is nonnegative as well.

Distances and coordinate differences come from one function: one broadcast below
``_PRODUCT_TEAM`` robots, from there on one batched BLAS product, bitwise alike.  It, the
weights and the half chain serve one-shot calls and an (n, m, d) stack of teams, bitwise per
team; every evaluation of a flow makes the same calls, bound in the workspace its first makes.

Entries of A^k admit a combinatorial reading: [A^k]_ij is the total weight
of all length-k walks from i to j, where the weight of a walk is the product
of its edge weights.  ``walk_weight_sum`` evaluates that sum by direct
enumeration and serves as an independent cross-check on the linear-algebra
route.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "RobotConfiguration",
    "WeightedAdjacency",
    "MomentVector",
    "build_adjacency",
    "power_chain",
    "spectral_moments",
    "eigenvalues",
    "moments_and_eigenvalues",
    "moments_from_eigenvalues",
    "complete_graph_moments",
    "walk_weight_sum",
    "WALK_ENUMERATION_LIMIT",
    "MAX_WALK_LENGTH",
    "MAX_ROBOTS",
]

# Enumeration of length-k walks touches n**(k-1) interior node sequences per
# endpoint pair; refuse anything beyond these bounds rather than hang.
WALK_ENUMERATION_LIMIT = 1_000_000
MAX_WALK_LENGTH = 5

# From here on the differences are one batched BLAS product, below one broadcast: the product is no
# slower at any d.  In us of _pairwise_distance, product/broadcast, one BLAS thread, n = 32, 48, 64,
# 72.  z=1: d=1 6.8/4.4 7.5/6.4 8.9/9.0 9.9/10.4, d=2 9.3/7.5 11.1/11.6 13.5/16.5 14.6/19.5, d=3
# 10.9/10.2 13.5/15.4 18.0/27.2 22.7/33.5.  z=2: d=1 8.5/5.9 10.4/9.2 13.4/13.4 15.5/15.9, d=2
# 10.2/8.8 13.6/14.5 17.0/20.1 19.4/24.1, d=3 11.6/11.1 16.6/18.2 22.0/28.2 25.0/33.8.
_PRODUCT_TEAM = 64

# The largest team a scenario or positions file may hold, 134 MB per n x n float64 matrix.  An
# order s plans ceil(s/2) + 4 + d of them (_chain_plan), at most 9, 1.21 GB (s <= 6 in the plane),
# a workspace one fewer; a record's samples, n d + s floats each, come on top, also up to 1.21 GB.
MAX_ROBOTS = 4096
_MAX_PLAN_BYTES = 9 * MAX_ROBOTS**2 * 8

# Entry points run quietly where floats overflow (an inf distance weighs 0) or a drift divides by
# a zero gap before it checks; private helpers, the trial step's too, run under the caller's.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")

_BOOLEANS = (bool, np.bool_)
_INTEGERS = (int, np.integer)  # a count's types, of which Python's bool must still be refused


def _positive_real(value, name: str) -> float:
    """``value`` as a Python float if a positive real, else ValueError naming ``name``: no boolean,
    Python's or numpy's, though both compare as 0 or 1, but a number that math converts (one
    term's exact fsum: no string, no array of two values), finite and above 0."""
    try:
        if not isinstance(value, _BOOLEANS) and 0.0 < (real := math.fsum((value,))) < math.inf:
            return real
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must be a positive real, got {value}")


def _metric(metric) -> None:
    """ValueError unless ``metric`` is the int 1 (taxicab) or 2 (Euclidean), not a bool or float."""
    if type(metric) is not int or metric not in (1, 2):
        raise ValueError(f"metric must be 1 or 2, got {metric!r}")


def _moment_order(order, n: int) -> None:
    """ValueError unless ``order`` is an integer, Python's (no bool) or numpy's, in 1..n."""
    if isinstance(order, bool) or not isinstance(order, _INTEGERS) or not 1 <= order <= n:
        raise ValueError(f"order must be an integer, 1 <= order <= {n}, got {order!r}")


def _index_pair(i, j, n: int, name: str) -> None:
    """ValueError unless i and j are integers, Python's (no bool) or numpy's, in 0..n-1."""
    if not all(not isinstance(k, bool) and isinstance(k, _INTEGERS) and 0 <= k < n for k in (i, j)):
        raise ValueError(f"{name} ({i}, {j}) must be integers in 0..{n - 1}")


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
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        _freeze(self, "positions", pos)

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

    Entries lie in [0, 1]: exp(-decay * dist) is one only for coincident robots and is exactly
    zero about 745/decay apart and on the diagonal, where each robot is at +inf from itself,
    an edge whose weight and derivative are both 0; moments stay defined.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if w.shape[0] < 2:
            raise ValueError("weight matrix needs at least 2 nodes")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if w.diagonal().any():
            raise ValueError("diagonal weights must be exactly zero")
        if not np.array_equal(w, w.T):
            raise ValueError("weight matrix must be symmetric")
        if w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("off-diagonal weights must lie in [0, 1]")
        _freeze(self, "weights", w)

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
        if not np.isfinite(vals).all():
            raise ValueError("moment values must be finite")
        _freeze(self, "values", vals)

    @property
    def order(self) -> int:
        """Highest moment index s."""
        return self.values.shape[0]


def _pairwise_distance(positions: np.ndarray, metric: int) -> tuple[np.ndarray, np.ndarray]:
    """All (n, n) distances between the rows of an (n, d) array in the caller's checked
    ``metric`` (1 taxicab, 2 Euclidean) and error state, inf beyond float range, +inf on the
    diagonal (one strided write per call, whence the zero self-weights and self-terms); and
    the differences x_ir - x_jr as a C-contiguous (d, n, n) array, with a zero diagonal.
    An (n, m, d) stack of m teams, robot-major, gives (m, n, n) and (d, m, n, n).

    Below ``_PRODUCT_TEAM`` robots the differences are one broadcast, from there on one batched
    BLAS product [x, -1] @ [1; x] over every axis and team, whose entries x_i * 1 + (-1) * x_j
    hold two exact products and round once, to the float x_i - x_j gives (a zero may differ in
    sign, which abs and square drop and a sum reads as 0).  Their squares (absolute values) add
    up in axis order: a small team's squared in one call, else axis by axis.  All are new."""
    n = len(positions)
    columns = np.ascontiguousarray(positions.T)  # C order, so that the differences are too
    if n < _PRODUCT_TEAM:
        differences = columns[..., :, None] - columns[..., None, :]
    else:
        left, right = np.full((*columns.shape, 2), -1.0), np.ones((*columns.shape[:-1], 2, n))
        left[..., 0], right[..., 1, :] = columns, columns
        differences = np.matmul(left, right)
    square = np.abs if metric == 1 else np.square
    if n < _PRODUCT_TEAM and positions.ndim == 2:
        total = np.add.reduce(square(differences), 0)
    else:
        total = square(differences[0])
        for axis in differences[1:]:
            total += square(axis)
    total.reshape(-1, n * n).T[:: n + 1].fill(np.inf)  # (i, i): +inf
    distance = total if metric == 1 else np.sqrt(total, total)
    return distance, differences


def _workspace(n: int, d: int, metric: int, decay: float, plan) -> SimpleNamespace:
    """A flow's arrays, each evaluation's in turn (differences, distances, weights, A^2..A^h,
    squares or a temporary, Q, W, two (d, n) candidate slots), and its calls bound once (README):
    with x in the lefts and rights, ``calls`` (:func:`_pairwise_distance`'s route, the weights,
    the half chain) form ``formed`` = (distances, differences), ``pairs`` the traces' operands;
    ``drift`` is (Q, W, a buffer of s - 1 coefficients, calls): W = sum_k c_k A^(k-1) from the
    half chain [A, ..., A^h] as gradient._Evaluation._project sets out, then M = A o W into W,
    by calls that read each c_k from a 0-d view of the buffer."""
    total, columns, differences = np.empty((n, n)), np.empty((2, d, n)), np.empty((d, n, n))
    block = np.empty((d + 1 if n < _PRODUCT_TEAM else 2, n, n))  # W is the last: no square's
    chain = [total if metric == 1 else np.empty((n, n))] + [np.empty((n, n)) for _ in plan[0]]
    square, flat = np.abs if metric == 1 else np.square, [power.reshape(-1) for power in chain]
    if n < _PRODUCT_TEAM:  # x_i, x_j written out in full: a broadcast allocates buffers
        squares = block[:d] if d > 1 else total[None]  # one axis squares into the distances
        lefts, rights = differences.transpose(2, 0, 1), squares.transpose(1, 0, 2)  # (n, d, n)
        calls = [(np.subtract, (differences, squares, differences)),
                 (square, (differences, squares))]  # then (s_0 + s_1) + s_2, as add.reduce adds
        calls += [(np.add, (total if k else squares[0], axis, total))
                  for k, axis in enumerate(squares[1:])]
    else:  # [x, -1] @ [1; x], then axis by axis through a temporary
        left, right = np.full((d, n, 2), -1.0), np.ones((d, 2, n))
        lefts, rights, calls = left[..., 0], right[..., 1, :], [
            (np.matmul, (left, right, differences)), (square, (differences[0], total))]
        for axis in differences[1:]:
            calls += [(square, (axis, block[0])), (np.add, (total, block[0], total))]
    calls += [(total.ravel()[:: n + 1].fill, (np.inf,))]  # (i, i): +inf
    calls += [(np.sqrt, (total, total))] * (metric == 2)
    calls += [(np.multiply, (total, np.array(-decay), chain[0])), (np.exp, (chain[0], chain[0]))]
    calls += [(_product_of(chain[i]), (chain[j].T, out)) for (i, j), out in zip(plan[0], chain[1:])]
    q, w, h, count = block[0], block[-1], len(chain), len(plan[1])
    coefficients, diagonal = np.empty(count), q.ravel()[:: n + 1]
    c = [coefficients[k, ...] for k in range(count)]
    drift, terms = [(np.multiply, (c[0], chain[0], w))], range(1, h)  # s = 2, 3: W from c_2 A
    if count > h:  # the terms from A^h on as A^h Q, A^h's own on Q's diagonal, then the others
        drift, terms = [(np.multiply, (c[h], chain[0], q))], range(h - 1)
        for i in range(1, count - h):
            drift += [(np.multiply, (c[h + i], chain[i], w)), (np.add, (q, w, q))]
        drift += [(np.add, (diagonal, c[h - 1], diagonal)), (_product_of(chain[-1]), (q, w))]
    for k in terms:  # each into Q, added to W
        drift += [(np.multiply, (c[k], chain[k], q)), (np.add, (w, q, w))]
    return SimpleNamespace(
        lefts=lefts, rights=rights, calls=calls,
        pairs=[(flat[i].dot, flat[j]) for i, j in plan[1]], formed=(total, differences),
        drift=(q, w, coefficients, drift + [(np.multiply, (w, chain[0], w))]),
        slots=[(x.T, x.ravel()) for x in columns])


@_quiet
def build_adjacency(config: RobotConfiguration, decay: float, metric: int) -> WeightedAdjacency:
    """Weight matrix a_ij = exp(-decay * dist(x_i, x_j)), zero diagonal.

    ``decay`` must be positive; larger values make weights fall off faster with distance.
    The diagonal is exactly zero, each robot being at +inf from itself (robots carry no
    self-loops), which in turn pins the first spectral moment at zero.
    """
    weights = _weights(config.positions, decay, metric)
    return _freeze(object.__new__(WeightedAdjacency), "weights", weights)


def _weights(positions: np.ndarray, decay: float, metric: int) -> np.ndarray:
    """:func:`build_adjacency`'s checks of ``decay`` and ``metric``, then its weights."""
    decay = _positive_real(decay, "decay")
    _metric(metric)
    distance = _pairwise_distance(positions, metric)[0]
    return _adjacency(distance, decay, distance)


def _adjacency(distance: np.ndarray, decay: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-decay * distance), written to ``out`` if given, for (n, n) distances or an (m, n, n)
    stack.  Symmetric distances in [0, inf] with +inf on the diagonal give symmetric weights in
    [0, 1] with a zero diagonal: the :class:`WeightedAdjacency` contract by construction."""
    weights = np.multiply(distance, -decay, out)
    return np.exp(weights, weights)


def _freeze(instance, field: str, array: np.ndarray):
    """Set ``instance.field`` to ``array``, read-only.  On an instance from
    ``object.__new__`` this skips the constructor, whose checks it must meet."""
    array.setflags(write=False)
    object.__setattr__(instance, field, array)
    return instance


def _product_of(left: np.ndarray):
    """left @ right as a function of (right, out=None), the one n x n product (``x @ x.mT`` is a
    BLAS syrk): ``left.dot``, np.dot's bitwise with less dispatch, for one team below
    ``_PRODUCT_TEAM``, else np.matmul, not tuned: at n = 40-63 np.dot was up to 12% slower."""
    if left.ndim == 2 and len(left) < _PRODUCT_TEAM:
        return left.dot
    return functools.partial(np.matmul, left)


def power_chain(adjacency: WeightedAdjacency, max_power: int) -> list[np.ndarray]:
    """Matrix powers [I, A, A^2, ..., A^max_power] by repeated multiplication.

    Entry k of the returned list is A^k (entry 1 is the read-only weight
    array itself), one dense product per power above the first.
    """
    if isinstance(max_power, bool) or not isinstance(max_power, _INTEGERS) or max_power < 0:
        raise ValueError(f"max_power must be a nonnegative integer, got {max_power!r}")
    powers = itertools.accumulate([adjacency.weights] * max_power, lambda a, w: _product_of(a)(w))
    return [np.eye(adjacency.n), *powers]


@_quiet
def spectral_moments(adjacency: WeightedAdjacency, order: int) -> MomentVector:
    """Moments m_k = tr(A^k)/n for k = 1..order.

    ``order`` must satisfy 1 <= order <= n.  m_1 is exactly zero (zero
    diagonal) and every moment of a nonnegative matrix is nonnegative.
    """
    moments = _half_chain(adjacency.weights, _chain_plan(order, adjacency.n, 0))[0]
    return _freeze(object.__new__(MomentVector), "values", np.array(moments))


def _chain_plan(order: int, n: int, d: int) -> tuple[tuple, tuple]:
    """Index pairs (i, j) of the half chain: A^k = chain[i] @ chain[j].T for k = 2..h,
    h = ceil(order/2), then n m_k = <chain[i], chain[j]> for k = 2..order; ValueError if the
    chain, weights, distances, drift temporaries and d differences outgrow _MAX_PLAN_BYTES."""
    _moment_order(order, n)
    if (size := ((order + 1) // 2 + 4 + d) * 8 * n * n) > _MAX_PLAN_BYTES:
        raise ValueError(f"s = {order} needs {size / 1e9:.3g} GB of {n} x {n} arrays, over "
                         f"the {_MAX_PLAN_BYTES / 1e9:.3g} GB bound; a smaller s is needed")
    return _order_plan(int(order))  # the pairs depend on s alone: one shared plan of tuples


@functools.lru_cache(maxsize=64)
def _order_plan(order: int) -> tuple[tuple, tuple]:
    halves = (np.arange(order) // 2).tolist()  # 0, 0, 1, 1, ...: each pair is two neighbours
    return tuple(zip(halves[1:(order + 1) // 2], halves)), tuple(zip(halves, halves[1:]))


def _half_chain(weights: np.ndarray, plan) -> tuple[list[float], list[np.ndarray]]:
    """Moments m_1..m_s as floats with the half chain [A, ..., A^h], h = ceil(s/2).

    A is symmetric: m_2j = ||A^j||_F^2 / n, m_(2j+1) = <A^j, A^(j+1)> / n, and m_1 = 0.
    Each power is A^k = A^ceil(k/2) (A^floor(k/2))^T, a BLAS syrk for even k.
    ``plan`` is :func:`_chain_plan`'s; a moment that overflows raises ValueError, whose
    message :func:`_check_overflow` builds only then.  An (m, n, n) stack of weights gives
    (m, n, n) powers and m_2..m_s as arrays of m, unchecked.  Each power is a new array.
    """
    n = weights.shape[-1]
    products, traces = plan
    chain, moments = [weights], [0.0]
    for left, right in products:
        chain.append(_product_of(chain[left])(chain[right].mT))
    if weights.ndim > 2:
        flat = [power.reshape(len(weights), -1) for power in chain]
        return moments + [np.vecdot(flat[i], flat[j]) / n for i, j in traces], chain
    flat = [*map(np.ndarray.ravel, chain)]  # ddot, as np.vdot calls
    for i, j in traces:
        moments.append(float(flat[i].dot(flat[j])) / n)
    if not math.isfinite(sum(moments)):  # a finite sum has no inf or NaN term
        _check_overflow(moments, "moment")
    return moments, chain


def _check_overflow(values, what: str) -> None:
    """ValueError naming the order s = len(values) if a value overflowed."""
    finite = list(map(math.isfinite, values))
    if not all(finite):
        raise ValueError(
            f"{what} m_{finite.index(False) + 1} overflows floats, so "
            f"s = {len(values)} is too high; a smaller s is needed"
        )


@_quiet
def moments_and_eigenvalues(config: RobotConfiguration, decay: float, metric: int, order: int):
    """Moments m_1..m_order as a list of floats and eigenvalues, descending: the values and
    ValueErrors of :func:`spectral_moments` (planned for the configuration's d first) and
    :func:`eigenvalues` on :func:`build_adjacency`'s weights, under one error state, no wrapper."""
    plan = _chain_plan(order, *config.positions.shape)
    weights = _weights(config.positions, decay, metric)
    return _half_chain(weights, plan)[0], np.linalg.eigvalsh(weights)[::-1]


def eigenvalues(adjacency: WeightedAdjacency) -> np.ndarray:
    """Real eigenvalues of the symmetric weight matrix, sorted descending."""
    return np.linalg.eigvalsh(adjacency.weights)[::-1].copy()


@_quiet
def moments_from_eigenvalues(eigs, order: int) -> MomentVector:
    """Moments m_k = (1/n) sum_i lambda_i^k computed from a full spectrum.

    This is the power-sum route to the same quantities as
    ``spectral_moments`` and doubles as its cross-check.  ``eigs`` must be
    the complete list of n eigenvalues; ``order`` must satisfy
    1 <= order <= n.  A moment that overflows floats raises ValueError.
    The power table lambda_i^k holds order x n <= n^2 floats, as the weights do.
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValueError(f"need a 1-D array of at least 2 eigenvalues, got shape {lam.shape}")
    if not np.isfinite(lam).all():
        raise ValueError("eigenvalues must be finite")
    _moment_order(order, lam.size)
    powers = np.power(lam, np.arange(1.0, order + 1.0)[:, None])
    if order > 1:  # as lam**2 forms it: a square, where pow may differ by an ulp
        np.square(lam, out=powers[1])
    values = np.add.reduce(powers, axis=1) / lam.size
    _check_overflow(values, "moment")
    return _freeze(object.__new__(MomentVector), "values", values)


@_quiet
def complete_graph_moments(n: int, order: int) -> MomentVector:
    """Moments of the unit-weight complete graph on n nodes.

    All robots coincident gives a_ij = 1 for i != j, whose spectrum is
    {n-1} once and {-1} with multiplicity n-1, hence

        m_k = ((n-1)**k + (n-1) * (-1)**k) / n.

    Every moment of every configuration lies strictly below this value for
    k >= 2 (weights can only fall below 1), so these are the realizability
    ceilings for moment targets.
    """
    if isinstance(n, bool) or not isinstance(n, _INTEGERS) or n < 2:
        raise ValueError(f"need an integer count of at least 2 nodes, got n={n!r}")
    _moment_order(order, n)
    k = np.arange(1, order + 1)
    values = (float(n - 1) ** k + (n - 1) * (-1.0) ** k) / n
    _check_overflow(values, f"the complete-graph (n = {n}) ceiling of")
    return MomentVector(values)


@_quiet
def _max_planned_order(n: int, d: int) -> int:
    """Largest s <= n that :func:`_chain_plan` accepts for (n, d) and whose complete-graph
    ceiling, about (n-1)^s / n, and so every moment of n robots up to order s, is a finite
    float (s = n up to 143 robots, 134 at n = 200: about 709.78 / ln(n-1)), or 1."""
    finite = int(np.isfinite(float(n - 1) ** np.arange(1, n + 1)).sum())
    return max(1, min(finite, 2 * (_MAX_PLAN_BYTES // (8 * n * n) - 4 - d)))


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
    if isinstance(length, bool) or not isinstance(length, _INTEGERS) or not (
            1 <= length <= MAX_WALK_LENGTH):
        raise ValueError(f"walk length must be an integer in 1..{MAX_WALK_LENGTH}, got {length!r}")
    _index_pair(start, end, n, "endpoints")
    if n ** (length - 1) > WALK_ENUMERATION_LIMIT:
        raise ValueError(
            f"enumerating {n}**{length - 1} walks exceeds the "
            f"{WALK_ENUMERATION_LIMIT} limit"
        )
    w, total = adjacency.weights, 0.0
    for interior in itertools.product(range(n), repeat=length - 1):  # each walk's product in order
        total += math.prod(map(w.__getitem__, itertools.pairwise((start, *interior, end))))
    return total
