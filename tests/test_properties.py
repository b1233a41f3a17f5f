"""
Invariants of the adjacency, its moments and the control law on generated
inputs.

Core claims:
    - m_1 is exactly zero for every configuration, decay and metric
    - 0 <= m_k <= the complete-graph ceiling, strictly below it for
      k = 2..n on spread teams
    - relabelling the robots moves no moment by more than 1e-12 relative
      to max(1, |m_k|)
    - translating a team by a shift on a 2^-20 grid, with coordinates on
      that grid, leaves the adjacency bit-identical
    - control_law equals minus central finite differences of cost to 1e-5
      relative on tie-free configurations, for both metrics

Examples are derandomized and bounded, so every run draws the same ones.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentflow.gradient import (
    ControllerParams,
    control_law,
    cost,
    finite_difference_gradient,
)
from momentflow.network import (
    RobotConfiguration,
    build_adjacency,
    complete_graph_moments,
    pairwise_distance,
    spectral_moments,
)
from momentflow.scenarios import target_from_formation

_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
_UNIT = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
_DECAY = st.floats(0.1, 5.0, allow_nan=False, allow_infinity=False)
_METRIC = st.sampled_from([1, 2])
_GRID = 2**20


@st.composite
def _teams(draw):
    """(n, d) positions in the unit cube, 2 <= n <= 8, 1 <= d <= 3."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 3))
    return draw(arrays(float, (n, d), elements=_UNIT))


@st.composite
def _relabelled_teams(draw):
    """Positions and the same positions in a drawn robot order."""
    positions = draw(_teams())
    order = draw(st.permutations(range(len(positions))))
    return positions, positions[order]


@st.composite
def _grid_teams(draw):
    """Positions and a shift, all exact multiples of 2^-20."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 3))
    cells = draw(arrays(np.int64, (n, d), elements=st.integers(0, _GRID)))
    shift = draw(arrays(np.int64, d, elements=st.integers(-4 * _GRID, 4 * _GRID)))
    return cells / _GRID, shift / _GRID


@st.composite
def _tie_free_teams(draw, n, d):
    """Per axis, a permutation of n slots with jitter: gaps of at least 0.4/n."""
    columns = []
    for _ in range(d):
        slots = np.array(draw(st.permutations(range(n))), dtype=float)
        jitter = draw(arrays(float, n, elements=st.floats(-0.3, 0.3)))
        columns.append((slots + 0.5 + jitter) / n)
    return RobotConfiguration(np.stack(columns, axis=1))


def _moments(positions, decay, metric):
    adjacency = build_adjacency(RobotConfiguration(positions), decay, metric)
    return spectral_moments(adjacency, len(positions)).values


@_PROPERTY
@given(_teams(), _DECAY, _METRIC)
def test_first_moment_exactly_zero(positions, decay, metric):
    assert _moments(positions, decay, metric)[0] == 0.0


@_PROPERTY
@given(_teams(), _DECAY, _METRIC)
def test_moments_between_zero_and_ceiling(positions, decay, metric):
    config = RobotConfiguration(positions)
    # Spread: some pair is far enough apart for its weight to sit visibly
    # below 1, so every moment of order >= 2 sits visibly below its ceiling.
    # A coincident team attains the ceilings exactly.
    spread = pairwise_distance(config, metric).max()
    moments = _moments(positions, decay, metric)
    ceilings = complete_graph_moments(config.n, config.n).values
    assert np.all(moments >= 0.0)
    assert np.all(moments <= ceilings)
    if decay * spread >= 1e-3:
        assert np.all(moments[1:] < ceilings[1:])


@_PROPERTY
@given(_relabelled_teams(), _DECAY, _METRIC)
def test_relabelling_keeps_moments(teams, decay, metric):
    positions, permuted = teams
    original = _moments(positions, decay, metric)
    relabelled = _moments(permuted, decay, metric)
    assert np.all(
        np.abs(original - relabelled) <= 1e-12 * np.maximum(1.0, np.abs(original))
    )


@_PROPERTY
@given(_grid_teams(), _DECAY, _METRIC)
def test_quantized_translation_keeps_adjacency(team, decay, metric):
    # Every coordinate and its shifted value are exact multiples of 2^-20,
    # so the differences, and with them every distance, cannot move.
    positions, shift = team
    base = build_adjacency(RobotConfiguration(positions), decay, metric)
    moved = build_adjacency(RobotConfiguration(positions + shift), decay, metric)
    assert np.array_equal(base.weights, moved.weights)


@st.composite
def _control_cases(draw):
    n = draw(st.integers(2, 7))
    d = draw(st.integers(1, 3))
    params = ControllerParams(
        decay=draw(st.floats(0.5, 2.0)),
        metric=draw(_METRIC),
        order=draw(st.integers(2, min(5, n))),
    )
    config = draw(_tie_free_teams(n, d))
    formation = draw(_tie_free_teams(n, d))
    return config, target_from_formation(formation, params), params


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_control_cases())
def test_control_law_matches_cost_finite_differences(case):
    config, targets, params = case
    # Near a zero of the cost the gradient vanishes while the quotient's
    # truncation error, step^2 times third derivatives, does not.
    assume(cost(config, targets, params) >= 1e-6)
    analytic = control_law(config, targets, params)
    fd = finite_difference_gradient(lambda c: cost(c, targets, params), config)
    scale = float(np.abs(fd).max())
    assert float(np.abs(analytic + fd).max()) <= 1e-5 * scale
