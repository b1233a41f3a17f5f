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
    - build_adjacency's weights pass every WeightedAdjacency check, also
      with coincident robots and with a robot so far away that its weights
      underflow to 0, so build_adjacency need not re-run them; the moments
      of such teams match the eigenvalue power sums
    - the drift equals control_law - barrier_gradient to 1e-12 relative;
      a shift by 2^20 moves it by at most 1e-7 relative, and by at most
      1e-12 when the team sits on a 2^-20 grid, where the shift is exact
    - on short generated runs, far-apart starts included, f + b never
      increases between samples, every margin stays positive, m_1 stays
      exactly zero and simulated_time never passes max_time

Examples are derandomized and bounded, so every run draws the same ones.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentflow.dynamics import SimulationSettings, simulate
from momentflow.gradient import (
    ControllerParams,
    _Evaluation,
    barrier_gradient,
    control_law,
    cost,
    finite_difference_gradient,
)
from momentflow.network import (
    RobotConfiguration,
    WeightedAdjacency,
    build_adjacency,
    complete_graph_moments,
    eigenvalues,
    moments_from_eigenvalues,
    pairwise_distance,
    spectral_moments,
)
from momentflow.scenarios import Scenario, TargetSpectrum, target_from_formation

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


@st.composite
def _teams_with_coincident(draw):
    """Unit-cube teams in which drawn robots sit exactly on robot 0."""
    positions = draw(_teams())
    copies = draw(arrays(bool, len(positions), elements=st.booleans()))
    positions[copies] = positions[0]
    return positions


@_PROPERTY
@given(_teams_with_coincident(), _DECAY, _METRIC, st.booleans())
def test_built_weights_pass_adjacency_checks(positions, decay, metric, far):
    if far:
        # The last robot ends at least 800/c from every other one, where
        # exp(-c * dist) underflows to 0.
        positions[-1, 0] += 800.0 / decay + 1.0
    built = build_adjacency(RobotConfiguration(positions), decay, metric)
    checked = WeightedAdjacency(built.weights)
    assert np.array_equal(checked.weights, built.weights)
    assert not far or np.all(built.weights[-1] == 0.0)
    n = len(positions)
    eigs = eigenvalues(built)
    # Both routes are off by a few ulps of the largest term, rho^k.
    scale = max(1.0, float(np.abs(eigs).max())) ** np.arange(1, n + 1)
    error = spectral_moments(built, n).values - moments_from_eigenvalues(eigs, n).values
    assert np.all(np.abs(error) <= 1e-12 * scale)


@st.composite
def _drift_cases(draw):
    """A tie-free team with every margin positive and a substantial barrier."""
    n = draw(st.integers(2, 7))
    d = draw(st.integers(1, 3))
    order = draw(st.integers(2, min(5, n)))
    params = ControllerParams(
        decay=draw(st.floats(0.5, 2.0)),
        metric=draw(_METRIC),
        order=order,
        epsilons=(0.0,) + tuple(0.05 * (k + 2) for k in range(order - 1)),
    )
    config = draw(_tie_free_teams(n, d))
    adjacency = build_adjacency(config, params.decay, params.metric)
    targets = TargetSpectrum(0.5 * spectral_moments(adjacency, order).values)
    return config, targets, params


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_drift_cases())
def test_drift_is_control_law_minus_barrier_gradient(case):
    config, targets, params = case
    drift = _Evaluation(config, targets, params).drift
    parts = control_law(config, targets, params) - barrier_gradient(config, targets, params)
    assert np.abs(drift - parts).max() <= 1e-12 * np.abs(parts).max()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_drift_cases())
def test_shifted_team_keeps_drift(case):
    config, targets, params = case

    def drift_change(positions):
        drift = _Evaluation(RobotConfiguration(positions), targets, params).drift
        moved = _Evaluation(RobotConfiguration(positions + 2.0**20), targets, params).drift
        return np.abs(moved - drift).max() / np.abs(drift).max()

    # The shift rounds the team's coordinates, which moves the drift.
    assert drift_change(config.positions) <= 1e-7
    # On a 2^-20 grid the shift is exact, and so are distances and weights:
    # only the projection can lose digits, which centring prevents.
    assert drift_change(np.round(config.positions * _GRID) / _GRID) <= 1e-12


@st.composite
def _short_runs(draw):
    """A scenario with targets from a drawn formation and a short horizon.

    The horizon is drawn, so the last trial step is usually clamped.  Some
    starts put the last robot at least 800/c from the rest, where its
    weights underflow to 0 until the start is compressed.
    """
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 2))
    params = ControllerParams(
        decay=draw(st.floats(0.5, 2.0)),
        metric=draw(_METRIC),
        order=draw(st.integers(2, min(4, n))),
    )
    targets = target_from_formation(draw(_tie_free_teams(n, d)), params)
    start = draw(_tie_free_teams(n, d)).positions.copy()
    if draw(st.booleans()):
        start[-1, 0] += 800.0 / params.decay + 1.0
    return Scenario(
        name="short", n=n, d=d, params=params, targets=targets,
        settings=SimulationSettings(max_time=draw(st.floats(0.05, 0.5)), record_every=1),
        initial_positions=start,
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_short_runs())
def test_flow_invariants_on_short_runs(scenario):
    record = simulate(scenario)
    goal = scenario.targets.moments
    energies = [sample.cost + sample.barrier for sample in record.samples]
    assert all(later <= earlier for earlier, later in zip(energies, energies[1:]))
    for sample in record.samples:
        assert sample.moments.values[0] == 0.0
        assert np.all(sample.moments.values[1:] - goal[1:] > 0.0)
    assert record.samples[-1].t == record.simulated_time <= scenario.settings.max_time
