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
    - both ways of forming coordinate differences, numpy's broadcast and
      the product [x, 1] @ [1; -x], give bit-identical distances on teams
      on either side of the switch between them, with magnitudes from
      1e-300 to 1e300, tied coordinates, coincident robots and differences
      that overflow to inf
    - below that switch, the in-place sum of the axes' squares (absolute
      values) is bitwise np.add.reduce over axis 0, for d = 1, 2 and 3
    - the drift is finite and the same array whichever way the switch forms
      the differences it contracts, on teams of up to 12 robots, coincident,
      1e-12 to 1e-9 apart, relabelled and shifted by up to 1e6 ones
      included, and unshifted ones with a pair 1e-200 to 1e-163 apart whose
      squared gap underflows to 0; both ways keep C-contiguous differences
      equal to x_i - x_j, their distances are identical, and every path's
      weights are C-contiguous with a zero diagonal
    - with robots within 1e-3 of +-1.7e308, where pair distances and
      coordinate sums overflow, both ways give finite control laws, barrier
      and moment gradients and the same drift on every axis; relabelling
      the robots permutes each drift to 1e-12 relative; and with every
      eps_k = 0 the barrier gradient is exactly zero
    - moments_from_eigenvalues' table of powers gives np.mean(lam**k) for
      each k to 4 ulps of max|lambda|^k, and the same first moment that
      overflows, on spectra of up to 40 values from 1e-300 to 1.7e308
    - the half chain's moments, ||A^j||_F^2 / n and <A^j, A^(j+1)> / n,
      match the eigenvalue power sums up to s = _max_planned_order(n, 0) on
      teams of up to 40 robots, coincident or far-apart ones included, and
      on a gathered and a spread team of 200 at s = 134
    - an _Evaluation's weights and moments, built without the
      constructors, are read-only, finite, pass those constructors' checks
      and match build_adjacency and the traces of matrix powers, also after
      its drift is computed
    - the drift equals control_law - barrier_gradient to 1e-12 relative;
      a shift by 2^20 moves it by at most 1e-7 relative, and by at most
      1e-12 when the team sits on a 2^-20 grid, where the shift is exact
    - on short generated runs, far-apart starts included, f + b never
      increases between samples, every margin stays positive, m_1 stays
      exactly zero and simulated_time never passes max_time, with the
      differences formed either way
    - simulate, whose flow shares one workspace between its evaluations,
      agrees bit for bit with a reference flow whose evaluations own their
      arrays (termination, accepted and rejected counts, simulated_time,
      every sample and the final positions), on short runs of 2-7 and
      63-69 robots, both metrics, s = 2..6, coincident and far pairs, and a
      trial-step budget of 400 that stiff flows spend; its step-size floor
      is 2**-23 of min(dt, max_time), and at least the smallest normal float
    - the same flows in a length unit alpha = 2^-6 .. 2^6 times their own,
      with axes reflected and, at d = 2, swapped, take the same trial steps:
      the same counts and
      termination, every sample's moments, cost and barrier bit for bit, and
      positions and times exactly alpha and alpha^2 times the original's,
      round-trip instance #02 at alpha = 1/4 included

Examples are derandomized and bounded, so every run draws the same ones.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momentflow import dynamics, network
from momentflow.dynamics import SimulationSettings, simulate
from momentflow.gradient import (
    ControllerParams,
    TargetSpectrum,
    _evaluate,
    _Evaluation,
    barrier_gradient,
    control_law,
    cost,
    finite_difference_gradient,
    moment_gradient,
)
from momentflow.network import (
    MomentVector,
    RobotConfiguration,
    WeightedAdjacency,
    _max_planned_order,
    _pairwise_distance,
    build_adjacency,
    complete_graph_moments,
    eigenvalues,
    moments_from_eigenvalues,
    spectral_moments,
)
from momentflow.scenarios import Scenario, random_geometric_config, target_from_formation

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
    # Spread, the largest distance off the diagonal (which holds +inf): some
    # pair is far enough apart for its weight to sit visibly below 1, so every
    # moment of order >= 2 sits visibly below its ceiling.  A coincident team
    # attains the ceilings exactly.
    spread = _pairwise_distance(config.positions, metric)[0][~np.eye(config.n, dtype=bool)].max()
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


def _half_chain_error(positions, decay, metric):
    """|spectral_moments - eigenvalue power sums| / rho^k up to _max_planned_order(n, 0)."""
    adjacency = build_adjacency(RobotConfiguration(positions), decay, metric)
    order = _max_planned_order(len(positions), 0)
    eigs = eigenvalues(adjacency)
    scale = max(1.0, float(np.abs(eigs).max())) ** np.arange(1, order + 1)
    chain = spectral_moments(adjacency, order).values
    error = np.abs(chain - moments_from_eigenvalues(eigs, order).values)
    return float(np.max(error / scale))


# Half the teams draw their coordinates from a few values, so that ties and
# coincident robots are common, and +-1.7e308 makes differences overflow to
# inf; the other half are spread, each coordinate of its own magnitude.
_MAGNITUDES = st.one_of(
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99), st.integers(-300, 300)),
    st.sampled_from([0.0, 1.7e308, -1.7e308]),
)


@st.composite
def _teams_across_the_switch(draw):
    """(n, d) positions from 1e-300 to 1e300 in magnitude, n on either side of
    the product path's team size."""
    switch = network._PRODUCT_TEAM
    n = draw(st.one_of(st.integers(2, switch - 1), st.integers(switch, switch + 16)))
    return draw(_wide_teams(n, draw(st.integers(1, 3))))


@st.composite
def _wide_teams(draw, n, d):
    """(n, d) positions from 1e-300 to 1e300 in magnitude, half of them from a
    small pool of values."""
    if draw(st.booleans()):
        pool = draw(st.lists(_MAGNITUDES, min_size=1, max_size=6))
        return draw(arrays(float, (n, d), elements=st.sampled_from(pool)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signs = rng.choice([-1.0, 1.0], (n, d))
    return signs * rng.uniform(1.0, 10.0, (n, d)) * 10.0 ** rng.integers(-300, 301, (n, d))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_teams_across_the_switch(), _METRIC)
def test_difference_paths_give_the_same_distances(positions, metric):
    distances = []
    for team in (len(positions) + 1, 2):  # broadcast, then the product
        with mock.patch.object(network, "_PRODUCT_TEAM", team), np.errstate(
            over="ignore", invalid="ignore"
        ):
            distances.append(_pairwise_distance(positions, metric)[0])
    assert np.array_equal(*distances)


@pytest.mark.parametrize("metric", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_in_place_axis_sum_is_add_reduce(d, metric, data):
    # Below the product path's team size, the axes' squares (taxicab: absolute
    # values) are added in place in axis order: bitwise np.add.reduce over
    # axis 0 off the diagonal, which holds +inf, also with ties, coincident
    # robots and overflowing differences.
    positions = data.draw(_wide_teams(data.draw(st.integers(2, network._PRODUCT_TEAM - 1)), d))
    with np.errstate(over="ignore", invalid="ignore"):
        distance, differences = _pairwise_distance(positions, metric)
        terms = np.abs(differences) if metric == 1 else np.square(differences)
        total = np.add.reduce(terms, axis=0)
        expected = total if metric == 1 else np.sqrt(total)
        np.fill_diagonal(expected, np.inf)
        assert np.array_equal(distance, expected)


@st.composite
def _tail_cases(draw):
    """Up to 12 robots, some coincident, relabelled and shifted by up to 1e6,
    with targets half their moments and a barrier on every one.

    Robots are at least 0.4/n apart on every axis, but for coincident ones
    and, in half the teams, one pair 1e-12 to 1e-9 apart on every axis.  In
    half the teams, robot 0 sits at the origin and another robot 5e-324 to
    1e-163 from it on every axis, so that their squared gap underflows to 0,
    and a subnormal gap's distance would overflow the division by it; those
    teams are not shifted, which would merge the two."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    positions = draw(_tie_free_teams(n, d)).positions.copy()
    if draw(st.booleans()):
        gaps = st.one_of(st.floats(1e-12, 1e-9), st.floats(-1e-9, -1e-12))
        positions[-1] = positions[0] + draw(arrays(float, d, elements=gaps))
    if draw(st.booleans()):
        positions[draw(arrays(bool, n, elements=st.booleans()))] = positions[0]
    positions = positions[draw(st.permutations(range(n)))]
    if draw(st.booleans()):
        tiny = st.one_of(st.floats(5e-324, 1e-163), st.floats(-1e-163, -5e-324))
        positions[0] = 0.0
        positions[draw(st.integers(1, n - 1))] = draw(arrays(float, d, elements=tiny))
    else:
        positions += draw(arrays(float, d, elements=st.floats(-1e6, 1e6)))
    order = draw(st.integers(2, min(5, n)))
    params = ControllerParams(
        decay=draw(_DECAY), metric=draw(_METRIC), order=order,
        epsilons=(0.0,) + (1e-3,) * (order - 1),
    )
    adjacency = build_adjacency(RobotConfiguration(positions), params.decay, params.metric)
    targets = TargetSpectrum(0.5 * spectral_moments(adjacency, order).values)
    return positions, targets, params


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tail_cases())
def test_drift_tails_agree(case):
    # The drift contracts the kept differences: a broadcast below the switch,
    # one batched BLAS product at or above it.  Each is forced by patching
    # the switch.
    positions, targets, params = case
    config = RobotConfiguration(positions)
    distances, drifts = [], []
    for team in (len(positions) + 1, 2):  # broadcast, then the product
        with mock.patch.object(network, "_PRODUCT_TEAM", team):
            state = _evaluate(config, targets, params)
            kept = state._differences  # in the order the contraction reads them
            assert kept.flags.c_contiguous
            assert np.array_equal(kept, positions.T[:, :, None] - positions.T[:, None, :])
            built = build_adjacency(config, params.decay, params.metric)
            for weights in (state.weights, built.weights):
                # The distances' diagonal is set to +inf through a flat view,
                # which a non-contiguous array would turn into a write to a copy.
                assert weights.flags.c_contiguous
                assert np.all(np.diag(weights) == 0.0)
            distances.append(_pairwise_distance(positions, params.metric)[0])
            # The flow's error state: a zero gap divides before the drift checks for one.
            with np.errstate(divide="ignore", invalid="ignore"):
                drifts.append(state.drift)
            assert np.all(np.isfinite(drifts[-1]))
    assert np.array_equal(*distances)
    assert np.array_equal(*drifts)


@st.composite
def _far_tail_cases(draw, metric):
    """5 to 12 tie-free robots in the unit box, two or more of them moved to within
    1e-3 of +-1.7e308 on drawn axes (in d = 2 and 3, never on the last one), so
    that some pair distances overflow and some coordinate sums do; targets half
    their moments and a barrier on every one.

    Three robots stay in the box, so every moment is positive.  A far coordinate
    rounds to +-1.7e308, and far robots on one side of an axis weigh on each other
    by their other axes."""
    n = draw(st.integers(5, 12))
    d = draw(st.integers(1, 3))
    positions = draw(_tie_free_teams(n, d)).positions.copy()
    far = np.zeros((n, d), dtype=bool)
    far[3:, : max(d - 1, 1)] = draw(arrays(bool, (n - 3, max(d - 1, 1)), elements=st.booleans()))
    far[3:5, 0] = True
    sides = draw(arrays(float, (n, d), elements=st.sampled_from([-1.7e308, 1.7e308])))
    positions[far] = sides[far] + 1e-3 * (2.0 * positions[far] - 1.0)
    positions = positions[draw(st.permutations(range(n)))]
    order = draw(st.integers(2, 5))
    params = ControllerParams(
        decay=draw(_DECAY), metric=metric, order=order,
        epsilons=(0.0,) + (1e-3,) * (order - 1),
    )
    adjacency = build_adjacency(RobotConfiguration(positions), params.decay, params.metric)
    targets = TargetSpectrum(0.5 * spectral_moments(adjacency, order).values)
    return positions, targets, params


@pytest.mark.parametrize("metric", [1, 2])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_far_apart_tails(metric, data):
    # Each way of forming differences forced by patching the switch, as in
    # test_drift_tails_agree; both are exact on every axis.
    positions, targets, params = data.draw(_far_tail_cases(metric))
    n = len(positions)
    config = RobotConfiguration(positions)
    relabel = np.array(data.draw(st.permutations(range(n))))
    relabelled = RobotConfiguration(positions[relabel])
    silent = ControllerParams(params.decay, params.metric, params.order, (0.0,) * params.order)
    drifts = []
    for team in (n + 1, 2):  # broadcast, then the product
        with mock.patch.object(network, "_PRODUCT_TEAM", team):
            gradients = [control_law(config, targets, params),
                         barrier_gradient(config, targets, params),
                         *(moment_gradient(config, params, k) for k in range(2, params.order + 1))]
            assert all(np.isfinite(gradient).all() for gradient in gradients)
            assert np.all(barrier_gradient(config, targets, silent) == 0.0)
            assert np.all(barrier_gradient(relabelled, targets, silent) == 0.0)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the flow's
                drift = _evaluate(config, targets, params).drift
                moved = _evaluate(relabelled, targets, params).drift
        error = np.abs(moved - drift[relabel]).max(initial=0.0)
        assert error <= 1e-12 * np.abs(drift).max(initial=0.0)
        drifts.append(drift)
    assert np.array_equal(*drifts)


@st.composite
def _large_teams(draw):
    """Teams of 2..40 robots in a drawn box; some coincident, some 800/c apart."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 3))
    box = draw(st.sampled_from([0.1, 1.0, 10.0]))
    positions = box * draw(arrays(float, (n, d), elements=_UNIT))
    kind = draw(st.sampled_from(["spread", "coincident", "far"]))
    if kind == "coincident":
        positions[draw(arrays(bool, n, elements=st.booleans()))] = positions[0]
    elif kind == "far":
        # At least 7,990 from the rest: exp(-c * dist) underflows to 0 for every c >= 0.1.
        positions[-1, 0] += 8001.0
    return positions


@_PROPERTY
@given(_large_teams(), _DECAY, _METRIC)
def test_half_chain_moments_match_eigenvalues(positions, decay, metric):
    # Both routes are off by a few ulps of the largest term, rho^k.
    assert _half_chain_error(positions, decay, metric) <= 1e-12


@pytest.mark.parametrize("gathered", [True, False])
def test_half_chain_moments_at_n_200(gathered):
    # s = 134: the half chain reaches A^67, whose squared norm is near the
    # float limit for a gathered team.
    positions = np.zeros((200, 2)) if gathered else np.random.default_rng(7).random((200, 2))
    assert _max_planned_order(200, 0) == 134
    assert _half_chain_error(positions, 1.0, 2) <= 1e-12


@st.composite
def _spectra(draw):
    """n = 2..40 eigenvalues, moderate or from 1e-300 to 1.7e308 in magnitude, and an order."""
    n = draw(st.integers(2, 40))
    lam = draw(arrays(float, n, elements=st.one_of(st.floats(-10.0, 10.0), _MAGNITUDES)))
    return lam, draw(st.integers(1, n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_spectra())
def test_power_table_gives_the_per_power_means(case):
    # One table of powers lambda_i^k in place of one np.mean(lam**k) per k:
    # within a few ulps of the largest term, and the same first moment that
    # overflows floats.
    lam, order = case
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.array([np.mean(lam**k) for k in range(1, order + 1)])
    finite = np.isfinite(means)
    if not finite.all():
        first = int(np.argmin(finite)) + 1
        with pytest.raises(ValueError, match=f"m_{first} overflows floats, so s = {order}"):
            moments_from_eigenvalues(lam, order)
        return
    got = moments_from_eigenvalues(lam, order).values
    largest = float(np.abs(lam).max()) ** np.arange(1, order + 1)
    assert np.all(np.abs(got - means) <= 4.0 * np.spacing(largest))


@_PROPERTY
@given(_teams_with_coincident(), _DECAY, _METRIC, st.booleans())
def test_evaluation_arrays_meet_their_contracts(positions, decay, metric, far):
    # _Evaluation builds its moment vector without the constructor's
    # checks; it must pass them, stay read-only and match the traces.
    if far:
        positions[-1, 0] += 800.0 / decay + 1.0
    n = len(positions)
    config = RobotConfiguration(positions)
    params = ControllerParams(decay=decay, metric=metric, order=n, epsilons=(0.0,) * n)
    state = _evaluate(config, TargetSpectrum(np.zeros(n)), params)
    # The flow's error state: a coincident pair divides before the drift checks for one.
    with np.errstate(divide="ignore", invalid="ignore"):
        state.drift  # the projection reuses the distances; it must not touch these
    assert state.chain is None  # it consumed the powers, so the state holds none
    values = state.moment_vector.values
    assert not values.flags.writeable
    assert np.isfinite(values).all()
    assert np.array_equal(MomentVector(values).values, values)
    weights = build_adjacency(config, decay, metric).weights
    powers = [np.linalg.matrix_power(weights, k) for k in range(1, n + 1)]
    traces = np.array([power.trace() for power in powers]) / n
    assert np.all(np.abs(values - traces) <= 1e-12 * np.maximum(1.0, np.abs(traces)))


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
    drift = _evaluate(config, targets, params).drift
    parts = control_law(config, targets, params) - barrier_gradient(config, targets, params)
    assert np.abs(drift - parts).max() <= 1e-12 * np.abs(parts).max()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_drift_cases())
def test_shifted_team_keeps_drift(case):
    config, targets, params = case

    def drift_change(positions):
        drift = _evaluate(RobotConfiguration(positions), targets, params).drift
        moved = _evaluate(RobotConfiguration(positions + 2.0**20), targets, params).drift
        return np.abs(moved - drift).max() / np.abs(drift).max()

    # The shift rounds the team's coordinates, which moves the drift.
    assert drift_change(config.positions) <= 1e-7
    # On a 2^-20 grid the shift is exact, and so are distances and weights:
    # only the projection could lose digits, and it works from the exact
    # differences.
    assert drift_change(np.round(config.positions * _GRID) / _GRID) <= 1e-12


@st.composite
def _short_runs(draw):
    """A scenario with targets from a drawn formation and a short horizon, and
    the value ``network._PRODUCT_TEAM`` takes for the run: unchanged, or 2, so
    that every difference is a BLAS product.

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
    scenario = Scenario(
        name="short", n=n, d=d, params=params, targets=targets,
        settings=SimulationSettings(max_time=draw(st.floats(0.05, 0.5)), record_every=1),
        initial_positions=start,
    )
    return scenario, draw(st.sampled_from([network._PRODUCT_TEAM, 2]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_short_runs())
def test_flow_invariants_on_short_runs(case):
    scenario, team = case
    with mock.patch.object(network, "_PRODUCT_TEAM", team):
        record = simulate(scenario)
    goal = scenario.targets.moments
    energies = [sample.cost + sample.barrier for sample in record.samples]
    assert all(later <= earlier for earlier, later in zip(energies, energies[1:]))
    for sample in record.samples:
        assert sample.moments.values[0] == 0.0
        assert np.all(sample.moments.values[1:] - goal[1:] > 0.0)
    assert record.samples[-1].t == record.simulated_time <= scenario.settings.max_time


def _sample_bytes(t, positions, moments, cost, barrier):
    return b"".join(np.array(values).tobytes() for values in ([t, cost, barrier], positions,
                                                               moments))


@network._quiet
def _reference_flow(scenario):
    """simulate's outcome from a flow that never gets a workspace, so that every evaluation
    owns its arrays: each candidate x + dt * v is a fresh array, and simulate's rules accept or
    reject a trial step, double dt after five acceptances in a row and stop at the horizon."""
    settings = scenario.settings
    state = dynamics._feasible_start(scenario.initial_configuration(), scenario.targets,
                                     scenario.params)  # its flow: only _advance adds a workspace
    t, accepted, rejected, streak, dt, reason = 0.0, 0, 0, 0, settings.dt, None
    floor = max(min(settings.dt, settings.max_time) * 2.0**-23, np.finfo(float).tiny)
    samples = [(t, state)]
    while reason is None:
        remaining = settings.max_time - t
        if state.cost <= settings.cost_tolerance:
            reason = "converged"
        elif remaining < floor:
            reason = "horizon"
        elif accepted + rejected >= dynamics.MAX_TRIAL_STEPS:
            reason = "stalled"
        else:
            trial, drift = min(dt, remaining), state.drift
            positions, candidate = np.asfortranarray(state.positions + trial * drift), None
            if np.isfinite(positions).all():
                with contextlib.suppress(ValueError):  # a moment overflowed
                    candidate = _Evaluation(state.flow, positions)
            before, moved = state.cost + state.barrier, np.count_nonzero(drift)
            if candidate is not None and min(candidate.margins) > 0.0 and (
                    (after := candidate.cost + candidate.barrier) < before
                    or after == before and moved):
                state, t, accepted = candidate, min(t + trial, settings.max_time), accepted + 1
                streak += 1
                if streak == 5:
                    dt, streak = min(2.0 * dt, settings.dt), 0
                if accepted % settings.record_every == 0:
                    samples.append((t, state))
            elif moved and trial > floor:
                dt, rejected, streak = max(trial / 2.0, floor), rejected + 1, 0
            else:
                reason = "stalled"
    if samples[-1] != (t, state):
        samples.append((t, state))
    return reason, accepted, rejected, t, [
        _sample_bytes(at, e.positions, e.moments, e.cost, e.barrier) for at, e in samples
    ], state.positions.tobytes()


@st.composite
def _reference_cases(draw):
    """A short flow on either side of ``network._PRODUCT_TEAM``: s = 2..6 (at most n), targets
    from a drawn formation or a drawn share of the start's moments, and a start with a
    coincident pair, a robot 800/c from the rest or neither."""
    n = draw(st.integers(2, 7) | st.integers(network._PRODUCT_TEAM - 1, network._PRODUCT_TEAM + 5))
    d = draw(st.integers(1, 3))
    params = ControllerParams(decay=draw(st.floats(0.5, 2.0)), metric=draw(_METRIC),
                              order=min(draw(st.integers(2, 6)), n))
    start = draw(_tie_free_teams(n, d))
    targets = target_from_formation(draw(_tie_free_teams(n, d)) if draw(st.booleans()) else
                                    start, params)
    targets = TargetSpectrum(targets.moments * draw(st.sampled_from([1.0, 0.9, 0.6])))
    start = start.positions.copy()
    pair = draw(st.sampled_from(["coincident", "far", None]))
    if pair == "coincident":
        start[1] = start[0]
    elif pair == "far":
        start[-1, 0] += 800.0 / params.decay + 1.0
    settings = SimulationSettings(max_time=draw(st.floats(0.02, 1.0)),
                                  record_every=draw(st.integers(1, 3)))
    return Scenario(name="reference", n=n, d=d, params=params, targets=targets,
                    settings=settings, initial_positions=start)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_reference_cases())
def test_simulate_is_the_workspace_free_reference_flow(scenario):
    with mock.patch.object(dynamics, "MAX_TRIAL_STEPS", 400):  # a stiff flow ends stalled
        record, reference = simulate(scenario), _reference_flow(scenario)
    assert (record.termination_reason, record.accepted_steps, record.rejected_steps,
            record.simulated_time, [
                _sample_bytes(s.t, s.configuration.positions, s.moments.values, s.cost, s.barrier)
                for s in record.samples
            ], record.final_configuration.positions.tobytes()) == reference


def _in_unit(scenario, alpha, flips, axes):
    """``scenario`` with lengths times ``alpha``, its axes in the order ``axes`` and then the
    ``flips`` ones reflected: positions so moved, decay over alpha, and dt and max_time times
    alpha**2 (README)."""
    settings, params = scenario.settings, scenario.params
    return dataclasses.replace(
        scenario, params=dataclasses.replace(params, decay=params.decay / alpha),
        settings=dataclasses.replace(settings, dt=settings.dt * alpha**2,
                                     max_time=settings.max_time * alpha**2),
        seed=None, initial_positions=scenario.initial_configuration().positions[:, axes] *
        np.where(flips, -alpha, alpha))


def _outcome(record, floor, alpha=1.0, flips=False, axes=slice(None)):
    """A record's termination, counts, simulated time, samples and final positions, with times
    scaled by alpha**2 and positions moved as :func:`_in_unit` moves them (-0.0 and 0.0 compare
    equal); a stall detail's time or step-size ``floor`` is written from the scaled float."""
    signs, factor = np.where(flips, -alpha, alpha), alpha**2
    t, detail = record.simulated_time, record.termination_detail
    detail = detail.replace(f"t = {t:.6g}", f"t = {t * factor:.6g}").replace(
        f"size {floor:g}", f"size {floor * factor:g}")
    return (record.termination_reason, detail, record.accepted_steps, record.rejected_steps,
            t * factor, [(s.t * factor, (s.configuration.positions[:, axes] * signs).tolist(),
                          s.moments.values.tobytes(), s.cost, s.barrier) for s in record.samples],
            (record.final_configuration.positions[:, axes] * signs).tolist())


def _round_trip_02():
    """Acceptance criterion 4's third instance, 7 robots at s = 5: 21,258 + 3,480 trial steps
    to converge, while at alpha = 1/4 an absolute floor of 1e-8 stalled it after 7 + 20."""
    params = ControllerParams(decay=1.0, metric=2, order=5, epsilons=(0.0,) + (1e-9,) * 4)
    targets = target_from_formation(
        RobotConfiguration(random_geometric_config(7, 2, 1002).positions * 0.5), params)
    settings = SimulationSettings(cost_tolerance=(0.004 * targets.moments[-1]) ** 2 / 20.0,
                                  max_time=300.0)
    return Scenario(name="round_trip_02", n=7, d=2, params=params, targets=targets,
                    settings=settings, seed=2002)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_reference_cases(), st.integers(-6, 6), arrays(bool, 3, elements=st.booleans()),
       st.booleans())
@example(_round_trip_02(), -2, np.array([False, True, False]), True)
def test_flow_is_equivariant(scenario, k, flips, swap):
    # A run in another length unit, alpha = 2**k, with axes reflected and, in the plane, swapped
    # takes the same trial steps: every weight, moment, cost and barrier is the same float,
    # every position and the drift move exactly, and the step-size floor, min(dt, max_time) *
    # 2**-23, scales as dt does.  Two axes' squares add the same either way round; three may not.
    alpha, flips = 2.0**k, flips[: scenario.d]
    floor = min(scenario.settings.dt, scenario.settings.max_time) * 2.0**-23
    axes = [1, 0] if swap and scenario.d == 2 else list(range(scenario.d))
    with mock.patch.object(dynamics, "MAX_TRIAL_STEPS", 400):  # a stiff flow ends stalled
        record, moved = simulate(scenario), simulate(_in_unit(scenario, alpha, flips, axes))
    assert _outcome(moved, floor * alpha**2) == _outcome(record, floor, alpha, flips, axes)
