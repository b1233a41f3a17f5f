"""
Unit tests for the network layer: configurations, weight matrices, moments.

Core claims:
    - RobotConfiguration/WeightedAdjacency/MomentVector validate their inputs,
      copy them, and freeze the stored arrays
    - the distance function matches hand values for both metrics, is
      symmetric with +inf on the diagonal, which weighs +0, is translation
      invariant, and returns inf for a distance beyond float range;
      build_adjacency turns that inf into a weight of 0 without a warning, on either side of the
      team size from which differences are one batched BLAS product, and a
      team of exactly that size takes the product, as does a stack of teams
    - a stack of teams through the distances, weights and half chain gives
      each team's one-team result bit for bit
    - build_adjacency reproduces exp(-decay * dist) with an exactly zero
      diagonal and off-diagonal entries in [0, 1], 0 where a weight
      underflows, and rejects a metric other than 1 and 2 and a decay that
      is not a positive real, a boolean among them
    - power_chain agrees with numpy matrix_power
    - spectral_moments has m_1 == 0 exactly, nonnegative entries, and agrees
      with the eigenvalue power-sum route to tight tolerance; that route
      raises a ValueError naming s, without a warning, where a power overflows
    - the half chain's plan refuses, naming s, n and the memory, an order
      whose ceil(s/2) + 4 + d n x n arrays pass the bytes of 4,096 robots at
      s = 4, d = 3; the default order of a positions file is the largest one
      it accepts with finite moments (102 at 1,000 robots, 62 at 2,000 and 6
      at 4,096 in the plane)
    - complete_graph_moments matches the moments of an explicitly coincident
      team and upper-bounds the moments of every spread-out team
    - walk_weight_sum reproduces entries of A^k by direct enumeration, both
      of power_chain and of the half chain the flow's moments come from
    - a count (an order, a power, a walk length, a node count) is an integer,
      Python's or numpy's, and neither a boolean nor a float: spectral_moments,
      power_chain, moments_from_eigenvalues, complete_graph_moments and
      walk_weight_sum refuse one with a one-line ValueError; so does
      walk_weight_sum an endpoint that is a boolean or a float
    - the one n x n product equals np.matmul bit for bit for one team of
      2 to _PRODUCT_TEAM + 8 robots, as a syrk x @ x.mT and a gemm, and for a
      stack of three
"""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from pytest import approx

from momentflow.network import (
    MAX_WALK_LENGTH,
    WALK_ENUMERATION_LIMIT,
    MomentVector,
    RobotConfiguration,
    WeightedAdjacency,
    build_adjacency,
    complete_graph_moments,
    eigenvalues,
    moments_and_eigenvalues,
    moments_from_eigenvalues,
    power_chain,
    spectral_moments,
    walk_weight_sum,
    _adjacency,
    _chain_plan,
    _half_chain,
    _max_planned_order,
    _pairwise_distance,
    _product_of,
    _PRODUCT_TEAM,
)


# -- Helpers -----------------------------------------------------------------

def _largest_finite_order(n):
    """The largest s that complete_graph_moments(n, s) accepts: every ceiling up to m_s finite."""
    order = 1
    while order < n:
        try:
            complete_graph_moments(n, order + 1)
        except ValueError:
            break
        order += 1
    return order


def _random_config(n, d, seed):
    """Uniform positions in the unit box, no exact coordinate ties."""
    rng = np.random.default_rng(seed)
    return RobotConfiguration(rng.random((n, d)))


def _random_adjacency(n, seed, decay=1.0, metric=2):
    return build_adjacency(_random_config(n, 2, seed), decay, metric)


def _distances(config, metric):
    """All inter-robot distances of ``config``, from the one distance function."""
    return _pairwise_distance(config.positions, metric)[0]


# == 1. RobotConfiguration ===================================================

class TestRobotConfiguration:
    def test_shape_properties(self):
        config = _random_config(5, 3, 0)
        assert config.n == 5
        assert config.d == 3
        assert config.positions.shape == (5, 3)

    def test_copies_input(self):
        source = np.zeros((3, 2))
        config = RobotConfiguration(source)
        source[0, 0] = 99.0
        assert config.positions[0, 0] == 0.0

    def test_positions_read_only(self):
        config = _random_config(3, 2, 1)
        with pytest.raises(ValueError):
            config.positions[0, 0] = 1.0

    def test_accepts_single_dimension(self):
        config = RobotConfiguration([[0.0], [1.0], [2.5]])
        assert config.n == 3
        assert config.d == 1

    def test_rejects_flat_array(self):
        with pytest.raises(ValueError):
            RobotConfiguration([1.0, 2.0, 3.0])

    def test_rejects_single_robot(self):
        with pytest.raises(ValueError):
            RobotConfiguration([[0.0, 0.0]])

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            RobotConfiguration(np.zeros((4, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            RobotConfiguration([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            RobotConfiguration([[0.0, 0.0], [np.inf, 1.0]])


# == 2. WeightedAdjacency ====================================================

class TestWeightedAdjacency:
    def test_accepts_valid_matrix(self):
        w = np.array([[0.0, 0.5], [0.5, 0.0]])
        adjacency = WeightedAdjacency(w)
        assert adjacency.n == 2
        assert np.array_equal(adjacency.weights, w)

    def test_accepts_unit_weights(self):
        w = np.ones((3, 3)) - np.eye(3)
        assert WeightedAdjacency(w).n == 3

    def test_weights_read_only(self):
        adjacency = _random_adjacency(4, 2)
        with pytest.raises(ValueError):
            adjacency.weights[0, 1] = 0.3

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            WeightedAdjacency(np.zeros((2, 3)))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            WeightedAdjacency(np.zeros((1, 1)))

    def test_rejects_nonzero_diagonal(self):
        w = np.array([[1e-300, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError):
            WeightedAdjacency(w)

    def test_rejects_asymmetry(self):
        w = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(ValueError):
            WeightedAdjacency(w)

    def test_rejects_out_of_range_weights(self):
        # An underflowed weight of exactly 0 is valid; [0, 1] is the range.
        zero = WeightedAdjacency(np.array([[0.0, 0.0], [0.0, 0.0]]))
        assert np.all(zero.weights == 0.0)
        for bad in (-0.5, 1.0 + 1e-12):
            w = np.array([[0.0, bad], [bad, 0.0]])
            with pytest.raises(ValueError):
                WeightedAdjacency(w)

    def test_rejects_nonfinite(self):
        w = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError):
            WeightedAdjacency(w)


# == 3. MomentVector =========================================================

class TestMomentVector:
    def test_order_and_indexing(self):
        vector = MomentVector([0.0, 2.5, 1.25])
        assert vector.order == 3
        assert vector.values[0] == 0.0
        assert vector.values[1] == 2.5
        assert vector.values[2] == 1.25

    def test_values_read_only(self):
        vector = MomentVector([0.0, 1.0])
        with pytest.raises(ValueError):
            vector.values[0] = 5.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MomentVector([[0.0, 1.0]])
        with pytest.raises(ValueError):
            MomentVector([])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MomentVector([0.0, np.inf])


# == 4. Pairwise distances ===================================================

class TestPairwiseDistance:
    def test_hand_values_two_robots(self):
        config = RobotConfiguration([[0.0, 0.0], [3.0, 4.0]])
        taxicab = _distances(config, 1)
        euclid = _distances(config, 2)
        assert taxicab[0, 1] == approx(7.0)
        assert euclid[0, 1] == approx(5.0)

    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetric_zero_diagonal(self, metric, seed):
        # Each robot sits at +inf from itself, so its weight exp(-c * inf) is exactly +0.
        config = _random_config(6, 3, seed)
        dist = _distances(config, metric)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == np.inf)
        off = dist[~np.eye(6, dtype=bool)]
        assert np.all((off > 0.0) & (off < np.inf))
        assert np.diag(_adjacency(dist, 1.3)).tobytes() == bytes(6 * 8)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_taxicab_dominates_euclidean(self, seed):
        config = _random_config(5, 2, seed)
        assert np.all(_distances(config, 1) >= _distances(config, 2) - 1e-15)

    def test_metrics_agree_on_a_line(self):
        config = RobotConfiguration([[0.0], [1.5], [-2.0]])
        assert np.allclose(_distances(config, 1), _distances(config, 2))

    @pytest.mark.parametrize("metric", [1, 2])
    def test_translation_invariant(self, metric):
        config = _random_config(5, 2, 7)
        shifted = RobotConfiguration(config.positions + np.array([12.5, -3.75]))
        assert np.allclose(
            _distances(config, metric), _distances(shifted, metric)
        )

    def test_rejects_unknown_metric(self):
        # Both ran True, 2.0 and np.int64(2), which ControllerParams refuses, as metrics 1 and 2.
        config = _random_config(3, 2, 0)
        with pytest.raises(ValueError, match=r"^metric must be 1 or 2, got 3$"):
            build_adjacency(config, 1.0, 3)
        for metric in (3, True, 2.0, np.int64(2)):
            message = f"^{re.escape(f'metric must be 1 or 2, got {metric!r}')}$"
            with pytest.raises(ValueError, match=message):
                build_adjacency(config, 1.0, metric)
            with pytest.raises(ValueError, match=message):
                moments_and_eigenvalues(config, 1.0, metric, 2)

    # The taxicab sum 3.4e308 overflows, and so does the squared offset 1e400.
    # The pair alone subtracts by broadcasting; in a team of _PRODUCT_TEAM
    # robots, which takes the product, the x difference to -1.7e308 overflows too.
    @pytest.mark.parametrize("metric, far", [(1, [1.7e308, 1.7e308]), (2, [1e200, 0.0])])
    def test_overflowing_distance_is_quiet_inf(self, metric, far):
        crowd = [[-1.7e308, 0.0]] + [[float(i), 1.0] for i in range(_PRODUCT_TEAM - 3)]
        for others in ([], crowd):
            config = RobotConfiguration([[0.0, 0.0], far] + others)
            before = np.geterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                weights = build_adjacency(config, 1.0, metric).weights
                # The distance function runs under its caller's error state.
                with np.errstate(over="ignore", invalid="ignore"):
                    dist = _distances(config, metric)
            assert np.geterr() == before
            assert dist[0, 1] == dist[1, 0] == np.inf
            assert np.all(np.diag(dist) == np.inf)
            assert weights[0, 1] == weights[1, 0] == 0.0
            assert not np.diag(weights).any()
            if others:
                assert dist[1, 2] == dist[2, 1] == np.inf

    @pytest.mark.parametrize("d", [1, 3])
    def test_product_from_exactly_the_switch(self, d):
        # One batched BLAS product over every axis and team from _PRODUCT_TEAM robots on, none
        # below, for one team and for a stack of three.
        for n, products in ((_PRODUCT_TEAM - 1, 0), (_PRODUCT_TEAM, 1)):
            team = _random_config(n, d, 0).positions
            for positions in (team, np.stack([team, team + 1.0, 2.0 * team], axis=1)):
                with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
                    _pairwise_distance(positions, 2)
                assert matmul.call_count == products

    @pytest.mark.parametrize("n", [7, _PRODUCT_TEAM])
    @pytest.mark.parametrize("metric", [1, 2])
    def test_stack_is_each_team_bitwise(self, n, metric):
        # An (n, m, d) stack, robot-major, through the distances, weights and half chain gives
        # each team's one-team result bit for bit: a coincident pair, and one far apart.
        rng = np.random.default_rng(n + metric)
        teams = rng.random((4, n, 2))
        teams[1, 1] = teams[1, 0]
        teams[2, 1] = [1e200, -1e200]
        plan = _chain_plan(5, n, 2)
        with np.errstate(over="ignore"):  # the far pair's squared gap
            distance, differences = _pairwise_distance(teams.swapaxes(0, 1), metric)
            weights = _adjacency(distance, 0.7)
            moments, chain = _half_chain(weights, plan)
            assert differences.shape == (2, 4, n, n) and differences.flags.c_contiguous
            for k, team in enumerate(teams):
                one_distance, one_differences = _pairwise_distance(team, metric)
                one_weights = _adjacency(one_distance, 0.7)
                one_moments, one_chain = _half_chain(one_weights, plan)
                assert distance[k].tobytes() == one_distance.tobytes()
                assert np.array_equal(differences[:, k], one_differences)
                assert weights[k].tobytes() == one_weights.tobytes()
                assert [power[k].tobytes() for power in chain] == [p.tobytes() for p in one_chain]
                assert [moments[0], *(m[k] for m in moments[1:])] == one_moments


# == 5. Adjacency construction ===============================================

class TestBuildAdjacency:
    def test_hand_value(self):
        config = RobotConfiguration([[0.0, 0.0], [3.0, 4.0]])
        adjacency = build_adjacency(config, 0.5, 2)
        assert adjacency.weights[0, 1] == approx(np.exp(-2.5))

    @pytest.mark.parametrize("metric", [1, 2])
    def test_matches_distance_formula(self, metric):
        config = _random_config(6, 2, 9)
        decay = 1.7
        adjacency = build_adjacency(config, decay, metric)
        expected = np.exp(-decay * _distances(config, metric))
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(adjacency.weights, expected, rtol=0.0, atol=1e-15)

    def test_zero_diagonal_exact(self):
        adjacency = _random_adjacency(5, 11)
        assert np.all(np.diag(adjacency.weights) == 0.0)

    def test_larger_decay_means_smaller_weights(self):
        config = _random_config(5, 2, 13)
        loose = build_adjacency(config, 0.5, 2).weights
        tight = build_adjacency(config, 2.0, 2).weights
        off = ~np.eye(5, dtype=bool)
        assert np.all(tight[off] < loose[off])

    def test_coincident_robots_weight_one(self):
        config = RobotConfiguration([[1.0, 2.0], [1.0, 2.0], [4.0, 0.0]])
        adjacency = build_adjacency(config, 1.0, 2)
        assert adjacency.weights[0, 1] == 1.0

    def test_rejects_bad_decay(self):
        config = _random_config(3, 2, 0)
        for decay in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                build_adjacency(config, decay, 2)

    @pytest.mark.parametrize("decay", [True, np.True_, None, "0.1", np.array([0.1, 0.2])])
    def test_decay_is_a_real_not_a_bool(self, decay):
        # Accepted, True ran as a decay of 1.0; np.True_, None and "0.1" raised a TypeError, and
        # the array numpy's ambiguous-truth ValueError.
        config = _random_config(3, 2, 0)
        message = f"^{re.escape(f'decay must be a positive real, got {decay}')}$"
        with pytest.raises(ValueError, match=message):
            build_adjacency(config, decay, 2)


# == 6. Matrix powers ========================================================

class TestPowerChain:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_matrix_power(self, seed):
        adjacency = _random_adjacency(5, seed)
        chain = power_chain(adjacency, 4)
        assert len(chain) == 5
        for k in range(5):
            expected = np.linalg.matrix_power(adjacency.weights, k)
            assert np.allclose(chain[k], expected, rtol=0.0, atol=1e-12)

    def test_zero_powers(self):
        adjacency = _random_adjacency(3, 5)
        chain = power_chain(adjacency, 0)
        assert len(chain) == 1
        assert np.array_equal(chain[0], np.eye(3))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            power_chain(_random_adjacency(3, 0), -1)


# == 7. Spectral moments =====================================================

class TestSpectralMoments:
    def test_first_moment_exactly_zero(self):
        for seed in range(5):
            moments = spectral_moments(_random_adjacency(6, seed), 6)
            assert moments.values[0] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_eigenvalue_route(self, seed):
        adjacency = _random_adjacency(7, seed)
        order = 7
        trace_route = spectral_moments(adjacency, order)
        power_route = moments_from_eigenvalues(eigenvalues(adjacency), order)
        assert np.allclose(trace_route.values, power_route.values, rtol=1e-12, atol=1e-12)

    def test_two_robot_closed_form(self):
        config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0]])
        adjacency = build_adjacency(config, 1.0, 2)
        a = adjacency.weights[0, 1]
        moments = spectral_moments(adjacency, 2)
        assert moments.values[0] == 0.0
        assert moments.values[1] == approx(a * a)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_moments_nonnegative(self, seed):
        moments = spectral_moments(_random_adjacency(8, seed), 8)
        assert np.all(moments.values >= 0.0)

    def test_order_bounds(self):
        adjacency = _random_adjacency(4, 0)
        with pytest.raises(ValueError):
            spectral_moments(adjacency, 0)
        with pytest.raises(ValueError):
            spectral_moments(adjacency, 5)

    def test_plan_memory_bound(self):
        # ceil(s/2) + 4 + d arrays of n x n floats, at most as many bytes as
        # 4,096 robots hold at s = 4, d = 3; spectral_moments plans with d = 0.
        _chain_plan(4, 4096, 3)
        _chain_plan(10, 4096, 0)
        for order, d in ((5, 3), (7, 2), (11, 0)):
            with pytest.raises(ValueError, match=rf"^s = {order} needs 1\.34 GB of 4096 x 4096 "
                               r"arrays, over the 1\.21 GB bound; a smaller s is needed$"):
                _chain_plan(order, 4096, d)

    def test_plan_is_shared_and_checked_per_call(self):
        # One plan per order, of tuples, so that no caller can change it for the others; the
        # order and the memory bound are checked on every call, after a plan of the same order
        # was made, and on the second call too.
        for order in (True, 2.0):
            _chain_plan(int(order), 4, 2)
            with pytest.raises(ValueError, match="^order must be an integer"):
                _chain_plan(order, 4, 2)
        plan = _chain_plan(3, 5, 2)
        assert _chain_plan(np.int64(3), 5, 2) is plan is _chain_plan(3, 7, 1)
        assert plan == (((0, 0),), ((0, 0), (0, 1)))
        assert all(type(part) is tuple for part in (*plan, *plan[0], *plan[1]))
        _chain_plan(5, 8, 3)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^s = 5 needs 1\.34 GB of 4096 x 4096 "):
                _chain_plan(5, 4096, 3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_largest_planned_order(self, d):
        # Finite moments up to about 1,660 robots, the memory bound from there on.
        for n in (2, 150, 1000, 1655, 1660, 1665, 1700, 2000, 3000, 4096):
            order, finite = _max_planned_order(n, d), _largest_finite_order(n)
            _chain_plan(order, n, d)
            assert order <= finite
            if order == finite:
                assert n < 1700
            else:
                assert n > 1655
                with pytest.raises(ValueError, match=f"^s = {order + 1} needs "):
                    _chain_plan(order + 1, n, d)
        assert [_max_planned_order(n, 2) for n in (1000, 2000, 4096)] == [102, 62, 6]


# == 8. Eigenvalue helpers ===================================================

class TestEigenvalues:
    def test_sorted_descending_and_traceless(self):
        adjacency = _random_adjacency(6, 21)
        lam = eigenvalues(adjacency)
        assert lam.shape == (6,)
        assert np.all(np.diff(lam) <= 1e-12)
        assert np.sum(lam) == approx(0.0, abs=1e-10)

    def test_two_node_pair(self):
        w = np.array([[0.0, 0.25], [0.25, 0.0]])
        lam = eigenvalues(WeightedAdjacency(w))
        assert lam[0] == approx(0.25)
        assert lam[1] == approx(-0.25)

    def test_moments_from_eigenvalues_validation(self):
        with pytest.raises(ValueError):
            moments_from_eigenvalues(np.zeros((2, 2)), 2)
        with pytest.raises(ValueError):
            moments_from_eigenvalues([1.0], 1)
        with pytest.raises(ValueError):
            moments_from_eigenvalues([1.0, -1.0], 3)
        with pytest.raises(ValueError):
            moments_from_eigenvalues([1.0, np.nan], 2)

    @pytest.mark.parametrize("eigs, order, bad", [
        ([1e200, -1e200], 2, 2),        # m_2 = inf
        ([1e103, -1e103, 0.0], 3, 3),   # inf - inf in m_3
    ])
    def test_moments_from_eigenvalues_overflow(self, eigs, order, bad):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"m_{bad} overflows floats, so s = {order}"):
                moments_from_eigenvalues(eigs, order)
        assert np.geterr() == before


# == 9. Complete-graph ceilings ==============================================

class TestCompleteGraphMoments:
    def test_hand_values(self):
        assert complete_graph_moments(2, 2).values == approx([0.0, 1.0])
        assert complete_graph_moments(3, 3).values == approx([0.0, 2.0, 2.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_second_moment_is_n_minus_one(self, n):
        assert complete_graph_moments(n, 2).values[1] == approx(n - 1.0)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_matches_coincident_team(self, n):
        config = RobotConfiguration(np.zeros((n, 2)))
        adjacency = build_adjacency(config, 1.0, 2)
        direct = spectral_moments(adjacency, n)
        closed = complete_graph_moments(n, n)
        assert np.allclose(direct.values, closed.values, rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_ceiling_bounds_spread_teams(self, seed):
        n = 6
        adjacency = _random_adjacency(n, seed)
        moments = spectral_moments(adjacency, n)
        ceiling = complete_graph_moments(n, n)
        for k in range(2, n + 1):
            assert moments.values[k - 1] < ceiling.values[k - 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_graph_moments(1, 1)
        with pytest.raises(ValueError):
            complete_graph_moments(4, 5)


# == 10. Walk enumeration ====================================================

class TestWalkWeightSum:
    def test_length_one_is_edge_weight(self):
        adjacency = _random_adjacency(4, 31)
        assert walk_weight_sum(adjacency, 1, 0, 2) == adjacency.weights[0, 2]
        assert walk_weight_sum(adjacency, 1, 1, 1) == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_matches_matrix_power_entries(self, seed, length):
        adjacency = _random_adjacency(4, seed)
        power = power_chain(adjacency, length)[length]
        for start in range(4):
            for end in range(4):
                enumerated = walk_weight_sum(adjacency, length, start, end)
                assert enumerated == approx(power[start, end], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_half_chain_entries(self, n, seed):
        # The flow's own products A^k = A^ceil(k/2) (A^floor(k/2))^T, k <= ceil(n/2).
        adjacency = _random_adjacency(n, seed)
        chain = _half_chain(adjacency.weights, _chain_plan(n, n, 0))[1]
        assert len(chain) == (n + 1) // 2
        for length, power in enumerate(chain, start=1):
            for start in range(n):
                for end in range(n):
                    enumerated = walk_weight_sum(adjacency, length, start, end)
                    assert enumerated == approx(power[start, end], rel=1e-12, abs=1e-12)

    def test_trace_recovers_moment(self):
        adjacency = _random_adjacency(5, 17)
        total = sum(walk_weight_sum(adjacency, 3, i, i) for i in range(5))
        assert total / 5 == approx(spectral_moments(adjacency, 3).values[2], rel=1e-12)

    def test_length_bounds(self):
        adjacency = _random_adjacency(3, 0)
        with pytest.raises(ValueError):
            walk_weight_sum(adjacency, 0, 0, 1)
        with pytest.raises(ValueError):
            walk_weight_sum(adjacency, MAX_WALK_LENGTH + 1, 0, 1)

    def test_endpoint_bounds(self):
        adjacency = _random_adjacency(3, 0)
        with pytest.raises(ValueError):
            walk_weight_sum(adjacency, 2, -1, 0)
        with pytest.raises(ValueError):
            walk_weight_sum(adjacency, 2, 0, 3)

    @pytest.mark.parametrize("index", [True, np.True_, 1.5, 1.0, np.float64(1.0)])
    def test_endpoints_are_integers_not_bools_or_floats(self, index):
        # A bool would index the weights as a mask and a float fail as numpy's IndexError.
        adjacency = _random_adjacency(3, 0)
        for start, end in ((index, 0), (0, index)):
            with pytest.raises(ValueError, match=r"^endpoints \(.+\) must be integers in 0\.\.2$"):
                walk_weight_sum(adjacency, 2, start, end)
        assert walk_weight_sum(adjacency, 2, np.int64(1), np.int32(0)) == walk_weight_sum(
            adjacency, 2, 1, 0)

    def test_enumeration_limit(self):
        n = 40
        assert n ** (MAX_WALK_LENGTH - 1) > WALK_ENUMERATION_LIMIT
        adjacency = _random_adjacency(n, 1)
        with pytest.raises(ValueError):
            walk_weight_sum(adjacency, MAX_WALK_LENGTH, 0, 0)


# == 11. Counts ================================================================

_NOT_COUNTS = [True, np.True_, 2.0]


class TestCounts:
    # A count that is a boolean or a float is refused in one line, as ControllerParams.order
    # is; numpy's integers are counts.
    @pytest.mark.parametrize("order", _NOT_COUNTS)
    def test_spectral_moments(self, order):
        adjacency = _random_adjacency(4, 0)
        with pytest.raises(ValueError, match=r"^order must be an integer, 1 <= order <= 4, got "):
            spectral_moments(adjacency, order)
        assert np.array_equal(spectral_moments(adjacency, np.int64(3)).values,
                              spectral_moments(adjacency, 3).values)

    @pytest.mark.parametrize("max_power", _NOT_COUNTS)
    def test_power_chain(self, max_power):
        adjacency = _random_adjacency(4, 0)
        with pytest.raises(ValueError, match=r"^max_power must be a nonnegative integer, got "):
            power_chain(adjacency, max_power)
        assert len(power_chain(adjacency, np.int32(2))) == 3

    @pytest.mark.parametrize("order", _NOT_COUNTS)
    def test_moments_from_eigenvalues(self, order):
        with pytest.raises(ValueError, match=r"^order must be an integer, 1 <= order <= 3, got "):
            moments_from_eigenvalues([1.0, -0.5, -0.5], order)
        assert moments_from_eigenvalues([1.0, -0.5, -0.5], np.int64(2)).order == 2

    @pytest.mark.parametrize("count", _NOT_COUNTS)
    def test_complete_graph_moments(self, count):
        with pytest.raises(ValueError, match=r"^order must be an integer, 1 <= order <= 4, got "):
            complete_graph_moments(4, count)
        with pytest.raises(ValueError, match=r"^need an integer count of at least 2 nodes, got "):
            complete_graph_moments(count, 1)
        assert np.array_equal(complete_graph_moments(np.int64(4), np.int64(3)).values,
                              complete_graph_moments(4, 3).values)

    @pytest.mark.parametrize("length", _NOT_COUNTS)
    def test_walk_weight_sum(self, length):
        adjacency = _random_adjacency(4, 0)
        with pytest.raises(ValueError, match=r"^walk length must be an integer in 1\.\.5, got "):
            walk_weight_sum(adjacency, length, 0, 1)
        assert walk_weight_sum(adjacency, np.int64(2), 0, 1) == walk_weight_sum(adjacency, 2, 0, 1)


# == 12. The one n x n product ===============================================

class TestProduct:
    # Below _PRODUCT_TEAM one team's product is np.dot's, from there on and for stacks
    # np.matmul's: the two agree bit for bit, as a syrk and as a gemm (CI runs this on a
    # second BLAS kernel too).
    @pytest.mark.parametrize("n", range(2, _PRODUCT_TEAM + 9))
    def test_equals_matmul(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.random((n, n)), rng.random((n, n))
        out = np.empty((n, n))
        for left, right in ((x, x.mT), (x, y)):
            expected = np.matmul(left, right).tobytes()
            assert _product_of(left)(right).tobytes() == expected
            assert _product_of(left)(right, out) is out and out.tobytes() == expected
        stack = rng.random((3, n, n))
        assert _product_of(stack)(stack.mT).tobytes() == np.matmul(stack, stack.mT).tobytes()
