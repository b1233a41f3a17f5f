"""
Unit tests for the network layer: configurations, weight matrices, moments.

Core claims:
    - RobotConfiguration/WeightedAdjacency/MomentVector validate their inputs,
      copy them, and freeze the stored arrays
    - pairwise_distance matches hand values for both metrics, is symmetric
      with an exactly zero diagonal, and is translation invariant
    - build_adjacency reproduces exp(-decay * dist) with an exactly zero
      diagonal and off-diagonal entries in [0, 1], 0 where a weight underflows
    - power_chain agrees with numpy matrix_power
    - spectral_moments has m_1 == 0 exactly, nonnegative entries, and agrees
      with the eigenvalue power-sum route to tight tolerance
    - complete_graph_moments matches the moments of an explicitly coincident
      team and upper-bounds the moments of every spread-out team
    - walk_weight_sum reproduces entries of A^k by direct enumeration
"""

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
    moments_from_eigenvalues,
    pairwise_distance,
    power_chain,
    spectral_moments,
    walk_weight_sum,
)


# -- Helpers -----------------------------------------------------------------

def _random_config(n, d, seed):
    """Uniform positions in the unit box, no exact coordinate ties."""
    rng = np.random.default_rng(seed)
    return RobotConfiguration(rng.random((n, d)))


def _random_adjacency(n, seed, decay=1.0, metric=2):
    return build_adjacency(_random_config(n, 2, seed), decay, metric)


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
        taxicab = pairwise_distance(config, 1)
        euclid = pairwise_distance(config, 2)
        assert taxicab[0, 1] == approx(7.0)
        assert euclid[0, 1] == approx(5.0)

    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_symmetric_zero_diagonal(self, metric, seed):
        config = _random_config(6, 3, seed)
        dist = pairwise_distance(config, metric)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)
        off = dist[~np.eye(6, dtype=bool)]
        assert np.all(off > 0.0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_taxicab_dominates_euclidean(self, seed):
        config = _random_config(5, 2, seed)
        assert np.all(pairwise_distance(config, 1) >= pairwise_distance(config, 2) - 1e-15)

    def test_metrics_agree_on_a_line(self):
        config = RobotConfiguration([[0.0], [1.5], [-2.0]])
        assert np.allclose(pairwise_distance(config, 1), pairwise_distance(config, 2))

    @pytest.mark.parametrize("metric", [1, 2])
    def test_translation_invariant(self, metric):
        config = _random_config(5, 2, 7)
        shifted = RobotConfiguration(config.positions + np.array([12.5, -3.75]))
        assert np.allclose(
            pairwise_distance(config, metric), pairwise_distance(shifted, metric)
        )

    def test_rejects_unknown_metric(self):
        config = _random_config(3, 2, 0)
        with pytest.raises(ValueError):
            pairwise_distance(config, 3)


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
        expected = np.exp(-decay * pairwise_distance(config, metric))
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

    def test_enumeration_limit(self):
        n = 40
        assert n ** (MAX_WALK_LENGTH - 1) > WALK_ENUMERATION_LIMIT
        adjacency = _random_adjacency(n, 1)
        with pytest.raises(ValueError):
            walk_weight_sum(adjacency, MAX_WALK_LENGTH, 0, 0)
