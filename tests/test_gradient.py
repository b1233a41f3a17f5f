"""
Unit tests for the cost, barrier, and analytic gradient machinery.

Core claims:
    - ControllerParams validates decay, metric, order, and barrier constants
    - trace_derivative matches a central finite difference of tr(A^k) under
      a symmetric entry bump
    - moment_gradient matches the finite-difference oracle for both metrics
    - cost is the hand formula, zero exactly at the target, and control_law
      equals its negative gradient (checked against finite differences and
      against an independent assembly from per-moment gradients)
    - barrier matches the hand formula, is exactly zero when every constant
      is, and refuses nonpositive margins; barrier_gradient matches finite
      differences and the per-moment assembly
    - with a pair 3.4e308 apart, whose difference overflows to inf, both
      ways of forming differences give finite gradients without a numpy
      warning, zero for the far pair, the same on both sides of the
      team-size switch; so does a pair at x = 1.7e308, whose coordinate sum
      overflows, at 6 robots and at the switch (64), bitwise in every column
    - the Euclidean drift sets only the diagonal's distances to inf unless a
      pair coincides, and masks every zero distance when one does: bitwise
      the drift of masking every zero always, below the team-size switch
      and at it, with and without a coincident pair
    - 60 robots in a 5 x 5 box with a pair 1e-6, 1e-9 or 1e-12 apart get
      the same drift, to 1e-12 relative on every entry, from either way of
      forming differences
    - on both sides of the team-size switch, a Euclidean pair whose squared
      gap underflows (1e-170 apart) keeps its direction: the drift matches
      the pair's at 1e-150
    - one evaluation and its drift of 256 robots hold at most
      ceil(s/2) + 4 + d n x n arrays at once, for s = 2..7 and d = 1..3
    - the Euclidean drift's max and min reductions and its counts of
      entries give the same drift bit for bit (n = 8, 64 and 200, d = 1..3,
      s = 2, 4, 6) on teams with a pair about 1e200 apart, one whose
      difference overflows, a coincident pair and a gap of 1e-163
    - finite_difference_gradient is second-order accurate on a known field,
      and passes its extra arguments to the field
    - a guarded margin so small that its cube or 4k margin^2 underflows
      gives an infinite barrier and barrier coefficient without a numpy
      warning (4 robots on a 150 x 150 square, targets at half their moments)
    - where eps_k / margin^3 overflows though the gradient fits in floats
      (two robots 118.5-150 apart, eps_2 0.1 and 1e6), barrier_gradient
      matches finite differences and the drift is its negative, without a
      numpy warning; where the barrier is inf too, the gradient is +-inf
      outward; an unguarded margin keeps its share of the drift
    - finite_difference_gradient(cost or barrier, config, targets, params)
      evaluates its stencil as one stack where a chunk of the module's byte
      budget holds two teams of d + ceil(s/2) + 3 n x n arrays: the stack
      holds the one-team loop's teams in the loop's order, every team's
      cost and barrier as one team's call gives them, and the gradient
      bitwise the closure form's, on generated teams (d 1-3, s 2..min(5, n),
      both metrics, barrier constants zero and nonzero), on verify's own
      inputs on both sides of that rule for d = 1, 2 and 3 (stacks of up to
      68 robots), on the far team, and with cost wrapped in every module as
      a tracer wraps it; where a chunk holds one team, and for any other
      field, one team a call, with no stencil formed: 64 robots in space at
      s = 5 peak below the 2 (n d)^2 floats of their stencil; a stencil with
      a team that would raise raises that team's InfeasibleStateError or
      ValueError, as the closure form does; one chunk holds at most the
      module's byte budget
"""

import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from pytest import approx

from momentflow import gradient, network

from momentflow.gradient import (
    DEFAULT_EPSILON,
    ControllerParams,
    _Evaluation,
    _Flow,
    InfeasibleStateError,
    TargetSpectrum,
    barrier,
    barrier_gradient,
    control_law,
    cost,
    finite_difference_gradient,
    moment_gradient,
    trace_derivative,
)
from momentflow.network import (
    RobotConfiguration,
    WeightedAdjacency,
    build_adjacency,
    spectral_moments,
)


# -- Helpers -----------------------------------------------------------------

def _tie_free_config(n, d, seed):
    """Random positions with every per-axis coordinate gap at least 0.4/n.

    Each axis gets a jittered permutation of an evenly spaced grid, so no
    two robots share a coordinate and finite-difference stencils of step
    1e-6 never flip a taxicab sign.
    """
    rng = np.random.default_rng(seed)
    positions = np.empty((n, d))
    for axis in range(d):
        grid = (rng.permutation(n) + 0.5) / n
        positions[:, axis] = grid + rng.uniform(-0.3 / n, 0.3 / n, size=n)
    return RobotConfiguration(positions)


def _params(metric=2, order=4, **kwargs):
    return ControllerParams(decay=1.0, metric=metric, order=order, **kwargs)


def _targets_below(config, params, fraction=0.7):
    """Targets at ``fraction`` of the configuration's own moments.

    Margins are positive by construction, so barrier calls are feasible.
    """
    adjacency = build_adjacency(config, params.decay, params.metric)
    moments = spectral_moments(adjacency, params.order).values
    return TargetSpectrum(fraction * moments)


# Four robots so far apart that their moments (about 1e-131 and below) leave margins whose
# squares underflow.
_FAR_TEAM = RobotConfiguration([[0.0, 0.0], [150.0, 0.0], [0.0, 150.0], [150.0, 150.0]])


def _one_by_one(field, teams, targets, params):
    return np.array([field(RobotConfiguration(team), targets, params) for team in teams])


def _closure(field, config, targets, params, step=1e-6):
    """The oracle's closure form: one team a call, in its per-coordinate loop."""
    return finite_difference_gradient(lambda c: field(c, targets, params), config, step=step)


def _stacks(n, d, order):
    """The chunk rule: a stencil stacks where a chunk of ``gradient._STENCIL_BYTES`` holds two
    teams or more, each counted as d + ceil(s/2) + 3 n x n arrays of floats."""
    return gradient._STENCIL_BYTES // ((d + math.ceil(order / 2) + 3) * 8 * n * n) >= 2


def _stencil(config, step=1e-6):
    """The one-team loop's 2 n d teams in its order: x + step e_k, then x - step e_k, for
    k = i d + r."""
    teams = np.repeat(config.positions[None], 2 * config.positions.size, axis=0)
    for k, team in enumerate(teams):
        team.flat[k // 2] += -step if k % 2 else step
    return teams


def _stacked_route(field, config, targets, params, step=1e-6):
    """``finite_difference_gradient(field, config, targets, params)`` and a list of the
    (teams, values) that each call of its stacked kernel took and gave (values None: a team
    would raise, so the oracle went one team a call).  Where a chunk holds one team the oracle
    goes one team a call without a call of the kernel.  Every stack the kernel takes holds the
    loop's teams in the loop's order."""
    kernel, calls = gradient._stacked_values, []

    def spy(field, teams, targets, params, size):
        assert size >= 2 and np.array_equal(teams, _stencil(config, step))
        calls.append((teams, kernel(field, teams, targets, params, size)))
        return calls[-1][1]

    with mock.patch.object(gradient, "_stacked_values", spy):
        fd = finite_difference_gradient(field, config, targets, params, step=step)
    return fd, calls


def _norm_close(actual, expected, tol):
    scale = max(np.linalg.norm(expected), 1e-12)
    return np.linalg.norm(actual - expected) / scale <= tol


# == 1. ControllerParams =====================================================

class TestControllerParams:
    def test_defaults(self):
        params = ControllerParams()
        assert params.decay == 1.0
        assert params.metric == 1
        assert params.order == 2
        assert params.epsilons == (0.0, DEFAULT_EPSILON)
        assert any(params.epsilons)  # the barrier is on by default

    def test_default_epsilons_shape(self):
        eps = ControllerParams(order=5).epsilons
        assert len(eps) == 5
        assert eps[0] == 0.0
        assert all(e == DEFAULT_EPSILON for e in eps[1:])
        with pytest.raises(ValueError, match="order must be at least 2"):
            ControllerParams(order=1)

    def test_explicit_epsilons_kept(self):
        params = _params(order=3, epsilons=(0.0, 1e-6, 2e-6))
        assert params.epsilons == (0.0, 1e-6, 2e-6)

    def test_zero_epsilons_kept(self):
        params = _params(order=3, epsilons=(0.0, 0.0, 0.0))
        assert params.epsilons == (0.0, 0.0, 0.0)
        assert _params(order=3).epsilons[1] == DEFAULT_EPSILON

    def test_rejects_bad_decay(self):
        for decay in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                ControllerParams(decay=decay)

    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError):
            ControllerParams(metric=3)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            ControllerParams(order=1)

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            _params(order=3, epsilons=(0.0, 1e-6))  # wrong length
        with pytest.raises(ValueError):
            _params(order=3, epsilons=(1e-6, 1e-6, 1e-6))  # k=1 not zero
        with pytest.raises(ValueError):
            _params(order=3, epsilons=(0.0, -1e-6, 1e-6))
        with pytest.raises(ValueError):
            _params(order=3, epsilons=(0.0, np.inf, 1e-6))


# == 2. Trace derivative =====================================================

class TestTraceDerivative:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_finite_difference(self, seed, k):
        adjacency = build_adjacency(_tie_free_config(6, 2, seed), 1.0, 2)
        h = 1e-6
        for i, j in ((0, 1), (2, 5), (4, 3)):
            analytic = trace_derivative(adjacency, k, i, j)
            bumped = []
            for delta in (h, -h):
                w = adjacency.weights.copy()
                w[i, j] += delta
                w[j, i] += delta
                bumped.append(np.trace(np.linalg.matrix_power(w, k)))
            numeric = (bumped[0] - bumped[1]) / (2.0 * h)
            assert analytic == approx(numeric, rel=1e-6, abs=1e-8)

    def test_first_power_has_zero_derivative(self):
        adjacency = build_adjacency(_tie_free_config(4, 2, 3), 1.0, 2)
        assert trace_derivative(adjacency, 1, 0, 1) == 0.0

    def test_validation(self):
        adjacency = build_adjacency(_tie_free_config(4, 2, 3), 1.0, 2)
        with pytest.raises(ValueError):
            trace_derivative(adjacency, 0, 0, 1)
        with pytest.raises(ValueError):
            trace_derivative(adjacency, 2, 0, 4)
        with pytest.raises(ValueError):
            trace_derivative(adjacency, 2, 1, 1)


# == 3. Moment gradients =====================================================

class TestMomentGradient:
    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_difference(self, metric, seed):
        config = _tie_free_config(6, 2, seed)
        params = _params(metric=metric, order=4)
        for k in range(2, 5):
            def field(c, k=k):
                adjacency = build_adjacency(c, params.decay, params.metric)
                return spectral_moments(adjacency, params.order).values[k - 1]

            analytic = moment_gradient(config, params, k)
            numeric = finite_difference_gradient(field, config)
            assert _norm_close(analytic, numeric, 1e-6)

    def test_gradient_shape(self):
        config = _tie_free_config(5, 3, 7)
        grad = moment_gradient(config, _params(order=3), 2)
        assert grad.shape == (5, 3)

    def test_moment_index_bounds(self):
        config = _tie_free_config(5, 2, 7)
        params = _params(order=3)
        with pytest.raises(ValueError):
            moment_gradient(config, params, 1)
        with pytest.raises(ValueError):
            moment_gradient(config, params, 4)

    def test_order_above_robot_count(self):
        config = _tie_free_config(3, 2, 7)
        with pytest.raises(ValueError):
            moment_gradient(config, _params(order=4), 2)


# == 4. Cost and control law =================================================

class TestCost:
    def test_hand_formula_two_robots(self):
        config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0]])
        params = _params(order=2)
        a = np.exp(-1.0)
        targets = TargetSpectrum([0.0, 0.5])
        resid = a * a - 0.5
        assert cost(config, targets, params) == approx(resid * resid / 8.0)

    def test_zero_at_exact_target(self):
        config = _tie_free_config(5, 2, 11)
        params = _params(order=4)
        targets = _targets_below(config, params, fraction=1.0)
        assert cost(config, targets, params) == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonnegative(self, seed):
        config = _tie_free_config(6, 2, seed)
        params = _params(order=5)
        targets = _targets_below(config, params)
        assert cost(config, targets, params) >= 0.0

    def test_order_mismatch_rejected(self):
        config = _tie_free_config(5, 2, 11)
        with pytest.raises(ValueError):
            cost(config, TargetSpectrum([0.0, 0.5, 0.5]), _params(order=4))


class TestControlLaw:
    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_is_negative_cost_gradient(self, metric, seed):
        config = _tie_free_config(6, 2, seed)
        params = _params(metric=metric, order=4)
        targets = _targets_below(config, params)
        velocities = control_law(config, targets, params)
        numeric = finite_difference_gradient(
            lambda c: cost(c, targets, params), config
        )
        assert _norm_close(velocities, -numeric, 1e-5)

    def test_matches_per_moment_assembly(self):
        config = _tie_free_config(6, 2, 5)
        params = _params(order=5)
        targets = _targets_below(config, params)
        adjacency = build_adjacency(config, params.decay, params.metric)
        moments = spectral_moments(adjacency, params.order)
        assembled = np.zeros((config.n, config.d))
        for k in range(2, params.order + 1):
            resid = moments.values[k - 1] - targets.moments[k - 1]
            assembled += (resid / (2.0 * k)) * moment_gradient(config, params, k)
        velocities = control_law(config, targets, params)
        assert np.allclose(velocities, -assembled, rtol=1e-12, atol=1e-13)

    def test_zero_at_exact_target(self):
        config = _tie_free_config(5, 2, 13)
        params = _params(order=3)
        targets = _targets_below(config, params, fraction=1.0)
        velocities = control_law(config, targets, params)
        assert np.allclose(velocities, 0.0, atol=1e-15)


# == 5. Barrier and its gradient =============================================

class TestBarrier:
    def test_hand_formula(self):
        config = _tie_free_config(5, 2, 17)
        eps = (0.0, 1e-3, 2e-3, 0.0)
        params = _params(order=4, epsilons=eps)
        targets = _targets_below(config, params)
        adjacency = build_adjacency(config, params.decay, params.metric)
        moments = spectral_moments(adjacency, params.order).values
        expected = 0.0
        for k in (2, 3):
            margin = moments[k - 1] - targets.moments[k - 1]
            expected += eps[k - 1] / (4.0 * k * margin * margin)
        assert barrier(config, targets, params) == approx(expected, rel=1e-12)

    def test_zero_when_disabled(self):
        config = _tie_free_config(5, 2, 17)
        params = _params(order=3, epsilons=(0.0, 0.0, 0.0))
        # Targets above the current moments: infeasible, but a barrier with
        # every constant zero never inspects margins.
        targets = TargetSpectrum([0.0, 100.0, 100.0])
        assert barrier(config, targets, params) == 0.0
        assert np.all(barrier_gradient(config, targets, params) == 0.0)

    def test_zero_when_all_constants_vanish(self):
        config = _tie_free_config(5, 2, 17)
        params = _params(order=3, epsilons=(0.0, 0.0, 0.0))
        targets = _targets_below(config, params)
        assert barrier(config, targets, params) == 0.0

    def test_raises_on_nonpositive_margin(self):
        config = _tie_free_config(5, 2, 19)
        params = _params(order=3)
        targets = TargetSpectrum([0.0, 100.0, 100.0])
        with pytest.raises(InfeasibleStateError):
            barrier(config, targets, params)
        with pytest.raises(InfeasibleStateError):
            barrier_gradient(config, targets, params)

    def test_underflowing_margin_is_quietly_infinite(self):
        # Margins near 1e-131: 4k margin^2 and the cube underflow to 0.
        params = _params(order=4, epsilons=(0.0, 0.1, 0.15, 0.2))
        targets = _targets_below(_FAR_TEAM, params, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert barrier(_FAR_TEAM, targets, params) == np.inf
            assert barrier_gradient(_FAR_TEAM, targets, params).shape == (4, 2)

    @pytest.mark.parametrize("gap", [118.0, 121.0, 123.0, 125.0])
    def test_cube_of_a_tiny_margin_stays_quiet(self, gap):
        # Two robots: m_2 = w^2 and the margin is w^2 / 2, from 1.6e-103 down to 1.3e-109,
        # where the cube goes subnormal (eps / cube overflows) and then to 0.
        config = RobotConfiguration([[0.0], [gap]])
        params = _params(order=2, epsilons=(0.0, 0.1))
        targets = TargetSpectrum([0.0, math.exp(-gap) ** 2 / 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert barrier(config, targets, params) > 1e200
            barrier_gradient(config, targets, params)

    def test_grows_near_boundary(self):
        config = _tie_free_config(5, 2, 23)
        params = _params(order=2, epsilons=(0.0, 1e-6))
        adjacency = build_adjacency(config, params.decay, params.metric)
        m2 = spectral_moments(adjacency, 2).values[1]
        near = barrier(config, TargetSpectrum([0.0, m2 - 1e-3]), params)
        far = barrier(config, TargetSpectrum([0.0, m2 - 1e-1]), params)
        assert near > far * 100.0


class TestBarrierGradient:
    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_difference(self, metric, seed):
        config = _tie_free_config(6, 2, seed)
        # Large constants and wide margins keep the finite-difference
        # stencil well inside the smooth region.
        params = _params(metric=metric, order=4, epsilons=(0.0, 1e-3, 1e-3, 1e-3))
        targets = _targets_below(config, params, fraction=0.5)
        analytic = barrier_gradient(config, targets, params)
        numeric = finite_difference_gradient(
            lambda c: barrier(c, targets, params), config
        )
        assert _norm_close(analytic, numeric, 1e-5)

    def test_matches_per_moment_assembly(self):
        config = _tie_free_config(6, 2, 7)
        eps = (0.0, 1e-3, 0.0, 2e-3)
        params = _params(order=4, epsilons=eps)
        targets = _targets_below(config, params, fraction=0.5)
        adjacency = build_adjacency(config, params.decay, params.metric)
        moments = spectral_moments(adjacency, params.order)
        assembled = np.zeros((config.n, config.d))
        for k in range(2, params.order + 1):
            if eps[k - 1] == 0.0:
                continue
            margin = moments.values[k - 1] - targets.moments[k - 1]
            assembled += (
                -eps[k - 1] / (2.0 * k * margin**3)
            ) * moment_gradient(config, params, k)
        analytic = barrier_gradient(config, targets, params)
        assert np.allclose(analytic, assembled, rtol=1e-12, atol=1e-14)

    def test_pushes_margins_outward(self):
        # Moving against the barrier gradient must increase every guarded
        # margin's barrier term in aggregate: b decreases along -grad b.
        config = _tie_free_config(5, 2, 29)
        params = _params(order=3, epsilons=(0.0, 1e-4, 1e-4))
        targets = _targets_below(config, params, fraction=0.8)
        grad = barrier_gradient(config, targets, params)
        before = barrier(config, targets, params)
        nudged = RobotConfiguration(config.positions - 1e-6 * grad)
        after = barrier(nudged, targets, params)
        assert after < before

    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("eps", [0.1, 1e6])
    def test_overflowing_coefficient(self, metric, eps):
        # Two robots with the margin w^2 / 2: from a gap of 118.5 (margin 5.9e-104) on,
        # eps / margin^3 overflows though the barrier and its gradient fit in floats; at 200
        # the barrier is inf too, and so is its gradient, outward.
        params = _params(metric=metric, order=2, epsilons=(0.0, eps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gap in (118.5, 120.0, 130.0, 150.0, 200.0):
                config = RobotConfiguration([[0.0], [gap]])
                targets = TargetSpectrum([0.0, math.exp(-gap) ** 2 / 2.0])
                analytic = barrier_gradient(config, targets, params)
                with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs
                    drift = gradient._evaluate(config, targets, params).drift
                np.testing.assert_allclose(drift, -analytic, rtol=1e-12)
                if gap == 200.0:
                    assert barrier(config, targets, params) == np.inf
                    assert analytic.ravel().tolist() == [-np.inf, np.inf]
                    continue
                numeric = finite_difference_gradient(barrier, config, targets, params)
                assert np.all(np.isfinite(numeric))
                assert np.abs(analytic - numeric).max() <= 1e-8 * np.abs(numeric).max()

    def test_overflowing_coefficient_beside_a_wide_margin(self):
        # A triangle of side 23 (weights 1e-10) with eps_2 = 1e225 and the m_2 margin at 1e-10
        # of m_2: eps_2 / margin^3 is 1.3e314, the gradient near 1e295.  The unguarded m_3
        # margin of 1e8 still enters the drift, at the same scale as the barrier's coefficient.
        config = RobotConfiguration([[0.0, 0.0], [23.0, 0.0], [11.5, 23.0 * math.sqrt(0.75)]])
        params = _params(metric=2, order=3, epsilons=(0.0, 1e225, 0.0))
        moments = spectral_moments(build_adjacency(config, 1.0, 2), 3).values
        targets = TargetSpectrum([0.0, moments[1] * (1.0 - 1e-10), moments[2] - 1e8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic = barrier_gradient(config, targets, params)
            with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs
                drift = gradient._evaluate(config, targets, params).drift
        assert np.all(np.isfinite(analytic)) and np.abs(analytic).max() > 1e290
        pull = control_law(config, targets, params)  # -grad f, from the m_3 margin
        assert np.abs(pull).max() > 1e-30
        np.testing.assert_allclose(drift, pull - analytic, atol=1e-12 * np.abs(analytic).max())


class TestOverflowingTeam:
    # Robots at x = +-1.7e308 differ by inf and weigh 0 to every robot, so
    # 0 * inf must never form.  Both ways of forming the differences are
    # forced by patching the switch: one broadcast below it, one batched BLAS
    # product at or above it.
    @pytest.mark.parametrize("metric", [1, 2])
    def test_gradients_stay_finite(self, metric):
        near = _tie_free_config(4, 2, 3).positions
        config = RobotConfiguration(np.vstack([[[1.7e308, 0.0], [-1.7e308, 0.0]], near]))
        params = _params(metric=metric, order=4, epsilons=(0.0, 1e-3, 1e-3, 1e-3))
        targets = _targets_below(config, params, fraction=0.5)
        tails = []
        for team in (config.n + 1, 2):
            with mock.patch.object(network, "_PRODUCT_TEAM", team), warnings.catch_warnings():
                warnings.simplefilter("error")
                gradients = np.stack([
                    control_law(config, targets, params),
                    barrier_gradient(config, targets, params),
                    moment_gradient(config, params, 3),
                ])
            assert np.all(gradients[:, :2] == 0.0)
            assert np.all(np.isfinite(gradients)) and np.any(gradients)
            tails.append(gradients)
        assert np.allclose(*tails, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("n", [6, network._PRODUCT_TEAM])
    def test_far_pair_on_one_coordinate(self, n, metric):
        # Two robots at x = 1.7e308 overflow the x coordinates' sum, and (as a
        # square) their Euclidean distance to the rest; they weigh 0 there.
        near = _tie_free_config(n - 2, 2, 5).positions
        config = RobotConfiguration(np.vstack([[[1.7e308, 0.0], [1.7e308, 1.0]], near]))
        params = _params(metric=metric, order=4, epsilons=(0.0, 1e-3, 1e-3, 1e-3))
        targets = _targets_below(config, params, fraction=0.5)
        drifts = []
        for team in (n + 1, 2):  # broadcast differences, then the product's
            with mock.patch.object(network, "_PRODUCT_TEAM", team), warnings.catch_warnings():
                warnings.simplefilter("error")
                drifts.append(control_law(config, targets, params))
            assert np.all(np.isfinite(drifts[-1]))
        broadcast, product = drifts
        assert np.all(broadcast[:2, 0] == 0.0) and broadcast[0, 1] == -broadcast[1, 1] != 0.0
        # Both form every x_i - x_j exactly, so every column agrees.
        assert np.array_equal(broadcast, product)



class TestZeroDistances:
    # Order 2 reads the flow's diagonal slice only where the drift marks zero
    # distances, so an empty slice leaves the diagonal's zeros in place and
    # makes the drift mask every zero: what it did before the diagonal fast path.
    @pytest.mark.parametrize("coincident", [False, True])
    @pytest.mark.parametrize("n", [7, network._PRODUCT_TEAM])
    def test_masked_as_every_zero(self, n, coincident):
        positions = 3.0 * np.random.default_rng(n).random((n, 2))
        if coincident:
            positions[1] = positions[0]
        params = _params(order=2, epsilons=(0.0, 1e-3))
        targets = _targets_below(RobotConfiguration(positions), params, fraction=0.5)
        flow, every_zero = _Flow(targets, params, n, 2), _Flow(targets, params, n, 2)
        every_zero.diagonal = slice(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drift = _Evaluation(flow, positions).drift
            reference = _Evaluation(every_zero, positions).drift
        assert np.all(np.isfinite(drift)) and np.any(drift)
        assert np.array_equal(drift, reference)
        if coincident:  # the pair's own term is 0, so the two see the team alike
            assert np.allclose(drift[0], drift[1], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
    def test_close_pair_in_a_large_team(self, gap):
        # 60 robots in a 5 x 5 box, with the switch patched to take the
        # product, then the broadcast.  Both contract exact differences, so the
        # pair's direction does not round to the box's extent.
        positions = 5.0 * np.random.default_rng(0).random((60, 2))
        positions[1] = positions[0] + [gap, 0.0]
        config = RobotConfiguration(positions)
        params = _params(order=4, epsilons=(0.0, 1e-3, 1e-3, 1e-3))
        targets = _targets_below(config, params, fraction=0.5)
        flow = _Flow(targets, params, 60, 2)
        with mock.patch.object(network, "_PRODUCT_TEAM", 2):
            product = _Evaluation(flow, positions).drift
        with mock.patch.object(network, "_PRODUCT_TEAM", 61):
            broadcast = _Evaluation(flow, positions).drift
        assert np.allclose(product, broadcast, rtol=1e-12, atol=0.0)

    def test_underflowing_square_keeps_its_direction(self):
        # A gap of 1e-170 squares to 0, yet the pair is not coincident: its
        # distance comes back from the kept differences, so it pulls as at
        # 1e-150, in a team of 3 and in one that takes the product.
        params, targets = _params(order=2), TargetSpectrum([0.0, 0.01])
        for n in (3, network._PRODUCT_TEAM):
            rest = [[1.0 + i % 8, 1.0 + i // 8] for i in range(n - 2)]
            drifts = [
                control_law(RobotConfiguration([[0.0, 0.0], [gap, 0.0], *rest]), targets, params)
                for gap in (1e-150, 1e-170)
            ]
            assert drifts[0][0, 0] != 0.0
            assert np.allclose(*drifts, rtol=1e-12, atol=0.0)


class TestMemory:
    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluation_and_drift_peak(self, d, metric):
        # The kept differences are d arrays; nothing else of size d n^2 forms.
        n = 256
        positions = 4.0 * np.random.default_rng(d).random((n, d))
        for order in range(2, 8):
            params = _params(metric=metric, order=order, epsilons=(0.0,) + (1e-3,) * (order - 1))
            flow = _Flow(_targets_below(RobotConfiguration(positions), params, 0.5), params, n, d)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert np.all(np.isfinite(_Evaluation(flow, positions).drift))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= (math.ceil(order / 2) + 4 + d) * n * n * 8


class TestReductions:
    @staticmethod
    def _team(n, d, seed):
        """Robots in a 4-wide box, with one about 1e200 away (an infinite Euclidean distance), a
        pair whose difference overflows to inf, a coincident pair and a pair 1e-163 apart at the
        origin (a squared gap that underflows)."""
        positions = 1.0 + 4.0 * np.random.default_rng(seed).random((n, d))
        positions[0, 0], positions[5, 0], positions[6, 0] = 1e200, 1.7e308, -1.7e308
        positions[2] = positions[1]
        positions[3:5] = 0.0
        positions[4, 0] = 1e-163
        return positions

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_team_takes_every_rare_branch(self, d):
        with np.errstate(over="ignore"):  # as the flow runs
            distance, differences = network._pairwise_distance(self._team(64, d, 0), 2)
        distance.ravel()[:: 64 + 1] = np.inf
        assert distance[0, 1] == np.inf and distance[1, 2] == distance[3, 4] == 0.0
        assert differences[0, 5, 6] == np.inf

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, network._PRODUCT_TEAM, 200])
    def test_equal_to_the_counts(self, n, d, order):
        # The Euclidean drift finds far and coincident pairs by max and min
        # reductions from _REDUCTION_TEAM robots on, below it by counting
        # entries: both give the same drift bit for bit, every rare branch taken.
        params = _params(order=order, epsilons=(0.0,) + (1e-3,) * (order - 1))
        team = self._team(n, d, n)
        flow = _Flow(_targets_below(RobotConfiguration(team), params, 0.3), params, n, d)
        drifts = []
        for switch in (0, n + 1):  # reductions, then counts
            with mock.patch.object(gradient, "_REDUCTION_TEAM", switch):
                with np.errstate(over="ignore", invalid="ignore"):  # as the flow runs
                    drifts.append(_Evaluation(flow, team).drift)
        assert np.all(np.isfinite(drifts[0])) and np.any(drifts[0])
        assert drifts[0].tobytes() == drifts[1].tobytes()


# == 6. Finite-difference oracle =============================================

class TestFiniteDifferenceGradient:
    def test_quadratic_field_exact(self):
        config = _tie_free_config(4, 2, 31)

        def field(c):
            return float(np.sum(c.positions**2))

        numeric = finite_difference_gradient(field, config, step=1e-5)
        assert np.allclose(numeric, 2.0 * config.positions, rtol=0.0, atol=1e-8)

    def test_second_order_convergence(self):
        config = _tie_free_config(3, 1, 37)

        def field(c):
            return float(np.sum(np.sin(c.positions)))

        exact = np.cos(config.positions)
        err_wide = np.abs(
            finite_difference_gradient(field, config, step=1e-2) - exact
        ).max()
        err_tight = np.abs(
            finite_difference_gradient(field, config, step=1e-3) - exact
        ).max()
        # Central differences: error ~ step^2, so 10x tighter step is
        # about 100x more accurate.
        assert err_tight < err_wide / 50.0

    def test_step_validation(self):
        config = _tie_free_config(3, 2, 0)
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda c: 0.0, config, step=0.0)
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda c: 0.0, config, step=-1e-6)

    def test_extra_arguments_reach_the_field(self):
        config = _tie_free_config(3, 2, 41)

        def field(c, scale, shift):
            return scale * float(np.sum(c.positions**2)) + shift

        numeric = finite_difference_gradient(field, config, 3.0, 5.0, step=1e-5)
        assert np.allclose(numeric, 6.0 * config.positions, rtol=0.0, atol=1e-8)
        with pytest.raises(TypeError):  # step is keyword-only: 1e-5 goes to the field
            finite_difference_gradient(lambda c: 0.0, config, 1e-5)


# == 7. Stacked evaluation ===================================================

class TestStackedValues:
    """finite_difference_gradient(field, config, targets, params) for cost and barrier."""

    @pytest.mark.parametrize("seed", range(36))
    def test_every_stencil_team_as_one_team(self, seed):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        largest = max(n for n in range(2, 100) if _stacks(n, d, 5))  # stacks at every s <= 5
        n = int(rng.integers(9, largest + 1)) if seed % 5 == 0 else int(rng.integers(2, 9))
        order = int(rng.integers(2, min(5, n) + 1))
        constants = (0.0,) * order if seed % 4 == 0 else (0.0, *rng.uniform(0.01, 0.3, order - 1))
        params = _params(metric=1 + seed // 3 % 2, order=order, epsilons=constants)
        config = _tie_free_config(n, d, seed)
        targets = _targets_below(config, params, rng.uniform(0.2, 0.9))
        for field in (cost, barrier):
            fd, [(teams, values)] = _stacked_route(field, config, targets, params)
            assert values.tobytes() == _one_by_one(field, teams, targets, params).tobytes()
            assert fd.tobytes() == _closure(field, config, targets, params).tobytes()

    def test_chunk_rule_at_s_5(self):
        # verify's order: d = 1 stacks up to 68 robots, d = 2 up to 64, d = 3 up to 60.
        routes = {(68, 1): True, (69, 1): False, (64, 2): True, (65, 2): False,
                  (56, 3): True, (60, 3): True, (61, 3): False, (63, 3): False}
        assert {key: _stacks(*key, 5) for key in routes} == routes

    @pytest.mark.parametrize("n, d, metric", [
        (2, 1, 1), (3, 3, 2), (6, 2, 1), (6, 2, 2), (9, 3, 1), (31, 2, 2), (63, 1, 1), (64, 1, 2),
        (63, 3, 1), (64, 3, 2), (68, 1, 1), (69, 1, 2), (64, 2, 1), (65, 2, 2), (56, 3, 2),
        (61, 3, 1),
    ])
    def test_verify_inputs_on_both_routes(self, n, d, metric):
        # As verify draws them: the cost at another team's moments, the barrier at half its own;
        # each on the route the chunk rule gives it.
        order = min(5, n)
        params = _params(metric=metric, order=order,
                         epsilons=(0.0, *(0.05 * (k + 2) for k in range(order - 1))))
        config = _tie_free_config(n, d, n * d)
        cases = ((cost, _targets_below(_tie_free_config(n, d, n * d + 1), params, 1.0)),
                 (barrier, _targets_below(config, params, 0.5)))
        for field, targets in cases:
            fd, calls = _stacked_route(field, config, targets, params)
            stacked = [values is not None for _, values in calls]
            assert stacked == ([True] if _stacks(n, d, order) else [])
            assert np.abs(fd).max() > 0.0
            assert fd.tobytes() == _closure(field, config, targets, params).tobytes()

    def test_a_field_traced_in_every_module_still_stacks(self, monkeypatch):
        # As a tracer does: one wrapper stands for cost wherever a momentflow module names it.
        def traced(*args, **kwargs):
            return cost(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("momentflow.")]:
            if getattr(module, "cost", None) is cost:
                monkeypatch.setattr(module, "cost", traced)
        config = _tie_free_config(7, 2, 13)
        params = _params(order=4)
        targets = _targets_below(config, params)
        fd, [(teams, values)] = _stacked_route(gradient.cost, config, targets, params)
        assert values.tobytes() == _one_by_one(cost, teams, targets, params).tobytes()
        assert fd.tobytes() == _closure(cost, config, targets, params).tobytes()

    @pytest.mark.parametrize("metric", [1, 2])
    def test_far_team(self, metric):
        params = _params(metric=metric, order=4, epsilons=(0.0, 0.1, 0.15, 0.2))
        targets = _targets_below(_FAR_TEAM, params, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for field in (cost, barrier):
                fd, [(teams, values)] = _stacked_route(field, _FAR_TEAM, targets, params)
                assert values.tobytes() == _one_by_one(field, teams, targets, params).tobytes()
                assert fd.tobytes() == _closure(field, _FAR_TEAM, targets, params).tobytes()
            assert values[0] == barrier(_FAR_TEAM, targets, params) == np.inf

    def test_infeasible_team_raises_as_barrier_does(self):
        config = _tie_free_config(5, 2, 3)
        params = _params(order=4, epsilons=(0.0, 0.1, 0.1, 0.1))
        # Targets at the team's own moments: some stencil teams fall below them, and the first
        # such team raises.
        targets = _targets_below(config, params, 1.0)
        with pytest.raises(InfeasibleStateError) as expected:
            _closure(barrier, config, targets, params)
        spy = mock.patch.object(gradient, "_stacked_values", wraps=gradient._stacked_values)
        with spy as kernel, pytest.raises(InfeasibleStateError) as raised:
            finite_difference_gradient(barrier, config, targets, params)
        assert kernel.call_count == 1  # the stack was tried, and gave way to the loop
        assert str(raised.value) == str(expected.value)
        # The cost guards no margin.
        fd, [(_, values)] = _stacked_route(cost, config, targets, params)
        assert values is not None
        assert fd.tobytes() == _closure(cost, config, targets, params).tobytes()

    def test_positions_that_are_not_finite_raise_as_one_team_does(self):
        # A step of 1e308 takes the first robot's 1e308 past the largest float.
        config = RobotConfiguration([[1e308, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        params = _params(order=3)
        targets = _targets_below(config, params)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="positions must be finite"):
                _closure(cost, config, targets, params, step=1e308)
            spy = mock.patch.object(gradient, "_stacked_values", wraps=gradient._stacked_values)
            with spy as kernel, pytest.raises(ValueError, match="positions must be finite"):
                finite_difference_gradient(cost, config, targets, params, step=1e308)
        assert kernel.call_count == 1

    def test_overflowing_moment_raises_as_one_team_does(self):
        # 144 robots within 1e-3 of each other: m_144 is about 143^144 / 144, past 1.8e308.
        n = 144
        config = RobotConfiguration(1e-3 * np.random.default_rng(7).random((n, 1)))
        params = _params(metric=1, order=n, epsilons=(0.0,) * n)
        targets = TargetSpectrum(np.zeros(n))
        with pytest.raises(ValueError) as expected:
            _closure(cost, config, targets, params)
        assert "overflows floats" in str(expected.value)
        # A budget of two teams a chunk takes the stacked route: its first chunk overflows, and
        # the loop raises.
        budget = 2 * (1 + n // 2 + 3) * 8 * n * n
        with mock.patch.object(gradient, "_STENCIL_BYTES", budget):
            assert _stacks(n, 1, n)
            chunks = mock.patch.object(np, "split", wraps=np.split)
            with chunks as split, pytest.raises(ValueError) as raised:
                _stacked_route(cost, config, targets, params)
        assert split.call_count == 1  # the stencil went into chunks
        assert str(raised.value) == str(expected.value)

    def test_other_fields_and_large_teams_go_one_team_a_call(self):
        # The smallest team whose chunk holds one team at d = 1, s = 3: the oracle declines it
        # before any stencil or chunk forms.
        n = min(n for n in range(2, 100) if not _stacks(n, 1, 3))
        assert n == 74
        config = _tie_free_config(n, 1, 11)
        params = _params(order=3)
        targets = _targets_below(config, params)
        with mock.patch.object(np, "split", wraps=np.split) as split:
            fd, calls = _stacked_route(cost, config, targets, params)
        assert calls == [] and split.call_count == 0
        assert fd.tobytes() == _closure(cost, config, targets, params).tobytes()

        def half_cost(c, targets, params):
            return cost(c, targets, params) / 2.0

        small = _tie_free_config(3, 2, 11)
        targets = _targets_below(small, params)
        fd, calls = _stacked_route(half_cost, small, targets, params)
        assert calls == []
        assert fd.tobytes() == _closure(half_cost, small, targets, params).tobytes()

    def test_a_declined_stencil_peaks_below_its_own_size(self):
        # 64 robots in space at s = 5: a chunk would hold one team, so no stencil forms, and the
        # oracle holds less than the 2 n d x n d floats that one would take.
        n, d, order = 64, 3, 5
        assert not _stacks(n, d, order)
        config = _tie_free_config(n, d, 5)
        params = _params(order=order)
        targets = _targets_below(config, params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fd = finite_difference_gradient(cost, config, targets, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.abs(fd).max() > 0.0
        assert peak < 2 * (n * d) ** 2 * 8

    @pytest.mark.parametrize("n, d", [(20, 3), (33, 2), (40, 3), (63, 1), (64, 2)])
    @pytest.mark.parametrize("order", [2, 5])
    def test_one_chunk_holds_the_byte_budget(self, n, d, order):
        config = _tie_free_config(n, d, n)
        params = _params(order=order, epsilons=(0.0,) + (0.1,) * (order - 1))
        targets = _targets_below(config, params, 0.5)
        # Held at once, the stencil's coordinate differences alone would pass the budget.
        assert 2 * n * d * d * n * n * 8 > gradient._STENCIL_BYTES
        kernel, peaks = gradient._stacked_values, []

        def measured(*args):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            values = kernel(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return values

        tracemalloc.start()
        try:
            with mock.patch.object(gradient, "_stacked_values", measured):
                finite_difference_gradient(barrier, config, targets, params)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] <= gradient._STENCIL_BYTES
