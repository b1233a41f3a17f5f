"""
Unit tests for the cost, barrier, and analytic gradient machinery.

Core claims:
    - ControllerParams validates decay, metric, order, and barrier constants;
      decay is a real and metric and order are ints, none of them a boolean,
      Python's or numpy's
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
    - the distances' +inf diagonal gives the Euclidean drift its zero
      self-terms: bitwise the drift of a careful route forced to mask a zero
      diagonal with every other zero gap, below the team-size switch and at
      it, with and without a coincident pair
    - 60 robots in a 5 x 5 box with a pair 1e-6, 1e-9 or 1e-12 apart get
      the same drift, to 1e-12 relative on every entry, from either way of
      forming differences
    - on both sides of the team-size switch, a Euclidean pair whose squared
      gap underflows (1e-170 apart) keeps its direction: the drift matches
      the pair's at 1e-150
    - one evaluation and its drift of 256 robots hold at most
      ceil(s/2) + 4 + d n x n arrays at once, for s = 2..7 and d = 1..3,
      also where the drift takes its careful route
    - the Euclidean drift divides first and checks its (n, d) rows once: on
      teams with a pair about 1e200 apart, one whose difference overflows, a
      coincident pair and a gap of 1e-163 it is finite, nonzero, the same bit
      for bit from broadcast and from product differences and bitwise the
      rows of an oracle that finds those pairs by a max and a min reduction
      over the distances (n = 8, 64 and 200, d = 1..3, s = 2, 4, 6); without
      a rare gap an evaluation and its drift form the distances once and
      reduce none of them, and with one the Euclidean drift forms them once
      more; rows that are each finite but whose squares overflow take the
      careful route too, and its drift is bitwise the fast route's, scaled
    - the drift's coefficients, formed in one pass, are bitwise the margins
      less the barrier gradient's coefficients, and a nonpositive guarded
      margin raises InfeasibleStateError from the drift too
    - the trial step stalls on a drift exactly when it has no nonzero entry,
      counting it only on a rejected trial or an accepted one whose f + b did
      not fall: zero rows and rows that the scale decay / n takes to 0 stall;
      rows whose squares underflow are accepted unmoved; NaN rows are
      rejected with dt halved; the careful route's rows stall only for a
      team at one point; a moving team's f + b falls with no count, under
      either metric; at decays from 5e-324 to 1e300 and three team sizes,
      rows of the least power of two that decay / n keeps go on (accepted
      unmoved, or rejected where every margin is 0) and rows below it stall
    - one pass over the flow's terms gives margins, cost and barrier bitwise
      the three loops' on nonpositive, tiny, ordinary and huge margins
    - control_law, barrier_gradient, cost, barrier and simulate raise no
      warning on a team with a coincident pair, a gap of 1e-163 and a robot
      1e200 away, nor on one with a coincident pair only, and every drift
      they form is the oracle's bit for bit
    - finite_difference_gradient is second-order accurate on a known field,
      passes its extra arguments to the field, and refuses a boolean step
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

import contextlib
import math
import operator
import re
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from pytest import approx

from momentflow import dynamics, gradient, network
from momentflow.dynamics import FlowStalled, SimulationSettings, simulate

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
from momentflow.scenarios import Scenario


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


def _max_min_route(mixed, dist, differences, scale):
    """The Euclidean drift's rows (decay / n) sum_j M_ij D_ij / dist_ij as a max and a min
    reduction over the distances find far and zero gaps before the division: the oracle of
    the route that divides first and checks its rows once."""
    n = dist.shape[0]
    if dist.max() == np.inf:
        differences[:, dist == np.inf] = 0.0
    dist.ravel()[:: n + 1] = np.inf
    if dist.min() == 0.0:
        gaps = differences[:, dist == 0.0]
        top = np.abs(gaps).max(axis=0)
        top[top == 0.0] = 1.0
        dist[dist == 0.0] = top * np.sqrt(np.square(gaps / top).sum(axis=0))
        dist[dist == 0.0] = np.inf
    mixed /= dist
    rows = np.vecdot(mixed, differences).T
    rows *= scale
    return rows


@contextlib.contextmanager
def _checked_against_max_min_route():
    """Within the block every Euclidean projection asserts its rows bitwise
    :func:`_max_min_route`'s on the distances, differences and M = A o W that it read (M as it
    reaches ``np.divide``); yields the list of the rows checked."""
    project, divide, checked = _Evaluation._project, np.divide, []

    def spied(state, coefficients):
        dist, differences, mixed = state._distance.copy(), state._differences.copy(), []

        def first_divide(numerator, denominator, out=None):
            if not mixed:
                mixed.append(numerator.copy())
            return divide(numerator, denominator, out=out)

        with mock.patch.object(np, "divide", first_divide):
            rows = project(state, coefficients)
        assert rows.tobytes() == _max_min_route(mixed[0], dist, differences,
                                                state.flow.scale).tobytes()
        checked.append(rows)
        return rows

    with mock.patch.object(_Evaluation, "_project", spied):
        yield checked


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

    def test_decay_is_a_real_not_a_bool(self):
        with pytest.raises(ValueError, match="^decay must be a positive real, got True$"):
            ControllerParams(decay=True)

    def test_decay_is_a_real_not_a_numpy_bool(self):
        # Accepted, np.True_ ran as a decay of 1.0.
        with pytest.raises(ValueError, match="^decay must be a positive real, got True$"):
            ControllerParams(decay=np.True_)

    @pytest.mark.parametrize("metric", [True, 2.0, np.int64(2)])
    def test_metric_is_an_int_not_a_bool(self, metric):
        # True ran as taxicab and 2.0 as Euclidean; a count is an int, as Scenario's n and d.
        message = re.escape(f"metric must be 1 or 2, got {metric!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ControllerParams(metric=metric)

    @pytest.mark.parametrize("epsilons", [(), (0.0, 1e-8, 1e-8)])
    @pytest.mark.parametrize("order", [3.0, True])
    def test_order_is_an_int_not_a_bool(self, order, epsilons):
        # order=3.0 with three epsilons constructed, then raised TypeError in the first cost.
        message = f"^order must be at least 2 and an integer, got {order!r}$"
        with pytest.raises(ValueError, match=message):
            ControllerParams(order=order, epsilons=epsilons)

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

    @pytest.mark.parametrize("k", [True, np.True_, 2.0])
    def test_power_is_an_integer_not_a_bool(self, k):
        adjacency = build_adjacency(_tie_free_config(4, 2, 3), 1.0, 2)
        with pytest.raises(ValueError, match=r"^power k must be an integer of at least 1, got "):
            trace_derivative(adjacency, k, 0, 1)
        assert trace_derivative(adjacency, np.int64(2), 0, 1) == trace_derivative(
            adjacency, 2, 0, 1)


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
        with pytest.raises(InfeasibleStateError):  # the drift's one pass hands it to the check
            gradient._evaluate(config, targets, params).drift

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

    @pytest.mark.parametrize("metric", [1, 2])
    def test_drift_coefficients_in_one_pass(self, metric):
        # The drift forms m_k - m_k* - eps_k / (m_k - m_k*)^3 in one pass: bitwise the projection
        # of the margins less the barrier gradient's own coefficients (eps_3 = 0 leaves m_3's).
        config = _tie_free_config(6, 2, 5)
        params = _params(metric=metric, order=5, epsilons=(0.0, 1e-3, 0.0, 1e-4, 1e-5))
        targets = _targets_below(config, params, fraction=0.9)
        state, reference = (gradient._evaluate(config, targets, params) for _ in range(2))
        terms, shift = reference._barrier_coefficients()
        expected = reference._project([m - t for m, t in zip(reference.margins, terms)])
        assert shift == 0 and state.drift.tobytes() == expected.tobytes()

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
    # Each robot's own term is 0 because its distance to itself is +inf.  The reference is
    # forced down the careful route with a zero diagonal, which it masks as one more zero
    # gap; the two agree bit for bit, with and without a coincident pair.
    @pytest.mark.parametrize("coincident", [False, True])
    @pytest.mark.parametrize("n", [7, network._PRODUCT_TEAM])
    def test_masked_as_every_zero(self, n, coincident):
        positions = 3.0 * np.random.default_rng(n).random((n, 2))
        if coincident:
            positions[1] = positions[0]
        params = _params(order=2, epsilons=(0.0, 1e-3))
        targets = _targets_below(RobotConfiguration(positions), params, fraction=0.5)
        flow = _Flow(targets, params, n, 2)

        def zero_diagonal(positions, metric, out=None):
            distance, differences = network._pairwise_distance(positions, metric, out)
            np.fill_diagonal(distance, 0.0)
            return distance, differences

        every_zero = _Evaluation(flow, positions)
        with np.errstate(divide="ignore", invalid="ignore"):  # as the flow runs
            drift = _Evaluation(flow, positions).drift
            with mock.patch.object(gradient, "_pairwise_distance", zero_diagonal), \
                    mock.patch.object(math, "isfinite", lambda value: False):
                reference = every_zero.drift
        assert np.all(np.isfinite(drift)) and np.any(drift)
        assert drift.tobytes() == reference.tobytes()
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
    @staticmethod
    def _peaks(positions, metric):
        """Peak bytes of one evaluation and its drift for s = 2..7, with the plan's bound."""
        n, d = positions.shape
        for order in range(2, 8):
            params = _params(metric=metric, order=order, epsilons=(0.0,) + (1e-3,) * (order - 1))
            flow = _Flow(_targets_below(RobotConfiguration(positions), params, 0.5), params, n, d)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as flows run
                    assert np.all(np.isfinite(_Evaluation(flow, positions).drift))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            yield peak, (math.ceil(order / 2) + 4 + d) * n * n * 8

    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_evaluation_and_drift_peak(self, d, metric):
        # The kept differences are d arrays; nothing else of size d n^2 forms.
        positions = 4.0 * np.random.default_rng(d).random((256, d))
        assert all(peak <= bound for peak, bound in self._peaks(positions, metric))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_careful_route_peak(self, d):
        # The careful route forms the distances and differences again, once it has let the
        # kept differences and the spent powers go.
        positions = TestReductions._team(256, d, d)
        assert all(peak <= bound for peak, bound in self._peaks(positions, 2))


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
        for n in (8, network._PRODUCT_TEAM):  # the check runs at every team size
            with np.errstate(over="ignore"):  # as the flow runs
                distance, differences = network._pairwise_distance(self._team(n, d, 0), 2)
            assert distance[0, 1] == np.inf and distance[1, 2] == distance[3, 4] == 0.0
            assert differences[0, 5, 6] == np.inf

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [8, network._PRODUCT_TEAM, 200])
    def test_equal_to_the_counts(self, n, d, order):
        # The Euclidean drift divides first and checks its (n, d) rows once.  On a team that
        # takes every rare branch the check fails and the careful route runs: the drift is
        # finite, nonzero and bitwise the rows of a max and a min reduction over the distances
        # (the oracle), from broadcast and from product differences alike.
        params = _params(order=order, epsilons=(0.0,) + (1e-3,) * (order - 1))
        team = self._team(n, d, n)
        flow = _Flow(_targets_below(RobotConfiguration(team), params, 0.3), params, n, d)
        drifts = []
        for switch in (n + 1, 2):  # broadcast differences, then the product's
            with mock.patch.object(network, "_PRODUCT_TEAM", switch), \
                    _checked_against_max_min_route() as checked, \
                    np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as flows run
                drifts.append(_Evaluation(flow, team).drift)
            assert len(checked) == 1
        assert np.all(np.isfinite(drifts[0])) and np.any(drifts[0])
        assert drifts[0].tobytes() == drifts[1].tobytes()

    def test_overflowing_check_takes_the_careful_route_bitwise(self):
        # Four robots at a unit square's corners, W = c A with c near the float limit: every
        # row is finite, but their squares overflow, so the check fails and the careful route
        # runs, at c / 16 too.  It finds no far pair and no zero gap, so its drift is the fast
        # route's at c / 2**600, scaled back, bit for bit (each step scales exactly).
        positions = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        params = ControllerParams(decay=1e-3, metric=2, order=2)
        flow, calls, drifts = _Flow(TargetSpectrum([0.0, 0.0]), params, 4, 2), [], []

        def counted(positions, metric, out=None):
            calls.append(metric)
            return network._pairwise_distance(positions, metric, out)

        for coefficient in (8e307, 8e307 / 16, 8e307 * 2.0**-600):
            with mock.patch.object(gradient, "_pairwise_distance", counted), \
                    np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as flows run
                drifts.append(_Evaluation(flow, positions)._project([coefficient]))
        assert calls == [2, 2, 2, 2, 2]  # the careful route's distances, at c and c / 16 only
        assert np.all(np.isfinite(drifts[0])) and np.abs(drifts[0]).min() > 1e304
        assert drifts[0].tobytes() == np.ldexp(drifts[1], 4).tobytes()
        assert drifts[0].tobytes() == np.ldexp(drifts[2], 600).tobytes()

    @pytest.mark.parametrize("metric", [1, 2])
    def test_distances_formed_once_and_never_scanned(self, metric):
        # Without a rare gap, an evaluation and its drift form the distances once and reduce
        # none of them; the every-rare-branch team forms them once more for the careful route,
        # which only the Euclidean drift has.
        calls, reductions = [], []
        pairwise_distance = network._pairwise_distance

        class Watched(np.ndarray):
            """Distances that log each reduction over them."""

            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if method == "reduce":
                    reductions.append(ufunc.__name__)
                if out is not None:
                    kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
                inputs = [x.view(np.ndarray) if isinstance(x, Watched) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        def watched(positions, metric, out=None):
            calls.append(metric)
            distance, differences = pairwise_distance(positions, metric, out)
            return distance.view(Watched), differences

        params = _params(metric=metric, order=4, epsilons=(0.0, 1e-3, 1e-3, 1e-3))
        for n in (8, network._PRODUCT_TEAM, 200):
            for d in (1, 2, 3):
                plain = 4.0 * np.random.default_rng(n + d).random((n, d))
                for team, careful in ((plain, False), (self._team(n, d, n), metric == 2)):
                    flow = _Flow(_targets_below(RobotConfiguration(team), params, 0.3),
                                 params, n, d)
                    del calls[:], reductions[:]
                    with mock.patch.object(gradient, "_pairwise_distance", watched), \
                            np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        assert np.all(np.isfinite(_Evaluation(flow, team).drift))
                    assert calls == [metric] * (1 + careful)
                    assert careful or reductions == []


class TestErrorState:
    # The drift divides before it checks for a zero gap; the entry points' error state keeps
    # that quiet, and every drift is the max and min reductions' bit for bit.
    @staticmethod
    def _team(coincident_only):
        positions = 1.0 + 4.0 * np.random.default_rng(3).random((8, 2))
        positions[2] = positions[1]
        if not coincident_only:
            positions[3:5] = 0.0
            positions[4, 0] = 1e-163
            positions[0, 0] = 1e200
        return positions

    @pytest.mark.parametrize("coincident_only", [False, True])
    def test_entry_points_raise_no_warning(self, coincident_only):
        config = RobotConfiguration(self._team(coincident_only))
        params = _params(order=4, epsilons=(0.0, 1e-3, 1e-3, 1e-3))
        targets = _targets_below(config, params, 0.3)
        scenario = Scenario(name="rare", n=8, d=2, params=params, targets=targets,
                            settings=SimulationSettings(max_time=0.5),
                            initial_positions=config.positions)
        with warnings.catch_warnings(), _checked_against_max_min_route() as checked:
            warnings.simplefilter("error")
            gradients = [control_law(config, targets, params),
                         barrier_gradient(config, targets, params)]
            values = [cost(config, targets, params), barrier(config, targets, params)]
            record = simulate(scenario)
        assert all(np.all(np.isfinite(g)) and np.any(g) for g in gradients)
        assert all(map(math.isfinite, values))
        # Two drifts, then the flow's: one for each state it stepped from, all accepted.
        assert record.rejected_steps == 0 and len(checked) == 2 + record.accepted_steps > 2


class TestStill:
    """A drift is still exactly when it has no nonzero entry, and the trial step decides it:
    ``dynamics._advance`` counts the drift's entries only on a rejected trial or an accepted
    one whose f + b did not fall, and stalls on a count of 0."""

    @staticmethod
    def _advance(positions, decay, margins=None, metric=2, drift=None, dt=0.05):
        """A team's state, its margins replaced if given (no barrier) and its drift if given;
        then its trial step at dt, or the FlowStalled it raised; its drift; and the count calls
        and distance matrices that the drift and the trial step made."""
        order = 3 if margins is None else len(margins) + 1
        params = ControllerParams(decay=decay, metric=metric, order=order, epsilons=(0.0,) * order)
        config = RobotConfiguration(positions)
        state = gradient._evaluate(config, TargetSpectrum(np.zeros(order)), params)
        if margins is not None:
            state.margins = list(margins)
        count, distance, counted, formed = np.count_nonzero, gradient._pairwise_distance, [], []

        def counting(array):
            counted.append(array)
            return count(array)

        def forming(positions, metric, out=None):
            formed.append(metric)
            return distance(positions, metric, out)

        with mock.patch.object(np, "count_nonzero", counting), \
                mock.patch.object(gradient, "_pairwise_distance", forming), \
                mock.patch.object(_Evaluation, "_project", lambda state, coefficients: drift) \
                if drift is not None else contextlib.nullcontext(), \
                np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as flows run
            rows = state.drift
            formed.clear()  # the candidate's distances, not the drift's, from here on
            try:
                outcome = dynamics._advance(state, dt)
            except FlowStalled as stall:
                outcome = stall
        return state, outcome, rows, len(counted), formed

    @staticmethod
    def _stalled(outcome):
        return isinstance(outcome, FlowStalled) and "drift is exactly zero" in str(outcome)

    @staticmethod
    def _unmoved(state, outcome):
        """Accepted, dt kept, with the state's positions and f + b."""
        candidate, accepted, dt = outcome
        return accepted and dt == 0.05 and np.array_equal(candidate.positions, state.positions) \
            and candidate.cost + candidate.barrier == state.cost + state.barrier

    _SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]]

    @pytest.mark.parametrize("margin", [0.0, -0.0])
    def test_zero_rows_are_still(self, margin):
        # All +-0: the candidate is the state, accepted with f + b unchanged, so one count
        # decides, and the step stalls.
        state, outcome, drift, counts, _ = self._advance(self._SQUARE, 1.0, [margin, -0.0, margin])
        assert not np.any(drift) and self._stalled(outcome) and counts == 1

    def test_rows_whose_squares_underflow_move(self):
        # Rows near 1e-170: their squares underflow to 0, yet they are no stall.  At scale 1/4,
        # exact, the drift's rows are 4 times the unscaled ones; dt times them moves no
        # coordinate of the square shifted off 0, so the step is accepted with f + b unchanged,
        # after one count.
        square = np.add(self._SQUARE, 1.0)
        state, outcome, drift, counts, _ = self._advance(square, 1.0, [1e-170, 1e-170])
        rows = 4.0 * drift
        assert 0 < np.abs(rows).max() < 1e-169 and np.vdot(rows, rows) == 0.0
        assert self._unmoved(state, outcome) and counts == 1

    def test_rows_the_scale_underflows_are_still(self):
        # c = 1e-300 weighs every pair 1.0; rows near 1e-30 are nonzero, and the scale 2.5e-301
        # takes every entry to 0: a stall, as the count says.
        state, outcome, drift, counts, _ = self._advance(self._SQUARE, 1e-300, [1e-30, 1e-30])
        twin = gradient._evaluate(RobotConfiguration(self._SQUARE), TargetSpectrum(np.zeros(3)),
                                  ControllerParams(decay=1e-300, metric=2, order=3,
                                                   epsilons=(0.0,) * 3))
        twin.margins, twin.flow.scale = [1e-30, 1e-30], 1.0
        assert np.all(twin.drift) and not np.any(drift)
        assert self._stalled(outcome) and counts == 1

    @pytest.mark.parametrize("positions, still", [
        ([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], False),
        ([[0.5, 0.5]] * 4, True),
    ])
    def test_careful_route_counts(self, positions, still):
        # A coincident pair makes a NaN row: the careful route forms the distances again and its
        # rows are finite.  The team with one pair is no stall: with the state's own margins its
        # f + b falls, with no count; the team at one point has a zero drift and stalls.
        state, outcome, drift, counts, _ = self._advance(positions, 1.0)
        assert np.all(np.isfinite(drift)) and np.any(drift) is not still
        if still:
            assert self._stalled(outcome) and counts == 1
        else:
            candidate, accepted, dt = outcome
            assert accepted and candidate.cost < state.cost and counts == 0

    @pytest.mark.parametrize("metric", [1, 2])
    def test_a_moving_team(self, metric):
        # A descent whose f + b falls needs no count, under either metric, and a candidate
        # forms the distances once.
        state, outcome, drift, counts, formed = self._advance(self._SQUARE, 1.0, metric=metric)
        candidate, accepted, _ = outcome
        assert accepted and candidate.cost + candidate.barrier < state.cost + state.barrier
        assert np.all(np.isfinite(drift)) and (counts, formed) == (0, [metric])

    def test_nan_rows_are_rejected(self):
        # NaN coefficients make NaN rows, which are not still: the candidate is not finite, so
        # the step is rejected, dt halved, after one count.
        state, outcome, drift, counts, _ = self._advance(self._SQUARE, 1.0, [np.nan, np.nan])
        assert np.isnan(drift).all() and outcome == (state, False, 0.025) and counts == 1

    @pytest.mark.parametrize("decay", [5e-324, 1e-320, 1e-300, 1e-250, 1e-170, 1e-100, 1.0,
                                       1e100, 1e300])
    @pytest.mark.parametrize("n, d", [(2, 1), (4, 2), (64, 3)])
    def test_rows_above_the_bound_keep_an_entry(self, decay, n, d):
        # The bound is the least power of two that the drift's scale decay / n keeps nonzero.
        # Rows of that power keep an entry: the step goes on, moving no robot, accepted where
        # the team is feasible and rejected, dt halved, where c >= 1e100 takes every weight and
        # so every margin to 0.  Rows of the power below it, or of any power where decay / n
        # underflowed, scale to zeros, and the trial step stalls; both reach one count.
        positions = np.random.default_rng(n).random((n, d))
        scale = _Flow(TargetSpectrum([0.0, 0.0]), ControllerParams(decay=decay), n, d).scale
        bound = next((e for e in range(-1074, 1024) if math.ldexp(1.0, e) * scale), None)
        if bound is None:
            assert scale == 0.0
        else:
            drift = np.full((n, d), math.ldexp(1.0, bound)) * scale
            state, outcome, _, counts, _ = self._advance(positions, decay, [0.0], drift=drift)
            assert np.all(drift) and counts == 1
            if decay < 1e100:
                assert self._unmoved(state, outcome)
            else:
                assert max(state.margins) == 0.0 and outcome == (state, False, 0.025)
        for exponent in [1023] if bound is None else [bound - 1] * (bound > -1074):
            drift = np.full((n, d), math.ldexp(1.0, exponent)) * scale
            _, outcome, _, counts, _ = self._advance(positions, decay, [0.0], drift=drift)
            assert not np.any(drift) and self._stalled(outcome) and counts == 1


class TestOnePassScalars:
    @staticmethod
    def _three_loops(moments, goal, epsilons):
        """The cost and barrier as three loops formed them: margins, then the cost, then the
        barrier over the guarded terms, each left to right."""
        margins = list(map(operator.sub, moments[1:], goal[1:]))
        cost = barrier = 0.0
        for k, margin in enumerate(margins, 2):
            cost += margin * margin / (4.0 * k)
        for k, eps in enumerate(epsilons[1:], 2):
            if eps:
                margin = margins[k - 2]
                barrier += eps / q if margin > 0 and (q := 4.0 * k * margin * margin) else np.inf
        return margins, cost, barrier

    @pytest.mark.parametrize("seed", range(40))
    def test_bitwise_the_three_loops(self, seed, monkeypatch):
        # Margins nonpositive, tiny (4k m^2 underflows to 0), ordinary and huge (m^2 overflows),
        # some goals 0 so that a tiny moment is its margin; constants 0, tiny, ordinary, huge.
        rng = np.random.default_rng(seed)
        order = int(rng.integers(2, 9))
        kinds = rng.integers(0, 4, size=order)
        magnitude = np.choose(kinds, [rng.uniform(0.0, 2.0, order), 10.0 ** rng.uniform(
            -200, -155, order), rng.uniform(0.0, 5.0, order), 10.0 ** rng.uniform(150, 300, order)])
        moments = (magnitude * np.where(kinds == 0, -1.0, 1.0)).tolist()
        moments[0] = 0.0
        goal = np.where(kinds % 2, 0.0, rng.uniform(0.0, 3.0, order))
        goal[0] = 0.0
        epsilons = (0.0, *map(float, rng.choice([0.0, 1e-300, 1e-9, 0.1, 1e300], order - 1)))
        params = ControllerParams(decay=1.0, metric=2, order=order, epsilons=epsilons)
        monkeypatch.setattr(gradient, "_half_chain",
                            lambda weights, plan, out=None: (moments, [weights]))
        state = _Evaluation(_Flow(TargetSpectrum(goal), params, 8, 2), np.ones((8, 2)))
        expected = self._three_loops(moments, goal.tolist(), epsilons)
        assert [float.hex(x) for x in state.margins] == [float.hex(x) for x in expected[0]]
        assert float.hex(state.cost) == float.hex(expected[1])
        assert float.hex(state.barrier) == float.hex(expected[2])


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

    @pytest.mark.parametrize("step", [True, np.True_])
    def test_step_is_a_real_not_a_bool(self, step):
        # Accepted, True ran as a step of 1.0; np.True_ raised a TypeError from -step.
        config = _tie_free_config(3, 2, 0)
        with pytest.raises(ValueError, match="^step must be a positive real, got True$"):
            finite_difference_gradient(lambda c: 0.0, config, step=step)

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
