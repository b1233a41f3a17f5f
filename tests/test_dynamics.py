"""
Unit tests for the closed-loop flow: feasibility, stepping, simulation.

Core claims:
    - SimulationSettings and TrajectoryRecord validate their inputs;
      record_every is a positive integer, not a float or a boolean, and dt,
      max_time and cost_tolerance are reals, not booleans, Python's or numpy's
    - feasibility_margin returns m_k - m_k* for k = 2..s with correct signs
    - ensure_feasible returns feasible starts unchanged, repairs infeasible
      ones by centroid compression, holding one evaluation at a time, and
      rejects unrealizable targets
    - step accepts exactly the feasible, potential-nonincreasing candidates,
      halves dt on rejection, and stalls at the step-size floor; its dt is a
      real, not a boolean; an infeasible state with a zero drift stalls
      rather than halving dt, under either metric
    - simulate terminates with the right reason (converged, horizon,
      stalled), keeps f + b nonincreasing and margins positive along the
      recorded trajectory, never runs past the horizon, and is
      deterministic for identical scenarios
    - a run that spends MAX_TRIAL_STEPS trial steps without converging
      ends stalled and says so; one that converges on its last allowed
      trial step converges
    - a start with exactly zero drift stalls without counting non-moves,
      under either metric
    - simulate evaluates each configuration once: one distance matrix per
      start check and per trial step, the start's last check being the
      first state, and the presets keep their step counts
    - momentflow's own code opens at most about 11.7 Python frames per trial
      step on hexagon7, its start and record included
    - a drift stalls the trial step only if it has no nonzero entry: all
      -0.0 stalls, zeros and one NaN are rejected as a non-finite candidate
    - a trial step, accepted or rejected, wraps no moment vector,
      adjacency or configuration; the record wraps one moment vector per
      sample and one adjacency
    - a candidate's moments take ceil(s/2) - 1 n x n products, and a
      state's drift one more, only from s = 4 on
    - the arrays a drift overwrites in place are never read by a live
      state: the public step, which evaluates every state afresh, replays
      a flow's trial steps to the same accept/reject sequence and the same
      final positions, also when each drift's kept coordinate differences
      are overwritten with NaN once it has consumed them
    - targets with m_2* = 0 and some m_k* > 0 are unrealizable; all-zero
      targets are not
    - a step whose candidate, its distances or its moments overflow, or
      whose drift sends a coordinate to +-inf or NaN, is rejected without a
      numpy warning; a finite candidate whose coordinates' sum overflows is
      evaluated
    - simulate and step leave numpy's error state as they found it, on
      every exit path
    - a start too far apart for any weight to register is repaired, also
      when its reach overflows; one that rounding keeps from contracting, a
      pair at x = 1.7e308 among them, or that 5,000 contractions leave too
      far apart raises ValueError, whose message says which
    - 200 robots from a seeded unit-square start with targets from a 20 x 20
      formation stall after 23 rejected trial steps, and the record's final
      eigenvalues and moments are bitwise those of its final configuration;
      256 robots, stalled the same way or stopped at their horizon, peak
      within their plan's n x n arrays
"""

import dataclasses
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from pytest import approx

from momentflow import dynamics, gradient, network
from momentflow.dynamics import (
    DEFAULT_MIN_STEP,
    FlowStalled,
    SimulationSettings,
    TrajectoryRecord,
    TrajectorySample,
    UnrealizableTargetsError,
    ensure_feasible,
    feasibility_margin,
    simulate,
    step,
)
from momentflow.gradient import (
    ControllerParams,
    TargetSpectrum,
    barrier,
    barrier_gradient,
    control_law,
    cost,
)
from momentflow.network import (
    MomentVector,
    RobotConfiguration,
    WeightedAdjacency,
    _max_planned_order,
    build_adjacency,
    spectral_moments,
)
from momentflow.scenarios import (
    Scenario,
    preset,
    random_geometric_config,
    target_from_formation,
)


# -- Helpers -----------------------------------------------------------------

def _params(order=3, metric=2, **kwargs):
    return ControllerParams(decay=1.0, metric=metric, order=order, **kwargs)


def _reachable_scenario(seed=0, order=2, n=5, tol=1e-4):
    """Random start steering toward 80% of its own starting moments.

    Order 2 keeps the descent one-dimensional in moment space: with a
    single controlled moment there are no cross-moment boundary slides, so
    every run here converges in a few dozen steps.  The tests in this
    module probe bookkeeping, not endurance.
    """
    params = _params(order=order)
    shape = random_geometric_config(n, 2, seed)
    adjacency = build_adjacency(shape, params.decay, params.metric)
    targets = TargetSpectrum(0.8 * spectral_moments(adjacency, order).values)
    return Scenario(
        name="reachable",
        n=n,
        d=2,
        params=params,
        targets=targets,
        settings=SimulationSettings(cost_tolerance=tol),
        seed=seed,
    )


def _rejecting_scenario(order, metric):
    """Seven robots whose flow, with dt = 4, rejects steps as well as accepting them."""
    rng = np.random.default_rng(order)
    params = _params(order=order, metric=metric)
    formation = RobotConfiguration(3.0 * rng.random((7, 2)))
    return Scenario(
        name="rejects",
        n=7,
        d=2,
        params=params,
        targets=target_from_formation(formation, params),
        settings=SimulationSettings(dt=4.0, max_time=4.0),
        initial_positions=rng.random((7, 2)),
    )


def _recorded_advances(monkeypatch, products=None):
    """Record (dt, drift known before, accepted, products) per trial step.

    ``products``, a list, collects one entry per n x n product.
    """
    trials = []
    advance = dynamics._advance

    def recorded(state, dt):
        known, before = state._drift is not None, len(products or ())
        result = advance(state, dt)
        trials.append((dt, known, result[1], len(products or ()) - before))
        return result

    monkeypatch.setattr(dynamics, "_advance", recorded)
    return trials


def _unbuildable_candidates(monkeypatch):
    """Make every trial step's candidate unbuildable, so every step is rejected.

    Every drift is infinite, so no candidate has finite positions.
    """
    def infinite(state, coefficients):
        return np.full(state.positions.shape, np.inf)

    monkeypatch.setattr(gradient._Evaluation, "_project", infinite)


def _two_robot_state(gap=1.0, target=0.05):
    """One-dimensional pair with m_2 = exp(-2 gap) and an order-2 target."""
    config = RobotConfiguration([[0.0], [float(gap)]])
    params = ControllerParams(decay=1.0, metric=2, order=2)
    targets = TargetSpectrum([0.0, target])
    return config, targets, params


# == 1. Settings and record validation =======================================

class TestSimulationSettings:
    def test_defaults_are_consistent(self):
        settings = SimulationSettings()
        assert DEFAULT_MIN_STEP <= settings.dt
        assert settings.cost_tolerance > 0.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimulationSettings(dt=0.0)
        with pytest.raises(ValueError):
            SimulationSettings(dt=DEFAULT_MIN_STEP / 10.0)
        with pytest.raises(ValueError):
            SimulationSettings(max_time=0.0)
        with pytest.raises(ValueError):
            SimulationSettings(cost_tolerance=0.0)
        with pytest.raises(ValueError):
            SimulationSettings(record_every=0)

    @pytest.mark.parametrize("record_every", [2.5, 2.0, True])
    def test_record_every_must_be_an_integer(self, record_every):
        # Accepted, 2.5 would sample every 5th accepted step, and True every step.
        message = f"^record_every must be a positive integer, got {record_every!r}$"
        with pytest.raises(ValueError, match=message):
            SimulationSettings(record_every=record_every)

    def test_dt_is_a_real_not_a_bool(self):
        # Accepted, True ran as a step of 1.0.
        with pytest.raises(ValueError, match="^dt must be a positive real, got True$"):
            SimulationSettings(dt=True)

    def test_max_time_is_a_real_not_a_bool(self):
        with pytest.raises(ValueError, match="^max_time must be a positive real, got True$"):
            SimulationSettings(max_time=True)

    def test_cost_tolerance_is_a_real_not_a_bool(self):
        with pytest.raises(ValueError, match="^cost_tolerance must be a positive real, got True$"):
            SimulationSettings(cost_tolerance=True)

    @pytest.mark.parametrize("name", ["dt", "max_time", "cost_tolerance"])
    def test_a_real_is_not_a_numpy_bool(self, name):
        # Accepted, np.True_ ran as 1.0.
        with pytest.raises(ValueError, match=f"^{name} must be a positive real, got True$"):
            SimulationSettings(**{name: np.True_})


class TestTrajectoryRecord:
    def test_rejects_unknown_reason(self):
        config = RobotConfiguration([[0.0], [1.0]])
        adjacency = build_adjacency(config, 1.0, 2)
        moments = spectral_moments(adjacency, 2)
        sample = TrajectorySample(0.0, config, moments, 1.0, 0.0)
        with pytest.raises(ValueError):
            TrajectoryRecord(
                samples=(sample,),
                final_configuration=config,
                final_moments=moments,
                final_eigenvalues=np.array([0.3, -0.3]),
                termination_reason="wandered-off",
                accepted_steps=0,
                rejected_steps=0,
                simulated_time=0.0,
            )

    def test_rejects_empty_samples(self):
        config = RobotConfiguration([[0.0], [1.0]])
        adjacency = build_adjacency(config, 1.0, 2)
        moments = spectral_moments(adjacency, 2)
        with pytest.raises(ValueError):
            TrajectoryRecord(
                samples=(),
                final_configuration=config,
                final_moments=moments,
                final_eigenvalues=np.array([0.3, -0.3]),
                termination_reason="converged",
                accepted_steps=0,
                rejected_steps=0,
                simulated_time=0.0,
            )


# == 2. Feasibility margins ==================================================

class TestFeasibilityMargin:
    def test_hand_values(self):
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        margins = feasibility_margin(config, targets, params)
        assert margins.shape == (1,)
        assert margins[0] == approx(np.exp(-2.0) - 0.05)

    def test_sign_flips_with_target(self):
        config, _, params = _two_robot_state()
        m2 = np.exp(-2.0)
        below = feasibility_margin(config, TargetSpectrum([0.0, m2 - 0.01]), params)
        above = feasibility_margin(config, TargetSpectrum([0.0, m2 + 0.01]), params)
        assert below[0] > 0.0
        assert above[0] < 0.0

    def test_order_mismatch_rejected(self):
        config, _, params = _two_robot_state()
        with pytest.raises(ValueError):
            feasibility_margin(config, TargetSpectrum([0.0, 0.1, 0.1]), params)


# == 3. ensure_feasible ======================================================

class TestEnsureFeasible:
    def test_feasible_start_unchanged(self):
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        result = ensure_feasible(config, targets, params)
        assert result is config

    def test_compression_repairs_infeasible_start(self):
        # Spread team: moments near zero, target above them.
        config = RobotConfiguration([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
        params = _params(order=3)
        targets = TargetSpectrum([0.0, 1.2, 1.5])
        assert np.any(feasibility_margin(config, targets, params) <= 0.0)
        repaired = ensure_feasible(config, targets, params)
        margins = feasibility_margin(repaired, targets, params)
        assert np.all(margins > 0.0)
        # Compression moves robots toward the centroid, which is preserved.
        assert np.allclose(
            repaired.positions.mean(axis=0), config.positions.mean(axis=0)
        )

    def test_compression_holds_one_evaluation(self):
        # Each try's n x n arrays go before the next try's come: the bound on
        # one evaluation and its drift holds for the whole repair.
        n, d, order = 256, 2, 4
        config = RobotConfiguration(20.0 * np.random.default_rng(0).random((n, d)))
        params = _params(order=order)
        targets = TargetSpectrum(2.0 * spectral_moments(
            build_adjacency(config, params.decay, params.metric), order).values)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            repaired = ensure_feasible(config, targets, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert repaired is not config
        assert peak <= (math.ceil(order / 2) + 4 + d) * n * n * 8

    def test_pair_1e300_apart_repaired(self):
        # Both moments are 0 and 5,000 steps of x0.9 reach only 1e71 apart;
        # one larger contraction comes first.
        config = RobotConfiguration([[0.0], [1e300]])
        targets = TargetSpectrum([0.0, 0.5])
        params = _params(order=2)
        repaired = ensure_feasible(config, targets, params)
        assert np.all(np.isfinite(repaired.positions))
        assert np.all(feasibility_margin(repaired, targets, params) > 0.0)

    def test_rounding_bound_start_raises(self):
        # 2 ulps apart at 1e20: every contraction rounds back short.
        config = RobotConfiguration([[1e20], [1e20 + 32768.0]])
        with pytest.raises(ValueError, match="centroid compression failed.*below the precision"):
            ensure_feasible(config, TargetSpectrum([0.0, 0.5]), _params(order=2))

    def test_overflowing_reach_jumps_without_collapsing(self):
        # Every moment is 0 and the taxicab reach, 3.4e308, overflows: the jump
        # takes the largest float for it, so the team shrinks but stays apart.
        config = RobotConfiguration([[1.7e308, 1.7e308], [-1.7e308, -1.7e308], [0.0, 0.0]])
        targets, params = TargetSpectrum([0.0, 0.5]), _params(metric=2, order=2)
        repaired = ensure_feasible(config, targets, params)
        assert len(np.unique(repaired.positions, axis=0)) == 3
        assert np.all(feasibility_margin(repaired, targets, params) > 0.0)

    @pytest.mark.parametrize("metric", [1, 2])
    def test_far_pair_sharing_a_coordinate_says_why(self, metric):
        # The x coordinates' sum overflows, so compression centres on the
        # midrange, 8.5e307, where it stops at a spread of a few of its ulps.
        config = RobotConfiguration([[1.7e308, 0.0], [1.7e308, 1.0], [0.0, 0.0], [0.0, 1.0]])
        targets = TargetSpectrum([0.0, 0.1, 0.01])
        params = _params(metric=metric, order=3)
        with pytest.raises(ValueError, match="about a centre at 8.5e[+]307, is below the prec"):
            ensure_feasible(config, targets, params)

    def test_compression_budget_says_why(self):
        # Centred on 0, nothing rounds, but 5,000 steps of x0.9 leave the
        # outer robots 1.8e21 out, where their weights are 0 and m_3 too.
        config = RobotConfiguration([[-1e250], [0.0], [1.0], [1e250]])
        targets = TargetSpectrum([0.0, 0.6, 0.3])
        with pytest.raises(ValueError, match="in 5,000 steps: the team's spread was still 1.81e"):
            ensure_feasible(config, targets, _params(order=3))

    def test_unrealizable_targets_rejected(self):
        config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        params = _params(order=2)
        # Ceiling for m_2 at n=3 is exactly 2.
        with pytest.raises(UnrealizableTargetsError):
            ensure_feasible(config, TargetSpectrum([0.0, 2.0]), params)

    def test_zero_second_moment_with_positive_target_rejected(self):
        # m_2 = ||A||_F^2 / n = 0 forces A = 0, so no m_k* > 0 can be met.
        config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(UnrealizableTargetsError, match=r"m_3\* = 0.5 .*m_2\* = 0"):
            ensure_feasible(config, TargetSpectrum([0.0, 0.0, 0.5]), _params(order=3))

    def test_all_zero_targets_accepted(self):
        config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        targets = TargetSpectrum([0.0, 0.0, 0.0])
        repaired = ensure_feasible(config, targets, _params(order=3))
        assert np.all(feasibility_margin(repaired, targets, _params(order=3)) > 0.0)

    def test_just_realizable_targets_accepted(self):
        config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        params = _params(order=2)
        repaired = ensure_feasible(config, TargetSpectrum([0.0, 1.9]), params)
        assert feasibility_margin(repaired, targets=TargetSpectrum([0.0, 1.9]), params=params)[0] > 0.0


# == 4. Single steps =========================================================

class TestStep:
    def test_descending_step_accepted(self):
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        settings = SimulationSettings()
        potential_before = cost(config, targets, params) + barrier(config, targets, params)
        new_config, accepted, dt_next = step(config, targets, params, settings.dt)
        assert accepted
        assert dt_next == settings.dt
        assert new_config is not config
        potential_after = cost(new_config, targets, params) + barrier(new_config, targets, params)
        assert potential_after <= potential_before
        assert np.all(feasibility_margin(new_config, targets, params) > 0.0)

    def test_overshooting_step_rejected_and_halved(self):
        # A giant step from a descending state flies past the target set.
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        new_config, accepted, dt_next = step(config, targets, params, 500.0)
        assert not accepted
        assert new_config is config
        assert dt_next == approx(250.0)

    @pytest.mark.parametrize("dt", [1e307, 1e306])
    def test_overflowing_candidate_rejected_quietly(self, dt):
        # From rgg10's start, dt = 1e307 makes dt * drift overflow, and
        # dt = 1e306 gives finite positions whose distances overflow (an
        # infinite distance is a weight of 0).  Either way the step is
        # rejected, and no numpy warning escapes (warnings fail tests here).
        scenario = preset("rgg10")
        start = ensure_feasible(
            scenario.initial_configuration(), scenario.targets, scenario.params
        )
        new_config, accepted, dt_next = step(start, scenario.targets, scenario.params, dt)
        assert not accepted
        assert new_config is start
        assert dt_next == dt / 2.0

    def test_overflowing_moments_candidate_rejected_quietly(self, monkeypatch):
        # A spread team of 150 at s = 150, above the 141 that _max_planned_order(150, 0) gives,
        # has finite moments; a drift that pulls it almost onto its centroid
        # gives a candidate whose m_142 overflows.  The candidate is
        # rejected, dt halved, and no numpy warning escapes (warnings fail
        # tests here).
        n = order = 150
        assert _max_planned_order(n, 0) == 141
        config = RobotConfiguration(np.random.default_rng(0).uniform(0.0, 100.0, (n, 2)))
        targets = TargetSpectrum(np.zeros(order))
        params = ControllerParams(metric=2, order=order)
        dt = 0.05
        pull = (config.positions.mean(axis=0) - config.positions) * (1.0 - 1e-9) / dt
        monkeypatch.setattr(gradient._Evaluation, "_project", lambda state, coefficients: pull)
        candidate = RobotConfiguration(config.positions + dt * pull)
        with pytest.raises(ValueError, match="m_142 overflows"):
            gradient._evaluate(candidate, targets, params)
        new_config, accepted, dt_next = step(config, targets, params, dt)
        assert not accepted
        assert new_config is config
        assert dt_next == dt / 2.0

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_candidate_rejected(self, monkeypatch, value):
        # The drift sends one coordinate of the candidate to +-inf (or NaN):
        # rejected, dt halved, and no numpy warning (warnings fail tests).
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        assert step(config, targets, params, 0.05)[1]
        drift = np.zeros_like(config.positions)
        drift[1, 0] = value
        monkeypatch.setattr(gradient._Evaluation, "_project", lambda state, coefficients: drift)
        new_config, accepted, dt_next = step(config, targets, params, 0.05)
        assert not accepted
        assert new_config is config
        assert dt_next == 0.025
        state = gradient._evaluate(config, targets, params)
        assert dynamics._advance(state, 0.05) == (state, False, 0.025)

    def test_finite_candidate_with_an_overflowing_sum_is_evaluated(self, monkeypatch):
        # The drift moves both robots of a pair to x = 9e307: every coordinate is finite,
        # though their sum (and each square) overflows, so the candidate is evaluated, and
        # then rejected for what it is (coincident robots, a cost above the start's).
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        drift = 9e307 - config.positions
        monkeypatch.setattr(gradient._Evaluation, "_project", lambda state, coefficients: drift)
        evaluated, evaluation = [], gradient._Evaluation

        def spied(flow, positions, config=None):
            evaluated.append(positions.tolist())
            return evaluation(flow, positions, config)

        monkeypatch.setattr(dynamics, "_Evaluation", spied)
        new_config, accepted, dt_next = step(config, targets, params, 1.0)
        assert (new_config, accepted, dt_next) == (config, False, 0.5)
        assert evaluated == [[[9e307], [9e307]]]

    @pytest.mark.parametrize("value, still", [(-0.0, True), (np.nan, False)])
    def test_still_means_no_nonzero_entry(self, monkeypatch, value, still):
        # A drift of -0.0 everywhere moves no robot: the trial step stalls.
        # A drift of zeros and one NaN is not still: its candidate is not
        # finite, so the step is rejected and dt halved.
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        drift = np.full(config.positions.shape, -0.0)
        drift[1, 0] = value
        monkeypatch.setattr(gradient._Evaluation, "_project", lambda state, coefficients: drift)
        state = gradient._evaluate(config, targets, params)
        assert state.drift is drift
        if still:
            with pytest.raises(FlowStalled, match="drift is exactly zero"):
                dynamics._advance(state, 0.05)
        else:
            assert dynamics._advance(state, 0.05) == (state, False, 0.025)

    @pytest.mark.parametrize("metric", [1, 2])
    def test_infeasible_zero_drift_stalls(self, metric):
        # Three robots at one point, m_2 = 2 below its target 2.5, no barrier: the drift is
        # exactly zero and the candidate, the state itself, is infeasible.  The rejected trial
        # counts the drift and stalls rather than halving dt.
        config = RobotConfiguration(np.full((3, 2), 0.5))
        params = ControllerParams(decay=1.0, metric=metric, order=2, epsilons=(0.0, 0.0))
        targets = TargetSpectrum([0.0, 2.5])
        assert feasibility_margin(config, targets, params)[0] < 0.0
        with pytest.raises(FlowStalled, match="drift is exactly zero"):
            step(config, targets, params, 0.05)

    def test_stall_at_step_floor(self, monkeypatch):
        # Every trial is rejected: dt halves down to the floor, then stalls.
        _unbuildable_candidates(monkeypatch)
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        dt = 500.0
        while dt > DEFAULT_MIN_STEP:
            new_config, accepted, dt = step(config, targets, params, dt)
            assert not accepted and new_config is config
        assert dt == DEFAULT_MIN_STEP
        with pytest.raises(FlowStalled, match="minimum step size"):
            step(config, targets, params, dt)

    def test_rejects_bad_dt(self):
        config, targets, params = _two_robot_state()
        for dt in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError):
                step(config, targets, params, dt)

    @pytest.mark.parametrize("dt", [True, np.True_])
    def test_dt_is_a_real_not_a_bool(self, dt):
        # Accepted, True ran as a step of 1.0.
        config, targets, params = _two_robot_state()
        with pytest.raises(ValueError, match="^dt must be a positive real, got True$"):
            step(config, targets, params, dt)


# == 5. Full simulation ======================================================

class TestSimulate:
    def test_converges_on_reachable_targets(self):
        record = simulate(_reachable_scenario(seed=1))
        assert record.termination_reason == "converged"
        assert record.termination_detail == ""
        assert record.samples[0].t == 0.0
        assert record.samples[-1].cost <= 1e-4
        assert record.accepted_steps > 0
        assert record.simulated_time > 0.0

    def test_final_state_matches_last_sample(self):
        record = simulate(_reachable_scenario(seed=2))
        last = record.samples[-1]
        assert last.configuration is record.final_configuration
        assert last.t == approx(record.simulated_time)
        adjacency = build_adjacency(
            record.final_configuration, 1.0, 2
        )
        assert np.allclose(
            spectral_moments(adjacency, 2).values, record.final_moments.values
        )

    def test_potential_monotone_and_margins_positive(self):
        scenario = _reachable_scenario(seed=3)
        scenario = dataclasses.replace(
            scenario, settings=SimulationSettings(cost_tolerance=1e-4, record_every=1)
        )
        record = simulate(scenario)
        potentials = [s.cost + s.barrier for s in record.samples]
        assert all(b <= a + 1e-15 for a, b in zip(potentials, potentials[1:]))
        for sample in record.samples:
            margins = feasibility_margin(
                sample.configuration, scenario.targets, scenario.params
            )
            assert np.all(margins > 0.0)

    def test_record_every_one_samples_every_accepted_step(self):
        scenario = _reachable_scenario(seed=4)
        scenario = dataclasses.replace(
            scenario, settings=SimulationSettings(cost_tolerance=1e-4, record_every=1)
        )
        record = simulate(scenario)
        assert len(record.samples) == record.accepted_steps + 1

    def test_horizon_when_time_runs_out(self):
        scenario = _reachable_scenario(seed=5)
        scenario = dataclasses.replace(
            scenario,
            settings=SimulationSettings(
                dt=0.05, max_time=0.1, cost_tolerance=1e-30
            ),
        )
        record = simulate(scenario)
        assert record.termination_reason == "horizon"
        assert record.simulated_time == 0.1

    @pytest.mark.parametrize("max_time", [0.12, 0.1 + 1e-9, 0.05 * 7])
    def test_last_step_clamped_to_horizon(self, max_time):
        # A horizon that is not a whole number of steps: the last trial step
        # is shortened, so simulated time never passes max_time, and a
        # remainder below the step-size floor ends the run.  Every accepted
        # step moves the robots by exactly the time it adds.
        scenario = dataclasses.replace(
            _reachable_scenario(seed=5),
            settings=SimulationSettings(
                dt=0.05, max_time=max_time, cost_tolerance=1e-30, record_every=1
            ),
        )
        record = simulate(scenario)
        assert record.termination_reason == "horizon"
        assert record.simulated_time <= max_time
        assert max_time - record.simulated_time < DEFAULT_MIN_STEP
        targets, params = scenario.targets, scenario.params
        for before, after in zip(record.samples, record.samples[1:]):
            assert after.t - before.t >= DEFAULT_MIN_STEP
            drift = control_law(before.configuration, targets, params) - barrier_gradient(
                before.configuration, targets, params
            )
            moved = after.configuration.positions - before.configuration.positions
            assert np.allclose(moved, (after.t - before.t) * drift, rtol=1e-9, atol=0.0)

    def test_stall_is_reported_not_raised(self, monkeypatch):
        # Every trial step is rejected: dt halves from 500 down to its floor
        # and the trial there fails too.
        _unbuildable_candidates(monkeypatch)
        config, targets, params = _two_robot_state(gap=1.0, target=0.05)
        scenario = Scenario(
            name="stall",
            n=2,
            d=1,
            params=params,
            targets=targets,
            settings=SimulationSettings(dt=500.0, cost_tolerance=1e-30),
            initial_positions=config.positions,
        )
        record = simulate(scenario)
        assert record.termination_reason == "stalled"
        assert "minimum step size" in record.termination_detail
        # 500 * 2**-k stays above 1e-8 for k = 0..35.
        assert record.rejected_steps == 36
        assert record.accepted_steps == 0

    def test_trial_step_budget_ends_the_run(self, monkeypatch):
        # At the step-size floor with a tolerance no run reaches, only the
        # budget ends the run.
        monkeypatch.setattr(dynamics, "MAX_TRIAL_STEPS", 40)
        scenario = dataclasses.replace(
            _reachable_scenario(seed=1),
            settings=SimulationSettings(dt=DEFAULT_MIN_STEP, cost_tolerance=1e-30),
        )
        record = simulate(scenario)
        assert record.termination_reason == "stalled"
        assert record.termination_detail.startswith("the budget of 40 trial steps ran out at t = ")
        assert record.accepted_steps + record.rejected_steps == 40
        assert record.simulated_time > 0.0

    def test_budget_counts_trial_steps(self, monkeypatch):
        # A run that converges on its last allowed trial step converges; one
        # step less of budget and it stalls there.
        scenario = _reachable_scenario(seed=1)
        free = simulate(scenario)
        spent = free.accepted_steps + free.rejected_steps
        monkeypatch.setattr(dynamics, "MAX_TRIAL_STEPS", spent)
        assert simulate(scenario).termination_reason == "converged"
        monkeypatch.setattr(dynamics, "MAX_TRIAL_STEPS", spent - 1)
        short = simulate(scenario)
        assert short.termination_reason == "stalled"
        assert short.accepted_steps + short.rejected_steps == spent - 1
        assert np.array_equal(
            short.samples[1].configuration.positions, free.samples[1].configuration.positions
        )

    def test_error_state_restored(self):
        # An outer state that raises on overflow stays in force around the
        # flow, which ignores overflow inside, on every way out.
        converged = _reachable_scenario(seed=1)
        stalled = dataclasses.replace(
            converged, initial_positions=np.full((5, 2), 0.5), seed=None,
            targets=TargetSpectrum([0.0, 1.0]),
        )
        unrealizable = dataclasses.replace(converged, targets=TargetSpectrum([0.0, 5.0]))
        config, targets, params = _two_robot_state()
        with np.errstate(over="raise", invalid="raise", divide="ignore"):
            before = np.geterr()
            assert simulate(converged).termination_reason == "converged"
            assert np.geterr() == before
            assert simulate(stalled).termination_reason == "stalled"
            assert np.geterr() == before
            with pytest.raises(UnrealizableTargetsError):
                simulate(unrealizable)
            assert np.geterr() == before
            step(config, targets, params, 0.05)
            assert np.geterr() == before
            # dt * drift overflows inside the step, which ignores it.
            assert not step(config, targets, params, 1e308)[1]
            assert np.geterr() == before
            with pytest.raises(ValueError):
                step(config, targets, params, -1.0)
            assert np.geterr() == before

    def test_unrealizable_targets_raise_before_integration(self):
        params = _params(order=2)
        scenario = Scenario(
            name="unrealizable",
            n=3,
            d=2,
            params=params,
            targets=TargetSpectrum([0.0, 2.5]),
            settings=SimulationSettings(),
            seed=0,
        )
        with pytest.raises(UnrealizableTargetsError):
            simulate(scenario)

    @pytest.mark.parametrize("seed", [0, 6])
    def test_deterministic_repeats(self, seed):
        first = simulate(_reachable_scenario(seed=seed))
        second = simulate(_reachable_scenario(seed=seed))
        assert np.array_equal(
            first.final_configuration.positions,
            second.final_configuration.positions,
        )
        assert first.accepted_steps == second.accepted_steps
        assert first.rejected_steps == second.rejected_steps
        assert first.simulated_time == second.simulated_time
        assert np.array_equal(
            first.final_moments.values, second.final_moments.values
        )

    def test_final_eigenvalues_read_only(self):
        record = simulate(_reachable_scenario(seed=7))
        with pytest.raises(ValueError):
            record.final_eigenvalues[0] = 0.0

    @pytest.mark.parametrize("metric", [1, 2])
    def test_zero_drift_start_stalls(self, metric):
        # All robots coincident: every weight is 1 and every metric factor
        # is 0, so the drift is exactly zero and no step can move the team.
        scenario = Scenario(
            name="coincident",
            n=5,
            d=2,
            params=_params(order=2, metric=metric),
            targets=TargetSpectrum([0.0, 1.0]),
            settings=SimulationSettings(max_time=10.0),
            initial_positions=np.full((5, 2), 0.5),
        )
        record = simulate(scenario)
        assert record.termination_reason == "stalled"
        assert "drift is exactly zero" in record.termination_detail
        assert record.accepted_steps == 0
        assert record.rejected_steps == 0
        assert record.simulated_time == 0.0


# == 6. One evaluation per configuration =====================================

class TestEvaluationBudget:
    @pytest.mark.parametrize(
        "name, steps", [("hexagon7", (833, 136)), ("rgg10", (4, 7))]
    )
    def test_preset_step_counts(self, name, steps):
        record = simulate(preset(name))
        assert record.termination_reason == "converged"
        assert (record.accepted_steps, record.rejected_steps) == steps

    def test_one_distance_matrix_per_trial_step(self, monkeypatch):
        distances = []
        pairwise_distance = network._pairwise_distance

        def counted(*args):
            distances.append(args)
            return pairwise_distance(*args)

        for module in (network, gradient):
            monkeypatch.setattr(module, "_pairwise_distance", counted)
        # rgg10 is Euclidean, its start needs one compression, and it
        # rejects steps as well as accepting them.
        scenario = preset("rgg10")
        assert scenario.params.metric == 2
        record = simulate(scenario)
        initial = scenario.initial_configuration().positions
        centroid = initial.mean(axis=0)
        compressed = centroid + 0.9 * (initial - centroid)
        assert np.array_equal(record.samples[0].configuration.positions, compressed)
        checks = 2  # the initial configuration, then the compressed start
        trials = record.accepted_steps + record.rejected_steps
        assert record.rejected_steps > 0
        # One per check and one per candidate: the start's last check is the
        # first state, and a drift reuses its state's distances.  The final
        # eigenvalues read weights formed again from the final positions.
        assert len(distances) == trials + checks + 1

    def test_trial_steps_wrap_nothing(self, monkeypatch):
        # Moment vectors, adjacencies and configurations are wrapped only for
        # the record: none in a trial step, accepted or rejected.
        scenario = _rejecting_scenario(4, metric=2)
        built = []
        freeze = network._freeze

        def counted(instance, field, array):
            built.append(instance)
            return freeze(instance, field, array)

        for module in (network, gradient, dynamics):
            monkeypatch.setattr(module, "_freeze", counted)
        advance = dynamics._advance
        per_trial = []

        def recorded(state, dt):
            before = len(built)
            result = advance(state, dt)
            per_trial.append((result[1], built[before:]))
            return result

        monkeypatch.setattr(dynamics, "_advance", recorded)
        record = simulate(scenario)
        assert record.accepted_steps > 0 and record.rejected_steps > 0
        assert {accepted for accepted, _ in per_trial} == {True, False}
        assert all(wrapped == [] for _, wrapped in per_trial)
        vectors = [x for x in built if isinstance(x, MomentVector)]
        # One per sample, the final record's shared with the last sample, and
        # the complete-graph ceilings that the start is checked against.
        assert len(vectors) == len(record.samples) + 1
        assert record.final_moments is record.samples[-1].moments
        assert all(any(sample.moments is v for v in vectors) for sample in record.samples)
        # One adjacency, for the final eigenvalues.
        assert sum(isinstance(x, WeightedAdjacency) for x in built) == 1

    def test_momentflow_frames_per_trial_step(self):
        # A small team's trial step is about 26 numpy calls on 7 x 7 arrays,
        # so Python glue sets much of its time.  Count the Python frames that
        # momentflow's own code opens (numpy's wrappers vary with its
        # version) over hexagon7's pinned 969 trial steps, its start and its
        # record included: 11.19 per trial step (10,842 frames, Python 3.11).
        package = os.path.dirname(network.__file__) + os.sep
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(package):
                calls += 1

        scenario, previous = preset("hexagon7"), sys.getprofile()
        sys.setprofile(profile)
        try:
            record = simulate(scenario)
        finally:
            sys.setprofile(previous)
        trials = record.accepted_steps + record.rejected_steps
        assert trials == 969
        # At least _advance and the candidate's evaluation, distances, weights
        # and half chain per trial step; at most the measured count + 0.5.
        assert 5 * trials <= calls <= 11.69 * trials

    @pytest.mark.parametrize("order", range(2, 8))
    def test_products_per_trial_step(self, order, monkeypatch):
        products = []
        product = network._product

        def counted(*args, **kwargs):
            products.append(args[0].shape)
            return product(*args, **kwargs)

        for module in (network, gradient):
            monkeypatch.setattr(module, "_product", counted)
        trials = _recorded_advances(monkeypatch, products)
        record = simulate(_rejecting_scenario(order, metric=2))
        assert record.accepted_steps > 0 and record.rejected_steps > 0
        assert len(trials) == record.accepted_steps + record.rejected_steps
        # A candidate's half chain takes ceil(s/2) - 1 products.  A state
        # pays for its drift in the step after its acceptance: one product
        # more from s = 4, where W has powers above the half chain.
        half = (order + 1) // 2
        for i, (_, known, _, count) in enumerate(trials):
            assert known == (i > 0 and not trials[i - 1][2])
            assert count == half - 1 + (not known and order >= 4)
        assert set(products) <= {(7, 7)}

    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("order", range(2, 7))
    def test_in_place_arrays_not_read_by_live_states(self, order, metric, monkeypatch):
        scenario = _rejecting_scenario(order, metric)
        trials = _recorded_advances(monkeypatch)
        # Seven robots keep their coordinate differences for the drift, which
        # (taxicab) writes signs into them.  Poison each set once its drift is
        # computed: a state that read them again, on a retry at dt/2 say,
        # would take another drift.  The flow's workspace holds every state's
        # set in turn, so before its drift each set must be its own state's,
        # bit for bit, and no other evaluation's.
        project, consumed = gradient._Evaluation._project, []

        def poisoning(state, coefficients):
            differences = state._differences
            own = network._pairwise_distance(state.positions, metric)[1]
            assert differences.tobytes() == own.tobytes()
            rows = project(state, coefficients)
            assert state._differences is None
            consumed.append(differences)
            differences.fill(np.nan)
            return rows

        monkeypatch.setattr(gradient._Evaluation, "_project", poisoning)
        record = simulate(scenario)
        monkeypatch.undo()
        assert record.rejected_steps > 0
        # One drift per state stepped from, each from its own differences.
        assert len(consumed) == sum(not known for _, known, _, _ in trials)
        # step evaluates every state afresh, so an array that a drift
        # overwrote while a state still read it would show as another
        # accept/reject sequence or other positions.
        targets, params = scenario.targets, scenario.params
        config = ensure_feasible(scenario.initial_configuration(), targets, params)
        replayed = []
        for dt, _, _, _ in trials:
            config, accepted, _ = step(config, targets, params, dt)
            replayed.append(accepted)
        assert replayed == [accepted for _, _, accepted, _ in trials]
        assert np.array_equal(config.positions, record.final_configuration.positions)

    @pytest.mark.parametrize("n", [48, network._PRODUCT_TEAM - 1, 200])
    def test_warm_trial_steps_allocate_no_team_matrix(self, n):
        # 200 warm trial steps of a planar Euclidean flow at s = 4, each at the
        # dt the last returned, write the flow's workspace: the traced peak
        # grows by less than one n x n array, and the workspace holds no more
        # n x n arrays than the chain's plan counts.  At 48 robots and up one
        # such array outweighs a step's own objects, its drift and numpy's
        # per-call iterators, about 1 KB; 63 is the largest small team.
        rng = np.random.default_rng(n)
        goal = rng.random((n, 2)) * np.sqrt(2.0 * n)
        start = goal.mean(axis=0) + 0.95 * (goal - goal.mean(axis=0))
        params = ControllerParams(decay=1.0, metric=2, order=4)
        targets = target_from_formation(RobotConfiguration(goal), params)
        dt = dynamics.DEFAULT_DT
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as flows run
            state = dynamics._feasible_start(RobotConfiguration(start), targets, params)
            tracemalloc.start()
            try:
                for _ in range(2):
                    state, _, dt = dynamics._advance(state, dt)
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                for _ in range(200):
                    state, _, dt = dynamics._advance(state, dt)
                growth = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert growth < 8 * n * n
        owners, pending = {}, list(vars(state.flow.workspace).values())
        while pending:  # every array the workspace holds, through its lists and tuples
            item = pending.pop()
            if isinstance(item, np.ndarray):
                owner = item if item.base is None else item.base
                owners[id(owner)] = owner.nbytes
            elif isinstance(item, (list, tuple)):
                pending.extend(item)
        matrices = sum(size for size in owners.values() if size >= 8 * n * n)  # not (d, n) rows
        assert matrices <= ((4 + 1) // 2 + 4 + 2) * 8 * n * n  # ceil(s/2) + 4 + d of them

    @pytest.mark.parametrize("metric", [1, 2])
    @pytest.mark.parametrize("order", range(2, 7))
    def test_drift_after_a_later_evaluation_took_the_workspace(self, order, metric):
        # Two evaluations of one flow share its workspace, as a stepped flow's
        # do, and the later one holds it.  The earlier one's drift, asked next,
        # is its own, bit for bit, and so is the later one's, asked after that.
        scenario = _rejecting_scenario(order, metric)
        targets, params = scenario.targets, scenario.params
        first = ensure_feasible(scenario.initial_configuration(), targets, params)
        second = RobotConfiguration(first.positions[::-1] * 1.01)
        flow = gradient._Flow(targets, params, 7, 2)
        flow.workspace = network._workspace(7, 2, metric, flow.plan)  # as _advance makes it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as flows run
            earlier = gradient._Evaluation(flow, first.positions)
            later = gradient._Evaluation(flow, second.positions)
            assert earlier.weights is later.weights  # the workspace's: the later one's arrays
            drifts = [earlier.drift, later.drift]
            own = [gradient._evaluate(config, targets, params).drift for config in (first, second)]
        assert [drift.tobytes() for drift in drifts] == [drift.tobytes() for drift in own]
        assert earlier.cost == gradient.cost(first, targets, params)


# == 7. A large team's stall =================================================

class TestLargeTeamFlows:
    def test_stalled_flow_records_its_own_spectrum(self):
        # 200 robots from a seeded unit-square start, with targets from a
        # formation in a 20 x 20 box, stall at t = 0.  None of the 23 rejected
        # candidates' weights reaches the record: its eigenvalues and moments
        # are the final configuration's own.
        params = ControllerParams(decay=1.0, metric=2, order=4)
        goal = np.random.default_rng(0).random((200, 2)) * 20.0
        scenario = Scenario(name="crowd", n=200, d=2, params=params,
                            targets=target_from_formation(RobotConfiguration(goal), params),
                            settings=SimulationSettings(), seed=0)
        record = simulate(scenario)
        assert (record.termination_reason, record.accepted_steps, record.rejected_steps) == (
            "stalled", 0, 23)
        assert record.termination_detail == (
            f"no acceptable step at the minimum step size {DEFAULT_MIN_STEP:g}")
        final = record.final_configuration
        expected = network.eigenvalues(build_adjacency(final, params.decay, params.metric))
        assert record.final_eigenvalues.tobytes() == expected.tobytes()
        assert record.final_moments.values.tobytes() == spectral_moments(
            build_adjacency(final, params.decay, params.metric), 4).values.tobytes()

    @pytest.mark.parametrize("reason", ["stalled", "horizon"])
    def test_whole_flow_stays_within_its_plan(self, reason):
        # A whole flow of 256 robots peaks within the ceil(s/2) + 4 + d n x n
        # arrays that _chain_plan admits: stalled at its start as the crowd
        # above, or at its horizon after one accepted step, whose state still
        # holds the workspace's arrays.  The final eigenvalues' weights come
        # after the last state and its workspace are gone.
        n, d, order = 256, 2, 4
        params = ControllerParams(decay=1.0, metric=2, order=order)
        rng = np.random.default_rng(0 if reason == "stalled" else n)
        goal = rng.random((n, d)) * (20.0 if reason == "stalled" else np.sqrt(2.0 * n))
        start = {"seed": 0} if reason == "stalled" else {
            "initial_positions": goal.mean(axis=0) + 0.95 * (goal - goal.mean(axis=0))}
        scenario = Scenario(name="crowd", n=n, d=d, params=params,
                            targets=target_from_formation(RobotConfiguration(goal), params),
                            settings=SimulationSettings(max_time=0.05), **start)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            record = simulate(scenario)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert record.termination_reason == reason
        assert record.accepted_steps == (reason == "horizon")
        assert peak <= (math.ceil(order / 2) + 4 + d) * n * n * 8
