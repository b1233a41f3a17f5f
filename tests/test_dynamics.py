"""
Unit tests for the closed-loop flow: feasibility, stepping, simulation.

Core claims:
    - SimulationSettings and TrajectoryRecord validate their inputs
    - feasibility_margin returns m_k - m_k* for k = 2..s with correct signs
    - ensure_feasible returns feasible starts unchanged, repairs infeasible
      ones by centroid compression, and rejects unrealizable targets
    - step accepts exactly the feasible, potential-nonincreasing candidates,
      halves dt on rejection, and stalls at the step-size floor
    - simulate terminates with the right reason (converged, horizon,
      stalled), keeps f + b nonincreasing and margins positive along the
      recorded trajectory, never runs past the horizon, and is
      deterministic for identical scenarios
    - a start with exactly zero drift stalls without counting non-moves
    - simulate logs how many robot pair slots changed coordinate order
    - simulate evaluates each configuration once: at most one adjacency
      build per trial step, and the presets keep their step counts
"""

import dataclasses

import numpy as np
import pytest
from pytest import approx

from momentflow import dynamics, gradient, network, scenarios
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
    barrier,
    barrier_gradient,
    control_law,
    cost,
)
from momentflow.network import (
    RobotConfiguration,
    build_adjacency,
    spectral_moments,
)
from momentflow.scenarios import (
    Scenario,
    TargetSpectrum,
    preset,
    random_geometric_config,
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


def _unbuildable_candidates(monkeypatch):
    """Make every trial step's candidate unbuildable, so every step is rejected."""
    def unbuildable(positions):
        raise ValueError("positions must be finite")

    monkeypatch.setattr(dynamics, "RobotConfiguration", unbuildable)


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

    def test_unrealizable_targets_rejected(self):
        config = RobotConfiguration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        params = _params(order=2)
        # Ceiling for m_2 at n=3 is exactly 2.
        with pytest.raises(UnrealizableTargetsError):
            ensure_feasible(config, TargetSpectrum([0.0, 2.0]), params)

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

    def test_zero_drift_start_stalls(self):
        # All robots coincident: every weight is 1 and every metric factor
        # is 0, so the drift is exactly zero and no step can move the team.
        scenario = Scenario(
            name="coincident",
            n=5,
            d=2,
            params=_params(order=2),
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

    @pytest.mark.parametrize("metric", [1, 2])
    def test_logs_coordinate_order_flips(self, metric, caplog):
        # Robots 0 and 1 tie on y and repel each other only along x; robot 2
        # pushes the nearer robot 0 harder, so the tie breaks: one pair slot
        # changes order, and no pair crosses on x.
        scenario = Scenario(
            name="tie",
            n=3,
            d=2,
            params=_params(order=2, metric=metric),
            targets=TargetSpectrum([0.0, 0.05]),
            settings=SimulationSettings(max_time=0.5),
            initial_positions=np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]]),
        )
        with caplog.at_level("INFO", logger="momentflow.dynamics"):
            record = simulate(scenario)
        assert record.accepted_steps > 0
        assert caplog.messages == [
            "coordinate ordering changed for 1 robot pair slots during the run"
        ]


# == 6. One evaluation per configuration =====================================

class TestEvaluationBudget:
    @pytest.mark.parametrize(
        "name, steps", [("hexagon7", (833, 136)), ("rgg10", (4, 7))]
    )
    def test_preset_step_counts(self, name, steps):
        record = simulate(preset(name))
        assert record.termination_reason == "converged"
        assert (record.accepted_steps, record.rejected_steps) == steps

    def test_one_adjacency_build_per_trial_step(self, monkeypatch):
        builds = []
        checks = []
        build_adjacency = network.build_adjacency
        feasibility_margin = dynamics.feasibility_margin

        def counted_build(*args):
            builds.append(args)
            return build_adjacency(*args)

        def counted_check(*args):
            checks.append(args)
            return feasibility_margin(*args)

        for module in (network, gradient, dynamics, scenarios):
            if getattr(module, "build_adjacency", None) is build_adjacency:
                monkeypatch.setattr(module, "build_adjacency", counted_build)
        monkeypatch.setattr(dynamics, "feasibility_margin", counted_check)
        # rgg10's start needs one compression, and it rejects steps as well
        # as accepting them.
        record = simulate(preset("rgg10"))
        trials = record.accepted_steps + record.rejected_steps
        assert record.rejected_steps > 0 and len(checks) > 1
        # Per run: the start's evaluation and at most one more.
        assert len(builds) <= trials + len(checks) + 2
