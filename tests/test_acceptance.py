"""
Acceptance gate: eight end-to-end criteria, one printed PASS/FAIL line each.

Core claims:
    1. hexagon7 at full order converges from the fixed seed with every moment
       within 5% of target from above and top eigenvalue within 3%, in <10 s
    2. hexagon7 truncated to s=4 lands its four moments within 5% and top
       eigenvalue within 3%
    3. rgg10 at s=4 lands every moment within 2% above target and top
       eigenvalue within 3%
    4. round trip: targets derived from one formation are reached from a
       different seeded start to 0.5% from above, across 25 random instances
    5. the control law matches central finite differences of the cost to
       1e-5 over 50 tie-free configurations per metric, and trace
       derivatives match to 1e-6
    6. walk enumeration equals matrix powers entrywise to 1e-12
    7. every recorded run keeps cost+barrier nonincreasing, feasibility
       margins strictly positive, and m_1 zero to 1e-14
    8. relabeling robots moves moments by at most 1e-12; quantized global
       translations leave the adjacency matrix bit-identical
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from momentflow.cli import _random_adjacency, _tie_free_config
from momentflow.dynamics import SimulationSettings, simulate
from momentflow.gradient import (
    ControllerParams,
    control_law,
    cost,
    finite_difference_gradient,
    trace_derivative,
)
from momentflow.network import (
    RobotConfiguration,
    build_adjacency,
    power_chain,
    spectral_moments,
    walk_weight_sum,
)
from momentflow.scenarios import (
    Scenario,
    preset,
    random_geometric_config,
    target_from_formation,
)

ROUND_TRIP_INSTANCES = 25


# -- Helpers -----------------------------------------------------------------

def _report(capsys, number, label, ok, detail):
    """Print one criterion line past pytest's capture, then pass/fail it."""
    line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}  {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _recorded(scenario):
    """The same scenario, sampling the trajectory at every accepted step."""
    return replace(scenario, settings=replace(scenario.settings, record_every=1))


def _relative_errors(record, scenario):
    """Per-moment |m_k - m_k*| / m_k* for k >= 2."""
    final = record.final_moments.values[1:]
    target = scenario.targets.moments[1:]
    return np.abs(final - target) / target


def _above_targets(record, scenario, slack=0.0):
    final = record.final_moments.values[1:]
    target = scenario.targets.moments[1:]
    return bool(np.all(final >= target - slack))


def _top_eigenvalue_error(record, scenario):
    reference = scenario.targets.reference_eigenvalues[0]
    return abs(record.final_eigenvalues[0] - reference) / reference


# -- Shared runs -------------------------------------------------------------

@pytest.fixture(scope="module")
def hexagon_full_run():
    scenario = _recorded(preset("hexagon7"))
    start = time.perf_counter()
    record = simulate(scenario)
    return scenario, record, time.perf_counter() - start


@pytest.fixture(scope="module")
def hexagon_s4_run():
    scenario = _recorded(preset("hexagon7", order=4))
    return scenario, simulate(scenario)


@pytest.fixture(scope="module")
def rgg_s4_run():
    scenario = _recorded(preset("rgg10", order=4))
    return scenario, simulate(scenario)


@pytest.fixture(scope="module")
def round_trip_runs():
    """Random goal formations, targets derived from them, fresh starts.

    The convergence tolerance is set per instance from the largest target
    moment: stopping at cost (0.004 m_s*)^2 / (4 s) bounds the top-moment
    residual by 0.4% while the barrier holds the smaller moments tighter
    still, keeping every final moment within the 0.5% gate.
    """
    rng = np.random.default_rng(42)
    runs = []
    for index in range(ROUND_TRIP_INSTANCES):
        n = int(rng.integers(6, 9))
        order = int(rng.integers(2, 6))
        params = ControllerParams(
            decay=1.0,
            metric=2,
            order=order,
            epsilons=(0.0,) + (1e-9,) * (order - 1),
        )
        goal = RobotConfiguration(
            random_geometric_config(n, 2, 1000 + index).positions * 0.5
        )
        targets = target_from_formation(goal, params)
        tolerance = (0.004 * targets.moments[-1]) ** 2 / (4.0 * order)
        scenario = Scenario(
            name=f"round_trip_{index:02d}",
            n=n,
            d=2,
            params=params,
            targets=targets,
            settings=SimulationSettings(
                cost_tolerance=tolerance, max_time=300.0
            ),
            seed=2000 + index,
        )
        runs.append((scenario, simulate(scenario)))
    return runs


# == Criterion 1: hexagon full-order reproduction ============================

def test_criterion_1_hexagon_full_order(hexagon_full_run, capsys):
    scenario, record, elapsed = hexagon_full_run
    errors = _relative_errors(record, scenario)
    eig_error = _top_eigenvalue_error(record, scenario)
    ok = (
        record.termination_reason == "converged"
        and abs(record.final_moments.values[0]) <= 1e-14
        and _above_targets(record, scenario)
        and float(errors.max()) <= 0.05
        and eig_error <= 0.03
        and elapsed < 10.0
    )
    _report(
        capsys, 1, "hexagon full-order reproduction", ok,
        f"{record.termination_reason}, worst moment error "
        f"{errors.max():.2%} (<=5%), top eigenvalue error "
        f"{eig_error:.2%} (<=3%), all from above, {elapsed:.2f}s (<10s)",
    )


# == Criterion 2: hexagon truncated relaxation ===============================

def test_criterion_2_hexagon_truncated(hexagon_s4_run, capsys):
    scenario, record = hexagon_s4_run
    errors = _relative_errors(record, scenario)
    eig_error = _top_eigenvalue_error(record, scenario)
    ok = (
        record.termination_reason == "converged"
        and abs(record.final_moments.values[0]) <= 1e-14
        and float(errors.max()) <= 0.05
        and eig_error <= 0.03
    )
    _report(
        capsys, 2, "hexagon truncated relaxation (s=4)", ok,
        f"{record.termination_reason}, worst moment error "
        f"{errors.max():.2%} (<=5%), top eigenvalue error "
        f"{eig_error:.2%} (<=3%)",
    )


# == Criterion 3: random-geometric truncated run =============================

def test_criterion_3_rgg_truncated(rgg_s4_run, capsys):
    scenario, record = rgg_s4_run
    errors = _relative_errors(record, scenario)
    eig_error = _top_eigenvalue_error(record, scenario)
    ok = (
        record.termination_reason == "converged"
        and abs(record.final_moments.values[0]) <= 1e-14
        and _above_targets(record, scenario)
        and float(errors.max()) <= 0.02
        and eig_error <= 0.03
    )
    _report(
        capsys, 3, "random-geometric truncated run (s=4)", ok,
        f"{record.termination_reason}, worst moment error "
        f"{errors.max():.2%} (<=2%, from above), top eigenvalue error "
        f"{eig_error:.2%} (<=3%)",
    )


# == Criterion 4: self-consistent round trip =================================

def test_criterion_4_round_trip(round_trip_runs, capsys):
    assert len(round_trip_runs) >= 20
    converged = sum(
        1 for _, record in round_trip_runs
        if record.termination_reason == "converged"
    )
    above = all(
        _above_targets(record, scenario, slack=1e-12)
        for scenario, record in round_trip_runs
    )
    worst = max(
        float(_relative_errors(record, scenario).max())
        for scenario, record in round_trip_runs
    )
    ok = converged == len(round_trip_runs) and above and worst <= 0.005
    _report(
        capsys, 4, "self-consistent round trip", ok,
        f"{converged}/{len(round_trip_runs)} converged, worst moment error "
        f"{worst:.3%} (<=0.5%), all from above",
    )


# == Criterion 5: gradient oracle suite ======================================

def test_criterion_5_gradient_oracles(capsys):
    worst_control = 0.0
    for metric in (1, 2):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            order = int(rng.integers(2, min(5, n) + 1))
            params = ControllerParams(decay=1.0, metric=metric, order=order)
            config = _tie_free_config(rng, n, 2)
            targets = target_from_formation(_tie_free_config(rng, n, 2), params)
            analytic = control_law(config, targets, params)
            fd = finite_difference_gradient(
                lambda c: cost(c, targets, params), config
            )
            scale = max(float(np.abs(fd).max()), 1e-12)
            worst_control = max(
                worst_control, float(np.abs(analytic + fd).max()) / scale
            )

    worst_trace = 0.0
    rng = np.random.default_rng(13)
    step = 1e-6
    for _ in range(50):
        n = int(rng.integers(2, 9))
        adjacency = _random_adjacency(rng, n)
        k = int(rng.integers(1, 7))
        i, j = 0, 1 + int(rng.integers(n - 1))
        analytic = trace_derivative(adjacency, k, i, j)
        bump = np.zeros((n, n))
        bump[i, j] = bump[j, i] = step
        upper = np.linalg.matrix_power(adjacency.weights + bump, k).trace()
        lower = np.linalg.matrix_power(adjacency.weights - bump, k).trace()
        fd = (upper - lower) / (2.0 * step)
        worst_trace = max(
            worst_trace, abs(fd - analytic) / max(abs(analytic), 1.0)
        )

    ok = worst_control < 1e-5 and worst_trace < 1e-6
    _report(
        capsys, 5, "gradient oracle suite", ok,
        f"control law vs finite differences worst {worst_control:.2e} "
        f"(<1e-5, 50 configs per metric), trace derivative worst "
        f"{worst_trace:.2e} (<1e-6, 50 cases)",
    )


# == Criterion 6: walk-enumeration equivalence ===============================

def test_criterion_6_walk_enumeration(capsys):
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        adjacency = _random_adjacency(rng, n)
        chain = power_chain(adjacency, 4)
        for k in range(1, 5):
            for i in range(n):
                for j in range(n):
                    direct = walk_weight_sum(adjacency, k, i, j)
                    worst = max(worst, abs(direct - chain[k][i, j]))
    ok = worst <= 1e-12
    _report(
        capsys, 6, "walk-enumeration equivalence", ok,
        f"worst |walk sum - matrix power| {worst:.2e} "
        f"(<=1e-12, 20 matrices, n<=5, k<=4, all entries)",
    )


# == Criterion 7: flow invariants ============================================

def test_criterion_7_flow_invariants(
    hexagon_full_run, hexagon_s4_run, rgg_s4_run, round_trip_runs, capsys
):
    runs = [
        (hexagon_full_run[0], hexagon_full_run[1]),
        hexagon_s4_run,
        rgg_s4_run,
        *round_trip_runs,
    ]
    monotone = True
    margins_positive = True
    worst_first_moment = 0.0
    for scenario, record in runs:
        potential = np.array(
            [sample.cost + sample.barrier for sample in record.samples]
        )
        monotone = monotone and bool(np.all(np.diff(potential) <= 0.0))
        target = scenario.targets.moments[1:]
        for sample in record.samples:
            margins_positive = margins_positive and bool(
                np.all(sample.moments.values[1:] - target > 0.0)
            )
            worst_first_moment = max(
                worst_first_moment, abs(sample.moments.values[0])
            )
    ok = monotone and margins_positive and worst_first_moment <= 1e-14
    _report(
        capsys, 7, "flow invariants", ok,
        f"{len(runs)} recorded runs: cost+barrier nonincreasing "
        f"({monotone}), margins strictly positive ({margins_positive}), "
        f"worst |m_1| {worst_first_moment:.1e} (<=1e-14)",
    )


# == Criterion 8: symmetry suite =============================================

def test_criterion_8_symmetry(capsys):
    rng = np.random.default_rng(11)
    worst_relabel = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        config = random_geometric_config(n, d, int(rng.integers(10_000)))
        permuted = RobotConfiguration(config.positions[rng.permutation(n)])
        order = min(n, 5)
        original = spectral_moments(build_adjacency(config, 1.0, 2), order)
        relabeled = spectral_moments(build_adjacency(permuted, 1.0, 2), order)
        worst_relabel = max(
            worst_relabel,
            float(np.abs(original.values - relabeled.values).max()),
        )

    translations_exact = True
    grid = 2.0 ** 20
    for _ in range(20):
        n = int(rng.integers(3, 9))
        d = int(rng.integers(1, 4))
        metric = int(rng.integers(1, 3))
        # Coordinates and shifts on a 2^-20 grid keep every translated
        # coordinate exactly representable, so distances cannot move.
        positions = rng.integers(0, int(grid), size=(n, d)) / grid
        shift = rng.integers(-4 * int(grid), 4 * int(grid), size=d) / grid
        base = build_adjacency(RobotConfiguration(positions), 1.0, metric)
        moved = build_adjacency(
            RobotConfiguration(positions + shift), 1.0, metric
        )
        translations_exact = translations_exact and bool(
            np.array_equal(base.weights, moved.weights)
        )

    ok = worst_relabel <= 1e-12 and translations_exact
    _report(
        capsys, 8, "symmetry suite", ok,
        f"relabeling moves moments by at most {worst_relabel:.2e} "
        f"(<=1e-12, 20 cases), quantized translations leave the adjacency "
        f"bit-identical ({translations_exact}, 20 cases)",
    )
