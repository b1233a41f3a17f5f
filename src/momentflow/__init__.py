"""Steer robot networks so their adjacency spectra match prescribed moments.

The package models a team of point robots as a complete weighted graph
whose edge weights decay exponentially with inter-robot distance, and
drives the robots by gradient flow until the spectral moments of that
weight matrix reach given target values.  A feasibility barrier keeps the
moments approaching their targets from above, so the targets are met from
one side and the flow never crosses into infeasibility.

Modules: :mod:`momentflow.network` (adjacency and moments),
:mod:`momentflow.gradient` (cost, barrier, analytic gradients),
:mod:`momentflow.dynamics` (closed-loop integration),
:mod:`momentflow.scenarios` (targets, presets, validation, the file schema),
:mod:`momentflow.cli` (command-line front end).
"""

from .dynamics import (
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
from .gradient import (
    ControllerParams,
    InfeasibleStateError,
    barrier,
    barrier_gradient,
    control_law,
    cost,
    default_epsilons,
    finite_difference_gradient,
    moment_gradient,
    trace_derivative,
)
from .network import (
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
from .scenarios import (
    Scenario,
    TargetSpectrum,
    hexagon_formation,
    preset,
    random_geometric_config,
    scenario_violations,
    target_from_formation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # network
    "RobotConfiguration",
    "WeightedAdjacency",
    "MomentVector",
    "pairwise_distance",
    "build_adjacency",
    "power_chain",
    "spectral_moments",
    "eigenvalues",
    "moments_from_eigenvalues",
    "complete_graph_moments",
    "walk_weight_sum",
    # gradient
    "ControllerParams",
    "InfeasibleStateError",
    "default_epsilons",
    "trace_derivative",
    "moment_gradient",
    "cost",
    "control_law",
    "barrier",
    "barrier_gradient",
    "finite_difference_gradient",
    # dynamics
    "SimulationSettings",
    "TrajectorySample",
    "TrajectoryRecord",
    "UnrealizableTargetsError",
    "FlowStalled",
    "feasibility_margin",
    "ensure_feasible",
    "step",
    "simulate",
    # scenarios
    "TargetSpectrum",
    "Scenario",
    "random_geometric_config",
    "hexagon_formation",
    "target_from_formation",
    "preset",
    "scenario_violations",
]
