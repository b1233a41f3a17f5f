"""Take the analytic machinery apart and check each piece in isolation.

The controller is a gradient flow: velocities are the negative gradient
of a cost that penalizes squared moment residuals.  Everything rests on
one identity, the derivative of tr(A^k) with respect to a single edge
weight, which in turn is a sum over weighted walks.  This script checks
each layer against a dumber, slower alternative:

    walk enumeration  ==  matrix powers          (entrywise)
    trace derivative  ==  finite differences     (bump one edge)
    control law       ==  -grad(cost) by central differences

Run:  python3 demos/02_gradient_anatomy.py
"""

import numpy as np

from momentflow.gradient import (
    ControllerParams,
    control_law,
    cost,
    finite_difference_gradient,
    trace_derivative,
)
from momentflow.network import (
    RobotConfiguration,
    WeightedAdjacency,
    build_adjacency,
    power_chain,
    spectral_moments,
    walk_weight_sum,
)
from momentflow.scenarios import random_geometric_config, target_from_formation

rng = np.random.default_rng(5)

print("=" * 68)
print("1. Walks vs matrix powers")
print("=" * 68)
upper = np.triu(rng.uniform(0.1, 1.0, size=(4, 4)), k=1)
adjacency = WeightedAdjacency(upper + upper.T)
chain = power_chain(adjacency, 3)
print("Entry (0, 2) of A^k by brute-force walk enumeration vs A @ A @ ...:")
for k in range(1, 4):
    walks = walk_weight_sum(adjacency, k, 0, 2)
    direct = chain[k][0, 2]
    print(f"  k={k}:  walks {walks:.12f}   powers {direct:.12f}   "
          f"diff {abs(walks - direct):.1e}")

print()
print("=" * 68)
print("2. Trace derivative vs a bumped edge")
print("=" * 68)
k = 4
analytic = trace_derivative(adjacency, k, 0, 2)
h = 1e-6
bump = np.zeros((4, 4))
bump[0, 2] = bump[2, 0] = h
fd = (
    np.linalg.matrix_power(adjacency.weights + bump, k).trace()
    - np.linalg.matrix_power(adjacency.weights - bump, k).trace()
) / (2 * h)
print(f"  d tr(A^{k}) / d a_02:  analytic {analytic:.10f}   "
      f"central difference {fd:.10f}")

print()
print("=" * 68)
print("3. Control law vs finite differences of the cost")
print("=" * 68)
params = ControllerParams(decay=1.0, metric=2, order=4)
team = random_geometric_config(6, 2, seed=1)
goal = RobotConfiguration(random_geometric_config(6, 2, seed=2).positions * 0.6)
targets = target_from_formation(goal, params)

velocities = control_law(team, targets, params)
numeric = finite_difference_gradient(lambda c: cost(c, targets, params), team)
worst = np.abs(velocities + numeric).max() / np.abs(numeric).max()
print(f"  cost at the start: {cost(team, targets, params):.6f}")
print(f"  worst relative mismatch between u and -grad f: {worst:.2e}")

print()
print("Velocities point downhill: a small step along u must reduce the cost.")
before = cost(team, targets, params)
after = cost(
    RobotConfiguration(team.positions + 1e-3 * velocities), targets, params
)
print(f"  cost before {before:.8f}  ->  after one nudge {after:.8f}")
