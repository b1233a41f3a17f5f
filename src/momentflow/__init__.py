"""Steer robot networks so their adjacency spectra match prescribed moments.

The package models a team of point robots as a complete weighted graph
whose edge weights decay exponentially with inter-robot distance, and
drives the robots by gradient flow until the spectral moments of that
weight matrix reach given target values.  A feasibility barrier keeps the
moments approaching their targets from above, so the targets are met from
one side and the flow never crosses into infeasibility.

Modules: :mod:`momentflow.network` (adjacency and moments),
:mod:`momentflow.gradient` (the controller's inputs ``TargetSpectrum`` and
``ControllerParams``; cost, barrier, analytic gradients),
:mod:`momentflow.dynamics` (closed-loop integration),
:mod:`momentflow.scenarios` (targets, presets, validation, the file schema),
:mod:`momentflow.cli` (command-line front end).  Each module imports only
those listed before it.  Import from these modules; the package itself
exports nothing.
"""
