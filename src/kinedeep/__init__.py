"""Differentiable forward kinematics for an articulated hand, with
constraint-aware pose regression, swarm-based model fitting, and a synthetic
evaluation benchmark."""

__version__ = "0.1.0"
