"""Numerical laboratory for rotationally symmetric conic constant-curvature
metrics on the Riemann sphere: continuation solves of the twisted
Monge-Ampere family, energy functionals, section-density diagnostics,
obstruction invariants, and flat-cone capacity and volume comparisons."""

__version__ = "0.1.0"
