"""Solver failure classes, importable without numpy so the CLI can map them
to exit codes before any library module loads."""


class SolverError(RuntimeError):
    """Base class for solver failures."""


class NewtonDiverged(SolverError):
    """Damped Newton could not reduce the residual within its budget."""


class PathStalled(SolverError):
    """Continuation step fell below the minimum step size; the message names
    the tau of the last accepted step."""
