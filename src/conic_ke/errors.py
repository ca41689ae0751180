"""Solver failure classes, importable without numpy so the CLI can map them
to exit codes before any library module loads."""


class SolverError(RuntimeError):
    """Base class for solver failures."""


class NewtonDiverged(SolverError):
    """Damped Newton could not reduce the residual within its budget."""


class PathStalled(SolverError):
    """Continuation step fell below the minimum step size."""

    def __init__(self, message, last_tau, trace=None):
        super().__init__(message)
        self.last_tau = last_tau
        self.trace = trace
