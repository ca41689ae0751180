"""Solver failure classes, one per exit code, importable without numpy so
the CLI can map them to exit codes before any library module loads."""


class SolverError(RuntimeError):
    """A solve, an eigen-solve or a path did not converge (exit 2)."""


class PathStalled(SolverError):
    """Continuation step fell below the minimum step size (exit 4); the
    message names the tau of the last accepted step."""
