"""Numerical laboratory for rotationally symmetric conic constant-curvature
metrics on the Riemann sphere: continuation solves of the twisted
Monge-Ampere family, energy functionals, section-density diagnostics,
obstruction invariants, and flat-cone capacity and volume comparisons."""

from importlib import import_module

__version__ = "0.1.0"

# The public names of each module.  A module loads when one of its names is
# first read (PEP 562), so `import conic_ke` alone loads no numpy.
_EXPORTS = {
    "geometry": (
        "ConeConfiguration", "Grid", "RadialKahlerPotential", "cone_angle_at_pole",
        "defining_section_norm", "football_potential", "fubini_study_potential",
        "ricci_potential_h0"),
    "errors": ("NewtonDiverged", "PathStalled", "PositivityLost", "SolverError"),
    "ma_solver": (
        "ContinuationTrace", "MASolution", "build_twist", "continuity_path",
        "first_eigenvalue", "ricci_lower_bound_margin", "smoothing_family",
        "solve_ma", "two_sided_bound_check"),
    "functionals": (
        "FunctionalReport", "f_functional", "j_functional",
        "path_derivative_residual"),
    "bergman": (
        "SectionBasisGram", "associated_hermitian_weight", "bergman_density",
        "bochner_residual", "gradient_estimate_ratio", "gram_matrix",
        "partial_c0_scan"),
    "stability": (
        "HamiltonianPotential", "futaki", "hamiltonian_theta", "linearity_check",
        "log_futaki", "obstruction_scan"),
    "cone_analysis": (
        "FlatConeModel", "LogLogCutoff", "dirichlet_energy", "selection_log_delta",
        "tube_volume", "volume_ratio_profile"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
