"""Signed minor cones: generalized Cholesky factorization, log-Cholesky
geometry, group structures, and random matrices.

The public names below are resolved on first use (PEP 562), each from its
submodule, so that importing one submodule (the CLI's core and matio, say)
does not compile and import all the others.
"""

from importlib import import_module as _import_module

# The public names of each submodule, and the only list of them: a submodule
# with an __all__ reads its row from here. That works because this module
# imports no submodule while it loads, so the table exists before any
# submodule runs. The submodules themselves are public names too, as they
# were when this package imported them all.
_EXPORTS = {
    "core": (
        "DEFAULT_TOL", "LPM", "TPM", "ConePoint", "all_patterns", "as_pattern",
        "canonical_diagonal", "classify", "cones_with_inertia", "leading_minors",
        "lpm_perturbation", "negative_inertia", "pattern_from_string",
        "pattern_to_string", "reverse_matrix", "reverse_pattern", "symmetrize",
    ),
    "cholesky": (
        "canonical_point", "compose", "compose_tpm", "factor", "factor_tpm",
        "invert_cone_point", "is_lower_triangular", "resign",
    ),
    "geometry": (
        "KLEIN_MAPS", "cone_compose", "cone_factor", "differential", "differential_inv",
        "distance", "eta", "eta_inv", "geodesic", "geodesic_between", "group_inv",
        "group_op", "klein_apply", "log_cholesky_mean", "lpm_distance", "lpm_geodesic",
        "metric_tensor", "scalar_mul", "star_inv", "star_op",
    ),
    "biggroup": (
        "BigGroupElement", "box_inv", "box_op", "dp_distance", "identity_element",
        "schur_pattern", "torsion_order",
    ),
    "algebra": ("dsum_matrix", "dsum_pattern", "tensor_matrix", "tensor_pattern"),
    "ssrpm": ("DEFAULT_CAP", "almost_n_example", "is_ssrpm", "toeplitz_example"),
    "sampling": (
        "DistributionSpec", "RngStream", "bartlett_sample", "cholesky_normal_log_density",
        "cholesky_normal_sample", "inertial_clone_sample", "inverse_wishart_log_density",
        "inverse_wishart_sample", "jacobian_logdet", "wishart_log_density",
        "wishart_sample",
    ),
    "inequalities": (
        "INEQUALITIES", "PRESETS", "Report", "WalkStats", "preset_config",
        "simulate_walk", "verify_from_stats", "verify_inequality",
    ),
    "errors": (),
}

# Each public name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return _import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
