"""Signed minor cones: generalized Cholesky factorization, log-Cholesky
geometry, group structures, and random matrices."""

from .core import (
    DEFAULT_TOL,
    LPM,
    TPM,
    ConePoint,
    all_patterns,
    as_pattern,
    canonical_diagonal,
    classify,
    cones_with_inertia,
    leading_minors,
    lpm_perturbation,
    negative_inertia,
    pattern_from_string,
    pattern_to_string,
    reverse_matrix,
    reverse_pattern,
    symmetrize,
)
from .cholesky import (
    canonical_point,
    compose,
    compose_tpm,
    factor,
    factor_tpm,
    invert_cone_point,
    is_lower_triangular,
    resign,
)
from .geometry import (
    cone_compose,
    cone_factor,
    differential,
    differential_inv,
    distance,
    eta,
    eta_inv,
    geodesic,
    geodesic_between,
    group_inv,
    group_op,
    klein_apply,
    log_cholesky_mean,
    lpm_distance,
    lpm_geodesic,
    metric_tensor,
    scalar_mul,
    star_inv,
    star_op,
)
from .biggroup import (
    BigGroupElement,
    box_inv,
    box_op,
    dp_distance,
    identity_element,
    schur_pattern,
    torsion_order,
)
from .algebra import dsum_matrix, dsum_pattern, tensor_matrix, tensor_pattern
from .ssrpm import almost_n_example, is_ssrpm, toeplitz_example
from .sampling import (
    DistributionSpec,
    RngStream,
    bartlett_sample,
    cholesky_normal_log_density,
    cholesky_normal_sample,
    inertial_clone_sample,
    inverse_wishart_log_density,
    inverse_wishart_sample,
    jacobian_logdet,
    wishart_log_density,
    wishart_sample,
)
from .inequalities import (
    INEQUALITIES,
    PRESETS,
    Report,
    preset_config,
    simulate_walk,
    verify_from_stats,
    verify_inequality,
)
from . import errors

__version__ = "0.1.0"
