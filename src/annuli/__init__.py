"""Weighted Dirichlet energies of mappings between concentric annuli.

The energy ``integral(|Df|^2 / |f|^2)`` over a spherical shell admits
closed-form minimizers of the form ``a exp(b / t)`` times a Moebius
transform of the unit sphere.  This package evaluates the energies,
minimizes the reduced radial functional three independent ways, checks
the sharp lower bound and its inversion symmetry, and covers the
companion results on radial harmonic maps between shells.
"""
from ._kernels import BACKEND, warm_up
from .energy import (
    EnergyReport,
    analytic_min_weighted_energy,
    dirichlet_energy,
    dirichlet_lower_bound,
    reduced_energy,
    weighted_energy,
)
from .errors import ConfigError, DomainError, EvaluationError
from .geometry import (
    Annulus,
    AnnulusPair,
    RadialGrid,
    SphericalQuadrature,
    gauss_legendre,
    make_radial_grid,
    make_sphere_quadrature,
    tangent_frames,
)
from .maps import (
    ExponentialProfile,
    GeneralizedRadialMap,
    HarmonicProfile,
    SampledMap,
    SampledProfile,
    as_sampled_map,
    exp_profile_from_boundary,
    map_eval_many,
    perturbed_profile,
)
from .nitsche import (
    NitscheVerdict,
    analytic_dirichlet_energy_radial,
    harmonic_profile_monotone,
    harmonic_radial_bvp,
    nitsche_condition,
)
from .sphere_maps import (
    MobiusTransform,
    conformal_stretch_points,
    mobius_apply_points,
    mobius_pushforward,
    random_mobius,
    sphere_inequality_integral,
)
from .variational import (
    DiscreteSolution,
    ShootingResult,
    discrete_reduced_energy,
    el_residual,
    gradient_descent_minimize,
    minimize_reduced_energy,
    reduced_energy_gradient,
    shoot_el,
    weighted_harmonic_residual,
)
from .verify import (
    CheckResult,
    SuiteReport,
    VerifyConfig,
    check_harmonic_bvp,
    check_inversion_invariance,
    check_minimal_energy,
    check_residuals,
    check_sphere_inequality,
    random_admissible_pair,
    random_annulus_pair,
    run_suite,
)

__version__ = "0.1.0"
