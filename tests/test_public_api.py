import types

import annuli

# every public name of the package; adding or removing an export is an
# edit of this list
PUBLIC_NAMES = [
    "Annulus", "AnnulusPair", "BACKEND", "CheckResult", "ConfigError",
    "DiscreteSolution", "DomainError", "EnergyReport", "EvaluationError",
    "ExponentialProfile", "GeneralizedRadialMap", "HarmonicProfile",
    "MobiusTransform", "NitscheVerdict", "RadialGrid", "SampledMap",
    "SampledProfile", "ShootingResult", "SphericalQuadrature", "SuiteReport",
    "VerifyConfig", "analytic_dirichlet_energy_radial",
    "analytic_min_weighted_energy", "as_sampled_map", "check_harmonic_bvp",
    "check_inversion_invariance", "check_minimal_energy", "check_residuals",
    "check_sphere_inequality", "conformal_stretch_points", "dirichlet_energy",
    "dirichlet_lower_bound", "discrete_reduced_energy", "el_residual",
    "exp_profile_from_boundary", "gauss_legendre", "gradient_descent_minimize",
    "harmonic_profile_monotone", "harmonic_radial_bvp",
    "make_radial_grid", "make_sphere_quadrature", "map_eval_many",
    "minimize_reduced_energy", "mobius_apply_points", "mobius_pushforward",
    "nitsche_condition", "perturbed_profile", "random_admissible_pair",
    "random_annulus_pair", "random_mobius", "reduced_energy",
    "reduced_energy_gradient", "run_suite", "shoot_el",
    "sphere_inequality_integral", "tangent_frames", "warm_up",
    "weighted_energy", "weighted_harmonic_residual",
]


def test_public_names_are_the_listed_ones():
    names = sorted(n for n in dir(annuli)
                   if not n.startswith("_") and not isinstance(getattr(annuli, n), types.ModuleType))
    assert names == sorted(PUBLIC_NAMES)


def test_mobius_transform_has_no_matrix_property():
    assert not hasattr(annuli.MobiusTransform.identity(), "matrix")
