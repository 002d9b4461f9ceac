"""Classification and verification engine for rotation-invariant csck metrics.

``_LAYERS`` is the one list of public names, ``__all__`` is read off it,
and the layers declare none. Every name of ``__all__`` and every layer
(``csck.geometry`` ...) is an attribute of the package, but a layer is
imported on the first use of one of its names (PEP 562), so
``import csck`` itself loads no numpy.
"""

import importlib

# each layer and the public names the package takes from it
_LAYERS = {
    "errors": """BadAnchorError ConstraintViolationError CsckError EndpointSampleError
        IllConditionedError NotClassifiedError NotCsckError NotKahlerError
        NotNormalizableError OutOfDomainError StageError UnsupportedMultiplicityError
        ZeroPolyError""",
    "polynomials": "Poly RootProfile real_root_profile",
    "reduction": """FunctionHandle OdeData RadialProblem RecoveredConstants build_ode f_of
        ode_residual recover_constants""",
    "branches": """Branch BranchKind CaseReport Verdict admissible_branches classify
        lelong_number smooth_origin_test""",
    "cases": "CaseFixture canonical_label get_case labels_for match_label",
    "quadrature": """AntiderivativeF ArcTan LogLinear LogQuadratic RadialSolution RecipPower
        ShootResult ball_normalize eval_F gauge_from_anchor partial_fractions shoot_ode
        solve_g""",
    "geometry": """MetricSample VerificationReport curvature_fd metric_sample metric_tensor
        potential_u scalar_curvature verify_solution""",
    "inequalities": "ConstraintSample I_value J_value certify_negative",
    "catalog": "CrossCheckReport ExpectedBranch cross_check enumerate_cases instantiate",
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:  # the import binds the layer in the package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAYERS, *__all__})
