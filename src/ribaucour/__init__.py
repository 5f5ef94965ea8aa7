"""Surfaces whose middle spheres meet the unit sphere in great circles.

Build surface patches from pairs of holomorphic functions, verify the
characterising identities at machine precision, explore the
curvature-switching duality, and follow the link to minimal surfaces
through integrable sphere congruences.

Every public name below is loaded from its module on first use, so
``import ribaucour`` runs none of the submodules, and a program loads
only the modules behind the names it reads, with what they import.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it gives the package
_EXPORTS = {
    "grids": ("Domain",),
    "holoexpr": ("CJet", "EvalError", "HoloExpr", "ParseError",
                 "eval_jet", "parse", "to_text"),
    "jets": ("RJet2", "abs2_jet", "im_jet", "re_jet"),
    "sphere_geom": ("SphereFrame", "conformal_hessian", "sphere_gradient",
                    "sphere_laplacian"),
    "ribaucour_core": ("ResidualField", "RibaucourPatch", "SurfaceFields",
                       "check_laguerre_holomorphy", "check_middle_sphere",
                       "evaluate_patch", "hopf_residual", "immerse",
                       "make_patch", "shape_from_support", "support_jet",
                       "unit_sphere_gap"),
    "duality": ("DualPair", "evaluate_pair", "make_dual", "verify_c2",
                "verify_form_relations", "verify_hk_equality"),
    "minimal": ("MinimalPatch", "catenoid_patch", "enneper_patch"),
    "congruence": ("AnalyticCongruence", "CongruenceState",
                   "GeneratedFormsReport", "HessianIdentityReport",
                   "IntegralConstants", "IntegratedCongruence",
                   "analytic_example", "check_hessian_identities",
                   "envelope", "first_integral", "generated_forms_check",
                   "integrate_system", "system_residuals"),
    "mesh": ("SurfaceMesh", "export_obj", "mesh_from_fields",
             "mesh_from_grid"),
    "report": ("identity_entries", "identity_entry", "make_report",
               "report_exit_code", "write_report"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    """Import the module that owns a public name, once, on first use."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
