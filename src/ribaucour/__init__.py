"""Surfaces whose middle spheres meet the unit sphere in great circles.

Build surface patches from pairs of holomorphic functions, verify the
characterising identities at machine precision, explore the
curvature-switching duality, and follow the link to minimal surfaces
through integrable sphere congruences.
"""

from .grids import Domain
from .holoexpr import (CJet, EvalError, HoloExpr, ParseError, eval_jet,
                       evaluate, parse, to_text)
from .jets import RJet2, abs2_jet, im_jet, re_jet
from .sphere_geom import (SphereFrame, conformal_curvature, conformal_hessian,
                          sphere_gradient, sphere_laplacian)
from .ribaucour_core import (ResidualField, RibaucourPatch, SurfaceFields,
                             SurfaceSample, check_laguerre_holomorphy,
                             check_middle_sphere, evaluate_patch,
                             hopf_residual, immerse, make_patch,
                             shape_from_support, support, support_jet,
                             unit_sphere_gap)
from .duality import (DualPair, evaluate_pair, make_dual, verify_c2,
                      verify_form_relations, verify_hk_equality)
from .minimal import MinimalPatch, catenoid_patch, enneper_patch
from .congruence import (AnalyticCongruence, CongruenceState,
                         GeneratedFormsReport, HessianIdentityReport,
                         IntegralConstants, IntegratedCongruence,
                         analytic_example, check_hessian_identities,
                         envelope, first_integral, generated_forms_check,
                         integrate_system, system_residuals)
from .mesh import SurfaceMesh, export_obj, mesh_from_fields, mesh_from_grid
from .report import (identity_entry, make_report, report_exit_code,
                     write_report)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "CJet", "EvalError", "HoloExpr", "ParseError",
    "eval_jet", "evaluate", "parse", "to_text",
    "RJet2", "abs2_jet", "im_jet", "re_jet",
    "SphereFrame", "conformal_curvature", "conformal_hessian",
    "sphere_gradient", "sphere_laplacian",
    "ResidualField", "RibaucourPatch", "SurfaceFields", "SurfaceSample",
    "check_laguerre_holomorphy", "check_middle_sphere", "evaluate_patch",
    "hopf_residual", "immerse", "make_patch", "shape_from_support",
    "support", "support_jet", "unit_sphere_gap",
    "DualPair", "evaluate_pair", "make_dual", "verify_c2",
    "verify_form_relations", "verify_hk_equality",
    "MinimalPatch", "catenoid_patch", "enneper_patch",
    "AnalyticCongruence", "CongruenceState", "GeneratedFormsReport",
    "HessianIdentityReport", "IntegralConstants", "IntegratedCongruence",
    "analytic_example", "check_hessian_identities", "envelope",
    "first_integral", "generated_forms_check", "integrate_system",
    "system_residuals",
    "SurfaceMesh", "export_obj", "mesh_from_fields", "mesh_from_grid",
    "identity_entry", "make_report", "report_exit_code", "write_report",
    "__version__",
]
