"""translab: a numerical laboratory for translating solitons of mean
curvature flow in R^3 and curve shortening flow.

Conventions used throughout: surfaces translate downward (-e3), graphs carry
the upward unit normal, and the translator identity is the orientation-free
H_vec = -e3_perp (so H + <e3, N> = 0 in the fixed orientation).
"""

__version__ = "0.1.0"

from .errors import TranslabError, UsageError
from .grid import GridFunction, from_function
from .geom import (CurveState, GeometryField, curve_geometry, drift_laplacian,
                   graph_geometry, q_squared, surface_gradient,
                   translator_defect)
from .catalog import (AnalyticTranslator, Kind, ResidualReport, evaluate,
                      pde_residual, residual_report, sample_grid)
from .radial import (AsymptoticFit, RadialKind, RadialProfile, fit_asymptotics,
                     profile_to_grid, radial_identities_report, shoot_bowl,
                     shoot_catenoid)
from .elliptic import (SolveReport, StripProblem, assemble_residual,
                       continuation_in_width, delta_wing, make_strip_problem,
                       newton_solve)
from .csf import (ComparisonReport, FlowConfig, SingularityLog, TypeVerdict,
                  classify, comparison_check, evolve_to, make_circle,
                  make_ellipse, resample_uniform, roundness, run, step)
from .analysis import (SpruckXiaoReport, VariationSpec, first_variation_check,
                       gradH_identity_check, jacobi_field_defect,
                       spruck_xiao_report, stability_apply, weighted_area)
