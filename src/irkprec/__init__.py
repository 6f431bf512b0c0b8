"""Block preconditioners for implicit Runge-Kutta and Runge-Kutta-Nystrom
stage equations of parabolic and hyperbolic PDEs, with the spectral and
GMRES diagnostics used to evaluate them."""

from .analysis import (FovResult, SpectrumResult, butcher_kappa,
                       condition_number, condition_number_iterative,
                       field_of_values, spectrum)
from .assembly import (CoefficientField, Forcing, assemble_load,
                       assemble_loads, assemble_mass, assemble_stiffness,
                       coefficient_preset, read_matrix_market,
                       write_matrix_market)
from .butcher import (ButcherTableau, LduFactors, PreconditionerKind,
                      TableauKind, butcher_preconditioner_matrix,
                      gauss_legendre, ldu, nystrom_from, radau_iia,
                      tableau_from_json, weakly_positive_definite)
from .driver import (ProblemSpec, StepperState, advance, convergence_study,
                     initial_state, integrate, irk_step, irkn_step, l2_error,
                     method_tableau, mms_problem, timestep_rule)
from .errors import (CoefficientError, ConfigError, FactorizationError,
                     ResourceLimitError, SubsolveError)
from .krylov import SolveReport, gmres, reference_solve
from .mesh import TriMesh, build_mesh, read_mesh_text, write_mesh_text
from .precond import VCycleSubsolver, build_preconditioner
from .stageop import StageOperator, build_stage_rhs

__version__ = "0.1.0"
