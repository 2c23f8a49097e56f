"""Adaptive commutator-free Lie group integrators with embedded pairs."""

from .actions import (DomainError, Gl2PlaneAction, GroupAction,
                      Se3CoadjointAction, Se3Element, So3SphereAction,
                      coadjoint_act, gl2_exp, se3_exp, so3_exp)
from .catalog import (RootSelectionError, SingularParameterError, catalog,
                      cf43_root, get_tableau, instantiate_cf32_family,
                      instantiate_cf43)
from .controller import (ConfigError, ControllerConfig, ControllerConfigError,
                         IntegrationError, NonFiniteError, StepAttempt,
                         StepSizeUnderflowError, TooManyRejectsError,
                         Totals, Trajectory,
                         error_measure, initial_step, integrate_adaptive,
                         integrate_fixed, next_step_size)
from .order_conditions import (OrderReport, UnsupportedShapeError, certify,
                               certify_pair, check_classical, is_genuine_pair)
from .problems import (HeavyTopParams, Problem, RigidBodyParams, VdpParams,
                       build_problem, conserved, heavy_top, rigid_body,
                       van_der_pol)
from .stepper import FieldLengthError, StepResult, cf_step, count_budget
from .tableaux import (CFTableau, ReducedCoefficients, TableauError,
                       load_tableau, reduce, reduce_embedded, reuse_groups,
                       save_tableau, scan_identical_rows, tableau_from_json,
                       tableau_from_json_dict)

__version__ = "0.1.0"

__all__ = [
    "CFTableau", "ReducedCoefficients", "TableauError", "OrderReport",
    "UnsupportedShapeError", "reduce", "reduce_embedded", "reuse_groups",
    "scan_identical_rows", "load_tableau", "save_tableau",
    "tableau_from_json", "tableau_from_json_dict",
    "check_classical", "certify", "certify_pair", "is_genuine_pair",
    "catalog", "get_tableau", "instantiate_cf32_family", "instantiate_cf43",
    "cf43_root", "RootSelectionError", "SingularParameterError",
    "GroupAction", "So3SphereAction", "Gl2PlaneAction", "Se3CoadjointAction",
    "Se3Element", "DomainError", "so3_exp", "gl2_exp", "se3_exp",
    "coadjoint_act",
    "FieldLengthError", "StepResult", "cf_step", "count_budget",
    "ConfigError", "ControllerConfig", "ControllerConfigError", "Trajectory",
    "Totals",
    "StepAttempt",
    "IntegrationError", "StepSizeUnderflowError", "TooManyRejectsError",
    "NonFiniteError", "error_measure", "next_step_size", "initial_step",
    "integrate_adaptive", "integrate_fixed",
    "Problem", "RigidBodyParams", "VdpParams", "HeavyTopParams",
    "rigid_body", "van_der_pol", "heavy_top", "build_problem", "conserved",
    "__version__",
]
