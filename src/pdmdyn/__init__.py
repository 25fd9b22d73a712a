"""Position-dependent-mass Lagrangian dynamics.

Builds and integrates the equations of motion of n-dimensional systems whose
kinetic term carries position-dependent multipliers, maps them onto
constant-mass reference oscillators through a per-coordinate nonlocal point
transformation, and verifies every catalogued closed-form solution,
frequency relation and energy formula against an independent residual
oracle.
"""

from .core import (ParameterSet, PdmSystem, PotentialSpec, State, Termination,
                   Trajectory, TYPE1, TYPE2, build_system, kinetic_energy,
                   parameter_set, potential_energy, potential_gradient,
                   total_energy)
from .eom import el1_acceleration, el1_residual, el1_rhs, el2_acceleration, el2_rhs
from .exact import (AMENDED_FORM, PUBLISHED_FORM, ExactSolutionSpec, MISPRINTS,
                    exact_energy, exact_solution, exact_trajectory,
                    frequency_relation, kinematics, ml2_reduction_check,
                    oscillation_period)
from .errors import (DomainViolation, ExprDomainError, ExprSyntaxError,
                     InvalidParameter, InvalidSpec, MissingParameter,
                     NonPositiveScale, NoPeriod, PdmError, SingularCoefficient,
                     SingularPoint, UnknownCheck, UnknownIdentifier,
                     UnsupportedFamily)
from .exprparse import eval_dual, eval_gradient, parse_expression, to_source
from .integrate import (ADAPTIVE45, FIXED_RK4, IntegratorOptions,
                        estimate_period, integrate, sample_dense)
from .profiles import CoupledProfile, CustomProfile
from .transform import (MappedTrajectory, NonlocalMap, el2_mapped_residual,
                        el2_obstruction, elg_residual, f_scale,
                        map_to_reference, potential_match_residual, q_map,
                        reference_map, tau_values)
from .verify import (CheckReport, SuiteSummary, check_names, run_check,
                     run_suite, standard_case)

__version__ = "0.1.0"
