"""Locally conformal higher-order Lagrangian mechanics.

Symbolically derives classical and locally conformal Euler-Lagrange
equations of arbitrary order from a Lagrangian and a conformal factor,
cross-verifies the expanded combinatorial form against the exponential-
weighted variational form, reduces the equations to explicit ODEs, and
integrates trajectories.
"""

from .nodes import (
    Add,
    Angle,
    Expr,
    ExprError,
    Func,
    Jet,
    JetOrderError,
    JetSpace,
    Mul,
    Num,
    Param,
    PhiSymbol,
    Pow,
    SigmaSymbol,
    add,
    angle,
    as_expr,
    cos,
    div,
    exp,
    mul,
    num,
    sin,
)
from .calculus import ConformalFactor, partial, substitute, total_derivative
from .normalize import is_zero, normalize
from .evaluate import EquivalenceResult, compile_expr, equivalent, evaluate
from .parser import ParseError, parse_expression
from .printing import to_latex, to_text
from .combinatorics import (
    BellTerm,
    bell_number,
    bell_terms,
    exp_derivative_factor,
    exp_derivative_factor_oracle,
    partition_tensor,
    set_partitions,
)
from .euler_lagrange import (
    EquationSet,
    JetCurve,
    LagrangianModel,
    bump_curve,
    circle_curve,
    classical_el,
    conformal_el_compact,
    conformal_el_expanded,
    conformal_rhs,
    polynomial_curve,
    variational_fd_check,
)
from .dynamics import (
    DegenerateLegendreError,
    ExplicitODE,
    Legendre,
    ReductionError,
    SingularDynamicsError,
    Trajectory,
    integrate,
    integrate_hamiltonian,
    lagrangian_hamiltonian_crosscheck,
    to_explicit_ode,
)
from .modelfile import ModelFile, ModelFileError, load_model, parse_model_text

__version__ = "0.1.0"
