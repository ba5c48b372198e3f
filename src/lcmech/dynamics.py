"""Reduction of residual equations to explicit ODEs and their integration.

The generated residuals are affine in the highest-order jets they contain,
so the top derivatives solve a small linear system M(state) q_(k) = -b(state).
M, b and an unrolled pivoted elimination are generated as one straight-line
function of the state's scalars, and integration is deterministic fixed-step
RK4 on the first-order reduction, generated as straight-line code per state
size.
The module also carries the first-order Lagrangian <-> Hamiltonian bridge:
the Legendre transform and the locally conformal Hamiltonian vector field.

Trajectories stay the lists the stepper builds: the fields of ``Trajectory``
and the results of ``integrate_hamiltonian`` are lists of floats, a state or
a q or p being one list per time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

from .calculus import ConformalFactor, partial, substitute
from .evaluate import compile_vector, exec_source, vector_source
from .nodes import (
    Expr,
    ExprError,
    Jet,
    Pow,
    ZERO,
    add,
    jets_in,
    mul,
)
from .normalize import is_zero, normalize
from .euler_lagrange import EquationSet, LagrangianModel

DET_THRESHOLD = 1e-12
# The Newton solve of ImplicitLegendre stops once max |dL/dv - p| is below
# NEWTON_TOL, and fails after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class ReductionError(ExprError):
    """The equation set cannot be put into explicit form."""


class SingularDynamicsError(ExprError):
    """The mass matrix became numerically singular mid-trajectory."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass
class ExplicitODE:
    """Explicit form q_(k) = -M^{-1} b of an equation set.

    State layout: all jets of order < k for each coordinate, flattened as
    y[i-1 + r*s] = q^i_(s).
    """

    dim: int
    top_order: int
    matrix_exprs: list[list[Expr]]
    # The state followed by the top jets -> the r residuals.
    residuals: Callable = field(repr=False)
    # field(y0, ..., y_{n-1}) -> dy/dt as a tuple, the function RK4 calls;
    # field(y0, ..., y_{n-1}, True) -> (q_(k), det M), from M q_(k) = -b.
    field: Callable = field(repr=False)

    @property
    def state_size(self) -> int:
        return self.dim * self.top_order

    def top_derivatives(self, y) -> tuple[list[float], float]:
        """Solve for q_(k); returns (values, det of the mass matrix)."""
        return self.field(*y, True)

    def rhs(self, y) -> list[float]:
        return list(self.field(*y))

    def residual_at(self, y) -> tuple[float, float]:
        """Max |residual| of the generating equations at a state, with the top
        jets from the solve, and the det of the mass matrix there.

        The top jets are re-solved from the state they are checked at, so
        the value measures round-off in the reduction and the linear solve,
        not the integration error of the trajectory.
        """
        top, det = self.top_derivatives(y)
        return max(abs(v) for v in self.residuals([*y, *top])), det


def _system_names(r: int) -> list[str]:
    """Locals of the linear system: M row-major (m<i>_<j>), then b (c<i>)."""
    return [f"m{i}_{j}" for i in range(r) for j in range(r)] + [f"c{i}" for i in range(r)]


def _elimination(r: int) -> list[str]:
    """Gaussian elimination with partial pivoting, unrolled for r unknowns.

    Unindented lines that solve M x = -b held in the locals of
    ``_system_names`` and leave x in x0..x<r-1> and det M in ``det``.  det is
    the signed product of the pivots; it is tested against DET_THRESHOLD
    before any back substitution.
    """
    rows = [[f"m{i}_{j}" for j in range(r)] + [f"c{i}"] for i in range(r)]
    lines = [*(f"{row[r]} = -{row[r]}" for row in rows), "det = 1.0"]
    for k in range(r):
        pivot = rows[k][k]
        for i in range(k + 1, r):
            # Swapping names is swapping rows: cols < k are already eliminated.
            lines += [
                f"if abs({rows[i][k]}) > abs({pivot}):",
                f" {', '.join(rows[k][k:] + rows[i][k:])} = "
                f"{', '.join(rows[i][k:] + rows[k][k:])}",
                " det = -det",
            ]
        lines += [f"if {pivot} == 0.0: raise singular()", f"det *= {pivot}"]
        for i in range(k + 1, r):
            lines.append(f"f = {rows[i][k]} / {pivot}")
            lines += [f"{rows[i][j]} -= f * {rows[k][j]}" for j in range(k + 1, r + 1)]
    lines.append("if abs(det) <= DET_THRESHOLD: raise singular()")
    for k in range(r - 1, -1, -1):
        lines.append(f"x{k} = {rows[k][r]} / {rows[k][k]}")
        lines += [f"{rows[i][r]} -= {rows[i][k]} * x{k}" for i in range(k)]
    return lines


# The names the elimination's lines use besides its locals.
_SOLVE_NAMES = {
    "abs": abs,
    "DET_THRESHOLD": DET_THRESHOLD,
    "singular": lambda: SingularDynamicsError("mass matrix is singular", math.nan),
}


def _compile_solver(r: int):
    """The unrolled elimination as f(s) -> (x, det) solving M x = -b, where
    ``s`` holds M row-major and then b."""
    xs = ", ".join(f"x{k}" for k in range(r))
    src = "\n".join(
        [
            "def solve(s):",
            f" {', '.join(_system_names(r))}, = s",
            *(" " + line for line in _elimination(r)),
            f" return [{xs}], det",
        ]
    )
    return exec_source(src, **_SOLVE_NAMES)["solve"]


def _compile_field(r: int, n: int, system, slots, params):
    """The fused vector field of a state of n floats and r coordinates.

    ``system`` is M row-major and then b.  Returns ``field(j0, ...,
    j<n-1>, solve=False)``: the entries of M and b with common subtrees
    computed once, then the elimination.  It returns (j<r>, ..., j<n-1>,
    x0, ..., x<r-1>) with x the top jets, or ([x0, ..., x<r-1>], det M)
    when ``solve`` is true: one body, so the M and b arithmetic is
    compiled once.
    """
    lines, outputs, _ = vector_source(system, slots, params)
    xs = ", ".join(f"x{k}" for k in range(r))
    src = "\n".join(
        [
            f"def field({''.join(f'j{i}, ' for i in range(n))}solve=False):",
            *(" " + line for line in lines),
            *(f" {name} = {out}" for name, out in zip(_system_names(r), outputs)),
            *(" " + line for line in _elimination(r)),
            f" if solve: return [{xs}], det",
            f" return ({''.join(f'j{i}, ' for i in range(r, n))}{xs},)",
        ]
    )
    return exec_source(src, **_SOLVE_NAMES)["field"]


def _slots(r: int, k: int) -> dict[tuple[int, int], int]:
    """State index of q^i_(s) for s <= k: jets of one order are contiguous."""
    return {(i, s): (i - 1) + r * s for s in range(k + 1) for i in range(1, r + 1)}


def to_explicit_ode(eqs: EquationSet, model: LagrangianModel) -> ExplicitODE:
    """Detect the effective order and build the explicit form.

    Degenerate Lagrangians lower the effective order below 2n (the planar
    chiral oscillator is third order, not fourth), so the order is read off
    the residuals, not the nominal one.  The mass matrix, the residuals
    with the top jets set to zero and the linear solve are compiled into one
    function of the state's scalars, ``ExplicitODE.field``, the full
    residuals into a second function.
    """
    if model.sigma.is_abstract:
        raise ReductionError("cannot reduce equations with an abstract conformal factor")
    space = model.space
    k = eqs.max_jet_order()
    if k < 1:
        raise ReductionError("residuals contain no derivatives; nothing to integrate")
    top = [Jet(i, k) for i in range(1, space.dim + 1)]
    matrix_exprs: list[list[Expr]] = []
    for res in eqs.residuals:
        row = []
        for j, tj in enumerate(top, start=1):
            entry = normalize(partial(res, j, k))
            for jj in range(1, space.dim + 1):
                if not is_zero(normalize(partial(entry, jj, k))):
                    raise ReductionError(
                        f"residual is not affine in the top-order jets (order {k})"
                    )
            row.append(entry)
        matrix_exprs.append(row)
    det_expr = _symbolic_det([[e for e in row] for row in matrix_exprs])
    if is_zero(det_expr):
        raise ReductionError(
            f"mass matrix at order {k} is structurally singular "
            "(degenerate beyond a simple order drop)"
        )
    zero_top = {t: ZERO for t in top}
    rest_exprs = [normalize(substitute(r, zero_top)) for r in eqs.residuals]
    r = space.dim
    slots = _slots(r, k)
    params = model.parameters
    entries = [e for row in matrix_exprs for e in row]
    return ExplicitODE(
        dim=r,
        top_order=k,
        matrix_exprs=matrix_exprs,
        residuals=compile_vector(eqs.residuals, slots, params),
        field=_compile_field(r, r * k, entries + rest_exprs, slots, params),
    )


def _symbolic_det(m: list[list[Expr]]) -> Expr:
    n = len(m)
    if n == 1:
        return m[0][0]
    terms = []
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        sign = 1 if j % 2 == 0 else -1
        terms.append(mul(sign, m[0][j], _symbolic_det(minor)))
    return normalize(add(*terms))


@dataclass
class Trajectory:
    """Uniform-grid time series of jet states with residual diagnostics."""

    times: list[float]
    states: list[list[float]]  # one state of dim * top_order floats per time
    dim: int
    top_order: int
    residuals: list[float]  # per-time max |residual|
    det_min: float

    @property
    def max_residual(self) -> float:
        # A nan residual makes the maximum nan, wherever it is.
        return math.nan if any(map(math.isnan, self.residuals)) else max(self.residuals)

    def column_names(self) -> list[str]:
        names = ["t"]
        for s in range(self.top_order):
            for i in range(1, self.dim + 1):
                names.append(f"q{i}" if s == 0 else f"q{i}_d{s}")
        names.append("residual_max")
        return names

    def write_csv(self, path):
        rows = [",".join(self.column_names())]
        rows += [
            ",".join(map(repr, (t, *state, res)))
            for t, state, res in zip(self.times, self.states, self.residuals)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")


def _failed_at(err: Exception, t: float) -> SingularDynamicsError:
    """A singular mass matrix, or an overflow or division by zero in the
    vector field, as a SingularDynamicsError carrying its time."""
    if isinstance(err, SingularDynamicsError):
        return SingularDynamicsError(f"singular mass matrix at t={t:.6g}", t)
    return SingularDynamicsError(f"{type(err).__name__} in the vector field at t={t:.6g}", t)


@functools.cache
def _stepper(n: int):
    """Classical fixed-step RK4 for a state of n floats, generated once per n.

    Returns ``rk4(f, y, t0, dt, steps)``: ``f(y0, ..., y<n-1>)`` returns the
    n derivatives, and ``y`` is the initial state as a sequence.  The state
    and the four stages are scalar locals, so a step builds no list but the
    state it keeps.  Returns the grid times and the state at each, as lists
    of floats.  A failure of ``f`` is raised as a SingularDynamicsError with
    the time of the failing step, as is a step that leaves the state
    non-finite.
    """
    y = [f"y{i}" for i in range(n)]
    a, b, c, d = ([f"{k}{i}" for i in range(n)] for k in "abcd")

    def call(scale, k):
        return f"f({', '.join(f'{yi} + {scale} * {ki}' for yi, ki in zip(y, k))})"

    ys = ", ".join(y)
    src = "\n".join(
        [
            "def rk4(f, y, t0, dt, steps):",
            " half, sixth = 0.5 * dt, dt / 6.0",
            f" {ys}, = y",
            f" times, states = [t0], [[{ys}]]",
            " t = t0",
            " for step in range(steps):",
            "  try:",
            f"   {', '.join(a)}, = f({ys})",
            f"   {', '.join(b)}, = {call('half', a)}",
            f"   {', '.join(c)}, = {call('half', b)}",
            f"   {', '.join(d)}, = {call('dt', c)}",
            "  except (SingularDynamicsError, ArithmeticError) as err:",
            "   raise _failed_at(err, t) from err",
            *(
                f"  {yi} = {yi} + sixth * ({ai} + 2.0 * {bi} + 2.0 * {ci} + {di})"
                for yi, ai, bi, ci, di in zip(y, a, b, c, d)
            ),
            f"  if not ({' and '.join(f'isfinite({yi})' for yi in y)}):",
            '   raise SingularDynamicsError(f"non-finite state at t={t:.6g}", t)',
            "  t = t0 + (step + 1) * dt",
            "  times.append(t)",
            f"  states.append([{ys}])",
            " return times, states",
        ]
    )
    env = {
        "isfinite": math.isfinite,
        "SingularDynamicsError": SingularDynamicsError,
        "_failed_at": _failed_at,
    }
    exec(src, env)
    return env["rk4"]


def integrate(
    ode: ExplicitODE,
    init,
    t0: float,
    t1: float,
    dt: float,
    residual_stride: int = 1,
) -> Trajectory:
    """Classical fixed-step RK4 on the first-order reduction.

    The residual and the mass-matrix determinant are sampled every
    ``residual_stride`` states and at the last one.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if len(init) != ode.state_size:
        raise ValueError(
            f"initial state must have {ode.state_size} entries "
            f"({ode.dim} coordinates x jets of order < {ode.top_order})"
        )
    steps = int(round((t1 - t0) / dt))
    y = [float(v) for v in init]
    times, states = _stepper(ode.state_size)(ode.field, y, float(t0), float(dt), steps)
    residuals = [0.0] * len(times)
    det_min = math.inf
    samples = list(range(0, len(times), residual_stride))
    if samples[-1] != len(times) - 1:
        samples.append(len(times) - 1)
    for idx in samples:
        try:
            residuals[idx], det = ode.residual_at(states[idx])
        except (SingularDynamicsError, ArithmeticError) as err:
            raise _failed_at(err, times[idx]) from err
        det_min = min(det_min, abs(det))
    return Trajectory(times, states, ode.dim, ode.top_order, residuals, det_min)


class DegenerateLegendreError(ExprError):
    """The velocity Hessian is singular; the Legendre map does not invert."""


@dataclass
class HamiltonianModel:
    """Hamiltonian picture on (q, p).

    Momenta are encoded as order-1 jets of the same jet space, so the
    existing partial-derivative machinery applies: partial(H, i, 0) is
    dH/dq^i and partial(H, i, 1) is dH/dp_i.
    """

    hamiltonian: Expr
    sigma: ConformalFactor
    dim: int
    params: dict[str, float] = field(default_factory=dict)


def _velocity_hessian(model: LagrangianModel) -> list[list[Expr]]:
    r = model.space.dim
    L = model.lagrangian
    return [
        [normalize(partial(partial(L, i, 1), j, 1)) for j in range(1, r + 1)]
        for i in range(1, r + 1)
    ]


def legendre_first_order(model: LagrangianModel) -> HamiltonianModel:
    """Legendre transform of a regular first-order model.

    p_i = dL/dq-dot^i and H = p . q-dot - L with the velocity eliminated.
    Closed-form elimination for Lagrangians quadratic in the velocities;
    otherwise the Hessian depends on the velocity and a per-evaluation
    Newton solve would be required (see ImplicitLegendre).
    """
    if model.space.order != 1:
        raise ExprError("Legendre transform implemented for first-order models")
    r = model.space.dim
    hessian = _velocity_hessian(model)
    if any(jets_in(h) for row in hessian for h in row):
        raise DegenerateLegendreError(
            "Lagrangian is not quadratic in the velocities; use ImplicitLegendre"
        )
    det = _symbolic_det(hessian)
    if is_zero(det):
        raise DegenerateLegendreError("velocity Hessian is identically singular")
    # p - c where c = dL/dv at v = 0; solve A v = p - c by Cramer's rule.
    zero_v = {Jet(i, 1): ZERO for i in range(1, r + 1)}
    momenta = [Jet(i, 1) for i in range(1, r + 1)]
    targets = [
        normalize(momenta[i - 1] - substitute(partial(model.lagrangian, i, 1), zero_v))
        for i in range(1, r + 1)
    ]
    velocities = []
    for j in range(r):
        replaced = [[targets[i] if col == j else hessian[i][col] for col in range(r)] for i in range(r)]
        numerator = _symbolic_det(replaced)
        velocities.append(normalize(mul(numerator, Pow(det, -1))))
    subs = {Jet(i + 1, 1): velocities[i] for i in range(r)}
    h = add(
        *(momenta[i] * velocities[i] for i in range(r)),
        mul(-1, substitute(model.lagrangian, subs)),
    )
    return HamiltonianModel(
        hamiltonian=normalize(h),
        sigma=model.sigma,
        dim=r,
        params=dict(model.parameters),
    )


class ImplicitLegendre:
    """Numeric Legendre transform for non-quadratic regular Lagrangians.

    Velocities are recovered from p = dL/dv by a damped Newton iteration;
    the Hamiltonian value and its derivatives follow from the envelope
    relations dH/dp = v and dH/dq = -dL/dq at the recovered velocity.
    """

    def __init__(self, model: LagrangianModel):
        if model.space.order != 1:
            raise ExprError("first-order models only")
        self.model = model
        self.dim = model.space.dim
        r = self.dim
        L = model.lagrangian
        grad_v = [partial(L, i, 1) for i in range(1, r + 1)]
        hess = [partial(g, j, 1) for g in grad_v for j in range(1, r + 1)]
        # (q, v) -> L, the Hessian row-major, then dL/dv.
        self._system = compile_vector([L, *hess, *grad_v], _slots(r, 1), model.parameters)
        self._solve = _compile_solver(r)

    def _newton_input(self, q, v, target):
        """The Hessian at (q, v), then dL/dv - p: the solver's input, whose
        solution is the Newton step."""
        _, *s = self._system([*q, *v])
        n = self.dim * self.dim
        s[n:] = [g - t for g, t in zip(s[n:], target)]
        return s

    def velocity(self, q, p, guess=None) -> list[float]:
        q = [float(x) for x in q]
        target = [float(x) for x in p]
        v = [float(x) for x in (guess if guess is not None else p)]
        n = self.dim * self.dim
        for _ in range(NEWTON_MAX_ITER):
            s = self._newton_input(q, v, target)
            base = max(map(abs, s[n:]))
            if base < NEWTON_TOL:
                return v
            try:
                step, _ = self._solve(s)
            except SingularDynamicsError as err:
                raise DegenerateLegendreError(
                    "singular velocity Hessian during Newton solve"
                ) from err
            damping = 1.0
            while damping > 1e-4:
                trial = [a + damping * b for a, b in zip(v, step)]
                if max(map(abs, self._newton_input(q, trial, target)[n:])) < base:
                    v = trial
                    break
                damping *= 0.5
            else:
                v = [a + b for a, b in zip(v, step)]
        raise DegenerateLegendreError("Newton velocity solve did not converge")

    def value(self, q, p):
        v = self.velocity(q, p)
        lag = self._system([*map(float, q), *v])[0]
        return sum(float(a) * b for a, b in zip(p, v)) - lag


def conformal_hamilton_field(ham: HamiltonianModel):
    """The locally conformal Hamiltonian vector field as f(z) -> dz/dt on the
    flat state z = (q, p):

    dq^i/dt = dH/dp_i
    dp_i/dt = -dH/dq^i - A_ij dH/dp_j + H phi_i,   A_ij = phi_i p_j - phi_j p_i.
    """
    if ham.sigma.is_abstract:
        raise ExprError("a concrete conformal factor is required for integration")
    r = ham.dim
    h = ham.hamiltonian
    exprs = [
        h,
        *(normalize(partial(h, i, 0)) for i in range(1, r + 1)),
        *(normalize(partial(h, i, 1)) for i in range(1, r + 1)),
        *(ham.sigma.phi((i,)) for i in range(1, r + 1)),
    ]
    system = compile_vector(exprs, _slots(r, 1), ham.params)

    def field(z):
        hv, *rest = system(z)
        dh_dq, dh_dp, phi, p = rest[:r], rest[r : 2 * r], rest[2 * r :], z[r:]
        # A dH/dp = phi (p . dH/dp) - p (phi . dH/dp)
        p_v = sum(a * b for a, b in zip(p, dh_dp))
        phi_v = sum(a * b for a, b in zip(phi, dh_dp))
        dp = [-dq - (f * p_v - pi * phi_v) + hv * f for dq, f, pi in zip(dh_dq, phi, p)]
        return [*dh_dp, *dp]

    return field


def conformal_source_matrix(ham: HamiltonianModel, q, p) -> list[list[float]]:
    """The antisymmetric momentum twist A_ij = phi_i p_j - phi_j p_i at a point,
    as a list of rows."""
    r = ham.dim
    phi_exprs = [ham.sigma.phi((i,)) for i in range(1, r + 1)]
    phi = compile_vector(phi_exprs, _slots(r, 0), ham.params)([*map(float, q)])
    p = [*map(float, p)]
    return [[fi * pj - pi * fj for fj, pj in zip(phi, p)] for fi, pi in zip(phi, p)]


def integrate_hamiltonian(ham: HamiltonianModel, q0, p0, t0, t1, dt):
    """RK4 on the conformal Hamiltonian field; returns (times, qs, ps), the
    grid times and one list of r floats per time for q and for p."""
    r = ham.dim
    z = [*map(float, q0), *map(float, p0)]
    steps = int(round((t1 - t0) / dt))
    vector_field = conformal_hamilton_field(ham)
    times, states = _stepper(2 * r)(lambda *s: vector_field(s), z, float(t0), float(dt), steps)
    return times, [s[:r] for s in states], [s[r:] for s in states]


def lagrangian_hamiltonian_crosscheck(
    model: LagrangianModel, init, t0: float, t1: float, dt: float
) -> float:
    """Integrate the conformal Euler-Lagrange and Hamiltonian pictures from
    matched initial data and return the max position discrepancy."""
    from .euler_lagrange import conformal_el_expanded

    r = model.space.dim
    eqs = conformal_el_expanded(model)
    ode = to_explicit_ode(eqs, model)
    if ode.top_order != 2:
        raise ExprError("crosscheck expects a second-order reduction")
    traj = integrate(ode, init, t0, t1, dt, residual_stride=max(1, int(0.1 / dt)))

    ham = legendre_first_order(model)
    momenta = [partial(model.lagrangian, i, 1) for i in range(1, r + 1)]
    p0 = compile_vector(momenta, _slots(r, 1), model.parameters)([*map(float, init)])
    _, qs, _ = integrate_hamiltonian(ham, init[:r], p0, t0, t1, dt)
    return max(abs(a - b) for y, q in zip(traj.states, qs) for a, b in zip(y[:r], q))
