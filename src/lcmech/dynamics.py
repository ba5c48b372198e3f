"""Reduction of residual equations to explicit ODEs and their integration.

The generated residuals are affine in the highest-order jets they contain,
so the top derivatives solve a small linear system M(state) q_(k) = -b(state).
M, b and an unrolled pivoted elimination are generated as one straight-line
function of the state's scalars, and integration is deterministic fixed-step
RK4 on the first-order reduction, generated as straight-line code per state
size.
The module also carries the first-order Lagrangian <-> Hamiltonian bridge,
``Legendre``: a Newton inversion of p = dL/dv and the locally conformal
Hamiltonian vector field, both read from one compiled function of (q, v),
integrated by the same RK4 stepper.

Trajectories stay the lists the stepper builds: the fields of ``Trajectory``
and the results of ``integrate_hamiltonian`` are lists of floats, a state or
a q or p being one list per time.
"""

from __future__ import annotations

import functools
import math

from .calculus import partial, substitute
from .evaluate import compile_vector, exec_source, literal, vector_source
from .nodes import Expr, ExprError, Jet, ZERO, add, jets_in, mul
from .normalize import is_zero, normalize
from .euler_lagrange import EquationSet, LagrangianModel

DET_THRESHOLD = 1e-12
# The Newton solve of Legendre stops once max |dL/dv - p| is below
# NEWTON_TOL * (1 + max |p|), and fails after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class ReductionError(ExprError):
    """The equation set cannot be put into explicit form."""


class SingularDynamicsError(ExprError):
    """The mass matrix became numerically singular mid-trajectory."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class ExplicitODE:
    """Explicit form q_(k) = -M^{-1} b of an equation set.

    State layout: all jets of order < k for each coordinate, flattened as
    y[i-1 + r*s] = q^i_(s).  ``residuals`` maps the state followed by the
    top jets to the r residuals.  ``field(y0, ..., y_{n-1})`` is dy/dt as a
    tuple, the function RK4 calls; ``field(y0, ..., y_{n-1}, True)`` is
    (q_(k), det M), from M q_(k) = -b.
    """

    __slots__ = ("dim", "top_order", "matrix_exprs", "residuals", "field")

    def __init__(self, dim: int, top_order: int, matrix_exprs: list[list[Expr]], residuals, field):
        self.dim, self.top_order, self.matrix_exprs = dim, top_order, matrix_exprs
        self.residuals, self.field = residuals, field

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


def _folded_elimination(r: int, m: list[float]) -> list[str]:
    """``_elimination`` for a constant M, given as r*r floats row-major.

    The pivot choices, det and the elimination factors are computed here,
    with the operations and in the order of ``_elimination``'s lines, so
    the returned lines hold only the b-side updates and the back
    substitution, with the folded values as float literals, and set
    ``det``.  An update by a folded zero is left out.  They compute the same
    floats, but for the sign of a zero and where b is inf or nan.  A zero
    pivot or a det at or below DET_THRESHOLD gives the one line
    ``raise singular()``.
    """
    rows = [m[i * r : (i + 1) * r] for i in range(r)]
    # Swapping rows of M swaps the names of their b entries.
    cs = [f"c{i}" for i in range(r)]
    lines = [f"{c} = -{c}" for c in cs]
    det = 1.0
    for k in range(r):
        for i in range(k + 1, r):
            if abs(rows[i][k]) > abs(rows[k][k]):
                rows[k][k:], rows[i][k:] = rows[i][k:], rows[k][k:]
                cs[k], cs[i] = cs[i], cs[k]
                det = -det
        pivot = rows[k][k]
        if pivot == 0.0:
            return ["raise singular()"]
        det *= pivot
        for i in range(k + 1, r):
            f = rows[i][k] / pivot
            for j in range(k + 1, r):
                rows[i][j] -= f * rows[k][j]
            if f != 0.0:
                lines.append(f"{cs[i]} -= {literal(f)} * {cs[k]}")
    if abs(det) <= DET_THRESHOLD:
        return ["raise singular()"]
    lines.append(f"det = {literal(det)}")
    for k in range(r - 1, -1, -1):
        lines.append(f"x{k} = {cs[k]} / {literal(rows[k][k])}")
        lines += [f"{cs[i]} -= {literal(rows[i][k])} * x{k}" for i in range(k) if rows[i][k]]
    return lines


def _constant_matrix(entries, slots, params) -> list[float] | None:
    """The entries of M as floats when none reads the state, else None;
    also None when computing them fails, so that the field fails per call."""
    if any(jets_in(e) for e in entries):
        return None
    try:
        return list(compile_vector(entries, slots, params)(()))
    except (ArithmeticError, ValueError):
        return None


def _compile_field(r: int, n: int, system, slots, params):
    """The fused vector field of a state of n floats and r coordinates.

    ``system`` is M row-major and then b.  Returns ``field(j0, ...,
    j<n-1>, solve=False)``: the entries of M and b with common subtrees
    computed once, then the elimination.  It returns (j<r>, ..., j<n-1>,
    x0, ..., x<r-1>) with x the top jets, or ([x0, ..., x<r-1>], det M)
    when ``solve`` is true: one body, so the M and b arithmetic is
    compiled once.  A constant M is folded: the field computes only b and
    the b-side of the elimination (``_folded_elimination``).
    """
    m = _constant_matrix(system[: r * r], slots, params)
    if m is None:
        lines, outputs, _ = vector_source(system, slots, params)
        names, solve = _system_names(r), _elimination(r)
    else:
        lines, outputs, _ = vector_source(system[r * r :], slots, params)
        names, solve = _system_names(r)[r * r :], _folded_elimination(r, m)
    xs = ", ".join(f"x{k}" for k in range(r))
    src = "\n".join(
        [
            f"def field({''.join(f'j{i}, ' for i in range(n))}solve=False):",
            *(" " + line for line in lines),
            *(f" {name} = {out}" for name, out in zip(names, outputs)),
            *(" " + line for line in solve),
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


class Trajectory:
    """Uniform-grid time series of jet states with residual diagnostics:
    ``states`` holds one state of dim * top_order floats per time, and
    ``residuals`` the max |residual| per time."""

    __slots__ = ("times", "states", "dim", "top_order", "residuals", "det_min")

    def __init__(self, times, states, dim: int, top_order: int, residuals, det_min: float):
        self.times, self.states, self.dim, self.top_order = times, states, dim, top_order
        self.residuals, self.det_min = residuals, det_min

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


class Legendre:
    """The Legendre map of a regular first-order model and its locally
    conformal Hamiltonian vector field, on the flat state z = (q, p).

    One compiled function of (q, v) gives the velocity Hessian d2L/dv2
    row-major, dL/dv, dL/dq, phi and L.  ``velocity`` inverts p = dL/dv by
    damped Newton, each step solved with the unrolled elimination; one step
    is exact when L is quadratic in v.  No Hamiltonian is built: by the
    envelope relations dH/dp = v and dH/dq = -dL/dq at that velocity, the
    textbook field

        dq/dt = dH/dp,  dp/dt = -dH/dq - A dH/dp + H phi,
        A_ij = phi_i p_j - phi_j p_i,  H = p . v - L,

    is dq/dt = v, dp/dt = dL/dq - phi L + p (phi . v).
    """

    __slots__ = ("dim", "_system", "_solve")

    def __init__(self, model: LagrangianModel):
        if model.space.order != 1:
            raise ExprError("Legendre map implemented for first-order models")
        if model.sigma.is_abstract:
            raise ExprError("the Legendre map needs a concrete conformal factor")
        r = self.dim = model.space.dim
        L = model.lagrangian
        grad_v = [normalize(partial(L, i, 1)) for i in range(1, r + 1)]
        hess = [normalize(partial(g, j, 1)) for g in grad_v for j in range(1, r + 1)]
        grad_q = [normalize(partial(L, i, 0)) for i in range(1, r + 1)]
        phi = [model.sigma.phi((i,)) for i in range(1, r + 1)]
        self._system = compile_vector(
            [*hess, *grad_v, *grad_q, *phi, L], _slots(r, 1), model.parameters
        )
        self._solve = _compile_solver(r)

    def _at(self, q, p, guess=None):
        """The velocity at (q, p) and the compiled outputs at (q, v).

        Newton stops once max |dL/dv - p| is below NEWTON_TOL (1 + max |p|):
        the rounding of dL/dv grows with the size of p.
        """
        n, r = self.dim * self.dim, self.dim
        q, p = [*map(float, q)], [*map(float, p)]
        v = [*map(float, p if guess is None else guess)]
        tol = NEWTON_TOL * (1.0 + max(map(abs, p)))
        out = self._system([*q, *v])
        for _ in range(NEWTON_MAX_ITER):
            gap = [g - t for g, t in zip(out[n : n + r], p)]
            base = max(map(abs, gap))
            if base < tol:
                return v, out
            try:
                step, _ = self._solve([*out[:n], *gap])
            except SingularDynamicsError as err:
                raise DegenerateLegendreError(
                    "singular velocity Hessian during Newton solve"
                ) from err
            damping = 1.0
            while damping > 1e-4:
                trial = [a + damping * b for a, b in zip(v, step)]
                trial_out = self._system([*q, *trial])
                if max(abs(g - t) for g, t in zip(trial_out[n : n + r], p)) < base:
                    v, out = trial, trial_out
                    break
                damping *= 0.5
            else:
                v = [a + b for a, b in zip(v, step)]
                out = self._system([*q, *v])
        raise DegenerateLegendreError("Newton velocity solve did not converge")

    def momentum(self, q, v) -> list[float]:
        """p = dL/dv at (q, v)."""
        n, r = self.dim * self.dim, self.dim
        return list(self._system([*map(float, q), *map(float, v)])[n : n + r])

    def velocity(self, q, p, guess=None) -> list[float]:
        """The v with dL/dv(q, v) = p, by Newton from ``guess`` (default p)."""
        return self._at(q, p, guess)[0]

    def value(self, q, p) -> float:
        """H = p . v - L."""
        v, out = self._at(q, p)
        return sum(float(a) * b for a, b in zip(p, v)) - out[-1]

    def field(self, *z) -> list[float]:
        """dz/dt at z = (q, p), given as 2 * dim floats."""
        n, r = self.dim * self.dim, self.dim
        p = z[r:]
        v, out = self._at(z[:r], p)
        grad_q, phi, lag = out[n + r : n + 2 * r], out[n + 2 * r : n + 3 * r], out[-1]
        phi_v = sum(f * w for f, w in zip(phi, v))
        return [*v, *(g - f * lag + pi * phi_v for g, f, pi in zip(grad_q, phi, p))]


def integrate_hamiltonian(leg: Legendre, q0, p0, t0, t1, dt):
    """RK4 on the conformal Hamiltonian field; returns (times, qs, ps), the
    grid times and one list of r floats per time for q and for p."""
    r = leg.dim
    z = [*map(float, q0), *map(float, p0)]
    steps = int(round((t1 - t0) / dt))
    times, states = _stepper(2 * r)(leg.field, z, float(t0), float(dt), steps)
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

    leg = Legendre(model)
    p0 = leg.momentum(init[:r], init[r:])
    _, qs, _ = integrate_hamiltonian(leg, init[:r], p0, t0, t1, dt)
    return max(abs(a - b) for y, q in zip(traj.states, qs) for a, b in zip(y[:r], q))
