"""Classical and locally conformal Euler-Lagrange equation generation.

Equations are represented as residuals: classical operator minus conformal
source, so "the equation holds" always means "the residual vanishes along
the curve".  The expanded form is produced through the binomial/Bell route;
the compact exponential-weighted form is kept as an independent second
route, and the two are cross-checked numerically (expanded = e^{sigma} *
compact).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .calculus import ConformalFactor, partial, total_derivative
from .combinatorics import exp_derivative_factor
from .evaluate import compile_vector
from .nodes import (
    Expr,
    ExprError,
    JetSpace,
    Num,
    ONE,
    ZERO,
    add,
    exp,
    jets_in,
    mul,
)
from .normalize import normalize

# Points of the Simpson grid of the variational check, an odd count as
# Simpson's rule needs, and the step h of its central difference.
FD_GRID = 1001
FD_STEP = 1e-3


class LagrangianModel:
    """A jet space, a Lagrangian expression, and a conformal factor.

    Equality and the hash ignore ``parameters``.
    """

    __slots__ = ("space", "lagrangian", "sigma", "parameters", "coordinate_names")

    def __init__(
        self,
        space: JetSpace,
        lagrangian: Expr,
        sigma: ConformalFactor,
        parameters: dict[str, float] | None = None,
        coordinate_names: tuple[str, ...] = (),
    ):
        self.space, self.lagrangian, self.sigma = space, lagrangian, sigma
        self.parameters = {} if parameters is None else parameters
        self.coordinate_names = coordinate_names
        for i, s in jets_in(lagrangian):
            space.check(i, s)
            if s > space.order:
                raise ExprError(
                    f"Lagrangian depends on jet order {s} > declared order {space.order}"
                )
        sigma.validate(space)

    def _key(self):
        return self.space, self.lagrangian, self.sigma, self.coordinate_names

    def __eq__(self, other):
        return type(other) is LagrangianModel and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class EquationSet:
    """One residual per base coordinate."""

    __slots__ = ("residuals",)

    def __init__(self, residuals: tuple[Expr, ...]):
        self.residuals = residuals

    @property
    def dim(self) -> int:
        return len(self.residuals)

    def max_jet_order(self) -> int:
        return max((s for r in self.residuals for (_, s) in jets_in(r)), default=0)


def _binomial_sums(model: LagrangianModel, i: int) -> list[Expr]:
    """S_k = sum_{s=k}^{n} (-1)^s C(s, k) D_t^{s-k} dL/dq^i_(s) for k = 0..n,
    unnormalized.

    The rungs D_t^a dL/dq^i_(s), a = 0..s, are one ladder per s, each rung
    one D_t of the rung below, and every S_k reads from it.  S_0 is the
    classical operator.  By the Leibniz rule e^{sigma} D_t^s (e^{-sigma} f)
    = sum_k C(s, k) F_k D_t^{s-k} f, so the expanded residual is
    S_0 + sum_{k>=1} F_k S_k - phi_i L.
    """
    space, L = model.space, model.lagrangian
    sums = [[] for _ in range(space.order + 1)]
    for s in range(space.order + 1):
        rung = partial(L, i, s)
        if rung == ZERO:
            continue
        ladder = [rung]
        for _ in range(s):
            rung = total_derivative(rung, space)
            ladder.append(rung)
        for k in range(s + 1):
            sums[k].append(mul(Num(Fraction((-1) ** s * math.comb(s, k))), ladder[s - k]))
    return [add(*terms) for terms in sums]


def _deformations(model: LagrangianModel) -> list[tuple[Expr, list[Expr]]]:
    """Per coordinate, S_0 and the unnormalized terms that the conformal
    factor adds to it: F_k S_k for k = 1..n, and -phi_i L."""
    space, L, sigma = model.space, model.lagrangian, model.sigma
    factors = [exp_derivative_factor(k, sigma, space) for k in range(1, space.order + 1)]
    out = []
    for i in range(1, space.dim + 1):
        classical, *sums = _binomial_sums(model, i)
        terms = [mul(f, s) for f, s in zip(factors, sums)]
        terms.append(mul(Num(Fraction(-1)), sigma.phi((i,)), L))
        out.append((classical, terms))
    return out


def classical_el(model: LagrangianModel) -> EquationSet:
    """Residuals of the classical n-th order Euler-Lagrange system:
    sum_{s=0}^{n} (-1)^s D_t^s dL/dq^i_(s)."""
    return EquationSet(
        tuple(normalize(_binomial_sums(model, i)[0]) for i in range(1, model.space.dim + 1))
    )


def conformal_rhs(model: LagrangianModel) -> tuple[Expr, ...]:
    """The conformal source terms deforming the classical operator:

    phi_i L + sum_{s=1}^{n} (-1)^{s+1} sum_{a=0}^{s-1} C(s,a) F_{s-a} D_t^a dL/dq^i_(s)

    with F_k the exp-derivative factors from the combinatorics module.
    """
    return tuple(
        normalize(mul(Num(Fraction(-1)), add(*terms))) for _, terms in _deformations(model)
    )


def conformal_el_expanded(model: LagrangianModel) -> EquationSet:
    """Locally conformal equations in expanded form: classical minus source,
    normalized once per coordinate.

    Carries no e^{+-sigma} weight (any exp that comes from L or sigma
    stays); valid in both abstract and concrete sigma modes.
    """
    return EquationSet(
        tuple(normalize(add(classical, *terms)) for classical, terms in _deformations(model))
    )


def conformal_el_compact(model: LagrangianModel) -> EquationSet:
    """Exponential-weighted form, kept unexpanded:

    sum_{s=0}^{n} (-1)^s D_t^s ( e^{-sigma} dL/dq^i_(s) ) - e^{-sigma} phi_i L

    A term whose dL/dq^i_(s), or phi_i, is a literal 0 is left out, and the
    weight is 1 when sigma is a literal 0.
    """
    space, L, sigma = model.space, model.lagrangian, model.sigma
    weight = ONE if sigma.sigma == ZERO else exp(-sigma.expr())
    residuals = []
    for i in range(1, space.dim + 1):
        terms = []
        for s in range(space.order + 1):
            dl = partial(L, i, s)
            if dl != ZERO:
                sign = Num(Fraction((-1) ** s))
                terms.append(mul(sign, total_derivative(mul(weight, dl), space, s)))
        phi = sigma.phi((i,))
        if phi != ZERO:
            terms.append(mul(Num(Fraction(-1)), weight, phi, L))
        residuals.append(add(*terms))
    return EquationSet(tuple(residuals))


class JetCurve:
    """A smooth curve t -> q(t) with analytic derivatives of every needed order.

    ``component_jets[i][k]`` is a callable giving d^k q^(i+1) / dt^k; the
    derivatives past the last callable are zero.
    """

    def __init__(self, component_jets):
        self.component_jets = component_jets

    def point(self, t: float, max_order: int) -> dict[tuple[int, int], float]:
        return {
            (i, s): derivs[s](t) if s < len(derivs) else 0.0
            for i, derivs in enumerate(self.component_jets, start=1)
            for s in range(max_order + 1)
        }


def _horner(coeffs: list[float], t: float) -> float:
    value = 0.0
    for c in reversed(coeffs):
        value = value * t + c
    return value


def polynomial_curve(coefficient_rows, max_order: int) -> JetCurve:
    """Curve whose i-th component is the polynomial with the given coefficients
    (ascending powers of t); derivatives are taken exactly."""
    components = []
    for row in coefficient_rows:
        coeffs = [float(c) for c in row]
        derivs = []
        for _ in range(max_order + 1):
            derivs.append(lambda t, coeffs=coeffs: _horner(coeffs, t))
            coeffs = [k * c for k, c in enumerate(coeffs)][1:]
        components.append(derivs)
    return JetCurve(components)


def circle_curve(center, radius: float, omega: float, max_order: int) -> JetCurve:
    """Planar loop center + radius*(cos wt, sin wt) with exact derivatives."""
    cx, cy = center

    def x_deriv(k):
        def f(t, k=k):
            phase = omega * t + k * math.pi / 2.0
            base = radius * (omega**k) * math.cos(phase)
            return base + (cx if k == 0 else 0.0)

        return f

    def y_deriv(k):
        def f(t, k=k):
            phase = omega * t + k * math.pi / 2.0
            base = radius * (omega**k) * math.sin(phase)
            return base + (cy if k == 0 else 0.0)

        return f

    return JetCurve(
        [[x_deriv(k) for k in range(max_order + 1)], [y_deriv(k) for k in range(max_order + 1)]]
    )


def bump_curve(t0: float, t1: float, vanish_order: int, dim: int, max_order: int) -> JetCurve:
    """Perturbation ((t-t0)(t1-t))^vanish_order per component: vanishes with
    derivatives up to vanish_order - 1 at both endpoints."""
    # (t - t0)(t1 - t) = -t0 t1 + (t0 + t1) t - t^2, multiplied in repeatedly.
    factor = (-t0 * t1, t0 + t1, -1.0)
    poly = [1.0]
    for _ in range(vanish_order):
        out = [0.0] * (len(poly) + 2)
        for k, c in enumerate(poly):
            for j, f in enumerate(factor):
                out[k + j] += c * f
        poly = out
    return polynomial_curve([poly] * dim, max_order)


def _simpson(values, h: float) -> float:
    total = values[0] + values[-1]
    total += 4.0 * sum(values[1:-1:2])
    total += 2.0 * sum(values[2:-1:2])
    return total * h / 3.0


def variational_fd_check(
    model: LagrangianModel,
    curve: JetCurve,
    perturbation: JetCurve,
    t0: float,
    t1: float,
) -> float:
    """Finite-difference validation of the integration-by-parts chain.

    Compares the central difference (S[c + h d] - S[c - h d]) / 2h of the
    weighted action S = int e^{-sigma} L dt against the pairing
    int sum_i residual_i * d q^i dt built from the compact residuals.
    Returns the absolute discrepancy.
    """
    if model.sigma.is_abstract:
        raise ExprError("the variational check needs a concrete conformal factor")
    space = model.space
    residuals = conformal_el_compact(model)
    need = max(space.order, residuals.max_jet_order(), 2 * space.order)
    # Both functions read the values of curve.point(t, need), in its order.
    slots = {key: k for k, key in enumerate(curve.point(t0, need))}
    weight_l = exp(-model.sigma.expr()) * model.lagrangian
    f_action = compile_vector([weight_l], slots, model.parameters)
    f_res = compile_vector(residuals.residuals, slots, model.parameters)
    ts = [t0 + (t1 - t0) * k / (FD_GRID - 1) for k in range(FD_GRID)]
    step = (t1 - t0) / (FD_GRID - 1)

    def action(h: float) -> float:
        """S[curve + h * perturbation]."""
        vals = []
        for t in ts:
            c, d = curve.point(t, need), perturbation.point(t, need)
            vals.append(f_action([c[key] + h * d[key] for key in c])[0])
        return _simpson(vals, step)

    lhs = (action(FD_STEP) - action(-FD_STEP)) / (2.0 * FD_STEP)

    pair_vals = []
    for t in ts:
        values, d = f_res(list(curve.point(t, need).values())), perturbation.point(t, 0)
        total = 0.0
        for i in range(1, space.dim + 1):
            total += values[i - 1] * d[(i, 0)]
        pair_vals.append(total)
    rhs = _simpson(pair_vals, step)
    return abs(lhs - rhs)
