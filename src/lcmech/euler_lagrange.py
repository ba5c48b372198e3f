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
from dataclasses import dataclass, field
from fractions import Fraction

from .calculus import ConformalFactor, partial, total_derivative
from .combinatorics import exp_derivative_factor
from .evaluate import compile_expr
from .nodes import (
    Expr,
    ExprError,
    JetSpace,
    Num,
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


@dataclass(frozen=True)
class LagrangianModel:
    """A jet space, a Lagrangian expression, and a conformal factor."""

    space: JetSpace
    lagrangian: Expr
    sigma: ConformalFactor
    parameters: dict[str, float] = field(default_factory=dict, compare=False)
    coordinate_names: tuple[str, ...] = ()

    def __post_init__(self):
        for i, s in jets_in(self.lagrangian):
            self.space.check(i, s)
            if s > self.space.order:
                raise ExprError(
                    f"Lagrangian depends on jet order {s} > declared order {self.space.order}"
                )
        self.sigma.validate(self.space)


@dataclass(frozen=True)
class EquationSet:
    """One residual per base coordinate."""

    residuals: tuple[Expr, ...]

    @property
    def dim(self) -> int:
        return len(self.residuals)

    def max_jet_order(self) -> int:
        return max((s for r in self.residuals for (_, s) in jets_in(r)), default=0)


def classical_el(model: LagrangianModel) -> EquationSet:
    """Residuals of the classical n-th order Euler-Lagrange system:
    sum_{s=0}^{n} (-1)^s D_t^s dL/dq^i_(s)."""
    space, L = model.space, model.lagrangian
    residuals = []
    for i in range(1, space.dim + 1):
        terms = []
        for s in range(space.order + 1):
            sign = Num(Fraction((-1) ** s))
            terms.append(mul(sign, total_derivative(partial(L, i, s), space, s)))
        residuals.append(normalize(add(*terms)))
    return EquationSet(tuple(residuals))


def conformal_rhs(model: LagrangianModel) -> tuple[Expr, ...]:
    """The conformal source terms deforming the classical operator:

    phi_i L + sum_{s=1}^{n} (-1)^{s+1} sum_{a=0}^{s-1} C(s,a) F_{s-a} D_t^a dL/dq^i_(s)

    with F_k the exp-derivative factors from the combinatorics module.
    """
    space, L, sigma = model.space, model.lagrangian, model.sigma
    factors = {k: exp_derivative_factor(k, sigma, space) for k in range(1, space.order + 1)}
    out = []
    for i in range(1, space.dim + 1):
        terms = [mul(sigma.phi((i,)), L)]
        for s in range(1, space.order + 1):
            sign = Num(Fraction((-1) ** (s + 1)))
            for a in range(s):
                coeff = Num(Fraction(math.comb(s, a)))
                inner = total_derivative(partial(L, i, s), space, a)
                terms.append(mul(sign, coeff, factors[s - a], inner))
        out.append(normalize(add(*terms)))
    return tuple(out)


def conformal_el_expanded(model: LagrangianModel) -> EquationSet:
    """Locally conformal equations in expanded form: classical minus source.

    Carries no e^{+-sigma} weight (any exp that comes from L or sigma
    stays); valid in both abstract and concrete sigma modes.
    """
    classical = classical_el(model)
    sources = conformal_rhs(model)
    residuals = tuple(
        normalize(c - s) for c, s in zip(classical.residuals, sources)
    )
    return EquationSet(residuals)


def conformal_el_compact(model: LagrangianModel) -> EquationSet:
    """Exponential-weighted form, kept unexpanded:

    sum_{s=0}^{n} (-1)^s D_t^s ( e^{-sigma} dL/dq^i_(s) ) - e^{-sigma} phi_i L
    """
    space, L, sigma = model.space, model.lagrangian, model.sigma
    weight = exp(-sigma.expr())
    residuals = []
    for i in range(1, space.dim + 1):
        terms = []
        for s in range(space.order + 1):
            sign = Num(Fraction((-1) ** s))
            terms.append(mul(sign, total_derivative(weight * partial(L, i, s), space, s)))
        terms.append(mul(Num(Fraction(-1)), weight, sigma.phi((i,)), L))
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
    weight_l = exp(-model.sigma.expr()) * model.lagrangian
    f_action = compile_expr(weight_l)
    residuals = conformal_el_compact(model)
    f_res = [compile_expr(r) for r in residuals.residuals]
    need = max(space.order, residuals.max_jet_order(), 2 * space.order)
    ts = [t0 + (t1 - t0) * k / (FD_GRID - 1) for k in range(FD_GRID)]
    step = (t1 - t0) / (FD_GRID - 1)
    params = model.parameters

    def action(h: float) -> float:
        """S[curve + h * perturbation]."""
        vals = []
        for t in ts:
            c, d = curve.point(t, space.order), perturbation.point(t, space.order)
            vals.append(f_action({key: c[key] + h * d[key] for key in c}, params))
        return _simpson(vals, step)

    lhs = (action(FD_STEP) - action(-FD_STEP)) / (2.0 * FD_STEP)

    pair_vals = []
    for t in ts:
        point, d = curve.point(t, need), perturbation.point(t, 0)
        total = 0.0
        for i in range(1, space.dim + 1):
            total += f_res[i - 1](point, params) * d[(i, 0)]
        pair_vals.append(total)
    rhs = _simpson(pair_vals, step)
    return abs(lhs - rhs)
