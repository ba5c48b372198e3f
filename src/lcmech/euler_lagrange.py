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

CLASSICAL = "classical"
CONFORMAL_EXPANDED = "lc-expanded"
CONFORMAL_COMPACT = "lc-compact"


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

    @property
    def names(self) -> list[str] | None:
        return list(self.coordinate_names) or None


@dataclass(frozen=True)
class EquationSet:
    """One residual per base coordinate, plus provenance metadata."""

    residuals: tuple[Expr, ...]
    form: str
    order: int

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
    return EquationSet(tuple(residuals), CLASSICAL, space.order)


def conformal_rhs(model: LagrangianModel, normalized: bool = True) -> tuple[Expr, ...]:
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
        rhs = add(*terms)
        out.append(normalize(rhs) if normalized else rhs)
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
    return EquationSet(residuals, CONFORMAL_EXPANDED, model.space.order)


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
    return EquationSet(tuple(residuals), CONFORMAL_COMPACT, space.order)


class JetCurve:
    """A smooth curve t -> q(t) with analytic derivatives of every needed order.

    ``component_jets[i][k]`` is a callable giving d^k q^i / dt^k.  Curves
    form a vector space, which is what the finite-difference variational
    check needs.
    """

    def __init__(self, component_jets):
        self.component_jets = component_jets
        self.dim = len(component_jets)

    def jet(self, t: float, index: int, order: int) -> float:
        derivs = self.component_jets[index - 1]
        if order >= len(derivs):
            return 0.0
        return derivs[order](t)

    def point(self, t: float, max_order: int) -> dict[tuple[int, int], float]:
        return {
            (i, s): self.jet(t, i, s)
            for i in range(1, self.dim + 1)
            for s in range(max_order + 1)
        }

    def __add__(self, other: "JetCurve") -> "JetCurve":
        assert self.dim == other.dim
        combined = []
        for a, b in zip(self.component_jets, other.component_jets):
            n = max(len(a), len(b))
            comps = []
            for k in range(n):
                fa = a[k] if k < len(a) else (lambda t: 0.0)
                fb = b[k] if k < len(b) else (lambda t: 0.0)
                comps.append(lambda t, fa=fa, fb=fb: fa(t) + fb(t))
            combined.append(comps)
        return JetCurve(combined)

    def scaled(self, c: float) -> "JetCurve":
        return JetCurve(
            [[(lambda t, f=f, c=c: c * f(t)) for f in comp] for comp in self.component_jets]
        )


def polynomial_curve(coefficient_rows, max_order: int) -> JetCurve:
    """Curve whose i-th component is the polynomial with the given coefficients
    (ascending powers of t); derivatives are taken exactly."""
    import numpy.polynomial.polynomial as npoly
    import numpy as np

    components = []
    for coeffs in coefficient_rows:
        c = np.asarray(coeffs, dtype=float)
        derivs = []
        for k in range(max_order + 1):
            ck = npoly.polyder(c, k) if k else c
            derivs.append(lambda t, ck=ck: float(npoly.polyval(t, ck)))
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
    import numpy.polynomial.polynomial as npoly
    import numpy as np

    base = np.array([-t0, 1.0])  # t - t0
    other = np.array([t1, -1.0])  # t1 - t
    poly = npoly.polypow(npoly.polymul(base, other), vanish_order)
    return polynomial_curve([poly] * dim, max_order)


def _simpson(values, h: float) -> float:
    n = len(values) - 1
    if n % 2 != 0:
        raise ValueError("Simpson quadrature needs an even interval count")
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
    grid: int = 1001,
    h: float = 1e-3,
) -> float:
    """Finite-difference validation of the integration-by-parts chain.

    Compares the central difference (S[c + h d] - S[c - h d]) / 2h of the
    weighted action S = int e^{-sigma} L dt against the pairing
    int sum_i residual_i * d q^i dt built from the compact residuals.
    Returns the absolute discrepancy.
    """
    if model.sigma.is_abstract:
        raise ExprError("the variational check needs a concrete conformal factor")
    if grid % 2 == 0:
        grid += 1
    space = model.space
    weight_l = exp(-model.sigma.expr()) * model.lagrangian
    f_action = compile_expr(weight_l)
    residuals = conformal_el_compact(model)
    f_res = [compile_expr(r) for r in residuals.residuals]
    need = max(space.order, residuals.max_jet_order(), 2 * space.order)
    ts = [t0 + (t1 - t0) * k / (grid - 1) for k in range(grid)]
    step = (t1 - t0) / (grid - 1)
    params = model.parameters

    def action(c: JetCurve) -> float:
        vals = [f_action(c.point(t, space.order), params) for t in ts]
        return _simpson(vals, step)

    plus = curve + perturbation.scaled(h)
    minus = curve + perturbation.scaled(-h)
    lhs = (action(plus) - action(minus)) / (2.0 * h)

    pair_vals = []
    for t in ts:
        point = curve.point(t, need)
        total = 0.0
        for i in range(1, space.dim + 1):
            total += f_res[i - 1](point, params) * perturbation.jet(t, i, 0)
        pair_vals.append(total)
    rhs = _simpson(pair_vals, step)
    return abs(lhs - rhs)
