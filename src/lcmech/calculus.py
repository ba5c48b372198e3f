"""Partial and total derivatives on jet expressions, and the conformal factor."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    ONE,
    Param,
    PhiSymbol,
    Pow,
    SigmaSymbol,
    ZERO,
    add,
    mul,
)
from .normalize import normalize


def partial(e: Expr, index: int, order: int) -> Expr:
    """Derivative of ``e`` with respect to the jet coordinate q^index_(order).

    Every jet coordinate is treated as an independent variable.
    """
    target = (index, order)
    if isinstance(e, (Num, Param)):
        return ZERO
    if isinstance(e, Jet):
        return ONE if (e.index, e.order) == target else ZERO
    if isinstance(e, SigmaSymbol):
        return PhiSymbol((index,)) if order == 0 else ZERO
    if isinstance(e, PhiSymbol):
        return PhiSymbol(e.indices + (index,)) if order == 0 else ZERO
    if isinstance(e, Add):
        return add(*(partial(t, index, order) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        for k, f in enumerate(e.factors):
            df = partial(f, index, order)
            if df == ZERO:
                continue
            pieces.append(mul(*e.factors[:k], df, *e.factors[k + 1 :]))
        return add(*pieces)
    if isinstance(e, Pow):
        db = partial(e.base, index, order)
        if db == ZERO or e.exponent == 0:
            return ZERO
        return mul(Num(Fraction(e.exponent)), Pow(e.base, e.exponent - 1), db)
    if isinstance(e, Func):
        da = partial(e.arg, index, order)
        if da == ZERO:
            return ZERO
        if e.name == "exp":
            outer = Func("exp", e.arg)
        elif e.name == "sin":
            outer = Func("cos", e.arg)
        else:
            outer = mul(Num(Fraction(-1)), Func("sin", e.arg))
        return mul(outer, da)
    if isinstance(e, Angle):
        dy = partial(e.y, index, order)
        dx = partial(e.x, index, order)
        if dy == ZERO and dx == ZERO:
            return ZERO
        r2 = e.x**2 + e.y**2
        return (e.x * dy - e.y * dx) * Pow(r2, -1)
    raise ExprError(f"cannot differentiate node {e!r}")


def _dt(e: Expr, space: JetSpace) -> Expr:
    if isinstance(e, (Num, Param)):
        return ZERO
    if isinstance(e, Jet):
        if e.order + 1 > space.max_jet:
            raise JetOrderError(
                f"total derivative pushes q^{e.index} past max_jet={space.max_jet}"
            )
        return Jet(e.index, e.order + 1)
    if isinstance(e, (SigmaSymbol, PhiSymbol)):
        # Chain rule: the abstract factor depends on all base coordinates.
        return add(
            *(mul(partial(e, j, 0), Jet(j, 1)) for j in range(1, space.dim + 1))
        )
    if isinstance(e, Add):
        return add(*(_dt(t, space) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        for k, f in enumerate(e.factors):
            df = _dt(f, space)
            if df == ZERO:
                continue
            pieces.append(mul(*e.factors[:k], df, *e.factors[k + 1 :]))
        return add(*pieces)
    if isinstance(e, Pow):
        db = _dt(e.base, space)
        if db == ZERO or e.exponent == 0:
            return ZERO
        return mul(Num(Fraction(e.exponent)), Pow(e.base, e.exponent - 1), db)
    if isinstance(e, Func):
        da = _dt(e.arg, space)
        if da == ZERO:
            return ZERO
        if e.name == "exp":
            outer = Func("exp", e.arg)
        elif e.name == "sin":
            outer = Func("cos", e.arg)
        else:
            outer = mul(Num(Fraction(-1)), Func("sin", e.arg))
        return mul(outer, da)
    if isinstance(e, Angle):
        dy = _dt(e.y, space)
        dx = _dt(e.x, space)
        if dy == ZERO and dx == ZERO:
            return ZERO
        r2 = e.x**2 + e.y**2
        return (e.x * dy - e.y * dx) * Pow(r2, -1)
    raise ExprError(f"cannot differentiate node {e!r}")


def total_derivative(e: Expr, space: JetSpace, times: int = 1) -> Expr:
    """Apply the total time derivative D_t ``times`` times.

    D_t sends q^i_(s) to q^i_(s+1) and obeys linearity, the Leibniz rule,
    and the chain rule through function nodes.
    """
    if times < 0:
        raise ValueError("times must be >= 0")
    out = e
    for _ in range(times):
        out = _dt(out, space)
    return out


def substitute(e: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Simultaneous structural substitution of whole subtrees."""
    if e in mapping:
        return mapping[e]
    if isinstance(e, Add):
        return add(*(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    if isinstance(e, Func):
        return Func(e.name, substitute(e.arg, mapping))
    if isinstance(e, Angle):
        return Angle(substitute(e.y, mapping), substitute(e.x, mapping))
    return e


@dataclass(frozen=True)
class ConformalFactor:
    """The chart-wise conformal factor sigma(q).

    ``sigma is None`` selects abstract mode: sigma itself and its partial
    derivatives appear as opaque symbols, which reproduces displayed
    formulas without committing to a concrete function.
    """

    sigma: Expr | None = None
    _cache: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    @property
    def is_abstract(self) -> bool:
        return self.sigma is None

    def validate(self, space: JetSpace):
        if self.sigma is None:
            return
        for i, s in _jets(self.sigma):
            if s != 0:
                raise ExprError("conformal factor may depend on base coordinates only")
            space.check(i, s)

    def expr(self) -> Expr:
        return SigmaSymbol() if self.sigma is None else self.sigma

    def phi(self, indices: tuple[int, ...]) -> Expr:
        """Mixed partial of sigma with respect to the listed base coordinates."""
        key = tuple(sorted(indices))
        if self.sigma is None:
            return PhiSymbol(key)
        if key not in self._cache:
            out = self.sigma
            for i in key:
                out = partial(out, i, 0)
            self._cache[key] = normalize(out)
        return self._cache[key]

    def is_trivial(self) -> bool:
        from .normalize import is_zero

        return self.sigma is not None and is_zero(self.sigma)


def _jets(e):
    from .nodes import jets_in

    return jets_in(e)


ABSTRACT = ConformalFactor(None)


def zero_factor() -> ConformalFactor:
    return ConformalFactor(ZERO)
