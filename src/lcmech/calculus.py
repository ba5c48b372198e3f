"""Partial and total derivatives on jet expressions, and the conformal factor.

Both derivatives run the same sum, product and chain rules (``_derive``) and
differ only in how they differentiate an atom.
"""

from __future__ import annotations

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
    jets_in,
    mul,
)
from .normalize import is_zero, normalize


def _derive(e: Expr, leaf) -> Expr:
    """The sum, product and chain rules, with ``leaf(atom)`` the derivative
    of each Num, Param, Jet, SigmaSymbol or PhiSymbol."""
    if isinstance(e, (Num, Param, Jet, SigmaSymbol, PhiSymbol)):
        return leaf(e)
    if isinstance(e, Add):
        return add(*(_derive(t, leaf) for t in e.terms))
    if isinstance(e, Mul):
        pieces = []
        for k, f in enumerate(e.factors):
            df = _derive(f, leaf)
            if df == ZERO:
                continue
            pieces.append(mul(*e.factors[:k], df, *e.factors[k + 1 :]))
        return add(*pieces)
    if isinstance(e, Pow):
        db = _derive(e.base, leaf)
        if db == ZERO or e.exponent == 0:
            return ZERO
        n = e.exponent - 1
        power = e.base if n == 1 else ONE if n == 0 else Pow(e.base, n)
        return mul(Num(Fraction(e.exponent)), power, db)
    if isinstance(e, Func):
        da = _derive(e.arg, leaf)
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
        dy = _derive(e.y, leaf)
        dx = _derive(e.x, leaf)
        if dy == ZERO and dx == ZERO:
            return ZERO
        r2 = e.x**2 + e.y**2
        return (e.x * dy - e.y * dx) * Pow(r2, -1)
    raise ExprError(f"cannot differentiate node {e!r}")


def partial(e: Expr, index: int, order: int) -> Expr:
    """Derivative of ``e`` with respect to the jet coordinate q^index_(order).

    Every jet coordinate is treated as an independent variable.
    """

    def leaf(a: Expr) -> Expr:
        if isinstance(a, Jet):
            return ONE if (a.index, a.order) == (index, order) else ZERO
        if isinstance(a, SigmaSymbol) and order == 0:
            return PhiSymbol((index,))
        if isinstance(a, PhiSymbol) and order == 0:
            return PhiSymbol(a.indices + (index,))
        return ZERO

    return _derive(e, leaf)


def total_derivative(e: Expr, space: JetSpace, times: int = 1) -> Expr:
    """Apply the total time derivative D_t ``times`` times.

    D_t sends q^i_(s) to q^i_(s+1) and obeys linearity, the Leibniz rule,
    and the chain rule through function nodes.
    """
    if times < 0:
        raise ValueError("times must be >= 0")

    def leaf(a: Expr) -> Expr:
        if isinstance(a, Jet):
            if a.order + 1 > space.max_jet:
                raise JetOrderError(
                    f"total derivative pushes q^{a.index} past max_jet={space.max_jet}"
                )
            return Jet(a.index, a.order + 1)
        if isinstance(a, (SigmaSymbol, PhiSymbol)):
            # Chain rule: the abstract factor depends on all base coordinates.
            return add(*(mul(partial(a, j, 0), Jet(j, 1)) for j in range(1, space.dim + 1)))
        return ZERO

    out = e
    for _ in range(times):
        out = _derive(out, leaf)
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


class ConformalFactor:
    """The chart-wise conformal factor sigma(q).

    ``sigma is None`` selects abstract mode: sigma itself and its partial
    derivatives appear as opaque symbols, which reproduces displayed
    formulas without committing to a concrete function.

    Three tables live as long as the factor: the normalized partials of
    ``phi``; ``tensors``, the partition tensors that
    ``exp_derivative_factor`` builds, keyed by sorted index multiset; and
    ``oracles``, the normalized F^o_s of ``exp_derivative_factor_oracle``,
    keyed by (s, jet space).  So the orders 1..n of one model's equations,
    and the F_s checks of ``verify``, build each tensor and each oracle order
    once.  Equality and the hash read ``sigma`` alone.
    """

    __slots__ = ("sigma", "_cache", "tensors", "oracles")

    def __init__(self, sigma: Expr | None = None):
        self.sigma = sigma
        self._cache = {}
        self.tensors = {}
        self.oracles = {}

    def __eq__(self, other):
        return type(other) is ConformalFactor and self.sigma == other.sigma

    def __hash__(self):
        return hash(self.sigma)

    @property
    def is_abstract(self) -> bool:
        return self.sigma is None

    def validate(self, space: JetSpace):
        if self.sigma is None:
            return
        for i, s in jets_in(self.sigma):
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
        return self.sigma is not None and is_zero(self.sigma)


ABSTRACT = ConformalFactor(None)


def zero_factor() -> ConformalFactor:
    return ConformalFactor(ZERO)
