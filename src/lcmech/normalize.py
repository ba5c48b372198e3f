"""Canonical forms for jet expressions.

``normalize`` rewrites an expression as a flat sum of monomials with exact
rational coefficients: products are distributed, like monomials merged,
zeros and ones eliminated, and exponential factors within a monomial are
combined (so e^{sigma} * e^{-sigma} cancels exactly).  Polynomials in jet
coordinates, parameters, and the abstract sigma-derivative symbols
therefore normalize to a literal zero when they vanish identically.

Non-polynomial subtrees (sin, cos, the angle node, negative powers of
multi-term sums) are normalized recursively and then treated as atomic
monomial factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .nodes import (
    Add,
    Angle,
    Expr,
    ExprError,
    Func,
    Jet,
    Mul,
    Num,
    Param,
    PhiSymbol,
    Pow,
    SigmaSymbol,
    ZERO,
    sort_key,
)

# A monomial key is a tuple of (factor, exponent) pairs sorted by the
# factor's structural key; an NF is a tuple of (key, coefficient) pairs
# sorted by key.  Both are hashable so normalization results can be cached.
_Key = tuple[tuple[Expr, int], ...]
_NF = tuple[tuple[_Key, Fraction], ...]


def _nf_from_dict(d: dict[_Key, Fraction]) -> _NF:
    items = [(k, c) for k, c in d.items() if c != 0]
    items.sort(key=lambda kc: tuple((sort_key(f), e) for f, e in kc[0]))
    return tuple(items)


def _add_nf(a: _NF, b: _NF) -> _NF:
    d = dict(a)
    for k, c in b:
        d[k] = d.get(k, Fraction(0)) + c
    return _nf_from_dict(d)


def _scale_nf(a: _NF, c: Fraction) -> _NF:
    if c == 0:
        return ()
    return tuple((k, coeff * c) for k, coeff in a)


def _term_key(coeff: Fraction, factors: dict[Expr, int], exparg: _NF):
    """Fold exponential content into a single canonical exp factor."""
    fs = dict(factors)
    if exparg:
        fs[Func("exp", rebuild(exparg))] = 1
    items = [(f, e) for f, e in fs.items() if e != 0]
    items.sort(key=lambda fe: (sort_key(fe[0]), fe[1]))
    return tuple(items), coeff


def _split_term(key: _Key) -> tuple[dict[Expr, int], _NF]:
    """Separate a monomial key into plain factors and exponential content."""
    factors: dict[Expr, int] = {}
    exparg: _NF = ()
    for f, e in key:
        if isinstance(f, Func) and f.name == "exp":
            exparg = _add_nf(exparg, _scale_nf(_nf(f.arg), Fraction(e)))
        else:
            factors[f] = factors.get(f, 0) + e
    return factors, exparg


def _mul_nf(a: _NF, b: _NF) -> _NF:
    if not a or not b:
        return ()
    d: dict[_Key, Fraction] = {}
    for ka, ca in a:
        fa, ea = _split_term(ka)
        for kb, cb in b:
            fb, eb = _split_term(kb)
            factors = dict(fa)
            for f, e in fb.items():
                factors[f] = factors.get(f, 0) + e
            key, coeff = _term_key(ca * cb, factors, _add_nf(ea, eb))
            d[key] = d.get(key, Fraction(0)) + coeff
    return _nf_from_dict(d)


def _pow_nf(base: _NF, k: int) -> _NF:
    if k == 0:
        return (((), Fraction(1)),)
    if not base:
        if k < 0:
            raise ExprError("zero raised to a negative power")
        return ()
    if len(base) == 1:
        key, coeff = base[0]
        if coeff == 0:
            return ()
        factors, exparg = _split_term(key)
        newkey, newcoeff = _term_key(
            coeff**k,
            {f: e * k for f, e in factors.items()},
            _scale_nf(exparg, Fraction(k)),
        )
        return ((newkey, newcoeff),)
    if k > 0:
        out = base
        for _ in range(k - 1):
            out = _mul_nf(out, base)
        return out
    # Negative power of a genuine sum: keep it as an opaque factor.
    atom = Pow(rebuild(base), -1)
    return _pow_nf(_atom_nf(atom), -k)


def _atom_nf(e: Expr) -> _NF:
    return (((((e, 1),)), Fraction(1)),)


@lru_cache(maxsize=None)
def _nf(e: Expr) -> _NF:
    if isinstance(e, Num):
        if e.value == 0:
            return ()
        return (((), e.value),)
    if isinstance(e, (Jet, Param, PhiSymbol, SigmaSymbol)):
        return _atom_nf(e)
    if isinstance(e, Add):
        out: _NF = ()
        for t in e.terms:
            out = _add_nf(out, _nf(t))
        return out
    if isinstance(e, Mul):
        out = (((), Fraction(1)),)
        for f in e.factors:
            out = _mul_nf(out, _nf(f))
            if not out:
                return ()
        return out
    if isinstance(e, Pow):
        return _pow_nf(_nf(e.base), e.exponent)
    if isinstance(e, Func):
        arg = rebuild(_nf(e.arg))
        if e.name == "exp":
            key, coeff = _term_key(Fraction(1), {}, _nf(arg))
            return ((key, coeff),)
        if arg == ZERO:
            return () if e.name == "sin" else (((), Fraction(1)),)
        return _atom_nf(Func(e.name, arg))
    if isinstance(e, Angle):
        return _atom_nf(Angle(rebuild(_nf(e.y)), rebuild(_nf(e.x))))
    raise ExprError(f"cannot normalize node {e!r}")


def rebuild(nf: _NF) -> Expr:
    """Reconstruct the canonical Expr for a normal form."""
    terms = []
    for key, coeff in nf:
        factors = []
        if coeff != 1 or not key:
            factors.append(Num(coeff))
        for f, e in key:
            factors.append(f if e == 1 else Pow(f, e))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def normalize(e: Expr) -> Expr:
    """Canonical form of ``e``; idempotent and evaluation-preserving."""
    return rebuild(_nf(e))


def is_zero(e: Expr) -> bool:
    """Exact zero test for (rational functions built from) polynomials."""
    return not _nf(e)
