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

The normal form (NF) is a tuple of (monomial, coefficient) pairs in no
particular order.  A coefficient is exact and non-zero: a plain ``int``
whenever its denominator is 1, a ``Fraction`` only for a true rational.  A
monomial is a pair (factors, exparg): factors is a frozenset of (factor,
non-zero exponent) pairs, one per distinct factor, and exparg is the
frozenset of NF pairs of the argument of its single exp factor (empty
without one).  A frozenset stores its hash once computed, so a monomial
key hashes in O(1) however many factors it has, and merging needs no
ordering: only ``rebuild`` sorts, factors and then monomials by
``sort_key``.  Equal factor sets are interned in ``_FACTOR_SETS``, which,
like the ``_NF_MEMO`` memo, is process-wide and lives as long as the
process: a factor set built again is the stored object, so memory stays
flat and equal keys compare by identity.  NFs are immutable, so the
memoized ones are shared between callers.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from fractions import Fraction

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
    add,
    mul,
    sort_key,
)

_Coeff = int | Fraction
_Monomial = tuple[frozenset, frozenset]
_NF = tuple[tuple[_Monomial, _Coeff], ...]

# frozenset() is a fresh 216-byte object on each call; share one, as the
# factors and the exparg of a monomial without them.
_EMPTY: frozenset = frozenset()
_ONE: _NF = (((_EMPTY, _EMPTY), 1),)

# Process-wide, like _NF_MEMO: factor set -> the one stored equal object.
_FACTOR_SETS: dict[frozenset, frozenset] = {}


def _coeff(v: _Coeff) -> _Coeff:
    """``v`` as an int when its denominator is 1."""
    if v.__class__ is Fraction and v.denominator == 1:
        return v.numerator
    return v


def _merge(pairs: Iterable[tuple[Hashable, _Coeff]]) -> list:
    """Sum the values of equal keys; drop the keys whose sum is zero."""
    d: dict = {}
    for k, v in pairs:
        old = d.get(k)
        d[k] = v if old is None else _coeff(old + v)
    return [kv for kv in d.items() if kv[1]]


def _factors(pairs) -> frozenset:
    """The interned frozenset of (factor, exponent) ``pairs``."""
    fs = frozenset(pairs)
    return _FACTOR_SETS.setdefault(fs, fs)


def _exparg(pairs) -> frozenset:
    return frozenset(pairs) if pairs else _EMPTY


def _mono_mul(a: _Monomial, b: _Monomial) -> _Monomial:
    (fa, xa), (fb, xb) = a, b
    if fa and fb:
        powers = dict(fa)
        for f, e in fb:
            e += powers.get(f, 0)
            if e:
                powers[f] = e
            else:
                del powers[f]
        factors = _factors(powers.items()) if powers else _EMPTY
    else:
        factors = fa or fb
    exparg = _exparg(_merge([*xa, *xb])) if xa and xb else xa or xb
    return factors, exparg


def _mul_nf(a: _NF, b: _NF) -> _NF:
    return tuple(
        _merge((_mono_mul(ma, mb), _coeff(ca * cb)) for ma, ca in a for mb, cb in b)
    )


def _pow_nf(base: _NF, k: int) -> _NF:
    if k == 0:
        return _ONE
    if not base:
        if k < 0:
            raise ExprError("zero raised to a negative power")
        return ()
    if len(base) == 1:
        ((factors, exparg), coeff), = base
        factors = _factors((f, e * k) for f, e in factors) if factors else _EMPTY
        exparg = _exparg([(m, _coeff(c * k)) for m, c in exparg])
        # An int to a negative power is a Fraction, never a float.
        return (((factors, exparg), _coeff(Fraction(coeff) ** k if k < 0 else coeff**k)),)
    if k > 0:
        out = base
        for _ in range(k - 1):
            out = _mul_nf(out, base)
        return out
    # Negative power of a genuine sum: keep it as an opaque factor.
    atom = Pow(rebuild(base), -1)
    return _pow_nf(_atom_nf(atom), -k)


def _atom_nf(e: Expr) -> _NF:
    return (((_factors(((e, 1),)), _EMPTY), 1),)


# Process-wide and unbounded: expression -> NF.  ``normalize`` also records
# each output it returns, so normalizing or zero-testing an output again is
# one lookup.
_NF_MEMO: dict[Expr, _NF] = {}


def _nf(e: Expr) -> _NF:
    nf = _NF_MEMO.get(e)
    if nf is not None:
        return nf
    if isinstance(e, Num):
        nf = () if e.value == 0 else (((_EMPTY, _EMPTY), _coeff(e.value)),)
    elif isinstance(e, (Jet, Param, PhiSymbol, SigmaSymbol)):
        nf = _atom_nf(e)
    elif isinstance(e, Add):
        # A plain loop: a generator here would add frames per nesting level.
        pairs = []
        for t in e.terms:
            pairs.extend(_nf(t))
        nf = tuple(_merge(pairs))
    elif isinstance(e, Mul):
        nf = _ONE
        for f in e.factors:
            fnf = _nf(f)  # even after a zero factor, so that its errors raise
            if nf:
                nf = fnf if nf is _ONE else _mul_nf(nf, fnf)
    elif isinstance(e, Pow):
        nf = _pow_nf(_nf(e.base), e.exponent)
    elif isinstance(e, Func):
        if e.name == "exp":
            nf = (((_EMPTY, _exparg(_nf(e.arg))), 1),)
        else:
            arg = rebuild(_nf(e.arg))
            if arg == ZERO:
                nf = () if e.name == "sin" else _ONE
            else:
                nf = _atom_nf(Func(e.name, arg))
    elif isinstance(e, Angle):
        nf = _atom_nf(Angle(rebuild(_nf(e.y)), rebuild(_nf(e.x))))
    else:
        raise ExprError(f"cannot normalize node {e!r}")
    _NF_MEMO[e] = nf
    return nf


def rebuild(nf: Iterable[tuple[_Monomial, _Coeff]]) -> Expr:
    """Reconstruct the canonical Expr for a normal form.

    Factors are ordered by ``sort_key``, the exp factor among them, and
    monomials by their ordered factors.
    """
    keys: dict[Expr, tuple] = {}
    terms = []
    for (factors, exparg), coeff in nf:
        if exparg:
            factors = [*factors, (Func("exp", rebuild(exparg)), 1)]
        for f, _ in factors:
            if f not in keys:
                keys[f] = sort_key(f)
        factors = sorted(factors, key=lambda fe: keys[fe[0]])
        out = [Num(coeff)] if coeff != 1 or not factors else []
        out.extend(f if e == 1 else Pow(f, e) for f, e in factors)
        terms.append(([(keys[f], e) for f, e in factors], mul(*out)))
    terms.sort(key=lambda kt: kt[0])
    return add(*(term for _, term in terms))


def normalize(e: Expr) -> Expr:
    """Canonical form of ``e``; idempotent and evaluation-preserving.

    The memo behind it holds both the NF of every input and, for each
    output, the NF it was rebuilt from, so normalizing an output again, or
    zero-testing it, is a lookup rather than a second walk.
    """
    nf = _nf(e)
    out = rebuild(nf)
    _NF_MEMO.setdefault(out, nf)
    return out


def is_zero(e: Expr) -> bool:
    """Exact zero test for (rational functions built from) polynomials."""
    return not _nf(e)
