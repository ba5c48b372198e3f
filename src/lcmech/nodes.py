"""Immutable expression trees over jet coordinates.

The expression language is deliberately small: exact rational constants,
jet coordinates q^i_(s), opaque named parameters, sums, products, integer
powers, and the elementary functions exp/sin/cos plus a first-class
two-argument polar-angle node.  Two extra atoms support "abstract mode",
where the conformal factor is left unspecified and its partial derivatives
appear as opaque symmetric symbols.

Every node class is a plain class with ``__slots__``, so a node has no
``__dict__``; its ``__slots__`` name its fields in the order ``__init__``
takes them.  ``Expr`` gives every node value equality (same class, equal
fields), a ``Name(field=value, ...)`` repr, pickling through ``__init__`` and
immutability, all read off those slots.  A node's structural hash,
``hash((kind, *fields))``, is computed once, when the node is built, from
its children's stored hashes, and kept in the ``_hash`` slot.  Hashing a
node is therefore O(1) and never recurses, however deep the tree; equality
stays structural, and two nodes whose stored hashes differ are unequal
without a look at their fields.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction


class ExprError(Exception):
    """Base class for expression-level failures."""


class JetOrderError(ExprError):
    """A derivative would exceed the jet space's maximum order."""


_set = object.__setattr__


class JetSpace:
    """Ambient jet space: r base coordinates carrying derivatives up to max_jet.

    ``order`` is the highest derivative the Lagrangian may depend on; the
    generated equations contain derivatives up to 2*order, so ``max_jet``
    defaults to 2*order + 1 (one spare order for diagnostics).
    """

    __slots__ = ("dim", "order", "max_jet")

    def __init__(self, dim: int, order: int, max_jet: int = -1):
        if max_jet < 0:
            max_jet = 2 * order + 1
        self.dim, self.order, self.max_jet = dim, order, max_jet
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if order < 1:
            raise ValueError("order must be >= 1")
        if max_jet < 2 * order:
            raise ValueError("max_jet must be >= 2*order")

    def _key(self):
        return self.dim, self.order, self.max_jet

    def __eq__(self, other):
        return type(other) is JetSpace and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def check(self, index: int, order: int):
        if not (1 <= index <= self.dim):
            raise ExprError(f"coordinate index {index} outside 1..{self.dim}")
        if not (0 <= order <= self.max_jet):
            raise JetOrderError(
                f"jet order {order} outside 0..{self.max_jet}; enlarge max_jet"
            )


class Expr:
    """Base of all expression nodes.  Instances are immutable and hashable."""

    __slots__ = ("_hash",)
    # Rank of the node class in ``sort_key``; also tells apart the hashes of
    # nodes of different classes with the same fields.
    _kind = -1

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return False if isinstance(other, Expr) else NotImplemented
        if self._hash != other._hash:
            return False
        for f in self.__slots__:
            a, b = getattr(self, f), getattr(other, f)
            if a is not b and a != b:
                return False
        return True

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__, which sets _hash.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __add__(self, other):
        return Add((self, as_expr(other)))

    def __radd__(self, other):
        return Add((as_expr(other), self))

    def __sub__(self, other):
        return Add((self, Mul((Num(Fraction(-1)), as_expr(other)))))

    def __rsub__(self, other):
        return Add((as_expr(other), Mul((Num(Fraction(-1)), self))))

    def __mul__(self, other):
        return Mul((self, as_expr(other)))

    def __rmul__(self, other):
        return Mul((as_expr(other), self))

    def __truediv__(self, other):
        return Mul((self, Pow(as_expr(other), -1)))

    def __rtruediv__(self, other):
        return Mul((as_expr(other), Pow(self, -1)))

    def __neg__(self):
        return Mul((Num(Fraction(-1)), self))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        return Pow(self, exponent)

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __str__(self):
        from .printing import to_text

        return to_text(self)


class Num(Expr):
    __slots__ = ("value",)
    _kind = 0

    def __init__(self, value: Fraction):
        if not isinstance(value, Fraction):
            value = Fraction(value)
        _set(self, "value", value)
        _set(self, "_hash", hash((self._kind, value)))


class Jet(Expr):
    """The jet coordinate q^index with derivative order ``order`` (index 1-based)."""

    __slots__ = ("index", "order")
    _kind = 2

    def __init__(self, index: int, order: int):
        _set(self, "index", index)
        _set(self, "order", order)
        _set(self, "_hash", hash((self._kind, index, order)))


class Param(Expr):
    """Opaque named constant (e.g. a mass), bound at evaluation time."""

    __slots__ = ("name",)
    _kind = 1

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((self._kind, name)))


class SigmaSymbol(Expr):
    """The conformal factor left opaque (abstract mode)."""

    __slots__ = ()
    _kind = 4

    def __init__(self):
        _set(self, "_hash", hash((self._kind,)))


class PhiSymbol(Expr):
    """Opaque mixed partial of the abstract conformal factor.

    ``indices`` is kept sorted so that the symbol is symmetric by construction.
    """

    __slots__ = ("indices",)
    _kind = 3

    def __init__(self, indices: tuple[int, ...]):
        indices = tuple(sorted(indices))
        _set(self, "indices", indices)
        _set(self, "_hash", hash((self._kind, indices)))

    @property
    def eval_name(self) -> str:
        return "phi_" + "_".join(str(i) for i in self.indices)


class Add(Expr):
    __slots__ = ("terms",)
    _kind = 9

    def __init__(self, terms: tuple[Expr, ...]):
        _set(self, "terms", terms)
        _set(self, "_hash", hash((self._kind, terms)))

    def children(self):
        return self.terms


class Mul(Expr):
    __slots__ = ("factors",)
    _kind = 8

    def __init__(self, factors: tuple[Expr, ...]):
        _set(self, "factors", factors)
        _set(self, "_hash", hash((self._kind, factors)))

    def children(self):
        return self.factors


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _kind = 7

    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "_hash", hash((self._kind, base, exponent)))

    def children(self):
        return (self.base,)


FUNCTIONS = ("exp", "sin", "cos")


class Func(Expr):
    """Elementary function application: exp, sin, or cos."""

    __slots__ = ("name", "arg")
    _kind = 5

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ExprError(f"unknown function {name!r}")
        _set(self, "name", name)
        _set(self, "arg", arg)
        _set(self, "_hash", hash((self._kind, name, arg)))

    def children(self):
        return (self.arg,)


class Angle(Expr):
    """atan2(y, x): the polar angle of (x, y), undefined at the origin."""

    __slots__ = ("y", "x")
    _kind = 6

    def __init__(self, y: Expr, x: Expr):
        _set(self, "y", y)
        _set(self, "x", x)
        _set(self, "_hash", hash((self._kind, y, x)))

    def children(self):
        return (self.y, self.x)


ZERO = Num(Fraction(0))
ONE = Num(Fraction(1))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Num(Fraction(x))
    raise TypeError(f"cannot convert {x!r} to Expr")


def num(x: int | Fraction) -> Num:
    return Num(Fraction(x))


def add(*terms) -> Expr:
    """The sum of ``terms``, without the ones that are a literal 0."""
    terms = tuple(t for t in map(as_expr, terms) if t.__class__ is not Num or t.value)
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def mul(*factors) -> Expr:
    """The product of ``factors``, without the ones that are a literal 1.  A
    literal 0 stays a factor: it must not hide a singular one."""
    factors = tuple(f for f in map(as_expr, factors) if f.__class__ is not Num or f.value != 1)
    if not factors:
        return ONE
    if len(factors) == 1:
        return factors[0]
    return Mul(factors)


def div(a, b) -> Expr:
    return Mul((as_expr(a), Pow(as_expr(b), -1)))


def exp(arg) -> Expr:
    return Func("exp", as_expr(arg))


def sin(arg) -> Expr:
    return Func("sin", as_expr(arg))


def cos(arg) -> Expr:
    return Func("cos", as_expr(arg))


def angle(y, x) -> Expr:
    return Angle(as_expr(y), as_expr(x))


def sort_key(e: Expr):
    """Total structural order on expressions, used for canonical forms."""
    k = e._kind
    if isinstance(e, Num):
        return (k, e.value.numerator, e.value.denominator)
    if isinstance(e, Param):
        return (k, e.name)
    if isinstance(e, Jet):
        return (k, e.index, e.order)
    if isinstance(e, PhiSymbol):
        return (k, e.indices)
    if isinstance(e, SigmaSymbol):
        return (k,)
    if isinstance(e, Func):
        return (k, e.name, sort_key(e.arg))
    if isinstance(e, Angle):
        return (k, sort_key(e.y), sort_key(e.x))
    if isinstance(e, Pow):
        return (k, sort_key(e.base), e.exponent)
    children = e.children()
    return (k, len(children)) + tuple(sort_key(c) for c in children)


def walk(*roots: Expr) -> Iterator[Expr]:
    """Yield each distinct node object under ``roots`` once, after a parent:
    a shared subtree is walked once, not once per path to it."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children())


def jets_in(e: Expr) -> set[tuple[int, int]]:
    return {(n.index, n.order) for n in walk(e) if isinstance(n, Jet)}


def contains_exp(e: Expr) -> bool:
    return any(isinstance(n, Func) and n.name == "exp" for n in walk(e))
