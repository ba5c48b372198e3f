"""Set-partition combinatorics behind the conformal correction terms.

The key object is the scalar F_s with d^s/dt^s e^{-sigma} = e^{-sigma} F_s.
It is built combinatorially from two ingredients: a signed sum over set
partitions of mixed partials of sigma (``partition_tensor``), and partial
exponential Bell polynomial monomials in the derivatives of q
(``bell_terms``).  ``exp_derivative_factor_oracle`` recomputes F_s by brute
force differentiation and serves as the independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .calculus import ConformalFactor, total_derivative
from .nodes import Expr, Jet, JetSpace, Num, ONE, ZERO, add, exp, mul
from .normalize import normalize

MAX_PARTITION_SIZE = 8
MAX_DERIVATIVE_ORDER = 6


@lru_cache(maxsize=None)
def set_partitions(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of {1, ..., m} into disjoint nonempty blocks.

    Enumerated via restricted growth strings, so each partition appears
    exactly once; the count is the m-th Bell number.
    """
    if not (1 <= m <= MAX_PARTITION_SIZE):
        raise ValueError(f"m must be in 1..{MAX_PARTITION_SIZE}")
    out = []

    def grow(assignment: list[int], used: int):
        if len(assignment) == m:
            blocks = [[] for _ in range(used)]
            for pos, b in enumerate(assignment, start=1):
                blocks[b].append(pos)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(used):
            grow(assignment + [b], used)
        grow(assignment + [used], used + 1)

    grow([], 0)
    return tuple(out)


def bell_number(m: int) -> int:
    return len(set_partitions(m))


@lru_cache(maxsize=None)
def partition_classes(indices: tuple[int, ...]) -> tuple[tuple[int, tuple], ...]:
    """The set partitions of the slots of a sorted index tuple, grouped by
    the index tuples of their blocks.

    Each entry is (count, blocks): ``blocks`` is the sorted tuple of the
    blocks' sorted index tuples, and ``count`` is (-1)^{|blocks|} times the
    number of slot partitions that give it.  Two partitions with the same
    blocks give the same product of mixed partials, whatever sigma is.
    """
    counts: dict[tuple, int] = {}
    for blocks in set_partitions(len(indices)):
        key = tuple(sorted(tuple(indices[pos - 1] for pos in block) for block in blocks))
        counts[key] = counts.get(key, 0) + (-1 if len(blocks) % 2 else 1)
    return tuple((count, key) for key, count in counts.items())


def partition_tensor(sigma: ConformalFactor, indices: tuple[int, ...]) -> Expr:
    """Signed partition sum of mixed partials of sigma over the given indices.

    For index slots (i1, ..., im) this is
    sum over partitions p of the slots of (-1)^{|p|} times the product over
    blocks S of the |S|-th mixed partial of sigma with respect to the
    coordinates occupying S.  Slots are distinguishable positions, so
    repeated index values are handled uniformly.  The tensor is symmetric,
    and the sum runs over ``partition_classes``: one term per distinct
    product, times its count.  A product with a partial that is a literal 0
    is left out; every partial is normalized, so it hides no singular factor.
    """
    if len(indices) < 1:
        raise ValueError("need at least one index")
    terms = []
    for count, blocks in partition_classes(tuple(sorted(indices))):
        factors = [Num(Fraction(count))]
        for block in blocks:
            phi = sigma.phi(block)
            if phi == ZERO:
                break
            factors.append(phi)
        else:
            terms.append(mul(*factors))
    return add(*terms)


class BellTerm:
    """One monomial of a partial exponential Bell polynomial.

    ``counts[j-1]`` is the multiplicity of the order-j derivative factor;
    the term carries the exact multinomial coefficient
    s! / (c_1! ... c_s! (1!)^{c_1} ... (s!)^{c_s}).
    """

    __slots__ = ("coefficient", "counts")

    def __init__(self, coefficient: Fraction, counts: tuple[int, ...]):
        self.coefficient, self.counts = coefficient, counts

    @property
    def factor_orders(self) -> tuple[int, ...]:
        orders = []
        for j, c in enumerate(self.counts, start=1):
            orders.extend([j] * c)
        return tuple(orders)


def bell_terms(s: int, m: int) -> list[BellTerm]:
    """All exponent vectors with sum j*c_j = s and sum c_j = m."""
    if not (1 <= m <= s):
        raise ValueError("need 1 <= m <= s")
    out = []

    def search(j: int, counts: list[int], weight: int, total: int):
        if j > s:
            if weight == s and total == m:
                coeff = Fraction(math.factorial(s))
                for jj, c in enumerate(counts, start=1):
                    coeff /= math.factorial(c) * math.factorial(jj) ** c
                out.append(BellTerm(coeff, tuple(counts)))
            return
        for c in range((s - weight) // j + 1):
            if total + c > m:
                break
            search(j + 1, counts + [c], weight + j * c, total + c)

    search(1, [], 0, 0)
    return out


def _arrangements(combo: tuple[int, ...]) -> int:
    """Number of distinct orderings of a sorted index tuple: c! / prod mult!."""
    out = math.factorial(len(combo))
    for _, run in itertools.groupby(combo):
        out //= math.factorial(len(tuple(run)))
    return out


def exp_derivative_factor(s: int, sigma: ConformalFactor, space: JetSpace) -> Expr:
    """The scalar F_s with d^s/dt^s e^{-sigma} = e^{-sigma} F_s, built
    combinatorially.

    Each Bell monomial contributes its coefficient times a full contraction:
    every derivative factor carries a summation index, paired with one slot
    of the partition tensor.  The c_j factors of order j commute and the
    tensor is fully symmetric, so the sum runs over index multisets, one per
    order j (``combinations_with_replacement``), each weighted by its number
    of orderings c_j! / prod mult!.  The tensor of each sorted multiset of
    all the indices is built once per conformal factor and kept in its
    ``tensors`` table, which every order s shares; a term whose tensor is a
    literal 0 is left out.  F_0 = 1.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"s capped at {MAX_DERIVATIVE_ORDER}")
    if s == 0:
        return ONE
    if s > space.max_jet:
        raise ValueError("s exceeds max_jet; enlarge the jet space")
    indices = range(1, space.dim + 1)
    tensors = sigma.tensors
    terms = []
    for m in range(1, s + 1):
        for term in bell_terms(s, m):
            groups = [(j, c) for j, c in enumerate(term.counts, start=1) if c]
            choices = [itertools.combinations_with_replacement(indices, c) for _, c in groups]
            for combos in itertools.product(*choices):
                weight = term.coefficient
                jets = []
                for (order, _), combo in zip(groups, combos):
                    weight *= _arrangements(combo)
                    jets.extend(Jet(i, order) for i in combo)
                key = tuple(sorted(i for combo in combos for i in combo))
                tensor = tensors.get(key)
                if tensor is None:
                    tensor = tensors[key] = partition_tensor(sigma, key)
                if tensor == ZERO:
                    continue
                terms.append(mul(Num(weight), tensor, *jets))
    return add(*terms)


def exp_derivative_factor_oracle(
    s: int, sigma: ConformalFactor, space: JetSpace
) -> Expr:
    """Brute-force route to the same scalar: e^{sigma} D_t^s e^{-sigma}.

    Built one order at a time, F^o_s = e^{sigma} D_t(e^{-sigma} F^o_{s-1})
    with F^o_0 = 1, each normalized: the exponentials cancel exactly,
    leaving a polynomial in the jets and the partials of sigma.  Each order
    is kept in the factor's ``oracles`` table, keyed by (s, space).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0:
        return ONE
    key = (s, space)
    out = sigma.oracles.get(key)
    if out is None:
        lower = exp_derivative_factor_oracle(s - 1, sigma, space)
        derived = total_derivative(mul(exp(-sigma.expr()), lower), space)
        out = sigma.oracles[key] = normalize(mul(exp(sigma.expr()), derived))
    return out
