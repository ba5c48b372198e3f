"""Set partitions, Bell polynomials, partition tensors, exp-derivative factors."""

import itertools
import random
from fractions import Fraction

import pytest

from lcmech import (
    JetSpace,
    Jet,
    PhiSymbol,
    add,
    bell_number,
    bell_terms,
    equivalent,
    exp,
    exp_derivative_factor,
    exp_derivative_factor_oracle,
    is_zero,
    mul,
    normalize,
    num,
    parse_expression,
    partition_tensor,
    set_partitions,
    total_derivative,
)
from lcmech.calculus import ABSTRACT, ConformalFactor, zero_factor
from lcmech.combinatorics import MAX_DERIVATIVE_ORDER, MAX_PARTITION_SIZE


def test_set_partition_counts_match_bell_numbers():
    expected = [1, 2, 5, 15, 52, 203]
    for m, count in zip(range(1, 7), expected):
        assert len(set_partitions(m)) == count
        assert bell_number(m) == count


def test_set_partitions_are_actual_partitions():
    for m in range(1, 6):
        for blocks in set_partitions(m):
            flat = sorted(itertools.chain.from_iterable(blocks))
            assert flat == list(range(1, m + 1))


def test_set_partitions_no_duplicates():
    for m in range(1, 7):
        canon = {tuple(sorted(tuple(sorted(b)) for b in p)) for p in set_partitions(m)}
        assert len(canon) == len(set_partitions(m))


def test_partition_size_cap():
    with pytest.raises(Exception):
        set_partitions(MAX_PARTITION_SIZE + 1)


# ---------------------------------------------------------------------------
# Bell polynomial exponent data


def test_bell_terms_satisfy_side_conditions():
    for s in range(1, MAX_DERIVATIVE_ORDER + 1):
        for m in range(1, s + 1):
            for term in bell_terms(s, m):
                counts = term.counts
                assert sum((j + 1) * c for j, c in enumerate(counts)) == s
                assert sum(counts) == m


def test_bell_terms_known_small_cases():
    # B_{1,1} = q', B_{2,1} = q'', B_{2,2} = q'q', B_{3,2} = 3 q''q'
    def monos(s, m):
        return sorted(
            (t.coefficient, tuple(sorted(t.factor_orders))) for t in bell_terms(s, m)
        )

    assert monos(1, 1) == [(Fraction(1), (1,))]
    assert monos(2, 1) == [(Fraction(1), (2,))]
    assert monos(2, 2) == [(Fraction(1), (1, 1))]
    assert monos(3, 1) == [(Fraction(1), (3,))]
    assert monos(3, 2) == [(Fraction(3), (1, 2))]
    assert monos(3, 3) == [(Fraction(1), (1, 1, 1))]
    # B_{4,2} = 3 q''^2 + 4 q'q'''
    assert monos(4, 2) == [(Fraction(3), (2, 2)), (Fraction(4), (1, 3))]


def test_bell_coefficients_sum_to_stirling_total():
    # Setting all derivative factors to 1 turns B_{s,m} into the Stirling
    # number S(s,m); summing over m gives the Bell number.
    for s in range(1, 7):
        total = sum(
            sum(t.coefficient for t in bell_terms(s, m)) for m in range(1, s + 1)
        )
        assert total == bell_number(s)


# ---------------------------------------------------------------------------
# partition tensors


def test_partition_tensor_m1_m2_m3_displays():
    # Phi_1 = -phi_i ; Phi_2 = phi_i phi_j - phi_ij ;
    # Phi_3 = -phi_i phi_j phi_k + phi_i phi_jk + phi_j phi_ik + phi_k phi_ij - phi_ijk
    rng = random.Random(5)
    p = lambda *ix: PhiSymbol(tuple(ix))
    t1 = partition_tensor(ABSTRACT, (1,))
    assert equivalent(t1, mul(num(-1), p(1)), rng=rng)

    t2 = partition_tensor(ABSTRACT, (1, 2))
    want2 = add(mul(p(1), p(2)), mul(num(-1), p(1, 2)))
    assert equivalent(t2, want2, rng=rng)

    t3 = partition_tensor(ABSTRACT, (1, 2, 3))
    want3 = add(
        mul(num(-1), p(1), p(2), p(3)),
        mul(p(1), p(2, 3)),
        mul(p(2), p(1, 3)),
        mul(p(3), p(1, 2)),
        mul(num(-1), p(1, 2, 3)),
    )
    assert equivalent(t3, want3, rng=rng)


def test_partition_tensor_symmetric_under_index_permutation():
    sigma = ConformalFactor(
        parse_expression("x^3 + x*y^2 + sin(y)", JetSpace(2, 2), ["x", "y"])
    )
    for perm in itertools.permutations((1, 2, 2)):
        assert is_zero(
            add(
                partition_tensor(sigma, (1, 2, 2)),
                mul(num(-1), partition_tensor(sigma, perm)),
            )
        )


def test_partition_tensor_concrete_values():
    space = JetSpace(1, 1)
    sigma = ConformalFactor(parse_expression("x^2", space, ["x"]))
    # phi_1 = 2x, phi_11 = 2: Phi_2 = 4x^2 - 2.
    t2 = partition_tensor(sigma, (1, 1))
    want = parse_expression("4*x^2 - 2", space, ["x"])
    assert is_zero(add(normalize(t2), mul(num(-1), normalize(want))))


SIGMA_KINDS = {
    "zero": "0",
    "linear": "2*x - 3*y + z",
    "quadratic": "x^2 - 2*y*z + 3*x*y",
    "polar": "3*atan2(y, x)",
    "abstract": None,
}


def _kind_sigmas(kind):
    """(space, a fresh conformal factor of the given kind) for dims 1-3; the
    polar angle needs dim >= 2."""
    for dim in (1, 2, 3):
        if kind == "polar" and dim < 2:
            continue
        names = ["x", "y", "z"][:dim]
        space = JetSpace(dim=dim, order=5, max_jet=11)
        text = SIGMA_KINDS[kind]
        if text is None:
            yield space, ConformalFactor(None)
            continue
        for q in ("y", "z")[dim - 1 :]:
            text = text.replace(q, "x")
        yield space, ConformalFactor(parse_expression(text, space, names))


@pytest.mark.parametrize("kind", SIGMA_KINDS)
def test_partition_tensor_equals_set_partition_sum(kind):
    # One term per set partition of the slots, literal-zero partials kept.
    for space, sigma in _kind_sigmas(kind):
        for m in range(1, 7):
            for indices in ((1,) * m, tuple((k * 5) % space.dim + 1 for k in range(m))):
                brute = []
                for blocks in set_partitions(m):
                    phis = [sigma.phi(tuple(indices[pos - 1] for pos in b)) for b in blocks]
                    brute.append(mul(num((-1) ** len(blocks)), *phis))
                got = normalize(partition_tensor(sigma, indices))
                assert got == normalize(add(*brute)), (kind, space.dim, indices)


@pytest.mark.parametrize("kind", SIGMA_KINDS)
def test_cached_oracle_equals_direct_differentiation(kind):
    for space, sigma in _kind_sigmas(kind):
        e = sigma.expr()
        for s in range(1, 6):
            direct = normalize(mul(exp(e), total_derivative(exp(-e), space, s)))
            got = exp_derivative_factor_oracle(s, sigma, space)
            assert got == direct, (kind, space.dim, s)
            assert exp_derivative_factor_oracle(s, sigma, space) is got
        assert sorted(sigma.oracles) == [(s, space) for s in range(1, 6)]


def test_partition_tensor_trivial_sigma_vanishes():
    sigma = zero_factor()
    for m in range(1, 4):
        assert is_zero(partition_tensor(sigma, (1,) * m))


# ---------------------------------------------------------------------------
# exp-derivative factors


def test_exp_derivative_factor_zeroth_is_one():
    space = JetSpace(1, 1)
    assert exp_derivative_factor(0, ABSTRACT, space) == num(1)


def test_exp_derivative_factor_low_order_displays():
    # B_1 = -phi_i q'^i
    # B_2 = -phi_i q''^i + (phi_i phi_j - phi_ij) q'^i q'^j
    # B_3 = -phi_i q'''^i + 3 (phi_i phi_j - phi_ij) q''^i q'^j + Phi_3 q'q'q'
    rng = random.Random(9)
    space = JetSpace(dim=2, order=3, max_jet=7)
    p = lambda *ix: PhiSymbol(tuple(ix))
    q = Jet

    def sum_over(fn, reps):
        terms = [
            fn(*combo) for combo in itertools.product((1, 2), repeat=reps)
        ]
        return add(*terms)

    want1 = sum_over(lambda i: mul(num(-1), p(i), q(i, 1)), 1)
    got1 = exp_derivative_factor(1, ABSTRACT, space)
    assert equivalent(got1, want1, tol=1e-9, rng=rng)

    want2 = add(
        sum_over(lambda i: mul(num(-1), p(i), q(i, 2)), 1),
        sum_over(
            lambda i, j: mul(add(mul(p(i), p(j)), mul(num(-1), p(i, j))), q(i, 1), q(j, 1)),
            2,
        ),
    )
    got2 = exp_derivative_factor(2, ABSTRACT, space)
    assert equivalent(got2, want2, tol=1e-9, rng=rng)

    def phi3(i, j, k):
        return add(
            mul(num(-1), p(i), p(j), p(k)),
            mul(p(i), p(j, k)),
            mul(p(j), p(i, k)),
            mul(p(k), p(i, j)),
            mul(num(-1), p(i, j, k)),
        )

    want3 = add(
        sum_over(lambda i: mul(num(-1), p(i), q(i, 3)), 1),
        sum_over(
            lambda i, j: mul(
                num(3), add(mul(p(i), p(j)), mul(num(-1), p(i, j))), q(i, 2), q(j, 1)
            ),
            2,
        ),
        sum_over(lambda i, j, k: mul(phi3(i, j, k), q(i, 1), q(j, 1), q(k, 1)), 3),
    )
    got3 = exp_derivative_factor(3, ABSTRACT, space)
    assert equivalent(got3, want3, tol=1e-9, rng=rng)


def test_exp_derivative_factor_vs_oracle_concrete():
    rng = random.Random(42)
    space = JetSpace(dim=2, order=2, max_jet=8)
    sigma = ConformalFactor(parse_expression("x^2*y - y^3 + x", space, ["x", "y"]))
    params = {}
    for s in range(1, 5):
        got = exp_derivative_factor(s, sigma, space)
        want = exp_derivative_factor_oracle(s, sigma, space)
        assert equivalent(got, want, trials=20, tol=1e-9, params=params, rng=rng), s


def test_exp_derivative_factor_trivial_sigma():
    space = JetSpace(1, 2, max_jet=6)
    for s in range(1, 4):
        assert is_zero(exp_derivative_factor(s, zero_factor(), space))


def test_exp_derivative_factor_order_cap():
    with pytest.raises(Exception):
        exp_derivative_factor(MAX_DERIVATIVE_ORDER + 1, ABSTRACT, JetSpace(1, 1, max_jet=10))


def _ordered_assignment_reference(s, sigma, space):
    """F_s with one term per ordered index assignment, the tensor rebuilt for
    each: the contraction before it was folded over index multisets."""
    terms = []
    for m in range(1, s + 1):
        for term in bell_terms(s, m):
            orders = term.factor_orders
            for assignment in itertools.product(range(1, space.dim + 1), repeat=m):
                jets = [Jet(i, order) for i, order in zip(assignment, orders)]
                tensor = partition_tensor(sigma, assignment)
                terms.append(mul(num(term.coefficient), tensor, *jets))
    return add(*terms)


CONCRETE_SIGMA = {1: "x^3 - 2*x", 2: "x^2*y - y^3 + x", 3: "x^2 + y*z - 3*x*y*z"}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exp_derivative_factor_equals_ordered_assignment_sum_exactly(dim):
    names = ["x", "y", "z"][:dim]
    space = JetSpace(dim=dim, order=5, max_jet=10)
    concrete = ConformalFactor(parse_expression(CONCRETE_SIGMA[dim], space, names))
    for sigma in (ABSTRACT, concrete):
        for s in range(1, 6):
            new = exp_derivative_factor(s, sigma, space)
            old = _ordered_assignment_reference(s, sigma, space)
            assert is_zero(normalize(add(new, mul(num(-1), old)))), (dim, s, sigma)


def test_exp_derivative_factor_builds_one_tensor_per_index_multiset(monkeypatch):
    import lcmech.combinatorics as combinatorics

    built = []

    def counting(sigma, indices):
        built.append(indices)
        return partition_tensor(sigma, indices)

    monkeypatch.setattr(combinatorics, "partition_tensor", counting)
    space = JetSpace(dim=3, order=5, max_jet=10)
    # F_s needs the multisets of sizes 1..s; the factor's table already holds
    # those of the lower orders, so order s builds only the ones of size s.
    sigma = ConformalFactor(None)
    for s in range(1, 6):
        built.clear()
        exp_derivative_factor(s, sigma, space)
        assert sorted(built) == list(itertools.combinations_with_replacement((1, 2, 3), s)), s
    built.clear()
    for s in range(1, 6):
        exp_derivative_factor(s, sigma, space)
    assert built == []
