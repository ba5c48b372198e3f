"""Classical and locally conformal Euler-Lagrange derivation."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from lcmech import (
    Jet,
    JetSpace,
    LagrangianModel,
    PhiSymbol,
    add,
    bump_curve,
    circle_curve,
    classical_el,
    conformal_el_compact,
    conformal_el_expanded,
    conformal_rhs,
    equivalent,
    exp,
    exp_derivative_factor,
    is_zero,
    mul,
    normalize,
    num,
    parse_expression,
    partial,
    polynomial_curve,
    total_derivative,
    variational_fd_check,
)
from lcmech.calculus import ABSTRACT, ConformalFactor, zero_factor
from lcmech.modelfile import load_model
from lcmech.models import BUNDLED, bundled_path
from lcmech.nodes import Func, Num, Pow, contains_exp, walk


def _model(dim, order, text, names, sigma_text=None, params=None, max_jet=None):
    space = JetSpace(dim=dim, order=order, max_jet=max_jet or 2 * order + 2)
    L = parse_expression(text, space, names)
    if sigma_text is None:
        sigma = ABSTRACT
    elif sigma_text == "0":
        sigma = zero_factor()
    else:
        sigma = ConformalFactor(parse_expression(sigma_text, space, names))
    return LagrangianModel(
        space=space,
        lagrangian=L,
        sigma=sigma,
        parameters=params or {},
        coordinate_names=tuple(names),
    )


# ---------------------------------------------------------------------------
# classical equations


def test_classical_free_particle():
    m = _model(1, 1, "1/2*x'^2", ["x"], "0")
    (res,) = classical_el(m).residuals
    assert normalize(add(res, Jet(1, 2))) == num(0)


def test_classical_harmonic_oscillator():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"], "0")
    (res,) = classical_el(m).residuals
    want = normalize(parse_expression("-x - x''", m.space, ["x"]))
    assert res == want


def test_classical_second_order_kinetic():
    # L = 1/2 q''^2 gives the fourth-order equation q_(4) = 0.
    m = _model(1, 2, "1/2*x''^2", ["x"])
    (res,) = classical_el(m).residuals
    assert normalize(add(res, mul(num(-1), Jet(1, 4)))) == num(0)


def test_classical_chiral_oscillator_exact():
    m = _model(
        2,
        2,
        "-lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)",
        ["x", "y"],
        "0",
        params={"lam": 0.5, "m": 1.0},
    )
    res = classical_el(m).residuals
    space = m.space
    want_x = normalize(parse_expression("lam*y''' - m*x''", space, ["x", "y"]))
    want_y = normalize(parse_expression("-lam*x''' - m*y''", space, ["x", "y"]))
    assert res[0] == want_x
    assert res[1] == want_y


# ---------------------------------------------------------------------------
# conformal source terms: hardcoded low-order displays in abstract mode


def _phi(*ix):
    return PhiSymbol(tuple(ix))


def test_conformal_source_first_order_display():
    # A^1_i = phi_i L - phi_j q'^j dL/dq'^i
    rng = random.Random(3)
    m = _model(2, 1, "1/2*(x'^2 + y'^2) - exp(x)*y", ["x", "y"])
    space, L = m.space, m.lagrangian
    sources = conformal_rhs(m)
    for i in (1, 2):
        want = add(
            mul(_phi(i), L),
            mul(
                num(-1),
                add(*[mul(_phi(j), Jet(j, 1)) for j in (1, 2)]),
                partial(L, i, 1),
            ),
        )
        assert equivalent(sources[i - 1], want, tol=1e-9, rng=rng), i


def test_conformal_source_second_order_display():
    # A^2_i = phi_i L - phi_k q'^k dL/dq'^i
    #         + (phi_k q''^k + phi_kl q'^k q'^l - phi_k phi_l q'^k q'^l) dL/dq''^i
    #         + 2 phi_k q'^k d/dt dL/dq''^i
    rng = random.Random(5)
    m = _model(2, 2, "x''*y'' + x'*y' - x*y", ["x", "y"])
    space, L = m.space, m.lagrangian
    sources = conformal_rhs(m)
    dims = (1, 2)
    lee_dot = add(*[mul(_phi(k), Jet(k, 1)) for k in dims])
    coeff = add(
        add(*[mul(_phi(k), Jet(k, 2)) for k in dims]),
        add(*[mul(_phi(k, l), Jet(k, 1), Jet(l, 1)) for k in dims for l in dims]),
        mul(num(-1), add(*[mul(_phi(k), _phi(l), Jet(k, 1), Jet(l, 1)) for k in dims for l in dims])),
    )
    for i in dims:
        want = add(
            mul(_phi(i), L),
            mul(num(-1), lee_dot, partial(L, i, 1)),
            mul(coeff, partial(L, i, 2)),
            mul(num(2), lee_dot, total_derivative(partial(L, i, 2), space)),
        )
        assert equivalent(sources[i - 1], want, tol=1e-9, rng=rng), i


def test_conformal_source_third_order_display():
    # A^3_i = phi_i L + B1 dL/dq'^i - (B2 + 2 B1 d/dt) dL/dq''^i
    #         + (B3 + 3 B2 d/dt + 3 B1 d^2/dt^2) dL/dq(3)^i
    rng = random.Random(7)
    m = _model(1, 3, "1/2*x(3)^2 + x''*x' - x^2", ["x"], max_jet=8)
    space, L = m.space, m.lagrangian
    B = {s: exp_derivative_factor(s, ABSTRACT, space) for s in (1, 2, 3)}
    (source,) = conformal_rhs(m)
    i = 1
    want = add(
        mul(_phi(i), L),
        mul(B[1], partial(L, i, 1)),
        mul(
            num(-1),
            add(
                mul(B[2], partial(L, i, 2)),
                mul(num(2), B[1], total_derivative(partial(L, i, 2), space)),
            ),
        ),
        add(
            mul(B[3], partial(L, i, 3)),
            mul(num(3), B[2], total_derivative(partial(L, i, 3), space)),
            mul(num(3), B[1], total_derivative(partial(L, i, 3), space, 2)),
        ),
    )
    assert equivalent(source, want, tol=1e-9, rng=rng)


def test_source_collapses_when_top_jet_absent():
    # If L has no q_(n) dependence, the order-n source equals the order-(n-1) one.
    rng = random.Random(11)
    text = "1/2*x'^2 - x^4"
    m2 = _model(1, 2, text, ["x"], max_jet=8)
    m1 = _model(1, 1, text, ["x"], max_jet=8)
    s2 = conformal_rhs(m2)[0]
    s1 = conformal_rhs(m1)[0]
    assert equivalent(s2, s1, tol=1e-10, rng=rng)


# ---------------------------------------------------------------------------
# the expanded form against the formula, term by term

SIGMA_KINDS = {
    "zero": "0",
    "linear": "2*x - 3*y + z",
    "quadratic": "x^2 - 2*y*z + 3*x*y",
    "polar": "3*atan2(y, x)",
    "abstract": None,
}

# Every order 1-5, every dim 1-3 and every sigma kind, and order 5, dim 3
# (the size of the ROADMAP.md headline) with a quadratic and an abstract sigma.
EXPANDED_CASES = [
    (1, 1, "zero"), (1, 2, "polar"), (1, 3, "abstract"),
    (2, 1, "linear"), (2, 2, "quadratic"), (2, 3, "zero"),
    (3, 1, "abstract"), (3, 2, "polar"), (3, 3, "quadratic"),
    (4, 1, "quadratic"), (4, 2, "abstract"), (4, 3, "linear"),
    (5, 1, "linear"), (5, 2, "polar"), (5, 3, "quadratic"), (5, 3, "abstract"),
]


def _kind_model(order, dim, kind):
    names = ["x", "y", "z"][:dim]
    top = " + ".join(f"{q}({order})^2" for q in names)
    text = f"1/2*({top}) + x^2*{names[-1]}' - 3*{names[-1]}*x({order - 1})^2"
    sigma_text = SIGMA_KINDS[kind]
    if sigma_text not in (None, "0"):
        for q in ("y", "z")[dim - 1 :]:
            sigma_text = sigma_text.replace(q, "x")
    return _model(dim, order, text, names, sigma_text, max_jet=2 * order + 1)


def _formula_reference(model):
    """Per coordinate, the classical operator, the source and classical
    minus source, each built term by term as the formulas read, with one
    D_t^a per (s, a), and normalized."""
    space, L, sigma = model.space, model.lagrangian, model.sigma
    n = space.order
    F = {k: exp_derivative_factor(k, sigma, space) for k in range(1, n + 1)}
    out = []
    for i in range(1, space.dim + 1):
        classical = add(
            *(
                mul(num((-1) ** s), total_derivative(partial(L, i, s), space, s))
                for s in range(n + 1)
            )
        )
        source = [mul(sigma.phi((i,)), L)]
        for s in range(1, n + 1):
            for a in range(s):
                inner = total_derivative(partial(L, i, s), space, a)
                coeff = num((-1) ** (s + 1) * math.comb(s, a))
                source.append(mul(coeff, F[s - a], inner))
        c, src = normalize(classical), normalize(add(*source))
        out.append((c, src, normalize(add(c, mul(num(-1), src)))))
    return out


@pytest.mark.parametrize("order,dim,kind", EXPANDED_CASES)
def test_expanded_equals_classical_minus_source_exactly(order, dim, kind):
    model = _kind_model(order, dim, kind)
    want = _formula_reference(model)
    assert list(classical_el(model).residuals) == [c for c, _, _ in want]
    assert list(conformal_rhs(model)) == [src for _, src, _ in want]
    assert list(conformal_el_expanded(model).residuals) == [r for _, _, r in want]


# ---------------------------------------------------------------------------
# expanded vs compact


def test_expanded_form_contains_no_exponentials():
    m = _model(1, 2, "1/2*x''^2 + x'", ["x"], "x^2")
    eqs = conformal_el_expanded(m)
    for res in eqs.residuals:
        assert not contains_exp(res)


def test_compact_equals_weighted_expanded():
    rng = random.Random(13)
    cases = [
        _model(1, 1, "1/2*x'^2 - x^2", ["x"], "x"),
        _model(1, 2, "1/2*x''^2 + x*x'", ["x"], "x^2"),
        _model(2, 1, "x'*y' + x*y", ["x", "y"], "x + y^2"),
        _model(2, 2, "x''*y'' - x'*y'", ["x", "y"], "x*y"),
        _model(1, 3, "1/2*x(3)^2", ["x"], "x", max_jet=8),
    ]
    for m in cases:
        weight = exp(m.sigma.expr())
        compact = conformal_el_compact(m)
        expanded = conformal_el_expanded(m)
        for i in range(m.space.dim):
            lhs = mul(weight, compact.residuals[i])
            assert equivalent(lhs, expanded.residuals[i], tol=1e-8, rng=rng), (m, i)


def test_compact_equals_weighted_expanded_abstract():
    rng = random.Random(17)
    m = _model(1, 2, "1/2*x''^2 - x'", ["x"])
    weight = exp(m.sigma.expr())
    compact = conformal_el_compact(m)
    expanded = conformal_el_expanded(m)
    assert equivalent(
        mul(weight, compact.residuals[0]), expanded.residuals[0], tol=1e-8, rng=rng
    )


@pytest.mark.parametrize("name", BUNDLED)
def test_compact_form_has_no_literal_zero_or_unit(name):
    # No Num 0 or 1 (so no exp(-0) weight), no x^1 or x^0, no exp of a
    # literal: the compact form prints no factor that is 1 or 0.
    model = load_model(bundled_path(name)).model
    for residual in conformal_el_compact(model).residuals:
        for node in walk(residual):
            assert not (isinstance(node, Num) and node.value in (0, 1)), (name, node)
            assert not (isinstance(node, Pow) and node.exponent in (0, 1)), (name, node)
            assert not (isinstance(node, Func) and isinstance(node.arg, Num)), (name, node)


def test_compact_form_of_trivial_sigma_has_no_weight():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"], sigma_text="0")
    assert not contains_exp(conformal_el_compact(m).residuals[0])
    # A term whose dL/dq_(s) is a literal 0 is left out: here s = 0.
    m = _model(1, 1, "1/2*x'^2", ["x"], sigma_text="x")
    (residual,) = conformal_el_compact(m).residuals
    assert len(residual.terms) == 2


def test_model_equality_ignores_parameters_and_factor_caches():
    a = _model(2, 2, "1/2*m*x''^2 + k*x*y'", ["x", "y"], "x^2 + y", {"m": 1.0})
    b = _model(2, 2, "1/2*m*x''^2 + k*x*y'", ["x", "y"], "x^2 + y", {"m": 2.0, "k": 3.0})
    # Fill one factor's caches: the partials of sigma and the F_s tensors.
    exp_derivative_factor(2, a.sigma, a.space)
    assert a.sigma._cache and a.sigma.tensors and not b.sigma.tensors
    assert a.sigma == b.sigma and hash(a.sigma) == hash(b.sigma)
    assert a == b and hash(a) == hash(b)
    assert a.space == JetSpace(2, 2, 6) and hash(a.space) == hash(JetSpace(2, 2, 6))
    for other in (
        _model(2, 2, "1/2*m*x''^2 + k*x*y'", ["x", "y"], "x^2 - y"),
        _model(2, 2, "1/2*m*x''^2 + k*x*y'", ["x", "y"]),
        LagrangianModel(a.space, a.lagrangian, a.sigma, coordinate_names=("u", "v")),
        _model(2, 2, "1/2*m*x''^2 + k*x*y'", ["x", "y"], "x^2 + y", max_jet=7),
        _model(2, 2, "1/2*m*x''^2 - k*x*y'", ["x", "y"], "x^2 + y"),
    ):
        assert a != other
    assert ConformalFactor(None) == ABSTRACT != zero_factor()


def test_trivial_sigma_collapses_to_classical():
    for m in [
        _model(1, 1, "1/2*x'^2 - x^2", ["x"], "0"),
        _model(2, 2, "x''*y'' + x*y", ["x", "y"], "0"),
    ]:
        for src in conformal_rhs(m):
            assert is_zero(src)
        assert conformal_el_expanded(m).residuals == classical_el(m).residuals


# ---------------------------------------------------------------------------
# chiral oscillator, locally conformal display


def test_chiral_lc_matches_second_order_display():
    # The conformal source for the chiral Lagrangian, evaluated against the
    # generic second-order display with dL/dq'^i = -lam/2 eps_ij q''^j + m q'_i
    # and dL/dq''^i = lam/2 eps_ij q'^j.
    rng = random.Random(19)
    m = _model(
        2,
        2,
        "-lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)",
        ["x", "y"],
        params={"lam": 0.7, "m": 1.3},
    )
    space, L = m.space, m.lagrangian
    names = ["x", "y"]
    lam = parse_expression("lam", space, names)
    mm = parse_expression("m", space, names)
    eps = {(1, 2): num(1), (2, 1): num(-1), (1, 1): num(0), (2, 2): num(0)}
    dims = (1, 2)

    def dL_dv(i):
        return add(
            mul(num(Fraction(-1, 2)), lam, add(*[mul(eps[(i, j)], Jet(j, 2)) for j in dims])),
            mul(mm, Jet(i, 1)),
        )

    def dL_da(i):
        return mul(num(Fraction(1, 2)), lam, add(*[mul(eps[(i, j)], Jet(j, 1)) for j in dims]))

    lee_dot = add(*[mul(_phi(l), Jet(l, 1)) for l in dims])
    sources = conformal_rhs(m)
    for i in dims:
        want = add(
            mul(_phi(i), L),
            mul(num(-1), lee_dot, dL_dv(i)),
            mul(
                add(
                    add(*[mul(_phi(l), Jet(l, 2)) for l in dims]),
                    add(*[mul(_phi(l, k), Jet(l, 1), Jet(k, 1)) for l in dims for k in dims]),
                    mul(num(-1), add(*[mul(_phi(l), _phi(k), Jet(l, 1), Jet(k, 1)) for l in dims for k in dims])),
                ),
                dL_da(i),
            ),
            mul(num(2), lee_dot, total_derivative(dL_da(i), space)),
        )
        assert equivalent(sources[i - 1], want, tol=1e-9, rng=rng), i


# ---------------------------------------------------------------------------
# variational finite-difference check


def test_variational_check_free_particle():
    sp = JetSpace(dim=1, order=1)
    model = LagrangianModel(
        space=sp, lagrangian=mul(num(Fraction(1, 2)), Jet(1, 1), Jet(1, 1)), sigma=zero_factor()
    )
    line = polynomial_curve([[0.0, 1.0]], 2)
    bump = bump_curve(0.0, 1.0, 1, 1, 2)
    assert variational_fd_check(model, line, bump, 0.0, 1.0) <= 1e-4


def test_variational_check_conformal_kinetic():
    sp = JetSpace(dim=1, order=1)
    model = LagrangianModel(
        space=sp,
        lagrangian=mul(num(Fraction(1, 2)), Jet(1, 1), Jet(1, 1)),
        sigma=ConformalFactor(Jet(1, 0)),
    )
    curve = polynomial_curve([[0.1, 0.8, -0.4, 0.2]], 2)
    bump = bump_curve(0.0, 1.0, 1, 1, 2)
    assert variational_fd_check(model, curve, bump, 0.0, 1.0) <= 1e-4


def test_variational_check_chiral_conformal_loop():
    names = ["x", "y"]
    space = JetSpace(dim=2, order=2, max_jet=6)
    L = parse_expression("-lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)", space, names)
    model = LagrangianModel(
        space=space,
        lagrangian=L,
        sigma=ConformalFactor(parse_expression("2*atan2(y, x)", space, names)),
        parameters={"lam": 0.5, "m": 1.0},
    )
    loop = circle_curve((3.0, 0.0), 1.0, 2 * math.pi, 4)
    bump = bump_curve(0.0, 1.0, 2, 2, 4)
    assert variational_fd_check(model, loop, bump, 0.0, 1.0) <= 1e-4


def test_variational_check_rejects_abstract_sigma():
    m = _model(1, 1, "1/2*x'^2", ["x"])
    line = polynomial_curve([[0.0, 1.0]], 2)
    bump = bump_curve(0.0, 1.0, 1, 1, 2)
    with pytest.raises(Exception):
        variational_fd_check(m, line, bump, 0.0, 1.0)


# ---------------------------------------------------------------------------
# model validation


def test_model_rejects_overdeep_lagrangian():
    space = JetSpace(dim=1, order=1)
    with pytest.raises(Exception):
        LagrangianModel(space=space, lagrangian=Jet(1, 2), sigma=zero_factor())


def test_model_rejects_jet_dependent_sigma():
    space = JetSpace(dim=1, order=1)
    with pytest.raises(Exception):
        LagrangianModel(
            space=space, lagrangian=Jet(1, 1), sigma=ConformalFactor(Jet(1, 1))
        )


@pytest.mark.parametrize("name", BUNDLED)
def test_seeded_normal_forms_equal_cold_ones(name):
    # normalize records each output's NF; that seeded entry must be the NF a
    # fresh walk of the output gives, as a set (NFs are unordered).
    from lcmech.normalize import _NF_MEMO, _nf

    model = load_model(bundled_path(name)).model
    residuals = [
        *classical_el(model).residuals,
        *conformal_el_expanded(model).residuals,
        *conformal_rhs(model),
    ]
    seeded = []
    for r in residuals:
        assert r in _NF_MEMO
        seeded.append(_NF_MEMO[r])
    for r, nf in zip(residuals, seeded):
        _NF_MEMO.clear()
        assert set(_nf(r)) == set(nf), (name, r)
