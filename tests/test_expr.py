"""Expression core: parsing, printing, normalization, jet calculus."""

import copy
import math
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcmech import (
    Add,
    Angle,
    ExprError,
    Func,
    Jet,
    JetOrderError,
    JetSpace,
    Mul,
    Num,
    Param,
    ParseError,
    PhiSymbol,
    Pow,
    SigmaSymbol,
    add,
    equivalent,
    evaluate,
    exp,
    is_zero,
    mul,
    normalize,
    num,
    parse_expression,
    partial,
    to_latex,
    to_text,
    total_derivative,
)
from lcmech.calculus import ConformalFactor
from lcmech.evaluate import sample_value
from lcmech.nodes import contains_exp, jets_in, walk
from lcmech.normalize import _NF_MEMO, _nf

SPACE = JetSpace(dim=2, order=2)
NAMES = ["x", "y"]


def _random_point(rng, dim=2, max_order=5):
    return {
        (i, s): sample_value(rng)
        for i in range(1, dim + 1)
        for s in range(max_order + 1)
    }


# ---------------------------------------------------------------------------
# parsing and printing


@pytest.mark.parametrize(
    "text",
    [
        "x + y",
        "x' * y'' - y' * x''",
        "1/2*x'^2 + 3/4*y^2",
        "exp(x) * sin(y) + cos(x*y)",
        "atan2(y, x)",
        "x(4) + 2*x'''",
        "-x + (-3)*y",
        "a*x^2 - b/2",
        "0.25*x + 1.5",
        "x^(-1)",
    ],
)
def test_parse_print_roundtrip(text):
    space = JetSpace(dim=2, order=2, max_jet=6)
    e = parse_expression(text, space, NAMES)
    printed = to_text(e, NAMES)
    again = parse_expression(printed, space, NAMES)
    rng = random.Random(3)
    assert equivalent(e, again, trials=10, tol=1e-12, rng=rng)


def test_parse_decimal_is_exact_rational():
    e = parse_expression("0.125", SPACE, NAMES)
    assert isinstance(e, Num) and e.value == Fraction(1, 8)


def test_parse_precedence_and_power():
    e = parse_expression("2*x^2 + 3", SPACE, NAMES)
    v = evaluate(e, {(1, 0): 2.0})
    assert v == 11.0


def test_parse_derivative_suffix_forms():
    e1 = parse_expression("x'''", JetSpace(1, 2, max_jet=5), ["x"])
    e2 = parse_expression("x(3)", JetSpace(1, 2, max_jet=5), ["x"])
    assert e1 == e2 == Jet(1, 3)


def test_parse_rejects_bad_syntax():
    with pytest.raises(ParseError):
        parse_expression("x +", SPACE, NAMES)
    with pytest.raises(ParseError):
        parse_expression("x ** 2", SPACE, NAMES)
    with pytest.raises(ParseError):
        parse_expression("(x", SPACE, NAMES)


def test_parse_rejects_excessive_order():
    with pytest.raises((ParseError, JetOrderError)):
        parse_expression("x(9)", JetSpace(1, 1), ["x"])


def test_latex_output_basic():
    e = parse_expression("-lam/2*x'*y'' + m/2*x'^2", SPACE, NAMES)
    tex = to_latex(e, NAMES)
    assert "\\dot{x}" in tex and "\\ddot{y}" in tex and "\\lambda" in tex


def test_latex_of_unnormalized_products_typesets():
    x, xd = Jet(1, 0), Jet(1, 1)
    # A power of e^{x} is not a double superscript.
    assert to_latex(Pow(exp(x), 2), NAMES) == "\\left(e^{x}\\right)^{2}"
    # A negative factor after the first does not read as a subtraction.
    assert to_latex(Mul((exp(x), Mul((num(-1), xd)))), NAMES) == "e^{x} \\left(-\\dot{x}\\right)"
    # Adjacent numerals do not run together.
    assert to_latex(Mul((num(2), num(1), xd, num(3))), NAMES) == "2 \\cdot 1 \\dot{x} \\cdot 3"
    assert to_text(Mul((num(2), num(1), xd, num(3))), NAMES) == "2*1*x'*3"


# ---------------------------------------------------------------------------
# normalization


def _cold_normalize(e):
    """``normalize`` with an empty memo: ``normalize`` records its outputs, so
    normalizing one again would otherwise be a lookup, not a second walk."""
    _NF_MEMO.clear()
    return normalize(e)


def test_normalize_idempotent_and_value_preserving():
    rng = random.Random(7)
    exprs = [
        parse_expression(t, JetSpace(2, 2, max_jet=6), NAMES)
        for t in [
            "(x + y)^3 - x^3 - y^3 - 3*x^2*y - 3*x*y^2",
            "(x' - y')*(x' + y')",
            "exp(x)*exp(-x)*y''",
            "x*(y + 1) - x*y - x",
        ]
    ]
    for e in exprs:
        n1 = normalize(e)
        assert _cold_normalize(n1) == n1
        assert equivalent(e, n1, trials=10, tol=1e-10, rng=rng)


def test_normalize_detects_zero():
    e = parse_expression("(x + y)^2 - x^2 - 2*x*y - y^2", SPACE, NAMES)
    assert is_zero(e)
    assert not is_zero(parse_expression("x - y", SPACE, NAMES))


def test_normalize_cancels_exponentials():
    sigma = parse_expression("x^2 + y", SPACE, NAMES)
    e = mul(exp(sigma), exp(mul(num(-1), sigma)))
    assert normalize(e) == num(1)


def test_normalize_merges_exp_products():
    a = parse_expression("x", SPACE, NAMES)
    b = parse_expression("y", SPACE, NAMES)
    merged = normalize(mul(exp(a), exp(b)))
    target = normalize(exp(add(a, b)))
    assert merged == target


# ---------------------------------------------------------------------------
# jet calculus


def test_partial_treats_jets_independently():
    L = parse_expression("x'*y'' + x^2", SPACE, NAMES)
    assert normalize(partial(L, 1, 1)) == normalize(Jet(2, 2))
    assert normalize(partial(L, 1, 0)) == normalize(mul(num(2), Jet(1, 0)))
    assert normalize(partial(L, 2, 2)) == normalize(Jet(1, 1))
    assert is_zero(partial(L, 2, 0))


def test_total_derivative_prolongs_jets():
    assert total_derivative(Jet(1, 1), SPACE) == Jet(1, 2)


def test_total_derivative_leibniz():
    rng = random.Random(11)
    f = parse_expression("x'*y + sin(x)", SPACE, NAMES)
    g = parse_expression("y'' + x^2", SPACE, NAMES)
    lhs = total_derivative(mul(f, g), SPACE)
    rhs = add(mul(total_derivative(f, SPACE), g), mul(f, total_derivative(g, SPACE)))
    assert equivalent(lhs, rhs, trials=15, tol=1e-10, rng=rng)


def test_total_derivative_chain_rule_on_functions():
    rng = random.Random(13)
    e = parse_expression("exp(x^2)", SPACE, NAMES)
    expected = parse_expression("2*x*x'*exp(x^2)", SPACE, NAMES)
    assert equivalent(total_derivative(e, SPACE), expected, trials=10, rng=rng)


def test_total_derivative_of_polar_angle():
    rng = random.Random(17)
    e = parse_expression("atan2(y, x)", SPACE, NAMES)
    expected = parse_expression("(x*y' - y*x') / (x^2 + y^2)", SPACE, NAMES)
    assert equivalent(total_derivative(e, SPACE), expected, trials=10, rng=rng)


def test_commutator_partial_total_derivative():
    # d/dq_(s) D_t - D_t d/dq_(s) = d/dq_(s-1) on jet expressions.
    rng = random.Random(19)
    space = JetSpace(dim=2, order=2, max_jet=6)
    e = parse_expression("x'*y''^2 + sin(x)*y' + x''*x'", space, NAMES)
    for i in (1, 2):
        for s in (1, 2):
            lhs = add(
                partial(total_derivative(e, space), i, s),
                mul(num(-1), total_derivative(partial(e, i, s), space)),
            )
            rhs = partial(e, i, s - 1)
            assert equivalent(lhs, rhs, trials=10, tol=1e-10, rng=rng), (i, s)


def test_partial_matches_finite_difference():
    rng = random.Random(23)
    e = parse_expression("x'*y''^2 + exp(x)*sin(y') + x*y", SPACE, NAMES)
    point = _random_point(rng)
    h = 1e-6
    for (i, s) in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        sym = evaluate(partial(e, i, s), point)
        up = dict(point)
        dn = dict(point)
        up[(i, s)] += h
        dn[(i, s)] -= h
        fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
        assert abs(sym - fd) <= 1e-6 * (1 + abs(sym))


def test_max_jet_guard_on_total_derivative():
    space = JetSpace(dim=1, order=1, max_jet=2)
    with pytest.raises(JetOrderError):
        total_derivative(Jet(1, 2), space)


# ---------------------------------------------------------------------------
# conformal factor


def test_conformal_factor_phi_symmetry():
    sigma = ConformalFactor(parse_expression("x^2*y + sin(x)", SPACE, NAMES))
    assert sigma.phi((1, 2)) == sigma.phi((2, 1))
    rng = random.Random(29)
    assert equivalent(
        sigma.phi((1,)), parse_expression("2*x*y + cos(x)", SPACE, NAMES), rng=rng
    )


def test_conformal_factor_rejects_velocity_dependence():
    with pytest.raises(Exception):
        ConformalFactor(parse_expression("x'", SPACE, NAMES)).validate(SPACE)


def test_abstract_factor_phi_is_opaque_and_sorted():
    from lcmech.calculus import ABSTRACT

    p = ABSTRACT.phi((2, 1))
    assert p.eval_name == "phi_1_2"


# ---------------------------------------------------------------------------
# hypothesis property tests


@st.composite
def simple_exprs(draw):
    depth = draw(st.integers(0, 3))

    def build(d):
        if d == 0:
            choice = draw(st.integers(0, 2))
            if choice == 0:
                return num(Fraction(draw(st.integers(-5, 5))))
            if choice == 1:
                return Jet(draw(st.integers(1, 2)), draw(st.integers(0, 2)))
            return Param("a")
        op = draw(st.integers(0, 1))
        left, right = build(d - 1), build(d - 1)
        return add(left, right) if op == 0 else mul(left, right)

    return build(depth)


@settings(max_examples=40, deadline=None)
@given(simple_exprs())
def test_normalize_preserves_value_property(e):
    n = normalize(e)
    assert _cold_normalize(n) == n
    rng = random.Random(101)
    point = _random_point(rng, dim=2, max_order=3)
    params = {"a": 1.37}
    assert math.isclose(
        evaluate(e, point, params), evaluate(n, point, params), rel_tol=1e-9, abs_tol=1e-9
    )


@settings(max_examples=30, deadline=None)
@given(simple_exprs(), simple_exprs())
def test_total_derivative_is_linear_property(f, g):
    space = JetSpace(dim=2, order=2, max_jet=6)
    lhs = total_derivative(add(f, g), space)
    rhs = add(total_derivative(f, space), total_derivative(g, space))
    assert is_zero(add(lhs, mul(num(-1), rhs)))


@st.composite
def calculus_exprs(draw):
    """Trees over the jets of order <= 2 in dim 2, with the elementary
    functions, the polar angle, negative powers of sums and the abstract
    conformal symbols."""

    def build(d):
        if d == 0:
            kind = draw(st.integers(0, 5))
            if kind == 0:
                return num(draw(st.integers(-3, 3)))
            if kind == 1:
                return Param("a")
            if kind == 2:
                return SigmaSymbol()
            if kind == 3:
                return PhiSymbol(tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))))
            return Jet(draw(st.integers(1, 2)), draw(st.integers(0, 2)))
        op = draw(st.integers(0, 5))
        if op == 0:
            return add(build(d - 1), build(d - 1))
        if op == 1:
            return mul(build(d - 1), build(d - 1))
        if op == 2:
            return Pow(add(build(d - 1), build(d - 1)), draw(st.integers(-2, -1)))
        if op == 3:
            return Pow(build(d - 1), draw(st.integers(2, 3)))
        if op == 4:
            return Func(draw(st.sampled_from(("exp", "sin", "cos"))), build(d - 1))
        return Angle(build(d - 1), build(d - 1))

    return build(draw(st.integers(0, 3)))


def _normalized_or_error(e):
    try:
        return normalize(e)
    except ExprError as err:
        return str(err)


@settings(max_examples=60, deadline=None)
@given(calculus_exprs())
def test_total_derivative_is_the_jet_chain_rule_property(e):
    # D_t e = sum over jets of de/dq^i_(s) * q^i_(s+1), built by the other route.
    space = JetSpace(dim=2, order=2)
    chain = add(
        *(mul(partial(e, i, s), Jet(i, s + 1)) for i in (1, 2) for s in range(3))
    )

    # A drawn base or angle that is zero fails both routes alike.
    assert _normalized_or_error(total_derivative(e, space)) == _normalized_or_error(chain)


def _mirror(e):
    """``e`` with the terms of every Add and the factors of every Mul reversed."""
    if isinstance(e, Add):
        return Add(tuple(_mirror(t) for t in reversed(e.terms)))
    if isinstance(e, Mul):
        return Mul(tuple(_mirror(f) for f in reversed(e.factors)))
    if isinstance(e, Pow):
        return Pow(_mirror(e.base), e.exponent)
    if isinstance(e, Func):
        return Func(e.name, _mirror(e.arg))
    if isinstance(e, Angle):
        return Angle(_mirror(e.y), _mirror(e.x))
    return e


@settings(max_examples=60, deadline=None)
@given(calculus_exprs())
def test_normalize_does_not_depend_on_input_order_property(e):
    m = _mirror(e)
    # A zero base to a negative power raises in either order or in neither.
    n = _normalized_or_error(e)
    assert n == _normalized_or_error(m)
    if isinstance(n, str):
        return
    assert _cold_normalize(n) == n
    assert is_zero(e - m)


@settings(max_examples=60, deadline=None)
@given(calculus_exprs())
def test_text_output_reparses_to_the_same_normal_form_property(e):
    # The abstract conformal symbols have no input syntax.
    assume(not any(isinstance(n, (SigmaSymbol, PhiSymbol)) for n in walk(e)))
    space = JetSpace(2, 2, max_jet=6)
    again = parse_expression(to_text(e, NAMES), space, NAMES)
    assert _normalized_or_error(again) == _normalized_or_error(e)


def test_negative_powers_keep_exact_coefficients():
    x, y = Jet(1, 0), Jet(2, 0)
    for e, coeff in (((2 * x) ** -1, Fraction(1, 2)), ((2 * x * y) ** -3, Fraction(1, 8))):
        ((_, value),) = _nf(e)
        assert type(value) is Fraction and value == coeff
    assert normalize((2 * x) ** -1) == Mul((num(Fraction(1, 2)), Pow(x, -1)))
    assert normalize((2 * x * y) ** -3) == Mul((num(Fraction(1, 8)), Pow(x, -3), Pow(y, -3)))
    # Sums, products and powers that come out whole are ints again.
    half = (2 * x) ** -1
    for e in (half + half, 2 * half, half**-1, exp(half + half)):
        assert [type(c) for c in _nf_coefficients(_nf(e))] in ([int], [int, int]), e


def _nf_coefficients(nf):
    """Every coefficient of a normal form, those of its exp arguments too."""
    for (_, exparg), coeff in nf:
        yield coeff
        yield from _nf_coefficients(exparg)


@settings(max_examples=60, deadline=None)
@given(calculus_exprs())
def test_normal_form_coefficients_are_exact_property(e):
    try:
        nf = _nf(e)
    except ExprError:
        return
    for coeff in _nf_coefficients(nf):
        # An int whenever the denominator is 1; never a float.
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)
        assert coeff != 0


def test_add_and_mul_leave_out_literal_zero_terms_and_unit_factors():
    x, y = Jet(1, 0), Jet(2, 0)
    assert add(0, x, num(0)) is x
    assert add(num(0), 0) == num(0)
    assert add(x, y, 0) == Add((x, y))
    assert mul(1, x, num(1)) is x
    assert mul(num(1)) == num(1)
    assert mul(2, x, 1, y) == Mul((num(2), x, y))
    # A literal 0 stays a factor, so a singular factor beside it still raises.
    singular = Pow(x - x, -1)
    assert mul(0, 1, singular) == Mul((num(0), singular))
    with pytest.raises(ExprError, match="zero raised to a negative power"):
        normalize(mul(0, singular))


def test_derivative_of_a_power_folds_the_exponents_one_and_zero():
    x = Jet(1, 0)
    assert partial(Pow(x, 3), 1, 0) == Mul((num(3), Pow(x, 2)))
    assert partial(Pow(x, 2), 1, 0) == Mul((num(2), x))
    assert partial(Pow(x, 1), 1, 0) == num(1)
    assert total_derivative(Pow(x, 2), SPACE) == Mul((num(2), x, Jet(1, 1)))
    assert total_derivative(Pow(x, 1), SPACE) == Jet(1, 1)


def test_zero_factor_does_not_hide_a_zero_to_a_negative_power():
    x = Jet(1, 0)
    singular = Pow(x - x, -1)
    for e in (Mul((num(0), singular)), Mul((singular, num(0)))):
        with pytest.raises(ExprError, match="zero raised to a negative power"):
            normalize(e)


# ---------------------------------------------------------------------------
# the hash contract of the nodes


@settings(max_examples=60, deadline=None)
@given(calculus_exprs())
def test_rebuilt_trees_are_equal_with_equal_hashes_property(e):
    # Every composite node built anew, and a pickled copy of every node.
    for copy in (_mirror(_mirror(e)), pickle.loads(pickle.dumps(e))):
        assert copy == e
        assert hash(copy) == hash(e)


def _one_node_of_each_class():
    x, y = Jet(1, 0), Jet(2, 1)
    return [
        num(3),
        x,
        Param("a"),
        SigmaSymbol(),
        PhiSymbol((2, 1)),
        Add((x, y)),
        Mul((x, num(2))),
        Pow(x, 2),
        Func("sin", y),
        Angle(y, x),
    ]


def test_nodes_have_no_instance_dict():
    for node in _one_node_of_each_class():
        assert not hasattr(node, "__dict__"), type(node).__name__


def test_nodes_are_immutable_values():
    nodes, again = _one_node_of_each_class(), _one_node_of_each_class()
    for i, a in enumerate(nodes):
        # Equal exactly to the node of the same class built apart.
        for j, b in enumerate(again):
            assert (a == b) is (i == j) and (a != b) is (i != j), (a, b)
        assert hash(a) == hash(again[i])
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert twin == a and hash(twin) == hash(a)
        for field in ("_hash", *type(a).__slots__):
            with pytest.raises(AttributeError):
                setattr(a, field, None)
            with pytest.raises(AttributeError):
                delattr(a, field)
        assert a == again[i] and hash(a) == hash(again[i])
        assert a != 3 and a != (a,)
    x = Jet(1, 0)
    for a, b in [
        (Jet(1, 0), Jet(1, 1)),
        (num(1), num(2)),
        (Add((x, num(1))), Add((num(1), x))),
        (Pow(x, 2), Pow(x, 3)),
        (Func("sin", x), Func("cos", x)),
        (Angle(x, Jet(2, 0)), Angle(Jet(2, 0), x)),
    ]:
        assert a != b and not a == b


def test_node_repr_names_each_field():
    assert repr(Pow(Jet(1, 0), 2)) == "Pow(base=Jet(index=1, order=0), exponent=2)"
    assert repr(num(Fraction(1, 2))) == "Num(value=Fraction(1, 2))"
    assert repr(Func("exp", SigmaSymbol())) == "Func(name='exp', arg=SigmaSymbol())"
    assert repr(Add((Param("m"), PhiSymbol((1,))))) == (
        "Add(terms=(Param(name='m'), PhiSymbol(indices=(1,))))"
    )


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses imports inspect and ast; together they were a third of
    # the start-up time of every CLI call.
    src = Path(__file__).parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lcmech.cli; "
        "print([m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_hashing_a_deep_chain_does_not_recurse():
    x = Jet(1, 0)
    e = x
    for k in range(20_000):
        e = Add((e, num(1))) if k % 2 else Mul((e, x))
    assert hash(e) == hash(e)
    assert e == e
    assert len({e, e}) == 1


def test_print_roundtrip_of_normalized_forms():
    rng = random.Random(31)
    space = JetSpace(2, 2, max_jet=6)
    e = normalize(parse_expression("(x' - y)^2 * (x + 2)", space, NAMES))
    printed = to_text(e, NAMES)
    again = parse_expression(printed, space, NAMES)
    assert equivalent(e, again, trials=10, tol=1e-12, rng=rng)


def test_compile_vector_shares_subtrees_and_matches_compile_expr():
    from lcmech.evaluate import EvaluationError, compile_expr, compile_vector

    texts = [
        "k*(x^2 + y^2)^(-1)*x' + (x^2 + y^2)^(-1)*y'",
        "exp(x*y)*sin(x*y) - k*atan2(y, x)*(x^2 + y^2)^(-1)",
        "1/3",
    ]
    exprs = [parse_expression(t, SPACE, NAMES) for t in texts]
    slots = {(i, s): (i - 1) + 2 * s for s in range(2) for i in (1, 2)}
    params = {"k": -0.75}
    f = compile_vector(exprs, slots, params)
    # (x^2 + y^2)^(-1) and x*y are bound to locals once.
    assert sum(name.startswith("t") for name in f.__code__.co_varnames) >= 2
    singles = [compile_expr(e) for e in exprs]
    rng = random.Random(5)
    for _ in range(50):
        y = [sample_value(rng) for _ in range(4)]
        point = {key: y[slot] for key, slot in slots.items()}
        got = f(y)
        assert all(type(v) is float for v in got)
        # The Fraction interpreter is the independent reference.
        for value, e in zip(got, exprs):
            assert math.isclose(value, evaluate(e, point, params), rel_tol=1e-12), e
        # compile_expr is an adapter over compile_vector: the same floats.
        assert [g(point, params) for g in singles] == list(got)
    with pytest.raises(EvaluationError):
        compile_vector(exprs, slots, {})


def test_equivalent_witness_maps_each_slot_back_to_its_symbol():
    # The sides mix a baked parameter, sampled sigma and phi symbols, and
    # jets.  Re-evaluated by ``evaluate`` at the witness, each side gives the
    # reported value, which a consistent permutation of the slots would not.
    x, xd, y = Jet(1, 0), Jet(1, 1), Jet(2, 0)
    k, sigma, phi1, phi12 = Param("k"), SigmaSymbol(), PhiSymbol((1,)), PhiSymbol((1, 2))
    lhs = k * x * sigma + phi1 * xd**2 - phi12 * y + exp(sigma * y)
    rhs = lhs + phi1 * phi12 * x
    result = equivalent(lhs, rhs, params={"k": 0.75}, rng=random.Random(3))
    assert not result
    witness = result.witness
    params = witness["params"]
    assert sorted(params) == ["k", "phi_1", "phi_1_2", "sigma"] and params["k"] == 0.75
    point = {tuple(map(int, n[1:].split("_d"))): v for n, v in witness["point"].items()}
    assert sorted(point) == [(1, 0), (1, 1), (2, 0)]
    for side, value in ((lhs, witness["lhs"]), (rhs, witness["rhs"])):
        assert math.isclose(evaluate(side, point, params), value, rel_tol=1e-12)


def test_shared_subtrees_are_walked_once():
    # 40 doublings of x: 41 node objects, but 2^40 paths from the root.
    x = Jet(1, 0)
    e = x
    for _ in range(40):
        e = Add((e, e))
    start = time.perf_counter()
    assert len(list(walk(e))) == 41
    assert jets_in(e) == {(1, 0)}
    assert not contains_exp(e)
    assert equivalent(e, 2**40 * x, rng=random.Random(1))
    assert time.perf_counter() - start < 1.0


def test_evaluate_visits_each_shared_subtree_once():
    # The Fraction reference on the 40 doublings of x, 2^40 paths from the root.
    from lcmech.evaluate import compile_vector

    x = Jet(1, 0)
    e = x
    for _ in range(40):
        e = Add((e, e))
    f = compile_vector([e], {(1, 0): 0}, {})
    start = time.perf_counter()
    for value in (0.375, -1.25, 3.0):
        assert evaluate(e, {(1, 0): value}) == f([value])[0] == 2**40 * value
    assert time.perf_counter() - start < 1.0
