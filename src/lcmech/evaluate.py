"""Numeric evaluation and random-sampling equivalence checking.

``evaluate`` is a straightforward recursive interpreter (exact rational
subtrees are folded with Fractions before float conversion, each distinct
node object once), kept as the reference the compiled path is tested
against.  ``vector_source`` is the one generator of float code: several
expressions of a flat vector (jets, and any symbol given a slot) as
straight-line Python with each shared subtree computed once.
``compile_vector`` wraps it into one function of the vector, for
``equivalent``, the variational check and the explicit ODE, which fuses it
with its linear solve; ``compile_expr`` adapts it to a point dict.
``equivalent`` decides equality of two expressions by evaluating both at
random points, in the style of polynomial identity testing; it is the single
oracle used for all symbolic identities in this package.
"""

from __future__ import annotations

import math
import random
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
    walk,
)


class EvaluationError(ExprError):
    """Division by zero, angle at the origin, or an unbound symbol."""


SIGMA_EVAL_NAME = "sigma"


def evaluate(e: Expr, point: dict[tuple[int, int], float], params: dict[str, float] | None = None):
    """Evaluate at a point; jets are looked up as (index, order) pairs.

    Each distinct node object is evaluated once per call, so a tree that
    shares subtrees costs time linear in its distinct nodes.
    """
    params = params or {}
    memo: dict[int, object] = {}  # id(node) -> value; the nodes outlive the call

    def rec(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Num):
            value = node.value
        elif isinstance(node, Jet):
            jet = (node.index, node.order)
            if jet not in point:
                raise EvaluationError(f"point has no value for jet {jet}")
            value = point[jet]
        elif isinstance(node, Param):
            if node.name not in params:
                raise EvaluationError(f"unbound parameter {node.name!r}")
            value = params[node.name]
        elif isinstance(node, PhiSymbol):
            if node.eval_name not in params:
                raise EvaluationError(f"unbound symbol {node.eval_name!r}")
            value = params[node.eval_name]
        elif isinstance(node, SigmaSymbol):
            if SIGMA_EVAL_NAME not in params:
                raise EvaluationError("unbound abstract conformal factor")
            value = params[SIGMA_EVAL_NAME]
        elif isinstance(node, Add):
            value = sum(rec(t) for t in node.terms)
        elif isinstance(node, Mul):
            value = Fraction(1)
            for f in node.factors:
                value = value * rec(f)
        elif isinstance(node, Pow):
            base = rec(node.base)
            if node.exponent < 0 and base == 0:
                raise EvaluationError("division by zero")
            value = base**node.exponent
        elif isinstance(node, Func):
            value = getattr(math, node.name)(rec(node.arg))
        elif isinstance(node, Angle):
            y, x = rec(node.y), rec(node.x)
            if x == 0 and y == 0:
                raise EvaluationError("polar angle undefined at the origin")
            value = math.atan2(y, x)
        else:
            raise ExprError(f"cannot evaluate node {node!r}")
        memo[key] = value
        return value

    value = rec(e)
    return float(value)


_LEAVES = (Jet, Param, PhiSymbol, SigmaSymbol)


def _leaf_key(e: Expr):
    """The key of a jet or symbol: (index, order) for a jet, else its params name."""
    if isinstance(e, Jet):
        return (e.index, e.order)
    if isinstance(e, Param):
        return e.name
    if isinstance(e, PhiSymbol):
        return e.eval_name
    return SIGMA_EVAL_NAME


def _codegen(e: Expr, leaf, named=None) -> str:
    """Python source for ``e``.

    ``leaf(node)`` renders jets and symbols.  ``named(node)`` may return the
    name of a local variable that already holds the node's value.
    """
    if named is not None:
        name = named(e)
        if name is not None:
            return name
    if isinstance(e, Num):
        if e.value.denominator == 1:
            return repr(e.value.numerator)
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, _LEAVES):
        return leaf(e)
    if isinstance(e, Add):
        return "(" + "+".join(_codegen(t, leaf, named) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + "*".join(_codegen(f, leaf, named) for f in e.factors) + ")"
    if isinstance(e, Pow):
        return f"({_codegen(e.base, leaf, named)})**({e.exponent})"
    if isinstance(e, Func):
        return f"{e.name}({_codegen(e.arg, leaf, named)})"
    if isinstance(e, Angle):
        return f"atan2({_codegen(e.y, leaf, named)},{_codegen(e.x, leaf, named)})"
    raise ExprError(f"cannot compile node {e!r}")


_COMPILE_ENV = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "atan2": math.atan2,
    "inf": math.inf,
    "nan": math.nan,
    "__builtins__": {},
}


def literal(value: float) -> str:
    """Source text of a float that reads back as the same float."""
    text = repr(float(value))
    return f"({text})" if text.startswith("-") else text


def vector_source(exprs, slots: dict, params: dict[str, float]):
    """Python source for several expressions of one vector, without a def.

    Returns ``(lines, outputs, read)``: the unindented lines ``t<k> = ...``
    that compute each shared subtree once, one expression per entry of
    ``exprs``, and the sorted vector indices the source reads.  ``slots``
    maps a jet's (index, order), or a symbol's params name, to its index
    in the vector; that jet or symbol is the local ``j<index>``.  Every jet
    needs a slot.  Any other symbol is baked in as the float constant
    ``params[name]``, and an expression that is a bare number is a float
    literal.  A subtree that occurs more than once, within one expression
    or across several, gets a line of its own.  Each expression is written
    as its tree reads, sums and products left to right.
    """
    exprs = list(exprs)
    read: set[int] = set()

    def leaf(e: Expr) -> str:
        key = _leaf_key(e)
        if key in slots:
            read.add(slots[key])
            return f"j{slots[key]}"
        if isinstance(e, Jet):
            raise EvaluationError(f"no state slot for jet {key}")
        if key not in params:
            raise EvaluationError(f"unbound parameter {key!r}")
        return literal(params[key])

    # Number the classes of structurally equal subtrees, children first, and
    # count each class's uses: once per root and once per use in another
    # class.  Node objects are told apart by id, so no tree is hashed whole.
    group: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    first: list[Expr] = []
    uses: list[int] = []

    def classify(node: Expr) -> int:
        k = group.get(id(node))
        if k is None:
            kids = tuple(classify(c) for c in node.children())
            # Besides its children, a node holds at most an exponent or a name.
            own = (getattr(node, "exponent", None), getattr(node, "name", None))
            key = (type(node), own, kids) if kids else (type(node), node)
            k = classes.get(key)
            if k is None:
                k = classes[key] = len(first)
                first.append(node)
                uses.append(0)
                for c in kids:
                    uses[c] += 1
            group[id(node)] = k
        return k

    for e in exprs:
        uses[classify(e)] += 1
    names: dict[int, str] = {}

    def named(node):
        return names.get(group[id(node)])

    lines = []
    for k, node in enumerate(first):
        if uses[k] > 1 and node.children():
            lines.append(f"t{k} = {_codegen(node, leaf, named)}")
            names[k] = f"t{k}"
    outputs = [
        literal(e.value) if isinstance(e, Num) else _codegen(e, leaf, named) for e in exprs
    ]
    return lines, outputs, sorted(read)


def exec_source(src: str, **names) -> dict:
    """Run generated source in the compiled-code namespace extended by
    ``names``, and return that namespace."""
    env = {**_COMPILE_ENV, **names}
    exec(src, env)
    return env


def compile_vector(exprs, slots: dict, params: dict[str, float]):
    """Compile several expressions into one function f(y) -> tuple of floats.

    The body is ``vector_source``'s: jet q^i_(s) is read from
    ``y[slots[(i, s)]]`` once (a symbol with a slot likewise), and each
    shared subtree is computed once.
    """
    lines, outputs, read = vector_source(exprs, slots, params)
    src = "\n".join(
        [
            "def f(y):",
            *(f" j{i} = y[{i}]" for i in read),
            *(" " + line for line in lines),
            f" return ({''.join(o + ', ' for o in outputs)})",
        ]
    )
    return exec_source(src)["f"]


def compile_expr(e: Expr):
    """Compile to a callable f(jets_dict, params_dict) -> float."""
    keys = list(dict.fromkeys(_leaf_key(n) for n in walk(e) if isinstance(n, _LEAVES)))
    f = compile_vector([e], {key: k for k, key in enumerate(keys)}, {})
    return lambda J, P: f([J[key] if type(key) is tuple else P[key] for key in keys])[0]


# Sampled magnitudes lie in [lo, hi]; ``equivalent`` gives up after
# MAX_RESAMPLES points that fail to evaluate or give non-finite values.
SAMPLE_DOMAIN = (0.1, 2.0)
MAX_RESAMPLES = 100


def sample_value(rng: random.Random) -> float:
    """Uniform draw from [-hi,-lo] U [lo,hi], avoiding singular loci near 0."""
    lo, hi = SAMPLE_DOMAIN
    magnitude = rng.uniform(lo, hi)
    return magnitude if rng.random() < 0.5 else -magnitude


class EquivalenceResult:
    __slots__ = ("ok", "trials", "witness", "message")

    def __init__(self, ok: bool, trials: int, witness: dict | None = None, message: str = ""):
        self.ok, self.trials, self.witness, self.message = ok, trials, witness, message

    def __bool__(self):
        return self.ok


def equivalent(
    e1: Expr,
    e2: Expr,
    trials: int = 20,
    tol: float = 1e-9,
    params: dict[str, float] | None = None,
    rng: random.Random | None = None,
) -> EquivalenceResult:
    """Probabilistic equality check at ``trials`` random points.

    Passes iff |e1 - e2| <= tol * (1 + max(|e1|, |e2|)) at every sampled
    point.  Evaluation errors (singular loci) trigger a bounded resample.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng or random.Random(0)
    params = params or {}
    keys = {_leaf_key(n) for n in walk(e1, e2) if isinstance(n, _LEAVES)}
    # Sorted, so that each value is drawn for the same symbol in every process:
    # the jets, then the symbols that ``params`` does not bind.
    jets = sorted(k for k in keys if type(k) is tuple)
    sampled = sorted(k for k in keys if type(k) is str and k not in params)
    slots = [*jets, *sampled]
    f = compile_vector([e1, e2], {key: k for k, key in enumerate(slots)}, params)
    done = 0
    resamples = 0
    last_error = None
    while done < trials:
        y = [sample_value(rng) for _ in slots]
        try:
            v1, v2 = f(y)
        except (ArithmeticError, ValueError) as err:
            resamples += 1
            last_error = err
            if resamples > MAX_RESAMPLES:
                return EquivalenceResult(
                    False,
                    done,
                    message=f"exhausted resamples after evaluation errors: {last_error}",
                )
            continue
        if not (math.isfinite(v1) and math.isfinite(v2)):
            resamples += 1
            if resamples > MAX_RESAMPLES:
                return EquivalenceResult(False, done, message="non-finite values")
            continue
        if abs(v1 - v2) > tol * (1.0 + max(abs(v1), abs(v2))):
            bound = {**params, **dict(zip(sampled, y[len(jets) :]))}
            witness = {
                "point": {f"q{i}_d{s}": v for (i, s), v in zip(jets, y)},
                "params": {k: bound[k] for k in sorted(bound)},
                "lhs": v1,
                "rhs": v2,
            }
            return EquivalenceResult(False, done + 1, witness=witness)
        done += 1
    return EquivalenceResult(True, done)
