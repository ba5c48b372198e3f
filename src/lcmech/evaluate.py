"""Numeric evaluation and random-sampling equivalence checking.

``evaluate`` is a straightforward recursive interpreter (exact rational
subtrees are folded with Fractions before float conversion), kept as the
reference the compiled paths are tested against.  ``vector_source`` writes
several expressions of a flat state as straight-line Python with shared
subtrees computed once; ``compile_vector`` wraps that source into one
function of the state list, and the explicit ODE fuses it with its linear
solve into one function of the state as scalars.
``compile_expr`` turns one expression into a plain Python lambda on a point
dict, for ``equivalent`` and the variational check.  ``equivalent`` decides
equality of two expressions by evaluating both at random points, in the style
of polynomial identity testing; it is the single oracle used for all symbolic
identities in this package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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
)


class EvaluationError(ExprError):
    """Division by zero, angle at the origin, or an unbound symbol."""


SIGMA_EVAL_NAME = "sigma"


def evaluate(e: Expr, point: dict[tuple[int, int], float], params: dict[str, float] | None = None):
    """Evaluate at a point; jets are looked up as (index, order) pairs."""
    params = params or {}

    def rec(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Jet):
            key = (node.index, node.order)
            if key not in point:
                raise EvaluationError(f"point has no value for jet {key}")
            return point[key]
        if isinstance(node, Param):
            if node.name not in params:
                raise EvaluationError(f"unbound parameter {node.name!r}")
            return params[node.name]
        if isinstance(node, PhiSymbol):
            if node.eval_name not in params:
                raise EvaluationError(f"unbound symbol {node.eval_name!r}")
            return params[node.eval_name]
        if isinstance(node, SigmaSymbol):
            if SIGMA_EVAL_NAME not in params:
                raise EvaluationError("unbound abstract conformal factor")
            return params[SIGMA_EVAL_NAME]
        if isinstance(node, Add):
            return sum(rec(t) for t in node.terms)
        if isinstance(node, Mul):
            out = Fraction(1)
            for f in node.factors:
                out = out * rec(f)
            return out
        if isinstance(node, Pow):
            base = rec(node.base)
            if node.exponent < 0 and base == 0:
                raise EvaluationError("division by zero")
            return base**node.exponent
        if isinstance(node, Func):
            return getattr(math, node.name)(rec(node.arg))
        if isinstance(node, Angle):
            y, x = rec(node.y), rec(node.x)
            if x == 0 and y == 0:
                raise EvaluationError("polar angle undefined at the origin")
            return math.atan2(y, x)
        raise ExprError(f"cannot evaluate node {node!r}")

    value = rec(e)
    return float(value)


def _symbol_name(e: Expr) -> str:
    """The params key of a Param, PhiSymbol or SigmaSymbol."""
    if isinstance(e, Param):
        return e.name
    if isinstance(e, PhiSymbol):
        return e.eval_name
    return SIGMA_EVAL_NAME


_SYMBOLS = (Param, PhiSymbol, SigmaSymbol)


def _codegen(e: Expr, leaf=None, named=None) -> str:
    """Python source for ``e``.

    Jets read ``J[(index, order)]`` and symbols ``P[name]``, unless
    ``leaf(node)`` renders them.  ``named(node)`` may return the name of a
    local variable that already holds the node's value.
    """
    if named is not None:
        name = named(e)
        if name is not None:
            return name
    if isinstance(e, Num):
        if e.value.denominator == 1:
            return repr(e.value.numerator)
        return f"({e.value.numerator}/{e.value.denominator})"
    if isinstance(e, Jet):
        return f"J[({e.index},{e.order})]" if leaf is None else leaf(e)
    if isinstance(e, _SYMBOLS):
        return f"P[{_symbol_name(e)!r}]" if leaf is None else leaf(e)
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


def compile_expr(e: Expr):
    """Compile to a callable f(jets_dict, params_dict) -> float."""
    src = "lambda J, P: " + _codegen(e)
    return eval(src, dict(_COMPILE_ENV))


def _literal(value: float) -> str:
    text = repr(float(value))
    return f"({text})" if text.startswith("-") else text


def vector_source(exprs, slots: dict[tuple[int, int], int], params: dict[str, float]):
    """Python source for several expressions of one state, without a def.

    Returns ``(lines, outputs, read)``: the unindented lines ``t<k> = ...``
    that compute each shared subtree once, one expression per entry of
    ``exprs``, and the sorted state indices the source reads.  Jet q^i_(s)
    is the local ``j<slots[(i, s)]>``, parameters are baked in as float
    constants, and an expression that is a bare number is a float literal.
    A subtree that occurs more than once, within one expression or across
    several, gets a line of its own.  Each expression keeps the operation
    order of ``compile_expr``, so both give the same floats.
    """
    exprs = list(exprs)
    read: set[int] = set()

    def leaf(e: Expr) -> str:
        if isinstance(e, Jet):
            key = (e.index, e.order)
            if key not in slots:
                raise EvaluationError(f"no state slot for jet {key}")
            read.add(slots[key])
            return f"j{slots[key]}"
        name = _symbol_name(e)
        if name not in params:
            raise EvaluationError(f"unbound parameter {name!r}")
        return _literal(params[name])

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
        _literal(e.value) if isinstance(e, Num) else _codegen(e, leaf, named) for e in exprs
    ]
    return lines, outputs, sorted(read)


def exec_source(src: str, **names) -> dict:
    """Run generated source in the compiled-code namespace extended by
    ``names``, and return that namespace."""
    env = {**_COMPILE_ENV, **names}
    exec(src, env)
    return env


def compile_vector(exprs, slots: dict[tuple[int, int], int], params: dict[str, float]):
    """Compile several expressions into one function f(y) -> tuple of floats.

    The body is ``vector_source``'s: jet q^i_(s) is read from
    ``y[slots[(i, s)]]`` once, and each shared subtree is computed once.
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


def free_symbols(*exprs: Expr):
    """Union of jets, parameters, and abstract sigma symbols.

    One walk that visits each distinct node object once, since unnormalized
    trees share subtrees.
    """
    jets: set[tuple[int, int]] = set()
    names: set[str] = set()
    seen: set[int] = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Jet):
            jets.add((node.index, node.order))
        elif isinstance(node, _SYMBOLS):
            names.add(_symbol_name(node))
        else:
            stack.extend(node.children())
    return jets, names


DEFAULT_DOMAIN = (0.1, 2.0)


def sample_value(rng: random.Random, domain=DEFAULT_DOMAIN) -> float:
    """Uniform draw from [-hi,-lo] U [lo,hi], avoiding singular loci near 0."""
    lo, hi = domain
    magnitude = rng.uniform(lo, hi)
    return magnitude if rng.random() < 0.5 else -magnitude


@dataclass
class EquivalenceResult:
    ok: bool
    trials: int
    witness: dict | None = None
    message: str = ""

    def __bool__(self):
        return self.ok


def equivalent(
    e1: Expr,
    e2: Expr,
    trials: int = 20,
    tol: float = 1e-9,
    domain=DEFAULT_DOMAIN,
    params: dict[str, float] | None = None,
    rng: random.Random | None = None,
    max_resamples: int = 100,
) -> EquivalenceResult:
    """Probabilistic equality check at ``trials`` random points.

    Passes iff |e1 - e2| <= tol * (1 + max(|e1|, |e2|)) at every sampled
    point.  Evaluation errors (singular loci) trigger a bounded resample.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng or random.Random(0)
    params = params or {}
    jets, names = free_symbols(e1, e2)
    # Sorted, so that each value is drawn for the same symbol in every process.
    jets, names = sorted(jets), sorted(names)
    f1, f2 = compile_expr(e1), compile_expr(e2)
    done = 0
    resamples = 0
    last_error = None
    while done < trials:
        point = {key: sample_value(rng, domain) for key in jets}
        bound = dict(params)
        for name in names:
            if name not in bound:
                bound[name] = sample_value(rng, domain)
        try:
            v1 = f1(point, bound)
            v2 = f2(point, bound)
        except (ArithmeticError, ValueError, KeyError) as err:
            resamples += 1
            last_error = err
            if resamples > max_resamples:
                return EquivalenceResult(
                    False,
                    done,
                    message=f"exhausted resamples after evaluation errors: {last_error}",
                )
            continue
        if not (math.isfinite(v1) and math.isfinite(v2)):
            resamples += 1
            if resamples > max_resamples:
                return EquivalenceResult(False, done, message="non-finite values")
            continue
        if abs(v1 - v2) > tol * (1.0 + max(abs(v1), abs(v2))):
            witness = {
                "point": {f"q{i}_d{s}": v for (i, s), v in sorted(point.items())},
                "params": {k: bound[k] for k in sorted(bound)},
                "lhs": v1,
                "rhs": v2,
            }
            return EquivalenceResult(False, done + 1, witness=witness)
        done += 1
    return EquivalenceResult(True, done)
