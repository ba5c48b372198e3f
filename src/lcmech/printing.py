"""Text and LaTeX rendering of expressions, from one precedence walk.

``_render(e, names, latex)`` wraps a child that binds more loosely than its
place needs in ``(...)`` or ``\\left(...\\right)``.  The spellings that
differ live in ``rational`` and ``jet_mark``, which ``bell`` uses too.  Text
output is in the parser's grammar and re-parses to the same expression
(``sigma`` and ``phi[..]`` have no input syntax).  So that unnormalized
trees typeset, LaTeX parenthesizes a power of ``e^{...}`` and a negative
factor after the first, and puts ``\\cdot`` before a factor led by a digit.
"""

from __future__ import annotations

from fractions import Fraction

from .nodes import (
    Add,
    Angle,
    Expr,
    Func,
    Jet,
    Mul,
    Num,
    Param,
    PhiSymbol,
    Pow,
    SigmaSymbol,
)

_ATOM, _POW, _MUL, _ADD = 4, 3, 2, 1

_GREEK = (
    "alpha beta gamma delta epsilon theta kappa lambda mu nu xi rho sigma tau"
    " phi chi psi omega"
).split()
_LATEX_NAMES = {"lam": "\\lambda", **{g: "\\" + g for g in _GREEK}}


def rational(value: Fraction, latex: bool) -> str:
    """``value`` spelled as ``3``, ``-1/2`` or ``-\\frac{1}{2}``."""
    if value.denominator == 1:
        return str(value.numerator)
    if latex:
        sign = "-" if value < 0 else ""
        return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"
    return f"{value.numerator}/{value.denominator}"


def jet_mark(base: str, order: int, latex: bool) -> str:
    """The ``order``-th time derivative of ``base``, as the dialect marks it."""
    if order == 0:
        return base
    if not latex:
        return base + "'" * order if order <= 3 else f"{base}({order})"
    if order <= 2:
        return ("\\dot{", "\\ddot{")[order - 1] + base + "}"
    return f"{base}_{{({order})}}"


def _name(name: str, latex: bool) -> str:
    return _LATEX_NAMES.get(name, name) if latex else name


def to_text(e: Expr, names: list[str] | None = None) -> str:
    return _render(e, names, False)[0]


def to_latex(e: Expr, names: list[str] | None = None) -> str:
    return _render(e, names, True)[0]


def _wrap(text: str, latex: bool) -> str:
    return f"\\left({text}\\right)" if latex else f"({text})"


def _bound(rendered: tuple[str, int], need: int, latex: bool) -> str:
    text, level = rendered
    return text if level >= need else _wrap(text, latex)


def _render(e: Expr, names, latex: bool) -> tuple[str, int]:
    # Children render in this frame (no closure or comprehension): one frame per level.
    if isinstance(e, Num):
        level = _MUL if e.value.denominator != 1 and not latex else _ATOM if e.value >= 0 else _ADD
        return rational(e.value, latex), level
    if isinstance(e, Jet):
        coord = names[e.index - 1] if names and 1 <= e.index <= len(names) else f"q{e.index}"
        return jet_mark(_name(coord, latex), e.order, latex), _ATOM
    if isinstance(e, Param):
        return _name(e.name, latex), _ATOM
    if isinstance(e, SigmaSymbol):
        return _name("sigma", latex), _ATOM
    if isinstance(e, PhiSymbol):
        if latex:
            return "\\varphi_{" + " ".join(map(str, e.indices)) + "}", _ATOM
        return "phi[" + ",".join(map(str, e.indices)) + "]", _ATOM
    if isinstance(e, Add):
        terms = []
        for t in e.terms:
            terms.append(_render(t, names, latex)[0])
        rest = "".join(" - " + t[1:] if t.startswith("-") else " + " + t for t in terms[1:])
        return "".join(terms[:1]) + rest, _ADD
    if isinstance(e, Mul):
        sign, factors = "", list(e.factors)
        # A leading negative coefficient reads better as a sign.
        if factors and isinstance(factors[0], Num) and factors[0].value < 0:
            sign, head = "-", Num(-factors[0].value)
            factors = factors[1:] if head.value == 1 and len(factors) > 1 else [head] + factors[1:]
        parts = []
        for f in factors:
            text = _bound(_render(f, names, latex), _MUL, latex)
            if parts and latex:
                text = _wrap(text, latex) if text.startswith("-") else text
                text = (" \\cdot " if text[0].isdigit() else " ") + text
            parts.append(text)
        return sign + ("" if latex else "*").join(parts), _MUL
    if isinstance(e, Pow):
        exponent = e.exponent
        exponent = f"{{{exponent}}}" if latex else f"({exponent})" if exponent < 0 else exponent
        return f"{_bound(_render(e.base, names, latex), _ATOM, latex)}^{exponent}", _POW
    if isinstance(e, Func):
        arg = _render(e.arg, names, latex)[0]
        if latex and e.name == "exp":
            return f"e^{{{arg}}}", _POW  # a superscript: parenthesize its powers
        return ("\\" if latex else "") + e.name + _wrap(arg, latex), _ATOM
    if isinstance(e, Angle):
        args = _render(e.y, names, latex)[0] + ", " + _render(e.x, names, latex)[0]
        return ("\\operatorname{atan2}" if latex else "atan2") + _wrap(args, latex), _ATOM
    raise TypeError(f"cannot print {e!r}")
