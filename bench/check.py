"""Correctness checks made apart from lcmech (this module never imports it).

derive   The printed expanded residuals are evaluated exactly, with
         Fractions, at a random rational jet point and compared with an
         independent computation of e^{sigma} times the compact form,
             sum_s (-1)^s D_t^s (e^{-sigma} dL/dq_(s)) - e^{-sigma} phi_i L.
         D_t^s is taken by exact truncated Taylor arithmetic along the
         polynomial curve through that jet point; the Lagrangian's partials
         come from its monomials.  An abstract sigma is replaced by a Taylor
         polynomial whose mixed partials at the point are random rationals,
         and the printed phi symbols are bound to the same rationals.
verify   Ordinary jobs exit 0 and pass every expected check; --inject-fault
         jobs exit 1, fail a compact-vs-expanded check with a witness and
         pass the rest.
simulate The CSV endpoint is compared with closed forms (free particle,
         harmonic oscillator, conformal_toy_1d, chiral_classical) or, for
         chiral_lc, with an ODE derived here by sympy's euler_equations and
         integrated by scipy's solve_ivp at tolerance 1e-12.

Each ``check_*`` returns None when the output is right, else a reason.
Nothing is stored between runs: every reference value is computed here.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

from jobs import COORDS, SIMULATE_DT

# -- exact truncated Taylor series (coefficient m is f^(m)(0) / m!) ----------


def _smul(a, b):
    n = len(a)
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]


def _spow(a, e):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(e):
        out = _smul(out, a)
    return out


def _sinv(a):
    out = [Fraction(1) / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(a[k] * out[m - k] for k in range(1, m + 1)) / a[0])
    return out


def _sexp0(g):
    """exp(g) for a series with g[0] = 0."""
    out = [Fraction(1)]
    for m in range(1, len(g)):
        out.append(sum(k * g[k] * out[m - k] for k in range(1, m + 1)) / m)
    return out


class _Curve:
    """q_i(t) = sum_k a[i][k] t^k / k!, a polynomial curve through a jet point."""

    def __init__(self, a, terms: int):
        self.a = a
        self.terms = terms

    def jet(self, i, s):
        return [self.a[i][s + m] / math.factorial(m) for m in range(self.terms)]


def _monomial_series(curve, factors, terms):
    out = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    for i, s, e in factors:
        out = _smul(out, _spow(curve.jet(i, s), e))
    return out


def _partial_terms(terms, i, s):
    out = []
    for c, factors in terms:
        for k, (fi, fs, fe) in enumerate(factors):
            if (fi, fs) == (i, s):
                rest = factors[:k] + ((fi, fs, fe - 1),) * (fe > 1) + factors[k + 1 :]
                out.append((c * fe, rest))
    return out


def _abstract_coefficients(dim, order, rng):
    """Mixed partials of sigma at the point, keyed by multi-index."""
    return {
        alpha: _rational(rng)
        for alpha in product(range(order + 1), repeat=dim)
        if sum(alpha) <= order
    }


def _sigma_series(model, curve, terms, abstract):
    """sigma(q(t)) - sigma(q(0)) and phi_i = d sigma / d q^i at the point."""
    dim, kind = model.dim, model.sigma[0]
    base = [curve.jet(i, 0) for i in range(dim)]
    q0 = [b[0] for b in base]
    zero = [Fraction(0)] * terms
    if kind == "zero":
        return zero, [Fraction(0)] * dim
    if kind == "poly":
        series = zero
        phi = [Fraction(0)] * dim
        for c, factors in model.sigma[1]:
            mono = [Fraction(1)] + [Fraction(0)] * (terms - 1)
            for i, e in factors:
                mono = _smul(mono, _spow(base[i], e))
            series = [u + c * v for u, v in zip(series, mono)]
            for i, e in factors:
                value = c * e * q0[i] ** (e - 1)
                for j, ej in factors:
                    if j != i:
                        value *= q0[j] ** ej
                phi[i] += value
        return [Fraction(0)] + series[1:], phi
    if kind == "polar":
        k = model.sigma[1]
        x, y = base
        dx, dy = curve.jet(0, 1), curve.jet(1, 1)
        num = [u - v for u, v in zip(_smul(x, dy), _smul(y, dx))]
        rate = _smul(num, _sinv([u + v for u, v in zip(_smul(x, x), _smul(y, y))]))
        series = [Fraction(0)] + [k * rate[m] / (m + 1) for m in range(terms - 1)]
        r2 = q0[0] ** 2 + q0[1] ** 2
        return series, [-k * q0[1] / r2, k * q0[0] / r2]
    # abstract: the Taylor polynomial sum_alpha c_alpha prod (q_i - q_i0)^alpha_i / alpha_i!
    shifted = [[Fraction(0)] + b[1:] for b in base]
    series = zero
    for alpha, c in abstract.items():
        if not any(alpha):
            continue
        mono = [Fraction(1)] + [Fraction(0)] * (terms - 1)
        for i, e in enumerate(alpha):
            mono = _smul(mono, _spow(shifted[i], e))
            c /= math.factorial(e)
        series = [u + c * v for u, v in zip(series, mono)]
    phi = [abstract[tuple(int(j == i) for j in range(dim))] for i in range(dim)]
    return series, phi


def conformal_residuals(model, a, abstract):
    """e^{sigma} * compact residual_i at the jet point a, for every i."""
    n = model.order
    terms = n + 1
    curve = _Curve(a, terms)
    sigma, phi = _sigma_series(model, curve, terms, abstract)
    weight = _sexp0([-v for v in sigma])
    lagrangian = sum(
        c * math.prod(a[i][s] ** e for i, s, e in factors) for c, factors in model.terms
    )
    out = []
    for i in range(model.dim):
        total = -phi[i] * lagrangian
        for s in range(n + 1):
            g = [Fraction(0)] * terms
            for c, factors in _partial_terms(model.terms, i, s):
                mono = _monomial_series(curve, factors, terms)
                g = [u + c * v for u, v in zip(g, mono)]
            total += (-1) ** s * math.factorial(s) * _smul(weight, g)[s]
        out.append(total)
    return out


def _rational(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 5))


# -- exact evaluation of printed residuals -----------------------------------

_TEXT_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|phi\[(?P<phi>[\d,]+)\]"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)(?P<jet>'{1,3}|\(\d+\))?"
    r"|\^(?P<pow>\d+|\(-?\d+\))"
    r"|(?P<op>[-+*/()]))"
)
_LATEX_TOKEN = re.compile(
    r"\s*(?:\\frac\{(?P<fnum>\d+)\}\{(?P<fden>\d+)\}"
    r"|\\(?P<dots>d?dot)\{(?P<dotname>\\?[A-Za-z]+)\}"
    r"|\\varphi_\{(?P<phi>[\d ]+)\}"
    r"|(?P<jetname>\\?[A-Za-z]+)_\{\((?P<jetorder>\d+)\)\}"
    r"|\^\{(?P<pow>-?\d+)\}"
    r"|\\left\((?P<lp>)|\\right\)(?P<rp>)"
    r"|(?P<name>\\?[A-Za-z]+)"
    r"|(?P<num>\d+)"
    r"|(?P<op>[-+]))"
)


def _tokens(text: str, latex: bool):
    pattern = _LATEX_TOKEN if latex else _TEXT_TOKEN
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot read printed expression at {text[pos:pos + 20]!r}")
        pos = m.end()
        g = m.groupdict()
        if g.get("num") is not None:
            out.append(("val", Fraction(int(g["num"]))))
        elif g.get("fnum") is not None:
            out.append(("val", Fraction(int(g["fnum"]), int(g["fden"]))))
        elif g.get("phi") is not None:
            out.append(("sym", ("phi", tuple(sorted(int(v) for v in re.split("[, ]", g["phi"]))))))
        elif g.get("dots") is not None:
            out.append(("sym", ("jet", g["dotname"], 1 if g["dots"] == "dot" else 2)))
        elif g.get("jetname") is not None:
            out.append(("sym", ("jet", g["jetname"], int(g["jetorder"]))))
        elif g.get("name") is not None:
            suffix = g.get("jet") or ""
            order = int(suffix[1:-1]) if suffix.startswith("(") else len(suffix)
            out.append(("sym", ("jet", g["name"], order)))
        elif g.get("pow") is not None:
            out.append(("pow", int(g["pow"].strip("()"))))
        elif g.get("lp") is not None:
            out.append(("op", "("))
        elif g.get("rp") is not None:
            out.append(("op", ")"))
        else:
            out.append(("op", g["op"]))
    return out


class _Evaluator:
    """expr := term (('+'|'-') term)*; term := factor (['*'|'/'] factor)*;
    factor := '-' factor | primary ('^' int)*; primary := value | symbol | '(' expr ')'.
    Adjacent factors multiply, as in the LaTeX form."""

    def __init__(self, tokens, values):
        self.tokens = tokens
        self.pos = 0
        self.values = values

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("end", None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = self.take()[1]
            rhs = self.term()
            value = value + rhs if sign == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok in (("op", "*"), ("op", "/")):
                self.take()
                rhs = self.factor()
                value = value * rhs if tok[1] == "*" else value / rhs
            elif tok[0] in ("val", "sym") or tok == ("op", "("):
                value = value * self.factor()
            else:
                return value

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        kind, item = self.take()
        if kind == "val":
            value = item
        elif kind == "sym":
            value = self.values[item]
        elif (kind, item) == ("op", "("):
            value = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("unbalanced parenthesis")
        else:
            raise ValueError(f"unexpected token {item!r}")
        while self.peek()[0] == "pow":
            value = value ** self.take()[1]
        return value

    def run(self):
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input at token {self.pos}")
        return value


def evaluate_printed(text: str, latex: bool, values: dict) -> Fraction:
    return _Evaluator(_tokens(text, latex), values).run()


def _printed_residuals(stdout: str, latex: bool):
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("# expanded equations for "):
        raise ValueError("missing header line")
    out = []
    body = lines[1:]
    if latex:
        for label, expr in zip(body[0::2], body[1::2]):
            if not label.startswith("% coordinate ") or not expr.endswith(" = 0"):
                raise ValueError(f"malformed LaTeX residual {label!r}")
            out.append((label[len("% coordinate "):], expr[: -len(" = 0")]))
    else:
        for line in body:
            m = re.fullmatch(r"\[(\w+)\]  (.*) = 0", line)
            if not m:
                raise ValueError(f"malformed residual line {line[:40]!r}")
            out.append((m.group(1), m.group(2)))
    return out


def check_derive(job, stdout: str, point_seed: str):
    m = job.model
    latex = job.argv[-1] == "latex"
    rng = random.Random(point_seed)
    a = [[_rational(rng) for _ in range(2 * m.order + 1)] for _ in range(m.dim)]
    abstract = _abstract_coefficients(m.dim, m.order, rng) if m.sigma[0] == "abstract" else {}
    expected = conformal_residuals(m, a, abstract)
    values = {}
    for i in range(m.dim):
        for s in range(2 * m.order + 1):
            values[("jet", COORDS[i], s)] = a[i][s]
    for alpha, c in abstract.items():
        indices = tuple(sorted(i + 1 for i, e in enumerate(alpha) for _ in range(e)))
        values[("phi", indices)] = c
    try:
        printed = _printed_residuals(stdout, latex)
    except ValueError as err:
        return str(err)
    if [label for label, _ in printed] != list(COORDS[: m.dim]):
        return f"residual labels {[label for label, _ in printed]}"
    for (label, text), want in zip(printed, expected):
        try:
            got = evaluate_printed(text, latex, values)
        except (ValueError, KeyError, ZeroDivisionError) as err:
            return f"[{label}] cannot evaluate: {err!r}"
        if got != want:
            return f"[{label}] printed residual {got} != reference {want}"
    return None


# -- verify -------------------------------------------------------------------


def _expected_checks(order, dim, trivial):
    names = ["set-partition-counts"]
    names += [f"exp-derivative-factor-s{s}-vs-oracle" for s in range(1, min(order + 1, 5) + 1)]
    names += [f"compact-vs-expanded-q{i}" for i in range(1, dim + 1)]
    if trivial:
        names += ["trivial-sigma-source-vanishes", "trivial-sigma-matches-classical"]
    return names


BUNDLED_SHAPE = {  # name -> (order, dim, sigma is zero)
    "free_particle": (1, 1, True),
    "harmonic_oscillator": (1, 1, True),
    "conformal_toy_1d": (1, 1, False),
    "chiral_classical": (2, 2, True),
    "chiral_lc": (2, 2, False),
}


def check_verify(job, stdout: str, code):
    if job.model is not None:
        order, dim, trivial = job.model.order, job.model.dim, job.model.sigma[0] == "zero"
    else:
        order, dim, trivial = BUNDLED_SHAPE[job.bundled]
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    names = [c["name"] for c in report["checks"]]
    if names != _expected_checks(order, dim, trivial):
        return f"unexpected checks {names}"
    if report["seed"] != int(job.argv[3]):
        return "report seed differs from --seed"
    failed = [c for c in report["checks"] if not c["pass"]]
    if not job.fault:
        if code != 0 or failed or not report["all_pass"]:
            return f"exit {code}, failed checks {[c['name'] for c in failed]}"
        return None
    if code != 1 or report["all_pass"]:
        return f"negative control exit {code}, all_pass {report['all_pass']}"
    if not failed or any(not c["name"].startswith("compact-vs-expanded") for c in failed):
        return f"negative control failed checks {[c['name'] for c in failed]}"
    if any(c["witness"] is None for c in failed):
        return "negative control failure without a witness"
    return None


# -- simulate -----------------------------------------------------------------


def _model_lines(path):
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line and not line.startswith(("t0", "t1", "dt", "initial")):
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# The physics each closed form assumes; a bundled model that changes no
# longer matches its reference and fails the check.
CHIRAL_LAGRANGIAN = "-lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)"
EXPECTED_MODELS = {
    "free_particle": ("1/2*x'^2", "0"),
    "harmonic_oscillator": ("1/2*x'^2 - 1/2*x^2", "0"),
    "conformal_toy_1d": ("1/2*x'^2", "x"),
    "chiral_classical": (CHIRAL_LAGRANGIAN, "0"),
    "chiral_lc": (CHIRAL_LAGRANGIAN, "2*atan2(y, x)"),
}


def _params(lines):
    out = {}
    for chunk in lines.get("parameters", "").split(","):
        if ":" in chunk:
            key, value = chunk.split(":", 1)
            out[key.strip()] = float(value)
    return out


def _chiral_closed_form(init, t, lam, m):
    """lam y''' = m x'', lam x''' = -m y'': (x'', y'') rotates at w = m / lam."""
    w = m / lam
    pos = complex(init["x"], init["y"])
    vel = complex(init["x'"], init["y'"])
    acc = complex(init["x''"], init["y''"])
    iw = 1j * w
    rot = complex(math.cos(w * t), math.sin(w * t))
    a = acc * rot
    v = vel + acc * (rot - 1) / iw
    x = pos + vel * t + acc * ((rot - 1) / iw**2 - t / iw)
    return [x.real, x.imag, v.real, v.imag, a.real, a.imag]


class ChiralLcReference:
    """The conformal chiral oscillator's ODE, derived by sympy, integrated by scipy."""

    def __init__(self, lam, m):
        import sympy as sp
        from sympy.calculus.euler import euler_equations

        t = sp.Symbol("t")
        x, y = sp.Function("x")(t), sp.Function("y")(t)
        lag = -sp.nsimplify(lam) / 2 * (
            x.diff(t) * y.diff(t, 2) - y.diff(t) * x.diff(t, 2)
        ) + sp.nsimplify(m) / 2 * (x.diff(t) ** 2 + y.diff(t) ** 2)
        sigma = 2 * sp.atan2(y, x)
        eqs = euler_equations(sp.exp(-sigma) * lag, [x, y], t)
        jets = sp.symbols("x0 y0 x1 y1 x2 y2 x3 y3")
        subs = {}
        for s in range(3, 0, -1):
            subs[x.diff(t, s)] = jets[2 * s]
            subs[y.diff(t, s)] = jets[2 * s + 1]
        subs[x], subs[y] = jets[0], jets[1]
        residuals = [sp.expand(sp.exp(sigma) * e.lhs).xreplace(subs) for e in eqs]
        matrix, rest = sp.linear_eq_to_matrix(residuals, jets[6:])
        self._matrix = sp.lambdify(jets[:6], matrix, "numpy")
        self._rest = sp.lambdify(jets[:6], rest, "numpy")

    def endpoint(self, init, t1):
        import numpy as np
        from scipy.integrate import solve_ivp

        def field(_, state):
            top = np.linalg.solve(
                np.array(self._matrix(*state), dtype=float),
                np.array(self._rest(*state), dtype=float).ravel(),
            )
            return np.concatenate([state[2:], top])

        y0 = [init[k] for k in ("x", "y", "x'", "y'", "x''", "y''")]
        sol = solve_ivp(field, (0.0, t1), y0, method="DOP853", rtol=1e-12, atol=1e-12)
        return list(sol.y[:, -1])


def check_simulate(job, stdout: str, refs: dict):
    name, init = job.bundled, job.initial
    lines = _model_lines(Path(job.argv[1]))
    if (lines.get("lagrangian"), lines.get("sigma")) != EXPECTED_MODELS[name]:
        return f"bundled model {name} no longer matches its reference"
    dt = SIMULATE_DT[name]
    steps = round(job.t1 / dt)
    order = 2 if name in ("chiral_classical", "chiral_lc") else 1
    m = re.fullmatch(
        r"steps=(\d+) effective_order=(\d+) max_residual=\S+ min_det=\S+ csv=(.+)\n", stdout
    )
    if not m or (int(m.group(1)), int(m.group(2)), m.group(3)) != (steps, order + 1, job.csv):
        return f"unexpected summary {stdout.strip()!r}"
    with open(job.csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    coords = ["q1"] if order == 1 else ["q1", "q2"]
    header = ["t"] + [c if s == 0 else f"{c}_d{s}" for s in range(order + 1) for c in coords]
    if rows[0] != header + ["residual_max"] or len(rows) != steps + 2:
        return f"CSV header {rows[0]} or row count {len(rows)}"
    last = [float(v) for v in rows[-1]]
    t, state = last[0], last[1:-1]
    if abs(t - job.t1) > 1e-9:
        return f"CSV ends at t={t}, not {job.t1}"
    params = _params(lines)
    x0, v0 = init["x"], init["x'"]
    if name == "free_particle":
        ref = [x0 + v0 * t, v0]
    elif name == "harmonic_oscillator":
        ref = [x0 * math.cos(t) + v0 * math.sin(t), -x0 * math.sin(t) + v0 * math.cos(t)]
    elif name == "conformal_toy_1d":
        ref = [x0 - 2 * math.log(1 - v0 * t / 2), v0 / (1 - v0 * t / 2)]
    elif name == "chiral_classical":
        ref = _chiral_closed_form(init, t, params["lam"], params["m"])
    else:
        if "chiral_lc" not in refs:
            refs["chiral_lc"] = ChiralLcReference(params["lam"], params["m"])
        ref = refs["chiral_lc"].endpoint(init, t)
    for k, (got, want) in enumerate(zip(state, ref)):
        if not abs(got - want) <= 1e-7 * (1 + abs(want)):
            return f"endpoint column {header[k + 1]}: {got!r} vs reference {want!r}"
    return None
