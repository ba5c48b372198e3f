"""Command-line front end.

Subcommands:
  derive    print classical / expanded / compact equations for a model file
  verify    run the randomized symbolic cross-checks, emit a JSON report
  simulate  reduce to an explicit ODE, integrate, write a CSV trajectory
  bell      display the partition tensors, Bell monomials, and the
            exp-derivative factors in abstract form

Exit codes: 0 success, 1 verification failure, 2 input error (an expression
nested too deeply included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from .calculus import ConformalFactor
from .combinatorics import (
    MAX_DERIVATIVE_ORDER,
    bell_number,
    bell_terms,
    exp_derivative_factor,
    exp_derivative_factor_oracle,
    set_partitions,
)
from .dynamics import (
    ReductionError,
    SingularDynamicsError,
    integrate,
    to_explicit_ode,
)
from .euler_lagrange import (
    LagrangianModel,
    classical_el,
    conformal_el_compact,
    conformal_el_expanded,
    conformal_rhs,
)
from .evaluate import equivalent
from .modelfile import E_VALUE, ModelFileError, initial_jets, load_model, parse_initial
from .nodes import ExprError, JetSpace, exp, mul
from .normalize import is_zero, normalize
from .printing import jet_mark, rational, to_latex, to_text

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# Largest relative distance of (t1 - t0) / dt from a whole number of steps.
SPAN_TOL = 1e-9

_LETTERS = "ijklmnpr"


def _bell_monomial(term, latex: bool, *factors: str) -> str:
    """One term of B_{s,m}: its coefficient, ``factors``, then one jet per block."""
    coeff = rational(term.coefficient, latex)
    parts = [coeff] if coeff != "1" else []
    parts += factors
    for slot, order in enumerate(term.factor_orders):
        letter = _LETTERS[slot]
        parts.append(jet_mark("q", order, latex) + (f"^{{{letter}}}" if latex else f"^{letter}"))
    return (" " if latex else "*").join(parts)


def format_bell_polynomial(s: int, m: int, latex: bool = False) -> str:
    """The partial exponential Bell polynomial B_{s,m} with letter indices."""
    return " + ".join(_bell_monomial(term, latex) for term in bell_terms(s, m))


def format_partition_tensor(m: int, latex: bool = False) -> str:
    """The signed partition sum of sigma partials over m letter indices."""
    out = ""
    for blocks in set_partitions(m):
        sign = "-" if len(blocks) % 2 else "+"
        factors = []
        for block in blocks:
            letters = "".join(_LETTERS[pos - 1] for pos in block)
            if latex:
                factors.append(f"\\varphi_{{{' '.join(letters)}}}")
            else:
                factors.append(f"phi_{letters}")
        body = (" " if latex else "*").join(factors)
        out += f" {sign} {body}" if out else ("-" if sign == "-" else "") + body
    return out


def format_exp_derivative_factor(s: int, latex: bool = False) -> str:
    """The factor F_s of d^s/dt^s e^{-sigma} = e^{-sigma} F_s, per block count m."""
    lines = []
    for m in range(1, s + 1):
        tensor = f"({format_partition_tensor(m, latex)})"
        terms = (_bell_monomial(term, latex, tensor) for term in bell_terms(s, m))
        lines.append(f"  m={m}: " + " + ".join(terms))
    return "\n".join(lines)


def run_verification(
    model: LagrangianModel,
    name: str,
    seed: int,
    trials: int,
    tol: float,
    inject_fault: bool = False,
) -> dict:
    """Randomized cross-checks for one model; deterministic for a given seed.

    Each sampled check draws from its own generator, seeded with the str
    ``"<seed>/<check name>"`` (hashed by SHA-512, so independent of
    PYTHONHASHSEED): its points do not depend on the checks before it.
    """
    checks = []

    def record(check_name: str, result):
        if isinstance(result, bool):
            checks.append({"name": check_name, "pass": result, "witness": None})
        else:
            checks.append(
                {"name": check_name, "pass": bool(result), "witness": result.witness}
            )

    def compare(check_name: str, e1, e2):
        rng = random.Random(f"{seed}/{check_name}")
        record(check_name, equivalent(e1, e2, trials=trials, tol=tol, params=params, rng=rng))

    counts_ok = all(
        bell_number(m) == expected
        for m, expected in zip(range(1, 7), (1, 2, 5, 15, 52, 203))
    )
    record("set-partition-counts", counts_ok)

    space = model.space
    sigma = model.sigma
    params = dict(model.parameters)
    for s in range(1, min(space.order + 1, 5) + 1):
        if s > space.max_jet:
            break
        combinatorial = exp_derivative_factor(s, sigma, space)
        oracle = exp_derivative_factor_oracle(s, sigma, space)
        compare(f"exp-derivative-factor-s{s}-vs-oracle", combinatorial, oracle)

    expanded = conformal_el_expanded(model)
    compact = conformal_el_compact(model)
    weight = exp(sigma.expr())
    for i in range(1, space.dim + 1):
        lhs = mul(weight, compact.residuals[i - 1])
        rhs = expanded.residuals[i - 1]
        if inject_fault:
            rhs = normalize(rhs + 2 * mul(sigma.phi((i,)), model.lagrangian))
        compare(f"compact-vs-expanded-q{i}", lhs, rhs)

    if sigma.is_trivial():
        sources = conformal_rhs(model)
        record("trivial-sigma-source-vanishes", all(is_zero(src) for src in sources))
        classical = classical_el(model)
        record(
            "trivial-sigma-matches-classical",
            all(a == b for a, b in zip(expanded.residuals, classical.residuals)),
        )

    return {
        "model": name,
        "seed": seed,
        "trials": trials,
        "tol": tol,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="lcmech",
        description="Locally conformal higher-order Lagrangian mechanics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print the equations of motion")
    p.add_argument("model")
    p.add_argument(
        "--form",
        choices=("classical", "expanded", "compact"),
        default="expanded",
    )
    p.add_argument("--format", choices=("text", "latex"), default="text")

    p = sub.add_parser("verify", help="run randomized symbolic cross-checks")
    p.add_argument("model")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="flip a sign in the expanded equations (negative control)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--tol", type=float, default=1e-8, help="relative tolerance")
    p.add_argument("--trials", type=int, default=20, help="random points per check")

    p = sub.add_parser("simulate", help="integrate a trajectory and write CSV")
    p.add_argument("model")
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument(
        "--initial",
        help="comma-separated overrides, e.g. \"x: 1, x': 0\"",
    )
    p.add_argument("--output", help="CSV output path")

    p = sub.add_parser("bell", help="display the combinatorial building blocks")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--format", choices=("text", "latex"), default="text")

    return parser


def cmd_derive(args) -> int:
    mf = load_model(args.model)
    model = mf.model
    if args.form == "classical":
        eqs = classical_el(model)
    elif args.form == "expanded":
        eqs = conformal_el_expanded(model)
    else:
        eqs = conformal_el_compact(model)
    names = mf.coordinates
    render = to_latex if args.format == "latex" else to_text
    print(f"# {args.form} equations for {mf.name or args.model}")
    for i, residual in enumerate(eqs.residuals):
        label = names[i] if i < len(names) else f"q{i + 1}"
        if args.format == "latex":
            print(f"% coordinate {label}")
            print(render(residual, names) + " = 0")
        else:
            print(f"[{label}]  {render(residual, names)} = 0")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ModelFileError(E_VALUE, f"--trials must be at least 1, not {args.trials}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ModelFileError(E_VALUE, f"--tol must be finite and non-negative, not {args.tol!r}")
    mf = load_model(args.model)
    report = run_verification(
        mf.model,
        mf.name,
        seed=args.seed,
        trials=args.trials,
        tol=args.tol,
        inject_fault=args.inject_fault,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAIL


def cmd_simulate(args) -> int:
    mf = load_model(args.model)
    model = mf.model
    sim = mf.simulation
    t0 = args.t0 if args.t0 is not None else (sim.t0 if sim else None)
    t1 = args.t1 if args.t1 is not None else (sim.t1 if sim else None)
    dt = args.dt if args.dt is not None else (sim.dt if sim else None)
    if t0 is None or t1 is None or dt is None:
        raise ModelFileError(
            "E_MISSING_KEY", "simulation needs t0, t1, dt (block or overrides)"
        )
    if not all(math.isfinite(v) for v in (t0, t1, dt)):
        raise ModelFileError(E_VALUE, "t0, t1 and dt must be finite")
    if dt <= 0:
        raise ModelFileError(E_VALUE, f"dt must be positive, not {dt!r}")
    if t1 <= t0:
        raise ModelFileError(E_VALUE, f"t1 = {t1!r} must be greater than t0 = {t0!r}")
    steps = (t1 - t0) / dt
    if abs(steps - round(steps)) > SPAN_TOL * steps:
        raise ModelFileError(
            E_VALUE, f"t1 - t0 = {t1 - t0!r} is not a whole number of steps dt = {dt!r}"
        )
    max_jet = model.space.max_jet
    from_file = initial_jets(sim.initial, mf.coordinates, max_jet) if sim else {}
    from_flag = (
        initial_jets(parse_initial(args.initial), mf.coordinates, max_jet) if args.initial else {}
    )
    initial = {**from_file, **from_flag}
    eqs = conformal_el_expanded(model)
    ode = to_explicit_ode(eqs, model)
    r, k = ode.dim, ode.top_order

    def labels(keys) -> str:
        return ", ".join(f"{mf.coordinates[i - 1]}{chr(39) * s}" for i, s in keys)

    # The state holds the jets below the effective order; data for a higher
    # jet would be dropped, whether or not it agrees with the equations.
    unused_flag = [key for key in from_flag if key[1] >= k]
    unused_file = [key for key in from_file if key[1] >= k and key not in from_flag]
    for unused, line in ((unused_flag, None), (unused_file, sim.initial_line if sim else None)):
        if unused:
            raise ModelFileError(
                E_VALUE,
                f"initial data for {labels(unused)} is not used: the state holds "
                f"the jets below the effective order {k}",
                line,
            )
    state = [0.0] * (r * k)
    for (i, s), value in initial.items():
        state[(i - 1) + r * s] = value
    missing = [(i, s) for s in range(k) for i in range(1, r + 1) if (i, s) not in initial]
    if missing:
        raise ModelFileError(
            "E_MISSING_KEY", f"initial data incomplete (effective order {k}): {labels(missing)}"
        )
    stride = max(1, int(round(0.01 / dt))) if dt < 0.01 else 1
    traj = integrate(ode, state, t0, t1, dt, residual_stride=stride)
    output = args.output or (args.model.rsplit(".", 1)[0] + "_trajectory.csv")
    traj.write_csv(output)
    print(
        f"steps={len(traj.times) - 1} effective_order={k} "
        f"max_residual={traj.max_residual:.3e} min_det={traj.det_min:.3e} "
        f"csv={output}"
    )
    return EXIT_OK


def cmd_bell(args) -> int:
    s = args.s
    if not (1 <= s <= MAX_DERIVATIVE_ORDER):
        print(f"error: --s must be in 1..{MAX_DERIVATIVE_ORDER}", file=sys.stderr)
        return EXIT_INPUT
    latex = args.format == "latex"
    ms = [args.m] if args.m is not None else list(range(1, s + 1))
    for m in ms:
        if not (1 <= m <= s):
            print("error: need 1 <= m <= s", file=sys.stderr)
            return EXIT_INPUT
        print(f"B[{s},{m}] = {format_bell_polynomial(s, m, latex)}")
        print(f"Phi[{m}] = {format_partition_tensor(m, latex)}")
    print(f"F[{s}] (d^{s}/dt^{s} e^-sigma = e^-sigma F[{s}]):")
    print(format_exp_derivative_factor(s, latex))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "derive": cmd_derive,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
        "bell": cmd_bell,
    }
    try:
        return handlers[args.command](args)
    except (ModelFileError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ReductionError, SingularDynamicsError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        # The parser, normalize and the printer recurse once per nesting level.
        print(
            f"error: {E_VALUE}: expression nested too deeply "
            f"(the recursion limit of {sys.getrecursionlimit()} was reached)",
            file=sys.stderr,
        )
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
