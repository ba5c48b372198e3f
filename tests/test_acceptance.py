"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every criterion is checked at its stated tolerance and wall-clock budget.
The pass/fail lines are emitted with output capture temporarily disabled so
they appear in the test log.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

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
    exp_derivative_factor_oracle,
    integrate,
    is_zero,
    lagrangian_hamiltonian_crosscheck,
    load_model,
    mul,
    normalize,
    num,
    parse_expression,
    partial,
    polynomial_curve,
    set_partitions,
    to_explicit_ode,
    total_derivative,
    variational_fd_check,
)
from lcmech.calculus import ABSTRACT, ConformalFactor, zero_factor
from lcmech.models import BUNDLED, bundled_path


import pytest


@pytest.fixture
def report(capfd):
    def emit(number: int, label: str, ok: bool, elapsed: float):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[{status}] criterion {number:2d}: {label} ({elapsed:.2f}s)")

    return emit


def _phi(*ix):
    return PhiSymbol(tuple(ix))


def _timed(report, number, label, budget, fn):
    start = time.perf_counter()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        report(number, label, ok and elapsed < budget, elapsed)
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


# ---------------------------------------------------------------------------
# 1. partition counts


def test_criterion_01_partition_counts(report):
    def body():
        expected = (1, 2, 5, 15, 52, 203)
        for m, count in zip(range(1, 7), expected):
            assert len(set_partitions(m)) == count

    _timed(report, 1, "set-partition counts 1,2,5,15,52,203", 1.0, body)


# ---------------------------------------------------------------------------
# 2. low-order display regressions in abstract mode


def test_criterion_02_display_regressions(report):
    rng = random.Random(2026)
    tol = 1e-9

    def check(e1, e2):
        result = equivalent(e1, e2, trials=20, tol=tol, rng=rng)
        assert result, result.witness or result.message

    def body():
        from lcmech import bell_terms, partition_tensor

        p = _phi
        q = Jet
        # Phi_1, Phi_2, Phi_3
        check(partition_tensor(ABSTRACT, (1,)), mul(num(-1), p(1)))
        check(
            partition_tensor(ABSTRACT, (1, 2)),
            add(mul(p(1), p(2)), mul(num(-1), p(1, 2))),
        )
        check(
            partition_tensor(ABSTRACT, (1, 2, 3)),
            add(
                mul(num(-1), p(1), p(2), p(3)),
                mul(p(1), p(2, 3)),
                mul(p(2), p(1, 3)),
                mul(p(3), p(1, 2)),
                mul(num(-1), p(1, 2, 3)),
            ),
        )

        # B_{1,1} .. B_{3,3} as exponent data
        def monos(s, m):
            return sorted(
                (t.coefficient, tuple(sorted(t.factor_orders)))
                for t in bell_terms(s, m)
            )

        assert monos(1, 1) == [(Fraction(1), (1,))]
        assert monos(2, 1) == [(Fraction(1), (2,))]
        assert monos(2, 2) == [(Fraction(1), (1, 1))]
        assert monos(3, 1) == [(Fraction(1), (3,))]
        assert monos(3, 2) == [(Fraction(3), (1, 2))]
        assert monos(3, 3) == [(Fraction(1), (1, 1, 1))]

        # exp-derivative factors F_1, F_2, F_3 against their displayed forms
        space = JetSpace(dim=2, order=3, max_jet=7)
        dims = (1, 2)

        def sum_over(fn, reps):
            return add(*[fn(*c) for c in itertools.product(dims, repeat=reps)])

        phi2 = lambda i, j: add(mul(p(i), p(j)), mul(num(-1), p(i, j)))

        def phi3(i, j, k):
            return add(
                mul(num(-1), p(i), p(j), p(k)),
                mul(p(i), p(j, k)),
                mul(p(j), p(i, k)),
                mul(p(k), p(i, j)),
                mul(num(-1), p(i, j, k)),
            )

        check(
            exp_derivative_factor(1, ABSTRACT, space),
            sum_over(lambda i: mul(num(-1), p(i), q(i, 1)), 1),
        )
        check(
            exp_derivative_factor(2, ABSTRACT, space),
            add(
                sum_over(lambda i: mul(num(-1), p(i), q(i, 2)), 1),
                sum_over(lambda i, j: mul(phi2(i, j), q(i, 1), q(j, 1)), 2),
            ),
        )
        check(
            exp_derivative_factor(3, ABSTRACT, space),
            add(
                sum_over(lambda i: mul(num(-1), p(i), q(i, 3)), 1),
                sum_over(
                    lambda i, j: mul(num(3), phi2(i, j), q(i, 2), q(j, 1)), 2
                ),
                sum_over(
                    lambda i, j, k: mul(phi3(i, j, k), q(i, 1), q(j, 1), q(k, 1)), 3
                ),
            ),
        )

        # conformal sources A^1, A^2, A^3 against their displayed expansions
        space1 = JetSpace(dim=2, order=1, max_jet=4)
        L1 = parse_expression("1/2*(x'^2 + y'^2) - exp(x)*y", space1, ["x", "y"])
        m1 = LagrangianModel(space=space1, lagrangian=L1, sigma=ABSTRACT)
        lee_dot = lambda: add(*[mul(p(j), q(j, 1)) for j in dims])
        for i in dims:
            want = add(
                mul(p(i), L1),
                mul(num(-1), lee_dot(), partial(L1, i, 1)),
            )
            check(conformal_rhs(m1)[i - 1], want)

        space2 = JetSpace(dim=2, order=2, max_jet=6)
        L2 = parse_expression("x''*y'' + x'*y' - x*y", space2, ["x", "y"])
        m2 = LagrangianModel(space=space2, lagrangian=L2, sigma=ABSTRACT)
        coeff = add(
            add(*[mul(p(k), q(k, 2)) for k in dims]),
            add(*[mul(p(k, l), q(k, 1), q(l, 1)) for k in dims for l in dims]),
            mul(
                num(-1),
                add(*[mul(p(k), p(l), q(k, 1), q(l, 1)) for k in dims for l in dims]),
            ),
        )
        for i in dims:
            want = add(
                mul(p(i), L2),
                mul(num(-1), lee_dot(), partial(L2, i, 1)),
                mul(coeff, partial(L2, i, 2)),
                mul(num(2), lee_dot(), total_derivative(partial(L2, i, 2), space2)),
            )
            check(conformal_rhs(m2)[i - 1], want)

        space3 = JetSpace(dim=1, order=3, max_jet=8)
        L3 = parse_expression("1/2*x(3)^2 + x''*x' - x^2", space3, ["x"])
        m3 = LagrangianModel(space=space3, lagrangian=L3, sigma=ABSTRACT)
        B = {s: exp_derivative_factor(s, ABSTRACT, space3) for s in (1, 2, 3)}
        want3 = add(
            mul(p(1), L3),
            mul(B[1], partial(L3, 1, 1)),
            mul(
                num(-1),
                add(
                    mul(B[2], partial(L3, 1, 2)),
                    mul(num(2), B[1], total_derivative(partial(L3, 1, 2), space3)),
                ),
            ),
            add(
                mul(B[3], partial(L3, 1, 3)),
                mul(num(3), B[2], total_derivative(partial(L3, 1, 3), space3)),
                mul(num(3), B[1], total_derivative(partial(L3, 1, 3), space3, 2)),
            ),
        )
        check(conformal_rhs(m3)[0], want3)

    _timed(report, 2, "low-order display regressions (abstract mode, tol 1e-9)", 10.0, body)


# ---------------------------------------------------------------------------
# 3. exp-derivative factor vs oracle


def _random_sigma_poly(rng, dim, degree=3):
    terms = []
    n_terms = rng.randint(2, 4)
    for _ in range(n_terms):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if coeff == 0:
            coeff = Fraction(1)
        exps = [0] * dim
        total = rng.randint(1, degree)
        for _ in range(total):
            exps[rng.randrange(dim)] += 1
        factors = [num(coeff)]
        for i, e in enumerate(exps, start=1):
            for _ in range(e):
                factors.append(Jet(i, 0))
        terms.append(mul(*factors))
    return add(*terms)


def test_criterion_03_oracle_equivalence(report):
    rng = random.Random(303)
    tol = 1e-9

    def body():
        for trial in range(10):
            dim = rng.randint(1, 3)
            space = JetSpace(dim=dim, order=5, max_jet=11)
            sigma = ConformalFactor(_random_sigma_poly(rng, dim))
            for s in range(1, 6):
                got = exp_derivative_factor(s, sigma, space)
                want = exp_derivative_factor_oracle(s, sigma, space)
                result = equivalent(got, want, trials=20, tol=tol, rng=rng)
                assert result, (trial, dim, s, result.witness or result.message)

    _timed(report, 3, "combinatorial F_s vs e^sigma D_t^s e^-sigma oracle (tol 1e-9)", 30.0, body)


# ---------------------------------------------------------------------------
# 4 and 5. main-theorem equivalence and sigma = 0 collapse on a shared suite


def _random_lagrangian(rng, space):
    terms = []
    for _ in range(rng.randint(2, 4)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if coeff == 0:
            coeff = Fraction(1, 2)
        factors = [num(coeff)]
        for _ in range(rng.randint(1, 2)):  # jet degree <= 2
            factors.append(Jet(rng.randint(1, space.dim), rng.randint(0, space.order)))
        terms.append(mul(*factors))
    # Keep the top jet present so the nominal order is honest.
    terms.append(mul(num(Fraction(1, 2)), Jet(1, space.order), Jet(1, space.order)))
    return add(*terms)


def _model_suite(seed):
    rng = random.Random(seed)
    suite = []
    for order in (1, 2, 3, 4):
        for dim in (1, 2):
            space = JetSpace(dim=dim, order=order, max_jet=2 * order + 1)
            L = _random_lagrangian(rng, space)
            sigma = ConformalFactor(_random_sigma_poly(rng, dim, degree=2))
            suite.append((space, L, sigma))
    return suite


def test_criterion_04_main_theorem_equivalence(report):
    rng = random.Random(404)
    tol = 1e-8

    def body():
        for space, L, sigma in _model_suite(4040):
            model = LagrangianModel(space=space, lagrangian=L, sigma=sigma)
            weight = exp(sigma.expr())
            compact = conformal_el_compact(model)
            expanded = conformal_el_expanded(model)
            for i in range(space.dim):
                lhs = mul(weight, compact.residuals[i])
                result = equivalent(lhs, expanded.residuals[i], trials=20, tol=tol, rng=rng)
                assert result, (space.order, space.dim, i, result.witness or result.message)

    _timed(report, 4, "e^sigma * compact form == expanded form, n<=4, dim<=2 (tol 1e-8)", 60.0, body)


def test_criterion_05_trivial_sigma_collapse(report):
    def body():
        for space, L, _ in _model_suite(4040):
            model = LagrangianModel(space=space, lagrangian=L, sigma=zero_factor())
            for src in conformal_rhs(model):
                assert is_zero(src)
            assert conformal_el_expanded(model).residuals == classical_el(model).residuals

    _timed(report, 5, "sigma == 0 collapse to the classical equations (exact)", 30.0, body)


# ---------------------------------------------------------------------------
# 6. chiral oscillator


def test_criterion_06_chiral_oscillator(report):
    rng = random.Random(606)
    tol = 1e-9

    def body():
        names = ["x", "y"]
        space = JetSpace(dim=2, order=2, max_jet=6)
        L = parse_expression(
            "-lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)", space, names
        )
        # classical: lambda eps_ij q_(3)^j - m q''_i, exactly
        m0 = LagrangianModel(
            space=space, lagrangian=L, sigma=zero_factor(), coordinate_names=tuple(names)
        )
        res = classical_el(m0).residuals
        assert res[0] == normalize(parse_expression("lam*y''' - m*x''", space, names))
        assert res[1] == normalize(parse_expression("-lam*x''' - m*y''", space, names))

        # locally conformal display, abstract mode
        ma = LagrangianModel(space=space, lagrangian=L, sigma=ABSTRACT)
        expanded = conformal_el_expanded(ma)
        classical = classical_el(ma)
        p, q = _phi, Jet
        dims = (1, 2)
        lam = parse_expression("lam", space, names)
        mass = parse_expression("m", space, names)
        eps = {(1, 2): num(1), (2, 1): num(-1), (1, 1): num(0), (2, 2): num(0)}
        lee_dot = add(*[mul(p(l), q(l, 1)) for l in dims])
        for i in dims:
            dL_dv = add(
                mul(
                    num(Fraction(-1, 2)),
                    lam,
                    add(*[mul(eps[(i, j)], q(j, 2)) for j in dims]),
                ),
                mul(mass, q(i, 1)),
            )
            dL_da = mul(
                num(Fraction(1, 2)),
                lam,
                add(*[mul(eps[(i, j)], q(j, 1)) for j in dims]),
            )
            rhs = add(
                mul(p(i), L),
                mul(num(-1), lee_dot, dL_dv),
                mul(
                    add(
                        add(*[mul(p(l), q(l, 2)) for l in dims]),
                        add(*[mul(p(l, k), q(l, 1), q(k, 1)) for l in dims for k in dims]),
                        mul(
                            num(-1),
                            add(
                                *[
                                    mul(p(l), p(k), q(l, 1), q(k, 1))
                                    for l in dims
                                    for k in dims
                                ]
                            ),
                        ),
                    ),
                    dL_da,
                ),
                mul(lam, lee_dot, add(*[mul(eps[(i, j)], q(j, 2)) for j in dims])),
            )
            want = add(classical.residuals[i - 1], mul(num(-1), rhs))
            result = equivalent(expanded.residuals[i - 1], want, trials=20, tol=tol, rng=rng)
            assert result, (i, result.witness or result.message)

    _timed(report, 6, "chiral oscillator: classical exact, conformal display (tol 1e-9)", 5.0, body)


# ---------------------------------------------------------------------------
# 7. variational finite-difference check


def test_criterion_07_variational_check(report):
    def body():
        sp = JetSpace(dim=1, order=1)
        kinetic = mul(num(Fraction(1, 2)), Jet(1, 1), Jet(1, 1))
        free = LagrangianModel(space=sp, lagrangian=kinetic, sigma=zero_factor())
        line = polynomial_curve([[0.0, 1.0]], 2)
        bump1 = bump_curve(0.0, 1.0, 1, 1, 2)
        assert variational_fd_check(free, line, bump1, 0.0, 1.0) <= 1e-4

        conf = LagrangianModel(
            space=sp, lagrangian=kinetic, sigma=ConformalFactor(Jet(1, 0))
        )
        wiggly = polynomial_curve([[0.1, 0.8, -0.4, 0.2]], 2)
        assert variational_fd_check(conf, wiggly, bump1, 0.0, 1.0) <= 1e-4

        names = ["x", "y"]
        space = JetSpace(dim=2, order=2, max_jet=6)
        L = parse_expression(
            "-lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)", space, names
        )
        chiral = LagrangianModel(
            space=space,
            lagrangian=L,
            sigma=ConformalFactor(parse_expression("2*atan2(y, x)", space, names)),
            parameters={"lam": 0.5, "m": 1.0},
        )
        loop = circle_curve((3.0, 0.0), 1.0, 2 * math.pi, 4)
        bump2 = bump_curve(0.0, 1.0, 2, 2, 4)
        assert variational_fd_check(chiral, loop, bump2, 0.0, 1.0) <= 1e-4

    _timed(report, 7, "variational finite-difference check <= 1e-4 on three cases", 10.0, body)


# ---------------------------------------------------------------------------
# 8. dynamics


def test_criterion_08_dynamics(report):
    def body():
        # RK4 step-halving ratio on the harmonic oscillator
        names = ["x"]
        sp = JetSpace(dim=1, order=1)
        L = parse_expression("1/2*x'^2 - 1/2*x^2", sp, names)
        osc = LagrangianModel(space=sp, lagrangian=L, sigma=zero_factor())
        ode = to_explicit_ode(conformal_el_expanded(osc), osc)
        errs = []
        for dt in (0.02, 0.01):
            traj = integrate(ode, [1.0, 0.0], 0.0, 1.0, dt)
            errs.append(abs(traj.states[-1][0] - math.cos(1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0, ratio

        # locally conformal chiral trajectory at dt = 1e-4
        mf = load_model(bundled_path("chiral_lc"))
        eqs = conformal_el_expanded(mf.model)
        ode = to_explicit_ode(eqs, mf.model)
        sim = mf.simulation
        from lcmech.modelfile import jet_key

        state = [0.0] * (ode.dim * ode.top_order)
        for label, value in sim.initial.items():
            i, s = jet_key(label, mf.coordinates, mf.model.space.max_jet)
            if s < ode.top_order:
                state[(i - 1) + ode.dim * s] = value
        traj = integrate(ode, state, sim.t0, sim.t1, 1e-4, residual_stride=100)
        assert traj.max_residual <= 1e-6, traj.max_residual

    _timed(report, 8, "RK4 order ratio in [12,20]; chiral residual <= 1e-6 at dt=1e-4", 30.0, body)


# ---------------------------------------------------------------------------
# 9. Legendre bridge


def test_criterion_09_legendre_bridge(report):
    def body():
        names2 = ["x", "y"]
        sp2 = JetSpace(dim=2, order=1)
        free = LagrangianModel(
            space=sp2,
            lagrangian=parse_expression("1/2*(x'^2 + y'^2)", sp2, names2),
            sigma=ConformalFactor(parse_expression("1/2*(x + y)", sp2, names2)),
        )
        gap = lagrangian_hamiltonian_crosscheck(free, [0.3, -0.2, 0.7, -0.2], 0.0, 1.0, 1e-3)
        assert gap <= 1e-6, gap

        sp1 = JetSpace(dim=1, order=1)
        osc = LagrangianModel(
            space=sp1,
            lagrangian=parse_expression("1/2*x'^2 - 1/2*x^2", sp1, ["x"]),
            sigma=ConformalFactor(parse_expression("1/4*x", sp1, ["x"])),
        )
        gap = lagrangian_hamiltonian_crosscheck(osc, [0.8, 0.1], 0.0, 1.0, 1e-3)
        assert gap <= 1e-6, gap

    _timed(report, 9, "Euler-Lagrange vs Hamiltonian trajectories agree <= 1e-6", 10.0, body)


# ---------------------------------------------------------------------------
# 10. CLI determinism


def test_criterion_10_cli_determinism(report):
    def body():
        cmd = [
            sys.executable,
            "-m",
            "lcmech.cli",
            "verify",
            str(bundled_path("chiral_lc")),
            "--seed",
            "42",
        ]
        r1 = subprocess.run(cmd, capture_output=True)
        r2 = subprocess.run(cmd, capture_output=True)
        assert r1.returncode == 0 and r1.stdout == r2.stdout

        for name in BUNDLED:
            r = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "lcmech.cli",
                    "verify",
                    str(bundled_path(name)),
                    "--seed",
                    "42",
                ],
                capture_output=True,
            )
            assert r.returncode == 0, (name, r.stdout, r.stderr)
            report = json.loads(r.stdout)
            assert report["all_pass"], name

    _timed(report, 10, "verify --seed 42 byte-identical; bundled models pass", 60.0, body)
