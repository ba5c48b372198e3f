"""Reduction to explicit ODEs, integration, and the Hamiltonian bridge."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lcmech import (
    DegenerateLegendreError,
    Jet,
    JetSpace,
    LagrangianModel,
    Legendre,
    ReductionError,
    SingularDynamicsError,
    classical_el,
    conformal_el_expanded,
    evaluate,
    integrate,
    integrate_hamiltonian,
    lagrangian_hamiltonian_crosscheck,
    load_model,
    mul,
    normalize,
    num,
    parse_expression,
    partial,
    to_explicit_ode,
)
from lcmech.calculus import ConformalFactor, substitute, zero_factor
from lcmech.dynamics import (
    Trajectory,
    _compile_solver,
    _folded_elimination,
    _slots,
    _stepper,
)
from lcmech.evaluate import compile_vector
from lcmech.nodes import ZERO, jets_in
from lcmech.models import BUNDLED, bundled_path


def _model(dim, order, text, names, sigma_text="0", params=None, max_jet=None):
    space = JetSpace(dim=dim, order=order, max_jet=max_jet or 2 * order + 2)
    L = parse_expression(text, space, names)
    sigma = (
        zero_factor()
        if sigma_text == "0"
        else ConformalFactor(parse_expression(sigma_text, space, names))
    )
    return LagrangianModel(
        space=space,
        lagrangian=L,
        sigma=sigma,
        parameters=params or {},
        coordinate_names=tuple(names),
    )


# ---------------------------------------------------------------------------
# reduction


def test_reduction_harmonic_oscillator():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"])
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    assert ode.top_order == 2 and ode.dim == 1
    acc, det = ode.top_derivatives(np.array([1.0, 0.0]))
    assert abs(acc[0] + 1.0) <= 1e-12
    assert abs(det) >= 1e-12


def test_reduction_chiral_is_effectively_third_order():
    m = _model(
        2,
        2,
        "-lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)",
        ["x", "y"],
        params={"lam": 0.5, "m": 1.0},
    )
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    assert ode.top_order == 3
    assert not any(jets_in(e) for row in ode.matrix_exprs for e in row)


def test_reduction_pure_second_order_kinetic():
    m = _model(1, 2, "1/2*x''^2", ["x"])
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    assert ode.top_order == 4
    top, _ = ode.top_derivatives(np.array([0.3, -0.2, 0.7, 1.1]))
    assert abs(top[0]) <= 1e-12  # q_(4) = 0


def test_reduction_rejects_degenerate_system():
    # L = x x' has identically vanishing Euler-Lagrange residual derivatives.
    m = _model(1, 1, "x*x'", ["x"])
    with pytest.raises(ReductionError):
        to_explicit_ode(conformal_el_expanded(m), m)


# ---------------------------------------------------------------------------
# integration


def test_rk4_energy_conservation_harmonic():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"])
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    traj = integrate(ode, [1.0, 0.0], 0.0, 2 * math.pi, 1e-3)
    states = np.array(traj.states)
    energy = 0.5 * states[:, 1] ** 2 + 0.5 * states[:, 0] ** 2
    assert np.max(np.abs(energy - energy[0])) <= 1e-8


def test_rk4_step_halving_ratio_is_fourth_order():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"])
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    exact = math.cos(1.0)
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate(ode, [1.0, 0.0], 0.0, 1.0, dt)
        errs.append(abs(traj.states[-1][0] - exact))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0, ratio


def test_trajectory_residual_consistency():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"], sigma_text="x")
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    traj = integrate(ode, [0.5, 0.0], 0.0, 1.0, 1e-3)
    assert traj.max_residual <= 1e-9
    assert traj.det_min >= 1e-12


def test_trajectory_max_residual_is_nan_when_any_residual_is():
    for residuals in ([float("nan"), 1.0, 0.0], [0.0, 1.0, float("nan")]):
        traj = Trajectory([0.0, 0.1, 0.2], [[0.0]] * 3, 1, 1, residuals, 1.0)
        assert f"{traj.max_residual:.3e}" == "nan"


def test_trajectory_csv_round_trip(tmp_path):
    m = _model(1, 1, "1/2*x'^2", ["x"])
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    traj = integrate(ode, [0.0, 1.0], 0.0, 0.1, 0.01)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "t,q1,q1_d1,residual_max"
    row = lines[3].split(",")
    # repr floats round-trip exactly
    assert float(row[0]) == traj.times[2]
    assert float(row[1]) == traj.states[2][0]


def test_singular_mass_matrix_raises():
    # Mass coefficient is -x for L = 1/2 x x'^2; it vanishes at x = 0.
    m = _model(1, 1, "1/2*x*x'^2", ["x"])
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    with pytest.raises(SingularDynamicsError):
        ode.top_derivatives(np.array([0.0, 1.0]))
    # Away from the singular locus the solve succeeds.
    acc, det = ode.top_derivatives(np.array([1.0, 1.0]))
    assert abs(det) > 1e-12


# ---------------------------------------------------------------------------
# Legendre transform


def _assert_hamiltonian(m, h_text, seed):
    """``value(q, p)`` equals the closed-form H, written with p as the
    order-1 jet, at 20 sampled points."""
    rng = random.Random(seed)
    leg = Legendre(m)
    names = list(m.coordinate_names)
    h = parse_expression(h_text, m.space, names)
    r = m.space.dim
    for _ in range(20):
        z = [rng.uniform(-2.0, 2.0) for _ in range(2 * r)]
        point = {(i + 1, s): z[i + r * s] for s in (0, 1) for i in range(r)}
        want = evaluate(h, point, m.parameters)
        assert abs(leg.value(z[:r], z[r:]) - want) <= 1e-10 * (1.0 + abs(want))


def test_legendre_quadratic_round_trip():
    m = _model(1, 1, "1/2*mass*x'^2 - x^4", ["x"], params={"mass": 2.0})
    # H = p^2 / (2 mass) + x^4 with p encoded as the order-1 jet.
    _assert_hamiltonian(m, "x'^2/(2*mass) + x^4", 7)


def test_legendre_coupled_quadratic():
    m = _model(2, 1, "1/2*(x'^2 + y'^2) + x'*y'*1/4 - x*y", ["x", "y"])
    # Invert [[1, 1/4], [1/4, 1]] explicitly: H = (8/15)(p1^2 + p2^2) - (4/15) p1 p2 + x y
    _assert_hamiltonian(m, "8/15*(x'^2 + y'^2) - 4/15*x'*y' + x*y", 9)


def test_legendre_rejects_degenerate():
    # L = x x' has the identically zero velocity Hessian; the map is built,
    # and its first Newton solve fails.
    m = _model(1, 1, "x*x'", ["x"])
    leg = Legendre(m)
    with pytest.raises(DegenerateLegendreError):
        leg.velocity([0.5], [1.0])


def test_implicit_legendre_quartic_velocity():
    # L = 1/4 v^4 + 1/2 v^2 is strictly convex; p = v^3 + v.
    m = _model(1, 1, "1/4*x'^4 + 1/2*x'^2", ["x"])
    leg = Legendre(m)
    v = leg.velocity([0.0], [2.0])
    assert abs(v[0] ** 3 + v[0] - 2.0) <= 1e-10
    h = leg.value([0.0], [2.0])
    want = 2.0 * v[0] - (0.25 * v[0] ** 4 + 0.5 * v[0] ** 2)
    assert abs(h - want) <= 1e-10


@pytest.mark.parametrize("p", [1e6, 1e9])
def test_newton_stop_test_is_relative_to_the_momentum(p):
    # The rounding of dL/dv - p grows with p: about 1e-10 at p = 1e6, above
    # an absolute 1e-12.
    m = _model(1, 1, "1/4*x'^4 + 1/2*x'^2", ["x"])
    (v,) = Legendre(m).velocity([0.0], [p])
    assert abs(v**3 + v - p) <= 1e-12 * p


def test_implicit_legendre_singular_hessian_is_degenerate():
    # L = 1/3 v^3: the Hessian 2v vanishes at the starting guess v = 0.
    m = _model(1, 1, "1/3*x'^3", ["x"])
    with pytest.raises(DegenerateLegendreError):
        Legendre(m).velocity([0.0], [1.0], guess=[0.0])


# ---------------------------------------------------------------------------
# conformal Hamiltonian field


def test_conformal_field_matches_hand_expansion():
    # H = 1/2 |p|^2, sigma = a q1: dq = p,
    # dp_i = -A_ij p_j + H phi_i with A = phi p^T - p phi^T.
    m = _model(2, 1, "1/2*(x'^2 + y'^2)", ["x", "y"], sigma_text="1/2*x")
    leg = Legendre(m)
    q = np.array([0.3, -0.4])
    p = np.array([1.1, 0.7])
    out = leg.field(*q, *p)
    dq, dp = out[:2], out[2:]
    phi = np.array([0.5, 0.0])
    a = np.outer(phi, p) - np.outer(p, phi)
    h = 0.5 * float(p @ p)
    assert np.allclose(dq, p)
    assert np.allclose(dp, -a @ p + h * phi)


def test_trivial_sigma_hamiltonian_flow_is_classical():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"])
    _, qs, ps = integrate_hamiltonian(Legendre(m), [1.0], [0.0], 0.0, 1.0, 1e-3)
    assert abs(qs[-1][0] - math.cos(1.0)) <= 1e-8
    assert abs(ps[-1][0] + math.sin(1.0)) <= 1e-8


# Models with a velocity Hessian that is not constant, and the planar model
# of test_integrate_hamiltonian_matches_numpy_loop: (L, sigma, names, q0, v0).
ENERGY_MODELS = {
    "position-dependent-mass": ("1/2*(1 + x^2)*x'^2 - 1/2*x^2", "x/4", ["x"], [0.8], [0.1]),
    "quartic-velocity": ("1/4*x'^4 + 1/2*x'^2 - 1/2*x^2", "x^2/2", ["x"], [0.8], [0.1]),
    "planar-oscillator": (
        "1/2*(x'^2 + y'^2) - 1/2*(x^2 + y^2)",
        "1/4*x + 1/3*y",
        ["x", "y"],
        [0.8, -0.3],
        [0.1, 0.6],
    ),
}


def _energy_drift(name, make_field=None):
    """max |e^{-sigma} H - its start| along RK4 on t in [0, 1], dt = 1e-3,
    with the Legendre field or with ``make_field(leg, model)``."""
    text, sigma_text, names, q0, v0 = ENERGY_MODELS[name]
    m = _model(len(names), 1, text, names, sigma_text=sigma_text)
    leg = Legendre(m)
    r = len(names)
    sigma = compile_vector([m.sigma.expr()], _slots(r, 0), {})
    z0 = [*q0, *leg.momentum(q0, v0)]
    f = leg.field if make_field is None else make_field(leg, m)
    _, states = _stepper(2 * r)(f, z0, 0.0, 1e-3, 1000)
    weighted = [math.exp(-sigma(z[:r])[0]) * leg.value(z[:r], z[r:]) for z in states]
    return max(abs(w - weighted[0]) for w in weighted)


@pytest.mark.parametrize("name", list(ENERGY_MODELS))
def test_conformal_energy_is_conserved(name):
    # d/dt H = H phi . v along the field, so e^{-sigma} H is constant.
    assert _energy_drift(name) <= 1e-10


def _without_momentum_term(leg, m):
    """The Legendre field with its p (phi . v) term dropped."""
    r = leg.dim
    phi = compile_vector([m.sigma.phi((i,)) for i in range(1, r + 1)], _slots(r, 0), {})

    def field(*z):
        q, p = z[:r], z[r:]
        phi_v = sum(f * w for f, w in zip(phi(q), leg.velocity(q, p)))
        out = leg.field(*z)
        return [*out[:r], *(d - pi * phi_v for d, pi in zip(out[r:], p))]

    return field


@pytest.mark.parametrize("name", list(ENERGY_MODELS))
def test_conformal_energy_drifts_without_the_momentum_term(name):
    # Negative control: the energy test sees a wrong twist.
    assert _energy_drift(name, _without_momentum_term) > 1e-4


# ---------------------------------------------------------------------------
# Lagrangian-Hamiltonian crosscheck


def test_crosscheck_conformal_free_particle():
    m = _model(2, 1, "1/2*(x'^2 + y'^2)", ["x", "y"], sigma_text="1/2*(x + y)")
    gap = lagrangian_hamiltonian_crosscheck(m, [0.3, -0.2, 0.7, -0.2], 0.0, 1.0, 1e-3)
    assert gap <= 1e-6


def test_crosscheck_conformal_oscillator():
    m = _model(1, 1, "1/2*x'^2 - 1/2*x^2", ["x"], sigma_text="1/4*x")
    gap = lagrangian_hamiltonian_crosscheck(m, [0.8, 0.1], 0.0, 1.0, 1e-3)
    assert gap <= 1e-6


@pytest.mark.parametrize("name", ["position-dependent-mass", "quartic-velocity"])
def test_crosscheck_velocity_dependent_hessian(name):
    text, sigma_text, names, q0, v0 = ENERGY_MODELS[name]
    m = _model(1, 1, text, names, sigma_text=sigma_text)
    gap = lagrangian_hamiltonian_crosscheck(m, [*q0, *v0], 0.0, 1.0, 1e-3)
    assert gap <= 1e-6


def test_crosscheck_conformal_dynamics_differ_from_classical():
    m_conf = _model(2, 1, "1/2*(x'^2 + y'^2)", ["x", "y"], sigma_text="1/2*(x + y)")
    ode = to_explicit_ode(conformal_el_expanded(m_conf), m_conf)
    traj = integrate(ode, [0.3, -0.2, 0.7, -0.2], 0.0, 1.0, 1e-3)
    free_end = np.array([0.3 + 0.7, -0.2 - 0.2])
    assert np.max(np.abs(np.array(traj.states[-1][:2]) - free_end)) > 1e-3


# ---------------------------------------------------------------------------
# compiled vector field against the evaluate + numpy reference


def _bundled_odes():
    for name in BUNDLED:
        model = load_model(bundled_path(name)).model
        eqs = conformal_el_expanded(model)
        yield name, model, eqs, to_explicit_ode(eqs, model)


def _reference_top(ode, eqs, params, y):
    """Top jets and det M from the interpreter and numpy: every entry of M
    evaluated on a point dict, b from the residuals with the top jets at 0."""
    r, k = ode.dim, ode.top_order
    point = {(i + 1, s): float(y[i + r * s]) for s in range(k) for i in range(r)}
    point.update({(i, k): 0.0 for i in range(1, r + 1)})
    m = np.array([[evaluate(e, point, params) for e in row] for row in ode.matrix_exprs])
    b = np.array([evaluate(res, point, params) for res in eqs.residuals])
    return np.linalg.solve(m, -b), float(np.linalg.det(m))


def _assert_rel(actual, expected, rtol=1e-12):
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


def test_compiled_field_matches_reference_on_bundled_models():
    rng = random.Random(11)
    for name, model, eqs, ode in _bundled_odes():
        for _ in range(10):
            y = [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(ode.state_size)]
            ref, ref_det = _reference_top(ode, eqs, model.parameters, y)
            top, det = ode.top_derivatives(y)
            _assert_rel(top, ref)
            assert det == pytest.approx(ref_det, rel=1e-12), name
            _assert_rel(ode.rhs(y), [*y[ode.dim :], *ref])


def test_constant_mass_matrix_folds_to_the_same_floats():
    # Every bundled model has a constant M, which the field folds when it is
    # generated; the unfolded elimination on the same M and b gives the
    # same floats (an update by a folded 0.0 is left out, so a zero may
    # differ in sign, which == does not see).
    rng = random.Random(17)
    for name, model, eqs, ode in _bundled_odes():
        r, k = ode.dim, ode.top_order
        entries = [e for row in ode.matrix_exprs for e in row]
        assert not any(jets_in(e) for e in entries), name
        zero_top = {Jet(i, k): ZERO for i in range(1, r + 1)}
        rest = [normalize(substitute(res, zero_top)) for res in eqs.residuals]
        system = compile_vector(entries + rest, _slots(r, k), model.parameters)
        solve = _compile_solver(r)
        for _ in range(10):
            y = [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(ode.state_size)]
            assert ode.top_derivatives(y) == solve(system(y)), name


def test_folded_elimination_leaves_out_updates_by_zero():
    # A row swap makes the folded factors -0.0 and 0.0 for the chiral models.
    swapped = ["c0 = -c0", "c1 = -c1", "det = (-1.0)", "x1 = c0 / 1.0", "x0 = c1 / 1.0"]
    assert _folded_elimination(2, [0.0, 1.0, 1.0, 0.0]) == swapped
    assert _folded_elimination(2, [2.0, 1.0, 1.0, 3.0]) == [
        "c0 = -c0",
        "c1 = -c1",
        "c1 -= 0.5 * c0",
        "det = 5.0",
        "x1 = c1 / 2.5",
        "c0 -= 1.0 * x1",
        "x0 = c0 / 2.0",
    ]
    for name in ("chiral_classical", "chiral_lc"):
        model = load_model(bundled_path(name)).model
        ode = to_explicit_ode(conformal_el_expanded(model), model)
        m = compile_vector([e for row in ode.matrix_exprs for e in row], {}, model.parameters)(())
        assert _folded_elimination(2, list(m)) == [
            "c0 = -c0",
            "c1 = -c1",
            "det = 0.25",
            "x1 = c0 / 0.5",
            "x0 = c1 / (-0.5)",
        ], name


@pytest.mark.parametrize("mass", ["0", "1e-13"])
def test_singular_constant_mass_matrix_fails_at_the_first_step(tmp_path, capsys, mass):
    # A zero pivot, or a det at or below DET_THRESHOLD, of a constant M
    # folds into a field that raises on every call.
    from lcmech.cli import main

    path = tmp_path / "singular.model"
    path.write_text(
        "dim = 1\norder = 1\ncoordinates = x\nlagrangian = 1/2*m*x'^2 - 1/2*x^2\n"
        f"sigma = x\nparameters = m: {mass}\n"
        "simulation {\n t0 = 0.5\n t1 = 1\n dt = 0.25\n initial = x: 1, x': 0\n}\n",
        encoding="utf-8",
    )
    assert main(["simulate", str(path), "--output", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "numerical failure: singular mass matrix at t=0.5\n"


def _reference_rk4(rhs, y0, dt, steps):
    y = np.array(y0, dtype=float)
    out = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def test_integrate_matches_numpy_rk4_reference():
    starts = {"conformal_toy_1d": [0.2, 0.7], "chiral_lc": [3.0, 0.0, 0.0, 1.0, -1.0, 0.0]}
    for name, model, eqs, ode in _bundled_odes():
        if name not in starts:
            continue
        r = ode.dim

        def rhs(y):
            top, _ = _reference_top(ode, eqs, model.parameters, y)
            return np.concatenate([y[r:], top])

        dt = 1e-3
        want = _reference_rk4(rhs, starts[name], dt, 200)
        traj = integrate(ode, starts[name], 0.0, 200 * dt, dt)
        states = np.array(traj.states)
        assert states.shape == want.shape
        for got_col, want_col in zip(states.T, want.T):
            _assert_rel(got_col, want_col)


def _reference_hamilton_field(h, m, z):
    """dz/dt of the textbook field from the interpreter and numpy, for a
    Hamiltonian h written with p as the order-1 jet: dq = dH/dp,
    dp = -dH/dq - A dH/dp + H phi, every entry evaluated on a point dict and
    the momentum twist A as an outer-product matrix."""
    r = m.space.dim
    point = {(i + 1, s): float(z[i + r * s]) for s in (0, 1) for i in range(r)}
    coords = range(1, r + 1)
    dh_dq = np.array([evaluate(normalize(partial(h, i, 0)), point, m.parameters) for i in coords])
    dh_dp = np.array([evaluate(normalize(partial(h, i, 1)), point, m.parameters) for i in coords])
    phi = np.array([evaluate(m.sigma.phi((i,)), point, m.parameters) for i in coords])
    p = np.asarray(z[r:], dtype=float)
    a = np.outer(phi, p) - np.outer(p, phi)
    hv = evaluate(h, point, m.parameters)
    return np.concatenate([dh_dp, -dh_dq - a @ dh_dp + hv * phi])


def test_integrate_hamiltonian_matches_numpy_loop():
    m = _model(
        2, 1, "1/2*(x'^2 + y'^2) - 1/2*(x^2 + y^2)", ["x", "y"], sigma_text="1/4*x + 1/3*y"
    )
    h = parse_expression("1/2*(x'^2 + y'^2) + 1/2*(x^2 + y^2)", m.space, ["x", "y"])
    leg = Legendre(m)
    dt, steps = 1e-3, 300
    z0 = [0.8, -0.3, 0.1, 0.6]
    _assert_rel(leg.field(*z0), _reference_hamilton_field(h, m, z0))
    ref = _reference_rk4(lambda z: _reference_hamilton_field(h, m, z), z0, dt, steps)
    times, got_q, got_p = integrate_hamiltonian(leg, z0[:2], z0[2:], 0.0, steps * dt, dt)
    assert len(times) == steps + 1
    for got, want in ((got_q, ref[:, :2]), (got_p, ref[:, 2:])):
        for got_col, want_col in zip(np.array(got).T, want.T):
            _assert_rel(got_col, want_col)


def _list_rk4(f, y, t0, dt, steps):
    """The list-based RK4 stepper the generated one replaced, kept as the
    reference it must match bit for bit."""
    half, sixth = 0.5 * dt, dt / 6.0
    times, states = [t0], [y]
    t = t0
    for step in range(steps):
        k1 = f(y)
        k2 = f([a + half * b for a, b in zip(y, k1)])
        k3 = f([a + half * b for a, b in zip(y, k2)])
        k4 = f([a + dt * b for a, b in zip(y, k3)])
        y = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]
        assert all(map(math.isfinite, y))
        t = t0 + (step + 1) * dt
        times.append(t)
        states.append(y)
    return times, states


def test_integrate_is_bit_identical_to_list_stepper_on_bundled_models():
    rng = random.Random(5)
    for name, _, _, ode in _bundled_odes():
        y0 = [rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) for _ in range(ode.state_size)]
        dt = 1e-3
        want_t, want_y = _list_rk4(ode.rhs, y0, 0.25, dt, 200)
        traj = integrate(ode, y0, 0.25, 0.25 + 200 * dt, dt)
        assert traj.times == want_t, name
        assert traj.states == want_y, name


def test_fused_field_is_rhs_on_bundled_models():
    rng = random.Random(13)
    for name, _, _, ode in _bundled_odes():
        for _ in range(20):
            y = [rng.choice((-1, 1)) * rng.uniform(0.5, 2.0) for _ in range(ode.state_size)]
            assert ode.field(*y) == tuple(ode.rhs(y)), name


def test_integrate_hamiltonian_is_bit_identical_to_list_stepper():
    m = _model(
        2, 1, "1/2*(x'^2 + y'^2) - 1/2*(x^2 + y^2)", ["x", "y"], sigma_text="1/4*x + 1/3*y"
    )
    leg = Legendre(m)
    dt, steps = 1e-3, 300
    z0 = [0.8, -0.3, 0.1, 0.6]
    want_t, want_z = _list_rk4(lambda z: leg.field(*z), z0, 0.0, dt, steps)
    times, qs, ps = integrate_hamiltonian(leg, z0[:2], z0[2:], 0.0, steps * dt, dt)
    assert times == want_t
    assert np.hstack([qs, ps]).tolist() == want_z


def test_vector_field_failure_carries_the_start_of_its_step():
    # x'' = x'^2 / 2 from x'(0) = 1.6 blows up at t = 1.25; with dt = 0.25
    # the stages of the step from t = 1.75 overflow.
    model = load_model(bundled_path("conformal_toy_1d")).model
    ode = to_explicit_ode(conformal_el_expanded(model), model)
    with pytest.raises(SingularDynamicsError) as err:
        integrate(ode, [0.0, 1.6], 0.0, 3.0, 0.25)
    assert err.value.time == 1.75
    assert str(err.value) == "OverflowError in the vector field at t=1.75"
    assert isinstance(err.value.__cause__, OverflowError)


def test_residual_pass_singularity_carries_its_time():
    m = _model(1, 1, "1/2*x*x'^2", ["x"])
    ode = to_explicit_ode(conformal_el_expanded(m), m)
    with pytest.raises(SingularDynamicsError) as err:
        integrate(ode, [0.0, 1.0], 0.5, 0.5, 0.1)
    assert err.value.time == 0.5
