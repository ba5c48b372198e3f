"""Model files and command-line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lcmech import ModelFileError, parse_model_text
from lcmech.cli import main, run_verification
from lcmech.modelfile import (
    E_COORDS_LEN,
    E_LAGRANGIAN_ORDER,
    E_MISSING_KEY,
    E_SIGMA_JETS,
    E_SYNTAX,
    E_VALUE,
    jet_key,
)
from lcmech.models import BUNDLED, bundled_path

GOOD = """
dim = 1
order = 1
coordinates = x
lagrangian = 1/2*x'^2 - 1/2*x^2
sigma = x
simulation {
  t0 = 0
  t1 = 1
  dt = 0.001
  initial = x: 1, x': 0
}
"""


def _mutate(**repl):
    lines = GOOD.strip().splitlines()
    out = []
    for line in lines:
        key = line.split("=")[0].strip() if "=" in line else None
        if key in repl:
            if repl[key] is not None:
                out.append(f"{key} = {repl[key]}")
        else:
            out.append(line)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# model files


def test_parse_good_model():
    mf = parse_model_text(GOOD)
    assert mf.coordinates == ["x"]
    assert mf.simulation.dt == 0.001
    assert mf.simulation.initial == {"x": 1.0, "x'": 0.0}


def test_model_error_codes_are_distinct():
    cases = {
        E_SYNTAX: _mutate(lagrangian="1/2*x'^2 +"),
        E_MISSING_KEY: _mutate(sigma=None),
        E_VALUE: _mutate(dim="one"),
        E_COORDS_LEN: _mutate(coordinates="x, y"),
        E_LAGRANGIAN_ORDER: _mutate(lagrangian="1/2*x''^2"),
        E_SIGMA_JETS: _mutate(sigma="x'"),
    }
    for code, text in cases.items():
        with pytest.raises(ModelFileError) as err:
            parse_model_text(text)
        assert err.value.code == code, code


def test_model_abstract_sigma_keyword():
    mf = parse_model_text(_mutate(sigma="abstract"))
    assert mf.model.sigma.is_abstract


def test_model_syntax_errors_in_structure():
    with pytest.raises(ModelFileError) as err:
        parse_model_text("dim = 1\njust words\n")
    assert err.value.code == E_SYNTAX
    with pytest.raises(ModelFileError) as err:
        parse_model_text(GOOD.strip() + "\nsimulation {\n t0 = 0\n")
    assert err.value.code == E_SYNTAX


def test_jet_key_resolution():
    assert jet_key("x", ["x", "y"], 5) == (1, 0)
    assert jet_key("y''", ["x", "y"], 5) == (2, 2)
    assert jet_key("x(4)", ["x", "y"], 5) == (1, 4)
    with pytest.raises(ModelFileError):
        jet_key("z'", ["x", "y"], 5)


def test_bundled_models_all_load():
    for name in BUNDLED:
        mf = parse_model_text(bundled_path(name).read_text(), name=name)
        assert mf.model.space.dim >= 1


# ---------------------------------------------------------------------------
# verification reports


def test_run_verification_is_deterministic():
    from lcmech import load_model

    mf = load_model(bundled_path("conformal_toy_1d"))
    r1 = run_verification(mf.model, mf.name, seed=42, trials=20, tol=1e-8)
    r2 = run_verification(mf.model, mf.name, seed=42, trials=20, tol=1e-8)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["all_pass"]


def test_run_verification_fault_injection_fails_with_witness():
    from lcmech import load_model

    mf = load_model(bundled_path("chiral_lc"))
    report = run_verification(
        mf.model, mf.name, seed=42, trials=20, tol=1e-8, inject_fault=True
    )
    assert not report["all_pass"]
    failing = [c for c in report["checks"] if not c["pass"]]
    assert failing and failing[0]["witness"] is not None
    assert {"lhs", "rhs", "point"} <= set(failing[0]["witness"])


def test_verify_check_draws_from_its_own_generator(capsys):
    # The witness of one check is that of the check alone, sampled from
    # random.Random("<seed>/<check name>"), whatever the checks before it drew.
    import random

    from lcmech import (
        conformal_el_compact,
        conformal_el_expanded,
        equivalent,
        exp,
        load_model,
        mul,
        normalize,
    )

    path = bundled_path("chiral_lc")
    assert main(["verify", str(path), "--seed", "42", "--inject-fault"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    (check,) = [c for c in checks if c["name"] == "compact-vs-expanded-q2"]
    model = load_model(path).model
    lhs = mul(exp(model.sigma.expr()), conformal_el_compact(model).residuals[1])
    rhs = conformal_el_expanded(model).residuals[1]
    rhs = normalize(rhs + 2 * mul(model.sigma.phi((2,)), model.lagrangian))
    direct = equivalent(
        lhs,
        rhs,
        trials=20,
        tol=1e-8,
        params=dict(model.parameters),
        rng=random.Random("42/compact-vs-expanded-q2"),
    )
    assert not direct
    assert check["witness"] == direct.witness


# ---------------------------------------------------------------------------
# CLI entry point (in-process via main())


def test_cli_derive_text(capsys):
    code = main(["derive", str(bundled_path("chiral_classical")), "--form", "classical"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lam*y''' - m*x''" in out


def test_cli_derive_latex(capsys):
    code = main(["derive", str(bundled_path("harmonic_oscillator")), "--format", "latex"])
    out = capsys.readouterr().out
    assert code == 0
    assert "\\ddot{" in out


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", str(bundled_path("chiral_lc")), "--seed", "1"]) == 0
    capsys.readouterr()
    assert (
        main(["verify", str(bundled_path("chiral_lc")), "--seed", "1", "--inject-fault"])
        == 1
    )
    report = json.loads(capsys.readouterr().out)
    assert not report["all_pass"]


def test_cli_input_error_exit_code(tmp_path, capsys):
    assert main(["derive", str(tmp_path / "missing.model")]) == 2
    bad = tmp_path / "bad.model"
    bad.write_text(_mutate(lagrangian="1/2*x'^2 +"))
    assert main(["derive", str(bad)]) == 2


def test_cli_numerical_error_exit_code(tmp_path, capsys):
    deg = tmp_path / "deg.model"
    deg.write_text(
        "dim = 1\norder = 1\ncoordinates = x\nlagrangian = x\nsigma = 0\n"
        "simulation {\n t0 = 0\n t1 = 1\n dt = 0.01\n initial = x: 0, x': 0\n}\n"
    )
    assert main(["simulate", str(deg)]) == 3


def test_cli_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            str(bundled_path("harmonic_oscillator")),
            "--output",
            str(out),
            "--t1",
            "0.5",
            "--dt",
            "0.01",
        ]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "max_residual=" in summary and "min_det=" in summary
    lines = out.read_text().splitlines()
    assert lines[0].startswith("t,q1,q1_d1")
    assert lines[0].endswith("residual_max")
    assert len(lines) == 52  # header + 51 states


@pytest.mark.parametrize(
    "lagrangian, sigma, equation",
    [
        ("1/2*x'^2 - exp(x)", "0", "-x'' - exp(x)"),
        ("1/2*x'^2 - x^2", "exp(x)", "-2*x + x^2*exp(x) + 1/2*x'^2*exp(x) - x''"),
    ],
    ids=["exp-in-lagrangian", "exp-in-sigma"],
)
def test_cli_accepts_exp_in_lagrangian_or_sigma(tmp_path, capsys, lagrangian, sigma, equation):
    # The expanded residuals keep any exp that comes from L or sigma.
    m = tmp_path / "m.model"
    m.write_text(_mutate(lagrangian=lagrangian, sigma=sigma), encoding="utf-8")
    assert main(["derive", str(m)]) == 0
    assert f"[x]  {equation} = 0" in capsys.readouterr().out
    assert main(["verify", str(m)]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]
    argv = ["simulate", str(m), "--t1", "0.5", "--output", str(tmp_path / "o.csv")]
    assert main(argv) == 0


def test_cli_simulate_missing_initial_data(tmp_path, capsys):
    m = tmp_path / "m.model"
    m.write_text(_mutate(), encoding="utf-8")
    # Strip the initial line entirely.
    text = "\n".join(
        l for l in m.read_text().splitlines() if not l.strip().startswith("initial")
    )
    m.write_text(text)
    assert main(["simulate", str(m), "--output", str(tmp_path / "o.csv")]) == 2


def test_cli_bell_output(capsys):
    assert main(["bell", "--s", "3", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "B[3,2] = 3*q''^i*q'^j" in out or "B[3,2] = 3*q'^i*q''^j" in out
    assert "phi_ij" in out


def test_cli_bell_rejects_bad_orders(capsys):
    assert main(["bell", "--s", "9"]) == 2
    assert main(["bell", "--s", "3", "--m", "5"]) == 2


def test_cli_byte_identical_reports():
    cmd = [sys.executable, "-m", "lcmech.cli", "verify", str(bundled_path("chiral_lc")), "--seed", "42"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


GOLDEN = Path(__file__).parent / "golden"
FORMATS = (("text", "txt"), ("latex", "tex"))


def _simulate_argv(model):
    """`simulate` of a bundled model writing MODEL.simulate.csv, a path
    relative to the working directory so that stdout names it the same way
    wherever the test runs."""
    csv = f"{model}.simulate.csv"
    return ["simulate", str(bundled_path(model)), "--t1", "0.5", "--dt", "0.01", "--output", csv]


def _assert_golden_csv(directory, argv):
    csv = argv[-1]
    assert (directory / csv).read_bytes() == (GOLDEN / csv).read_bytes(), csv


# chiral_lc with the conformal factor left abstract, so that the phi and
# sigma symbols are sampled; written by ``_abstract_chiral_lc``.
ABSTRACT_CHIRAL_LC = "chiral_lc_abstract.model"


def _abstract_chiral_lc(directory) -> str:
    text = bundled_path("chiral_lc").read_text(encoding="utf-8")
    model = directory / ABSTRACT_CHIRAL_LC
    model.write_text(text.replace("sigma = 2*atan2(y, x)", "sigma = abstract"), encoding="utf-8")
    assert "sigma = abstract" in model.read_text(encoding="utf-8")
    return str(model)


# The order-5, dim-3 model of ROADMAP.md with a quadratic and an abstract sigma.
TEST_MODELS = Path(__file__).parent / "models"
HEADLINE = ("headline_quadratic", "headline_abstract")

GOLDEN_CASES = (
    [
        (f"{m}.{form}.{ext}", ["derive", str(bundled_path(m)), "--form", form, "--format", fmt], 0)
        for m in BUNDLED
        for form in ("classical", "expanded", "compact")
        for fmt, ext in FORMATS
    ]
    + [(f"{m}.verify.json", ["verify", str(bundled_path(m)), "--seed", "42"], 0) for m in BUNDLED]
    + [
        (
            f"{m}.verify-fault.json",
            ["verify", str(bundled_path(m)), "--seed", "42", "--inject-fault"],
            1,
        )
        for m in ("conformal_toy_1d", "chiral_lc")
    ]
    + [
        (
            "chiral_lc_abstract.verify-fault.json",
            ["verify", ABSTRACT_CHIRAL_LC, "--seed", "7", "--inject-fault"],
            1,
        )
    ]
    + [
        (f"bell.s{s}.{ext}", ["bell", "--s", str(s), "--format", fmt], 0)
        for s in range(1, 7)
        for fmt, ext in FORMATS
    ]
    + [(f"{m}.simulate.txt", _simulate_argv(m), 0) for m in BUNDLED]
    + [
        (f"{m}.expanded.{ext}", ["derive", str(TEST_MODELS / f"{m}.model"), "--format", fmt], 0)
        for m in HEADLINE
        for fmt, ext in FORMATS
    ]
    + [
        (
            "headline_quadratic.verify.json",
            ["verify", str(TEST_MODELS / "headline_quadratic.model"), "--seed", "42"],
            0,
        )
    ]
)


@pytest.mark.parametrize("name, argv, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_output_matches_golden_files(capsys, monkeypatch, tmp_path, name, argv, code):
    # tests/golden/MODEL.FORM.EXT holds the stdout of
    # `lcmech derive src/lcmech/models/MODEL.model --form FORM --format ...`,
    # MODEL.verify.json that of `lcmech verify ... --seed 42`,
    # MODEL.verify-fault.json that of `lcmech verify ... --seed 42 --inject-fault`
    # (exit code 1), chiral_lc_abstract.verify-fault.json that of
    # `lcmech verify chiral_lc_abstract.model --seed 7 --inject-fault`,
    # bell.sS.EXT that of `lcmech bell --s S --format ...`,
    # MODEL.simulate.txt and MODEL.simulate.csv the stdout and the CSV of
    # `lcmech simulate ... --t1 0.5 --dt 0.01 --output MODEL.simulate.csv`,
    # run in the directory that receives the CSV, and headline_*.expanded.EXT
    # and headline_quadratic.verify.json those of derive and verify --seed 42
    # on tests/models/headline_*.model.
    monkeypatch.chdir(tmp_path)
    if ABSTRACT_CHIRAL_LC in argv:
        _abstract_chiral_lc(tmp_path)
    assert main(argv) == code
    expected = (GOLDEN / name).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected
    if argv[0] == "simulate":
        _assert_golden_csv(tmp_path, argv)


def test_cli_runs_without_numpy(tmp_path):
    # lcmech needs nothing outside the standard library: with numpy made
    # unimportable, derive, verify and simulate still match the goldens.
    import lcmech

    script = "import sys; sys.modules['numpy'] = None; from lcmech.cli import main; sys.exit(main())"
    path = [str(Path(lcmech.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    model = str(bundled_path("chiral_lc"))
    cases = [
        ("chiral_lc.expanded.txt", ["derive", model]),
        ("chiral_lc.verify.json", ["verify", model, "--seed", "42"]),
        ("chiral_lc.simulate.txt", _simulate_argv("chiral_lc")),
    ]
    for name, argv in cases:
        run = subprocess.run(
            [sys.executable, "-c", script, *argv], cwd=tmp_path, env=env, capture_output=True
        )
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout == (GOLDEN / name).read_bytes(), name
    _assert_golden_csv(tmp_path, cases[-1][1])


@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "0"],
        ["--dt", "-0.01"],
        ["--dt", "nan"],
        ["--t1", "inf"],
        ["--t1", "0"],
        ["--t1", "-1"],
        ["--t1", "0.0015", "--dt", "0.001"],
        ["--initial", "x1"],
        ["--initial", "x: abc"],
        # Labels follow the expression grammar: x(k) with a whole k, or quotes.
        ["--initial", "x(a): 1"],
        ["--initial", "x(): 1"],
        ["--initial", "x(-1): 5"],
        ["--initial", "x: 2, x(-2): 9"],
        ["--initial", "x(1)': 7"],
        ["--initial", "x'''': 1"],
        # One jet twice, under one spelling or two, in either order.
        ["--initial", "x: 1, x: 2, x': 0"],
        ["--initial", "x: 1, x': 0, x(1): 5"],
        ["--initial", "x(1): 5, x: 1, x': 0"],
        # Jets at or above the effective order (2 here) are not part of the state.
        ["--initial", "x'': 5"],
        ["--initial", "x'': 5, x(3): 7"],
        ["--initial", "x: 1, x': 0, x'': -1"],
    ],
)
def test_cli_simulate_rejects_bad_span_and_initial_data(tmp_path, capsys, flags):
    out = tmp_path / "o.csv"
    model = str(bundled_path("harmonic_oscillator"))
    assert main(["simulate", model, "--output", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def _oscillator_with(tmp_path, old, new):
    """A copy of harmonic_oscillator.model with ``old`` replaced by ``new``,
    and the number of the last line of ``new`` in it."""
    text = bundled_path("harmonic_oscillator").read_text(encoding="utf-8")
    assert old in text
    model = tmp_path / "m.model"
    model.write_text(text.replace(old, new), encoding="utf-8")
    line = 1 + text[: text.index(old)].count("\n") + new.count("\n")
    return str(model), line


@pytest.mark.parametrize(
    "old, new",
    [
        ("initial = x: 1, x': 0", "initial = x: 1, x': 0, x(1): 5"),
        ("initial = x: 1, x': 0", "initial = x: 1, x': 0, x: 2"),
        ("initial = x: 1, x': 0", "initial = x: 1, x(-1): 0"),
        ("sigma = 0", "sigma = 0\nparameters = m: 1, m: 2"),
        ("initial = x: 1, x': 0", "initial = x: 1, x': 0, x'': -1"),
    ],
    ids=["same-jet", "same-label", "bad-label", "same-parameter", "unused-jet"],
)
def test_cli_model_file_value_errors_carry_their_line(tmp_path, capsys, old, new):
    model, line = _oscillator_with(tmp_path, old, new)
    out = tmp_path / "o.csv"
    assert main(["simulate", model, "--output", str(out)]) == 2
    _assert_value_error(capsys, f" (line {line})\n")
    assert not out.exists()


def test_cli_simulate_names_unused_initial_data(tmp_path, capsys):
    # Labels from --initial carry no line.
    out = tmp_path / "o.csv"
    model = str(bundled_path("harmonic_oscillator"))
    assert main(["simulate", model, "--output", str(out), "--initial", "x'': 5, x(3): 7"]) == 2
    _assert_value_error(
        capsys,
        "initial data for x'', x''' is not used: the state holds the jets below"
        " the effective order 2\n",
    )
    assert not out.exists()


@pytest.mark.parametrize("spelling", ["x'", "x(1)"])
def test_cli_simulate_initial_overrides_the_block_however_spelled(tmp_path, capsys, spelling):
    # The block of harmonic_oscillator.model says x: 1, x': 0.
    out = tmp_path / "o.csv"
    model = str(bundled_path("harmonic_oscillator"))
    argv = ["simulate", model, "--t1", "0.01", "--dt", "0.01", "--output", str(out)]
    assert main([*argv, "--initial", f"{spelling}: 0.5"]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[1] == "0.0,1.0,0.5,0.0"


@pytest.mark.parametrize("command", ["derive", "simulate", "bell"])
@pytest.mark.parametrize("flag", ["--seed", "--trials", "--tol"])
def test_cli_verify_flags_belong_to_verify_only(capsys, command, flag):
    # The other commands draw nothing at random, so they take no seed.
    target = ["--s", "2"] if command == "bell" else [str(bundled_path("harmonic_oscillator"))]
    with pytest.raises(SystemExit) as exit_:
        main([command, *target, flag, "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_simulate_blow_up_is_a_numerical_failure(tmp_path, capsys):
    # x'' = x'^2 / 2 from x'(0) = 1 blows up at t = 2.
    model = str(bundled_path("conformal_toy_1d"))
    assert main(["simulate", model, "--t1", "3", "--output", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


def test_cli_simulate_non_finite_state_is_a_numerical_failure(tmp_path, capsys):
    # The first step overflows the state to inf without the field raising.
    model = str(bundled_path("harmonic_oscillator"))
    flags = ["--t1", "4", "--dt", "1", "--initial", "x: 1e308, x': 1e308"]
    assert main(["simulate", model, *flags, "--output", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "numerical failure: non-finite state at t=0\n"


def test_cli_verify_report_is_independent_of_hash_seed(tmp_path):
    # verify draws its sample values in set-iteration order, and the factors
    # of a normal form are a set: the bytes printed must not follow either.
    cases = (
        (["verify", _abstract_chiral_lc(tmp_path), "--seed", "7", "--inject-fault"], 1),
        (["derive", str(TEST_MODELS / "headline_abstract.model")], 0),
        (["derive", str(bundled_path("chiral_lc")), "--format", "latex"], 0),
    )
    for argv, code in cases:
        cmd = [sys.executable, "-m", "lcmech.cli", *argv]
        runs = [
            subprocess.run(cmd, capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")
        ]
        assert [r.returncode for r in runs] == [code, code], argv
        assert runs[0].stdout == runs[1].stdout, argv


def test_cli_main_calls_in_one_process_are_independent(capsys, monkeypatch, tmp_path):
    # The parser is built once per process; each call must still print what
    # it prints alone: its golden, or for a bad --form the usage error of a
    # fresh process.
    model = str(bundled_path("chiral_lc"))
    bad = ["derive", model, "--form", "bogus"]
    alone = subprocess.run([sys.executable, "-m", "lcmech.cli", *bad], capture_output=True)
    assert alone.returncode == 2
    monkeypatch.chdir(tmp_path)
    calls = (
        ("chiral_lc.compact.tex", ["derive", model, "--form", "compact", "--format", "latex"]),
        (None, bad),
        ("chiral_lc.verify.json", ["verify", model, "--seed", "42"]),
        ("chiral_lc.simulate.txt", _simulate_argv("chiral_lc")),
    )
    for name, argv in calls:
        if name is None:
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            out = capsys.readouterr()
            assert (out.out, out.err.encode("utf-8")) == ("", alone.stderr)
            continue
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
    _assert_golden_csv(tmp_path, _simulate_argv("chiral_lc"))


def _long_model(tmp_path, name, body):
    model = tmp_path / f"{name}.model"
    model.write_text(
        f"dim = 1\norder = 1\ncoordinates = x\nlagrangian = 1/2*x'^2 + {body}\nsigma = x\n",
        encoding="utf-8",
    )
    return str(model)


def _long_sum_model(tmp_path, terms):
    body = " + ".join(f"{k}*x^{k % 7 + 1}" for k in range(1, terms + 1))
    return _long_model(tmp_path, f"sum{terms}", body)


def test_cli_derive_long_sum(tmp_path, capsys):
    assert main(["derive", _long_sum_model(tmp_path, 600)]) == 0
    assert capsys.readouterr().out.startswith("# expanded equations")


def test_cli_derive_long_sums_in_one_process(tmp_path, capsys):
    # A deep sum once memoised must not make a later, longer one fail.
    for terms in (200, 300):
        assert main(["derive", _long_sum_model(tmp_path, terms)]) == 0, terms
    assert capsys.readouterr().err == ""


def test_cli_derive_long_product(tmp_path, capsys):
    assert main(["derive", _long_model(tmp_path, "product300", "*".join(["x"] * 300))]) == 0
    assert capsys.readouterr().out.startswith("# expanded equations")


def _assert_value_error(capsys, end="\n"):
    err = capsys.readouterr().err
    assert err.startswith("error: E_VALUE: ") and err.count("\n") == 1, err
    assert err.endswith(end), err


def test_cli_verify_rejects_zero_trials(capsys):
    assert main(["verify", str(bundled_path("free_particle")), "--trials", "0"]) == 2
    _assert_value_error(capsys)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_verify_rejects_bad_tolerance(capsys, tol):
    # A nan or inf tolerance would pass the negative control.
    argv = ["verify", str(bundled_path("chiral_lc")), "--seed", "42", "--inject-fault"]
    assert main([*argv, "--tol", tol]) == 2
    _assert_value_error(capsys)


@pytest.mark.parametrize("command", ["derive", "verify", "simulate"])
def test_cli_rejects_order_above_cap(tmp_path, capsys, command):
    model = tmp_path / "m.model"
    model.write_text(_mutate(order="7"), encoding="utf-8")
    out = tmp_path / "o.csv"
    flags = ["--output", str(out)] if command == "simulate" else []
    assert main([command, str(model), *flags]) == 2
    _assert_value_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["derive", "verify", "simulate"])
def test_cli_rejects_too_deep_nesting(tmp_path, capsys, command):
    # x*(x*(...+1)+1) 300 levels deep exceeds the recursion limit: an input
    # error, not a traceback with exit code 1.
    body = "1"
    for _ in range(300):
        body = f"x*({body}+1)"
    model = tmp_path / "deep.model"
    model.write_text(_mutate(lagrangian=f"1/2*x'^2 + {body}"), encoding="utf-8")
    out = tmp_path / "o.csv"
    flags = ["--output", str(out)] if command == "simulate" else []
    assert main([command, str(model), *flags]) == 2
    _assert_value_error(capsys)
    assert not out.exists()
