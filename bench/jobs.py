"""Seeded job lists for the three workloads.

The shape of every list (which job classes, how many, in which order, which
output format, which span) comes from a fixed per-workload list seed, so the
job mix and the order in which the process-wide memo in lcmech fills are the
same in every run.  The run's ``--seed`` draws the values inside that shape:
Lagrangian and conformal-factor coefficients, ``verify --seed`` values and
initial data.  A job is a CLI argument vector plus what the checks in
``check.py`` need to know about it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

COORDS = ("x", "y", "z")
BUNDLED = (
    "free_particle",
    "harmonic_oscillator",
    "conformal_toy_1d",
    "chiral_classical",
    "chiral_lc",
)

# (order, dim) -> jobs per round.  Weighted toward orders 2 and 3 as in the
# paper; (5, 3) is the ROADMAP headline case and appears once.
DERIVE_CLASSES = {
    (1, 1): 3, (1, 2): 3, (1, 3): 2,
    (2, 1): 6, (2, 2): 8, (2, 3): 6,
    (3, 1): 5, (3, 2): 7, (3, 3): 5,
    (4, 1): 3, (4, 2): 3, (4, 3): 2,
    (5, 1): 2, (5, 2): 1, (5, 3): 1,
}
VERIFY_CLASSES = {
    (1, 1): 3, (1, 2): 3,
    (2, 1): 4, (2, 2): 5,
    (3, 1): 3, (3, 2): 4,
    (4, 1): 2, (4, 2): 2,
}
VERIFY_FAULT_SHARE = 0.25
SIGMA_KINDS = ("poly", "poly", "polar", "zero", "abstract", "abstract")
# Sigma kinds left out from some order on, so that no single job outweighs
# the rest of its round: derive at order 5, dim 3 takes 12 s with an
# abstract sigma against 2-3 s with a quadratic one, and verify at order 4,
# dim 2 takes 3 s with the polar angle.
DERIVE_HEAVY = {"abstract": 5}
VERIFY_HEAVY = {"abstract": 5, "polar": 4}
# Bundled model -> (shortest, longest) span t1; each round runs every model
# at SIMULATE_SPANS_PER_MODEL spans spaced geometrically between the two, so
# that job times spread evenly instead of bunching at a few values, which
# would leave the job-time percentiles in gaps between classes.  Steps are
# t1/dt with the model's own dt: 1e-3 for the one-dimensional models, 1e-4
# for the planar ones.
SIMULATE_SPANS = {
    "free_particle": (0.2, 2.0),
    "harmonic_oscillator": (0.2, 3.0),
    "conformal_toy_1d": (0.2, 1.0),
    "chiral_classical": (0.02, 0.25),
    "chiral_lc": (0.02, 0.25),
}
SIMULATE_SPANS_PER_MODEL = 8
SIMULATE_DT = {
    "free_particle": 1e-3,
    "harmonic_oscillator": 1e-3,
    "conformal_toy_1d": 1e-3,
    "chiral_classical": 1e-4,
    "chiral_lc": 1e-4,
}


@dataclass
class Model:
    """A polynomial Lagrangian and a conformal factor, kept as monomials.

    ``terms`` holds (coefficient, ((coordinate, jet order, exponent), ...)),
    coordinates 0-based.  ``sigma`` is ("poly", [(coefficient,
    ((coordinate, exponent), ...)), ...]), ("polar", k) for k*atan2(y, x),
    ("zero",) or ("abstract",).
    """

    dim: int
    order: int
    terms: list
    sigma: tuple
    name: str = ""


@dataclass
class Job:
    kind: str
    argv: list
    model: Model | None = None
    bundled: str = ""
    fault: bool = False
    initial: dict = field(default_factory=dict)
    t1: float = 0.0
    csv: str = ""


# Coefficients are distinct primes with random signs, so that no choice of
# seed makes terms cancel: the symbolic work, and the output size, is the
# same for every seed.
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _coeffs(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(p * rng.choice((1, -1))) for p in rng.sample(PRIMES, n)]


def _fmt_num(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _jet_text(i: int, s: int) -> str:
    name = COORDS[i]
    if s == 0:
        return name
    return name + ("'" * s if s <= 3 else f"({s})")


def _factor_text(base: str, e: int) -> str:
    return base if e == 1 else f"{base}^{e}"


def model_text(m: Model) -> str:
    parts = []
    for c, factors in m.terms:
        body = "*".join(_factor_text(_jet_text(i, s), e) for i, s, e in factors)
        parts.append(f"({_fmt_num(c)})*{body}")
    kind = m.sigma[0]
    if kind == "poly":
        sigma = " + ".join(
            f"({_fmt_num(c)})*" + "*".join(_factor_text(COORDS[i], e) for i, e in f)
            for c, f in m.sigma[1]
        )
    elif kind == "polar":
        sigma = f"({_fmt_num(m.sigma[1])})*atan2(y, x)"
    elif kind == "zero":
        sigma = "0"
    else:
        sigma = "abstract"
    return (
        f"# generated benchmark model {m.name}\n"
        f"dim = {m.dim}\norder = {m.order}\n"
        f"coordinates = {', '.join(COORDS[: m.dim])}\n"
        f"lagrangian = {' + '.join(parts)}\n"
        f"sigma = {sigma}\n"
    )


def _shape(rng: random.Random, order: int, dim: int, heavy: dict) -> tuple:
    """Monomial exponents and the sigma kind: everything but the coefficients.

    ``heavy`` maps a sigma kind to the lowest order at which it is left out.
    """
    kinetic = tuple(sorted(rng.sample(range(dim), rng.randint(1, dim))))
    monomials = [((i, order, 2),) for i in kinetic]
    for _ in range(rng.randint(1, 2)):
        factors = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.randrange(dim), rng.randint(0, max(0, order - 1)))
            factors[key] = factors.get(key, 0) + 1
        mono = tuple(sorted((i, s, e) for (i, s), e in factors.items()))
        if mono not in monomials:
            monomials.append(mono)
    kinds = [
        k for k in SIGMA_KINDS if (k != "polar" or dim == 2) and order < heavy.get(k, 99)
    ]
    kind = rng.choice(kinds)
    sigma_shape = ()
    if kind == "poly":
        monos = set()
        for _ in range(rng.randint(1, 3)):
            f = {}
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(dim)
                f[i] = f.get(i, 0) + 1
            monos.add(tuple(sorted(f.items())))
        sigma_shape = tuple(sorted(monos))
    return tuple(monomials), kind, sigma_shape


def _model(shape, order, dim, vals: random.Random, name: str) -> Model:
    monomials, kind, sigma_shape = shape
    coeffs = _coeffs(vals, len(monomials) + max(1, len(sigma_shape)))
    terms = list(zip(coeffs, monomials))
    if kind == "poly":
        sigma = ("poly", list(zip(coeffs[len(monomials):], sigma_shape)))
    elif kind == "polar":
        sigma = ("polar", coeffs[-1] / vals.choice((1, 2)))
    else:
        sigma = (kind,)
    return Model(dim=dim, order=order, terms=terms, sigma=sigma, name=name)


def _distinct_shapes(rng, classes, heavy):
    seen = set()
    out = []
    for (order, dim), count in classes.items():
        made = 0
        while made < count:
            shape = _shape(rng, order, dim, heavy)
            if (order, dim, shape) in seen:
                continue
            seen.add((order, dim, shape))
            out.append((order, dim, shape))
            made += 1
    rng.shuffle(out)
    return out


def derive_jobs(seed: int, rundir: Path) -> list[Job]:
    rng = random.Random("derive-sweep list")
    vals = random.Random(f"derive-sweep values {seed}")
    jobs = []
    for k, (order, dim, shape) in enumerate(_distinct_shapes(rng, DERIVE_CLASSES, DERIVE_HEAVY)):
        fmt = rng.choice(("text", "latex"))
        m = _model(shape, order, dim, vals, f"derive-{k:03d}")
        path = rundir / "models" / f"{m.name}.model"
        path.write_text(model_text(m), encoding="utf-8")
        argv = ["derive", str(path), "--form", "expanded", "--format", fmt]
        jobs.append(Job("derive", argv, model=m))
    return jobs


def verify_jobs(seed: int, rundir: Path, models_dir: Path) -> list[Job]:
    rng = random.Random("verify-pit list")
    vals = random.Random(f"verify-pit values {seed}")
    entries = [("seeded", s) for s in _distinct_shapes(rng, VERIFY_CLASSES, VERIFY_HEAVY)]
    # Each bundled model runs twice; the two with a non-zero conformal factor
    # also serve as negative controls.
    for name in BUNDLED:
        entries.append(("bundled", (name, False)))
        entries.append(("bundled", (name, name in ("conformal_toy_1d", "chiral_lc"))))
    rng.shuffle(entries)
    jobs = []
    for k, (source, spec) in enumerate(entries):
        if source == "seeded":
            order, dim, shape = spec
            m = _model(shape, order, dim, vals, f"verify-{k:03d}")
            path = rundir / "models" / f"{m.name}.model"
            path.write_text(model_text(m), encoding="utf-8")
            fault = m.sigma[0] != "zero" and rng.random() < VERIFY_FAULT_SHARE
            job = Job("verify", [], model=m, fault=fault)
        else:
            name, fault = spec
            path = models_dir / f"{name}.model"
            job = Job("verify", [], bundled=name, fault=fault)
        job.argv = ["verify", str(path), "--seed", str(vals.randrange(1, 10**6))]
        if job.fault:
            job.argv.append("--inject-fault")
        jobs.append(job)
    return jobs


def _initial(name: str, vals: random.Random) -> dict:
    def u(lo, hi):
        return round(vals.uniform(lo, hi), 4)

    if name in ("free_particle", "harmonic_oscillator"):
        return {"x": u(-2, 2), "x'": u(-2, 2)}
    if name == "conformal_toy_1d":
        # x'' = x'^2/2 blows up at t = 2/x'(0); |x'(0)| <= 1 and t1 <= 1
        # keep the run at most half way there.
        return {"x": u(-2, 2), "x'": u(-1, 1)}
    angle = vals.uniform(0, 2 * math.pi)
    radius = vals.uniform(2.5, 3.5)
    return {
        "x": round(radius * math.cos(angle), 4),
        "y": round(radius * math.sin(angle), 4),
        "x'": u(-1, 1), "y'": u(-1, 1),
        "x''": u(-1, 1), "y''": u(-1, 1),
    }


def simulate_jobs(seed: int, rundir: Path, models_dir: Path) -> list[Job]:
    rng = random.Random("simulate-rk4 list")
    vals = random.Random(f"simulate-rk4 values {seed}")
    entries = []
    for name, (lo, hi) in SIMULATE_SPANS.items():
        dt, n = SIMULATE_DT[name], SIMULATE_SPANS_PER_MODEL
        for k in range(n):
            steps = round(lo * (hi / lo) ** (k / (n - 1)) / dt)
            entries.append((name, round(steps * dt, 6)))
    rng.shuffle(entries)
    jobs = []
    for k, (name, t1) in enumerate(entries):
        initial = _initial(name, vals)
        csv = rundir / "csv" / f"simulate-{k:03d}.csv"
        argv = [
            "simulate", str(models_dir / f"{name}.model"),
            "--t1", repr(t1),
            "--initial", ", ".join(f"{key}: {v!r}" for key, v in initial.items()),
            "--output", str(csv),
        ]
        jobs.append(Job("simulate", argv, bundled=name, initial=initial, t1=t1, csv=str(csv)))
    return jobs


WORKLOADS = ("derive-sweep", "verify-pit", "simulate-rk4")


def build(workload: str, seed: int, root: Path, rundir: Path) -> list[Job]:
    """Write the workload's model files under ``rundir`` and return its jobs."""
    (rundir / "models").mkdir(parents=True, exist_ok=True)
    (rundir / "csv").mkdir(parents=True, exist_ok=True)
    models_dir = root / "src" / "lcmech" / "models"
    if workload == "derive-sweep":
        return derive_jobs(seed, rundir)
    if workload == "verify-pit":
        return verify_jobs(seed, rundir, models_dir)
    return simulate_jobs(seed, rundir, models_dir)
