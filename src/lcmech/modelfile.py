"""Flat key-value model files describing a Lagrangian system.

Format::

    # comment
    dim = 2
    order = 2
    coordinates = x, y
    lagrangian = -lam/2*(x'*y'' - y'*x'') + m/2*(x'^2 + y'^2)
    sigma = 2*atan2(y, x)          # or: abstract
    parameters = lam: 0.5, m: 1
    simulation {
      t0 = 0
      t1 = 1
      dt = 0.0001
      initial = x: 3, y: 0, x': 0, y': 1, x'': -1, y'': 0
    }

Each invariant violation carries a distinct error code so callers (and the
CLI's exit paths) can tell them apart.
"""

from __future__ import annotations

from .calculus import ConformalFactor
from .combinatorics import MAX_DERIVATIVE_ORDER
from .nodes import Jet, JetSpace, jets_in
from .parser import ParseError, parse_expression
from .euler_lagrange import LagrangianModel

E_SYNTAX = "E_SYNTAX"
E_MISSING_KEY = "E_MISSING_KEY"
E_VALUE = "E_VALUE"
E_COORDS_LEN = "E_COORDS_LEN"
E_LAGRANGIAN_ORDER = "E_LAGRANGIAN_ORDER"
E_SIGMA_JETS = "E_SIGMA_JETS"


class ModelFileError(Exception):
    def __init__(self, code: str, message: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{code}: {message}{where}")
        self.code = code
        self.line = line


class SimulationBlock:
    """The ``simulation`` block; ``initial_line`` is the line of
    ``initial =``, for errors."""

    __slots__ = ("t0", "t1", "dt", "initial", "initial_line")

    def __init__(self, t0: float, t1: float, dt: float, initial: dict, initial_line: int | None):
        self.t0, self.t1, self.dt = t0, t1, dt
        self.initial, self.initial_line = initial, initial_line


class ModelFile:
    __slots__ = ("model", "coordinates", "simulation", "name")

    def __init__(
        self,
        model: LagrangianModel,
        coordinates: list[str],
        simulation: SimulationBlock | None,
        name: str = "",
    ):
        self.model, self.coordinates = model, coordinates
        self.simulation, self.name = simulation, name


def _split_pairs(value: str, line: int | None) -> dict[str, str]:
    out: dict[str, str] = {}
    if not value.strip():
        return out
    for chunk in value.split(","):
        if ":" not in chunk:
            raise ModelFileError(E_VALUE, f"expected 'name: value' in {chunk!r}", line)
        key, val = chunk.split(":", 1)
        key = key.strip()
        if key in out:
            raise ModelFileError(E_VALUE, f"{key!r} is given twice", line)
        out[key] = val.strip()
    return out


def parse_initial(value: str, line: int | None = None) -> dict[str, float]:
    """Initial data written as ``x: 1, x': 0``, in a simulation block or
    on the command line."""
    initial: dict[str, float] = {}
    for key, val in _split_pairs(value, line).items():
        try:
            initial[key] = float(val)
        except ValueError:
            raise ModelFileError(E_VALUE, f"initial value {key!r} is not a number", line)
    return initial


def parse_model_text(text: str, name: str = "") -> ModelFile:
    entries: dict[str, tuple[str, int]] = {}
    sim_entries: dict[str, tuple[str, int]] = {}
    in_sim = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "simulation {":
            if in_sim:
                raise ModelFileError(E_SYNTAX, "nested simulation block", lineno)
            in_sim = True
            continue
        if line == "}":
            if not in_sim:
                raise ModelFileError(E_SYNTAX, "unmatched '}'", lineno)
            in_sim = False
            continue
        if "=" not in line:
            raise ModelFileError(E_SYNTAX, f"expected 'key = value', got {line!r}", lineno)
        key, value = line.split("=", 1)
        target = sim_entries if in_sim else entries
        target[key.strip()] = (value.strip(), lineno)
    if in_sim:
        raise ModelFileError(E_SYNTAX, "unterminated simulation block")

    def require(key: str) -> tuple[str, int]:
        if key not in entries:
            raise ModelFileError(E_MISSING_KEY, f"missing required key {key!r}")
        return entries[key]

    def as_int(key: str) -> int:
        value, line = require(key)
        try:
            return int(value)
        except ValueError:
            raise ModelFileError(E_VALUE, f"{key} must be an integer, got {value!r}", line)

    dim = as_int("dim")
    order = as_int("order")
    if dim < 1 or order < 1:
        raise ModelFileError(E_VALUE, "dim and order must be positive")
    if order > MAX_DERIVATIVE_ORDER:
        raise ModelFileError(E_VALUE, f"order must be at most {MAX_DERIVATIVE_ORDER}, not {order}")
    coords_value, coords_line = require("coordinates")
    coordinates = [c.strip() for c in coords_value.split(",") if c.strip()]
    if len(coordinates) != dim:
        raise ModelFileError(
            E_COORDS_LEN,
            f"coordinates lists {len(coordinates)} names but dim = {dim}",
            coords_line,
        )
    space = JetSpace(dim=dim, order=order)

    params: dict[str, float] = {}
    if "parameters" in entries:
        value, line = entries["parameters"]
        for key, val in _split_pairs(value, line).items():
            try:
                params[key] = float(val)
            except ValueError:
                raise ModelFileError(E_VALUE, f"parameter {key!r} is not a number", line)

    lag_value, lag_line = require("lagrangian")
    try:
        lagrangian = parse_expression(lag_value, space, coordinates)
    except ParseError as err:
        raise ModelFileError(E_SYNTAX, f"lagrangian: {err}", lag_line)
    bad = [s for (_, s) in jets_in(lagrangian) if s > order]
    if bad:
        raise ModelFileError(
            E_LAGRANGIAN_ORDER,
            f"lagrangian contains derivative order {max(bad)} > order = {order}",
            lag_line,
        )

    sigma_value, sigma_line = require("sigma")
    if sigma_value == "abstract":
        sigma = ConformalFactor(None)
    else:
        try:
            sigma_expr = parse_expression(sigma_value, space, coordinates)
        except ParseError as err:
            raise ModelFileError(E_SYNTAX, f"sigma: {err}", sigma_line)
        if any(s != 0 for (_, s) in jets_in(sigma_expr)):
            raise ModelFileError(
                E_SIGMA_JETS,
                "sigma may depend on the base coordinates only",
                sigma_line,
            )
        sigma = ConformalFactor(sigma_expr)

    simulation = None
    if sim_entries:
        def sim_float(key: str) -> float:
            if key not in sim_entries:
                raise ModelFileError(E_MISSING_KEY, f"simulation block missing {key!r}")
            value, line = sim_entries[key]
            try:
                return float(value)
            except ValueError:
                raise ModelFileError(E_VALUE, f"simulation {key} is not a number", line)

        initial: dict[str, float] = {}
        line = None
        if "initial" in sim_entries:
            value, line = sim_entries["initial"]
            initial = parse_initial(value, line)
            # Check the labels here, where their line is known.
            initial_jets(initial, coordinates, space.max_jet, line)
        simulation = SimulationBlock(
            t0=sim_float("t0"),
            t1=sim_float("t1"),
            dt=sim_float("dt"),
            initial=initial,
            initial_line=line,
        )

    model = LagrangianModel(
        space=space,
        lagrangian=lagrangian,
        sigma=sigma,
        parameters=params,
        coordinate_names=tuple(coordinates),
    )
    return ModelFile(model=model, coordinates=coordinates, simulation=simulation, name=name)


def load_model(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    return parse_model_text(text, name=os.path.basename(str(path)))


def jet_key(label: str, coordinates: list[str], max_jet: int, line=None) -> tuple[int, int]:
    """Resolve an initial-value label like x'' or x(4) to an (index, order)
    pair: the label must parse, in the expression grammar, to one jet of a
    coordinate of order at most max_jet."""
    space = JetSpace(len(coordinates), 1, max_jet)
    try:
        jet = parse_expression(label, space, coordinates)
    except ParseError as err:
        raise ModelFileError(E_VALUE, f"bad initial data label {label!r}: {err}", line)
    if not isinstance(jet, Jet):
        raise ModelFileError(E_VALUE, f"initial label {label!r} is not a coordinate jet", line)
    return jet.index, jet.order


def initial_jets(initial: dict, coordinates: list[str], max_jet: int, line=None) -> dict:
    """Initial data keyed by (index, order), each label resolved by ``jet_key``;
    two labels that name one jet, such as x' and x(1), are an error."""
    out: dict[tuple[int, int], float] = {}
    for label, value in initial.items():
        key = jet_key(label, coordinates, max_jet, line)
        if key in out:
            raise ModelFileError(E_VALUE, f"initial label {label!r} names a jet given before", line)
        out[key] = value
    return out
