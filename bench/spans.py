"""Span recorder for the traced run, kept entirely outside lcmech.

``Tracer.install`` wraps lcmech's public functions and replaces each one
under every name that any ``lcmech`` module bound it to, so calls made
between modules go through the wrapper.  A recursive call (``partial``
calls itself) passes straight through and is counted once, at its
outermost entry.  Three hot methods of ``ExplicitODE`` are aggregated per
parent span instead of being kept one by one.

Node counts are taken by walking the argument and result trees after the
span has closed; the time spent counting is removed from every open span,
so it shows only in the tracing overhead.  Spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute): the public functions whose spans the metrics use.
FUNCTIONS = (
    ("lcmech.cli", "main"),
    ("lcmech.modelfile", "load_model"),
    ("lcmech.calculus", "partial"),
    ("lcmech.calculus", "total_derivative"),
    ("lcmech.normalize", "normalize"),
    ("lcmech.normalize", "is_zero"),
    ("lcmech.combinatorics", "exp_derivative_factor"),
    ("lcmech.combinatorics", "exp_derivative_factor_oracle"),
    ("lcmech.euler_lagrange", "classical_el"),
    ("lcmech.euler_lagrange", "conformal_rhs"),
    ("lcmech.euler_lagrange", "conformal_el_compact"),
    ("lcmech.evaluate", "compile_expr"),
    ("lcmech.evaluate", "equivalent"),
    ("lcmech.dynamics", "to_explicit_ode"),
    ("lcmech.dynamics", "integrate"),
    ("lcmech.printing", "to_text"),
    ("lcmech.printing", "to_latex"),
)
# (module, class, method, hot)
METHODS = (
    ("lcmech.dynamics", "ExplicitODE", "rhs", True),
    ("lcmech.dynamics", "ExplicitODE", "top_derivatives", True),
    ("lcmech.dynamics", "ExplicitODE", "residual_at", True),
    ("lcmech.dynamics", "Trajectory", "write_csv", False),
)


def tree_size(root) -> int:
    """Number of nodes of an expression tree, shared subtrees counted at
    every occurrence, computed in time proportional to the distinct nodes."""
    sizes: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in sizes:
            continue
        children = node.children()
        if expanded or not children:
            sizes[key] = 1 + sum(sizes[id(c)] for c in children)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children if id(c) not in sizes)
    return sizes[id(root)]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, inclusive, self]
        self.hot = defaultdict(lambda: [0, 0.0])  # (name, parent name) -> [calls, inclusive]
        self.counts = defaultdict(float)
        self._stack = []  # [span index or -1, name, excluded at start, child time]
        self._active = defaultdict(int)
        self._excluded = 0.0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hot=False, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            tracer._active[name] += 1
            index = -1 if hot else len(tracer.spans)
            if not hot:
                tracer.spans.append(None)
            frame = [index, name, tracer._excluded, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                inclusive = (end - start) - (tracer._excluded - frame[2])
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[3] += inclusive
                if hot:
                    entry = tracer.hot[(name, parent[1] if parent else "")]
                    entry[0] += 1
                    entry[1] += inclusive
                else:
                    tracer.spans[index] = [
                        name,
                        parent[0] if parent else -1,
                        start,
                        end,
                        inclusive,
                        inclusive - frame[3],
                    ]
            if after is not None:
                c0 = perf_counter()
                out = after(args, out)
                tracer._excluded += perf_counter() - c0
            return out

        return wrapper

    def _count_nodes(self, key, tree):
        self.counts[key] += tree_size(tree)

    def _after_hooks(self):
        c = self.counts

        def nodes_out(args, out):
            self._count_nodes("calculus.nodes_out", out)
            return out

        def normalized(args, out):
            self._count_nodes("normalize.nodes_in", args[0])
            self._count_nodes("normalize.nodes_out", out)
            return out

        def zero_tested(args, out):
            self._count_nodes("normalize.nodes_in", args[0])
            return out

        def compiled(args, out):
            self._count_nodes("evaluate.compile_nodes", args[0])

            def counted(J, P):
                c["evaluate.compiled_calls"] += 1
                return out(J, P)

            return counted

        def equivalence(args, out):
            c["evaluate.points"] += out.trials
            return out

        def integrated(args, out):
            c["dynamics.steps"] += len(out.times) - 1
            return out

        def written(args, out):
            c["dynamics.csv_bytes"] += os.path.getsize(args[1])
            return out

        def rendered(args, out):
            c["printing.chars"] += len(out)
            return out

        return {
            "calculus.partial": nodes_out,
            "calculus.total_derivative": nodes_out,
            "normalize.normalize": normalized,
            "normalize.is_zero": zero_tested,
            "evaluate.compile_expr": compiled,
            "evaluate.equivalent": equivalence,
            "dynamics.integrate": integrated,
            "dynamics.Trajectory.write_csv": written,
            "printing.to_text": rendered,
            "printing.to_latex": rendered,
        }

    def install(self):
        """Wrap every traced function under each name lcmech bound it to.

        Modules are reached through ``sys.modules``: ``lcmech.evaluate`` as
        an attribute is the function ``evaluate``, not the module.
        """
        hooks = self._after_hooks()
        modules = [m for n, m in sys.modules.items() if n == "lcmech" or n.startswith("lcmech.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            name = f"{module_name.split('.', 1)[1]}.{attr}"
            wrapper = self._wrap(name, original, after=hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, hot in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            name = f"{module_name.split('.', 1)[1]}.{cls_name}.{attr}"
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hot=hot, after=hooks.get(name)))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        inclusive = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for name, _, _, _, incl, self_s in self.spans:
            inclusive[name] += incl
            own[name] += self_s
            calls[name] += 1
        for (name, _), (n, incl) in self.hot.items():
            inclusive[name] += incl
            calls[name] += n
        c = self.counts
        residual = (
            self.hot[("dynamics.ExplicitODE.residual_at", "dynamics.integrate")][1]
            + self.hot[("dynamics.ExplicitODE.top_derivatives", "dynamics.integrate")][1]
        )
        steps = c["dynamics.steps"]
        rhs_calls = calls["dynamics.ExplicitODE.rhs"]
        return {
            "modelfile.load_s": own["modelfile.load_model"],
            "calculus.partial_s": inclusive["calculus.partial"],
            "calculus.total_derivative_s": inclusive["calculus.total_derivative"],
            "calculus.nodes_out": c["calculus.nodes_out"],
            "normalize.normalize_s": inclusive["normalize.normalize"] + inclusive["normalize.is_zero"],
            "normalize.calls": calls["normalize.normalize"] + calls["normalize.is_zero"],
            "normalize.nodes_in": c["normalize.nodes_in"],
            "normalize.nodes_out": c["normalize.nodes_out"],
            "combinatorics.fs_s": inclusive["combinatorics.exp_derivative_factor"],
            "combinatorics.oracle_s": inclusive["combinatorics.exp_derivative_factor_oracle"],
            "euler_lagrange.classical_s": inclusive["euler_lagrange.classical_el"],
            "euler_lagrange.conformal_rhs_s": inclusive["euler_lagrange.conformal_rhs"],
            "euler_lagrange.compact_s": inclusive["euler_lagrange.conformal_el_compact"],
            "evaluate.compile_s": inclusive["evaluate.compile_expr"],
            "evaluate.compile_nodes": c["evaluate.compile_nodes"],
            "evaluate.equivalent_s": inclusive["evaluate.equivalent"],
            "evaluate.points": c["evaluate.points"],
            "evaluate.compiled_calls": c["evaluate.compiled_calls"],
            "dynamics.reduce_s": inclusive["dynamics.to_explicit_ode"],
            "dynamics.step_us": (inclusive["dynamics.integrate"] - residual) / steps * 1e6 if steps else 0.0,
            "dynamics.rhs_calls": rhs_calls,
            "dynamics.rhs_us": inclusive["dynamics.ExplicitODE.rhs"] / rhs_calls * 1e6 if rhs_calls else 0.0,
            "dynamics.residual_s": residual,
            "dynamics.csv_s": inclusive["dynamics.Trajectory.write_csv"],
            "dynamics.csv_mb": c["dynamics.csv_bytes"] / 1e6,
            "printing.render_s": inclusive["printing.to_text"] + inclusive["printing.to_latex"],
            "printing.chars": c["printing.chars"],
            "cli.self_s": own["cli.main"],
        }

    def write_spans(self, path):
        data = {
            "fields": ["name", "parent", "start", "end", "inclusive_s", "self_s"],
            "spans": self.spans,
            "hot": [[name, parent, n, incl] for (name, parent), (n, incl) in self.hot.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
