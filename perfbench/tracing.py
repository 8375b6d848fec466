"""Out-of-package tracing for the per-layer metrics.

:class:`Tracer` wraps the public functions of each ``decohere`` module
from outside the package.  Every wrapped call records a span (name, layer,
start, end, parent) in memory; callables handed to the quadrature and ODE
layers are wrapped too, so integrand and right-hand-side evaluations are
counted where the work happens.  A function is patched in every namespace
that binds it (``decohere.numcore.matrix_exp`` as well as
``decohere.numcore.linalg.matrix_exp`` and ``decohere.matrix_exp``), and
everything is restored when the tracer is uninstalled.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name).  Span names are "<layer>.<what>"; several
# functions may share one span name when they are one kind of work.
TARGETS = (
    ("decohere.cli", "parse_scenario", "cli.parse"),
    ("decohere.cli", "run_scenario", "cli.run_scenario"),
    ("decohere.cli", "check_cp", "cli.check_cp"),
    ("decohere.cli", "write_csv", "cli.write"),
    ("decohere.cli", "write_report", "cli.write"),
    ("decohere.dephasing", "DephasingModel.dephasing_rate", "dephasing.gamma"),
    ("decohere.dephasing", "DephasingModel.decoherence_function", "dephasing.Gamma"),
    ("decohere.dephasing", "DephasingModel.bath_correlation", "dephasing.alpha"),
    ("decohere.dephasing", "DephasingModel.dephasing_rate_from_correlation",
     "dephasing.cross_check"),
    ("decohere.dephasing", "DephasingModel.decoherence_function_from_rate",
     "dephasing.cross_check"),
    ("decohere.dephasing", "DephasingModel.coherence", "dephasing.coherence"),
    ("decohere.dephasing", "DephasingModel.generator_at", "dephasing.generator_at"),
    ("decohere.numcore.quadrature", "integrate_adaptive", "quadrature.integrate"),
    ("decohere.numcore.quadrature", "integrate_oscillatory", "quadrature.integrate"),
    ("decohere.numcore.ode", "ode_solve", "ode.solve"),
    ("decohere.gksl", "to_superoperator", "gksl.superop"),
    ("decohere.gksl", "semigroup_propagator", "gksl.semigroup"),
    ("decohere.gksl", "propagate_semigroup", "gksl.semigroup"),
    ("decohere.gksl", "integrate_constant", "gksl.integrate"),
    ("decohere.gksl", "integrate_time_dependent", "gksl.integrate"),
    ("decohere.gksl", "choi_of_propagator", "gksl.choi"),
    ("decohere.gksl", "is_completely_positive", "gksl.cp_check"),
    ("decohere.gksl", "apply_generator", "gksl.apply"),
    ("decohere.gksl", "canonical_form", "gksl.canonical"),
    ("decohere.numcore.linalg", "matrix_exp", "linalg.expm"),
    ("decohere.numcore.linalg", "hermitian_eigenvalues", "linalg.eig"),
    ("decohere.numcore.linalg", "hermitian_eigensystem", "linalg.eig"),
    ("decohere.collisional", "build_discretized_generator", "collisional.build"),
    ("decohere.collisional", "evolve_exact", "collisional.exact"),
)

LAYERS = ("cli", "dephasing", "quadrature", "ode", "gksl", "linalg", "collisional")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    """Span recorder plus the counters only a wrapper can see."""

    spans: list[Span] = field(default_factory=list)
    integrand_evals: int = 0
    rhs_evals: int = 0
    ode_points: int = 0
    err_to_tol_max: float = 0.0
    expm_norm1_max: float = 0.0
    superop_bytes_max: int = 0
    negative_rates: int = 0
    _stack: list[int] = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _parent_layer(self) -> str | None:
        return self.spans[self._stack[-1]].layer if self._stack else None

    def _counted(self, f):
        def counted(*args):
            self.integrand_evals += 1
            return f(*args)

        return counted

    def _rhs(self, rhs):
        def traced_rhs(t, y):
            self.rhs_evals += 1
            index = self._open("ode.rhs")
            try:
                return rhs(t, y)
            finally:
                self._close(index)

        return traced_rhs

    # -- per-target argument hooks --------------------------------------

    def _before(self, name: str, bound: inspect.BoundArguments) -> None:
        """Inspect or replace arguments before the original runs."""
        args = bound.arguments
        if name == "quadrature.integrate" and self._parent_layer() != "quadrature":
            for key in ("f", "envelope", "head"):
                if args.get(key) is not None:
                    args[key] = self._counted(args[key])
        elif name == "ode.solve":
            args["rhs"] = self._rhs(args["rhs"])
            self.ode_points += int(np.size(args["t_grid"]))
        elif name == "linalg.expm":
            a = np.asarray(args["m"])
            if a.size:
                self.expm_norm1_max = max(self.expm_norm1_max,
                                          float(np.abs(a).sum(axis=0).max()))
        elif name == "gksl.superop":
            d = args["gen"].dim
            self.superop_bytes_max = max(self.superop_bytes_max, 16 * d**4)

    def _after(self, name: str, bound: inspect.BoundArguments, result) -> None:
        if name == "quadrature.integrate" and self._parent_layer() != "quadrature":
            from decohere.numcore import DEFAULT_QUADRATURE

            value, err = result
            spec = bound.arguments.get("spec") or DEFAULT_QUADRATURE
            tol = max(spec.abs_tol, spec.rel_tol * abs(value))
            self.err_to_tol_max = max(self.err_to_tol_max, err / tol)
        elif name == "dephasing.generator_at":
            if result.kossakowski[0, 0].real < 0:
                self.negative_rates += 1

    def _wrap(self, fn, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            self._before(name, bound)
            index = self._open(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._close(index)
            self._after(name, bound, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every target in every loaded ``decohere`` namespace."""
        modules = [m for n, m in sys.modules.items()
                   if n == "decohere" or n.startswith("decohere.")]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` with no ancestor of the same name."""
        found = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                found.append(s)
        return found

    def layer_entries(self, layer: str) -> int:
        """Calls into a layer from outside it."""
        return sum(
            1 for s in self.spans
            if s.layer == layer and (s.parent is None or self.spans[s.parent].layer != layer)
        )

    def metrics(self, dephasing_points: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        selfs = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        name_self: dict[str, float] = {}
        for s, st in zip(self.spans, selfs):
            layer_self[s.layer] += st
            name_self[s.name] = name_self.get(s.name, 0.0) + st

        def calls(name):
            return len(self.outermost(name))

        def total(name):
            return sum(s.end - s.start for s in self.outermost(name))

        quad_calls = self.layer_entries("quadrature")
        ode_calls = calls("ode.solve")
        gamma_big_calls = calls("dephasing.Gamma")
        m = {
            "cli.parse_s": (total("cli.parse"), "s"),
            "cli.run_scenario_s": (name_self.get("cli.run_scenario", 0.0), "s"),
            "cli.check_cp_s": (name_self.get("cli.check_cp", 0.0), "s"),
            "cli.write_s": (total("cli.write"), "s"),
            "dephasing.gamma_calls": (calls("dephasing.gamma"), "count"),
            "dephasing.gamma_s": (total("dephasing.gamma"), "s"),
            "dephasing.Gamma_calls": (gamma_big_calls, "count"),
            "dephasing.Gamma_s": (total("dephasing.Gamma"), "s"),
            "dephasing.alpha_calls": (calls("dephasing.alpha"), "count"),
            "dephasing.alpha_s": (total("dephasing.alpha"), "s"),
            "dephasing.cross_check_s": (total("dephasing.cross_check"), "s"),
            "dephasing.generator_at_calls": (calls("dephasing.generator_at"), "count"),
            "dephasing.Gamma_calls_per_point": (
                gamma_big_calls / dephasing_points if dephasing_points else 0.0, "1"),
            "dephasing.negative_rate_warnings": (self.negative_rates, "count"),
            "quadrature.calls": (quad_calls, "count"),
            "quadrature.integrand_evals": (self.integrand_evals, "count"),
            "quadrature.evals_per_call": (
                self.integrand_evals / quad_calls if quad_calls else 0.0, "1"),
            "quadrature.err_to_tol_max": (self.err_to_tol_max, "1"),
            "ode.calls": (ode_calls, "count"),
            "ode.rhs_evals": (self.rhs_evals, "count"),
            "ode.rhs_evals_per_point": (
                self.rhs_evals / self.ode_points if self.ode_points else 0.0, "1"),
            "ode.rhs_s": (total("ode.rhs"), "s"),
            "gksl.superop_builds": (calls("gksl.superop"), "count"),
            "gksl.superop_s": (total("gksl.superop"), "s"),
            "gksl.superop_bytes_max": (self.superop_bytes_max, "B"),
            "gksl.semigroup_calls": (calls("gksl.semigroup"), "count"),
            "gksl.semigroup_s": (total("gksl.semigroup"), "s"),
            "gksl.integrate_s": (total("gksl.integrate"), "s"),
            "gksl.choi_calls": (calls("gksl.choi"), "count"),
            "gksl.choi_s": (total("gksl.choi"), "s"),
            "gksl.cp_check_s": (total("gksl.cp_check"), "s"),
            "linalg.expm_calls": (calls("linalg.expm"), "count"),
            "linalg.expm_s": (total("linalg.expm"), "s"),
            "linalg.expm_norm1_max": (self.expm_norm1_max, "1"),
            "linalg.eig_calls": (calls("linalg.eig"), "count"),
            "linalg.eig_s": (total("linalg.eig"), "s"),
            "collisional.build_s": (total("collisional.build"), "s"),
            "collisional.exact_calls": (calls("collisional.exact"), "count"),
            "collisional.exact_s": (total("collisional.exact"), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        return m

    def counts(self) -> dict:
        """The counts two traced runs of one seed must reproduce exactly."""
        out = {name: len(self.outermost(name))
               for name in sorted({t[2] for t in TARGETS})}
        out["quadrature.integrand_evals"] = self.integrand_evals
        out["ode.rhs_evals"] = self.rhs_evals
        return out

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.name}\t{s.start - t0:.9f}\t{s.end - t0:.9f}\t{parent}\n")
