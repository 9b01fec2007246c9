"""Spans and counts around the public functions of stagdyn's modules.

Everything here wraps the program from outside: module attributes and
class methods are replaced for the duration of a run and restored after.
``src/`` is never edited.

Two wrappers exist:

* a *span* records ``[name, start_ns, end_ns, parent]`` in a list, so a
  layer's self time and the nesting of its calls can be checked;
* a *tally* only adds to a call count and a time total, which keeps the
  cost low on functions called hundreds of times per step.

Both key their counters by ``(name, phase)``.  The phase is ``"cfl"``
inside the stability estimator, ``"step"`` inside ``integrator.advance``
and ``"other"`` elsewhere, so per-step counts exclude the estimator's own
calls into the same functions.

:class:`Probe` is the untraced counterpart: it only takes the timestamps
the end-to-end metrics need.
"""

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class TraceError(RuntimeError):
    """The trace does not match the program: fail the run loudly."""


# (name, module, owner class or None, attribute, kind, phase it opens)
WRAPPED = [
    ("config.parse_config", "stagdyn.config", None, "parse_config", "span",
     None),
    ("config.build_simulation", "stagdyn.config", None, "build_simulation",
     "span", None),
    ("integrator.max_stable_timestep", "stagdyn.integrator", None,
     "max_stable_timestep", "span", "cfl"),
    ("integrator.run_simulation", "stagdyn.integrator", None,
     "run_simulation", "span", None),
    ("integrator.advance", "stagdyn.integrator", None, "advance", "span",
     "step"),
] + [
    (f"integrator.{fn}", "stagdyn.integrator", None, fn, "span", None)
    for fn in ("step_sigma", "step_internal", "step_velocity", "energy_audit")
] + [
    (f"solvers.{fn}", "stagdyn.solvers", None, fn, "span", None)
    for fn in ("solve_linear_spd", "solve_bound_constrained",
               "solve_asymmetric_quadratic")
] + [
    ("io.write_snapshot", "stagdyn.io", None, "write_snapshot", "span", None),
    ("io.EnergyLogWriter.write", "stagdyn.io", "EnergyLogWriter", "write",
     "tally", None),
] + [
    (f"grid.{meth}", "stagdyn.grid", "Discretization", meth, "tally", None)
    for meth in ("apply_E", "apply_E_adjoint", "lap_z", "div_z")
] + [
    (f"kernels.{fn}", "stagdyn.kernels", None, fn, "tally", None)
    for fn in ("grad_1d", "grad_1d_t", "grad_2d", "grad_2d_t", "radial_return")
] + [
    (f"materials.{meth}", "stagdyn.materials", cls, meth, "tally", None)
    for cls in ("MaterialModel", "ElasticMaterial", "PlasticCreepMaterial",
                "BiotMaterial", "DamageMaterial")
    for meth in ("phi", "dphi_dsigma", "true_stress", "internal_step")
]

# Spans every run of a ``tau = auto`` config passes through.  Layers that a
# correct program may route around (the solvers, lap_z, the return map) are
# not listed: they read 0 when bypassed.
REQUIRED = (
    "config.parse_config", "config.build_simulation",
    "integrator.max_stable_timestep", "integrator.run_simulation",
    "integrator.advance", "integrator.step_sigma", "integrator.step_internal",
    "integrator.step_velocity", "integrator.energy_audit",
    "io.write_snapshot", "io.EnergyLogWriter.write",
    "grid.apply_E", "grid.apply_E_adjoint",
    "materials.phi", "materials.dphi_dsigma", "materials.true_stress",
    "materials.internal_step",
)

ADVANCE_CHILDREN = ("integrator.step_sigma", "integrator.step_internal",
                    "integrator.step_velocity", "integrator.energy_audit")


def _resolve(module_name, owner, attr):
    module = sys.modules.get(module_name)
    if module is None:
        raise TraceError(f"module {module_name} is not loaded")
    target = module
    if owner is not None:
        target = getattr(module, owner, None)
        if target is None:
            raise TraceError(f"{module_name}.{owner} no longer exists")
    if not hasattr(target, attr):
        where = f"{module_name}.{owner}" if owner else module_name
        raise TraceError(f"{where}.{attr} no longer exists")
    return target


def patch_everywhere(module_name, attr, make_wrapper):
    """Replace the function ``module.attr`` in every stagdyn module that
    binds it (``from .x import f`` copies the name).  Returns undo pairs."""
    fn = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(fn)
    undo = []
    for name, mod in list(sys.modules.items()):
        if not (name == "stagdyn" or name.startswith("stagdyn.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, key, wrapper)
                undo.append((mod, key, fn))
    return undo


def patch_method(cls, attr, make_wrapper):
    """Replace a method defined in ``cls`` itself.  Returns undo pairs."""
    fn = cls.__dict__[attr]
    setattr(cls, attr, make_wrapper(fn))
    return [(cls, attr, fn)]


def undo_patches(undo):
    for target, key, fn in reversed(undo):
        setattr(target, key, fn)


class Tracer:
    """Per-run record of spans and (name, phase) counters."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent index]
        self.calls = Counter()   # (name, phase) -> calls
        self.ns = Counter()      # (name, phase) -> nanoseconds
        self.phase = "other"
        self._stack = []

    def _span(self, name, fn, phase):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            outer = tracer.phase
            if phase is not None:
                tracer.phase = phase
            key = (name, tracer.phase)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                rec[1], rec[2] = t0, t1
                tracer.calls[key] += 1
                tracer.ns[key] += t1 - t0
                tracer.phase = outer
                tracer._stack.pop()

        return wrapper

    def _tally(self, name, fn):
        calls, ns = self.calls, self.ns

        def wrapper(*args, **kwargs):
            key = (name, self.phase)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ns[key] += perf_counter_ns() - t0
                calls[key] += 1

        return wrapper

    def _make(self, name, kind, phase):
        if kind == "span":
            return lambda fn: self._span(name, fn, phase)
        return lambda fn: self._tally(name, fn)

    @contextmanager
    def installed(self):
        """Wrap every entry of :data:`WRAPPED`; restore on exit."""
        undo = []
        try:
            for name, module, owner, attr, kind, phase in WRAPPED:
                target = _resolve(module, owner, attr)
                make = self._make(name, kind, phase)
                if owner is None:
                    undo += patch_everywhere(module, attr, make)
                elif attr in vars(target):
                    undo += patch_method(target, attr, make)
            yield self
        finally:
            undo_patches(undo)

    # -- derived quantities -------------------------------------------------

    def count(self, name, phase=None):
        return sum(c for (n, p), c in self.calls.items()
                   if n == name and (phase is None or p == phase))

    def time_ns(self, name, phase=None):
        return sum(t for (n, p), t in self.ns.items()
                   if n == name and (phase is None or p == phase))

    def outermost(self, prefix):
        """(calls, ns) of spans named ``prefix*`` not nested in another."""
        calls = ns = 0
        for name, t0, t1, parent in self.spans:
            if name.startswith(prefix) and not (
                    parent >= 0 and self.spans[parent][0].startswith(prefix)):
                calls += 1
                ns += t1 - t0
        return calls, ns

    def advance_split(self):
        """Total ns of ``advance`` and of each direct child, after checking
        that the children nest inside it and do not overlap."""
        totals = Counter()
        children = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if name == "integrator.advance":
                totals[name] += t1 - t0
                children.setdefault(i, [])
            elif parent >= 0 and self.spans[parent][0] == "integrator.advance":
                children.setdefault(parent, []).append((t0, t1, name))
                totals[name] += t1 - t0
        for idx, kids in children.items():
            _, a0, a1, _ = self.spans[idx]
            end = a0
            for t0, t1, name in sorted(kids):
                if t0 < end or t1 > a1:
                    raise TraceError(f"span {name} escapes or overlaps inside "
                                     "integrator.advance")
                end = t1
        unknown = set(totals) - set(ADVANCE_CHILDREN) - {"integrator.advance"}
        if unknown:
            raise TraceError("untraced children of advance: "
                             f"{sorted(unknown)}")
        return totals

    def check_required(self):
        fired = {name for name, _ in self.calls}
        missing = [n for n in REQUIRED if n not in fired]
        if missing:
            raise TraceError(f"expected spans never fired: {missing}")


class Probe:
    """Timestamps the end-to-end metrics need, with tracing off.

    Wraps ``integrator.max_stable_timestep`` (end of each stability
    estimate) and ``integrator.run_simulation`` (entry, and the end of each
    step's ``on_step`` callback, which writes the log row and any
    snapshot).  Costs one closure call per step.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.run_entry = None
        self.cfl_end = []
        self.step_end = []

    @contextmanager
    def installed(self):
        _resolve("stagdyn.integrator", None, "max_stable_timestep")
        _resolve("stagdyn.integrator", None, "run_simulation")
        undo = []
        try:
            undo += patch_everywhere("stagdyn.integrator",
                                     "max_stable_timestep", self._wrap_cfl)
            undo += patch_everywhere("stagdyn.integrator", "run_simulation",
                                     self._wrap_run)
            yield self
        finally:
            undo_patches(undo)

    def _wrap_cfl(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.cfl_end.append(perf_counter_ns())
        return wrapper

    def _wrap_run(self, fn):
        sig = inspect.signature(fn)
        if "on_step" not in sig.parameters:
            raise TraceError("integrator.run_simulation lost its on_step hook")

        def wrapper(*args, **kwargs):
            self.run_entry = perf_counter_ns()
            bound = sig.bind(*args, **kwargs)
            user = bound.arguments.get("on_step")
            stamps = self.step_end

            def on_step(state, ledger):
                if user is not None:
                    user(state, ledger)
                stamps.append(perf_counter_ns())

            bound.arguments["on_step"] = on_step
            return fn(*bound.args, **bound.kwargs)
        return wrapper

    def setup_end(self):
        """End of the last stability estimate before the first step."""
        if not self.step_end:
            raise TraceError("run_simulation completed no step")
        before = [t for t in self.cfl_end if t <= self.step_end[0]]
        return max(before + [self.run_entry])
