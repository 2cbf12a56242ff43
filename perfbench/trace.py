"""Spans around calls into lurestab's layers, recorded from outside the program.

The modules bind their collaborators with ``from ... import``, so a call
from ``lurestab.cli`` to ``integrate`` looks the name up in ``lurestab.cli``,
not in ``lurestab.sim``.  Each hook therefore names the caller module and
the attribute it looks up, and the wrapper is installed on exactly that
name.  A name a later version of the program no longer has is recorded as
missing, and every metric built on it is reported as missing; the run
goes on.

Spans live in memory.  Hot hooks (one call per RK4 stage, per LMI
assembly or per projection) keep per-name aggregates instead of span
records, but still charge their time to the enclosing span, so self times
stay exact.  A hot call nested in another (a projection inside a wrapped
controller evaluation) charges only its own aggregate, so the enclosing
span counts that time once.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    count: int = 0
    total: float = 0.0
    stats: dict = field(default_factory=dict)


class Tracer:
    """Records spans with parent links and aggregates for hot call sites."""

    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[str, Aggregate] = {}
        self._stack: list[int] = []
        self.hot_depth = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration
        return span

    def charge(self, name: str, elapsed: float) -> Aggregate:
        agg = self.aggregates.setdefault(name, Aggregate())
        agg.count += 1
        agg.total += elapsed
        if self._stack and not self.hot_depth:
            self.spans[self._stack[-1]].child_time += elapsed
        return agg

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        """Write spans as JSON lines, then one line per aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start, "end": s.end,
                                     "self": s.duration - s.child_time,
                                     "attrs": s.attrs}) + "\n")
            for name, agg in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "count": agg.count,
                                     "total": agg.total, "stats": agg.stats}) + "\n")


def family_key(family) -> str:
    """Metric suffix of a constraint family object."""
    return {"StateBox": "box", "HalfspacePlusBox": "halfspace_box",
            "AffineInequalities": "polyhedron"}.get(type(family).__name__, "other")


# attrs recorders: (args, kwargs, result) -> dict stored on the span
def _probe_attrs(args, kwargs, res):
    return {"status": res.status, "iterations": res.iterations}


def _care_attrs(args, kwargs, res):
    return {"n": len(args[0]), "sweeps": len(res.residual_history)}


def _integrate_attrs(args, kwargs, traj):
    return {"steps": len(traj.times)}


def _csv_attrs(args, kwargs, res):
    return {"rows": len(args[0].times)}


# (caller module, attribute, span name, attrs recorder)
SPAN_HOOKS = [
    ("lurestab.cli", "cmd_lqr", "cli.lqr", None),
    ("lurestab.cli", "cmd_certify", "cli.certify", None),
    ("lurestab.cli", "cmd_simulate", "cli.simulate", None),
    ("lurestab.cli", "cmd_report", "cli.report", None),
    ("lurestab.cli", "max_contraction_rate", "lure.rate_search", None),
    ("lurestab.lure", "find_certificate", "lure.probe", _probe_attrs),
    ("lurestab.cli", "verify_certificate", "lure.verify", None),
    ("lurestab.cli", "solve_care", "synthesis.care", _care_attrs),
    ("lurestab.synthesis", "solve_care", "synthesis.care", _care_attrs),
    ("lurestab.synthesis", "solve_lyapunov", "synthesis.lyapunov", None),
    ("lurestab.cli", "example1_setup", "synthesis.example_setup", None),
    ("lurestab.synthesis", "example1_setup", "synthesis.example_setup", None),
    ("lurestab.synthesis", "example2_grid", "synthesis.example_setup", None),
    ("lurestab.synthesis", "solve_linear", "linalg.solve", None),
    ("lurestab.cli", "integrate", "sim.integrate", _integrate_attrs),
    ("lurestab.cli", "write_trajectory_csv", "sim.csv", _csv_attrs),
    ("lurestab.cli", "check_decay_envelope", "sim.checks", None),
    ("lurestab.cli", "check_lyapunov_decrease", "sim.checks", None),
    ("lurestab.cli", "detect_equilibrium", "sim.checks", None),
    ("lurestab.cli", "fit_semiglobal_rate", "sim.checks", None),
    ("lurestab.cli", "check_safety", "sim.safety", None),
]

# hot call sites, aggregated: (caller module, attribute, kind)
HOT_HOOKS = [
    ("lurestab.lure", "assemble_lmi", "lmi"),
    ("lurestab.sim", "make_controller_evaluator", "evaluator"),
    ("lurestab.families", "project_feasible", "projection"),
    ("lurestab.families", "strictly_feasible", "strict"),
    ("lurestab.sim", "project_feasible", "projection"),
    ("lurestab.sim", "strictly_feasible", "strict"),
]


def _span_wrapper(tracer, fn, name, recorder):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if recorder is not None:
            try:
                span.attrs.update(recorder(args, kwargs, result))
            except (AttributeError, IndexError, TypeError):
                pass  # the call's shape changed; metrics built on it go missing
        return result
    return wrapper


def _hot_call(tracer, name, fn, args, kwargs):
    """Call ``fn`` and charge its time to the aggregate ``name``;
    returns (result, aggregate)."""
    tracer.hot_depth += 1
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        tracer.hot_depth -= 1
    return result, tracer.charge(name, time.perf_counter() - t0)


def _timed_evaluator(tracer, evaluate, name):
    def wrapper(x):
        return _hot_call(tracer, name, evaluate, (x,), {})[0]
    return wrapper


def _hot_wrapper(tracer, fn, kind):
    if kind == "lmi":
        def wrapper(*args, **kwargs):
            return _hot_call(tracer, "lure.lmi", fn, args, kwargs)[0]
    elif kind == "evaluator":
        def wrapper(ctrl, *args, **kwargs):
            evaluate = fn(ctrl, *args, **kwargs)
            return _timed_evaluator(
                tracer, evaluate,
                f"families.eval.{family_key(getattr(ctrl, 'family', None))}")
    elif kind == "projection":
        def wrapper(family, *args, **kwargs):
            res, agg = _hot_call(tracer, f"families.proj.{family_key(family)}",
                                 fn, (family,) + args, kwargs)
            stats = agg.stats
            sweeps = getattr(res, "iterations", None)
            active = getattr(res, "active_constraints", None)
            if sweeps is not None and active is not None:
                stats["sweeps"] = stats.get("sweeps", 0) + sweeps
                stats["sweeps_max"] = max(stats.get("sweeps_max", 0), sweeps)
                stats["active"] = stats.get("active", 0) + bool(active)
            return res
    else:  # strict
        def wrapper(family, *args, **kwargs):
            return _hot_call(tracer, f"families.strict.{family_key(family)}",
                             fn, (family,) + args, kwargs)[0]
    return wrapper


class Hooks:
    """Installs and removes the wrappers; remembers names that are gone."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, recorder in SPAN_HOOKS:
            fn = self._lookup(module_name, attr)
            if fn is not None:
                self._replace(module_name, attr, fn,
                              _span_wrapper(self.tracer, fn, name, recorder))
        for module_name, attr, kind in HOT_HOOKS:
            fn = self._lookup(module_name, attr)
            if fn is not None:
                self._replace(module_name, attr, fn,
                              _hot_wrapper(self.tracer, fn, kind))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _lookup(self, module_name: str, attr: str):
        try:
            fn = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return None
        return fn

    def _replace(self, module_name, attr, original, wrapper) -> None:
        module = importlib.import_module(module_name)
        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))
