"""Per-layer metrics derived from the spans of a traced run.

Times are means per call unless the name says otherwise; counts are per
call of the layer above (probes per rate search, steps per trajectory)
or per workload item.  A metric whose hooks are missing from the program,
or whose layer the workload never calls, has no value.

The projection metrics (``families.proj_us.*``, the sweep counts,
``families.strict_feasible_us.*`` and ``families.active_frac.*``) come
only from workloads that call ``project_feasible`` themselves.  In the
simulate workloads the controller evaluator's fast paths for the box and
halfspace+box never call it; the few calls there (equilibrium checks,
one feasibility check per trajectory) would read as hot-path costs.
"""

from __future__ import annotations

import statistics

from perfbench.trace import SPAN_HOOKS, HOT_HOOKS, Tracer

FAMILIES = ("box", "halfspace_box", "polyhedron")
HOT_LAYER = {"lmi": "lure", "evaluator": "families", "projection": "families",
             "strict": "families"}


def _durations(tracer: Tracer, name: str) -> list[float]:
    return [s.duration for s in tracer.named(name)]


def _mean(values) -> float | None:
    values = list(values)
    return statistics.fmean(values) if values else None


def _ratio(num, den) -> float | None:
    return num / den if num is not None and den else None


def _scale(value, factor) -> float | None:
    return None if value is None else value * factor


def _attrs(spans, key: str) -> list:
    """The recorded attribute of every span that has it."""
    return [s.attrs[key] for s in spans if key in s.attrs]


def _hot(tracer: Tracer, name: str):
    return tracer.aggregates.get(name)


def _hot_mean_us(tracer: Tracer, name: str) -> float | None:
    agg = _hot(tracer, name)
    return 1e6 * agg.total / agg.count if agg and agg.count else None


def layer_metrics(tracer: Tracer, scaling: Tracer, missing_hooks: list[str],
                  items: int, overhead_pct: float, eta_ratio: float | None,
                  projects: bool):
    """Returns ({name: (value or None, unit)}, [names without a value, with reason]).

    ``projects`` says whether the workload calls ``project_feasible``
    itself; without it the projection metrics have no value."""
    spans = tracer.named

    def ms(name):
        return _scale(_mean(_durations(tracer, name)), 1e3)

    def us(name):
        return _scale(_mean(_durations(tracer, name)), 1e6)

    out: dict[str, tuple[float | None, str]] = {}

    # cli: per command call, and the command's own time outside traced children
    commands = []
    for cmd in ("lqr", "certify", "simulate", "report"):
        out[f"cli.{cmd}_ms"] = (ms(f"cli.{cmd}"), "ms")
        commands += spans(f"cli.{cmd}")
    out["cli.self_ms"] = (_scale(_mean(s.duration - s.child_time for s in commands), 1e3), "ms")

    # lure
    searches = len(spans("lure.rate_search"))
    probes = spans("lure.probe")
    lmi = _hot(tracer, "lure.lmi")
    out["lure.rate_search_ms"] = (ms("lure.rate_search"), "ms")
    out["lure.probes"] = (_ratio(len(probes), searches), "count")
    out["lure.probe_ms"] = (ms("lure.probe"), "ms")
    statuses = _attrs(probes, "status")
    out["lure.probe_iters"] = (_mean(_attrs(probes, "iterations")), "count")
    out["lure.inconclusive_frac"] = (
        _ratio(statuses.count("inconclusive"), len(statuses)), "ratio")
    out["lure.lmi_evals"] = (_ratio(lmi.count if lmi else None, searches), "count")
    out["lure.lmi_us"] = (_hot_mean_us(tracer, "lure.lmi"), "us")
    out["lure.verify_us"] = (us("lure.verify"), "us")
    out["lure.eta_ratio"] = (eta_ratio, "ratio")

    # synthesis; the largest plant comes from the separate scaling probe
    cares = spans("synthesis.care")
    big = scaling.named("synthesis.care") or cares
    max_n = max(_attrs(big, "n"), default=None)
    out["synthesis.care_ms"] = (ms("synthesis.care"), "ms")
    out["synthesis.care_ms_max_n"] = (
        _scale(_mean(s.duration for s in big if max_n is not None and s.attrs.get("n") == max_n),
               1e3), "ms")
    out["synthesis.care_sweeps"] = (_mean(_attrs(cares, "sweeps")), "count")
    out["synthesis.lyapunov_ms"] = (ms("synthesis.lyapunov"), "ms")
    out["synthesis.example_setup_ms"] = (ms("synthesis.example_setup"), "ms")

    # linalg: solve_linear as called from synthesis
    solves = spans("linalg.solve")
    out["linalg.solve_calls"] = (_ratio(len(solves), items) if solves else None, "count")
    out["linalg.solve_us"] = (us("linalg.solve"), "us")

    # families
    integrations = spans("sim.integrate")
    evals = [_hot(tracer, f"families.eval.{f}") for f in ("box", "halfspace_box")]
    eval_count = sum(a.count for a in evals if a)
    out["families.evals"] = (_ratio(eval_count, len(integrations)) if eval_count else None,
                             "count")
    for fam in ("box", "halfspace_box"):
        out[f"families.eval_us.{fam}"] = (_hot_mean_us(tracer, f"families.eval.{fam}"), "us")
    hot = tracer if projects else Tracer()
    for fam in FAMILIES:
        out[f"families.proj_us.{fam}"] = (_hot_mean_us(hot, f"families.proj.{fam}"), "us")
    poly = _hot(hot, "families.proj.polyhedron")
    poly_stats = poly.stats if poly else {}
    out["families.sweeps_mean.polyhedron"] = (
        _ratio(poly_stats.get("sweeps"), poly.count) if poly else None, "count")
    out["families.sweeps_max.polyhedron"] = (poly_stats.get("sweeps_max"), "count")
    out["families.strict_feasible_us.polyhedron"] = (
        _hot_mean_us(hot, "families.strict.polyhedron"), "us")
    for fam in FAMILIES:
        agg = _hot(hot, f"families.proj.{fam}")
        out[f"families.active_frac.{fam}"] = (
            _ratio(agg.stats.get("active"), agg.count) if agg else None, "ratio")

    # sim
    steps = sum(_attrs(integrations, "steps"))
    busy = sum(s.duration for s in integrations)
    own = sum(s.duration - s.child_time for s in integrations)
    out["sim.integrate_ms"] = (ms("sim.integrate"), "ms")
    out["sim.steps"] = (_ratio(steps, len(integrations)), "count")
    out["sim.step_us"] = (_scale(_ratio(busy, steps), 1e6), "us")
    out["sim.step_self_us"] = (_scale(_ratio(own, steps), 1e6), "us")
    out["sim.csv_ms"] = (ms("sim.csv"), "ms")
    out["sim.csv_rows"] = (_mean(_attrs(spans("sim.csv"), "rows")), "count")
    out["sim.checks_ms"] = (
        _scale(_ratio(sum(_durations(tracer, "sim.checks")), len(integrations)), 1e3), "ms")
    out["sim.safety_ms"] = (ms("sim.safety"), "ms")

    out["trace.overhead_pct"] = (overhead_pct, "%")

    layer_of = {f"{mod}.{attr}": name.split(".")[0] for mod, attr, name, _ in SPAN_HOOKS}
    layer_of.update({f"{mod}.{attr}": HOT_LAYER[kind] for mod, attr, kind in HOT_HOOKS})
    gone_layers = {layer_of[hook] for hook in missing_hooks}
    absent = [f"{name} ({'layer lost a hook' if name.split('.')[0] in gone_layers else 'not exercised'})"
              for name, (value, _) in out.items() if value is None]
    return out, absent
