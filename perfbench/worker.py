"""One workload in one process: set-up, timed closed loop, gates, result line.

Started by run.py with BLAS/OpenMP pinned to one thread and ``src`` on
PYTHONPATH.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from perfbench.layers import layer_metrics
from perfbench.trace import Hooks, Tracer
from perfbench.workloads import WORKLOADS

SETUP_REPEATS = 3
# run in a fresh interpreter; prints the seconds its imports took
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, lurestab.cli; "
                "print(time.perf_counter() - t0)")
# host_probe(): its size, its matrices, and its time at the development
# host's usual speed, which the reported rates and times are scaled to
PROBE_STEPS = 4000
PROBE_A = numpy.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -3.0]])
PROBE_B = numpy.ones((3, 1))
HOST_REF_S = 0.087
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def import_seconds() -> float:
    """Time of ``import numpy, lurestab.cli`` in a fresh interpreter.

    This process has already imported both, so the probe finds compiled
    bytecode, as every later start of the program does.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         stdout=subprocess.PIPE, text=True, timeout=60).stdout
    return float(out.split()[-1])


def closed_loop(workload, state, rounds, seconds: float, work: Path, pause=None) -> list:
    """Run items one after another until ``seconds`` of item time have
    passed; the first round always runs whole.  ``pause(elapsed)`` runs
    before each item, and its time does not count."""
    records = []
    t0 = time.perf_counter()
    paused = 0.0
    for number, round_ in enumerate(rounds):
        for item in round_:
            elapsed = time.perf_counter() - t0 - paused
            if number and elapsed >= seconds:
                return records
            if pause is not None:
                t1 = time.perf_counter()
                pause(elapsed)
                paused += time.perf_counter() - t1
            records.append(workload.run(state, item, work / f"item{len(records):04d}"))
    return records


def replay(workload, state, done: list, work: Path, start: int) -> list:
    return [workload.run(state, rec["item"], work / f"item{start + i:04d}")
            for i, rec in enumerate(done)]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def host_probe() -> float:
    """Seconds taken by a fixed piece of work shaped like the program's inner
    loops: small numpy products, a clamp and pure-Python arithmetic."""
    t0 = time.perf_counter()
    x = numpy.ones(3)
    for _ in range(PROBE_STEPS):
        u = numpy.clip(-x[:1], -1.0, 1.0)
        x = x + 1e-3 * (PROBE_A @ x + PROBE_B @ u)
    acc = 0
    for i in range(50 * PROBE_STEPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def host_adjusted(value: float, unit: str, slowness: float) -> float:
    """A rate or a time scaled from this run's host speed to the reference
    speed: rates times ``slowness``, times divided by it."""
    if unit == "1/s":
        return value * slowness
    if unit in ("s", "ms"):
        return value / slowness
    return value


def measure(workload, seed: int, seconds: float, work: Path):
    """Untraced run: set-up, the timed loop, then the gates.

    Set-up is repeated SETUP_REPEATS times, spread evenly over the timed
    loop (outside its clock), and its median is reported: the host's speed
    drifts in spells of tens of seconds, and repetitions back to back would
    all land in the same spell.  Before each item, outside its clock,
    host_probe() samples the host's speed; the run's rates and times are
    reported at the reference speed HOST_REF_S, and as measured under
    ``<name>.wall`` (see README.md, "Host speed").

    Returns (end-to-end metrics, figures only printed, failed items, notes, attempted).
    """
    import_times, setup_times, probe_times = [], [], []

    def set_up():
        import_times.append(import_seconds())
        t0 = time.perf_counter()
        state = workload.setup(work / f"setup{len(setup_times)}")
        setup_times.append(time.perf_counter() - t0)
        return state

    def between_items(elapsed):
        probe_times.append(host_probe())
        if len(setup_times) < SETUP_REPEATS and \
                elapsed >= len(setup_times) * seconds / SETUP_REPEATS:
            set_up()

    host_probe()  # warm-up, not counted
    state = set_up()
    records = closed_loop(workload, state, workload.rounds(seed), seconds, work,
                          pause=between_items)
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, notes, extra = workload.gate(state, records)
    slowness = statistics.fmean(probe_times) / HOST_REF_S
    wall = {"setup_s": (statistics.median(import_times) + statistics.median(setup_times), "s")}
    wall.update(workload.metrics(records))
    metrics = {name: metric(host_adjusted(value, unit, slowness), unit)
               for name, (value, unit) in wall.items()}
    metrics["peak_rss_mb"] = metric(peak_mb, "MB")
    shown = {f"{name}.wall": metric(*m) for name, m in wall.items()}
    shown["host_slowness"] = metric(slowness, "ratio")
    shown.update({name: metric(*m) for name, m in extra.items()})
    return metrics, shown, failed, notes, len(records)


def measure_traced(workload, seed: int, seconds: float, work: Path):
    """Traced run: untraced half, then the same items again under the hooks."""
    tracer = Tracer()
    hooks = Hooks(tracer)
    hooks.install()
    try:
        state = workload.setup(work / "setup")
    finally:
        hooks.remove()
    plain = closed_loop(workload, state, workload.rounds(seed), seconds / 2.0, work)
    hooks.install()
    try:
        traced = replay(workload, state, plain, work, len(plain))
    finally:
        hooks.remove()
    scaling = Tracer()
    if hasattr(workload, "scaling_probe"):
        probe_hooks = Hooks(scaling)
        probe_hooks.install()
        try:
            workload.scaling_probe(seed, work / "scaling")
        finally:
            probe_hooks.remove()
    overhead = 100.0 * (sum(r["busy"] for r in traced) / sum(r["busy"] for r in plain) - 1.0)
    failed, notes, extra = workload.gate(state, plain + traced)
    values, missing = layer_metrics(tracer, scaling, hooks.missing, len(traced), overhead,
                                    extra.get("eta_ratio", (None,))[0],
                                    getattr(workload, "projects", False))
    tracer.dump(work.parent / f"{workload.name}.trace.jsonl")
    metrics = {name: metric(0.0 if value is None else value, unit)
               for name, (value, unit) in values.items()}
    if hooks.missing:
        print("hooks missing from the program: " + ", ".join(hooks.missing))
    return metrics, missing, failed, notes, len(plain) + len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = Path(args.work) / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    print("env: " + json.dumps(environment(), sort_keys=True), flush=True)
    try:
        if args.trace:
            metrics, missing, failed, notes, attempted = measure_traced(
                workload, args.seed, args.seconds, work)
            shown = {}
            print("per-layer metrics without a value (reported as 0): "
                  + (", ".join(missing) if missing else "none"))
        else:
            metrics, shown, failed, notes, attempted = measure(
                workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # a failed set-up gate (index -1) counts as one more attempted item
    attempted += sum(1 for i in failed if i < 0)
    for note in notes:
        print(f"GATE FAIL {args.workload}: {note}")
    for name, m in {**metrics, **shown}.items():
        print(f"{args.workload:<20} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<20} {'fail_frac':<40} {len(failed) / attempted:>14.6g} ratio"
          f"  ({len(failed)} of {attempted} items)")
    correct = not failed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
