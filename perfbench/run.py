"""Benchmark launcher for lurestab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all`` of them, one after another) from the root of
a source checkout.  Each workload runs in its own process, started here
with BLAS/OpenMP pinned to one thread before numpy loads and with the
checkout's ``src`` on PYTHONPATH.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
exit code is nonzero when any correctness gate failed.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("certify_random", "simulate_saturation", "simulate_cbf", "project_families")
WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int):
    """Run one workload process; returns (exit code, result object or None)."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(root / WORK_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print(f"{name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            pass
    if lines:
        print("\n".join(lines), flush=True)
    if result is None and proc.returncode == 0:
        return 1, None
    return proc.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lurestab" / "__init__.py").is_file():
        print("no lurestab sources under ./src: run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, worst = {}, 0
    for name in names:
        rc, result = run_workload(root, name, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"{name}: no result (exit {rc})", file=sys.stderr)
            return rc or 1
        results[name] = result
        worst = worst or rc
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return worst
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return worst


if __name__ == "__main__":
    sys.exit(main())
