"""The four benchmark workloads.

Each workload is a closed loop with one client: an item starts only
after the previous one has finished, in the main thread.  A workload
provides

* ``setup(work)``: the program's set-up before timing (timed as setup_s);
* ``rounds(seed)``: an endless, seed-determined stream of rounds, each a
  list of items; the first round always runs whole, so a round is the mix
  every run is guaranteed to cover;
* ``run(state, item, out)``: one item through the program, returning a
  record whose ``busy`` field is the wall time spent in program calls;
* ``gate(state, records)``: correctness checks run after the timed region,
  returning (failed item indices, messages, {name: (value, unit)} of
  figures the gates compute);
* ``metrics(records)``: the workload's end-to-end rates, {name: (value, unit)}.

The program only ever sees generated configs and arrays.  Why each
workload exists is in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

import lurestab.cli
from lurestab import families, synthesis
from lurestab.lure import LtiPlant, LureCertificate, verify_certificate

from perfbench.reference import (
    cocoercivity_violation,
    eta_reference,
    project_brute_force,
)

RHO = 1.0
VERIFY_TOL = 1e-8
ETA_SLACK = 1e-6
COCOERCIVITY_TOL = 1e-9
# Hildreth stops on a complementarity slack of 1e-12, which lets a constraint
# with a tiny multiplier mu sit 1e-12/mu off its face; on the seed code 5 of
# 300k polyhedral projections missed brute force by more than 1e-9 (1 + |z|)
# and none by more than 3e-9 (1 + |z|), so a 1e-9 gate would fail correct runs.
PROJ_TOL = 1e-8
EXAMPLE1_SEED = 42


def cli(*argv) -> tuple[int, float]:
    """Run ``lurestab <argv>`` in process, quietly; returns (exit code, seconds)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = lurestab.cli.main([str(a) for a in argv])
    return rc, time.perf_counter() - t0


def write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def csv_rows(path: Path) -> tuple[list[str], int]:
    """Header fields and data-row count of a trajectory CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = sum(1 for _ in fh)
    return header, rows


def matrix(a) -> list:
    return np.asarray(a, dtype=float).tolist()


# --------------------------------------------------------------------------
# certify_random


def _criterion2_plant(rng, n: int, m: int, scaled: bool = False):
    """Shifted-Hurwitz draw of criterion 2; ``scaled`` divides the noise by
    sqrt(n) so the spectrum stays O(1) for the larger plants."""
    g = rng.standard_normal((n, n))
    if scaled:
        g /= math.sqrt(n)
    shift = float(np.linalg.eigvals(g).real.max()) + 0.3 + float(rng.random())
    return g - shift * np.eye(n), rng.standard_normal((n, m))


SCALING_N = 20


def riccati_scaling_probe(seed: int, out: Path) -> int:
    """One ``lurestab lqr`` call at n = 20, run only when tracing, for the
    Riccati-versus-n layer metric; a 20-state certify takes longer than a run."""
    rng = np.random.default_rng([seed, SCALING_N])
    a, b = _criterion2_plant(rng, SCALING_N, 2, scaled=True)
    cfg = write_json(out / "lqr.json", {
        "schema": 1, "A": matrix(a), "B": matrix(b),
        "Q": matrix(np.eye(SCALING_N)), "R": matrix(np.eye(2))})
    return cli("lqr", "--config", cfg, "--out", out / "gain.json")[0]


class CertifyRandom:
    """Plants through ``lurestab lqr`` then ``lurestab certify``."""

    name = "certify_random"
    # small-plant classes (n, m) in an order whose every prefix mixes sizes
    CLASSES_A = [(4, 2), (1, 1), (3, 1), (2, 2)]
    CLASSES_B = [(4, 1), (1, 2), (3, 2), (2, 1)]
    LARGE_N = 8
    scaling_probe = staticmethod(riccati_scaling_probe)

    def setup(self, work: Path):
        return {}

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            # scalar oracle: LQR with Q/R = 3 gives K = -1, where eta* = 1
            yield [{"kind": "oracle", "a": [[-1.0]], "b": [[1.0]],
                    "q": [[3.0]], "r": [[1.0]]}]
            for n, m in self.CLASSES_A:
                yield [self._small(rng, n, m)]
            a, b = _criterion2_plant(rng, self.LARGE_N, 2, scaled=True)
            yield [{"kind": "large", "a": matrix(a), "b": matrix(b),
                    "q": matrix(np.eye(self.LARGE_N)), "r": matrix(np.eye(2))}]
            for n, m in self.CLASSES_B:
                yield [self._small(rng, n, m)]

    @staticmethod
    def _small(rng, n, m):
        a, b = _criterion2_plant(rng, n, m)
        return {"kind": "small", "a": matrix(a), "b": matrix(b),
                "q": matrix(np.eye(n)), "r": matrix(np.eye(m))}

    def run(self, state, item, out: Path):
        t0 = time.perf_counter()
        lqr_cfg = write_json(out / "lqr.json", {
            "schema": 1, "A": item["a"], "B": item["b"],
            "Q": item["q"], "R": item["r"]})
        rc_lqr, _ = cli("lqr", "--config", lqr_cfg, "--out", out / "gain.json")
        rec = {"item": item, "out": out, "rc_lqr": rc_lqr,
               "rc_certify": None, "certify_s": None}
        if rc_lqr == 0:
            k = read_json(out / "gain.json")["K"]
            cert_cfg = write_json(out / "certify.json", {
                "schema": 1, "system": {"A": item["a"], "B": item["b"], "K": k},
                "rho": RHO})
            rec["k"] = k
            rec["rc_certify"], rec["certify_s"] = cli(
                "certify", "--config", cert_cfg, "--out", out / "cert")
        rec["busy"] = time.perf_counter() - t0
        return rec

    def gate(self, state, records):
        failed, notes, ratios = set(), [], []
        oracle_ref = eta_reference([[-1.0]], [[1.0]], [[-1.0]], RHO)
        if abs(oracle_ref - 1.0) > 1e-9:
            notes.append(f"reference bisection misses the scalar oracle: {oracle_ref!r}")
            failed.add(-1)
        for i, rec in enumerate(records):
            problem = self._check_plant(rec, ratios)
            if problem:
                failed.add(i)
                notes.append(f"plant {i} ({rec['item']['kind']}): {problem}")
        return failed, notes, {"eta_ratio": (statistics.median(ratios), "ratio")} if ratios else {}

    @staticmethod
    def _check_plant(rec, ratios) -> str | None:
        if rec["rc_lqr"] != 0:
            return f"lqr exit {rec['rc_lqr']}"
        if rec["rc_certify"] != 0:
            return f"certify exit {rec['rc_certify']}"
        item, out = rec["item"], rec["out"]
        k = np.asarray(rec["k"])
        if item["kind"] == "oracle" and abs(float(k[0, 0]) + 1.0) > 1e-8:
            return f"oracle LQR gain {k[0, 0]!r} is not -1"
        report = read_json(out / "cert" / "certify_report.json")
        cert = LureCertificate.from_dict(read_json(out / "cert" / "certificate.json"))
        plant = LtiPlant(a=item["a"], b=item["b"])
        ok, ver = verify_certificate(plant, k, cert, tol=VERIFY_TOL)
        if not ok:
            return f"certificate fails re-verification (top eigenvalue {ver.lmi_max_eig:.3e})"
        if report.get("status") != "feasible" or report.get("eta_star") != cert.eta:
            return "report disagrees with certificate.json"
        ref = eta_reference(item["a"], item["b"], k, RHO)
        if not 0.0 < cert.eta <= ref * (1.0 + ETA_SLACK):
            return f"eta* {cert.eta!r} exceeds the reference {ref!r}"
        ratios.append(cert.eta / ref)
        return None

    def metrics(self, records):
        cert_times = [r["certify_s"] for r in records if r["certify_s"] is not None]
        return {
            "systems_per_s": (len(records) / sum(r["busy"] for r in records), "1/s"),
            "certify_p50_ms": (1e3 * statistics.median(cert_times), "ms"),
        }


# --------------------------------------------------------------------------
# simulate_saturation and simulate_cbf


def _simulate_metrics(records) -> dict:
    """RK4 samples written, summed over all trajectories, per second of
    ``lurestab simulate`` wall time, as the ratio of totals over one pass of
    the workload's distinct items: each item kind (a grid row; a batch, all
    batches being the same size) counts once with its samples and with the
    mean time of all its calls in the run.  So every row weighs by its share
    of the work, and calls of a round cut short by the clock still count."""
    calls = {}
    for rec in records:
        calls.setdefault(rec["item"].get("row"), []).append(rec)
    samples = sum(max(r.get("samples", 0) for r in recs) for recs in calls.values())
    seconds = sum(statistics.fmean(r["sim_s"] for r in recs) for recs in calls.values())
    return {"steps_per_s": (samples / seconds, "1/s")}


def _check_trajectories(out: Path, report: dict, expect_rows: int,
                        column: str) -> str | None:
    """Shared simulate verdicts: completion and CSV shape."""
    if not report.get("all_passed"):
        return "report says not all_passed"
    for entry in report["trajectories"]:
        if entry.get("termination") != "completed":
            return f"trajectory {entry['index']} ended {entry.get('termination')}"
        header, rows = csv_rows(out / entry["csv"])
        if rows != expect_rows or header[-1] != column:
            return f"{entry['csv']}: {rows} rows, last column {header[-1]}"
    return None


class SimulateSaturation:
    """Example 1 (n = 3, state-dependent box) over seeded x0 batches."""

    name = "simulate_saturation"
    DT = 1e-3
    HORIZON = 15.0
    BATCH = 2
    # its set-up carries the Riccati layer, so it also carries the n = 20 probe
    scaling_probe = staticmethod(riccati_scaling_probe)

    def setup(self, work: Path):
        ex1 = synthesis.example1_setup(EXAMPLE1_SEED)
        cfg = write_json(work / "certify.json", {
            "schema": 1, "system": "example1", "seed": EXAMPLE1_SEED, "rho": RHO})
        rc, _ = cli("certify", "--config", cfg, "--out", work / "cert")
        return {"ex1": ex1, "rc": rc, "cert": (work / "cert" / "certificate.json").resolve()}

    def rounds(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            yield [{"x0": matrix(2.0 * rng.standard_normal((self.BATCH, 3)))}]

    def run(self, state, item, out: Path):
        t0 = time.perf_counter()
        cfg = write_json(out / "simulate.json", {
            "schema": 1, "system": "example1", "seed": EXAMPLE1_SEED,
            "dt": self.DT, "horizon": self.HORIZON,
            "initial_conditions": item["x0"], "certificate": str(state["cert"])})
        rc, sim_s = cli("simulate", "--config", cfg, "--out", out / "sim")
        return {"item": item, "out": out, "rc": rc, "sim_s": sim_s,
                "busy": time.perf_counter() - t0}

    def setup_problem(self, state) -> str | None:
        if state["rc"] != 0:
            return f"set-up certify exit {state['rc']}"
        ex1 = state["ex1"]
        cert = LureCertificate.from_dict(read_json(state["cert"]))
        ok, _ = verify_certificate(LtiPlant(a=ex1.a, b=ex1.b), ex1.k, cert, tol=VERIFY_TOL)
        ref = eta_reference(ex1.a, ex1.b, ex1.k, RHO)
        if not ok or not 0.0 < cert.eta <= ref * (1.0 + ETA_SLACK):
            return f"example-1 certificate invalid (eta {cert.eta!r}, reference {ref!r})"
        return None

    def gate(self, state, records):
        failed, notes = set(), []
        problem = self.setup_problem(state)
        if problem:
            failed.add(-1)
            notes.append(problem)
        rows = int(round(self.HORIZON / self.DT)) + 1
        for i, rec in enumerate(records):
            problem = self._check(rec, rows)
            if problem:
                failed.add(i)
                notes.append(f"batch {i}: {problem}")
            else:
                rec["samples"] = rows * self.BATCH
        return failed, notes, {}

    def _check(self, rec, rows) -> str | None:
        if rec["rc"] != 0:
            return f"simulate exit {rec['rc']}"
        report = read_json(rec["out"] / "sim" / "simulate_report.json")
        if len(report["trajectories"]) != self.BATCH:
            return "wrong trajectory count"
        problem = _check_trajectories(rec["out"] / "sim", report, rows, "norm_P")
        if problem:
            return problem
        for entry in report["trajectories"]:
            if not (entry["envelope"]["passed"] and entry["lyapunov"]["passed"]):
                return f"trajectory {entry['index']} breaks the certified envelope"
            eq = entry.get("equilibrium")
            if eq is not None and not eq["is_origin"]:
                return f"trajectory {entry['index']} settled away from the origin"
        return None

    def metrics(self, records):
        return _simulate_metrics(records)


def _example2_h(x) -> float:
    return float(x[0] ** 2 + (x[1] - 4.0) ** 2 - 4.0)


class SimulateCbf:
    """Example 2 (halfspace plus box) on the documented 12-point grid."""

    name = "simulate_cbf"
    DT = 1e-3
    LONG = 30.0
    SADDLE = 3.5
    M_FIT_BUDGET = 1000.0

    def setup(self, work: Path):
        grid = synthesis.example2_grid()
        configs = {}
        for row, x0 in enumerate(grid):
            saddle = row == len(grid) - 1
            cfg = {"schema": 1, "system": "example2", "dt": self.DT,
                   "horizon": self.SADDLE if saddle else self.LONG,
                   "initial_conditions": [matrix(x0)]}
            if not saddle:
                cfg["m_fit_budget"] = self.M_FIT_BUDGET
            configs[row] = write_json(work / f"row{row:02d}.json", cfg)
        return {"grid": grid, "configs": configs}

    def rounds(self, seed: int):
        """A round is the whole grid, so every run covers every row (rows
        differ by 40% in steps/s); the seed only orders the rows."""
        rng = np.random.default_rng(seed)
        while True:
            yield [{"row": int(row)} for row in rng.permutation(12)]

    def run(self, state, item, out: Path):
        rc, sim_s = cli("simulate", "--config", state["configs"][item["row"]],
                        "--out", out / "sim")
        return {"item": item, "out": out, "rc": rc, "sim_s": sim_s, "busy": sim_s}

    def gate(self, state, records):
        failed, notes = set(), []
        for i, rec in enumerate(records):
            problem = self._check(rec)
            if problem:
                failed.add(i)
                notes.append(f"row {rec['item']['row']}: {problem}")
        return failed, notes, {}

    def _check(self, rec) -> str | None:
        if rec["rc"] != 0:
            return f"simulate exit {rec['rc']}"
        saddle = rec["item"]["row"] == 11
        horizon = self.SADDLE if saddle else self.LONG
        rows = int(round(horizon / self.DT)) + 1
        report = read_json(rec["out"] / "sim" / "simulate_report.json")
        problem = _check_trajectories(rec["out"] / "sim", report, rows, "h")
        if problem:
            return problem
        entry = report["trajectories"][0]
        eq = entry.get("equilibrium")
        if not entry.get("safety_passed") or eq is None:
            return "unsafe or not settled"
        if saddle:
            if eq["is_origin"] or abs(_example2_h(eq["point"])) > 1e-3:
                return "saddle row missed the boundary equilibrium"
        elif not eq["is_origin"] or not entry["m_fit_x0"] < self.M_FIT_BUDGET:
            return "interior row did not converge to the origin within the rate fit"
        rec["samples"] = rows
        return None

    def metrics(self, records):
        return _simulate_metrics(records)


# --------------------------------------------------------------------------
# project_families


POLY_ROWS = np.vstack([[1.0, 1.0], [1.0, -2.0], [-1.5, 0.3], np.eye(2), -np.eye(2)])


def _poly_bounds(x) -> np.ndarray:
    return np.array([2.0 + 0.1 * float(x @ x), 3.0, 2.5, 2.0, 2.0, 2.0, 2.0])


def _rows_box(x):
    v = math.exp(-0.5 * float(x @ x))
    return np.vstack([np.eye(2), -np.eye(2)]), np.full(4, v)


def _rows_halfspace_box(x):
    normal = -np.array([2.0 * x[0], 2.0 * (x[1] - 4.0)])
    return np.vstack([normal, np.eye(2), -np.eye(2)]), \
        np.concatenate([[_example2_h(x)], np.ones(4)])


def _rows_polyhedron(x):
    return POLY_ROWS, _poly_bounds(x)


def _strict_box(x) -> bool:
    return math.exp(-0.5 * float(x @ x)) > 0.0


def _strict_halfspace_box(x) -> bool:
    """Closed form: the box's lowest value of the halfspace row sits below
    its offset by more than the 1e-12 margin strictly_feasible documents."""
    rows, bounds = _rows_halfspace_box(x)
    return -float(np.abs(rows[0]).sum()) < bounds[0] - 1e-12


def _strict_polyhedron(x) -> bool:
    return True  # u = 0 clears every row by at least 2


class ProjectFamilies:
    """Criterion-3 shape: frozen states, strict feasibility, projection pairs."""

    name = "project_families"
    projects = True  # calls project_feasible itself; see layers.py
    PAIRS = 500
    STRATA = 8
    RADIUS = 10.0
    # family key -> (state dimension, reference rows, reference strictness)
    REFERENCE = {
        "box": (3, _rows_box, _strict_box),
        "halfspace_box": (2, _rows_halfspace_box, _strict_halfspace_box),
        "polyhedron": (2, _rows_polyhedron, _strict_polyhedron),
    }

    def setup(self, work: Path):
        ex1 = synthesis.example1_setup(EXAMPLE1_SEED)
        return {"families": {
            "box": families.StateBox(bound=ex1.bound),
            "halfspace_box": synthesis.example2_system().controller.family,
            "polyhedron": families.AffineInequalities(
                matrix=lambda x: POLY_ROWS, bound=_poly_bounds),
        }}

    def _ball(self, rng, count):
        d = rng.standard_normal((count, 2))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return self.RADIUS * np.sqrt(rng.random((count, 1))) * d

    def rounds(self, seed: int):
        """Items of STRATA frozen states per family, each with PAIRS z-pairs.

        States are x = 2 N(0, I) as in criterion 3.  The polyhedron depends
        on x only through |x|^2, which is exponential with mean 8 in two
        dimensions, so within a round its |x|^2 is drawn from each of STRATA
        equal-probability bins once: every run then sees the same mix of
        easy and near-degenerate polyhedra, with the marginal unchanged.
        """
        rng = np.random.default_rng(seed)
        while True:
            bins = rng.permutation(self.STRATA)
            round_ = []
            for k in bins:
                item = {}
                for key, (dim, _, _) in self.REFERENCE.items():
                    if key == "polyhedron":
                        u = (k + rng.random(8)) / self.STRATA
                        angle = 2.0 * np.pi * rng.random(8)
                        radius = np.sqrt(-8.0 * np.log1p(-u))
                        states = radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1)
                    else:
                        states = 2.0 * rng.standard_normal((8, dim))
                    item[key] = {"states": states,
                                 "z1": self._ball(rng, self.PAIRS),
                                 "z2": self._ball(rng, self.PAIRS)}
                round_.append(item)
            yield round_

    def run(self, state, item, out: Path):
        rec = {"item": item, "busy": 0.0, "projections": 0}
        for key, fam in state["families"].items():
            data = item[key]
            verdicts, u1, u2 = [], [], []
            t0 = time.perf_counter()
            try:
                for x in data["states"]:
                    verdicts.append(families.strictly_feasible(fam, x))
                    if verdicts[-1]:
                        break
                for z1, z2 in zip(data["z1"], data["z2"]):
                    u1.append(families.project_feasible(fam, x, z1).u)
                    u2.append(families.project_feasible(fam, x, z2).u)
            except (ValueError, RuntimeError) as exc:
                rec.setdefault("errors", []).append(f"{key}: {exc}")
            rec["busy"] += time.perf_counter() - t0
            rec["projections"] += len(u1) + len(u2)
            rec[key] = {"verdicts": verdicts, "x": x, "u1": u1, "u2": u2}
        return rec

    def gate(self, state, records):
        failed, notes = set(), []
        for i, rec in enumerate(records):
            for err in rec.get("errors", []):
                failed.add(i)
                notes.append(f"item {i}: {err}")
        for key, (_, rows_fn, strict_fn) in self.REFERENCE.items():
            owners, rows, bounds, zs, us = [], [], [], [], []
            for i, rec in enumerate(records):
                res, data = rec[key], rec["item"][key]
                expected = [strict_fn(x) for x in data["states"][:len(res["verdicts"])]]
                if res["verdicts"] != expected or not any(res["verdicts"]):
                    failed.add(i)
                    notes.append(f"item {i} {key}: strict-feasibility verdicts "
                                 f"{res['verdicts']} != {expected}")
                    continue
                if len(res["u1"]) != self.PAIRS or len(res["u2"]) != self.PAIRS:
                    continue
                a, b = rows_fn(res["x"])
                cocoer = cocoercivity_violation(data["z1"], data["z2"],
                                                np.array(res["u1"]), np.array(res["u2"]))
                if cocoer.max() > COCOERCIVITY_TOL:
                    failed.add(i)
                    notes.append(f"item {i} {key}: cocoercivity violated by {cocoer.max():.2e}")
                for z, u in ((data["z1"], res["u1"]), (data["z2"], res["u2"])):
                    owners += [i] * len(u)
                    rows.append(np.broadcast_to(a, (len(u),) + a.shape))
                    bounds.append(np.broadcast_to(b, (len(u),) + b.shape))
                    zs.append(z)
                    us.append(np.array(u))
            if not owners:
                continue
            z = np.concatenate(zs)
            exact = project_brute_force(np.concatenate(rows), np.concatenate(bounds), z)
            err = np.abs(np.concatenate(us) - exact).max(axis=1)
            bad = ~(err <= PROJ_TOL * (1.0 + np.linalg.norm(z, axis=1)))
            for j in np.nonzero(bad)[0]:
                failed.add(owners[j])
                notes.append(f"item {owners[j]} {key}: projection off by {err[j]:.2e}")
        return failed, notes, {}

    def metrics(self, records):
        return {"projections_per_s": (sum(r["projections"] for r in records)
                                      / sum(r["busy"] for r in records), "1/s")}


WORKLOADS = {w.name: w for w in (CertifyRandom(), SimulateSaturation(),
                                 SimulateCbf(), ProjectFamilies())}
