"""Command-line front end: certify, simulate, lqr, report.

Configs are versioned JSON ({"schema": 1}) with matrices as row-major
nested arrays.  Exit codes: 0 pass, 1 analytic failure (infeasible /
check failed / not stabilizable), 2 input error, 3 inconclusive.
All randomness is seed-keyed through the config, so identical configs
produce byte-identical CSV and JSON outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .lure import (
    INCONCLUSIVE,
    FEASIBLE,
    CertSearchConfig,
    LtiPlant,
    LureCertificate,
    max_contraction_rate,
    verify_certificate,
)
from .rng import RandomSource
from .sim import (
    ClosedLoopSystem,
    SimConfig,
    Termination,
    check_decay_envelope,
    check_lyapunov_decrease,
    check_safety,
    detect_equilibrium,
    fit_semiglobal_rate,
    integrate,
    write_trajectory_csv,
)
from .synthesis import (
    EXAMPLE2_ETA,
    CareError,
    LqrWeights,
    build_saturation_system,
    example1_setup,
    example2_grid,
    example2_h,
    example2_system,
    solve_care,
)
from .families import StateBox, ProjectionController

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    """Malformed run configuration; message names the offending field."""


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigError('field "schema" must be 1')
    return cfg


def _matrix(cfg: dict, field: str, rows: int | None = None,
            cols: int | None = None) -> np.ndarray:
    if field not in cfg:
        raise ConfigError(f'missing field "{field}"')
    try:
        mat = np.asarray(cfg[field], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f'field "{field}" is not a numeric matrix') from exc
    if mat.ndim != 2 or not np.all(np.isfinite(mat)):
        raise ConfigError(f'field "{field}" must be a finite 2-D matrix')
    if rows is not None and mat.shape[0] != rows:
        raise ConfigError(f'field "{field}" must have {rows} rows')
    if cols is not None and mat.shape[1] != cols:
        raise ConfigError(f'field "{field}" must have {cols} columns')
    return mat


def _number(cfg: dict, field: str, default=None, label: str | None = None) -> float:
    """Finite JSON number at ``field`` (``default`` when absent or null)."""
    value = cfg.get(field)
    if value is None:
        if default is None:
            raise ConfigError(f'missing field "{label or field}"')
        return float(default)
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        number = float(value) if numeric else np.nan
    except OverflowError:  # an integer beyond float range
        number = np.inf
    if not np.isfinite(number):
        raise ConfigError(f'field "{label or field}" must be a finite number')
    return number


def _integer(cfg: dict, field: str, default=None, label: str | None = None) -> int:
    value = _number(cfg, field, default, label)
    if value != int(value):
        raise ConfigError(f'field "{label or field}" must be an integer')
    return int(value)


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _resolve_certify_system(cfg: dict):
    system = cfg.get("system")
    if system == "example1":
        ex1 = example1_setup(_integer(cfg, "seed", 42))
        return LtiPlant(a=ex1.a, b=ex1.b), ex1.k
    if isinstance(system, dict):
        a = _matrix(system, "A")
        b = _matrix(system, "B", rows=a.shape[0])
        k = _matrix(system, "K", rows=b.shape[1], cols=a.shape[0])
        return LtiPlant(a=a, b=b), k
    raise ConfigError('field "system" must be "example1" or an {"A","B","K"} object')


def cmd_certify(config_path: str, out_dir: str) -> int:
    t_start = time.perf_counter()
    try:
        cfg = _load_config(config_path)
        plant, k = _resolve_certify_system(cfg)
        defaults = CertSearchConfig()
        search = CertSearchConfig(
            eta_lo=_number(cfg, "eta_lo", defaults.eta_lo),
            eta_hi=None if cfg.get("eta_hi") is None else _number(cfg, "eta_hi"),
            bisect_tol=_number(cfg, "bisect_tol", defaults.bisect_tol),
        )
        rho = _number(cfg, "rho", 1.0)
        if rho <= 0:
            raise ConfigError('field "rho" must be positive')
    except (ConfigError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    result = max_contraction_rate(plant, k, rho=rho, cfg=search)
    out = Path(out_dir)
    report = {
        "schema": 1,
        "command": "certify",
        "status": result.status,
        "eta_star": result.eta_star,
        "bracket": list(result.bracket),
        "feasibility_solves": result.feasibility_solves,
        "probes": [{"eta": eta, "verdict": verdict} for eta, verdict in result.probes],
        "certificate": result.certificate.to_dict() if result.certificate else None,
    }
    if result.certificate is not None:
        passed, ver = verify_certificate(
            plant, k, result.certificate, tol=1e-8 * (1.0 + float(np.linalg.norm(plant.a)))
        )
        report["verified"] = bool(passed)
        report["lmi_max_eig"] = ver.lmi_max_eig
        _write_json(out / "certificate.json", result.certificate.to_dict())
    _write_json(out / "certify_report.json", report)
    print(f"certify: {result.status}"
          + (f", eta* = {result.eta_star:.6g}" if result.eta_star else "")
          + f"  [{time.perf_counter() - t_start:.2f}s]")
    if result.status == FEASIBLE:
        return EXIT_PASS
    if result.status == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def _resolve_simulate_system(cfg: dict):
    """Returns (system, h, rate_eta, label)."""
    system = cfg.get("system")
    if system == "example1":
        ex1 = example1_setup(_integer(cfg, "seed", 42))
        return build_saturation_system(ex1.a, ex1.b, ex1.k, ex1.bound), None, None, "example1"
    if system == "example2":
        return example2_system(), example2_h, EXAMPLE2_ETA, "example2"
    if isinstance(system, dict):
        a = _matrix(system, "A")
        b = _matrix(system, "B", rows=a.shape[0])
        k = _matrix(system, "K", rows=b.shape[1], cols=a.shape[0])
        if "bounds" not in system:
            raise ConfigError('explicit system needs constant box "bounds"')
        try:
            bounds = np.asarray(system["bounds"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError('field "bounds" is not numeric') from exc
        if bounds.shape != (b.shape[1],) or not np.all(np.isfinite(bounds) & (bounds > 0)):
            raise ConfigError('field "bounds" must be a positive m-vector')
        family = StateBox(bound=lambda x, v=bounds: v)
        sys_ = ClosedLoopSystem(
            plant=LtiPlant(a=a, b=b),
            controller=ProjectionController(gain=k, family=family),
        )
        return sys_, None, None, "explicit"
    raise ConfigError('field "system" must be "example1", "example2", or explicit')


def _resolve_x0s(cfg: dict, state_dim: int) -> list[np.ndarray]:
    if cfg.get("initial_conditions") is not None:
        return list(_matrix(cfg, "initial_conditions", cols=state_dim))
    if cfg.get("sampling") is not None:
        spec = cfg["sampling"]
        if not isinstance(spec, dict):
            raise ConfigError('field "sampling" must be an object')
        if "seed" not in spec:
            raise ConfigError('field "sampling.seed" is required (seeds are explicit)')
        count = _integer(spec, "count", 10, "sampling.count")
        scale = _number(spec, "scale", 1.0, "sampling.scale")
        src = RandomSource(_integer(spec, "seed", label="sampling.seed"))
        return [scale * src.normals(state_dim) for _ in range(count)]
    if cfg.get("system") == "example2":
        return [np.asarray(x, dtype=float) for x in example2_grid()]
    raise ConfigError('need "initial_conditions" or "sampling"')


def _load_certificate(cfg: dict, config_path: str,
                      state_dim: int) -> LureCertificate | None:
    ref = cfg.get("certificate")
    if ref is None:
        return None
    path = Path(ref)
    if not path.is_absolute():
        path = Path(config_path).parent / path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = LureCertificate.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f'field "certificate": cannot load {ref}: {exc}') from exc
    if cert.p.shape != (state_dim, state_dim) or not np.all(np.isfinite(cert.p)):
        raise ConfigError(f'field "certificate": P must be a finite '
                          f'{state_dim}x{state_dim} matrix, got shape {cert.p.shape}')
    return cert


def cmd_simulate(config_path: str, out_dir: str) -> int:
    t_start = time.perf_counter()
    try:
        cfg = _load_config(config_path)
        system, h_fn, rate_eta, label = _resolve_simulate_system(cfg)
        sim_cfg = SimConfig(
            dt=_number(cfg, "dt", 1e-3),
            horizon=_number(cfg, "horizon", 15.0),
            blowup_norm=_number(cfg, "blowup_norm", 1e8),
        )
        x0s = _resolve_x0s(cfg, system.plant.state_dim)
        cert = _load_certificate(cfg, config_path, system.plant.state_dim)
        envelope_slack = _number(cfg, "envelope_slack", 1e-6)
        equilibrium_tol = _number(cfg, "equilibrium_tol", 1e-6)
        safety_tol = _number(cfg, "safety_tol", 1e-6)
        if cfg.get("rate_eta") is not None:
            rate_eta = _number(cfg, "rate_eta")
        m_fit_budget = (None if cfg.get("m_fit_budget") is None
                        else _number(cfg, "m_fit_budget"))
    except (ConfigError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    all_passed = True
    for idx, x0 in enumerate(x0s):
        entry: dict = {"index": idx, "x0": [float(v) for v in x0]}
        try:
            traj = integrate(system, x0, sim_cfg)
        except ValueError as exc:
            entry["error"] = str(exc)
            all_passed = False
            entries.append(entry)
            continue
        csv_name = f"traj_{idx:03d}.csv"
        write_trajectory_csv(traj, out / csv_name,
                             p=cert.p if cert else None, h=h_fn)
        entry["csv"] = csv_name
        entry["termination"] = traj.termination.value
        if traj.termination is not Termination.COMPLETED:
            all_passed = False
        if cert is not None:
            env = check_decay_envelope(traj, cert.p, cert.eta, slack=envelope_slack)
            fd_tol = 10.0 * sim_cfg.dt ** 2 * (1.0 + float(x0 @ x0))
            lyap = check_lyapunov_decrease(traj, cert.p, cert.eta, fd_tol)
            entry["envelope"] = {
                "passed": bool(env.passed),
                "max_violation": env.max_violation,
                "first_violation_time": env.first_violation_time,
            }
            entry["lyapunov"] = {"passed": bool(lyap.passed),
                                 "worst_slack": lyap.worst_slack}
            all_passed = all_passed and env.passed and lyap.passed
        if h_fn is not None:
            safety = check_safety(traj, h_fn, tol=safety_tol)
            entry["min_h"] = safety.min_h
            entry["safety_passed"] = bool(safety.passed)
            all_passed = all_passed and safety.passed
        if traj.termination is Termination.COMPLETED:
            eq = detect_equilibrium(traj, system.controller, tol=equilibrium_tol)
            if eq is not None:
                entry["equilibrium"] = {
                    "point": [float(v) for v in eq.point],
                    "is_origin": eq.is_origin,
                    "controller_norm": eq.controller_norm,
                }
                if eq.is_origin and rate_eta is not None and np.any(x0):
                    fit = fit_semiglobal_rate(traj, rate_eta)
                    m_fit_x0 = fit.m_fit * float(np.linalg.norm(x0))
                    # exp(rate_eta t) overflows for a rate far above the
                    # loop's; JSON has no infinity, so such a fit is null
                    finite = bool(np.isfinite(m_fit_x0))
                    entry["m_fit"] = fit.m_fit if finite else None
                    entry["m_fit_x0"] = m_fit_x0 if finite else None
                    if m_fit_budget is not None and not m_fit_x0 < m_fit_budget:
                        all_passed = False
        entries.append(entry)

    report = {
        "schema": 1,
        "command": "simulate",
        "system": label,
        "dt": sim_cfg.dt,
        "horizon": sim_cfg.horizon,
        "checks": {
            "envelope": cert is not None,
            "lyapunov": cert is not None,
            "safety": h_fn is not None,
        },
        "trajectories": entries,
        "all_passed": bool(all_passed),
    }
    _write_json(out / "simulate_report.json", report)
    print(f"simulate: {len(entries)} runs, all_passed={all_passed}  "
          f"[{time.perf_counter() - t_start:.2f}s]")
    return EXIT_PASS if all_passed else EXIT_FAIL


def cmd_lqr(config_path: str, out_path: str) -> int:
    try:
        cfg = _load_config(config_path)
        a = _matrix(cfg, "A")
        b = _matrix(cfg, "B", rows=a.shape[0])
        q = _matrix(cfg, "Q", rows=a.shape[0], cols=a.shape[0])
        r = _matrix(cfg, "R", rows=b.shape[1], cols=b.shape[1])
        weights = LqrWeights(q=q, r=r)
    except (ConfigError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        sol = solve_care(a, b, weights)
    except CareError as exc:
        print(f"lqr failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    payload = {
        "schema": 1,
        "command": "lqr",
        "K": [[float(v) for v in row] for row in sol.k],
        "X": [[float(v) for v in row] for row in sol.x],
        "residual": sol.residual,
    }
    _write_json(Path(out_path), payload)
    print(f"lqr: residual {sol.residual:.3e}")
    return EXIT_PASS


def _format_report_row(path: Path, data: dict) -> list[str]:
    rows = []
    if data.get("command") == "certify":
        eta = data.get("eta_star")
        rows.append(
            f"{str(path):<40} certify   status={data.get('status'):<12} "
            f"eta*={eta if eta is not None else '-':<10}"
        )
    elif data.get("command") == "simulate":
        for entry in data.get("trajectories", []):
            min_h = entry.get("min_h")
            env = entry.get("envelope") or {}
            m_fit = entry.get("m_fit")
            rows.append(
                f"{str(path):<40} run {entry['index']:>3}   "
                f"term={entry.get('termination', 'error'):<20} "
                f"env={env.get('passed', '-')!s:<6} "
                f"viol={env.get('max_violation', '-')!s:<12.12} "
                f"M={'-' if m_fit is None else f'{m_fit:.4g}':<10} "
                + (f"min_h={min_h:.6g}" if min_h is not None else "min_h=-")
            )
    return rows


def cmd_report(dirs: list[str]) -> int:
    reports = []
    for d in dirs:
        base = Path(d)
        if not base.is_dir():
            print(f"input error: not a directory: {d}", file=sys.stderr)
            return EXIT_INPUT
        for name in sorted(base.rglob("*_report.json")):
            try:
                with open(name, "r", encoding="utf-8") as fh:
                    reports.append((name, json.load(fh)))
            except (OSError, json.JSONDecodeError) as exc:
                print(f"input error: cannot read {name}: {exc}", file=sys.stderr)
                return EXIT_INPUT
    if not reports:
        print("input error: no run reports found", file=sys.stderr)
        return EXIT_INPUT

    any_failed = False
    for path, data in reports:
        for line in _format_report_row(path, data):
            print(line)
        if data.get("command") == "certify":
            any_failed = any_failed or data.get("status") != FEASIBLE
        elif data.get("command") == "simulate":
            any_failed = any_failed or not data.get("all_passed", False)
    return EXIT_FAIL if any_failed else EXIT_PASS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lurestab",
        description="Certify and simulate LTI loops with projection controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_certify = sub.add_parser("certify", help="search for a contraction certificate")
    p_certify.add_argument("--config", required=True)
    p_certify.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="integrate the closed loop and run checks")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_lqr = sub.add_parser("lqr", help="solve the Riccati equation for a gain")
    p_lqr.add_argument("--config", required=True)
    p_lqr.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="summarize saved run reports")
    p_rep.add_argument("dirs", nargs="+")

    args = parser.parse_args(argv)
    if args.command == "certify":
        return cmd_certify(args.config, args.out)
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out)
    if args.command == "lqr":
        return cmd_lqr(args.config, args.out)
    return cmd_report(args.dirs)


if __name__ == "__main__":
    sys.exit(main())
