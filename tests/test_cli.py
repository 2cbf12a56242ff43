import json

import numpy as np
import pytest

from lurestab.cli import main
from lurestab.lure import LtiPlant, LureCertificate, verify_certificate


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


SCALAR_SYSTEM = {"A": [[-1.0]], "B": [[1.0]], "K": [[-1.0]]}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_strict_json_tree(root):
    """Every .json file under root parses without NaN or Infinity."""
    for path in sorted(root.rglob("*.json")) if root.exists() else ():
        json.loads(path.read_text(), parse_constant=_reject_constant)


def assert_input_error(capsys, rc, out_dir):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert_strict_json_tree(out_dir)


def test_certify_scalar_feasible(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"schema": 1, "system": SCALAR_SYSTEM, "rho": 1.0})
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "certify_report.json").read_text())
    assert report["status"] == "feasible"
    assert abs(report["eta_star"] - 1.0) <= 2e-3
    assert report["verified"] is True


def test_certify_round_trip_reverifies(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"schema": 1, "system": SCALAR_SYSTEM, "rho": 1.0})
    out = tmp_path / "run"
    main(["certify", "--config", cfg, "--out", str(out)])
    cert = LureCertificate.from_dict(
        json.loads((out / "certificate.json").read_text()))
    plant = LtiPlant(a=[[-1.0]], b=[[1.0]])
    ok, _ = verify_certificate(plant, [[-1.0]], cert, tol=2e-8)
    assert ok


def test_certify_unstable_plant_exit_one(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema": 1,
        "system": {"A": [[1.0]], "B": [[0.0]], "K": [[0.0]]},
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 1


def test_certify_missing_field_exit_two(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"schema": 1, "system": {"A": [[-1.0]], "K": [[0.0]]}})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


def test_certify_bad_schema_exit_two(tmp_path):
    cfg = write_config(tmp_path / "c.json", {"schema": 2, "system": SCALAR_SYSTEM})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("field, text", [
    ("eta_hi", '"2"'), ("rho", '"nan"'), ("rho", "NaN"), ("eta_lo", "true"),
    ("bisect_tol", "-Infinity"), ("rho", "1e400"), ("eta_hi", "[2]"),
])
def test_certify_non_finite_or_non_numeric_field_exit_two(tmp_path, capsys, field, text):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"schema": 1, "system": {"A": [[-1.0]], "B": [[1.0]], '
                   f'"K": [[-1.0]]}}, "{field}": {text}}}')
    out = tmp_path / "run"
    rc = main(["certify", "--config", str(cfg), "--out", str(out)])
    assert_input_error(capsys, rc, out)
    assert not out.exists()


def test_certify_ignores_retired_search_keys(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema": 1, "system": SCALAR_SYSTEM,
        "feas_margin": 1e-6, "max_inner_iters": 5000,
    })
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


def test_certify_deterministic_outputs_and_probe_record(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "schema": 1, "system": "example1", "seed": 42, "rho": 1.0,
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["certify", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["certify", "--config", cfg, "--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["certificate.json", "certify_report.json"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert_strict_json_tree(out_a)
    report = json.loads((out_a / "certify_report.json").read_text())
    probes = report["probes"]
    assert len(probes) == report["feasibility_solves"]
    assert all(set(p) == {"eta", "verdict"} for p in probes)
    assert {p["verdict"] for p in probes} <= {"feasible", "infeasible", "inconclusive"}
    assert probes[-1] == {"eta": report["eta_star"], "verdict": "feasible"}


def test_simulate_dt_exceeding_horizon_exit_two(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.001,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_simulate_example2_safety(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.002, "horizon": 1.5,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["trajectories"]) == 12
    assert all(entry["min_h"] >= -1e-6 for entry in report["trajectories"])
    first_csv = (out / "traj_000.csv").read_text().splitlines()
    assert first_csv[0] == "t,x1,x2,u1,u2,h"


def test_simulate_example1_with_certificate(tmp_path):
    certify_cfg = write_config(tmp_path / "c.json",
                               {"schema": 1, "system": "example1", "seed": 42})
    cert_dir = tmp_path / "cert"
    assert main(["certify", "--config", certify_cfg, "--out", str(cert_dir)]) == 0
    sim_cfg = write_config(tmp_path / "s.json", {
        "schema": 1,
        "system": "example1",
        "seed": 42,
        "dt": 0.001,
        "horizon": 2.0,
        "sampling": {"count": 3, "seed": 4242, "scale": 2.0},
        "certificate": str(cert_dir / "certificate.json"),
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", sim_cfg, "--out", str(out)]) == 0
    report = json.loads((out / "simulate_report.json").read_text())
    for entry in report["trajectories"]:
        assert entry["termination"] == "completed"
        assert entry["envelope"]["passed"] is True
        assert entry["lyapunov"]["passed"] is True
    csv_head = (out / "traj_000.csv").read_text().splitlines()[0]
    assert csv_head == "t,x1,x2,x3,u1,u2,norm_P"


def test_simulate_infeasible_x0_recorded(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[0.0, 8.0], [0.0, 4.0], [3.0, 3.0]],
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "simulate_report.json").read_text())
    entries = report["trajectories"]
    assert "error" in entries[1] and "csv" not in entries[1]
    assert entries[0]["termination"] == "completed"
    assert entries[2]["termination"] == "completed"


def test_simulate_deterministic_outputs(tmp_path):
    payload = {
        "schema": 1, "system": "example2", "dt": 0.002, "horizon": 1.0,
        "sampling": {"count": 4, "seed": 9, "scale": 1.0},
    }
    cfg = write_config(tmp_path / "s.json", payload)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) in (0, 1)
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) in (0, 1)
    for name in sorted(p.name for p in out_a.iterdir()):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert_strict_json_tree(out_a)


@pytest.mark.parametrize("fields", [
    '"initial_conditions": [[1e400, 1.0]]',
    '"initial_conditions": [[null, 1.0]]',
    '"initial_conditions": [[0.0, 8.0], [1.0]]',
    '"sampling": 5',
    '"sampling": {"seed": 3, "count": 2.5}',
    '"sampling": {"seed": 3, "scale": Infinity}',
    '"dt": "0.01"',
], ids=["x0-overflow", "x0-null", "x0-ragged", "sampling-scalar",
        "sampling-fractional-count", "sampling-inf-scale", "dt-string"])
def test_simulate_malformed_input_exit_two(tmp_path, capsys, fields):
    cfg = tmp_path / "s.json"
    cfg.write_text('{"schema": 1, "system": "example2", "horizon": 0.5, ' + fields + "}")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert_input_error(capsys, rc, out)


@pytest.mark.parametrize("p", [np.eye(2).tolist(), [1.0, 0.0, 0.0, 1.0], [[1.0, "x"]]])
def test_simulate_certificate_wrong_shape_exit_two(tmp_path, capsys, p):
    cert = tmp_path / "certificate.json"
    cert.write_text(json.dumps({"P": p, "eta": 0.5, "lambda": 1.0, "rho": 1.0,
                                "lmi_max_eig": -1.0}))
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example1", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[1.0, 0.0, 0.0]], "certificate": "certificate.json",
    })
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert_input_error(capsys, rc, out)


def test_simulate_overflowing_rate_fit_is_null_not_infinity(tmp_path):
    # exp(100 t) overflows over a 40 s horizon: the report stays strict
    # JSON and the overflowed fit fails its budget
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 40.0,
        "initial_conditions": [[-1.0, 1.0]], "rate_eta": 100.0, "m_fit_budget": 1e3,
    })
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert_strict_json_tree(out)
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["equilibrium"]["is_origin"] is True
    assert entry["m_fit"] is None and entry["m_fit_x0"] is None


def test_simulate_origin_x0_skips_rate_fit(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[0.0, 0.0]],
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["equilibrium"]["is_origin"] is True and "m_fit" not in entry


def test_lqr_scalar(tmp_path):
    cfg = write_config(tmp_path / "l.json", {
        "schema": 1, "A": [[0.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
    })
    out = tmp_path / "gain.json"
    assert main(["lqr", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["K"][0][0] + 1.0) <= 1e-10


def test_lqr_no_control(tmp_path):
    cfg = write_config(tmp_path / "l.json", {
        "schema": 1, "A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[0.0], [0.0]],
        "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
    })
    out = tmp_path / "gain.json"
    assert main(["lqr", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert np.abs(np.asarray(data["K"])).max() <= 1e-12


def test_lqr_malformed_q(tmp_path):
    cfg = write_config(tmp_path / "l.json", {
        "schema": 1, "A": [[0.0]], "B": [[1.0]], "Q": [["x"]], "R": [[1.0]],
    })
    assert main(["lqr", "--config", cfg, "--out", str(tmp_path / "gain.json")]) == 2


def test_report_merges_runs(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       {"schema": 1, "system": SCALAR_SYSTEM})
    main(["certify", "--config", cfg, "--out", str(tmp_path / "r1")])
    sim_cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[3.0, 3.0]],
    })
    main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "r2")])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "r1"), str(tmp_path / "r2")]) == 0
    text = capsys.readouterr().out
    assert "certify" in text
    assert "min_h=" in text


def test_report_empty_dir_exit_two(tmp_path):
    (tmp_path / "empty").mkdir()
    assert main(["report", str(tmp_path / "empty")]) == 2


def test_report_verdict_is_pure_function_of_files(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "schema": 1, "system": {"A": [[1.0]], "B": [[0.0]], "K": [[0.0]]},
    })
    main(["certify", "--config", cfg, "--out", str(tmp_path / "r")])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "r")]) == 1
    assert main(["report", str(tmp_path / "r")]) == 1
