import importlib
import json
import pkgutil
import warnings

import numpy as np
import pytest

import lurestab
from lurestab import cli, lure
from lurestab.cli import main
from lurestab.families import ROUNDING_SLACK, ProjectionController, StateBox
from lurestab.lure import RATE_BACKOFFS, LtiPlant, LureCertificate, verify_certificate
from lurestab.sim import ClosedLoopSystem, SimConfig, integrate
from lurestab.synthesis import EXAMPLE2_GAIN, example1_setup


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
    return err


def test_certify_scalar_feasible(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"schema": 1, "system": SCALAR_SYSTEM, "rho": 1.0})
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "certify_report.json").read_text())
    assert report["status"] == "feasible"
    assert abs(report["eta_star"] - 1.0) <= 2e-3
    assert report["verified"] is True
    assert "reason" not in report


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
    report = json.loads((tmp_path / "run" / "certify_report.json").read_text())
    assert report["probes"] == []
    assert report["reason"] == ("the open loop decays at -alpha(A) = -1, at or below "
                                "eta_lo = 0.0001, so no faster rate is certifiable")


@pytest.mark.parametrize("system, search, reason", [
    # example 2: a single integrator, A = 0
    ({"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "K": EXAMPLE2_GAIN.tolist()},
     {}, "the open loop decays at -alpha(A) = 0, at or below eta_lo = 0.0001, "
         "so no faster rate is certifiable"),
    # eta_lo is raised to 1e-12, above the configured top
    (SCALAR_SYSTEM, {"eta_lo": 0.0, "eta_hi": 1e-13},
     "the configured eta_hi = 1e-13 is at or below eta_lo = 1e-12; "
     "the open loop decays at -alpha(A) = 1"),
    # rho <= 1: phi(z) = z is rho-cocoercive, and A + B K = 0 decays at 0
    ({"A": [[-1.0]], "B": [[1.0]], "K": [[1.0]]}, {},
     "the closed loop decays at -alpha(A + B K) = 0, at or below eta_lo = 0.0001, "
     "so no faster rate is certifiable"),
    ({"A": [[-1.0]], "B": [[1.0]], "K": [[0.5]]}, {"eta_lo": 0.0, "eta_hi": 1e-13},
     "the configured eta_hi = 1e-13 is at or below eta_lo = 1e-12; "
     "the closed loop decays at -alpha(A + B K) = 0.5"),
], ids=["example2", "configured_eta_hi", "closed_loop", "configured_below_closed_loop"])
def test_certify_reports_why_no_rate_was_probed(tmp_path, system, search, reason):
    cfg = write_config(tmp_path / "c.json", {"schema": 1, "system": system, **search})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    report = json.loads((tmp_path / "run" / "certify_report.json").read_text())
    assert report["status"] == "infeasible" and report["probes"] == []
    assert report["reason"] == reason


def test_certify_jordan_chain_ends_inconclusive(tmp_path, capsys):
    # pins an open defect (CHANGES.md, FOUND: the 3x3 Jordan chain at -1 with
    # B = e3, K = [0, 0, -1] ends inconclusive although eta* = 1): P0 + eps Y
    # is too ill-conditioned at every back-off.  A better-conditioned
    # construction (ROADMAP item 6) flips this test to feasible
    system = {"A": [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]],
              "B": [[0.0], [0.0], [1.0]], "K": [[0.0, 0.0, -1.0]]}
    cfg = write_config(tmp_path / "c.json", {"schema": 1, "system": system})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "run" / "certify_report.json").read_text())
    assert report["status"] == "inconclusive" and report["certificate"] is None
    bisection, attempts = report["probes"][:-3], report["probes"][-3:]
    lo = max(p["eta"] for p in bisection if p["verdict"] == "feasible")
    assert [p["eta"] for p in attempts] == [lo * (1.0 - b) for b in RATE_BACKOFFS]
    assert all(p["verdict"] == "inconclusive" for p in attempts)
    assert all(isinstance(p["margin"], float) for p in attempts)  # finite: not null


def test_certify_missing_field_exit_two(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       {"schema": 1, "system": {"A": [[-1.0]], "K": [[0.0]]}})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2


@pytest.mark.parametrize("command", ["certify", "simulate", "lqr"])
def test_config_directory_is_an_input_error(tmp_path, capsys, command):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    out = tmp_path / "run"
    rc = main([command, "--config", str(config_dir), "--out", str(out)])
    err = assert_input_error(capsys, rc, out)
    assert str(config_dir) in err
    assert not out.exists()


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


@pytest.mark.parametrize("command, payload, overflowed", [
    # B K = -1e400: the closed loop that caps the rate bracket
    ("certify", {"system": {"A": [[-1.0]], "B": [[1e200]], "K": [[-1e200]]}}, "A + B K"),
    # the Riccati data of every probe: B B^T / (2 rho) = 5e319
    ("certify", {"system": {"A": [[-1.0]], "B": [[1e160]], "K": [[-1e-160]]}},
     "B B^T / (2 rho)"),
    ("lqr", {"A": [[-1.0]], "B": [[1e200]], "Q": [[1.0]], "R": [[1.0]]}, "B R^-1 B^T"),
    # B R^-1 B^T = 1e308 is finite, its symmetrized double is not
    ("lqr", {"A": [[-1.0]], "B": [[1e154]], "Q": [[1.0]], "R": [[1.0]]}, "B R^-1 B^T"),
], ids=["certify-closed-loop", "certify-riccati", "lqr", "lqr-symmetrized"])
def test_overflowing_loop_data_is_an_input_error(tmp_path, capsys, command, payload,
                                                 overflowed):
    cfg = write_config(tmp_path / "c.json", {"schema": 1, **payload})
    out = tmp_path / "run"
    target = str(out / "gain.json") if command == "lqr" else str(out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--config", cfg, "--out", target])
    err = assert_input_error(capsys, rc, out)
    assert err == f"input error: {overflowed} overflows the float range\n"
    assert not out.exists()


def test_certify_tiny_rho_prints_no_warning(tmp_path, capsys):
    # K^T K / (2 rho) is finite at rho = 1e-300, but the Hamiltonian's sum of
    # squares is not: its norm is scaled instead
    cfg = write_config(tmp_path / "c.json", {"schema": 1, "system": "example1", "rho": 1e-300})
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert "overflow" not in capsys.readouterr().err
    report = json.loads((out / "certify_report.json").read_text())
    assert report["status"] == "infeasible"
    assert [p["verdict"] for p in report["probes"]] == ["infeasible"]


@pytest.mark.parametrize("bisect_tol", [1e-17, 1e-300])
def test_certify_bisect_tol_below_float_spacing_exits_zero(tmp_path, monkeypatch, bisect_tol):
    # the bisection stops once its ends are adjacent floats; a probe past
    # the budget fails the test, so a bisection that never ends cannot hang it
    real_probe, calls = lure._probe, []

    def probe(*args):
        calls.append(args)
        assert len(calls) <= 200, "the bisection did not stop"
        return real_probe(*args)

    monkeypatch.setattr(lure, "_probe", probe)
    cfg = write_config(tmp_path / "c.json",
                       {"schema": 1, "system": SCALAR_SYSTEM, "bisect_tol": bisect_tol})
    out = tmp_path / "run"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "certify_report.json").read_text())
    assert report["status"] == "feasible" and report["verified"] is True
    assert len(calls) < 100


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
    assert all(set(p) == {"eta", "verdict", "margin"} for p in probes)
    assert {p["verdict"] for p in probes} <= {"feasible", "infeasible", "inconclusive"}
    # a bisection probe's margin is nonnegative, and zero unless it failed;
    # the certificate attempt's is the certificate's top block eigenvalue
    assert all(p["margin"] >= 0.0 and (p["margin"] == 0.0 or p["verdict"] == "infeasible")
               for p in probes[:-1])
    assert probes[-1] == {"eta": report["eta_star"], "verdict": "feasible",
                          "margin": report["certificate"]["lmi_max_eig"]}


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


def test_simulate_evaluates_h_once_per_sample(tmp_path, monkeypatch):
    # h takes the stack of a trajectory's samples: count the rows it evaluates
    rows_evaluated, real_h = [], cli.example2_h

    def counting_h(xs):
        rows_evaluated.append(len(xs))
        return real_h(xs)

    monkeypatch.setattr(cli, "example2_h", counting_h)
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[2.0, 7.0], [-3.0, 5.0]],
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    entries = json.loads((out / "simulate_report.json").read_text())["trajectories"]
    assert sum(rows_evaluated) == sum(entry["steps"] for entry in entries)
    for entry in entries:
        rows = [line.split(",") for line in (out / entry["csv"]).read_text().splitlines()[1:]]
        column = [float(row[-1]) for row in rows]
        assert column == [real_h(np.array(row[1:3], dtype=float)) for row in rows]
        assert min(column) == entry["min_h"]


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
        # the batch leaves its saturated start and runs linear blocks from there
        assert 0 < entry["linear_steps"] < entry["steps"]
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
    '"sampling": {"seed": 3, "count": 0}',
    '"sampling": {"seed": 3, "count": -3}',
    '"sampling": {"seed": 3, "scale": Infinity}',
    '"dt": "0.01"',
    '"dt": 1e-300',
    '"initial_conditions": [[0.0, 8.0]], "certificate": 3',
    '"blowup_norm": -1',
    '"blowup_norm": 0',
], ids=["x0-overflow", "x0-null", "x0-ragged", "sampling-scalar",
        "sampling-fractional-count", "sampling-zero-count", "sampling-negative-count",
        "sampling-inf-scale", "dt-string", "dt-tiny",
        "certificate-not-a-path", "blowup-negative", "blowup-zero"])
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


def test_simulate_flat_certificate_p_exit_two(tmp_path, capsys):
    # to_dict writes P as nested rows; a flattened P is not a certificate
    (tmp_path / "certificate.json").write_text(json.dumps(
        {"P": np.eye(3).ravel().tolist(), "eta": 0.5, "lambda": 1.0, "rho": 1.0,
         "lmi_max_eig": -1.0}))
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example1", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[1.0, 0.0, 0.0]], "certificate": "certificate.json",
    })
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert_input_error(capsys, rc, out)


@pytest.mark.parametrize("cert", [
    {"P": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]], "eta": 0.5},
    {"P": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "eta": 0.5},
    {"P": np.eye(3).tolist(), "eta": 10 ** 400},
    {"P": np.eye(3).tolist(), "eta": 0.0},
    {"P": np.eye(3).tolist(), "eta": -1.0},
], ids=["indefinite", "asymmetric", "eta-overflow", "eta-zero", "eta-negative"])
def test_simulate_unusable_certificate_exit_two(tmp_path, capsys, cert):
    # a rate eta <= 0 claims no contraction: every envelope would pass vacuously
    (tmp_path / "certificate.json").write_text(json.dumps(
        {**cert, "lambda": 1.0, "rho": 1.0, "lmi_max_eig": -1.0}))
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example1", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[1.0, 0.0, 0.0]], "certificate": "certificate.json",
    })
    out = tmp_path / "out"
    rc = main(["simulate", "--config", cfg, "--out", str(out)])
    assert_input_error(capsys, rc, out)


def test_simulate_two_sample_run_checks_lyapunov_exactly(tmp_path):
    # one step leaves two samples, and the exact check reads both: from
    # criterion 4's first x0, example 1's certificate holds there, and half
    # again its rate does not
    cfg = write_config(tmp_path / "c.json", {"schema": 1, "system": "example1"})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "cert")]) == 0
    cert = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    for scale, passed in [(1.0, True), (1.5, False)]:
        (tmp_path / "certificate.json").write_text(json.dumps({**cert, "eta": scale * cert["eta"]}))
        cfg = write_config(tmp_path / "s.json", {
            "schema": 1, "system": "example1", "dt": 0.01, "horizon": 0.01,
            "sampling": {"seed": 4242, "count": 1, "scale": 2.0}, "certificate": "certificate.json",
        })
        out = tmp_path / f"out_{scale}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == (0 if passed else 1)
        entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
        assert entry["steps"] == 2
        lyap = entry["lyapunov"]
        assert lyap["passed"] is passed and isinstance(lyap["worst_slack"], float), lyap
        assert bool(lyap["worst_slack"] <= ROUNDING_SLACK) is passed


def test_simulate_overflowing_rate_fit_is_null_not_infinity(tmp_path, capsys):
    # exp(100 t) passes float range over a 40 s horizon: the fit runs in log
    # space without a warning, the report stays strict JSON and the
    # overflowed fit fails its budget
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 40.0,
        "initial_conditions": [[-1.0, 1.0]], "rate_eta": 100.0, "m_fit_budget": 1e3,
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "overflow" not in capsys.readouterr().err
    assert_strict_json_tree(out)
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["equilibrium"]["is_origin"] is True
    assert entry["m_fit"] is None and entry["m_fit_x0"] is None


def shrinking_region_system() -> ClosedLoopSystem:
    # |u| <= 1 - x2 with x2 growing as exp(t / 2): the region closes when
    # x2 reaches 1, and a saturated x1 runs away as 1 + 4 exp(t) from 5
    plant = LtiPlant(a=np.diag([1.0, 0.5]), b=np.array([[1.0], [0.0]]))
    ctrl = ProjectionController(gain=np.array([[-2.0, 0.0]]),
                                family=StateBox(bound=lambda xs: 1.0 - xs[:, 1:2]))
    return ClosedLoopSystem(plant=plant, controller=ctrl)


def test_simulate_report_records_where_each_row_stopped(tmp_path, monkeypatch):
    # example 1 and 2 never leave their regions, so the loop is swapped
    # for one that does
    system = shrinking_region_system()
    monkeypatch.setattr(cli, "_resolve_simulate_system",
                        lambda cfg: (system, None, None, "explicit"))
    x0s = [[0.1, 0.0], [0.0, 0.5], [5.0, 0.0]]
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "shrinking", "dt": 0.01, "horizon": 3.0,
        "blowup_norm": 50.0, "initial_conditions": x0s,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    entries = json.loads((out / "simulate_report.json").read_text())["trajectories"]
    assert [e["termination"] for e in entries] == [
        "completed", "left_feasible_region", "numerical_blowup"]
    for entry, x0 in zip(entries, x0s):
        alone = integrate(system, x0, SimConfig(dt=0.01, horizon=3.0, blowup_norm=50.0))
        assert entry["steps"] == len(alone.times)
        assert entry["stop_time"] == alone.times[-1]
        rows = (out / entry["csv"]).read_text().splitlines()
        assert len(rows) == 1 + entry["steps"]
        assert float(rows[-1].split(",")[0]) == entry["stop_time"]
    assert entries[0]["steps"] == 301 and entries[0]["stop_time"] == 3.0
    assert abs(entries[1]["stop_time"] - 2.0 * np.log(2.0)) <= 0.01
    assert abs(entries[2]["stop_time"] - np.log(49.0 / 4.0)) <= 0.01


def csv_projected_samples(path, gain):
    """Samples of a trajectory CSV whose input differs from K x, bit for bit."""
    gain = np.asarray(gain, dtype=float)
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = gain.shape[1]
    states, inputs = table[:, 1:1 + n], table[:, 1 + n:1 + n + len(gain)]
    return int((inputs != states @ gain.T).any(axis=1).sum())


@pytest.mark.parametrize("config, gain, projects", [
    # an example-2 grid row: saturated at first, then sliding along the obstacle,
    # then free near the origin
    ({"system": "example2", "dt": 0.01, "horizon": 8.0, "initial_conditions": [[0.0, 8.0]]},
     EXAMPLE2_GAIN, True),
    ({"system": "example1", "seed": 42, "dt": 0.01, "horizon": 3.0,
      "initial_conditions": [[2.0, -1.0, 0.5], [0.05, 0.02, -0.01]]},
     example1_setup(42).k, True),
    # bounds no command reaches: the loop never projects, in blocks or step by step
    ({"system": {"A": [[0.0, 1.0], [-1.0, -0.5]], "B": [[0.0], [1.0]], "K": [[-1.0, -1.0]],
                 "bounds": [1e6]}, "horizon": 3.0,
      "initial_conditions": [[1.0, 0.0], [-2.0, 1.0]]}, [[-1.0, -1.0]], False),
], ids=["example2-grid-row", "example1", "never-projects"])
def test_simulate_reports_projected_samples(tmp_path, config, gain, projects):
    cfg = write_config(tmp_path / "s.json", {"schema": 1, **config})
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out", str(out)])
    entries = json.loads((out / "simulate_report.json").read_text())["trajectories"]
    for entry in entries:
        assert entry["projected_samples"] == csv_projected_samples(out / entry["csv"], gain)
    counts = [entry["projected_samples"] for entry in entries]
    if projects:
        assert 0 < counts[0] < entries[0]["steps"]
    else:
        assert counts == [0, 0] and all(entry["linear_steps"] > 0 for entry in entries)


def test_simulate_batched_rows_match_one_row_configs(tmp_path):
    certify_cfg = write_config(tmp_path / "c.json",
                               {"schema": 1, "system": "example1", "seed": 42})
    cert_path = tmp_path / "cert" / "certificate.json"
    assert main(["certify", "--config", certify_cfg, "--out", str(cert_path.parent)]) == 0
    x0s = [[2.0, -1.0, 0.5], [-3.0, 0.2, 1.1], [0.4, 2.5, -2.0]]

    def run(name, rows):
        cfg = write_config(tmp_path / f"{name}.json", {
            "schema": 1, "system": "example1", "seed": 42, "dt": 0.002, "horizon": 2.0,
            "initial_conditions": rows, "certificate": str(cert_path)})
        main(["simulate", "--config", cfg, "--out", str(tmp_path / name)])
        report = json.loads((tmp_path / name / "simulate_report.json").read_text())
        return [{key: entry.get(key) for key in ("termination", "steps", "stop_time")}
                | {"envelope": entry["envelope"]["passed"],
                   "lyapunov": entry["lyapunov"]["passed"],
                   "equilibrium": entry.get("equilibrium") is not None}
                for entry in report["trajectories"]]

    batched = run("batch", x0s)
    alone = [run(f"row{i}", [x0])[0] for i, x0 in enumerate(x0s)]
    assert batched == alone
    assert all(row["termination"] == "completed" and row["steps"] == 1001 for row in batched)


def test_simulate_origin_x0_skips_rate_fit(tmp_path):
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[0.0, 0.0]],
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["equilibrium"]["is_origin"] is True and "m_fit" not in entry


def test_simulate_overflowing_check_figures_are_null(tmp_path, capsys):
    # x grows as exp(10 t) up to the 1e154 blow-up bound, where |x|_P^2
    # with P = 3 passes float range: the figures are null, the checks fail
    (tmp_path / "certificate.json").write_text(json.dumps(
        {"P": [[3.0]], "eta": 0.1, "lambda": 1.0, "rho": 1.0, "lmi_max_eig": -1.0}))
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": {"A": [[10.0]], "B": [[0.0]], "K": [[0.0]], "bounds": [1.0]},
        "dt": 0.01, "horizon": 40.0, "blowup_norm": 1e154,
        "initial_conditions": [[1.0]], "certificate": "certificate.json",
    })
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert_strict_json_tree(out)
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["termination"] == "numerical_blowup"
    assert entry["envelope"] == {"passed": False, "max_violation": None,
                                 "first_violation_time": entry["envelope"]["first_violation_time"]}
    assert entry["lyapunov"]["passed"] is False and entry["lyapunov"]["worst_slack"] is None


@pytest.mark.parametrize("b, dt", [(1.0, 0.1), (0.0, 0.01)])
def test_simulate_overflow_prints_no_warning(tmp_path, capsys, b, dt):
    # the state reaches the 1e154 blow-up bound, where V = 3 x^2 and the
    # Lyapunov value and the size of its terms pass float range: inf (and
    # inf / inf) are the intended values there and are written as null
    (tmp_path / "certificate.json").write_text(json.dumps(
        {"P": [[3.0]], "eta": 0.1, "lambda": 1.0, "rho": 1.0, "lmi_max_eig": -1.0}))
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": {"A": [[10.0]], "B": [[b]], "K": [[0.0]], "bounds": [1.0]},
        "dt": dt, "horizon": 40.0, "blowup_norm": 1e154,
        "initial_conditions": [[1.0]], "certificate": "certificate.json",
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "overflow" not in capsys.readouterr().err
    assert_strict_json_tree(out)
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["termination"] == "numerical_blowup"
    assert entry["lyapunov"] == {"passed": False, "worst_slack": None}


def test_simulate_overflowing_rk4_maps_print_no_warning(tmp_path, capsys):
    # dt A = -1e297: the RK4 maps hold inf - inf, and the first step blows up
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": {"A": [[-1e300]], "B": [[1.0]], "K": [[-1.0]], "bounds": [1.0]},
        "horizon": 0.01, "initial_conditions": [[1.0]],
    })
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["termination"] == "numerical_blowup" and entry["steps"] == 1


def test_simulate_chunks_are_sized_by_samples(tmp_path, monkeypatch):
    chunks, batch_simulate = [], cli.batch_simulate

    def spy(system, x0s, sim_cfg):
        chunks.append(len(x0s))
        return batch_simulate(system, x0s, sim_cfg)

    monkeypatch.setattr(cli, "batch_simulate", spy)
    payload = {"schema": 1, "system": {**SCALAR_SYSTEM, "bounds": [1.0]}, "dt": 0.01,
               "sampling": {"count": 70, "seed": 3}}
    # short runs fill SIMULATE_CHUNK rows
    cfg = write_config(tmp_path / "short.json", {**payload, "horizon": 0.1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "short")]) == 0
    assert chunks == [cli.SIMULATE_CHUNK, 70 - cli.SIMULATE_CHUNK]
    # with MAX_STEPS = 1000, a 100-step run fits 1001 // 101 = 9 rows in a chunk
    chunks.clear()
    monkeypatch.setattr(cli, "MAX_STEPS", 1000)
    cfg = write_config(tmp_path / "long.json", {**payload, "horizon": 1.0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "long")]) == 0
    assert chunks == [9] * 7 + [7]
    # a run longer than the bound still goes one row at a time
    chunks.clear()
    monkeypatch.setattr(cli, "MAX_STEPS", 50)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    assert chunks == [1] * 70


def test_simulate_loose_equilibrium_tol_still_fits_rate(tmp_path):
    # a 1.0 tolerance calls x(0.05) ~ (0.48, 0) the origin; the rate fit
    # takes the same tolerance instead of refusing the run
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.05,
        "initial_conditions": [[0.5, 0.0]], "equilibrium_tol": 1.0,
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    entry = json.loads((out / "simulate_report.json").read_text())["trajectories"][0]
    assert entry["equilibrium"]["is_origin"] is True
    assert entry["m_fit"] >= 1.0


def test_simulate_underflowing_x0_skips_rate_fit(tmp_path):
    # |x0|^2 underflows to 0, so the fit has no scale to divide by
    cfg = write_config(tmp_path / "s.json", {
        "schema": 1, "system": "example2", "dt": 0.01, "horizon": 0.5,
        "initial_conditions": [[1e-200, 0.0]],
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


@pytest.mark.parametrize("text", [
    b"[]",
    b'{"command": "certify"}',
    b'{"command": "simulate", "trajectories": [{}]}',
    b'{"command": "simulate", "trajectories": [{"index": 0, "min_h": "a"}]}',
    b"\xff",
], ids=["list", "no-status", "no-index", "text-min-h", "not-utf8"])
def test_report_malformed_file_exit_two(tmp_path, capsys, text):
    # a valid report beside it prints nothing either: every file is read first
    cfg = write_config(tmp_path / "c.json", {"schema": 1, "system": SCALAR_SYSTEM})
    main(["certify", "--config", cfg, "--out", str(tmp_path / "r")])
    (tmp_path / "r" / "x_report.json").write_bytes(text)
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err
    assert str(tmp_path / "r" / "x_report.json") in captured.err


def test_report_verdict_is_pure_function_of_files(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "schema": 1, "system": {"A": [[1.0]], "B": [[0.0]], "K": [[0.0]]},
    })
    main(["certify", "--config", cfg, "--out", str(tmp_path / "r")])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "r")]) == 1
    assert main(["report", str(tmp_path / "r")]) == 1


ONE_STATE_HELPERS = ("strictly_feasible", "project_feasible")


def refuse_one_state_helpers(monkeypatch):
    """Make the one-state helpers raise in every lurestab module that binds them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a one-state helper was called")

    modules = [lurestab] + [importlib.import_module(f"lurestab.{info.name}")
                            for info in pkgutil.iter_modules(lurestab.__path__)]
    for module in modules:
        for name in ONE_STATE_HELPERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("config", [
    {"system": "example1", "seed": 42, "horizon": 1.0, "certificate": "certificate.json",
     "initial_conditions": [[1.0, -0.5, 0.3], [0.2, 0.4, -1.0]]},
    {"system": "example2", "dt": 0.01, "horizon": 1.0},
    {"system": {"A": [[0.0, 1.0], [-1.0, -0.5]], "B": [[0.0], [1.0]], "K": [[-1.0, -1.0]],
                "bounds": [0.5]}, "horizon": 2.0, "initial_conditions": [[1.0, 0.0], [-2.0, 1.0]]},
    {"system": "example2", "dt": 0.01, "horizon": 0.5,
     "initial_conditions": [[0.0, 4.0], [0.0, 8.0]]},
], ids=["example1-certificate", "example2-grid", "explicit-box", "x0-outside"])
def test_simulate_runs_only_the_stacked_projector(tmp_path, monkeypatch, config):
    # the integrator, the x0 classification, the checks and example2_grid()
    # all evaluate through the stacked projector: with the one-state helpers
    # raising, simulate writes the same bytes
    if "certificate" in config:
        certify_cfg = write_config(tmp_path / "c.json",
                                   {"schema": 1, "system": "example1", "seed": 42})
        assert main(["certify", "--config", certify_cfg, "--out", str(tmp_path)]) == 0
    cfg = write_config(tmp_path / "s.json", {"schema": 1, **config})
    plain, refused = tmp_path / "plain", tmp_path / "refused"
    rc = main(["simulate", "--config", cfg, "--out", str(plain)])
    refuse_one_state_helpers(monkeypatch)
    assert main(["simulate", "--config", cfg, "--out", str(refused)]) == rc
    names = sorted(path.name for path in plain.iterdir())
    assert names == sorted(path.name for path in refused.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (refused / name).read_bytes(), name
