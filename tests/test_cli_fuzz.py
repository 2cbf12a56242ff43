"""Property test: no config makes the CLI crash or write non-strict JSON.

Configs for ``simulate`` and ``certify`` mix well-formed values with
wrong types, non-finite and overflowing numbers, missing fields and
out-of-range values.  Whatever the input, the exit code is one of the
documented four, nothing reaches stderr as a traceback, and every JSON
file written parses without NaN or Infinity.  Each payload starts valid
and has a few fields replaced.  Horizons stay at or below 0.05 and dt is
at least 1e-3 (or so small that the step count is refused), so each run
is at most 51 steps.
"""

import contextlib
import io
import json
import tempfile
import traceback
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lurestab.cli import main  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

MISSING = object()

junk = st.one_of(
    st.booleans(), st.text(max_size=3), st.just([]), st.just({}), st.just([1.0]),
    st.just(10 ** 400), st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
# any value a field may hold; None reads as "use the default"
bad = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
                junk, st.none(), st.just(MISSING))
# a horizon must never fall back to its 15 s default, nor grow past 0.05
bad_horizon = st.one_of(st.floats(max_value=0.05), junk)
# a positive dt below 1e-3 is either refused (too many steps) or too slow here
bad_dt = st.one_of(st.floats(max_value=1e-12), junk, st.none(), st.just(MISSING))


def matrix(entries=st.floats(-3.0, 3.0), rows=st.integers(1, 3), cols=st.integers(1, 3)):
    return st.tuples(rows, cols).flatmap(lambda shape: st.lists(
        st.lists(entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


def square(n, entries=st.floats(-3.0, 3.0)):
    return matrix(entries, st.just(n), st.just(n))


@st.composite
def corrupted(draw, valid: dict, bad_for: dict | None = None, max_bad: int = 2):
    """A valid payload with up to max_bad fields replaced by bad values."""
    payload = draw(st.fixed_dictionaries(valid))
    for key in draw(st.lists(st.sampled_from(sorted(valid)), max_size=max_bad, unique=True)):
        payload[key] = draw((bad_for or {}).get(key, bad))
    return payload


def explicit_system(n, m, with_bounds):
    fields = {"A": square(n), "B": matrix(rows=st.just(n), cols=st.just(m)),
              "K": matrix(rows=st.just(m), cols=st.just(n))}
    if with_bounds:
        fields["bounds"] = st.lists(st.floats(0.1, 3.0), min_size=m, max_size=m)
    # entries as well as whole fields go bad: huge, non-finite or junk
    entry_bad = {key: st.one_of(bad, matrix(st.one_of(st.floats(), junk)))
                 for key in ("A", "B", "K")}
    return corrupted(fields, entry_bad)


systems = st.tuples(st.integers(1, 3), st.integers(1, 2))


@st.composite
def simulate_configs(draw):
    choice = draw(st.sampled_from(["example1", "example2", "explicit"]))
    n, m = {"example1": (3, 2), "example2": (2, 2)}.get(choice) or draw(systems)
    system = draw(explicit_system(n, m, True)) if choice == "explicit" else choice
    valid = {
        "schema": st.just(1), "system": st.just(system), "seed": st.integers(0, 50),
        "dt": st.floats(1e-3, 0.01), "horizon": st.floats(0.01, 0.05),
        "blowup_norm": st.floats(1e-3, 1e9),
        "initial_conditions": matrix(st.floats(-40.0, 40.0), st.integers(1, 3), st.just(n)),
        "rate_eta": st.floats(0.0, 200.0), "m_fit_budget": st.floats(0.0, 1e4),
        "envelope_slack": st.floats(0.0, 1.0), "equilibrium_tol": st.floats(0.0, 1.0),
        "safety_tol": st.floats(0.0, 1.0),
        "certificate": st.sampled_from(["certificate.json", MISSING]),
    }
    payload = draw(corrupted(valid, {"horizon": bad_horizon, "dt": bad_dt}, max_bad=3))
    if draw(st.booleans()):
        # sampled rather than listed initial conditions
        payload.pop("initial_conditions", None)
        payload["sampling"] = draw(corrupted({
            "seed": st.integers(0, 10), "count": st.integers(1, 3),
            "scale": st.floats(0.0, 5.0)}, {"count": st.one_of(st.integers(-1, 3), junk)}))
    diagonal = st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)
    certificate = draw(corrupted({
        "P": diagonal.map(lambda d: [[v if i == j else 0.0 for j in range(n)]
                                     for i, v in enumerate(d)]),
        "eta": st.floats(0.0, 2.0), "lambda": st.floats(0.1, 2.0),
        "rho": st.floats(0.1, 2.0), "lmi_max_eig": st.floats(-1.0, 0.0)}, max_bad=1))
    return payload, certificate


@st.composite
def certify_configs(draw):
    n, m = draw(systems)
    system = draw(st.one_of(st.just("example1"), explicit_system(n, m, False)))
    return draw(corrupted({
        "schema": st.just(1), "system": st.just(system), "seed": st.integers(0, 50),
        "rho": st.floats(1e-3, 10.0), "eta_lo": st.floats(0.0, 1.0),
        "eta_hi": st.floats(1.5, 20.0), "bisect_tol": st.floats(1e-9, 1.0),
    }))


def _strip(payload: dict) -> dict:
    return {key: _strip(value) if isinstance(value, dict) else value
            for key, value in payload.items() if value is not MISSING}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(command: str, payload: dict, certificate: dict | None = None) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # json.dumps writes NaN / Infinity literals, which json.load accepts
        (root / "config.json").write_text(json.dumps(_strip(payload)))
        if certificate is not None:
            (root / "certificate.json").write_text(json.dumps(_strip(certificate)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main([command, "--config", str(root / "config.json"),
                           "--out", str(root / "out")])
            except Exception:  # noqa: BLE001 - reported as the failure
                raise AssertionError(f"{command} raised:\n{traceback.format_exc()}") from None
        assert rc in (0, 1, 2, 3), rc
        assert "Traceback" not in err.getvalue()
        for path in sorted((root / "out").rglob("*.json")):
            json.loads(path.read_text(), parse_constant=_reject_constant)


@SETTINGS
@given(case=simulate_configs())
def test_simulate_survives_any_config(case):
    run_cli("simulate", *case)


@SETTINGS
@given(payload=certify_configs())
def test_certify_survives_any_config(payload):
    run_cli("certify", payload)
