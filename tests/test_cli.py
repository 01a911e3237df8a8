import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import flicforq.cli as cli
import flicforq.integrator as integrator
from flicforq.cli import main
from flicforq.compiler import compile_cnot, insert_decoupling
from flicforq.model import (DEFAULT_PARAMS, Diagnostic, PulseSegment, PulseSequence,
                            sequence_from_json, sequence_to_json)

DATA = Path(__file__).resolve().parent / "data"
CNOT_WORD = "X2^1/2 Y1^1/2 X1X2^1/2 Y1^-1/2 Z1^1/2"

DEFAULT_PARAMS_JSON = '{"w1z": 1.05, "w2z": 0.95, "wxx": 0.01}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_d(capsys):
    code, out, _ = run(capsys, "compile", "d")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["segments"]) == 1
    seg = doc["segments"][0]
    assert seg["q1"]["y"] == pytest.approx(0.05)
    assert seg["q2"]["y"] == pytest.approx(0.05)


def test_compile_cnot_structure(capsys):
    code, out, _ = run(capsys, "compile", "cnot")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["segments"]) == 4
    assert len(doc["virtual_z"]) == 1


def test_compile_deterministic(capsys):
    _, out1, _ = run(capsys, "compile", "cnot")
    _, out2, _ = run(capsys, "compile", "cnot")
    assert out1 == out2


def test_compile_with_params_file(tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text(DEFAULT_PARAMS_JSON)
    code, out, _ = run(capsys, "compile", "xx_half", "--params", str(pf))
    assert code == 0
    assert json.loads(out)["segments"][0]["flip"] == {
        "t": pytest.approx(628.319, abs=1e-3),
        "qubit": 2,
    }


def test_compile_missing_params_exits_2(capsys):
    code, _, err = run(capsys, "compile", "d", "--params", "/nonexistent/params.json")
    assert code == 2
    assert "error" in err


def test_compile_non_positive_larmor_exits_2(tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text('{"w1z": 2.25, "w2z": -0.25, "wxx": 0.1}')
    code, out, err = run(capsys, "compile", "x90", "--params", str(pf))
    assert code == 2
    assert out == ""
    assert "w2z > 0" in err


@pytest.mark.parametrize("gate, warned", [("x90", False), ("cnot", True), ("xx_half", True)])
def test_compile_off_grid_flip_device(gate, warned, tmp_path, capsys):
    # a valid device whose delta/wxx = 62.5 is not an integer: every gate
    # compiles without integrating anything, and the refocused pulse's flip
    # at 2*pi/wxx, off the t0_sync grid, is a warning, not an error
    pf = tmp_path / "params.json"
    pf.write_text('{"w1z": 1.05, "w2z": 0.95, "wxx": 0.0016}')
    code, out, err = run(capsys, "compile", gate, "--params", str(pf))
    assert code == 0
    assert json.loads(out)["wxx"] == 0.0016
    assert ("warning" in err and "flips at" in err) == warned


def test_compile_strong_coupling_notice_printed_once(tmp_path):
    # wxx/delta = 0.3: the device warns when it is built, and validating
    # the sequence adds no second notice of the same ratio
    pf = tmp_path / "params.json"
    pf.write_text('{"w1z": 1.05, "w2z": 0.95, "wxx": 0.03}')
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "flicforq.cli", "compile", "x90", "--params",
                           str(pf)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["wxx"] == 0.03
    assert proc.stderr.count("wxx/delta") == 1
    assert "wxx/delta = 0.300 > 0.2" in proc.stderr


def test_compile_validation_error_exits_3(monkeypatch, capsys):
    # no compiled gate fails validation, so the check is forced to
    monkeypatch.setattr(cli, "validate_sequence",
                        lambda p, seq: [Diagnostic("error", "forced error")])
    code, out, err = run(capsys, "compile", "x90")
    assert code == 3
    assert out == ""
    assert "error: forced error" in err


def invalid_sequence_json():
    """Two overlaps on qubit 1 and a two-qubit pulse off the t0_sync grid:
    three validation errors."""
    p = DEFAULT_PARAMS
    return sequence_to_json(PulseSequence(params=p, segments=(
        PulseSegment(start=0.0, duration=20.0, amp_x_1=0.01),
        PulseSegment(start=10.0, duration=20.0, amp_y_1=0.01),
        PulseSegment(start=0.4 * p.t0_sync, duration=p.t0_sync, amp_y_1=0.05, amp_y_2=0.05),
    )))


@pytest.mark.parametrize("argv", [
    ("simulate", "--out"),
    ("fidelity", "--word", "X1^1/2", "--out"),
], ids=["simulate", "fidelity"])
def test_invalid_sequence_exits_3(argv, tmp_path, capsys):
    # simulate and fidelity validate the file as compile validates its
    # output; they used to integrate it and exit 0
    seq_file = tmp_path / "bad.json"
    seq_file.write_text(invalid_sequence_json())
    out_file = tmp_path / "out"
    code, out, err = run(capsys, argv[0], str(seq_file), *argv[1:], str(out_file))
    assert code == 3
    assert out == "" and not out_file.exists()
    assert err.count("error: ") == 3
    assert "not on the t0_sync" in err and err.count("overlap on qubit 1") == 2


@pytest.mark.parametrize("gate, code", [("d", 2), ("xx_half", 2), ("cnot", 2), ("x90", 0)])
def test_compile_uncoupled_device(gate, code, tmp_path, capsys):
    # with wxx = 0 no pulse length entangles; one-qubit gates still compile
    pf = tmp_path / "params.json"
    pf.write_text('{"w1z": 1.05, "w2z": 0.95, "wxx": 0.0}')
    got, out, err = run(capsys, "compile", gate, "--params", str(pf))
    assert got == code
    if code:
        assert out == ""
        assert "wxx" in err
    else:
        assert json.loads(out)["wxx"] == 0.0


@pytest.mark.parametrize("argv", [("compile", "d"), ("resonance", "--amps", "0.05,0.05")])
def test_non_numeric_params_exits_2(argv, tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text('{"w1z": "a", "w2z": 0.95, "wxx": 0.01}')
    code, _, err = run(capsys, *argv, "--params", str(pf))
    assert code == 2
    assert "cannot read params file" in err


# a JSON integer literal beyond the float range: math.isfinite raises
# OverflowError on it, which must not escape as a traceback
HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("command, text, message", [
    ("compile", f'{{"w1z": 1.05, "w2z": 0.95, "wxx": {HUGE_INT}}}', "cannot read params file"),
    ("sweep", f'[{{"delta": 0.1, "wxx": {HUGE_INT}}}]', "bad grid point"),
], ids=["compile", "sweep"])
def test_integer_beyond_float_range_exits_2(command, text, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = (("compile", "x90", "--params", str(path)) if command == "compile"
            else ("sweep", str(path), "--metric", "cnot_error", "--jobs", "1"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err and "wxx must be a finite number" in err


def test_simulate_x90(tmp_path, capsys):
    code, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    csv_file = tmp_path / "traj.csv"
    code, out, _ = run(
        capsys, "simulate", str(seq_file), "--state", "00",
        "--frame", "rotating", "--out", str(csv_file),
        "--steps-per-period", "300",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["frame"] == "rotating"
    assert doc["purity"] == pytest.approx(1.0, abs=1e-6)
    assert abs(doc["bloch1"][1]) > 0.95  # pi/2 about x moves z onto +-y
    assert abs(doc["bloch2"][2] - 1.0) < 0.05
    header = csv_file.read_text().splitlines()[0]
    assert header == "t,frame,cx1,cy1,cz1,cx2,cy2,cz2"


def test_simulate_bloch_state_spec(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    code, out, _ = run(
        capsys, "simulate", str(seq_file), "--state", "bloch:0,0,1;1,0,0",
        "--out", str(tmp_path / "t.csv"), "--steps-per-period", "300",
    )
    assert code == 0


def test_simulate_pauli_state_spec(tmp_path, capsys):
    # the Pauli coefficients of |00> give the same run as the basis label
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    outputs = []
    for name, state in (("label", "00"), ("pauli", "pauli:0,0,1,0,0,1,0,0,0,0,0,0,0,0,1")):
        csv_file = tmp_path / f"{name}.csv"
        code, out, _ = run(
            capsys, "simulate", str(seq_file), "--state", state,
            "--out", str(csv_file), "--steps-per-period", "300",
        )
        assert code == 0, state
        outputs.append((out, csv_file.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("state", [
    "bloch:nan,0,0;0,0,1",
    "pauli:" + ",".join(["inf"] + ["0"] * 14),
])
def test_simulate_non_finite_state_exits_2(state, tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    code, _, err = run(
        capsys, "simulate", str(seq_file), "--state", state,
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert "finite" in err


def test_simulate_bad_state_exits_2(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    # the short vectors are rejected by DensityState itself
    for state in ("banana", "bloch:0,0;1,0,0", "pauli:0,0"):
        code, out, err = run(
            capsys, "simulate", str(seq_file), "--state", state,
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2, state
        assert out == ""
        assert "bad" in err and "state spec" in err, state
    assert not (tmp_path / "t.csv").exists()


def test_simulate_non_finite_amplitude_exits_2(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json.replace('"y": 0.0', '"y": NaN', 1))
    assert "NaN" in seq_file.read_text()
    code, _, err = run(
        capsys, "simulate", str(seq_file), "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "seq.json", "--out", "t.csv", "--steps-per-period", "0"),
    ("simulate", "seq.json", "--out", "t.csv", "--steps-per-period", "-5"),
    ("fidelity", "seq.json", "--word", "X1^1/2", "--steps-per-period", "0"),
    ("sweep", "grid.json", "--metric", "d_concurrence", "--steps-per-period", "-5"),
    ("sweep", "grid.json", "--metric", "d_concurrence", "--jobs", "0"),
])
def test_non_positive_counts_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compile", "simulate", "fidelity", "sweep", "resonance"])
def test_unwritable_out_exits_2(command, tmp_path, capsys, monkeypatch):
    # every subcommand fails to write its result: exit 2 with the path
    # named, never a traceback or an integrator failure; fidelity and sweep
    # open it first, so a bad path wastes no integration
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    grid = tmp_path / "grid.json"
    grid.write_text('[{"delta": 0.1, "wxx": 0.01}]')
    calls = []
    real = cli.gate_unitary
    monkeypatch.setattr(cli, "gate_unitary", lambda *a: calls.append("gate_unitary") or real(*a))
    monkeypatch.setitem(cli._METRICS, "d_concurrence",
                        lambda p, policy: calls.append("metric") or p.delta)
    args = {
        "compile": ("x90",),
        "simulate": (str(seq_file), "--steps-per-period", "300"),
        "fidelity": (str(seq_file), "--word", "X1^1/2"),
        "sweep": (str(grid), "--metric", "d_concurrence", "--jobs", "1"),
        "resonance": ("--amps", "0.05,0.05"),
    }[command]
    bad = tmp_path / "no-such-dir" / "out"
    code, out, err = run(capsys, command, *args, "--out", str(bad))
    assert code == 2
    assert out == ""
    assert f"cannot write {bad}" in err
    assert calls == []


def test_simulate_diverged_propagator_exits_4(tmp_path, capsys):
    # on the D pulse RK4 blows up at one step per carrier period and
    # contracts, far from unitary, at 2 to 8; no CSV of either is left behind
    _, seq_json, _ = run(capsys, "compile", "d")
    seq_file = tmp_path / "d.json"
    seq_file.write_text(seq_json)
    for steps in ("1", "2", "8"):
        csv = tmp_path / f"d-{steps}.csv"
        code, out, err = run(
            capsys, "simulate", str(seq_file), "--out", str(csv), "--steps-per-period", steps,
        )
        assert code == 4, steps
        assert "integrator failure" in err and "diverged" in err
        assert out == ""
        assert not csv.exists()


def test_fidelity_diverged_propagator_exits_4(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "cnot")
    seq_file = tmp_path / "cnot.json"
    seq_file.write_text(seq_json)
    code, out, err = run(
        capsys, "fidelity", str(seq_file), "--word", CNOT_WORD,
        "--steps-per-period", "1",
    )
    assert code == 4
    assert "integrator failure" in err and "diverged" in err
    assert out == ""


@pytest.mark.parametrize("steps", [str(10**21), str(10**400)],
                         ids=["beyond-int64", "beyond-float"])
@pytest.mark.parametrize("command", ["simulate", "fidelity"])
def test_step_count_too_fine_exits_2(command, steps, tmp_path, capsys):
    # a count beyond int64 used to run one step per interval and exit 4 on
    # the unitarity gate, and one beyond float to end in a traceback
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    args = {"simulate": ("--out", str(tmp_path / "t.csv")), "fidelity": ("--word", "X1^1/2")}
    code, out, err = run(capsys, command, str(seq_file), *args[command],
                         "--steps-per-period", steps)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --steps-per-period {steps}: ")
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "fidelity"])
def test_step_total_beyond_the_budget_exits_2(command, tmp_path, capsys, monkeypatch):
    # the integrator's step budget lowered, so that a regression plans no
    # real one; the total is refused before H is sampled, from an empty
    # interval store, as the budget counts only the steps a call builds.
    # The budget's rows, 16, cap the grid, and the x90 spans 16 grid
    # intervals, of which the memo builds 4 of 2100 steps
    monkeypatch.setattr(integrator, "_STORE", integrator._IntervalStore(8))
    monkeypatch.setattr(integrator, "_STEP_BUDGET", 16 * integrator._BATCH_STEPS)
    monkeypatch.setattr(integrator, "_hamiltonians", mock.Mock(side_effect=AssertionError))
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    args = {"simulate": ("--out", str(tmp_path / "t.csv")), "fidelity": ("--word", "X1^1/2")}
    code, out, err = run(capsys, command, str(seq_file), *args[command],
                         "--steps-per-period", "1600")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --steps-per-period 1600: ")
    assert "8.4e+03 steps exceed the budget of 8192 steps a call" in err
    assert not (tmp_path / "t.csv").exists()


def test_grid_beyond_the_cap_exits_2_or_is_nan_row(tmp_path, capsys, monkeypatch):
    # the paper device's CNOT spans 208 grid intervals, more than the rows
    # of a step budget lowered to 64 rows: simulate and fidelity exit 2,
    # naming the sequence file rather than the step flag, as the cap
    # depends on total_time alone, and sweep writes a nan row and exits 4,
    # refused before the grid is built
    monkeypatch.setattr(integrator, "_STEP_BUDGET", 64 * integrator._BATCH_STEPS)
    monkeypatch.setattr(integrator, "_window_origins", mock.Mock(side_effect=AssertionError))
    message = "208 grid intervals exceed the 64 rows of 32768 steps"
    _, seq_json, _ = run(capsys, "compile", "cnot")
    seq_file = tmp_path / "cnot.json"
    seq_file.write_text(seq_json)
    for args in (("simulate", str(seq_file), "--out", str(tmp_path / "t.csv")),
                 ("fidelity", str(seq_file), "--word", CNOT_WORD)):
        code, out, err = run(capsys, *args, "--steps-per-period", "1600")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: sequence file {seq_file}: {message}")
        assert "--steps-per-period" not in err
    assert not (tmp_path / "t.csv").exists()
    grid = tmp_path / "grid.json"
    grid.write_text('[{"delta": 0.1, "wxx": 0.01}]')
    code, out, err = run(capsys, "sweep", str(grid), "--metric", "cnot_error", "--jobs", "1")
    assert (code, out) == (4, "delta,wxx,metric\n0.1,0.01,nan\n")
    assert message in err


def test_sweep_step_count_beyond_int64_is_nan_row(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('[{"delta": 0.1, "wxx": 0.01}]')
    code, out, err = run(capsys, "sweep", str(grid), "--metric", "d_concurrence", "--jobs", "1",
                         "--steps-per-period", str(10**21))
    assert code == 4
    assert out == "delta,wxx,metric\n0.1,0.01,nan\n"
    assert "do not fit an int64" in err


def test_fidelity_xx_half(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "xx_half")
    seq_file = tmp_path / "xx.json"
    seq_file.write_text(seq_json)
    code, out, _ = run(
        capsys, "fidelity", str(seq_file), "--word", "X1X2^1/2",
        "--steps-per-period", "800",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["process"] >= 0.98
    assert set(doc["per_state"]) == {"00", "01", "10", "11"}


def test_fidelity_min_gate_exits_5(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "xx_half")
    seq_file = tmp_path / "xx.json"
    seq_file.write_text(seq_json)
    code, _, err = run(
        capsys, "fidelity", str(seq_file), "--word", "X1X2^1/2",
        "--min", "0.99999", "--steps-per-period", "800",
    )
    assert code == 5
    assert "below --min" in err


def test_fidelity_virtual_z_only_is_exact(tmp_path, capsys):
    doc = {
        "w1z": 1.05, "w2z": 0.95, "wxx": 0.01, "segments": [],
        "virtual_z": [{"qubit": 1, "angle": 1.5707963267948966, "t": 0.0}],
        "total_time": 0.0,
    }
    seq_file = tmp_path / "vz.json"
    seq_file.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "fidelity", str(seq_file), "--word", "Z1^1/2")
    assert code == 0
    assert json.loads(out)["process"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("schema", [3, 0, "1", None])
def test_unknown_schema_version_exits_2(schema, tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "x90")
    doc = json.loads(seq_json)
    assert doc["schema"] == 2
    doc["schema"] = schema
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(json.dumps(doc))
    csv_file = tmp_path / "traj.csv"
    code, out, err = run(capsys, "simulate", str(seq_file), "--state", "00",
                         "--out", str(csv_file))
    assert code == 2
    assert "unsupported sequence schema" in err
    assert out == ""
    assert not csv_file.exists()


@pytest.mark.parametrize("name, build", [
    ("cnot_schema1.json", lambda: compile_cnot(DEFAULT_PARAMS)),
    ("cnot_decoupled_schema1.json",
     lambda: insert_decoupling(DEFAULT_PARAMS, compile_cnot(DEFAULT_PARAMS), 0)),
], ids=["cnot", "cnot-decoupled"])
def test_schema_1_reads_as_schema_2(name, build, tmp_path, capsys):
    # documents written in schema 1, whose ledger entries carry a time t:
    # `compile cnot`, and that CNOT with an echo inserted around segment 0,
    # which moved the entry's t by the echo pair
    old_file = DATA / name
    seq = build()
    new_file = tmp_path / "new.json"
    new_file.write_text(sequence_to_json(seq))
    assert sequence_from_json(old_file.read_text()) == seq
    doc = json.loads(old_file.read_text())
    assert doc["schema"] == 1
    doc["schema"] = 2
    for entry in doc["virtual_z"]:
        del entry["t"]
    assert doc == json.loads(new_file.read_text())
    outs = []
    for f in (old_file, new_file):
        code, out, _ = run(capsys, "fidelity", str(f), "--word", CNOT_WORD,
                           "--steps-per-period", "800")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


_NO_T = object()


@pytest.mark.parametrize("t", [_NO_T, True, "0", None, math.nan, math.inf, -math.inf],
                         ids=["missing", "true", "string", "null", "nan", "inf", "-inf"])
@pytest.mark.parametrize("schema", [1, None], ids=["schema-1", "no-schema"])
def test_schema_1_bad_ledger_time_exits_2(t, schema, tmp_path, capsys):
    # a schema-1 ledger time is dropped, but only once it reads as a finite number
    entry = {"qubit": 1, "angle": 1.5707963267948966}
    if t is not _NO_T:
        entry["t"] = t
    doc = {"w1z": 1.05, "w2z": 0.95, "wxx": 0.01, "segments": [], "virtual_z": [entry],
           "total_time": 0.0}
    if schema is not None:
        doc["schema"] = schema
    seq_file = tmp_path / "vz.json"
    seq_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fidelity", str(seq_file), "--word", "Z1^1/2")
    assert code == 2
    assert out == ""
    assert "cannot read sequence file" in err


@pytest.mark.parametrize("qubit", [3, 0, "1", True, 1.0])
def test_fidelity_bad_virtual_z_qubit_exits_2(qubit, tmp_path, capsys):
    # a ledger entry on no qubit used to be dropped silently, scoring the
    # gate without it
    doc = {
        "w1z": 1.05, "w2z": 0.95, "wxx": 0.01, "segments": [],
        "virtual_z": [{"qubit": qubit, "angle": 1.5707963267948966, "t": 0.0}],
        "total_time": 0.0,
    }
    seq_file = tmp_path / "vz.json"
    seq_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fidelity", str(seq_file), "--word", "Z1^1/2")
    assert code == 2
    assert out == ""
    assert "virtual-z qubit must be 1 or 2" in err


def test_fidelity_bad_word_exits_2(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "xx_half")
    seq_file = tmp_path / "xx.json"
    seq_file.write_text(seq_json)
    code, _, err = run(capsys, "fidelity", str(seq_file), "--word", "Q1^1/2")
    assert code == 2


@pytest.mark.parametrize("word", ["X1^1e400", "X1^-1e400"])
def test_fidelity_overflowing_word_exits_2(word, tmp_path, capsys):
    # the exponent's float conversion overflows; it used to escape as an
    # OverflowError traceback with exit 1
    _, seq_json, _ = run(capsys, "compile", "xx_half")
    seq_file = tmp_path / "xx.json"
    seq_file.write_text(seq_json)
    code, out, err = run(capsys, "fidelity", str(seq_file), "--word", word)
    assert code == 2
    assert out == ""
    assert "bad target word" in err


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(segments=[1]), "must be JSON objects"),
    (lambda doc: doc.update(segments={"a": 1}), "must be JSON objects"),
    (lambda doc: doc.update(segments=[[0, 1]]), "must be JSON objects"),
    (lambda doc: doc["segments"][0].update(envelope=1), "must be JSON objects"),
    (lambda doc: doc["segments"][0]["flip"].update(qubit=2.0), "flip_qubit must be 1 or 2"),
    (lambda doc: doc["segments"][0]["flip"].update(qubit=True), "flip_qubit must be 1 or 2"),
    (lambda doc: doc.update(w1z=True), "w1z must be a finite number"),
    (lambda doc: doc["segments"][0]["q1"].update(x=True), "amp_x_1 must be a finite number"),
    (lambda doc: doc.update(total_time=False), "total_time must be a finite number"),
    (lambda doc: doc["segments"][0].update(start=-0.5 * doc["segments"][0]["duration"]),
     "start must be non-negative"),
    (lambda doc: doc.update(total_time=-5.0), "total_time must be non-negative"),
    (lambda doc: doc["segments"][0].update(label=5), "label must be a string"),
    (lambda doc: doc.update(virtual_z=[{"qubit": 1, "angle": None}]), "not NoneType"),
], ids=["number-segment", "object-segments", "list-segment", "number-envelope",
        "float-flip-qubit", "bool-flip-qubit", "bool-w1z", "bool-amplitude", "bool-total-time",
        "negative-start", "negative-total-time", "int-label", "null-virtual-z-angle"])
def test_malformed_sequence_exits_2(edit, message, tmp_path, capsys):
    # each used to raise AttributeError (exit 1), to be stored as a bool or
    # float and written back as true or 2.0, or to exit 0: the integrators
    # start at t = 0 and dropped the half of the pulse before it, a negative
    # total_time became the last segment's end, and an int label was kept;
    # a null ledger angle was stored and raised TypeError (exit 1) when composed
    _, seq_json, _ = run(capsys, "compile", "xx_half")
    doc = json.loads(seq_json)
    edit(doc)
    seq_file = tmp_path / "xx.json"
    seq_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fidelity", str(seq_file), "--word", "X1X2^1/2")
    assert code == 2
    assert out == ""
    assert "cannot read sequence file" in err and message in err


def rename(d, old, new):
    d[new] = d.pop(old)


@pytest.mark.parametrize("edit, key", [
    (lambda doc: rename(doc, "total_time", "totl_time"), "totl_time"),
    (lambda doc: rename(doc["segments"][0], "flip", "flipp"), "flipp"),
    (lambda doc: doc["segments"][0]["envelope"].update(rise_time=2.0), "rise_time"),
    (lambda doc: doc["segments"][0]["q1"].update(z=0.01), "z"),
    (lambda doc: rename(doc["segments"][0]["q2"], "x", "X"), "X"),
    (lambda doc: doc["segments"][0]["flip"].update(time=1.0), "time"),
    (lambda doc: doc.update(virtual_z=[{"qubit": 1, "angle": 1.0, "t": 0.0}]), "t"),
    (lambda doc: doc.update(schema=1, virtual_z=[{"qubit": 1, "angle": 1.0, "t": 0.0,
                                                  "tt": 0.0}]), "tt"),
], ids=["top-level", "segment", "envelope", "q1", "q2", "flip", "schema-2-ledger-t",
        "schema-1-ledger"])
def test_unknown_sequence_key_exits_2(edit, key, tmp_path, capsys):
    # a misspelled key used to be ignored and its field read as absent; a
    # ledger entry's t is read, checked and dropped under schema 1 only
    _, seq_json, _ = run(capsys, "compile", "xx_half")
    doc = json.loads(seq_json)
    edit(doc)
    seq_file = tmp_path / "xx.json"
    seq_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fidelity", str(seq_file), "--word", "X1X2^1/2")
    assert code == 2
    assert out == ""
    assert f"unknown key {key!r}" in err


def test_misspelled_flip_and_total_time_exit_2(tmp_path, capsys):
    # the compiled XX^1/2 with its segment's flip and its total_time
    # misspelled read as an unflipped pulse ending with it, and scored a
    # process fidelity of 0.506 with exit 0
    _, seq_json, _ = run(capsys, "compile", "xx_half")
    doc = json.loads(seq_json)
    good = tmp_path / "good.json"
    good.write_text(seq_json)
    rename(doc["segments"][0], "flip", "flipp")
    rename(doc, "total_time", "totl_time")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "fidelity", str(good), "--word", "X1X2^1/2",
                       "--steps-per-period", "800")
    assert code == 0 and json.loads(out)["process"] > 0.99
    code, out, err = run(capsys, "fidelity", str(bad), "--word", "X1X2^1/2",
                         "--steps-per-period", "800")
    assert code == 2
    assert out == ""
    assert "unknown key 'totl_time'" in err


@pytest.mark.parametrize("text, key", [
    ('{"w1z": 1.05, "w2z": 0.95, "wxx": 0.01, "wxxx": 0.02}', "wxxx"),
    ('{"w1z": 1.05, "w2z": 0.95, "wxx": 0.01, "schema": 2}', "schema"),
], ids=["typo", "sequence-key"])
def test_params_unknown_key_exits_2(text, key, tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text(text)
    code, out, err = run(capsys, "compile", "x90", "--params", str(pf))
    assert code == 2
    assert out == ""
    assert f"unknown key {key!r}" in err


@pytest.mark.parametrize("gate", list(cli._GATES))
def test_every_compile_output_reads_back(gate, tmp_path, capsys):
    code, out, _ = run(capsys, "compile", gate)
    assert code == 0
    assert sequence_to_json(sequence_from_json(out)) == out.rstrip("\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fidelity_non_finite_min_exits_2(value, capsys):
    # a nan gate can never fire, so it used to exit 0 whatever the fidelity
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "seq.json", "--word", "X1^1/2", f"--min={value}"])
    assert exc.value.code == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_sweep_single_point(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('[{"delta": 0.1, "wxx": 0.01}]')
    code, out, _ = run(
        capsys, "sweep", str(grid), "--metric", "d_concurrence",
        "--jobs", "1", "--steps-per-period", "300",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,wxx,metric"
    assert len(lines) == 2
    delta, wxx, val = (float(x) for x in lines[1].split(","))
    assert (delta, wxx) == (0.1, 0.01)
    assert val >= 0.9


def test_sweep_failed_points_same_in_pool(tmp_path, capsys):
    # a diverged point is a nan row and exit 4, whether the points run in
    # this process or in a pool of worker processes, and whether RK4 blows
    # up (1 step per period) or contracts (2)
    grid = tmp_path / "grid.json"
    grid.write_text('[{"delta": 0.1, "wxx": 0.01}, {"delta": 0.25, "wxx": 0.025}]')
    for steps in ("1", "2"):
        csvs = []
        for jobs in ("1", "2"):
            out_file = tmp_path / f"sweep-{steps}-{jobs}.csv"
            code, _, err = run(
                capsys, "sweep", str(grid), "--metric", "d_concurrence",
                "--steps-per-period", steps, "--jobs", jobs, "--out", str(out_file),
            )
            assert code == 4
            assert err.count("failed") == 2
            csvs.append(out_file.read_bytes())
        assert csvs[0] == csvs[1] == b"delta,wxx,metric\n0.1,0.01,nan\n0.25,0.025,nan\n", steps


def test_sweep_csv_same_in_process_and_pool(tmp_path, capsys, monkeypatch):
    # a grid that repeats a device: in process the repeat reads the
    # interval store, in a pool it may run in a worker that has not seen
    # it; each run from an empty store, the CSVs are byte-identical
    grid = tmp_path / "grid.json"
    grid.write_text('[{"delta": 0.1, "wxx": 0.01}, {"delta": 0.25, "wxx": 0.025}, '
                    '{"delta": 0.1, "wxx": 0.01}]')
    csvs = []
    for jobs in ("2", "1"):
        monkeypatch.setattr(integrator, "_STORE", integrator._IntervalStore(2048))
        out_file = tmp_path / f"sweep-{jobs}.csv"
        code, _, err = run(capsys, "sweep", str(grid), "--metric", "cnot_error",
                           "--jobs", jobs, "--out", str(out_file))
        assert (code, err) == (0, "")
        csvs.append(out_file.read_bytes())
    assert csvs[0] == csvs[1]
    rows = csvs[0].decode().splitlines()
    assert len(rows) == 4 and rows[1] == rows[3]


@pytest.mark.parametrize("metric", ["cnot_error", "d_concurrence"])
def test_sweep_uncoupled_point_is_nan_row(metric, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('[{"delta": 0.1, "wxx": 0.0}]')
    code, out, err = run(capsys, "sweep", str(grid), "--metric", metric, "--jobs", "1")
    assert code == 4
    assert out == "delta,wxx,metric\n0.1,0,nan\n"
    assert "wxx = 0" in err


def test_sweep_bad_grid_exits_2(tmp_path, capsys):
    # a grid is a JSON list: an object, a single point among them, or a
    # string is refused, not read as its keys or characters
    grid = tmp_path / "grid.json"
    for text in ('{"not": "a list"}', '{}', '{"delta": 0.1, "wxx": 0.01}', '"ab"'):
        grid.write_text(text)
        code, out, err = run(capsys, "sweep", str(grid), "--metric", "d_concurrence")
        assert code == 2, text
        assert "a JSON list" in err and out == "", text


@pytest.mark.parametrize("point", [
    '{"delta": -0.1, "wxx": 0.01}',
    '{"delta": "nan", "wxx": 0.01}',
    '{"delta": 0.1, "wxx": 0.06}',
    '{"delta": 2.5, "wxx": 0.1}',  # w2z = 1 - delta/2 < 0
    # numbers follow the model's rule: no bool, string or null
    '{"delta": true, "wxx": 0.01}',
    '{"delta": "0.1", "wxx": 0.01}',
    '{"delta": null, "wxx": 0.01}',
    '{"delta": 0.1, "wxx": false}',
    '{"delta": 0.1, "wxx": NaN}',
])
def test_sweep_invalid_point_exits_2(point, tmp_path, capsys, monkeypatch):
    # rejected while the grid is read, before any point is integrated
    integrated = []
    monkeypatch.setitem(cli._METRICS, "cnot_error", lambda p, policy: integrated.append(p))
    grid = tmp_path / "grid.json"
    grid.write_text(f'[{{"delta": 0.1, "wxx": 0.01}}, {point}]')
    code, out, err = run(capsys, "sweep", str(grid), "--metric", "cnot_error", "--jobs", "1")
    assert code == 2
    assert out == ""
    assert "bad grid point" in err
    assert integrated == []


@pytest.mark.parametrize("point, message", [
    ('{"delta": 0.1, "wxx": 0.01, "wxz": 3}', "unknown key 'wxz' in grid points"),
    ('{"delta": 0.1, "wx": 0.01}', "unknown key 'wx' in grid points"),
    ('[0.1, 0.01]', "grid points must be JSON objects"),
    ('5', "grid points must be JSON objects"),
], ids=["extra-key", "misspelled", "list", "number"])
def test_sweep_grid_point_keys_exit_2(point, message, tmp_path, capsys, monkeypatch):
    # a grid point is read like every other input object: an unknown key is
    # named, not ignored, and no point is integrated
    integrated = []
    monkeypatch.setitem(cli._METRICS, "cnot_error", lambda p, policy: integrated.append(p))
    grid = tmp_path / "grid.json"
    grid.write_text(f'[{{"delta": 0.1, "wxx": 0.01}}, {point}]')
    code, out, err = run(capsys, "sweep", str(grid), "--metric", "cnot_error", "--jobs", "1")
    assert code == 2
    assert out == ""
    assert message in err
    assert integrated == []


def test_sweep_integer_grid_values_match_floats(tmp_path, capsys):
    outputs = []
    for text in ('[{"delta": 1, "wxx": 0}, {"delta": 1, "wxx": 0.1}]',
                 '[{"delta": 1.0, "wxx": 0.0}, {"delta": 1.0, "wxx": 0.1}]'):
        grid = tmp_path / "grid.json"
        grid.write_text(text)
        code, out, _ = run(capsys, "sweep", str(grid), "--metric", "one_qubit_error",
                           "--jobs", "1", "--steps-per-period", "400")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("delta,wxx,metric\n1,0,")


def test_resonance_default(capsys):
    code, out, _ = run(capsys, "resonance", "--amps", "0.05,0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] == pytest.approx(0.0, abs=1e-15)
    assert doc["resonant"] is True


def test_resonance_undriven_gap(capsys):
    code, out, _ = run(capsys, "resonance", "--amps", "0,0")
    assert code == 0
    assert json.loads(out)["gap"] == pytest.approx(0.1)


@pytest.mark.parametrize("amps", ["0.05", "-0.05,0.05", "nan,0.05", "0.05,inf"])
def test_resonance_bad_amps_exits_2(amps, capsys):
    code, out, err = run(capsys, "resonance", f"--amps={amps}")
    assert code == 2
    assert out == ""
    assert "bad --amps" in err


@pytest.mark.parametrize("points, jobs, workers", [(3, "8", 3), (1, "8", None), (2, "1", None)])
def test_sweep_pool_no_larger_than_grid(points, jobs, workers, tmp_path, capsys, monkeypatch):
    # a pool starts all its workers at the first task, so --jobs beyond
    # the grid size must not reach it, and one worker runs inline; the
    # fake pool maps in this process and starts none
    opened = []

    class FakePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setitem(cli._METRICS, "d_concurrence", lambda p, policy: p.delta)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"delta": 0.1 * (i + 1), "wxx": 0.01} for i in range(points)]))
    code, out, _ = run(capsys, "sweep", str(grid), "--metric", "d_concurrence", "--jobs", jobs)
    assert code == 0
    assert opened == ([] if workers is None else [workers])
    assert len(out.strip().splitlines()) == points + 1


@pytest.mark.parametrize("affinity, cpu_count, jobs", [
    ({0, 3}, 64, 2), (None, 64, 64), (None, None, 1),
], ids=["pinned", "no-affinity", "unknown"])
def test_sweep_jobs_default_counts_usable_cpus(affinity, cpu_count, jobs, monkeypatch):
    # --jobs defaults to the CPUs this process may use, not the host's, so
    # a pinned process starts no more workers than it has CPUs; where the
    # platform has no affinity call it falls back to os.cpu_count(), and to
    # one job where that is unknown.  Only the parser runs: no worker starts
    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: affinity)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpu_count)
    args = cli._build_parser().parse_args(["sweep", "grid.json", "--metric", "cnot_error"])
    assert args.jobs == jobs
