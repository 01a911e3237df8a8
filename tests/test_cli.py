import json

import pytest

import flicforq.cli as cli
from flicforq.cli import main

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


@pytest.mark.parametrize("argv", [("compile", "d"), ("resonance", "--amps", "0.05,0.05")])
def test_non_numeric_params_exits_2(argv, tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text('{"w1z": "a", "w2z": 0.95, "wxx": 0.01}')
    code, _, err = run(capsys, *argv, "--params", str(pf))
    assert code == 2
    assert "cannot read params file" in err


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
    code, _, err = run(
        capsys, "simulate", str(seq_file), "--state", "banana",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2


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


def test_simulate_bad_csv_path_exits_4(tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "x90")
    seq_file = tmp_path / "x90.json"
    seq_file.write_text(seq_json)
    code, _, err = run(
        capsys, "simulate", str(seq_file),
        "--out", str(tmp_path / "no-such-dir" / "t.csv"),
        "--steps-per-period", "300",
    )
    assert code == 4
    assert "integrator failure" in err


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
        capsys, "fidelity", str(seq_file), "--word", "X2^1/2 Y1^1/2 X1X2^1/2 Y1^-1/2 Z1^1/2",
        "--steps-per-period", "1",
    )
    assert code == 4
    assert "integrator failure" in err and "diverged" in err
    assert out == ""


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


@pytest.mark.parametrize("schema", [2, 0, "1", None])
def test_unknown_schema_version_exits_2(schema, tmp_path, capsys):
    _, seq_json, _ = run(capsys, "compile", "x90")
    doc = json.loads(seq_json)
    assert doc["schema"] == 1
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


@pytest.mark.parametrize("qubit", [3, 0, "1"])
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


def test_sweep_bad_grid_exits_2(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('{"not": "a list"}')
    code, _, err = run(capsys, "sweep", str(grid), "--metric", "d_concurrence")
    assert code == 2


@pytest.mark.parametrize("point", [
    '{"delta": -0.1, "wxx": 0.01}',
    '{"delta": "nan", "wxx": 0.01}',
    '{"delta": 0.1, "wxx": 0.06}',
    '{"delta": 2.5, "wxx": 0.1}',  # w2z = 1 - delta/2 < 0
])
def test_sweep_invalid_point_exits_2(point, tmp_path, capsys):
    # rejected while the grid is read, before any point is integrated
    grid = tmp_path / "grid.json"
    grid.write_text(f'[{{"delta": 0.1, "wxx": 0.01}}, {point}]')
    code, out, err = run(capsys, "sweep", str(grid), "--metric", "cnot_error", "--jobs", "1")
    assert code == 2
    assert out == ""
    assert "bad grid point" in err


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
