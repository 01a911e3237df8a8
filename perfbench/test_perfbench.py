"""Self-tests of the benchmark harness; none of them integrates a pulse.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import flicforq.compiler  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from flicforq.analysis import FidelityReport  # noqa: E402
from flicforq.compiler import Calibration  # noqa: E402
from flicforq.integrator import Trajectory  # noqa: E402
from tracing import Tracer, error_counts, layer_totals, self_times  # noqa: E402

with open(os.path.join(HERE, "reference.json")) as _fh:
    REF = json.load(_fh)


@pytest.fixture
def fake_calibration(monkeypatch):
    """Compile without integrating: signs only steer amplitudes."""
    monkeypatch.setattr(flicforq.compiler, "calibrate", lambda p: Calibration(1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# Seeded inputs


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = W.make_rounds(workload, 7, 16)
    assert a == W.make_rounds(workload, 7, 16)
    assert a != W.make_rounds(workload, 8, 16)


def test_rounds_have_complementary_cost():
    for a, b in W.make_rounds("cnot_fidelity", 3, 32):
        assert a + b == 7
    (x0, x1), (y0, y1) = W.SWEEP_X, W.SWEEP_Y
    for p, q in W.make_rounds("device_sweep", 3, 32):
        assert abs(2 / p.delta + 2 / q.delta - (x0 + x1)) <= 0.4
        assert x0 <= 2 / q.delta <= x1
        assert 1 / p.wxx + 1 / q.wxx == pytest.approx(y0 + y1)
    labels = [r[0] for r in W.make_rounds("d_simulate", 3, 32)]
    assert sorted(labels[:16]) == sorted(W.TOMO_LABELS)
    for block in W.make_rounds("gate_fidelity", 3, 4):
        assert sorted(v[:2] for v in block) == sorted(W.GATE_CHOICES)
        assert sorted(v[2:] for v in block) == sorted(W.GATE_CHOICES)
    assert len(set(W.GATE_VARIANTS)) == 256


def test_every_gate_variant_has_a_reference():
    assert sorted(REF["gate_process"]) == sorted(W.gate_key(v) for v in W.GATE_VARIANTS)


# ---------------------------------------------------------------------------
# Periodic-carrier share of generated inputs


def _share(workload, seed=5, count=20):
    items = [it for rnd in W.make_rounds(workload, seed, count) for it in rnd]
    return sum(W.input_is_periodic(workload, it) for it in items) / len(items)


@pytest.mark.parametrize("workload", ["gate_fidelity", "oracle_verify"])
def test_short_sequences_last_one_pulse_length(workload, fake_calibration):
    slot = 4 * math.pi / W.BENCH_PARAMS.delta
    build = W.gate_sequence if workload == "gate_fidelity" else W.oracle_sequence
    for item in [it for rnd in W.make_rounds(workload, 4, 2) for it in rnd][:16]:
        seq = build(item, Tracer(False))
        assert [s.drives_qubit(1) for s in seq.segments] == [True, False]
        assert seq.total_time == pytest.approx(slot)


def test_periodic_share_from_generated_inputs(fake_calibration):
    assert _share("gate_fidelity") == 0.0
    assert _share("cnot_fidelity") == 1.0
    assert _share("d_simulate") == 1.0
    assert _share("oracle_verify") == 0.0
    assert _share("device_sweep") == 0.5
    for p, q in W.make_rounds("device_sweep", 5, 20):
        x = 2 / p.delta
        assert W.input_is_periodic("device_sweep", p) == (abs(x - round(x)) < 1e-9)


# ---------------------------------------------------------------------------
# Checks reject perturbed outputs, and run_op counts the failure


def _failed(workload, item, tmp_path):
    log = []
    _, out = run.run_op(W.WORKLOADS[workload], item, Tracer(False), REF, str(tmp_path), 0, log)
    return out is None


def test_check_functions_reject_perturbations():
    ref = REF["gate_process"]["x+1,x+1"]
    good = dict(defect=1e-12, process=ref, worst_state=0.99, ref_process=ref,
                roundtrip_ok=True, errors=[])
    assert W.check_gate(**good) == []
    for key, bad in (("defect", 2e-9), ("process", ref + 2e-6), ("worst_state", 0.97),
                     ("roundtrip_ok", False), ("errors", ["overlap"])):
        assert W.check_gate(**{**good, key: bad})
    good = (5e-8, 5e-9, 10, 9, 0.5)
    assert W.check_state(*good) == []
    for i, bad in enumerate((2e-7, 2e-8, 11, 10, 1.5)):
        assert W.check_state(*good[:i], bad, *good[i + 1:])
    assert W.check_sweep(2.1e-3) == []
    assert W.check_sweep(1.0) and W.check_sweep(float("nan"))


def test_d_simulate_perturbed_state_fails(monkeypatch, tmp_path):
    label = "+,0"
    final = np.array(REF["d_final"][label])
    T = W.compile_D(W.BENCH_PARAMS).total_time

    def fake_evolve(p, seq, rho0, policy, eps):
        c = final.copy()
        c[0] += eps
        return Trajectory(times=np.array([0.0, T]), coeffs=np.vstack([rho0.c, c]))

    monkeypatch.setattr(W, "evolve", lambda *a: fake_evolve(*a, eps=0.0))
    assert not _failed("d_simulate", label, tmp_path)
    monkeypatch.setattr(W, "evolve", lambda *a: fake_evolve(*a, eps=1e-6))
    assert _failed("d_simulate", label, tmp_path)


@pytest.mark.parametrize("workload", ["gate_fidelity", "cnot_fidelity"])
def test_perturbed_fidelity_or_unitarity_fails(workload, monkeypatch, fake_calibration, tmp_path):
    if workload == "gate_fidelity":
        item = ("y", 3, "x", -1)
        ref = REF["gate_process"]["y+3,x-1"]
    else:
        item = 5
        ref = REF["cnot_process"][str(item)]

    def report(process):
        per_state = {k: 0.99 for k in ("00", "01", "10", "11")}
        return lambda u, word: FidelityReport(process, per_state, (0.0,) * 4)

    monkeypatch.setattr(W, "propagator_of_sequence", lambda p, s, pol: np.eye(4, dtype=complex))
    monkeypatch.setattr(W, "gate_fidelity", report(ref))
    assert not _failed(workload, item, tmp_path)
    monkeypatch.setattr(W, "gate_fidelity", report(ref - 1e-5))
    assert _failed(workload, item, tmp_path)
    monkeypatch.setattr(W, "gate_fidelity", report(ref))
    monkeypatch.setattr(W, "propagator_of_sequence",
                        lambda p, s, pol: (1 + 1e-8) * np.eye(4, dtype=complex))
    assert _failed(workload, item, tmp_path)


def test_sweep_perturbed_infidelity_fails(monkeypatch, tmp_path):
    def fake_cal(p):
        return None
    fake_cal.cache_clear = lambda: None
    monkeypatch.setattr(W, "calibrate", fake_cal)
    device = W.make_rounds("device_sweep", 1, 1)[0][0]
    for value, fails in ((2e-3, False), (0.9, True)):
        monkeypatch.setattr(W, "one_qubit_error_budget",
                            lambda p, policy: {"target_infidelity": value})
        assert _failed("device_sweep", device, tmp_path) == fails


def test_oracle_perturbed_gap_fails(monkeypatch, fake_calibration, tmp_path):
    spec = W.make_rounds("oracle_verify", 2, 1)[0][0]

    def traj(p, seq, rho0, eps=0.0):
        c = np.vstack([rho0.c, rho0.c])
        c[1, 8] += eps
        return Trajectory(times=np.array([0.0, seq.total_time]), coeffs=c)

    monkeypatch.setattr(W, "evolve", lambda p, seq, rho0, pol: traj(p, seq, rho0))
    monkeypatch.setattr(W, "evolve_oracle", lambda p, seq, rho0: traj(p, seq, rho0))
    assert not _failed("oracle_verify", spec, tmp_path)
    monkeypatch.setattr(W, "evolve_oracle", lambda p, seq, rho0: traj(p, seq, rho0, 1e-6))
    assert _failed("oracle_verify", spec, tmp_path)


# ---------------------------------------------------------------------------
# Spans


def _span(name, start, end, parent=None, op=0, error=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "op": op, "error": error}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("op", 0.0, 10.0),
        _span("integrator.evolve", 1.0, 3.0, parent=0),
        _span("integrator.oracle", 2.0, 4.0, parent=0),  # overlaps its sibling
        _span("analysis.state", 5.0, 6.0, parent=0),
        _span("model.json", 5.2, 5.5, parent=3),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.7, 0.3])
    totals, op_time = layer_totals(spans, [0])
    assert op_time == 10.0
    assert totals["analysis.state"] == pytest.approx(0.7)


def test_tracer_records_nesting_ops_and_errors():
    tr = Tracer(True)

    def boom():
        raise ValueError("bad input")

    with tr.op(3):
        tr.call("model.json", lambda: tr.call("model.validate", lambda: 1))
        with pytest.raises(ValueError):
            tr.call("compiler.compile", boom)
    names = [s["name"] for s in tr.spans]
    assert names == ["op", "model.json", "model.validate", "compiler.compile"]
    assert [s["parent"] for s in tr.spans] == [None, 0, 1, 0]
    assert {s["op"] for s in tr.spans} == {3}
    assert error_counts(tr.spans) == {"compiler": 1}
    assert all(t >= 0 for t in self_times(tr.spans))
    off = Tracer(False)
    assert off.call("model.json", lambda: 5) == 5 and off.spans == []


# ---------------------------------------------------------------------------
# The launcher


def test_launcher_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "d_simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_adjusted_time_rescales_by_the_reference_kernel():
    ref = hostspeed.REF_S
    assert hostspeed.adjusted(0.5, ref, ref) == pytest.approx(0.5)
    # The host ran at half speed around the op: the op counts half its wall time.
    assert hostspeed.adjusted(0.5, 1.5 * ref, 2.5 * ref) == pytest.approx(0.25)
    assert hostspeed.reference_seconds() > 0


def test_nominal_steps_matches_policy():
    p = W.BENCH_PARAMS
    period = 2 * math.pi / p.w1z
    assert W.nominal_steps(p, 10 * period, W.POLICY) == 10 * W.POLICY.steps_per_period
