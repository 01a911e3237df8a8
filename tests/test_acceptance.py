"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s) carrying the measured values alongside the pinned thresholds.
"""

import math

import numpy as np
import pytest

from flicforq.analysis import (
    concurrence,
    gate_fidelity,
    one_qubit_error_budget,
    reduced_bloch,
)
from flicforq.compiler import compile_cnot, compile_D, compile_one_qubit, compile_xx_half
from flicforq.integrator import (
    DensityState,
    StepPolicy,
    evolve,
    evolve_oracle,
    gate_unitary,
    trace_distance,
)
from flicforq.model import DEFAULT_PARAMS, PulseSequence, SystemParams, validate_sequence
from flicforq.pauli import (
    PauliString,
    RotationWord,
    build_cnot_word,
    build_D,
    conjugate_pauli,
    equal_up_to_global_phase,
    word_unitary,
)

P = DEFAULT_PARAMS
TREND_POLICY = StepPolicy(steps_per_period=800)

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def cnot_seq():
    return compile_cnot(P)


@pytest.fixture(scope="module")
def cnot_report(cnot_seq):
    u = gate_unitary(cnot_seq, StepPolicy())
    return gate_fidelity(u, build_cnot_word())


@pytest.fixture(scope="module")
def d_end_state():
    seq = compile_D(P, 0.0)
    traj = evolve(P, seq, DensityState.computational("00"), StepPolicy())
    return traj.final


def test_criterion_1_cnot_word_algebra():
    u = word_unitary(build_cnot_word())
    exact = equal_up_to_global_phase(u, CNOT_MATRIX, 1e-10)
    table = {
        "ZI": PauliString(1, "Z", "I"),
        "XI": PauliString(1, "X", "X"),
        "IZ": PauliString(1, "Z", "Z"),
        "IX": PauliString(1, "I", "X"),
    }
    heis = all(
        conjugate_pauli(build_cnot_word(), PauliString(1, lab[0], lab[1])) == expect
        for lab, expect in table.items()
    )
    ok = exact and heis
    report(1, ok, f"word=CNOT up to phase: {exact}; Heisenberg table exact: {heis}")
    assert ok


def test_criterion_2_D_algebra():
    u = word_unitary(build_D())
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    target = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)
    psi = u @ ket00
    phase = np.vdot(target, psi)
    bell_err = float(np.max(np.abs(psi - phase * target)))
    pow4_err = float(np.max(np.abs(np.linalg.matrix_power(u, 4) - np.eye(4))))
    d_squared = u @ u
    yy = PauliString(1, "Y", "Y").matrix()
    sq_err = float(np.max(np.abs(d_squared + yy)))
    ok = bell_err <= 1e-12 and pow4_err <= 1e-12 and sq_err <= 1e-12
    report(2, ok, f"D|00>=Bell err {bell_err:.1e}; D^4=1 err {pow4_err:.1e}; "
                  f"D^2=-Y1Y2 err {sq_err:.1e} (<=1e-12)")
    assert ok


def test_criterion_3_entanglement_on_demand(d_end_state):
    c = concurrence(d_end_state)
    n1 = float(np.linalg.norm(reduced_bloch(d_end_state, 1)))
    n2 = float(np.linalg.norm(reduced_bloch(d_end_state, 2)))
    ok = c >= 0.95 and n1 <= 0.15 and n2 <= 0.15
    report(3, ok, f"concurrence {c:.4f} (>=0.95); Bloch norms {n1:.4f}/{n2:.4f} (<=0.15)")
    assert ok


def test_criterion_4_refocusing():
    xx_word = RotationWord(((PauliString(1, "X", "X"), 0.5),))
    policy = StepPolicy(steps_per_period=800)
    u_flip = gate_unitary(compile_xx_half(P, 0.0), policy)
    u_noflip = gate_unitary(compile_D(P, 0.0), policy)
    f_flip = gate_fidelity(u_flip, xx_word).process
    f_noflip = gate_fidelity(u_noflip, xx_word).process
    ok = f_flip >= 0.98 and f_flip > f_noflip
    report(4, ok, f"refocused fidelity {f_flip:.4f} (>=0.98); "
                  f"unflipped D fidelity {f_noflip:.4f} (strictly lower)")
    assert ok


def test_criterion_5_one_qubit_error():
    budget = one_qubit_error_budget(P, policy=StepPolicy())
    err = budget["target_infidelity"]
    ok = err < 1e-3
    per = {k: f"{v['target_infidelity']:.2e}" for k, v in budget["per_spectator"].items()}
    report(5, ok, f"pi/2 gate infidelity {err:.2e} (<1e-3), per spectator {per}")
    assert ok


def test_criterion_6_cnot_end_to_end(cnot_report):
    rep = cnot_report
    worst_state = min(rep.per_state.values())
    ok = rep.process >= 0.98 and worst_state >= 0.98
    report(6, ok, f"process {rep.process:.4f} (>=0.98); "
                  f"worst basis-state {worst_state:.4f} (>=0.98)")
    assert ok


def test_criterion_7_error_trends():
    # Both trend clauses state that the coherent error grows with wxx/delta.
    # The model is closed (unitary, no dissipation), so the shorter two-qubit
    # segment that a stronger coupling buys cannot lower the error; the
    # (wxx/delta)^2 leakage into the one-qubit and refocused pulses raises it.
    # evolve_oracle reproduces the RK4 CNOT basis-state fidelities at both
    # couplings to within 1e-9, so the rise is the model's, not the integrator's.
    def cnot_error(wxx):
        p = SystemParams(w1z=1.05, w2z=0.95, wxx=wxx)
        seq = compile_cnot(p)
        u = gate_unitary(seq, TREND_POLICY)
        return 1.0 - gate_fidelity(u, build_cnot_word()).process, seq.total_time

    e_weak, t_weak = cnot_error(0.01)
    e_strong, t_strong = cnot_error(0.02)
    p_small = SystemParams(w1z=1.025, w2z=0.975, wxx=0.01)
    oq_small = one_qubit_error_budget(p_small, policy=TREND_POLICY)["target_infidelity"]
    budget = one_qubit_error_budget(P, policy=TREND_POLICY)
    oq_default = budget["target_infidelity"]
    spect_plain = budget["spectator_infidelity"]
    spect_echo = one_qubit_error_budget(P, echo=True, policy=TREND_POLICY)[
        "spectator_infidelity"
    ]
    c1 = e_strong > e_weak
    c2 = oq_small > oq_default
    c3 = spect_echo <= spect_plain
    ok = c1 and c2 and c3
    report(7, ok, f"cnot_error wxx 0.02/0.01: {e_strong:.2e} > {e_weak:.2e} ({c1}) "
                  f"at total time {t_strong:.1f}/{t_weak:.1f}; "
                  f"one-qubit delta 0.05/0.1: {oq_small:.2e} > {oq_default:.2e} ({c2}); "
                  f"echo spectator error {spect_echo:.2e} <= {spect_plain:.2e} ({c3})")
    assert ok


def test_criterion_8_integrator_integrity(cnot_seq):
    rho0 = DensityState.computational("10")
    traj = evolve(P, cnot_seq, rho0, StepPolicy())
    oracle = evolve_oracle(P, cnot_seq, rho0)
    dist = max(
        trace_distance(traj.state(i), oracle.state(i)) for i in range(traj.times.size)
    )
    purities = 0.25 * (1.0 + np.sum(traj.coeffs**2, axis=1))
    drift = float(np.max(np.abs(purities - purities[0])))

    # synchrony: pure Larmor drift (coupling off) realigns the interqubit
    # phase at t0_sync
    p0 = SystemParams(w1z=P.w1z, w2z=P.w2z, wxx=0.0)
    seq0 = PulseSequence(params=p0, total_time=p0.t0_sync)
    plus = DensityState.product_bloch([1, 0, 0], [1, 0, 0])
    end = evolve_oracle(p0, seq0, plus).final
    b1 = reduced_bloch(end, 1)
    b2 = reduced_bloch(end, 2)
    phase_gap = (math.atan2(b1[1], b1[0]) - math.atan2(b2[1], b2[0])) % (2 * math.pi)
    phase_gap = min(phase_gap, 2 * math.pi - phase_gap)
    ok = dist <= 1e-7 and drift <= 1e-8 and phase_gap <= 1e-6
    report(8, ok, f"evolve-vs-oracle max trace distance {dist:.2e} (<=1e-7); "
                  f"purity drift {drift:.2e} (<=1e-8); "
                  f"sync-phase residual {phase_gap:.2e} (<=1e-6)")
    assert ok


def test_criterion_9_structural(cnot_seq):
    ok_validate = (
        validate_sequence(P, cnot_seq) == []
        and validate_sequence(P, compile_D(P, 0.0)) == []
        and validate_sequence(P, compile_xx_half(P, 0.0)) == []
        and validate_sequence(
            P,
            PulseSequence(
                params=P, segments=(compile_one_qubit(P, 1, "y", math.pi / 2, 0.0),)
            ),
        ) == []
    )
    expected = 3 * (4 * math.pi / P.delta) + 4 * math.pi / P.wxx
    ok_time = (
        abs(cnot_seq.total_time - expected) <= 1e-9
        and abs(cnot_seq.total_time - 1633.628) <= 1e-3
    )
    ok = ok_validate and ok_time
    report(9, ok, f"all compiled sequences validate: {ok_validate}; "
                  f"t_CNOT {cnot_seq.total_time:.3f} == 3*(4pi/delta)+4pi/wxx ({ok_time})")
    assert ok
