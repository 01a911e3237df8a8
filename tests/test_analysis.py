import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from flicforq.analysis import (
    FidelityReport,
    NegativeEigenvalue,
    NotUnitary,
    compose_virtual_z,
    concurrence,
    gate_fidelity,
    one_qubit_error_budget,
    reduced_bloch,
    report_to_json,
    sideband_check,
)
from flicforq import analysis
from flicforq.analysis import _align_phases
from flicforq.compiler import compile_cnot, compile_one_qubit
from flicforq.integrator import DensityState, StepPolicy, gate_unitary
from flicforq.model import DEFAULT_PARAMS, PulseSequence, SystemParams
from flicforq.pauli import PauliString, RotationWord, build_cnot_word, word_unitary

P = DEFAULT_PARAMS
QUICK = StepPolicy(steps_per_period=600)

BELL_I = (np.array([1, 0, 0, 1j], dtype=complex)) / np.sqrt(2)  # (|00>+i|11>)/sqrt2
BELLS = [
    np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
]


def word(*elems):
    return RotationWord(tuple((PauliString(1, lab[0], lab[1]), e) for lab, e in elems))


def test_reduced_bloch_product():
    s = DensityState.computational("00")
    assert np.allclose(reduced_bloch(s, 1), [0, 0, 1])
    assert np.allclose(reduced_bloch(s, 2), [0, 0, 1])


def test_reduced_bloch_bell_vanishes():
    s = DensityState.from_ket(BELL_I)
    assert np.linalg.norm(reduced_bloch(s, 1)) < 1e-12
    assert np.linalg.norm(reduced_bloch(s, 2)) < 1e-12


def test_reduced_bloch_maximally_mixed():
    s = DensityState(np.zeros(15))
    assert np.allclose(reduced_bloch(s, 1), 0)
    assert np.allclose(reduced_bloch(s, 2), 0)


def test_reduced_bloch_norms_random_product():
    rng = np.random.default_rng(8)
    for _ in range(10):
        b1 = rng.normal(size=3)
        b1 /= np.linalg.norm(b1)
        b2 = rng.normal(size=3)
        b2 /= np.linalg.norm(b2)
        s = DensityState.product_bloch(b1, b2)
        assert np.linalg.norm(reduced_bloch(s, 1)) == pytest.approx(1.0)
        assert np.allclose(reduced_bloch(s, 2), b2, atol=1e-12)


def test_concurrence_values():
    assert concurrence(DensityState.from_ket(BELL_I)) == pytest.approx(1.0, abs=1e-10)
    assert concurrence(DensityState.computational("01")) == pytest.approx(0.0, abs=1e-10)
    for b in BELLS:
        assert concurrence(DensityState.from_ket(b)) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_product_states_zero():
    rng = np.random.default_rng(12)
    for _ in range(10):
        psi = np.kron(
            rng.normal(size=2) + 1j * rng.normal(size=2),
            rng.normal(size=2) + 1j * rng.normal(size=2),
        )
        s = DensityState.from_ket(psi)
        assert concurrence(s) == pytest.approx(0.0, abs=1e-8)


def test_concurrence_rejects_negative():
    c = np.zeros(15)
    c[2] = 2.0  # rho = (1 + 2*Z1)/4 has a -1/4 eigenvalue
    with pytest.raises(NegativeEigenvalue):
        concurrence(DensityState(c))


def test_gate_fidelity_exact_self():
    w = build_cnot_word()
    rep = gate_fidelity(word_unitary(w), w)
    assert rep.process == pytest.approx(1.0, abs=1e-12)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in rep.per_state.values())


def test_gate_fidelity_global_phase_invariant():
    w = build_cnot_word()
    u = np.exp(0.7j) * word_unitary(w)
    rep = gate_fidelity(u, w, align_local_z=False)
    assert rep.process == pytest.approx(1.0, abs=1e-12)


def test_gate_fidelity_local_z_quotient():
    w = build_cnot_word()
    u = word_unitary(w)
    zl = np.diag(np.exp(1j * np.array([0.4, 0.4, -0.4, -0.4])))  # z1 phase
    zr = np.diag(np.exp(1j * np.array([0.9, -0.9, 0.9, -0.9])))  # z2 phase
    rep = gate_fidelity(zl @ u @ zr, w)
    assert rep.process == pytest.approx(1.0, abs=1e-9)
    assert all(v == pytest.approx(1.0, abs=1e-8) for v in rep.per_state.values())


def test_gate_fidelity_alignment_monotone():
    w = build_cnot_word()
    u = np.diag(np.exp(1j * np.array([0.3, 0.3, -0.3, -0.3]))) @ word_unitary(w)
    off = gate_fidelity(u, w, align_local_z=False)
    on = gate_fidelity(u, w, align_local_z=True)
    assert on.process >= off.process


def test_gate_fidelity_aligns_inverse_xx_root():
    # (1 - i XX)/sqrt2 differs from (1 + i XX)/sqrt2 only by local z phases
    u = word_unitary(word(("XX", -0.5)))
    rep = gate_fidelity(u, word(("XX", 0.5)))
    assert rep.process == pytest.approx(1.0, abs=1e-9)


def test_gate_fidelity_not_unitary():
    with pytest.raises(NotUnitary):
        gate_fidelity(0.5 * np.eye(4), build_cnot_word())
    for bad in (np.nan, np.inf):
        u = np.eye(4, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(NotUnitary):
            gate_fidelity(u, build_cnot_word())


def z_diag(phi1, phi2):
    """Diagonal of exp(i*(phi1*Z1 + phi2*Z2)/2) on |00>, |01>, |10>, |11>."""
    return np.exp(0.5j * np.array([phi1 + phi2, phi1 - phi2, -phi1 + phi2, -phi1 - phi2]))


def sequential_align(u_ideal, u_sim):
    # coordinate sweeps one start, one coordinate and one 4x4 trace at a
    # time, then a BFGS polish of the best start: the sweeps alone can stop
    # short of the maximum along a ridge (by 8e-12 on the random pairs below)
    uid = u_ideal.conj().T
    halves = (
        (np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, 1.0])),
        (np.diag([1.0, 0.0, 1.0, 0.0]), np.diag([0.0, 1.0, 0.0, 1.0])),
    )

    def trace_of(ph):
        return np.trace(uid @ np.diag(z_diag(ph[0], ph[1])) @ u_sim
                        @ np.diag(z_diag(ph[2], ph[3])))

    best_ph = np.zeros(4)
    best_f = -1.0
    for start in itertools.product((0.0, math.pi), repeat=4):
        ph = np.array(start)
        prev = -1.0
        for _ in range(200):
            for k in range(4):
                side, q = divmod(k, 2)
                plus, minus = halves[q]
                rest = ph.copy()
                rest[k] = 0.0
                zl = np.diag(z_diag(rest[0], rest[1]))
                zr = np.diag(z_diag(rest[2], rest[3]))
                if side == 0:
                    a = np.trace(uid @ zl @ plus @ u_sim @ zr)
                    b = np.trace(uid @ zl @ minus @ u_sim @ zr)
                else:
                    a = np.trace(uid @ zl @ u_sim @ zr @ plus)
                    b = np.trace(uid @ zl @ u_sim @ zr @ minus)
                if abs(a) > 1e-300 and abs(b) > 1e-300:
                    ph[k] = float(np.angle(b) - np.angle(a))
            f = abs(trace_of(ph)) ** 2 / 16.0
            if abs(f - prev) < 1e-12:
                break
            prev = f
        if f > best_f:
            best_f = f
            best_ph = ph.copy()
    res = minimize(lambda ph: -abs(trace_of(ph)) ** 2 / 16.0, best_ph, method="BFGS",
                   options={"gtol": 1e-12})
    if -res.fun > best_f:
        best_ph, best_f = res.x, -res.fun
    return best_ph, best_f


def random_unitaries(seed, n):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, np.newaxis, :]


def with_z_phases(u, ph):
    return z_diag(ph[0], ph[1])[:, np.newaxis] * u * z_diag(ph[2], ph[3])


def per_state(u_ideal, u_sim, ph):
    # |<Ui e_b, Zl Us Zr e_b>|^2 for each basis state b; Zr only adds a phase
    return np.abs(np.einsum("ib,i,ib->b", u_ideal.conj(), z_diag(ph[0], ph[1]), u_sim)) ** 2


def layer_word(a1, k1, a2, k2):
    # one-qubit rotations about a1 on qubit 1 and a2 on qubit 2 by k*pi/8
    return word((a1 + "I", k1 / 8), ("I" + a2, k2 / 8))


def align_cases():
    cnot = word_unitary(build_cnot_word())
    rng = np.random.default_rng(21)
    # random pairs; on seeds 252, 657 and 1349 coordinate sweeps alone
    # stop 7.5e-12 to 8.2e-12 below the maximum, on a ridge
    pairs = [tuple(random_unitaries(seed, 2)) for seed in (0, 1, 252, 657, 1349)]
    for u in random_unitaries(3, 3):
        pairs.append((cnot, u))
        pairs.append((cnot, with_z_phases(cnot, rng.uniform(-math.pi, math.pi, 4))))
    for a1, k1, a2, k2 in (("X", 1, "Y", -3), ("Y", 4, "Y", 2), ("X", -2, "X", -4)):
        ideal = word_unitary(layer_word(a1, k1, a2, k2))
        off = word_unitary(layer_word(a1, k1 + 0.3, a2, k2 - 0.2))
        pairs.append((ideal, ideal))
        pairs.append((ideal, with_z_phases(off, rng.uniform(-math.pi, math.pi, 4))))
    return pairs


def test_align_phases_matches_sequential():
    for u_ideal, u_sim in align_cases():
        ph, f = _align_phases(u_ideal, u_sim)
        ref_ph, ref_f = sequential_align(u_ideal, u_sim)
        assert f == pytest.approx(ref_f, abs=1e-12)
        gap = per_state(u_ideal, u_sim, ph) - per_state(u_ideal, u_sim, ref_ph)
        assert np.max(np.abs(gap)) <= 1e-6


def test_align_phases_wrapped():
    # reported phases are canonical, and wrapping them keeps the fidelity
    for u_ideal, u_sim in align_cases():
        ph, f = _align_phases(u_ideal, u_sim)
        assert np.all((-math.pi < ph) & (ph <= math.pi))
        trace = np.trace(u_ideal.conj().T @ with_z_phases(u_sim, ph))
        assert abs(trace) ** 2 / 16.0 == pytest.approx(f, abs=1e-12)


COMPILED_WORDS = [build_cnot_word(), word(("XX", 0.5)), word(("XX", -0.5))] + [
    layer_word(a1, k1, a2, k2)
    for a1, a2 in itertools.product("XY", repeat=2)
    for k1, k2 in itertools.product((-4, -3, -2, -1, 1, 2, 3, 4), repeat=2)
]
PHASE = st.floats(-math.pi, math.pi)


@settings(max_examples=150)
@given(w=st.sampled_from(COMPILED_WORDS), ph=st.tuples(PHASE, PHASE, PHASE, PHASE))
def test_gate_fidelity_quotients_z_phases_of_compiled_words(w, ph):
    # the words flicforq compiles are recovered exactly from any local z frame
    rep = gate_fidelity(with_z_phases(word_unitary(w), ph), w)
    assert rep.process >= 1.0 - 1e-9
    assert all(-math.pi < x <= math.pi for x in rep.alignment)


PAULI_PAIRS = [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]


@settings(max_examples=300)
@given(
    elems=st.lists(st.tuples(st.sampled_from(PAULI_PAIRS), st.floats(-1.0, 1.0)),
                   min_size=1, max_size=3),
    ph=st.tuples(PHASE, PHASE, PHASE, PHASE),
)
def test_gate_fidelity_quotients_z_phases_of_pauli_words(elems, ph):
    # 1-3 rotations about arbitrary two-qubit Pauli strings: coordinate
    # sweeps alone stall up to 1e-3 below the maximum on some of these
    w = word(*elems)
    rep = gate_fidelity(with_z_phases(word_unitary(w), ph), w)
    assert rep.process >= 1.0 - 1e-12


def test_gate_fidelity_disjoint_support():
    # conj(U_ideal) * U_sim is zero, so every alignment gives a zero trace
    xx = np.eye(4)[::-1]  # X1X2
    rep = gate_fidelity(xx, RotationWord(()))
    assert rep.process == 0.0
    assert all(v == 0.0 for v in rep.per_state.values())


BENCH = SystemParams(w1z=1.125, w2z=0.875, wxx=0.025)


def test_alignment_converges_in_few_newton_iterations(monkeypatch):
    # one Newton solve per iteration, at most 8 starts; a coordinate search
    # alone needs 134 sweeps on this layer
    calls = []
    real = analysis._shifted_solve

    def spy(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(analysis, "_shifted_solve", spy)
    layer = PulseSequence(params=BENCH, segments=(
        compile_one_qubit(BENCH, 1, "x", math.pi / 8, 0.0),
        compile_one_qubit(BENCH, 2, "y", -math.pi / 2, 0.0),
    ))
    cases = [(compile_cnot(BENCH), build_cnot_word()), (layer, layer_word("X", 1, "Y", -4))]
    for seq, w in cases:
        calls.clear()
        rep = gate_fidelity(gate_unitary(seq, StepPolicy(steps_per_period=800)), w)
        assert rep.process > 0.98
        assert 1 <= len(calls) <= 20
        assert max(calls) <= 8


def test_gate_fidelity_deterministic():
    u = random_unitaries(5, 1)[0]
    w = build_cnot_word()
    assert gate_fidelity(u, w) == gate_fidelity(u, w)


def test_compose_virtual_z():
    seq = PulseSequence(params=P, total_time=1.0).with_virtual_z(1, math.pi / 2, 1.0)
    u = compose_virtual_z(np.eye(4), seq)
    assert np.allclose(u, word_unitary(word(("ZI", 0.5))), atol=1e-12)


def test_sideband_check_resonant_defaults():
    rep = sideband_check(P, 0.05, 0.05)
    assert rep["qubit1_sidebands"] == pytest.approx([1.0, 1.1])
    assert rep["qubit2_sidebands"] == pytest.approx([0.9, 1.0])
    assert rep["gap"] == pytest.approx(0.0, abs=1e-15)
    assert rep["resonant"]


def test_sideband_check_gap_values():
    assert sideband_check(P, 0.0, 0.0)["gap"] == pytest.approx(P.delta)
    assert sideband_check(P, 0.025, 0.025)["gap"] == pytest.approx(P.delta / 2)
    rep = sideband_check(P, 0.06, 0.04)
    assert rep["gap"] == pytest.approx(0.0, abs=1e-15)
    assert rep["resonant"]
    for a1, a2 in ((-0.01, 0.0), (math.nan, 0.05), (0.05, math.inf)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sideband_check(P, a1, a2)


def test_sideband_gap_linear():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a1, a2 = rng.uniform(0, 0.05, size=2)
        gap = sideband_check(P, a1, a2)["gap"]
        assert gap == pytest.approx(P.delta - a1 - a2)


def test_error_budget_below_paper_threshold():
    rep = one_qubit_error_budget(P, policy=QUICK)
    assert rep["target_infidelity"] < 1e-3
    assert rep["parasitic_angle_formula"] is None  # arccos argument exceeds 1
    assert set(rep["per_spectator"]) == {"0", "+"}
    assert rep["gate_time"] == pytest.approx(4 * math.pi / P.delta)


def test_error_budget_decoupled_is_smaller():
    p0 = SystemParams(w1z=1.05, w2z=0.95, wxx=0.0)
    rep0 = one_qubit_error_budget(p0, policy=QUICK)
    rep = one_qubit_error_budget(P, policy=QUICK)
    assert rep0["target_infidelity"] < rep["target_infidelity"]


def test_error_budget_echo_protects_spectator():
    rep = one_qubit_error_budget(P, policy=QUICK)
    rep_echo = one_qubit_error_budget(P, echo=True, policy=QUICK)
    assert rep_echo["spectator_infidelity"] <= rep["spectator_infidelity"]


def test_report_json_schema():
    rep = FidelityReport(
        process=0.99,
        per_state={"00": 1.0, "01": 1.0, "10": 0.99, "11": 0.99},
        alignment=(0.0, 0.1, 0.2, 0.3),
        notes=["x"],
    )
    import json

    doc = json.loads(report_to_json(rep))
    assert set(doc) == {"per_state", "process", "alignment", "notes"}
    assert doc["alignment"] == [0.0, 0.1, 0.2, 0.3]
