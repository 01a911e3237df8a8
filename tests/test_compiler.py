import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flicforq.compiler import (
    AngleOutOfRange,
    Calibration,
    NotOneQubitSegment,
    OffGridStart,
    calibrate,
    compile_cnot,
    compile_D,
    compile_one_qubit,
    compile_xx_half,
    insert_decoupling,
    remove_decoupling,
)
from flicforq.integrator import StepPolicy, frame_unitary, gate_unitary, propagator_of_sequence
from flicforq.model import (
    DEFAULT_PARAMS,
    PulseSegment,
    PulseSequence,
    drive_amplitudes_at,
    validate_sequence,
)
from flicforq.pauli import PauliString, RotationWord, word_unitary

P = DEFAULT_PARAMS
POLICY = StepPolicy(steps_per_period=800)


def rotating_propagator(seq):
    u = propagator_of_sequence(P, seq, POLICY)
    return frame_unitary(P, seq.total_time) @ u


def overlap(u, v):
    return abs(np.trace(u.conj().T @ v)) ** 2 / 16.0


def axis_unitary(lab, exponent):
    return word_unitary(RotationWord(((PauliString(1, lab[0], lab[1]), exponent),)))


def test_calibration_shape_and_caching():
    cal = calibrate(P)
    assert isinstance(cal, Calibration)
    assert cal.x_sign in (-1.0, 1.0)
    assert cal.y_sign in (-1.0, 1.0)
    assert cal.xx_sign in (-1.0, 1.0)
    assert calibrate(P) is cal  # memoized per parameter set


def test_one_qubit_pi_half_amplitude():
    seg = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    assert seg.duration == pytest.approx(125.6637, abs=1e-4)
    assert abs(seg.amp_y_1) == pytest.approx(0.0125)
    assert seg.amp_x_1 == seg.amp_x_2 == seg.amp_y_2 == 0.0


def test_one_qubit_finer_rotation():
    seg = compile_one_qubit(P, 2, "x", math.pi / 4, 2 * P.t0_sync)
    assert abs(seg.amp_x_2) == pytest.approx(0.00625)
    assert seg.duration == pytest.approx(125.6637, abs=1e-4)
    assert seg.start == pytest.approx(2 * P.t0_sync)


def test_one_qubit_zero_angle_placeholder():
    seg = compile_one_qubit(P, 1, "x", 0.0, 0.0)
    assert seg.amp_x_1 == 0.0
    assert seg.duration == pytest.approx(4 * math.pi / P.delta)


def test_one_qubit_errors():
    with pytest.raises(AngleOutOfRange):
        compile_one_qubit(P, 1, "y", 0.51 * math.pi, 0.0)
    with pytest.raises(OffGridStart):
        compile_one_qubit(P, 1, "y", math.pi / 2, 0.5 * P.t0_sync)
    with pytest.raises(ValueError):
        compile_one_qubit(P, 3, "y", 0.1, 0.0)
    with pytest.raises(ValueError):
        compile_one_qubit(P, 1, "z", 0.1, 0.0)


@pytest.mark.parametrize("qubit,axis,lab", [(1, "y", "YI"), (1, "x", "XI"), (2, "x", "IX")])
def test_one_qubit_realizes_requested_rotation(qubit, axis, lab):
    # dual route: the calibrated compiler output, simulated independently,
    # lands on the requested square root, not its inverse
    seg = compile_one_qubit(P, qubit, axis, math.pi / 2, 0.0)
    u = rotating_propagator(PulseSequence(params=P, segments=(seg,)))
    assert overlap(u, axis_unitary(lab, 0.5)) > 0.95
    assert overlap(u, axis_unitary(lab, -0.5)) < 0.1


def test_compile_D_shape():
    seq = compile_D(P, 0.0)
    assert len(seq.segments) == 1
    seg = seq.segments[0]
    assert seg.duration == pytest.approx(1256.637, abs=1e-3)
    assert seg.amp_y_1 == pytest.approx(0.05)
    assert seg.amp_y_2 == pytest.approx(0.05)
    assert seg.amp_x_1 == seg.amp_x_2 == 0.0
    assert seg.flip_at is None
    # duration is exactly (2*delta/wxx) sync periods
    assert seg.duration / P.t0_sync == pytest.approx(20.0)
    with pytest.raises(OffGridStart):
        compile_D(P, 0.3 * P.t0_sync)


def test_compile_xx_half_flip():
    seq = compile_xx_half(P, 0.0)
    seg = seq.segments[0]
    assert seg.flip_at == pytest.approx(628.319, abs=1e-3)
    assert seg.flip_qubit == 2
    assert seg.duration == pytest.approx(1256.637, abs=1e-3)
    # the flip point itself sits on the sync grid
    assert seg.flip_at / P.t0_sync == pytest.approx(10.0)


def test_xx_half_halves_negate_one_qubit():
    seq = compile_xx_half(P, 0.0)
    a_pre = drive_amplitudes_at(seq, 300.0)
    a_post = drive_amplitudes_at(seq, 900.0)
    assert float(a_pre[1]) == pytest.approx(float(a_post[1]))  # qubit 1 unchanged
    assert float(a_pre[3]) == pytest.approx(-float(a_post[3]))  # qubit 2 negated


def test_compile_cnot_structure():
    seq = compile_cnot(P)
    assert len(seq.segments) == 4
    assert len(seq.virtual_z) == 1
    q, angle, t = seq.virtual_z[0]
    assert q == 1
    assert angle == pytest.approx(math.pi / 2)
    assert t == pytest.approx(seq.total_time)
    expected = 3 * (4 * math.pi / P.delta) + 4 * math.pi / P.wxx
    assert seq.total_time == pytest.approx(expected, rel=1e-12)
    assert seq.total_time == pytest.approx(1633.628, abs=1e-3)
    assert validate_sequence(P, seq) == []
    # exactly one two-qubit segment, flipped on qubit 2
    two_q = [s for s in seq.segments if s.is_two_qubit]
    assert len(two_q) == 1
    assert two_q[0].flip_qubit == 2
    # grid-timed starts throughout
    for seg in seq.segments:
        assert (seg.start / P.t0_sync) == pytest.approx(round(seg.start / P.t0_sync))


def test_compiled_cnot_simulates_to_cnot():
    seq = compile_cnot(P)
    u = rotating_propagator(seq)
    for q, angle, _t in seq.virtual_z:
        z = PauliString(1, "Z", "I") if q == 1 else PauliString(1, "I", "Z")
        u = word_unitary(RotationWord(((z, angle / math.pi),))) @ u
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert overlap(u, cnot) > 0.98
    # gate_unitary composes the same frame and ledger
    assert np.max(np.abs(gate_unitary(seq, POLICY) - u)) < 1e-14


def test_virtual_z_appends_ledger():
    seq = PulseSequence(params=P, total_time=10.0)
    seq2 = seq.with_virtual_z(2, 0.3, 10.0)
    assert seq2.virtual_z == ((2, 0.3, 10.0),)
    assert seq2.segments == seq.segments


def test_insert_decoupling_layout():
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    tail = compile_one_qubit(P, 2, "x", math.pi / 2, 4 * P.t0_sync)
    seq = PulseSequence(params=P, segments=(host, tail)).with_virtual_z(1, 0.1, tail.end)
    out = insert_decoupling(P, seq, 0)
    assert out.total_time == pytest.approx(seq.total_time + 2 * (4 * math.pi / P.delta))
    assert len(out.segments) == 5
    echoes = [s for s in out.segments if s.label == "echo"]
    assert len(echoes) == 2
    for e in echoes:
        assert abs(e.amp_x_2) == pytest.approx(P.delta / 4)
        assert e.duration == pytest.approx(4 * math.pi / P.delta)
    assert echoes[0].amp_x_2 == pytest.approx(-echoes[1].amp_x_2)
    # the trailing segment and ledger entry shifted with the insertion
    assert out.segments[-1].start == pytest.approx(tail.start + 2 * (4 * math.pi / P.delta))
    assert out.virtual_z[0][2] == pytest.approx(tail.end + 2 * (4 * math.pi / P.delta))
    assert validate_sequence(P, out) == []


def test_insert_remove_roundtrip():
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    tail = compile_one_qubit(P, 2, "x", math.pi / 2, 4 * P.t0_sync)
    seq = PulseSequence(params=P, segments=(host, tail)).with_virtual_z(1, 0.1, tail.end)
    back = remove_decoupling(P, insert_decoupling(P, seq, 0), 0)
    assert len(back.segments) == len(seq.segments)
    for a, b in zip(back.segments, seq.segments):
        assert a.start == pytest.approx(b.start, abs=1e-9)
        assert a.duration == pytest.approx(b.duration, abs=1e-9)
        assert (a.amp_x_1, a.amp_y_1, a.amp_x_2, a.amp_y_2) == (
            b.amp_x_1, b.amp_y_1, b.amp_x_2, b.amp_y_2)
        assert a.label == b.label
    assert back.total_time == pytest.approx(seq.total_time, abs=1e-9)
    for (qa, aa, ta), (qb, ab, tb) in zip(back.virtual_z, seq.virtual_z):
        assert (qa, aa) == (qb, ab)
        assert ta == pytest.approx(tb, abs=1e-9)


@st.composite
def decoupling_cases(draw):
    """1-4 segments in time order and an index of a square one-qubit host
    without a flip; the others may drive both qubits and flip.  Ledger
    entries fall anywhere in the sequence."""
    amp = st.floats(-0.05, 0.05).filter(lambda a: a != 0.0)
    n = draw(st.integers(1, 4))
    index = draw(st.integers(0, n - 1))
    segs = []
    start = 0.0
    for i in range(n):
        start += draw(st.floats(0.0, 100.0))
        duration = draw(st.floats(1.0, 300.0))
        qubits = [draw(st.sampled_from((1, 2)))] if i == index \
            else draw(st.sampled_from(([1], [2], [1, 2])))
        flip = i != index and draw(st.booleans())
        segs.append(PulseSegment(
            start=start, duration=duration,
            **{f"amp_{c}_{q}": draw(amp) for c in "xy" for q in qubits},
            flip_at=start + 0.5 * duration if flip else None,
            flip_qubit=qubits[-1] if flip else None,
        ))
        start = segs[-1].end
    seq = PulseSequence(params=P, segments=tuple(segs))
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.floats(0.0, 1.0)) * seq.total_time
        seq = seq.with_virtual_z(draw(st.sampled_from((1, 2))), draw(st.floats(-3.0, 3.0)), t)
    return seq, index


@settings(max_examples=50)
@given(case=decoupling_cases())
def test_insert_remove_round_trip_property(case):
    seq, index = case
    inserted = insert_decoupling(P, seq, index)
    assert len(inserted.segments) == len(seq.segments) + 3
    back = remove_decoupling(P, inserted, index)
    assert len(back.segments) == len(seq.segments)
    for a, b in zip(back.segments, seq.segments):
        assert a.start == pytest.approx(b.start, rel=1e-12, abs=1e-9)
        assert a.duration == pytest.approx(b.duration, rel=1e-12)
        assert a.flip_at == pytest.approx(b.flip_at, rel=1e-12, abs=1e-9)
        assert (a.amp_x_1, a.amp_y_1, a.amp_x_2, a.amp_y_2, a.envelope, a.flip_qubit, a.label) \
            == (b.amp_x_1, b.amp_y_1, b.amp_x_2, b.amp_y_2, b.envelope, b.flip_qubit, b.label)
    assert back.total_time == pytest.approx(seq.total_time, rel=1e-12, abs=1e-9)
    assert len(back.virtual_z) == len(seq.virtual_z)
    for (qa, aa, ta), (qb, ab, tb) in zip(back.virtual_z, seq.virtual_z):
        assert (qa, aa) == (qb, ab)
        assert ta == pytest.approx(tb, rel=1e-12, abs=1e-9)


def test_insert_decoupling_rejects_two_qubit():
    seq = compile_xx_half(P, 0.0)
    with pytest.raises(NotOneQubitSegment):
        insert_decoupling(P, seq, 0)


def test_remove_decoupling_requires_echo_group():
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    seq = PulseSequence(params=P, segments=(host,))
    with pytest.raises(ValueError):
        remove_decoupling(P, seq, 0)
