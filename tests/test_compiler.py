import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
)
from flicforq import compiler, integrator
from flicforq.integrator import StepPolicy, frame_unitary, gate_unitary, propagator_of_sequence
from flicforq.model import (
    DEFAULT_PARAMS,
    Envelope,
    PulseSegment,
    PulseSequence,
    SystemParams,
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


def probe_signs(p):
    """The sign map measured by simulation, the reference for calibrate:
    the rotating-frame gates of a positive delta/8 pulse over 4*pi/delta on
    each quadrature of qubit 1 and of the refocused XX pulse, each against
    both square roots of its axis.  Maps "x", "y" and "xx" to (the sign of
    the closer root, its overlap, the other root's overlap)."""
    one_qubit = PulseSegment(start=0.0, duration=4 * math.pi / p.delta)
    probes = {
        "x": (PulseSequence(params=p, segments=(replace(one_qubit, amp_x_1=p.delta / 8),)), "XI"),
        "y": (PulseSequence(params=p, segments=(replace(one_qubit, amp_y_1=p.delta / 8),)), "YI"),
        "xx": (compile_xx_half(p, 0.0), "XX"),
    }
    measured = {}
    for name, (seq, lab) in probes.items():
        u = gate_unitary(seq, POLICY)
        plus, minus = (overlap(u, axis_unitary(lab, e)) for e in (0.5, -0.5))
        measured[name] = (1.0, plus, minus) if plus >= minus else (-1.0, minus, plus)
    return measured


def test_calibration_shape_and_caching():
    cal = calibrate(P)
    assert isinstance(cal, Calibration)
    assert (cal.x_sign, cal.y_sign, cal.xx_sign) == (-1.0, 1.0, -1.0)
    assert calibrate(P) is cal  # memoized per parameter set


@settings(max_examples=15)
@given(delta=st.floats(0.05, 0.8), ratio=st.integers(2, 20))
def test_calibration_matches_probe_simulation(delta, ratio):
    # on devices whose delta/wxx is an integer, so that the refocusing flip
    # lies on the t0_sync grid; below wxx ~ 0.003 the 4*pi/wxx XX probe
    # itself fails the propagator's unitarity bound at this policy
    assume(delta / ratio >= 0.005)
    with warnings.catch_warnings():  # wxx/delta > 0.2 warns, and is valid
        warnings.simplefilter("ignore")
        p = SystemParams(w1z=1.0 + 0.5 * delta, w2z=1.0 - 0.5 * delta, wxx=delta / ratio)
    cal = calibrate(p)
    for name, (sign, right, wrong) in probe_signs(p).items():
        assert sign == getattr(cal, f"{name}_sign"), name
        assert right > 0.5, name
        assert wrong < 0.1, name


def test_compiling_integrates_nothing(monkeypatch):
    # signs come from the model, so compiling any gate on a device never
    # seen before samples no Hamiltonian and multiplies no steps
    def forbidden(*args, **kwargs):
        raise AssertionError("the compiler integrated")

    monkeypatch.setattr(integrator, "_interval_products", forbidden)
    monkeypatch.setattr(integrator, "_hamiltonians", forbidden)
    p = SystemParams(w1z=1.0625, w2z=0.9375, wxx=0.0125)
    calibrate(p)
    for axis in "xy":
        for qubit in (1, 2):
            compile_one_qubit(p, qubit, axis, math.pi / 2, 0.0)
    seq = compile_cnot(p)
    insert_decoupling(p, seq, 0)
    compile_D(p)
    compile_xx_half(p)


NO_INTEGRATOR = """
import sys
import flicforq.compiler
assert "flicforq.integrator" not in sys.modules, "flicforq.integrator was imported"
"""


def test_fresh_process_compiler_never_imports_integrator():
    # the compile layer stands on the model alone
    src = os.path.dirname(os.path.dirname(integrator.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", NO_INTEGRATOR], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr


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
    # a non-finite start is on no grid; it used to raise OverflowError or
    # round's ValueError on nan
    for start in (math.inf, -math.inf, math.nan):
        with pytest.raises(OffGridStart):
            compile_one_qubit(P, 1, "x", 0.1, start)
        with pytest.raises(OffGridStart):
            compile_D(P, start)
    with pytest.raises(ValueError):
        compile_one_qubit(P, 3, "y", 0.1, 0.0)
    with pytest.raises(ValueError):
        compile_one_qubit(P, 1, "z", 0.1, 0.0)


@pytest.mark.parametrize("qubit", [True, 1.0, np.float64(2.0), 3, 0, "1"])
def test_one_qubit_qubit_must_be_integer_1_or_2(qubit):
    # True and 1.0 used to pass and fail later on a keyword like amp_x_True
    with pytest.raises(ValueError, match="qubit must be 1 or 2"):
        compile_one_qubit(P, qubit, "x", 0.1, 0.0)


def test_one_qubit_numpy_integer_qubit():
    assert compile_one_qubit(P, np.int64(2), "x", 0.1, 0.0) \
        == compile_one_qubit(P, 2, "x", 0.1, 0.0)


@settings(max_examples=200)
@given(w2z=st.floats(0.05, 2.0), delta=st.floats(1e-3, 1.0), ratio=st.floats(1e-3, 0.19))
def test_pulse_lengths_are_doubled_device_times(w2z, delta, ratio):
    # the compiler's 2*t0_sync and 2*t_swap equal 4*pi/delta and 4*pi/wxx
    # bit for bit: doubling is exact
    p = SystemParams(w1z=w2z + delta, w2z=w2z, wxx=ratio * delta)
    assert compile_one_qubit(p, 1, "y", 0.1, 0.0).duration == 4 * math.pi / p.delta
    assert compile_D(p).segments[0].duration == 4 * math.pi / p.wxx


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
    a_pre = drive_amplitudes_at(seq, 300.0, 300.0)
    a_post = drive_amplitudes_at(seq, 900.0, 900.0)
    assert float(a_pre[1]) == pytest.approx(float(a_post[1]))  # qubit 1 unchanged
    assert float(a_pre[3]) == pytest.approx(-float(a_post[3]))  # qubit 2 negated


def test_compile_cnot_structure():
    seq = compile_cnot(P)
    assert len(seq.segments) == 4
    assert len(seq.virtual_z) == 1
    assert seq.virtual_z == ((1, math.pi / 2),)
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
    for q, angle in seq.virtual_z:
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
    seq2 = seq.with_virtual_z(2, 0.3)
    assert seq2.virtual_z == ((2, 0.3),)
    assert seq2.segments == seq.segments


def remove_decoupling(seq, index):
    """The inverse of insert_decoupling that the round-trip tests apply;
    ``index`` addresses the first host half.  Every segment from the echo
    group's end on moves back by the two echo pulses."""
    host_a, echo_a, host_b, echo_b = seq.segments[index:index + 4]  # ValueError if short
    if echo_a.label != "echo" or echo_b.label != "echo":
        raise ValueError("no echo group at this index")
    shift = -2 * (4 * math.pi / seq.params.delta)
    merged = replace(host_a, duration=host_a.duration + host_b.duration)
    after = tuple(
        replace(s, start=s.start + shift, flip_at=None if s.flip_at is None else s.flip_at + shift)
        for s in seq.segments[index + 4:]
    )
    return replace(seq, segments=seq.segments[:index] + (merged,) + after,
                   total_time=seq.total_time + shift)


def test_insert_decoupling_layout():
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    tail = compile_one_qubit(P, 2, "x", math.pi / 2, 4 * P.t0_sync)
    seq = PulseSequence(params=P, segments=(host, tail)).with_virtual_z(1, 0.1)
    out = insert_decoupling(P, seq, 0)
    assert out.total_time == pytest.approx(seq.total_time + 2 * (4 * math.pi / P.delta))
    assert len(out.segments) == 5
    echoes = [s for s in out.segments if s.label == "echo"]
    assert len(echoes) == 2
    for e in echoes:
        assert abs(e.amp_x_2) == pytest.approx(P.delta / 4)
        assert e.duration == pytest.approx(4 * math.pi / P.delta)
    assert echoes[0].amp_x_2 == pytest.approx(-echoes[1].amp_x_2)
    # the trailing segment shifted with the insertion; the ledger, the
    # final z frame, is unchanged
    assert out.segments[-1].start == pytest.approx(tail.start + 2 * (4 * math.pi / P.delta))
    assert out.virtual_z == seq.virtual_z
    assert validate_sequence(P, out) == []


def test_insert_remove_roundtrip():
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    tail = compile_one_qubit(P, 2, "x", math.pi / 2, 4 * P.t0_sync)
    seq = PulseSequence(params=P, segments=(host, tail)).with_virtual_z(1, 0.1)
    back = remove_decoupling(insert_decoupling(P, seq, 0), 0)
    assert len(back.segments) == len(seq.segments)
    for a, b in zip(back.segments, seq.segments):
        assert a.start == pytest.approx(b.start, abs=1e-9)
        assert a.duration == pytest.approx(b.duration, abs=1e-9)
        assert (a.amp_x_1, a.amp_y_1, a.amp_x_2, a.amp_y_2) == (
            b.amp_x_1, b.amp_y_1, b.amp_x_2, b.amp_y_2)
        assert a.label == b.label
    assert back.total_time == pytest.approx(seq.total_time, abs=1e-9)
    assert back.virtual_z == seq.virtual_z


@st.composite
def decoupling_cases(draw):
    """1-4 segments in time order and an index of a square one-qubit host
    without a flip; the others may drive both qubits and flip.  Up to
    three ledger entries."""
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
        seq = seq.with_virtual_z(draw(st.sampled_from((1, 2))), draw(st.floats(-3.0, 3.0)))
    return seq, index


@settings(max_examples=50)
@given(case=decoupling_cases())
def test_insert_remove_round_trip_property(case):
    seq, index = case
    inserted = insert_decoupling(P, seq, index)
    assert len(inserted.segments) == len(seq.segments) + 3
    back = remove_decoupling(inserted, index)
    assert len(back.segments) == len(seq.segments)
    for a, b in zip(back.segments, seq.segments):
        assert a.start == pytest.approx(b.start, rel=1e-12, abs=1e-9)
        assert a.duration == pytest.approx(b.duration, rel=1e-12)
        assert a.flip_at == pytest.approx(b.flip_at, rel=1e-12, abs=1e-9)
        assert (a.amp_x_1, a.amp_y_1, a.amp_x_2, a.amp_y_2, a.envelope, a.flip_qubit, a.label) \
            == (b.amp_x_1, b.amp_y_1, b.amp_x_2, b.amp_y_2, b.envelope, b.flip_qubit, b.label)
    assert back.total_time == pytest.approx(seq.total_time, rel=1e-12, abs=1e-9)
    assert back.virtual_z == seq.virtual_z


@pytest.mark.parametrize("index, error, message", [
    (-1, IndexError, r"segment index -1 is outside 0 \.\. 1"),
    (-3, IndexError, r"segment index -3 is outside 0 \.\. 1"),
    (2, IndexError, r"segment index 2 is outside 0 \.\. 1"),
    (10, IndexError, r"segment index 10 is outside 0 \.\. 1"),
    (np.int64(2), IndexError, r"segment index 2 is outside 0 \.\. 1"),
    (True, ValueError, "segment index must be an integer, got True"),
    (1.0, ValueError, "segment index must be an integer, got 1.0"),
    ("1", ValueError, "segment index must be an integer, got '1'"),
], ids=["-1", "-3", "2", "10", "numpy-2", "True", "1.0", "str-1"])
def test_insert_decoupling_index_out_of_range(index, error, message):
    # a negative index used to count from the end (-3 acted as 1, -1 broke
    # the start order) and a large one raised the tuple's bare IndexError;
    # True echoed segment 1 and 1.0 failed on the tuple's TypeError
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    tail = compile_one_qubit(P, 2, "x", math.pi / 2, 4 * P.t0_sync)
    seq = PulseSequence(params=P, segments=(host, tail))
    with pytest.raises(error, match=message):
        insert_decoupling(P, seq, index)


def test_insert_decoupling_rejects_ramped_host():
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    ramped = replace(host, envelope=Envelope("raised-cosine-ramp", 0.1 * host.duration))
    with pytest.raises(ValueError, match="decoupling requires a square host envelope"):
        insert_decoupling(P, PulseSequence(params=P, segments=(ramped,)), 0)


def test_insert_decoupling_accepts_zero_rise_ramp():
    # "ramped" means rise > 0, the rule the breakpoints and the window memo
    # use; a zero-rise ramp is a square pulse, and its echoed sequence
    # integrates bit for bit as the square host's does
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    flat = replace(host, envelope=Envelope("raised-cosine-ramp", 0.0))
    runs = [integrator._running_propagators(
        insert_decoupling(P, PulseSequence(params=P, segments=(seg,)), 0), POLICY, 1e-9)
        for seg in (host, flat)]
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


ECHO_DEVICES = [DEFAULT_PARAMS, SystemParams(1.125, 0.875, 0.025),
                SystemParams(1.1, 0.9, 0.02), SystemParams(1.06, 0.95, 0.01)]


@pytest.mark.parametrize("p", ECHO_DEVICES, ids=["default", "bench", "1.1", "1.06"])
@pytest.mark.parametrize("qubit, axis", [(1, "x"), (1, "y"), (2, "x"), (2, "y")])
def test_echoes_are_pi_rotations_of_the_compiler_rule(p, qubit, axis):
    # the -pi and +pi rotations of the one-qubit rule on the idle qubit's x
    # channel: exactly +delta/4 and then -delta/4, each as long as a
    # compiled one-qubit pulse
    host = compile_one_qubit(p, qubit, axis, math.pi / 2, 0.0)
    out = insert_decoupling(p, PulseSequence(params=p, segments=(host,)), 0)
    for echo, amp in ((out.segments[1], p.delta / 4), (out.segments[3], -p.delta / 4)):
        assert echo.amplitudes == ((0.0, 0.0, amp, 0.0) if qubit == 1 else (amp, 0.0, 0.0, 0.0))
        assert echo.duration == host.duration and echo.label == "echo"


def test_echoes_follow_the_calibrated_x_sign(monkeypatch):
    # the echoes read calibrate's x sign through the one rotation rule: with
    # it flipped to +1 they read -delta/4 and then +delta/4
    monkeypatch.setattr(compiler, "calibrate",
                        lambda p: Calibration(x_sign=1.0, y_sign=1.0, xx_sign=-1.0))
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    out = insert_decoupling(P, PulseSequence(params=P, segments=(host,)), 0)
    assert (out.segments[1].amp_x_2, out.segments[3].amp_x_2) == (-P.delta / 4, P.delta / 4)


def test_insert_decoupling_rejects_two_qubit():
    seq = compile_xx_half(P, 0.0)
    with pytest.raises(NotOneQubitSegment):
        insert_decoupling(P, seq, 0)


def test_remove_decoupling_requires_echo_group():
    host = compile_one_qubit(P, 1, "y", math.pi / 2, 0.0)
    seq = PulseSequence(params=P, segments=(host,))
    with pytest.raises(ValueError):
        remove_decoupling(seq, 0)
