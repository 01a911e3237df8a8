import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flicforq.model import (
    DEFAULT_PARAMS,
    Envelope,
    PulseSegment,
    PulseSequence,
    SystemParams,
    drive_amplitudes_at,
    on_sync_grid,
    sequence_from_json,
    sequence_to_json,
    validate_sequence,
)
from flicforq.integrator import _hamiltonians
from flicforq.pauli import basis_matrices
from lab_frame import IDX, drive_amplitudes, hamiltonian_at, masked_scale


def coeffs_to_matrix(h):
    return np.einsum("a,aij->ij", h, basis_matrices())


def checked_hamiltonian(seq, t):
    """The reference coefficients at t, once the integrators' sampler has
    given the same matrix at that time."""
    h = hamiltonian_at(seq, t)
    sampled = _hamiltonians(seq, t, t, np.array([t]))[0]
    assert np.max(np.abs(sampled - coeffs_to_matrix(h))) <= 1e-15
    return h


def test_default_params():
    p = DEFAULT_PARAMS
    assert p.delta == pytest.approx(0.1)
    assert p.w0 == pytest.approx(1.0)
    assert p.wxx == pytest.approx(0.01)
    assert p.t_swap == pytest.approx(2 * math.pi / 0.01)
    assert p.t0_sync == pytest.approx(2 * math.pi / 0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(w1z=0.95, w2z=1.05, wxx=0.01)  # delta < 0
    with pytest.raises(ValueError):
        SystemParams(w1z=1.05, w2z=0.95, wxx=0.06)  # wxx > 0.5*delta
    with pytest.warns(UserWarning):
        SystemParams(w1z=1.05, w2z=0.95, wxx=0.03)  # above 0.2*delta
    # a nominal ratio of exactly 0.2 does not warn, whichever way
    # w1z - w2z rounds (1.025 - 0.975 rounds down, 1.05 - 0.95 up)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SystemParams(w1z=1.025, w2z=0.975, wxx=0.01)
        SystemParams(w1z=1.05, w2z=0.95, wxx=0.02)
    # likewise a nominal ratio of exactly 0.5 is accepted either way
    with pytest.warns(UserWarning):
        SystemParams(w1z=1.025, w2z=0.975, wxx=0.025)
    with pytest.warns(UserWarning):
        SystemParams(w1z=1.05, w2z=0.95, wxx=0.05)


@pytest.mark.parametrize("w1z, w2z", [(2.25, -0.25), (1.5, 0.0)])
def test_non_positive_larmor_rejected(w1z, w2z):
    # delta > 0 and wxx < 0.2 delta hold, so only the sign of w2z is wrong
    with pytest.raises(ValueError, match="w2z > 0"):
        SystemParams(w1z=w1z, w2z=w2z, wxx=0.1)


def test_drive_amplitudes_per_sample_mid_matches_scalar():
    # one call over several intervals, each sample carrying its interval's
    # midpoint, gives exactly the values of one call per interval
    segs = (
        PulseSegment(start=0.0, duration=20.0, amp_x_1=0.03, amp_y_1=-0.02,
                     envelope=Envelope("raised-cosine-ramp", 4.0), flip_at=9.0, flip_qubit=1),
        PulseSegment(start=20.0, duration=12.0, amp_x_2=-0.03, amp_y_2=0.04),
    )
    seq = PulseSequence(params=DEFAULT_PARAMS, segments=segs, total_time=35.0)
    edges = [0.0, 3.0, 9.0, 14.0, 20.0, 26.0, 32.0, 35.0]
    ts = [np.linspace(a, b, 5) for a, b in zip(edges[:-1], edges[1:])]
    mids = [0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])]
    per_interval = [np.array(drive_amplitudes_at(seq, t, mid=m)) for t, m in zip(ts, mids)]
    got = drive_amplitudes_at(seq, np.concatenate(ts), mid=np.repeat(mids, 5))
    assert np.array_equal(np.array(got), np.concatenate(per_interval, axis=1))


CHANNEL = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.1, 0.1))


@st.composite
def drive_segments(draw):
    """A segment on both qubits, any channels zero, square or ramped (a
    rise of half the duration or more leaves it all ramp), perhaps
    flipping either qubit."""
    start = draw(st.floats(0.0, 40.0))
    duration = draw(st.floats(0.5, 30.0))
    envelope = draw(st.one_of(
        st.just(Envelope()),
        st.builds(Envelope, st.just("raised-cosine-ramp"), st.floats(0.1, 1.5 * duration))))
    flip = draw(st.one_of(st.none(), st.tuples(st.floats(0.05, 0.95), st.sampled_from([1, 2]))))
    return PulseSegment(
        start=start, duration=duration, envelope=envelope,
        amp_x_1=draw(CHANNEL), amp_y_1=draw(CHANNEL),
        amp_x_2=draw(CHANNEL), amp_y_2=draw(CHANNEL),
        flip_at=None if flip is None else start + flip[0] * duration,
        flip_qubit=None if flip is None else flip[1],
    )


@st.composite
def sampled_drives(draw):
    """1-4 segments, which may overlap on any qubit, and times t and
    midpoints: each segment's edges and flip, a few ulps either side of
    them, and times anywhere; scalars, a vector with one midpoint or one per
    sample, or rows of samples with one midpoint per row."""
    segs = sorted(draw(st.lists(drive_segments(), min_size=1, max_size=4)),
                  key=lambda seg: seg.start)
    seq = PulseSequence(params=DEFAULT_PARAMS, segments=tuple(segs))
    edges = [x for seg in segs for x in (seg.start, seg.end, seg.flip_at) if x is not None]
    time = st.one_of(
        st.builds(lambda x, k: x + k * np.spacing(x), st.sampled_from(edges), st.integers(-3, 3)),
        st.floats(0.0, seq.total_time + 5.0))
    shape = draw(st.sampled_from(["scalar", "one mid", "per sample", "rows"]))
    if shape == "scalar":
        return seq, draw(time), draw(time)
    t = np.array(draw(st.lists(time, min_size=6, max_size=6)))
    if shape == "one mid":
        return seq, t, draw(time)
    if shape == "per sample":
        return seq, t, np.array(draw(st.lists(time, min_size=6, max_size=6)))
    return seq, t.reshape(3, 2), np.array(draw(st.lists(time, min_size=3, max_size=3)))[:, None]


@settings(max_examples=200)
@given(case=sampled_drives())
def test_drive_amplitudes_bit_equal_to_per_channel_reference(case):
    # activity at mid is the sampler's only on/off rule: the reference also
    # clips t - start to the segment and masks the envelope outside it, and
    # sums every channel, undriven ones too, yet the bits agree everywhere
    seq, t, mid = case
    got = drive_amplitudes_at(seq, t, mid)
    want = np.array(drive_amplitudes(seq, t, mid))
    assert got.shape == want.shape == (4,) + np.shape(t)
    assert got.tobytes() == want.tobytes()


def test_segment_amplitudes_hold_the_channel_order():
    seg = PulseSegment(start=0.0, duration=1.0, amp_x_1=0.1, amp_y_1=0.2, amp_x_2=0.3,
                       amp_y_2=0.4)
    assert seg.amplitudes == (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(AttributeError):
        seg.amplitudes = (0.0,) * 4


def test_non_finite_rejected():
    bad = (math.nan, math.inf, -math.inf)
    for x in bad:
        for kw in ({"w1z": x}, {"w2z": x}, {"wxx": x}):
            with pytest.raises(ValueError, match="finite"):
                SystemParams(**{"w1z": 1.05, "w2z": 0.95, "wxx": 0.01, **kw})
        for kw in ({"start": x}, {"duration": x}, {"amp_x_1": x}, {"amp_y_1": x},
                   {"amp_x_2": x}, {"amp_y_2": x}, {"flip_at": x, "flip_qubit": 1}):
            with pytest.raises(ValueError, match="finite"):
                PulseSegment(**{"start": 0.0, "duration": 10.0, **kw})
        with pytest.raises(ValueError, match="finite"):
            Envelope(kind="raised-cosine-ramp", rise=x)
        with pytest.raises(ValueError, match="finite"):
            PulseSequence(params=DEFAULT_PARAMS, total_time=x)
        with pytest.raises(ValueError, match="finite"):
            PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(1, x)


def test_virtual_z_qubit_must_be_1_or_2():
    # True == 1 and 1.0 == 1, yet neither is a qubit number
    for qubit in (0, 3, "1", True, 1.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="virtual-z qubit must be 1 or 2"):
            PulseSequence(params=DEFAULT_PARAMS, virtual_z=((qubit, 0.5),))
        with pytest.raises(ValueError, match="virtual-z qubit must be 1 or 2"):
            PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(qubit, 0.5)
    for qubit in (1, np.int64(2)):
        seq = PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(qubit, 0.5)
        assert seq.virtual_z == ((qubit, 0.5),)


def test_flip_qubit_must_be_integer_1_or_2():
    for qubit in (None, 0, 3, True, 2.0):
        with pytest.raises(ValueError, match="flip_qubit must be 1 or 2"):
            PulseSegment(start=0.0, duration=10.0, amp_x_1=0.01, flip_at=5.0, flip_qubit=qubit)
    for qubit in (1, np.int32(2)):
        PulseSegment(start=0.0, duration=10.0, amp_x_1=0.01, flip_at=5.0, flip_qubit=qubit)


@pytest.mark.parametrize("q", [True, 1.0, np.float64(2.0), 3, 0, "1"])
def test_drives_qubit_requires_integer_1_or_2(q):
    # the rule of every qubit index; 3 used to answer for qubit 2 and
    # True or 1.0 for qubit 1
    seg = PulseSegment(start=0.0, duration=10.0, amp_x_2=0.01)
    with pytest.raises(ValueError, match="qubit must be 1 or 2"):
        seg.drives_qubit(q)


def test_drives_qubit_answers_per_qubit():
    seg = PulseSegment(start=0.0, duration=10.0, amp_y_2=0.01)
    assert [seg.drives_qubit(1), seg.drives_qubit(2), seg.drives_qubit(np.int64(2))] \
        == [False, True, True]


def _unsorted_sequence():
    return PulseSequence(params=DEFAULT_PARAMS, segments=(
        PulseSegment(start=10.0, duration=1.0, amp_x_1=0.01),
        PulseSegment(start=0.0, duration=1.0, amp_x_2=0.01),
    ))


def _fraction_amplitude_json():
    # the constructors take any finite real, but the writer turns only
    # numpy scalars into JSON numbers
    seg = PulseSegment(start=0.0, duration=10.0, amp_x_1=Fraction(1, 80))
    return sequence_to_json(PulseSequence(params=DEFAULT_PARAMS, segments=(seg,)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: SystemParams(w1z=1.05, w2z=0.95, wxx=-0.01), ValueError, "wxx must be non-negative"),
    (lambda: Envelope(kind="gaussian"), ValueError, "unknown envelope kind 'gaussian'"),
    (lambda: Envelope(kind="square", rise=1.0), ValueError, "square envelope must have rise = 0"),
    (lambda: Envelope(kind="raised-cosine-ramp", rise=-1.0), ValueError,
     "rise must be non-negative"),
    (lambda: PulseSegment(start=0.0, duration=0.0), ValueError, "duration must be positive"),
    (lambda: PulseSegment(start=0.0, duration=-1.0), ValueError, "duration must be positive"),
    # sequence_to_json writes no flip without flip_at, so it would be lost
    (lambda: PulseSegment(start=0.0, duration=1.0, amp_x_1=0.01, flip_qubit=2), ValueError,
     "flip_qubit 2 needs a flip_at"),
    (_unsorted_sequence, ValueError, "segments must be sorted by start time"),
    (_fraction_amplitude_json, TypeError, "Object of type Fraction is not JSON serializable"),
    # with_virtual_z passes the angle to the constructor's rule uncast
    (lambda: PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(1, True), ValueError,
     "angle must be a finite number"),
    (lambda: PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(1, "0.5"), TypeError, "str"),
    (lambda: PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(1, b"1"), TypeError, "bytes"),
    (lambda: PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(1, None), TypeError, "None"),
], ids=["negative-wxx", "unknown-envelope", "square-with-rise", "negative-rise",
        "zero-duration", "negative-duration", "flip-qubit-without-flip-at", "unsorted-segments",
        "fraction-to-json", "bool-virtual-z-angle", "str-virtual-z-angle", "bytes-virtual-z-angle",
        "none-virtual-z-angle"])
def test_model_rejects(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_bool_numbers_rejected():
    # JSON true and false reach the constructors as Python bools, which
    # math.isfinite takes as 1 and 0
    with pytest.raises(ValueError, match="finite number"):
        SystemParams(w1z=True, w2z=0.95, wxx=0.01)
    for kw in ({"start": False}, {"amp_x_1": True}, {"flip_at": True, "flip_qubit": 1}):
        with pytest.raises(ValueError, match="finite number"):
            PulseSegment(**{"start": 0.0, "duration": 10.0, **kw})
    with pytest.raises(ValueError, match="finite number"):
        Envelope(kind="raised-cosine-ramp", rise=True)
    with pytest.raises(ValueError, match="finite number"):
        PulseSequence(params=DEFAULT_PARAMS, total_time=True)
    with pytest.raises(ValueError, match="finite number"):
        PulseSequence(params=DEFAULT_PARAMS, virtual_z=((1, True),))


def test_coupling_warning_names_the_caller():
    # the warning points at the line that built the device, not at the
    # dataclass's generated __init__
    with pytest.warns(UserWarning, match="wxx/delta") as record:
        SystemParams(w1z=1.05, w2z=0.95, wxx=0.03)
    assert record[0].filename == __file__


def test_hamiltonian_drift_only():
    p = DEFAULT_PARAMS
    seq = PulseSequence(params=p, total_time=10.0)
    h = checked_hamiltonian(seq, 3.7)
    assert h[IDX["ZI"]] == pytest.approx(p.w1z / 2)
    assert h[IDX["IZ"]] == pytest.approx(p.w2z / 2)
    assert h[IDX["XX"]] == pytest.approx(p.wxx / 2)
    assert h[IDX["XI"]] == 0.0
    assert h[IDX["IX"]] == 0.0
    # only those three coefficients are nonzero
    assert np.count_nonzero(h) == 3


def test_hamiltonian_decoupled_case():
    p = SystemParams(w1z=1.05, w2z=0.95, wxx=0.0)
    seq = PulseSequence(params=p)
    h = checked_hamiltonian(seq, 1.0)
    m = coeffs_to_matrix(h)
    assert np.allclose(m, np.diag(np.diag(m)))
    assert h[IDX["XX"]] == 0.0


def test_hamiltonian_sin_node():
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=200.0, amp_y_1=p.delta / 2)
    seq = PulseSequence(params=p, segments=(seg,))
    t = 2 * math.pi / p.w1z  # sin(w1z*t) = 0
    h = checked_hamiltonian(seq, t)
    assert h[IDX["XI"]] == pytest.approx(0.0, abs=1e-12)
    t_peak = 0.5 * math.pi / p.w1z  # sin(w1z*t) = 1
    h = checked_hamiltonian(seq, t_peak)
    assert h[IDX["XI"]] == pytest.approx(p.delta / 2)


def test_hamiltonian_hermitian_random():
    rng = np.random.default_rng(11)
    p = DEFAULT_PARAMS
    for _ in range(20):
        seg = PulseSegment(
            start=float(rng.uniform(0, 50)),
            duration=float(rng.uniform(1, 100)),
            amp_x_1=float(rng.uniform(-0.05, 0.05)),
            amp_y_1=float(rng.uniform(-0.05, 0.05)),
            amp_x_2=float(rng.uniform(-0.05, 0.05)),
            amp_y_2=float(rng.uniform(-0.05, 0.05)),
        )
        seq = PulseSequence(params=p, segments=(seg,))
        t = float(rng.uniform(0, 150))
        h = checked_hamiltonian(seq, t)
        assert np.all(np.isreal(h))
        m = coeffs_to_matrix(h)
        assert np.allclose(m, m.conj().T)


def test_carrier_phase_is_absolute():
    # shifting a segment by one full Larmor period of its driven qubit
    # changes the envelope window only, not the carrier phase relation
    p = DEFAULT_PARAMS
    period = 2 * math.pi / p.w1z
    seg_a = PulseSegment(start=0.0, duration=50.0, amp_y_1=0.0125)
    seg_b = PulseSegment(start=period, duration=50.0, amp_y_1=0.0125)
    seq_a = PulseSequence(params=p, segments=(seg_a,))
    seq_b = PulseSequence(params=p, segments=(seg_b,))
    ts = np.linspace(5.0, 45.0, 40)
    for t in ts:
        ha = checked_hamiltonian(seq_a, t)
        hb = checked_hamiltonian(seq_b, t + period)
        assert ha[IDX["XI"]] == pytest.approx(hb[IDX["XI"]], abs=1e-12)


def test_flip_negates_post_flip_amplitude():
    p = DEFAULT_PARAMS
    seg = PulseSegment(
        start=0.0, duration=100.0, amp_y_1=0.05, amp_y_2=0.05,
        flip_at=50.0, flip_qubit=2,
    )
    seq = PulseSequence(params=p, segments=(seg,))
    _, ay1_pre, _, ay2_pre = drive_amplitudes_at(seq, 25.0, 25.0)
    _, ay1_post, _, ay2_post = drive_amplitudes_at(seq, 75.0, 75.0)
    assert ay1_pre == ay1_post == pytest.approx(0.05)
    assert ay2_pre == pytest.approx(0.05)
    assert ay2_post == pytest.approx(-0.05)


def test_flip_must_be_inside_segment():
    with pytest.raises(ValueError):
        PulseSegment(start=0.0, duration=10.0, amp_y_1=0.1, flip_at=10.0, flip_qubit=1)
    with pytest.raises(ValueError):
        PulseSegment(start=0.0, duration=10.0, amp_y_1=0.1, flip_at=5.0)


def test_envelope_raised_cosine():
    env = Envelope(kind="raised-cosine-ramp", rise=10.0)
    assert env.scale(0.0, 100.0) == pytest.approx(0.0)
    assert env.scale(5.0, 100.0) == pytest.approx(0.5)
    assert env.scale(10.0, 100.0) == pytest.approx(1.0)
    assert env.scale(50.0, 100.0) == pytest.approx(1.0)
    assert env.scale(95.0, 100.0) == pytest.approx(0.5)
    assert env.scale(100.0, 100.0) == pytest.approx(0.0)
    tau = np.linspace(0, 100, 201)
    s = env.scale(tau, 100.0)
    assert np.all((s >= 0) & (s <= 1))
    # on [0, duration] the shape is the value a range test used to mask
    for env, duration in ((env, 100.0), (Envelope("raised-cosine-ramp", 70.0), 100.0),
                          (Envelope(), 100.0)):
        assert env.scale(tau, duration).tobytes() == masked_scale(env, tau, duration).tobytes()


@pytest.mark.parametrize("rise, top", [(10.0, (12.0, 42.0)), (30.0, (27.0, 27.0))],
                         ids=["flat-top", "capped"])
def test_flat_top_is_where_the_envelope_is_one(rise, top):
    # the ramp and the flat top read one cap: a rise beyond half the
    # duration leaves a pulse that is all ramp, its peak in the middle
    seg = PulseSegment(start=2.0, duration=50.0, amp_x_1=0.1,
                       envelope=Envelope(kind="raised-cosine-ramp", rise=rise))
    assert seg.envelope.capped_rise(seg.duration) == min(rise, 25.0)
    assert seg.flat_top == top
    tau = np.linspace(0.0, 50.0, 501)
    flat = seg.envelope.scale(tau, seg.duration) == 1.0
    assert np.array_equal(flat, (tau >= top[0] - 2.0) & (tau <= top[1] - 2.0))


def test_validate_empty_sequence():
    # the nominal-0.2 devices get no ratio warning, however delta rounds
    for p in (DEFAULT_PARAMS, SystemParams(w1z=1.025, w2z=0.975, wxx=0.01),
              SystemParams(w1z=1.05, w2z=0.95, wxx=0.02)):
        assert validate_sequence(p, PulseSequence(params=p)) == []
    # a strong coupling is flagged once, when the device is built; the
    # validator checks only the sequence
    with pytest.warns(UserWarning, match="wxx/delta = 0.300 > 0.2"):
        p = SystemParams(w1z=1.05, w2z=0.95, wxx=0.03)
    assert validate_sequence(p, PulseSequence(params=p)) == []


def test_validate_off_grid_two_qubit_pulse():
    p = DEFAULT_PARAMS
    seg = PulseSegment(
        start=0.5 * p.t0_sync, duration=10.0, amp_y_1=0.05, amp_y_2=0.05,
    )
    diags = validate_sequence(p, PulseSequence(params=p, segments=(seg,)))
    assert any(d.severity == "error" and "grid" in d.message for d in diags)


def test_validate_on_grid_two_qubit_pulse_passes():
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=2 * p.t0_sync, duration=10.0, amp_y_1=0.05, amp_y_2=0.05)
    assert validate_sequence(p, PulseSequence(params=p, segments=(seg,))) == []


def test_validate_off_grid_flip_warns():
    # a refocusing flip off the t0_sync grid does not refocus, but the
    # sequence is well formed: a warning, not an error
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=4 * p.t0_sync, amp_y_1=0.05, amp_y_2=0.05,
                       flip_at=2.5 * p.t0_sync, flip_qubit=2)
    diags = validate_sequence(p, PulseSequence(params=p, segments=(seg,)))
    assert [d.severity for d in diags] == ["warning"]
    assert "flips at" in diags[0].message
    on_grid = replace(seg, flip_at=2 * p.t0_sync)
    assert validate_sequence(p, PulseSequence(params=p, segments=(on_grid,))) == []
    one_qubit = replace(seg, amp_y_2=0.0, flip_qubit=1)
    assert validate_sequence(p, PulseSequence(params=p, segments=(one_qubit,))) == []


def test_validate_overlap_same_qubit():
    p = DEFAULT_PARAMS
    segs = (
        PulseSegment(start=0.0, duration=20.0, amp_y_1=0.01),
        PulseSegment(start=10.0, duration=20.0, amp_x_1=0.01),
    )
    diags = validate_sequence(p, PulseSequence(params=p, segments=segs))
    assert any("overlap" in d.message for d in diags)
    # same windows on different qubits are fine
    segs = (
        PulseSegment(start=0.0, duration=20.0, amp_y_1=0.01),
        PulseSegment(start=10.0, duration=20.0, amp_x_2=0.01),
    )
    assert validate_sequence(p, PulseSequence(params=p, segments=segs)) == []


def test_on_sync_grid():
    p = DEFAULT_PARAMS
    assert on_sync_grid(p, 0.0)
    assert on_sync_grid(p, 4 * p.t0_sync)
    assert not on_sync_grid(p, 0.5 * p.t0_sync)


def test_json_roundtrip():
    p = DEFAULT_PARAMS
    seg = PulseSegment(
        start=0.0, duration=125.6637, amp_y_1=0.0125,
        envelope=Envelope(kind="square"),
    )
    seq = PulseSequence(params=p, segments=(seg,)).with_virtual_z(1, math.pi / 2)
    text = sequence_to_json(seq)
    back = sequence_from_json(text)
    assert back == seq
    # schema field names are part of the interface
    import json
    doc = json.loads(text)
    assert set(doc) >= {"schema", "w1z", "w2z", "wxx", "segments", "virtual_z"}
    assert doc["schema"] == 2
    seg_doc = doc["segments"][0]
    assert set(seg_doc) >= {"start", "duration", "q1", "q2", "envelope", "flip"}
    assert seg_doc["q1"] == {"x": 0.0, "y": 0.0125}
    assert seg_doc["flip"] is None
    assert doc["virtual_z"][0] == {"qubit": 1, "angle": math.pi / 2}


@pytest.mark.parametrize("segments", [[1], {"a": 1}, [[0, 1]], "ab", [
    {"start": 0.0, "duration": 1.0, "q1": {"x": 0.0, "y": 0.0}, "q2": {"x": 0.0, "y": 0.0},
     "envelope": 1}]], ids=["number", "object", "list", "string", "envelope"])
def test_json_non_object_segment_rejected(segments):
    doc = {"w1z": 1.05, "w2z": 0.95, "wxx": 0.01, "segments": segments}
    with pytest.raises(ValueError, match="must be JSON objects"):
        sequence_from_json(json.dumps(doc))


def test_json_schema_version():
    # files written before the version field read as version 1, and so do
    # version-1 files; any other version is rejected rather than guessed at
    seq = PulseSequence(params=DEFAULT_PARAMS, segments=(PulseSegment(0.0, 5.0, amp_y_1=0.01),))
    doc = json.loads(sequence_to_json(seq))
    for schema in (1, None):
        if schema is None:
            del doc["schema"]
        else:
            doc["schema"] = schema
        assert sequence_from_json(json.dumps(doc)) == seq
    for schema in (3, 0, 1.0, True, "1"):
        doc["schema"] = schema
        with pytest.raises(ValueError, match="unsupported sequence schema"):
            sequence_from_json(json.dumps(doc))
    with pytest.raises(ValueError, match="one JSON object"):
        sequence_from_json("[]")


def test_readme_schema_round_trips():
    # the documented schema is the one the parser reads and the writer writes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Sequence JSON schema", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    seq = sequence_from_json(block)
    assert json.loads(sequence_to_json(seq)) == json.loads(block)
    assert seq.segments[0].flip_qubit == 2
    assert seq.segments[1].envelope == Envelope("raised-cosine-ramp", 12.5)


@st.composite
def json_sequences(draw):
    """Devices below the coupling warning, and 0-3 segments of any envelope,
    flip and label, with a virtual-z ledger."""
    w2z = draw(st.floats(0.5, 1.0))
    delta = draw(st.floats(0.05, 0.3))
    p = SystemParams(w1z=w2z + delta, w2z=w2z, wxx=draw(st.floats(0.0, 0.15)) * delta)
    amp = st.floats(-0.1, 0.1)
    segs = []
    start = 0.0
    for _ in range(draw(st.integers(0, 3))):
        start += draw(st.floats(0.0, 50.0))
        duration = draw(st.floats(0.1, 200.0))
        envelope = Envelope()
        if draw(st.booleans()):
            envelope = Envelope("raised-cosine-ramp", draw(st.floats(0.0, 1.0)) * duration)
        flip_at = flip_qubit = None
        if draw(st.booleans()):
            flip_at = start + draw(st.floats(0.01, 0.99)) * duration
            flip_qubit = draw(st.sampled_from((1, 2)))
        segs.append(PulseSegment(
            start=start, duration=duration, amp_x_1=draw(amp), amp_y_1=draw(amp),
            amp_x_2=draw(amp), amp_y_2=draw(amp), envelope=envelope,
            flip_at=flip_at, flip_qubit=flip_qubit,
            label=draw(st.sampled_from(("", "echo", "x90"))),
        ))
    vz = tuple((draw(st.sampled_from((1, 2))), draw(st.floats(-10.0, 10.0)))
               for _ in range(draw(st.integers(0, 2))))
    total = draw(st.floats(0.0, 1000.0))
    return PulseSequence(params=p, segments=tuple(segs), virtual_z=vz, total_time=total)


@settings(max_examples=50)
@given(seq=json_sequences())
def test_json_round_trip_property(seq):
    text = sequence_to_json(seq)
    assert sequence_from_json(text) == seq
    assert sequence_to_json(sequence_from_json(text)) == text


@pytest.mark.parametrize("make", [
    lambda: PulseSequence(params=DEFAULT_PARAMS).with_virtual_z(np.int64(2), 0.5),
    lambda: PulseSequence(params=DEFAULT_PARAMS, segments=(PulseSegment(
        0.0, 10.0, amp_y_1=0.01, amp_y_2=0.01, flip_at=5.0, flip_qubit=np.int64(1)),)),
    lambda: PulseSequence(params=DEFAULT_PARAMS,
                          segments=(PulseSegment(0.0, 10.0, amp_x_1=np.float32(0.1)),)),
    lambda: PulseSequence(params=SystemParams(np.float32(1.05), 0.95, 0.01)),
], ids=["int64-virtual-z-qubit", "int64-flip-qubit", "float32-amplitude", "float32-w1z"])
def test_json_writes_numpy_scalars(make):
    # the constructors accept numpy scalars, so the writer emits them as
    # plain JSON numbers instead of raising TypeError
    seq = make()
    text = sequence_to_json(seq)
    assert sequence_from_json(text) == seq


def test_negative_times_and_non_string_label_rejected():
    # the integrators start at t = 0, so a negative start would silently
    # lose the part of its pulse before it
    with pytest.raises(ValueError, match="start must be non-negative"):
        PulseSegment(start=-1.0, duration=2.0, amp_y_1=0.01)
    with pytest.raises(ValueError, match="total_time must be non-negative"):
        PulseSequence(params=DEFAULT_PARAMS, total_time=-5.0)
    with pytest.raises(ValueError, match="label must be a string"):
        PulseSegment(0.0, 1.0, label=5)
