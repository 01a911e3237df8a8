import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import flicforq.integrator as integrator
from flicforq.compiler import (
    compile_cnot,
    compile_D,
    compile_one_qubit,
    compile_xx_half,
    insert_decoupling,
    remove_decoupling,
)
from flicforq.integrator import (
    DensityState,
    NoConvergence,
    StepPolicy,
    StepTooCoarse,
    Trajectory,
    WrongFrame,
    evolve,
    evolve_oracle,
    propagator_of_sequence,
    to_rotating_frame,
    trace_distance,
    write_trajectory_csv,
)
from flicforq.integrator import (
    IDX,
    _BASIS,
    _breakpoints,
    _complex_of,
    _expm_batch,
    _hamiltonians,
    _interval_steps,
    _real_form,
    _rk4_steps,
    _time_ordered_product,
    trace_distance_matrices,
)
from flicforq.model import (
    DEFAULT_PARAMS,
    Envelope,
    PulseSegment,
    PulseSequence,
    SystemParams,
    drive_amplitudes_at,
    validate_sequence,
)
from lab_frame import hamiltonian_at

QUICK = StepPolicy(steps_per_period=300)


def random_state(rng):
    # random pure state
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return DensityState.from_ket(psi)


def lab_hamiltonian(p, seq, t, mid):
    """Complex H(t), vectorized over t, with segment activity and flip
    signs decided at mid."""
    ax1, ay1, ax2, ay2 = drive_amplitudes_at(seq, t, mid=mid)
    u1 = ax1 * np.cos(p.w1z * t) + ay1 * np.sin(p.w1z * t)
    u2 = ax2 * np.cos(p.w2z * t) + ay2 * np.sin(p.w2z * t)
    hd = 0.5 * p.w1z * _BASIS[IDX["ZI"]] + 0.5 * p.w2z * _BASIS[IDX["IZ"]] \
        + 0.5 * p.wxx * _BASIS[IDX["XX"]]
    x1, x2 = _BASIS[IDX["XI"]], _BASIS[IDX["IX"]]
    return hd + u1[..., None, None] * x1 + u2[..., None, None] * x2


def test_density_state_basics():
    s = DensityState.computational("00")
    assert s.purity == pytest.approx(1.0)
    rho = s.to_matrix()
    assert rho[0, 0] == pytest.approx(1.0)
    assert np.trace(rho) == pytest.approx(1.0)
    assert s.c[IDX["ZI"]] == pytest.approx(1.0)
    assert s.c[IDX["IZ"]] == pytest.approx(1.0)
    assert s.c[IDX["ZZ"]] == pytest.approx(1.0)


def test_density_state_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = random_state(rng)
        back = DensityState.from_matrix(s.to_matrix())
        assert np.allclose(s.c, back.c, atol=1e-12)
        s.validate()


def test_product_bloch():
    s = DensityState.product_bloch([0, 0, 1], [1, 0, 0])
    rho = s.to_matrix()
    psi = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)  # |0>|+>
    assert np.vdot(psi, rho @ psi).real == pytest.approx(1.0)


def test_density_state_rejects_non_finite():
    c = np.zeros(15)
    c[IDX["XX"]] = np.nan
    with pytest.raises(ValueError, match="finite"):
        DensityState(c)
    with pytest.raises(ValueError, match="finite"):
        DensityState.product_bloch([np.nan, 0, 0], [0, 0, 1])


def test_diagonal_state_stationary_without_drive():
    p = SystemParams(w1z=1.05, w2z=0.95, wxx=0.0)
    seq = PulseSequence(params=p, total_time=50.0)
    traj = evolve(p, seq, DensityState.computational("00"), QUICK)
    assert np.max(np.abs(traj.coeffs - traj.coeffs[0])) < 1e-12


def test_pi_half_pulse_rotates_bloch():
    p = DEFAULT_PARAMS
    dur = 4 * math.pi / p.delta
    seg = PulseSegment(start=0.0, duration=dur, amp_y_1=p.delta / 8)
    seq = PulseSequence(params=p, segments=(seg,))
    traj = evolve(p, seq, DensityState.computational("00"), QUICK)
    rot = to_rotating_frame(traj.final, p, t=float(traj.times[-1]))
    b1 = rot.c[0:3]
    # pi/2 rotation about the y axis of the rotating frame
    assert abs(b1[2]) < 0.01
    assert abs(abs(b1[0]) - 1.0) < 0.01
    # spectator stays put
    assert rot.c[5] == pytest.approx(1.0, abs=0.01)


def test_evolve_matches_oracle_short():
    rng = np.random.default_rng(9)
    p = DEFAULT_PARAMS
    cases = []
    for _ in range(3):
        seg = PulseSegment(
            start=0.0,
            duration=float(rng.uniform(10, 40)),
            amp_y_1=float(rng.uniform(-0.05, 0.05)),
            amp_x_2=float(rng.uniform(-0.05, 0.05)),
        )
        cases.append((PulseSequence(params=p, segments=(seg,)), random_state(rng)))
    # a refocusing flip, then an abutting segment on the same channel: the
    # samples at the flip and at the shared edge must take the one-sided
    # limit from inside each interval
    segs = (
        PulseSegment(start=0.0, duration=20.0, amp_y_1=0.04, amp_x_2=0.03,
                     flip_at=9.0, flip_qubit=1),
        PulseSegment(start=20.0, duration=12.0, amp_x_1=-0.03),
    )
    cases.append((PulseSequence(params=p, segments=segs), random_state(rng)))
    for seq, rho0 in cases:
        t1 = evolve(p, seq, rho0, StepPolicy(steps_per_period=800))
        t2 = evolve_oracle(p, seq, rho0)
        assert t1.times.shape == t2.times.shape
        for i in range(t1.times.size):
            assert trace_distance(t1.state(i), t2.state(i)) < 1e-7


def test_step_product_matches_sequential_rk4():
    # the batched step matrices and their pairwise product against the
    # plain RK4 loop on the propagator, one step at a time
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=12.0, amp_y_1=0.04, amp_x_2=-0.03,
                       flip_at=5.0, flip_qubit=2)
    seq = PulseSequence(params=p, segments=(seg,), total_time=15.0)

    def f(t, mid):
        return -1j * lab_hamiltonian(p, seq, t, mid)

    u = np.eye(4, dtype=complex)
    bps = _breakpoints(seq)
    for a, b in zip(bps[:-1], bps[1:]):
        n, h = _interval_steps(a, b, QUICK.step_target(p))
        mid = 0.5 * (a + b)
        for j in range(n):
            t = a + j * h
            k1 = f(t, mid) @ u
            k2 = f(t + 0.5 * h, mid) @ (u + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, mid) @ (u + 0.5 * h * k2)
            k4 = f(t + h, mid) @ (u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(propagator_of_sequence(p, seq, QUICK) - u)) < 1e-12


def test_expm_batch_matches_scipy():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 4, 4))
    mats = a + a.transpose(0, 2, 1)
    got = _complex_of(_expm_batch(mats, 0.37))
    for m, e in zip(mats, got):
        assert np.max(np.abs(e - scipy.linalg.expm(-0.37j * m))) < 1e-12


@pytest.mark.parametrize("norm", [1e-3, 0.05, 0.5, integrator._SERIES_NORM,
                                  integrator._SERIES_NORM * (1.0 + 1e-9), 3.0, 10.0])
def test_expm_batch_series_and_squaring_match_scipy(norm):
    # ||hM||_1 = norm for every matrix, one step each as in an oracle chunk:
    # the series alone up to _SERIES_NORM, where its degree is highest, and
    # scaling and squaring above it
    rng = np.random.default_rng(15)
    a = rng.normal(size=(8, 4, 4))
    mats = a + a.transpose(0, 2, 1)
    h = norm / np.max(np.sum(np.abs(mats), axis=-2), axis=-1)
    got = _complex_of(_expm_batch(mats, h))
    for m, hk, e in zip(mats, h, got):
        assert np.max(np.abs(e - scipy.linalg.expm(-1j * hk * m))) <= 1e-14


def test_hamiltonians_real_and_match_model():
    # both integrators rely on H(t) being real; a drive through another
    # channel would break this before it broke the physics
    p = DEFAULT_PARAMS
    segs = (
        PulseSegment(start=0.0, duration=20.0, amp_x_1=0.03, amp_y_1=-0.02,
                     envelope=Envelope("raised-cosine-ramp", 4.0), flip_at=9.0, flip_qubit=1),
        PulseSegment(start=20.0, duration=12.0, amp_x_2=-0.03, amp_y_2=0.04),
    )
    seq = PulseSequence(params=p, segments=segs, total_time=35.0)
    bps = _breakpoints(seq)
    for a, b in zip(bps[:-1], bps[1:]):
        tg = a + (b - a) * np.array([0.1, 0.5, 0.9])
        hs = _hamiltonians(seq, a, b, tg)
        assert hs.dtype == np.float64
        for t, h in zip(tg, hs):
            ref = np.einsum("a,aij->ij", hamiltonian_at(seq, float(t)), _BASIS)
            assert np.max(np.abs(h - ref)) <= 1e-15


def test_real_form_roundtrip_and_product():
    rng = np.random.default_rng(12)
    a_re, a_im, b_re, b_im = rng.normal(size=(4, 5, 4, 4))
    assert np.array_equal(_complex_of(_real_form(a_re, a_im)), a_re + 1j * a_im)
    ab = (a_re + 1j * a_im) @ (b_re + 1j * b_im)
    got = _real_form(a_re, a_im) @ _real_form(b_re, b_im)
    assert np.max(np.abs(got - _real_form(ab.real, ab.imag))) <= 1e-14


def reference_oracle(p, seq, rho0, substeps=64, max_doublings=6):
    # the oracle one substep at a time: complex Hermitian eigendecomposition
    # exponentials, and rho conjugated by each substep propagator in turn
    def expm(mats, h):
        lam, vec = np.linalg.eigh(mats)
        return np.einsum("nij,nj,nkj->nik", vec, np.exp(-1j * h * lam), vec.conj())

    shift = math.sqrt(3.0) / 6.0
    c_plus = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
    c_minus = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
    bps = _breakpoints(seq)
    period = 2.0 * math.pi / max(p.w1z, p.w2z)
    prev = None
    n = substeps
    for _ in range(max_doublings + 1):
        rho = rho0.to_matrix()
        states = [rho0.c]
        for a, b in zip(bps[:-1], bps[1:]):
            m, h = _interval_steps(a, b, period / n)
            base = a + h * np.arange(m)
            mid = 0.5 * (a + b)
            h1 = lab_hamiltonian(p, seq, base + (0.5 - shift) * h, mid)
            h2 = lab_hamiltonian(p, seq, base + (0.5 + shift) * h, mid)
            ea = expm(c_plus * h1 + c_minus * h2, h)
            eb = expm(c_minus * h1 + c_plus * h2, h)
            for u in eb @ ea:
                rho = u @ rho @ u.conj().T
            states.append(np.real(np.einsum("aij,ji->a", _BASIS, rho)))
        if prev is not None and trace_distance_matrices(rho, prev) < 1e-9:
            return np.array(states)
        prev = rho
        n *= 2
    raise NoConvergence("reference oracle did not converge")


def test_oracle_matches_per_substep_reference():
    # the interval products, shared with the RK4 route, against the
    # substep-by-substep conjugation
    p = DEFAULT_PARAMS
    segs = (
        PulseSegment(start=0.0, duration=20.0, amp_y_1=0.04, amp_x_2=0.03,
                     flip_at=9.0, flip_qubit=1),
        PulseSegment(start=20.0, duration=6.0, amp_x_1=-0.03),
    )
    seq = PulseSequence(params=p, segments=segs)
    rho0 = random_state(np.random.default_rng(14))
    got = evolve_oracle(p, seq, rho0).coeffs
    assert np.max(np.abs(got - reference_oracle(p, seq, rho0))) <= 1e-12


def ramped_flip_sequence():
    """A ramped segment with an off-grid flip and an overlapping square one
    on the benchmark device; every oracle pass holds more substeps than one
    batch."""
    segs = (
        PulseSegment(start=0.0, duration=30.0, amp_x_1=0.05, amp_y_1=-0.02,
                     envelope=Envelope("raised-cosine-ramp", 6.0), flip_at=13.3, flip_qubit=1),
        PulseSegment(start=BENCH.t0_sync, duration=30.0, amp_y_2=0.04),
    )
    return PulseSequence(params=BENCH, segments=segs)


def oracle_pass(seq, h_target):
    """The oracle's running propagators U(t_k) from one pass of substeps of
    at most h_target."""
    bps = _breakpoints(seq)
    return integrator._running_products(integrator._interval_products(
        seq, bps[:-1], bps[1:], h_target, integrator._gauss_nodes, integrator._cf4_steps,
        integrator._ORACLE_BATCH))


def test_oracle_matches_reference_across_chunks(monkeypatch):
    # with the chunk cap lowered to two batches, the second pass spans
    # several chunks and each pass several batches
    cap = 2 * integrator._ORACLE_BATCH
    monkeypatch.setattr(integrator, "_CHUNK_STEPS", cap)
    p, seq = BENCH, ramped_flip_sequence()
    period = 2.0 * math.pi / p.w1z
    bps = _breakpoints(seq)
    first, second = ([_interval_steps(a, b, period / s)[0] for a, b in zip(bps[:-1], bps[1:])]
                     for s in (64, 128))
    assert sum(first) > integrator._ORACLE_BATCH
    assert len(integrator._chunks(second, cap)) >= 2
    rho0 = random_state(np.random.default_rng(16))
    got = evolve_oracle(p, seq, rho0).coeffs
    assert np.max(np.abs(got - reference_oracle(p, seq, rho0))) <= 1e-12


def test_oracle_batches_chunks_without_eigh(monkeypatch):
    # every exponential comes from the series, each substep's exactly
    # once, in batches that span several intervals and stay within the
    # batch cap unless one interval alone exceeds it
    def no_eigh(*args, **kwargs):
        raise AssertionError("the oracle called np.linalg.eigh")

    passes = []
    real_pass, real_expm = integrator._interval_products, integrator._expm_batch

    def spy_pass(seq, a, b, h_target, *scheme):
        passes.append(([_interval_steps(x, y, h_target)[0] for x, y in zip(a, b)], []))
        return real_pass(seq, a, b, h_target, *scheme)

    def spy_expm(mats, h):
        passes[-1][1].append(mats.size // 32)  # two 4x4 exponentials per substep
        return real_expm(mats, h)

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    monkeypatch.setattr(integrator, "_expm_batch", spy_expm)
    seq = ramped_flip_sequence()
    evolve_oracle(BENCH, seq, random_state(np.random.default_rng(17)))
    cap = integrator._ORACLE_BATCH
    assert len(passes) >= 2
    for counts, batches in passes:
        assert sum(batches) == sum(counts)
        assert len(batches) < len(counts)
        assert all(b <= cap or b in counts for b in batches)


def plain_propagators(p, seq, policy):
    """U(t_k) at every breakpoint, every interval stepped by RK4."""
    us = [np.eye(8)]
    bps = _breakpoints(seq)
    for a, b in zip(bps[:-1], bps[1:]):
        n, h = _interval_steps(a, b, policy.step_target(p))
        tg = a + 0.5 * h * np.arange(2 * n + 1)
        us.append(_time_ordered_product(_rk4_steps(_hamiltonians(seq, a, b, tg), h)) @ us[-1])
    return _complex_of(np.array(us))


# the benchmark device: the paper's with delta and wxx scaled by 2.5, w0/delta = 4
BENCH = SystemParams(w1z=1.125, w2z=0.875, wxx=0.025)
BENCH_POLICY = StepPolicy(steps_per_period=800)


def gate_layer(p):
    segs = (compile_one_qubit(p, 1, "x", math.pi / 4, 0.0),
            compile_one_qubit(p, 2, "y", -math.pi / 2, 0.0))
    return PulseSequence(params=p, segments=segs)


@pytest.mark.parametrize("p, seq, policy", [
    (DEFAULT_PARAMS, compile_cnot(DEFAULT_PARAMS), StepPolicy()),
    (BENCH, compile_D(BENCH), BENCH_POLICY),
    (BENCH, compile_xx_half(BENCH), BENCH_POLICY),
    (BENCH, gate_layer(BENCH), BENCH_POLICY),
], ids=["cnot", "D", "xx_half", "gate_layer"])
def test_window_reuse_matches_plain_stepping(p, seq, policy):
    # intervals one or more sync windows apart share a propagator up to
    # Z1Z2 conjugation; reuse must agree with stepping each one to rounding
    u = propagator_of_sequence(p, seq, policy)
    assert np.max(np.abs(u - plain_propagators(p, seq, policy)[-1])) <= 1e-11


def test_evolve_window_reuse_matches_plain_stepping():
    seq = compile_D(BENCH)
    rho0 = random_state(np.random.default_rng(15))
    traj = evolve(BENCH, seq, rho0, BENCH_POLICY)
    us = plain_propagators(BENCH, seq, BENCH_POLICY)
    rhos = us @ rho0.to_matrix() @ us.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    coeffs = np.real(np.einsum("aij,nji->na", _BASIS, rhos))
    assert np.max(np.abs(traj.coeffs - coeffs)) <= 1e-11


def device(ratio):
    """w0 = 1 and w0/delta = ratio, with the benchmark device's wxx/delta."""
    delta = 1.0 / ratio
    return SystemParams(w1z=1.0 + 0.5 * delta, w2z=1.0 - 0.5 * delta, wxx=0.1 * delta)


def square_pair(p, windows, envelope=None):
    seg = PulseSegment(start=0.0, duration=windows * p.t0_sync, amp_y_1=p.delta / 2,
                       amp_y_2=p.delta / 2, envelope=envelope or Envelope())
    return PulseSequence(params=p, segments=(seg,))


@pytest.mark.parametrize("p, seq, built, intervals", [
    (BENCH, compile_D(BENCH), 8, 160),
    (device(3.9), square_pair(device(3.9), 3), 24, 24),
    (device(4 + 1e-9), square_pair(device(4 + 1e-9), 3), 24, 24),
    (BENCH, square_pair(BENCH, 3, Envelope("raised-cosine-ramp", 10.0)), 24, 24),
], ids=["D", "ratio-3.9", "ratio-4+1e-9", "ramped"])
def test_window_reuse_and_fallback(p, seq, built, intervals, monkeypatch):
    # the D pulse is flat for 20 windows, so only its first window is
    # stepped; a device whose carriers do not flip over t0_sync, or a ramp,
    # steps every interval.  A call's leading axes batch intervals.
    intervals_built = []

    def counting(hs, h):
        intervals_built.append(math.prod(hs.shape[:-3]))
        return _rk4_steps(hs, h)

    monkeypatch.setattr(integrator, "_rk4_steps", counting)
    u = propagator_of_sequence(p, seq, BENCH_POLICY)
    assert sum(intervals_built) == built
    assert _breakpoints(seq).size - 1 == intervals
    monkeypatch.undo()
    assert np.max(np.abs(u - plain_propagators(p, seq, BENCH_POLICY)[-1])) <= 1e-13


def mixed_sequence(p):
    """Six sync windows on p: a ramped segment with an off-grid flip, a
    square one whose on-grid flip and off-grid end cut intervals, and a
    third with an off-grid end, so the distinct intervals have several step
    counts."""
    s = p.t0_sync
    segs = (
        PulseSegment(start=0.0, duration=2.3 * s, amp_x_1=0.03, amp_y_1=-0.02,
                     envelope=Envelope("raised-cosine-ramp", 0.4 * s),
                     flip_at=1.13 * s, flip_qubit=1),
        PulseSegment(start=0.0, duration=4.7 * s, amp_y_2=0.03, flip_at=2.0 * s, flip_qubit=2),
        PulseSegment(start=3.0 * s, duration=1.61 * s, amp_x_1=0.02),
    )
    return PulseSequence(params=p, segments=segs, total_time=6.0 * s)


def test_chunked_build_equals_plain_stepping():
    # on a device without window reuse every interval is built, in chunks
    # and batches that mix step counts, yet each U(t_k) has the bits of
    # stepping one interval at a time
    p = device(3.9)
    seq = mixed_sequence(p)
    bps = _breakpoints(seq)
    counts = [_interval_steps(a, b, BENCH_POLICY.step_target(p))[0]
              for a, b in zip(bps[:-1], bps[1:])]
    assert len(set(counts)) >= 4
    assert len(integrator._chunks(counts, integrator._CHUNK_STEPS)) >= 3
    got = integrator._running_propagators(seq, BENCH_POLICY, 1e-9)[1]
    assert np.array_equal(got, plain_propagators(p, seq, BENCH_POLICY))


# per route, one pass over a sequence at a policy's step target, and the
# steps a sampling of m times per interval holds
ROUTES = {
    "rk4": (lambda seq, policy: integrator._running_propagators(seq, policy, 1e-9),
            lambda m: (m - 1) // 2),
    "oracle": (lambda seq, policy: oracle_pass(seq, policy.step_target(seq.params)),
               lambda m: m // 2),
}


CAP_CASES = {
    "ratio-3.9": (device(3.9), mixed_sequence(device(3.9)), BENCH_POLICY),
    "bench": (BENCH, mixed_sequence(BENCH), BENCH_POLICY),
    "fine": (BENCH, gate_layer(BENCH), StepPolicy(steps_per_period=20000)),
}


@pytest.mark.parametrize("route, p, seq, policy", [
    pytest.param(route, *case, id=name if route == "rk4" else f"{route}-{name}")
    for route in ROUTES for name, case in CAP_CASES.items()
])
def test_drive_samples_bounded_by_chunk_cap(route, p, seq, policy, monkeypatch):
    # each sampling call covers intervals of one step count whose steps
    # fit the cap, unless a single interval alone exceeds it (the fine
    # policy's 11250-step grid intervals on the benchmark device)
    calls = []
    real = integrator._hamiltonians
    run, steps_of = ROUTES[route]

    def spy(seq, a, b, tg):
        calls.append(tg.shape)
        return real(seq, a, b, tg)

    monkeypatch.setattr(integrator, "_hamiltonians", spy)
    run(seq, policy)
    cap = integrator._CHUNK_STEPS
    steps = [(k, steps_of(m)) for k, m in calls]
    assert all(k * n <= cap or k == 1 for k, n in steps)
    if policy == BENCH_POLICY:
        assert any(k > 1 for k, _ in steps)
    else:
        assert all(n > cap for _, n in steps)


NO_NUMPY_MA = """
import sys
import flicforq.cli
from flicforq.compiler import calibrate
from flicforq.integrator import DensityState, evolve_oracle
from flicforq.model import PulseSegment, PulseSequence, SystemParams
p = SystemParams(w1z=1.125, w2z=0.875, wxx=0.025)
calibrate(p)
seq = PulseSequence(params=p, segments=(PulseSegment(start=0.0, duration=5.0, amp_y_1=0.05),))
evolve_oracle(p, seq, DensityState.computational("00"))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_fresh_process_never_imports_numpy_ma():
    # np.unique's first call imports numpy.ma, about 15 ms of a fresh
    # process's set-up, so neither integrator may call it
    src = os.path.dirname(os.path.dirname(integrator.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_MA], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr


# a wide-detuning device keeps the sync grid (t0_sync = 4 pi) short
WIDE = SystemParams(w1z=1.25, w2z=0.75, wxx=0.05)


@st.composite
def generated_sequences(draw):
    """1-3 segments, each starting on the first sync-grid point after the
    previous one: one-qubit segments of at most one window, square or
    ramped, with an off-grid end; square one-qubit segments of 2-4 windows;
    square two-qubit segments of 1-3 windows.  Any segment may flip, off
    the t0_sync/8 grid, or on it when it lasts whole windows."""
    p = WIDE
    amp = st.floats(-p.delta / 4, p.delta / 4)
    segs = []
    start = 0.0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("short", "long", "two-qubit")))
        envelope = Envelope()
        if kind == "short":
            duration = draw(st.floats(0.125, 1.0)) * p.t0_sync
            if draw(st.booleans()):
                envelope = Envelope("raised-cosine-ramp", draw(st.floats(0.05, 0.5)) * duration)
        else:
            windows = {"long": (2, 4), "two-qubit": (1, 3)}[kind]
            duration = draw(st.integers(*windows)) * p.t0_sync
        qubit = draw(st.sampled_from((1, 2)))  # the driven qubit, and the flipped one
        if kind == "two-qubit":
            amps = {f"amp_{c}_{q}": draw(amp) for c in "xy" for q in (1, 2)}
        else:
            amps = {f"amp_x_{qubit}": draw(amp), f"amp_y_{qubit}": draw(amp)}
        flip = draw(st.sampled_from((None, "off-grid") if kind == "short"
                                    else (None, "off-grid", "on-grid")))
        flip_at = None
        if flip == "off-grid":
            flip_at = start + draw(st.floats(0.1, 0.9)) * duration
        elif flip == "on-grid":
            eighths = round(8 * duration / p.t0_sync)
            flip_at = start + draw(st.integers(1, eighths - 1)) * p.t0_sync / 8
        segs.append(PulseSegment(
            start=start, duration=duration, **amps, envelope=envelope,
            flip_at=flip_at, flip_qubit=qubit if flip_at is not None else None,
        ))
        start = math.ceil(segs[-1].end / p.t0_sync - 1e-9) * p.t0_sync
    return PulseSequence(params=p, segments=tuple(segs))


@settings(max_examples=20)
@given(seq=generated_sequences(), seed=st.integers(0, 2**16))
def test_generated_sequences_unitary_and_match_oracle(seq, seed):
    p = WIDE
    policy = StepPolicy(steps_per_period=800)
    assert not [d for d in validate_sequence(p, seq) if d.severity == "error"]
    u = propagator_of_sequence(p, seq, policy)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-9
    assert np.max(np.abs(u - plain_propagators(p, seq, policy)[-1])) <= 1e-11
    rho0 = random_state(np.random.default_rng(seed))
    t1 = evolve(p, seq, rho0, policy)
    t2 = evolve_oracle(p, seq, rho0)
    assert np.array_equal(t1.times, t2.times)
    for i in range(t1.times.size):
        assert trace_distance(t1.state(i), t2.state(i)) <= 1e-7


def test_wrong_device_rejected():
    # every public function that takes a device beside a sequence checks it
    p = DEFAULT_PARAMS
    other = SystemParams(w1z=1.05, w2z=0.95, wxx=0.005)
    seq = PulseSequence(params=p, segments=(PulseSegment(start=0.0, duration=5.0, amp_y_1=0.05),))
    echoed = insert_decoupling(p, seq, 0)
    rho0 = DensityState.computational("00")
    calls = {
        "evolve": lambda q: evolve(q, seq, rho0, QUICK),
        "propagator_of_sequence": lambda q: propagator_of_sequence(q, seq, QUICK),
        "evolve_oracle": lambda q: evolve_oracle(q, seq, rho0),
        "insert_decoupling": lambda q: insert_decoupling(q, seq, 0),
        "remove_decoupling": lambda q: remove_decoupling(q, echoed, 0),
        "validate_sequence": lambda q: validate_sequence(q, seq),
    }
    for name, call in calls.items():
        call(p)
        with pytest.raises(ValueError, match="device"):
            call(other)
            pytest.fail(f"{name} accepted a sequence built for another device")


def test_step_policy_rejects_non_positive():
    for steps in (0, -5):
        with pytest.raises(ValueError):
            StepPolicy(steps_per_period=steps)


def test_oracle_zero_duration():
    p = DEFAULT_PARAMS
    seq = PulseSequence(params=p, total_time=0.0)
    rho0 = DensityState.computational("10")
    traj = evolve_oracle(p, seq, rho0)
    assert traj.times.size == 1
    assert np.allclose(traj.coeffs[0], rho0.c)


def test_purity_conserved():
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=60.0, amp_y_1=0.05, amp_y_2=0.05)
    seq = PulseSequence(params=p, segments=(seg,))
    traj = evolve(p, seq, DensityState.computational("00"), QUICK)
    purities = 0.25 * (1.0 + np.sum(traj.coeffs**2, axis=1))
    assert np.max(np.abs(purities - purities[0])) < 1e-8


def test_determinism_bit_identical():
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=30.0, amp_y_1=0.0125)
    seq = PulseSequence(params=p, segments=(seg,))
    t1 = evolve(p, seq, DensityState.computational("01"), QUICK)
    t2 = evolve(p, seq, DensityState.computational("01"), QUICK)
    assert np.array_equal(t1.coeffs, t2.coeffs)
    assert np.array_equal(t1.times, t2.times)


def test_propagator_drift_only():
    p = DEFAULT_PARAMS
    seq = PulseSequence(params=p, total_time=5.0)
    u = propagator_of_sequence(p, seq, StepPolicy(steps_per_period=1000))
    hd = 0.5 * p.w1z * _BASIS[IDX["ZI"]] + 0.5 * p.w2z * _BASIS[IDX["IZ"]] \
        + 0.5 * p.wxx * _BASIS[IDX["XX"]]
    lam, vec = np.linalg.eigh(hd)
    expected = (vec * np.exp(-1j * 5.0 * lam)) @ vec.conj().T
    assert np.max(np.abs(u - expected)) < 1e-9


def test_propagator_unitarity():
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=80.0, amp_y_1=0.05, amp_y_2=0.05)
    seq = PulseSequence(params=p, segments=(seg,))
    u = propagator_of_sequence(p, seq, StepPolicy(steps_per_period=800))
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-9


@pytest.mark.parametrize("steps", [2, 3, 4, 8])
def test_evolve_rejects_non_unitary_propagator(steps):
    # at 2 to 8 steps per period RK4 contracts on the D pulse instead of
    # blowing up; dividing each state by its trace would hide that
    p = DEFAULT_PARAMS
    seq, rho0 = compile_D(p), DensityState.computational("00")
    with pytest.raises(StepTooCoarse, match="diverged from unitarity"):
        evolve(p, seq, rho0, StepPolicy(steps_per_period=steps))
    assert evolve(p, seq, rho0, QUICK).final.purity == pytest.approx(1.0, abs=1e-9)


def test_rotating_frame_diagonal_invariant():
    p = DEFAULT_PARAMS
    s = DensityState.computational("10")
    rot = to_rotating_frame(s, p, t=17.3)
    assert np.allclose(rot.c, s.c, atol=1e-12)


def test_rotating_frame_t0_identity():
    p = DEFAULT_PARAMS
    rng = np.random.default_rng(2)
    s = random_state(rng)
    rot = to_rotating_frame(s, p, t=0.0)
    assert np.allclose(rot.c, s.c, atol=1e-12)


def test_rotating_frame_preserves_spectrum():
    p = DEFAULT_PARAMS
    rng = np.random.default_rng(4)
    s = random_state(rng)
    rot = to_rotating_frame(s, p, t=123.4)
    e1 = np.linalg.eigvalsh(s.to_matrix())
    e2 = np.linalg.eigvalsh(rot.to_matrix())
    assert np.max(np.abs(e1 - e2)) < 1e-12


def test_rotating_frame_trajectory_matches_single_states():
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=30.0, amp_y_1=0.04, amp_x_2=-0.03)
    seq = PulseSequence(params=p, segments=(seg,))
    traj = evolve(p, seq, random_state(np.random.default_rng(6)), QUICK)
    rot = to_rotating_frame(traj, p)
    for i, t in enumerate(traj.times):
        single = to_rotating_frame(traj.state(i), p, t=float(t))
        assert np.max(np.abs(rot.coeffs[i] - single.c)) <= 1e-14


def test_rotating_frame_wrong_frame_raises():
    p = DEFAULT_PARAMS
    seq = PulseSequence(params=p, total_time=10.0)
    traj = evolve(p, seq, DensityState.computational("00"), QUICK)
    rot = to_rotating_frame(traj, p)
    assert rot.frame == "rotating"
    with pytest.raises(WrongFrame):
        to_rotating_frame(rot, p)


def test_rotating_frame_drift_q1_stationary():
    # |+>|0> under drift: qubit-1 Bloch vector stays put in the rotating
    # frame up to coupling effects bounded by wxx*t
    p = DEFAULT_PARAMS
    seq = PulseSequence(params=p, total_time=30.0)
    rho0 = DensityState.product_bloch([1, 0, 0], [0, 0, 1])
    traj = to_rotating_frame(evolve(p, seq, rho0, QUICK), p)
    for i in range(traj.times.size):
        drift = np.linalg.norm(traj.coeffs[i, 0:3] - np.array([1.0, 0, 0]))
        assert drift <= p.wxx * traj.times[i] + 1e-9


def test_trajectory_sampling_includes_boundaries():
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=10.0, duration=20.0, amp_y_1=0.01, flip_at=20.0, flip_qubit=1)
    seq = PulseSequence(params=p, segments=(seg,), total_time=40.0)
    traj = evolve(p, seq, DensityState.computational("00"), QUICK)
    for t in (0.0, 10.0, 20.0, 30.0, 40.0):
        assert np.min(np.abs(traj.times - t)) < 1e-9


def test_csv_output():
    p = DEFAULT_PARAMS
    seq = PulseSequence(params=p, total_time=10.0)
    traj = evolve(p, seq, DensityState.computational("00"), QUICK)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,frame,cx1,cy1,cz1,cx2,cy2,cz2"
    assert lines[1].startswith("0,lab,")
    assert len(lines) == traj.times.size + 1
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, full=True)
    header = buf.getvalue().splitlines()[0]
    assert header.endswith("c_zx,c_zy,c_zz")
    assert len(header.split(",")) == 17
