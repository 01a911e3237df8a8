import inspect
import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flicforq.integrator as integrator
from flicforq.analysis import one_qubit_error_budget
from flicforq.compiler import (
    compile_cnot,
    compile_D,
    compile_one_qubit,
    compile_xx_half,
    insert_decoupling,
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
    frame_unitary,
    gate_unitary,
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
    _expm_skew,
    _hamiltonians,
    _interval_steps,
    _real_form,
    _rk4_steps,
    _time_ordered_product,
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


@pytest.mark.parametrize("label", ["00", "01", "10", "11"])
def test_computational_matches_basis_ket(label):
    ket = np.zeros(4)
    ket[int(label, 2)] = 1.0
    assert np.array_equal(DensityState.computational(label).c, DensityState.from_ket(ket).c)


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
    rot = to_rotating_frame(traj, p).final
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


def random_anti_hermitian(rng, n):
    """n real 8x8 forms of random complex anti-Hermitian 4x4 matrices."""
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    omega = a - a.conj().transpose(0, 2, 1)
    return _real_form(omega.real, omega.imag)


def test_expm_batch_matches_scipy():
    w = 0.37 * random_anti_hermitian(np.random.default_rng(8), 6)
    assert np.array_equal(w, -w.transpose(0, 2, 1))
    got = _complex_of(_expm_skew(w))
    for x, e in zip(w, got):
        assert np.max(np.abs(e - scipy.linalg.expm(_complex_of(x)))) < 1e-12


@pytest.mark.parametrize("norm", [1e-3, 0.05, 0.5, integrator._SERIES_NORM,
                                  integrator._SERIES_NORM * (1.0 + 1e-9), 3.0, 10.0])
def test_expm_batch_series_and_squaring_match_scipy(norm):
    # ||W||_1 = norm for every matrix: the series alone up to _SERIES_NORM,
    # where its degree is highest, and scaling and squaring above it
    w = random_anti_hermitian(np.random.default_rng(15), 8)
    w *= norm / np.max(np.sum(np.abs(w), axis=-2), axis=-1)[:, None, None]
    got = _complex_of(_expm_skew(w))
    for x, e in zip(w, got):
        assert np.max(np.abs(e - scipy.linalg.expm(_complex_of(x)))) <= 1e-14


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


def magnus6_omega(a1, a2, a3, h):
    """The sixth-order Magnus exponent from -iH at the three Gauss nodes, in
    complex arithmetic (Blanes, Casas and Ros 2000)."""
    def comm(x, y):
        return x @ y - y @ x

    b1 = h * a2
    b2 = (math.sqrt(15.0) * h / 3.0) * (a3 - a1)
    b3 = (10.0 * h / 3.0) * (a3 - 2.0 * a2 + a1)
    c1 = comm(b1, b2)
    c2 = -comm(b1, 2.0 * b3 + c1) / 60.0
    return b1 + b3 / 12.0 + comm(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def reference_oracle(p, seq, rho0, substeps=40, max_doublings=7):
    # the oracle one substep at a time: the Magnus exponent in complex
    # arithmetic, its exponential from the eigendecomposition of the
    # Hermitian i Omega, and rho conjugated by each substep in turn
    def expm(omega):
        lam, vec = np.linalg.eigh(1j * omega)
        return np.einsum("nij,nj,nkj->nik", vec, np.exp(-1j * lam), vec.conj())

    shift = math.sqrt(15.0) / 10.0
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
            a1, a2, a3 = (-1j * lab_hamiltonian(p, seq, base + c * h, mid)
                          for c in (0.5 - shift, 0.5, 0.5 + shift))
            for u in expm(magnus6_omega(a1, a2, a3, h)):
                rho = u @ rho @ u.conj().T
            states.append(np.real(np.einsum("aij,ji->a", _BASIS, rho)))
        if prev is not None and 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - prev))) < 1e-9:
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
        PulseSegment(start=BENCH.t0_sync, duration=75.0, amp_y_2=0.04),
    )
    return PulseSequence(params=BENCH, segments=segs)


def oracle_pass(seq, h_target):
    """The oracle's running propagators U(t_k) from one pass of substeps of
    at most h_target."""
    bps = _breakpoints(seq)
    return integrator._running_products(integrator._interval_products(
        seq, bps[:-1], bps[1:], h_target, integrator._magnus_nodes,
        integrator._magnus6_steps))


def test_oracle_is_sixth_order():
    # every envelope edge, flip and ramp end is a breakpoint, so the error
    # of the final propagator against a fine pass falls by 2^6 per halving
    # of the substep, square or ramped; the ramp's ends, off the grid, are
    # where its C1 envelope's second derivative jumps, which would lower the
    # order inside an interval
    grid = BENCH.t0_sync / 8
    assert all(abs(t / grid - round(t / grid)) > 0.1 for t in (3.8, 16.2))
    period = 2.0 * math.pi / BENCH.w1z
    for envelope in (Envelope(), Envelope("raised-cosine-ramp", 3.8)):
        segs = (
            PulseSegment(start=0.0, duration=20.0, amp_y_1=0.04, amp_x_2=0.03,
                         envelope=envelope, flip_at=9.0, flip_qubit=1),
            PulseSegment(start=20.0, duration=6.0, amp_x_1=-0.03),
        )
        seq = PulseSequence(params=BENCH, segments=segs)
        assert (3.8 in _breakpoints(seq)) == (envelope.rise > 0.0)
        ref = oracle_pass(seq, period / 2048)[-1]
        errors = [np.max(np.abs(oracle_pass(seq, period / n)[-1] - ref)) for n in (16, 32, 64)]
        assert all(48.0 <= coarse / fine <= 80.0 for coarse, fine in zip(errors, errors[1:]))


def test_breakpoints_include_ramp_ends():
    # a ramp ends at start + rise and end - rise; where Envelope.scale caps
    # the rise at half the duration, both ends are the segment's midpoint
    grid = BENCH.t0_sync / 8
    ramped = PulseSegment(start=grid, duration=5 * grid, amp_x_1=0.01,
                          envelope=Envelope("raised-cosine-ramp", 1.3 * grid))
    capped = PulseSegment(start=7 * grid, duration=3 * grid, amp_x_2=0.01,
                          envelope=Envelope("raised-cosine-ramp", 2.2 * grid))
    seq = PulseSequence(params=BENCH, segments=(ramped, capped), total_time=11 * grid)
    bps = _breakpoints(seq)
    ends = (2.3 * grid, 4.7 * grid, 8.5 * grid)
    assert all(np.sum(np.abs(bps - t) <= 1e-12) == 1 for t in ends)
    assert bps.size == 12 + len(ends)  # the grid points k grid, k = 0 .. 11, and the ends


@pytest.mark.parametrize("build", [compile_D, compile_cnot], ids=["D", "cnot"])
def test_oracle_takes_three_passes_on_the_paper_device(build, monkeypatch):
    # D and the CNOT's XX^1/2 need more than 64 substeps per period and at
    # most 80, so doubling from 40 stops after the pass at 160, where
    # doubling from 32 stopped after the pass at 256
    passes = []
    real = integrator._interval_products

    def spy_pass(seq, a, b, h_target, *scheme):
        passes.append(h_target)
        return real(seq, a, b, h_target, *scheme)

    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    evolve_oracle(DEFAULT_PARAMS, build(DEFAULT_PARAMS), DensityState.computational("10"))
    period = 2.0 * math.pi / DEFAULT_PARAMS.w1z
    assert [round(period / h) for h in passes] == [40, 80, 160]


def test_oracle_matches_reference_across_chunks(monkeypatch):
    # with the chunk cap lowered to two batches, every pass after the first
    # samples H in several chunks, and some chunk mixes substep counts
    monkeypatch.setattr(integrator, "_CHUNK_STEPS", 2 * integrator._BATCH_STEPS)
    p, seq = BENCH, ramped_flip_sequence()
    period = 2.0 * math.pi / p.w1z
    bps = _breakpoints(seq)
    first = [_interval_steps(a, b, period / integrator._ORACLE_SUBSTEPS)[0]
             for a, b in zip(bps[:-1], bps[1:])]
    assert sum(first) > integrator._BATCH_STEPS
    samplings = []  # per pass, the substep counts of the intervals each H sampling holds
    targets = []
    real_pass, real_ham = integrator._interval_products, integrator._hamiltonians

    def spy_pass(seq, a, b, h_target, *scheme):
        samplings.append([])
        targets.append(h_target)
        return real_pass(seq, a, b, h_target, *scheme)

    def spy_ham(seq, a, b, tg):
        counts, _, _ = sampled_rows(a, b, tg, targets[-1], 3)
        samplings[-1].append(set(counts.tolist()))
        return real_ham(seq, a, b, tg)

    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    monkeypatch.setattr(integrator, "_hamiltonians", spy_ham)
    rho0 = random_state(np.random.default_rng(16))
    got = evolve_oracle(p, seq, rho0).coeffs
    assert all(len(chunks) > 1 for chunks in samplings[1:])
    assert any(len(counts) > 1 for chunks in samplings for counts in chunks)
    assert np.max(np.abs(got - reference_oracle(p, seq, rho0))) <= 1e-12


def batch_areas(counts):
    """The padded steps of each batch _interval_products makes for
    intervals of these step counts: rows of at most _BATCH_STEPS steps,
    longest first, _BATCH_STEPS // w of them a batch, w the first one's."""
    size = integrator._BATCH_STEPS
    rows = sorted((min(n - first, size) for n in counts for first in range(0, n, size)),
                  reverse=True)
    areas, lo = [], 0
    while lo < len(rows):
        batch = rows[lo:lo + size // rows[lo]]
        areas.append(len(batch) * rows[lo])
        lo += len(batch)
    return areas


def test_oracle_batches_chunks_without_eigh(monkeypatch):
    # every exponential comes from the series, one per padded substep of
    # each batch's rectangle, in batches that span several intervals and
    # stay within the batch cap
    def no_eigh(*args, **kwargs):
        raise AssertionError("the oracle called np.linalg.eigh")

    passes = []
    real_pass, real_expm = integrator._interval_products, integrator._expm_skew

    def spy_pass(seq, a, b, h_target, *scheme):
        passes.append(([_interval_steps(x, y, h_target)[0] for x, y in zip(a, b)], []))
        return real_pass(seq, a, b, h_target, *scheme)

    def spy_expm(w):
        passes[-1][1].append(w.size // 64)  # one 8x8 exponential per substep
        return real_expm(w)

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    monkeypatch.setattr(integrator, "_expm_skew", spy_expm)
    seq = ramped_flip_sequence()
    evolve_oracle(BENCH, seq, random_state(np.random.default_rng(17)))
    cap = integrator._BATCH_STEPS
    assert len(passes) >= 2
    for counts, batches in passes:
        assert batches == batch_areas(counts)
        assert sum(batches) >= sum(counts)
        assert len(batches) < len(counts)
        assert max(batches) <= cap


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


def gate_layer(p, axes="xy"):
    segs = (compile_one_qubit(p, 1, axes[0], math.pi / 4, 0.0),
            compile_one_qubit(p, 2, axes[1], -math.pi / 2, 0.0))
    return PulseSequence(params=p, segments=segs)


@pytest.mark.parametrize("p, seq, policy", [
    (DEFAULT_PARAMS, compile_cnot(DEFAULT_PARAMS), StepPolicy()),
    (BENCH, compile_D(BENCH), BENCH_POLICY),
    (BENCH, compile_xx_half(BENCH), BENCH_POLICY),
    (BENCH, gate_layer(BENCH), BENCH_POLICY),
], ids=["cnot", "D", "xx_half", "gate_layer"])
def test_window_reuse_matches_plain_stepping(p, seq, policy):
    # intervals related by the window shift, a qubit's sign or the window
    # mirror share a propagator up to a signed permutation of its real form;
    # reuse must agree with stepping each one to rounding
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


def both_axes_pair(p, windows):
    """x and y drives of unequal magnitudes and signs on both qubits."""
    seg = PulseSegment(start=0.0, duration=windows * p.t0_sync, amp_x_1=0.2 * p.delta,
                       amp_y_1=-0.1 * p.delta, amp_x_2=-0.15 * p.delta, amp_y_2=0.25 * p.delta)
    return PulseSequence(params=p, segments=(seg,))


@pytest.mark.parametrize("p, seq, built, intervals, tol", [
    (BENCH, compile_D(BENCH), 4, 160, 1e-13),
    (BENCH, gate_layer(BENCH, "xx"), 4, 16, 1e-13),
    (BENCH, gate_layer(BENCH, "yy"), 4, 16, 1e-13),
    (BENCH, gate_layer(BENCH), 4, 16, 1e-13),
    (BENCH, both_axes_pair(BENCH, 2), 8, 16, 1e-13),
    (BENCH, compile_xx_half(BENCH), 4, 160, 1e-13),
    (BENCH, compile_cnot(BENCH), 12, 208, 1e-13),
    (DEFAULT_PARAMS, compile_cnot(DEFAULT_PARAMS), 12, 208, 1e-11),
    (device(3.9), square_pair(device(3.9), 3), 24, 24, 1e-13),
    (device(4 + 1e-9), square_pair(device(4 + 1e-9), 3), 24, 24, 1e-13),
    (BENCH, square_pair(BENCH, 3, Envelope("raised-cosine-ramp", 10.0)), 14, 26, 1e-13),
], ids=["D", "x-layer", "y-layer", "gate_layer", "xy-both", "xx_half", "cnot-bench",
        "cnot-paper", "ratio-3.9", "ratio-4+1e-9", "ramped"])
def test_window_reuse_and_fallback(p, seq, built, intervals, tol, monkeypatch):
    # a grid interval is stepped once per orbit under the window shift, each
    # qubit's sign (S_q conj(U) S_q^T) and the window mirror (a transpose).
    # The D pulse (y drives, flat for 20 windows), a layer of x or of y
    # pulses and one of x on one qubit and y on the other step half of one
    # window: each qubit drives along one axis, so the mirror's sign on x is
    # that qubit's sign.  x and y on both qubits step a whole window, since
    # the mirror negates x and not y.  A device whose carriers do not flip
    # over t0_sync steps every interval, and a ramped pulse its ramps and
    # both halves of each interval its off-grid ramp ends cut every time,
    # and its flat top once per orbit.  The paper's CNOT reuses 12
    # products over 26 windows, so their rounding adds up: it keeps the
    # 1e-11 of test_window_reuse_matches_plain_stepping.
    intervals_built = []
    real = integrator._interval_products

    def counting(seq, a, *args):
        intervals_built.append(a.size)
        return real(seq, a, *args)

    monkeypatch.setattr(integrator, "_interval_products", counting)
    u = propagator_of_sequence(p, seq, BENCH_POLICY)
    assert sum(intervals_built) == built
    assert _breakpoints(seq).size - 1 == intervals
    monkeypatch.undo()
    assert np.max(np.abs(u - plain_propagators(p, seq, BENCH_POLICY)[-1])) <= tol


@pytest.mark.parametrize("per_interval", [False, True], ids=["scalar-h", "per-interval-h"])
def test_rk4_steps_on_reversed_samples_are_transposes(per_interval):
    # the window mirror rests on S(B, M, A)^T = S(A, M, B) for real
    # symmetric samples: stepping the reversed half-step grid gives the
    # complex transposes (not conjugates) of the forward steps, last first
    rng = np.random.default_rng(21)
    a = rng.normal(size=(3, 2 * 6 + 1, 4, 4))
    hs = a + a.swapaxes(-1, -2)
    h = rng.uniform(0.01, 0.1, size=(3, 1, 1, 1)) if per_interval else 0.05
    fwd = _complex_of(_rk4_steps(hs, h))
    rev = _complex_of(_rk4_steps(hs[:, ::-1], h))
    assert np.max(np.abs(rev - fwd[:, ::-1].swapaxes(-1, -2))) <= 1e-15


@pytest.mark.parametrize("per_interval", [False, True], ids=["scalar-h", "per-interval-h"])
def test_rk4_steps_on_negated_samples_are_conjugates(per_interval):
    # a qubit's sign rests on this: Re S is even in the samples and Im S
    # odd, so negating every sample conjugates each step bit for bit
    rng = np.random.default_rng(22)
    a = rng.normal(size=(3, 2 * 6 + 1, 4, 4))
    hs = a + a.swapaxes(-1, -2)
    h = rng.uniform(0.01, 0.1, size=(3, 1, 1, 1)) if per_interval else 0.05
    s = _complex_of(_rk4_steps(hs, h))
    assert np.array_equal(_rk4_steps(-hs, h), _real_form(s.real, -s.imag))


# qubit q's sign as a real signed permutation: S_1 = X1 Y2 and S_2 = Y1 X2 (iY = ZX)
QUBIT_SIGNS = {q: (1j * _BASIS[IDX[lab]]).real for q, lab in ((1, "XY"), (2, "YX"))}


@pytest.mark.parametrize("axes", ["x", "y", "xy"])
@pytest.mark.parametrize("q", [1, 2])
def test_negating_one_qubit_conjugates_a_flat_interval(q, axes):
    # negating qubit q's amplitudes gives H' = -S_q H S_q^T, so a flat grid
    # interval's RK4 product becomes S_q conj(U) S_q^T
    drive = {"amp_x_1": 0.2, "amp_y_1": -0.1, "amp_x_2": -0.15, "amp_y_2": 0.25}
    # qubit q drives along axes, the other qubit along x and y
    amps = {key: v * BENCH.delta for key, v in drive.items()
            if key[-1] != str(q) or key[4] in axes}
    flipped = {key: -v if key[-1] == str(q) else v for key, v in amps.items()}
    a, b = 3 * BENCH.t0_sync / 8, 4 * BENCH.t0_sync / 8
    n, h = _interval_steps(a, b, BENCH_POLICY.step_target(BENCH))
    tg = a + 0.5 * h * np.arange(2 * n + 1)
    us = []
    for signed in (amps, flipped):
        seq = PulseSequence(params=BENCH, segments=(
            PulseSegment(start=0.0, duration=BENCH.t0_sync, **signed),))
        us.append(_complex_of(_time_ordered_product(_rk4_steps(_hamiltonians(seq, a, b, tg), h))))
    s = QUBIT_SIGNS[q]
    assert np.max(np.abs(us[1] - s @ us[0].conj() @ s.T)) <= 1e-14


@st.composite
def sync_grid_sequences(draw):
    """1-3 segments on the t0_sync/8 grid of a device whose w0/delta is an
    integer in 2..6, with on-grid gaps before each and after the last:
    square, or ramped with or without a flat top (the rise on the grid or
    off it, or capped at half the duration); driving qubit 1, 2 or both
    through x, y or both, with random signs and two magnitudes, so that
    intervals of different segments can share an orbit; with or without an
    on-grid flip."""
    p = device(draw(st.integers(2, 6)))
    s = p.t0_sync / 8
    segs = []
    start = 0  # in grid steps s
    for _ in range(draw(st.integers(1, 3))):
        start += draw(st.integers(0, 4))
        steps = draw(st.integers(1, 12))
        amps = {}
        for q in draw(st.sampled_from(((1,), (2,), (1, 2)))):
            for c in draw(st.sampled_from(("x", "y", "xy"))):
                amps[f"amp_{c}_{q}"] = draw(st.sampled_from((-0.2, -0.1, 0.1, 0.2))) * p.delta
        envelope = Envelope()
        if steps >= 3 and draw(st.booleans()):
            rise = draw(st.sampled_from((1.0, 0.37, 1.5, 0.6 * steps))) * s
            envelope = Envelope("raised-cosine-ramp", rise)
        flip_at = flip_qubit = None
        if steps >= 2 and draw(st.booleans()):
            flip_at = (start + draw(st.integers(1, steps - 1))) * s
            flip_qubit = draw(st.sampled_from((1, 2)))
        segs.append(PulseSegment(start=start * s, duration=steps * s, **amps, envelope=envelope,
                                 flip_at=flip_at, flip_qubit=flip_qubit))
        start += steps
    return PulseSequence(params=p, segments=tuple(segs),
                         total_time=(start + draw(st.integers(0, 4))) * s)


def test_step_build_holds_few_temporaries():
    # the step build forms its sums in place, buffers no ufunc operand and
    # frees three of its five (n, 4, 4) products before it writes its real
    # forms, so it holds 1.51 times its output's memory at its peak (the
    # output, Re S and Im S), against 2.51 times with the five products and
    # a ufunc buffer live, and 3.26 times when every sum and Re S and Im S
    # were fresh arrays.  With those, the heap top was trimmed and faulted
    # back in on every warm benchmark gate op (194 minor faults per op,
    # against 0.1)
    rng = np.random.default_rng(23)
    a = rng.normal(size=(1, 2 * 450 + 1, 4, 4))
    hs = a + a.swapaxes(-1, -2)
    h = np.full((1, 1, 1, 1), 0.01)
    size = _rk4_steps(hs, h).nbytes
    tracemalloc.start()
    try:
        _rk4_steps(hs, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * size


@settings(max_examples=25)
@given(seq=sync_grid_sequences())
def test_window_memo_matches_plain_stepping(seq):
    # every running propagator, not only the final one, whichever of the
    # three relations (shift, sign, mirror) each interval was taken by
    us = integrator._running_propagators(seq, BENCH_POLICY, 1e-9)[1]
    assert np.max(np.abs(us - plain_propagators(seq.params, seq, BENCH_POLICY))) <= 1e-13


@settings(max_examples=50)
@given(seq=sync_grid_sequences())
def test_pointwise_amplitudes_match_interval_form(seq):
    # inside a breakpoint interval no envelope edge or flip lies between a
    # time and the midpoint, so deciding activity and flips at the time
    # itself gives the same samples bit for bit
    bps = _breakpoints(seq)
    a, b = bps[:-1, None], bps[1:, None]
    tg = (a + (b - a) * np.array([0.1, 0.5, 0.9])).ravel()
    mid = np.repeat(0.5 * (bps[:-1] + bps[1:]), 3)
    assert np.array_equal(np.array(drive_amplitudes_at(seq, tg, tg)),
                          np.array(drive_amplitudes_at(seq, tg, mid)))


def orbit_table_origins(seq, bps):
    """The reference memo plan: each full flat grid interval under its
    window-0 amplitudes n = (-1)^(k // 8) a, looked up in a table that
    lists the eight images of every orbit with their group elements
    g = f1 + 2 f2 + 4 m: the four sign pairs (p, F n) at p, F negating
    qubit 1's pair where f1 is set and qubit 2's where f2 is, and the same
    four mirrored, (7 - p, M F n); the first interval of an orbit is its
    origin."""
    a, b = bps[:-1], bps[1:]
    p = seq.params
    r = p.w0 / p.delta
    spacing = p.t0_sync / 8.0
    k = np.rint(a / spacing)
    rtol = integrator._SYNC_RTOL
    full = (abs(r - round(r)) <= rtol * r) & np.isclose(a, k * spacing, rtol=rtol, atol=0.0) \
        & np.isclose(b, (k + 1) * spacing, rtol=rtol, atol=0.0)
    mid = 0.5 * (a + b)
    for seg in seq.segments:
        rise = seg.envelope.rise
        if rise > 0.0:
            full &= (mid < seg.start) | (mid > seg.end) \
                | ((a >= seg.start + rise) & (b <= seg.end - rise))
    amps = np.stack(drive_amplitudes_at(seq, mid, mid), axis=1)
    amps[k // 8 % 2 == 1] *= -1.0
    origin = np.arange(a.size)
    element = np.zeros(a.size, dtype=int)
    seen = {}  # (p, n) -> (origin, g)
    for i in np.flatnonzero(full).tolist():
        pos, n = int(k[i]) % 8, tuple(amps[i].tolist())
        if (pos, n) not in seen:
            # setdefault keeps the first, the least g: where qubit q is not
            # driven, the images with and without f_q coincide
            for g in range(8):
                signs = (-1.0 if g & 1 else 1.0,) * 2 + (-1.0 if g & 2 else 1.0,) * 2
                if g & 4:
                    signs = tuple(s * m for s, m in zip(signs, (-1.0, 1.0, -1.0, 1.0)))
                seen.setdefault((7 - pos if g & 4 else pos, *(s * x for s, x in zip(signs, n))),
                                (i, g))
        origin[i], element[i] = seen[(pos, *n)]
    return origin, element


def assert_plan_matches_orbit_table(seq):
    bps = _breakpoints(seq)
    got, want = integrator._window_origins(seq, bps), orbit_table_origins(seq, bps)
    for name, g, w in zip(("origin", "g"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


@settings(max_examples=100)
@given(seq=sync_grid_sequences())
def test_window_origins_match_orbit_table_on_sync_grid(seq):
    # the closed-form keys against the eight-image table, group elements
    # included (also where a qubit is not driven, whose sign bit the table
    # clears)
    assert_plan_matches_orbit_table(seq)


def cnot_variants(p):
    """compile_cnot with a decoupling echo on each subset of its one-qubit
    pulses, the benchmark's eight CNOT variants."""
    out = []
    for mask in range(8):
        seq = compile_cnot(p)
        for index in sorted((i for bit, i in enumerate((0, 1, 3)) if mask >> bit & 1),
                            reverse=True):
            seq = insert_decoupling(p, seq, index)
        out.append(seq)
    return out


def bench_gate_layers(rise):
    """The benchmark's 256 gate layers: x or y by k pi/8, k = +-1..+-4, on
    each qubit, with raised-cosine ramps of rise * duration where rise > 0."""
    choices = [(axis, k) for axis in "xy" for k in (-4, -3, -2, -1, 1, 2, 3, 4)]
    out = []
    for (a1, k1), (a2, k2) in ((c1, c2) for c1 in choices for c2 in choices):
        segs = [compile_one_qubit(BENCH, q, axis, k * math.pi / 8, 0.0)
                for q, axis, k in ((1, a1, k1), (2, a2, k2))]
        if rise:
            segs = [replace(s, envelope=Envelope("raised-cosine-ramp", rise * s.duration))
                    for s in segs]
        out.append(PulseSequence(params=BENCH, segments=tuple(segs)))
    return out


@pytest.mark.parametrize("seqs", [
    lambda: bench_gate_layers(0.0),
    lambda: bench_gate_layers(0.3),
    lambda: cnot_variants(DEFAULT_PARAMS),
    lambda: cnot_variants(BENCH),
    lambda: [compile_D(DEFAULT_PARAMS), compile_D(BENCH)],
], ids=["layers", "ramped-layers", "cnot-paper", "cnot-bench", "D"])
def test_window_origins_match_orbit_table(seqs):
    for seq in seqs():
        assert_plan_matches_orbit_table(seq)


def test_every_bench_gate_layer_builds_one_window_half(monkeypatch):
    # each qubit of a benchmark gate layer drives along one axis, so its 16
    # grid intervals fall into 4 orbits whatever the axes and turns, also
    # with x on one qubit and y on the other, where both qubits' signs
    # flipped together take 8
    built = []
    real = integrator._interval_products

    def counting(seq, a, *args):
        built[-1] += a.size
        return real(seq, a, *args)

    monkeypatch.setattr(integrator, "_interval_products", counting)
    for seq in bench_gate_layers(0.0):
        built.append(0)
        propagator_of_sequence(BENCH, seq, BENCH_POLICY)
        assert _breakpoints(seq).size - 1 == 16
    assert built == [4] * 256


@pytest.mark.parametrize("seq", [
    PulseSequence(params=BENCH, total_time=0.0),
    square_pair(device(3.9), 1),
    PulseSequence(params=BENCH, segments=(PulseSegment(
        start=0.0, duration=3 * BENCH.t0_sync / 8, amp_x_1=0.01,
        envelope=Envelope("raised-cosine-ramp", 1.5 * BENCH.t0_sync / 8)),)),
], ids=["no-interval", "ratio-3.9", "ramps-only"])
def test_window_origins_with_empty_memo(seq):
    # with nothing to reuse every interval is its own origin under the
    # identity, in integer columns, also when there is no interval at all
    origin, g = integrator._window_origins(seq, _breakpoints(seq))
    assert origin.dtype.kind == "i" and g.dtype.kind == "i"
    assert np.array_equal(origin, np.arange(origin.size))
    assert not g.any()
    us = integrator._running_propagators(seq, BENCH_POLICY, 1e-9)[1]
    assert np.array_equal(us, plain_propagators(seq.params, seq, BENCH_POLICY))


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


def sampled_rows(a, b, tg, h_target, q):
    """The rows of one H sampling at steps of at most h_target, each the
    run of times one row of a rectangular batch samples: q = 2 for RK4's
    half-step grid, 2w + 1 times for w padded steps, and q = 3 for the
    oracle's three Gauss nodes a substep.  Per row: its interval's step
    count, its first step and its padded steps w."""
    n, h = _interval_steps(a, b, h_target)
    u = (tg - a) / h  # in steps from the interval's start
    if q == 2:
        pos = np.rint(2.0 * u).astype(int)
    else:
        j = np.floor(u).astype(int)
        first_node = integrator._MAGNUS_NODES[0]
        pos = 3 * j + np.rint((u - j - first_node) / (0.5 - first_node)).astype(int)
    # a row starts where the interval changes or the times skip or repeat,
    # and, as a row holds at most _BATCH_STEPS steps, at every oracle
    # substep _BATCH_STEPS k; RK4's next row repeats the last one's end
    start = np.ones(tg.size, bool)
    start[1:] = (a[1:] != a[:-1]) | (pos[1:] != pos[:-1] + 1) \
        | ((q == 3) & (pos[1:] % (3 * integrator._BATCH_STEPS) == 0))
    first = np.flatnonzero(start)
    return n[first], pos[first] // q, np.diff(np.append(first, tg.size)) // q


def test_chunked_build_equals_plain_stepping(monkeypatch):
    # on a device without window reuse every interval is built, from
    # several samplings of H, some of them mixing step counts, yet each
    # U(t_k) has the bits of stepping one interval at a time
    p = device(3.9)
    seq = mixed_sequence(p)
    bps = _breakpoints(seq)
    counts = [_interval_steps(a, b, BENCH_POLICY.step_target(p))[0]
              for a, b in zip(bps[:-1], bps[1:])]
    assert len(set(counts)) >= 4
    samplings = []
    real = integrator._hamiltonians

    def spy(seq, a, b, tg):
        counts, _, _ = sampled_rows(a, b, tg, BENCH_POLICY.step_target(p), 2)
        samplings.append(set(counts.tolist()))
        return real(seq, a, b, tg)

    monkeypatch.setattr(integrator, "_hamiltonians", spy)
    got = integrator._running_propagators(seq, BENCH_POLICY, 1e-9)[1]
    assert len(samplings) >= 3
    assert any(len(counts) > 1 for counts in samplings)
    monkeypatch.undo()
    assert np.array_equal(got, plain_propagators(p, seq, BENCH_POLICY))


# a ramped drive on both qubits with a flip, longer than any drawn intervals
PIPELINE_SEQ = PulseSequence(params=BENCH, segments=(PulseSegment(
    start=0.0, duration=400.0, amp_x_1=0.03, amp_y_2=-0.02,
    envelope=Envelope("raised-cosine-ramp", 150.0), flip_at=210.0, flip_qubit=2),))
# per scheme: its nodes and steps, its samples per step, and each
# interval's product built alone from n steps h from a, with its tolerance
SCHEMES = {
    "rk4": (integrator._half_steps, _rk4_steps, 2,
            lambda a, n, h: a + 0.5 * h * np.arange(2 * n + 1), 0.0),
    "magnus": (integrator._magnus_nodes, integrator._magnus6_steps, 3,
               lambda a, n, h: ((a + h * np.arange(n))[:, None]
                                + h * np.array(integrator._MAGNUS_NODES)).ravel(), 1e-14),
}


@settings(max_examples=20)
@given(intervals=st.lists(st.tuples(st.integers(1, 1500), st.floats(0.05, 1.0)), max_size=6),
       start=st.floats(0.0, 300.0), chunk=st.sampled_from([512, 1024, 3000]),
       scheme=st.sampled_from(sorted(SCHEMES)))
@example(intervals=[], start=0.0, chunk=512, scheme="rk4")
@example(intervals=[], start=0.0, chunk=512, scheme="magnus")
def test_interval_products_equal_building_each_interval(intervals, start, chunk, scheme):
    # intervals of 1-1500 steps are cut into rows at _BATCH_STEPS, batches
    # mix row lengths and, with the chunk cap lowered, chunks split, yet
    # RK4 gives each interval's product bit for bit, and the Magnus scheme,
    # whose series degree each batch sets, to rounding; every batch and
    # chunk stays within its cap, counted padded.  A zero-duration sequence
    # has no interval: both schemes return an empty stack, sampling no H
    nodes, steps, q, alone, tol = SCHEMES[scheme]
    h_target = BENCH_POLICY.step_target(BENCH)
    b = start + np.cumsum([(n - 1 + x) * h_target for n, x in intervals])
    a = np.append(start, b[:-1])[:b.size]
    batches, chunks = [], []
    real_ham = integrator._hamiltonians

    def counted_steps(hs, h):
        batches.append(hs.shape[0] * (hs.shape[1] // q))
        return steps(hs, h)

    def spy_ham(seq, a, b, tg):
        chunks.append(sampled_rows(a, b, tg, h_target, q)[2].sum())
        return real_ham(seq, a, b, tg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_CHUNK_STEPS", chunk)
        mp.setattr(integrator, "_hamiltonians", spy_ham)
        got = integrator._interval_products(PIPELINE_SEQ, a, b, h_target, nodes, counted_steps)
    assert got.shape == (a.size, 8, 8)
    assert a.size or not chunks
    assert all(n <= integrator._BATCH_STEPS for n in batches)
    assert all(n <= chunk for n in chunks) and sum(chunks) == sum(batches)
    for x, y, u in zip(a, b, got):
        n, h = _interval_steps(x, y, h_target)
        want = _time_ordered_product(steps(_hamiltonians(PIPELINE_SEQ, x, y, alone(x, n, h)), h))
        assert np.max(np.abs(u - want), initial=0.0) <= tol


# per route, one pass over a sequence at a policy's step target, and its
# samples per step
ROUTES = {
    "rk4": (lambda seq, policy: integrator._running_propagators(seq, policy, 1e-9), 2),
    "oracle": (lambda seq, policy: oracle_pass(seq, policy.step_target(seq.params)), 3),
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
    # each sampling call holds at most the cap's padded steps, from several
    # intervals, or from part of one where a single interval exceeds it
    # (the fine policy's 11250-step grid intervals on the benchmark device),
    # in rows of at most _BATCH_STEPS padded steps that start a multiple of
    # _BATCH_STEPS into their interval and cover it
    calls = []
    real = integrator._hamiltonians
    run, q = ROUTES[route]
    size = integrator._BATCH_STEPS

    def spy(seq, a, b, tg):
        counts, first, width = sampled_rows(a, b, tg, policy.step_target(p), q)
        assert width.max() <= size and not (first % size).any()
        assert (first + width >= np.minimum(counts, first + size)).all()
        calls.append((width.sum(), np.unique(a).size, counts.max()))
        return real(seq, a, b, tg)

    monkeypatch.setattr(integrator, "_hamiltonians", spy)
    run(seq, policy)
    cap = integrator._CHUNK_STEPS
    assert all(steps <= cap for steps, _, _ in calls)
    if policy == BENCH_POLICY:
        assert any(intervals > 1 for _, intervals, _ in calls)
    else:
        assert all(longest > cap for _, _, longest in calls)


def test_one_h_sampling_per_chunk(monkeypatch):
    # H is sampled once per chunk, not once per batch: the bench gate
    # layer's distinct intervals (4 of 450 steps, 4 batches) fit one chunk,
    # and so does each oracle pass over one pulse length, with ramped and
    # square pulses, while its steps fit the cap.
    layer = gate_layer(BENCH)
    ramped = replace(compile_one_qubit(BENCH, 1, "x", 1.1, 0.0),
                     envelope=Envelope("raised-cosine-ramp", 0.3 * 4 * math.pi / BENCH.delta))
    pulse = PulseSequence(params=BENCH, segments=(
        ramped, compile_one_qubit(BENCH, 2, "y", -0.7, 0.0)))
    passes = []  # per call, its total steps and its H samplings
    real_pass, real_ham = integrator._interval_products, integrator._hamiltonians

    def spy_pass(seq, a, b, h_target, *scheme):
        passes.append([int(_interval_steps(a, b, h_target)[0].sum()), 0])
        return real_pass(seq, a, b, h_target, *scheme)

    def spy_ham(*args):
        passes[-1][1] += 1
        return real_ham(*args)

    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    monkeypatch.setattr(integrator, "_hamiltonians", spy_ham)
    propagator_of_sequence(BENCH, layer, BENCH_POLICY)
    assert passes == [[1800, 1]]
    passes.clear()
    evolve_oracle(BENCH, pulse, random_state(np.random.default_rng(18)))
    fitting = [samplings for steps, samplings in passes if steps <= integrator._CHUNK_STEPS]
    assert len(fitting) >= 2
    assert fitting == [1] * len(fitting)


NO_NUMPY_MA = """
import sys
import flicforq.cli
from flicforq.analysis import gate_fidelity
from flicforq.compiler import compile_xx_half
from flicforq.integrator import DensityState, StepPolicy, evolve_oracle, gate_unitary
from flicforq.model import PulseSegment, PulseSequence, SystemParams
from flicforq.pauli import parse_word
p = SystemParams(w1z=1.125, w2z=0.875, wxx=0.025)
u = gate_unitary(compile_xx_half(p), StepPolicy(steps_per_period=800))
assert gate_fidelity(u, parse_word("X1X2^1/2")).process > 0.99
seq = PulseSequence(params=p, segments=(PulseSegment(start=0.0, duration=5.0, amp_y_1=0.05),))
evolve_oracle(p, seq, DensityState.computational("00"))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_fresh_process_never_imports_numpy_ma():
    # np.unique's first call imports numpy.ma, about 15 ms of a fresh
    # process's set-up, so neither integrator nor the fidelity's phase
    # alignment may call it
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
    rho0 = DensityState.computational("00")
    calls = {
        "evolve": lambda q: evolve(q, seq, rho0, QUICK),
        "propagator_of_sequence": lambda q: propagator_of_sequence(q, seq, QUICK),
        "evolve_oracle": lambda q: evolve_oracle(q, seq, rho0),
        "insert_decoupling": lambda q: insert_decoupling(q, seq, 0),
        "validate_sequence": lambda q: validate_sequence(q, seq),
    }
    for name, call in calls.items():
        call(p)
        with pytest.raises(ValueError, match="device"):
            call(other)
            pytest.fail(f"{name} accepted a sequence built for another device")


@pytest.mark.parametrize("fn", [evolve, propagator_of_sequence, gate_unitary,
                                one_qubit_error_budget])
def test_step_policy_has_one_name_and_one_default(fn):
    assert inspect.signature(fn).parameters["policy"].default == StepPolicy()


PURE_00 = DensityState.computational("00")


@pytest.mark.parametrize("build, message", [
    (lambda: DensityState.from_matrix(np.eye(2) / 2), "rho must be 4x4"),
    (lambda: DensityState.from_matrix(np.eye(4) / 2), "rho must have unit trace"),
    (lambda: DensityState.from_matrix(np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) / 8),
     "rho must be Hermitian"),
    (lambda: DensityState.computational("02"), "bad basis label '02'"),
    # rho = (1 + 2 XI)/4 has eigenvalue -1/4
    (lambda: DensityState(np.eye(15)[0] * 2.0).validate(), "state not positive"),
    # a pure state's c scaled by 1 + 3e-9: min eigenvalue -7.5e-10 passes,
    # purity 1 + 4.5e-9 does not
    (lambda: DensityState(PURE_00.c * (1.0 + 3e-9)).validate(), "purity .* out of range"),
    (lambda: Trajectory(times=[0.0, 0.0], coeffs=np.zeros((2, 15))),
     "sample times must be strictly increasing"),
    (lambda: Trajectory(times=[0.0, 1.0], coeffs=np.zeros((2, 14))),
     r"coeffs shape must be \(n_samples, 15\)"),
    (lambda: Trajectory(times=[0.0], coeffs=np.zeros((1, 15)), frame="interaction"),
     "bad frame tag 'interaction'"),
], ids=["matrix-shape", "matrix-trace", "matrix-hermitian", "basis-label", "negative-eigenvalue",
        "purity-above-1", "times-not-increasing", "coeffs-shape", "frame-tag"])
def test_state_and_trajectory_rejections(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_oracle_raises_no_convergence(monkeypatch):
    # with no doubling allowed the first pass has nothing to agree with
    monkeypatch.setattr(integrator, "_ORACLE_DOUBLINGS", 0)
    seq = PulseSequence(params=DEFAULT_PARAMS, total_time=1.0)
    with pytest.raises(NoConvergence, match="after 0 doublings"):
        evolve_oracle(DEFAULT_PARAMS, seq, PURE_00)


def test_step_policy_rejects_non_positive():
    # a step count is an integer, not a bool, of at least 1
    for steps in (0, -5, np.int64(0), float("nan"), float("inf"), True, 800.0, "800"):
        with pytest.raises(ValueError, match="steps_per_period"):
            StepPolicy(steps_per_period=steps)
    assert StepPolicy(np.int64(800)).step_target(BENCH) == StepPolicy(800).step_target(BENCH)


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


def rotate_state(s, p, t):
    """A bare state at time t in the rotating frame, as the image of a
    one-sample lab-frame trajectory."""
    return to_rotating_frame(Trajectory(times=[t], coeffs=[s.c]), p).state(0)


def test_rotating_frame_diagonal_invariant():
    p = DEFAULT_PARAMS
    s = DensityState.computational("10")
    rot = rotate_state(s, p, 17.3)
    assert np.allclose(rot.c, s.c, atol=1e-12)


def test_rotating_frame_t0_identity():
    p = DEFAULT_PARAMS
    rng = np.random.default_rng(2)
    s = random_state(rng)
    rot = rotate_state(s, p, 0.0)
    assert np.allclose(rot.c, s.c, atol=1e-12)


def test_rotating_frame_preserves_spectrum():
    p = DEFAULT_PARAMS
    rng = np.random.default_rng(4)
    s = random_state(rng)
    rot = rotate_state(s, p, 123.4)
    e1 = np.linalg.eigvalsh(s.to_matrix())
    e2 = np.linalg.eigvalsh(rot.to_matrix())
    assert np.max(np.abs(e1 - e2)) < 1e-12


def test_rotating_frame_state_matches_frame_unitary():
    # reference: the full matrix V rho V^dagger, V = frame_unitary(p, t)
    p = DEFAULT_PARAMS
    rng = np.random.default_rng(9)
    for t in (0.0, 17.3, 123.4, 5000.0):
        s = random_state(rng)
        v = frame_unitary(p, t)
        ref = DensityState.from_matrix(v @ s.to_matrix() @ v.conj().T)
        assert np.max(np.abs(rotate_state(s, p, t).c - ref.c)) <= 1e-14


def test_rotating_frame_trajectory_matches_single_states():
    # each row of a transformed trajectory is the image of that row alone
    p = DEFAULT_PARAMS
    seg = PulseSegment(start=0.0, duration=30.0, amp_y_1=0.04, amp_x_2=-0.03)
    seq = PulseSequence(params=p, segments=(seg,))
    traj = evolve(p, seq, random_state(np.random.default_rng(6)), QUICK)
    rot = to_rotating_frame(traj, p)
    for i, t in enumerate(traj.times):
        single = rotate_state(traj.state(i), p, float(t))
        assert np.max(np.abs(rot.coeffs[i] - single.c)) <= 1e-14


def test_rotating_frame_wrong_frame_raises():
    p = DEFAULT_PARAMS
    seq = PulseSequence(params=p, total_time=10.0)
    traj = evolve(p, seq, DensityState.computational("00"), QUICK)
    rot = to_rotating_frame(traj, p)
    assert rot.frame == "rotating"
    with pytest.raises(WrongFrame):
        to_rotating_frame(rot, p)


def test_rotating_frame_takes_trajectories_only():
    # a bare state enters the frame only as a one-sample trajectory
    with pytest.raises(TypeError, match="cannot frame-transform DensityState"):
        to_rotating_frame(DensityState.computational("00"), DEFAULT_PARAMS)


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
