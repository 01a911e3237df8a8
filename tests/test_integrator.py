import inspect
import io
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

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
    _unitarity_defect,
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


def fresh_store(capacity=len(integrator._STORE.keys)):
    """A patch that gives the RK4 route an empty interval store."""
    return mock.patch.object(integrator, "_STORE", integrator._IntervalStore(capacity))


@pytest.fixture(autouse=True)
def cold_store():
    # each test starts from an empty store, so that a spy that counts built
    # intervals or H samplings sees every build, whatever ran before
    with fresh_store():
        yield


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
        n = _interval_steps(a, b, QUICK.step_target(p))
        h = (b - a) / n
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
    got = _complex_of(_expm_skew(w[:, :4, :4], w[:, 4:, :4]))
    for x, e in zip(w, got):
        assert np.max(np.abs(e - scipy.linalg.expm(_complex_of(x)))) < 1e-12


@pytest.mark.parametrize("norm", [1e-3, 0.05, 0.5, integrator._SERIES_NORM,
                                  integrator._SERIES_NORM * (1.0 + 1e-9), 3.0, 10.0])
def test_expm_batch_series_and_squaring_match_scipy(norm):
    # ||W||_1 = norm for every matrix: the series alone up to _SERIES_NORM,
    # where its degree is highest, and scaling and squaring above it
    w = random_anti_hermitian(np.random.default_rng(15), 8)
    w *= norm / np.max(np.sum(np.abs(w), axis=-2), axis=-1)[:, None, None]
    got = _complex_of(_expm_skew(w[:, :4, :4], w[:, 4:, :4]))
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


def magnus6_exponent_reference(hs, h):
    """Omega's real and imaginary parts by a six-product formula, the
    reference for _magnus6_steps' seven: S1 S3 and S1 C1 as one product
    S1 [S3, C1], and YZ as the real form of Y times [Zr; Zi]."""
    h1, h2, h3 = (hs[..., j::3, :, :] for j in range(3))
    s1 = h * h2
    s2 = (math.sqrt(15.0) / 3.0) * h * (h3 - h1)
    s3 = (10.0 / 3.0) * h * (h3 - 2.0 * h2 + h1)
    p = s1 @ s2
    c1 = p.swapaxes(-1, -2) - p
    t, u = np.split(s1 @ np.concatenate([s3, c1], -1), 2, axis=-1)
    c2r = (t - t.swapaxes(-1, -2)) / 30.0
    c2i = (u + u.swapaxes(-1, -2)) / 60.0
    q = _real_form(c1, 20.0 * s1 + s3) @ np.concatenate([c2r, c2i - s2], -2)
    qr, qi = q[..., :4, :], q[..., 4:, :]
    return ((qr - qr.swapaxes(-1, -2)) / 240.0,
            (qi + qi.swapaxes(-1, -2)) / 240.0 - s1 - s3 / 12.0)


@pytest.mark.parametrize("h", [1e-3, 0.03, 0.1, 0.3])
@pytest.mark.parametrize("shape, h_shape", [
    ((3 * 40,), ()),  # one flat stack, as the oracle builds its real substeps
    ((17, 3), (17, 1)),  # rows of one substep each
    ((5, 3 * 64), (5, 1)),  # a rectangle of rows
])
def test_magnus6_steps_match_the_six_product_formula(h, shape, h_shape):
    # the seven plain products give Omega, and so exp(Omega), to rounding
    rng = np.random.default_rng(31)
    a = rng.normal(size=shape + (4, 4))
    hs = a + a.swapaxes(-1, -2)
    step = h * rng.uniform(0.5, 1.0, size=h_shape + (1, 1))
    want = _expm_skew(*magnus6_exponent_reference(hs, step))
    assert np.max(np.abs(integrator._magnus6_steps(hs, step) - want)) <= 1e-15


def reference_oracle(p, seq, substeps=20, max_doublings=8):
    # the oracle one substep at a time: the Magnus exponent in complex
    # arithmetic, its exponential from the eigendecomposition of the
    # Hermitian i Omega, and U multiplied by each substep in turn.  Each
    # pass doubles every interval's first-pass count; once every U(t_k) is
    # within 63e-9 of the last pass's in the spectral norm, their Richardson
    # step U_f + (U_f - U_c)/63 is returned
    def expm(omega):
        lam, vec = np.linalg.eigh(1j * omega)
        return np.einsum("nij,nj,nkj->nik", vec, np.exp(-1j * lam), vec.conj())

    shift = math.sqrt(15.0) / 10.0
    bps = _breakpoints(seq)
    period = 2.0 * math.pi / max(p.w1z, p.w2z)
    first = [_interval_steps(a, b, period / substeps) for a, b in zip(bps[:-1], bps[1:])]
    prev = None
    for k in range(max_doublings + 1):
        u = np.eye(4, dtype=complex)
        us = [u]
        for a, b, m in zip(bps[:-1], bps[1:], first):
            h = (b - a) / (m << k)
            base = a + h * np.arange(m << k)
            mid = 0.5 * (a + b)
            a1, a2, a3 = (-1j * lab_hamiltonian(p, seq, base + c * h, mid)
                          for c in (0.5 - shift, 0.5, 0.5 + shift))
            for step in expm(magnus6_omega(a1, a2, a3, h)):
                u = step @ u
            us.append(u)
        us = np.array(us)
        if prev is not None and all(np.linalg.norm(d, 2) < 63e-9 for d in us - prev):
            return us + (us - prev) / 63.0
        prev = us
    raise NoConvergence("reference oracle did not converge")


def lab_states(us, rho0):
    """The Pauli coefficients of U rho0 U^dagger, divided by its trace, per U."""
    rhos = us @ rho0.to_matrix() @ us.conj().swapaxes(1, 2)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    return np.real(np.einsum("aij,nji->na", _BASIS, rhos))


def test_oracle_matches_per_substep_reference():
    # the interval products, shared with the RK4 route, against the
    # substep-by-substep product
    p = DEFAULT_PARAMS
    segs = (
        PulseSegment(start=0.0, duration=20.0, amp_y_1=0.04, amp_x_2=0.03,
                     flip_at=9.0, flip_qubit=1),
        PulseSegment(start=20.0, duration=6.0, amp_x_1=-0.03),
    )
    seq = PulseSequence(params=p, segments=segs)
    rho0 = random_state(np.random.default_rng(14))
    got = evolve_oracle(p, seq, rho0).coeffs
    assert np.max(np.abs(got - lab_states(reference_oracle(p, seq), rho0))) <= 1e-12


def ramped_flip_sequence():
    """A ramped segment with an off-grid flip and an overlapping square one
    on the benchmark device; every oracle pass after the first holds more
    substeps than one batch."""
    segs = (
        PulseSegment(start=0.0, duration=30.0, amp_x_1=0.05, amp_y_1=-0.02,
                     envelope=Envelope("raised-cosine-ramp", 6.0), flip_at=13.3, flip_qubit=1),
        PulseSegment(start=BENCH.t0_sync, duration=75.0, amp_y_2=0.04),
    )
    return PulseSequence(params=BENCH, segments=segs)


def oracle_pass(seq, substeps):
    """The oracle's running propagators U(t_k) from one pass of substeps,
    each interval cut as that many per smallest carrier period would."""
    bps = _breakpoints(seq)
    counts = _interval_steps(bps[:-1], bps[1:], StepPolicy(substeps).step_target(seq.params))
    return integrator._running_products(integrator._interval_products(
        seq, bps[:-1], bps[1:], counts, integrator._magnus_nodes, integrator._magnus6_steps))


def test_oracle_is_sixth_order():
    # every envelope edge, flip and ramp end is a breakpoint, so the error
    # of the final propagator against a fine pass falls by 2^6 per halving
    # of the substep, square or ramped; the ramp's ends, off the grid, are
    # where its C1 envelope's second derivative jumps, which would lower the
    # order inside an interval
    grid = BENCH.t0_sync / 8
    assert all(abs(t / grid - round(t / grid)) > 0.1 for t in (3.8, 16.2))
    for envelope in (Envelope(), Envelope("raised-cosine-ramp", 3.8)):
        segs = (
            PulseSegment(start=0.0, duration=20.0, amp_y_1=0.04, amp_x_2=0.03,
                         envelope=envelope, flip_at=9.0, flip_qubit=1),
            PulseSegment(start=20.0, duration=6.0, amp_x_1=-0.03),
        )
        seq = PulseSequence(params=BENCH, segments=segs)
        assert (3.8 in _breakpoints(seq)) == (envelope.rise > 0.0)
        ref = oracle_pass(seq, 2048)[-1]
        errors = [np.max(np.abs(oracle_pass(seq, n)[-1] - ref)) for n in (16, 32, 64)]
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
    # on D and the CNOT's XX^1/2 the passes at 20 and 40 substeps per
    # period differ by more than 63e-9, those at 40 and 80 by less, so
    # doubling from 20 stops after the pass at 80, every interval at 20,
    # 40 and 80 times its first-pass count over 20.  The rule reads the
    # operators, so the maximally mixed state, which every U leaves as it
    # is, takes as many passes as |10>
    passes = []
    real = integrator._interval_products

    def spy_pass(seq, a, b, counts, *scheme):
        passes.append(counts)
        return real(seq, a, b, counts, *scheme)

    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    seq = build(DEFAULT_PARAMS)
    bps = _breakpoints(seq)
    first = _interval_steps(bps[:-1], bps[1:], 2.0 * math.pi / DEFAULT_PARAMS.w1z / 20)
    for rho0 in (DensityState.computational("10"), DensityState(np.zeros(15))):
        passes.clear()
        evolve_oracle(DEFAULT_PARAMS, seq, rho0)
        assert [set((20 * n / first).tolist()) for n in passes] == [{20.0}, {40.0}, {80.0}]


def test_oracle_matches_reference_across_chunks(monkeypatch):
    # with the chunk cap lowered to one batch, every pass after the first
    # samples H in several chunks, and some chunk mixes substep counts; the
    # first pass (385 substeps at 20 per period) fits one batch, the second
    # does not
    monkeypatch.setattr(integrator, "_CHUNK_STEPS", integrator._BATCH_STEPS)
    p, seq = BENCH, ramped_flip_sequence()
    period = 2.0 * math.pi / p.w1z
    bps = _breakpoints(seq)
    first = _interval_steps(bps[:-1], bps[1:], period / integrator._ORACLE_SUBSTEPS)
    assert first.sum() <= integrator._BATCH_STEPS < 2 * first.sum()
    samplings = []  # per pass, the substep counts of the intervals each H sampling holds
    plans = []  # per pass, its interval starts and substep counts
    real_pass, real_ham = integrator._interval_products, integrator._hamiltonians

    def spy_pass(seq, a, b, counts, *scheme):
        samplings.append([])
        plans.append((a, counts))
        return real_pass(seq, a, b, counts, *scheme)

    def spy_ham(seq, a, b, tg):
        starts, counts = plans[-1]
        n, _, _ = sampled_rows(a, b, tg, counts[np.searchsorted(starts, a)], 3)
        samplings[-1].append(set(n.tolist()))
        return real_ham(seq, a, b, tg)

    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    monkeypatch.setattr(integrator, "_hamiltonians", spy_ham)
    rho0 = random_state(np.random.default_rng(16))
    got = evolve_oracle(p, seq, rho0).coeffs
    assert len(samplings) >= 2 and all(len(chunks) > 1 for chunks in samplings[1:])
    assert any(len(counts) > 1 for chunks in samplings for counts in chunks)
    assert np.max(np.abs(got - lab_states(reference_oracle(p, seq), rho0))) <= 1e-12


def test_evolve_oracle_is_the_trajectory_of_its_propagators():
    # evolve_oracle maps the propagator core's U(t_k) onto rho0 through
    # the tail evolve uses, and does nothing else
    seq = ramped_flip_sequence()
    rho0 = random_state(np.random.default_rng(20))
    got = evolve_oracle(BENCH, seq, rho0)
    want = integrator._trajectory(*integrator._oracle_propagators(seq), rho0)
    assert got.frame == want.frame == "lab"
    assert np.array_equal(got.times, want.times) and np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("build", [lambda: compile_D(DEFAULT_PARAMS),
                                   lambda: compile_cnot(DEFAULT_PARAMS), ramped_flip_sequence],
                         ids=["D", "cnot", "ramped-flip"])
def test_oracle_propagators_within_1e9_of_a_fine_pass(build):
    # the stop rule's estimate holds as an operator bound: every
    # extrapolated U(t_k) is within 1e-9, in the spectral norm, of a pass
    # at 2560 substeps per period
    seq = build()
    bps, us = integrator._oracle_propagators(seq)
    assert np.array_equal(bps, _breakpoints(seq))
    assert np.linalg.norm(us - oracle_pass(seq, 2560), 2, axis=(1, 2)).max() <= 1e-9


def test_oracle_stop_rule_takes_the_spectral_norm(monkeypatch):
    # ||U_f - U_c||_2 bounds every state's trace distance, so the rule
    # needs no stricter norm: on this benchmark pulse pair the passes at 20
    # and 40 substeps per period differ by 0.55 of 63e-9 in the spectral
    # norm, and by 1.03 of it in the Frobenius norm, which would take a
    # third pass
    passes = []
    real = integrator._interval_products

    def counting(*args):
        passes.append(args[3])
        return real(*args)

    monkeypatch.setattr(integrator, "_interval_products", counting)
    seq = PulseSequence(params=BENCH, segments=(
        compile_one_qubit(BENCH, 1, "y", 1.4290925842890267, 0.0),
        compile_one_qubit(BENCH, 2, "y", 0.39883989668835507, 0.0)))
    integrator._oracle_propagators(seq)
    assert len(passes) == 2


def batch_steps(counts):
    """The real steps of each batch _interval_products makes for intervals
    of these step counts: rows of at most _BATCH_STEPS steps, longest
    first, _BATCH_STEPS // w of them a batch, w the first one's."""
    size = integrator._BATCH_STEPS
    rows = sorted((min(n - first, size) for n in counts for first in range(0, n, size)),
                  reverse=True)
    steps, lo = [], 0
    while lo < len(rows):
        batch = rows[lo:lo + size // rows[lo]]
        steps.append(sum(batch))
        lo += len(batch)
    return steps


def test_oracle_batches_chunks_without_eigh(monkeypatch):
    # every exponential comes from the series, one per real substep of each
    # batch, none for the identity steps that pad its rectangle, in batches
    # that span several intervals and stay within the batch cap; the stop
    # rule reads the operators, with no state's eigenvalues
    def no_eigh(*args, **kwargs):
        raise AssertionError("the oracle called np.linalg.eigh or eigvalsh")

    passes = []
    real_pass, real_expm = integrator._interval_products, integrator._expm_skew

    def spy_pass(seq, a, b, counts, *scheme):
        passes.append((counts.tolist(), []))
        return real_pass(seq, a, b, counts, *scheme)

    def spy_expm(re, im):
        passes[-1][1].append(re.size // 16)  # one 4x4 exponent per substep
        return real_expm(re, im)

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigh)
    monkeypatch.setattr(integrator, "_interval_products", spy_pass)
    monkeypatch.setattr(integrator, "_expm_skew", spy_expm)
    integrator._oracle_propagators(ramped_flip_sequence())
    cap = integrator._BATCH_STEPS
    assert len(passes) >= 2
    for counts, batches in passes:
        assert batches == batch_steps(counts)
        assert sum(batches) == sum(counts)
        assert len(batches) < len(counts)
        assert max(batches) <= cap


def plain_propagators(p, seq, policy):
    """U(t_k) at every breakpoint, every interval stepped by RK4."""
    us = [np.eye(8)]
    bps = _breakpoints(seq)
    for a, b in zip(bps[:-1], bps[1:]):
        n = _interval_steps(a, b, policy.step_target(p))
        h = (b - a) / n
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


RAMP = Envelope("raised-cosine-ramp", 10.0)


def ramped_pair(p, **changes):
    """square_pair over three windows with ramps of 10, its one segment
    changed by changes."""
    seq = square_pair(p, 3, RAMP)
    return replace(seq, segments=(replace(seq.segments[0], **changes),))


def off_centre_pair(p):
    """The ramped pair on qubit 1 beside a square pulse on qubit 2 over the
    first two of its three windows: the breakpoints stay symmetric."""
    return PulseSequence(params=p, segments=(
        PulseSegment(start=0.0, duration=3 * p.t0_sync, amp_y_1=p.delta / 2, envelope=RAMP),
        PulseSegment(start=0.0, duration=2 * p.t0_sync, amp_y_2=p.delta / 2)))


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
    (BENCH, square_pair(BENCH, 3, RAMP), 9, 26, 1e-13),
    (BENCH, ramped_pair(BENCH, flip_at=1.5 * BENCH.t0_sync, flip_qubit=1), 9, 26, 1e-13),
    (BENCH, ramped_pair(BENCH, flip_at=1.625 * BENCH.t0_sync, flip_qubit=1), 14, 26, 1e-13),
    (BENCH, ramped_pair(BENCH, amp_x_1=0.3 * BENCH.delta), 18, 26, 1e-13),
    (BENCH, off_centre_pair(BENCH), 18, 26, 1e-13),
    (device(3.9), square_pair(device(3.9), 3, RAMP), 26, 26, 1e-13),
    (BENCH, square_pair(BENCH, 3, Envelope("raised-cosine-ramp", 3 * BENCH.t0_sync / 8 + 1e-10)),
     12, 24, 1e-13),
    (BENCH, square_pair(BENCH, 2.5, RAMP), 14, 22, 1e-13),
], ids=["D", "x-layer", "y-layer", "gate_layer", "xy-both", "xx_half", "cnot-bench",
        "cnot-paper", "ratio-3.9", "ratio-4+1e-9", "ramped", "ramped-flip-centre",
        "ramped-flip-off-centre", "ramped-mixed-axis", "ramped-off-centre", "ramped-ratio-3.9",
        "ramp-ends-merged", "ramped-centre-off-sync"])
def test_window_reuse_and_fallback(p, seq, built, intervals, tol, monkeypatch):
    # a grid interval is stepped once per orbit under the window shift, each
    # qubit's sign (S_q conj(U) S_q^T) and the window mirror (a transpose).
    # The D pulse (y drives, flat for 20 windows), a layer of x or of y
    # pulses and one of x on one qubit and y on the other step half of one
    # window: each qubit drives along one axis, so the mirror's sign on x is
    # that qubit's sign.  x and y on both qubits step a whole window, since
    # the mirror negates x and not y.  A device whose carriers do not flip
    # over t0_sync steps every interval.  A ramped pulse centred on a
    # multiple of t0_sync/2 builds its flat top once per orbit, and its
    # ramps, with both halves of each interval their off-grid ends cut,
    # once for both ends (the sequence mirror, a transpose), also with a
    # flip at the centre; an off-centre flip or segment, a qubit driven
    # along x and y, a device whose carriers do not flip, a ramp end 1e-10
    # past a grid point (the breakpoints keep the grid point on one side
    # and the ramp end on the other) and a centre at 1.25 t0_sync, where
    # the carriers are neither even nor odd, build both ramps.  The
    # paper's CNOT reuses 12 products over 26 windows, so their rounding
    # adds up: it keeps the 1e-11 of test_window_reuse_matches_plain_stepping.
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
    n = _interval_steps(a, b, BENCH_POLICY.step_target(BENCH))
    h = (b - a) / n
    tg = a + 0.5 * h * np.arange(2 * n + 1)
    us = []
    for signed in (amps, flipped):
        seq = PulseSequence(params=BENCH, segments=(
            PulseSegment(start=0.0, duration=BENCH.t0_sync, **signed),))
        us.append(_complex_of(_time_ordered_product(_rk4_steps(_hamiltonians(seq, a, b, tg), h))))
    s = QUBIT_SIGNS[q]
    assert np.max(np.abs(us[1] - s @ us[0].conj() @ s.T)) <= 1e-14


AMPLITUDE = st.one_of(st.just(0.0), st.floats(-0.3, 0.3, allow_nan=False))
# the Z1Z2 conjugation on real forms: entry (i, j) times d_i d_j, d = diag(Z1Z2) in both blocks
Z1Z2_MASK = np.kron(np.ones((2, 2)), np.outer(*[integrator._Z_SIGNS.prod(1)] * 2))


@settings(max_examples=30, derandomize=True)
@given(p=st.sampled_from([BENCH, DEFAULT_PARAMS]),
       policy=st.sampled_from([BENCH_POLICY, StepPolicy()]),
       k=st.integers(0, 15), amps=st.tuples(*[AMPLITUDE] * 4))
def test_negating_all_amplitudes_is_the_exact_z1z2_conjugation(p, policy, k, amps):
    # negating all four amplitudes gives H' = Z1Z2 H Z1Z2 entry for entry,
    # and conjugating by a diagonal +-1 matrix gives every term of every sum
    # of the step build and the pairwise products the same sign: a full
    # grid interval's product at -a is the Z1Z2 mask of its product at a
    # bit for bit, which lets the interval store keep one form for both
    s = p.t0_sync / 8
    a, b = np.array([k * s]), np.array([(k + 1) * s])
    counts = _interval_steps(a, b, policy.step_target(p))
    forms = []
    for sign in (1.0, -1.0):
        drive = {name: sign * x * p.delta
                 for name, x in zip(("amp_x_1", "amp_y_1", "amp_x_2", "amp_y_2"), amps)}
        seq = PulseSequence(params=p, segments=(PulseSegment(start=0.0, duration=16 * s, **drive),))
        forms.append(integrator._interval_products(seq, a, b, counts, integrator._half_steps,
                                                   integrator._rk4_steps))
    if any(amps):  # with no drive the store keys no sign, and zero entries' signs differ
        assert forms[1].tobytes() == (forms[0] * Z1Z2_MASK).tobytes()
    assert np.array_equal(forms[1], forms[0] * Z1Z2_MASK)


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


@st.composite
def centred_sequences(draw):
    """1-3 segments centred on t_c = m t0_sync/2, m in 1..4, of a device
    whose w0/delta is an integer in 2..6, and total_time 2 t_c: each
    reaching to a grid point or between two, square or ramped (the rise on
    the grid or off it, or capped at half the duration); driving qubit 1,
    2 or both with random signs, each qubit along one axis in every
    segment, or now and then along both; with a flip at t_c, off it, or
    none."""
    p = device(draw(st.integers(2, 6)))
    s = p.t0_sync / 8
    centre = 4 * draw(st.integers(1, 4))  # t_c in grid steps s
    axes = {q: draw(st.sampled_from(("x", "y", "x", "y", "xy"))) for q in (1, 2)}
    segs = []
    # segment j's amplitudes are +-0.05 2^j delta, so that no segments
    # cancel on a qubit, flipped or not
    for j in range(draw(st.integers(1, 3))):
        half = draw(st.integers(1, centre)) - draw(st.sampled_from((0.0, 0.0, 0.37)))
        amps = {}
        for q in draw(st.sampled_from(((1,), (2,), (1, 2)))):
            for c in axes[q]:
                amps[f"amp_{c}_{q}"] = draw(st.sampled_from((-1, 1))) * 0.05 * 2 ** j * p.delta
        envelope = Envelope()
        if draw(st.sampled_from((False, True, True))):
            rise = draw(st.sampled_from((1.0, 0.37, 1.5, 1.2 * half))) * s
            envelope = Envelope("raised-cosine-ramp", rise)
        flip_at = flip_qubit = None
        shift = draw(st.sampled_from((None, None, None, 0.0, 0.0, 0.5 * half, -0.25 * half)))
        if shift is not None:
            flip_at, flip_qubit = (centre + shift) * s, draw(st.sampled_from((1, 2)))
        segs.append(PulseSegment(start=(centre - half) * s, duration=2 * half * s, **amps,
                                 envelope=envelope, flip_at=flip_at, flip_qubit=flip_qubit))
    segs.sort(key=lambda seg: seg.start)
    return PulseSequence(params=p, segments=tuple(segs), total_time=2 * centre * s)


def idle_qubit_ramp():
    """A ramped x pulse on qubit 2 alone, over 22 of the 32 grid steps of a
    w0/delta = 3 device, centred on 2 t0_sync.  With qubit 1's sign bit
    left clear, the memo took qubit 2's sign S_2 (exact to rounding only) for
    its ramps' partners and flat top and read 1.08e-13 from plain stepping;
    with the bit following qubit 2's, the exact Z1Z2, 7.9e-14."""
    p = device(3)
    s = p.t0_sync / 8
    return PulseSequence(params=p, total_time=32 * s, segments=(PulseSegment(
        start=5 * s, duration=22 * s, amp_x_2=0.05 * p.delta,
        envelope=Envelope("raised-cosine-ramp", 1.5 * s)),))


@settings(max_examples=40, derandomize=True)
@given(seq=centred_sequences())
@example(seq=idle_qubit_ramp())
def test_sequence_mirror_matches_plain_stepping(seq):
    # every running propagator, where a ramp interval of the second half
    # is its partner's in the first under the sequence mirror: a transpose
    # and each qubit's sign, as its drive's carrier and flip turn it
    us = integrator._running_propagators(seq, BENCH_POLICY, 1e-9)[1]
    assert np.max(np.abs(us - plain_propagators(seq.params, seq, BENCH_POLICY))) <= 1e-13


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


def memo_forms(seqs, plant):
    """Per sequence of seqs, run in turn through one empty store, the real
    forms _running_propagators multiplies, one per breakpoint interval, at
    BENCH_POLICY.  Each built one is first made the real form of its first
    block column, as the two copies of a block in a product of real forms
    round apart; where plant is set, it then gets an inf at (0, 1), a -inf
    at (2, 5) and a -0.0 at (6, 3), and each run must fail the unitarity
    gate."""
    got = []
    build, multiply = integrator._interval_products, integrator._running_products

    def exact(*args):
        out = build(*args)
        out = _real_form(out[:, :4, :4], out[:, 4:, :4])
        if plant:
            out[:, 0, 1], out[:, 2, 5], out[:, 6, 3] = math.inf, -math.inf, -0.0
        return out

    def capture(prods):
        got.append(prods.copy())
        return multiply(prods)

    with mock.patch.object(integrator, "_interval_products", exact), \
            mock.patch.object(integrator, "_running_products", capture), fresh_store():
        for seq in seqs:
            if plant:
                with pytest.raises(StepTooCoarse):
                    integrator._running_propagators(seq, BENCH_POLICY, 1e-9)
            else:
                integrator._running_propagators(seq, BENCH_POLICY, 1e-9)
    return got


@settings(max_examples=25, derandomize=True)
@given(seq=sync_grid_sequences())
def test_window_memo_applies_its_relations(seq):
    # each reused interval's real form equals its origin's under the
    # relations done in complex 4x4 arithmetic: S_q conj(U) S_q^T for each
    # qubit's sign and U^T for the mirror.  With an inf and a -0.0 in every
    # built form, each entry of a reused one is still + or - one entry of
    # its origin's, none of them nan, where the matmuls above would make
    # 0 inf a nan
    origin, g, *_ = integrator._window_origins(seq, _breakpoints(seq))
    reused = np.flatnonzero(origin != np.arange(origin.size))
    (forms,), (planted,) = memo_forms([seq], False), memo_forms([seq], True)
    for i in reused.tolist():
        u = _complex_of(forms[origin[i]])
        for q in (1, 2):
            if g[i] >> (q - 1) & 1:
                u = QUBIT_SIGNS[q] @ u.conj() @ QUBIT_SIGNS[q].T
        if g[i] & 4:
            u = u.T
        assert np.array_equal(forms[i], _real_form(u.real, u.imag))
        assert not np.isnan(planted[i]).any()
        assert np.array_equal(np.sort(np.abs(planted[i]), axis=None),
                              np.sort(np.abs(planted[origin[i]]), axis=None))


def negated(seq):
    """seq's Z1Z2 twin: every nonzero drive amplitude negated."""
    names = ("amp_x_1", "amp_y_1", "amp_x_2", "amp_y_2")
    return replace(seq, segments=tuple(
        replace(seg, **{name: -getattr(seg, name) for name in names if getattr(seg, name)})
        for seg in seq.segments))


@settings(max_examples=25, derandomize=True)
@given(seq=sync_grid_sequences())
def test_window_memo_applies_z1z2_from_a_twins_slot(seq):
    # run right after its Z1Z2 twin, a sequence reads each full origin from
    # the slot the twin built, whose sign bits are the other two, and XORs
    # element 3 into its orbit's.  Every full interval's form is then the
    # twin's times the Z1Z2 mask where it is driven, and the twin's where it
    # is not, bit for bit, also with an inf and a -0.0 planted in every
    # built form: element 3 only moves entries and flips signs
    _, _, full, amps, _ = integrator._window_origins(seq, _breakpoints(seq))
    mask = np.where(amps[full].any(axis=1)[:, None, None], Z1Z2_MASK, 1.0)
    for plant in (False, True):
        theirs, ours = memo_forms([negated(seq), seq], plant)
        assert ours[full].tobytes() == (theirs[full] * mask).tobytes()


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
    g = f1 + 2 f2 + 4 f_m: the four sign pairs (p, F n) at p, F negating
    qubit 1's pair where f1 is set and qubit 2's where f2 is, and the same
    four mirrored, (7 - p, M F n); the first interval of an orbit is its
    origin.  Then the sequence mirror, found by sampling the amplitudes at
    reflected times."""
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
            # setdefault keeps the first: where qubit q is not driven, the
            # images with and without f_q coincide, and the one kept has f_q
            # equal to the other qubit's bit (both clear where neither is
            # driven), so the two signs together are Z1Z2, which is exact
            for g in sorted(range(8), key=lambda g: ((g ^ g >> 1) & 1, g)):
                signs = (-1.0 if g & 1 else 1.0,) * 2 + (-1.0 if g & 2 else 1.0,) * 2
                if g & 4:
                    signs = tuple(s * m for s, m in zip(signs, (-1.0, 1.0, -1.0, 1.0)))
                seen.setdefault((7 - pos if g & 4 else pos, *(s * x for s, x in zip(signs, n))),
                                (i, g))
        origin[i], element[i] = seen[(pos, *n)]
    # the sequence mirror t -> span - t about span/2 = m t0_sync/2 sends
    # (cos, sin) of each carrier to (-1)^m (cos, -sin), so where sampling
    # finds amps(span - t) = sign_q (-1)^m (ax_q(t), -ay_q(t)) for each
    # qubit q at points inside every interval, the second half's intervals
    # that are not full take their partners' propagators transposed, with
    # the sign bits where sign_q = -1
    span, n = seq.total_time, a.size
    m = round(span / p.t0_sync)
    if abs(r - round(r)) > rtol * r or m < 1 \
            or not np.isclose(span, m * p.t0_sync, rtol=rtol, atol=0.0) \
            or not np.allclose(bps + bps[::-1], span, rtol=rtol, atol=0.0):
        return origin, element
    t = (a[:, None] + (b - a)[:, None] * np.array([0.1, 0.3, 0.5, 0.7, 0.9])).ravel()
    fwd, rev = (np.array(drive_amplitudes_at(seq, x, x)).reshape(2, 2, -1) for x in (t, span - t))
    carrier = (-1.0) ** m * np.array([[1.0], [-1.0]])
    signs = [[sign for sign in (1.0, -1.0)
              if np.allclose(rev[q], sign * carrier * fwd[q], rtol=0.0, atol=1e-12)]
             for q in (0, 1)]
    if not all(signs):
        return origin, element
    # a qubit that both signs fit is not driven: its bit follows the other's
    bit = [None if len(s) == 2 else s[0] < 0 for s in signs]
    sigma = sum(bool(bit[q] if bit[q] is not None else bit[1 - q]) << q for q in (0, 1))
    for i in range(n):
        if 2 * i > n - 1 and not full[i]:
            origin[i], element[i] = origin[n - 1 - i], element[n - 1 - i] ^ 4 ^ sigma
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


def off_centre_idle_flip():
    """A centred ramped x pulse on qubit 1 that flips qubit 2, which it does
    not drive, at an off-centre grid point."""
    p = device(2)
    s = p.t0_sync / 8
    return PulseSequence(params=p, total_time=8 * s, segments=(PulseSegment(
        start=2 * s, duration=4 * s, amp_x_1=-0.2 * p.delta,
        envelope=Envelope("raised-cosine-ramp", 0.37 * s), flip_at=5 * s, flip_qubit=2),))


@settings(max_examples=100, derandomize=True)
@given(seq=centred_sequences())
@example(seq=off_centre_idle_flip())
def test_window_origins_match_orbit_table_on_centred_sequences(seq):
    # the sequence mirror's segment rules against the reference's sampled
    # amplitudes at reflected times; a flip of a qubit the segment does not
    # drive changes no amplitude, so it need not be centred
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
        with fresh_store():  # the in-call memo alone, not a negated twin's record
            propagator_of_sequence(BENCH, seq, BENCH_POLICY)
        assert _breakpoints(seq).size - 1 == 16
    assert built == [4] * 256


def cold_runs(cases):
    """Per (seq, policy), its U(t_k), each built from an empty store."""
    out = []
    for seq, policy in cases:
        with fresh_store():
            out.append(integrator._running_propagators(seq, policy, 1e-9)[1])
    return out


def store_cases(which):
    if which == "gate-layers":
        return [(seq, BENCH_POLICY) for seq in bench_gate_layers(0.0)]
    seqs = [seq for p in (DEFAULT_PARAMS, BENCH) for seq in (
        compile_cnot(p), insert_decoupling(p, compile_cnot(p), 0), compile_D(p), compile_xx_half(p))]
    return [(seq, policy) for policy in (StepPolicy(), BENCH_POLICY) for seq in seqs]


@pytest.mark.parametrize("which", ["gate-layers", "gates"])
def test_interval_store_is_transparent(which):
    # a stored interval's real form has the bits of building it: every
    # U(t_k) is that of a run from an empty store, with the store filled in
    # order, warm, warm in reverse order, and with 3 slots, fewer than the
    # 4 full intervals or more that each call builds, so a call evicts its
    # own entries
    cases = store_cases(which)
    want = cold_runs(cases)
    order = list(range(len(cases)))
    with fresh_store():
        for run in (order, order, order[::-1]):
            for i in run:
                assert np.array_equal(
                    integrator._running_propagators(*cases[i], 1e-9)[1], want[i]), i
        # the 256 gate layers build 4 full intervals each, a negated twin's
        # 4 with the same records: 512
        assert len(integrator._STORE.slots) == (512 if which == "gate-layers" else 112)
    with fresh_store(3):
        for i in order:
            assert np.array_equal(integrator._running_propagators(*cases[i], 1e-9)[1], want[i]), i
        assert len(integrator._STORE.slots) == 3


def test_interval_store_shares_negated_gate_layers(monkeypatch):
    # a layer's negated twin (x or y by -k1 pi/8 and -k2 pi/8; turn index
    # j of 8 goes to 7 - j, so layer i's twin is i ^ 0b1110111) reads its
    # twin's records under Z1Z2: in one store the 256 layers build 512
    # intervals, a layer run right after its twin builds none, and every
    # U(t_k) has the bits of its run from an empty store
    cases = store_cases("gate-layers")
    want = cold_runs(cases)
    built = []
    real = integrator._interval_products

    def counting(seq, a, *args):
        built[-1] += a.size
        return real(seq, a, *args)

    monkeypatch.setattr(integrator, "_interval_products", counting)
    with fresh_store():
        for i in (j for i in range(256) if i < i ^ 0b1110111 for j in (i, i ^ 0b1110111)):
            built.append(0)
            us = integrator._running_propagators(*cases[i], 1e-9)[1]
            assert us.tobytes() == want[i].tobytes(), i
        assert len(integrator._STORE.slots) == 512
    assert built == [4, 0] * 128


def keyed_segment(**changes):
    return replace(PulseSegment(start=0.0, duration=20.0, amp_x_1=0.03, amp_y_1=-0.02,
                                amp_x_2=0.015, amp_y_2=0.025), **changes)


# an interval record, (device, segment, a, b, steps), and per key field one
# that differs from it in that field only: each device frequency, a, b, the
# step count, each of the memo's folded amplitudes, and the sign bit, here
# qubit 1's pair negated, which the memo folds to the same amplitudes
KEYED = (BENCH, keyed_segment(), 1.0, 1.7, 40)
KEY_FIELDS = {
    "w1z": (replace(BENCH, w1z=1.2),) + KEYED[1:],
    "w2z": (replace(BENCH, w2z=0.8),) + KEYED[1:],
    "wxx": (replace(BENCH, wxx=0.03),) + KEYED[1:],
    "a": KEYED[:2] + (1.05,) + KEYED[3:],
    "b": KEYED[:3] + (1.75, 40),
    "steps": KEYED[:4] + (41,),
    **{name: (BENCH, keyed_segment(**{name: 0.01})) + KEYED[2:]
       for name in ("amp_x_1", "amp_y_1", "amp_x_2", "amp_y_2")},
    "one-sign": (BENCH, keyed_segment(amp_x_1=-0.03, amp_y_1=0.02)) + KEYED[2:],
}


def stored(p, seg, a, b, n):
    """One full interval's real form through the store, under the element it
    is read with (the Z1Z2 mask for 3); its folded amplitudes and element
    are the memo's for [a, b], a grid interval's at window position 0."""
    seq = PulseSequence(params=p, segments=(seg,))
    _, _, _, amps, elements = integrator._window_origins(seq, np.array([a, b]))
    form, z = integrator._stored_products(seq, np.array([a]), np.array([b]), np.array([n]),
                                          np.array([True]), amps, elements)
    return form[0] * Z1Z2_MASK if z[0] else form[0]


@pytest.mark.parametrize("field", sorted(KEY_FIELDS))
def test_interval_store_keys_every_field(field):
    # an interval that differs from a stored one in one field of its record
    # alone is built, not read, whichever the field: its form differs from
    # the stored one's, and a warm store gives the bits of an empty one
    first, other = stored(*KEYED), stored(*KEY_FIELDS[field])
    with fresh_store():
        stored(*KEYED)
        assert np.array_equal(stored(*KEY_FIELDS[field]), other)
        assert len(integrator._STORE.slots) == 2
    assert not np.array_equal(first, other)


@pytest.mark.parametrize("amp_y_2", [0.0, 0.025], ids=["qubit-1", "x1-y2"])
def test_interval_store_folds_signed_zeros(amp_y_2):
    # the memo's fold negates a pair's undriven channel to -0.0: (x, k) on
    # qubit 1 folds to (k, 0, 0, 0) and its twin (x, -k) to
    # (k, -0.0, -0.0, -0.0), an idle qubit 2 following qubit 1's sign, and
    # with y on qubit 2 one -0.0 sits on each side.  As raw bytes these are
    # not one key, so the store adds 0.0.  The twin reads the one slot under
    # element 3, with the bits of building it
    twin = keyed_segment(amp_y_1=0.0, amp_x_2=0.0, amp_y_2=-amp_y_2)
    other = replace(twin, amp_x_1=-twin.amp_x_1, amp_y_2=amp_y_2)
    want = stored(BENCH, other, 1.0, 1.7, 40)
    with fresh_store():
        stored(BENCH, twin, 1.0, 1.7, 40)
        assert stored(BENCH, other, 1.0, 1.7, 40).tobytes() == want.tobytes()
        assert len(integrator._STORE.slots) == 1


def test_interval_store_keeps_one_qubits_sign_apart():
    # x by pi/8 on qubit 1 and y by pi/4 on qubit 2, then the layer with x
    # by -pi/8: the memo folds both layers' intervals to the same amplitudes,
    # but one qubit's sign is exact only to rounding, so the records differ
    # in the sign bit and share no slot, and each run keeps the bits of its
    # run from an empty store
    cases = [(PulseSequence(params=BENCH, segments=(
        compile_one_qubit(BENCH, 1, "x", k1 * math.pi / 8, 0.0),
        compile_one_qubit(BENCH, 2, "y", math.pi / 4, 0.0))), BENCH_POLICY) for k1 in (1, -1)]
    want = cold_runs(cases)
    with fresh_store():
        for case, u in zip(cases, want):
            assert integrator._running_propagators(*case, 1e-9)[1].tobytes() == u.tobytes()
        assert len(integrator._STORE.slots) == 8


def test_interval_store_keeps_devices_and_policies_apart():
    # a device that differs only in wxx, on the same segments, and a policy
    # with another step count share no entry
    segs = gate_layer(BENCH).segments
    cases = [(PulseSequence(params=p, segments=segs), policy)
             for p in (BENCH, replace(BENCH, wxx=0.02))
             for policy in (BENCH_POLICY, StepPolicy(801))]
    want = cold_runs(cases)
    with fresh_store():
        for (seq, policy), u in zip(cases, want):
            assert np.array_equal(integrator._running_propagators(seq, policy, 1e-9)[1], u)
        assert len(integrator._STORE.slots) == 4 * len(cases)


@pytest.mark.parametrize("rise", [0.1, 0.25, 0.37])
def test_interval_store_shared_by_square_and_ramped_pulses(rise, monkeypatch):
    # a square segment over the grid intervals of a ramp's flat top reads
    # their forms where the ramp stored them, and the ramp reads the
    # square's, each with the bits of a run from an empty store
    s = BENCH.t0_sync / 8
    pulse = compile_one_qubit(BENCH, 1, "x", math.pi / 4, 0.0)
    ramp = replace(pulse, envelope=Envelope("raised-cosine-ramp", rise * pulse.duration))
    k0, k1 = math.ceil(ramp.flat_top[0] / s), math.floor(ramp.flat_top[1] / s)
    square = PulseSegment(start=k0 * s, duration=(k1 - k0) * s, amp_x_1=ramp.amp_x_1)
    seqs = [PulseSequence(params=BENCH, segments=(seg,), total_time=ramp.end)
            for seg in (ramp, square)]
    cases = [(seq, BENCH_POLICY) for seq in seqs]
    want = cold_runs(cases)
    built = []
    real = integrator._interval_products

    def counting(seq, a, *args):
        built[-1] += a.size
        return real(seq, a, *args)

    monkeypatch.setattr(integrator, "_interval_products", counting)

    def builds(i):
        built.append(0)
        assert np.array_equal(integrator._running_propagators(seqs[i], BENCH_POLICY, 1e-9)[1],
                              want[i])
        return built[-1]

    for first, second in ((0, 1), (1, 0)):
        with fresh_store():
            builds(first)
            warm = builds(second)
        with fresh_store():
            assert warm < builds(second)


class YieldingDict(dict):
    """A dict that lets other threads run inside each lookup and update."""

    def get(self, *args):
        time.sleep(0)
        return super().get(*args)

    def pop(self, *args):
        time.sleep(0)
        return super().pop(*args)


def test_interval_store_shared_by_threads():
    # four threads, more than the cores, over overlapping gate layers, with
    # 5 slots that they all evict, a short switch interval and a switch
    # inside every lookup and eviction, give the serial results and leave
    # each record's slot holding that record
    cases = store_cases("gate-layers")[:48]
    want = cold_runs(cases)

    def work(indices):
        return [(i, integrator._running_propagators(*cases[i], 1e-9)[1])
                for _ in range(2) for i in indices]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with fresh_store(5), ThreadPoolExecutor(4) as pool:
            store = integrator._STORE
            store.slots = YieldingDict()
            runs = [pool.submit(work, range(k, k + 24)) for k in (0, 8, 16, 24)]
            results = [item for run in runs for item in run.result(timeout=120)]
            assert len(store.slots) == 5
            assert all(store.keys[slot] == key for key, slot in store.slots.items())
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 192
    for i, u in results:
        assert np.array_equal(u, want[i]), i


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
    origin, g, *_ = integrator._window_origins(seq, _breakpoints(seq))
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


def sampled_rows(a, b, tg, n, q):
    """The rows of one H sampling, whose times tg each lie in an interval
    [a, b] of n steps; a row is the run of times one row of a rectangular
    batch samples: q = 2 for RK4's half-step grid, 2w + 1 times for w
    padded steps, and q = 3 for the oracle's three Gauss nodes a substep.
    Per row: its interval's step count, its first step and its padded
    steps w."""
    u = (tg - a) / ((b - a) / n)  # in steps from the interval's start
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
    counts = _interval_steps(bps[:-1], bps[1:], BENCH_POLICY.step_target(p)).tolist()
    assert len(set(counts)) >= 4
    samplings = []
    real = integrator._hamiltonians

    def spy(seq, a, b, tg):
        n = _interval_steps(a, b, BENCH_POLICY.step_target(p))
        counts, _, _ = sampled_rows(a, b, tg, n, 2)
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
    # chunk stays within its cap, counted padded for RK4 and in real
    # substeps for the Magnus scheme, which samples and builds only those.
    # A zero-duration sequence has no interval: both schemes return an
    # empty stack, sampling no H
    nodes, steps, q, alone, tol = SCHEMES[scheme]
    h_target = BENCH_POLICY.step_target(BENCH)
    b = start + np.cumsum([(n - 1 + x) * h_target for n, x in intervals])
    a = np.append(start, b[:-1])[:b.size]
    counts = np.array([n for n, _ in intervals], dtype=int)
    batches, chunks = [], []
    real_ham = integrator._hamiltonians

    def counted_steps(hs, h):
        batches.append(hs.shape[0] * (hs.shape[1] // q))
        return steps(hs, h)

    def spy_ham(seq, x, y, tg):
        chunks.append(sampled_rows(x, y, tg, counts[np.searchsorted(a, x)], q)[2].sum())
        return real_ham(seq, x, y, tg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_CHUNK_STEPS", chunk)
        mp.setattr(integrator, "_hamiltonians", spy_ham)
        got = integrator._interval_products(PIPELINE_SEQ, a, b, counts, nodes, counted_steps)
    assert got.shape == (a.size, 8, 8)
    assert a.size or not chunks
    assert all(n <= integrator._BATCH_STEPS for n in batches)
    assert all(n <= chunk for n in chunks) and sum(chunks) == sum(batches)
    for x, y, n, u in zip(a, b, counts, got):
        h = (y - x) / n
        want = _time_ordered_product(steps(_hamiltonians(PIPELINE_SEQ, x, y, alone(x, n, h)), h))
        assert np.max(np.abs(u - want), initial=0.0) <= tol


# per route, one pass over a sequence at a policy's step target, and its
# samples per step
ROUTES = {
    "rk4": (lambda seq, policy: integrator._running_propagators(seq, policy, 1e-9), 2),
    "oracle": (lambda seq, policy: oracle_pass(seq, policy.steps_per_period), 3),
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
        n = _interval_steps(a, b, policy.step_target(p))
        counts, first, width = sampled_rows(a, b, tg, n, q)
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

    def spy_pass(seq, a, b, counts, *scheme):
        passes.append([int(counts.sum()), 0])
        return real_pass(seq, a, b, counts, *scheme)

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


def test_oracle_doubles_intervals_shorter_than_a_substep(monkeypatch):
    # each ramp of this pulse is one interval of 0.098, shorter than a
    # substep at 20 or 40 per period (0.25 and 0.13): with one substep
    # length per pass it would get one substep in both passes, whose
    # difference says nothing of its error, and the trajectory would be
    # 1.0e-6 off; each interval doubles its own first-pass count instead
    s = WIDE.t0_sync / 8
    seg = PulseSegment(start=0.0, duration=0.6 * s, amp_x_1=0.125, amp_y_1=-0.075,
                       envelope=Envelope("raised-cosine-ramp", 0.098))
    seq = PulseSequence(params=WIDE, segments=(seg,))
    bps = _breakpoints(seq)
    period = 2.0 * math.pi / WIDE.w1z
    assert np.diff(bps).min() < period / 40
    extrapolated = []
    real = integrator._trajectory

    def spy(bps, us, rho0):
        extrapolated.append(us)
        return real(bps, us, rho0)

    monkeypatch.setattr(integrator, "_trajectory", spy)
    rho0 = random_state(np.random.default_rng(19))
    got = evolve_oracle(WIDE, seq, rho0)
    ref = real(bps, oracle_pass(seq, 2560), rho0)
    assert max(trace_distance(got.state(i), ref.state(i)) for i in range(bps.size)) <= 1e-9
    # U_f + (U_f - U_c)/63 is not exactly unitary; its defect is second
    # order in the passes' difference
    assert len(extrapolated) == 1
    assert _unitarity_defect(extrapolated[0]) <= 1e-13


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
    # np.diff of (n, 1) times runs along their length-1 axis, so it is empty
    (lambda: Trajectory(times=[[1.0], [0.0]], coeffs=np.zeros((2, 15))),
     "sample times must be strictly increasing along one axis"),
    (lambda: Trajectory(times=[0.0, 1.0], coeffs=np.zeros((2, 14))),
     r"coeffs shape must be \(n_samples, 15\)"),
    (lambda: Trajectory(times=[0.0], coeffs=np.zeros((1, 15)), frame="interaction"),
     "bad frame tag 'interaction'"),
    # np.diff(t) <= 0 is false for nan, and DensityState rejects these
    # coefficients
    (lambda: Trajectory(times=[0.0, math.nan], coeffs=np.zeros((2, 15))),
     "sample times and coefficients must be finite"),
    (lambda: Trajectory(times=[0.0, math.inf], coeffs=np.zeros((2, 15))),
     "sample times and coefficients must be finite"),
    (lambda: Trajectory(times=[0.0], coeffs=np.full((1, 15), math.nan)),
     "sample times and coefficients must be finite"),
    (lambda: Trajectory(times=[0.0], coeffs=np.full((1, 15), -math.inf)),
     "sample times and coefficients must be finite"),
], ids=["matrix-shape", "matrix-trace", "matrix-hermitian", "basis-label", "negative-eigenvalue",
        "purity-above-1", "times-not-increasing", "times-2d", "coeffs-shape", "frame-tag",
        "nan-time", "inf-time", "nan-coeffs", "inf-coeffs"])
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


def test_step_policy_rejects_counts_beyond_float():
    # step_target divides by the count as a float, which used to raise
    # OverflowError there; the policy refuses it when it is built
    with pytest.raises(ValueError, match="steps_per_period"):
        StepPolicy(steps_per_period=10**400)


def test_step_counts_beyond_int64_are_refused(monkeypatch):
    # cast to int64 they would wrap to INT64_MIN and run as one step per
    # interval; they are refused before any interval is sampled
    seq = PulseSequence(params=BENCH, segments=(compile_one_qubit(BENCH, 1, "x", 1.1, 0.0),))
    monkeypatch.setattr(integrator, "_hamiltonians", mock.Mock(side_effect=AssertionError))
    policy = StepPolicy(steps_per_period=10**30)
    for run in (lambda: propagator_of_sequence(BENCH, seq, policy),
                lambda: evolve(BENCH, seq, PURE_00, policy)):
        with pytest.raises(ValueError, match=r"e\+\d+ steps in one interval do not fit an int64"):
            run()


def test_step_totals_beyond_the_budget_are_refused(monkeypatch):
    # a total that fits int64 but not memory is refused where the rows are
    # planned, before any is: fidelity on x90 at 2e16 steps per period
    # would plan about 1e13 rows.  The budget is lowered, so that a
    # regression plans no real one, and sampling H fails the test
    monkeypatch.setattr(integrator, "_STEP_BUDGET", 10)
    monkeypatch.setattr(integrator, "_hamiltonians", mock.Mock(side_effect=AssertionError))
    seq = PulseSequence(params=BENCH, segments=(compile_one_qubit(BENCH, 1, "x", 1.1, 0.0),))

    def plan(counts):
        a = np.arange(len(counts), dtype=float)
        return integrator._interval_products(seq, a, a + 1.0, np.array(counts),
                                             integrator._half_steps, _rk4_steps)

    with pytest.raises(AssertionError):  # at the budget, the rows are planned and H sampled
        plan([4, 6])
    with pytest.raises(ValueError, match="11 steps exceed the budget of 10 steps a call"):
        plan([5, 6])
    # end to end, every route refuses before it samples H: the x90's grid
    # at the grid cap (no row fits 10 steps), and a pulse shorter than one
    # grid interval, which the cap admits, at the step budget
    short = PulseSequence(params=BENCH, segments=(PulseSegment(start=0.0, duration=3.0,
                                                               amp_x_1=0.01),))
    for s, message in ((seq, "16 grid intervals exceed the 0 rows of 10 steps"),
                       (short, "steps exceed the budget of 10 steps a call")):
        for run in (lambda: propagator_of_sequence(BENCH, s, BENCH_POLICY),
                    lambda: evolve(BENCH, s, PURE_00, BENCH_POLICY),
                    lambda: evolve_oracle(BENCH, s, PURE_00)):
            with pytest.raises(ValueError, match=message):
                run()


def test_grids_beyond_the_cap_are_refused_before_they_are_built(monkeypatch):
    # each grid interval is one row of steps at least, so a sequence whose
    # t0_sync/8 grid has more intervals than the step budget has rows, here
    # 64, is refused from total_time alone on every route: no breakpoints
    # are handed on, so neither the memo nor the interval build is reached
    monkeypatch.setattr(integrator, "_STEP_BUDGET", 64 * integrator._BATCH_STEPS)
    monkeypatch.setattr(integrator, "_window_origins", mock.Mock(side_effect=AssertionError))
    monkeypatch.setattr(integrator, "_interval_products", mock.Mock(side_effect=AssertionError))
    s, message = BENCH.t0_sync / 8, "65 grid intervals exceed the 64 rows of 32768 steps"
    for run in (lambda seq: propagator_of_sequence(BENCH, seq, BENCH_POLICY),
                lambda seq: evolve(BENCH, seq, PURE_00, BENCH_POLICY),
                lambda seq: evolve_oracle(BENCH, seq, PURE_00)):
        with pytest.raises(ValueError, match=message):
            run(PulseSequence(params=BENCH, total_time=65 * s))
        with pytest.raises(AssertionError):  # at the cap, the grid is handed on
            run(PulseSequence(params=BENCH, total_time=64 * s))


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


@pytest.mark.parametrize("frame", ["lab", "rotating"])
@pytest.mark.parametrize("full", [False, True])
def test_csv_rows_match_per_value_formatting(frame, full):
    # one format string a row writes what formatting each value with
    # f"{x:.12g}" wrote, signed zeros, tiny and long values included
    rng = np.random.default_rng(41)
    coeffs = rng.uniform(-1.0, 1.0, size=(6, 15))
    coeffs[0, :4] = (-0.0, 1e-17, 123456789.123, -2.5e-300)
    traj = Trajectory(times=np.array([0.0, 1e-17, 0.5, 3.0, 123456789.123, 1e300]),
                      coeffs=coeffs, frame=frame)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf, full=full)
    ncols = 15 if full else 6
    want = [f"{t:.12g},{frame}," + ",".join(f"{x:.12g}" for x in c[:ncols])
            for t, c in zip(traj.times, traj.coeffs)]
    assert buf.getvalue().splitlines()[1:] == want
