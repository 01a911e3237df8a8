import io
import math

import numpy as np
import pytest
import scipy.linalg

from flicforq.integrator import (
    DensityState,
    NoConvergence,
    StepPolicy,
    Trajectory,
    WrongFrame,
    evolve,
    evolve_oracle,
    propagator_of_sequence,
    to_rotating_frame,
    trace_distance,
    write_trajectory_csv,
)
from flicforq.integrator import IDX, _BASIS, _breakpoints, _expm_batch, _interval_steps
from flicforq.model import (
    DEFAULT_PARAMS,
    PulseSegment,
    PulseSequence,
    SystemParams,
    drive_amplitudes_at,
)

QUICK = StepPolicy(steps_per_period=300)


def random_state(rng):
    # random pure state
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return DensityState.from_ket(psi)


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
    hd = 0.5 * p.w1z * _BASIS[IDX["ZI"]] + 0.5 * p.w2z * _BASIS[IDX["IZ"]] \
        + 0.5 * p.wxx * _BASIS[IDX["XX"]]

    def f(t, mid):
        ax1, ay1, ax2, ay2 = drive_amplitudes_at(seq, t, mid=mid)
        u1 = ax1 * math.cos(p.w1z * t) + ay1 * math.sin(p.w1z * t)
        u2 = ax2 * math.cos(p.w2z * t) + ay2 * math.sin(p.w2z * t)
        return -1j * (hd + u1 * _BASIS[IDX["XI"]] + u2 * _BASIS[IDX["IX"]])

    u = np.eye(4, dtype=complex)
    bps = _breakpoints(p, seq)
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
    a = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    mats = a + a.conj().transpose(0, 2, 1)
    got = _expm_batch(mats, 0.37)
    for m, e in zip(mats, got):
        assert np.max(np.abs(e - scipy.linalg.expm(-0.37j * m))) < 1e-12


def test_wrong_device_rejected():
    p = DEFAULT_PARAMS
    other = SystemParams(w1z=1.05, w2z=0.95, wxx=0.005)
    seq = PulseSequence(params=p, total_time=5.0)
    rho0 = DensityState.computational("00")
    with pytest.raises(ValueError, match="device"):
        evolve(other, seq, rho0, QUICK)
    with pytest.raises(ValueError, match="device"):
        propagator_of_sequence(other, seq, QUICK)
    with pytest.raises(ValueError, match="device"):
        evolve_oracle(other, seq, rho0)


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
