"""The lab-frame Hamiltonian one time at a time, from its Pauli
coefficients: the tests' independent reference for the integrators'
batched sampler, ``integrator._hamiltonians``, and the per-channel drive
sampler it reads, the reference for ``model.drive_amplitudes_at``."""

import math

import numpy as np

from flicforq.pauli import TWO_QUBIT_LABELS

IDX = {lab: i for i, lab in enumerate(TWO_QUBIT_LABELS)}


def masked_scale(env, tau, duration):
    """The envelope's value at tau after segment start: its shape on
    [0, duration] and 0 outside."""
    tau = np.asarray(tau, dtype=float)
    if env.kind == "square" or env.rise == 0.0:
        return np.where((tau >= 0) & (tau <= duration), 1.0, 0.0)
    rise = env.capped_rise(duration)
    up = 0.5 * (1.0 - np.cos(np.pi * np.clip(tau / rise, 0.0, 1.0)))
    down = 0.5 * (1.0 - np.cos(np.pi * np.clip((duration - tau) / rise, 0.0, 1.0)))
    return np.where((tau >= 0) & (tau <= duration), np.minimum(up, down), 0.0)


def drive_amplitudes(seq, t, mid):
    """[ax1, ay1, ax2, ay2] at t, each channel summed on its own over every
    segment, undriven ones too; a segment acts where ``mid`` lies in it,
    its envelope read at t - start clipped to the segment, and its flip
    sign is decided at ``mid``."""
    t = np.asarray(t, dtype=float)
    amps = [np.zeros_like(t) for _ in range(4)]
    for seg in seq.segments:
        active = (seg.start <= mid) & (mid <= seg.end)
        if not np.any(active):
            continue
        env = masked_scale(seg.envelope, np.clip(t - seg.start, 0.0, seg.duration),
                           seg.duration) * active
        flip1 = flip2 = 1.0
        if seg.flip_at is not None:
            post = np.where(mid >= seg.flip_at, -1.0, 1.0)
            if seg.flip_qubit == 1:
                flip1 = post
            else:
                flip2 = post
        amps[0] = amps[0] + env * flip1 * seg.amp_x_1
        amps[1] = amps[1] + env * flip1 * seg.amp_y_1
        amps[2] = amps[2] + env * flip2 * seg.amp_x_2
        amps[3] = amps[3] + env * flip2 * seg.amp_y_2
    return amps


def hamiltonian_at(seq, t: float) -> np.ndarray:
    """Pauli coefficients h of H(t) = sum_a h[a] P_a on ``seq.params``, in
    TWO_QUBIT_LABELS order.  Only ZI, IZ, XX, XI and IX appear, all real, so
    H is a real symmetric matrix, which the integrators rely on."""
    p = seq.params
    ax1, ay1, ax2, ay2 = drive_amplitudes(seq, t, t)
    h = np.zeros(15)
    h[IDX["ZI"]] = 0.5 * p.w1z
    h[IDX["IZ"]] = 0.5 * p.w2z
    h[IDX["XX"]] = 0.5 * p.wxx
    h[IDX["XI"]] = float(ax1) * math.cos(p.w1z * t) + float(ay1) * math.sin(p.w1z * t)
    h[IDX["IX"]] = float(ax2) * math.cos(p.w2z * t) + float(ay2) * math.sin(p.w2z * t)
    return h
