"""The lab-frame Hamiltonian one time at a time, from its Pauli
coefficients: the tests' independent reference for the integrators'
batched sampler, ``integrator._hamiltonians``."""

import math

import numpy as np

from flicforq.model import drive_amplitudes_at
from flicforq.pauli import TWO_QUBIT_LABELS

IDX = {lab: i for i, lab in enumerate(TWO_QUBIT_LABELS)}


def hamiltonian_at(seq, t: float) -> np.ndarray:
    """Pauli coefficients h of H(t) = sum_a h[a] P_a on ``seq.params``, in
    TWO_QUBIT_LABELS order.  Only ZI, IZ, XX, XI and IX appear, all real, so
    H is a real symmetric matrix, which the integrators rely on."""
    p = seq.params
    ax1, ay1, ax2, ay2 = drive_amplitudes_at(seq, t, t)
    h = np.zeros(15)
    h[IDX["ZI"]] = 0.5 * p.w1z
    h[IDX["IZ"]] = 0.5 * p.w2z
    h[IDX["XX"]] = 0.5 * p.wxx
    h[IDX["XI"]] = float(ax1) * math.cos(p.w1z * t) + float(ay1) * math.sin(p.w1z * t)
    h[IDX["IX"]] = float(ax2) * math.cos(p.w2z * t) + float(ay2) * math.sin(p.w2z * t)
    return h
