"""Host speed: a fixed reference kernel, timed next to every timed op.

The benchmark's host is a share of a machine whose single-core speed
moves by up to 2x within seconds, as other tenants come and go; raw wall
times of the same code then spread far past any useful bound.  So each
timed op (and each set-up) is bracketed by two runs of a reference kernel
that belongs to the benchmark, and its wall time is rescaled by how much
slower than nominal those two runs were:

    adjusted = wall * REF_S / mean(reference before, reference after)

The kernel is the shape of the integrator's inner loop as the package
first shipped it (fixed-step RK4 on a 4x4 complex propagator, one Python
iteration per step, small numpy products), on its own data, so it slows
down in the same way the program does.  It never calls the package: a
change to the program cannot change the reference.  REF_S is the kernel's
wall time at full speed on the reference host (2 vCPUs of a shared x86-64
machine, Python 3.11, numpy 2.4), so adjusted times read as seconds on that
host when nothing else runs on it.
"""

from __future__ import annotations

import time

import numpy as np

REF_STEPS = 2000
REF_S = 0.060

_H = 0.01
_HD = np.diag([1.1, 0.4, -0.4, -1.1]).astype(complex)
_X1 = (np.eye(4, k=2) + np.eye(4, k=-2)).astype(complex)
_X2 = (np.eye(4, k=1) + np.eye(4, k=-1)).astype(complex)
_GRID = 0.5 * _H * np.arange(2 * REF_STEPS + 1)
_U1 = (0.03 * np.cos(_GRID)).astype(complex)
_U2 = (0.03 * np.sin(_GRID)).astype(complex)


def _kernel(u, n):
    h = _H
    for i in range(n):
        j = 2 * i
        fa = _HD + _U1[j] * _X1 + _U2[j] * _X2
        fm = _HD + _U1[j + 1] * _X1 + _U2[j + 1] * _X2
        fb = _HD + _U1[j + 2] * _X1 + _U2[j + 2] * _X2
        k1 = -1j * (fa @ u)
        k2 = -1j * (fm @ (u + 0.5 * h * k1))
        k3 = -1j * (fm @ (u + 0.5 * h * k2))
        k4 = -1j * (fb @ (u + h * k3))
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t = time.perf_counter()
    _kernel(np.eye(4, dtype=complex), REF_STEPS)
    return time.perf_counter() - t


def adjusted(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` rescaled to the host at full speed (see the module doc)."""
    return wall * REF_S / (0.5 * (ref_before + ref_after))
