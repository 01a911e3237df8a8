"""Gate-to-pulse compilation for the fixed-coupling two-qubit device.

Gates are realized as resonant drive segments timed on the synchrony grid
t_m = m * 2*pi/delta.  One rotation rule makes every one-qubit pulse, the
decoupling echoes included: a rotation by theta is quadrature amplitude
(theta/(pi/2)) * delta/8 over 4*pi/delta.  The entangling pulses drive both
qubits at amplitude delta/2 for 4*pi/wxx, with an optional mid-pulse sign
flip on qubit 2 that refocuses the sigma-z sigma-z factor and leaves a
square root of X1X2.

Which quadrature turns a qubit about +x rather than -x, and which square
root of X1X2 the refocused pulse lands on, follow from the lab-frame
Hamiltonian and the rotating frame alone; ``calibrate`` returns these
signs with their derivation, and every compile function reads them from
it.  Nothing here integrates: simulation only checks compiled gates.

The decoupling echo keeps its result on ``seq.params`` and rejects any
other device ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .model import (PulseSegment, PulseSequence, SystemParams, _require_qubit, check_device,
                    on_sync_grid)

__all__ = [
    "AngleOutOfRange",
    "OffGridStart",
    "NotOneQubitSegment",
    "Calibration",
    "calibrate",
    "compile_one_qubit",
    "compile_D",
    "compile_xx_half",
    "compile_cnot",
    "insert_decoupling",
]

HALF_PI = math.pi / 2
_TOL = 1e-12


class AngleOutOfRange(ValueError):
    pass


class OffGridStart(ValueError):
    pass


class NotOneQubitSegment(ValueError):
    pass


@dataclass(frozen=True)
class Calibration:
    """The channel-to-axis sign map of the model.

    ``x_sign``/``y_sign``: a pulse of amplitude sign * (theta/(pi/2)) *
    delta/8 over 4*pi/delta on that quadrature channel realizes
    P^(theta/pi), P the corresponding Pauli on the driven qubit.
    ``xx_sign``: the refocused two-qubit pulse realizes (X1X2)^(xx_sign/2).
    (P^a is exp(i*a*pi*P/2), as in ``pauli``.)
    """

    x_sign: float
    y_sign: float
    xx_sign: float


@lru_cache(maxsize=None)
def calibrate(p: SystemParams) -> Calibration:
    """The sign map on device ``p``: (x, y, xx) = (-1, +1, -1) on every device.

    In the frame V = exp(i*t*(w1z*Z1 + w2z*Z2)/2), V X V^dagger =
    X cos(wz t) - Y sin(wz t), so a qubit's drive term
    (ax cos(wz t) + ay sin(wz t)) X has the secular part (ax X - ay Y)/2.
    Over 4*pi/delta, amplitude s*(theta/(pi/2))*delta/8 on x turns the qubit
    by exp(-i*s*theta*X/2) = X^(-s*theta/pi), and on y by Y^(+s*theta/pi):
    x_sign = -1 and y_sign = +1.

    The coupling (wxx/2) X1X2 has the secular part
    (wxx/4)[(X1X2 + Y1Y2) cos(delta t) + (X1Y2 - Y1X2) sin(delta t)].  In the
    frame of the y drive at amplitude delta/2, which turns each qubit about
    -y by phi = delta t/2, its average over one drive period is
    (wxx/16)(X1X2 - Z1Z2), and (wxx/16)(X1X2 + Z1Z2) once qubit 2's drive
    is flipped.  Each half of the refocused pulse lasts 2*pi/wxx; when
    delta/wxx is an integer the flip falls on the t0_sync grid, where the
    carriers and the drive frame are back at their start up to sign, and
    the halves compose to exp(-i*pi*X1X2/4) = (X1X2)^(-1/2): xx_sign = -1.
    Off that grid neither root is realized (``validate_sequence`` warns),
    and compile_cnot uses the same sign.  An uncoupled device has no XX
    pulse, and the sign goes unused there.

    The signs depend on no device parameter; results are cached per
    parameter set.
    """
    return Calibration(x_sign=-1.0, y_sign=1.0, xx_sign=-1.0)


def _rotation(p: SystemParams, qubit: int, axis: str, angle: float, start: float,
              label: str) -> PulseSegment:
    """The rotation rule: qubit ``qubit`` turned by ``angle`` about ``axis``
    with amplitude sign * (angle/(pi/2)) * delta/8 over 2*t0_sync = 4*pi/delta,
    the sign read from ``calibrate``."""
    cal = calibrate(p)
    sign = cal.x_sign if axis == "x" else cal.y_sign
    return PulseSegment(start=start, duration=2 * p.t0_sync, label=label,
                        **{f"amp_{axis}_{qubit}": sign * (angle / HALF_PI) * p.delta / 8})


def compile_one_qubit(
    p: SystemParams, qubit: int, axis: str, angle: float, start: float
) -> PulseSegment:
    """A resonant rotation of qubit 1 or 2 (an integer, else ValueError) by
    ``angle`` about x or y, made by the rotation rule every one-qubit pulse
    shares: fixed duration 2*t0_sync = 4*pi/delta, the angle set by the
    amplitude (angle/(pi/2)) * delta/8, signed per calibration.  Angles
    beyond pi/2 must be composed from multiple segments.
    """
    _require_qubit("qubit", qubit)
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if abs(angle) > HALF_PI + _TOL:
        raise AngleOutOfRange(
            f"|angle| = {abs(angle):.6f} exceeds pi/2; compose multiple segments"
        )
    if not on_sync_grid(p, start):
        raise OffGridStart(f"start {start:.6f} is not on the 2*pi/delta grid")
    return _rotation(p, qubit, axis, angle, start, f"{axis.upper()}{qubit}^{angle / math.pi:g}")


def compile_D(p: SystemParams, start: float = 0.0) -> PulseSequence:
    """The entangling D pulse: both qubits driven at amplitude delta/2 on
    the y channel for 4*pi/wxx, no refocusing flip.  Raises ValueError on
    an uncoupled device (wxx = 0), where no pulse length entangles."""
    if p.wxx == 0.0:
        raise ValueError("wxx = 0: an uncoupled device has no entangling pulse")
    if not on_sync_grid(p, start):
        raise OffGridStart(f"start {start:.6f} is not on the 2*pi/delta grid")
    seg = PulseSegment(
        start=start,
        duration=2 * p.t_swap,
        amp_y_1=p.delta / 2,
        amp_y_2=p.delta / 2,
        label="D",
    )
    return PulseSequence(params=p, segments=(seg,))


def compile_xx_half(p: SystemParams, start: float = 0.0) -> PulseSequence:
    """The refocused (X1X2)^(1/2) pulse: as compile_D, with qubit 2's
    drive sign flipped at the midpoint to undo the sigma-z sigma-z factor."""
    seq = compile_D(p, start)
    seg = seq.segments[0]
    return replace(seq, segments=(replace(seg, flip_at=start + 0.5 * seg.duration, flip_qubit=2,
                                          label="XX^1/2"),))


def compile_cnot(p: SystemParams) -> PulseSequence:
    """CNOT (control qubit 1) from five primitive rotations.

    Intended word: X2^(1/2) Y1^(1/2) (X1X2)^(1/2) Y1^(-1/2) Z1^(1/2),
    scheduled sequentially with the two-qubit pulse on the sync grid and
    the trailing Z1^(1/2) as a virtual-z ledger entry.  The refocused
    pulse realizes (X1X2)^(xx_sign/2) (see ``calibrate``); with xx_sign =
    -1 the surrounding Y1 pulse signs are swapped, which leaves the overall
    gate unchanged up to the aligned local z phases.
    """
    s = calibrate(p).xx_sign
    seg1 = compile_one_qubit(p, 2, "x", HALF_PI, 0.0)
    seg2 = compile_one_qubit(p, 1, "y", s * HALF_PI, seg1.end)
    seg3 = compile_xx_half(p, seg2.end).segments[0]
    seg4 = compile_one_qubit(p, 1, "y", -s * HALF_PI, seg3.end)
    return PulseSequence(params=p, segments=(seg1, seg2, seg3, seg4)).with_virtual_z(1, HALF_PI)


def _is_one_qubit(seg: PulseSegment) -> bool:
    return seg.drives_qubit(1) != seg.drives_qubit(2) and seg.flip_at is None


def insert_decoupling(p: SystemParams, seq: PulseSequence, index: int) -> PulseSequence:
    """Protect the idle qubit during a one-qubit pulse with an echo.

    The host segment is split in half; a pi rotation of the idle qubit about
    x, made by the rotation rule of ``compile_one_qubit``, goes between the
    halves and a -pi rotation follows the second half, so the
    coupling-accrued rotation of the idle qubit refocuses while the echo
    pair composes to the identity on it.  Adds two echo lengths of time;
    everything after the host shifts accordingly.  Raises ValueError if
    ``p`` is not ``seq.params``, ``index`` is not an integer (a bool is
    not) or the host is ramped, and IndexError if ``index`` names no
    segment.
    """
    check_device(p, seq)
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise ValueError(f"segment index must be an integer, got {index!r}")
    if not 0 <= index < len(seq.segments):
        raise IndexError(f"segment index {index} is outside 0 .. {len(seq.segments) - 1}")
    seg = seq.segments[index]
    if not _is_one_qubit(seg):
        raise NotOneQubitSegment(
            f"segment {index} does not drive exactly one qubit without a flip"
        )
    if seg.envelope.rise > 0.0:
        raise ValueError("decoupling requires a square host envelope")
    idle = 2 if seg.drives_qubit(1) else 1
    half = 0.5 * seg.duration
    echo_a = _rotation(p, idle, "x", -math.pi, seg.start + half, "echo")
    host_a = replace(seg, duration=half)
    host_b = replace(seg, start=echo_a.end, duration=half)
    echo_b = _rotation(p, idle, "x", math.pi, seg.end + echo_a.duration, "echo")
    shift = 2 * echo_a.duration
    after = tuple(replace(s, start=s.start + shift,
                          flip_at=None if s.flip_at is None else s.flip_at + shift)
                  for s in seq.segments[index + 1:])
    return replace(seq, segments=seq.segments[:index] + (host_a, echo_a, host_b, echo_b) + after,
                   total_time=seq.total_time + shift)
