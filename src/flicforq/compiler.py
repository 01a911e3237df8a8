"""Gate-to-pulse compilation for the fixed-coupling two-qubit device.

Gates are realized as resonant drive segments timed on the synchrony grid
t_m = m * 2*pi/delta.  One-qubit pi/2 rotations use quadrature amplitude
delta/8 over 4*pi/delta; the entangling pulses drive both qubits at
amplitude delta/2 for 4*pi/wxx, with an optional mid-pulse sign flip on
qubit 2 that refocuses the sigma-z sigma-z factor and leaves (X1X2)^(1/2).

Rotating-frame sign conventions (which physical quadrature produces a
rotation about +x vs -x, and which square root of X1X2 the refocused
pulse lands on) are not fixed by the drive magnitudes alone; they are
measured once per parameter set by ``calibrate`` and consumed by every
compile function.

The decoupling edits keep their result on ``seq.params`` and reject any
other device ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .integrator import StepPolicy, gate_unitary
from .model import PulseSegment, PulseSequence, SystemParams, check_device, on_sync_grid
from .pauli import PauliString, RotationWord, word_unitary

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
    "remove_decoupling",
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
    """Measured sign conventions for one parameter set.

    ``x_sign``/``y_sign``: a positive-amplitude pulse on that quadrature
    channel realizes P^(sign * theta/pi) for pulse area theta about the
    corresponding rotating-frame axis.  ``xx_sign``: the refocused
    two-qubit pulse realizes (X1X2)^(xx_sign/2).
    """

    x_sign: float
    y_sign: float
    xx_sign: float


_CAL_POLICY = StepPolicy(steps_per_period=800)


def _overlap(u: np.ndarray, v: np.ndarray) -> float:
    return abs(np.trace(u.conj().T @ v)) ** 2 / 16.0


def _axis_unitary(factor1: str, factor2: str, exponent: float) -> np.ndarray:
    axis = PauliString(1, factor1, factor2)
    return word_unitary(RotationWord(((axis, exponent),)))


@lru_cache(maxsize=None)
def calibrate(p: SystemParams) -> Calibration:
    """Measure the channel-to-axis sign map by probe simulation.

    One short pulse per quadrature channel is simulated against the
    propagator oracle and compared with both candidate rotations; the
    discrimination margin is large (>0.9 vs <0.1), so no frame alignment
    is needed.  Results are cached per parameter set.
    """
    dur = 4 * math.pi / p.delta
    signs = {}
    for axis in ("x", "y"):
        seg = PulseSegment(start=0.0, duration=dur, **{f"amp_{axis}_1": p.delta / 8})
        u = gate_unitary(PulseSequence(params=p, segments=(seg,)), _CAL_POLICY)
        plus = _overlap(u, _axis_unitary(axis.upper(), "I", 0.5))
        minus = _overlap(u, _axis_unitary(axis.upper(), "I", -0.5))
        signs[axis] = 1.0 if plus >= minus else -1.0
    if p.wxx > 0.0:
        u = gate_unitary(compile_xx_half(p, 0.0), _CAL_POLICY)
        plus = _overlap(u, _axis_unitary("X", "X", 0.5))
        minus = _overlap(u, _axis_unitary("X", "X", -0.5))
        xx_sign = 1.0 if plus >= minus else -1.0
    else:
        xx_sign = 1.0
    return Calibration(x_sign=signs["x"], y_sign=signs["y"], xx_sign=xx_sign)


def compile_one_qubit(
    p: SystemParams, qubit: int, axis: str, angle: float, start: float
) -> PulseSegment:
    """A resonant rotation of the given qubit by ``angle`` about x or y.

    Fixed duration 4*pi/delta; the rotation angle is set by the amplitude
    (angle/(pi/2)) * delta/8, signed per calibration.  Angles beyond pi/2
    must be composed from multiple segments.
    """
    if qubit not in (1, 2):
        raise ValueError("qubit must be 1 or 2")
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if abs(angle) > HALF_PI + _TOL:
        raise AngleOutOfRange(
            f"|angle| = {abs(angle):.6f} exceeds pi/2; compose multiple segments"
        )
    if not on_sync_grid(p, start):
        raise OffGridStart(f"start {start:.6f} is not on the 2*pi/delta grid")
    cal = calibrate(p)
    sign = cal.x_sign if axis == "x" else cal.y_sign
    amp = sign * (angle / HALF_PI) * p.delta / 8
    frac = angle / math.pi
    label = f"{axis.upper()}{qubit}^{frac:g}"
    return PulseSegment(
        start=start,
        duration=4 * math.pi / p.delta,
        label=label,
        **{f"amp_{axis}_{qubit}": amp},
    )


def compile_D(p: SystemParams, start: float = 0.0) -> PulseSequence:
    """The entangling D pulse: both qubits driven at amplitude delta/2 on
    the y channel for 4*pi/wxx, no refocusing flip."""
    if not on_sync_grid(p, start):
        raise OffGridStart(f"start {start:.6f} is not on the 2*pi/delta grid")
    seg = PulseSegment(
        start=start,
        duration=4 * math.pi / p.wxx,
        amp_y_1=p.delta / 2,
        amp_y_2=p.delta / 2,
        label="D",
    )
    return PulseSequence(params=p, segments=(seg,))


def compile_xx_half(p: SystemParams, start: float = 0.0) -> PulseSequence:
    """The refocused (X1X2)^(1/2) pulse: as compile_D, with qubit 2's
    drive sign flipped at the midpoint to undo the sigma-z sigma-z factor."""
    if not on_sync_grid(p, start):
        raise OffGridStart(f"start {start:.6f} is not on the 2*pi/delta grid")
    duration = 4 * math.pi / p.wxx
    seg = PulseSegment(
        start=start,
        duration=duration,
        amp_y_1=p.delta / 2,
        amp_y_2=p.delta / 2,
        flip_at=start + 0.5 * duration,
        flip_qubit=2,
        label="XX^1/2",
    )
    return PulseSequence(params=p, segments=(seg,))


def compile_cnot(p: SystemParams) -> PulseSequence:
    """CNOT (control qubit 1) from five primitive rotations.

    Intended word: X2^(1/2) Y1^(1/2) (X1X2)^(1/2) Y1^(-1/2) Z1^(1/2),
    scheduled sequentially with the two-qubit pulse on the sync grid and
    the trailing Z1^(1/2) as a virtual-z ledger entry.  When calibration
    finds the refocused pulse realizing (X1X2)^(-1/2), the surrounding
    Y1 pulse signs are swapped, which leaves the overall gate unchanged
    up to the aligned local z phases.
    """
    cal = calibrate(p)
    s = cal.xx_sign
    t2 = 4 * math.pi / p.delta
    t_xx = 4 * math.pi / p.wxx
    seg1 = compile_one_qubit(p, 2, "x", HALF_PI, 0.0)
    seg2 = compile_one_qubit(p, 1, "y", s * HALF_PI, t2)
    seg3 = compile_xx_half(p, 2 * t2).segments[0]
    seg4 = compile_one_qubit(p, 1, "y", -s * HALF_PI, 2 * t2 + t_xx)
    total = 3 * t2 + t_xx
    seq = PulseSequence(params=p, segments=(seg1, seg2, seg3, seg4))
    return seq.with_virtual_z(1, HALF_PI, total)


def _is_one_qubit(seg: PulseSegment) -> bool:
    return seg.drives_qubit(1) != seg.drives_qubit(2) and seg.flip_at is None


def insert_decoupling(p: SystemParams, seq: PulseSequence, index: int) -> PulseSequence:
    """Protect the idle qubit during a one-qubit pulse with an echo.

    The host segment is split in half; a pi pulse on the idle qubit
    (amplitude delta/4 over 4*pi/delta) goes between the halves and a
    second, sign-reversed pi pulse follows the second half, so the
    coupling-accrued rotation of the idle qubit refocuses while the echo
    pair composes to the identity on it.  Adds 2*(4*pi/delta) of time;
    everything after the host shifts accordingly.  Raises ValueError if
    ``p`` is not ``seq.params``.
    """
    check_device(p, seq)
    seg = seq.segments[index]
    if not _is_one_qubit(seg):
        raise NotOneQubitSegment(
            f"segment {index} does not drive exactly one qubit without a flip"
        )
    if seg.envelope.kind != "square":
        raise ValueError("decoupling requires a square host envelope")
    idle = 2 if seg.drives_qubit(1) else 1
    t_pi = 4 * math.pi / p.delta
    shift = 2 * t_pi
    half = 0.5 * seg.duration
    host_a = replace(seg, duration=half)
    host_b = replace(seg, start=seg.start + half + t_pi, duration=half)
    echo_a = PulseSegment(
        start=seg.start + half, duration=t_pi, label="echo",
        **{f"amp_x_{idle}": p.delta / 4},
    )
    echo_b = PulseSegment(
        start=seg.end + t_pi, duration=t_pi, label="echo",
        **{f"amp_x_{idle}": -p.delta / 4},
    )
    before = seq.segments[:index]
    after = tuple(
        replace(s, start=s.start + shift,
                flip_at=None if s.flip_at is None else s.flip_at + shift)
        for s in seq.segments[index + 1:]
    )
    vz = tuple(
        (q, a, t + shift if t >= seg.end - _TOL else t) for q, a, t in seq.virtual_z
    )
    return replace(seq, segments=before + (host_a, echo_a, host_b, echo_b) + after,
                   virtual_z=vz, total_time=seq.total_time + shift)


def remove_decoupling(p: SystemParams, seq: PulseSequence, index: int) -> PulseSequence:
    """Invert insert_decoupling; ``index`` addresses the first host half.
    Raises ValueError if ``p`` is not ``seq.params``."""
    check_device(p, seq)
    segs = seq.segments
    try:
        host_a, echo_a, host_b, echo_b = segs[index:index + 4]
    except ValueError as exc:
        raise ValueError("no echo group at this index") from exc
    if echo_a.label != "echo" or echo_b.label != "echo":
        raise ValueError("no echo group at this index")
    t_pi = 4 * math.pi / p.delta
    shift = 2 * t_pi
    merged = replace(host_a, duration=host_a.duration + host_b.duration)
    after = tuple(
        replace(s, start=s.start - shift,
                flip_at=None if s.flip_at is None else s.flip_at - shift)
        for s in segs[index + 4:]
    )
    vz = tuple(
        (q, a, t - shift if t >= echo_b.end - _TOL else t) for q, a, t in seq.virtual_z
    )
    return replace(seq, segments=segs[:index] + (merged,) + after,
                   virtual_z=vz, total_time=seq.total_time - shift)
