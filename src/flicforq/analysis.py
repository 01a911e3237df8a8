"""Metrics: reduced Bloch vectors, concurrence, gate fidelities, sideband
resonance arithmetic, and the one-qubit error budget.

Gate fidelities are computed up to local z phases (which are free in an
architecture with virtual z bookkeeping) and a global phase.  With
M = conj(U_ideal) * U_sim elementwise, the trace Tr(U_ideal^dag Zl U_sim Zr)
is the sum of the 16 entries of M, each turned by a fixed +-1 combination
of the four half-phases.  Its modulus is maximized from the 8 starts of a
0/pi grid at once, one start per row of a phase array.  Each iteration
maximizes it exactly along each phase in turn, then takes one damped
Newton step on all four.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .compiler import compile_one_qubit, insert_decoupling
from .integrator import (
    DensityState,
    StepPolicy,
    _Z_SIGNS,
    _unitarity_defect,
    _z_phases,
    compose_virtual_z,
    evolve,
    to_rotating_frame,
)
from .model import PulseSequence, SystemParams
from .pauli import RotationWord, word_unitary

__all__ = [
    "NegativeEigenvalue",
    "NotUnitary",
    "FidelityReport",
    "reduced_bloch",
    "concurrence",
    "gate_fidelity",
    "compose_virtual_z",
    "sideband_check",
    "one_qubit_error_budget",
    "report_to_json",
]

POSITIVITY_TOL = 1e-6
_RESONANCE_TOL = 1e-9  # a sideband gap at most this large counts as resonant


class NegativeEigenvalue(ValueError):
    pass


class NotUnitary(ValueError):
    pass


def reduced_bloch(rho: DensityState, qubit: int) -> np.ndarray:
    """Bloch vector of the reduced density operator of one qubit; read
    directly off the single-qubit Pauli coefficients."""
    if qubit == 1:
        return np.array(rho.c[0:3])
    if qubit == 2:
        return np.array(rho.c[3:6])
    raise ValueError("qubit must be 1 or 2")


_YY = np.array(
    [[0, 0, 0, -1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [-1, 0, 0, 0]], dtype=complex)


def concurrence(rho: DensityState) -> float:
    """Wootters concurrence of the two-qubit state."""
    if rho.min_eigenvalue() < -POSITIVITY_TOL:
        raise NegativeEigenvalue(
            f"min eigenvalue {rho.min_eigenvalue():.3e} below -{POSITIVITY_TOL}"
        )
    m = rho.to_matrix()
    r = m @ _YY @ m.conj() @ _YY
    lam = np.sort(np.linalg.eigvals(r).real)[::-1]
    lam = np.sqrt(np.clip(lam, 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


@dataclass
class FidelityReport:
    process: float
    per_state: dict[str, float]
    alignment: tuple[float, float, float, float]
    notes: list[str] = field(default_factory=list)


# The sign of each half-phase (f1, f2, t1, t2) on entry 4i + j of M: + where
# qubit 1 (f1, t1) or qubit 2 (f2, t2) is |0> in the row i (left phases) or
# in the column j (right phases), - where it is |1>.
_SIGNS = np.hstack([np.repeat(_Z_SIGNS, 4, axis=0), np.tile(_Z_SIGNS, (4, 1))])
# S_k S_l per entry, so that sum_m E_m S_mk S_ml = (E @ _SIGN_PAIRS)[4k + l]
_SIGN_PAIRS = (_SIGNS[:, :, np.newaxis] * _SIGNS[:, np.newaxis, :]).reshape(16, 16)
# per phase, the entries where its sign is + (first column) and - (second)
_HALVES = (_SIGNS.T[:, :, np.newaxis] == np.array([1.0, -1.0])).astype(complex)
# The starts, one per row: f1 = 0 and the 0/pi grid in (f2, t1, t2).  The
# first update sets f1 without reading it, so f1 = pi would repeat each row.
_STARTS = np.array([(0.0,) + s for s in itertools.product((0.0, math.pi), repeat=3)])
_TRIALS = np.array([1.0, 0.5, 0.25, 0.125])  # fractions of the Newton step tried
_MAX_ITER = 50
_SHIFT_FLOOR = 1e-12  # least shift of the Newton matrix, whose entries reach ~16
_DECREMENT_TOL = 1e-13  # a row has converged when its Newton decrement is below
_RISE_TOL = 1e-15  # this and its last iteration raised f by less than this
_EYE4 = np.eye(4)
# the leading 1x1, 2x2, 3x3 and 4x4 blocks, padded by the identity
_LEADING = np.array([np.maximum.outer(np.arange(4), np.arange(4)) <= n for n in range(4)])


def _shifted_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (a_r + mu_r I) x_r = b_r for each row r, a_r = -Hessian.

    Where a_r + floor I is positive definite (all leading minors positive),
    mu_r is the floor and x_r is the Newton step.  Elsewhere mu_r also
    lifts every Gershgorin disc of a_r to the right of zero, so
    a_r + mu_r I is positive definite and x_r still points uphill.
    """
    a = a + _SHIFT_FLOOR * _EYE4
    definite = np.all(np.linalg.det(np.where(_LEADING, a[:, np.newaxis], _EYE4)) > 0, axis=1)
    margin = np.min(2.0 * np.diagonal(a, axis1=1, axis2=2) - np.abs(a).sum(2), axis=1)
    mu = np.where(definite, 0.0, _SHIFT_FLOOR - np.minimum(margin, 0.0))
    return np.linalg.solve(a + mu[:, np.newaxis, np.newaxis] * _EYE4, b[..., np.newaxis])[..., 0]


def _align_phases(u_ideal: np.ndarray, u_sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize f = |Tr(Ui^dag Zl(f1,f2) Us Zr(t1,t2))|^2/16 over the z phases.

    With M = conj(Ui) * Us elementwise, flattened, and a row th of phases
    (f1, f2, t1, t2), the trace is E.sum() for E = M * exp(i/2 th S^T),
    S the fixed 16x4 sign matrix _SIGNS.  Its gradient in th is
    (i/2) E S and its Hessian -(1/4) E (S (x) S); those of f follow.

    Each iteration first sweeps the phases in the order f1, f2, t1, t2.
    Along one phase p the trace is A e^{i p/2} + B e^{-i p/2}, A and B the
    sums of E (taken at p = 0) over the entries where the sign of p is +
    and -, so its modulus is largest at p = arg(B) - arg(A): a step of
    arg(sum_- E) - arg(sum_+ E), applied to E by a phase factor.  The sweep
    moves the rows off the flat zero-trace regions around the grid starts.
    Then one Newton step on all four phases (_shifted_solve) is tried at
    full, half, quarter and eighth length, and a row takes the best of
    these unless it is lower than the sweep left it.  A row stops once its
    Newton decrement is below 1e-13 and its last iteration raised f by
    less than 1e-15, or after 50 iterations.  The first best start wins.
    Its phases are returned wrapped into (-pi, pi]: a shift by 2 pi flips
    the sign of one z matrix, which changes the trace by a global phase
    only.
    """
    m = (u_ideal.conj() * u_sim).ravel()
    ph = _STARTS.copy()
    e = m * np.exp(0.5j * (ph @ _SIGNS.T))
    f = np.abs(e.sum(1)) ** 2 / 16.0
    rows = np.arange(len(ph))
    active = np.ones(len(ph), dtype=bool)
    for _ in range(_MAX_ITER):
        f_prev = f
        for k in range(4):
            plus, minus = (e @ _HALVES[k]).T
            step = np.where(active, np.angle(minus * plus.conj()), 0.0)
            ph[:, k] += step
            e *= np.exp(0.5j * step[:, np.newaxis] * _SIGNS[:, k])
        # 32 times the gradient of f and minus its Hessian; the factor
        # cancels in the Newton step
        trace = e.sum(1)
        es = e @ _SIGNS
        grad = -2.0 * (trace.conj()[:, np.newaxis] * es).imag
        neg_hess = ((trace.conj()[:, np.newaxis] * (e @ _SIGN_PAIRS)).real.reshape(-1, 4, 4)
                    - (es.conj()[:, :, np.newaxis] * es[:, np.newaxis, :]).real)
        delta = np.where(active[:, np.newaxis], _shifted_solve(neg_hess, grad), 0.0)
        decrement = np.einsum("rk,rk->r", grad, delta) / 32.0
        trial = ph[:, np.newaxis, :] + _TRIALS[:, np.newaxis] * delta[:, np.newaxis, :]
        e_trial = m * np.exp(0.5j * (trial @ _SIGNS.T))
        f_trial = np.abs(e_trial.sum(2)) ** 2 / 16.0
        pick = np.argmax(f_trial, axis=1)
        f_newton = f_trial[rows, pick]
        f_sweep = np.abs(trace) ** 2 / 16.0
        take = f_newton >= f_sweep
        ph = np.where(take[:, np.newaxis], trial[rows, pick], ph)
        e = np.where(take[:, np.newaxis], e_trial[rows, pick], e)
        f = np.where(active, np.maximum(f_newton, f_sweep), f_prev)
        active &= ~((decrement < _DECREMENT_TOL) & (f - f_prev < _RISE_TOL))
        if not active.any():
            break
    best = int(np.argmax(f))
    wrapped = np.pi - np.mod(np.pi - ph[best], 2.0 * np.pi)  # in [-pi, pi]
    return np.where(wrapped <= -np.pi, np.pi, wrapped), float(f[best])


def gate_fidelity(
    u_sim: np.ndarray, word: RotationWord, align_local_z: bool = True
) -> FidelityReport:
    """Process and per-basis-state fidelity of a simulated unitary against
    the ideal rotation word, quotienting global phase and (optionally)
    local z phases on both sides."""
    u_sim = np.asarray(u_sim, dtype=complex)
    defect = _unitarity_defect(u_sim)
    if not defect <= 1e-6:  # also rejects nan
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds 1e-6")
    u_ideal = word_unitary(word)
    if align_local_z:
        ph, process = _align_phases(u_ideal, u_sim)
    else:
        ph = np.zeros(4)
        process = abs(np.trace(u_ideal.conj().T @ u_sim)) ** 2 / 16.0
    zl = np.diag(_z_phases(ph[0], ph[1]))
    zr = np.diag(_z_phases(ph[2], ph[3]))
    u_adj = zl @ u_sim @ zr
    per_state = {}
    for b, key in enumerate(("00", "01", "10", "11")):
        e = np.zeros(4, dtype=complex)
        e[b] = 1.0
        per_state[key] = float(abs(np.vdot(u_ideal @ e, u_adj @ e)) ** 2)
    notes = [
        f"alignment {'on' if align_local_z else 'off'}; "
        f"residual process infidelity {1.0 - process:.3e}"
    ]
    return FidelityReport(
        process=float(process),
        per_state=per_state,
        alignment=tuple(float(x) for x in ph),
        notes=notes,
    )


def sideband_check(p: SystemParams, amp_y1: float, amp_y2: float) -> dict:
    """Dressed-state sideband frequencies and the resonance-gap condition
    (w1z - w1y) = (w2z + w2y) under which the qubits exchange energy."""
    if not (0 <= amp_y1 < math.inf and 0 <= amp_y2 < math.inf):  # nan fails too
        raise ValueError("amplitudes must be finite and non-negative")
    gap = (p.w1z - amp_y1) - (p.w2z + amp_y2)
    return {
        "qubit1_sidebands": [p.w1z - amp_y1, p.w1z + amp_y1],
        "qubit2_sidebands": [p.w2z - amp_y2, p.w2z + amp_y2],
        "gap": gap,
        "resonant": abs(gap) <= _RESONANCE_TOL,
    }


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def one_qubit_error_budget(
    p: SystemParams, echo: bool = False, policy: StepPolicy | None = None
) -> dict:
    """Simulated error of a pi/2 one-qubit gate with the coupling on.

    Reports, worst case over the spectator prepared in |0> and |+>:
    the target qubit's reduced-state infidelity against the ideal
    rotation, and the spectator's parasitic deviation from staying put
    (the error the decoupling echo addresses).  The closed-form
    parasitic-angle expression arccos(wxx * 4*pi/delta) is reported
    verbatim where defined and null where its argument exceeds 1.
    """
    policy = policy or StepPolicy()
    seg = compile_one_qubit(p, 1, "y", math.pi / 2, 0.0)
    seq = PulseSequence(params=p, segments=(seg,))
    if echo:
        seq = insert_decoupling(p, seq, 0)
    y90 = math.cos(math.pi / 4) * np.eye(2) + 1j * math.sin(math.pi / 4) * np.array(
        [[0, -1j], [1j, 0]]
    )
    target1 = y90 @ _KET0
    per_spectator = {}
    for key, spec in (("0", _KET0), ("+", _KET_PLUS)):
        psi0 = np.kron(_KET0, spec)
        traj = evolve(p, seq, DensityState.from_ket(psi0), policy)
        rot = to_rotating_frame(traj.final, p, t=float(traj.times[-1]))
        rho = rot.to_matrix()
        rho1 = np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        rho2 = np.trace(rho.reshape(2, 2, 2, 2), axis1=0, axis2=2)
        per_spectator[key] = {
            "target_infidelity": float(1.0 - np.real(np.vdot(target1, rho1 @ target1))),
            "spectator_infidelity": float(1.0 - np.real(np.vdot(spec, rho2 @ spec))),
        }
    arg = p.wxx * 4 * math.pi / p.delta
    formula = math.acos(arg) if abs(arg) <= 1.0 else None
    return {
        "parasitic_angle_formula": formula,
        "target_infidelity": max(v["target_infidelity"] for v in per_spectator.values()),
        "spectator_infidelity": max(
            v["spectator_infidelity"] for v in per_spectator.values()
        ),
        "per_spectator": per_spectator,
        "echo": echo,
        "gate_time": seq.total_time,
    }


def report_to_json(report: FidelityReport) -> str:
    return json.dumps(
        {
            "per_state": report.per_state,
            "process": report.process,
            "alignment": list(report.alignment),
            "notes": report.notes,
        },
        indent=2,
    )
