"""Metrics: reduced Bloch vectors, concurrence, fidelities, sideband
resonance arithmetic, and the one-qubit error budget.

Gate fidelities are computed up to local z phases (which are free in an
architecture with virtual z bookkeeping) and a global phase.  With
M = conj(U_ideal) * U_sim elementwise, the trace Tr(U_ideal^dag Zl U_sim Zr)
is the bilinear form zl . M . zr in the diagonals of the two z-phase
matrices, so the maximization over the four z phases is exact per
coordinate; it is iterated to convergence from all 16 starts of a 0/pi
grid at once, one start per row of a phase array.
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
    evolve,
    frame_unitary,
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
    "state_fidelity",
    "gate_fidelity",
    "compose_virtual_z",
    "sideband_check",
    "one_qubit_error_budget",
    "entanglement_flag",
    "report_to_json",
]

POSITIVITY_TOL = 1e-6


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


def state_fidelity(rho: DensityState, psi: np.ndarray) -> float:
    """<psi|rho|psi> for a normalized pure target."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("psi must be normalized")
    return float(np.real(np.vdot(psi, rho.to_matrix() @ psi)))


@dataclass
class FidelityReport:
    process: float
    per_state: dict[str, float]
    alignment: tuple[float, float, float, float]
    notes: list[str] = field(default_factory=list)


def _z_phases(phi1: float, phi2: float) -> np.ndarray:
    a = 0.5 * phi1
    b = 0.5 * phi2
    return np.exp(1j * np.array([a + b, a - b, -a + b, -a - b]))


# the 16 starts of the phase search, one per row: the 0/pi grid in (f1, f2, t1, t2)
_STARTS = np.array(list(itertools.product((0.0, math.pi), repeat=4)))
# the trace tensor contracted with the half-phase pairs of all phases but one
_ALL_BUT = ("abcd,sb,sc,sd->sa", "abcd,sa,sc,sd->sb", "abcd,sa,sb,sd->sc", "abcd,sa,sb,sc->sd")


def _half_phases(p: np.ndarray) -> np.ndarray:
    """(e^{i p/2}, e^{-i p/2}) along a new last axis."""
    return np.exp(0.5j * p[..., np.newaxis] * np.array([1.0, -1.0]))


def _align_phases(u_ideal: np.ndarray, u_sim: np.ndarray) -> tuple[np.ndarray, float]:
    """Maximize |Tr(Ui^dag Zl(f1,f2) Us Zr(t1,t2))|^2/16 over the z phases.

    With M = conj(Ui) * Us elementwise, the trace is the bilinear form
    zl . M . zr in the diagonals of Zl and Zr.  Each diagonal is the
    Kronecker product of one pair (e^{i p/2}, e^{-i p/2}) per qubit, so
    with M read as a tensor T[a,b,c,d] (row and column indices split into
    qubit 1 and qubit 2) the trace is T contracted with the four pairs.
    Contracting all pairs but the one of phase p leaves (A, B): the row
    (left phase) or column (right phase) contributions of the form summed
    over the half of the basis where that qubit is |0> and where it is
    |1>.  The trace is A e^{i p/2} + B e^{-i p/2}, whose modulus is
    maximized exactly at p = arg(B) - arg(A).  Coordinate sweeps in the
    order f1, f2, t1, t2 iterate this until a sweep changes the fidelity
    by less than 1e-12, or for 200 sweeps, from each of the 16 starts on
    the 0/pi grid, which escape the sign structure's local maxima.  The
    starts run together as the rows of one phase array, and a row stops
    moving once it has converged.  The first best start wins.  Its phases
    are returned wrapped into (-pi, pi]: a shift by 2 pi flips the sign of
    one z matrix, which changes the trace by a global phase only.
    """
    t = (u_ideal.conj() * u_sim).reshape(2, 2, 2, 2)
    ph = _STARTS.copy()
    pairs = [_half_phases(ph[:, k]) for k in range(4)]
    active = np.ones(len(ph), dtype=bool)
    prev = np.full(len(ph), -1.0)
    f = prev.copy()
    for _ in range(200):
        for k in range(4):
            a, b = np.einsum(_ALL_BUT[k], t, *pairs[:k], *pairs[k + 1:]).T
            move = active & (np.abs(a) > 1e-300) & (np.abs(b) > 1e-300)
            ph[move, k] = np.angle(b[move]) - np.angle(a[move])
            pairs[k] = _half_phases(ph[:, k])
        # the last contraction, closed with the new t2, is the trace
        trace = a * pairs[3][:, 0] + b * pairs[3][:, 1]
        f = np.where(active, np.abs(trace) ** 2 / 16.0, f)
        active &= ~(np.abs(f - prev) < 1e-12)
        if not active.any():
            break
        prev = f
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
    with np.errstate(invalid="ignore"):  # inf entries give a nan defect
        defect = float(np.max(np.abs(u_sim @ u_sim.conj().T - np.eye(4))))
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


def compose_virtual_z(u: np.ndarray, seq: PulseSequence) -> np.ndarray:
    """Apply the sequence's virtual-z ledger entries, exp(i*angle*Zq/2)
    each, after the physical propagator."""
    out = np.asarray(u, dtype=complex)
    for qubit, angle, _t in seq.virtual_z:
        phases = _z_phases(angle if qubit == 1 else 0.0, angle if qubit == 2 else 0.0)
        out = phases[:, np.newaxis] * out
    return out


def sideband_check(
    p: SystemParams, amp_y1: float, amp_y2: float, tol: float = 1e-9
) -> dict:
    """Dressed-state sideband frequencies and the resonance-gap condition
    (w1z - w1y) = (w2z + w2y) under which the qubits exchange energy."""
    if amp_y1 < 0 or amp_y2 < 0:
        raise ValueError("amplitudes must be non-negative")
    gap = (p.w1z - amp_y1) - (p.w2z + amp_y2)
    return {
        "qubit1_sidebands": [p.w1z - amp_y1, p.w1z + amp_y1],
        "qubit2_sidebands": [p.w2z - amp_y2, p.w2z + amp_y2],
        "gap": gap,
        "resonant": abs(gap) <= tol,
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


def entanglement_flag(rho: DensityState, tol: float) -> bool:
    """True when both reduced Bloch vectors vanish within tol while the
    state stays (nearly) pure — the signature of full entanglement."""
    if np.linalg.norm(reduced_bloch(rho, 1)) > tol:
        return False
    if np.linalg.norm(reduced_bloch(rho, 2)) > tol:
        return False
    return rho.purity >= 1.0 - 2.0 * tol


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
