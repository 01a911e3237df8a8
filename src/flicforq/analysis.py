"""Metrics: reduced Bloch vectors, concurrence, gate fidelities, sideband
resonance arithmetic, and the one-qubit error budget.

Gate fidelities are computed up to local z phases (free with virtual z
bookkeeping) and a global phase.  With M = conj(U_ideal) * U_sim
elementwise, Tr(U_ideal^dag Zl U_sim Zr) is the sum of the aligned entries
E, each entry of M turned by a fixed +-1 combination of the four
half-phases.  Its modulus is maximized from the 8 best points of a pi/4
grid, ranked with the first phase set in closed form, by full Newton steps
on all four phases.  The process fidelity |sum E|^2/16 and each basis
state's, the squared column sum of E, are read off E at the maximum.
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
    _STATE_TOL,
    _UNITARITY_BOUND,
    _Z_SIGNS,
    _running_propagators,
    _trajectory,
    _unitarity_defect,
    compose_virtual_z,
    to_rotating_frame,
)
from .model import PulseSequence, SystemParams, _require_qubit
from .pauli import PauliString, RotationWord, word_unitary

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

_RESONANCE_TOL = 1e-9  # a sideband gap at most this large counts as resonant


class NegativeEigenvalue(ValueError):
    pass


class NotUnitary(ValueError):
    pass


def reduced_bloch(rho: DensityState, qubit: int) -> np.ndarray:
    """Reduced Bloch vector of qubit 1 or 2 (an integer, else ValueError),
    read directly off its single-qubit Pauli coefficients."""
    _require_qubit("qubit", qubit)
    return np.array(rho.c[3 * qubit - 3:3 * qubit])


_YY = PauliString(1, "Y", "Y").matrix()


def concurrence(rho: DensityState) -> float:
    """Wootters concurrence of the two-qubit state.  One eigendecomposition
    rho = V diag(p) V^dagger checks positivity to _STATE_TOL and factors
    rho = W W^dagger, W = V diag(sqrt p); Wootters' lambdas are then the
    singular values of W^T (Y Y) W, with no square root of rounding noise."""
    p, v = np.linalg.eigh(rho.to_matrix())
    if p[0] < -_STATE_TOL:
        raise NegativeEigenvalue(f"min eigenvalue {p[0]:.3e} below -{_STATE_TOL:g}")
    w = v * np.sqrt(np.clip(p, 0.0, None))
    lam = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
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
# [S | S (x) S], so that sum_m E_m S_mk = (E @ _SIGN_SUMS)[k] and
# sum_m E_m S_mk S_ml = (E @ _SIGN_SUMS)[4 + 4k + l]
_SIGN_SUMS = np.hstack([_SIGNS, np.einsum("mk,ml->mkl", _SIGNS, _SIGNS).reshape(16, 16)])
# the entries where the sign of f1 is + (first column) and - (second)
_F1_HALVES = (_SIGNS[:, :1] == np.array([1.0, -1.0])).astype(complex)
# the pi/4 grid in (f2, t1, t2) with f1 = 0, and its per-entry phase factors
_GRID = np.array([(0.0,) + s for s in itertools.product(np.arange(8) * (math.pi / 4), repeat=3)])
_GRID_FACTORS = np.exp(0.5j * (_GRID @ _SIGNS.T))
_N_STARTS = 8  # grid points iterated, the best first
_MAX_ITER = 50
_SHIFT_FLOOR = 1e-12  # shift of the Newton matrix, whose entries reach ~16
_DECREMENT_TOL = 1e-13  # a row has converged when its Newton decrement is below
_RISE_TOL = 1e-15  # this and its last step raised f by less than this


def _align_phases(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The z phases that maximize f = |Tr(Ui^dag Zl(f1,f2) Us Zr(t1,t2))|^2/16,
    and the aligned entries E at them, 4x4 like m = conj(Ui) * Us.

    With M = m flattened and a row th of phases (f1, f2, t1, t2), the trace
    is E.sum() for E = M * exp(i/2 th S^T), S the fixed 16x4 sign matrix
    _SIGNS, so f = |E.sum()|^2/16.  Its gradient in th is (i/2) E S and its
    Hessian -(1/4) E (S (x) S); one product E @ [S | S (x) S] gives both.

    The starts are ranked on the pi/4 grid in (f2, t1, t2).  Along f1 the
    trace is A e^{i f1/2} + B e^{-i f1/2}, A and B the sums of E (at
    f1 = 0) over the entries where the sign of f1 is + and -, so its
    largest modulus is |A| + |B|, at f1 = arg(B) - arg(A).  The 8 grid
    points with the largest |A| + |B| (ties in grid order) become the rows,
    each with that f1.  Every iteration takes one full Newton step on all
    four phases, solved with the Newton matrix shifted by 1e-12, where it
    does not lower f.  A row stops once a step would lower f, once its
    Newton decrement is below 1e-13 and its last step raised f by less
    than 1e-15, or after 50 iterations.  The first best row wins.  Its
    phases are returned wrapped into (-pi, pi]: a shift by 2 pi flips the
    sign of one z matrix, which changes the trace by a global phase only.
    """
    m = m.ravel()
    grid = m * _GRID_FACTORS
    halves = grid @ _F1_HALVES
    top = np.argsort(-np.abs(halves).sum(1), kind="stable")[:_N_STARTS]
    a, b = halves[top].T
    ph = _GRID[top]  # fancy indexing copies
    ph[:, 0] = np.angle(b) - np.angle(a)
    e = grid[top] * np.exp(0.5j * ph[:, :1] * _SIGNS[:, 0])
    f = np.abs(e.sum(1)) ** 2 / 16.0
    active = np.ones(len(ph), dtype=bool)
    for _ in range(_MAX_ITER):
        # 32 times the gradient of f and minus its Hessian; the factor
        # cancels in the Newton step
        conj_trace = e.sum(1).conj()[:, np.newaxis]
        sums = e @ _SIGN_SUMS
        es = sums[:, :4]
        grad = -2.0 * (conj_trace * es).imag
        neg_hess = ((conj_trace * sums[:, 4:]).real.reshape(-1, 4, 4)
                    - (es.conj()[:, :, np.newaxis] * es[:, np.newaxis, :]).real)
        delta = np.linalg.solve(neg_hess + _SHIFT_FLOOR * np.eye(4), grad[..., np.newaxis])[..., 0]
        decrement = np.einsum("rk,rk->r", grad, delta) / 32.0
        ph_trial = ph + delta
        e_trial = m * np.exp(0.5j * (ph_trial @ _SIGNS.T))
        f_trial = np.abs(e_trial.sum(1)) ** 2 / 16.0
        take = active & (f_trial >= f)
        converged = (decrement < _DECREMENT_TOL) & (f_trial - f < _RISE_TOL)
        ph[take], e[take], f[take] = ph_trial[take], e_trial[take], f_trial[take]
        active = take & ~converged
        if not active.any():
            break
    best = int(np.argmax(f))
    wrapped = np.pi - np.mod(np.pi - ph[best], 2.0 * np.pi)  # in [-pi, pi]
    return np.where(wrapped <= -np.pi, np.pi, wrapped), e[best].reshape(4, 4)


def gate_fidelity(
    u_sim: np.ndarray, word: RotationWord, align_local_z: bool = True
) -> FidelityReport:
    """Process and per-basis-state fidelity of a simulated unitary against
    the ideal rotation word, quotienting global phase and (optionally)
    local z phases on both sides.  Both are read off the aligned entries
    E = conj(U_ideal) * Zl U_sim Zr (E = conj(U_ideal) * U_sim unaligned):
    the process fidelity is |sum E|^2/16 and basis state b's is
    |<U_ideal e_b, Zl U_sim Zr e_b>|^2, the squared column sum b of E."""
    u_sim = np.asarray(u_sim, dtype=complex)
    defect = _unitarity_defect(u_sim)
    if not defect <= _UNITARITY_BOUND:  # also rejects nan
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds 1e-6")
    m = word_unitary(word).conj() * u_sim
    ph, e = _align_phases(m) if align_local_z else (np.zeros(4), m)
    process = abs(e.sum()) ** 2 / 16.0
    overlaps = np.abs(e.sum(0)) ** 2
    per_state = {key: float(f) for key, f in zip(("00", "01", "10", "11"), overlaps)}
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


# Bloch vectors: |0>, |+>, and Y1^(1/2)|0> = (|0> - |1>)/sqrt(2), the
# target of the budget's pi/2 rotation
_BLOCH_0 = (0.0, 0.0, 1.0)
_BLOCH_PLUS = (1.0, 0.0, 0.0)
_BLOCH_TARGET = (-1.0, 0.0, 0.0)


def one_qubit_error_budget(
    p: SystemParams, echo: bool = False, policy: StepPolicy = StepPolicy()
) -> dict:
    """Simulated error of a pi/2 one-qubit gate with the coupling on.

    Reports, worst case over the spectator prepared in |0> and |+>:
    the target qubit's reduced-state infidelity against the ideal
    rotation, and the spectator's parasitic deviation from staying put
    (the error the decoupling echo addresses).  Each is
    1 - (1 + b.n)/2 = (1 - b.n)/2, the infidelity of the qubit's reduced
    rotating-frame state, Bloch vector b, against the pure state with
    Bloch vector n.  The closed-form parasitic-angle expression
    arccos(wxx * 4*pi/delta) is reported verbatim where defined and null
    where its argument exceeds 1.  One RK4 run at ``policy`` (default
    ``StepPolicy()``) serves both spectators; it raises StepTooCoarse
    where ``evolve`` would.
    """
    seq = PulseSequence(params=p, segments=(compile_one_qubit(p, 1, "y", math.pi / 2, 0.0),))
    if echo:
        seq = insert_decoupling(p, seq, 0)
    bps, us = _running_propagators(seq, policy, _UNITARITY_BOUND)
    per_spectator = {}
    for key, spec in (("0", _BLOCH_0), ("+", _BLOCH_PLUS)):
        rho0 = DensityState.product_bloch(_BLOCH_0, spec)
        rot = to_rotating_frame(_trajectory(bps[-1:], us[-1:], rho0), p).final
        per_spectator[key] = {
            "target_infidelity": float(0.5 * (1.0 - reduced_bloch(rot, 1) @ _BLOCH_TARGET)),
            "spectator_infidelity": float(0.5 * (1.0 - reduced_bloch(rot, 2) @ spec)),
        }
    arg = p.wxx * 4 * math.pi / p.delta
    formula = math.acos(arg) if abs(arg) <= 1.0 else None
    return {
        "parasitic_angle_formula": formula,
        "target_infidelity": max(v["target_infidelity"] for v in per_spectator.values()),
        "spectator_infidelity": max(v["spectator_infidelity"] for v in per_spectator.values()),
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
