"""Exact numerical evolution of the two-qubit system in the lab frame.

The production route integrates dU/dt = -i H(t) U for the 4x4 propagator
with classic fixed-step 4th-order Runge-Kutta, with no rotating-wave
approximation anywhere.  Both drives act through the sigma_x channels, so
the lab-frame H(t) is a real symmetric 4x4 matrix at every t and all the
arithmetic is real: a complex 4x4 matrix a + ib is carried as its real
8x8 form [[a, -b], [b, a]], and the real form of a product is the product
of the real forms.  The equation is linear, so each RK4 step is a matrix;
the steps of one breakpoint interval are built in one batched expression
and multiplied in time order by a pairwise batched product.  Envelope
discontinuities (segment edges, refocusing flips) are always breakpoints.
``evolve`` applies the running propagator to rho0 and records the 15 real
Pauli coefficients c_a of rho = (1 + sum_a c_a P_a)/4 at every breakpoint.

An independent oracle route evolves the 4x4 density matrix with exact
piecewise exponential propagators (4th-order commutator-free Magnus, two
exponentials per substep from the real eigendecomposition of a real
symmetric H, as real 8x8 forms) and verifies its own convergence by
substep doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PulseSequence, SystemParams, drive_amplitudes_at
from .pauli import TWO_QUBIT_LABELS, basis_matrices

__all__ = [
    "DensityState",
    "Trajectory",
    "StepPolicy",
    "StepTooCoarse",
    "NoConvergence",
    "WrongFrame",
    "evolve",
    "evolve_oracle",
    "propagator_of_sequence",
    "to_rotating_frame",
    "frame_unitary",
    "trace_distance",
    "write_trajectory_csv",
]

IDX = {lab: i for i, lab in enumerate(TWO_QUBIT_LABELS)}
_BASIS = basis_matrices()  # (15, 4, 4)


class StepTooCoarse(RuntimeError):
    """Fixed-step error estimate exceeded the allowed tolerance."""


class NoConvergence(RuntimeError):
    """Oracle substep doubling failed to converge."""


class WrongFrame(ValueError):
    """Frame transformation applied to data in the wrong frame."""


# ---------------------------------------------------------------------------
# State and trajectory types


@dataclass(frozen=True)
class DensityState:
    """15 real Pauli coefficients of rho = (1 + sum c_a P_a)/4."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (15,):
            raise ValueError("need exactly 15 coefficients")
        if not np.all(np.isfinite(c)):
            raise ValueError("Pauli coefficients must be finite")
        object.__setattr__(self, "c", c)

    @classmethod
    def from_matrix(cls, rho: np.ndarray) -> "DensityState":
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("rho must be 4x4")
        if abs(np.trace(rho) - 1.0) > 1e-9:
            raise ValueError("rho must have unit trace")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
            raise ValueError("rho must be Hermitian")
        c = np.real(np.einsum("aij,ji->a", _BASIS, rho))
        return cls(c)

    @classmethod
    def from_ket(cls, psi: np.ndarray) -> "DensityState":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls.from_matrix(np.outer(psi, psi.conj()))

    @classmethod
    def computational(cls, label: str) -> "DensityState":
        """Basis-state density operator from a two-bit label like "10"."""
        if label not in ("00", "01", "10", "11"):
            raise ValueError(f"bad basis label {label!r}")
        psi = np.zeros(4, dtype=complex)
        psi[int(label, 2)] = 1.0
        return cls.from_ket(psi)

    @classmethod
    def product_bloch(cls, b1, b2) -> "DensityState":
        """Product state from two single-qubit Bloch vectors."""
        b1 = np.asarray(b1, dtype=float)
        b2 = np.asarray(b2, dtype=float)
        for b in (b1, b2):
            if b.shape != (3,) or np.linalg.norm(b) > 1 + 1e-9:
                raise ValueError("Bloch vectors must be 3-vectors of norm <= 1")
        c = np.zeros(15)
        c[0:3] = b1
        c[3:6] = b2
        c[6:15] = np.outer(b1, b2).ravel()
        return cls(c)

    def to_matrix(self) -> np.ndarray:
        return (np.eye(4, dtype=complex) + np.einsum("a,aij->ij", self.c, _BASIS)) / 4.0

    @property
    def purity(self) -> float:
        return (1.0 + float(self.c @ self.c)) / 4.0

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.to_matrix())[0])

    def validate(self, tol: float = 1e-9) -> None:
        if self.min_eigenvalue() < -tol:
            raise ValueError(f"state not positive: min eigenvalue {self.min_eigenvalue():.3e}")
        if not (0.25 - tol <= self.purity <= 1.0 + tol):
            raise ValueError(f"purity {self.purity} out of range")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states with a uniform frame tag ("lab" or "rotating")."""

    times: np.ndarray
    coeffs: np.ndarray  # (n_samples, 15)
    frame: str = "lab"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        c = np.asarray(self.coeffs, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if c.shape != (t.size, 15):
            raise ValueError("coeffs shape must be (n_samples, 15)")
        if self.frame not in ("lab", "rotating"):
            raise ValueError(f"bad frame tag {self.frame!r}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "coeffs", c)

    def state(self, i: int) -> DensityState:
        return DensityState(self.coeffs[i])

    @property
    def final(self) -> DensityState:
        return DensityState(self.coeffs[-1])


@dataclass(frozen=True)
class StepPolicy:
    """Fixed-step policy: RK4 steps per smallest carrier period."""

    steps_per_period: int = 1600

    def __post_init__(self):
        if self.steps_per_period < 1:
            raise ValueError(
                f"steps_per_period must be at least 1, got {self.steps_per_period}"
            )

    def step_target(self, p: SystemParams) -> float:
        period = 2.0 * math.pi / max(p.w1z, p.w2z)
        return period / self.steps_per_period


def _check_device(p: SystemParams, seq: PulseSequence) -> None:
    if p != seq.params:
        raise ValueError(f"{p} is not the device the sequence was built for, {seq.params}")


# ---------------------------------------------------------------------------
# Time grid and Hamiltonian sampling


def _breakpoints(p: SystemParams, seq: PulseSequence) -> np.ndarray:
    """Segment edges, flips and a uniform grid of spacing t0_sync/8."""
    spacing = p.t0_sync / 8.0
    pts = {0.0, seq.total_time}
    for seg in seq.segments:
        pts.add(seg.start)
        pts.add(min(seg.end, seq.total_time))
        if seg.flip_at is not None:
            pts.add(seg.flip_at)
    n = int(math.floor(seq.total_time / spacing + 1e-9))
    pts.update(k * spacing for k in range(n + 1))
    out = sorted(t for t in pts if 0.0 <= t <= seq.total_time + 1e-12)
    dedup = [out[0]]
    for t in out[1:]:
        if t - dedup[-1] > 1e-9:
            dedup.append(t)
    return np.asarray(dedup)


def _interval_steps(a: float, b: float, h_target: float) -> tuple[int, float]:
    n = max(1, int(math.ceil((b - a) / h_target - 1e-9)))
    return n, (b - a) / n


def _hamiltonians(p: SystemParams, seq: PulseSequence, a: float, b: float,
                  tg: np.ndarray) -> np.ndarray:
    """H(t) for the times tg in [a, b], real, shape (tg.size, 4, 4).

    No envelope discontinuity lies strictly inside [a, b], so segment
    activity and flip signs are decided at the interval midpoint and the
    samples at a and b take the one-sided limit from inside the interval.
    """
    ax1, ay1, ax2, ay2 = drive_amplitudes_at(seq, tg, mid=0.5 * (a + b))
    u1 = ax1 * np.cos(p.w1z * tg) + ay1 * np.sin(p.w1z * tg)
    u2 = ax2 * np.cos(p.w2z * tg) + ay2 * np.sin(p.w2z * tg)
    zi, iz, xx, x1, x2 = (_BASIS[IDX[lab]].real for lab in ("ZI", "IZ", "XX", "XI", "IX"))
    drift = 0.5 * p.w1z * zi + 0.5 * p.w2z * iz + 0.5 * p.wxx * xx
    # x1 and x2 have no nonzero entry in common, so this product is exact
    drives = np.stack([u1, u2], axis=-1) @ np.stack([x1, x2]).reshape(2, 16)
    return drives.reshape(-1, 4, 4) + drift


# ---------------------------------------------------------------------------
# RK4 propagator route


def _real_form(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The real 8x8 forms [[re, -im], [im, re]] of a stack of 4x4 matrices."""
    out = np.empty(re.shape[:-2] + (8, 8))
    out[..., :4, :4] = re
    out[..., :4, 4:] = -im
    out[..., 4:, :4] = im
    out[..., 4:, 4:] = re
    return out


def _complex_of(r: np.ndarray) -> np.ndarray:
    """The complex 4x4 matrices whose real forms are r."""
    return r[..., :4, :4] + 1j * r[..., 4:, :4]


def _rk4_steps(hs: np.ndarray, h: float) -> np.ndarray:
    """Real forms of the RK4 step matrices S = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    of dU/dt = F U, with K1 = F_a, K2 = F_m (I + h/2 K1), K3 = F_m (I + h/2 K2)
    and K4 = F_b (I + h K3), from F = -iH and the real H on the half-step
    grid (2n + 1 times).  With A, M, B = H_a, H_m, H_b and x = h/2,
    Re S = I + h/6 (-2x (MA + MM + BM) + 2x^3 BMMA) and
    Im S = h/6 (2x^2 (MMA + BMM) - (A + 4M + B))."""
    a, m, b = hs[0:-1:2], hs[1::2], hs[2::2]
    x = 0.5 * h
    ma, mm, bm = m @ a, m @ m, b @ m
    mma, bmm = m @ ma, b @ mm
    bmma = b @ mma
    re = np.eye(4) + (h / 6.0) * (-2.0 * x * (ma + mm + bm) + 2.0 * x ** 3 * bmma)
    im = (h / 6.0) * (2.0 * x ** 2 * (mma + bmm) - (a + 4.0 * m + b))
    return _real_form(re, im)


def _time_ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0], by pairwise batched products."""
    while len(mats) > 1:
        n = len(mats)
        paired = mats[1:n:2] @ mats[0:n - 1:2]
        mats = np.concatenate([paired, mats[n - 1:]]) if n % 2 else paired
    return mats[0]


def _running_propagators(p: SystemParams, seq: PulseSequence,
                         dt_policy: StepPolicy | None) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints t_k and the propagators U(t_k) from time 0 to each.
    One batch per interval bounds the memory by the longest interval."""
    _check_device(p, seq)
    h_target = (dt_policy or StepPolicy()).step_target(p)
    bps = _breakpoints(p, seq)
    us = np.empty((bps.size, 8, 8))
    us[0] = np.eye(8)
    for k in range(bps.size - 1):
        a, b = bps[k], bps[k + 1]
        n, h = _interval_steps(a, b, h_target)
        tg = a + 0.5 * h * np.arange(2 * n + 1)
        steps = _rk4_steps(_hamiltonians(p, seq, a, b, tg), h)
        us[k + 1] = _time_ordered_product(steps) @ us[k]
    return bps, _complex_of(us)


# ---------------------------------------------------------------------------
# Public evolution routes


def evolve(
    p: SystemParams,
    seq: PulseSequence,
    rho0: DensityState,
    dt_policy: StepPolicy | None = None,
) -> Trajectory:
    """Fixed-step RK4 evolution of rho0 through the propagator route.

    Samples at every segment boundary and flip point plus a uniform grid
    of spacing t0_sync/8.  The state at time t is U rho0 U^dagger divided
    by its trace, U = U(t), since RK4 is not exactly unitary.
    Deterministic: identical inputs yield bit-identical trajectories.
    Raises ValueError if ``p`` is not ``seq.params``.
    """
    rho0.validate()
    bps, us = _running_propagators(p, seq, dt_policy)
    rhos = us @ rho0.to_matrix() @ us.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    coeffs = np.real(np.einsum("aij,nji->na", _BASIS, rhos))
    return Trajectory(times=bps, coeffs=coeffs, frame="lab")


def propagator_of_sequence(
    p: SystemParams,
    seq: PulseSequence,
    dt_policy: StepPolicy | None = None,
) -> np.ndarray:
    """Lab-frame unitary of the full sequence (RK4 on the Schrodinger
    equation for the propagator).  Raises StepTooCoarse if the unitarity
    defect exceeds 1e-9, and ValueError if ``p`` is not ``seq.params``."""
    u = _running_propagators(p, seq, dt_policy)[1][-1]
    defect = float(np.max(np.abs(u @ u.conj().T - np.eye(4))))
    if defect > 1e-9:
        raise StepTooCoarse(f"unitarity defect {defect:.3e} exceeds 1e-9")
    return u


# 4th-order commutator-free Magnus weights (Gauss-Legendre nodes).
_GAUSS_SHIFT = math.sqrt(3.0) / 6.0
_CF4_PLUS = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_CF4_MINUS = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0


def _expm_batch(mats: np.ndarray, h: float) -> np.ndarray:
    """Real forms of exp(-i*h*M) for a stack of real symmetric matrices:
    with M = V diag(lam) V^T, the real part is V cos(h lam) V^T and the
    imaginary part -V sin(h lam) V^T."""
    lam, vec = np.linalg.eigh(mats)
    vt = vec.transpose(0, 2, 1)
    re = (vec * np.cos(h * lam)[:, None, :]) @ vt
    im = (vec * -np.sin(h * lam)[:, None, :]) @ vt
    return _real_form(re, im)


def _oracle_pass(p, seq, rho0_mat, bps, h_target):
    states = np.empty((bps.size, 15))
    states[0] = DensityState.from_matrix(rho0_mat).c
    rho = rho0_mat
    for k in range(bps.size - 1):
        a, b = bps[k], bps[k + 1]
        n, h = _interval_steps(a, b, h_target)
        base = a + h * np.arange(n)
        nodes = base + np.array([[0.5 - _GAUSS_SHIFT], [0.5 + _GAUSS_SHIFT]]) * h
        h1, h2 = _hamiltonians(p, seq, a, b, nodes.ravel()).reshape(2, n, 4, 4)
        ea, eb = np.split(_expm_batch(np.concatenate(
            [_CF4_PLUS * h1 + _CF4_MINUS * h2, _CF4_MINUS * h1 + _CF4_PLUS * h2]), h), 2)
        u = _complex_of(_time_ordered_product(eb @ ea))  # eb acts after ea
        rho = u @ rho @ u.conj().T
        states[k + 1] = np.real(np.einsum("aij,ji->a", _BASIS, rho))
    return states, rho


def evolve_oracle(
    p: SystemParams,
    seq: PulseSequence,
    rho0: DensityState,
    substeps: int = 64,
    max_doublings: int = 6,
) -> Trajectory:
    """Piecewise-exponential propagator oracle, independent of the RK4 route.

    Each substep applies the two 4th-order commutator-free Magnus
    exponentials of the real symmetric H at the Gauss nodes, exact from a
    real eigendecomposition and carried as real 8x8 forms; rho is
    conjugated once per breakpoint interval by their time-ordered product.

    ``substeps`` is the initial substep count per smallest carrier period;
    it is doubled until two successive final states agree to trace
    distance < 1e-9, else NoConvergence is raised.  Samples fall on the
    same breakpoints as ``evolve``.  Raises ValueError if ``p`` is not
    ``seq.params``.
    """
    _check_device(p, seq)
    rho0.validate()
    bps = _breakpoints(p, seq)
    period = 2.0 * math.pi / max(p.w1z, p.w2z)
    rho0_mat = rho0.to_matrix()
    prev_final = None
    n = substeps
    for _ in range(max_doublings + 1):
        states, final = _oracle_pass(p, seq, rho0_mat, bps, period / n)
        if prev_final is not None:
            if trace_distance_matrices(final, prev_final) < 1e-9:
                return Trajectory(times=bps, coeffs=states, frame="lab")
        prev_final = final
        n *= 2
    raise NoConvergence(
        f"oracle final state did not converge after {max_doublings} doublings"
    )


# ---------------------------------------------------------------------------
# Frames, distances, CSV


def _frame_diagonal(p: SystemParams, t) -> np.ndarray:
    """Diagonal of frame_unitary(p, t), vectorized over t along a new last axis."""
    t = np.asarray(t, dtype=float)[..., np.newaxis]
    ph1, ph2 = 0.5 * p.w1z * t, 0.5 * p.w2z * t
    return np.exp(1j * (ph1 * np.array([1, 1, -1, -1]) + ph2 * np.array([1, -1, 1, -1])))


def frame_unitary(p: SystemParams, t: float) -> np.ndarray:
    """V(t) = exp(i*t*(w1z*Z1 + w2z*Z2)/2), the lab-to-rotating-frame map."""
    return np.diag(_frame_diagonal(p, t))


def to_rotating_frame(obj, p: SystemParams, t: float | None = None):
    """Transform a DensityState (at explicit time t) or a lab-frame
    Trajectory into the frame rotating at (w1z, w2z)."""
    if isinstance(obj, DensityState):
        if t is None:
            raise ValueError("a bare state needs an explicit time")
        v = frame_unitary(p, t)
        return DensityState.from_matrix(v @ obj.to_matrix() @ v.conj().T)
    if isinstance(obj, Trajectory):
        if obj.frame != "lab":
            raise WrongFrame(f"expected a lab-frame trajectory, got {obj.frame!r}")
        # V is diagonal, so V rho V^dagger = rho * (v v*^T) elementwise
        v = _frame_diagonal(p, obj.times)
        rhos = (np.eye(4) + np.einsum("na,aij->nij", obj.coeffs, _BASIS)) / 4.0
        rhos *= v[:, :, np.newaxis] * v.conj()[:, np.newaxis, :]
        coeffs = np.real(np.einsum("aij,nji->na", _BASIS, rhos))
        return Trajectory(times=obj.times, coeffs=coeffs, frame="rotating")
    raise TypeError(f"cannot frame-transform {type(obj).__name__}")


def trace_distance_matrices(r1: np.ndarray, r2: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(r1 - r2))))


def trace_distance(s1: DensityState, s2: DensityState) -> float:
    return trace_distance_matrices(s1.to_matrix(), s2.to_matrix())


_CSV_SHORT = "t,frame,cx1,cy1,cz1,cx2,cy2,cz2"
_CSV_FULL = _CSV_SHORT + ",c_xx,c_xy,c_xz,c_yx,c_yy,c_yz,c_zx,c_zy,c_zz"


def write_trajectory_csv(traj: Trajectory, fh, full: bool = False) -> None:
    """Emit a trajectory as CSV; floats carry 12 significant digits.

    The first six coefficient columns are the single-qubit Bloch
    components (reduced operators); the nine two-body coefficients are
    emitted only in full mode.
    """
    ncols = 15 if full else 6
    fh.write((_CSV_FULL if full else _CSV_SHORT) + "\n")
    for t, row in zip(traj.times, traj.coeffs):
        vals = ",".join(f"{x:.12g}" for x in row[:ncols])
        fh.write(f"{t:.12g},{traj.frame},{vals}\n")
