"""Exact numerical evolution of the two-qubit system in the lab frame.

Two integrators build the running propagators U(t_k) from time 0 to each
breakpoint t_k (segment edges, refocusing flips and a uniform grid of
spacing t0_sync/8, so no envelope discontinuity lies inside an interval),
with no rotating-wave approximation anywhere.  Both drives act through the
sigma_x channels, so the lab-frame H(t) is a real symmetric 4x4 matrix at
every t and all the arithmetic is real: a complex 4x4 matrix a + ib is
carried as its real 8x8 form [[a, -b], [b, a]], and the real form of a
product is the product of the real forms.

One pipeline serves both: an interval cut into n equal steps has the time
ordered product of its step matrices as propagator.  The intervals of a
call go through in chunks of at most 8192 steps; in a chunk, the intervals
with equal n share one sampling of H, and their steps are built and
multiplied pairwise in batches.  The two differ only in where they sample
H and how they make a step:

- RK4 (``evolve``, ``propagator_of_sequence``) samples the half-step grid
  and makes classic fixed-step 4th-order Runge-Kutta steps, in batches of
  about 900 steps, each interval's product equal bit for bit to building
  it alone.  A run any of whose propagators is further from unitary than
  the caller's bound raises StepTooCoarse.
- The oracle (``evolve_oracle``) samples the two Gauss nodes of each
  substep and makes 4th-order commutator-free Magnus steps
  exp(-ihB) exp(-ihA), in batches of at most 512 substeps.  Each
  exp(-iA) = cos A - i sin A is a Horner series in A^2 whose degree a
  runtime truncation bound sets below 1e-16 (with scaling and squaring for
  a large ||A||), so it is exact to rounding; the oracle's order comes
  from the Magnus scheme and its convergence from substep doubling.

When w0/delta is an integer, shifting time by t0_sync = 2 pi/delta flips
the sign of both carriers, so H(t + t0_sync) = Z1Z2 H(t) Z1Z2 wherever the
drive amplitudes are constant.  The RK4 route therefore builds a full
interval [k s, (k+1) s] of the s = t0_sync/8 grid under flat (square)
drives only the first time its (k mod 8, amplitudes) key occurs, and
reuses that product for every later interval with the same key,
Z1Z2-conjugated where the window parities (k // 8 odd) of the two differ;
the result equals building every interval to rounding.  Ramped intervals,
intervals cut by an off-grid edge or flip, devices whose w0/delta is not
an integer, and every oracle interval are built every time.  One tail
records U rho0 U^dagger, divided by its trace, as the 15 real Pauli
coefficients c_a of rho = (1 + sum_a c_a P_a)/4.

The private layers read the device from ``seq.params`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import PulseSequence, SystemParams, check_device, drive_amplitudes_at
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
    "compose_virtual_z",
    "gate_unitary",
    "trace_distance",
    "write_trajectory_csv",
]

IDX = {lab: i for i, lab in enumerate(TWO_QUBIT_LABELS)}
_BASIS = basis_matrices()  # (15, 4, 4)
_STATE_TOL = 1e-9  # rounding allowed below eigenvalue 0 and outside purity [1/4, 1]


class StepTooCoarse(RuntimeError):
    """A fixed-step propagator's unitarity defect exceeded the allowed bound."""


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

    def validate(self) -> None:
        if self.min_eigenvalue() < -_STATE_TOL:
            raise ValueError(f"state not positive: min eigenvalue {self.min_eigenvalue():.3e}")
        if not (0.25 - _STATE_TOL <= self.purity <= 1.0 + _STATE_TOL):
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


# ---------------------------------------------------------------------------
# Time grid and Hamiltonian sampling


def _breakpoints(seq: PulseSequence) -> np.ndarray:
    """Segment edges, flips and a uniform grid of spacing t0_sync/8."""
    spacing = seq.params.t0_sync / 8.0
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


def _interval_steps(a, b, h_target: float):
    """Per interval [a, b], scalars or arrays, the number n of equal steps
    of at most h_target, and the step (b - a) / n."""
    n = np.maximum(1, np.ceil((b - a) / h_target - 1e-9).astype(int))
    return n, (b - a) / n


def _hamiltonians(seq: PulseSequence, a, b, tg: np.ndarray) -> np.ndarray:
    """H(t) for the times tg in [a, b], real, shape tg.shape + (4, 4); a and
    b are scalars or, for samples from several intervals, arrays that
    broadcast against tg.

    No envelope discontinuity lies strictly inside [a, b], so segment
    activity and flip signs are decided at the interval midpoint and the
    samples at a and b take the one-sided limit from inside the interval.
    """
    p = seq.params
    ax1, ay1, ax2, ay2 = drive_amplitudes_at(seq, tg, mid=0.5 * (a + b))
    u1 = ax1 * np.cos(p.w1z * tg) + ay1 * np.sin(p.w1z * tg)
    u2 = ax2 * np.cos(p.w2z * tg) + ay2 * np.sin(p.w2z * tg)
    zi, iz, xx, x1, x2 = (_BASIS[IDX[lab]].real for lab in ("ZI", "IZ", "XX", "XI", "IX"))
    drift = 0.5 * p.w1z * zi + 0.5 * p.w2z * iz + 0.5 * p.wxx * xx
    # x1 and x2 have no nonzero entry in common, so this product is exact
    ham = np.stack([u1, u2], axis=-1) @ np.stack([x1, x2]).reshape(2, 16)
    ham = ham.reshape(ham.shape[:-1] + (4, 4))
    ham += drift  # in place: a chunk's samples are the largest array it holds
    return ham


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


def _half_steps(a: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """The 2n + 1 times of n RK4 steps h from a, columns (k, 1)."""
    return a + 0.5 * h * np.arange(2 * n + 1)


def _rk4_steps(hs: np.ndarray, h) -> np.ndarray:
    """Real forms of the RK4 step matrices S = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    of dU/dt = F U, with K1 = F_a, K2 = F_m (I + h/2 K1), K3 = F_m (I + h/2 K2)
    and K4 = F_b (I + h K3), from F = -iH and the real H on the half-step
    grid (2n + 1 times along axis -3).  With A, M, B = H_a, H_m, H_b and
    x = h/2, Re S = I + h/6 (-2x (MA + MM + BM) + 2x^3 BMMA) and
    Im S = h/6 (2x^2 (MMA + BMM) - (A + 4M + B)).  Leading axes batch
    intervals; h is a scalar or broadcasts against hs, as (k, 1, 1, 1)."""
    a, m, b = hs[..., 0:-1:2, :, :], hs[..., 1::2, :, :], hs[..., 2::2, :, :]
    h = np.asarray(h, dtype=float)
    x = 0.5 * h
    # x^2 and x^3 by Python's float pow, one interval at a time, so that a
    # step does not depend on its batch: numpy's vectorized power can round
    # differently in the last bit
    x2, x3 = (np.reshape([v ** e for v in x.flat], x.shape) for e in (2, 3))
    ma, mm, bm = m @ a, m @ m, b @ m
    mma, bmm = m @ ma, b @ mm
    bmma = b @ mma
    re = np.eye(4) + (h / 6.0) * (-2.0 * x * (ma + mm + bm) + 2.0 * x3 * bmma)
    im = (h / 6.0) * (2.0 * x2 * (mma + bmm) - (a + 4.0 * m + b))
    return _real_form(re, im)


def _time_ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[..., -1, :, :] @ ... @ mats[..., 0, :, :], by pairwise batched
    products along axis -3."""
    while mats.shape[-3] > 1:
        n = mats.shape[-3]
        paired = mats[..., 1:n:2, :, :] @ mats[..., 0:n - 1:2, :, :]
        mats = np.concatenate([paired, mats[..., n - 1:, :, :]], axis=-3) if n % 2 else paired
    return mats[..., 0, :, :]


def _chunks(counts, cap: int) -> list:
    """Consecutive items grouped greedily into chunks whose counts sum to at
    most cap, each holding at least one whole item, as (first, stop) index
    pairs."""
    chunks, first, total = [], 0, 0
    for i, n in enumerate(counts):
        if total and total + n > cap:
            chunks.append((first, i))
            first, total = i, 0
        total += n
    return chunks + [(first, len(counts))] if total else chunks


# Largest number of steps one chunk samples at once, so that the samples'
# memory stays bounded however long the sequence is; with caps of 2048 and
# 4096 the heap top was trimmed and faulted back in (905 and 229 minor
# faults per benchmark gate op, against 0)
_CHUNK_STEPS = 8192
# Steps built and multiplied per batch within a chunk: RK4, two 450-step
# grid intervals of the benchmark device (one-interval batches measured ~4%
# slower on its gate ops); the oracle's exponentials, at most 512 substeps
# (one batch per pass: +33% peak RSS)
_RK4_BATCH = 900
_ORACLE_BATCH = 512


def _interval_products(seq: PulseSequence, a: np.ndarray, b: np.ndarray, h_target: float,
                       nodes, steps, batch: int) -> np.ndarray:
    """Real forms of the propagators of the intervals [a_i, b_i], each of n
    steps h (_interval_steps), in chunks of at most _CHUNK_STEPS steps.  In
    a chunk, the intervals with equal n share one sampling of H at the
    times nodes(a, h, n), a and h as (k, 1), and the step matrices
    steps(H, h), h as (k, 1, 1, 1), of max(1, batch // n) of them at a time
    are built and multiplied in time order."""
    counts, hs = _interval_steps(a, b, h_target)
    prods = np.empty((counts.size, 8, 8))
    for first, stop in _chunks(counts, _CHUNK_STEPS):
        # not np.unique: its first call imports numpy.ma, ~15 ms of set-up
        for n in sorted(set(counts[first:stop].tolist())):
            idx = first + np.flatnonzero(counts[first:stop] == n)
            tg = nodes(a[idx, None], hs[idx, None], n)
            ham = _hamiltonians(seq, a[idx, None], b[idx, None], tg)
            per = max(1, batch // n)
            for lo in range(0, idx.size, per):
                sel = idx[lo:lo + per]
                prods[sel] = _time_ordered_product(
                    steps(ham[lo:lo + per], hs[sel, None, None, None]))
    return prods


def _running_products(prods: np.ndarray) -> np.ndarray:
    """Complex U(t_0) = I, U(t_k) = P_{k-1} ... P_0 from the real forms P_i."""
    return _complex_of(np.array(list(accumulate(prods, lambda u, p: p @ u, initial=np.eye(8)))))


# The Z1 and Z2 eigenvalues of |00>, |01>, |10> and |11>, one row each
_Z_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
# Z1Z2 conjugation, (ZZ U ZZ)_ij = z_i z_j U_ij, as a mask on real forms
_ZZ_DIAG = _Z_SIGNS.prod(1)
_ZZ_MASK = np.tile(np.outer(_ZZ_DIAG, _ZZ_DIAG), (2, 2))
# w0/delta and the grid points within this relative distance count as exact
_SYNC_RTOL = 1e-13


def _window_origins(seq: PulseSequence, bps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per breakpoint interval, its origin and its window parity.  When the
    carriers flip each window, a full grid interval [k s, (k+1) s] with
    every active segment flat has the memo key (k mod 8, amplitudes), its
    origin is the first interval with that key, and its parity is k // 8
    odd; any other interval is its own origin, of even parity."""
    a, b = bps[:-1], bps[1:]
    # w1z t0_sync = 2 pi (w0/delta + 1/2), likewise w2z with -1/2, so both
    # carriers flip over t0_sync when w0/delta is an integer to rounding
    r = seq.params.w0 / seq.params.delta
    spacing = seq.params.t0_sync / 8.0
    k = np.rint(a / spacing)
    full = (abs(r - round(r)) <= _SYNC_RTOL * r) \
        & np.isclose(a, k * spacing, rtol=_SYNC_RTOL, atol=0.0) \
        & np.isclose(b, (k + 1) * spacing, rtol=_SYNC_RTOL, atol=0.0)
    mid = 0.5 * (a + b)
    for seg in seq.segments:
        if seg.envelope.rise > 0.0:
            full &= (mid < seg.start) | (mid > seg.end)
    # square envelopes are 1 on their support, so sampling at the midpoints
    # gives each interval's constant amplitudes and flip signs
    amps = np.stack(drive_amplitudes_at(seq, mid), axis=1).tolist()
    seen: dict = {}
    origin = [seen.setdefault((ki % 8, tuple(am)) if ok else i, i)
              for i, (ki, am, ok) in enumerate(zip(k.astype(int).tolist(), amps, full))]
    return np.array(origin, dtype=int), full & (k // 8 % 2 == 1)


def _unitarity_defect(u: np.ndarray) -> float:
    """max |U U^dagger - I| over a stack of 4x4 matrices; nan or inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(4))))


def _running_propagators(seq: PulseSequence, dt_policy: StepPolicy | None,
                         max_defect: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints t_k and the RK4 propagators U(t_k) from time 0 to each.

    Only the intervals that are their own origin (_window_origins) are
    built; any other takes its origin's product, Z1Z2-conjugated where their
    window parities differ.  Raises StepTooCoarse if the unitarity defect of
    any U(t_k), not only the final one (on the CNOT an earlier one is up to
    1.3 times larger), exceeds max_defect or is not finite."""
    h_target = (dt_policy or StepPolicy()).step_target(seq.params)
    bps = _breakpoints(seq)
    origin, parity = _window_origins(seq, bps)
    todo = np.flatnonzero(origin == np.arange(origin.size))  # the intervals to build
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked below
        prods = _interval_products(seq, bps[todo], bps[todo + 1], h_target, _half_steps,
                                   _rk4_steps, _RK4_BATCH)[np.searchsorted(todo, origin)]
        prods[parity != parity[origin]] *= _ZZ_MASK
        us = _running_products(prods)
    defect = _unitarity_defect(us)
    if not defect <= max_defect:  # nan compares false, so it fails too
        raise StepTooCoarse(f"the propagator diverged from unitarity: "
                            f"defect {defect:.3e} exceeds {max_defect:g}")
    return bps, us


def _trajectory(bps: np.ndarray, us: np.ndarray, rho0: DensityState) -> Trajectory:
    """The lab-frame states U(t_k) rho0 U(t_k)^dagger, each divided by its
    trace since neither route is exactly unitary, at the breakpoints t_k."""
    rhos = us @ rho0.to_matrix() @ us.conj().transpose(0, 2, 1)
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    coeffs = np.real(np.einsum("aij,nji->na", _BASIS, rhos))
    return Trajectory(times=bps, coeffs=coeffs, frame="lab")


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
    by its trace, U = U(t), since RK4 is not exactly unitary.  Grid
    intervals that repeat, up to Z1Z2, a sync window later are stepped once
    per call (see the module docstring).
    Deterministic: identical inputs yield bit-identical trajectories.
    Raises ValueError if ``p`` is not ``seq.params``, and StepTooCoarse if
    the unitarity defect of any U(t) exceeds 1e-6, the bound
    ``gate_fidelity`` applies to any unitary it scores.
    """
    check_device(p, seq)
    rho0.validate()
    return _trajectory(*_running_propagators(seq, dt_policy, 1e-6), rho0)


def propagator_of_sequence(
    p: SystemParams,
    seq: PulseSequence,
    dt_policy: StepPolicy | None = None,
) -> np.ndarray:
    """Lab-frame unitary of the full sequence (RK4 on the Schrodinger
    equation for the propagator), with repeating grid intervals stepped
    once per call as in ``evolve``.  Raises StepTooCoarse if its unitarity
    defect, or that of a running propagator on the way, exceeds 1e-9, and
    ValueError if ``p`` is not ``seq.params``."""
    check_device(p, seq)
    return _running_propagators(seq, dt_policy, 1e-9)[1][-1]


# 4th-order commutator-free Magnus weights (Gauss-Legendre nodes).
_GAUSS_SHIFT = math.sqrt(3.0) / 6.0
_CF4_PLUS = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_CF4_MINUS = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0


# The first pass takes this many substeps per smallest carrier period; each
# further pass doubles it, at most this many times
_ORACLE_SUBSTEPS = 64
_ORACLE_DOUBLINGS = 6
# A = hM is scaled by 2^-s until max ||A||_1 <= _SERIES_NORM, and the series
# truncated once its bound x^(2K+2)/(2K+2)! e^x is below _SERIES_TOL
_SERIES_NORM = 1.0
_SERIES_TOL = 1e-16
_EYE_EYE = np.hstack([np.eye(4), np.eye(4)])  # [I | I]: both series' degree-0 term


def _gauss_nodes(a: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """The Gauss nodes of n substeps h from a, (k, 1): all first, then all second."""
    base = a + h * np.arange(n)
    return np.concatenate([base + c * h for c in (0.5 - _GAUSS_SHIFT, 0.5 + _GAUSS_SHIFT)], -1)


def _expm_batch(mats: np.ndarray, h) -> np.ndarray:
    """Real forms of exp(-i*h*M) = cos(hM) - i sin(hM) for a stack of real
    symmetric matrices M and a step h, scalar or an array that broadcasts
    against the stack's leading axes.

    With A = hM and X = A^2, cos A and sin A / A are Horner series in X,
    side by side in one (..., 4, 8) stack so that each degree is one matmul.
    The degree K is the least for which the truncation bound
    x^(2K+2)/(2K+2)! e^x, x = max ||A||_1 over the batch, is below 1e-16,
    so the result is exact to rounding.  A batch with x above 1 is scaled
    by 2^-s first and its real forms squared s times."""
    a = np.asarray(h, dtype=float)[..., None, None] * mats
    x = float(np.einsum("...ij->...j", np.abs(a)).max(initial=0.0))
    s = math.ceil(math.log2(x / _SERIES_NORM)) if x > _SERIES_NORM else 0
    a, x = a / 2.0 ** s, x / 2.0 ** s
    k, bound = 0, 0.5 * x * x * math.exp(x)
    while bound > _SERIES_TOL:
        k += 1
        bound *= x * x / ((2 * k + 1) * (2 * k + 2))
    xx = a @ a
    acc = np.broadcast_to(_EYE_EYE, a.shape[:-1] + (8,))
    for j in range(k, 0, -1):
        acc = xx @ acc
        acc *= np.repeat([-1.0 / ((2 * j - 1) * 2 * j), -1.0 / (2 * j * (2 * j + 1))], 4)
        acc += _EYE_EYE
    r = _real_form(acc[..., :4], -(a @ acc[..., 4:]))
    for _ in range(s):
        r = r @ r
    return r


def _cf4_steps(hs: np.ndarray, h) -> np.ndarray:
    """Real forms of the CF4 substeps exp(-ihB) exp(-ihA), A = c+ H1 + c- H2
    and B = c- H1 + c+ H2, from H at the _gauss_nodes along axis -3."""
    h1, h2 = np.split(hs, 2, axis=-3)
    ea, eb = _expm_batch(np.stack([_CF4_PLUS * h1 + _CF4_MINUS * h2,
                                   _CF4_MINUS * h1 + _CF4_PLUS * h2]), h[..., 0, 0])
    return eb @ ea  # eb acts after ea


def evolve_oracle(p: SystemParams, seq: PulseSequence, rho0: DensityState) -> Trajectory:
    """Piecewise-exponential propagator oracle, independent of the RK4 route.

    Each substep applies the two 4th-order commutator-free Magnus
    exponentials of the real symmetric H at the Gauss nodes, exact to
    rounding from cos/sin series whose degree a truncation bound sets, and
    carried as real 8x8 forms, in batches of at most 512 substeps unless
    one interval alone holds more.  Each pass returns the running
    propagators at the breakpoints, which become the trajectory as in
    ``evolve``.  The first pass takes 64 substeps per smallest carrier
    period, and the count is doubled until two successive final states
    agree to trace distance < 1e-9, at most 6 times, else NoConvergence is
    raised.  Raises ValueError if ``p`` is not ``seq.params``.
    """
    check_device(p, seq)
    rho0.validate()
    bps = _breakpoints(seq)
    prev = None
    for doublings in range(_ORACLE_DOUBLINGS + 1):
        h_target = StepPolicy(_ORACLE_SUBSTEPS << doublings).step_target(p)
        prods = _interval_products(seq, bps[:-1], bps[1:], h_target, _gauss_nodes,
                                   _cf4_steps, _ORACLE_BATCH)
        traj = _trajectory(bps, _running_products(prods), rho0)
        if prev is not None and trace_distance(traj.final, prev.final) < 1e-9:
            return traj
        prev = traj
    raise NoConvergence(
        f"oracle final state did not converge after {_ORACLE_DOUBLINGS} doublings"
    )


# ---------------------------------------------------------------------------
# Frames, distances, CSV


def _z_phases(phi1, phi2) -> np.ndarray:
    """Diagonal of exp(i*(phi1*Z1 + phi2*Z2)/2), vectorized over the phases
    along a new last axis."""
    a = 0.5 * np.asarray(phi1, dtype=float)[..., np.newaxis]
    b = 0.5 * np.asarray(phi2, dtype=float)[..., np.newaxis]
    return np.exp(1j * (a * _Z_SIGNS[:, 0] + b * _Z_SIGNS[:, 1]))


def frame_unitary(p: SystemParams, t: float) -> np.ndarray:
    """V(t) = exp(i*t*(w1z*Z1 + w2z*Z2)/2), the lab-to-rotating-frame map."""
    return np.diag(_z_phases(p.w1z * t, p.w2z * t))


def compose_virtual_z(u: np.ndarray, seq: PulseSequence) -> np.ndarray:
    """Apply the sequence's virtual-z ledger entries, exp(i*angle*Zq/2)
    each, after the physical propagator."""
    out = np.asarray(u, dtype=complex)
    for qubit, angle, _t in seq.virtual_z:
        phases = _z_phases(angle if qubit == 1 else 0.0, angle if qubit == 2 else 0.0)
        out = phases[:, np.newaxis] * out
    return out


def gate_unitary(seq: PulseSequence, dt_policy: StepPolicy | None = None) -> np.ndarray:
    """The gate ``seq`` realizes on ``seq.params``: its lab propagator in the
    rotating frame at ``seq.total_time``, then its virtual-z ledger."""
    p = seq.params
    return compose_virtual_z(frame_unitary(p, seq.total_time)
                             @ propagator_of_sequence(p, seq, dt_policy), seq)


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
        v = _z_phases(p.w1z * obj.times, p.w2z * obj.times)
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
