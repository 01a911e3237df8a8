"""Exact numerical evolution of the two-qubit system in the lab frame.

Two integrators build the running propagators U(t_k) from time 0 to each
breakpoint t_k (segment edges, ramp ends, refocusing flips and a uniform
grid of spacing t0_sync/8, so no envelope discontinuity, nor a jump of a
ramp's second derivative, lies inside an interval), with no rotating-wave
approximation anywhere.  Both drives act through the sigma_x channels, so
the lab-frame H(t) is a real symmetric 4x4 matrix at every t and all the
arithmetic is real: a complex 4x4 matrix a + ib is carried as its real 8x8
form [[a, -b], [b, a]], and the real form of a product is the product of
the real forms.

One pipeline serves both: an interval cut into n equal steps has the time
ordered product of its step matrices as propagator.  A call's intervals are
cut into rows of at most 512 steps, and the rows, longest first, into
rectangular batches: 512 // w rows, each padded to the first one's length
w with identity steps.  A chunk, a run of 16 batches, shares one sampling
of H.  Each row's product goes into an (interval, row) stack of
identities, whose pairwise product gives every interval's propagator.  The
two differ only in where they sample H and how they make a step:

- RK4 (``evolve``, ``propagator_of_sequence``) samples the half-step grid
  and makes classic fixed-step 4th-order Runge-Kutta steps, each
  interval's product equal bit for bit to building it alone.  A run any of
  whose propagators is further from unitary than the caller's bound raises
  StepTooCoarse.
- The oracle (``evolve_oracle``) samples three Gauss nodes of real substeps
  only, none for padding, and makes sixth-order Magnus steps exp(Omega)
  (Blanes, Casas and Ros, BIT 40, 434 (2000)), Omega from seven real 4x4
  products.  Each exp(Omega) is a cos/sinc Horner series in the square of
  Omega's real 8x8 form, whose degree a runtime truncation bound sets below
  1e-16 (with scaling and squaring for a large ||Omega||), so it is exact to
  rounding; the oracle's order comes from the Magnus scheme.  From 20
  substeps per carrier period, each interval's count doubled per pass, its
  Richardson-extrapolated U(t_k) stop at an estimated error below 1e-9 (in
  the spectral norm) that bounds every state's trace distance.

When w0/delta is an integer, both carriers flip sign over t0_sync =
2 pi/delta (w1z t0_sync = 2 pi (w0/delta + 1/2), w2z with -1/2), and four
relations hold for the RK4 product.  A full interval [k s, (k+1) s] of the
s = t0_sync/8 grid over which every active segment is flat (square, or
inside its ramp's flat top, where the envelope is 1) has window position
p = k mod 8 and constant amplitudes a = (ax1, ay1, ax2, ay2).
Shift: a shift by t0_sync negates cos and sin, the same as negating a.
Sign of qubit q = 1, 2: negating (ax_q, ay_q) gives H' = -S_q H S_q^T, with
S_1 = X1 Y2 and S_2 = Y1 X2 taken as real signed permutations (iY = ZX),
so U' = S_q conj(U) S_q^T: on negated samples the RK4 step is exactly
conj(S), as Re S is even in the samples and Im S odd.  The two signs
together are the Z1Z2 conjugation: negating all of a gives
H' = Z1Z2 H Z1Z2 entry for entry.  Mirror: t -> 2c - t, c = m t0_sync/2,
sends cos(w_q t) to (-1)^m cos and sin to -(-1)^m sin; as
S(B, M, A)^T = S(A, M, B) for the RK4 step of real symmetric samples,
reversed time transposes the product.  The window mirror (m = 1) maps
position p under a to 7 - p under M a = (-ax1, ay1, -ax2, ay2).  The
sequence mirror, where every segment and flip is centred on
c = total_time/2, maps each interval of the second half to its partner in
the first, ramps included, with qubit q's sign where its drive's term
changes sign (on x for odd m, on y for even m, the other way round after
a flip at c).  Measured against building each interval, only Z1Z2 is
exact bit for bit: a diagonal +-1 conjugation gives every term of every
sum in the step build and the products the same sign, so they round
alike.  One qubit's sign permutes the samples, whose products then sum in
another order, and the shift and the mirror sample other times: on random
amplitudes of both devices they moved an interval by up to 3e-14 and
1e-14.  So where a qubit is undriven, either sign of it fits, and the
memo takes the one that makes Z1Z2.

The RK4 route builds one interval per orbit of these relations, keyed by
_window_origins, and takes every other interval's real form R from its
origin's by the relations that tell the two apart.  On R, conj is the
sign mask [[1, -1], [-1, 1]] of the 4x4 blocks, so the mirror is R^T
times that mask, and qubit q's sign takes R's rows and columns in
diag(S_q, S_q)'s permutation, times its signs and the mask.  Both only
move entries and flip signs, so an inf or a -0.0 is carried up to sign,
where matmuls by S_q would turn 0 inf into nan; the result equals
building every interval to rounding.  Any other interval, devices whose
w0/delta is not an integer, and every oracle interval are built every
time.  One tail records U rho0 U^dagger, divided by its trace, as the 15
real Pauli coefficients c_a of rho = (1 + sum_a c_a P_a)/4.

Across calls, RK4 keeps each full interval it builds in one process-wide
store, keyed in the memo's terms by the float64 bytes of (w1z, w2z, wxx,
a, b, steps, its folded amplitudes plus 0.0, so that no -0.0 is keyed,
and whether its element sets exactly one qubit's sign).  A full
interval's H samples are its amplitudes times the carriers, so only an
interval and its Z1Z2 twin, all amplitudes negated, share a key.  A slot
keeps its builder's sign bits, and a reader whose bits are the other two
takes its orbit's elements ^ 3: a gate layer and its negated twin share
one build, bit for bit, while the inexact relations stay within a call.
The store is a ring of 2048 slots in one array (1 MB), the oldest
overwritten first, and a dict from record to slot, behind one lock: a
numpy buffer per entry fragmented glibc's heap, about 400 minor faults per
oracle_verify op once it held a few hundred ops' entries, against under 1.

The private layers read the device from ``seq.params`` only.
"""

from __future__ import annotations

import math
import sys
import threading
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
_STATE_TOL = 1e-9  # rounding allowed in trace, hermiticity, norms, eigenvalues >= 0 and purity
_UNITARITY_BOUND = 1e-6  # largest unitarity defect in evolve and gate_fidelity


class StepTooCoarse(RuntimeError):
    """A fixed-step propagator's unitarity defect exceeded the allowed bound."""


class NoConvergence(RuntimeError):
    """Oracle substep doubling failed to converge."""


class WrongFrame(ValueError):
    """Frame transformation applied to data in the wrong frame."""


class _GridBeyondCap(ValueError):
    """More grid intervals than the step budget has rows, at any step policy."""


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
        if abs(np.trace(rho) - 1.0) > _STATE_TOL:
            raise ValueError("rho must have unit trace")
        if np.max(np.abs(rho - rho.conj().T)) > _STATE_TOL:
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
        return cls.product_bloch(*([0.0, 0.0, 1.0 - 2.0 * int(bit)] for bit in label))

    @classmethod
    def product_bloch(cls, b1, b2) -> "DensityState":
        """Product state from two single-qubit Bloch vectors."""
        b1 = np.asarray(b1, dtype=float)
        b2 = np.asarray(b2, dtype=float)
        for b in (b1, b2):
            if b.shape != (3,) or np.linalg.norm(b) > 1 + _STATE_TOL:
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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(c))):
            raise ValueError("sample times and coefficients must be finite")
        if t.ndim != 1 or np.any(np.diff(t) <= 0):  # (n, 1) times would pass np.diff
            raise ValueError("sample times must be strictly increasing along one axis")
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
        n = self.steps_per_period
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"steps_per_period must be an integer of at least 1, got {n!r}")
        if n > sys.float_info.max:  # step_target divides by it as a float
            raise ValueError(f"steps_per_period must be at most {sys.float_info.max:.3g}")

    def step_target(self, p: SystemParams) -> float:
        period = 2.0 * math.pi / p.w1z  # w1z > w2z: the smallest period
        return period / self.steps_per_period


# ---------------------------------------------------------------------------
# Time grid and Hamiltonian sampling


def _breakpoints(seq: PulseSequence) -> np.ndarray:
    """Segment edges, ramp ends, flips and a uniform grid of spacing
    t0_sync/8.  A ramp ends at the ends of its segment's flat_top; there the
    raised cosine's second derivative jumps, which would lower either
    scheme's order inside an interval.  Each interval is a row of steps at
    least, so more grid intervals than _STEP_BUDGET's rows are refused from
    total_time alone, before the grid is built."""
    spacing, cap = seq.params.t0_sync / 8.0, _STEP_BUDGET // _BATCH_STEPS
    if (n := math.floor(seq.total_time / spacing + 1e-9)) > cap:
        raise _GridBeyondCap(
            f"{n:.3g} grid intervals exceed the {cap} rows of {_STEP_BUDGET} steps")
    pts = {0.0, seq.total_time}
    for seg in seq.segments:
        pts.add(seg.start)
        pts.add(seg.end)
        if seg.envelope.rise > 0.0:
            pts.update(seg.flat_top)
        if seg.flip_at is not None:
            pts.add(seg.flip_at)
    pts.update(k * spacing for k in range(n + 1))
    out = sorted(t for t in pts if 0.0 <= t <= seq.total_time + 1e-12)
    dedup = [out[0]]
    for t in out[1:]:
        if t - dedup[-1] > 1e-9:
            dedup.append(t)
    return np.asarray(dedup)


# Most steps one call builds in all, stored ones not counted (_stored_products);
# its 2**21 rows of 512 steps also cap the grid (_breakpoints).  They take
# 1.7 GB with the (interval, row) stack (1.6 bytes a step, measured on the
# CNOT), and RK4 at 0.4 us a step (2-core Xeon) 7 minutes.
_STEP_BUDGET = 2 ** 30


def _interval_steps(a, b, h_target):
    """Per interval [a, b], scalars or arrays, the least number of equal
    steps of at most h_target."""
    n = np.maximum(1.0, np.ceil((b - a) / h_target - 1e-9))
    if np.any(n >= 2.0 ** 63):  # beyond int64, where the cast would wrap
        raise ValueError(f"{np.max(n):.3g} steps in one interval do not fit an int64")
    return n.astype(int)


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


def _half_steps(a: np.ndarray, h: np.ndarray, j: np.ndarray, w: int) -> np.ndarray:
    """The half-step grid (k, 2w + 1) of w RK4 steps h from step j of
    intervals from a, each of shape (k, 1): two times a step, and the end."""
    return a + (0.5 * h) * (2 * j + np.arange(2 * w + 1))


def _rk4_steps(hs: np.ndarray, h) -> np.ndarray:
    """Real forms of the RK4 step matrices S = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    of dU/dt = F U, with K1 = F_a, K2 = F_m (I + h/2 K1), K3 = F_m (I + h/2 K2)
    and K4 = F_b (I + h K3), from F = -iH and the real H on the half-step
    grid (2n + 1 times along axis -3).  With A, M, B = H_a, H_m, H_b and
    x = h/2, Re S = I + h/6 (-2x (MA + MM + BM) + 2x^3 BMMA) and
    Im S = h/6 (2x^2 (MMA + BMM) - (A + 4M + B)).  Leading axes batch
    intervals; h is a scalar or broadcasts against hs, as (k, 1, 1, 1).

    The sums are formed in place in five product arrays and copied once
    into the output's blocks, so that a batch's temporaries stay below
    glibc's heap trim threshold: with a fresh array per sum and per block
    (0.7 MB at the peak of a 450-step batch) the heap top was trimmed after
    every warm benchmark gate op and faulted back in, 194 faults per op.
    A ufunc buffers a strided or broadcast operand, a full-size copy at
    these sizes, so the samples are copied into free product arrays first,
    the identity goes onto the diagonal one entry at a time and no ufunc
    writes into the output."""
    a, m, b = hs[..., 0:-1:2, :, :], hs[..., 1::2, :, :], hs[..., 2::2, :, :]
    x = 0.5 * np.asarray(h, dtype=float)
    # powers by multiplication, which rounds alike in any batch; numpy's
    # vectorized power can round differently in the last bit
    x2 = x * x
    x3 = x2 * x
    # the operations of the formulas above in their order, elementwise, so
    # each step rounds alike in any batch; t holds BM, then BMM, then
    # 4M + A + B
    ma, mm, t = m @ a, m @ m, b @ m
    mma = m @ ma
    bmma = b @ mma
    ma += mm
    ma += t
    np.matmul(b, mm, out=t)
    mma += t
    ma *= -2.0 * x
    bmma *= 2.0 * x3
    ma += bmma
    ma *= h / 6.0
    ma += 0.0  # -0.0 to +0.0 off the diagonal, as adding np.eye(4) does
    for i in range(4):
        ma[..., i, i] += 1.0
    mma *= 2.0 * x2
    np.copyto(t, m)
    t *= 4.0
    np.copyto(mm, a)
    t += mm
    np.copyto(mm, b)
    t += mm
    mma -= t
    mma *= h / 6.0
    del mm, t, bmma  # only Re S and Im S stay live beside the output
    out = np.empty(ma.shape[:-2] + (8, 8))
    out[..., :4, :4] = out[..., 4:, 4:] = ma
    out[..., 4:, :4] = mma
    np.negative(mma, out=mma)
    out[..., :4, 4:] = mma
    return out


def _time_ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[..., -1, :, :] @ ... @ mats[..., 0, :, :], by pairwise batched
    products along axis -3."""
    while mats.shape[-3] > 1:
        n = mats.shape[-3]
        paired = mats[..., 1:n:2, :, :] @ mats[..., 0:n - 1:2, :, :]
        mats = np.concatenate([paired, mats[..., n - 1:, :, :]], axis=-3) if n % 2 else paired
    return mats[..., 0, :, :]


# Figures: warm calls on a 2-core Xeon host, and medians of host-adjusted
# ops_per_s from `perfbench/run.py --seconds 8` (seeds 3001-3006, variants
# alternating).  Most padded steps one chunk samples at once: a chunk is a
# run of _CHUNK_STEPS // _BATCH_STEPS = 16 batches.  One _hamiltonians
# call took 175 us for one 450-step interval and 399 us for four; sampling
# once per batch, with no chunk level, took gate_fidelity 235.8 -> 185.8
# ops/s and oracle_verify 63.7 -> 47.8 (6/6 pairs slower).  The cap bounds
# memory: an unmemoized CNOT on the paper's device would sample 208 x 4203
# H matrices (~112 MB) at once.  A chunk's samples are also the largest
# array, and glibc trims the heap above twice the largest it has freed:
# with the oracle's chunk cut to one batch of 512 substeps (196 KB of
# samples, 2 MB of build temporaries), a warm D evolve_oracle on the
# paper's device took 53144 minor faults per call, against none.
_CHUNK_STEPS = 8192
# Most padded steps of a batch, a rectangle of rows built and multiplied
# at once, and the longest row: a power of two, so that a full row is a
# subtree of its interval's pairwise product.  Each benchmark RK4 interval
# (450 steps) is a batch of its own: _rk4_steps took 0.44 ms for one
# interval and 2.82 ms for four in one batch; one batch per chunk took
# gate_fidelity 227.2 -> 182.7 ops/s and oracle_verify 65.4 -> 54.7 (4/4
# slower), peak RSS +1.6 and +6.1 MB.
_BATCH_STEPS = 512


def _interval_products(seq: PulseSequence, a: np.ndarray, b: np.ndarray, counts: np.ndarray,
                       nodes, steps) -> np.ndarray:
    """Real forms of the propagators of the intervals [a_i, b_i], each cut
    into counts_i equal steps; a total beyond _STEP_BUDGET is refused.

    Each interval is cut into rows of at most _BATCH_STEPS steps.  The
    rows, longest first, go in rectangular batches of _BATCH_STEPS // w
    rows, w the first one's length, and the batches in chunks, runs of
    _CHUNK_STEPS // _BATCH_STEPS.  nodes(a, h, j, w) gives the sample times
    of w steps h from step j of each row's interval from a, each of shape
    (k, 1): a (k, s) grid whose steps share samples, or (k, w, q), each
    step's own, taken for real steps only, one step a row; one _hamiltonians
    call samples a chunk's times.  steps(hs, h) makes k rows' (k, w) step
    matrices from their (k, s) samples, h as (k, 1, 1, 1); steps past a
    row's end are the identity.  Each row's product goes into an
    identity-initialised (interval, row) stack, whose pairwise product is
    the result.  Identity padding multiplies exactly, and each full row is
    a subtree of its interval's pairwise product, so every product has the
    bits of building its interval alone."""
    total = counts.sum(dtype=float)  # a float, which cannot wrap
    if total > _STEP_BUDGET:
        raise ValueError(f"{total:.3g} steps exceed the budget of {_STEP_BUDGET} steps a call")
    hs, size = (b - a) / counts, _BATCH_STEPS
    # (interval, first step, steps) per row, longest first; planned in
    # Python, as numpy's per-call cost on these few rows was 5% of a gate op
    rows = sorted(((i, first, min(n - first, size)) for i, n in enumerate(counts.tolist())
                   for first in range(0, n, size)), key=lambda row: -row[2])
    iv, first, n = np.array(rows, dtype=int).reshape(-1, 3).T
    a_r, h_r, j_r = a[iv, None], hs[iv, None], first[:, None]
    batches, lo = [], 0  # per batch: its rows (a slice) and width
    while lo < len(rows):
        w = rows[lo][2]
        batches.append((slice(lo, min(lo + size // w, len(rows))), w))
        lo = batches[-1][0].stop
    stack = np.empty((counts.size, (counts.max(initial=1) - 1) // size + 1, 8, 8))
    stack[...] = np.eye(8)
    run = _CHUNK_STEPS // size  # batches a chunk
    for chunk in (batches[c:c + run] for c in range(0, len(batches), run)):
        cells = []  # per batch: its real steps, the rows its samples are taken as, their times
        for r, w in chunk:
            t, real = nodes(a_r[r], h_r[r], j_r[r], w), np.arange(w) < n[r, None]
            cells.append((real, r, t) if t.ndim == 2  # a grid whose steps share samples
                         else (real, r.start + np.nonzero(real)[0], t[real]))
        per = np.concatenate([np.repeat(iv[rows], t.shape[1]) for _, rows, t in cells])
        ham = _hamiltonians(seq, a[per], b[per], np.concatenate([t.ravel() for *_, t in cells]))
        k0 = 0
        for (r, w), (real, rows, t) in zip(chunk, cells):
            mats = steps(ham[k0:k0 + t.size].reshape(t.shape + (4, 4)), h_r[rows, :, None, None])
            if mats.shape[1] < w:  # the real steps, one to a row, into the rectangle
                mats, built = np.empty(real.shape + (8, 8)), mats
                mats[real] = built[:, 0]
                del built
            if n[r.stop - 1] < w:
                mats[~real] = np.eye(8)
            stack[iv[r], first[r] // size] = _time_ordered_product(mats)
            del mats  # before the next batch builds its steps
            k0 += t.size
        del ham  # before the next chunk samples
    return _time_ordered_product(stack)


def _running_products(prods: np.ndarray) -> np.ndarray:
    """Complex U(t_0) = I, U(t_k) = P_{k-1} ... P_0 from the real forms P_i."""
    return _complex_of(np.array(list(accumulate(prods, lambda u, p: p @ u, initial=np.eye(8)))))


# The Z1 and Z2 eigenvalues of |00>, |01>, |10> and |11>, one row each
_Z_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
# w0/delta and the grid points within this relative distance count as exact
_SYNC_RTOL = 1e-13
# conj on a real form: the sign mask [[1, -1], [-1, 1]] of its 4x4 blocks
_CONJ_MASK = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((4, 4)))
# qubit q's sign, U -> S_q conj(U) S_q^T with S_1 = X1 Y2 and S_2 = Y1 X2
# taken real (iY = ZX), on real forms R: row i of diag(S_q, S_q) holds one
# entry +-1, in column perm[i], so entry (i, j) of the image is
# R[perm[i], perm[j]] times the signs of rows i and j and conj's mask
_SIGN_FLIPS = [np.kron(np.eye(2), (1j * _BASIS[IDX[lab]]).real) for lab in ("XY", "YX")]
_QUBIT_SIGNS = [(abs(s).argmax(axis=1), np.outer(s.sum(1), s.sum(1)) * _CONJ_MASK)
                for s in _SIGN_FLIPS]


def _window_origins(seq: PulseSequence, bps: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per breakpoint interval, its origin, whether it is a full flat grid
    interval, its key's amplitudes and its group element g = f1 + 2 f2 + 4 f_m
    of the memo's relations (module docstring: f_q qubit q's sign, f_m the
    mirror) relative to a reference its orbit shares, the key for a full grid
    interval, one row each.  g ^ g[origin] relates an interval to its origin.

    A full flat grid interval (module docstring) at window w = k // 8 and
    position p = k mod 8 under amplitudes a gets a key in closed form.  The
    shift folds into the amplitudes: the interval is window 0's under
    n = (-1)^w a.  The mirror folds into the position: where p > 3, f_m is
    set and the key takes 7 - p and M n.  Each qubit's sign folds into its
    pair (ax_q, ay_q) of M^f_m n: with lead_q the pair's first nonzero entry
    (0 if none), f_q is set and the key takes the pair negated where
    lead_q < 0.  An undriven qubit's sign is a symmetry, so its bit follows
    the other qubit's (both clear where neither is driven): the two signs
    together are the exact Z1Z2, where one alone moves the interval by
    up to 3e-14 (module docstring).  So intervals share a key exactly when
    one orbit holds them; the first is the origin.

    Sequence mirror: if an interval is not full and every breakpoint,
    segment and flip of a driven qubit is centred on total_time/2 =
    m t0_sync/2, each such i of the second half takes N - 1 - i's origin
    and element ^ 4 ^ sigma, bit q of sigma set where the mirror negates
    qubit q's drive (a qubit no segment drives follows the other's),
    unless a qubit's channels disagree (x and y, say)."""
    a, b = bps[:-1], bps[1:]
    # both carriers flip over t0_sync when w0/delta is an integer to rounding
    r = seq.params.w0 / seq.params.delta
    periodic = abs(r - round(r)) <= _SYNC_RTOL * r
    spacing = seq.params.t0_sync / 8.0
    k = np.rint(a / spacing)
    lo, hi = k * spacing, (k + 1) * spacing  # the nearest grid interval
    full = periodic & (abs(a - lo) <= _SYNC_RTOL * lo) & (abs(b - hi) <= _SYNC_RTOL * hi)
    mid = 0.5 * (a + b)
    for seg in seq.segments:
        # only ramps: a square segment's edge can sit an ulp past the grid
        # point that stands for it among the breakpoints
        if seg.envelope.rise > 0.0:
            top_a, top_b = seg.flat_top
            full &= (mid < seg.start) | (mid > seg.end) | ((a >= top_a) & (b <= top_b))
    # flat envelopes are 1, so sampling at the midpoints gives each
    # interval's constant amplitudes and flip signs
    amps, pos = np.stack(drive_amplitudes_at(seq, mid, mid), axis=1), k % 8
    amps[k // 8 % 2 == 1] *= -1.0
    amps[pos > 3] *= (-1.0, 1.0, -1.0, 1.0)  # M
    pairs = amps.reshape(-1, 2, 2)  # a view: per interval and qubit, (ax, ay)
    lead = np.where(pairs[..., 0] != 0.0, pairs[..., 0], pairs[..., 1])
    flips = np.where(lead == 0.0, lead[:, ::-1], lead) < 0.0  # an idle qubit's follows
    pairs[flips] *= -1.0
    element = flips @ np.array([1, 2]) + 4 * (pos > 3)
    first: dict = {}
    keys = enumerate(zip(full.tolist(), np.minimum(pos, 7 - pos).tolist(), amps.tolist()))
    origin = np.array([first.setdefault((p, *n), i) if f else i for i, (f, p, n) in keys], int)
    span, n, t0 = seq.total_time, a.size, seq.params.t0_sync
    m = round(span / t0)  # the sequence mirror's centre span/2 is m t0/2
    if full.all() or not periodic or m < 1 or np.any(abs(np.concatenate([
            bps + bps[::-1], [m * t0], [seg.start + seg.end for seg in seq.segments],
            [2.0 * seg.flip_at for seg in seq.segments  # the flips that act
             if seg.flip_at is not None and seg.drives_qubit(seg.flip_qubit)]])
            - span) > _SYNC_RTOL * span):
        return origin, full, amps, element
    # per driven channel, its qubit and whether the mirror negates its term
    bits = {(k // 2 + 1, k % 2 ^ m % 2 ^ (seg.flip_qubit == k // 2 + 1))
            for seg in seq.segments for k, amp in enumerate(seg.amplitudes) if amp != 0.0}
    if len({q for q, _ in bits}) == len(bits):  # each qubit's channels agree
        f = dict(bits)  # an idle qubit's bit follows the other's
        sigma = f.get(1, f.get(2, 0)) + 2 * f.get(2, f.get(1, 0))
        i = n // 2 + np.flatnonzero(~full[n // 2:])  # n is even: span/2 is a grid point
        origin[i], element[i] = origin[n - 1 - i], element[n - 1 - i] ^ 4 ^ sigma
    return origin, full, amps, element


class _IntervalStore:
    """Built full intervals' real forms and sign bits (module docstring) in a
    ring of slots, the oldest overwritten first, and per record its slot."""

    def __init__(self, capacity: int):
        self.forms, self.keys, self.slots = np.empty((capacity, 8, 8)), [None] * capacity, {}
        self.signs, self.next, self.lock = np.zeros(capacity, int), 0, threading.Lock()


_STORE = _IntervalStore(2048)  # 1 MB


def _stored_products(seq: PulseSequence, a, b, counts, full, amps, elements) -> tuple:
    """RK4 _interval_products, a full interval read from _STORE or put there
    once built, keyed by _window_origins' amplitudes and elements (module
    docstring), and per interval the element, 0 or 3 (Z1Z2), to its own."""
    p, store, signs = seq.params, _STORE, elements & 3
    device = np.array([p.w1z, p.w2z, p.wxx]).tobytes()
    # + 0.0 turns -0.0 to +0.0; signs 1 and 2 set exactly one qubit's sign
    records = np.column_stack((a, b, counts, amps + 0.0, signs % 3 > 0))
    keys = [device + row.tobytes() if f else None for row, f in zip(records, full.tolist())]
    with store.lock:
        slots = np.array([store.slots.get(key, -1) for key in keys], dtype=int)
        out, z = store.forms[slots], (signs ^ store.signs[slots]) * (slots >= 0)  # copies
    miss = slots < 0
    if miss.any():
        out[miss] = _interval_products(seq, a[miss], b[miss], counts[miss],
                                       _half_steps, _rk4_steps)
    with store.lock:
        for i in np.flatnonzero(full & miss).tolist():
            if keys[i] not in store.slots:  # another thread may have stored it
                slot, store.next = store.next, (store.next + 1) % len(store.keys)
                store.slots.pop(store.keys[slot], None)
                store.keys[slot], store.slots[keys[i]] = keys[i], slot
                store.forms[slot], store.signs[slot] = out[i], signs[i]
    return out, z


def _unitarity_defect(u: np.ndarray) -> float:
    """max |U U^dagger - I| over a stack of 4x4 matrices; nan or inf on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(4))))


def _running_propagators(seq: PulseSequence, policy: StepPolicy,
                         max_defect: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints t_k and the RK4 propagators U(t_k) from time 0 to each.

    Only the intervals that are their own origin (_window_origins) are
    built, the full ones unless stored (_stored_products).  Every other
    interval's real form is its origin's under the relations of the XOR of
    their elements (module docstring): each qubit's sign, a permutation of
    rows and columns times signs, and the mirror, a transpose times conj's
    mask; an origin read from its Z1Z2 twin's slot adds both qubits' signs.
    Raises StepTooCoarse if the unitarity defect of any U(t_k), not only the
    final one (on the CNOT an earlier one is up to 1.3 times larger),
    exceeds max_defect or is not finite."""
    bps = _breakpoints(seq)
    origin, full, amps, elements = _window_origins(seq, bps)
    todo = np.flatnonzero(origin == np.arange(origin.size))  # the intervals to build
    a, b = bps[todo], bps[todo + 1]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked below
        counts = _interval_steps(a, b, policy.step_target(seq.params))
        built, z = _stored_products(seq, a, b, counts, full[todo], amps[todo], elements[todo])
        member = np.searchsorted(todo, origin)
        prods, g = built[member], elements ^ elements[origin] ^ z[member]
        for q, (perm, signs) in enumerate(_QUBIT_SIGNS):
            f = (g >> q & 1) == 1
            prods[f] = prods[f][:, perm[:, None], perm] * signs
        prods[g >= 4] = prods[g >= 4].swapaxes(1, 2) * _CONJ_MASK
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
    policy: StepPolicy = StepPolicy(),
) -> Trajectory:
    """Fixed-step RK4 evolution of rho0 at ``policy`` (default ``StepPolicy()``).

    Samples at every segment boundary, ramp end and flip point plus a
    uniform grid of spacing t0_sync/8.  The state at time t is U rho0
    U^dagger divided by its trace, U = U(t) the propagator, since RK4 is not
    exactly unitary.  Intervals that repeat up to the memo's relations are
    stepped once per call, and a full grid interval that the store holds
    from an earlier call, or its Z1Z2 twin (all amplitudes negated), is
    read (module docstring).  Deterministic: identical inputs yield
    bit-identical trajectories, whatever ran before.
    Raises ValueError if ``p`` is not ``seq.params``, and StepTooCoarse if
    the unitarity defect of any U(t) exceeds 1e-6 (_UNITARITY_BOUND), the
    bound ``gate_fidelity`` applies to any unitary it scores.
    """
    check_device(p, seq)
    rho0.validate()
    return _trajectory(*_running_propagators(seq, policy, _UNITARITY_BOUND), rho0)


def propagator_of_sequence(
    p: SystemParams,
    seq: PulseSequence,
    policy: StepPolicy = StepPolicy(),
) -> np.ndarray:
    """Lab-frame unitary of the full sequence (RK4 on the Schrodinger
    equation for the propagator at ``policy``, default ``StepPolicy()``),
    with intervals reused within and across calls as in ``evolve``.
    Raises StepTooCoarse if its unitarity defect, or that of a running
    propagator on the way, exceeds 1e-9, and ValueError if ``p`` is not
    ``seq.params``."""
    check_device(p, seq)
    return _running_propagators(seq, policy, 1e-9)[1][-1]


# Sixth-order Magnus: the three Gauss-Legendre nodes of a substep
_MAGNUS_NODES = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
# The first pass takes this many substeps per smallest carrier period; each
# further pass doubles every interval's count, at most this many times
_ORACLE_SUBSTEPS = 20
_ORACLE_DOUBLINGS = 8
# W is scaled by 2^-s until max ||W||_1 <= _SERIES_NORM, and the series
# truncated once its bound x^(2K+2)/(2K+2)! e^x is below _SERIES_TOL, at
# degree 9 at most, whose Horner terms j are [I/(2j)!, I/(2j+1)!], I = [I; 0]
_SERIES_NORM = 1.0
_SERIES_TOL = 1e-16
_SERIES_TERMS = [np.tile(np.eye(8, 4), 2) * np.repeat(
    [1.0 / math.factorial(2 * j), 1.0 / math.factorial(2 * j + 1)], 4) for j in range(10)]


def _magnus_nodes(a: np.ndarray, h: np.ndarray, j: np.ndarray, w: int) -> np.ndarray:
    """The three Gauss nodes of each of w substeps h from substep j of
    intervals from a, each of shape (k, 1): (k, w, 3)."""
    base = (a + h * (j + np.arange(w)))[..., None]
    return base + h[..., None] * np.array(_MAGNUS_NODES)


def _expm_skew(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """exp(W) for the real 8x8 forms W of anti-Hermitian 4x4 matrices
    Omega = re + i im = -iG, G Hermitian, so each W is antisymmetric.

    With X = W^2, exp(W) = C + W S for the Horner series
    C = sum_j X^j/(2j)! and S = sum_j X^j/(2j+1)!, the real forms of cos G
    and sin G / G.  A real form is fixed by its first block column, so the
    two series carry only theirs, side by side in one (..., 8, 8) stack,
    and each degree is one matmul and one add.  The degree K is the least
    for which the truncation bound x^(2K+2)/(2K+2)! e^x, x = max ||W||_1
    over the batch, is below 1e-16, so the result is exact to rounding.  A
    batch with x above 1 is scaled by 2^-s first and its real forms squared
    s times.  The oracle's batches hold real substeps only, no padding."""
    w = _real_form(re, im)
    x = float(np.einsum("...ij->...j", np.abs(w)).max(initial=0.0))
    s = math.ceil(math.log2(x / _SERIES_NORM)) if x > _SERIES_NORM else 0
    if s:  # W is copied only to be scaled
        w, x = w / 2.0 ** s, x / 2.0 ** s
    k, bound = 0, 0.5 * x * x * math.exp(x)
    while bound > _SERIES_TOL:
        k += 1
        bound *= x * x / ((2 * k + 1) * (2 * k + 2))
    xx = w @ w
    acc = np.broadcast_to(_SERIES_TERMS[k], w.shape)
    for term in reversed(_SERIES_TERMS[:k]):
        acc = xx @ acc
        acc += term
    col = acc[..., :4] + w @ acc[..., 4:]  # exp(W)'s first block column
    r = _real_form(col[..., :4, :], col[..., 4:, :])
    for _ in range(s):
        r = r @ r
    return r


def _magnus6_steps(hs: np.ndarray, h) -> np.ndarray:
    """Real forms of the sixth-order Magnus substeps exp(Omega) from the
    real symmetric H_j at each substep's three _magnus_nodes, in turn along
    axis -3.

    With A_j = -i H_j: a1 = h A2, a2 = (sqrt(15) h/3)(A3 - A1) and
    a3 = (10 h/3)(A3 - 2 A2 + A1); C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60
    and Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240.  Each a_k is
    -i S_k with S_k real symmetric, and every commutator of two matrices
    that are each symmetric or antisymmetric is one product P and its
    transpose, P - P^T or P + P^T.  The last commutator of anti-Hermitian
    Y and Z is YZ - (YZ)^dagger, and YZ takes four real products.  So
    Omega = R + iI, R antisymmetric and I symmetric, takes 7 real 4x4
    products: S1 S2, S1 S3 and S1 C1, then the four of YZ."""
    h1, h2, h3 = (hs[..., j::3, :, :] for j in range(3))
    s1 = h * h2
    s2 = (math.sqrt(15.0) / 3.0) * h * (h3 - h1)
    s3 = (10.0 / 3.0) * h * (h3 - 2.0 * h2 + h1)
    p = s1 @ s2
    c1 = p.swapaxes(-1, -2) - p  # C1 = -[S1, S2]
    t, u = s1 @ s3, s1 @ c1
    c2r = (t - t.swapaxes(-1, -2)) / 30.0  # C2 = [S1, S3]/30 + i [S1, C1]/60
    # Y = C1 + i (20 S1 + S3) and Z = C2r + i (C2i - S2): YZ = Qr + i Qi
    yi, zi = 20.0 * s1 + s3, (u + u.swapaxes(-1, -2)) / 60.0 - s2
    qr = c1 @ c2r - yi @ zi
    qi = c1 @ zi + yi @ c2r
    return _expm_skew((qr - qr.swapaxes(-1, -2)) / 240.0,
                      (qi + qi.swapaxes(-1, -2)) / 240.0 - s1 - s3 / 12.0)


def _oracle_propagators(seq: PulseSequence) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints t_k and the oracle's propagators U(t_k) from time 0 to
    each.  Each pass doubles every interval's substep count, from 20 per
    smallest carrier period, at most 8 times.  A sixth-order error falls by
    2^6 a doubling, so once ||U_f - U_c||_2 < 63e-9 at every breakpoint
    (the spectral norm), U_f + (U_f - U_c)/63 has an estimated error below
    1e-9 that bounds every state's trace distance."""
    bps = _breakpoints(seq)
    a, b = bps[:-1], bps[1:]
    first = _interval_steps(a, b, StepPolicy(_ORACLE_SUBSTEPS).step_target(seq.params))
    fine = None
    for doublings in range(_ORACLE_DOUBLINGS + 1):
        coarse, fine = fine, _running_products(_interval_products(
            seq, a, b, first << doublings, _magnus_nodes, _magnus6_steps))
        if coarse is not None and np.linalg.norm(fine - coarse, 2, axis=(1, 2)).max() < 63e-9:
            return bps, fine + (fine - coarse) / 63.0
    raise NoConvergence(f"oracle did not converge after {_ORACLE_DOUBLINGS} doublings")


def evolve_oracle(p: SystemParams, seq: PulseSequence, rho0: DensityState) -> Trajectory:
    """Piecewise-exponential propagator oracle, independent of the RK4 route.

    Each substep is the sixth-order Magnus exponential exp(Omega) built
    from the real symmetric H at the substep's three Gauss nodes (its
    midpoint and the midpoint -/+ sqrt(15)/10 of the substep), exact to
    rounding.  Passes from 20 substeps per carrier period, each doubling
    every interval's own count (at most to 5120, else NoConvergence), stop
    once the running propagators U(t_k) have an estimated error below 1e-9
    that bounds every state's trace distance, whatever rho0.  The
    trajectory, as in ``evolve``, is that of their Richardson step.
    Raises ValueError if ``p`` is not ``seq.params``.
    """
    check_device(p, seq)
    rho0.validate()
    return _trajectory(*_oracle_propagators(seq), rho0)


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
    each, after the physical propagator.  They commute, so each qubit's
    angles add up to one row scaling."""
    phi1, phi2 = (sum(angle for qubit, angle in seq.virtual_z if qubit == q) for q in (1, 2))
    return _z_phases(phi1, phi2)[:, np.newaxis] * np.asarray(u, dtype=complex)


def gate_unitary(seq: PulseSequence, policy: StepPolicy = StepPolicy()) -> np.ndarray:
    """The gate ``seq`` realizes on ``seq.params``: its lab propagator at
    ``policy`` (default ``StepPolicy()``) in the rotating frame at
    ``seq.total_time``, then its virtual-z ledger."""
    p = seq.params
    return compose_virtual_z(frame_unitary(p, seq.total_time)
                             @ propagator_of_sequence(p, seq, policy), seq)


def to_rotating_frame(traj: Trajectory, p: SystemParams) -> Trajectory:
    """A lab-frame trajectory in the frame rotating at (w1z, w2z)."""
    if not isinstance(traj, Trajectory):
        raise TypeError(f"cannot frame-transform {type(traj).__name__}")
    if traj.frame != "lab":
        raise WrongFrame(f"expected a lab-frame trajectory, got {traj.frame!r}")
    # V is diagonal, so V rho V^dagger = rho * (v v*^T) elementwise
    v = _z_phases(p.w1z * traj.times, p.w2z * traj.times)
    rhos = (np.eye(4) + np.einsum("na,aij->nij", traj.coeffs, _BASIS)) / 4.0
    rhos *= v[:, :, np.newaxis] * v.conj()[:, np.newaxis, :]
    coeffs = np.real(np.einsum("aij,nji->na", _BASIS, rhos))
    return Trajectory(times=traj.times, coeffs=coeffs, frame="rotating")


def trace_distance(s1: DensityState, s2: DensityState) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(s1.to_matrix() - s2.to_matrix()))))


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
    row = f"%.12g,{traj.frame}" + ",%.12g" * ncols + "\n"
    for t, c in zip(traj.times.tolist(), traj.coeffs[:, :ncols].tolist()):
        fh.write(row % (t, *c))
