"""Exact algebra of two-qubit Pauli strings and Pauli-rotation words.

Conventions, used everywhere in this package:

* Computational basis ordering |00>, |01>, |10>, |11>, with the first
  label belonging to qubit 1 and sigma^z |0> = +|0>.
* A rotation ``P^a`` for a Pauli string P means ``exp(i*a*pi*P/2)``, so
  ``X1 = i*sigma_1^x`` and ``(X1X2)^(1/2) = (1 + i*sigma_1^x sigma_2^x)/sqrt(2)``.
* Words are time-ordered: the first element of a word acts first, so the
  matrix of a word is the right-to-left product of its element matrices.
* Gate comparisons always quotient out a single global phase; relative
  phases are never quotiented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "PauliString",
    "RotationWord",
    "NonCliffordExponent",
    "PAULI_1Q",
    "TWO_QUBIT_LABELS",
    "pauli_multiply",
    "word_unitary",
    "conjugate_pauli",
    "build_D",
    "build_cnot_word",
    "equal_up_to_global_phase",
    "parse_word",
]


class NonCliffordExponent(ValueError):
    """Symbolic conjugation requested for a word that leaves the Pauli group."""


PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_KRON = {(a, b): np.kron(ma, mb) for a, ma in PAULI_1Q.items() for b, mb in PAULI_1Q.items()}

# Single-qubit products sigma_a * sigma_b = phase * sigma_c.
_MUL_1Q = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}

_PHASES = (1, 1j, -1, -1j)

# Canonical ordering of the 15 non-identity two-qubit strings: qubit-1
# singles, qubit-2 singles, then the nine two-body products.  The density
# operator coefficient vectors of the integrator follow this order.
TWO_QUBIT_LABELS = (
    "XI", "YI", "ZI",
    "IX", "IY", "IZ",
    "XX", "XY", "XZ",
    "YX", "YY", "YZ",
    "ZX", "ZY", "ZZ",
)


@dataclass(frozen=True)
class PauliString:
    """A two-qubit Pauli string ``phase * (factor1 x factor2)``.

    ``phase`` is a fourth root of unity and ``factor1``/``factor2`` are
    single-qubit Pauli labels in {I, X, Y, Z}.
    """

    phase: complex
    factor1: str
    factor2: str

    def __post_init__(self):
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be a fourth root of unity, got {self.phase!r}")
        for f in (self.factor1, self.factor2):
            if f not in PAULI_1Q:
                raise ValueError(f"unknown Pauli factor {f!r}")

    @property
    def is_identity(self) -> bool:
        return self.factor1 == "I" and self.factor2 == "I"

    def matrix(self) -> np.ndarray:
        """4x4 matrix of the string in the |00>,|01>,|10>,|11> basis."""
        return self.phase * _KRON[self.factor1, self.factor2]

    def commutes_with(self, other: "PauliString") -> bool:
        anti = 0
        for a, b in ((self.factor1, other.factor1), (self.factor2, other.factor2)):
            if a != "I" and b != "I" and a != b:
                anti += 1
        return anti % 2 == 0

    def with_phase(self, phase: complex) -> "PauliString":
        return PauliString(phase, self.factor1, self.factor2)


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product of two Pauli strings with exact phase bookkeeping."""
    p1, f1 = _MUL_1Q[a.factor1, b.factor1]
    p2, f2 = _MUL_1Q[a.factor2, b.factor2]
    return PauliString(a.phase * b.phase * p1 * p2, f1, f2)


def _string(label: str, phase: complex = 1) -> PauliString:
    return PauliString(phase, label[0], label[1])


# Matrices of the 15 canonical strings, in TWO_QUBIT_LABELS order.
def basis_matrices() -> np.ndarray:
    """(15, 4, 4) array of the canonical non-identity Pauli string matrices."""
    return np.stack([_string(lab).matrix() for lab in TWO_QUBIT_LABELS])


@dataclass(frozen=True)
class RotationWord:
    """Time-ordered product of Pauli-string rotations (axis, exponent).

    The first element acts first; ``unitary`` of a word is therefore the
    right-to-left product of element unitaries ``exp(i*a*pi*P/2)``.  Axes
    must carry phase +1 so that the exponential is well defined.
    """

    elements: tuple[tuple[PauliString, float], ...]

    def __post_init__(self):
        for axis, _ in self.elements:
            if axis.phase != 1:
                raise ValueError("rotation axes must be unit-phase Pauli strings")
            if axis.is_identity:
                raise ValueError("rotation axis must be a non-identity Pauli string")

    def __iter__(self):
        return iter(self.elements)


def _element_unitary(axis: PauliString, exponent: float) -> np.ndarray:
    theta = exponent * np.pi / 2.0
    return np.cos(theta) * np.eye(4, dtype=complex) + 1j * np.sin(theta) * axis.matrix()


def word_unitary(w: RotationWord) -> np.ndarray:
    """4x4 unitary of a rotation word (first element acts first)."""
    u = np.eye(4, dtype=complex)
    for axis, exponent in w:
        u = _element_unitary(axis, exponent) @ u
    return u


def conjugate_pauli(w: RotationWord, p: PauliString) -> PauliString:
    """Heisenberg-picture map U p U^dag for a Clifford word U.

    Every exponent must be a multiple of 1/2, otherwise the conjugation
    leaves the Pauli group and NonCliffordExponent is raised.
    """
    for axis, exponent in w:
        half_steps = exponent * 2.0
        if abs(half_steps - round(half_steps)) > 1e-12:
            raise NonCliffordExponent(
                f"exponent {exponent} is not a multiple of 1/2"
            )
        m = int(round(half_steps)) % 4  # quarter-turns of the conjugation action
        if axis.commutes_with(p) or m == 0:
            continue
        if m == 2:
            p = p.with_phase(-p.phase)
        else:
            # exp(i a pi A/2) P exp(-i a pi A/2) = +-i A P for a = +-1/2 mod 2
            q = pauli_multiply(axis, p)
            sign = 1j if m == 1 else -1j
            p = q.with_phase(sign * q.phase)
    return p


def build_D() -> RotationWord:
    """The entangling pi rotation (X1X2)^(1/2) followed by (Z1Z2)^(-1/2).

    The two factors commute, so the time order is immaterial.  Applied to
    |00> it produces (|00> + i|11>)/sqrt(2) up to a global phase.
    """
    return RotationWord((
        (_string("XX"), 0.5),
        (_string("ZZ"), -0.5),
    ))


def build_cnot_word() -> RotationWord:
    """Five-rotation decomposition of CNOT (qubit 1 control), time-ordered:

        X2^(1/2)  Y1^(1/2)  (X1X2)^(1/2)  Y1^(-1/2)  Z1^(1/2)
    """
    return RotationWord((
        (_string("IX"), 0.5),
        (_string("YI"), 0.5),
        (_string("XX"), 0.5),
        (_string("YI"), -0.5),
        (_string("ZI"), 0.5),
    ))


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True iff min over unit phases phi of max-norm ||u - phi*v|| <= tol."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise ValueError("shape mismatch")
    candidates = []
    tr = np.trace(v.conj().T @ u)
    if abs(tr) > 1e-14:
        candidates.append(tr / abs(tr))
    k = np.argmax(np.abs(v))
    if np.abs(v).flat[k] > 1e-14 and abs(u.flat[k]) > 1e-14:
        r = u.flat[k] / v.flat[k]
        candidates.append(r / abs(r))
    if not candidates:
        return bool(np.max(np.abs(u - v)) <= tol)
    return min(np.max(np.abs(u - phi * v)) for phi in candidates) <= tol


# ---------------------------------------------------------------------------
# Text grammar: whitespace-separated tokens "<axis>^<num>[/<den>]" with axis
# in {X1, Y1, Z1, X2, Y2, Z2} or a qubit-1 factor followed by a qubit-2
# factor, e.g. "X2^1/2 Y1^1/2 X1X2^1/2 Y1^-1/2 Z1^1/2".

_AXIS_CHARS = set("XYZ")


def _parse_axis(text: str) -> PauliString:
    f1 = f2 = "I"
    i = 0
    while i < len(text):
        if i + 1 >= len(text) or text[i] not in _AXIS_CHARS or text[i + 1] not in "12":
            raise ValueError(f"bad axis token {text!r}")
        if text[i + 1] == "1":
            if f1 != "I":
                raise ValueError(f"qubit 1 named twice in axis {text!r}")
            f1 = text[i]
        else:
            if f2 != "I":
                raise ValueError(f"qubit 2 named twice in axis {text!r}")
            f2 = text[i]
        i += 2
    if f1 == "I" and f2 == "I":
        raise ValueError("empty axis")
    return PauliString(1, f1, f2)


def parse_word(text: str) -> RotationWord:
    """Parse a whitespace-separated rotation word, e.g. "X2^1/2 Y1^-1/2"."""
    elements = []
    for token in text.split():
        if "^" not in token:
            raise ValueError(f"token {token!r} lacks an exponent")
        axis_text, _, expo_text = token.partition("^")
        axis = _parse_axis(axis_text)
        try:
            exponent = float(Fraction(expo_text))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"bad exponent in token {token!r}") from exc
        elements.append((axis, exponent))
    return RotationWord(tuple(elements))
