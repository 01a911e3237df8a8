import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flicforq.pauli import (
    PAULI_1Q,
    TWO_QUBIT_LABELS,
    NonCliffordExponent,
    PauliString,
    RotationWord,
    build_cnot_word,
    build_D,
    conjugate_pauli,
    equal_up_to_global_phase,
    parse_word,
    pauli_multiply,
    word_unitary,
)

PHASES = (1, 1j, -1, -1j)
FACTORS = ("I", "X", "Y", "Z")

KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_10 = np.array([0, 0, 1, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex)


def s(label, phase=1):
    return PauliString(phase, label[0], label[1])


def word(*elems):
    return RotationWord(tuple((s(lab), e) for lab, e in elems))


def test_multiply_examples():
    assert pauli_multiply(s("XI"), s("YI")) == s("ZI", 1j)
    assert pauli_multiply(s("II"), s("ZX", -1j)) == s("ZX", -1j)
    # oracle for the [DERIVED] example: direct 4x4 matrix product
    prod = s("ZZ").matrix() @ s("XX").matrix()
    expected = s("YY", -1)
    assert np.allclose(prod, expected.matrix())
    assert pauli_multiply(s("ZZ"), s("XX")) == expected


@pytest.mark.parametrize("phase", PHASES)
def test_matrix_equals_kron_of_factors(phase):
    # the matrices come from a table of the 16 factor products, bit for
    # bit the phase times their Kronecker product, and a fresh array each
    for a, b in itertools.product(FACTORS, FACTORS):
        m = PauliString(phase, a, b).matrix()
        assert np.array_equal(m, phase * np.kron(PAULI_1Q[a], PAULI_1Q[b]))
        m[0, 0] = 7.0
        assert np.array_equal(PauliString(phase, a, b).matrix(),
                              phase * np.kron(PAULI_1Q[a], PAULI_1Q[b]))


def test_multiply_closure_exhaustive():
    # all 256 unit-phase-free products against the 4x4 matrix oracle
    strings = [s(a + b) for a in FACTORS for b in FACTORS]
    for a, b in itertools.product(strings, strings):
        c = pauli_multiply(a, b)
        assert c.phase in PHASES
        assert np.allclose(a.matrix() @ b.matrix(), c.matrix(), atol=1e-15)


def test_multiply_associative_sampled():
    rng = np.random.default_rng(7)
    strings = [
        PauliString(PHASES[rng.integers(4)], FACTORS[rng.integers(4)], FACTORS[rng.integers(4)])
        for _ in range(30)
    ]
    for a, b, c in zip(strings, strings[1:], strings[2:]):
        assert pauli_multiply(pauli_multiply(a, b), c) == pauli_multiply(a, pauli_multiply(b, c))


def test_unit_phase_square_is_identity():
    for a in FACTORS:
        for b in FACTORS:
            sq = pauli_multiply(s(a + b), s(a + b))
            assert sq == s("II")


def test_phase_validation():
    with pytest.raises(ValueError):
        PauliString(0.5, "X", "I")
    with pytest.raises(ValueError):
        PauliString(1, "Q", "I")


def test_word_unitary_x1_full_turn():
    u = word_unitary(word(("XI", 1)))
    assert np.allclose(u, 1j * s("XI").matrix())


def test_word_unitary_empty():
    assert np.allclose(word_unitary(RotationWord(())), np.eye(4))


def test_word_unitary_half_xx():
    u = word_unitary(word(("XX", 0.5)))
    expected = (np.eye(4) + 1j * s("XX").matrix()) / np.sqrt(2)
    assert np.allclose(u, expected, atol=1e-15)


def test_word_unitary_is_unitary():
    u = word_unitary(build_cnot_word())
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


def test_word_time_order():
    # first element acts first: matrix is right-to-left product
    w = word(("XI", 0.5), ("ZI", 0.5))
    u1 = word_unitary(word(("XI", 0.5)))
    u2 = word_unitary(word(("ZI", 0.5)))
    assert np.allclose(word_unitary(w), u2 @ u1)


def test_axis_must_be_unit_phase():
    with pytest.raises(ValueError):
        RotationWord(((s("XI", 1j), 0.5),))
    with pytest.raises(ValueError):
        RotationWord(((s("II"), 0.5),))


def test_build_D_on_00():
    psi = word_unitary(build_D()) @ KET_00
    target = (KET_00 + 1j * KET_11) / np.sqrt(2)
    phi = np.vdot(target, psi)
    assert abs(abs(phi) - 1.0) < 1e-12
    assert np.max(np.abs(psi - phi * target)) < 1e-12


def test_D_fourth_power_identity():
    u = word_unitary(build_D())
    assert np.max(np.abs(np.linalg.matrix_power(u, 4) - np.eye(4))) < 1e-12


def test_D_square_is_pauli_string():
    u = word_unitary(build_D())
    assert np.allclose(u @ u, -s("YY").matrix(), atol=1e-12)


def test_D_factors_commute():
    xx, zz = s("XX"), s("ZZ")
    assert xx.commutes_with(zz)
    assert conjugate_pauli(word(("XX", 0.5)), zz) == zz
    assert conjugate_pauli(word(("ZZ", -0.5)), xx) == xx


def test_xx_half_eighth_power():
    u = word_unitary(word(("XX", 0.5)))
    assert np.max(np.abs(np.linalg.matrix_power(u, 8) - np.eye(4))) < 1e-12


def test_cnot_word_matches_cnot():
    u = word_unitary(build_cnot_word())
    assert equal_up_to_global_phase(u, CNOT, 1e-10)


def test_cnot_word_basis_action():
    u = word_unitary(build_cnot_word())
    out = u @ KET_10
    assert abs(abs(np.vdot(KET_11, out)) - 1.0) < 1e-12
    out = u @ KET_00
    assert abs(abs(np.vdot(KET_00, out)) - 1.0) < 1e-12


def test_conjugate_pauli_derived_example():
    # oracle: matrix conjugation
    w = word(("YI", 0.5))
    u = word_unitary(w)
    result = conjugate_pauli(w, s("ZI"))
    assert np.allclose(u @ s("ZI").matrix() @ u.conj().T, result.matrix(), atol=1e-12)
    assert result == s("XI", -1)


def test_conjugate_identity_fixed():
    for w in (build_D(), build_cnot_word()):
        assert conjugate_pauli(w, s("II")) == s("II")


def test_cnot_heisenberg_table():
    w = build_cnot_word()
    table = {
        "ZI": s("ZI"),
        "XI": s("XX"),
        "IZ": s("ZZ"),
        "IX": s("IX"),
    }
    for lab, expected in table.items():
        assert conjugate_pauli(w, s(lab)) == expected


@pytest.mark.parametrize("w", [build_D(), build_cnot_word(), word(("YZ", 1.5), ("ZX", -0.5))])
def test_conjugation_matches_matrix_level(w):
    u = word_unitary(w)
    for lab in TWO_QUBIT_LABELS:
        sym = conjugate_pauli(w, s(lab))
        assert np.allclose(u @ s(lab).matrix() @ u.conj().T, sym.matrix(), atol=1e-12)


NON_IDENTITY = [s(a + b) for a in FACTORS for b in FACTORS if a + b != "II"]


@pytest.mark.parametrize("exponent", [0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0])
def test_single_rotation_conjugation_matches_matrix_level(exponent):
    # every axis against every string and phase; an exponent of +-1 about
    # an anticommuting axis flips the sign of the string
    for axis in NON_IDENTITY:
        w = RotationWord(((axis, exponent),))
        u = word_unitary(w)
        for string in NON_IDENTITY:
            for phase in PHASES:
                p = string.with_phase(phase)
                assert np.allclose(u @ p.matrix() @ u.conj().T, conjugate_pauli(w, p).matrix(),
                                   atol=1e-12)


def test_non_clifford_exponent_raises():
    with pytest.raises(NonCliffordExponent):
        conjugate_pauli(word(("XI", 0.25)), s("ZI"))


def test_equal_up_to_global_phase():
    u = word_unitary(build_cnot_word())
    assert equal_up_to_global_phase(u, 1j * u, 1e-12)
    assert equal_up_to_global_phase(CNOT, u, 1e-10)
    assert not equal_up_to_global_phase(CNOT, np.eye(4), 1e-10)


def test_equal_up_to_global_phase_zero_matrices():
    # no phase candidate exists, so the plain difference decides
    zero = np.zeros((4, 4))
    assert equal_up_to_global_phase(zero, zero, 0.0)
    assert not equal_up_to_global_phase(zero, 1e-3 * np.eye(4), 1e-4)
    assert equal_up_to_global_phase(zero, 1e-3 * np.eye(4), 1e-3)


@pytest.mark.parametrize("call, message", [
    (lambda: equal_up_to_global_phase(np.eye(4), np.eye(2), 1e-12), "shape mismatch"),
    (lambda: parse_word("X2Y2^1/2"), "qubit 2 named twice in axis 'X2Y2'"),
    (lambda: parse_word("^1/2"), "empty axis"),
], ids=["shape-mismatch", "qubit-2-twice", "empty-axis"])
def test_pauli_rejections(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_parse_cnot_word():
    assert parse_word("X2^1/2 Y1^1/2 X1X2^1/2 Y1^-1/2 Z1^1/2") == build_cnot_word()


# each axis text with the unit-phase Pauli string it names
AXES = {f + "1": PauliString(1, f, "I") for f in "XYZ"} \
    | {f + "2": PauliString(1, "I", f) for f in "XYZ"} \
    | {f1 + "1" + f2 + "2": PauliString(1, f1, f2) for f1 in "XYZ" for f2 in "XYZ"}
# each exponent text with the float it names
EXPONENTS = st.one_of(
    st.builds(lambda n, d: (f"{n}/{d}", n / d), st.integers(-2000, 2000), st.integers(1, 2000)),
    st.integers(-5, 5).map(lambda n: (str(n), float(n))),
    st.floats(-4.0, 4.0).map(lambda x: (repr(x), x)),
)


@settings(max_examples=50)
@given(tokens=st.lists(st.tuples(st.sampled_from(sorted(AXES)), EXPONENTS), max_size=6))
def test_parse_word_property(tokens):
    # fractions, integers and float reprs parse to the correctly rounded
    # float they name, each on the axis its text names, in order
    w = parse_word(" ".join(f"{axis}^{text}" for axis, (text, _) in tokens))
    assert w == RotationWord(tuple((AXES[axis], value) for axis, (_, value) in tokens))


def test_parse_rejects_bad_tokens():
    # an exponent beyond the float range overflows in float(Fraction(...))
    for bad in ("Q1^1/2", "X1", "X1^", "X1X1^1/2", "X1^a/b", "X1^1e400", "X1^-1e400"):
        with pytest.raises(ValueError):
            parse_word(bad)
