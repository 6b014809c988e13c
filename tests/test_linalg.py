"""Core linear algebra: singular values, moduli, validators, ensembles."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cartesian_parts
from matvar import geometry, linalg


# ---------------------------------------------------------------------------
# independent eigenvalue oracle: inertia counting by symmetric elimination
# (Sylvester's law of inertia) plus bisection.  No call into numpy's
# eigensolvers, so it cross-checks modulus from a different route.


def _count_below(hmat, x):
    d = hmat.shape[0]
    a = (hmat - x * np.eye(d)).astype(np.complex128).copy()
    neg = 0
    for k in range(d):
        piv = a[k, k].real
        if abs(piv) < 1e-13 * (1.0 + np.abs(a).max()):
            return None  # pivot breakdown; caller nudges the shift
        if piv < 0:
            neg += 1
        col = a[k + 1:, k].copy()
        if col.size:
            a[k + 1:, k + 1:] -= np.outer(col, col.conj()) / piv
    return neg


def _count_below_safe(hmat, x):
    shift = 0.0
    for _ in range(8):
        c = _count_below(hmat, x + shift)
        if c is not None:
            return c
        shift = 1e-11 + 3.0 * shift
    raise RuntimeError("persistent pivot breakdown")


def _oracle_eigs(hmat, tol=1e-12):
    d = hmat.shape[0]
    radius = float(np.abs(hmat).sum(axis=1).max()) + 1.0
    out = []
    for k in range(d):
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _count_below_safe(hmat, mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out[::-1])


# Values produced by _oracle_eigs(random_hermitian(8, 7)), frozen.
_EIGS_8_SEED7 = np.array([
    2.388543346363953, 1.3480619747074538, 0.6334369262456606,
    -0.41982665930581003, -0.7121275836473899, -1.5140308539733092,
    -2.154477855262778, -3.8226875797739037,
])


def test_modulus_matches_inertia_bisection_oracle():
    # |H| of a Hermitian H has the moduli of H's eigenvalues for its own
    h = linalg.random_hermitian(8, 7)
    w = np.linalg.eigvalsh(linalg.modulus(h, "L"))
    assert_allclose(np.sort(w), np.sort(np.abs(_EIGS_8_SEED7)), atol=1e-8, rtol=0)
    assert_allclose(_oracle_eigs(h), _EIGS_8_SEED7, atol=1e-9, rtol=0)


def test_singular_values_examples():
    e12 = linalg.basis_matrix(1, 2, 2)
    assert_allclose(linalg.singular_values(e12), [1.0, 0.0], atol=1e-14)
    assert_allclose(linalg.singular_values(linalg.PAULI_Z), [1.0, 1.0], atol=1e-14)
    # rank-one contraction paired with a unitary, and their commutator
    x3 = np.array([[np.sqrt(2), -2 - np.sqrt(2)], [2 - np.sqrt(2), -np.sqrt(2)]]) / 4.0
    y3 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert_allclose(linalg.singular_values(x3), [1.0, 0.0], atol=1e-12)
    assert_allclose(linalg.singular_values(y3), [1.0, 1.0], atol=1e-12)
    comm = x3 @ y3 - y3 @ x3
    assert_allclose(linalg.singular_values(comm), [2.0, 0.0], atol=1e-12)


def test_singular_values_match_gram_eigenvalues():
    for trial in range(200):
        rng = np.random.default_rng([102, trial])
        d = int(rng.integers(1, 13))
        x = linalg.ginibre(d, rng)
        sv = linalg.singular_values(x)
        w = np.linalg.eigvalsh(x.conj().T @ x)[::-1]
        assert_allclose(sv**2, np.clip(w, 0, None), atol=1e-10 * (1 + w.max()))
        u = linalg.random_unitary(d, rng)
        assert_allclose(linalg.singular_values(u @ x), sv, atol=1e-11 * (1 + sv[0]))
        assert_allclose(linalg.singular_values(x @ u), sv, atol=1e-11 * (1 + sv[0]))


def test_modulus_kinds_on_nilpotent_unit():
    e12 = linalg.basis_matrix(1, 2, 2)
    assert_allclose(linalg.modulus(e12, "L"), np.diag([0.0, 1.0]), atol=1e-14)
    assert_allclose(linalg.modulus(e12, "R"), np.diag([1.0, 0.0]), atol=1e-14)
    assert_allclose(linalg.modulus(e12, "C"), np.diag([1.0, 1.0]) / np.sqrt(2.0), atol=1e-14)


def test_modulus_properties():
    for trial in range(100):
        rng = np.random.default_rng([103, trial])
        d = int(rng.integers(1, 11))
        x = linalg.ginibre(d, rng)
        left = linalg.modulus(x, "L")
        right = linalg.modulus(x, "R")
        cart = linalg.modulus(x, "C")
        scale = 1.0 + np.abs(x).max() ** 2
        # left and right moduli share a spectrum
        wl = np.linalg.eigvalsh(left)
        wr = np.linalg.eigvalsh(right)
        assert_allclose(wl, wr, atol=1e-10 * scale)
        # Cartesian modulus squared averages the one-sided squares
        assert_allclose(cart @ cart, 0.5 * (left @ left + right @ right), atol=1e-10 * scale)
        # moduli of a normal matrix coincide
        z = linalg.random_normal_matrix(d, rng)
        zs = 1.0 + np.abs(z).max() ** 2
        assert_allclose(linalg.modulus(z, "L"), linalg.modulus(z, "R"), atol=1e-9 * zs)
        assert_allclose(linalg.modulus(z, "L"), linalg.modulus(z, "C"), atol=1e-9 * zs)


def test_modulus_diagonal_and_pauli():
    # a diagonal matrix's moduli are the moduli of its entries; a unitary's are I
    for kind in linalg.MODULUS_KINDS:
        assert_allclose(linalg.modulus(np.diag([3.0, -1.0, 2.0]), kind), np.diag([3.0, 1.0, 2.0]),
                        atol=1e-14)
        for pauli in (linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z):
            assert_allclose(linalg.modulus(pauli, kind), np.eye(2), atol=1e-14)


def test_modulus_reconstructs_many_random_samples():
    for trial in range(1000):
        rng = np.random.default_rng([101, trial])
        d = int(rng.integers(1, 17))
        x = linalg.ginibre(d, rng)
        scale = 1.0 + np.abs(x).max() ** 2
        for kind in linalg.MODULUS_KINDS:
            m = linalg.modulus(x, kind)
            assert np.array_equal(m, m.conj().T)
            assert np.linalg.eigvalsh(m).min() >= -1e-12 * scale
            assert_allclose(m @ m, linalg.modulus_squared(x, kind), atol=1e-10 * scale)


def test_modulus_squared_cartesian_identity():
    # |X|_C^2 equals A^2 + B^2 for the Cartesian parts X = A + iB
    for trial in range(50):
        rng = np.random.default_rng([104, trial])
        d = int(rng.integers(1, 9))
        x = linalg.ginibre(d, rng)
        a, b = cartesian_parts(x)
        assert_allclose(linalg.modulus_squared(x, "C"), a @ a + b @ b,
                        atol=1e-12 * (1 + np.abs(x).max() ** 2))


def test_modulus_rejects_bad_kind():
    with pytest.raises(ValueError, match="kind"):
        linalg.modulus(np.eye(2), "Q")


def test_fixed_matrices():
    e21 = linalg.basis_matrix(2, 1, 3)
    assert e21[1, 0] == 1.0 and np.abs(e21).sum() == 1.0
    assert_allclose(linalg.f_matrix(4), np.diag([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        linalg.f_matrix(1)
    with pytest.raises(ValueError):
        linalg.basis_matrix(0, 1, 2)
    with pytest.raises(ValueError):
        linalg.basis_matrix(1, 3, 2)
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        linalg.basis_matrix(1, 1, 0)
    assert_allclose(linalg.PAULI_X, [[0, 1], [1, 0]])
    assert_allclose(linalg.PAULI_Y, [[0, 1j], [-1j, 0]])
    assert_allclose(linalg.PAULI_Z, [[1, 0], [0, -1]])


def test_validators():
    with pytest.raises(ValueError, match="2-D"):
        linalg.as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix([[np.inf, 0], [0, 0]])
    with pytest.raises(ValueError, match="square"):
        linalg.require_square(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not Hermitian: deviation 1.000e\\+00 exceeds 1.0e-10"):
        linalg.as_density([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="trace"):
        linalg.as_density(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        linalg.as_density(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="norm"):
        linalg.as_unit_vector([1.0, 1.0])
    for v in ([], [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite nonempty vector"):
            linalg.as_unit_vector(v)
    v = linalg.as_unit_vector([1.0, 0.0])
    assert v.shape == (2,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unscaled_maps_back_scalars_and_arrays_alike():
    # Python scalars take a fast path, numpy scalars and arrays the numpy one:
    # the same product below the largest float, the same error past it
    unit = 2.0**1023
    for q in (3.0, 3j, np.float64(3.0), np.array([3.0, -1j])):
        small = q / 4.0
        assert np.array_equal(linalg._unscaled(small, unit, "value"), small * unit)
        assert type(linalg._unscaled(small, unit, "value")) is type(small * unit)
        with pytest.raises(OverflowError) as err:
            linalg._unscaled(q, unit, "value")
        assert str(err.value) == f"the value, {unit!r} times 3.0, overflows"


def test_overflow_message_reads_a_numpy_unit_as_a_plain_float():
    # a NumPy scalar unit is written as the float it is, not as its repr
    with pytest.raises(OverflowError) as err:
        geometry.murthy_sethi_bound(np.float64(-1e200), np.float64(1e200))
    assert str(err.value) == "the variance bound, 1e+200 times 1e+200, overflows"
    with pytest.raises(OverflowError) as err:
        linalg._unscaled(np.float64(3.0), np.float64(2.0**1023), "value")
    assert "np.float64" not in str(err.value)


def test_modulus_names_a_square_past_the_largest_float():
    # the square is checked once, where it is formed, with no RuntimeWarning
    for kind in linalg.MODULUS_KINDS:
        for square in (linalg.modulus_squared, linalg.modulus):
            with pytest.raises(OverflowError, match=f"^the squared {kind} modulus overflows$"):
                square(np.diag([1e200, 1.0]), kind)


def test_ensembles_deterministic_and_well_formed():
    assert_allclose(linalg.ginibre(4, 11), linalg.ginibre(4, 11))
    assert not np.allclose(linalg.ginibre(4, 11), linalg.ginibre(4, 12))

    h = linalg.random_hermitian(5, 3)
    assert linalg.is_hermitian(h)

    u = linalg.random_unitary(6, 9)
    assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

    z = linalg.random_normal_matrix(5, 4)
    assert np.abs(z @ z.conj().T - z.conj().T @ z).max() <= 1e-12 * (1 + np.abs(z).max() ** 2)

    pts = linalg.random_point_set(9, 5)
    assert pts.shape == (9,) and np.iscomplexobj(pts)
    with pytest.raises(ValueError, match="at least one point"):
        linalg.random_point_set(0, 5)
