"""Norm families, parsing, and the sandwich bounds against diag(1,1,0,...)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cartesian_parts
from matvar import linalg
from matvar.norms import NormSpec, f_ratio_bounds, norm

SQ2 = math.sqrt(2.0)


def _spec_grid():
    specs = [NormSpec.schatten(p) for p in (1, 1.5, 2, 3, math.inf)]
    specs += [NormSpec.kyfan(k) for k in (1, 2, 3)]
    specs += [NormSpec.kyfanpk(p, k) for p in (1, 2, math.inf) for k in (1, 2)]
    specs += [NormSpec.weighted_gauge([1.0] + [0.5] * 15),
              NormSpec.weighted_gauge([1.0, 1.0] + [0.0] * 14)]
    return specs


def test_schatten_values_on_projector():
    f = linalg.f_matrix(2)
    for p in (1.0, 2.0, 3.0):
        assert_allclose(norm(f, NormSpec.schatten(p)), 2.0 ** (1.0 / p), atol=1e-14)
    assert_allclose(norm(f, NormSpec.schatten(math.inf)), 1.0, atol=1e-14)


def test_kyfan_values():
    assert_allclose(norm(linalg.PAULI_X, NormSpec.kyfan(2)), 2.0, atol=1e-14)
    assert_allclose(norm(linalg.PAULI_X, NormSpec.kyfan(1)), 1.0, atol=1e-14)
    with pytest.raises(ValueError, match="exceeds"):
        norm(linalg.PAULI_X, NormSpec.kyfan(3))


def test_commutator_norm_values():
    x, y = linalg.PAULI_X, linalg.PAULI_Z
    assert_allclose(norm(x @ y - y @ x, NormSpec.schatten(2)), 2.0 * SQ2, atol=1e-13)
    # rank-one contraction against a unitary: commutator has singular values (2, 0)
    x3 = np.array([[SQ2, -2 - SQ2], [2 - SQ2, -SQ2]]) / 4.0
    y3 = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQ2
    comm = x3 @ y3 - y3 @ x3
    for p in (1.0, 1.5, 2.0, 4.0, math.inf):
        assert_allclose(norm(comm, NormSpec.schatten(p)), 2.0, atol=1e-12)


def test_kyfanpk_and_gauge():
    x = np.diag([3.0, 2.0, 1.0])
    assert_allclose(norm(x, NormSpec.kyfanpk(2, 2)), math.sqrt(13.0), atol=1e-14)
    assert_allclose(norm(x, NormSpec.kyfanpk(math.inf, 2)), 3.0, atol=1e-14)
    assert_allclose(norm(x, NormSpec.weighted_gauge([1.0, 0.5, 0.25])), 4.25, atol=1e-14)
    with pytest.raises(ValueError, match="entries"):
        norm(x, NormSpec.weighted_gauge([1.0, 0.5]))


def test_spec_validation():
    with pytest.raises(ValueError, match="p >= 1"):
        NormSpec.schatten(0.5)
    for k in (0, 2.5):  # truncated, 2.5 would give order 2
        with pytest.raises(ValueError, match=f"Ky Fan order must be an integer >= 1, got {k}"):
            NormSpec.kyfan(k)
    with pytest.raises(ValueError, match="Ky Fan order must be an integer >= 1, got 2.9"):
        NormSpec.kyfanpk(2, 2.9)  # truncated, it would label itself kyfanpk:2:2
    spec = NormSpec.kyfanpk(2, np.int64(2))  # a numpy integer is a count
    assert spec.label() == "kyfanpk:2:2" and type(spec.k) is int
    with pytest.raises(ValueError, match="nonincreasing"):
        NormSpec.weighted_gauge([0.5, 1.0])
    with pytest.raises(ValueError, match="vanish"):
        NormSpec.weighted_gauge([0.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        NormSpec.weighted_gauge([1.0, -0.1])
    with pytest.raises(ValueError, match="nonempty weight vector"):
        NormSpec.weighted_gauge(())
    with pytest.raises(ValueError, match="family"):
        NormSpec("operator")


def test_parse_round_trip():
    for text in ("schatten:2", "schatten:inf", "kyfan:3", "kyfanpk:2:2",
                 "kyfanpk:inf:1", "gauge:1,0.5,0.25"):
        spec = NormSpec.parse(text)
        assert spec.label() == text
        assert NormSpec.parse(spec.label()) == spec
    with pytest.raises(ValueError, match="bad norm spec"):
        NormSpec.parse("schatten")
    with pytest.raises(ValueError, match="bad norm spec"):
        NormSpec.parse("kyfan:zero")


def test_norm_of_diagonal_matches_sorted_moduli():
    # the singular values of diag(v) are the moduli of v, so each norm is its gauge of |v|
    for trial in range(100):
        rng = np.random.default_rng([201, trial])
        d = int(rng.integers(1, 9))
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        s = np.sort(np.abs(v))[::-1]
        k = min(2, d)
        alpha = np.linspace(1.0, 0.3, 8)
        for spec, want in ((NormSpec.schatten(1), s.sum()),
                           (NormSpec.schatten(2.5), (s**2.5).sum() ** (1 / 2.5)),
                           (NormSpec.schatten(math.inf), s[0]),
                           (NormSpec.kyfan(k), s[:k].sum()),
                           (NormSpec.weighted_gauge(alpha), np.dot(alpha[:d], s))):
            assert_allclose(norm(np.diag(v), spec), want, atol=1e-12 * (1 + s[0]))
    assert_allclose(norm(np.diag([3.0, -4.0]), NormSpec.schatten(2)), 5.0, atol=1e-14)
    assert_allclose(norm(np.diag([1.0, 1.0]), NormSpec.schatten(1)), 2.0, atol=1e-14)


def test_unitary_invariance():
    for trial in range(60):
        rng = np.random.default_rng([202, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        u = linalg.random_unitary(d, rng)
        w = linalg.random_unitary(d, rng)
        for spec in _spec_grid():
            if spec.family in ("kyfan", "kyfanpk") and spec.k > d:
                continue
            a = norm(x, spec)
            b = norm(u @ x @ w, spec)
            assert abs(a - b) <= 1e-10 * (1.0 + a)


def test_triangle_inequality_and_homogeneity():
    for trial in range(60):
        rng = np.random.default_rng([203, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        y = linalg.ginibre(d, rng)
        t = float(rng.standard_normal())
        for spec in _spec_grid():
            if spec.family in ("kyfan", "kyfanpk") and spec.k > d:
                continue
            nx, ny, nxy = norm(x, spec), norm(y, spec), norm(x + y, spec)
            assert nxy <= nx + ny + 1e-10 * (1.0 + nx + ny)
            assert_allclose(norm(t * x, spec), abs(t) * nx, atol=1e-10 * (1 + nx))
            assert nx >= 0.0


def test_kyfan_monotonicity_and_pk_consistency():
    for trial in range(60):
        rng = np.random.default_rng([204, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        prev = 0.0
        for k in range(1, d + 1):
            val = norm(x, NormSpec.kyfan(k))
            assert val >= prev - 1e-12
            prev = val
            # (1, k) mixed norm recovers the plain Ky Fan norm
            assert_allclose(norm(x, NormSpec.kyfanpk(1, k)), val, atol=1e-12 * (1 + val))
        sv = linalg.singular_values(x)
        assert_allclose(norm(x, NormSpec.kyfan(d)), sv.sum(), atol=1e-12 * (1 + sv.sum()))


def test_f_ratio_sandwich_on_fixed_cases():
    f4 = linalg.f_matrix(4)
    lower, ratio, upper = f_ratio_bounds(f4, NormSpec.schatten(2))
    assert_allclose(ratio, 1.0, atol=1e-14)
    assert_allclose(lower, 1.0, atol=1e-14)
    assert_allclose(upper, 1.0, atol=1e-14)
    # trace norm of a rank-one unit: ratio hits the lower bound
    e12 = linalg.basis_matrix(1, 2, 2)
    lower, ratio, upper = f_ratio_bounds(e12, NormSpec.schatten(1))
    assert_allclose(ratio, 0.5, atol=1e-14)
    assert_allclose(lower, 0.5, atol=1e-14)
    with pytest.raises(ValueError, match="dimension at least 2"):
        f_ratio_bounds(np.eye(1), NormSpec.schatten(1))


def test_f_ratio_sandwich_random():
    seeded = linalg.ginibre(6, 11)
    lo, ratio, hi = f_ratio_bounds(seeded, NormSpec.schatten(3))
    assert lo - 1e-10 <= ratio <= hi + 1e-10
    for trial in range(80):
        rng = np.random.default_rng([205, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        specs = list(_spec_grid())
        # random admissible gauges exercise the generic case
        for _ in range(3):
            a = np.sort(rng.random(d))[::-1]
            a[0] += 1e-3  # keep the top weight strictly positive
            specs.append(NormSpec.weighted_gauge(a))
        for spec in specs:
            if spec.family in ("kyfan", "kyfanpk") and spec.k > d:
                continue
            lo, ratio, hi = f_ratio_bounds(x, spec)
            s = 1.0 + hi
            assert lo <= ratio + 1e-9 * s
            assert ratio <= hi + 1e-9 * s
        # the Ky Fan 2-norm itself achieves the lower bound
        lo, ratio, _ = f_ratio_bounds(x, NormSpec.kyfan(2))
        assert_allclose(ratio, lo, atol=1e-12 * (1 + lo))


def test_schatten_ratio_bounds_above_two():
    # for p >= 2 the ratio ||X||_p / ||F||_p is squeezed between
    # ||X||_(2),2 / sqrt(2) and max(||X||_2 / sqrt(2), ||X||_inf)
    for trial in range(60):
        rng = np.random.default_rng([206, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        lo = norm(x, NormSpec.kyfanpk(2, 2)) / SQ2
        hi = max(norm(x, NormSpec.schatten(2)) / SQ2,
                 norm(x, NormSpec.schatten(math.inf)))
        for p in (2.0, 2.5, 3.0, 6.0, math.inf):
            _, r, _ = f_ratio_bounds(x, NormSpec.schatten(p))
            assert lo <= r + 1e-10 * (1 + r)
            assert r <= hi + 1e-10 * (1 + hi)


def test_cartesian_parts_norm_bounds():
    # ||A|| and ||B|| never exceed ||X|| for X = A + iB; Frobenius splits exactly
    for trial in range(60):
        rng = np.random.default_rng([207, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        a, b = cartesian_parts(x)
        fro2 = norm(x, NormSpec.schatten(2)) ** 2
        assert_allclose(norm(a, NormSpec.schatten(2)) ** 2 + norm(b, NormSpec.schatten(2)) ** 2,
                        fro2, atol=1e-10 * (1 + fro2))
        for spec in (NormSpec.schatten(1), NormSpec.schatten(math.inf), NormSpec.kyfan(2)):
            nx = norm(x, spec)
            assert norm(a, spec) <= nx + 1e-10 * (1 + nx)
            assert norm(b, spec) <= nx + 1e-10 * (1 + nx)


def test_cartesian_modulus_schatten_bounds():
    # ||X||_p and || |X|_C ||_p differ by at most 2^|1/2 - 1/p|, with the
    # modulus side smaller for p >= 2 and larger for p <= 2
    for trial in range(60):
        rng = np.random.default_rng([208, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        xc = linalg.modulus(x, "C")
        for p in (2.0, 3.0, 4.0, math.inf):
            factor = 2.0 ** (0.5 - (0.0 if math.isinf(p) else 1.0 / p))
            a = norm(xc, NormSpec.schatten(p))
            b = norm(x, NormSpec.schatten(p))
            assert a <= b + 1e-9 * (1 + b)
            assert b <= factor * a + 1e-9 * (1 + a)
        for p in (1.0, 1.5, 2.0):
            factor = 2.0 ** (0.5 - 1.0 / p)
            a = norm(xc, NormSpec.schatten(p))
            b = norm(x, NormSpec.schatten(p))
            assert b <= a + 1e-9 * (1 + a)
            assert factor * a <= b + 1e-9 * (1 + b)
        # one-sided moduli leave every norm unchanged
        assert_allclose(norm(linalg.modulus(x, "L"), NormSpec.schatten(3)),
                        norm(x, NormSpec.schatten(3)), atol=1e-10 * (1 + b))


def test_cartesian_modulus_kyfan_two_domination():
    # || |X|_C ||_(k),2 <= ||X||_(k),2 for every truncation order k
    for trial in range(60):
        rng = np.random.default_rng([209, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        xc = linalg.modulus(x, "C")
        for k in range(1, d + 1):
            spec = NormSpec.kyfanpk(2, k)
            a = norm(xc, spec)
            b = norm(x, spec)
            assert a <= b + 1e-9 * (1 + b)


NEAR_MAX = 1.7e308


def test_schatten_norms_far_from_unit_scale():
    # at p = 2 the squares of singular values near 1e+-200 would overflow or
    # underflow: the top-scaled form of the other exponents takes over
    f = linalg.f_matrix(3)  # singular values 1, 1, 0
    for c in (1e-200, 1e200, NEAR_MAX / 2):
        for p in (1.0, 2.0, 3.0, math.inf):
            assert norm(c * f, NormSpec.schatten(p)) == pytest.approx(c * 2.0 ** (1.0 / p), rel=1e-15)
    # finite singular values whose 2-norm, sqrt(3) NEAR_MAX, is past the largest float
    with pytest.raises(OverflowError, match="the norm"):
        norm(np.diag([NEAR_MAX, -NEAR_MAX, -NEAR_MAX]), NormSpec.schatten(2))


def test_singular_values_past_the_largest_float_raise_overflow_error():
    # |1.7e308 (1 + i)| is past the largest float: LAPACK's SVD returns NaN,
    # the SVD of the scaled matrix does not, and mapping back overflows
    x = np.diag([NEAR_MAX * (1 + 1j), -NEAR_MAX])
    assert np.isnan(np.linalg.svd(x, compute_uv=False)).all()
    with pytest.raises(OverflowError, match="the singular values"):
        linalg.singular_values(x)
    for spec in (NormSpec.schatten(math.inf), NormSpec.schatten(2)):
        with pytest.raises(OverflowError, match="the singular values"):
            norm(x, spec)
    sv = linalg.singular_values(np.diag([NEAR_MAX, -NEAR_MAX / 2]))
    assert sv.tolist() == [NEAR_MAX, NEAR_MAX / 2]


def test_sums_of_singular_values_near_the_largest_float(recwarn):
    # Ky Fan, trace and gauge norms add singular values: near the largest
    # float the sum is taken top-scaled, and past it raises one OverflowError
    x = np.diag([NEAR_MAX, -NEAR_MAX])
    for spec in (NormSpec.kyfan(2), NormSpec.schatten(1), NormSpec.weighted_gauge([1.0, 1.0])):
        with pytest.raises(OverflowError, match="the norm"):
            norm(x, spec)
        assert norm(x / 4.0, spec) == NEAR_MAX / 2.0
    assert norm(x, NormSpec.kyfan(1)) == NEAR_MAX
    assert norm(x / 4.0, NormSpec.weighted_gauge([2.0, 1.0])) == pytest.approx(0.75 * NEAR_MAX, rel=1e-15)
    # a large weight overflows the same way
    with pytest.raises(OverflowError, match="the norm"):
        norm(np.diag([1e10, 1.0]), NormSpec.weighted_gauge([1e300, 1e300]))
    # the ratio bounds add singular values too, in X's power-of-two unit
    for spec in (NormSpec.schatten(math.inf), NormSpec.schatten(1), NormSpec.kyfan(2)):
        assert f_ratio_bounds(x, spec) == (NEAR_MAX, NEAR_MAX, NEAR_MAX)
    with pytest.raises(OverflowError, match="the ratio bounds"):
        f_ratio_bounds(np.diag([NEAR_MAX, -NEAR_MAX, -NEAR_MAX]), NormSpec.schatten(1))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
