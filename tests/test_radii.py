"""Matrix radii, quantum variance, and the numerical range."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from matvar import geometry, linalg, radii
from matvar.geometry import enclosing_circle
from matvar.norms import NormSpec, norm

SQ2 = math.sqrt(2.0)
E12 = linalg.basis_matrix(1, 2, 2)


def _second_moment_about(x, rho, c, kind):
    d = np.shape(x)[0]
    m = linalg.modulus_squared(x - c * np.eye(d), kind)
    return float(np.trace(rho @ m).real)


def test_quantum_variance_examples():
    half = np.eye(2) / 2.0
    for kind in "LRC":
        assert_allclose(radii.quantum_variance(linalg.PAULI_Z, half, kind), 1.0, atol=1e-14)
    # pure eigenvector state has zero variance
    pure = np.diag([1.0, 0.0]).astype(complex)
    for kind in "LRC":
        assert_allclose(radii.quantum_variance(linalg.PAULI_Z, pure, kind), 0.0, atol=1e-14)
    with pytest.raises(ValueError, match="mismatch"):
        radii.quantum_variance(linalg.PAULI_Z, np.eye(3) / 3.0, "L")
    with pytest.raises(ValueError, match="kind"):
        radii.quantum_variance(linalg.PAULI_Z, half, "A")


def test_quantum_variance_near_the_largest_float(recwarn):
    # X is scaled by a power of two before |X|^2 is formed, and the variance
    # is mapped back by its square: exact far from unit scale, and past the
    # largest float one OverflowError
    x = np.diag([1.0, -1.0, -1.0])
    third = np.eye(3) / 3.0
    for kind in "LRC":
        for c in (1e-150, 1e150):
            assert radii.quantum_variance(c * x, third, kind) == pytest.approx(8.0 / 9.0 * c * c, rel=1e-15)
        with pytest.raises(OverflowError, match="the variance"):
            radii.quantum_variance(1.7e308 * x, third, kind)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_quantum_variance_of_normal_matrix_is_scalar_variance():
    from matvar.geometry import variance

    for trial in range(40):
        rng = np.random.default_rng([401, trial])
        d = int(rng.integers(2, 9))
        u = linalg.random_unitary(d, rng)
        lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x = (u * lam) @ u.conj().T
        p = rng.random(d)
        p /= p.sum()
        rho = (u * p) @ u.conj().T
        want = variance(lam, p)
        for kind in "LRC":
            got = radii.quantum_variance(x, rho, kind)
            assert_allclose(got, want, atol=1e-10 * (1 + abs(want)))


def test_second_moment_translation_identity():
    # moving the center away from the mean costs exactly the squared distance
    for trial in range(60):
        rng = np.random.default_rng([402, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        rho = linalg.random_density(d, int(rng.integers(1, d + 1)), rng)
        sigma = linalg.random_density(d, int(rng.integers(1, d + 1)), rng)
        e_rho = complex(np.trace(rho @ x))
        e_sig = complex(np.trace(sigma @ x))
        for kind in "LRC":
            gain = (_second_moment_about(x, rho, e_sig, kind)
                    - _second_moment_about(x, rho, e_rho, kind))
            assert_allclose(gain, abs(e_sig - e_rho) ** 2,
                            atol=1e-10 * (1 + abs(gain)))


def test_max_variance_examples():
    val, psi = radii.max_variance(linalg.PAULI_Z, "C")
    assert_allclose(val, 1.0, atol=1e-9)
    assert abs(np.vdot(psi, linalg.PAULI_Z @ psi)) <= 1e-6
    val, _ = radii.max_variance(E12, "C")
    assert_allclose(val, 0.5, atol=1e-9)
    val, psi = radii.max_variance(1.5 * np.eye(3), "L")
    assert val == 0.0 and abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_max_variance_is_bounded_by_squared_radius():
    for trial in range(25):
        rng = np.random.default_rng([403, trial])
        d = int(rng.integers(2, 8))
        x = linalg.ginibre(d, rng)
        for kind in "LRC":
            res = radii.radius(x, kind, restarts=6, seed=trial)
            val, psi = res.primal_value, res.witness
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10
            assert val <= res.value**2 + 1e-9 * (1 + res.value**2)
            # witness reproduces the reported primal value
            direct = radii.quantum_variance(x, np.outer(psi, psi.conj()), kind)
            assert_allclose(direct, val, atol=1e-9 * (1 + val))


def test_radius_closed_forms():
    for kind, want in (("L", 1.0), ("R", 1.0), ("C", 2.0**-0.5)):
        res = radii.radius(E12, kind)
        assert_allclose(res.value, want, atol=1e-9)
        assert abs(res.y_star) <= 1e-6
        assert res.gap <= 1e-6 * (1 + res.value**2)
    res = radii.radius(linalg.PAULI_Z, "C")
    assert_allclose(res.value, 1.0, atol=1e-9)
    res = radii.radius(2.5j * np.eye(3), "C")
    assert res.value == 0.0 and res.y_star == 2.5j


def test_radius_of_nilpotent_unit_matches_shift_scan():
    # || e12 - y 1 ||_inf^2 = |y|^2 + (1 + sqrt(1 + 4|y|^2)) / 2 depends only
    # on |y|; scan radially and compare against the solver
    s = np.linspace(0.0, 2.0, 2001)
    scan = np.sqrt(s**2 + 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * s**2)))
    res = radii.radius(E12, "L")
    assert_allclose(res.value, scan.min(), atol=1e-9)
    # Cartesian analogue: lam_max = 1/2 + |y|^2 + |y|
    scan_c = np.sqrt(0.5 + s**2 + s)
    res = radii.radius(E12, "C")
    assert_allclose(res.value, scan_c.min(), atol=1e-9)


def test_radius_dual_gap_and_kind_ordering():
    for trial in range(20):
        rng = np.random.default_rng([404, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        vals = {}
        for kind in "LRC":
            res = radii.radius(x, kind, seed=trial)
            rel = res.gap / (1.0 + res.value**2)
            assert rel <= 1e-6
            vals[kind] = res.value
        assert abs(vals["L"] - vals["R"]) <= 1e-8 * (1 + vals["L"])
        assert vals["C"] <= vals["L"] + 1e-8 * (1 + vals["L"])


def test_radius_covariance_under_shift_rotation_scaling():
    for trial in range(10):
        rng = np.random.default_rng([405, trial])
        d = int(rng.integers(2, 7))
        x = linalg.ginibre(d, rng)
        c = complex(rng.standard_normal(), rng.standard_normal())
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        t = abs(rng.standard_normal()) + 0.3
        for kind in "LRC":
            base = radii.radius(x, kind, seed=trial)
            shifted = radii.radius(x + c * np.eye(d), kind, seed=trial)
            assert_allclose(shifted.value, base.value, atol=1e-7 * (1 + base.value))
            assert abs(shifted.y_star - (base.y_star + c)) <= 1e-5 * (1 + abs(c))
            rotated = radii.radius(phase * x, kind, seed=trial)
            assert_allclose(rotated.value, base.value, atol=1e-7 * (1 + base.value))
            scaled = radii.radius(t * x, kind, seed=trial)
            assert_allclose(scaled.value, t * base.value, atol=1e-7 * (1 + base.value))


def test_radius_of_normal_matrix_is_spectral_enclosing_radius():
    for trial in range(12):
        rng = np.random.default_rng([406, trial])
        d = int(rng.integers(2, 8))
        x = linalg.random_normal_matrix(d, rng)
        lam = np.linalg.eigvals(x)
        circ = enclosing_circle(lam)
        for kind in "LRC":
            res = radii.radius(x, kind, seed=trial)
            assert_allclose(res.value, circ.radius, atol=1e-7 * (1 + circ.radius))
            assert abs(res.y_star - circ.center) <= 1e-5 * (1 + circ.radius)
            # the top eigenspace is degenerate here, so this checks the
            # kink witness
            assert res.gap / res.value**2 <= 1e-12


SCALES = (1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12)


def _scale_sweep_inputs():
    rng = np.random.default_rng(415)
    return [linalg.ginibre(4, rng), linalg.random_normal_matrix(4, rng)]


def test_radius_scale_sweep():
    # r(cX) = c r(X) to relative accuracy, far from unit scale
    for x in _scale_sweep_inputs():
        for kind in "LRC":
            base = radii.radius(x, kind).value
            for c in SCALES:
                res = radii.radius(c * x, kind)
                assert abs(res.value / (c * base) - 1.0) <= 1e-10
                assert res.gap / res.value**2 <= 1e-10
            # the squares under- or overflow here, and so does the gap
            for c in (1e-300, 1e-310, 1e150, 1e200):
                extreme = radii.radius(c * x, kind)
                assert abs(extreme.value / (c * base) - 1.0) <= 1e-10


def test_central_numerical_radius_scale_sweep():
    # down to subnormal inputs, whose scale has no finite reciprocal
    for x in _scale_sweep_inputs():
        _, base = radii.central_numerical_radius(x)
        for c in SCALES + (1e-300, 1e-310):
            _, val = radii.central_numerical_radius(c * x)
            assert abs(val / (c * base) - 1.0) <= 1e-10


def test_radius_witness_on_nearly_normal_matrices():
    # N + eps G has a smooth optimum whose top eigenvalue is split by about
    # eps: the eigenvector at the computed center misses by about
    # 1e-14 / eps, and a degenerate-eigenspace vector by about eps
    rng = np.random.default_rng(419)
    for d in (2, 3, 4, 8):
        n, g = linalg.random_normal_matrix(d, rng), linalg.ginibre(d, rng)
        for eps in (1e-10, 1e-8, 1e-6):
            for kind in "LRC":
                res = radii.radius(n + eps * g, kind)
                assert res.gap / res.value**2 <= 1e-12


def test_radius_ignores_restarts_and_seed():
    rng = np.random.default_rng(416)
    for x in (linalg.ginibre(5, rng), linalg.random_normal_matrix(5, rng)):
        for kind in "LRC":
            a = radii.radius(x, kind)
            b = radii.radius(x, kind, restarts=1, seed=99)
            assert (a.value, a.y_star, a.primal_value) == (b.value, b.y_star, b.primal_value)
            assert np.array_equal(a.witness, b.witness)


def test_polygon_hit_lands_inside_on_edges_and_at_vertices():
    # the kink witness: a point of the polygon of the field values of unit
    # vectors, inside, on an edge or at a vertex, is the expectation of a
    # unit vector in their span
    for trial in range(60):
        rng = np.random.default_rng([417, trial])
        m = int(rng.integers(2, 6))
        b = (linalg.ginibre(m, rng), linalg.random_normal_matrix(m, rng),
             linalg.random_hermitian(m, rng))[trial % 3]
        vecs = list(radii._support(b, radii._angles(8), vectors=True)[1])
        pts = np.array([np.vdot(u, b @ u) for u in vecs])
        j = int(rng.integers(8))
        for y in (rng.dirichlet(np.ones(8)) @ pts, 0.5 * (pts[j] + pts[(j + 1) % 8]), pts[j]):
            u = radii._polygon_hit(b, vecs, complex(y))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert abs(np.vdot(u, b @ u) - y) <= 1e-12 * np.abs(b).max()


def test_segment_hit_with_nearly_parallel_ends():
    rng = np.random.default_rng(418)
    b = linalg.ginibre(3, rng)
    xa = linalg.random_unit_vector(3, rng)
    w = linalg.random_unit_vector(3, rng)
    for psi in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
        xb = np.exp(1j * psi) * xa + 1e-8 * w
        xb /= np.linalg.norm(xb)
        q = 0.5 * (np.vdot(xa, b @ xa) + np.vdot(xb, b @ xb))
        u = radii._segment_hit(b, xa, xb, q)
        assert abs(np.vdot(u, b @ u) - q) <= 1e-12


def test_optimal_center_lies_in_numerical_range():
    for trial in range(15):
        rng = np.random.default_rng([407, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        for kind in "LRC":
            res = radii.radius(x, kind, seed=trial)
            member = radii.membership_in_range(x, res.y_star)
            assert member.margin >= -1e-7 * (1 + abs(res.y_star))


def test_numerical_range_of_hermitian_is_real_segment():
    sample = radii.numerical_range(linalg.PAULI_Z, 16)
    assert sample.angles.shape == (16,)
    assert np.abs(sample.boundary_points.imag).max() <= 1e-12
    assert_allclose(sample.boundary_points.real.min(), -1.0, atol=1e-12)
    assert_allclose(sample.boundary_points.real.max(), 1.0, atol=1e-12)
    # support at angle 0 is lam_max, at angle pi is -lam_min
    assert_allclose(sample.support_values[0], 1.0, atol=1e-12)
    assert_allclose(sample.support_values[8], 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="angles"):
        radii.numerical_range(linalg.PAULI_Z, 4)


def test_numerical_range_of_nilpotent_unit_is_half_disk():
    # W(e12) is the disk of radius 1/2 about 0
    sample = radii.numerical_range(E12, 64)
    assert_allclose(np.abs(sample.boundary_points), 0.5, atol=1e-10)
    assert_allclose(sample.support_values, 0.5, atol=1e-12)
    # dense random states stay inside
    rng = np.random.default_rng(408)
    for _ in range(2000):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        assert abs(np.vdot(psi, E12 @ psi)) <= 0.5 + 1e-12


def test_numerical_range_boundary_consistency():
    for trial in range(25):
        rng = np.random.default_rng([409, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        sample = radii.numerical_range(x, 32)
        phase = np.exp(1j * sample.angles)
        # every boundary point is a member; support values match its projection
        for j in range(0, 32, 4):
            m = radii.membership_in_range(x, sample.boundary_points[j])
            assert m.margin >= -1e-8 * (1 + abs(sample.boundary_points[j]))
        proj = (phase * sample.boundary_points).real
        assert np.abs(proj - sample.support_values).max() <= 1e-8 * (1 + np.abs(sample.support_values).max())


def test_numerical_range_even_grid_matches_full_eigh():
    # an even grid takes the boundary pairs at theta + pi from the bottom
    # eigenpairs at theta; an odd grid keeps one eigensolve per angle
    for trial in range(8):
        rng = np.random.default_rng([440, trial])
        d = int(rng.integers(2, 9))
        for x in (linalg.ginibre(d, rng), np.eye(d, k=1) + np.diag(rng.normal(size=d))):
            for k in (8, 9, 32, 64):
                sample = radii.numerical_range(x, k)
                vals, top = radii._support(x, sample.angles, vectors=True)
                boundary = np.einsum("ki,ij,kj->k", top.conj(), x, top)
                assert np.abs(sample.support_values - vals).max() <= 1e-13 * np.abs(vals).max()
                assert np.abs(sample.boundary_points - boundary).max() <= 1e-13 * np.abs(boundary).max()


def test_numerical_radius_examples():
    assert_allclose(radii.numerical_radius(E12), 0.5, atol=1e-10)
    assert_allclose(radii.numerical_radius(linalg.PAULI_Z), 1.0, atol=1e-12)
    assert_allclose(radii.numerical_radius(2.5j * np.eye(3)), 2.5, atol=1e-12)
    h = np.diag([3.0, -1.0, 0.5])
    assert_allclose(radii.numerical_radius(h), 3.0, atol=1e-12)


def test_numerical_radius_bounds():
    for trial in range(30):
        rng = np.random.default_rng([410, trial])
        d = int(rng.integers(2, 9))
        x = linalg.ginibre(d, rng)
        w = radii.numerical_radius(x)
        # spectral sandwich ||X||_inf / 2 <= w <= ||X||_inf
        top = linalg.singular_values(x)[0]
        assert 0.5 * top - 1e-9 <= w <= top + 1e-9
        # dominated by the spectral norm of the Cartesian modulus
        cnorm = math.sqrt(np.linalg.eigvalsh(linalg.modulus_squared(x, "C"))[-1])
        assert w <= cnorm + 1e-9 * (1 + cnorm)


def test_numerical_radius_of_jordan_blocks():
    # W(J_d) is the disc of radius cos(pi / (d + 1)) about 0: the support
    # function is flat, so the peak polish sees a zero slope at every angle
    for d in (2, 3, 5, 8):
        jordan = np.eye(d, k=1, dtype=np.complex128)
        assert abs(radii.numerical_radius(jordan) - math.cos(math.pi / (d + 1))) <= 1e-12
        z, w = radii.central_numerical_radius(jordan)
        assert z == 0j
        assert abs(w - math.cos(math.pi / (d + 1))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_numerical_radius_eigensolve_budget(monkeypatch, d):
    # a flat support function has no peak to polish: the top grid angle is
    # polished once and the level-set test certifies it at once
    jordan = np.eye(d, k=1, dtype=np.complex128)
    assert _count_eigh(monkeypatch, radii.numerical_radius, jordan) <= 9


def test_level_set_crossings():
    # above w(X) no angle reaches r; below it, every angle returned is a
    # crossing of the support function.  W(J_d) is a disc, so h is flat and
    # no level below w(J_d) is ever crossed: a Jordan block is tested above only
    for d in (2, 3, 5, 8):
        rng = np.random.default_rng([432, d])
        jordan = np.eye(d, k=1, dtype=np.complex128)
        for x in (linalg.ginibre(d, rng), linalg.random_normal_matrix(d, rng),
                  linalg.random_hermitian(d, rng), jordan):
            w = radii.numerical_radius(x, grid=4096)
            theta, h = radii._support_grid(x, 64)
            pole = float(theta[np.argmin(h)])
            assert radii._level_set(x, w * (1.0 + 1e-9), pole).size == 0
            if x is not jordan:
                r = w * (1.0 - 1e-6)
                cross = radii._level_set(x, r, pole)
                assert cross.size >= 2
                assert np.abs(radii._support(x, cross) - r).max() <= 1e-9 * r


def test_numerical_radius_criss_cross(monkeypatch):
    # a normal X whose largest eigenvalue lies between the directions of an
    # 8-angle grid, behind a smaller one on a grid direction: the polished
    # grid peak is too low, and the level-set test finds the way to the top
    tests = []
    level_set = radii._level_set

    def counted(*args):
        tests.append(None)
        return level_set(*args)

    monkeypatch.setattr(radii, "_level_set", counted)
    for s in range(12):
        rng = np.random.default_rng([431, s])
        k, m = rng.integers(0, 8, 2)
        lam = np.array([np.exp(-0.25j * math.pi * k), 1.05 * np.exp(-0.125j * math.pi * (2 * m + 1)),
                        0.5, -0.5j])
        u = linalg.random_unitary(4, rng)
        x = (u * lam) @ u.conj().T + 1e-3 * linalg.ginibre(4, rng)
        ref = radii.numerical_radius(x, grid=4096)
        tests.clear()
        w = radii.numerical_radius(x, grid=8)
        assert len(tests) >= 2
        assert abs(w - ref) <= 1e-12 * ref
    # and on seeded Ginibre inputs the coarse and fine grids agree
    for s in range(20):
        x = linalg.ginibre(int(2 + s % 7), np.random.default_rng([433, s]))
        ref = radii.numerical_radius(x, grid=4096)
        for grid in (8, 9, 32):
            assert abs(radii.numerical_radius(x, grid=grid) - ref) <= 1e-12 * ref


def test_numerical_radius_scale_sweep():
    for d in (2, 5, 9):
        rng = np.random.default_rng([434, d])
        for x in (linalg.ginibre(d, rng), linalg.random_normal_matrix(d, rng),
                  linalg.random_hermitian(d, rng), np.eye(d, k=1, dtype=np.complex128)):
            base = radii.numerical_radius(x)
            for c in np.append(1e-310, 10.0 ** np.arange(-300, 301, 50)):
                assert abs(radii.numerical_radius(c * x) / c - base) <= 1e-12 * base


def test_square_root_trace_concavity():
    # sqrt((Tr rho A)^2 + (Tr rho B)^2) <= Tr[rho sqrt(A^2 + B^2)]
    for trial in range(40):
        rng = np.random.default_rng([411, trial])
        d = int(rng.integers(2, 8))
        x = linalg.ginibre(d, rng)
        a, b = linalg.cartesian_parts(x)
        rho = linalg.random_density(d, int(rng.integers(1, d + 1)), rng)
        lhs = math.hypot(float(np.trace(rho @ a).real), float(np.trace(rho @ b).real))
        rhs = float(np.trace(rho @ linalg.modulus(x, "C")).real)
        assert lhs <= rhs + 1e-10 * (1 + rhs)


def test_central_numerical_radius_examples():
    z, v = radii.central_numerical_radius(linalg.PAULI_Z)
    assert_allclose(v, 1.0, atol=1e-9)
    assert abs(z) <= 1e-6
    z, v = radii.central_numerical_radius(E12)
    assert_allclose(v, 0.5, atol=1e-9)
    assert abs(z) <= 1e-6
    z, v = radii.central_numerical_radius(linalg.f_matrix(3))
    assert_allclose(v, 0.5, atol=1e-9)
    assert abs(z - 0.5) <= 1e-6
    z, v = radii.central_numerical_radius(3.0 * np.eye(2))
    assert v == 0.0 and z == 3.0


def test_central_numerical_radius_below_cartesian_radius():
    for trial in range(12):
        rng = np.random.default_rng([412, trial])
        d = int(rng.integers(2, 8))
        x = linalg.ginibre(d, rng)
        z, rw = radii.central_numerical_radius(x)
        rc = radii.radius(x, "C", seed=trial).value
        assert rw <= rc + 1e-7 * (1 + rc)
        # recentering never helps past the optimum
        assert rw <= radii.numerical_radius(x) + 1e-9


def _recentred_level_set_above(x, z, w) -> bool:
    # whether the level-set test finds w(X - z) above w (1 + 1e-11): an
    # interval between its angles whose midpoint rises above that level
    a = x - z * np.eye(x.shape[0])
    r = w * (1.0 + 1e-11)
    theta, h = radii._support_grid(a, 64)
    cross = radii._level_set(a, r, float(theta[np.argmin(h)]))
    mids = 0.5 * (cross + np.append(cross[1:], cross[:1] + 2.0 * math.pi))
    return bool((radii._support(a, mids) > r).any())


def test_central_numerical_radius_certificate():
    # the returned value is w(X - z) itself, recomputed independently on a
    # fine grid, certified by the level-set test, and repeatable bit for bit.
    # It is never above the Cartesian radius by more than the certificate's
    # tolerance, 1e-11 relative:
    # for a normal X both are the radius of the eigenvalues' enclosing circle
    for d in (2, 3, 4, 8, 16):
        for make in (linalg.ginibre, linalg.random_normal_matrix):
            x = make(d, np.random.default_rng([420, d]))
            z, w = radii.central_numerical_radius(x)
            ref = radii.numerical_radius(x - z * np.eye(d), grid=4096)
            assert abs(w - ref) <= 1e-12 * ref
            assert not _recentred_level_set_above(x, z, w)
            assert w <= radii.radius(x, "C").value * (1.0 + 1e-11)
            assert radii.central_numerical_radius(x) == (z, w)


def test_central_numerical_radius_is_the_enclosing_radius_of_the_range():
    # for a normal X, W(X) is the hull of the eigenvalues, so the answer is
    # their enclosing radius.  Tied moduli and unitaries put every eigenvalue
    # on a peak of nearly the same height, none of which may be skipped
    normal = []
    for s in range(24):
        rng = np.random.default_rng([9, s])
        d = 4 + s % 9
        moduli = 1.0 + 1e-5 * rng.uniform(0.0, 1.0, d)
        lam = moduli * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d))
        u = linalg.random_unitary(d, rng)
        normal.append((u * lam) @ u.conj().T)
    normal += [linalg.random_unitary(3 + s % 10, [5, s]) for s in range(12)]
    for x in normal:
        _, w = radii.central_numerical_radius(x)
        ref = enclosing_circle(np.linalg.eigvals(x)).radius
        assert abs(w - ref) <= 1e-12 * ref
    # for any X, no disc smaller than the circle around sampled boundary points holds W(X)
    for d in (2, 3, 4, 8, 16):
        x = linalg.ginibre(d, np.random.default_rng([421, d]))
        _, w = radii.central_numerical_radius(x)
        sample = radii.numerical_range(x, 1024).boundary_points
        assert w >= enclosing_circle(sample).radius * (1.0 - 1e-12)


def test_central_numerical_radius_resumes_after_failed_certification(monkeypatch):
    # on these seeded inputs an 8-angle grid misses a peak of w(X - z): the
    # finish is accepted, the level-set test finds the peak, and a second
    # round runs with the points it polished
    certified = []
    certify = radii._certify

    def counted(*args):
        certified.append(None)
        return certify(*args)

    monkeypatch.setattr(radii, "_certify", counted)
    for s in (24, 78, 192):
        rng = np.random.default_rng([435, s])
        x = linalg.ginibre(2 + s % 7, rng)
        ref = radii.central_numerical_radius(x)[1]
        certified.clear()
        z, w = radii.central_numerical_radius(x, boundary_k=8)
        assert len(certified) >= 2
        assert abs(w - ref) <= 1e-11 * ref
        assert not _recentred_level_set_above(x, z, w)


def test_central_numerical_radius_certification_cap(monkeypatch):
    # a level-set test that always reports a higher level ends in
    # ConvergenceError after 16 certifications, not a hang
    support = radii._support
    monkeypatch.setattr(radii, "_level_set", lambda a, r, pole: np.array([0.5, 2.0]))
    monkeypatch.setattr(radii, "_support", lambda a, theta, vectors=False:
                        support(a, theta, vectors) if vectors else support(a, theta) + 1.0)
    with pytest.raises(radii.ConvergenceError, match="16 certifications"):
        radii.central_numerical_radius(linalg.ginibre(3, np.random.default_rng(437)))


def test_exchange_keeps_only_the_support(monkeypatch):
    # Welzl's step is handed the at most three points that fix the disc, never
    # every point taken so far
    sizes = []
    one_fixed = geometry._circle_one_fixed

    def recorded(points, p):
        sizes.append(len(points))
        return one_fixed(points, p)

    monkeypatch.setattr(geometry, "_circle_one_fixed", recorded)
    pts = np.exp(2j * math.pi * np.random.default_rng(438).uniform(size=4096))
    assert abs(geometry.enclosing_circle(pts).radius - 1.0) <= 1e-12
    for d in (3, 8):
        radii.central_numerical_radius(linalg.ginibre(d, np.random.default_rng([439, d])))
    assert sizes and max(sizes) <= 3


def test_central_numerical_radius_round_cap(monkeypatch):
    # a certificate that never closes the gap to the lower bound ends in
    # ConvergenceError after 16 rounds, not a hang
    monkeypatch.setattr(radii, "_finish", lambda *args: None)
    monkeypatch.setattr(radii, "_certify", lambda b, z, best, theta, h, points: 2.0 * best)
    with pytest.raises(radii.ConvergenceError, match="16-round cap"):
        radii.central_numerical_radius(linalg.ginibre(3, np.random.default_rng(422)))


def _count_eigh(monkeypatch, solve, x) -> int:
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    solve(x)
    return len(calls)


BUDGET_INPUTS = [(linalg.ginibre, [1, 8, 0]), (linalg.random_normal_matrix, [1, 8, 1])]


@pytest.mark.parametrize("make, budget", [(linalg.ginibre, 55), (linalg.random_normal_matrix, 6)])
def test_central_numerical_radius_eigensolve_budget_per_family(monkeypatch, make, budget):
    # the finish starts from the 64-angle grid's smallest disc, with no
    # exchange: at most 42 eigh on Ginibre and 4 on normal inputs at d = 8
    # (42 seeds), medians 25 and 4, against up to 59 and 16, medians 41 and
    # 12, when a 1e-4 exchange that re-polished every near-top peak in every
    # round came first; the budgets allow about 30 % more than the Ginibre
    # maximum and 2 more on normal inputs, whose W(X) is a polygon and whose
    # corners the finish lands on at once, and the Ginibre median guard
    # catches a return to that exchange
    counts = []
    for seed in range(42):
        x = make(8, np.random.default_rng([441, seed]))
        with monkeypatch.context() as m:
            counts.append(_count_eigh(m, radii.central_numerical_radius, x))
    assert max(counts) <= budget
    if make is linalg.ginibre:
        assert np.median(counts) <= 30


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_central_numerical_radius_eigensolve_budget_on_jordan_blocks(monkeypatch, d):
    # W(J_d) is a disc about 0, so the grid's largest support value is the
    # radius of its boundary points' smallest disc: the trace center is kept
    # and the level-set test certifies it, after the grid's one batched eigh
    # (52, 42, 22 and 28 eigh for d = 2, 3, 5, 8 when an exchange came first)
    jordan = np.eye(d, k=1, dtype=np.complex128)
    assert _count_eigh(monkeypatch, radii.central_numerical_radius, jordan) <= 2


@pytest.mark.parametrize("make, seed", BUDGET_INPUTS)
def test_radius_eigensolve_budget(monkeypatch, make, seed):
    # one eigensolve per round of the exchange, and a few for the witness
    x = make(8, np.random.default_rng(seed))
    assert _count_eigh(monkeypatch, lambda a: radii.radius(a, "C"), x) <= 90


@pytest.mark.parametrize("make, budget", [(linalg.ginibre, 22), (linalg.random_normal_matrix, 8)])
def test_radius_eigensolve_budget_per_family(monkeypatch, make, budget):
    # the exchange stops early and the witness finishes it: at most 16 eigh
    # on Ginibre and 5 on normal inputs at d = 8 (42 seeds x L/R/C), medians
    # 11 and 4, against up to 68 and 44 when the exchange ran to its end; the
    # budgets allow about 30 % more than those maxima, and the Ginibre median
    # guard catches one spare eigensolve per call, such as an eigh of the
    # diagonal matrix whose eigenpairs the witness's Newton loop starts from
    counts = []
    for seed in range(42):
        x = make(8, np.random.default_rng([441, seed]))
        for kind in "LRC":
            with monkeypatch.context() as m:
                counts.append(_count_eigh(m, lambda a: radii.radius(a, kind), x))
    assert max(counts) <= budget
    if make is linalg.ginibre:
        assert np.median(counts) <= 11


def test_radius_round_cap(monkeypatch):
    # a model disc that never takes in the new points ends in ConvergenceError, not a hang
    monkeypatch.setattr(geometry, "_circle_one_fixed", lambda points, p: geometry._Disc(0j, 0.0, ()))
    with pytest.raises(radii.ConvergenceError, match="round cap"):
        radii.radius(linalg.ginibre(3, np.random.default_rng(423)), "C")


def test_radius_on_structured_inputs():
    # flat tops, segments and discs: Hermitian, unitary, rank-one, Jordan and
    # Jordan-plus-diagonal inputs, far from unit scale too
    for d in (2, 5, 12):
        rng = np.random.default_rng([424, d])
        jordan = np.eye(d, k=1, dtype=np.complex128)
        rank_one = np.outer(linalg.random_unit_vector(d, rng), linalg.random_unit_vector(d, rng).conj())
        for x in (linalg.random_hermitian(d, rng), linalg.random_unitary(d, rng), rank_one,
                  jordan, jordan + np.diag(np.arange(d))):
            for kind in "LRC":
                base = radii.radius(x, kind).value
                for c in (1.0, 1e-12, 1e12):
                    res = radii.radius(c * x, kind)
                    assert res.gap <= 1e-13 * res.value * res.value
                    assert abs(res.value / (c * base) - 1.0) <= 1e-12


def _stress_set():
    # nine families: smooth optima, kinks, flat and nearly degenerate tops
    for d in (2, 3, 5, 8, 16):
        rng = np.random.default_rng([442, d])
        jordan = np.eye(d, k=1, dtype=np.complex128)
        normal = linalg.random_normal_matrix(d, rng)
        yield from (linalg.ginibre(d, rng), normal, linalg.random_hermitian(d, rng),
                    linalg.random_unitary(d, rng),
                    np.outer(linalg.random_unit_vector(d, rng), linalg.random_unit_vector(d, rng).conj()),
                    jordan, jordan + np.diag(np.arange(d)), normal + 1e-8 * linalg.ginibre(d, rng),
                    np.kron(np.eye(2), linalg.ginibre(max(d // 2, 2), rng)))


def test_radius_routes(monkeypatch):
    # the exchange stops at 1e-4 and the first route that closes the gap to
    # 1e-13 value^2 finishes: (a) the kink witness, (b) the Newton witness,
    # (c) the whole exchange; forcing (c) gives the same value
    taken = []
    calls = []
    for name in ("_kink_witness", "_witness", "_exchange"):
        def counted(*args, _real=getattr(radii, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(radii, name, counted)
    real_witness = radii._witness

    def fallback(x, kind):
        # routes (a) and (b) yield nothing, so the exchange must resume
        failed = []

        def witness(b, msq, y):
            if failed:
                return real_witness(b, msq, y)
            failed.append(y)
            return -math.inf, None, y, math.inf

        with monkeypatch.context() as m:
            m.setattr(radii, "_kink_witness", lambda *args: (-math.inf, None))
            m.setattr(radii, "_witness", witness)
            return radii.radius(x, kind)

    for x in _stress_set():
        for kind in "LRC":
            for c in (1.0, 1e-12, 1e12):
                calls.clear()
                res = radii.radius(c * x, kind)
                if calls:  # not a scalar matrix
                    taken.append("c" if calls.count("_exchange") == 2 else "b" if "_witness" in calls else "a")
                assert res.gap <= 1e-13 * res.value * res.value
                slow = fallback(c * x, kind)
                assert abs(res.value - slow.value) <= 1e-14 * slow.value
    assert set(taken) == {"a", "b", "c"}


def test_central_numerical_radius_routes(monkeypatch):
    # the finish starts from the 64-angle grid's smallest disc and ends it in
    # one round: by the width of W(X) for two points, by a settled
    # circumcenter for three.  Declining every finish leaves the rounds on
    # the grid disc's center, whose value the finish matches to 1e-11 and
    # never exceeds by more than 1e-14; no value is below the circle around
    # a fine sample of boundary points
    taken = []
    calls = []
    finish = radii._finish

    def counted_finish(b, ends, z, spacing, found):
        end = finish(b, ends, z, spacing, found)
        calls.append(len(ends) if end is not None else None)
        return end

    monkeypatch.setattr(radii, "_finish", counted_finish)
    inputs = list(_stress_set()) + [linalg.ginibre(15, np.random.default_rng([500, 208]))]
    for x in inputs:
        for c in (1.0, 1e-12, 1e12):
            calls.clear()
            w = radii.central_numerical_radius(c * x)[1]
            if len(calls) == 1 and calls[0] is not None:  # the finish's center was certified
                taken.append(calls[0])
            with monkeypatch.context() as m:
                m.setattr(radii, "_finish", lambda *args: None)
                slow = radii.central_numerical_radius(c * x)[1]
            assert abs(w - slow) <= 1e-11 * slow
            assert w <= slow * (1.0 + 1e-14)
            sample = radii.numerical_range(c * x, 1024).boundary_points
            assert w >= enclosing_circle(sample).radius * (1.0 - 1e-12)
    assert set(taken) == {2, 3}


def test_central_numerical_radius_of_two_by_two_matrices():
    # W(X) of a 2 x 2 matrix is an ellipse about tr(X) / 2 whose semi-major
    # axis is sqrt(||B||_F^2 + 2 |det B|) / 2, B = X - tr(X) / 2: its
    # smallest disc.  The inputs include the d = 2 Ginibre matrices of the
    # benchmark's radii workload; the bound 1e-14 is tighter than the 1e-11
    # of the certificate, which the value may undershoot
    for key in [[s, c, 2, False] for s in range(11201, 11211) for c in range(4)] + [[443, s] for s in range(8)]:
        x = linalg.ginibre(2, np.random.default_rng(key))
        for c in (1.0, 1e-12, 1e12):
            y = c * x
            mid = np.trace(y) / 2.0
            b = y - mid * np.eye(2)
            ref = 0.5 * math.sqrt(np.linalg.norm(b) ** 2 + 2.0 * abs(np.linalg.det(b)))
            z, w = radii.central_numerical_radius(y)
            assert abs(w - ref) <= 1e-14 * ref
            assert abs(z - mid) <= 1e-15 * w


NEAR_MAX = 1.7e308  # near the largest float: trace sums, X - x_00 1 and Re(e^{i theta} X) overflow


def test_radii_near_the_largest_float():
    # X is scaled by a power of two before it is shifted, so no step overflows
    for x in (np.diag([NEAR_MAX, -NEAR_MAX, -NEAR_MAX]), np.diag([NEAR_MAX, -NEAR_MAX])):
        for kind in "LRC":
            res = radii.radius(x, kind)
            assert abs(res.value / NEAR_MAX - 1.0) <= 1e-14
            assert abs(res.y_star) <= 1e-14 * NEAR_MAX
        z, w = radii.central_numerical_radius(x)
        assert abs(w / NEAR_MAX - 1.0) <= 1e-14
        assert abs(z) <= 1e-14 * NEAR_MAX
        assert radii.numerical_radius(x) == NEAR_MAX
        assert radii.membership_in_range(x, 0).member
    # 0 is a vertex of W(X); Re(e^{i theta} X) overflows here even when halved
    assert radii.membership_in_range(np.diag([NEAR_MAX * (1 + 1j), -NEAR_MAX, 0]), 0).member


def test_radii_beyond_the_largest_float_raise_overflow_error():
    # W(X) = [0, 3 NEAR_MAX]: its center, its radius and w(X) all overflow
    x = np.full((3, 3), NEAR_MAX)
    for kind in "LRC":
        with pytest.raises(OverflowError, match="the radius"):
            radii.radius(x, kind)
    with pytest.raises(OverflowError, match="the central numerical radius"):
        radii.central_numerical_radius(x)
    with pytest.raises(OverflowError, match="the numerical radius"):
        radii.numerical_radius(x)


def test_membership_examples():
    assert radii.membership_in_range(linalg.PAULI_Z, 0.0).member
    assert radii.membership_in_range(linalg.PAULI_Z, 0.5 + 0.0j).member
    res = radii.membership_in_range(linalg.PAULI_Z, 2.0)
    assert not res.member
    assert_allclose(res.margin, -1.0, atol=1e-9)
    # the margin's allowance scales with X: W(1e-9 Z) is [-1e-9, 1e-9]
    assert not radii.membership_in_range(1e-9 * linalg.PAULI_Z, 5e-9).member
    assert radii.membership_in_range(1e-9 * linalg.PAULI_Z, 5e-10).member
    # diagonal entries always belong to the numerical range
    for trial in range(20):
        rng = np.random.default_rng([413, trial])
        d = int(rng.integers(2, 8))
        x = linalg.ginibre(d, rng)
        tr = complex(np.trace(x)) / d
        assert radii.membership_in_range(x, tr).margin >= -1e-9
        assert radii.membership_in_range(x, complex(x[0, 0])).margin >= -1e-9
    # X and z are scaled together, so a far z is not lost next to a tiny X
    far = radii.membership_in_range(1e-300 * linalg.ginibre(4, np.random.default_rng(413)), 1e10)
    assert not far.member
    assert abs(far.margin / -1e10 - 1.0) <= 1e-12


def test_false_two_norm_bound_has_counterexamples():
    # r_C(X) <= || |X|_C ||_(2) / 2 fails for d >= 3; the scan should
    # turn up a witness quickly (it holds numerically for d = 2)
    found = None
    for trial in range(40):
        rng = np.random.default_rng([414, trial])
        x = linalg.ginibre(int(rng.integers(3, 7)), rng)
        rc = radii.radius(x, "C", restarts=4, seed=trial).value
        bound = norm(linalg.modulus(x, "C"), NormSpec.kyfan(2)) / 2.0
        if rc > bound + 1e-6:
            found = (x, rc, bound)
            break
    assert found is not None
