"""Matrix radii, quantum variance, and the numerical range."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cartesian_parts, random_density, random_unit_vector
from matvar import geometry, linalg, radii
from matvar.geometry import enclosing_circle
from matvar.norms import NormSpec, norm

SQ2 = math.sqrt(2.0)
E12 = linalg.basis_matrix(1, 2, 2)


def _at_grid(k, solve, x):
    """solve(x) with the seed grid of radii at k angles in place of 32."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radii, "_GRID", k)
        return solve(x)


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
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sigma = random_density(d, int(rng.integers(1, d + 1)), rng)
        e_rho = complex(np.trace(rho @ x))
        e_sig = complex(np.trace(sigma @ x))
        for kind in "LRC":
            gain = (_second_moment_about(x, rho, e_sig, kind)
                    - _second_moment_about(x, rho, e_rho, kind))
            assert_allclose(gain, abs(e_sig - e_rho) ** 2,
                            atol=1e-10 * (1 + abs(gain)))


def test_max_variance_examples():
    res = radii.radius(linalg.PAULI_Z, "C")
    assert_allclose(res.primal_value, 1.0, atol=1e-9)
    assert abs(np.vdot(res.witness, linalg.PAULI_Z @ res.witness)) <= 1e-6
    assert_allclose(radii.radius(E12, "C").primal_value, 0.5, atol=1e-9)
    res = radii.radius(1.5 * np.eye(3), "L")
    assert res.primal_value == 0.0 and abs(np.linalg.norm(res.witness) - 1.0) <= 1e-12


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


def test_radius_rejects_an_unknown_kind():
    # also on the zero matrix, where the dual returns before any solve
    for x in (linalg.ginibre(3, np.random.default_rng(461)), np.zeros((3, 3)), 2.5j * np.eye(3)):
        with pytest.raises(ValueError, match="kind must be one of"):
            radii.radius(x, "X")


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
        vecs = list(radii._support(b, radii._angles(8), vectors=True)[1][..., -1])
        pts = np.array([np.vdot(u, b @ u) for u in vecs])
        j = int(rng.integers(8))
        for y in (rng.dirichlet(np.ones(8)) @ pts, 0.5 * (pts[j] + pts[(j + 1) % 8]), pts[j]):
            u = radii._polygon_hit(b, vecs, complex(y))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert abs(np.vdot(u, b @ u) - y) <= 1e-12 * np.abs(b).max()


def _nearest_on_edges(pts, y):
    # the nearest point to y of the closed polygon through pts, by edges
    near = []
    for p, q in zip(pts, np.roll(pts, -1)):
        e = q - p
        along = 0.0 if e == 0 else min(max(((y - p) * np.conj(e)).real / abs(e) ** 2, 0.0), 1.0)
        near.append(p + along * e)
    return min(near, key=lambda z: abs(y - z))


def test_polygon_hit_on_two_and_three_vectors_inside_and_outside():
    # the kink witness spans at most three vectors; a y outside their
    # polygon (on a kink, by rounding) is hit at the nearest point of its edges
    for trial in range(60):
        rng = np.random.default_rng([443, trial])
        m = int(rng.integers(2, 6))
        b = (linalg.ginibre(m, rng), linalg.random_normal_matrix(m, rng),
             linalg.random_hermitian(m, rng))[trial % 3]
        for k in (2, 3):
            vecs = list(radii._support(b, rng.uniform(0.0, 2.0 * math.pi, k), vectors=True)[1][..., -1])
            pts = np.array([np.vdot(u, b @ u) for u in vecs])
            spread = np.abs(pts - pts.mean()).max()
            inside = rng.dirichlet(np.ones(k)) @ pts
            outside = inside + 2.0 * spread * np.exp(2j * math.pi * rng.uniform())
            for y, target in ((inside, inside), (outside, _nearest_on_edges(pts, outside))):
                u = radii._polygon_hit(b, vecs, complex(y))
                assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
                assert abs(np.vdot(u, b @ u) - target) <= 1e-12 * np.abs(b).max()


def test_segment_hit_with_nearly_parallel_ends():
    rng = np.random.default_rng(418)
    b = linalg.ginibre(3, rng)
    xa = random_unit_vector(3, rng)
    w = random_unit_vector(3, rng)
    for psi in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
        xb = np.exp(1j * psi) * xa + 1e-8 * w
        xb /= np.linalg.norm(xb)
        pa, pb = complex(np.vdot(xa, b @ xa)), complex(np.vdot(xb, b @ xb))
        q = 0.5 * (pa + pb)
        s, t = radii._segment_hit(pa, pb, complex(np.vdot(xa, b @ xb)), complex(np.vdot(xb, b @ xa)),
                                  complex(np.vdot(xa, xb)), q)
        u = s * xa + t * xb
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
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
    # eigenpairs at theta; an odd grid is every other angle of the 2k grid
    for trial in range(8):
        rng = np.random.default_rng([440, trial])
        d = int(rng.integers(2, 9))
        for x in (linalg.ginibre(d, rng), np.eye(d, k=1) + np.diag(rng.normal(size=d))):
            for k in (8, 9, 32, 64):
                sample = radii.numerical_range(x, k)
                vals, top = (s[..., -1] for s in radii._support(x, sample.angles, vectors=True))
                boundary = np.einsum("ki,ij,kj->k", top.conj(), x, top)
                assert np.abs(sample.support_values - vals).max() <= 1e-13 * np.abs(vals).max()
                assert np.abs(sample.boundary_points - boundary).max() <= 1e-13 * np.abs(boundary).max()


def test_numerical_radius_examples():
    assert_allclose(radii.numerical_radius(E12), 0.5, atol=1e-10)
    assert_allclose(radii.numerical_radius(linalg.PAULI_Z), 1.0, atol=1e-12)
    assert_allclose(radii.numerical_radius(2.5j * np.eye(3)), 2.5, atol=1e-12)
    h = np.diag([3.0, -1.0, 0.5])
    assert_allclose(radii.numerical_radius(h), 3.0, atol=1e-12)


def test_numerical_radius_of_the_zero_matrix():
    for d in (1, 2, 5):
        assert radii.numerical_radius(np.zeros((d, d))) == 0.0


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
            w = _at_grid(4096, radii.numerical_radius, x)
            theta, h = radii._support_grid(x, 64)
            pole = float(theta[np.argmin(h)])
            assert radii._level_set(x, w * (1.0 + 1e-9), pole).size == 0
            if x is not jordan:
                r = w * (1.0 - 1e-6)
                cross = radii._level_set(x, r, pole)
                assert cross.size >= 2
                assert np.abs(radii._support(x, cross)[..., -1] - r).max() <= 1e-9 * r


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
        ref = _at_grid(4096, radii.numerical_radius, x)
        tests.clear()
        w = _at_grid(8, radii.numerical_radius, x)
        assert len(tests) >= 2
        assert abs(w - ref) <= 1e-12 * ref
    # and on seeded Ginibre inputs the coarse and fine grids agree
    for s in range(20):
        x = linalg.ginibre(int(2 + s % 7), np.random.default_rng([433, s]))
        ref = _at_grid(4096, radii.numerical_radius, x)
        for grid in (8, 9, 32):
            assert abs(_at_grid(grid, radii.numerical_radius, x) - ref) <= 1e-12 * ref


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
        a, b = cartesian_parts(x)
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
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
    return bool((radii._support(a, mids)[..., -1] > r).any())


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
            ref = _at_grid(4096, radii.numerical_radius, x - z * np.eye(d))
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
        z, w = _at_grid(8, radii.central_numerical_radius, x)
        assert len(certified) >= 2
        assert abs(w - ref) <= 1e-11 * ref
        assert not _recentred_level_set_above(x, z, w)


def test_central_numerical_radius_certification_cap(monkeypatch):
    # a level-set test that always reports a higher level ends in
    # ConvergenceError after 16 certifications, not a hang
    support = radii._support
    monkeypatch.setattr(radii, "_level_set", lambda a, r, pole, tol: np.array([0.5, 2.0]))
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


def test_central_numerical_radius_rounds_with_every_finish_declined(monkeypatch):
    # with no finish each round grows the point set only by what the
    # certificate polishes: at most 13 rounds on these 384 inputs at the
    # default grid, so a harder input whose finish is declined keeps a
    # margin under the 16-round cap
    rounds = []
    certify = radii._certify

    def counted(*args):
        rounds[-1] += 1
        return certify(*args)

    monkeypatch.setattr(radii, "_finish", lambda *args: None)
    monkeypatch.setattr(radii, "_certify", counted)
    inputs = [make(8, np.random.default_rng([441, s]))
              for make in (linalg.ginibre, linalg.random_normal_matrix) for s in range(42)]
    inputs += [linalg.ginibre(2 + s % 15, np.random.default_rng([500, s])) for s in range(300)]
    for x in inputs:
        rounds.append(0)
        radii.central_numerical_radius(x)
    assert max(rounds) <= 14


def test_certificates_on_nearly_flat_numerical_ranges():
    # W(J_d + eps G) is nearly a disc, so the support function is nearly
    # flat and every level-set crossing is ill-conditioned: with a fixed
    # real-root cut of 1e-8 the test saw no crossing, and both radii fell
    # below a plain scan by up to 3.7e-8.  The largest of 8,192 equispaced
    # support values is a lower bound on w(X); one scan of X gives that of
    # X - z too, as h_{X - z}(theta) = h_X(theta) - Re(e^{i theta} z)
    for d in range(2, 10):
        for eps in (1e-4, 1e-6, 1e-8):
            for s in range(5):
                x = np.eye(d, k=1) + eps * linalg.ginibre(d, np.random.default_rng([460, d, s]))
                theta, h = radii._support_grid(x, 8192)
                w = radii.numerical_radius(x)
                assert float(h.max()) <= w * (1.0 + 1e-11)
                z, w = radii.central_numerical_radius(x)
                assert float((h - (np.exp(1j * theta) * z).real).max()) <= w * (1.0 + 1e-11)


def _count_eigh(monkeypatch, solve, x) -> int:
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(None)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    solve(x)
    assert calls, "no eigensolve was counted: a budget read at 0 checks nothing"
    return len(calls)


BUDGET_INPUTS = [(linalg.ginibre, [1, 8, 0]), (linalg.random_normal_matrix, [1, 8, 1])]


@pytest.mark.parametrize("make, budget", [(linalg.ginibre, 12), (linalg.random_normal_matrix, 6)])
def test_central_numerical_radius_eigensolve_budget_per_family(monkeypatch, make, budget):
    # the finish starts from the 32-angle grid's smallest disc and runs
    # Newton's method with one stacked eigh per pass: at most 9 eigh on
    # Ginibre and 3 on normal inputs at d = 8 (42 seeds), medians 6 and 2,
    # against up to 42 and 4, medians 25 and 4, when three polishes per pass
    # iterated the circumcenter to a fixed point; the budgets allow about
    # 30 % more than the Ginibre maximum and 3 more on normal inputs, whose
    # W(X) is a polygon and whose corners the finish lands on at once, and
    # the Ginibre median guard catches a return to that fixed point
    counts = []
    for seed in range(42):
        x = make(8, np.random.default_rng([441, seed]))
        with monkeypatch.context() as m:
            counts.append(_count_eigh(m, radii.central_numerical_radius, x))
    assert max(counts) <= budget
    if make is linalg.ginibre:
        assert np.median(counts) <= 8


@pytest.mark.parametrize("make, budget", [(linalg.ginibre, 9), (linalg.random_normal_matrix, 3)])
def test_numerical_radius_eigensolve_budget_per_family(monkeypatch, make, budget):
    # the grid's one batched eigh, then the top peak's secant polish: at most
    # 7 eigh on Ginibre and 2 on normal inputs at d = 8 (42 seeds), Ginibre
    # median 5; the budgets allow about 30 % more than those maxima, and the
    # Ginibre median guard catches a slower polish
    counts = []
    for seed in range(42):
        x = make(8, np.random.default_rng([441, seed]))
        with monkeypatch.context() as m:
            counts.append(_count_eigh(m, radii.numerical_radius, x))
    assert max(counts) <= budget
    if make is linalg.ginibre:
        assert np.median(counts) <= 5


@pytest.mark.parametrize("make", [linalg.ginibre, linalg.random_normal_matrix,
                                  lambda d, rng: np.eye(d, k=1, dtype=np.complex128)],
                         ids=["ginibre", "normal", "jordan"])
def test_every_support_eigensolve_goes_through_support(monkeypatch, make):
    # the grid, the polish, the finish and the certificate all solve
    # Re(e^{i theta} X) through radii._support: every eigh or eigvalsh is
    # one of its calls, and a grid of k angles solves k / 2 matrices for
    # even k and k for odd.  The first solve of each seeded call is its
    # grid of radii._GRID angles
    x = make(5, np.random.default_rng(442))
    solves, matrices, supports = [], [], []
    support = radii._support

    def counting(solve):
        def counted(m, *args, **kwargs):
            solves.append(None)
            matrices.append(int(np.prod(np.shape(m)[:-2])))
            return solve(m, *args, **kwargs)
        return counted

    def counted_support(*args, **kwargs):
        supports.append(None)
        return support(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(radii, "_support", counted_support)
    for k, n in ((32, 16), (9, 9)):
        for solve in (radii.numerical_radius, radii.central_numerical_radius,
                      lambda a: radii.membership_in_range(a, 0.1j)):
            matrices.clear()
            _at_grid(k, solve, x)
            assert matrices[0] == n
    for k, n in ((8, 4), (9, 9)):
        matrices.clear()
        radii.numerical_range(x, k)
        assert matrices == [n]
    assert solves and len(solves) == len(supports)


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
    # Newton from the trace center finishes all but 4 of these Ginibre
    # inputs, and the exchange, stopped early, with a witness the rest: at
    # most 18 eigh on Ginibre and 5 on normal inputs at d = 8 (42 seeds x
    # L/R/C), medians 5 and 4, means 5.79 and 3.74, against up to 68 and 44
    # when the exchange ran to its end; the budgets allow about 20 % more
    # than the Ginibre maximum and 3 more on normal inputs.  The Ginibre
    # median guard catches one spare eigensolve per call, such as the
    # exchange solving again at the trace center where Newton just did, and
    # the mean guard a Newton step that ends the try once it does not shrink
    # (mean 7.39, when 38 of these 126 calls went on to the exchange)
    counts = []
    for seed in range(42):
        x = make(8, np.random.default_rng([441, seed]))
        for kind in "LRC":
            with monkeypatch.context() as m:
                counts.append(_count_eigh(m, lambda a: radii.radius(a, kind), x))
    assert max(counts) <= budget
    if make is linalg.ginibre:
        assert np.median(counts) <= 6
        assert np.mean(counts) <= 6.5


def test_radius_eigensolve_budget_on_near_jordan_inputs(monkeypatch):
    # J_d + eps G: nearly degenerate tops, where the kink witness mostly
    # fails and Newton from the exchange's center decides between route (b)
    # and the resumed exchange: mean 8.23 eigh, median 5 and max 57 on these
    # 360 calls, against 9.40, 7 and 55 when Newton from the trace center
    # had a gate of its own and a failed try restarted the exchange there,
    # and 14.64 mean when a step that did not shrink ended the try
    counts, results = [], []
    for d in range(2, 10):
        for eps in (1e-4, 1e-6, 1e-8):
            for seed in range(5):
                x = np.eye(d, k=1) + eps * linalg.ginibre(d, np.random.default_rng([460, d, seed]))
                for kind in "LRC":
                    with monkeypatch.context() as m:
                        counts.append(_count_eigh(m, lambda a: results.append(radii.radius(a, kind)), x))
                    assert results[-1].gap <= 1e-13 * results[-1].value ** 2, (d, eps, seed, kind)
    print(f"near-Jordan radius: {len(counts)} calls, mean {np.mean(counts):.2f} eigh, max {max(counts)}")
    assert np.mean(counts) <= 9


def test_radius_closes_two_by_two_inputs_at_the_trace_centre(monkeypatch):
    # for a traceless 2 x 2 B, B*B + BB* = ||B||_F^2 1, so |B|_C^2 has a
    # double top at the trace center, as |B|^2 of every kind has for a
    # normal B: the kink witness closes the gap there from the one eigh
    # already done, with no exchange (3.29 eigh per call on these Ginibre
    # inputs when Newton from the trace center came first)
    exchanges, results = [], []
    real = radii._exchange
    monkeypatch.setattr(radii, "_exchange", lambda *args: exchanges.append(args) or real(*args))
    for make, kinds in ((linalg.ginibre, "C"), (linalg.random_normal_matrix, "LRC")):
        for seed in range(42):
            x = make(2, np.random.default_rng([441, seed]))
            for kind in kinds:
                with monkeypatch.context() as m:
                    assert _count_eigh(m, lambda a: results.append(radii.radius(a, kind)), x) == 1
                res = results[-1]
                assert not exchanges, (make, seed, kind)
                assert res.gap <= 1e-13 * res.value * res.value
                if kind == "C":
                    ref = np.linalg.norm(x - np.trace(x) / 2.0 * np.eye(2)) / math.sqrt(2.0)
                    assert abs(res.value - ref) <= 1e-14 * ref, (make, seed)


def test_radius_round_cap(monkeypatch):
    # a model disc that never takes in the new points ends in ConvergenceError,
    # not a hang; Newton from the trace center, which closes this input's gap
    # by itself, declines, so that the call reaches the exchange
    monkeypatch.setattr(geometry, "_circle_one_fixed", lambda points, p: geometry._Disc(0j, 0.0, ()))
    monkeypatch.setattr(radii, "_witness", lambda b, msq, y, eig: (-math.inf, None, y, math.inf))
    with pytest.raises(radii.ConvergenceError, match="round cap"):
        radii.radius(linalg.ginibre(3, np.random.default_rng(423)), "C")


def test_radius_on_structured_inputs():
    # flat tops, segments and discs: Hermitian, unitary, rank-one, Jordan and
    # Jordan-plus-diagonal inputs, far from unit scale too
    for d in (2, 5, 12):
        rng = np.random.default_rng([424, d])
        jordan = np.eye(d, k=1, dtype=np.complex128)
        rank_one = np.outer(random_unit_vector(d, rng), random_unit_vector(d, rng).conj())
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
                    np.outer(random_unit_vector(d, rng), random_unit_vector(d, rng).conj()),
                    jordan, jordan + np.diag(np.arange(d)), normal + 1e-8 * linalg.ginibre(d, rng),
                    np.kron(np.eye(2), linalg.ginibre(max(d // 2, 2), rng)))


def test_radius_routes(monkeypatch):
    # every pass ends in the same witness step, and the first that closes the
    # gap to 1e-13 value^2 finishes: pass 0 at the trace center, with no
    # exchange, then the exchange stopped at 1e-4, then (c) the whole
    # exchange; at the first two the kink witness (a) or the Newton witness
    # (b) closes it, told apart by the last witness tried.  Forcing (c)
    # gives the same value
    taken = []
    calls = []
    for name in ("_kink_witness", "_witness", "_exchange"):
        def counted(*args, _real=getattr(radii, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(radii, name, counted)
    real_witness = radii._witness

    def fallback(x, kind):
        # neither witness closes the gap before (c), so the exchange must resume
        calls.clear()

        def witness(b, msq, y, *rest):
            if calls.count("_exchange") == 2:
                return real_witness(b, msq, y, *rest)
            return -math.inf, None, y, math.inf

        with monkeypatch.context() as m:
            m.setattr(radii, "_kink_witness", lambda *args: (-math.inf, None))
            m.setattr(radii, "_witness", witness)
            res = radii.radius(x, kind)
        assert not calls or calls.count("_exchange") == 2
        return res

    def route(calls):
        passes = calls.count("_exchange")
        return "c" if passes == 2 else ("b" if calls[-1] == "_witness" else "a") + str(passes)

    for x in _stress_set():
        for kind in "LRC":
            for c in (1.0, 1e-12, 1e12):
                calls.clear()
                res = radii.radius(c * x, kind)
                if calls:  # not a scalar matrix
                    taken.append(route(calls))
                assert res.gap <= 1e-13 * res.value * res.value
                slow = fallback(c * x, kind)
                assert abs(res.value - slow.value) <= 1e-14 * slow.value
    assert set(taken) == {"a0", "b0", "a1", "b1", "c"}


def test_radius_never_counts_a_non_finite_witness_as_closed(monkeypatch):
    # inf - (-inf) <= 1e-13 inf and 1 - inf <= 1e-13 both hold in floating
    # point: a witness whose variance or top eigenvalue is not finite must
    # leave the call to the exchange, which finds the same value
    x = linalg.ginibre(8, np.random.default_rng([441, 0]))
    real_witness = radii._witness
    for kind in "LRC":
        expect = radii.radius(x, kind)
        for primal, top in ((-math.inf, math.inf), (math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan)):
            tried = []

            def witness(b, msq, y, eig, _bad=(primal, top)):
                if tried:
                    return real_witness(b, msq, y, eig)
                tried.append(y)
                return _bad[0], eig[1][:, -1], y, _bad[1]

            with monkeypatch.context() as m:
                m.setattr(radii, "_witness", witness)
                res = radii.radius(x, kind)
            assert tried == [0j]  # Newton from the trace center was tried, and failed
            assert res.gap <= 1e-13 * res.value * res.value
            assert abs(res.value - expect.value) <= 1e-14 * expect.value


def test_radius_tries_newton_first_only_at_a_simple_top_off_an_eigenvector(monkeypatch):
    # Newton from the trace center comes before any exchange on every
    # Ginibre input here, and never on a normal one, where the top
    # eigenvector of |B|^2 is an eigenvector of B, or at a double top, as on
    # a trace-shifted 2 x 2 normal matrix, where the kink witness closes the
    # gap with no exchange
    calls = []
    for name in ("_exchange", "_witness"):
        def counted(*args, _real=getattr(radii, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(radii, name, counted)

    def shifted_normal(d, rng):
        return linalg.random_normal_matrix(d, rng) + 3.0 * np.eye(d)

    for make, d, newton in ((linalg.ginibre, 8, True), (linalg.random_normal_matrix, 8, False),
                            (shifted_normal, 2, False)):
        for seed in range(42):
            x = make(d, np.random.default_rng([441, seed]))
            for kind in "LRC":
                calls.clear()
                res = radii.radius(x, kind)
                assert (calls[:1] == ["_witness"]) == newton, (make, seed, kind)
                assert res.gap <= 1e-13 * res.value * res.value, (make, seed, kind)
                if make is linalg.random_normal_matrix:  # r(X) of every kind is the eigenvalues' circle
                    circle = enclosing_circle(np.linalg.eigvals(x)).radius
                    assert abs(res.value - circle) <= 1e-12 * circle, (seed, kind)


def test_radius_tries_the_kink_witness_only_at_a_nearly_multiple_top(monkeypatch):
    # after the early stop the kink witness (a) is tried exactly where the
    # top two eigenvalues of |B - y|^2 agree to the cut, relatively: never
    # on these Ginibre inputs, always on these normal ones; Newton from the
    # trace center, before any exchange, only where they do not.  Trying (a)
    # on every pass finds the same values on the stress set
    seen = []  # "x" per exchange, and (route, relative top gap at y) per witness
    for name, route in (("_exchange", None), ("_kink_witness", "a"), ("_witness", "b")):
        def counted(*args, _real=getattr(radii, name), _route=route):
            if _route is None:
                seen.append("x")
            else:
                b, msq, y = args[:3]
                w = np.linalg.eigvalsh(msq - np.conj(y) * b - y * b.conj().T + abs(y) ** 2 * np.eye(b.shape[0]))
                seen.append((_route, (w[-1] - w[-2]) / w[-1]))
            return _real(*args)
        monkeypatch.setattr(radii, name, counted)
    for make, route in ((linalg.ginibre, "b"), (linalg.random_normal_matrix, "a")):
        for seed in range(42):
            x = make(8, np.random.default_rng([441, seed]))
            for kind in "LRC":
                seen.clear()
                radii.radius(x, kind)
                if seen[0] != "x":  # Newton from the trace center
                    taken, gap = seen.pop(0)
                    assert taken == "b" and gap > radii._KINK_GAP
                if seen:  # it did not close the gap
                    taken, gap = seen[1]  # the first pass's first witness
                    assert seen[0] == "x" and taken == route
                    assert (taken == "a") == (gap <= radii._KINK_GAP)
    for x in _stress_set():
        for kind in "LRC":
            for c in (1.0, 1e-12, 1e12):
                res = radii.radius(c * x, kind)
                with monkeypatch.context() as m:
                    m.setattr(radii, "_KINK_GAP", math.inf)
                    forced = radii.radius(c * x, kind)
                assert res.gap <= 1e-13 * res.value * res.value
                assert forced.gap <= 1e-13 * forced.value * forced.value
                assert abs(res.value - forced.value) <= 1e-14 * forced.value


def test_central_numerical_radius_routes(monkeypatch):
    # the finish starts from the 32-angle grid's smallest disc and ends it in
    # one round: by the width of W(X) for two points, by Newton's method for
    # three.  Declining every finish leaves the rounds on
    # the grid disc's center, whose value the finish matches to 1e-11 and
    # never exceeds by more than 1e-14; no value is below the circle around
    # a fine sample of boundary points
    taken = []
    calls = []
    finish = radii._finish

    def counted_finish(b, ends, z, found):
        end = finish(b, ends, z, found)
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
        assert radii.membership_in_range(x, 0) == (True, 0.0)  # W(X) is a segment through 0
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
    # the verdict scales with X: W(1e-9 Z) is [-1e-9, 1e-9]
    assert not radii.membership_in_range(1e-9 * linalg.PAULI_Z, 5e-9).member
    assert radii.membership_in_range(1e-9 * linalg.PAULI_Z, 5e-10).member
    # and no allowance makes a point 1e-9 off the segment W(Z) a member
    res = radii.membership_in_range(linalg.PAULI_Z, 1e-9j)
    assert not res.member and abs(res.margin + 1e-9) <= 1e-15
    # within rounding of W(X) a point is a member, with a margin no larger than its distance
    assert radii.membership_in_range(np.eye(2), 1.0 + 1e-300j) == (True, 0.0)
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


@pytest.mark.parametrize("normal", [False, True])
def test_membership_margin_is_a_certificate(hull_distance, normal):
    # the margin has the sign of z's signed distance to the boundary of W(X)
    # and never its size, against the hull of the eigenvalues for normal X and
    # a 4096-angle support grid otherwise, which can understate an outside
    # distance by about 3e-7 of it; the points are the radius-C center, x_00,
    # and a point 1e-2 ||X|| outside a boundary point
    theta = 2.0 * math.pi * np.arange(4096) / 4096
    for trial in range(24):
        rng = np.random.default_rng([416, int(normal), trial])
        d = 2 + trial % 15
        x = (linalg.random_normal_matrix if normal else linalg.ginibre)(d, rng)
        size = float(np.linalg.norm(x, 2))
        if not normal:
            phase = np.exp(1j * theta)[:, None, None]
            h = np.linalg.eigvalsh(0.5 * (phase * x + np.conj(phase) * x.conj().T))[:, -1]
        t = rng.uniform(0.0, 2.0 * math.pi)
        v = np.linalg.eigh(0.5 * (np.exp(1j * t) * x + np.exp(-1j * t) * x.conj().T))[1][:, -1]
        outside = complex(np.vdot(v, x @ v)) + 1e-2 * size * np.exp(-1j * t)
        for z in (radii.radius(x, "C").y_star, complex(x[0, 0]), outside):
            ref = hull_distance(z, np.linalg.eigvals(x)) if normal else float(
                (h - (np.exp(1j * theta) * z).real).min())
            res = radii.membership_in_range(x, z)
            assert abs(res.margin) <= abs(ref) * (1.0 + 1e-6) + 1e-12 * size
            if abs(ref) > 1e-9 * size:
                assert res.member == (ref > 0.0) and np.sign(res.margin) == np.sign(ref)


def test_membership_rejects_a_point_that_is_not_finite():
    # a nan or infinite z has no margin: it is rejected before any eigensolve
    for z in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf), math.nan):
        with pytest.raises(ValueError, match="z must be finite"):
            radii.membership_in_range(linalg.PAULI_Z, z)


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
