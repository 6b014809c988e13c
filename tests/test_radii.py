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
            # inverse field-of-values witness
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
            for c in (1e150, 1e200):
                huge = radii.radius(c * x, kind)
                assert abs(huge.value / (c * base) - 1.0) <= 1e-10


def test_central_numerical_radius_scale_sweep():
    for x in _scale_sweep_inputs():
        _, base = radii.central_numerical_radius(x)
        for c in SCALES:
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


def test_inverse_field_value_hits_interior_and_boundary_targets():
    # the witness construction for a degenerate top eigenspace: any point of
    # W(B), on its boundary too, is the expectation of the returned vector
    for trial in range(60):
        rng = np.random.default_rng([417, trial])
        m = int(rng.integers(2, 6))
        b = (linalg.ginibre(m, rng), linalg.random_normal_matrix(m, rng),
             linalg.random_hermitian(m, rng))[trial % 3]
        u0 = linalg.random_unit_vector(m, rng)
        _, edge = radii._support(b, rng.uniform(0.0, 2.0 * math.pi), vectors=True)
        for y in (np.vdot(u0, b @ u0), np.vdot(edge, b @ edge), np.linalg.eigvals(b)[0]):
            u = radii._inverse_field_value(b, complex(y))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert abs(np.vdot(u, b @ u) - y) <= 1e-12 * np.abs(b).max()
    # a vertex of W(B) whose normal cone misses the first eight directions
    b = np.exp(1j * math.pi / 8) * np.diag([1.0, -1.0, 0.05j])
    u = radii._inverse_field_value(b, complex(b[2, 2]))
    assert abs(np.vdot(u, b @ u) - b[2, 2]) <= 1e-12


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
            for c in 10.0 ** np.arange(-300, 301, 50):
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


def test_central_numerical_radius_certificate():
    # the returned value is w(X - z) itself, recomputed independently on a
    # fine grid, and repeatable bit for bit.  It is never above the Cartesian
    # radius by more than the exchange's stopping tolerance, 1e-11 relative:
    # for a normal X both are the radius of the eigenvalues' enclosing circle
    for d in (2, 3, 4, 8, 16):
        for make in (linalg.ginibre, linalg.random_normal_matrix):
            x = make(d, np.random.default_rng([420, d]))
            z, w = radii.central_numerical_radius(x)
            ref = radii.numerical_radius(x - z * np.eye(d), grid=4096)
            assert abs(w - ref) <= 1e-12 * ref
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


def test_central_numerical_radius_round_cap(monkeypatch):
    # a lower bound that never closes the gap ends in ConvergenceError, not a hang
    monkeypatch.setattr(geometry, "_circle_one_fixed", lambda points, p: geometry._Disc(0j, 0.0, ()))
    with pytest.raises(radii.ConvergenceError, match="100-round cap"):
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


@pytest.mark.parametrize("make, seed", BUDGET_INPUTS)
def test_central_numerical_radius_eigensolve_budget(monkeypatch, make, seed):
    # each round of the exchange polishes only the peaks of the recentred
    # support function, a few top eigenvectors each, and few rounds are needed
    x = make(8, np.random.default_rng(seed))
    assert _count_eigh(monkeypatch, radii.central_numerical_radius, x) <= 150


@pytest.mark.parametrize("make, seed", BUDGET_INPUTS)
def test_radius_eigensolve_budget(monkeypatch, make, seed):
    # one eigensolve per round of the exchange, and a few for the witness
    x = make(8, np.random.default_rng(seed))
    assert _count_eigh(monkeypatch, lambda a: radii.radius(a, "C"), x) <= 90


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
