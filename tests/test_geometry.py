"""Planar point-set geometry: variance, enclosing circles, center problems."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from matvar import geometry, linalg
from matvar.geometry import (
    Circle,
    _smallest_disc,
    boundary_support,
    enclosing_circle,
    hull_membership_margin,
    max_variance_distribution,
    murthy_sethi_bound,
    two_largest_radius,
    variance,
)


# ---------------------------------------------------------------------------
# exact oracle: the smallest enclosing circle is determined by two points
# (diameter) or three points (circumcircle), so brute force over all pairs
# and triples gives a reference answer for small sets.


def _oracle_circumcircle(a, b, c):
    ax, ay, bx, by, cx, cy = a.real, a.imag, b.real, b.imag, c.real, c.imag
    det = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(det) < 1e-14:
        return None
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / det
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / det
    z = complex(ux, uy)
    return Circle(z, max(abs(a - z), abs(b - z), abs(c - z)))


def _oracle_circle(points):
    pts = list(points)
    n = len(pts)
    best = None
    candidates = []
    for i in range(n):
        for j in range(i + 1, n):
            mid = 0.5 * (pts[i] + pts[j])
            candidates.append(Circle(mid, max(abs(pts[i] - mid), abs(pts[j] - mid))))
            for k in range(j + 1, n):
                circ = _oracle_circumcircle(pts[i], pts[j], pts[k])
                if circ is not None:
                    candidates.append(circ)
    if n == 1:
        return Circle(pts[0], 0.0)
    for circ in candidates:
        if all(abs(p - circ.center) <= circ.radius * (1 + 1e-12) + 1e-12 for p in pts):
            if best is None or circ.radius < best.radius:
                best = circ
    return best


def _oracle_weighted_value(b, c):
    # min over centers y of max_i |y - b_i|^2 + c_i: the optimum is fixed by
    # one point (y = b_i), two (the point of their radical axis nearest the
    # first mean, clipped to the segment) or three (the radical center), so
    # the best of those candidate centers attains it
    n = len(b)
    cands = list(b)
    for i, j in itertools.combinations(range(n), 2):
        u = b[j] - b[i]
        if abs(u) > 0.0:
            t = min(max(0.5 + (c[j] - c[i]) / (2.0 * abs(u) ** 2), 0.0), 1.0)
            cands.append(b[i] + t * u)
    for i, j, k in itertools.combinations(range(n), 3):
        u, v = b[j] - b[i], b[k] - b[i]
        m = np.array([[u.real, u.imag], [v.real, v.imag]])
        if abs(np.linalg.det(m)) <= 1e-14 * abs(u) * abs(v):
            continue
        w = np.linalg.solve(m, 0.5 * np.array([abs(u) ** 2 + c[j] - c[i], abs(v) ** 2 + c[k] - c[i]]))
        cands.append(b[i] + complex(*w))
    cands = np.array(cands)
    return float((np.abs(cands[:, None] - b[None, :]) ** 2 + c[None, :]).max(axis=1).min())


def _weighted_point_set(trial, rng):
    n = int(rng.integers(1, 12))
    b = linalg.random_point_set(n, rng)
    if trial % 4 == 1:  # collinear, with duplicates
        b = rng.integers(-3, 4, n) * complex(rng.standard_normal(), rng.standard_normal())
    elif trial % 4 == 2:  # duplicate points
        b[: n // 2] = b[n - n // 2:][: n // 2]
    elif trial % 4 == 3:  # coincident means (with different weights when c != 0)
        b[:] = b[0]
    c = np.zeros(n) if (trial // 4) % 2 == 0 else rng.uniform(0.0, 1.0, n)
    return b, c


def test_weighted_disc_matches_brute_force():
    for trial in range(160):
        rng = np.random.default_rng([309, trial])
        b, c = _weighted_point_set(trial, rng)
        center, radius, idx = _smallest_disc(b, c)
        value = radius * radius
        ref = _oracle_weighted_value(b, c)
        assert abs(value - ref) <= 1e-12 * ref
        assert (np.abs(b - center) ** 2 + c).max() <= value * (1.0 + 1e-12)
        # at most three points fix the disc, and its center lies in their hull
        assert 1 <= len(idx) <= 3 and len(set(idx)) == len(idx)
        rel = (b[idx] - center) / max(radius, 1e-300)
        lams = np.linalg.lstsq(np.array([rel.real, rel.imag, np.ones(len(idx))]),
                               np.array([0.0, 0.0, 1.0]), rcond=None)[0]
        assert lams.min() >= -1e-12
        assert abs(np.dot(lams, rel)) <= 1e-12 and abs(lams.sum() - 1.0) <= 1e-12


def test_weighted_disc_with_nearly_collinear_means():
    # a heavy point between two light ones, eta off their line, all three on
    # the disc, as the exchange of radius meets them on nearly normal inputs:
    # only the center's offset across the line is ill-conditioned, and it
    # must not leak into the value (a radical center solved from one vertex
    # lost up to 5.7e-12 here)
    for trial in range(200):
        rng = np.random.default_rng([310, trial])
        eta = 10.0 ** rng.uniform(-9.0, -5.0)
        b = np.array([-1.0, rng.uniform(-0.5, 0.5), 1.0]) + 1j * eta * rng.standard_normal(3)
        center = complex(rng.dirichlet(np.ones(3)) @ b)
        c = 5.0 - np.abs(center - b) ** 2  # every point has power 5 at the center, which they hold
        phase, shift = np.exp(2j * math.pi * rng.uniform()), complex(*rng.standard_normal(2))
        _, radius, _ = _smallest_disc(phase * b + shift, c)
        assert abs(radius * radius / 5.0 - 1.0) <= 1e-13


def test_two_point_step_with_collinear_or_coincident_means():
    # the smallest disc with p and q on its boundary holding pts, when one of
    # pts has no radical disc with p and q: its mean is on their line, or
    # equal to one of theirs
    p, q = (-1.0 + 0j, 0.0, "p"), (1.0 + 0j, 0.0, "q")
    above = (2j, 0.0, "above")  # the circle through p, q and 2i: center 0.75i, radius 1.25
    for other in [(0.5 + 0j, 0.0, "between"), (0.5 + 0j, 0.3, "weighted"),
                  (-1.0 + 0j, 0.0, "at p"), (1.0 + 0j, 0.0, "at q"), (2j, 0.0, "twice")]:
        for pts in ([other, above], [above, other]):
            disc = geometry._circle_two_fixed(pts, p, q)
            assert abs(disc.center - 0.75j) <= 1e-15 and abs(disc.radius - 1.25) <= 1e-15
            assert all(geometry._inside(s, disc) for s in [p, q, *pts])
    # a disc with heavier p and a lighter point at p's mean
    p = (-1.0 + 0j, 0.25, "p")
    disc = geometry._circle_two_fixed([(-1.0 + 0j, 0.1, "light"), above], p, q)
    assert all(geometry._inside(s, disc) for s in [p, q, above, (-1.0 + 0j, 0.1, "light")])
    for s in (p, q, above):
        assert abs(math.hypot(abs(s[0] - disc.center), math.sqrt(s[1])) - disc.radius) <= 1e-15
    # no disc through p and q holds a point on their line beyond q, or one
    # heavier than p at p's mean: the pair's disc is returned, as before
    p = (-1.0 + 0j, 0.0, "p")
    for s in [(3.0 + 0j, 0.0, "beyond"), (-1.0 + 0j, 0.5, "heavy")]:
        assert geometry._circle_two_fixed([s], p, q) == geometry._pair_disc(p, q)


def test_variance_examples():
    assert_allclose(variance([0.0, 2.0], [0.5, 0.5]), 1.0, atol=1e-14)
    assert_allclose(variance([5.0 + 1j], [1.0]), 0.0, atol=1e-14)
    roots = [1.0, 1j, -1.0, -1j]
    assert_allclose(variance(roots, [0.25] * 4), 1.0, atol=1e-14)
    with pytest.raises(ValueError, match="sum"):
        variance([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError, match="negative"):
        variance([0.0, 1.0], [1.5, -0.5])
    with pytest.raises(ValueError, match="probabilities"):
        variance([0.0, 1.0], [1.0])


def test_variance_never_exceeds_spread_bound():
    assert_allclose(murthy_sethi_bound(0.0, 2.0), 1.0, atol=1e-15)
    assert_allclose(murthy_sethi_bound(-1.0, 1.0), 1.0, atol=1e-15)
    assert murthy_sethi_bound(3.0, 3.0) == 0.0
    with pytest.raises(ValueError):
        murthy_sethi_bound(2.0, 1.0)
    for trial in range(200):
        rng = np.random.default_rng([301, trial])
        d = int(rng.integers(1, 9))
        x = rng.standard_normal(d)
        p = rng.random(d)
        p /= p.sum()
        assert variance(x, p) <= murthy_sethi_bound(x.min(), x.max()) + 1e-12


def test_variance_on_simplex_grid_stays_below_bound():
    # scan whole probability simplices in d <= 4 on a coarse grid
    rng = np.random.default_rng(302)
    for d in (2, 3, 4):
        x = rng.standard_normal(d)
        bound = murthy_sethi_bound(x.min(), x.max())
        steps = 50  # grid resolution 0.02
        best = 0.0
        if d == 2:
            grid = np.arange(steps + 1) / steps
            weights = np.stack([grid, 1.0 - grid], axis=1)
        elif d == 3:
            ij = [(i, j) for i in range(steps + 1) for j in range(steps + 1 - i)]
            weights = np.array([[i / steps, j / steps, (steps - i - j) / steps] for i, j in ij])
        else:
            ijk = [(i, j, k)
                   for i in range(steps + 1)
                   for j in range(steps + 1 - i)
                   for k in range(steps + 1 - i - j)]
            weights = np.array([[i / steps, j / steps, k / steps,
                                 (steps - i - j - k) / steps] for i, j, k in ijk])
        mu = weights @ x
        var = (weights * (x[None, :] - mu[:, None]) ** 2).sum(axis=1)
        best = float(var.max())
        assert best <= bound + 1e-12
        # the bound is approached by the extremal half/half distribution
        assert murthy_sethi_bound(x.min(), x.max()) - best <= 1e-2 * (1 + bound)


def test_enclosing_circle_examples():
    c = enclosing_circle([0.0, 1.0])
    assert_allclose([c.center.real, c.center.imag, c.radius], [0.5, 0.0, 0.5], atol=1e-14)
    c = enclosing_circle([1.0, -1.0])
    assert_allclose([c.center.real, c.center.imag, c.radius], [0.0, 0.0, 1.0], atol=1e-14)
    c = enclosing_circle([1.0, 1j, -1.0, -1j])
    assert_allclose([abs(c.center), c.radius], [0.0, 1.0], atol=1e-12)
    c = enclosing_circle([2.0 + 1j])
    assert c.radius == 0.0 and c.center == 2.0 + 1j
    # collinear input falls back to the extreme pair
    c = enclosing_circle([0.0, 1.0, 2.0, 3.0])
    assert_allclose([c.center.real, c.center.imag, c.radius], [1.5, 0.0, 1.5], atol=1e-13)


def test_enclosing_circle_matches_brute_force():
    for trial in range(120):
        rng = np.random.default_rng([303, trial])
        n = int(rng.integers(2, 11))
        pts = linalg.random_point_set(n, rng)
        if trial % 5 == 0:  # force duplicates and collinear runs
            pts[0] = pts[-1]
        got = enclosing_circle(pts)
        ref = _oracle_circle(pts)
        assert_allclose(got.radius, ref.radius, atol=1e-11 * (1 + ref.radius))
        assert abs(got.center - ref.center) <= 1e-9 * (1 + ref.radius)
        # containment and determinism
        assert np.abs(pts - got.center).max() <= got.radius * (1 + 1e-12) + 1e-12
        again = enclosing_circle(pts)
        assert again.center == got.center and again.radius == got.radius
        # center sits in the convex hull of the boundary support
        idx = boundary_support(pts, got, tol=1e-7)
        assert idx.size >= 1
        if idx.size >= 2:
            assert hull_membership_margin(got.center, pts[idx]) >= -1e-7 * (1 + got.radius)


def test_max_variance_examples():
    probs, val = max_variance_distribution([0.0, 2.0])
    assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    assert_allclose(val, 1.0, atol=1e-12)
    probs, val = max_variance_distribution([7.0 - 2j])
    assert_allclose(probs, [1.0])
    assert val == 0.0
    probs, val = max_variance_distribution([0.0, 1.0, 1j])
    assert_allclose(val, 0.5, atol=1e-12)
    assert_allclose(variance([0.0, 1.0, 1j], probs), val, atol=1e-10)
    # collinear points: half on each end
    probs, val = max_variance_distribution([0.0, 1.0, 2.0, 3.0])
    assert_allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    assert_allclose(val, 2.25, atol=1e-12)
    # duplicated boundary points split their mass but keep the squared radius
    for pts in ([0.0, 2.0, 2.0, 0.0], [1.0, 1j, -1.0, -1j, 1.0, -1.0, 1j],
                np.exp(2j * math.pi * np.arange(10) / 5)):
        probs, val = max_variance_distribution(pts)
        radius = enclosing_circle(pts).radius
        assert_allclose(val, radius * radius, rtol=1e-12)
        assert_allclose(variance(pts, probs), val, rtol=1e-12)


def test_max_variance_against_simplex_grid():
    # direct grid search over the simplex for three points
    pts = np.array([0.0, 1.0, 1j])
    steps = 1000
    i = np.arange(steps + 1)
    a, b = np.meshgrid(i, i, indexing="ij")
    mask = a + b <= steps
    pa, pb = a[mask] / steps, b[mask] / steps
    pc = 1.0 - pa - pb
    mu = pb * 1.0 + pc * 1j
    grid_best = float((pa * np.abs(mu) ** 2 + pb * np.abs(1.0 - mu) ** 2
                       + pc * np.abs(1j - mu) ** 2).max())
    _, val = max_variance_distribution(pts)
    assert abs(val - grid_best) <= 1e-3


def test_max_variance_properties():
    for trial in range(150):
        rng = np.random.default_rng([304, trial])
        n = int(rng.integers(2, 13))
        pts = linalg.random_point_set(n, rng)
        probs, val = max_variance_distribution(pts)
        circ = enclosing_circle(pts)
        scale = 1.0 + circ.radius
        assert_allclose(val, circ.radius**2, atol=1e-10 * scale**2)
        assert_allclose(variance(pts, probs), val, atol=1e-8 * scale**2)
        # the mean of the maximizer is the circle center
        assert abs(np.dot(probs, pts) - circ.center) <= 1e-7 * scale
        # support: at most three points, all on the boundary
        support = np.flatnonzero(probs > 1e-12)
        assert 1 <= support.size <= 3
        assert np.all(np.abs(np.abs(pts[support] - circ.center) - circ.radius)
                      <= 1e-6 * scale)
        # no other distribution on the same points does better
        for _ in range(5):
            q = rng.random(n)
            q /= q.sum()
            assert variance(pts, q) <= val + 1e-9 * scale**2


def test_enclosing_circle_with_nearly_coincident_points():
    # the unit circle through one point and a pair eta apart opposite it:
    # the circumcenter, taken from a vertex whose edges are nearly parallel,
    # lost the radius to about 1e-16 / eta (4e-10 at the worst)
    for trial in range(40):
        rng = np.random.default_rng([308, trial])
        eta = 10.0 ** rng.uniform(-8.0, -4.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        pts = np.exp(1j * (phi + np.array([0.0, math.pi - eta, math.pi + eta])))
        for order in itertools.permutations(range(3)):
            assert abs(enclosing_circle(pts[list(order)]).radius - 1.0) <= 1e-13


def test_enclosing_circle_and_max_variance_are_scale_covariant():
    # no slack is absolute and no square underflows or overflows: the
    # circle and the maximizing distribution follow the points from 1e-300
    # to 1e300
    for trial in range(20):
        rng = np.random.default_rng([307, trial])
        pts = linalg.random_point_set(int(rng.integers(3, 12)), rng)
        base = enclosing_circle(pts).radius
        probs, _ = max_variance_distribution(pts)
        for c in (1e-300, 1e-100, 1e-14, 1e100, 1e154, 1e200, 1e300):
            assert abs(enclosing_circle(c * pts).radius / c - base) <= 1e-12 * base
            if math.isinf(c * base * c * base):
                with pytest.raises(OverflowError, match="square of the radius"):
                    max_variance_distribution(c * pts)
                continue
            scaled, _ = max_variance_distribution(c * pts)
            assert np.abs(scaled - probs).max() <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_spreads():
    # numpy divides a complex array by a subnormal real through its
    # reciprocal, which overflows: two points a subnormal distance apart
    # still give their midpoint, half their distance and equal weights, to
    # the few digits a subnormal carries
    for pts in ([1e-300, 1e-300 + 1e-316j], [1e-300, 1e-300 * (1 + 2**-40)]):
        pts = np.array(pts, dtype=np.complex128)
        mid, half = 0.5 * (pts[0] + pts[1]), 0.5 * abs(pts[1] - pts[0])
        circ = enclosing_circle(pts)
        assert abs(circ.center - mid) <= 1e-6 * half and abs(circ.radius - half) <= 1e-6 * half
        probs, _ = max_variance_distribution(pts)
        assert np.abs(probs - 0.5).max() <= 1e-6
        for p in (2.0, math.inf):
            z, val = two_largest_radius(pts, p)
            assert abs(z - mid) <= 1e-6 * half and abs(val - half) <= 1e-6 * half


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spans_near_the_largest_float():
    # the centroid's sum would overflow here unless taken in a smaller unit
    big = 1.7e308
    for pts, center, radius in (([big, 1.6e308], 1.65e308, 5e306), ([big, -big], 0.0, big),
                                ([-big, big, 0.0, 1e308j, -1e308j], 0.0, big),
                                ([big, -big, big * 1j], 0.0, big),
                                # the spread from the centroid exceeds the largest float
                                ([big, -big, -big], 0.0, big)):
        pts = np.array(pts, dtype=np.complex128)
        circ = enclosing_circle(pts)
        assert abs(circ.center - center) <= 1e-12 * radius and abs(circ.radius - radius) <= 1e-12 * radius
        # the largest variance, radius^2, is beyond the largest float
        with pytest.raises(OverflowError, match=re.escape(f"radius {circ.radius!r}")):
            max_variance_distribution(pts)
        for p in (2.0, math.inf):
            assert abs(two_largest_radius(pts, p)[1] - radius) <= 1e-12 * radius


def test_enclosing_circle_of_large_sets():
    # Gaussian sets, points on one circle, and the quarter-step lattice,
    # whose four corners are cocircular
    for n in (1024, 4096):
        rng = np.random.default_rng([311, n])
        side = math.isqrt(n)
        lattice = (np.arange(side)[:, None] + 1j * np.arange(side)[None, :]).ravel() / 4
        for pts in (linalg.random_point_set(n, rng), np.exp(2j * math.pi * rng.uniform(size=n)), lattice):
            circ = enclosing_circle(pts)
            _, ref = two_largest_radius(pts, math.inf)
            assert abs(circ.radius - ref) <= 1e-12 * ref
            assert np.abs(pts - circ.center).max() <= circ.radius * (1.0 + 1e-12)
            assert 1 <= len(_smallest_disc(pts, np.zeros(n))[2]) <= 3


def test_two_largest_radius_examples():
    z, val = two_largest_radius([0.0, 1.0], 2.0)
    assert_allclose([z.real, z.imag, val], [0.5, 0.0, 0.5], atol=1e-7)
    z, val = two_largest_radius([0.0, 1.0, 1j], 1.0)
    ref = enclosing_circle([0.0, 1.0, 1j])
    assert_allclose(val, ref.radius, atol=1e-8)
    assert abs(z - ref.center) <= 1e-5
    # scale covariance where squared distances underflow or overflow
    for c in (1e-200, 1e200):
        z, val = two_largest_radius(c * np.array([0.0, 1.0, 1j]), 1.0)
        assert abs(val / c - ref.radius) <= 1e-12 * ref.radius
    with pytest.raises(ValueError, match=">= 1"):
        two_largest_radius([0.0, 1.0], 0.5)
    with pytest.raises(ValueError, match="two"):
        two_largest_radius([1.0], 2.0)


def test_two_largest_radius_equals_enclosing_radius():
    for trial in range(60):
        rng = np.random.default_rng([305, trial])
        n = int(rng.integers(2, 13))
        pts = linalg.random_point_set(n, rng)
        circ = enclosing_circle(pts)
        for p in (1.0, 2.0, 4.0, math.inf):
            z, val = two_largest_radius(pts, p)
            assert abs(val - circ.radius) <= 1e-7 * (1 + circ.radius)
        # plain radius never beats the two-point mean at the origin probe
        dists = np.sort(np.abs(pts))[::-1]
        probe = (0.5 * (dists[0] ** 2 + dists[1] ** 2)) ** 0.5
        assert circ.radius <= probe + 1e-9


def test_radius_invariances():
    for trial in range(80):
        rng = np.random.default_rng([306, trial])
        n = int(rng.integers(2, 10))
        pts = linalg.random_point_set(n, rng)
        circ = enclosing_circle(pts)
        shift = complex(rng.standard_normal(), rng.standard_normal())
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
        moved = phase * pts + shift
        c2 = enclosing_circle(moved)
        assert_allclose(c2.radius, circ.radius, atol=1e-11 * (1 + circ.radius))
        assert abs(c2.center - (phase * circ.center + shift)) <= 1e-9 * (1 + circ.radius)
        t = abs(rng.standard_normal()) + 0.1
        c3 = enclosing_circle(t * pts)
        assert_allclose(c3.radius, t * circ.radius, atol=1e-11 * (1 + t * circ.radius))


def test_mean_shift_penalty_identity():
    # for any distribution q on the points, the second moment about the mean
    # of q exceeds the variance by exactly |mean q - mean p|^2 when recentered
    for trial in range(80):
        rng = np.random.default_rng([307, trial])
        n = int(rng.integers(2, 10))
        pts = linalg.random_point_set(n, rng)
        p = rng.random(n)
        p /= p.sum()
        q = rng.random(n)
        q /= q.sum()
        mu_p = np.dot(p, pts)
        mu_q = np.dot(q, pts)
        second_about_q = float(np.dot(p, np.abs(pts - mu_q) ** 2))
        assert_allclose(second_about_q, variance(pts, p) + abs(mu_q - mu_p) ** 2,
                        atol=1e-10 * (1 + second_about_q))


def test_midpoint_polygon_contains_circle_center():
    # the enclosing-circle center of a convex polygon lies in the polygon
    # whose vertices are the midpoints of its edges
    for trial in range(100):
        rng = np.random.default_rng([308, trial])
        n = int(rng.integers(3, 10))
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        a, b = rng.uniform(0.3, 2.0, 2)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        shift = complex(rng.standard_normal(), rng.standard_normal())
        # vertices in order along a convex curve give a convex polygon
        poly = shift + phase * (a * np.cos(theta) + 1j * b * np.sin(theta))
        mids = 0.5 * (poly + np.roll(poly, -1))
        center = enclosing_circle(poly).center
        assert hull_membership_margin(center, mids) >= -1e-9 * (1 + np.abs(poly).max())


def test_hull_membership_margin(hull_distance):
    # the margin is the signed distance from z to the hull's boundary
    square = [1.0 + 1j, 1.0 - 1j, -1.0 + 1j, -1.0 - 1j]
    assert hull_membership_margin(0.0, square) > 0.9
    assert hull_membership_margin(2.0, square) < -0.9
    assert abs(hull_membership_margin(1.0, square)) <= 1e-15
    assert hull_membership_margin(1.0 + 1j, square) == 0.0  # a vertex
    # one point, repeated points and a segment: a hull with no interior
    assert hull_membership_margin(3.0 + 4j, [0.0]) == -5.0
    assert hull_membership_margin(0.5, [0.5]) == 0.0
    assert hull_membership_margin(2.0, [1.0, 1.0, 1.0]) == -1.0
    assert hull_membership_margin(1.0, [1.0, 1.0, 1.0]) == 0.0
    assert abs(hull_membership_margin(0.25j, [1j, -1j, 0.0, 1j])) <= 1e-15
    assert abs(hull_membership_margin(1.0, [1j, -1j]) + 1.0) <= 1e-15
    assert abs(hull_membership_margin(3j, [1j, -1j, 1j]) + 2.0) <= 1e-15
    for trial in range(60):
        rng = np.random.default_rng([311, trial])
        n = int(rng.integers(1, 25))
        pts = complex(*rng.standard_normal(2)) + rng.uniform(0.1, 10.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for z in (pts.mean(), pts[0], complex(*rng.standard_normal(2)), 3.0 * pts[-1]):
            scale = 1.0 + np.abs(pts).max() + abs(z)
            assert abs(hull_membership_margin(z, pts) - hull_distance(z, pts)) <= 1e-13 * scale
    # large sets, cocircular ones included: every point a hull vertex
    for n in (500, 1000):
        rng = np.random.default_rng([311, n])
        for pts in (rng.standard_normal(n) + 1j * rng.standard_normal(n),
                    np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n)), np.exp(2j * math.pi * np.arange(n) / n)):
            for z in (0.0, 0.999, 1.5j, pts[3], complex(*rng.standard_normal(2))):
                scale = 1.0 + np.abs(pts).max() + abs(z)
                assert abs(hull_membership_margin(z, pts) - hull_distance(z, pts)) <= 1e-13 * scale
    # the margin follows the points from 1e-300 to 1e307, where the hull's
    # turn tests would under- or overflow unscaled
    pts = np.random.default_rng(313).standard_normal(12) + 1j * np.random.default_rng(314).standard_normal(12)
    for z in (0.1, 5.0, pts[0]):
        ref = hull_distance(z, pts)
        for c in (1e-300, 1e-200, 1e200, 1e300, 2.0**1020):
            assert abs(hull_membership_margin(c * z, c * pts) / c - ref) <= 1e-13 * (1.0 + abs(ref))
    for z in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="z must be finite"):
            hull_membership_margin(z, square)
