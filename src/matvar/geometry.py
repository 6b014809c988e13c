"""Planar geometry of finite point sets in the complex plane.

Variance of a weighted point set, the (max - min)^2 / 4 bound on the variance
of bounded real samples, and one farthest-point exchange, ``_exchange``, for
the smallest disc around points b_i with additive weights c_i >= 0,
min_y max_i |y - b_i|^2 + c_i.  Over a finite set with every weight 0 it
gives the smallest enclosing circle and the variance-maximizing distribution;
``radii.radius`` runs it over states.  ``two_largest_radius`` finds the
center minimizing the power mean of the two largest distances by its own
ellipsoid method, an independent reference for the enclosing circle.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import _as_vector, _divide, _require_finite, _scaled, _unscaled, _unscaled_pair

__all__ = [
    "Circle",
    "ConvergenceError",
    "variance",
    "murthy_sethi_bound",
    "enclosing_circle",
    "max_variance_distribution",
    "two_largest_radius",
    "hull_membership_margin",
]

class Circle(NamedTuple):
    center: complex
    radius: float


class ConvergenceError(RuntimeError):
    """Raised when the center minimization reaches its iteration cap."""


def _as_probs(probs, n: int) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    if p.size != n:
        raise ValueError(f"{n} points but {p.size} probabilities")
    if p.min() < -1e-12:
        raise ValueError(f"negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    s = p.sum()
    if abs(s - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {s!r}, not 1")
    return p / s


def _centre(points: np.ndarray, floor: float = 0.0) -> tuple[complex, float, float, np.ndarray]:
    # points = centroid + unit * spread * rel, unit from _scaled and spread the
    # largest distance from the centroid in it (at least floor): rel's squared
    # lengths neither underflow nor overflow, and neither do the mean's sums
    # or a spread beyond the largest float, which stay in the unit
    unit, rel = _scaled(points, floor)
    mean = complex(rel.mean())
    rel = rel - mean
    spread = max(float(np.abs(rel).max()), floor / unit)
    return mean * unit, unit, spread, _divide(rel, spread or 1.0)


def variance(points, probs) -> float:
    """sum_i p_i |x_i - mean|^2 for complex points x with weights p;
    ``OverflowError`` if it exceeds the largest float."""
    unit, x = _scaled(_as_vector(points))  # no square under- or overflows; the variance maps back by unit^2
    p = _as_probs(probs, x.size)
    mu = np.dot(p, x)
    square = max(float(np.dot(p, np.abs(x - mu) ** 2)), 0.0)
    return _unscaled_pair(square, unit, unit, "variance")


def murthy_sethi_bound(lo: float, hi: float) -> float:
    """Largest possible variance of a real sample confined to [lo, hi];
    ``OverflowError`` if it exceeds the largest float."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"need finite bounds with lo <= hi, got ({lo!r}, {hi!r})")
    half = 0.5 * hi - 0.5 * lo  # finite, where hi - lo may not be
    return _unscaled(half, half, "variance bound")


# ---------------------------------------------------------------------------
# smallest weighted disc


# A weighted point is a tuple (b, c, i): a complex mean b, a weight c >= 0 and
# a tag i that the exchange carries along unread: the point's index in a
# finite set, or for ``radii.radius`` the top eigenvector whose mean and
# variance b and c are.  Its power at a center y is
# sqrt(|y - b|^2 + c); a disc holds it when that power is at most its radius.


class _Disc(NamedTuple):
    center: complex
    radius: float
    support: tuple  # the at most three points that fix the disc


def _disc(y: complex, support: tuple) -> _Disc:
    return _Disc(y, max([math.hypot(abs(y - b), math.sqrt(c)) for b, c, _ in support]), support)


def _axis_foot(p: tuple, q: tuple) -> complex:
    # where the radical axis of p and q crosses the line through their means
    u = q[0] - p[0]
    return 0.5 * (p[0] + q[0]) + (0.5 * (q[1] - p[1]) / (u.real * u.real + u.imag * u.imag)) * u


def _pair_disc(p: tuple, q: tuple) -> _Disc:
    u = q[0] - p[0]
    if u.real * u.real + u.imag * u.imag == 0.0:  # coincident means: the larger weight covers the other
        return _disc(q[0], (q,)) if q[1] > p[1] else _disc(p[0], (p,))
    return _disc(_axis_foot(p, q), (p, q))


def _radical_disc(a: tuple, b: tuple, c: tuple) -> _Disc | None:
    # the center of equal power lies on the radical axis of the ends b, c of
    # the longest side, where a's power matches theirs.  When the means are
    # nearly collinear only the step along that axis is ill-conditioned, and
    # an error in it changes the powers least
    a, b, c = max((a, b, c), (b, c, a), (c, a, b), key=lambda t: abs(t[1][0] - t[2][0]))
    e = c[0] - b[0]
    cross = (e.conjugate() * (b[0] - a[0])).imag
    if abs(cross) <= 1e-14 * max(e.real * e.real + e.imag * e.imag, 1e-300):
        return None  # collinear means
    foot = _axis_foot(b, c)
    gap = abs(foot - b[0]) ** 2 + b[1] - abs(foot - a[0]) ** 2 - a[1]
    return _disc(foot + 1j * e * (0.5 * gap / cross), (a, b, c))


def _inside(p: tuple, d: _Disc) -> bool:
    return math.hypot(abs(p[0] - d.center), math.sqrt(p[1])) <= d.radius * (1.0 + 1e-14) + 1e-14


def _circle_two_fixed(pts: list, p: tuple, q: tuple) -> _Disc:
    # smallest disc with p and q on its boundary holding pts: at most two points, as the exchange keeps
    # only a disc's support of at most three.  The pair's disc, else the least radical disc through a
    # point outside it that holds them all; if rounding leaves none, the pair's disc after all
    base = _pair_disc(p, q)
    discs = [_radical_disc(p, q, s) for s in pts if not _inside(s, base)]
    holding = [d for d in discs if d is not None and all(_inside(s, d) for s in pts)]
    return min(holding, key=lambda d: d.radius, default=base)


def _circle_one_fixed(pts: list, p: tuple) -> _Disc:
    # smallest disc with p on its boundary holding pts
    d = _disc(p[0], (p,))
    for j, q in enumerate(pts):
        if not _inside(q, d):
            d = _circle_two_fixed(pts[:j], p, q)
    return d


def _exchange(farthest, y: complex, rtol: float, cap: int) -> tuple[complex, float, _Disc, bool]:
    """Farthest-point exchange (Elzinga and Hearn, Transportation Science 6,
    1972) for min_y f(y), f the largest power over a set of weighted points.

    ``farthest(y)`` returns f(y), or an estimate, and the point of the set
    farthest from y.  A point outside the disc grows it by Welzl's step
    (LNCS 555, 1991), and only the at most three points that fix the new disc
    are kept: the disc of a subset still bounds min f from below, and its
    center is the next y.  So each Welzl step sees at most four points, and
    its two-point step picks among at most three discs: the pair's and two
    radical ones.  Stops once the point lies in the disc or the best value is
    within ``rtol`` of its radius, relatively.  Returns the best y, its
    value, the disc and whether it stopped in time.
    """
    disc = None
    best_y, best = y, math.inf
    for _ in range(cap):
        value, p = farthest(y)
        if value < best:
            best_y, best = y, value
        if disc is not None and _inside(p, disc):
            return best_y, best, disc, True
        disc = _circle_one_fixed(list(disc.support) if disc else [], p)
        if best - disc.radius <= rtol * best:
            return best_y, best, disc, True
        y = disc.center
    return best_y, best, disc, False


def _smallest_disc(points: np.ndarray, weights: np.ndarray) -> tuple[complex, float, list]:
    """The disc of least radius max_i sqrt(|y - b_i|^2 + c_i) over centers y,
    for points b_i with weights c_i >= 0, and the indices of the at most
    three points that fix it; its center lies in their convex hull.  The
    exchange runs on the points as ``_centre`` scales them, and the weights
    in the same unit, with an argmax over the set as its farthest point.
    ``OverflowError`` when the radius exceeds the largest float."""
    centroid, unit, spread, rel = _centre(points, math.sqrt(float(weights.max())))
    if spread == 0.0:
        return complex(points[0]), 0.0, [0]
    c = weights / unit / unit / spread / spread

    def farthest(y: complex) -> tuple[float, tuple]:
        power = np.abs(rel - y) ** 2 + c
        i = int(np.argmax(power))
        return math.sqrt(power[i]), (complex(rel[i]), float(c[i]), i)

    # the radius grows every round; 11 rounds at most on 4,000 seeded sets
    d = _exchange(farthest, 0j, 0.0, 2 * points.size + 2)[2]
    # report the exact radius at the computed center; a distance past the largest float is named, not warned of
    center = centroid + spread * d.center * unit
    with np.errstate(over="ignore"):
        radius = float(np.hypot(np.abs(points - center), np.sqrt(weights)).max())
    if math.isinf(radius):
        raise OverflowError(f"the radius, {unit!r} times {spread * d.radius!r}, overflows")
    return center, radius, [p[2] for p in d.support]


def enclosing_circle(points) -> Circle:
    """Smallest circle containing all points: the weighted disc of
    ``_smallest_disc`` with every weight 0 (unique, deterministic and
    scale-covariant); ``OverflowError`` if its radius exceeds the largest float."""
    pts = _as_vector(points)
    return Circle(*_smallest_disc(pts, np.zeros(pts.size))[:2])


# ---------------------------------------------------------------------------
# max-variance distribution


def max_variance_distribution(points) -> tuple[np.ndarray, float]:
    """Probabilities maximizing the variance over a fixed point set.

    The maximum equals the squared radius of the smallest enclosing circle.
    It is attained by the barycentric coordinates of the circle's center in
    the at most three points that fix the circle: a distribution on them
    whose mean is the center.  Raises ``OverflowError`` when the radius, or
    its square, exceeds the largest float.
    """
    pts = _as_vector(points)
    center, radius, idx = _smallest_disc(pts, np.zeros(pts.size))
    rel = _divide(pts[idx] - center, radius or 1.0)  # radius 0: every point is the center
    lams = np.linalg.lstsq(np.array([rel.real, rel.imag, np.ones(len(idx))]),
                           np.array([0.0, 0.0, 1.0]), rcond=None)[0].clip(0.0, None)
    probs = np.zeros(pts.size)
    probs[idx] = lams / lams.sum()
    return probs, _unscaled(radius, radius, "largest variance")


# ---------------------------------------------------------------------------
# two-largest-distance radius


def two_largest_radius(points, p: float) -> tuple[complex, float]:
    """Minimize over centers z the p-mean of the two largest |x_i - z|.

    For every p >= 1 the minimum equals the radius of the smallest enclosing
    circle and is attained at its center.  The objective is a monotone
    symmetric gauge of the convex distances d_i = |x_i - z|, hence convex;
    with M its value, sum over the two farthest points of
    (d_i / M)^(p-1) (z - x_i) / (2 d_i) is a subgradient (for p = inf, the
    unit vector from the farthest point).  The central-cut ellipsoid method
    solves it from the smallest disc about the centroid that holds every
    point: the ellipsoid {u : (u - c)^T P^-1 (u - c) <= 1} holds every
    minimiser, each step keeps the half that the subgradient g points away
    from, and f(c) - sqrt(g^T P g) bounds min f from below.  It stops once the
    best value is within 1e-14 of that bound, relatively, or once g^T P g = 0
    (the ellipsoid has collapsed onto a minimiser): at most 250 steps on up to
    12 points.  Raises ``ConvergenceError`` after 1,000 steps, and
    ``OverflowError`` if the minimum exceeds the largest float.
    """
    pts = _as_vector(points)
    if pts.size < 2:
        raise ValueError("need at least two points")
    if not (p >= 1.0):
        raise ValueError(f"power mean exponent must be >= 1, got {p!r}")
    centroid, unit, spread, rel = _centre(pts)
    if spread == 0.0:
        return centroid, 0.0

    pts = rel.tolist()  # at most a dozen points in the acceptance gate: plain floats beat numpy calls

    def oracle(u: complex) -> tuple[float, complex]:
        near, far = sorted(pts, key=lambda z: abs(z - u))[-2:]  # the farthest last
        second, top = abs(near - u), abs(far - u)
        if math.isinf(p):
            return top, (u - far) / top
        val = top * (0.5 * ((second / top) ** p + 1.0)) ** (1.0 / p)
        grad = 0.5 * (top / val) ** (p - 1.0) * (u - far) / top
        if second > 0.0:
            grad += 0.5 * (second / val) ** (p - 1.0) * (u - near) / second
        return val, grad

    c, p11, p12, p22 = 0j, 1.0, 0.0, 1.0
    best_u, best, lower = c, math.inf, -math.inf
    for _ in range(1000):
        f, g = oracle(c)
        if f < best:
            best_u, best = c, f
        px, py = p11 * g.real + p12 * g.imag, p12 * g.real + p22 * g.imag
        gpg = g.real * px + g.imag * py
        lower = max(lower, f - math.sqrt(max(gpg, 0.0)))
        if best - lower <= 1e-14 * best or gpg <= 0.0:
            return centroid + spread * best_u * unit, _unscaled(spread * best, unit, "radius")
        px, py = px / math.sqrt(gpg), py / math.sqrt(gpg)
        c -= complex(px, py) / 3.0
        p11, p12, p22 = (4.0 / 3.0 * (p11 - 2.0 / 3.0 * px * px),
                         4.0 / 3.0 * (p12 - 2.0 / 3.0 * px * py),
                         4.0 / 3.0 * (p22 - 2.0 / 3.0 * py * py))
    raise ConvergenceError(f"center search hit its 1000-step cap; best {best!r}, lower bound {lower!r}")


# ---------------------------------------------------------------------------
# convex hull membership (exact support-line margin)


def _support_margin(z: complex, points: np.ndarray, normals: np.ndarray) -> tuple[float, complex]:
    """min max_k Re(conj(u) (p_k - z)) over the unit u along ``normals`` and from
    each point to z, and its u: the signed distance from z to the boundary of the
    hull (positive inside) once ``normals`` holds every hull edge's, else above."""
    w = points - z
    d = np.concatenate((normals, -w))
    d = d[d != 0] if d.any() else np.ones(1)  # no direction: every point is z
    u = _divide(d, np.abs(d))  # part by part: a subnormal modulus has no finite reciprocal
    h = (np.stack((u.real, u.imag), 1) @ np.stack((w.real, w.imag))).max(axis=1)  # Re(conj(u) w)
    return float(h.min()) + 0.0, complex(u[h.argmin()])  # + 0.0: no margin reads -0


def _hull(points: np.ndarray) -> np.ndarray:
    """The vertices of the points' convex hull, counterclockwise, by Andrew's
    monotone chain (Inf. Process. Lett. 9, 1979); at most two without interior."""
    pts, hull = np.unique(points).tolist(), []  # sorted by real part, then imaginary part
    for seq in (pts, pts[-2::-1]):  # the lower chain, then the upper one back to the first point
        least = max(len(hull) + 1, 2)
        for p in seq:
            while len(hull) >= least and ((hull[-1] - hull[-2]).conjugate() * (p - hull[-2])).imag <= 0.0:
                hull.pop()  # no left turn at hull[-1]
            hull.append(p)
    return np.array(hull[:-1] or pts)


def hull_membership_margin(z: complex, points) -> float:
    """The signed distance from z to the boundary of the points' convex hull,
    positive inside, exactly: from its edges' outward normals; ``ValueError`` for z not finite."""
    _require_finite(z, "z")
    unit, pts = _scaled(_as_vector(points), max(abs(z.real), abs(z.imag)))  # no turn test under- or overflows
    hull = _hull(pts)
    return _unscaled(_support_margin(_divide(z, unit), hull, -1j * (np.roll(hull, -1) - hull))[0], unit, "margin")
