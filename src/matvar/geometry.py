"""Planar geometry of finite point sets in the complex plane.

Variance of a weighted point set, the (max - min)^2 / 4 bound on the variance
of bounded real samples, and one farthest-point exchange, ``_exchange``, for
the smallest disc around points b_i with additive weights c_i >= 0,
min_y max_i |y - b_i|^2 + c_i.  Over a finite set with every weight 0 it
gives the smallest enclosing circle and the variance-maximizing distribution;
``radii.radius`` runs it over states.  ``_minimise_2d``,
an ellipsoid method, finds the center minimizing the power mean of the two
largest distances.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import _divide, _scaled

__all__ = [
    "Circle",
    "ConvergenceError",
    "variance",
    "murthy_sethi_bound",
    "enclosing_circle",
    "boundary_support",
    "max_variance_distribution",
    "two_largest_radius",
    "hull_membership_margin",
]

class Circle(NamedTuple):
    center: complex
    radius: float


class ConvergenceError(RuntimeError):
    """Raised when the center minimization reaches its iteration cap."""


def _as_points(points) -> np.ndarray:
    a = np.asarray(points, dtype=np.complex128).reshape(-1)
    if a.size < 1:
        raise ValueError("need at least one point")
    if not np.isfinite(a).all():
        raise ValueError("points must be finite")
    return a


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
    """sum_i p_i |x_i - mean|^2 for complex points x with weights p."""
    x = _as_points(points)
    p = _as_probs(probs, x.size)
    mu = np.dot(p, x)
    return max(float(np.dot(p, np.abs(x - mu) ** 2)), 0.0)


def murthy_sethi_bound(lo: float, hi: float) -> float:
    """Largest possible variance of a real sample confined to [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"need finite bounds with lo <= hi, got ({lo!r}, {hi!r})")
    return 0.25 * (hi - lo) ** 2


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


def _cross(p: complex, q: complex, x: complex) -> float:
    # twice the signed area of the triangle (p, q, x)
    return float(((q - p).conjugate() * (x - p)).imag)


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
    # smallest disc with p and q on its boundary holding pts: its center lies
    # on their radical axis, so track the extreme radical centers on each side
    # of the chord pq
    base = _pair_disc(p, q)
    left = right = None
    left_key = right_key = 0.0
    for s in pts:
        if _inside(s, base):
            continue
        side = _cross(p[0], q[0], s[0])
        disc = _radical_disc(p, q, s)
        if disc is None:
            continue
        key = _cross(p[0], q[0], disc.center)
        if side > 0.0 and (left is None or key > left_key):
            left, left_key = disc, key
        elif side < 0.0 and (right is None or key < right_key):
            right, right_key = disc, key
    return min([d for d in (left, right) if d is not None], key=lambda d: d.radius, default=base)


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

    ``farthest(y)`` returns f(y), or an estimate, and points of the set, the
    farthest first.  Each point outside the disc grows it by Welzl's step
    (LNCS 555, 1991), and only the at most three points that fix the new disc
    are kept: the disc of a subset still bounds min f from below, and its
    center is the next y.  Stops once no point grew the disc or the best
    value is within ``rtol`` of its radius, relatively.  Returns the best y,
    its value, the disc and whether it stopped in time.
    """
    disc = None
    best_y, best = y, math.inf
    for _ in range(cap):
        value, points = farthest(y)
        if value < best:
            best_y, best = y, value
        grew = False
        for p in points:
            if disc is None or not _inside(p, disc):
                disc = _circle_one_fixed(list(disc.support) if disc else [], p)
                grew = True
        if not grew or best - disc.radius <= rtol * best:
            return best_y, best, disc, True
        y = disc.center
    return best_y, best, disc, False


def _smallest_disc(points: np.ndarray, weights: np.ndarray) -> tuple[complex, float, list]:
    """The disc of least radius max_i sqrt(|y - b_i|^2 + c_i) over centers y,
    for points b_i with weights c_i >= 0, and the indices of the at most
    three points that fix it; its center lies in their convex hull.  The
    exchange runs on the points as ``_centre`` scales them, and the weights
    in the same unit, with an argmax over the set as its farthest point."""
    centroid, unit, spread, rel = _centre(points, math.sqrt(float(weights.max())))
    if spread == 0.0:
        return complex(points[0]), 0.0, [0]
    c = weights / unit / unit / spread / spread

    def farthest(y: complex) -> tuple[float, list]:
        power = np.abs(rel - y) ** 2 + c
        i = int(np.argmax(power))
        return math.sqrt(power[i]), [(complex(rel[i]), float(c[i]), i)]

    # the radius grows every round; 11 rounds at most on 4,000 seeded sets
    d = _exchange(farthest, 0j, 0.0, 2 * points.size + 2)[2]
    # report the exact radius at the computed center
    center = centroid + spread * d.center * unit
    return center, float(np.hypot(np.abs(points - center), np.sqrt(weights)).max()), [p[2] for p in d.support]


def enclosing_circle(points) -> Circle:
    """Smallest circle containing all points: the weighted disc of
    ``_smallest_disc`` with every weight 0 (unique, deterministic and
    scale-covariant)."""
    pts = _as_points(points)
    return Circle(*_smallest_disc(pts, np.zeros(pts.size))[:2])


def boundary_support(points, circle: Circle, tol: float = 1e-9) -> np.ndarray:
    """Indices of points within tol (relative to the radius) of the circle
    boundary."""
    pts = _as_points(points)
    return np.flatnonzero(np.abs(np.abs(pts - circle.center) - circle.radius) <= tol * circle.radius)


# ---------------------------------------------------------------------------
# max-variance distribution


def max_variance_distribution(points) -> tuple[np.ndarray, float]:
    """Probabilities maximizing the variance over a fixed point set.

    The maximum equals the squared radius of the smallest enclosing circle.
    It is attained by the barycentric coordinates of the circle's center in
    the at most three points that fix the circle: a distribution on them
    whose mean is the center.  Raises ``OverflowError`` when that square
    exceeds the largest float.
    """
    pts = _as_points(points)
    center, radius, idx = _smallest_disc(pts, np.zeros(pts.size))
    rel = _divide(pts[idx] - center, radius or 1.0)  # radius 0: every point is the center
    lams = np.linalg.lstsq(np.array([rel.real, rel.imag, np.ones(len(idx))]),
                           np.array([0.0, 0.0, 1.0]), rcond=None)[0].clip(0.0, None)
    probs = np.zeros(pts.size)
    probs[idx] = lams / lams.sum()
    square = radius * radius
    if math.isinf(square):
        raise OverflowError(f"the largest variance, the square of the radius {radius!r}, overflows")
    return probs, square


# ---------------------------------------------------------------------------
# convex minimisation over one complex center


def _minimise_2d(oracle, r0: float, rtol: float, max_steps: int = 1000) -> tuple[complex, float]:
    """Central-cut ellipsoid method for a convex f on the complex plane.

    ``oracle(z)`` returns f(z) and a subgradient g (as a complex number); a
    minimiser must lie in the disc |z| <= r0.  The ellipsoid
    {z : (z - c)^T P^-1 (z - c) <= 1} holds every minimiser; each step keeps
    the half that g points away from, and f(c) - sqrt(g^T P g) bounds min f
    from below.  Stops once the best value is within rtol of that bound,
    relatively, or once g^T P g = 0 (the ellipsoid has collapsed onto a
    minimiser).  rtol = 1e-14 takes at most 250 steps for
    ``two_largest_radius`` on up to 12 points.
    """
    c, p11, p12, p22 = 0j, r0 * r0, 0.0, r0 * r0
    best_z, best_f, lower = c, math.inf, -math.inf
    for _ in range(max_steps):
        f, g = oracle(c)
        if f < best_f:
            best_z, best_f = c, f
        px, py = p11 * g.real + p12 * g.imag, p12 * g.real + p22 * g.imag
        gpg = g.real * px + g.imag * py
        lower = max(lower, f - math.sqrt(max(gpg, 0.0)))
        if best_f - lower <= rtol * best_f or gpg <= 0.0:
            return best_z, best_f
        px, py = px / math.sqrt(gpg), py / math.sqrt(gpg)
        c -= complex(px, py) / 3.0
        p11, p12, p22 = (4.0 / 3.0 * (p11 - 2.0 / 3.0 * px * px),
                         4.0 / 3.0 * (p12 - 2.0 / 3.0 * px * py),
                         4.0 / 3.0 * (p22 - 2.0 / 3.0 * py * py))
    raise ConvergenceError(f"center search hit its {max_steps}-step cap; "
                           f"best {best_f!r}, lower bound {lower!r}")


# ---------------------------------------------------------------------------
# two-largest-distance radius


def two_largest_radius(points, p: float) -> tuple[complex, float]:
    """Minimize over centers z the p-mean of the two largest |x_i - z|.

    For every p >= 1 the minimum equals the radius of the smallest enclosing
    circle and is attained at its center.  The objective is a monotone
    symmetric gauge of the convex distances d_i = |x_i - z|, hence convex;
    with M its value, sum over the two farthest points of
    (d_i / M)^(p-1) (z - x_i) / (2 d_i) is a subgradient (for p = inf, the
    unit vector from the farthest point), and the ellipsoid method solves it
    to 1e-14 relative from the smallest disc about the centroid that holds
    every point.  Raises ``ConvergenceError`` if that search hits its cap.
    """
    pts = _as_points(points)
    if pts.size < 2:
        raise ValueError("need at least two points")
    if not (p >= 1.0):
        raise ValueError(f"power mean exponent must be >= 1, got {p!r}")
    centroid, unit, spread, rel = _centre(pts)
    if spread == 0.0:
        return centroid, 0.0

    def oracle(u: complex) -> tuple[float, complex]:
        dists = np.abs(rel - u)
        far = np.argpartition(dists, dists.size - 2)[-2:]  # the farthest last
        two, top = dists[far], float(dists[far[1]])
        if math.isinf(p):
            return top, (u - complex(rel[far[1]])) / top
        val = top * float(np.mean((two / top) ** p)) ** (1.0 / p)
        with np.errstate(invalid="ignore", divide="ignore"):
            units = np.where(two > 0.0, (u - rel[far]) / two, 0.0)
        return val, complex(np.dot(0.5 * (two / val) ** (p - 1.0), units))

    u, val = _minimise_2d(oracle, 1.0, rtol=1e-14)
    return centroid + spread * u * unit, spread * val * unit


# ---------------------------------------------------------------------------
# convex hull membership (support function test)


def hull_membership_margin(z: complex, points, angles: int = 720) -> float:
    """min over directions of (support of points) - (support of z).

    Nonnegative (up to grid resolution) exactly when z lies in the convex
    hull of the points.
    """
    pts = _as_points(points)
    theta = np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False)
    phase = np.exp(-1j * theta)
    support = (phase[:, None] * pts[None, :]).real.max(axis=1)
    return float((support - (phase * z).real).min())
