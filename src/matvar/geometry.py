"""Planar geometry of finite point sets in the complex plane.

Variance of a weighted point set, the (max - min)^2 / 4 bound on the variance
of bounded real samples, the smallest enclosing circle (Welzl's randomized
incremental algorithm), the variance-maximizing distribution over a point
set (supported on at most three boundary points of the enclosing circle),
and the Chebyshev-like center minimizing the power mean of the two largest
distances.  ``_minimise_2d``, the ellipsoid method that finds that center,
also serves the matrix radius in ``radii``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

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

_SHUFFLE_SEED = 0x5EED


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
# smallest enclosing circle


def _cross(p: complex, q: complex, x: complex) -> float:
    # twice the signed area of the triangle (p, q, x)
    return float(((q - p).conjugate() * (x - p)).imag)


def _circumcircle(a: complex, b: complex, c: complex) -> Circle | None:
    # from the vertex facing the longest side, whose edges are the least parallel
    a, b, c = max((a, b, c), (b, c, a), (c, a, b), key=lambda t: abs(t[1] - t[2]))
    u = b - a
    v = c - a
    det = u.real * v.imag - u.imag * v.real
    scale = max(abs(u), abs(v), 1e-300)
    if abs(det) <= 1e-14 * scale * scale:
        return None  # collinear triple
    bu = 0.5 * (u.real * u.real + u.imag * u.imag)
    bv = 0.5 * (v.real * v.real + v.imag * v.imag)
    wx = (bu * v.imag - bv * u.imag) / det
    wy = (u.real * bv - v.real * bu) / det
    center = a + complex(wx, wy)
    return Circle(center, max(abs(a - center), abs(b - center), abs(c - center)))


def _diameter_circle(a: complex, b: complex) -> Circle:
    center = 0.5 * (a + b)
    return Circle(center, max(abs(a - center), abs(b - center)))


def _inside(x: complex, c: Circle) -> bool:
    return abs(x - c.center) <= c.radius * (1.0 + 1e-14) + 1e-14


def _circle_two_fixed(pts: np.ndarray, p: complex, q: complex) -> Circle:
    # smallest circle through p and q containing pts; track the extreme
    # circumcircles on each side of the chord pq
    base = _diameter_circle(p, q)
    left: Circle | None = None
    right: Circle | None = None
    left_key = right_key = 0.0
    for s in pts:
        if _inside(s, base):
            continue
        side = _cross(p, q, s)
        circ = _circumcircle(p, q, s)
        if circ is None:
            continue
        key = _cross(p, q, circ.center)
        if side > 0.0 and (left is None or key > left_key):
            left, left_key = circ, key
        elif side < 0.0 and (right is None or key < right_key):
            right, right_key = circ, key
    if left is None and right is None:
        return base
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _circle_one_fixed(pts: np.ndarray, p: complex) -> Circle:
    c = Circle(p, 0.0)
    for j, q in enumerate(pts):
        if not _inside(q, c):
            if c.radius == 0.0:
                c = _diameter_circle(p, q)
            else:
                c = _circle_two_fixed(pts[: j + 1], p, q)
    return c


def enclosing_circle(points) -> Circle:
    """Smallest circle containing all points (unique; found in randomized
    incremental fashion but with a fixed shuffle so calls are deterministic).

    The search runs on the points centred on their centroid and divided by
    their largest distance from it, so its slacks are relative and no square
    underflows or overflows: the result is scale-covariant."""
    pts = _as_points(points)
    centroid = complex(pts.mean())
    scale = float(np.abs(pts - centroid).max())
    if scale == 0.0:
        return Circle(complex(pts[0]), 0.0)
    order = np.random.default_rng(_SHUFFLE_SEED).permutation(pts.size)
    shuffled = (pts[order] - centroid) / scale
    c = Circle(complex(shuffled[0]), 0.0)
    for i, p in enumerate(shuffled):
        if not _inside(p, c):
            c = _circle_one_fixed(shuffled[:i], complex(p))
    # report the exact covering radius of the computed center
    center = centroid + scale * c.center
    return Circle(center, float(np.abs(pts - center).max()))


def boundary_support(points, circle: Circle, tol: float = 1e-9) -> np.ndarray:
    """Indices of points within tol (relative to the radius) of the circle
    boundary."""
    pts = _as_points(points)
    return np.flatnonzero(np.abs(np.abs(pts - circle.center) - circle.radius) <= tol * circle.radius)


# ---------------------------------------------------------------------------
# max-variance distribution


# Both weight searches take the points relative to the circle center, in
# units of its radius: the chosen points must have the origin as their mean.


def _pair_weights(points: np.ndarray, idx: np.ndarray, tol: float):
    for ii in range(idx.size):
        for jj in range(ii + 1, idx.size):
            a, b = points[idx[ii]], points[idx[jj]]
            if abs(a + b) <= tol:
                return [(idx[ii], 0.5), (idx[jj], 0.5)]
    return None


def _triple_weights(points: np.ndarray, idx: np.ndarray, tol: float):
    for ii in range(idx.size):
        for jj in range(ii + 1, idx.size):
            for kk in range(jj + 1, idx.size):
                a, b, d = (points[idx[t]] for t in (ii, jj, kk))
                u, v = b - a, d - a
                det = u.real * v.imag - u.imag * v.real
                if abs(det) <= 1e-14 * (1.0 + abs(u)) * (1.0 + abs(v)):
                    continue
                w = -a
                s = (w.real * v.imag - w.imag * v.real) / det
                t = (u.real * w.imag - u.imag * w.real) / det
                lams = np.array([1.0 - s - t, s, t])
                if lams.min() >= -1e-9:
                    lams = np.clip(lams, 0.0, None)
                    lams /= lams.sum()
                    return [(idx[t2], lams[pos]) for pos, t2 in enumerate((ii, jj, kk))]
    return None


def max_variance_distribution(points) -> tuple[np.ndarray, float]:
    """Probabilities maximizing the variance over a fixed point set.

    The maximum equals the squared radius of the smallest enclosing circle,
    attained by a distribution on at most three boundary points whose mean
    is the circle center.
    """
    pts = _as_points(points)
    n = pts.size
    if n == 1:
        return np.array([1.0]), 0.0
    circ = enclosing_circle(pts)
    if circ.radius <= 1e-15 * float(np.abs(pts).max()):
        out = np.zeros(n)
        out[0] = 1.0
        return out, 0.0
    probs = np.zeros(n)
    rel = (pts - circ.center) / circ.radius
    for widen in range(4):
        tol = 1e-9 * 10.0**widen
        idx = boundary_support(pts, circ, tol=tol)
        chosen = _pair_weights(rel, idx, tol)
        if chosen is None:
            chosen = _triple_weights(rel, idx, tol)
        if chosen is not None:
            for i, w in chosen:
                probs[i] = w
            return probs, circ.radius * circ.radius
    raise RuntimeError("could not locate a boundary distribution with the circle center as mean")


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
    minimiser).  rtol = 1e-14 takes 100 to 260 steps for the matrix radius
    up to d = 64.
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
    centroid = complex(pts.mean())
    scale = float(np.abs(pts - centroid).max())
    if scale == 0.0:
        return centroid, 0.0
    rel = (pts - centroid) / scale  # the ellipsoid squares lengths: keep them near 1

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
    return centroid + scale * u, scale * val


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
