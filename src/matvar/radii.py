"""Matrix radii and the numerical range.

The radius of a square matrix X with respect to a modulus kind * in
{L, R, C} is

    r_*(X) = min_y || |X - y 1|_* ||_inf,

the smallest spectral norm of a shifted modulus over all complex centers y.
Its square equals the largest quantum variance

    max_rho  Tr[rho |X|_*^2] - |Tr[rho X]|^2

over density matrices rho, and the maximum is always attained at a pure
state.  The numerical range W(X) is sampled by support directions: for each
angle the top eigenpair of the Hermitian part of a rotated copy of X yields
one supporting half plane and one boundary point.

``radius`` minimises a convex function of one complex center with an
exact subgradient, by the deterministic central-cut ellipsoid method of
``geometry`` (``two_largest_radius`` uses it too), which stops on a relative
certificate (best value minus lower bound).  ``central_numerical_radius`` is
the radius of the smallest disc containing W(X): an exchange between support
peaks, polished by secant steps on their exact slope, and the smallest circle
around the boundary points found so far (``geometry.enclosing_circle``).
Inputs are shifted by trace/d and scaled by their largest entry first, and
the outputs are mapped back, so the relative accuracy does not depend on the
scale of X.  ``radius`` certifies its value with an explicit pure-state
witness: ``primal_value`` is the witness's variance and ``gap`` the
distance to the squared radius.  Every result is deterministic: the only
random numbers are the fixed shuffle inside ``enclosing_circle``, and the
``restarts`` and ``seed`` arguments of ``radius`` are accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ConvergenceError, _minimise_2d, enclosing_circle
from .linalg import MODULUS_KINDS, as_density, modulus_squared, require_square

__all__ = [
    "RadiusResult",
    "NumericalRangeSample",
    "Membership",
    "ConvergenceError",
    "quantum_variance",
    "max_variance",
    "radius",
    "numerical_range",
    "numerical_radius",
    "central_numerical_radius",
    "membership_in_range",
]


def _angles(k: int) -> np.ndarray:
    if k < 8:
        raise ValueError(f"need at least 8 angles, got {k}")
    return 2.0 * math.pi * np.arange(k) / k


# ---------------------------------------------------------------------------
# quantum variance


def quantum_variance(x, rho, kind: str) -> float:
    """Tr[rho |X|_kind^2] - |Tr[rho X]|^2 for a density matrix rho."""
    a = require_square(x)
    r = as_density(rho)
    if r.shape != a.shape:
        raise ValueError(f"shape mismatch: X is {a.shape}, rho is {r.shape}")
    second = float(np.trace(r @ modulus_squared(a, kind)).real)
    mean = complex(np.trace(r @ a))
    return max(second - abs(mean) ** 2, 0.0)


# ---------------------------------------------------------------------------
# shared machinery: normalisation, support function


def _is_scalar_multiple_of_identity(a: np.ndarray) -> bool:
    d = a.shape[0]
    off = a - a[0, 0] * np.eye(d)
    return float(np.abs(off).max()) <= 1e-14 * float(np.abs(a).max())


def _normalise(a: np.ndarray) -> tuple[complex, float, np.ndarray]:
    """X = shift + scale * B with Tr B = 0 and max |b_ij| = 1."""
    shift = complex(np.trace(a)) / a.shape[0]
    b = a - shift * np.eye(a.shape[0])
    scale = float(np.abs(b).max())
    return shift, scale, b / scale


def _support(a: np.ndarray, theta, vectors: bool = False):
    """Support function of W(X) in the direction e^{-i theta}: the top
    eigenvalue of Re(e^{i theta} X) = (e^{i theta} X + e^{-i theta} X*) / 2,
    for one angle or an array of them, with the top eigenvectors if asked."""
    phase = np.exp(1j * np.asarray(theta))[..., None, None]
    stack = 0.5 * (phase * a + np.conj(phase) * a.conj().T)
    if not vectors:
        return np.linalg.eigvalsh(stack)[..., -1]
    w, v = np.linalg.eigh(stack)
    return w[..., -1], v[..., -1]


# ---------------------------------------------------------------------------
# radius and its variance witness


def _shifted_eigh(b: np.ndarray, msq: np.ndarray, y: complex) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of msq - conj(y) B - y B* + |y|^2, which is |B - y|_kind^2
    for msq = |B|_kind^2, the same expansion for every kind."""
    return np.linalg.eigh(msq - np.conj(y) * b - y * b.conj().T + abs(y) ** 2 * np.eye(b.shape[0]))


def _segment_hit(b: np.ndarray, xa: np.ndarray, xb: np.ndarray, q: complex) -> np.ndarray:
    """Unit vector in span{xa, xb} with <v, B v> = q, for q on the segment
    between the field values of xa and xb.  Rotated so that segment is real,
    <v, (B - q) v> along v = xa + t phase xb is a real quadratic in t once
    the phase makes its middle coefficient real; of the two such phases, the
    one with Re(phase <xa, xb>) >= 0 keeps |v| >= 1, free of cancellation."""
    pa, pb = complex(np.vdot(xa, b @ xa)), complex(np.vdot(xb, b @ xb))
    c = np.conj(pb - pa) * (b - q * np.eye(b.shape[0]))
    lo, hi = np.vdot(xa, c @ xa).real, np.vdot(xb, c @ xb).real  # lo <= 0 <= hi
    if lo >= 0.0 or hi <= 0.0:
        return xa if abs(pa - q) <= abs(pb - q) else xb
    ab, ba = np.vdot(xa, c @ xb), np.vdot(xb, c @ xa)
    phase = np.conj(ab - np.conj(ba))
    phase = phase / abs(phase) if abs(phase) > 0.0 else 1.0
    if (phase * np.vdot(xa, xb)).real < 0.0:
        phase = -phase
    mid = (phase * ab + np.conj(phase) * ba).real
    disc = math.sqrt(mid * mid - 4.0 * lo * hi)
    t = (disc - mid) / (2.0 * hi) if mid < 0.0 else -2.0 * lo / (mid + disc)
    v = xa + t * phase * xb
    return v / np.linalg.norm(v)


def _inverse_field_value(b: np.ndarray, y: complex) -> np.ndarray:
    """Unit u with <u, B u> = y for y in W(B), after Carden, "A simple
    algorithm for the inverse field of values problem", Inverse Problems 25
    (2009).  Support points of W(B) are added across the polygon edge y lies
    beyond until the polygon holds y; a fan triangle then holds y, and two
    segment solves land on it.  If y lies outside W(B) by rounding, the
    nearest point of the polygon is used instead."""
    vecs = list(_support(b, _angles(8), vectors=True)[1])
    for _ in range(64):
        pts = np.array([np.vdot(u, b @ u) for u in vecs])
        normal = 1j * (np.roll(pts, -1) - pts)  # outward: points run clockwise
        beyond = (np.conj(normal) * (y - pts)).real
        j = int(np.argmax(beyond))
        if beyond[j] <= 0.0:
            break
        new = _support(b, -np.angle(normal[j]), vectors=True)[1]
        vecs.insert(j + 1, new)
        if (np.conj(normal[j]) * (np.vdot(new, b @ new) - pts[j])).real <= beyond[j]:
            break  # no point of W(B) lies past y: y is on its boundary, or beyond
    pts = np.array([np.vdot(u, b @ u) for u in vecs])
    # barycentric weights of y in the fan triangles (p0, p_j+1, p_j+2)
    e1, e2, ey = pts[1:-1] - pts[0], pts[2:] - pts[0], y - pts[0]
    det = (np.conj(e1) * e2).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (np.conj(ey) * e2).imag / det
        t = (np.conj(e1) * ey).imag / det
        weights = np.stack([1.0 - s - t, s, t])
    fit = np.where(np.abs(det) > 1e-14 * np.abs(pts - pts[0]).max() ** 2, weights.min(axis=0), -np.inf)
    j = int(np.argmax(fit))
    if fit[j] >= -1e-12:
        w1, w2 = np.clip(weights[1:, j], 0.0, None)
        if w1 + w2 == 0.0:
            return vecs[0]
        q = (w1 * pts[j + 1] + w2 * pts[j + 2]) / (w1 + w2)  # where the ray p0 -> y leaves
        return _segment_hit(b, vecs[0], _segment_hit(b, vecs[j + 1], vecs[j + 2], q), y)
    edge = np.roll(pts, -1) - pts
    along = np.clip((np.conj(edge) * (y - pts)).real / np.maximum(np.abs(edge) ** 2, 1e-300), 0.0, 1.0)
    near = pts + along * edge
    j = int(np.argmin(np.abs(y - near)))
    return _segment_hit(b, vecs[j], vecs[(j + 1) % len(vecs)], near[j])


def _witness(b: np.ndarray, msq: np.ndarray, y: complex) -> tuple[float, np.ndarray]:
    """Pure state of largest variance among candidates for both shapes of
    optimum: for a kink, the vector of the degenerate top eigenspace of
    |B - y|^2 whose expectation of B is y; for a smooth optimum, however
    sharply curved, the top eigenvectors along Newton's iteration for
    <v, B v> = y.  In the eigenbasis, with p_j = <v_j, (B - y) v>,
    q_j = <v, (B - y) v_j> and gaps g_j, r = <v, B v> - y moves by
    -(1 + a) dy - e conj(dy), a = sum (|p_j|^2 + |q_j|^2) / g_j, e = sum
    2 p_j q_j / g_j.  A second pass, from the best center, keeps only the
    eigenvectors within 1e-6 of the top, shifted by the top eigenvalue, so a
    nearly degenerate top is resolved to the accuracy of its own split.
    """
    def variance(psi):
        return float(np.vdot(psi, msq @ psi).real) - abs(np.vdot(psi, b @ psi)) ** 2

    best = (-math.inf, None, y)
    for cut in (math.inf, 1e-6):
        y = best[2]
        w, v = _shifted_eigh(b, msq, y)
        top = v[:, w >= w[-1] * (1.0 - 1e-8)]
        if top.shape[1] > 1:
            u = top @ _inverse_field_value(top.conj().T @ b @ top, y)
            best = max(best, (variance(u), u, y), key=lambda cand: cand[0])
        keep = w >= w[-1] - cut * abs(w[-1])
        cols, h = v[:, keep], np.diag(w[keep] - w[-1])
        c = cols.conj().T @ (b - y * np.eye(b.shape[0])) @ cols
        delta = 0j
        for _ in range(8 if len(h) > 1 else 0):
            mu, z = _shifted_eigh(c, h, delta)
            u = cols @ z[:, -1]
            best = max(best, (variance(u), u, y + delta), key=lambda cand: cand[0])
            cz = z.conj().T @ c @ z
            r, p, q, g = cz[-1, -1] - delta, cz[:-1, -1], cz[-1, :-1], mu[-1] - mu[:-1]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                a, e = np.sum((abs(p) ** 2 + abs(q) ** 2) / g), np.sum(2.0 * p * q / g)
                delta += ((1.0 + a) * r - e * np.conj(r)) / ((1.0 + a) ** 2 - abs(e) ** 2)
            if not np.isfinite(delta):
                break
    return best[:2]


def max_variance(x, kind: str) -> tuple[float, np.ndarray]:
    """Largest quantum variance of X over states, with a pure witness.

    Returns ``(primal_value, witness)`` of ``radius(x, kind)``: the value
    equals r_kind(X)^2 to within the reported ``gap``.
    """
    res = radius(x, kind)
    return res.primal_value, res.witness


@dataclass(frozen=True)
class RadiusResult:
    kind: str
    y_star: complex
    value: float
    primal_value: float
    witness: np.ndarray

    @property
    def gap(self) -> float:
        """|value^2 - primal_value|, or inf once value^2 overflows."""
        square = self.value * self.value
        return abs(square - self.primal_value) if math.isfinite(square) else math.inf


def radius(x, kind: str, restarts: int = 8, seed: int = 0) -> RadiusResult:
    """r_kind(X): minimize the spectral norm of the shifted modulus over
    centers, certified by a pure-state variance witness.

    The center minimizes lam_max(|X - y|_kind^2), a convex function of y
    whose subgradient at y is 2 (y - <v, X v>) for a top eigenvector v; the
    ellipsoid method solves it to 1e-14 relative.  ``primal_value`` is the
    witness's variance, a lower bound on value^2, and ``gap`` is the
    difference; both are inf above a radius of about 1.3e154, where the
    square overflows.  Deterministic: ``restarts`` and ``seed`` are accepted
    and ignored.  Raises ``ConvergenceError`` if the center search hits its
    cap.
    """
    a = require_square(x)
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    if _is_scalar_multiple_of_identity(a):
        return RadiusResult(kind, complex(a[0, 0]), 0.0, 0.0, np.eye(a.shape[0], dtype=np.complex128)[0])
    shift, scale, b = _normalise(a)
    msq = modulus_squared(b, kind)

    def oracle(y: complex) -> tuple[float, complex]:
        w, v = _shifted_eigh(b, msq, y)
        top = v[:, -1]
        return float(w[-1]), 2.0 * (y - complex(np.vdot(top, b @ top)))

    y, lam = _minimise_2d(oracle, float(np.linalg.norm(b, 2)), rtol=1e-14)
    primal, witness = _witness(b, msq, y)
    return RadiusResult(kind, shift + scale * y, scale * math.sqrt(lam),
                        scale * scale * max(primal, 0.0), witness)


# ---------------------------------------------------------------------------
# numerical range


class NumericalRangeSample(NamedTuple):
    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray


class Membership(NamedTuple):
    member: bool
    margin: float


def numerical_range(x, k: int = 64) -> NumericalRangeSample:
    """Support sample of W(X) at k equispaced angles.

    support_values[j] is the largest eigenvalue of Re(e^{i theta_j} X) and
    boundary_points[j] = <v, X v> for the corresponding top eigenvector, a
    point of W(X) on the supporting line.
    """
    a = require_square(x)
    theta = _angles(k)
    vals, top = _support(a, theta, vectors=True)
    boundary = np.einsum("ki,ij,kj->k", top.conj(), a, top)
    return NumericalRangeSample(theta, vals, boundary)


def membership_in_range(x, z: complex, angles: int = 360) -> Membership:
    """Support-function membership test: z is in W(X) exactly when
    Re(e^{i phi} z) never exceeds lam_max(Re(e^{i phi} X)).  The margin may
    fall short of 0 by 1e-8 times the largest |lam_max|."""
    a = require_square(x)
    theta = _angles(angles)
    h = _support(a, theta)
    margin = float((h - (np.exp(1j * theta) * complex(z)).real).min())
    return Membership(margin >= -1e-8 * float(np.abs(h).max()), margin)


def _refine_peaks(a: np.ndarray, theta: np.ndarray, g: np.ndarray, shift: complex,
                  xatol: float, points: list) -> float:
    """Sharpen the local maxima of theta -> h(theta) - Re(e^{i theta} shift);
    return the largest value.

    The function is the maximum over unit v of Re(e^{i theta} <v, (X - shift) v>),
    curves whose second derivative is at most ||X - shift|| <= 2 max g in
    size, so no angle beats the nearest grid point by more than ``slack``: a
    peak of the grid values g that far below the best value cannot win and
    is not refined; every other peak is.  For a top eigenvector v and
    w = e^{i theta} (<v, X v> - shift), the value is Re w and the slope
    -Im w (Hellmann-Feynman).  Each peak is polished by secant steps on the
    slope, within one grid spacing of it, until a step is below ``xatol``;
    the first step, theta - arg w, is exact where the boundary point
    <v, X v> stays put (a corner of W(X)).  Every boundary point evaluated
    is appended to ``points``.
    """
    spacing = 2.0 * math.pi / theta.size
    best = float(g.max())
    slack = 0.5 * spacing**2 * best
    ring = np.concatenate((g[-1:], g, g[:1]))
    peaks = np.flatnonzero((g >= ring[:-2]) & (g >= ring[2:]))
    for j in peaks[np.argsort(g[peaks])[::-1]]:
        if g[j] < best - slack:
            break
        t, last = float(theta[j]), None
        for _ in range(32):
            v = _support(a, t, vectors=True)[1]
            p = complex(np.vdot(v, a @ v))
            points.append(p)
            w = np.exp(1j * t) * (p - shift)
            best = max(best, float(w.real))
            if last is None or w.imag == last[1]:
                step = -math.atan2(w.imag, w.real)
            else:  # the root of the slope -Im w is the root of Im w
                step = -w.imag * (t - last[0]) / (w.imag - last[1])
            last = (t, w.imag)
            t = min(max(t + step, theta[j] - spacing), theta[j] + spacing)
            if abs(t - last[0]) <= xatol:
                break
    return best


def numerical_radius(x, grid: int = 360) -> float:
    """w(X) = max_theta lam_max(Re(e^{i theta} X)), grid plus local polish."""
    a = require_square(x)
    theta = _angles(grid)
    return _refine_peaks(a, theta, _support(a, theta), 0j, xatol=1e-10, points=[])


def central_numerical_radius(x, boundary_k: int = 1024) -> tuple[complex, float]:
    """min_z w(X - z 1) with its optimal recentering z: the radius and the
    center of the smallest disc containing the numerical range W(X).

    The support values h are sampled once at ``boundary_k`` angles.  The
    boundary points <v, X v> at 8 support angles start a list P, and z starts
    at the trace center.  Each round polishes the peaks of w(X - z) =
    max_theta h(theta) - Re(e^{i theta} z), adds every boundary point it
    evaluates to P, and takes the larger of the best peak and max |p - z| over
    P as the value at z.  P lies in W(X), so the radius of the smallest circle
    around P is a lower bound: once the value is within 1e-11 of it,
    relatively, z and the value are returned; otherwise z moves to the
    circle's center.  Deterministic.  Raises ``ConvergenceError`` if the
    exchange hits its round cap.
    """
    a = require_square(x)
    theta = _angles(boundary_k)
    if _is_scalar_multiple_of_identity(a):
        return complex(a[0, 0]), 0.0
    shift, scale, b = _normalise(a)
    h, phase = _support(b, theta), np.exp(1j * theta)
    points, z = list(numerical_range(b, 8).boundary_points), 0j
    for _ in range(100):  # far above the 16 rounds seen on a stress set up to d = 16
        best = _refine_peaks(b, theta, h - (phase * z).real, z, xatol=1e-7, points=points)
        val = max(best, float(np.abs(np.array(points) - z).max()))
        circle = enclosing_circle(points)
        if val - circle.radius <= 1e-11 * val:
            return shift + scale * z, scale * val
        z = circle.center
    raise ConvergenceError("boundary-point exchange hit its 100-round cap; "
                           f"value {scale * val!r}, lower bound {scale * circle.radius!r}")
