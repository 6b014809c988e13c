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

``radius`` and ``central_numerical_radius`` are smallest-disc problems,
solved by the farthest-point exchange ``geometry._exchange``.
``numerical_radius`` is certified by the level-set test of Mengi and Overton,
which proves that no support value reaches a given level.
Inputs are shifted by trace/d and scaled by their largest entry first, and
the outputs are mapped back, so the relative accuracy does not depend on the
scale of X.  ``radius`` certifies its value with an explicit pure-state
witness: ``primal_value`` is the witness's variance and ``gap`` the
distance to the squared radius.  Every result is deterministic: nothing
draws random numbers, and the ``restarts`` and ``seed`` arguments of
``radius`` are accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ConvergenceError, _exchange
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


def _rotated(a: np.ndarray, theta) -> np.ndarray:
    # Re(e^{i theta} X) = (e^{i theta} X + e^{-i theta} X*) / 2, stacked over theta
    phase = np.exp(1j * np.asarray(theta))[..., None, None]
    return 0.5 * (phase * a + np.conj(phase) * a.conj().T)


def _support(a: np.ndarray, theta, vectors: bool = False):
    """Support function of W(X) in the direction e^{-i theta}: the top
    eigenvalue of Re(e^{i theta} X), for one angle or an array of them, with
    the top eigenvectors if asked."""
    if not vectors:
        return np.linalg.eigvalsh(_rotated(a, theta))[..., -1]
    w, v = np.linalg.eigh(_rotated(a, theta))
    return w[..., -1], v[..., -1]


def _support_grid(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k equispaced angles and the support values at them.  For even k
    half the eigensolves give every value: Re(e^{i (theta + pi)} X) is
    -Re(e^{i theta} X), so h(theta + pi) = -lam_min(Re(e^{i theta} X))."""
    theta = _angles(k)
    if k % 2:
        return theta, _support(a, theta)
    w = np.linalg.eigvalsh(_rotated(a, theta[: k // 2]))
    return theta, np.concatenate((w[:, -1], -w[:, 0]))


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

    A unit v gives the mean b = <v, X v> and variance c = <v, |X|^2 v> - |b|^2,
    and lam_max(|X - y|^2), convex in y, is the largest |y - b|^2 + c over
    unit v, attained at a top eigenvector: ``geometry._exchange`` minimises
    it from the trace center, to about 1e-14 relatively.  ``primal_value`` is
    the witness's variance, a lower bound on value^2, and ``gap`` is the
    difference; both are inf above a radius of about 1.3e154, where the
    square overflows.  Deterministic: ``restarts`` and ``seed`` are accepted
    and ignored.  Raises ``ConvergenceError`` if the exchange hits its
    500-round cap.
    """
    a = require_square(x)
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    if _is_scalar_multiple_of_identity(a):
        return RadiusResult(kind, complex(a[0, 0]), 0.0, 0.0, np.eye(a.shape[0], dtype=np.complex128)[0])
    shift, scale, b = _normalise(a)
    msq = modulus_squared(b, kind)

    def farthest(y: complex) -> tuple[float, list]:
        w, v = _shifted_eigh(b, msq, y)
        top = v[:, -1]
        mean = complex(np.vdot(top, b @ top))
        var = max(float(np.vdot(top, msq @ top).real) - abs(mean) ** 2, 0.0)
        return math.sqrt(max(float(w[-1]), 0.0)), [(mean, var, None)]

    y, value, disc, done = _exchange(farthest, 0j, 0.0, 500)  # 51 rounds at most on a stress set
    if not done:
        raise ConvergenceError("radius exchange hit its 500-round cap; value "
                               f"{scale * value!r}, lower bound {scale * disc.radius!r}")
    primal, witness = _witness(b, msq, y)
    return RadiusResult(kind, shift + scale * y, scale * value, scale * scale * max(primal, 0.0), witness)


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
    Re(e^{i phi} z) never exceeds lam_max(Re(e^{i phi} X)), here checked at
    ``angles`` equispaced phi (half as many eigensolves for an even count).
    The margin may fall short of 0 by 1e-8 times the largest |lam_max|."""
    a = require_square(x)
    theta, h = _support_grid(a, angles)
    margin = float((h - (np.exp(1j * theta) * complex(z)).real).min())
    return Membership(margin >= -1e-8 * float(np.abs(h).max()), margin)


def _polish(a: np.ndarray, t: float, lo: float, hi: float, shift: complex,
            xatol: float, points: list) -> float:
    """Secant steps towards a local maximum of theta -> h(theta) -
    Re(e^{i theta} shift) from t, kept in [lo, hi], until a step is below
    ``xatol``; return the largest value seen.

    For a top eigenvector v and w = e^{i theta} (<v, X v> - shift), the
    value is Re w and the slope -Im w (Hellmann-Feynman).  The first step,
    theta - arg w, is exact where the boundary point <v, X v> stays put (a
    corner of W(X)).  Every boundary point evaluated is appended to ``points``.
    """
    best, last = -math.inf, None
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
        t = min(max(t + step, lo), hi)
        if abs(t - last[0]) <= xatol:
            break
    return best


def _refine_peaks(a: np.ndarray, theta: np.ndarray, g: np.ndarray, shift: complex,
                  xatol: float, points: list) -> float:
    """Sharpen the local maxima of theta -> h(theta) - Re(e^{i theta} shift);
    return the largest value.

    The function is the maximum over unit v of Re(e^{i theta} <v, (X - shift) v>),
    curves whose second derivative is at most ||X - shift|| <= 2 max g in
    size, so no angle beats the nearest grid point by more than ``slack``: a
    peak of the grid values g that far below the best value cannot win and
    is not refined; every other peak is ``_polish``-ed within one grid
    spacing of it.
    """
    spacing = 2.0 * math.pi / theta.size
    best = float(g.max())
    slack = 0.5 * spacing**2 * best
    ring = np.concatenate((g[-1:], g, g[:1]))
    peaks = np.flatnonzero((g >= ring[:-2]) & (g >= ring[2:]))
    for j in peaks[np.argsort(g[peaks])[::-1]]:
        if g[j] < best - slack:
            break
        t = float(theta[j])
        best = max(best, _polish(a, t, t - spacing, t + spacing, shift, xatol, points))
    return best


def _level_set(a: np.ndarray, r: float, pole: float) -> np.ndarray:
    """The angles theta in [0, 2 pi) at which r is an eigenvalue of
    Re(e^{i theta} X), in increasing order; needs h(pole) < r.

    The level-set test of Mengi and Overton (IMA J. Numer. Anal. 25, 2005).
    With Y = e^{i (pole - pi)} X = H + i K, theta = pole - pi + 2 atan(s) and
    Re(e^{i theta} X) = cos(2 atan s) H - sin(2 atan s) K, r is such an
    eigenvalue exactly when the Hermitian pencil s^2 (H + r) + 2 s K + (r - H)
    is singular at a real s.  H + r = L L* is positive definite because
    -lam_min(H) = h(pole) < r, so the roots s are the eigenvalues of a 2n x 2n
    companion matrix; a root counts as real when |Im s| <= 1e-8 (1 + |s|).
    """
    n = a.shape[0]
    y = -np.exp(1j * pole) * a
    h, k = 0.5 * (y + y.conj().T), -0.5j * (y - y.conj().T)
    li = np.linalg.inv(np.linalg.cholesky(h + r * np.eye(n)))
    companion = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    companion[:n, n:] = np.eye(n)
    companion[n:, :n] = -li @ (r * np.eye(n) - h) @ li.conj().T
    companion[n:, n:] = -2.0 * li @ k @ li.conj().T
    s = np.linalg.eigvals(companion)
    s = s[np.abs(s.imag) <= 1e-8 * (1.0 + np.abs(s))].real
    return np.sort((pole - math.pi + 2.0 * np.arctan(s)) % (2.0 * math.pi))


def numerical_radius(x, grid: int = 32) -> float:
    """w(X) = max_theta lam_max(Re(e^{i theta} X)), certified by the
    level-set test: w(X) lies in [value, value (1 + 1e-11)].

    The ``grid`` equispaced support values (from half as many eigensolves
    for an even count) only seed the search: the top one is ``_polish``-ed,
    and ``_level_set`` then asks whether r = value (1 + 1e-11) is attained
    anywhere, with the pole at the smallest grid value, where H + r is best
    conditioned.  No angle proves w(X) < r.  Otherwise h > r somewhere
    between the angles found: each interval whose midpoint rises above r is
    polished from that midpoint and r is tested again (criss-cross).  X is
    scaled by a power of two first, so c X gives c w(X) to rounding.  Raises
    ``ConvergenceError`` after 16 tests.
    """
    a = require_square(x)
    top = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max()))
    if top == 0.0:
        return 0.0
    e = math.frexp(top)[1]
    b = np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e)
    theta, h = _support_grid(b, grid)
    spacing = 2.0 * math.pi / grid
    t = float(theta[np.argmax(h)])
    best = max(float(h.max()), _polish(b, t, t - spacing, t + spacing, 0j, 1e-10, []))
    pole = float(theta[np.argmin(h)])
    for _ in range(16):
        r = best * (1.0 + 1e-11)
        cross = _level_set(b, r, pole)
        ends = np.append(cross[1:], cross[:1] + 2.0 * math.pi)
        mids = 0.5 * (cross + ends)
        hm = _support(b, mids)
        if not (hm > r).any():
            if e + math.frexp(best)[1] > 1024:
                raise OverflowError(f"the numerical radius {best!r} * 2**{e} overflows")
            return math.ldexp(best, e)
        for j in np.flatnonzero(hm > r):
            best = max(best, _polish(b, mids[j], cross[j], ends[j], 0j, 1e-10, []))
    raise ConvergenceError("level-set test still found the value exceeded after 16 "
                           f"criss-cross rounds; value {math.ldexp(best, e)!r}")


def central_numerical_radius(x, boundary_k: int = 1024) -> tuple[complex, float]:
    """min_z w(X - z 1) with its optimal recentering z: the radius and the
    center of the smallest disc containing the numerical range W(X).

    The support values h are sampled once at ``boundary_k`` angles, from
    half as many eigensolves for an even count.  From the trace center,
    ``geometry._exchange`` takes as farthest points at z the boundary points
    <v, X v> evaluated in polishing the peaks of w(X - z) = max_theta
    h(theta) - Re(e^{i theta} z), until w(X - z) is within 1e-11 of its lower
    bound, relatively.  Raises ``ConvergenceError`` at its round cap.
    """
    a = require_square(x)
    if _is_scalar_multiple_of_identity(a):
        return complex(a[0, 0]), 0.0
    shift, scale, b = _normalise(a)
    theta, h = _support_grid(b, boundary_k)
    phase = np.exp(1j * theta)

    def farthest(z: complex) -> tuple[float, list]:
        points = []
        best = _refine_peaks(b, theta, h - (phase * z).real, z, xatol=1e-7, points=points)
        points.sort(key=lambda p: -abs(p - z))
        return max(best, abs(points[0] - z)), [(p, 0.0, None) for p in points]

    z, value, disc, done = _exchange(farthest, 0j, 1e-11, 100)  # 22 rounds at most on a stress set
    if not done:
        raise ConvergenceError("boundary-point exchange hit its 100-round cap; "
                               f"value {scale * value!r}, lower bound {scale * disc.radius!r}")
    return shift + scale * z, scale * value
