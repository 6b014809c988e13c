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

``radius`` and ``central_numerical_radius`` are smallest-disc problems:
the first over states, solved by the farthest-point exchange
``geometry._exchange``, the second over boundary points of W(X), solved in
rounds of a finish and a certificate.
``numerical_radius`` and ``central_numerical_radius`` are certified by the
level-set test of Mengi and Overton, which proves that no support value
reaches a given level.
Inputs are scaled by a power of two (``linalg._scaled``), then shifted by
trace/d, and outputs are mapped back by ``linalg._unscaled``, which raises
``OverflowError`` naming any past the largest float; so no finite input
overflows, and the relative accuracy does not depend on the scale of X.
``radius`` certifies its value with an explicit pure-state witness:
``primal_value`` is the witness's variance and ``gap`` the distance to the
squared radius; its exchange stops at 1e-4 unless neither witness closes
that gap.  ``central_numerical_radius`` finishes on the smallest disc of its
grid's boundary points, and adds the points a failed certificate finds.  Every
result is deterministic: nothing draws random numbers, and the ``restarts``
and ``seed`` arguments of ``radius`` are accepted and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ConvergenceError, _exchange, _smallest_disc
from .linalg import MODULUS_KINDS, _divide, _scaled, _unscaled, as_density, modulus_squared, require_square

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
    unit, c = _scaled(a)  # |X|^2 neither overflows nor underflows; the variance maps back by unit^2
    second = float(np.trace(r @ modulus_squared(c, kind)).real)
    mean = complex(np.trace(r @ c))
    return _unscaled(_unscaled(max(second - abs(mean) ** 2, 0.0), unit, "variance"), unit, "variance")


# ---------------------------------------------------------------------------
# shared machinery: normalisation, support function


def _normalise(a: np.ndarray) -> tuple[float, complex, float, np.ndarray]:
    """X = unit (shift + scale B), Tr B = 0: X scaled by ``_scaled``, shifted,
    and B scaled again, so that the solvers' absolute slacks see it at unit
    size however large the shift; scale is 0 when B vanishes (to 1e-14)."""
    unit, c = _scaled(a)
    shift = complex(np.trace(c)) / c.shape[0]
    b = c - shift * np.eye(c.shape[0])
    return (unit, shift, 0.0, b) if float(np.abs(b).max()) <= 1e-14 else (unit, shift, *_scaled(b))


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


def _support_grid(a: np.ndarray, k: int, vectors: bool = False):
    """The k equispaced angles and the support values at them, with the top
    eigenvectors if asked.  For even k half the eigensolves give every pair:
    the top eigenpair of Re(e^{i (theta + pi)} X) is the bottom one at theta."""
    theta = _angles(k)
    if k % 2:
        grid = _support(a, theta, vectors)
    elif vectors:
        w, v = np.linalg.eigh(_rotated(a, theta[: k // 2]))
        grid = np.concatenate((w[:, -1], -w[:, 0])), np.concatenate((v[..., -1], v[..., 0]))
    else:
        w = np.linalg.eigvalsh(_rotated(a, theta[: k // 2]))
        grid = np.concatenate((w[:, -1], -w[:, 0]))
    return (theta, *grid) if vectors else (theta, grid)


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


def _polygon_hit(b: np.ndarray, vecs: list, y: complex) -> np.ndarray:
    """Unit u with <u, B u> = y in the span of the unit vectors ``vecs``,
    whose field values run around a convex polygon (any three do): a fan
    triangle from the first value holds y, and two segment solves land on
    it.  If no fan triangle holds y, the nearest point of the polygon's
    edges is hit instead."""
    pts = np.array([np.vdot(u, b @ u) for u in vecs])
    # barycentric weights of y in the fan triangles (p0, p_j+1, p_j+2)
    e1, e2, ey = pts[1:-1] - pts[0], pts[2:] - pts[0], y - pts[0]
    det = (np.conj(e1) * e2).imag
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (np.conj(ey) * e2).imag / det
        t = (np.conj(e1) * ey).imag / det
        weights = np.stack([1.0 - s - t, s, t])
    fit = np.where(np.abs(det) > 1e-14 * np.abs(pts - pts[0]).max() ** 2, weights.min(axis=0), -np.inf)
    if fit.size and fit.max() >= -1e-12:
        j = int(np.argmax(fit))
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


def _variance(b: np.ndarray, msq: np.ndarray, psi: np.ndarray) -> float:
    return float(np.vdot(psi, msq @ psi).real) - abs(np.vdot(psi, b @ psi)) ** 2


def _kink_witness(b: np.ndarray, msq: np.ndarray, y: complex, vecs: list) -> tuple[float, np.ndarray]:
    """The witness at a kink, and its variance: the unit u with
    <u, B u> = y in the span of the top eigenvectors that fix the smallest
    disc, at most three, whose field values hold its center y."""
    u = _polygon_hit(b, vecs, y)
    return _variance(b, msq, u), u


def _witness(b: np.ndarray, msq: np.ndarray, y: complex) -> tuple[float, np.ndarray, complex, float]:
    """Pure state of largest variance along Newton's iteration for
    <v, B v> = y, v a top eigenvector of |B - y|^2, with the center at which
    it was found and the top eigenvalue there.  The iteration runs in the
    full eigenbasis at y, so that eigenvalue is exactly lam_max(|B - center|^2).
    With p_j = <v_j, (B - y) v>, q_j = <v, (B - y) v_j> and gaps g_j,
    r = <v, B v> - y moves by -(1 + a) dy - e conj(dy),
    a = sum (|p_j|^2 + |q_j|^2) / g_j, e = sum 2 p_j q_j / g_j.  It stops
    once |r| is at rounding level, or once a step no longer shrinks (as at a
    kink, where Newton cannot converge), and after 8 steps at most.
    """
    w, v = _shifted_eigh(b, msq, y)
    h = np.diag(w - w[-1])
    c = v.conj().T @ (b - y * np.eye(b.shape[0])) @ v
    best = (-math.inf, None, y, float(w[-1]))
    delta, last = 0j, math.inf
    mu, z = w - w[-1], np.eye(b.shape[0])  # the eigenpairs of the diagonal h, at delta = 0
    for _ in range(8):
        u = v @ z[:, -1]
        top = float(mu[-1] + w[-1])  # lam_max(|B - y - delta|^2)
        best = max(best, (_variance(b, msq, u), u, y + delta, top), key=lambda cand: cand[0])
        cz = z.conj().T @ c @ z
        r, p, q, g = cz[-1, -1] - delta, cz[:-1, -1], cz[-1, :-1], mu[-1] - mu[:-1]
        split = g > 1e-13 * abs(w[-1])  # a multiple top (X direct-sum X, say): its partners do not couple
        p, q, g = p[split], q[split], g[split]
        if abs(r) * abs(r) <= 1e-16 * abs(w[-1]):  # the gap |r|^2 left is below rounding
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a, e = np.sum((abs(p) ** 2 + abs(q) ** 2) / g), np.sum(2.0 * p * q / g)
            step = ((1.0 + a) * r - e * np.conj(r)) / ((1.0 + a) ** 2 - abs(e) ** 2)
        if not abs(step) < last:  # also a step that is not finite
            break
        delta, last = delta + step, abs(step)
        mu, z = _shifted_eigh(c, h, delta)
    return best


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
    it from the trace center.  ``primal_value`` is the witness's variance, a
    lower bound on value^2, and ``gap`` is the difference.  One loop runs at
    most two passes: the first stops the exchange once the value is within
    1e-4 of the disc's radius, relatively, and the second, route (c),
    resumes it with the first disc's support and runs it to its end.  After
    each exchange two witnesses are tried, and the first pass whose gap is
    1e-13 value^2 or below finishes:

    (a) a kink: the unit vector with mean y in the span of the top
        eigenvectors that fix the disc (``_kink_witness``);
    (b) a smooth optimum, if (a) falls short: ``_witness`` from y, and the
        value sqrt(lam_max) at its best center if that is lower.

    ``primal_value`` and ``gap`` are inf above a radius of about 1.3e154,
    where the square overflows.  Deterministic: ``restarts`` and ``seed``
    are accepted and ignored.  Raises ``ConvergenceError`` if an exchange
    hits its 500-round cap, ``OverflowError`` if the radius or center overflows.
    """
    a = require_square(x)
    if kind not in MODULUS_KINDS:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    unit, shift, scale, b = _normalise(a)
    if not scale:
        return RadiusResult(kind, _unscaled(shift, unit, "center"), 0.0, 0.0,
                            np.eye(a.shape[0], dtype=np.complex128)[0])
    msq = modulus_squared(b, kind)

    resumed = []  # the first disc's support, handed back when the exchange resumes

    def farthest(y: complex) -> tuple[float, list]:
        w, v = _shifted_eigh(b, msq, y)
        top = v[:, -1]
        mean = complex(np.vdot(top, b @ top))
        var = max(float(np.vdot(top, msq @ top).real) - abs(mean) ** 2, 0.0)
        return math.sqrt(max(float(w[-1]), 0.0)), [(mean, var, top)] + resumed

    def closed(value: float, primal: float) -> bool:
        return value * value - primal <= 1e-13 * value * value

    y = 0j
    for rtol in (1e-4, 0.0):  # at most 13 rounds, then 27 more, on a stress set (50 from the trace center)
        y, value, disc, done = _exchange(farthest, y, rtol, 500)
        if not done:
            raise ConvergenceError("radius exchange hit its 500-round cap; value "
                                   f"{unit * scale * value!r}, lower bound {unit * scale * disc.radius!r}")
        primal, witness = _kink_witness(b, msq, y, [p[2] for p in disc.support])  # (a) a kink
        if not closed(value, primal):  # (b) a smooth optimum
            primal, witness, centre, top = _witness(b, msq, y)
            at = math.sqrt(max(top, 0.0))
            if at < value:
                y, value = centre, at
        if closed(value, primal):
            break
        resumed.extend(disc.support)
    value = _unscaled(scale * value, unit, "radius")
    primal = unit * (scale * (unit * (scale * float(max(primal, 0.0)))))  # inf once the square overflows
    return RadiusResult(kind, _unscaled(shift + scale * y, unit, "center"), value, primal, witness)


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
    unit, c = _scaled(require_square(x))
    theta, vals, top = _support_grid(c, k, vectors=True)
    boundary = np.einsum("ki,ij,kj->k", top.conj(), c, top)
    return NumericalRangeSample(theta, _unscaled(vals, unit, "support values"),
                                _unscaled(boundary, unit, "boundary points"))


def membership_in_range(x, z: complex, angles: int = 360) -> Membership:
    """Support-function membership test: z is in W(X) exactly when
    Re(e^{i phi} z) never exceeds lam_max(Re(e^{i phi} X)), here checked at
    ``angles`` equispaced phi (half as many eigensolves for an even count).
    The margin may fall short of 0 by 1e-8 times the largest |lam_max|."""
    unit, c = _scaled(require_square(x), max(abs(z.real), abs(z.imag)))  # z is neither lost nor overflows
    theta, h = _support_grid(c, angles)
    margin = float((h - (np.exp(1j * theta) * _divide(z, unit)).real).min())
    return Membership(margin >= -1e-8 * float(np.abs(h).max()), _unscaled(margin, unit, "margin"))


def _polish(a: np.ndarray, t: float, lo: float, hi: float, shift: complex,
            xatol: float, points: list, width: bool = False) -> float:
    """Secant steps towards a local maximum of theta -> h(theta) -
    Re(e^{i theta} shift) from t, kept in [lo, hi], until a step is below
    ``xatol``; return the largest value seen.

    For a top eigenvector v and w = e^{i theta} (<v, X v> - shift), the
    value is Re w and the slope -Im w (Hellmann-Feynman).  The first step,
    theta - arg w, is exact where the boundary point <v, X v> stays put (a
    corner of W(X)).  Every boundary point evaluated is appended to
    ``points`` with its angle, as ``(p, theta)``.  With ``width`` the
    function is the width h(theta) + h(theta + pi) of W(X) instead: the same
    eigensolve gives the bottom eigenvector, whose boundary point, appended
    after the top one at theta + pi, takes the place of ``shift``.
    """
    best, last = -math.inf, None
    for _ in range(32):
        v = np.linalg.eigh(_rotated(a, t))[1]
        p = complex(np.vdot(v[:, -1], a @ v[:, -1]))
        points.append((p, t))
        if width:
            shift = complex(np.vdot(v[:, 0], a @ v[:, 0]))
            points.append((shift, t + math.pi))
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


def _certify(b: np.ndarray, z: complex, best: float, theta: np.ndarray, h: np.ndarray, points: list) -> float:
    """w(B - z) from a value ``best`` it attains, certified to lie in
    [value, value (1 + 1e-11)]; the pole, where H + r is best conditioned,
    is the angle of the smallest recentred value of B's grid ``theta``, ``h``.

    Each round is one level-set test at r = best (1 + 1e-11).  If no interval
    between the crossing angles rises above r at its midpoint, w(B - z) < r.
    Otherwise each that does is ``_polish``-ed from its midpoint, every
    boundary point evaluated is appended to ``points``, and the largest value
    is tested next (criss-cross).  Raises ``ConvergenceError`` after 16 tests.
    """
    a = b - z * np.eye(b.shape[0]) if z else b  # no copy at z = 0
    pole = float(theta[np.argmin(h - (np.exp(1j * theta) * z).real if z else h)])
    for _ in range(16):
        r = best * (1.0 + 1e-11)
        cross = _level_set(a, r, pole)
        if cross.size == 0:
            return best
        ends = np.append(cross[1:], cross[:1] + 2.0 * math.pi)
        mids = 0.5 * (cross + ends)
        above = np.flatnonzero(_support(a, mids) > r)
        if above.size == 0:
            return best
        for j in above:
            best = max(best, _polish(b, mids[j], cross[j], ends[j], z, 1e-10, points))
    raise ConvergenceError("level-set test still found the value exceeded after 16 certifications")


def numerical_radius(x, grid: int = 32) -> float:
    """w(X) = max_theta lam_max(Re(e^{i theta} X)), certified by the
    level-set test: w(X) lies in [value, value (1 + 1e-11)].

    The ``grid`` equispaced support values (from half as many eigensolves
    for an even count) only seed the search: the top one is ``_polish``-ed
    and ``_certify`` finishes.  X is scaled by a power of two first,
    so c X gives c w(X) to rounding.  Raises ``ConvergenceError`` after 16
    tests, and ``OverflowError`` if w(X) overflows.
    """
    a = require_square(x)
    if not a.any():
        return 0.0
    unit, b = _scaled(a)
    theta, h = _support_grid(b, grid)
    spacing = 2.0 * math.pi / grid
    t = float(theta[np.argmax(h)])
    best = max(float(h.max()), _polish(b, t, t - spacing, t + spacing, 0j, 1e-10, []))
    return _unscaled(_certify(b, 0j, best, theta, h, []), unit, "numerical radius")


def _finish(b: np.ndarray, ends: list, z: complex, spacing: float,
            found: list) -> tuple[complex, float, float] | None:
    """The smallest disc around W(B) from the two or three boundary points
    ``ends`` that fix a disc centered at z, as ``(center, value, lower)``:
    g_z attains value at the center z, and lower is the radius of a disc
    around points of W(B).  Every angle moves at most one grid ``spacing``
    from its start, which is exact at a corner of W(B); None after 8 passes.
    Every boundary point evaluated is appended to ``found`` with its angle.

    Two points p, q fix the disc at half the diameter of W(B), the largest
    width h(theta) + h(theta + pi): ``_polish`` climbs it from -arg(p - q),
    and the center is the midpoint of the last top and bottom boundary
    points, where g_z is the half-width.  Each of three points p is
    polished from -arg(p - z), and the smallest disc of the new points is
    the next one, until its center moves by at most 1e-13 of its radius: a
    circumcenter moves only to second order as its points slide along the
    boundary.  A disc that shrinks to two points takes the width route.
    """
    for _ in range(8):
        if len(ends) == 2:
            t = -float(np.angle(ends[0] - ends[1]))
            _polish(b, t, t - spacing, t + spacing, 0j, 1e-10, found, width=True)
            (p, t), (q, _) = found[-2:]
            return 0.5 * (p + q), 0.5 * float((np.exp(1j * t) * (p - q)).real), 0.5 * abs(p - q)
        polished = []
        for p in ends:
            t = -float(np.angle(p - z))
            _polish(b, t, t - spacing, t + spacing, z, 1e-10, found)
            polished.append(found[-1])
        center, radius, idx = _smallest_disc(np.array([p for p, _ in polished]), np.zeros(len(polished)))
        if abs(center - z) <= 1e-13 * radius:  # g at the center attains Re(e^{i t} (p - center)) at each t
            return center, max(float((np.exp(1j * t) * (p - center)).real) for p, t in polished), radius
        z, ends = center, [polished[i][0] for i in idx]
    return None


def central_numerical_radius(x, boundary_k: int = 64) -> tuple[complex, float]:
    """min_z w(X - z 1) with its optimal recentering z: the radius and the
    center of the smallest disc containing the numerical range W(X),
    certified: w(X - z) lies in [value, value (1 + 1e-11)], and value is
    within 1e-11, relatively, of the smallest disc around some points of
    W(X), a lower bound.

    The support values h at ``boundary_k`` angles (from half as many
    eigensolves for an even count) give the first boundary points <v, X v>.
    Each round takes the smallest disc of the points so far and a center z:
    in the first round the trace center, valued max h, if that is within
    1e-11 of the radius; else ``_finish``'s center and value, by the width of
    W(X) for two support points and a settled circumcenter for three, if
    within 1e-11 of its own lower bound; else the disc's center, valued at
    the largest recentred grid value.  ``_certify`` raises the value to
    w(X - z), and the round returns once it is within 1e-11 of the lower
    bound; else every boundary point it and the finish polished joins the
    set (at the disc's center a value above the radius comes from a point
    outside the disc).  Raises ``ConvergenceError`` at a cap (``_certify``'s
    or 16 rounds), and ``OverflowError`` if the radius or center overflows.
    """
    unit, shift, scale, b = _normalise(require_square(x))
    if not scale:
        return _unscaled(shift, unit, "center"), 0.0
    theta, h, v = _support_grid(b, boundary_k, vectors=True)
    points = np.einsum("ki,ij,kj->k", v.conj(), b, v)
    top = float(h.max())
    for n in range(16):  # 2 at most on 519 seeded inputs, 15 with every finish declined
        z, lower, idx = _smallest_disc(points, np.zeros(points.size))
        found = []  # the boundary points this round polishes, with their angles
        if n == 0 and abs(top - lower) <= 1e-11 * top:
            z, value = 0j, top  # the trace center
        else:
            end = _finish(b, list(points[idx]), z, 2.0 * math.pi / boundary_k, found)
            if end is not None and abs(end[1] - end[2]) <= 1e-11 * end[1]:
                z, value, lower = end[0], end[1], max(lower, end[2])
            else:
                value = float((h - (np.exp(1j * theta) * z).real).max())
        value = _certify(b, z, value, theta, h, found)
        if value - lower <= 1e-11 * value:
            break
        points = np.append(points, [p for p, _ in found])
    else:
        raise ConvergenceError("central numerical radius hit its 16-round cap; value "
                               f"{unit * scale * value!r}, lower bound {unit * scale * lower!r}")
    value = _unscaled(scale * value, unit, "central numerical radius")
    return _unscaled(shift + scale * z, unit, "center"), value
