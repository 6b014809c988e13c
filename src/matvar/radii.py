"""Matrix radii and the numerical range.

The radius of a square matrix X with respect to a modulus kind * in
{L, R, C} is

    r_*(X) = min_y || |X - y 1|_* ||_inf,

the smallest spectral norm of a shifted modulus over all complex centers y.
Its square equals the largest quantum variance

    max_rho  Tr[rho |X|_*^2] - |Tr[rho X]|^2

over density matrices rho, and the maximum is always attained at a pure
state.  The numerical range W(X) is sampled by support directions: for each
angle the top eigenpair of Re(e^{i theta} X) yields one supporting half plane
and one boundary point.  ``_support`` makes every such eigensolve, and a grid
of k angles takes k / 2 of them for even k and k for odd (``_support_grid``).

``radius`` and ``central_numerical_radius`` are smallest-disc problems:
the first over states, solved by the farthest-point exchange
``geometry._exchange``, the second over boundary points of W(X), solved in
rounds of a finish and a certificate.
``numerical_radius`` and ``central_numerical_radius`` are certified by the
level-set test of Mengi and Overton, which proves that no support value
reaches a given level; its real-root cut widens as the support flattens.
Inputs are scaled by a power of two (``linalg._scaled``), then shifted by
trace/d, and outputs are mapped back by ``linalg._unscaled``, which raises
``OverflowError`` naming any past the largest float; so no finite input
overflows, and the relative accuracy does not depend on the scale of X.
``radius`` certifies its value with an explicit pure-state witness:
``primal_value`` is the witness's variance and ``gap`` the distance to the
squared radius.  The same witness step ends every pass at its center y: at
the trace center, then where its exchange stops at 1e-4, then at its end;
the kink witness where the top eigenvalue of |X - y|^2 is nearly multiple,
Newton's method, its step safeguarded, where that falls short and the top
eigenvector is no eigenvector of X.
``central_numerical_radius`` finishes on the smallest disc of its grid's
boundary points (by Newton's method when three fix it), and adds the
points a failed certificate finds.  ``membership_in_range``'s margin has the
sign of z's signed distance to the boundary of W(X) and at most its size.
Every result is deterministic: nothing draws random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import ConvergenceError, _circle_two_fixed, _exchange, _smallest_disc, _support_margin
from .linalg import (_divide, _require_count, _require_finite, _scaled, _unscaled, _unscaled_pair, as_density,
                     modulus_squared, require_square)

__all__ = [
    "RadiusResult",
    "NumericalRangeSample",
    "Membership",
    "quantum_variance",
    "radius",
    "numerical_range",
    "numerical_radius",
    "central_numerical_radius",
    "membership_in_range",
]


# Seed angles of both numerical radii and membership: results are certified, so this sets only their
# cost.  With every finish declined, 384 seeded recentrings took up to 15 of 16 rounds at 8, 13 at 32
_GRID = 32


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
    return _unscaled_pair(max(second - abs(mean) ** 2, 0.0), unit, unit, "variance")


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


def _support(a: np.ndarray, theta, vectors: bool = False):
    """The ascending spectrum of Re(e^{i theta} X), for one angle or stacked
    over an array of them, with the eigenvectors if asked: its last value is
    the support function of W(X) in the direction e^{-i theta}."""
    phase = np.exp(1j * np.asarray(theta))[..., None, None]
    rotated = 0.5 * (phase * a + np.conj(phase) * a.conj().T)
    return np.linalg.eigh(rotated) if vectors else np.linalg.eigvalsh(rotated)


def _support_grid(a: np.ndarray, k: int, points: bool = False):
    """The k equispaced angles and the support values at them, with the
    boundary points <v, X v> of the top eigenvectors if asked, from k / 2
    eigensolves for even k and k for odd: the top eigenpair of
    Re(e^{i (theta + pi)} X) is the bottom one at theta, and an odd grid is
    every other angle of the 2k grid."""
    k = _require_count(k, "the number of angles", 8)
    theta, step = 2.0 * math.pi * np.arange(k) / k, 1 + k % 2
    spectra = _support(a, (theta / step)[: step * k // 2], points)  # the first half of the step k grid
    w, v = spectra if points else (spectra, None)
    h = np.concatenate((w[:, -1], -w[:, 0]))[::step]
    if not points:
        return theta, h
    v = np.concatenate((v[..., -1], v[..., 0]))[::step]
    return theta, h, np.einsum("ki,ij,kj->k", v.conj(), a, v)


# ---------------------------------------------------------------------------
# radius and its variance witness

# Every pass but the last tries the kink witness only where the top two
# eigenvalues of |B - y|^2 agree to this, relatively.  On 300 seeded normal
# inputs x L/R/C every kink it closed had a gap below 1.1e-14; on the radii
# benchmark's 480 matrices x L/R/C every try that failed had one above
# 1.3e-3 or below 1e-15
_KINK_GAP = 1e-3
# Newton's witness is tried only where the top eigenvector of |B - y|^2 has
# a variance above this, relative to lam_max: at the trace center at most
# 2.2e-15 on 42 seeded normal inputs x L/R/C at each d in 3..16, where that
# vector is an eigenvector of B and the optimum a kink, and at least 4.8e-2
# on as many Ginibre ones
_NEWTON_VARIANCE = 1e-8


def _shifted_eigh(b: np.ndarray, msq: np.ndarray):
    """The map y -> eigenpairs of msq - conj(y) B - y B* + |y|^2, which is
    |B - y|_kind^2 for msq = |B|_kind^2, the same expansion for every kind;
    B* and the identity are built once, not at every y; at 0 msq is solved as is."""
    bh, eye = b.conj().T, np.eye(b.shape[0])
    return lambda y: np.linalg.eigh(msq - np.conj(y) * b - y * bh + abs(y) ** 2 * eye if y else msq)


def _segment_hit(pa: complex, pb: complex, ab: complex, ba: complex, gab: complex,
                 q: complex) -> tuple[complex, complex]:
    """Coefficients (s, t) of the unit v = s xa + t xb with <v, B v> = q,
    for q on the segment between the field values pa = <xa, B xa> and
    pb = <xb, B xb> of unit vectors xa and xb, given ab = <xa, B xb>,
    ba = <xb, B xa> and gab = <xa, xb>, all plain complex numbers.
    Rotated so that segment is real, <v, (B - q) v> along v = xa + t phase xb
    is a real quadratic in t once the phase makes its middle coefficient
    real; of the two such phases, the one with Re(phase <xa, xb>) >= 0 keeps
    |v| >= 1, free of cancellation."""
    rot = (pb - pa).conjugate()
    lo, hi = (rot * (pa - q)).real, (rot * (pb - q)).real  # lo <= 0 <= hi
    if lo >= 0.0 or hi <= 0.0:
        return (1.0, 0.0) if abs(pa - q) <= abs(pb - q) else (0.0, 1.0)
    ab, ba = rot * (ab - q * gab), rot * (ba - q * gab.conjugate())
    phase = (ab - ba.conjugate()).conjugate()
    phase = phase / abs(phase) if abs(phase) > 0.0 else 1.0
    if (phase * gab).real < 0.0:
        phase = -phase
    mid = (phase * ab + phase.conjugate() * ba).real
    disc = math.sqrt(mid * mid - 4.0 * lo * hi)
    t = (disc - mid) / (2.0 * hi) if mid < 0.0 else -2.0 * lo / (mid + disc)
    norm = math.sqrt(1.0 + t * t + 2.0 * t * (phase * gab).real)
    return 1.0 / norm, t * phase / norm


def _polygon_hit(b: np.ndarray, vecs: list, y: complex) -> np.ndarray:
    """Unit u with <u, B u> = y in the span of the unit vectors ``vecs``,
    whose field values run around a convex polygon (any three do): a fan
    triangle from the first value holds y, and two segment solves land on
    it.  If no fan triangle holds y, the nearest point of the polygon's
    edges is hit instead.  One product gives V* B V and V* V for the
    vectors V; the rest is arithmetic on plain complex numbers."""
    rows = np.array(vecs)
    k = len(vecs)
    mg = (rows.conj() @ np.hstack((b @ rows.T, rows.T))).tolist()
    m, g = [row[:k] for row in mg], [row[k:] for row in mg]
    pts = [m[i][i] for i in range(k)]
    p0 = pts[0]
    tiny = 1e-14 * max(abs(p - p0) for p in pts) ** 2
    best = None  # (least barycentric weight of y, fan triangle, its two far weights)
    for j in range(1, k - 1):  # the fan triangles (p0, p_j, p_j+1)
        e1, e2, ey = pts[j] - p0, pts[j + 1] - p0, y - p0
        det = (e1.conjugate() * e2).imag
        if abs(det) > tiny:
            s, t = (ey.conjugate() * e2).imag / det, (e1.conjugate() * ey).imag / det
            fit = min(1.0 - s - t, s, t)
            if best is None or fit > best[0]:
                best = (fit, j, s, t)
    if best is None or best[0] < -1e-12:  # the nearest point of the edges (p_i, p_i+1)
        near = []
        for i in range(k):
            edge = pts[(i + 1) % k] - pts[i]
            along = min(max((edge.conjugate() * (y - pts[i])).real / max(abs(edge) ** 2, 1e-300), 0.0), 1.0)
            near.append((abs(y - pts[i] - along * edge), i, pts[i] + along * edge))
        _, i, q = min(near, key=lambda n: n[0])
        j = (i + 1) % k
        s, t = _segment_hit(pts[i], pts[j], m[i][j], m[j][i], g[i][j], q)
        return s * rows[i] + t * rows[j]
    _, j, w1, w2 = best
    w1, w2 = max(w1, 0.0), max(w2, 0.0)
    if w1 + w2 == 0.0:
        return vecs[0]
    q = (w1 * pts[j] + w2 * pts[j + 1]) / (w1 + w2)  # where the ray p0 -> y leaves
    s1, t1 = _segment_hit(pts[j], pts[j + 1], m[j][j + 1], m[j + 1][j], g[j][j + 1], q)
    # v = s1 x_j + t1 x_j+1, and the segment from x_0 to it
    pv = (abs(s1) ** 2 * pts[j] + abs(t1) ** 2 * pts[j + 1]
          + s1.conjugate() * t1 * m[j][j + 1] + t1.conjugate() * s1 * m[j + 1][j])
    s, t = _segment_hit(p0, pv, s1 * m[0][j] + t1 * m[0][j + 1], s1.conjugate() * m[j][0]
                        + t1.conjugate() * m[j + 1][0], s1 * g[0][j] + t1 * g[0][j + 1], y)
    return s * rows[0] + (t * s1) * rows[j] + (t * t1) * rows[j + 1]


def _variance(b: np.ndarray, msq: np.ndarray, psi: np.ndarray) -> float:
    return float(np.vdot(psi, msq @ psi).real) - abs(np.vdot(psi, b @ psi)) ** 2


def _witness(b: np.ndarray, msq: np.ndarray, y: complex,
             eig: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray, complex, float]:
    """Pure state of largest variance along Newton's iteration for
    <v, B v> = y, v a top eigenvector of |B - y|^2, with the center at which
    it was found and the top eigenvalue there.  The iteration runs in the
    full eigenbasis ``eig`` of |B - y|^2, so that eigenvalue is exactly
    lam_max(|B - center|^2).
    With p_j = <v_j, (B - y) v>, q_j = <v, (B - y) v_j> and gaps g_j,
    r = <v, B v> - y moves by -(1 + a) dy - e conj(dy),
    a = sum (|p_j|^2 + |q_j|^2) / g_j, e = sum 2 p_j q_j / g_j; a step no
    shorter than the last is cut to half the last one's length.  Iterates
    are ranked by their variance lam_max - |r|^2; only the best one's is
    evaluated.  It stops once |r| is at rounding level, once |r| has not
    fallen below its least for three steps (as at a kink, where Newton
    cannot converge), and after 12 steps at most.
    """
    w, v = eig
    c = v.conj().T @ (b - y * np.eye(b.shape[0])) @ v
    shifted = _shifted_eigh(c, np.diag(w - w[-1]))
    lam, delta, last, least, stalls = float(w[-1]), 0j, math.inf, math.inf, 0
    mu, z = w - w[-1], np.eye(b.shape[0])  # the eigenpairs of the diagonal h, at delta = 0
    best = (-math.inf, z[:, -1], y, lam)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(13):
            zt = z[:, -1]
            p, q = z.conj().T @ (c @ zt), (zt.conj() @ c) @ z  # the last column and row of z* c z
            r, top = complex(p[-1]) - delta, float(mu[-1]) + lam  # top = lam_max(|B - y - delta|^2)
            res = abs(r)
            best = max(best, (top - res * res, zt, y + delta, top), key=lambda cand: cand[0])
            if res * res <= 1e-16 * abs(lam):  # the gap |r|^2 left is below rounding
                break
            least, stalls = (res, 0) if res < least else (least, stalls + 1)
            if stalls == 3 or n == 12:
                break
            g = mu[-1] - mu[:-1]
            split = g > 1e-13 * abs(lam)  # a multiple top (X direct-sum X, say): its partners do not couple
            p, q, g = p[:-1][split], q[:-1][split], g[split]
            qg = q / g
            a, e = 1.0 + (np.vdot(p, p / g) + np.vdot(q, qg)).real, 2.0 * complex(p @ qg)
            step = (a * r - e * r.conjugate()) / (a * a - abs(e) * abs(e))  # |step| <= |r|, as a >= 1 + |e|
            if not math.isfinite(abs(step)):
                break
            step *= 1.0 if abs(step) < last else 0.5 * last / abs(step)
            delta, last = delta + step, abs(step)
            mu, z = shifted(delta)
    u = v @ best[1]
    return _variance(b, msq, u), u, best[2], best[3]


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


def radius(x, kind: str) -> RadiusResult:
    """r_kind(X): minimize the spectral norm of the shifted modulus over
    centers, certified by a pure-state variance witness.

    A unit v gives the mean b = <v, X v> and variance c = <v, |X|^2 v> - |b|^2,
    and lam_max(|X - y|^2), convex in y, is the largest |y - b|^2 + c over
    unit v, attained at a top eigenvector.  ``primal_value`` is the
    witness's variance, a lower bound on value^2, and ``gap`` is the
    difference; the first pass whose gap is 1e-13 value^2 or below
    finishes.  There are at most three passes, each at a center y valued
    sqrt(lam_max(|B - y|^2)): pass 0 at the trace center, from one
    eigensolve; pass 1 where ``geometry._exchange``, minimising lam_max
    from the best center so far, stops once the value is within 1e-4 of
    its disc's radius, relatively; pass 2, route (c), where the exchange
    runs to its end from there, starting from its own first point.  Every
    pass ends in the same witness step at y:

    (a) a kink: the unit vector with mean y in the span of the top
        eigenvectors (``_polygon_hit``): after an exchange those that fix
        its disc, at the trace center those within 1e-3 lam_1 of lam_1.  A
        kink has a multiple top eigenvalue, so (a) is tried only where
        lam_1 - lam_2 <= 1e-3 lam_1 for the top two eigenvalues of
        |B - y|^2 at y, and always on the last pass;
    (b) a smooth optimum, where (a) falls short or is not tried and the top
        eigenvector's variance is above 1e-8 lam_1 (at an eigenvector of
        X, as on a normal X, the optimum is a kink): ``_witness`` from y,
        starting from the eigenpairs at y (at most 12 steps; one no
        shorter than the last is cut to half the last's length), and the
        value sqrt(lam_max) at its best center if that is lower.

    ``primal_value`` and ``gap`` are inf above a radius of about 1.3e154,
    where the square overflows.  Raises ``ConvergenceError`` if an exchange
    hits its 500-round cap, ``OverflowError`` if the radius or center overflows.
    """
    a = require_square(x)
    unit, shift, scale, b = _normalise(a)
    msq = modulus_squared(b, kind)  # also rejects an unknown kind, before the zero input returns
    if not scale:
        return RadiusResult(kind, _unscaled(shift, unit, "center"), 0.0, 0.0,
                            np.eye(a.shape[0], dtype=np.complex128)[0])

    shifted = _shifted_eigh(b, msq)
    eigs = {}  # the eigenpairs of |B - y|^2 at the trace center and every center the exchange tried

    def farthest(y: complex) -> tuple[float, tuple]:
        if y not in eigs:  # the exchange starts where the last pass ended
            eigs[y] = shifted(y)
        w, v = eigs[y]
        top = v[:, -1]
        mean = complex(np.vdot(top, b @ top))
        var = max(float(np.vdot(top, msq @ top).real) - abs(mean) ** 2, 0.0)
        return math.sqrt(max(float(w[-1]), 0.0)), (mean, var, top)

    def closed(value: float, primal: float) -> bool:  # never on an inf or nan: inf <= inf holds
        finite = math.isfinite(value) and math.isfinite(primal)
        return finite and value * value - primal <= 1e-13 * value * value

    eigs[0j] = shifted(0j)  # pass 0, and the first exchange's first round
    y, value = 0j, math.sqrt(max(float(eigs[0j][0][-1]), 0.0))
    for rtol in (None, 1e-4, 0.0):  # exchanges of at most 10 rounds, then 22 more, on a stress set
        if rtol is not None:
            y, value, disc, done = _exchange(farthest, y, rtol, 500)
            if not done:
                raise ConvergenceError("radius exchange hit its 500-round cap; value "
                                       f"{unit * scale * value!r}, lower bound "
                                       f"{unit * scale * disc.radius!r}")
        w, v = eigs[y]
        primal = -math.inf
        if rtol == 0.0 or w[-1] - w[-2] <= _KINK_GAP * w[-1]:  # (a) a kink: a nearly multiple top
            vecs = (list(v[:, w >= w[-1] - _KINK_GAP * w[-1]].T) if rtol is None  # the top ones at 0
                    else [p[2] for p in disc.support])  # those that fix the disc
            witness = _polygon_hit(b, vecs, y)  # any unit vector bounds below: a miss leaves the gap open
            primal = _variance(b, msq, witness)
        if not closed(value, primal) and _variance(b, msq, v[:, -1]) > _NEWTON_VARIANCE * w[-1]:
            primal, witness, centre, top = _witness(b, msq, y, eigs[y])  # (b) a smooth optimum
            at = math.sqrt(max(top, 0.0))
            if at < value:
                y, value = centre, at
        if closed(value, primal):
            break
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
    theta, vals, boundary = _support_grid(c, k, points=True)
    return NumericalRangeSample(theta, _unscaled(vals, unit, "support values"),
                                _unscaled(boundary, unit, "boundary points"))


def membership_in_range(x, z: complex) -> Membership:
    """Whether z lies in W(X), with a margin of the sign of z's signed distance
    to the boundary of W(X) (positive inside) and never larger in size.  In
    Carden's loop (Inverse Problems 25, 2009) z's signed distance lo to the
    polygon of the 32-angle grid's boundary points bounds it below; while
    lo < 0 the support line in lo's direction adds its point, and the least
    h(theta) - Re(e^{i theta} z) so far, hi, bounds it above.  The margin is
    lo at lo >= 0, 0 at lo >= -1e-14 max |h| (rounding), hi at hi < 0 (outside).
    ``ConvergenceError`` after 64 probes; ``ValueError`` for z not finite."""
    _require_finite(z, "z")
    unit, c = _scaled(require_square(x), max(abs(z.real), abs(z.imag)))  # z is neither lost nor overflows
    z = _divide(z, unit)
    theta, h, points = _support_grid(c, _GRID, points=True)
    hi, tol = float((h - (np.exp(1j * theta) * z).real).min()), 1e-14 * float(np.abs(h).max())
    for _ in range(64):
        p = points[np.argsort(theta % (2.0 * math.pi))]  # clockwise: i (q - p) is an outward normal
        lo, u = _support_margin(z, p, 1j * (np.roll(p, -1) - p))
        if lo >= -tol:
            return Membership(True, _unscaled(max(lo, 0.0), unit, "margin"))
        t = -math.atan2(u.imag, u.real)  # the direction e^{-i t} = u
        lam, v = _support(c, t, vectors=True)
        theta, points = np.append(theta, t), np.append(points, v[:, -1].conj() @ c @ v[:, -1])
        hi = min(hi, float(lam[-1] - (np.exp(1j * t) * z).real))
        if hi < 0.0:
            return Membership(False, _unscaled(hi, unit, "margin"))
    raise ConvergenceError(f"z's margin still in [{unit * lo!r}, {unit * hi!r}] after 64 probes")


_POLISH_XATOL = 1e-10


def _polish(a: np.ndarray, t: float, lo: float, hi: float, shift: complex,
            points: list, width: bool = False) -> float:
    """Secant steps towards a local maximum of theta -> h(theta) -
    Re(e^{i theta} shift) from t, kept in [lo, hi], until a step is at most
    ``_POLISH_XATOL``; return the largest value seen.

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
        v = _support(a, t, vectors=True)[1]
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
        if abs(t - last[0]) <= _POLISH_XATOL:
            break
    return best


def _level_set(a: np.ndarray, r: float, pole: float, tol: float = 1e-8) -> np.ndarray:
    """The angles theta in [0, 2 pi) at which r is an eigenvalue of
    Re(e^{i theta} X), in increasing order; needs h(pole) < r.

    The level-set test of Mengi and Overton (IMA J. Numer. Anal. 25, 2005).
    With Y = e^{i (pole - pi)} X = H + i K, theta = pole - pi + 2 atan(s) and
    Re(e^{i theta} X) = cos(2 atan s) H - sin(2 atan s) K, r is such an
    eigenvalue exactly when the Hermitian pencil s^2 (H + r) + 2 s K + (r - H)
    is singular at a real s.  H + r = L L* is positive definite because
    -lam_min(H) = h(pole) < r, so the roots s are the eigenvalues of a 2n x 2n
    companion matrix; a root counts as real when |Im s| <= tol (1 + |s|).
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
    s = s[np.abs(s.imag) <= tol * (1.0 + np.abs(s))].real
    return np.sort((pole - math.pi + 2.0 * np.arctan(s)) % (2.0 * math.pi))


def _certify(b: np.ndarray, z: complex, best: float, theta: np.ndarray, h: np.ndarray, points: list) -> float:
    """w(B - z) from a value ``best`` it attains, certified to lie in
    [value, value (1 + 1e-11)]; the pole, where H + r is best conditioned,
    is the angle of the smallest recentred value of B's grid ``theta``, ``h``.

    Each round is one level-set test at r = best (1 + 1e-11); its root cut,
    1e-8 times best over the recentred grid's depth below best (at least
    1e-8), widens where a flat support makes every crossing ill-conditioned.
    If no interval between the crossing angles rises above r at its midpoint,
    w(B - z) < r.  Otherwise each that does is ``_polish``-ed from its
    midpoint, every boundary point evaluated joins ``points``, and the
    largest value is tested next (criss-cross); ``ConvergenceError`` after 16.
    """
    a = b - z * np.eye(b.shape[0]) if z else b  # no copy at z = 0
    g = h - (np.exp(1j * theta) * z).real if z else h
    pole = float(theta[np.argmin(g)])
    for _ in range(16):
        r = best * (1.0 + 1e-11)
        cross = _level_set(a, r, pole, 1e-8 * best / min(max(best - float(g.min()), 1e-300 * best), best))
        if cross.size == 0:
            return best
        ends = np.append(cross[1:], cross[:1] + 2.0 * math.pi)
        mids = 0.5 * (cross + ends)
        above = np.flatnonzero(_support(a, mids)[:, -1] > r)
        if above.size == 0:
            return best
        for j in above:
            best = max(best, _polish(b, mids[j], cross[j], ends[j], z, points))
    raise ConvergenceError("level-set test still found the value exceeded after 16 certifications")


def numerical_radius(x) -> float:
    """w(X) = max_theta lam_max(Re(e^{i theta} X)), certified by the
    level-set test: w(X) lies in [value, value (1 + 1e-11)].

    The support values of the 32-angle grid (from 16 eigensolves) only seed
    the search: the top one is ``_polish``-ed and ``_certify`` finishes.
    X is scaled by a power of two first, so c X gives c w(X) to rounding.
    Raises ``ConvergenceError`` after 16 tests, ``OverflowError`` if w(X) overflows.
    """
    a = require_square(x)
    if not a.any():
        return 0.0
    unit, b = _scaled(a)
    theta, h = _support_grid(b, _GRID)
    spacing = 2.0 * math.pi / _GRID
    t = float(theta[np.argmax(h)])
    best = max(float(h.max()), _polish(b, t, t - spacing, t + spacing, 0j, []))
    return _unscaled(_certify(b, 0j, best, theta, h, []), unit, "numerical radius")


def _finish(b: np.ndarray, ends: list, z: complex, found: list) -> tuple[complex, float, float] | None:
    """The smallest disc around W(B) from the two or three boundary points
    ``ends`` that fix a disc centered at z, as ``(center, value, lower)``:
    g_z attains value at the center, and lower is the radius of the
    smallest disc around points of W(B).  Every angle moves at most one
    spacing of the ``_GRID``-angle grid from its start, which is exact at a
    corner of W(B).  Every boundary point evaluated is appended to ``found``
    with its angle.

    Two points p, q fix the disc at half the diameter of W(B), the largest
    width h(theta) + h(theta + pi): ``_polish`` climbs it from -arg(p - q),
    and the center is the midpoint of the last top and bottom boundary
    points, where g_z is the half-width.  Three run Newton's method on
    f_i(theta_i) = R, f_i'(theta_i) = 0, f = h - Re(e^{i theta} z), from
    theta_i = -arg(p_i - z), with one stacked ``eigh`` per pass: M = V* B V
    gives the points M[top, top], the slopes and h'' = -lam_top +
    2 sum_j |<v_j, A' v>|^2 / (lam_top - lam_j), A' = Re(i e^{i theta} B)
    (Lancaster, Numer. Math. 6, 1964), and eliminating each d theta_i leaves
    a 3 x 3 solve for (dz, R).  It stops once the largest f is the points'
    circumradius to 1e-15, or dz no longer shrinks; a right or obtuse
    triangle hands its longest side to the width route.  None on a zero
    top gap, on f'' >= 0, or after 8 passes.
    """
    start, spacing = -np.angle(np.array(ends) - z), 2.0 * math.pi / _GRID
    t, last = start, math.inf
    for _ in range(8):
        if len(ends) == 2:
            t = -float(np.angle(ends[0] - ends[1]))
            _polish(b, t, t - spacing, t + spacing, 0j, found, width=True)
            (p, t), (q, _) = found[-2:]
            return 0.5 * (p + q), 0.5 * float((np.exp(1j * t) * (p - q)).real), 0.5 * abs(p - q)
        lam, v = _support(b, t, vectors=True)
        m = v.conj().transpose(0, 2, 1) @ b @ v
        p, e = m[:, -1, -1], np.exp(1j * t)
        found.extend(zip(p.tolist(), t.tolist()))
        a, q, r = max((p[[0, 1, 2]], p[[1, 2, 0]], p[[2, 0, 1]]), key=lambda s: abs(s[1] - s[2]))
        disc = _circle_two_fixed([(a, 0.0, 0)], (q, 0.0, 1), (r, 0.0, 2))
        if len(disc.support) == 2:  # the circle on the longest side holds the third point
            ends = [q, r]
            continue
        w = e * (p - z)  # f = Re w and f' = -Im w
        a2 = e[:, None] * m[:, :-1, -1] - np.conj(e[:, None] * m[:, -1, :-1])  # 2i <v_j, A' v>
        with np.errstate(all="ignore"):  # a zero top gap leaves f'' inf or nan
            d2f = 0.5 * (np.abs(a2) ** 2 / (lam[:, -1:] - lam[:, :-1])).sum(-1) - lam[:, -1] + (e * z).real
        if not (d2f < 0.0).all():
            return None
        value, k, sin, cos = float(w.real.max()), -w.imag / d2f, np.sin(t), np.cos(t)
        rows = np.stack([-cos - k * sin, sin - k * cos, -np.ones(3)], axis=1)  # in dx, dy and R
        dx, dy, _ = np.linalg.solve(rows, -k * w.imag - w.real)
        if abs(value - disc.radius) <= 1e-15 * value or not abs(complex(dx, dy)) < last:
            return z, value, disc.radius
        t = np.clip(t - k - (sin * dx + cos * dy) / d2f, start - spacing, start + spacing)
        z, last = z + complex(dx, dy), abs(complex(dx, dy))
    return None


def central_numerical_radius(x) -> tuple[complex, float]:
    """min_z w(X - z 1) with its optimal recentering z: the radius and the
    center of the smallest disc containing the numerical range W(X),
    certified: w(X - z) lies in [value, value (1 + 1e-11)], and value is
    within 1e-11, relatively, of the smallest disc around some points of
    W(X), a lower bound.

    The support values h of the 32-angle grid (from 16 eigensolves) give
    the first boundary points <v, X v>.
    Each round takes the smallest disc of the points so far and a center z:
    in the first round the trace center, valued max h, if that is within
    1e-11 of the radius; else ``_finish``'s center and value, by the width of
    W(X) for two support points and Newton's method for three, if within
    1e-11 of its own lower bound; else the disc's center, valued at
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
    theta, h, points = _support_grid(b, _GRID, points=True)
    top = float(h.max())
    for n in range(16):  # 2 at most on 519 seeded inputs, 13 with every finish declined
        z, lower, idx = _smallest_disc(points, np.zeros(points.size))
        found = []  # the boundary points this round polishes, with their angles
        if n == 0 and abs(top - lower) <= 1e-11 * top:
            z, value = 0j, top  # the trace center
        else:
            end = _finish(b, list(points[idx]), z, found)
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
