"""Shared test oracles, and samplers that only the tests use."""

from __future__ import annotations

import numpy as np
import pytest


def _cross(o: complex, a: complex, b: complex) -> float:
    return ((a - o).conjugate() * (b - o)).imag


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    e = b - a
    t = min(max(((z - a) * e.conjugate()).real / abs(e) ** 2, 0.0), 1.0) if e else 0.0
    return abs(z - a - t * e)


def _hull_signed_distance(z, points) -> float:
    """The signed distance from z to the boundary of the points' convex hull,
    positive inside: the hull by Andrew's monotone chain, counterclockwise,
    then the distance to its nearest edge."""
    pts = sorted({(p.real, p.imag) for p in np.asarray(points, dtype=complex).ravel()})
    pts = [complex(*p) for p in pts]

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(pts[::-1]) or pts
    z = complex(z)
    edges = list(zip(hull, hull[1:] + hull[:1]))
    dist = min(_segment_distance(z, a, b) for a, b in edges)
    inside = len(hull) >= 3 and all(_cross(a, b, z) >= 0.0 for a, b in edges)
    return dist if inside else -dist


def random_density(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized W W* with W a d x rank complex Gaussian matrix."""
    w = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2.0)
    m = w @ w.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / float(np.trace(m).real)


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def cartesian_parts(x) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian A, B with X = A + iB."""
    a = np.asarray(x, dtype=np.complex128)
    im = (a - a.conj().T) / 2j
    return 0.5 * (a + a.conj().T), 0.5 * (im + im.conj().T)


@pytest.fixture()
def hull_distance():
    return _hull_signed_distance
