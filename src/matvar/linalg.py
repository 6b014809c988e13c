"""Dense complex linear algebra kernel.

Input validation, singular values, the three matrix moduli (left, right,
Cartesian), a handful of fixed matrices, and seeded random ensembles.
Everything operates on plain complex128 numpy arrays; no global state.  The
power-of-two scaling every other module uses, ``_scaled`` and its map back
``_unscaled`` (``_unscaled_pair`` for two units), lives here.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

__all__ = [
    "as_matrix",
    "require_square",
    "is_hermitian",
    "as_density",
    "as_unit_vector",
    "singular_values",
    "modulus",
    "modulus_squared",
    "basis_matrix",
    "f_matrix",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ginibre",
    "random_hermitian",
    "random_unitary",
    "random_normal_matrix",
    "random_point_set",
    "MODULUS_KINDS",
]

# Relative tolerance for accepting a matrix as Hermitian.
_HERM_TOL = 1e-12
# A density matrix is Hermitian, has no eigenvalue below -_DENSITY_TOL and a
# trace within _DENSITY_TOL of 1.
_DENSITY_TOL = 1e-10

MODULUS_KINDS = ("L", "R", "C")


# ---------------------------------------------------------------------------
# coercion / validation


def as_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a 2-D complex128 array with finite entries."""
    a = np.array(x, dtype=np.complex128, copy=True)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def require_square(x) -> np.ndarray:
    a = as_matrix(x)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(x) -> bool:
    a = require_square(x)
    return float(np.abs(a - a.conj().T).max()) <= _HERM_TOL * float(np.abs(a).max())


def as_density(x) -> np.ndarray:
    """Validate a density matrix: Hermitian, eigenvalues >= -1e-10, trace 1 to 1e-10."""
    a = require_square(x)
    scale = 1.0 + float(np.abs(a).max())
    dev = float(np.abs(a - a.conj().T).max())
    if dev > _DENSITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} exceeds {_DENSITY_TOL:.1e} * {scale:.3e}")
    rho = 0.5 * (a + a.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _DENSITY_TOL:
        raise ValueError(f"density matrix must have unit trace, got {tr!r}")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -_DENSITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return rho


def _as_vector(x) -> np.ndarray:
    # x flattened to a fresh complex128 vector with at least one entry, all finite
    v = np.array(x, dtype=np.complex128, copy=True).reshape(-1)
    if v.size < 1 or not np.isfinite(v).all():
        raise ValueError("expected a finite nonempty vector")
    return v


def as_unit_vector(x) -> np.ndarray:
    v = _as_vector(x)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-12:
        raise ValueError(f"vector norm {n!r} is not 1 within 1.0e-12")
    return v


def _require_finite(value, name: str) -> None:
    # a scalar, real or complex, from outside the program
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_count(value, name: str, least: int) -> int:
    # a Python or numpy integer >= least, as an int: a float is rejected, not truncated
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# power-of-two scaling


def _divide(z: np.ndarray, s: float) -> np.ndarray:
    # z / s part by part: numpy divides by a real through its reciprocal, inf at a subnormal s
    return z.real / s + 1j * (z.imag / s)


def _scaled(x: np.ndarray, floor: float = 0.0) -> tuple[float, np.ndarray]:
    # x = unit * c, exact unless c is subnormal, unit the power of two at or below x's largest part (or floor)
    top = max(float(np.abs(x.ravel().view(np.float64)).max()), floor)  # real and imaginary parts alike
    unit = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return unit, x / unit if unit >= 2.0**-1022 else _divide(x, unit)  # 1 / unit is then finite


def _unscaled(q, unit: float, name: str):
    # unit * q, the map back from _scaled's unit; OverflowError names q past the largest float
    if type(q) is float or type(q) is complex:  # a Python scalar overflows to inf without a warning
        out = q * unit
        if cmath.isfinite(out):
            return out
    else:
        with np.errstate(over="ignore"):
            out = q * unit
        if np.isfinite(out).all():
            return out
    raise OverflowError(f"the {name}, {float(unit)!r} times {float(np.abs(q).max())!r}, overflows")


def _unscaled_pair(v: float, ux: float, uy: float, name: str) -> float:
    # v ux uy, the map back from two units, overflowing only if the result does
    if (ux < 1.0) != (uy < 1.0):  # units on opposite sides of 1: ux uy is finite
        return _unscaled(v, ux * uy, name)
    return _unscaled(_unscaled(v, ux, name), uy, name)


# ---------------------------------------------------------------------------
# decompositions


def singular_values(x) -> np.ndarray:
    """Singular values of a rectangular matrix, descending.

    LAPACK's SVD returns NaN once an entry's modulus passes the largest
    float; only then is it redone on X scaled by a power of two, and
    ``OverflowError`` names singular values past the largest float.
    """
    return _singular_values(as_matrix(x))


def _singular_values(a: np.ndarray) -> np.ndarray:
    # singular_values on a finite complex128 matrix, taken as it is: no copy, no finiteness scan
    sv = np.linalg.svd(a, compute_uv=False)
    if not math.isfinite(sv[0]):
        unit, c = _scaled(a)
        sv = _unscaled(np.linalg.svd(c, compute_uv=False), unit, "singular values")
    return sv


def modulus_squared(x, kind: str) -> np.ndarray:
    """X*X (kind "L"), XX* (kind "R"), or their average (kind "C");
    ``OverflowError`` when an entry is past the largest float."""
    a = require_square(x)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below, not warned of
        if kind == "L":
            m = a.conj().T @ a
        elif kind == "R":
            m = a @ a.conj().T
        elif kind == "C":
            m = 0.5 * (a.conj().T @ a + a @ a.conj().T)
        else:
            raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
        m = 0.5 * (m + m.conj().T)
    if not np.isfinite(m).all():
        raise OverflowError(f"the squared {kind} modulus overflows")
    return m


def modulus(x, kind: str) -> np.ndarray:
    """Left, right, or Cartesian modulus of a square matrix: the square root of
    ``modulus_squared``, its eigenvalues clipped at 0, taken at unit scale;
    ``OverflowError`` when an entry of the modulus is past the largest float."""
    unit, c = _scaled(require_square(x))  # the square neither under- nor overflows; the root maps back by unit
    w, v = np.linalg.eigh(modulus_squared(c, kind))
    w, v = np.clip(w[::-1], 0.0, None), v[:, ::-1]  # descending: the product sums the largest terms first
    root = (v * np.sqrt(w)) @ v.conj().T
    return _unscaled(0.5 * (root + root.conj().T), unit, f"{kind} modulus")


# ---------------------------------------------------------------------------
# fixed matrices


def basis_matrix(i: int, j: int, d: int) -> np.ndarray:
    """Matrix unit with a single 1 in row i, column j (1-based indices)."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"indices ({i}, {j}) out of range for dimension {d}")
    e = np.zeros((d, d), dtype=np.complex128)
    e[i - 1, j - 1] = 1.0
    return e


def f_matrix(d: int) -> np.ndarray:
    """diag(1, 1, 0, ..., 0): the extremal matrix for the two-largest gauge."""
    if d < 2:
        raise ValueError("f_matrix needs dimension at least 2")
    f = np.zeros((d, d), dtype=np.complex128)
    f[0, 0] = 1.0
    f[1, 1] = 1.0
    return f


def _frozen(rows) -> np.ndarray:
    a = np.array(rows, dtype=np.complex128)
    a.setflags(write=False)
    return a


PAULI_X = _frozen([[0, 1], [1, 0]])
PAULI_Y = _frozen([[0, 1j], [-1j, 0]])
PAULI_Z = _frozen([[1, 0], [0, -1]])


# ---------------------------------------------------------------------------
# random ensembles


def ginibre(d: int, seed) -> np.ndarray:
    """d x d matrix with iid standard complex Gaussian entries."""
    g = np.random.default_rng(seed)
    return (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / np.sqrt(2.0)


def random_hermitian(d: int, seed) -> np.ndarray:
    x = ginibre(d, seed)
    return 0.5 * (x + x.conj().T)


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction."""
    q, r = np.linalg.qr(ginibre(d, seed))
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return q * (diag / np.abs(diag))


def random_normal_matrix(d: int, seed) -> np.ndarray:
    """U diag(z) U* with Haar U and iid complex Gaussian z."""
    g = np.random.default_rng(seed)
    u = random_unitary(d, g)
    z = (g.standard_normal(d) + 1j * g.standard_normal(d)) / np.sqrt(2.0)
    return (u * z) @ u.conj().T


def random_point_set(n: int, seed) -> np.ndarray:
    """n iid standard complex Gaussian points in the plane."""
    if n < 1:
        raise ValueError("point set needs at least one point")
    g = np.random.default_rng(seed)
    return (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2.0)
