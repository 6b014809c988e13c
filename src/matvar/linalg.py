"""Dense complex linear algebra kernel.

Eigendecompositions of Hermitian matrices, singular values, the three matrix
moduli (left, right, Cartesian), Cartesian decomposition, a handful of fixed
matrices, and seeded random ensembles.  Everything operates on plain
complex128 numpy arrays; no global state.  The power-of-two scaling every
other module uses, ``_scaled`` and its map back ``_unscaled``, lives here.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "as_matrix",
    "require_square",
    "as_hermitian",
    "is_hermitian",
    "as_density",
    "as_unit_vector",
    "hermitian_eig",
    "singular_values",
    "psd_sqrt",
    "modulus",
    "modulus_squared",
    "cartesian_parts",
    "identity",
    "basis_matrix",
    "f_matrix",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ginibre",
    "random_hermitian",
    "random_unitary",
    "random_normal_matrix",
    "random_density",
    "random_unit_vector",
    "random_point_set",
    "random_ensemble",
    "ENSEMBLE_KINDS",
    "MODULUS_KINDS",
]

# Relative tolerance for accepting a matrix as Hermitian.
_HERM_TOL = 1e-12
# Eigenvalues of a nominally PSD matrix may undershoot zero by this much
# (relative to the spectral scale) before we refuse to take a square root.
_PSD_CLAMP = 1e-10

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


def is_hermitian(x, tol: float = _HERM_TOL) -> bool:
    a = require_square(x)
    scale = 1.0 + float(np.abs(a).max())
    return float(np.abs(a - a.conj().T).max()) <= tol * scale


def as_hermitian(x, tol: float = _HERM_TOL) -> np.ndarray:
    """Validate Hermiticity up to ``tol`` (relative) and symmetrize."""
    a = require_square(x)
    scale = 1.0 + float(np.abs(a).max())
    dev = float(np.abs(a - a.conj().T).max())
    if dev > tol * scale:
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return 0.5 * (a + a.conj().T)


def as_density(x, eig_tol: float = 1e-10, trace_tol: float = 1e-10) -> np.ndarray:
    """Validate a density matrix: Hermitian, eigenvalues >= -eig_tol, unit trace."""
    rho = as_hermitian(x, tol=1e-10)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix must have unit trace, got {tr!r}")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -eig_tol:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return rho


def as_unit_vector(x, tol: float = 1e-12) -> np.ndarray:
    v = np.array(x, dtype=np.complex128, copy=True).reshape(-1)
    if v.size < 1 or not np.isfinite(v).all():
        raise ValueError("expected a finite nonempty vector")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > tol:
        raise ValueError(f"vector norm {n!r} is not 1 within {tol:.1e}")
    return v


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
    raise OverflowError(f"the {name}, {unit!r} times {float(np.abs(q).max())!r}, overflows")


# ---------------------------------------------------------------------------
# decompositions


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    hh = as_hermitian(h)
    try:
        w, v = np.linalg.eigh(hh)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy failure path
        raise RuntimeError(f"eigendecomposition did not converge: {exc}") from exc
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    scale = 1.0 + float(np.abs(hh).max())
    resid = float(np.abs(hh @ v - v * w).max())
    if resid > 1e-10 * scale:  # pragma: no cover - defensive
        raise RuntimeError(f"eigendecomposition residual {resid:.3e} too large for scale {scale:.3e}")
    return w, v


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


def psd_sqrt(h) -> np.ndarray:
    """Square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-clamp, 0) are truncated to zero; anything more negative
    (relative to the spectral scale) is an error.
    """
    w, v = hermitian_eig(h)
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    if w.min() < -_PSD_CLAMP * scale:
        raise ValueError(f"matrix is not positive semidefinite: eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def modulus_squared(x, kind: str) -> np.ndarray:
    """X*X (kind "L"), XX* (kind "R"), or their average (kind "C")."""
    a = require_square(x)
    if kind == "L":
        m = a.conj().T @ a
    elif kind == "R":
        m = a @ a.conj().T
    elif kind == "C":
        m = 0.5 * (a.conj().T @ a + a @ a.conj().T)
    else:
        raise ValueError(f"kind must be one of {MODULUS_KINDS}, got {kind!r}")
    return 0.5 * (m + m.conj().T)


def modulus(x, kind: str) -> np.ndarray:
    """Left, right, or Cartesian modulus of a square matrix."""
    return psd_sqrt(modulus_squared(x, kind))


def cartesian_parts(x) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian A, B with X = A + iB."""
    a = require_square(x)
    re = 0.5 * (a + a.conj().T)
    im = (a - a.conj().T) / 2j
    return re, 0.5 * (im + im.conj().T)


# ---------------------------------------------------------------------------
# fixed matrices


def identity(d: int) -> np.ndarray:
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return np.eye(d, dtype=np.complex128)


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


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def ginibre(d: int, seed) -> np.ndarray:
    """d x d matrix with iid standard complex Gaussian entries."""
    g = _rng(seed)
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
    g = _rng(seed)
    u = random_unitary(d, g)
    z = (g.standard_normal(d) + 1j * g.standard_normal(d)) / np.sqrt(2.0)
    return (u * z) @ u.conj().T


def random_density(d: int, rank: int, seed) -> np.ndarray:
    """Normalized W W* with W a d x rank complex Gaussian matrix."""
    if not (1 <= rank <= d):
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    g = _rng(seed)
    w = (g.standard_normal((d, rank)) + 1j * g.standard_normal((d, rank))) / np.sqrt(2.0)
    m = w @ w.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / float(np.trace(m).real)


def random_unit_vector(d: int, seed) -> np.ndarray:
    g = _rng(seed)
    v = g.standard_normal(d) + 1j * g.standard_normal(d)
    return v / np.linalg.norm(v)


def random_point_set(n: int, seed) -> np.ndarray:
    """n iid standard complex Gaussian points in the plane."""
    if n < 1:
        raise ValueError("point set needs at least one point")
    g = _rng(seed)
    return (g.standard_normal(n) + 1j * g.standard_normal(n)) / np.sqrt(2.0)


ENSEMBLE_KINDS = ("ginibre", "hermitian", "normal_matrix", "density", "unit_vector", "point_set")


def random_ensemble(kind: str, d: int, seed, *, rank: int | None = None, n: int | None = None):
    """Dispatch to one of the seeded samplers; deterministic in (kind, d, seed)."""
    if kind == "ginibre":
        return ginibre(d, seed)
    if kind == "hermitian":
        return random_hermitian(d, seed)
    if kind == "normal_matrix":
        return random_normal_matrix(d, seed)
    if kind == "density":
        return random_density(d, d if rank is None else rank, seed)
    if kind == "unit_vector":
        return random_unit_vector(d, seed)
    if kind == "point_set":
        return random_point_set(d if n is None else n, seed)
    raise ValueError(f"kind must be one of {ENSEMBLE_KINDS}, got {kind!r}")
