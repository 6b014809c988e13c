"""Commutator norm bounds and the search for their best constants.

The Frobenius-norm bound ||[X, Y]||_2 <= sqrt(2) ||X||_2 ||Y||_2 is sharp;
its proof runs through an exact algebraic identity, a Cauchy-Schwarz step,
and the density matrix rho = (X*X + XX*) / (2 ||X||_2^2), and sharpens to a
chain through the Cartesian radius of Y.  For general Schatten exponents the
best constant c_{p,q,r} in ||[X, Y]||_p <= c ||X||_q ||Y||_r is only
conjectured: 2^{max(1/p, 1-1/p, 1-1/r)} when p = q.  This module evaluates
the proven bounds on given pairs, produces the exact witness families that
pin the constants from below, and runs a seeded randomized search that
could, in principle, falsify the conjecture.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import enclosing_circle
from .linalg import (
    PAULI_X,
    PAULI_Z,
    _require_count,
    _require_finite,
    _scaled,
    _singular_values,
    _unscaled_pair,
    basis_matrix,
    ginibre,
    modulus_squared,
    random_normal_matrix,
    require_square,
)
from .norms import NormSpec, _as_p, _evaluate, _inv
from .radii import quantum_variance, radius

__all__ = [
    "BoundEntry",
    "BoundReport",
    "WitnessFamily",
    "SearchResult",
    "commutator",
    "proof_identity_residual",
    "rho_from_x",
    "evaluate_bounds",
    "witness_families",
    "search_constant",
    "conjectured_constant",
]


def _holder_exponents(p, q, r) -> tuple[float, float, float]:
    """Schatten exponents p, q, r >= 1 with 1/p <= 1/q + 1/r."""
    p, q, r = _as_p(p), _as_p(q, "q"), _as_p(r, "r")
    if _inv(p) > _inv(q) + _inv(r) + 1e-12:
        raise ValueError(
            f"exponents must satisfy 1/p <= 1/q + 1/r, got 1/{p:g} > 1/{q:g} + 1/{r:g}")
    return p, q, r


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    a = require_square(x)
    b = require_square(y)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def commutator(x, y) -> np.ndarray:
    """XY - YX; ``OverflowError`` when an entry is past the largest float."""
    a, b = _pair(x, y)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below, not warned of
        c = a @ b - b @ a
    if not np.isfinite(c).all():
        raise OverflowError("the commutator overflows")
    return c


def proof_identity_residual(x, y) -> float:
    """|  ||XY-YX||_2^2 + ||X*Y+YX*||_2^2 - Tr[(X*X+XX*)(Y*Y+YY*)]  |.

    The three terms satisfy an exact algebraic identity, so the residual is
    pure floating-point noise: at most 1e-9 times the scale of the terms.
    X and Y are scaled by separate powers of two first, so no term
    overflows; the residual maps back, or raises ``OverflowError``.
    """
    (ux, a), (uy, b) = (_scaled(m) for m in _pair(x, y))
    comm = a @ b - b @ a
    anti = a.conj().T @ b + b @ a.conj().T
    lhs = float(np.sum(np.abs(comm) ** 2) + np.sum(np.abs(anti) ** 2))
    gram_x = a.conj().T @ a + a @ a.conj().T
    gram_y = b.conj().T @ b + b @ b.conj().T
    rhs = float(np.trace(gram_x @ gram_y).real)
    name = "proof identity residual"
    return _unscaled_pair(_unscaled_pair(abs(lhs - rhs), ux, uy, name), ux, uy, name)


def rho_from_x(x) -> np.ndarray:
    """The density matrix (X*X + XX*) / (2 ||X||_2^2)."""
    a = _scaled(require_square(x))[1]  # rho(cX) = rho(X), and no square under- or overflows
    if not a.any():
        raise ValueError("matrix is zero; no density matrix to normalize")
    return modulus_squared(a, "C") / float(np.sum(np.abs(a) ** 2))


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: float
    holds: bool
    slack: float


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    bounds: list[BoundEntry]
    ratio: float | None


def evaluate_bounds(x, y, p: float, q: float, r: float,
                    slack_tol: float = 1e-9) -> BoundReport:
    """Evaluate every proven upper bound applicable to ||[X, Y]||_p.

    Included where their hypotheses hold: the sqrt(2) Frobenius bound
    (p = q = r = 2), the factor-2 Hoelder bound (1/p = 1/q + 1/r), the
    sharpened Frobenius chain through the Cartesian radius of Y (p = 2),
    and the normal-Y strengthening (p = 2, Y normal).  A bound holds when
    it falls short of ||[X, Y]||_p by at most ``slack_tol`` times its value;
    a ``slack_tol`` that is not finite raises ``ValueError``.  X and Y are
    first scaled by separate powers of two, so the ratio, the verdicts and
    the bounds listed do not depend on their scale; ``lhs``, values and
    slacks are mapped back, or raise ``OverflowError``.
    """
    _require_finite(slack_tol, "the tolerance")
    a, b = _pair(x, y)
    p, q, r = _holder_exponents(p, q, r)
    (ux, a), (uy, b) = _scaled(a), _scaled(b)

    sa, sb = _singular_values(a), _singular_values(b)  # every norm below is read off these and sc
    sc = _singular_values(a @ b - b @ a)
    lhs = _evaluate(sc, NormSpec.schatten(p))
    denom = _evaluate(sa, NormSpec.schatten(q)) * _evaluate(sb, NormSpec.schatten(r))
    ratio = lhs / denom if denom > 0.0 else None

    def entry(name: str, value: float) -> BoundEntry:
        slack = value - lhs
        return BoundEntry(name, _unscaled_pair(value, ux, uy, f"{name} bound"), slack >= -slack_tol * value,
                          _unscaled_pair(slack, ux, uy, f"{name} slack"))

    bounds: list[BoundEntry] = []
    x2 = _evaluate(sa, NormSpec.schatten(2))
    two = min(2, a.shape[0])  # the Ky Fan 2-norms' order: a missing second singular value is 0
    if p == 2.0 and q == 2.0 and r == 2.0:
        bounds.append(entry("frobenius", math.sqrt(2.0) * x2 * _evaluate(sb, NormSpec.schatten(2))))
    if abs(_inv(p) - _inv(q) - _inv(r)) <= 1e-12:
        bounds.append(entry("holder", 2.0 * denom))
    if p == 2.0:
        if x2 > 0.0:
            var = quantum_variance(b, rho_from_x(a), "C")
            bounds.append(entry("chain_variance", 2.0 * x2 * math.sqrt(var)))
        bounds.append(entry("chain_cartesian_radius", 2.0 * x2 * radius(b, "C").value))
        bounds.append(entry("chain_kyfan_two", math.sqrt(2.0) * x2
                            * _evaluate(sb, NormSpec.kyfanpk(2, two))))
        bounds.append(entry("chain_schatten", 2.0 ** max(0.5, 1.0 - _inv(p)) * x2
                            * _evaluate(sb, NormSpec.schatten(p))))
        normal = float(np.abs(b @ b.conj().T - b.conj().T @ b).max()) <= 1e-12 * float(np.abs(b).max()) ** 2
        if normal:
            bounds.append(entry("normal_radius", 2.0 * x2 * enclosing_circle(np.linalg.eigvals(b)).radius))
            bounds.append(entry("normal_kyfan_two", x2 * _evaluate(sb, NormSpec.kyfan(two))))
    return BoundReport(_unscaled_pair(lhs, ux, uy, "commutator norm"), bounds, ratio)


# ---------------------------------------------------------------------------
# witness families


@dataclass(frozen=True)
class WitnessFamily:
    name: str
    x: np.ndarray
    y: np.ndarray
    exact_ratio: float


def _item3_pair() -> tuple[np.ndarray, np.ndarray]:
    s = math.sqrt(2.0)
    x3 = np.array([[s, -2.0 - s], [2.0 - s, -s]], dtype=np.complex128) / 4.0
    y3 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / s
    return x3, y3


def witness_families(p: float, q: float, r: float) -> list[WitnessFamily]:
    """The structured pairs that force the constants c_{p,q,r} from below.

    Each family's ratio ||[X,Y]||_p / (||X||_q ||Y||_r) has a closed form:
    the anticommuting Pauli pair gives 2^{1+1/p-1/q-1/r}, the matrix-unit
    ladder pair gives 2^{1/p}, and a rank-one contraction paired with a
    unitary gives 2^{1-1/r} (and 2^{1-1/q} with the roles swapped).
    """
    ip, iq, ir = _inv(_as_p(p)), _inv(_as_p(q, "q")), _inv(_as_p(r, "r"))
    x3, y3 = _item3_pair()
    return [
        WitnessFamily("pauli_pair", PAULI_X.copy(), PAULI_Z.copy(),
                      2.0 ** (1.0 + ip - iq - ir)),
        WitnessFamily("ladder_pair", basis_matrix(1, 2, 2), basis_matrix(2, 1, 2),
                      2.0 ** ip),
        WitnessFamily("contraction_unitary", x3, y3, 2.0 ** (1.0 - ir)),
        WitnessFamily("unitary_contraction", y3, x3, 2.0 ** (1.0 - iq)),
    ]


# ---------------------------------------------------------------------------
# randomized constant search


def conjectured_constant(p: float, q: float, r: float) -> float | None:
    """2^{max(1/p, 1-1/p, 1-1/r)} when p = q; no conjecture otherwise."""
    if abs(_inv(p) - _inv(q)) > 1e-12:
        return None
    ip, ir = _inv(p), _inv(r)
    return 2.0 ** max(ip, 1.0 - ip, 1.0 - ir)


@dataclass(frozen=True)
class SearchResult:
    best_ratio: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    witness_source: str
    trials: int
    skipped: int
    conjectured: float | None
    falsification: bool
    dims_tried: tuple[int, ...]
    seed: int
    p: float
    q: float
    r: float


def _own_norm(m: np.ndarray, spec: NormSpec) -> float:
    # norm(m, spec) for a finite complex128 matrix the search made itself: no copy, no re-validation
    return _evaluate(_singular_values(m), spec)


def _trial_ratio(a: np.ndarray, b: np.ndarray, p: NormSpec, q: NormSpec, r: NormSpec) -> float | None:
    denom = _own_norm(a, q) * _own_norm(b, r)
    if denom < 1e-14:
        return None
    return _own_norm(a @ b - b @ a, p) / denom


def _search_arguments(p, q, r, dims, trials: int, seed: int) -> tuple[float, float, float, tuple[int, ...]]:
    """The checked exponents and dimensions of a search; raises ``ValueError``
    on bad ones, on fewer than one trial, or on a negative seed."""
    p, q, r = _holder_exponents(p, q, r)
    dims = tuple(dims)
    if not dims or not all(isinstance(d, numbers.Integral) and d >= 2 for d in dims):
        raise ValueError(f"dims must be integers >= 2, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    _require_count(trials, "trials", 1)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return p, q, r, dims


def search_constant(p: float, q: float, r: float, dims, trials: int,
                    seed: int) -> SearchResult:
    """Randomized lower-bound search for the best constant c_{p,q,r}.

    The exact witness families seed the running best; random trials mix
    Ginibre pairs (70%), normal pairs (20%), and Gaussian perturbations of
    the best pair so far (10%).  Deterministic for fixed (seed, dims,
    trials).  A ratio beating the conjectured constant by more than 1e-6
    is flagged as a falsification candidate, never clamped.
    """
    p, q, r, dims = _search_arguments(p, q, r, dims, trials, seed)
    best_ratio = -math.inf
    best_x = best_y = None
    best_source = ""
    for fam in witness_families(p, q, r):
        if fam.exact_ratio > best_ratio:
            best_ratio = fam.exact_ratio
            best_x, best_y = fam.x, fam.y
            best_source = f"family:{fam.name}"

    specs = NormSpec.schatten(p), NormSpec.schatten(q), NormSpec.schatten(r)
    frobenius = NormSpec.schatten(2)
    skipped = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        u = rng.random()
        if u < 0.7:
            d = int(dims[rng.integers(len(dims))])
            a, b = ginibre(d, rng), ginibre(d, rng)
        elif u < 0.9:
            d = int(dims[rng.integers(len(dims))])
            a = random_normal_matrix(d, rng)
            b = random_normal_matrix(d, rng)
        else:
            d = best_x.shape[0]
            a = best_x + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            b = best_y + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            a = a / _own_norm(a, frobenius)
            b = b / _own_norm(b, frobenius)
        ratio = _trial_ratio(a, b, *specs)
        if ratio is None:
            skipped += 1
            continue
        if ratio > best_ratio:
            best_ratio = ratio
            best_x, best_y = a, b
            best_source = f"trial:{t}"

    conj = conjectured_constant(p, q, r)
    falsification = conj is not None and best_ratio > conj + 1e-6
    return SearchResult(best_ratio, best_x, best_y, best_source, trials, skipped,
                        conj, falsification, dims, seed, p, q, r)
