"""Randomized property suites behind the `verify` command.

Each check re-tests one library invariant on freshly sampled inputs: norm
sandwiches, radius duality and ordering, enclosing-circle identities, and
the commutator bounds.  Checks are deterministic for a fixed (suite,
trials, dim-max, seed): every trial draws from its own generator keyed by
(seed, crc32(check id), trial), so results are independent of execution
order and safe to parallelize.

A check reports a signed slack per trial (negative means "this far past
the allowed edge") and passes when slack >= -tol.  Checks whose natural
tolerance is the generic 1e-9 accept the user tolerance; checks with a
structurally fixed tolerance (duality gaps, refinement accuracy) keep
their own.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from .commutators import (
    commutator,
    evaluate_bounds,
    proof_identity_residual,
    search_constant,
    witness_families,
)
from .geometry import (
    enclosing_circle,
    hull_membership_margin,
    max_variance_distribution,
    murthy_sethi_bound,
    two_largest_radius,
    variance,
)
from .linalg import (
    MODULUS_KINDS,
    ginibre,
    modulus,
    random_normal_matrix,
    random_point_set,
    random_unitary,
)
from .norms import NormSpec, f_ratio_bounds, norm
from .radii import (
    central_numerical_radius,
    membership_in_range,
    numerical_radius,
    quantum_variance,
    radius,
)

__all__ = ["CheckResult", "VerifyReport", "SUITE_NAMES", "run_suite"]


def _rng_for(seed: int, check_id: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(check_id.encode()), trial])


def _dim(rng: np.random.Generator, dim_max: int, low: int = 2) -> int:
    hi = max(low, dim_max)
    return int(rng.integers(low, hi + 1))


# ---------------------------------------------------------------------------
# individual checks: (rng, dim_max, trial) -> (slack, witness | None)


def _check_murthy_sethi(rng, dim_max, trial):
    n = _dim(rng, dim_max, 2)
    values = rng.uniform(-3.0, 3.0, n)
    probs = rng.dirichlet(np.ones(n))
    slack = murthy_sethi_bound(values.min(), values.max()) - variance(values, probs)
    return slack, None


def _check_two_largest_vs_welzl(rng, dim_max, trial):
    pts = random_point_set(_dim(rng, dim_max, 2), rng)
    p = (1.0, 2.0, 4.0)[trial % 3]
    _, val = two_largest_radius(pts, p)
    return -abs(val - enclosing_circle(pts).radius), f"p={p:g}"


def _check_max_variance_duality(rng, dim_max, trial):
    pts = random_point_set(_dim(rng, dim_max, 2), rng)
    r = enclosing_circle(pts).radius
    _, best = max_variance_distribution(pts)
    return -abs(best - r * r), None


def _check_midpoint_center(rng, dim_max, trial):
    # Convex polygon: vertices in angular order on a random ellipse.
    n = _dim(rng, dim_max, 3)
    ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    a, b = rng.uniform(0.5, 2.0, 2)
    z0 = complex(rng.normal(), rng.normal())
    phase = rng.uniform(0.0, 2.0 * math.pi)
    pts = z0 + np.exp(1j * phase) * (a * np.cos(ang) + 1j * b * np.sin(ang))
    mids = np.array([(pts[i] + pts[(i + 1) % n]) / 2.0 for i in range(n)])
    center = enclosing_circle(pts).center
    return hull_membership_margin(center, mids), None


def _check_kyfan_sandwich(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    specs = [NormSpec.schatten((1.0, 1.5, 2.0, 3.0, math.inf)[trial % 5]),
             NormSpec.kyfan(int(rng.integers(1, d + 1))),
             NormSpec.weighted_gauge(tuple(np.sort(rng.uniform(0.0, 1.0, d))[::-1]))]
    worst = math.inf
    for spec in specs:
        lower, ratio, upper = f_ratio_bounds(x, spec)
        worst = min(worst, ratio - lower, upper - ratio)
    return worst, None


def _check_cartesian_modulus_schatten(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    p = (2.0, 3.0, 4.0, math.inf)[trial % 4]
    c = norm(modulus(x, "C"), NormSpec.schatten(p))
    full = norm(x, NormSpec.schatten(p))
    scale = 2.0 ** (0.5 - (0.0 if math.isinf(p) else 1.0 / p))
    return min(full - c, scale * c - full), None


def _check_cartesian_kyfan_domination(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    m = modulus(x, "C")
    worst = math.inf
    for k in range(1, d + 1):
        spec = NormSpec.kyfanpk(2, k)
        worst = min(worst, norm(x, spec) - norm(m, spec))
    return worst, None


def _check_unitary_invariance(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    u, v = random_unitary(d, rng), random_unitary(d, rng)
    spec = [NormSpec.schatten(1.5), NormSpec.kyfan(min(2, d)),
            NormSpec.kyfanpk(2, min(2, d))][trial % 3]
    return -abs(norm(u @ x @ v, spec) - norm(x, spec)), None


def _check_duality_gap(rng, dim_max, trial):
    d = _dim(rng, min(dim_max, 8), 2)
    x = ginibre(d, rng)
    kind = MODULUS_KINDS[trial % 3]
    res = radius(x, kind)
    return -res.gap / (1.0 + res.value ** 2), f"kind={kind} d={d}"


def _check_left_right_equal(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    r_l = radius(x, "L").value
    r_r = radius(x, "R").value
    return -abs(r_l - r_r), None


def _check_central_below_left(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    r_l = radius(x, "L").value
    r_c = radius(x, "C").value
    return r_l - r_c, None


def _check_normal_spectrum_radius(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = random_normal_matrix(d, rng)
    kind = MODULUS_KINDS[trial % 3]
    r = radius(x, kind).value
    return -abs(r - enclosing_circle(np.linalg.eigvals(x)).radius), f"kind={kind}"


def _check_normal_chain(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = random_normal_matrix(d, rng)
    r = enclosing_circle(np.linalg.eigvals(x)).radius
    worst = math.inf
    for _ in range(3):
        evals = rng.uniform(0.0, 1.0, d)
        evals /= evals.sum()
        u = random_unitary(d, rng)
        rho = u @ np.diag(evals) @ u.conj().T
        worst = min(worst, r - math.sqrt(quantum_variance(x, rho, "C")))
    half_kf2 = 0.5 * norm(x, NormSpec.kyfan(2))
    worst = min(worst, half_kf2 - r)
    for p in (1.0, 2.0, 3.0, math.inf):
        ip = 0.0 if math.isinf(p) else 1.0 / p
        worst = min(worst, 2.0 ** (-ip) * norm(x, NormSpec.schatten(p)) - half_kf2)
    return worst, None


def _check_shift_covariance(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    z = complex(rng.normal(), rng.normal())
    kind = MODULUS_KINDS[trial % 3]
    r0 = radius(x, kind).value
    r1 = radius(x + z * np.eye(d), kind).value
    return -abs(r0 - r1), f"kind={kind}"


def _check_center_in_range(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    kind = MODULUS_KINDS[trial % 3]
    res = radius(x, kind)
    return membership_in_range(x, res.y_star).margin, f"kind={kind}"


def _check_scale_covariance(rng, dim_max, trial):
    # r(cX) = c r(X) and w_C(cX) = c w_C(X), to relative accuracy, far from unit scale
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    c, kind = (1e-12, 1e-6, 1e6, 1e12)[trial % 4], MODULUS_KINDS[trial % 3]
    errs = (radius(c * x, kind).value / (c * radius(x, kind).value),
            central_numerical_radius(c * x)[1] / (c * central_numerical_radius(x)[1]))
    return -max(abs(e - 1.0) for e in errs), f"c={c:g} kind={kind}"


def _check_numrad_below_cartesian(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    w = numerical_radius(x)
    return norm(modulus(x, "C"), NormSpec.schatten(math.inf)) - w, None


def _check_wradius_below_cradius(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x = ginibre(d, rng)
    _, r_w = central_numerical_radius(x)
    r_c = radius(x, "C").value
    return r_c - r_w, None


def _check_kyfan2_claim_scan(rng, dim_max, trial):
    # Scans for counterexamples to the tempting claim r_C <= ||X||_{(2),2} / 2.
    # The claim is false in dimension >= 3, so this check never fails; a
    # found counterexample is the expected outcome and becomes the recorded
    # witness (worst_slack = -excess of the strongest counterexample).
    d = _dim(rng, max(dim_max, 3), 3)
    x = ginibre(d, rng)
    r_c = radius(x, "C").value
    excess = r_c - 0.5 * norm(x, NormSpec.kyfanpk(2, 2))
    if excess > 1e-9:
        return -excess, f"counterexample at d={d}, excess={excess:.3e}"
    return -excess, None


def _check_frobenius_bound(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x, y = ginibre(d, rng), ginibre(d, rng)
    lhs = norm(commutator(x, y), NormSpec.schatten(2))
    rhs = math.sqrt(2.0) * norm(x, NormSpec.schatten(2)) * norm(y, NormSpec.schatten(2))
    return rhs - lhs, None


def _check_identity_residual(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x, y = ginibre(d, rng), ginibre(d, rng)
    scale = 1.0 + (norm(x, NormSpec.schatten(2)) * norm(y, NormSpec.schatten(2))) ** 2
    return -proof_identity_residual(x, y) / scale, None


def _check_cauchy_schwarz_step(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x, y = ginibre(d, rng), ginibre(d, rng)
    m = y @ x.conj().T + x.conj().T @ y
    lhs = abs(complex(np.trace(m @ x)))
    rhs = norm(m, NormSpec.schatten(2)) * norm(x, NormSpec.schatten(2))
    return (rhs - lhs) / (1.0 + rhs), None


def _check_chain_monotone(rng, dim_max, trial):
    d = _dim(rng, min(dim_max, 5), 2)
    x, y = ginibre(d, rng), ginibre(d, rng)
    rep = evaluate_bounds(x, y, 2, 2, 2)
    by_name = {e.name: e.value for e in rep.bounds}
    chain = [rep.lhs, by_name["chain_variance"], by_name["chain_cartesian_radius"],
             by_name["chain_kyfan_two"], by_name["chain_schatten"]]
    return min(hi - lo for lo, hi in zip(chain, chain[1:])), None


def _check_holder_qnorm(rng, dim_max, trial):
    d = _dim(rng, dim_max, 2)
    x, y = ginibre(d, rng), ginibre(d, rng)
    p = (1.0, 1.5, 2.0, 3.0)[trial % 4]
    lhs = norm(commutator(x, y), NormSpec.schatten(p))
    rhs = 2.0 * norm(x, NormSpec.schatten(2 * p)) * norm(y, NormSpec.schatten(2 * p))
    return rhs - lhs, f"p={p:g}"


def _check_tensor_inflation(rng, dim_max, trial):
    d = _dim(rng, min(dim_max, 4), 2)
    x, y = ginibre(d, rng), ginibre(d, rng)
    p, q, r = ((2.0, 2.0, 2.0), (2.0, 2.0, 4.0), (3.0, 3.0, math.inf))[trial % 3]
    def inv(e):
        return 0.0 if math.isinf(e) else 1.0 / e
    base = (norm(commutator(x, y), NormSpec.schatten(p))
            / (norm(x, NormSpec.schatten(q)) * norm(y, NormSpec.schatten(r))))
    big = (2, 3)[trial % 2]
    eye = np.eye(big)
    xt, yt = np.kron(x, eye), np.kron(y, eye)
    inflated = (norm(commutator(xt, yt), NormSpec.schatten(p))
                / (norm(xt, NormSpec.schatten(q)) * norm(yt, NormSpec.schatten(r))))
    return -abs(inflated - base * float(big) ** (inv(p) - inv(q) - inv(r))), None


def _check_witness_closed_forms(rng, dim_max, trial):
    grid = (1.0, 2.0, 3.0, math.inf)
    worst = 0.0
    for p in grid:
        for q in grid:
            for r in grid:
                for fam in witness_families(p, q, r):
                    denom = (norm(fam.x, NormSpec.schatten(q))
                             * norm(fam.y, NormSpec.schatten(r)))
                    computed = norm(commutator(fam.x, fam.y),
                                    NormSpec.schatten(p)) / denom
                    worst = max(worst, abs(computed - fam.exact_ratio))
    return -worst, None


def _check_search_determinism(rng, dim_max, trial):
    seed = int(rng.integers(2 ** 31))
    a = search_constant(2, 2, 2, (2,), trials=3, seed=seed)
    b = search_constant(2, 2, 2, (2,), trials=3, seed=seed)
    same = (a.best_ratio == b.best_ratio
            and np.array_equal(a.witness_x, b.witness_x)
            and np.array_equal(a.witness_y, b.witness_y)
            and a.witness_source == b.witness_source)
    return (0.0 if same else -1.0), None


# ---------------------------------------------------------------------------
# registry: (check id, function, fixed tolerance or None for the user's)

_SCALAR = [
    ("murthy-sethi", _check_murthy_sethi, None),
    ("two-largest-vs-welzl", _check_two_largest_vs_welzl, 1e-7),
    ("max-variance-duality", _check_max_variance_duality, None),
    ("midpoint-center", _check_midpoint_center, None),
]

_NORMS = [
    ("kyfan-sandwich", _check_kyfan_sandwich, None),
    ("cartesian-modulus-schatten", _check_cartesian_modulus_schatten, None),
    ("cartesian-kyfan2-domination", _check_cartesian_kyfan_domination, None),
    ("unitary-invariance", _check_unitary_invariance, None),
]

_RADII = [
    ("duality-gap", _check_duality_gap, 1e-5),
    ("left-right-equal", _check_left_right_equal, 1e-8),
    ("central-below-left", _check_central_below_left, 1e-8),
    ("normal-spectrum-radius", _check_normal_spectrum_radius, 1e-7),
    ("normal-chain", _check_normal_chain, None),
    ("shift-covariance", _check_shift_covariance, 1e-8),
    ("scale-covariance", _check_scale_covariance, 1e-10),
    ("center-in-range", _check_center_in_range, 1e-7),
    ("numrad-below-cartesian", _check_numrad_below_cartesian, None),
    ("wradius-below-cradius", _check_wradius_below_cradius, 1e-7),
    ("kyfan2-claim-scan", _check_kyfan2_claim_scan, math.inf),
]

_COMMUTATOR = [
    ("frobenius-bound", _check_frobenius_bound, None),
    ("identity-residual", _check_identity_residual, None),
    ("cauchy-schwarz-step", _check_cauchy_schwarz_step, 1e-10),
    ("chain-monotone", _check_chain_monotone, 1e-8),
    ("holder-qnorm", _check_holder_qnorm, None),
    ("tensor-inflation", _check_tensor_inflation, None),
    ("witness-closed-forms", _check_witness_closed_forms, 1e-10),
    ("search-determinism", _check_search_determinism, 1e-12),
]

_SUITES = {
    "scalar": _SCALAR,
    "norms": _NORMS,
    "radii": _RADII,
    "commutator": _COMMUTATOR,
}
_SUITES["all"] = _SCALAR + _NORMS + _RADII + _COMMUTATOR

SUITE_NAMES = tuple(_SUITES)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: int
    failed: int
    worst_slack: float
    witness: str | None


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    trials: int
    checks: list[CheckResult]
    elapsed_ms: int

    @property
    def total_failures(self) -> int:
        return sum(c.failed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "checks": [
                {"id": c.check_id, "pass": c.passed, "fail": c.failed,
                 "worst_slack": c.worst_slack, "witness": c.witness}
                for c in self.checks
            ],
            "elapsed_ms": self.elapsed_ms,
        }


def run_suite(suite: str, trials: int, dim_max: int, seed: int,
              tol: float = 1e-9) -> VerifyReport:
    """Run every check of `suite` for `trials` independent trials each.

    A trial passes when its slack is at least -tol, or minus the check's own
    tolerance where it fixes one; a `tol` that is not finite raises
    ``ValueError``."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if dim_max < 2:
        raise ValueError(f"dim-max must be >= 2, got {dim_max}")
    if not math.isfinite(tol):
        raise ValueError(f"the tolerance must be finite, got {tol!r}")
    start = time.monotonic()
    results = []
    for check_id, fn, fixed_tol in _SUITES[suite]:
        allowed = tol if fixed_tol is None else fixed_tol
        passed = failed = 0
        worst = math.inf
        worst_witness = None
        for trial in range(trials):
            slack, witness = fn(_rng_for(seed, check_id, trial), dim_max, trial)
            slack = float(slack)
            ok = bool(slack >= -allowed)
            passed += ok
            failed += not ok
            if slack < worst:
                worst = slack
                worst_witness = (witness if witness is not None
                                 else f"trial={trial}")
        results.append(CheckResult(check_id, passed, failed, worst, worst_witness))
    elapsed_ms = int(round((time.monotonic() - start) * 1000.0))
    return VerifyReport(suite, seed, trials, results, elapsed_ms)
