"""Acceptance gate: one test per headline guarantee, one printed line each.

Each test prints a single `PASS criterion N` / `FAIL criterion N` line so a
full run reads as a checklist.  Tolerances and sample sizes are part of the
contract and are stated inline.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from matvar.cli import main
from matvar.commutators import commutator, proof_identity_residual, witness_families
from matvar.geometry import enclosing_circle, two_largest_radius
from matvar.linalg import (
    PAULI_X,
    PAULI_Z,
    basis_matrix,
    ginibre,
    modulus,
    random_normal_matrix,
    random_point_set,
    random_unitary,
)
from matvar.norms import NormSpec, f_ratio_bounds, norm
from matvar.radii import (
    central_numerical_radius,
    membership_in_range,
    numerical_radius,
    quantum_variance,
    radius,
)

ROOT2 = math.sqrt(2.0)


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {label} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_pauli_witness_exactness():
    lhs = norm(commutator(PAULI_X, PAULI_Z), NormSpec.schatten(2))
    nx = norm(PAULI_X, NormSpec.schatten(2))
    nz = norm(PAULI_Z, NormSpec.schatten(2))
    ratio = lhs / (nx * nz)
    errs = (abs(lhs - 2.0 * ROOT2), abs(nx - ROOT2), abs(nz - ROOT2),
            abs(ratio - ROOT2))
    _report(1, "Pauli witness exactness", max(errs) <= 1e-12,
            f"max deviation {max(errs):.2e}, tolerance 1e-12")


def test_criterion_02_norm_identity_residual():
    worst = 0.0
    for trial in range(2000):
        rng = np.random.default_rng([901, trial])
        d = int(rng.integers(2, 13))
        x, y = ginibre(d, rng), ginibre(d, rng)
        scale = 1.0 + (norm(x, NormSpec.schatten(2)) * norm(y, NormSpec.schatten(2))) ** 2
        worst = max(worst, proof_identity_residual(x, y) / scale)
    _report(2, "commutator norm identity", worst <= 1e-9,
            f"worst scaled residual {worst:.2e} over 2000 pairs, tolerance 1e-9")


def test_criterion_03_frobenius_bound_and_sharpness():
    violations = 0
    best = -math.inf
    for trial in range(5000):
        rng = np.random.default_rng([902, trial])
        d = int(rng.integers(2, 13))
        x, y = ginibre(d, rng), ginibre(d, rng)
        lhs = norm(commutator(x, y), NormSpec.schatten(2))
        denom = norm(x, NormSpec.schatten(2)) * norm(y, NormSpec.schatten(2))
        violations += lhs > ROOT2 * denom + 1e-9
        best = max(best, lhs / denom)
    for fam in witness_families(2, 2, 2):
        denom = norm(fam.x, NormSpec.schatten(2)) * norm(fam.y, NormSpec.schatten(2))
        best = max(best, norm(commutator(fam.x, fam.y), NormSpec.schatten(2)) / denom)
    ok = violations == 0 and abs(best - ROOT2) <= 1e-9
    _report(3, "sqrt(2) Frobenius bound with sharp maximum", ok,
            f"{violations} violations, max ratio {best:.12f} vs sqrt(2)")


def test_criterion_04_variance_radius_duality():
    worst = 0.0
    for kind in ("L", "R", "C"):
        for trial in range(200):
            rng = np.random.default_rng([903, trial])
            d = int(rng.integers(2, 9))
            res = radius(ginibre(d, rng), kind)
            worst = max(worst, res.gap / (1.0 + res.value ** 2))
    _report(4, "max-variance equals squared radius", worst <= 1e-5,
            f"worst relative duality gap {worst:.2e} over 600 computations")


def test_criterion_05_radius_ordering():
    worst_lr = 0.0
    worst_cl = -math.inf
    for trial in range(500):
        rng = np.random.default_rng([904, trial])
        d = int(rng.integers(2, 9))
        x = ginibre(d, rng)
        r_l = radius(x, "L").value
        r_r = radius(x, "R").value
        r_c = radius(x, "C").value
        worst_lr = max(worst_lr, abs(r_l - r_r))
        worst_cl = max(worst_cl, r_c - r_l)
    ok = worst_lr <= 1e-8 and worst_cl <= 1e-8
    _report(5, "left/right radii equal, central never larger", ok,
            f"max |r_L - r_R| {worst_lr:.2e}, max r_C - r_L {worst_cl:.2e}")


def test_criterion_06_normal_reduction():
    worst_match = 0.0
    worst_chain = math.inf
    for trial in range(200):
        rng = np.random.default_rng([905, trial])
        d = int(rng.integers(2, 8))
        x = random_normal_matrix(d, rng)
        r_spec = enclosing_circle(np.linalg.eigvals(x)).radius
        rng.integers(2 ** 32)  # unused, but the draws below follow it in the trial's stream
        res = radius(x, "C")
        worst_match = max(worst_match, abs(res.value - r_spec))
        for _ in range(2):
            evals = rng.uniform(0.0, 1.0, d)
            evals /= evals.sum()
            u = random_unitary(d, rng)
            rho = u @ np.diag(evals) @ u.conj().T
            worst_chain = min(worst_chain,
                              r_spec - math.sqrt(quantum_variance(x, rho, "C")))
        half_kf2 = 0.5 * norm(x, NormSpec.kyfan(2))
        worst_chain = min(worst_chain, half_kf2 - r_spec)
        for p in (1.0, 2.0, 3.0, math.inf):
            ip = 0.0 if math.isinf(p) else 1.0 / p
            worst_chain = min(worst_chain,
                              2.0 ** (-ip) * norm(x, NormSpec.schatten(p)) - half_kf2)
    ok = worst_match <= 1e-7 and worst_chain >= -1e-9
    _report(6, "normal matrices reduce to plane geometry", ok,
            f"worst |radius - spectral circle| {worst_match:.2e}, "
            f"worst chain slack {worst_chain:+.2e}")


def test_criterion_07_two_largest_equals_enclosing():
    worst = 0.0
    for trial in range(300):
        rng = np.random.default_rng([906, trial])
        pts = random_point_set(int(rng.integers(2, 13)), rng)
        target = enclosing_circle(pts).radius
        for p in (1.0, 2.0, 4.0):
            _, val = two_largest_radius(pts, p)
            worst = max(worst, abs(val - target))
    _report(7, "two-largest-distances minimax equals enclosing radius", worst <= 1e-7,
            f"worst deviation {worst:.2e} over 300 point sets x 3 exponents")


def test_criterion_08_norm_ratio_sandwich():
    worst = math.inf
    worst_eq = 0.0
    for trial in range(300):
        rng = np.random.default_rng([907, trial])
        d = int(rng.integers(2, 11))
        x = ginibre(d, rng)
        specs = [NormSpec.schatten(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
        specs += [NormSpec.kyfan(k) for k in range(1, d + 1)]
        specs += [NormSpec.weighted_gauge(tuple(np.sort(rng.uniform(0, 1, d))[::-1]))
                  for _ in range(50)]
        for spec in specs:
            lower, ratio, upper = f_ratio_bounds(x, spec)
            worst = min(worst, ratio - lower, upper - ratio)
        lower, ratio, _ = f_ratio_bounds(x, NormSpec.kyfan(2))
        worst_eq = max(worst_eq, abs(ratio - lower))
    ok = worst >= -1e-9 and worst_eq <= 1e-12
    _report(8, "norm-ratio sandwich with exact lower witness", ok,
            f"worst sandwich slack {worst:+.2e}, lower-bound equality error {worst_eq:.2e}")


def test_criterion_09_central_radius_norm_bounds():
    worst = math.inf
    for trial in range(500):
        rng = np.random.default_rng([908, trial])
        d = int(rng.integers(2, 9))
        x = ginibre(d, rng)
        r_c = radius(x, "C").value
        r_l = radius(x, "L").value
        worst = min(worst, 2.0 ** -0.5 * norm(x, NormSpec.kyfanpk(2, 2)) - r_c)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            worst = min(worst, norm(x, NormSpec.schatten(p)) - r_l)
            ip = 0.0 if math.isinf(p) else 1.0 / p
            if p >= 2.0:
                worst = min(worst, 2.0 ** (-ip) * norm(x, NormSpec.schatten(p)) - r_c)
            if p <= 2.0:
                worst = min(worst, 2.0 ** -0.5 * norm(x, NormSpec.schatten(p)) - r_c)
    eq_err = abs(radius(basis_matrix(1, 2, 2), "C").value - 2.0 ** -0.5)
    ok = worst >= -1e-9 and eq_err <= 1e-6
    _report(9, "central radius below scaled Schatten norms", ok,
            f"worst slack {worst:+.2e} over 500 matrices, "
            f"rank-one equality error {eq_err:.2e}")


def test_criterion_10_numerical_range_results():
    worst_w = math.inf
    worst_rw = math.inf
    worst_margin = math.inf
    for trial in range(300):
        rng = np.random.default_rng([909, trial])
        d = int(rng.integers(2, 7))
        x = ginibre(d, rng)
        w = numerical_radius(x)
        worst_w = min(worst_w, norm(modulus(x, "C"), NormSpec.schatten(math.inf)) - w)
        res = radius(x, "C")
        _, r_w = central_numerical_radius(x)
        worst_rw = min(worst_rw, res.value - r_w)
        worst_margin = min(worst_margin, membership_in_range(x, res.y_star).margin)
    ok = worst_w >= -1e-9 and worst_rw >= -1e-7 and worst_margin >= -1e-7
    _report(10, "numerical-range radius and center bounds", ok,
            f"worst w slack {worst_w:+.2e}, worst r_C - r_W {worst_rw:+.2e}, "
            f"worst center membership margin {worst_margin:+.2e}")


def test_criterion_11_final_corollary_chain():
    worst = math.inf
    for trial in range(1000):
        rng = np.random.default_rng([910, trial])
        d = int(rng.integers(2, 9))
        x, y = ginibre(d, rng), ginibre(d, rng)
        lhs = norm(commutator(x, y), NormSpec.schatten(2))
        mid = ROOT2 * norm(x, NormSpec.schatten(2)) * norm(y, NormSpec.kyfanpk(2, 2))
        worst = min(worst, mid - lhs)
        for p in (1.0, 2.0, 4.0, math.inf):
            ip = 0.0 if math.isinf(p) else 1.0 / p
            top = (2.0 ** max(0.5, 1.0 - ip) * norm(x, NormSpec.schatten(2))
                   * norm(y, NormSpec.schatten(p)))
            worst = min(worst, top - mid)
    _report(11, "final commutator corollary chain", worst >= -1e-9,
            f"worst slack {worst:+.2e} over 1000 pairs x 4 exponents")


def test_criterion_12_witness_family_closed_forms():
    grid = (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)
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
    _report(12, "witness-family closed forms", worst <= 1e-10,
            f"worst |computed - closed form| {worst:.2e} over {len(grid) ** 3} grids")


def test_criterion_13_search_determinism_and_sharpness():
    def run(trials: int) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["search", "--p", "2", "--q", "2", "--r", "2",
                       "--dims", "2,3", "--trials", str(trials),
                       "--seed", "7", "--json"])
        assert rc == 0
        return buf.getvalue()

    outputs = {t: run(t) for t in (1, 9, 40)}
    exact = all(json.loads(o)["best_ratio"] == math.sqrt(2.0)
                for o in outputs.values())
    identical = all(run(t) == outputs[t] for t in outputs)
    _report(13, "search recovers sqrt(2) exactly and deterministically",
            exact and identical,
            f"bit-exact sqrt(2) for trials in {tuple(outputs)}, "
            f"byte-identical JSON on repeat runs")
