"""Tests for commutator bounds, witness families, and the constant search."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from matvar import commutators
from matvar.commutators import (
    commutator,
    conjectured_constant,
    evaluate_bounds,
    proof_identity_residual,
    rho_from_x,
    search_constant,
    witness_families,
)
from matvar.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _singular_values,
    as_density,
    basis_matrix,
    ginibre,
    random_normal_matrix,
    singular_values,
)
from matvar.norms import NormSpec, norm


E12 = basis_matrix(1, 2, 2)
E21 = basis_matrix(2, 1, 2)


def test_commutator_examples():
    npt.assert_allclose(commutator(PAULI_X, PAULI_Z),
                        np.array([[0.0, -2.0], [2.0, 0.0]]), atol=1e-15)
    npt.assert_allclose(commutator(PAULI_X, PAULI_Z), 2j * PAULI_Y, atol=1e-15)
    npt.assert_allclose(commutator(E12, E21), PAULI_Z, atol=1e-15)
    x = ginibre(4, 99)
    npt.assert_allclose(commutator(x, x), np.zeros((4, 4)), atol=1e-15)
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_commutator_names_an_entry_past_the_largest_float():
    # the products are checked once, where they are formed, with no RuntimeWarning
    x, y = ginibre(4, 31), ginibre(4, 32)
    with pytest.raises(OverflowError, match="^the commutator overflows$"):
        commutator(1e200 * x, 1e200 * y)
    big = commutator(1e150 * x, 1e150 * y)  # entries near 1e300 are still finite
    npt.assert_allclose(big / 1e300, commutator(x, y), rtol=1e-12, atol=1e-12)


def test_proof_identity_terms_on_paulis():
    # Anticommuting pair: the commutator term carries the full weight.
    comm = commutator(PAULI_X, PAULI_Z)
    anti = PAULI_X.conj().T @ PAULI_Z + PAULI_Z @ PAULI_X.conj().T
    assert float(np.sum(np.abs(comm) ** 2)) == pytest.approx(8.0, abs=1e-13)
    assert float(np.abs(anti).max()) == 0.0
    gram = 2.0 * np.eye(2)
    assert float(np.trace(gram @ gram).real) == pytest.approx(8.0, abs=1e-13)
    assert proof_identity_residual(PAULI_X, PAULI_Z) <= 1e-12


def test_proof_identity_residual_random():
    for trial in range(300):
        rng = np.random.default_rng([501, trial])
        d = int(rng.integers(2, 13))
        x, y = ginibre(d, rng), ginibre(d, rng)
        scale = 1.0 + norm(x, NormSpec.schatten(2)) ** 2 * norm(y, NormSpec.schatten(2)) ** 2
        assert proof_identity_residual(x, y) <= 1e-9 * scale
    # Exact when X = Y: only the anticommutator term survives.
    x = ginibre(6, 13)
    assert proof_identity_residual(x, x) <= 1e-9 * (1.0 + norm(x, NormSpec.schatten(2)) ** 4)


def _plain_residual(x, y) -> float:
    # the residual formed at the scale given, with no power-of-two scaling
    comm = x @ y - y @ x
    anti = x.conj().T @ y + y @ x.conj().T
    lhs = float(np.sum(np.abs(comm) ** 2) + np.sum(np.abs(anti) ** 2))
    rhs = float(np.trace((x.conj().T @ x + x @ x.conj().T) @ (y.conj().T @ y + y @ y.conj().T)).real)
    return abs(lhs - rhs)


def test_proof_identity_residual_far_from_unit_scale():
    # X and Y are scaled by separate powers of two before the fourth powers
    # are formed, which overflowed above about 1e77.  Scaling by a power of
    # two is exact: the residual is bit for bit the plain one, and
    # 2^j X, 2^k Y give 2^(2j + 2k) times it; past the largest float that
    # raises one OverflowError.  At 1e77 and 1e150 it stays finite, at
    # rounding level like the residual at unit scale
    overflowed = 0
    for trial in range(20):
        rng = np.random.default_rng([503, trial])
        x, y = ginibre(3, rng), ginibre(3, rng)
        base = proof_identity_residual(x, y)
        assert base == _plain_residual(x, y)
        for j, k in ((256, 256), (498, 0), (498, -498), (-200, -200)):
            scaled = proof_identity_residual(math.ldexp(1.0, j) * x, math.ldexp(1.0, k) * y)
            assert scaled == math.ldexp(base, 2 * (j + k))
        if base > 0.0:
            with pytest.raises(OverflowError, match="proof identity residual"):
                proof_identity_residual(math.ldexp(1.0, 498) * x, math.ldexp(1.0, 498) * y)
            overflowed += 1
        scale = norm(x, NormSpec.schatten(2)) ** 2 * norm(y, NormSpec.schatten(2)) ** 2
        for c, d in ((1e77, 1e77), (1e150, 1.0), (1e150, 1e-150)):
            r = proof_identity_residual(c * x, d * y)
            assert math.isfinite(r)
            assert abs(r - base * c * c * d * d) <= 1e-12 * scale * c * c * d * d
    assert overflowed


def test_cauchy_schwarz_step():
    # |Tr[(YX* + X*Y) X]| <= ||YX* + X*Y||_2 ||X||_2
    for trial in range(200):
        rng = np.random.default_rng([502, trial])
        d = int(rng.integers(2, 9))
        x, y = ginibre(d, rng), ginibre(d, rng)
        m = y @ x.conj().T + x.conj().T @ y
        lhs = abs(complex(np.trace(m @ x)))
        rhs = norm(m, NormSpec.schatten(2)) * norm(x, NormSpec.schatten(2))
        assert rhs - lhs >= -1e-10 * (1.0 + rhs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rho_from_x_examples():
    npt.assert_allclose(rho_from_x(PAULI_X), np.eye(2) / 2.0, atol=1e-15)
    npt.assert_allclose(rho_from_x(E12), np.eye(2) / 2.0, atol=1e-15)
    npt.assert_allclose(rho_from_x(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-15)
    with pytest.raises(ValueError):
        rho_from_x(np.zeros((3, 3)))
    for trial in range(50):
        rng = np.random.default_rng([503, trial])
        g = ginibre(int(rng.integers(2, 9)), rng)
        rho = rho_from_x(g)
        as_density(rho)  # Hermitian, PSD, unit trace
        # rho(cX) = rho(X), also where the squares of cX's entries underflow
        npt.assert_allclose(rho_from_x(1e-310 * g), rho, atol=1e-12)


def test_evaluate_bounds_pauli_equality():
    rep = evaluate_bounds(PAULI_X, PAULI_Z, 2, 2, 2)
    assert rep.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert rep.ratio == pytest.approx(math.sqrt(2.0), abs=1e-12)
    by_name = {e.name: e for e in rep.bounds}
    fro = by_name["frobenius"]
    assert fro.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert abs(fro.slack) <= 1e-12
    assert all(e.holds for e in rep.bounds)
    # The sharpened chain is also tight for this pair.
    assert by_name["chain_schatten"].value == pytest.approx(rep.lhs, abs=1e-12)


def test_evaluate_bounds_ladder_equality():
    rep = evaluate_bounds(E12, E21, 2, 2, 2)
    assert rep.lhs == pytest.approx(math.sqrt(2.0), abs=1e-12)
    by_name = {e.name: e for e in rep.bounds}
    assert abs(by_name["frobenius"].slack) <= 1e-12
    assert all(e.holds for e in rep.bounds)


def test_evaluate_bounds_mixed_exponents():
    rng = np.random.default_rng(17)
    x, y = ginibre(4, rng), ginibre(4, rng)
    rep = evaluate_bounds(x, y, 2, 2, 4)
    names = [e.name for e in rep.bounds]
    assert "holder" not in names  # 1/2 != 1/2 + 1/4
    assert "frobenius" not in names
    for expected in ("chain_variance", "chain_cartesian_radius",
                     "chain_kyfan_two", "chain_schatten"):
        assert expected in names
    assert all(e.holds for e in rep.bounds)
    assert rep.ratio is not None and rep.ratio > 0.0


def test_evaluate_bounds_zero_x():
    rep = evaluate_bounds(np.zeros((2, 2)), PAULI_Z, 2, 2, 2)
    assert rep.lhs == 0.0
    assert rep.ratio is None
    assert all(e.holds for e in rep.bounds)


def test_evaluate_bounds_scale_sweep():
    # every gate is relative: scaling either argument, or both, keeps the
    # bounds reported, the ratio and every verdict.  A non-normal 1e-8 Y once
    # passed as normal, and its normal_radius bound read VIOLATED; at 1e-200
    # the commutator norm underflowed, and X near the largest float with a
    # tiny Y overflowed although every bound is finite
    for s in range(20):
        rng = np.random.default_rng([506, s])
        d = 2 + s % 4
        x = ginibre(d, rng)
        y = ginibre(d, rng) if s % 2 else random_normal_matrix(d, rng)
        base = evaluate_bounds(x, y, 2, 2, 2)
        names = [e.name for e in base.bounds]
        scales = (1e-12, 1e-8, 1e8, 1e-200)
        pairs = [(c * x, y) for c in scales] + [(x, c * y) for c in scales] + [(c * x, c * y) for c in scales]
        pairs.append((1.7e308 * (x / float(np.abs(x.view(np.float64)).max())), 1e-300 * y))
        for xs, ys in pairs:
            rep = evaluate_bounds(xs, ys, 2, 2, 2)
            assert [e.name for e in rep.bounds] == names
            assert abs(rep.ratio - base.ratio) <= 1e-12 * base.ratio
            assert all(e.holds and math.isfinite(e.value) for e in rep.bounds)


def test_evaluate_bounds_verdict_is_relative(monkeypatch):
    # a bound a quarter too small reads VIOLATED at every scale, not only
    # where the value exceeds 1
    real = commutators.radius
    monkeypatch.setattr(commutators, "radius",
                        lambda x, kind: dataclasses.replace(real(x, kind), value=real(x, kind).value / 4))
    rng = np.random.default_rng(507)
    x, y = ginibre(4, rng), ginibre(4, rng)
    for c in (1e-6, 1.0, 1e6):
        by_name = {e.name: e for e in evaluate_bounds(c * x, c * y, 2, 2, 2).bounds}
        assert not by_name["chain_cartesian_radius"].holds
        assert by_name["frobenius"].holds


def test_evaluate_bounds_takes_one_svd_per_matrix(monkeypatch):
    # every norm is read off the singular values of X, Y and [X, Y], each taken once
    real, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    rng = np.random.default_rng(451)
    for y, normal in ((random_normal_matrix(8, rng), True), (ginibre(8, rng), False)):
        calls.clear()
        rep = evaluate_bounds(ginibre(8, rng), y, 2, 2, 2)
        assert len(calls) == 3
        assert ("normal_kyfan_two" in {e.name for e in rep.bounds}) == normal


def test_evaluate_bounds_exponent_validation():
    with pytest.raises(ValueError, match="1/p <= 1/q \\+ 1/r"):
        evaluate_bounds(PAULI_X, PAULI_Z, 1, 3, 3)
    with pytest.raises(ValueError):
        evaluate_bounds(PAULI_X, PAULI_Z, 0.5, 2, 2)


def test_chain_monotone_and_holds():
    # Each link of the sharpened Frobenius chain dominates the one before it.
    for trial in range(40):
        rng = np.random.default_rng([504, trial])
        d = int(rng.integers(2, 7))
        x, y = ginibre(d, rng), ginibre(d, rng)
        rep = evaluate_bounds(x, y, 2, 2, 2)
        by_name = {e.name: e.value for e in rep.bounds}
        chain = [by_name["chain_variance"], by_name["chain_cartesian_radius"],
                 by_name["chain_kyfan_two"], by_name["chain_schatten"]]
        for lo, hi in zip(chain, chain[1:]):
            assert hi - lo >= -1e-8 * (1.0 + hi)
        assert rep.lhs <= chain[0] + 1e-8 * (1.0 + chain[0])


def test_normal_entries_present_and_hold():
    for trial in range(25):
        rng = np.random.default_rng([505, trial])
        d = int(rng.integers(2, 7))
        x = ginibre(d, rng)
        lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        u = np.linalg.qr(ginibre(d, rng))[0]
        y = u @ np.diag(lam) @ u.conj().T
        rep = evaluate_bounds(x, y, 2, 2, 2)
        by_name = {e.name: e for e in rep.bounds}
        assert by_name["normal_radius"].holds
        assert by_name["normal_kyfan_two"].holds
        # Radius form is at least as sharp as the Ky Fan form.
        assert (by_name["normal_kyfan_two"].value
                >= by_name["normal_radius"].value - 1e-9)


def test_holder_bound_grid():
    for i, p in enumerate((1.0, 1.5, 2.0, 3.0)):
        for trial in range(20):
            rng = np.random.default_rng([506, i, trial])
            d = int(rng.integers(2, 7))
            x, y = ginibre(d, rng), ginibre(d, rng)
            rep = evaluate_bounds(x, y, p, 2 * p, 2 * p)
            by_name = {e.name: e for e in rep.bounds}
            assert by_name["holder"].holds


def test_frobenius_bound_random():
    root2 = math.sqrt(2.0)
    for trial in range(300):
        rng = np.random.default_rng([507, trial])
        d = int(rng.integers(2, 13))
        x, y = ginibre(d, rng), ginibre(d, rng)
        lhs = norm(commutator(x, y), NormSpec.schatten(2))
        rhs = root2 * norm(x, NormSpec.schatten(2)) * norm(y, NormSpec.schatten(2))
        assert rhs - lhs >= -1e-9 * (1.0 + rhs)


def test_witness_families_closed_forms():
    fams = {f.name: f for f in witness_families(2, 2, 2)}
    assert set(fams) == {"pauli_pair", "ladder_pair",
                         "contraction_unitary", "unitary_contraction"}
    for f in fams.values():
        assert f.exact_ratio == pytest.approx(math.sqrt(2.0), abs=1e-15)

    inf = math.inf
    ratios = [f.exact_ratio for f in witness_families(inf, inf, inf)]
    assert ratios == [2.0, 1.0, 2.0, 2.0]  # operator-norm case peaks at 2
    ratios = [f.exact_ratio for f in witness_families(1, 1, 1)]
    assert ratios == [1.0, 2.0, 1.0, 1.0]  # trace-norm case peaks at 2 via the ladder

    grid = (1.0, 1.5, 2.0, 3.0, math.inf)
    for p in grid:
        for q in grid:
            for r in grid:
                for f in witness_families(p, q, r):
                    denom = (norm(f.x, NormSpec.schatten(q))
                             * norm(f.y, NormSpec.schatten(r)))
                    computed = norm(commutator(f.x, f.y), NormSpec.schatten(p)) / denom
                    assert abs(computed - f.exact_ratio) <= 1e-10


def test_conjectured_constant():
    assert conjectured_constant(2, 2, 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert conjectured_constant(2, 2, math.inf) == 2.0
    assert conjectured_constant(3, 3, 3) == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-15)
    assert conjectured_constant(2, 4, 4) is None


def test_search_recovers_sharp_constant_exactly():
    for trials in (1, 5, 40):
        res = search_constant(2, 2, 2, (2,), trials=trials, seed=11)
        assert res.best_ratio == math.sqrt(2.0)  # bit-exact
        assert not res.falsification
        assert res.conjectured == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert res.trials == trials
        assert res.dims_tried == (2,)


def test_search_deterministic():
    a = search_constant(2, 2, 2, (2, 3), trials=60, seed=7)
    b = search_constant(2, 2, 2, (2, 3), trials=60, seed=7)
    assert a.best_ratio == b.best_ratio
    assert a.witness_source == b.witness_source
    npt.assert_array_equal(a.witness_x, b.witness_x)
    npt.assert_array_equal(a.witness_y, b.witness_y)
    assert a.skipped == b.skipped == 0


def _reference_search(p, q, r, dims, trials, seed):
    # the trial loop with a validated norm(., NormSpec.schatten(.)) on every matrix
    best_ratio, best_x, best_y, best_source = -math.inf, None, None, ""
    for fam in witness_families(p, q, r):
        if fam.exact_ratio > best_ratio:
            best_ratio, best_x, best_y, best_source = fam.exact_ratio, fam.x, fam.y, f"family:{fam.name}"
    skipped = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        u = rng.random()
        if u < 0.7 or best_x is None:
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
            a = a / norm(a, NormSpec.schatten(2))
            b = b / norm(b, NormSpec.schatten(2))
        denom = norm(a, NormSpec.schatten(q)) * norm(b, NormSpec.schatten(r))
        if denom < 1e-14:
            skipped += 1
            continue
        ratio = norm(a @ b - b @ a, NormSpec.schatten(p)) / denom
        if ratio > best_ratio:
            best_ratio, best_x, best_y, best_source = ratio, a, b, f"trial:{t}"
    return best_ratio, best_x, best_y, best_source, skipped


def test_search_matches_the_validated_reference_loop_bit_for_bit():
    # the search evaluates its own matrices' norms unvalidated, from specs built once.  In the
    # first six cases a witness family stays best; in the last a renormalised perturbation wins
    for p, q, r, dims, seed in ((2, 2, 2, (2, 3), 7), (2, 2, math.inf, (2, 3), 1),
                                (3, 3, math.inf, (2, 3, 4), 5), (1, 1, 2, (2,), 9),
                                (4, 2, 4, (3, 5), 11), (3, 3, math.inf, (4, 8), 5),
                                (math.inf, 1, 1, (2, 3), 3)):
        res = search_constant(p, q, r, dims, trials=600, seed=seed)
        ratio, x, y, source, skipped = _reference_search(float(p), float(q), float(r), dims, 600, seed)
        assert (res.best_ratio, res.witness_source, res.skipped) == (ratio, source, skipped)
        assert np.array_equal(res.witness_x, x) and np.array_equal(res.witness_y, y)
    assert res.witness_source == "trial:579" and np.random.default_rng([3, 579]).random() >= 0.9


def test_trial_ratio_is_the_validated_ratio_bit_for_bit():
    # each trial's ratio is ||ab - ba||_p / (||a||_q ||b||_r); with q != r a swap of the two shows
    swapped = False
    for p, q, r in ((2, 1, 4), (3, 2, math.inf), (4, 1.5, 3)):
        specs = [NormSpec.schatten(e) for e in (p, q, r)]
        for d in range(2, 9):
            rng = np.random.default_rng([29, d])
            a, b = ginibre(d, rng), ginibre(d, rng)
            comm = norm(a @ b - b @ a, specs[0])
            ratio = comm / (norm(a, specs[1]) * norm(b, specs[2]))
            assert commutators._trial_ratio(a, b, *specs) == ratio
            swapped |= ratio != comm / (norm(a, specs[2]) * norm(b, specs[1]))
    assert swapped
    # a denominator below 1e-14 gives no ratio: the search counts the trial as skipped
    assert commutators._trial_ratio(np.zeros((2, 2), dtype=np.complex128), b, *specs) is None


def test_unvalidated_singular_values_keep_the_rescale():
    near_max = 1.7e308
    x = np.diag([near_max, -near_max / 2]).astype(np.complex128)
    assert _singular_values(x).tolist() == singular_values(x).tolist()
    with pytest.raises(OverflowError, match="the singular values"):
        _singular_values(np.diag([near_max * (1 + 1j), -near_max]))


def test_search_reports_gap_without_falsification():
    res = search_constant(2, 2, math.inf, (2, 3), trials=50, seed=7)
    assert res.conjectured == 2.0
    assert res.best_ratio >= math.sqrt(2.0)
    assert res.best_ratio <= res.conjectured + 1e-6
    assert not res.falsification

    res = search_constant(3, 3, 3, (2, 3), trials=50, seed=7)
    assert res.best_ratio >= 2.0 ** (2.0 / 3.0) - 1e-12
    assert not res.falsification

    res = search_constant(2, 4, 4, (2,), trials=30, seed=7)
    assert res.conjectured is None
    assert not res.falsification


def test_search_validation():
    with pytest.raises(ValueError):
        search_constant(1, 3, 3, (2,), trials=10, seed=0)
    with pytest.raises(ValueError):
        search_constant(2, 2, 2, (), trials=10, seed=0)
    with pytest.raises(ValueError):
        search_constant(2, 2, 2, (1,), trials=10, seed=0)
    with pytest.raises(ValueError):
        search_constant(2, 2, 2, (2,), trials=0, seed=0)
    # truncated, dims (2.7, 3.9) would search (2, 3)
    with pytest.raises(ValueError, match=r"dims must be integers >= 2, got \(2.7, 3.9\)"):
        search_constant(2, 2, 2, (2.7, 3.9), trials=2, seed=0)
    with pytest.raises(ValueError, match="trials must be an integer >= 1, got 2.5"):
        search_constant(2, 2, 2, (2,), trials=2.5, seed=0)
    res = search_constant(2, 2, 2, np.array([2, 3]), trials=np.int64(2), seed=0)  # numpy integers are counts
    assert res.dims_tried == (2, 3) and all(type(d) is int for d in res.dims_tried)


def test_ratio_tensor_inflation():
    # Padding both factors with an identity block rescales the ratio by
    # D^{1/p - 1/q - 1/r}; the best constant is dimension-free only because
    # the exponents in play make that power <= 1.
    cases = [(2.0, 2.0, 2.0), (2.0, 2.0, 4.0), (3.0, 3.0, math.inf), (1.5, 3.0, 3.0)]
    for idx, (p, q, r) in enumerate(cases):
        rng = np.random.default_rng([508, idx])
        x, y = ginibre(3, rng), ginibre(3, rng)
        lhs = norm(commutator(x, y), NormSpec.schatten(p))
        denom = norm(x, NormSpec.schatten(q)) * norm(y, NormSpec.schatten(r))
        base = lhs / denom
        for dd in (2, 3):
            eye = np.eye(dd)
            xt, yt = np.kron(x, eye), np.kron(y, eye)
            lhs_t = norm(commutator(xt, yt), NormSpec.schatten(p))
            denom_t = norm(xt, NormSpec.schatten(q)) * norm(yt, NormSpec.schatten(r))
            def inv(e):
                return 0.0 if math.isinf(e) else 1.0 / e
            factor = float(dd) ** (inv(p) - inv(q) - inv(r))
            assert lhs_t / denom_t == pytest.approx(base * factor, abs=1e-9)
