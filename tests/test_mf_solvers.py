import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosine_audit.analysis import PlanEntry, solve_plan_entry
from cosine_audit.matrix_core import Spectrum, spectrum, svd
from cosine_audit.mf_solvers import (OBJECTIVE_PRODUCT_REG,
                                     OBJECTIVE_SPLIT_REG, EmbeddingPair,
                                     gradient_descent_oracle,
                                     objective1_gradients, objective1_loss,
                                     objective2_gradients, objective2_loss,
                                     predicted_scores, solve_objective1,
                                     solve_objective2)
from cosine_audit.rescale import apply_scaling, random_scaling
from cosine_audit.synthgen import SimConfig, sample_interactions

# test ids name each objective as the module docstring does
OBJECTIVE_IDS = {OBJECTIVE_PRODUCT_REG: "product-reg",
                 OBJECTIVE_SPLIT_REG: "split-reg"}


class TestSolveObjective1:
    def test_lambda_zero_full_rank_is_identity(self, rng):
        x = rng.standard_normal((10, 6))
        pair = solve_objective1(x, 6, 0.0)
        assert np.allclose(pair.A @ pair.B.T, np.eye(6), atol=1e-8)

    def test_huge_lambda_shrinks_to_zero(self, rng):
        x = rng.standard_normal((10, 6))
        assert svd(x, 6)[1][0] <= 100
        pair = solve_objective1(x, 6, 1e12)
        assert np.linalg.norm(pair.A @ pair.B.T) <= 1e-6

    def test_symmetric_split(self, small_x):
        pair = solve_objective1(small_x, 3, 1.0)
        assert np.array_equal(pair.A, pair.B)
        assert pair.objective == OBJECTIVE_PRODUCT_REG
        _, s, v = svd(small_x, 3)
        shrink = 1.0 / (1.0 + 1.0 / s**2)
        assert np.allclose(pair.A, v * np.sqrt(shrink), atol=1e-12)

    def test_rank_deficient_pads_with_zeros(self):
        x = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 4.0))  # rank 1
        with pytest.warns(RuntimeWarning):
            pair = solve_objective1(x, 3, 0.5)
        assert pair.A.shape == (3, 3)
        assert np.allclose(pair.A[:, 1:], 0.0)

    def test_invalid_args(self, small_x):
        with pytest.raises(ValueError):
            solve_objective1(small_x, 0, 1.0)
        with pytest.raises(ValueError):
            solve_objective1(small_x, 3, -1.0)

    @pytest.mark.parametrize("solver", [solve_objective1, solve_objective2])
    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, small_x, solver, lam):
        with pytest.raises(ValueError):
            solver(small_x, 3, lam)

    def test_accepts_spectrum(self, small_x):
        spec = spectrum(small_x)
        for solver in (solve_objective1, solve_objective2):
            a, b = solver(small_x, 3, 0.5), solver(spec, 3, 0.5)
            assert np.array_equal(a.A, b.A) and np.array_equal(a.B, b.B)

    def test_shrinkage_monotone_in_lambda(self, small_x):
        # larger lambda -> elementwise smaller singular values of A B^T
        prev = None
        for lam in (0.0, 0.5, 2.0, 10.0):
            pair = solve_objective1(small_x, 4, lam)
            s = np.linalg.svd(pair.A @ pair.B.T, compute_uv=False)[:4]
            if prev is not None:
                assert np.all(s <= prev + 1e-12)
            prev = s

    def test_local_minimum_probe_full_rank(self, small_x):
        # at full rank the solution minimizes over all of M-space, so any
        # perturbation of the product A B^T increases the loss
        lam = 1.0
        pair = solve_objective1(small_x, 6, lam)
        base = objective1_loss(small_x, pair.A, pair.B, lam)
        gen = np.random.default_rng(77)
        m = pair.A @ pair.B.T
        for _ in range(20):
            d = gen.standard_normal(m.shape)
            d *= 1e-3 / np.linalg.norm(d)
            perturbed = m + d
            loss = (np.linalg.norm(small_x - small_x @ perturbed) ** 2
                    + lam * np.linalg.norm(perturbed) ** 2)
            assert loss >= base - 1e-12

    def test_local_minimum_probe_factor_space(self, small_x):
        # low rank: probe within the feasible set by perturbing the factors
        lam = 1.0
        pair = solve_objective1(small_x, 3, lam)
        base = objective1_loss(small_x, pair.A, pair.B, lam)
        gen = np.random.default_rng(78)
        for _ in range(20):
            da = gen.standard_normal(pair.A.shape)
            db = gen.standard_normal(pair.B.shape)
            norm = np.sqrt(np.linalg.norm(da) ** 2 + np.linalg.norm(db) ** 2)
            da, db = da * 1e-3 / norm, db * 1e-3 / norm
            loss = objective1_loss(small_x, pair.A + da, pair.B + db, lam)
            assert loss >= base - 1e-12


class TestSolveObjective2:
    def test_large_lambda_zeroes_everything(self, small_x):
        sigma_max = svd(small_x, 1)[1][0]
        pair = solve_objective2(small_x, 3, sigma_max + 1.0)
        assert np.all(pair.A == 0)
        assert np.all(pair.B == 0)

    def test_lambda_zero_recovers_truncated_svd(self, small_x):
        pair = solve_objective2(small_x, 3, 0.0)
        u, s, v = svd(small_x, 3)
        assert np.allclose(small_x @ pair.A @ pair.B.T, (u * s) @ v.T,
                           atol=1e-8)

    def test_user_factor_identity(self, small_x):
        # X A == U_k dMat(sqrt(sigma * (1 - lambda/sigma)_+))
        lam = 0.5
        pair = solve_objective2(small_x, 3, lam)
        u, s, _ = svd(small_x, 3)
        expected = u * np.sqrt(s * np.maximum(0.0, 1.0 - lam / s))
        assert np.allclose(small_x @ pair.A, expected, atol=1e-8)

    def test_split_symmetry(self, small_x):
        # ||X A||_F^2 == ||B||_F^2, both equal the retained spectral mass
        lam = 0.5
        pair = solve_objective2(small_x, 3, lam)
        xa = np.linalg.norm(small_x @ pair.A) ** 2
        b = np.linalg.norm(pair.B) ** 2
        assert xa == pytest.approx(b, rel=1e-8)
        s = pair.sigma
        assert xa == pytest.approx(np.sum(s * np.maximum(0, 1 - lam / s)),
                                   rel=1e-8)

    def test_uniqueness_across_solves(self, small_x):
        p1 = solve_objective2(small_x, 3, 0.7)
        p2 = solve_objective2(small_x.copy(), 3, 0.7)
        assert np.array_equal(p1.A, p2.A)
        assert np.array_equal(p1.B, p2.B)


def two_formula_pair(s, v, lam, objective):
    """(A, B) by the two closed forms that one law replaced, written out."""
    pos = s > 0
    safe = np.where(pos, s, 1.0)
    if objective == OBJECTIVE_PRODUCT_REG:
        A = v * np.sqrt(np.where(pos, 1.0 / (1.0 + lam / safe**2), 0.0))
        return A, A.copy()
    gain = np.where(pos, np.maximum(0.0, 1.0 - lam / safe), 0.0)
    return v * np.sqrt(gain / safe), v * np.sqrt(gain * safe)


@st.composite
def spectrum_cases(draw):
    """A Spectrum with some zero sigma, its rank k, and a lambda that is 0,
    between sigma_k and sigma_1, or at least sigma_1."""
    p = draw(st.integers(1, 6))
    zeros = draw(st.integers(0, p - 1))
    s = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=p - zeros,
                             max_size=p - zeros)), reverse=True)
    s = np.array(s + [0.0] * zeros)
    seed = draw(st.integers(0, 2**32 - 1))
    v = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))[0]
    k = draw(st.integers(1, p))
    u = draw(st.floats(0.0, 1.0))
    lam = draw(st.sampled_from(("zero", "between", "above")))
    lam = {"zero": 0.0, "between": s[k - 1] + u * (s[0] - s[k - 1]),
           "above": s[0] * (1.0 + u)}[lam]
    return Spectrum(singular_values=s, right=v), k, lam


class TestOneClosedForm:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(spectrum_cases())
    def test_both_solvers_give_the_two_formulas_bits(self, case):
        spec, k, lam = case
        s, v = spec.top(k)
        for objective, solver in ((OBJECTIVE_PRODUCT_REG, solve_objective1),
                                  (OBJECTIVE_SPLIT_REG, solve_objective2)):
            pair = solver(spec, k, lam)
            want_a, want_b = two_formula_pair(s, v, lam, objective)
            assert np.array_equal(pair.A, want_a)
            assert np.array_equal(pair.B, want_b)
            assert pair.objective == objective
            assert np.array_equal(pair.sigma, s)
        if lam >= s[0]:
            # objective 2 keeps nothing
            assert not solve_objective2(spec, k, lam).B.any()

    @pytest.mark.parametrize("objective, family", [
        (OBJECTIVE_SPLIT_REG, "identity"),
        (OBJECTIVE_PRODUCT_REG, "symmetric-matching")])
    def test_split_penalty_is_the_symmetric_matching_gauge(self, objective,
                                                           family):
        # B[:, i] / A[:, i] = sigma_i on every kept dimension
        cfg = SimConfig.uniform_clusters(600, 80, 5, seed=7)
        spec = spectrum(sample_interactions(cfg)[0])
        lam = float(np.median(spec.singular_values[:20]))
        pair = solve_plan_entry(spec, PlanEntry(objective, lam, 20, family))
        kept = pair.B.any(axis=0)
        assert kept.any()
        if objective == OBJECTIVE_SPLIT_REG:
            assert not kept.all()  # this lambda drops some dimensions
        a, b = pair.A[:, kept], pair.B[:, kept]
        on = a != 0
        sigma = np.broadcast_to(pair.sigma[kept], a.shape)
        assert np.allclose(b[on] / a[on], sigma[on], rtol=1e-12, atol=0)


def test_embedding_pair_rejects_bad_shapes():
    # a real check, not an assert, so it holds under python -O too
    with pytest.raises(ValueError):
        EmbeddingPair(A=np.zeros((3, 2)), B=np.zeros((4, 5)), lam=1.0,
                      rank=7, objective=OBJECTIVE_PRODUCT_REG,
                      sigma=np.ones(7))
    with pytest.raises(ValueError):
        EmbeddingPair(A=np.zeros((3, 2)), B=np.zeros((3, 2)), lam=1.0,
                      rank=7, objective=OBJECTIVE_PRODUCT_REG,
                      sigma=np.ones(7))


@pytest.mark.parametrize("objective", ["product-reg", True, 1.0, 3])
def test_embedding_pair_objective_is_the_int_1_or_2(objective):
    with pytest.raises(ValueError):
        EmbeddingPair(A=np.zeros((3, 2)), B=np.zeros((3, 2)), lam=1.0,
                      rank=2, objective=objective, sigma=np.ones(2))


class TestLosses:
    def test_zero_factors(self, small_x):
        a = np.zeros((6, 3))
        expected = np.linalg.norm(small_x) ** 2
        assert objective1_loss(small_x, a, a, 1.0) == pytest.approx(expected)
        assert objective2_loss(small_x, a, a, 1.0) == pytest.approx(expected)

    def test_perfect_reconstruction_zero_loss(self):
        x = np.random.default_rng(1).standard_normal((5, 3))
        pair = solve_objective1(x, 3, 0.0)
        assert objective1_loss(x, pair.A, pair.B, 0.0) == pytest.approx(
            0.0, abs=1e-16)

    def test_equal_at_lambda_zero(self, small_x, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        assert objective1_loss(small_x, a, b, 0.0) == pytest.approx(
            objective2_loss(small_x, a, b, 0.0))

    def test_manual_expansion(self):
        # 3x2 hand instance, term-by-term oracle
        x = np.array([[1.0, 2.0], [0.0, 1.0], [2.0, -1.0]])
        a = np.array([[0.5], [1.0]])
        b = np.array([[1.0], [-0.5]])
        lam = 0.3
        m = a @ b.T
        recon_err = sum(
            (x[i, j] - sum(x[i, l] * m[l, j] for l in range(2))) ** 2
            for i in range(3) for j in range(2))
        l1 = recon_err + lam * sum(m[i, j] ** 2 for i in range(2)
                                   for j in range(2))
        xa = x @ a
        l2 = recon_err + lam * (sum(v ** 2 for v in xa.ravel())
                                + sum(v ** 2 for v in b.ravel()))
        assert objective1_loss(x, a, b, lam) == pytest.approx(l1, rel=1e-12)
        assert objective2_loss(x, a, b, lam) == pytest.approx(l2, rel=1e-12)


class TestPredictedScores:
    def test_full_rank_lambda_zero(self, rng):
        x = rng.standard_normal((10, 5))
        pair = solve_objective1(x, 5, 0.0)
        assert np.allclose(predicted_scores(x, pair), x, atol=1e-8)

    def test_scaling_invariance(self, small_x):
        pair = solve_objective1(small_x, 3, 1.0)
        base = predicted_scores(small_x, pair)
        for seed in range(5):
            scaled = apply_scaling(pair, random_scaling(3, seed))
            assert np.allclose(predicted_scores(small_x, scaled), base,
                               atol=1e-10)

    def test_naive_loop_oracle(self, small_x):
        pair = solve_objective1(small_x, 3, 1.0)
        scores = predicted_scores(small_x, pair)
        n, p, k = 8, 6, 3
        for u in range(n):
            for i in range(p):
                expected = sum(
                    sum(small_x[u, l] * pair.A[l, f] for l in range(p))
                    * pair.B[i, f] for f in range(k))
                assert scores[u, i] == pytest.approx(expected, abs=1e-10)


class TestGradients:
    @pytest.mark.parametrize("objective,loss_fn,grad_fn", [
        (OBJECTIVE_PRODUCT_REG, objective1_loss, objective1_gradients),
        (OBJECTIVE_SPLIT_REG, objective2_loss, objective2_gradients),
    ], ids=OBJECTIVE_IDS.get)
    def test_matches_central_finite_differences(self, objective, loss_fn,
                                                grad_fn):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((4, 3))
        a = gen.standard_normal((3, 2))
        b = gen.standard_normal((3, 2))
        lam = 0.4
        ga, gb = grad_fn(x, a, b, lam)
        h = 1e-6
        for mat, grad in ((a, ga), (b, gb)):
            for idx in np.ndindex(mat.shape):
                orig = mat[idx]
                mat[idx] = orig + h
                up = loss_fn(x, a, b, lam)
                mat[idx] = orig - h
                down = loss_fn(x, a, b, lam)
                mat[idx] = orig
                fd = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestOracle:
    def test_exact_reconstruction_at_lambda_zero(self):
        x = np.random.default_rng(4).standard_normal((6, 4))
        pair = gradient_descent_oracle(x, 4, 0.0, OBJECTIVE_PRODUCT_REG)
        loss = objective1_loss(x, pair.A, pair.B, 0.0)
        assert loss <= 1e-6 * np.linalg.norm(x) ** 2

    @pytest.mark.parametrize("objective,solver,loss_fn", [
        (OBJECTIVE_PRODUCT_REG, solve_objective1, objective1_loss),
        (OBJECTIVE_SPLIT_REG, solve_objective2, objective2_loss),
    ], ids=OBJECTIVE_IDS.get)
    def test_matches_closed_form(self, small_x, objective, solver, loss_fn):
        lam = 1.0 if objective == OBJECTIVE_PRODUCT_REG else 0.5
        closed = solver(small_x, 3, lam)
        target = loss_fn(small_x, closed.A, closed.B, lam)
        oracle = gradient_descent_oracle(small_x, 3, lam, objective)
        achieved = loss_fn(small_x, oracle.A, oracle.B, lam)
        assert achieved == pytest.approx(target, rel=1e-4)

    def test_unknown_objective(self, small_x):
        with pytest.raises(ValueError):
            gradient_descent_oracle(small_x, 3, 1.0, "nope")
