import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from cosine_audit.matrix_core import normalize_rows, spectrum
from cosine_audit.mf_solvers import (objective1_loss, objective2_loss,
                                     predicted_scores, solve_objective1,
                                     solve_objective2)
from cosine_audit.rescale import (FAMILIES, DiagonalScaling, RotationMatrix,
                                  apply_rotation, apply_scaling,
                                  named_scaling, random_rotation,
                                  random_scaling)
from cosine_audit.similarity import item_item, user_item, user_user


@pytest.fixture
def pair(small_x):
    return solve_objective1(small_x, 3, 1.0)


class TestDiagonalScaling:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DiagonalScaling(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DiagonalScaling(np.array([1.0, -2.0]))
        with pytest.raises(ValueError):
            DiagonalScaling(np.array([1.0, np.inf]))

    def test_ones_is_noop(self, pair):
        scaled = apply_scaling(pair, DiagonalScaling(np.ones(3)))
        assert np.allclose(scaled.A, pair.A)
        assert np.allclose(scaled.B, pair.B)

    def test_length_mismatch(self, pair):
        with pytest.raises(ValueError):
            apply_scaling(pair, DiagonalScaling(np.ones(4)))

    def test_scaling_keeps_objective(self, pair):
        scaled = apply_scaling(pair, random_scaling(3, 0))
        assert scaled.objective == pair.objective == 1


class TestApplyScaling:
    def test_product_invariant(self, pair):
        for seed in range(10):
            scaled = apply_scaling(pair, random_scaling(3, seed))
            assert np.allclose(scaled.A @ scaled.B.T, pair.A @ pair.B.T,
                               atol=1e-10)

    def test_objective1_loss_invariant(self, small_x, pair):
        base = objective1_loss(small_x, pair.A, pair.B, pair.lam)
        for seed in range(10):
            scaled = apply_scaling(pair, random_scaling(3, seed))
            loss = objective1_loss(small_x, scaled.A, scaled.B, pair.lam)
            assert loss == pytest.approx(base, rel=1e-9)

    def test_objective2_loss_not_invariant(self, small_x):
        pair2 = solve_objective2(small_x, 3, 0.5)
        base = objective2_loss(small_x, pair2.A, pair2.B, 0.5)
        scaled = apply_scaling(pair2, random_scaling(3, 1))
        assert objective2_loss(small_x, scaled.A, scaled.B, 0.5) > base

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_group_structure(self, s1, s2):
        x = np.random.default_rng(9).standard_normal((8, 6))
        pair = solve_objective1(x, 3, 1.0)
        d1, d2 = random_scaling(3, s1), random_scaling(3, s2)
        via_two = apply_scaling(apply_scaling(pair, d1), d2)
        via_one = apply_scaling(pair, DiagonalScaling(d1.entries * d2.entries))
        assert np.allclose(via_two.A, via_one.A, atol=1e-10)
        assert np.allclose(via_two.B, via_one.B, atol=1e-10)

    def test_normalization_does_not_absorb_scaling(self, pair):
        # normalize(B D^-1) != normalize(B) D^-1: the witness behind cosine
        # similarity depending on the rescaling gauge
        d = random_scaling(3, 11, spread=2.0)
        lhs, _ = normalize_rows(pair.B / d.entries)
        rhs = normalize_rows(pair.B)[0] / d.entries
        assert np.linalg.norm(lhs - rhs) > 1e-3


class TestNamedScaling:
    def test_identity(self, pair):
        assert np.allclose(named_scaling(pair, "identity").entries, 1.0)

    def test_collapse_formula(self, small_x):
        pair = solve_objective1(small_x, 2, 1.0)
        pair = replace(pair, sigma=np.array([2.0, 1.0]))
        d = named_scaling(pair, "collapse")
        assert np.allclose(d.entries, [np.sqrt(0.8), np.sqrt(0.5)])

    def test_inverse_is_reciprocal_of_collapse(self, pair):
        c = named_scaling(pair, "collapse")
        i = named_scaling(pair, "inverse")
        assert np.allclose(c.entries * i.entries, 1.0, atol=1e-12)

    def test_symmetric_matching(self, pair):
        pair = replace(pair, sigma=np.array([4.0, 1.0, 1.0]))
        d = named_scaling(pair, "symmetric-matching")
        assert np.allclose(d.entries, [0.5, 1.0, 1.0])

    def test_zero_sigma_scaled_by_one(self, pair):
        # a dimension the spectrum cut to sigma = 0 has zero columns, so no
        # family rescales it, and the others keep their formulas' bits
        s = np.array([2.0, 0.5])
        for lam in (0.0, 100.0):
            zero = replace(pair, lam=lam, sigma=np.append(s, 0.0))
            kept = {"identity": np.ones(2),
                    "collapse": (1.0 + lam / s**2) ** -0.5,
                    "inverse": (1.0 + lam / s**2) ** 0.5,
                    "symmetric-matching": np.sqrt(1.0 / s)}
            assert set(kept) == set(FAMILIES)
            for family, entries in kept.items():
                d = named_scaling(zero, family).entries
                assert d[2] == 1.0
                assert np.array_equal(d[:2], entries), (family, lam)

    def test_unknown_family(self, pair):
        with pytest.raises(ValueError):
            named_scaling(pair, "whatever")


class TestEffectiveRank:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_gauge_keeps_effective_rank(self, small_x, family):
        # objective 1 with a zero column in X keeps a zero sigma; objective 2
        # keeps the dimensions whose sigma is above lambda
        x = small_x.copy()
        x[:, 0] = 0.0
        with pytest.warns(RuntimeWarning, match="singular values are zero"):
            zero_sigma = solve_objective1(x, 6, 1.0)
        s = spectrum(small_x).singular_values
        shrunk, one = (solve_objective2(small_x, 6, float(s[i] + s[i + 1]) / 2)
                       for i in (1, 0))
        for pair, kept in ((zero_sigma, 5), (shrunk, 2), (one, 1)):
            assert pair.effective_rank == kept
            for d in (named_scaling(pair, family), random_scaling(6, seed=3)):
                scaled = apply_scaling(pair, d)
                assert scaled.effective_rank == kept
                assert scaled.degenerate == pair.degenerate == (kept <= 1)


class TestRotation:
    def test_identity_rotation(self, pair):
        rotated = apply_rotation(pair, RotationMatrix(np.eye(3)))
        assert np.allclose(rotated.A, pair.A)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            RotationMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_scores_invariant(self, small_x, pair):
        base = predicted_scores(small_x, pair)
        for seed in range(5):
            rotated = apply_rotation(pair, random_rotation(3, seed))
            assert np.allclose(predicted_scores(small_x, rotated), base,
                               atol=1e-10)

    def test_cosine_matrices_invariant(self, small_x, pair):
        base = [item_item(small_x, pair).values,
                user_user(small_x, pair).values,
                user_item(small_x, pair).values]
        for seed in range(3):
            rotated = apply_rotation(pair, random_rotation(3, seed))
            got = [item_item(small_x, rotated).values,
                   user_user(small_x, rotated).values,
                   user_item(small_x, rotated).values]
            for b, g in zip(base, got):
                assert np.allclose(b, g, atol=1e-9)


class TestRandomRotation:
    def test_k1(self):
        r = random_rotation(1, 0).values
        assert abs(abs(r[0, 0]) - 1.0) < 1e-12

    def test_orthogonal(self):
        for seed in range(5):
            r = random_rotation(4, seed).values
            assert np.allclose(r.T @ r, np.eye(4), atol=1e-10)

    def test_seeds_differ(self):
        r1 = random_rotation(4, 0).values
        r2 = random_rotation(4, 1).values
        assert np.linalg.norm(r1 - r2) > 1e-3

    def test_deterministic(self):
        assert np.array_equal(random_rotation(5, 3).values,
                              random_rotation(5, 3).values)
