import numpy as np
import pytest

from cosine_audit.errors import ZeroVarianceError
from cosine_audit.matrix_core import cosine_of_rows
from cosine_audit.mf_solvers import solve_objective1, solve_objective2
from cosine_audit.remedies import (backprojected_item_cosine,
                                   backprojected_user_cosine, standardize)
from cosine_audit.rescale import (apply_rotation, apply_scaling,
                                  random_rotation, random_scaling)


class TestStandardize:
    def test_two_point_column(self):
        # sample convention (divisor n-1): std of [1, 3] is sqrt(2)
        z = standardize(np.array([[1.0], [3.0]]))
        assert z.mean(axis=0)[0] == 0.0
        assert z.std(axis=0, ddof=1)[0] == pytest.approx(1.0)
        assert np.allclose(z, [[-1.0 / np.sqrt(2)], [1.0 / np.sqrt(2)]])

    def test_moments(self, rng):
        z = standardize(rng.standard_normal((50, 8)) * 3 + 1)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-9)

    def test_idempotent(self, rng):
        z = standardize(rng.standard_normal((30, 4)))
        z2 = standardize(z)
        assert np.allclose(z, z2, atol=1e-9)

    def test_round_trip(self, rng):
        x = rng.standard_normal((20, 5)) * 4 - 2
        # x's own column moments undo the transform
        z = standardize(x)
        assert np.allclose(z * x.std(axis=0, ddof=1) + x.mean(axis=0), x,
                           atol=1e-9)

    def test_constant_column(self):
        x = np.ones((4, 2))
        x[:, 0] = [1, 2, 3, 4]
        with pytest.raises(ZeroVarianceError) as e:
            standardize(x)
        assert e.value.column == 1

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            standardize(np.ones((1, 3)))


class TestBackprojection:
    @pytest.fixture
    def setup(self, rng):
        x = rng.standard_normal((12, 8))
        return x, solve_objective1(x, 4, 1.0)

    def test_identity_product_matches_raw_user_cosine(self, rng):
        x = rng.standard_normal((10, 6))
        pair = solve_objective1(x, 6, 0.0)  # A B^T == identity
        s = backprojected_user_cosine(x, pair)
        assert np.allclose(s.values, cosine_of_rows(x, x), atol=1e-8)

    def test_identity_product_matches_raw_item_cosine(self, rng):
        x = rng.standard_normal((10, 6))
        pair = solve_objective1(x, 6, 0.0)
        s = backprojected_item_cosine(x, pair)
        assert np.allclose(s.values, cosine_of_rows(x.T, x.T), atol=1e-8)

    def test_duplicate_users(self, setup):
        x, pair = setup
        x2 = np.vstack([x, x[:1]])
        s = backprojected_user_cosine(x2, pair)
        assert s.values[0, -1] == pytest.approx(1.0, abs=1e-12)

    def test_brute_force(self, setup):
        x, pair = setup
        smoothed = x @ pair.A @ pair.B.T
        s = backprojected_user_cosine(x, pair)
        for i in range(12):
            for j in range(12):
                expected = np.dot(smoothed[i], smoothed[j]) / (
                    np.linalg.norm(smoothed[i]) * np.linalg.norm(smoothed[j]))
                assert s.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_scaling_and_rotation(self, setup):
        x, pair = setup
        base_u = backprojected_user_cosine(x, pair).values
        base_i = backprojected_item_cosine(x, pair).values
        for seed in range(5):
            scaled = apply_scaling(pair, random_scaling(4, seed))
            rotated = apply_rotation(pair, random_rotation(4, seed))
            for variant in (scaled, rotated):
                assert np.linalg.norm(
                    backprojected_user_cosine(x, variant).values - base_u) <= 1e-10
                assert np.linalg.norm(
                    backprojected_item_cosine(x, variant).values - base_i) <= 1e-10

    def test_objective2_pairs_work_too(self, rng):
        x = rng.standard_normal((12, 8))
        pair = solve_objective2(x, 4, 0.3)
        s = backprojected_user_cosine(x, pair)
        assert np.allclose(np.diag(s.values), 1.0, atol=1e-12)
