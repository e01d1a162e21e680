import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosine_audit.errors import ZeroRowError
from cosine_audit import matrix_core
from cosine_audit.matrix_core import (BinaryRows, as_matrix, cosine_of_rows,
                                      normalize_rows, spectrum, svd)
from cosine_audit.synthgen import SimConfig, sample_interactions


def seeded(shape, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=shape)


class TestSvd:
    def test_identity_spectrum(self):
        _, s, _ = svd(np.eye(3), 3)
        assert np.allclose(s, [1, 1, 1])

    def test_diagonal(self):
        u, s, v = svd(np.diag([3.0, 2.0]), 2)
        assert np.allclose(s, [3, 2])
        # U and V equal identity up to per-column sign
        assert np.allclose(np.abs(u), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_full_rank_reconstruction(self):
        m = seeded((6, 4))
        u, s, v = svd(m, 4)
        assert np.linalg.norm((u * s) @ v.T - m) < 1e-10

    def test_orthonormal_factors(self):
        u, _, v = svd(seeded((7, 5), seed=3), 5)
        assert np.allclose(u.T @ u, np.eye(5), atol=1e-8)
        assert np.allclose(v.T @ v, np.eye(5), atol=1e-8)

    def test_singular_values_descending_nonnegative(self):
        s = svd(seeded((9, 6), seed=4), 6)[1]
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_transpose_same_spectrum(self):
        m = seeded((8, 5), seed=5)
        s1 = svd(m, 5)[1]
        s2 = svd(m.T, 5)[1]
        assert np.allclose(s1, s2, atol=1e-9)

    def test_eckart_young_consistency(self):
        # truncation error + retained spectral energy == ||M||_F^2
        m = seeded((6, 4), seed=6)
        total = np.linalg.norm(m) ** 2
        for r in range(1, 5):
            u, s, v = svd(m, r)
            err = np.linalg.norm(m - (u * s) @ v.T) ** 2
            assert err + np.sum(s ** 2) == pytest.approx(
                total, abs=1e-9)

    def test_best_rank_r_approximation(self):
        # truncated reconstruction beats random same-rank competitors
        m = seeded((6, 4), seed=7)
        u, s, v = svd(m, 2)
        err = np.linalg.norm(m - (u * s) @ v.T)
        gen = np.random.default_rng(0)
        for _ in range(20):
            a = gen.standard_normal((6, 2))
            b = gen.standard_normal((4, 2))
            assert np.linalg.norm(m - a @ b.T) >= err - 1e-9

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            svd(seeded((3, 3)), 4)
        with pytest.raises(ValueError):
            svd(seeded((3, 3)), 0)

    def test_nonfinite_rejected(self):
        m = np.ones((2, 2))
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            svd(m, 1)

    def test_deterministic_signs(self):
        m = seeded((10, 6), seed=8)
        v1, v2 = svd(m, 6)[2], svd(m.copy(), 6)[2]
        assert np.array_equal(v1, v2)
        # anchor entries positive by convention
        anchors = np.abs(v1).argmax(axis=0)
        assert np.all(v1[anchors, np.arange(6)] > 0)


class TestSpectrum:
    def test_matches_svd(self, dense_x):
        spec = spectrum(dense_x)
        _, s, v = svd(dense_x, 50)
        assert np.allclose(spec.singular_values, s, rtol=1e-12, atol=0)
        assert np.abs(spec.right - v).max() <= 1e-9

    def test_anchor_sign_convention(self, dense_x):
        v = spectrum(dense_x).right
        anchors = np.abs(v).argmax(axis=0)
        assert np.all(v[anchors, np.arange(v.shape[1])] > 0)

    def test_wide_matrix_keeps_min_n_p(self):
        m = seeded((4, 9), seed=15)
        spec = spectrum(m)
        assert spec.singular_values.shape == (4,)
        assert spec.right.shape == (9, 4)
        assert np.allclose(spec.singular_values, svd(m, 4)[1],
                           rtol=1e-12, atol=0)

    @staticmethod
    def with_spectrum(s, n=30, seed=16):
        gen = np.random.default_rng(seed)
        u, _ = np.linalg.qr(gen.standard_normal((n, len(s))))
        v, _ = np.linalg.qr(gen.standard_normal((len(s), len(s))))
        return (u * s) @ v.T

    def test_sigma_above_tolerance_kept(self):
        # sigma_1 = 1 and max(n, p) = 30: spectrum zeroes sigma^2 up to
        # 30 eps GRAM_RANK_FACTOR
        tol = np.sqrt(30 * np.finfo(np.float64).eps
                      * matrix_core.GRAM_RANK_FACTOR)
        spec = spectrum(self.with_spectrum([1.0, 0.5, 10 * tol]))
        assert spec.rank == 3
        assert spec.singular_values[2] == pytest.approx(10 * tol, rel=0.05)

    def test_rounding_level_sigma_zeroed(self):
        spec = spectrum(self.with_spectrum([1.0, 0.5, 1e-9]))
        assert spec.rank == 2
        assert spec.singular_values[2] == 0.0

    def test_rank_deficient_zero_padded_with_warning(self):
        m = np.outer(np.arange(1.0, 6.0), np.arange(1.0, 4.0))  # rank 1
        spec = spectrum(m)
        assert spec.rank == 1
        assert np.array_equal(spec.singular_values[1:], [0.0, 0.0])
        with pytest.warns(RuntimeWarning, match="2 of the top 3"):
            s, v = spec.top(3)
        assert v.shape == (3, 3)

    def test_top_rank_out_of_range(self):
        spec = spectrum(seeded((3, 3)))
        with pytest.raises(ValueError):
            spec.top(4)
        with pytest.raises(ValueError):
            spec.top(0)


class TestNormalizeRows:
    def test_three_four_five(self):
        out, zero = normalize_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]])
        assert zero.size == 0

    def test_identity_unchanged(self):
        out, zero = normalize_rows(np.eye(4))
        assert np.allclose(out, np.eye(4), atol=1e-12)
        assert zero.size == 0

    def test_zero_row_left_out_and_named(self):
        out, zero = normalize_rows(np.array([[1.0, 2.0], [0.0, 0.0],
                                             [0.0, 3.0], [0.0, 0.0]]))
        assert zero.tolist() == [1, 3]
        assert np.array_equal(out, [[1.0, 2.0] / np.sqrt(5.0), [0.0, 1.0]])

    def test_output_is_scale_times_input(self):
        m = seeded((5, 3), seed=9)
        m[2] = 0.0
        out, zero = normalize_rows(m)
        kept = np.delete(m, zero, axis=0)
        expected = kept * (1.0 / np.linalg.norm(kept, axis=1))[:, None]
        assert zero.tolist() == [2]
        assert np.array_equal(out, expected)

    def test_relative_bound_keeps_exactly_1e_12_of_the_largest(self):
        edge = matrix_core.ZERO_NORM_RELATIVE
        below = np.nextafter(edge, 0.0)
        m = np.array([[1.0], [edge], [below], [2 * edge]])
        assert matrix_core.row_norms(m)[1:3].tolist() == [edge, below]
        out, zero = normalize_rows(m)
        assert zero.tolist() == [2]
        assert out.shape == (3, 1)

    def test_absolute_floor_holds_below_the_relative_bound(self, monkeypatch):
        # computed norms are 0 or above 1e-162, so only fixed norms can
        # reach the 1e-300 floor
        floor = matrix_core.ZERO_NORM_THRESHOLD
        norms = np.array([1e-290, floor, np.nextafter(floor, 0.0)])
        monkeypatch.setattr(matrix_core, "row_norms", lambda m: norms)
        _, zero = normalize_rows(np.ones((3, 2)))
        assert zero.tolist() == [2]

    def test_all_zero_matrix_leaves_no_row(self):
        out, zero = normalize_rows(np.zeros((3, 2)))
        assert out.shape == (0, 2)
        assert zero.tolist() == [0, 1, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        m = np.random.default_rng(seed).standard_normal((4, 3)) + 0.1
        once, _ = normalize_rows(m)
        twice, _ = normalize_rows(once)
        assert np.allclose(once, twice, atol=1e-12)
        assert np.allclose(np.linalg.norm(once, axis=1), 1.0, atol=1e-12)


class TestCosineOfRows:
    def test_orthonormal_pair(self):
        m = np.eye(2)
        assert np.allclose(cosine_of_rows(m, m), np.eye(2))

    def test_self_diagonal_one(self):
        m = seeded((6, 4), seed=10)
        c = cosine_of_rows(m, m)
        assert np.allclose(np.diag(c), 1.0, atol=1e-12)
        assert np.allclose(c, c.T, atol=1e-12)

    def test_matches_scalar_brute_force(self):
        m1 = seeded((5, 3), seed=11)
        m2 = seeded((4, 3), seed=12)
        c = cosine_of_rows(m1, m2)
        for i in range(5):
            for j in range(4):
                expected = np.dot(m1[i], m2[j]) / (
                    np.linalg.norm(m1[i]) * np.linalg.norm(m2[j]))
                assert c[i, j] == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        c = cosine_of_rows(seeded((20, 6), seed=13), seeded((20, 6), seed=14))
        assert np.all(c <= 1 + 1e-9)
        assert np.all(c >= -1 - 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_of_rows(np.ones((2, 3)), np.ones((2, 4)))

    def test_zero_row(self):
        with pytest.raises(ZeroRowError):
            cosine_of_rows(np.zeros((1, 3)), np.ones((1, 3)))

    def test_zero_row_error_names_the_first_zero_row(self):
        m1, m2 = seeded((4, 3), seed=15), seeded((5, 3), seed=16)
        m1[[1, 3]] = 0.0
        m2[0] = 0.0
        with pytest.raises(ZeroRowError) as e:
            cosine_of_rows(m1, m2)
        assert e.value.index == 1
        with pytest.raises(ZeroRowError) as e:
            cosine_of_rows(m2[1:], m2)
        assert e.value.index == 0


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 2, 2)))
    assert as_matrix([1.0, 2.0]).shape == (1, 2)


def binary_rows(dense) -> BinaryRows:
    dense = np.asarray(dense)
    rows, cols = np.nonzero(dense)
    lengths = np.bincount(rows, minlength=dense.shape[0])
    return BinaryRows(indptr=np.concatenate(([0], np.cumsum(lengths))),
                      indices=cols, shape=dense.shape)


class TestBinaryRows:
    @pytest.fixture(scope="class")
    def simulated(self):
        return sample_interactions(
            SimConfig.uniform_clusters(700, 90, 4, seed=3))[0]

    def test_gram_is_exact_on_simulated_x(self, simulated, monkeypatch):
        x = simulated.dense()
        want = x.T @ x
        assert np.array_equal(simulated.gram(), want)
        # many small chunks, some ending inside a row
        monkeypatch.setattr(matrix_core, "GRAM_PAIRS_PER_CHUNK", 97)
        assert np.array_equal(simulated.gram(), want)

    @pytest.mark.parametrize("dense", [
        [[0, 0, 0], [1, 0, 1], [0, 0, 0]],  # all-zero rows
        [[1, 1, 1, 1], [0, 1, 0, 0]],       # a full row
        [[1], [0], [1], [1]],               # p = 1
        [[0, 0], [0, 0]],                   # no ones at all
    ])
    def test_gram_is_exact_on_edge_rows(self, dense, monkeypatch):
        x = np.asarray(dense, dtype=np.float64)
        rows = binary_rows(x)
        assert np.array_equal(rows.gram(), x.T @ x)
        monkeypatch.setattr(matrix_core, "GRAM_PAIRS_PER_CHUNK", 1)
        assert np.array_equal(rows.gram(), x.T @ x)

    def test_dense_row_ranges(self, simulated):
        x = simulated.dense()
        assert x.dtype == np.float64 and set(np.unique(x)) <= {0.0, 1.0}
        for lo, hi in ((0, 1), (5, 77), (650, 10_000), (700, 700)):
            assert np.array_equal(simulated.dense(lo, hi), x[lo:hi])
        assert np.array_equal(simulated.dense(5, 77, dtype=bool), x[5:77] == 1)

    def test_array_protocol_gives_the_dense_matrix(self, simulated):
        x = simulated.dense()
        for got in (np.asarray(simulated), as_matrix(simulated)):
            assert got.dtype == np.float64 and np.array_equal(got, x)
        assert np.array_equal(np.asarray(simulated, dtype=bool), x == 1)

    def test_spectrum_is_bit_identical_to_dense(self, simulated):
        a, b = spectrum(simulated), spectrum(simulated.dense())
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.right, b.right)

    @pytest.mark.parametrize("indptr, indices, shape", [
        ([0, 1], [0], (2, 3)),        # indptr too short
        ([0, 2, 1], [0, 1], (2, 3)),  # decreasing
        ([0, 1, 3], [0, 1], (2, 3)),  # does not end at nnz
        ([0, 1, 2], [0, 3], (2, 3)),  # column out of range
        ([0, 1, 2], [0, -1], (2, 3)),
        ([0], [], (0, 3)),
    ])
    def test_rejects_inconsistent_layout(self, indptr, indices, shape):
        with pytest.raises(ValueError):
            BinaryRows(indptr=np.array(indptr), indices=np.array(indices),
                       shape=shape)
