import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosine_audit import similarity
from cosine_audit.errors import ZeroRowError
from cosine_audit.matrix_core import cosine_of_rows
from cosine_audit.mf_solvers import (EmbeddingPair, predicted_scores,
                                     solve_objective1, solve_objective2)
from cosine_audit.rescale import apply_scaling, named_scaling, random_scaling
from cosine_audit.similarity import (METRIC_COSINE, METRIC_DOT,
                                     SimilarityMatrix, item_item,
                                     ranking_equal, user_item, user_user)


@pytest.fixture
def pair(small_x):
    return solve_objective1(small_x, 3, 1.0)


def brute_cosine(m1, m2):
    out = np.empty((m1.shape[0], m2.shape[0]))
    for i in range(m1.shape[0]):
        for j in range(m2.shape[0]):
            out[i, j] = np.dot(m1[i], m2[j]) / (
                np.linalg.norm(m1[i]) * np.linalg.norm(m2[j]))
    return out


class TestItemItem:
    def test_full_rank_collapse_is_identity(self, dense_x):
        pair = solve_objective1(dense_x, 50, 100.0)
        collapsed = apply_scaling(pair, named_scaling(pair, "collapse"))
        s = item_item(dense_x, collapsed)
        assert np.allclose(s.values, np.eye(50), atol=1e-6)

    def test_symmetric_unit_diagonal(self, small_x, pair):
        s = item_item(small_x, pair).values
        assert np.allclose(s, s.T, atol=1e-9)
        assert np.allclose(np.diag(s), 1.0, atol=1e-9)

    def test_brute_force(self, small_x, pair):
        s = item_item(small_x, pair)
        assert np.allclose(s.values, brute_cosine(pair.B, pair.B), atol=1e-12)

    def test_dot_metric(self, small_x, pair):
        s = item_item(small_x, pair, METRIC_DOT)
        assert np.allclose(s.values, pair.B @ pair.B.T, atol=1e-12)

    def test_zero_embedding_raises_by_default(self, small_x):
        pair = solve_objective2(small_x, 3, 1e6)  # lambda >= sigma_1
        with pytest.raises(ZeroRowError):
            item_item(small_x, pair)

    def test_rounding_level_row_counts_as_zero(self):
        # an item nobody interacted with gets an embedding row of rounding
        # size, not exactly zero; its cosines would be noise
        b = np.random.default_rng(6).standard_normal((5, 3))
        b[2] = [1e-32, -3e-33, 2e-33]
        pair = EmbeddingPair(A=b, B=b, lam=1.0, rank=3,
                             objective=1, sigma=np.ones(3))
        s = item_item(None, pair, on_zero="drop")
        assert s.excluded_rows == (2,)
        assert s.values.shape == (4, 4)
        with pytest.raises(ZeroRowError) as e:
            item_item(None, pair)
        assert e.value.index == 2

    @staticmethod
    def pair_with_zero_rows(rows, p=7, k=3, seed=17):
        b = np.random.default_rng(seed).standard_normal((p, k))
        b[list(rows)] = 0.0
        return EmbeddingPair(A=b, B=b, lam=1.0, rank=k, objective=1,
                             sigma=np.ones(k))

    def test_drop_is_cosine_of_the_kept_rows(self):
        pair = self.pair_with_zero_rows([1, 4])
        s = item_item(None, pair, on_zero="drop")
        kept = np.delete(pair.B, [1, 4], axis=0)
        assert np.array_equal(s.values, cosine_of_rows(kept, kept))
        assert s.excluded_rows == s.excluded_cols == (1, 4)

    def test_raise_names_the_first_zero_row(self):
        pair = self.pair_with_zero_rows([5, 2])
        with pytest.raises(ZeroRowError) as e:
            item_item(None, pair)
        assert e.value.index == 2
        assert str(e.value) == "embedding row 2 has zero norm"

    def test_zero_embedding_dropped_and_reported(self, small_x):
        pair = solve_objective2(small_x, 3, 1e6)
        s = item_item(small_x, pair, on_zero="drop")
        assert s.values.shape == (0, 0)
        assert len(s.excluded_rows) == 6


class TestUserUser:
    def test_full_rank_inverse_matches_raw_data(self, dense_x):
        pair = solve_objective1(dense_x, 50, 100.0)
        inv = apply_scaling(pair, named_scaling(pair, "inverse"))
        s = user_user(dense_x, inv)
        assert np.linalg.norm(s.values - cosine_of_rows(dense_x, dense_x)) < 1e-6

    def test_single_user(self, pair):
        x = np.ones((1, 6))
        assert np.allclose(user_user(x, pair).values, [[1.0]])

    def test_brute_force(self, small_x, pair):
        s = user_user(small_x, pair)
        xa = small_x @ pair.A
        assert np.allclose(s.values, brute_cosine(xa, xa), atol=1e-12)


class TestUserItem:
    def test_collapse_ranking_matches_dot(self, dense_x):
        pair = solve_objective1(dense_x, 50, 100.0)
        collapsed = apply_scaling(pair, named_scaling(pair, "collapse"))
        cos = user_item(dense_x, collapsed, METRIC_COSINE)
        dot = user_item(dense_x, collapsed, METRIC_DOT)
        assert ranking_equal(cos, dot).all()

    def test_range(self, small_x, pair):
        v = user_item(small_x, pair).values
        assert np.all(np.abs(v) <= 1 + 1e-9)

    def test_brute_force(self, small_x, pair):
        s = user_item(small_x, pair)
        assert np.allclose(s.values, brute_cosine(small_x @ pair.A, pair.B),
                           atol=1e-12)

    def test_dot_metric_is_predicted_scores(self, small_x, pair):
        s = user_item(small_x, pair, METRIC_DOT)
        assert np.allclose(s.values, predicted_scores(small_x, pair),
                           atol=1e-12)

    def test_drop_reports_users_and_items_apart(self, small_x, pair):
        B = pair.B.copy()
        B[3] = 0.0
        x = small_x.copy()
        x[[0, 2]] = 0.0  # users with no interactions embed at 0
        zeroed = EmbeddingPair(A=pair.A, B=B, lam=pair.lam, rank=pair.rank,
                               objective=pair.objective, sigma=pair.sigma)
        s = user_item(x, zeroed, on_zero="drop")
        assert (s.excluded_rows, s.excluded_cols) == ((0, 2), (3,))
        xa = np.delete(x @ pair.A, [0, 2], axis=0)
        assert np.array_equal(s.values,
                              cosine_of_rows(xa, np.delete(B, 3, axis=0)))
        with pytest.raises(ZeroRowError) as e:
            user_item(small_x, zeroed)
        assert e.value.index == 3

    def test_dot_invariant_cosine_not(self, small_x, pair):
        d = random_scaling(3, 21, spread=2.0)
        scaled = apply_scaling(pair, d)
        dot0 = user_item(small_x, pair, METRIC_DOT).values
        dot1 = user_item(small_x, scaled, METRIC_DOT).values
        assert np.allclose(dot0, dot1, atol=1e-10)
        cos0 = user_item(small_x, pair).values
        cos1 = user_item(small_x, scaled).values
        assert np.abs(cos0 - cos1).max() > 1e-3


class TestObjective2Uniqueness:
    def test_cosines_identical_across_solves(self, small_x):
        mats1 = []
        mats2 = []
        for mats in (mats1, mats2):
            pair = solve_objective2(small_x.copy(), 3, 0.5)
            mats.extend([item_item(small_x, pair).values,
                         user_user(small_x, pair).values,
                         user_item(small_x, pair).values])
        for a, b in zip(mats1, mats2):
            assert np.array_equal(a, b)


class TestObjective1Arbitrariness:
    def test_families_disagree(self):
        # clustered interaction data: the collapse and inverse gauges give
        # wildly different item-item cosine matrices
        from cosine_audit.synthgen import SimConfig, sample_interactions
        sample, _ = sample_interactions(
            SimConfig.uniform_clusters(600, 80, 5, seed=7))
        x = sample.matrix
        p = x.shape[1]
        pair = solve_objective1(x, p, 1000.0)
        collapsed = apply_scaling(pair, named_scaling(pair, "collapse"))
        inverse = apply_scaling(pair, named_scaling(pair, "inverse"))
        dist = np.linalg.norm(item_item(x, collapsed).values
                              - item_item(x, inverse).values)
        assert dist > 0.1 * p


def reference_tie_groups(row, tol):
    """The tie rule, one row at a time: the ordered partition of the column
    indices into descending tie groups, where sorted neighbours whose drop
    is at most tol * max|row| share a group."""
    order = np.argsort(-row, kind="stable")
    vals = row[order]
    gap = tol * (float(np.abs(row).max()) if row.size else 0.0)
    groups, start = [], 0
    for i in range(1, len(order)):
        if vals[i - 1] - vals[i] > gap:
            groups.append(frozenset(order[start:i].tolist()))
            start = i
    groups.append(frozenset(order[start:].tolist()))
    return groups


def reference_ranking_equal(a, b, tol):
    return np.array([reference_tie_groups(a[u], tol)
                     == reference_tie_groups(b[u], tol)
                     for u in range(a.shape[0])], dtype=bool)


@st.composite
def tie_heavy_pairs(draw):
    """(a, b, tol): small integer-valued rows, so exact ties abound, and b
    made from a row by row: copied, scaled by a positive factor, perturbed
    next to the tie tolerance, zeroed, shuffled or drawn afresh."""
    block = similarity._ROW_BLOCK
    n = draw(st.one_of(st.integers(0, 8),
                       st.sampled_from([block - 1, block, block + 1])))
    p = draw(st.integers(1, 6))
    tol = draw(st.sampled_from([0.0, 1e-9, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(-3, 4, (n, p)).astype(float)
    a[rng.random(n) < 0.1] = 0.0
    b = a * rng.choice([0.25, 0.5, 1.0, 3.0, 7.0], (n, 1))
    b[rng.random(n) < 0.1] = 0.0
    shuffled = rng.random(n) < 0.15
    b[shuffled] = rng.permuted(b[shuffled], axis=1)
    fresh = rng.random(n) < 0.1
    b[fresh] = rng.integers(-3, 4, (int(fresh.sum()), p))
    for m in (a, b):
        # nudge some entries by 0.5, 1 or 2 tolerances of their row
        scale = tol * np.abs(m).max(axis=1, keepdims=True)
        nudge = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], m.shape)
        m += np.where(rng.random(m.shape) < 0.2, nudge * scale, 0.0)
    return a, b, tol


class TestRankingEqual:
    def _sim(self, values):
        return SimilarityMatrix(values=np.asarray(values, dtype=float),
                                kind="user-item", metric="dot")

    def test_self(self):
        s = self._sim(np.random.default_rng(0).standard_normal((4, 6)))
        assert ranking_equal(s, s).all()

    def test_positive_row_rescaling(self):
        v = np.random.default_rng(1).standard_normal((4, 6))
        scales = np.array([0.5, 2.0, 3.0, 0.1])[:, None]
        assert ranking_equal(self._sim(v), self._sim(v * scales)).all()

    def test_negation_reverses(self):
        v = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 5.0]])
        assert not ranking_equal(self._sim(v), self._sim(-v)).any()

    def test_ties_match_as_sets(self):
        a = self._sim([[1.0, 1.0 + 1e-12, 0.0]])
        b = self._sim([[1.0 + 1e-12, 1.0, 0.0]])
        assert ranking_equal(a, b).all()

    def test_tie_tolerance_scales_with_the_row(self):
        # row b is row a times 4: a's gap of 5e-10 is a tie under tol 1e-9,
        # and b's gap of 2e-9 lies between the absolute tol (1e-9) and the
        # relative one (4e-9), so an absolute rule splits it
        a = self._sim([[1.0, 1.0 - 5e-10, 0.0]])
        b = self._sim([[4.0, 4.0 - 2e-9, 0.0]])
        assert ranking_equal(a, b).all()

    def test_gap_above_relative_tolerance_is_not_a_tie(self):
        a = self._sim([[4.0, 4.0 - 5e-9, 0.0]])
        b = self._sim([[4.0 - 5e-9, 4.0, 0.0]])
        assert not ranking_equal(a, b).any()

    def test_drop_equal_to_tolerance_is_a_tie(self):
        # tol * max|row| = 0.25 * 4 = 1 exactly, and so is the drop 4 - 3
        a = self._sim([[4.0, 3.0, 0.0]])
        b = self._sim([[3.0, 4.0, 0.0]])
        assert ranking_equal(a, b, tol=0.25).all()
        assert not ranking_equal(a, b, tol=0.2).any()

    def test_tie_ranks_count_groups_from_the_largest(self):
        v = np.array([[3.0, 1.0, 3.0, 2.0], [0.0, 0.0, 0.0, 0.0]])
        assert similarity._tie_ranks(v, 0.0).tolist() == [[0, 2, 0, 1],
                                                          [0, 0, 0, 0]]

    def test_empty_rows_and_columns(self):
        assert ranking_equal(self._sim(np.ones((3, 0))),
                             self._sim(np.ones((3, 0)))).tolist() == [True] * 3
        assert ranking_equal(self._sim(np.ones((0, 4))),
                             self._sim(np.ones((0, 4)))).shape == (0,)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_pairs())
    def test_flags_match_the_per_row_tie_rule(self, case):
        a, b, tol = case
        want = reference_ranking_equal(a, b, tol)
        got = ranking_equal(self._sim(a), self._sim(b), tol)
        assert got.dtype == bool
        assert got.tolist() == want.tolist()
        assert ranking_equal(self._sim(b), self._sim(a), tol).tolist() == (
            want.tolist())

    def test_no_n_by_p_array(self):
        n, p = 32 * similarity._ROW_BLOCK, 64
        v = np.random.default_rng(2).standard_normal((n, p))
        a, b = self._sim(v), self._sim(2.0 * v)
        tracemalloc.start()
        try:
            flags = ranking_equal(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flags.all()
        assert peak < n * p * np.dtype(np.intp).itemsize / 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ranking_equal(self._sim(np.ones((2, 2))),
                          self._sim(np.ones((2, 3))))
