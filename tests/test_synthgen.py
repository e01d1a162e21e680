import dataclasses
import itertools

import numpy as np
import pytest

from cosine_audit.cli import DEFAULT_SIM
from cosine_audit.errors import ConfigError
from cosine_audit.matrix_core import BinaryRows
from cosine_audit.synthgen import (SIM_KEYS, GroundTruth, SimConfig,
                                   _items_per_user, _streams,
                                   figure_item_order,
                                   ground_truth_similarity,
                                   sample_ground_truth, sample_interactions,
                                   user_item_probabilities)


def _reference_sample(c: SimConfig):
    """(dense X, k_u, users completed) drawn one user and one uniform at a
    time with sample_interactions' stream layout: 2 k_u uniforms per user
    from the picks stream, each mapped to a cluster and then to an item by
    searchsorted; a user short of k_u distinct items takes p Gumbel keys
    from the completion stream."""
    gt = sample_ground_truth(c)
    rng = _streams(c.seed)
    k_u = _items_per_user(c, rng["activity"])
    members = [np.flatnonzero(gt.item_cluster == cl) for cl in range(c.C)]
    cum_pop = [np.cumsum(gt.item_popularity[m]) for m in members]
    totals = np.array([cp[-1] if cp.size else 0.0 for cp in cum_pop])
    want = np.zeros((c.n, c.p))
    completed = 0
    for u in range(c.n):
        prefs = gt.user_prefs[u]
        cum_w = np.cumsum(prefs * totals)
        total = cum_w[-1]
        picked = []
        for v in rng["picks"].random(2 * k_u[u]):
            if len(picked) == k_u[u] or not (np.isfinite(total) and total > 0):
                continue
            x = min(v * total, np.nextafter(total, 0))
            cl = np.searchsorted(cum_w, x, side="right")
            base = cum_w[cl - 1] if cl > 0 else 0.0
            r = min((x - base) / prefs[cl], np.nextafter(totals[cl], 0))
            item = members[cl][np.searchsorted(cum_pop[cl], r, side="right")]
            if prefs[cl] * gt.item_popularity[item] > 0 and item not in picked:
                picked.append(item)
        if len(picked) < k_u[u]:
            completed += 1
            w = prefs[gt.item_cluster] * gt.item_popularity
            w[picked] = 0.0
            with np.errstate(divide="ignore"):
                keys = np.log(w) + rng["completion"].gumbel(size=c.p)
            need = min(k_u[u] - len(picked), np.count_nonzero(w > 0))
            picked.extend(np.argsort(-keys, kind="stable")[:need])
            k_u[u] = len(picked)
        want[u, picked] = 1.0
    return want, k_u, completed


def cfg(**kw):
    defaults = dict(n=50, p=40, C=3, cluster_probs=(0.5, 0.3, 0.2), seed=99)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestSimConfig:
    def test_bad_cluster_probs(self):
        with pytest.raises(ConfigError):
            cfg(cluster_probs=(0.5, 0.3, 0.3))
        with pytest.raises(ConfigError):
            cfg(cluster_probs=(0.5, 0.5))

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            cfg(n=0)
        with pytest.raises(ConfigError):
            SimConfig(n=5, p=5, C=0, cluster_probs=())

    def test_beta_range(self):
        with pytest.raises(ConfigError):
            cfg(beta_item_min=2.0, beta_item_max=1.0)

    def test_non_finite_cluster_probs(self):
        # abs(nan - 1) > 1e-9 is False, so the sum check alone lets NaN in
        with pytest.raises(ConfigError):
            SimConfig(n=5, p=5, C=2, cluster_probs=(float("nan"), 1.0))

    @pytest.mark.parametrize("key", ["beta_item_min", "beta_item_max",
                                     "beta_user"])
    def test_non_finite_beta(self, key):
        with pytest.raises(ConfigError):
            cfg(**{key: float("nan")})

    def test_json_round_trip(self, tmp_path):
        c = cfg()
        path = tmp_path / "sim.json"
        import json
        path.write_text(json.dumps(c.to_dict()))
        assert SimConfig.from_dict(json.loads(path.read_text())) == c

    def test_sim_keys_list_the_fields_in_order(self):
        assert list(SIM_KEYS) == [f.name for f in dataclasses.fields(SimConfig)]

    # the built-in sim, and the zero-rows sim that CI audits
    @pytest.mark.parametrize("sim", [
        {}, {"n": 300, "p": 400, "seed": 7}], ids=["built_in", "zero_rows"])
    def test_dict_round_trip(self, sim):
        c = SimConfig.from_dict({**DEFAULT_SIM, **sim})
        assert SimConfig.from_dict(c.to_dict()) == c
        assert c.to_dict() == {**DEFAULT_SIM, **sim}

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"n": 5})

    def test_negative_seed(self):
        with pytest.raises(ConfigError) as e:
            cfg(seed=-1)
        assert e.value.key == "seed"

    @pytest.mark.parametrize("key, value", [
        ("n", 50.0), ("p", True), ("C", "3"), ("seed", 99.5),
        ("cluster_probs", [True, False, False]), ("cluster_probs", 1.0),
        ("beta_user", "0.5"), ("beta_item_min", False), ("sed", 1),
        pytest.param("beta_user", 10 ** 400, id="beta_user-beyond_float64")])
    def test_from_dict_is_strict(self, key, value):
        raw = dict(cfg().to_dict(), **{key: value})
        with pytest.raises(ConfigError) as e:
            SimConfig.from_dict(raw)
        assert e.value.key == f"sim.{key}"


class TestGroundTruth:
    def test_single_cluster(self):
        gt = sample_ground_truth(cfg(C=1, cluster_probs=(1.0,)))
        assert np.all(gt.item_cluster == 0)

    def test_degenerate_probs(self):
        gt = sample_ground_truth(cfg(C=5, cluster_probs=(1, 0, 0, 0, 0)))
        assert np.all(gt.item_cluster == 0)

    def test_cluster_frequencies_binomial_bound(self):
        p = 10_000
        C = 5
        gt = sample_ground_truth(cfg(p=p, C=C, cluster_probs=(0.2,) * 5))
        # 3 binomial standard deviations around 0.2
        sd = np.sqrt(0.2 * 0.8 / p)
        freqs = np.bincount(gt.item_cluster, minlength=C) / p
        assert np.all(np.abs(freqs - 0.2) <= 3 * sd)

    def test_exponents_in_range(self):
        gt = sample_ground_truth(cfg())
        assert np.all(gt.cluster_exponents >= 0.25)
        assert np.all(gt.cluster_exponents <= 1.5)

    def test_popularity_positive_rank_decay(self):
        gt = sample_ground_truth(cfg())
        assert np.all(gt.item_popularity > 0)
        # within each cluster, popularity decays in generation order
        for c in range(3):
            pops = gt.item_popularity[gt.item_cluster == c]
            assert np.all(np.diff(pops) <= 0)

    def test_prefs_simplex(self):
        gt = sample_ground_truth(cfg())
        assert np.allclose(gt.user_prefs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(gt.user_prefs >= 0)


class TestUserItemProbabilities:
    def test_single_cluster_proportional_to_popularity(self):
        gt = sample_ground_truth(cfg(C=1, cluster_probs=(1.0,)))
        pr = user_item_probabilities(gt, 0)
        expected = gt.item_popularity / gt.item_popularity.sum()
        assert np.allclose(pr, expected, atol=1e-12)

    def test_indicator_prefs_mass_on_one_cluster(self):
        gt = sample_ground_truth(cfg())
        prefs = np.zeros_like(gt.user_prefs)
        prefs[:, 1] = 1.0
        gt2 = GroundTruth(gt.item_cluster, gt.item_popularity,
                          gt.cluster_exponents, prefs)
        pr = user_item_probabilities(gt2, 0)
        assert np.all(pr[gt.item_cluster != 1] == 0)
        assert pr.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        gt = sample_ground_truth(cfg())
        for u in (0, 7, 49):
            pr = user_item_probabilities(gt, u)
            w = np.array([gt.user_prefs[u, gt.item_cluster[i]]
                          * gt.item_popularity[i] for i in range(40)])
            assert np.allclose(pr, w / w.sum(), atol=1e-12)
            assert pr.sum() == pytest.approx(1.0, abs=1e-12)

    def test_user_out_of_range(self):
        gt = sample_ground_truth(cfg())
        with pytest.raises(IndexError):
            user_item_probabilities(gt, 50)


class TestInteractions:
    def test_binary_without_replacement(self):
        rows, _ = sample_interactions(cfg())
        assert isinstance(rows, BinaryRows)
        m = rows.matrix
        assert m.dtype == np.float64 and np.array_equal(m, rows.dense())
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert np.array_equal(m.sum(axis=1), rows.items_per_user)
        assert np.all(rows.items_per_user >= 1)

    def test_activity_bounds(self):
        c = cfg()
        rows, _ = sample_interactions(c)
        assert np.all(rows.items_per_user >= min(5, c.p))
        assert np.all(rows.items_per_user <= c.p // 2)

    def test_seed_determinism(self):
        s1, g1 = sample_interactions(cfg())
        s2, g2 = sample_interactions(cfg())
        assert np.array_equal(s1.matrix, s2.matrix)
        assert np.array_equal(g1.user_prefs, g2.user_prefs)
        s3, _ = sample_interactions(cfg(seed=100))
        assert not np.array_equal(s1.matrix, s3.matrix)

    def test_blocked_draws_match_per_user_reference(self):
        # steep popularity with k_u at p/2 for most users sends some users
        # through the completion stage; 2 500 users make two full blocks
        # and a partial one
        c = SimConfig(n=2_500, p=20, C=2, cluster_probs=(0.5, 0.5),
                      beta_item_min=1.5, beta_item_max=3.0, beta_user=2.0,
                      seed=7)
        sample, _ = sample_interactions(c)
        want, k_u, completed = _reference_sample(c)
        assert completed >= 1
        assert np.array_equal(sample.matrix, want)
        assert np.array_equal(sample.items_per_user, k_u)

    def test_rows_ascending(self):
        sample, _ = sample_interactions(
            SimConfig.uniform_clusters(2_500, 60, 4, seed=7))
        ptr, idx = sample.indptr, sample.indices
        assert all(np.all(np.diff(idx[a:b]) > 0)
                   for a, b in zip(ptr[:-1], ptr[1:]))

    def test_clipped_to_positive_weight_items(self):
        # rank^-2000 underflows to 0 beyond each cluster's first item, and
        # the third cluster is empty: a user has at most 2 positive-weight
        # items, below every k_u
        c = cfg(C=3, cluster_probs=(0.5, 0.5, 0.0), beta_item_min=2000.0,
                beta_item_max=2000.0)
        sample, gt = sample_interactions(c)
        weights = gt.user_prefs[:, gt.item_cluster] * gt.item_popularity
        positive = weights > 0
        assert np.array_equal(sample.items_per_user, positive.sum(axis=1))
        assert np.all(positive[sample.matrix == 1])

    def test_inclusion_frequencies_match_successive_sampling(self):
        # one cluster of p = 10 items, k_u = 5 for every user: each item's
        # inclusion probability, summed over the ordered 5-sequences, against
        # its frequency over 200 000 users
        c = SimConfig(n=200_000, p=10, C=1, cluster_probs=(1.0,),
                      beta_item_min=1.0, beta_item_max=1.0, seed=12)
        sample, gt = sample_interactions(c)
        assert np.all(sample.items_per_user == 5)
        w = gt.item_popularity
        seqs = np.array(list(itertools.permutations(range(c.p), 5)))
        picked = np.cumsum(w[seqs], axis=1) - w[seqs]  # mass taken before
        law = np.prod(w[seqs] / (w.sum() - picked), axis=1)
        incl = np.array([law[np.any(seqs == j, axis=1)].sum()
                         for j in range(c.p)])
        assert incl.sum() == pytest.approx(5.0, abs=1e-12)
        freq = sample.matrix.mean(axis=0)
        z = (freq - incl) / np.sqrt(incl * (1 - incl) / c.n)
        assert np.max(np.abs(z)) <= 5.0

    def test_popularity_monotone_in_expectation(self):
        # more popular items collect more interactions: Spearman correlation
        # between popularity and interaction count is positive at 3 sigma
        # (null standard error ~ 1/sqrt(p-1))
        c = cfg(n=4000, p=30, C=1, cluster_probs=(1.0,), seed=5)
        sample, gt = sample_interactions(c)
        counts = sample.matrix.sum(axis=0)
        r_pop = np.argsort(np.argsort(gt.item_popularity))
        r_cnt = np.argsort(np.argsort(counts))
        rho = np.corrcoef(r_pop, r_cnt)[0, 1]
        assert rho > 3.0 / np.sqrt(c.p - 1)

    def test_paper_scale_runs(self):
        c = SimConfig.uniform_clusters(20_000, 1_000, 5, seed=0)
        sample, gt = sample_interactions(c)
        assert sample.matrix.shape == (20_000, 1_000)


class TestGroundTruthSimilarity:
    def test_single_cluster_all_ones(self):
        gt = sample_ground_truth(cfg(C=1, cluster_probs=(1.0,)))
        assert np.all(ground_truth_similarity(gt) == 1.0)

    def test_diagonal_ones_and_blocks(self):
        gt = sample_ground_truth(cfg())
        s = ground_truth_similarity(gt)
        assert np.all(np.diag(s) == 1.0)
        order = np.argsort(gt.item_cluster, kind="stable")
        blocks = s[np.ix_(order, order)]
        sizes = np.bincount(gt.item_cluster, minlength=3)
        start = 0
        for m in sizes:
            assert np.all(blocks[start:start + m, start:start + m] == 1.0)
            start += m
        assert blocks.sum() == sum(m * m for m in sizes)


def test_figure_item_order_cluster_then_popularity():
    gt = sample_ground_truth(cfg())
    order = figure_item_order(gt)
    clusters = gt.item_cluster[order]
    assert np.all(np.diff(clusters) >= 0)
    pops = gt.item_popularity[order]
    for c in range(3):
        assert np.all(np.diff(pops[clusters == c]) <= 0)


def test_binary_rows_counts_and_matrix():
    rows = BinaryRows(indptr=np.array([0, 1, 3, 3]),
                      indices=np.array([2, 0, 3]), shape=(3, 4))
    assert np.array_equal(rows.items_per_user, [1, 2, 0])
    assert np.array_equal(rows.matrix, [[0, 0, 1, 0], [1, 0, 0, 1],
                                        [0, 0, 0, 0]])
