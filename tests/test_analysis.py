import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosine_audit.analysis as analysis
from cosine_audit.analysis import (PlanEntry, audit_full_rank,
                                   cluster_contrast, compare_configurations,
                                   figure_similarity, run_plan_entry,
                                   solve_plan_entry)
from cosine_audit.errors import ConfigError, ZeroRowError
from cosine_audit.matrix_core import cosine_of_rows, spectrum, svd
from cosine_audit.mf_solvers import EmbeddingPair, solve_objective1
from cosine_audit.rescale import apply_scaling, named_scaling
from cosine_audit.similarity import SimilarityMatrix, item_item, user_user
from cosine_audit.synthgen import (GroundTruth, SimConfig,
                                   figure_item_order, ground_truth_similarity,
                                   sample_ground_truth, sample_interactions)


@pytest.fixture(scope="module")
def desk_data():
    cfg = SimConfig.uniform_clusters(600, 80, 5, seed=7)
    sample, gt = sample_interactions(cfg)
    return sample.matrix, gt


@pytest.fixture(scope="module")
def desk_rows():
    """desk_data's X as BinaryRows."""
    cfg = SimConfig.uniform_clusters(600, 80, 5, seed=7)
    return sample_interactions(cfg)[0].rows


def reference_export(x, gt, entry):
    """item_item of the entry's own solve, and its values in figure order:
    what `figure_similarity` must give bit for bit."""
    full = item_item(x, solve_plan_entry(x, entry), "cosine", on_zero="drop")
    kept = [i for i in range(gt.item_cluster.shape[0])
            if i not in full.excluded_rows]
    at = [kept.index(i) for i in figure_item_order(gt) if i in kept]
    return full, full.values[np.ix_(at, at)]


def item_sim(values, excluded=()):
    return SimilarityMatrix(values=np.asarray(values, dtype=float),
                            kind="item-item", metric="cosine",
                            excluded_rows=tuple(excluded),
                            excluded_cols=tuple(excluded))


class TestClusterContrast:
    def test_ground_truth_is_perfect(self):
        gt = sample_ground_truth(SimConfig.uniform_clusters(10, 30, 3, seed=1))
        s = item_sim(ground_truth_similarity(gt))
        c = cluster_contrast(s, gt)
        assert c.within_mean == 1.0
        assert c.between_mean == 0.0
        assert c.contrast == 1.0

    def test_constant_similarity_zero_contrast(self):
        gt = sample_ground_truth(SimConfig.uniform_clusters(10, 30, 3, seed=1))
        c = cluster_contrast(item_sim(np.full((30, 30), 0.4)), gt)
        assert c.contrast == pytest.approx(0.0, abs=1e-15)

    def test_single_cluster_between_absent(self):
        gt = sample_ground_truth(
            SimConfig(n=10, p=8, C=1, cluster_probs=(1.0,), seed=1))
        c = cluster_contrast(item_sim(np.eye(8)), gt)
        assert c.between_mean is None
        assert c.contrast is None

    def test_permutation_invariance(self):
        gt = sample_ground_truth(SimConfig.uniform_clusters(10, 20, 3, seed=2))
        v = np.random.default_rng(3).uniform(-1, 1, (20, 20))
        v = (v + v.T) / 2
        base = cluster_contrast(item_sim(v), gt)
        perm = np.random.default_rng(4).permutation(20)
        gt_p = GroundTruth(gt.item_cluster[perm], gt.item_popularity[perm],
                           gt.cluster_exponents, gt.user_prefs)
        permuted = cluster_contrast(item_sim(v[np.ix_(perm, perm)]), gt_p)
        assert permuted.contrast == pytest.approx(base.contrast, abs=1e-12)

    @pytest.mark.parametrize("clusters", [[0, 0, 1, 2, 2], [0, 1, 2], [0, 0, 0],
                                          [3], [1, 1, 4, 4, 4, 0]])
    def test_ground_truth_contrast_without_matrix(self, clusters):
        gt = GroundTruth(item_cluster=np.array(clusters),
                         item_popularity=np.ones(len(clusters)),
                         cluster_exponents=np.ones(max(clusters) + 1),
                         user_prefs=np.ones((2, max(clusters) + 1)))
        dense = cluster_contrast(item_sim(ground_truth_similarity(gt)), gt)
        x = np.ones((2, len(clusters)))
        got = compare_configurations(x, gt, []).ground_truth_contrast
        # the means are exact: 1.0, 0.0 or None, as report.json prints them
        assert json.dumps(got.to_dict()) == json.dumps(dense.to_dict())

    def test_wrong_kind_rejected(self, desk_data):
        _, gt = desk_data
        s = SimilarityMatrix(values=np.eye(3), kind="user-user",
                             metric="cosine")
        with pytest.raises(ValueError):
            cluster_contrast(s, gt)


class TestAuditFullRank:
    def test_all_checks_pass_on_dense_data(self, dense_x):
        audit = audit_full_rank(dense_x, 100.0)
        assert audit.all_passed
        by_name = {c.name: c for c in audit.checks}
        assert by_name["item_item_collapses_to_identity"].deviation <= 1e-6
        assert by_name["user_user_inverse_matches_raw_data"].deviation <= 1e-6
        assert by_name["cosine_dot_ranking_agreement"].deviation == 0.0
        assert by_name["predicted_scores_rescaling_invariance"].deviation <= 1e-8

    def test_lambda_zero_still_passes(self, dense_x):
        audit = audit_full_rank(dense_x, 0.0)
        assert audit.all_passed

    def test_rank_deficient_skips_full_rank_identities(self):
        gen = np.random.default_rng(5)
        x = gen.standard_normal((40, 3)) @ gen.standard_normal((3, 8))
        audit = audit_full_rank(x, 1.0)
        assert audit.zero_sigma_dims == 5
        skipped = [c for c in audit.checks if c.skipped]
        assert len(skipped) == 3
        assert audit.all_passed  # remaining checks pass

    def test_skipped_checks_report_their_own_tolerance(self):
        gen = np.random.default_rng(9)
        x = gen.standard_normal((40, 6))
        x = np.hstack([x, x[:, :1]])  # a duplicated column: rank 6 of 7
        skipped = audit_full_rank(x, 1.0)
        full = audit_full_rank(x[:, :6], 1.0)
        assert skipped.zero_sigma_dims == 1 and full.zero_sigma_dims == 0
        assert [c.skipped for c in skipped.checks] == [True] * 3 + [False]
        assert ([c.tol for c in skipped.checks][:3]
                == [c.tol for c in full.checks][:3]
                == [analysis.TOL_IDENTITY, analysis.TOL_IDENTITY, 0.0])

    @pytest.mark.parametrize("family", ["inverse", "identity"])
    def test_blocked_user_gap_matches_dense(self, desk_data, monkeypatch,
                                            family):
        # 600 users in blocks of 64: nine full blocks and a partial one
        monkeypatch.setattr(analysis, "_USER_BLOCK", 64)
        x, _ = desk_data
        pair = solve_objective1(x, x.shape[1], 100.0)
        pair = apply_scaling(pair, named_scaling(pair, family))
        dense = np.linalg.norm(user_user(x, pair).values - cosine_of_rows(x, x))
        blocked = analysis._user_cosine_gap(x, pair)
        assert blocked == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_full_rank_check_b_uses_blocked_gap(self, desk_data, monkeypatch):
        monkeypatch.setattr(analysis, "_USER_BLOCK", 64)
        x, _ = desk_data
        audit = audit_full_rank(x, 100.0)
        pair = solve_objective1(x, x.shape[1], 100.0)
        inverse = apply_scaling(pair, named_scaling(pair, "inverse"))
        dense = np.linalg.norm(user_user(x, inverse).values
                               - cosine_of_rows(x, x))
        dev = {c.name: c.deviation for c in audit.checks}
        assert dev["user_user_inverse_matches_raw_data"] == pytest.approx(
            dense, abs=1e-12)
        assert dev["user_user_inverse_matches_raw_data"] <= 1e-6

    def test_solves_each_family_as_a_plan_entry(self, dense_x, monkeypatch):
        entries = []
        solve = analysis.solve_plan_entry

        def recording(X, entry):
            entries.append(entry)
            return solve(X, entry)

        monkeypatch.setattr(analysis, "solve_plan_entry", recording)
        audit = audit_full_rank(dense_x, 100.0)
        assert sorted(entries, key=lambda e: e.family) == [
            PlanEntry(1, 100.0, audit.rank, f)
            for f in ("collapse", "identity", "inverse")]

    def test_binary_rows_give_the_dense_audit(self, desk_rows):
        audit = audit_full_rank(desk_rows, 100.0)
        assert not any(c.skipped for c in audit.checks)
        assert audit.to_dict() == audit_full_rank(desk_rows.dense(),
                                                  100.0).to_dict()

    def test_zero_user_row_raises(self, dense_x):
        x = dense_x.copy()
        x[3] = 0.0
        pair = solve_objective1(x, x.shape[1], 1.0)
        with pytest.raises(ZeroRowError):
            analysis._user_cosine_gap(x, pair)


@st.composite
def contrast_cases(draw):
    """(X, ground truth, entry): items in one cluster, each in its own, or
    in up to four; X's zero columns give B the zero rows the contrast
    drops."""
    p = draw(st.integers(1, 12))
    layout = draw(st.sampled_from(["mixed", "one cluster", "singletons"]))
    clusters = {"one cluster": [0] * p, "singletons": list(range(p)),
                "mixed": draw(st.lists(st.integers(0, 3), min_size=p,
                                       max_size=p))}[layout]
    zero = draw(st.sets(st.integers(0, p - 1), max_size=p - 1))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (20, p))
    x[:, sorted(zero)] = 0.0
    objective = draw(st.sampled_from([1, 2]))
    family = "identity" if objective == 2 else draw(
        st.sampled_from(["identity", "collapse", "inverse"]))
    # the named families need every retained sigma positive
    top = p if family == "identity" else p - len(zero)
    entry = PlanEntry(objective, draw(st.sampled_from([0.0, 0.5, 5.0])),
                      draw(st.integers(1, top)), family)
    c = len(set(clusters))
    gt = GroundTruth(item_cluster=np.array(clusters),
                     item_popularity=np.ones(p),
                     cluster_exponents=np.ones(max(clusters) + 1),
                     user_prefs=np.full((20, max(clusters) + 1), 1.0 / c))
    return x, gt, entry


class TestContrastInPk:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(contrast_cases())
    def test_matches_cluster_contrast_of_the_matrix(self, case):
        x, gt, entry = case
        spec = spectrum(x)
        got = run_plan_entry(spec, gt, entry)
        sim, figure = reference_export(x, gt, entry)
        want = cluster_contrast(sim, gt)
        assert got.excluded_items == sim.excluded_rows
        export = figure_similarity(got, figure_item_order(gt))
        assert np.array_equal(export.values, figure)
        for a, b in ((got.contrast.within_mean, want.within_mean),
                     (got.contrast.between_mean, want.between_mean)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(contrast_cases())
    def test_ground_truth_contrast_is_that_of_its_matrix(self, case):
        x, gt, _ = case
        got = compare_configurations(x, gt, []).ground_truth_contrast
        want = cluster_contrast(item_sim(ground_truth_similarity(gt)), gt)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


class TestCompareConfigurations:
    def test_single_entry(self, desk_data):
        x, gt = desk_data
        report = compare_configurations(x, gt, [PlanEntry(1, 10.0, 10)])
        assert len(report.results) == 1
        assert report.ground_truth_contrast.contrast == 1.0

    @pytest.mark.parametrize("lam,rank", [(-5.0, 10), (float("nan"), 10),
                                          (float("inf"), 10), (1.0, 0)])
    def test_invalid_entry_rejected(self, lam, rank):
        with pytest.raises(ValueError):
            PlanEntry(1, lam, rank)

    @pytest.mark.parametrize("fields, key", [
        ((3, 1.0, 10), "objective"), ((1, -5.0, 10), "lambda"),
        ((1, 1.0, 0), "rank"), ((1, 1.0, 10, "bogus"), "family"),
        ((2, 1.0, 10, "collapse"), "family"),
        ((2, 1.0, 10, "inverse"), "family"),
        ((2, 1.0, 10, "symmetric-matching"), "family")])
    def test_invalid_entry_names_its_key(self, fields, key):
        with pytest.raises(ConfigError) as e:
            PlanEntry(*fields)
        assert e.value.key == key

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.just(-0.0),
                     st.floats(min_value=0.0, allow_infinity=False)))
    def test_label_names_lambda_exactly(self, lam):
        field = PlanEntry(1, lam, 3).label().split("_")[1]
        # -0.0 equals 0.0 and is named as it is, 0
        assert field.startswith("lam") and not field.startswith("lam-")
        assert float(field[3:]) == lam
        short = f"{lam:g}"
        if float(short) == lam and short != "-0":
            assert field[3:] == short

    def test_families_change_contrast(self, desk_data):
        x, gt = desk_data
        plan = [PlanEntry(1, 1000.0, 10, f)
                for f in ("collapse", "identity", "inverse")]
        report = compare_configurations(x, gt, plan)
        contrasts = [r.contrast.contrast for r in report.results]
        assert max(contrasts) - min(contrasts) > 1e-3

    def test_objective2_repeatable(self, desk_data):
        x, gt = desk_data
        plan = [PlanEntry(2, 5.0, 10)]
        runs = [compare_configurations(x, gt, plan) for _ in range(2)]
        order = figure_item_order(gt)
        v1, v2 = (figure_similarity(r.results[0], order).values for r in runs)
        assert np.array_equal(v1, v2)
        assert (runs[0].results[0].contrast.contrast
                == runs[1].results[0].contrast.contrast)

    def test_export_order_is_cluster_then_popularity(self, desk_data):
        x, gt = desk_data
        x = x.copy()
        x[:, [3, 40, 79]] = 0.0  # items the cosine matrix drops
        entry = PlanEntry(1, 10.0, 10)
        res = compare_configurations(x, gt, [entry]).results[0]
        sim = figure_similarity(res, figure_item_order(gt))
        full, figure = reference_export(x, gt, entry)
        assert {3, 40, 79} <= set(res.excluded_items)
        assert res.excluded_items == full.excluded_rows
        kept = [i for i in range(x.shape[1]) if i not in full.excluded_rows]
        order = [i for i in figure_item_order(gt) if i in kept]
        assert np.all(np.diff(gt.item_cluster[order]) >= 0)
        assert sim.excluded_rows == sim.excluded_cols == full.excluded_rows
        assert np.array_equal(sim.values, figure)

    def test_one_gram_per_x(self, desk_data, monkeypatch):
        x, gt = desk_data
        grams = []
        real_eigh = np.linalg.eigh

        def counting_eigh(g, *args, **kwargs):
            grams.append(g.shape)
            return real_eigh(g, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        plan = [PlanEntry(1, 1000.0, 10, f)
                for f in ("collapse", "identity", "inverse")]
        plan += [PlanEntry(2, 5.0, 10), PlanEntry(2, 5.0, 20)]
        compare_configurations(x, gt, plan)
        assert grams == [(80, 80)]

    def test_contrasts_match_per_entry_svd(self, desk_data):
        # reference: every entry solved from its own full SVD of X
        x, gt = desk_data
        plan = [PlanEntry(1, 1000.0, 10, f)
                for f in ("collapse", "identity", "inverse",
                          "symmetric-matching")]
        plan += [PlanEntry(2, 5.0, 10), PlanEntry(2, 30.0, 20)]
        # PlanEntry(2, 30.0, 20) keeps one dimension
        with pytest.warns(RuntimeWarning, match="degenerate plan entry "
                          "obj2_lam30_k20_identity"):
            report = compare_configurations(x, gt, plan)
        for entry, res in zip(plan, report.results):
            f = svd(x, entry.rank)
            s = f.singular_values
            if entry.objective == 1:
                b = f.right * np.sqrt(1.0 / (1.0 + entry.lam / s**2))
                d = named_scaling(EmbeddingPair(b, b, entry.lam, entry.rank,
                                                1, s),
                                  entry.family).entries
                b = b / d
            else:
                b = f.right * np.sqrt(s * np.maximum(0.0, 1.0 - entry.lam / s))
            want = cluster_contrast(item_item(x, EmbeddingPair(
                b, b, entry.lam, entry.rank, entry.objective, s),
                on_zero="drop"), gt).contrast
            assert res.contrast.contrast == pytest.approx(want, abs=1e-12)

    def test_degenerate_entry_flagged(self):
        # sigma = (10, 2, 1): objective 2 with lambda = 5 keeps one dimension
        gen = np.random.default_rng(8)
        u, _ = np.linalg.qr(gen.standard_normal((30, 3)))
        v, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        x = (u * [10.0, 2.0, 1.0]) @ v.T
        gt = GroundTruth(item_cluster=np.array([0, 0, 1]),
                         item_popularity=np.ones(3),
                         cluster_exponents=np.ones(2),
                         user_prefs=np.full((30, 2), 0.5))
        with pytest.warns(RuntimeWarning, match="degenerate plan entry "
                          "obj2_lam5_k3_identity: effective_rank=1 rank=3"):
            report = compare_configurations(x, gt, [PlanEntry(2, 5.0, 3),
                                                    PlanEntry(1, 5.0, 3)])
        shrunk, full = report.to_dict()["results"]
        assert (shrunk["effective_rank"], shrunk["degenerate"]) == (1, True)
        assert (full["effective_rank"], full["degenerate"]) == (3, False)
        assert "effective_rank" not in shrunk["entry"]

    def test_effective_rank_zero_has_no_cosines(self):
        # sigma = (10, 2, 1): objective 2 with lambda = 20 keeps nothing
        gen = np.random.default_rng(8)
        u, _ = np.linalg.qr(gen.standard_normal((30, 3)))
        v, _ = np.linalg.qr(gen.standard_normal((3, 3)))
        x = (u * [10.0, 2.0, 1.0]) @ v.T
        gt = GroundTruth(item_cluster=np.array([0, 0, 1]),
                         item_popularity=np.ones(3),
                         cluster_exponents=np.ones(2),
                         user_prefs=np.full((30, 2), 0.5))
        with pytest.warns(RuntimeWarning) as caught:
            report = compare_configurations(x, gt, [PlanEntry(2, 20.0, 3)])
        assert [str(w.message) for w in caught] == [
            "degenerate plan entry obj2_lam20_k3_identity: effective_rank=0 "
            "rank=3; every item is excluded and the entry has no cosines"]
        res = report.results[0]
        assert (res.effective_rank, res.excluded_items) == (0, (0, 1, 2))
        assert res.contrast.contrast is None
        export = figure_similarity(res, figure_item_order(gt))
        assert export.values.shape == (0, 0)
        assert export.excluded_rows == (0, 1, 2)

    def test_export_gets_each_result_and_report_drops_its_matrix(self, desk_data):
        # the report holds no matrix; each entry's export is built from its
        # own result's unit rows, which report.json, repr and == leave out,
        # and drops the items its result lists
        x, gt = desk_data
        plan = [PlanEntry(1, 1000.0, 10, f) for f in ("collapse", "inverse")]
        plan.append(PlanEntry(2, 5.0, 10))
        whole = compare_configurations(x, gt, plan)
        order = figure_item_order(gt)
        for entry, res in zip(plan, whole.results):
            alone = compare_configurations(x, gt, [entry]).results[0]
            assert res.to_dict() == alone.to_dict()
            assert res == alone
            assert not hasattr(res, "similarity")
            assert "units" not in json.dumps(res.to_dict())
            assert "units" not in repr(res)
            export = figure_similarity(res, order)
            assert export.excluded_rows == res.excluded_items
            assert np.array_equal(export.values,
                                  reference_export(x, gt, entry)[1])

    def test_binary_rows_give_the_dense_report(self, desk_data):
        x, gt = desk_data
        cfg = SimConfig.uniform_clusters(600, 80, 5, seed=7)  # desk_data's
        sample, _ = sample_interactions(cfg)
        plan = [PlanEntry(1, 1000.0, 10, "inverse"), PlanEntry(2, 5.0, 10)]
        dense = compare_configurations(x, gt, plan)
        rows = compare_configurations(sample.rows, gt, plan)
        assert rows.to_dict() == dense.to_dict()
        order = figure_item_order(gt)
        for a, b in zip(rows.results, dense.results):
            assert np.array_equal(figure_similarity(a, order).values,
                                  figure_similarity(b, order).values)

    def test_a_spectrum_gives_the_report_of_its_x(self, desk_data):
        x, gt = desk_data
        plan = [PlanEntry(1, 1000.0, 10, "collapse"), PlanEntry(2, 5.0, 10)]
        assert (compare_configurations(spectrum(x), gt, plan)
                == compare_configurations(x, gt, plan))

    @pytest.mark.parametrize("entry", [
        PlanEntry(1, 1000.0, 10, "inverse"), PlanEntry(1, 100.0, 80, "collapse"),
        PlanEntry(2, 5.0, 10)])
    def test_binary_rows_solve_as_dense(self, desk_rows, entry):
        rows = solve_plan_entry(desk_rows, entry)
        dense = solve_plan_entry(desk_rows.dense(), entry)
        for a, b in ((rows.A, dense.A), (rows.B, dense.B),
                     (rows.sigma, dense.sigma)):
            assert np.array_equal(a, b)

    def test_report_dict_round_trips_to_json(self, desk_data):
        import json
        x, gt = desk_data
        report = compare_configurations(x, gt, [PlanEntry(2, 5.0, 10)])
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["results"][0]["entry"]["objective"] == 2
