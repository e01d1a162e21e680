"""End-to-end acceptance criteria. Each test prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from cosine_audit.analysis import (PlanEntry, cluster_contrast,
                                   compare_configurations)
from cosine_audit.cli import main
from cosine_audit.matrix_core import cosine_of_rows, spectrum, svd
from cosine_audit.mf_solvers import (OBJECTIVE_PRODUCT_REG,
                                     OBJECTIVE_SPLIT_REG,
                                     gradient_descent_oracle,
                                     objective1_gradients, objective1_loss,
                                     objective2_gradients, objective2_loss,
                                     predicted_scores, solve_objective1,
                                     solve_objective2)
from cosine_audit.remedies import backprojected_user_cosine
from cosine_audit.rescale import (apply_rotation, apply_scaling,
                                  named_scaling, random_rotation,
                                  random_scaling)
from cosine_audit.similarity import (METRIC_COSINE, METRIC_DOT, item_item,
                                     ranking_equal, user_item, user_user)
from cosine_audit.synthgen import SimConfig, sample_interactions


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def fullrank_pair(dense_x):
    return solve_objective1(dense_x, 50, 100.0)


@pytest.fixture(scope="module")
def desk_instance():
    cfg = SimConfig.uniform_clusters(2_000, 200, 5, seed=7)
    x, gt = sample_interactions(cfg)
    return x.matrix, gt


def test_criterion_1_collapse_identity(dense_x, fullrank_pair):
    start = time.monotonic()
    collapsed = apply_scaling(fullrank_pair,
                              named_scaling(fullrank_pair, "collapse"))
    s = item_item(dense_x, collapsed).values
    dev = np.abs(s - np.diag(np.diag(s))).max()
    elapsed = time.monotonic() - start
    report(1, f"full-rank collapse item-item max offdiag {dev:.2e} <= 1e-6, "
              f"{elapsed:.2f}s < 5s", dev <= 1e-6 and elapsed < 5.0)


def test_criterion_2_raw_data_identity(dense_x, fullrank_pair):
    start = time.monotonic()
    inv = apply_scaling(fullrank_pair, named_scaling(fullrank_pair, "inverse"))
    s = user_user(dense_x, inv).values
    dist = np.linalg.norm(s - cosine_of_rows(dense_x, dense_x))
    elapsed = time.monotonic() - start
    report(2, f"full-rank inverse user-user vs raw cosine {dist:.2e} <= 1e-6, "
              f"{elapsed:.2f}s < 10s", dist <= 1e-6 and elapsed < 10.0)


def test_criterion_3_ranking_equivalence(dense_x, fullrank_pair):
    collapsed = apply_scaling(fullrank_pair,
                              named_scaling(fullrank_pair, "collapse"))
    cos = user_item(dense_x, collapsed, METRIC_COSINE)
    dot = user_item(dense_x, collapsed, METRIC_DOT)
    frac = ranking_equal(cos, dot).mean()
    report(3, f"cosine vs dot ranking identical for {frac:.0%} of 200 users",
           frac == 1.0)


def test_criterion_4_product_invariance(dense_x):
    pair = solve_objective1(dense_x, 20, 50.0)
    base = predicted_scores(dense_x, pair)
    base_norm = np.linalg.norm(base)
    worst = 0.0
    for seed in range(20):
        scaled = apply_scaling(pair, random_scaling(20, seed))
        dev = np.linalg.norm(predicted_scores(dense_x, scaled) - base)
        worst = max(worst, dev / base_norm)
    report(4, f"score invariance over 20 seeded D, worst rel dev {worst:.2e} "
              "<= 1e-8", worst <= 1e-8)


def test_criterion_5_closed_form_vs_oracle():
    start = time.monotonic()
    worst = 0.0
    for inst in range(10):
        x = np.random.default_rng(1000 + inst).standard_normal((8, 6))
        for lam in (0.1, 1.0, 10.0):
            for objective, solver, loss_fn in (
                    (OBJECTIVE_PRODUCT_REG, solve_objective1, objective1_loss),
                    (OBJECTIVE_SPLIT_REG, solve_objective2, objective2_loss)):
                closed = solver(x, 3, lam)
                target = loss_fn(x, closed.A, closed.B, lam)
                oracle = gradient_descent_oracle(x, 3, lam, objective)
                achieved = loss_fn(x, oracle.A, oracle.B, lam)
                worst = max(worst, abs(achieved - target) / target)
    elapsed = time.monotonic() - start
    report(5, f"oracle loss matches closed forms, worst rel dev {worst:.2e} "
              f"<= 1e-4, {elapsed:.1f}s < 120s",
           worst <= 1e-4 and elapsed < 120.0)


def test_criterion_6_objective2_structure():
    worst_sym = 0.0
    worst_col = 0.0
    for inst in range(5):
        x = np.random.default_rng(2000 + inst).standard_normal((20, 10))
        u, s, _ = svd(x, 4)
        lam = 0.5 * s[2]  # keeps some dims, kills none/some
        pair = solve_objective2(x, 4, lam)
        xa = x @ pair.A
        n_xa = np.linalg.norm(xa) ** 2
        n_b = np.linalg.norm(pair.B) ** 2
        worst_sym = max(worst_sym, abs(n_xa - n_b) / max(n_xa, 1e-300))
        expected = u * np.sqrt(s * np.maximum(0, 1 - lam / s))
        worst_col = max(worst_col, np.linalg.norm(xa - expected))
    report(6, f"||XA||^2 == ||B||^2 (rel {worst_sym:.2e} <= 1e-8) and XA "
              f"matches U_k spectrum map ({worst_col:.2e} <= 1e-8)",
           worst_sym <= 1e-8 and worst_col <= 1e-8)


def test_criterion_7_arbitrariness_at_desk_scale(desk_instance):
    start = time.monotonic()
    x, gt = desk_instance
    plan = [PlanEntry(1, 10_000.0, 20, f)
            for f in ("collapse", "identity", "inverse")]
    rep = compare_configurations(spectrum(x), gt, plan)
    contrasts = [r.contrast.contrast for r in rep.results]
    span = max(contrasts) - min(contrasts)

    # objective 2 at lambda=10, below sigma_1 ~ 49.6 of this instance, so
    # the solution keeps all 20 dimensions; uniqueness is asserted on the
    # factors, on the contrast across repeated solves and on the contrast
    # under rotations, objective 2's only gauge
    solves = [solve_objective2(x.copy(), 20, 10.0) for _ in range(3)]
    factor_dev = max(np.abs(s.B - solves[0].B).max() for s in solves[1:])
    reports = [compare_configurations(spectrum(x), gt,
                                      [PlanEntry(2, 10.0, 20)])
               for _ in range(3)]
    degenerate = any(r.results[0].degenerate for r in reports)
    obj2 = [r.results[0].contrast.contrast for r in reports]
    for seed in range(5):
        rotated = apply_rotation(solves[0], random_rotation(20, seed))
        obj2.append(cluster_contrast(item_item(None, rotated), gt).contrast)
    contrast_dev = (max(abs(c - obj2[0]) for c in obj2[1:])
                    if None not in obj2 else float("inf"))
    elapsed = time.monotonic() - start
    report(7, f"objective-1 contrast span {span:.3f} > 0.05 across D families; "
              f"objective-2 contrast {obj2[0]} (degenerate: {degenerate}) "
              f"identical across 3 runs and 5 rotations (factor dev "
              f"{factor_dev:.1e}, contrast dev {contrast_dev:.1e} <= 1e-12); "
              f"{elapsed:.1f}s < 60s",
           span > 0.05 and not degenerate and factor_dev <= 1e-12
           and contrast_dev <= 1e-12 and elapsed < 60.0)


def test_criterion_8_remedy_invariance(desk_instance):
    x, _ = desk_instance
    pair = solve_objective1(x, 20, 10_000.0)
    base = backprojected_user_cosine(x, pair).values
    worst = 0.0
    for seed in range(10):
        scaled = apply_scaling(pair, random_scaling(20, seed))
        worst = max(worst, np.linalg.norm(
            backprojected_user_cosine(x, scaled).values - base))
    for seed in range(10):
        rotated = apply_rotation(pair, random_rotation(20, seed))
        worst = max(worst, np.linalg.norm(
            backprojected_user_cosine(x, rotated).values - base))
    report(8, f"back-projected user cosine invariant over 10 D + 10 rotations, "
              f"worst Frobenius dev {worst:.2e} <= 1e-10", worst <= 1e-10)


def test_criterion_9_gradient_check():
    worst = 0.0
    for objective, loss_fn, grad_fn in (
            (OBJECTIVE_PRODUCT_REG, objective1_loss, objective1_gradients),
            (OBJECTIVE_SPLIT_REG, objective2_loss, objective2_gradients)):
        gen = np.random.default_rng(3000)
        x = gen.standard_normal((4, 3))
        a = gen.standard_normal((3, 2))
        b = gen.standard_normal((3, 2))
        lam = 0.7
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
                denom = max(abs(fd), 1e-3)
                worst = max(worst, abs(grad[idx] - fd) / denom)
    report(9, f"analytic vs central finite-difference gradients, worst rel "
              f"dev {worst:.2e} <= 1e-5", worst <= 1e-5)


def test_criterion_10_audit_determinism(tmp_path):
    cfg = {
        "sim": {"n": 300, "p": 60, "C": 5,
                "cluster_probs": [0.2] * 5, "beta_item_min": 0.25,
                "beta_item_max": 1.5, "beta_user": 0.5, "seed": 13},
        "plan": [
            {"objective": 1, "lambda": 500.0, "rank": 10, "family": "collapse"},
            {"objective": 1, "lambda": 500.0, "rank": 10, "family": "identity"},
            {"objective": 1, "lambda": 500.0, "rank": 10, "family": "inverse"},
            {"objective": 2, "lambda": 3.0, "rank": 10, "family": "identity"},
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["audit", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs.append({f.name: f.read_bytes()
                        for f in sorted(out.iterdir()) if f.is_file()})
    same_names = outputs[0].keys() == outputs[1].keys()
    same_bytes = same_names and all(
        outputs[0][n] == outputs[1][n] for n in outputs[0])
    has_kinds = any(n.endswith(".pgm") for n in outputs[0]) and \
        "report.json" in outputs[0]
    report(10, f"cmd_audit reruns byte-identical across "
               f"{len(outputs[0])} files (CSV, PGM, report.json)",
           same_bytes and has_kinds)
