"""Cluster-recovery scoring and the similarity audit across modeling choices.

`cluster_contrast` reduces an item-item similarity matrix to a single
recovery score against the simulator's ground-truth clusters.
`audit_full_rank` checks the exact full-rank identities of the
product-regularized solver. `compare_configurations` runs a plan of
(objective, lambda, rank, family) choices over one data matrix and
collects one contrast per choice, without forming any p x p matrix, from
the spectrum of X, taken once; `figure_similarity` exports one result as
`item_item` of the pair that result keeps, in figure order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ZeroRowError
from .matrix_core import Spectrum, as_matrix, normalize_rows, spectrum
from .mf_solvers import (EmbeddingPair, predicted_scores, solve_objective1,
                         solve_objective2)
from .rescale import FAMILIES, apply_scaling, named_scaling, random_scaling
from .similarity import (KIND_ITEM_ITEM, METRIC_COSINE, METRIC_DOT,
                         SimilarityMatrix, item_item, ranking_equal,
                         user_item)
from .synthgen import GroundTruth

# users per row block of the n x n comparison in audit_full_rank check (b)
_USER_BLOCK = 512
# audit_full_rank tolerances of checks (a)-(b) and of check (d)
TOL_IDENTITY = 1e-6
TOL_SCORES = 1e-8


@dataclass(frozen=True)
class ClusterContrast:
    """Mean within-cluster minus mean between-cluster similarity.

    Means that are undefined (single cluster, or no cluster with two kept
    items) are reported as None, and so is the contrast.
    """

    within_mean: float | None
    between_mean: float | None

    @property
    def contrast(self) -> float | None:
        if self.within_mean is None or self.between_mean is None:
            return None
        return self.within_mean - self.between_mean

    def to_dict(self) -> dict:
        return {"within_mean": self.within_mean,
                "between_mean": self.between_mean,
                "contrast": self.contrast}


def cluster_contrast(s: SimilarityMatrix, gt: GroundTruth) -> ClusterContrast:
    if s.kind != KIND_ITEM_ITEM:
        raise ValueError(f"cluster_contrast needs an item-item matrix, got {s.kind}")
    clusters = gt.item_cluster
    if s.excluded_rows:
        keep = np.setdiff1d(np.arange(clusters.shape[0]), np.asarray(s.excluded_rows))
        clusters = clusters[keep]
    v = s.values
    if v.shape != (clusters.shape[0], clusters.shape[0]):
        raise ValueError(f"similarity shape {v.shape} does not match "
                         f"{clusters.shape[0]} items")
    same = clusters[:, None] == clusters[None, :]
    offdiag = ~np.eye(clusters.shape[0], dtype=bool)
    within_mask = same & offdiag
    between_mask = ~same
    within = float(v[within_mask].mean()) if within_mask.any() else None
    between = float(v[between_mask].mean()) if between_mask.any() else None
    return ClusterContrast(within_mean=within, between_mean=between)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float | None  # None when skipped
    tol: float
    passed: bool
    skipped: bool = False

    def to_dict(self) -> dict:
        return {"name": self.name, "deviation": self.deviation,
                "tol": self.tol, "passed": self.passed, "skipped": self.skipped}


@dataclass(frozen=True)
class FullRankAudit:
    checks: tuple[CheckResult, ...]
    lam: float
    rank: int
    zero_sigma_dims: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "rank": self.rank,
                "zero_sigma_dims": self.zero_sigma_dims,
                "all_passed": self.all_passed,
                "checks": [c.to_dict() for c in self.checks]}


def audit_full_rank(X, lam: float) -> FullRankAudit:
    """Verify the full-rank identities of the product-regularized solver.

    (a) collapse family makes the item-item cosine matrix the identity;
    (b) inverse family makes the user-user cosine equal to the cosine of
        the raw data rows;
    (c) collapse family preserves the per-user item ranking between cosine
        and dot scores;
    (d) predicted scores are invariant across seeded random rescalings.

    Rank-deficient inputs drop the zero-sigma dimensions; (a)-(c) only
    hold at full rank and are marked skipped in that case. X is a dense
    matrix or `BinaryRows`.
    """
    spec = spectrum(X)
    X = as_matrix(X)
    k = spec.rank
    zero_dims = X.shape[1] - k
    full_rank = zero_dims == 0

    pair, collapse, inverse = (solve_plan_entry(spec, PlanEntry(1, lam, k, f))
                               for f in ("identity", "collapse", "inverse"))

    if full_rank:
        # the matrices of checks (a) and (c) are freed before the next check
        ii = item_item(X, collapse).values
        dev_a = float(np.abs(ii - np.diag(np.diag(ii))).max())
        del ii
        dev_b = _user_cosine_gap(X, inverse)
        frac = float(ranking_equal(user_item(X, collapse, METRIC_COSINE),
                                   user_item(X, collapse, METRIC_DOT)).mean())
        devs = (dev_a, dev_b, 1.0 - frac)
    else:
        # (a)-(c) require the rows of the rescaled V to be unit norm, which
        # only holds when the retained rank equals p
        devs = (None, None, None)
    # checks (a)-(c), each held to its own tolerance whether run or skipped;
    # (c)'s deviation is the fraction of users whose rankings differ
    named = (("item_item_collapses_to_identity", TOL_IDENTITY),
             ("user_user_inverse_matches_raw_data", TOL_IDENTITY),
             ("cosine_dot_ranking_agreement", 0.0))
    checks = [CheckResult(name, dev, tol, passed=dev is not None and dev <= tol,
                          skipped=dev is None)
              for (name, tol), dev in zip(named, devs)]

    base = predicted_scores(X, pair)
    base_norm = np.linalg.norm(base)
    dev_d = 0.0
    for seed in range(5):
        scaled = apply_scaling(pair, random_scaling(pair.rank, seed=seed))
        dev_d = max(dev_d, float(np.linalg.norm(predicted_scores(X, scaled) - base)
                                 / base_norm))
    checks.append(CheckResult("predicted_scores_rescaling_invariance",
                              dev_d, TOL_SCORES, dev_d <= TOL_SCORES))

    return FullRankAudit(checks=tuple(checks), lam=lam, rank=k,
                         zero_sigma_dims=zero_dims)


def _user_cosine_gap(X: np.ndarray, pair: EmbeddingPair) -> float:
    """Frobenius norm of user_user(X, pair) - cosine_of_rows(X, X).

    Summed over blocks of users, so neither n x n matrix exists. Zero rows
    raise as in those two functions.
    """
    emb, bad = normalize_rows(X @ pair.A)
    if bad.size:
        raise ZeroRowError(int(bad[0]), what="embedding row")
    raw, bad = normalize_rows(X)
    if bad.size:
        raise ZeroRowError(int(bad[0]))
    total = 0.0
    for lo in range(0, X.shape[0], _USER_BLOCK):
        gap = (emb[lo:lo + _USER_BLOCK] @ emb.T
               - raw[lo:lo + _USER_BLOCK] @ raw.T)
        total += float(np.einsum("ij,ij->", gap, gap))
    return math.sqrt(total)


@dataclass(frozen=True)
class PlanEntry:
    objective: int  # 1 (product-reg) or 2 (split-reg)
    lam: float
    rank: int
    family: str = "identity"

    def __post_init__(self):
        if self.objective not in (1, 2):
            raise ConfigError("objective", "must be 1 or 2")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("lambda", f"must be finite and >= 0, got {self.lam}")
        if self.rank < 1:
            raise ConfigError("rank", f"must be >= 1, got {self.rank}")
        if self.family not in FAMILIES:
            raise ConfigError("family", f"must be one of {', '.join(FAMILIES)}, "
                                        f"got {self.family!r}")
        # the families are objective 1's gauge; objective 2's is only rotation
        if self.objective == 2 and self.family != "identity":
            raise ConfigError("family", "must be identity for objective 2, "
                                        f"got {self.family!r}")

    def label(self) -> str:
        """The name of this entry's exports, which only equal entries share:
        lambda is written `%g` where that reads back as lambda, in full where
        it does not, and -0.0, which equals 0.0, as 0 (adding 0.0)."""
        lam = self.lam + 0.0
        name = f"{lam:g}" if float(f"{lam:g}") == lam else f"{lam}"
        return f"obj{self.objective}_lam{name}_k{self.rank}_{self.family}"

    def to_dict(self) -> dict:
        return {"objective": self.objective, "lambda": self.lam,
                "rank": self.rank, "family": self.family}


@dataclass(frozen=True)
class PlanResult:
    entry: PlanEntry
    contrast: ClusterContrast
    excluded_items: tuple[int, ...]
    effective_rank: int  # nonzero columns of B after shrinkage
    pair: EmbeddingPair = field(repr=False, compare=False)  # the entry's solve

    @property
    def degenerate(self) -> bool:
        """At most one dimension left: every cosine is +-1 or undefined, so
        the contrast says nothing about the data."""
        return self.effective_rank <= 1

    def to_dict(self) -> dict:
        return {"entry": self.entry.to_dict(),
                "effective_rank": self.effective_rank,
                "degenerate": self.degenerate,
                "contrast": self.contrast.to_dict(),
                "excluded_items": list(self.excluded_items)}


@dataclass(frozen=True)
class AuditReport:
    results: tuple[PlanResult, ...]
    ground_truth_contrast: ClusterContrast

    def to_dict(self) -> dict:
        return {"ground_truth_contrast": self.ground_truth_contrast.to_dict(),
                "results": [r.to_dict() for r in self.results]}


def solve_plan_entry(X, entry: PlanEntry) -> EmbeddingPair:
    """Solve one entry; X is the training matrix or its `Spectrum`."""
    solver = solve_objective1 if entry.objective == 1 else solve_objective2
    pair = solver(X, entry.rank, entry.lam)
    if entry.family != "identity":
        pair = apply_scaling(pair, named_scaling(pair, entry.family))
    return pair


def _unit_contrast(units: np.ndarray, clusters: np.ndarray) -> ClusterContrast:
    """`cluster_contrast` of the cosines of unit rows `units`, row i in
    cluster clusters[i], in O(pk): the within-cluster sum of cosines is
    sum_c (|S_c|^2 - |c|), where S_c sums cluster c's rows, and the
    between-cluster sum is |sum_i u_i|^2 - n - within."""
    n = clusters.shape[0]
    sizes = np.bincount(clusters)
    sums = (clusters == np.arange(sizes.shape[0])[:, None]) @ units
    total = units.sum(axis=0)
    within = float(np.einsum("ij,ij->", sums, sums)) - n
    between = float(total @ total) - n - within
    # ordered pairs of items in one cluster, each item with itself included
    same = int(sizes @ sizes)
    within_pairs, between_pairs = same - n, n * n - same
    return ClusterContrast(
        within_mean=within / within_pairs if within_pairs else None,
        between_mean=between / between_pairs if between_pairs else None)


def run_plan_entry(spec: Spectrum, gt: GroundTruth,
                   entry: PlanEntry) -> PlanResult:
    """One entry's contrast from the unit rows of B; `cluster_contrast` of
    their cosine matrix is the reference. Warns when it is degenerate."""
    pair = solve_plan_entry(spec, entry)
    units, zero = normalize_rows(pair.B)
    res = PlanResult(
        entry=entry,
        contrast=_unit_contrast(units, np.delete(gt.item_cluster, zero)),
        excluded_items=tuple(int(i) for i in zero),
        effective_rank=int(np.count_nonzero(pair.B.any(axis=0))),
        pair=pair)
    if res.degenerate:
        what = ("every item is excluded and the entry has no cosines"
                if res.effective_rank == 0 else
                "its cosines are all +-1 and its contrast is not a finding")
        warnings.warn(f"degenerate plan entry {entry.label()}: effective_rank="
                      f"{res.effective_rank} rank={entry.rank}; {what}",
                      RuntimeWarning, stacklevel=2)
    return res


def figure_similarity(res: PlanResult, order: np.ndarray) -> SimilarityMatrix:
    """`item_item` of `res`'s pair, its kept items in `order` (figure order)."""
    # in item order, then reordered: reordering first changes the last bits
    sim = item_item(None, res.pair, on_zero="drop")
    keep = np.delete(np.arange(order.shape[0]), sim.excluded_rows)
    kept_order = np.searchsorted(keep, order[np.isin(order, keep)])
    return replace(sim, values=sim.values[np.ix_(kept_order, kept_order)])


def compare_configurations(X, gt: GroundTruth,
                           plan: list[PlanEntry]) -> AuditReport:
    """One cluster contrast per plan entry, in plan order.

    X is a dense matrix, `BinaryRows` or its `Spectrum`. Its spectrum is
    taken once and shared by every entry.
    """
    spec = X if isinstance(X, Spectrum) else spectrum(X)
    # one-hot cluster rows: their cosines are ground_truth_similarity(gt)
    clusters = gt.item_cluster
    one_hot = np.eye(clusters.max() + 1)[clusters]
    return AuditReport(results=tuple(run_plan_entry(spec, gt, entry)
                                     for entry in plan),
                       ground_truth_contrast=_unit_contrast(one_hot, clusters))
