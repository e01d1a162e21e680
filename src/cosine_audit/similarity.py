"""Similarity matrices between items, users, and user-item pairs.

Item embeddings are the rows of B; user embeddings are the rows of X @ A.
Each combination is available under both the cosine metric and the raw
dot product. Cosine depends on the diagonal rescaling gauge of the
product-regularized solver; the dot-product user-item matrix does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroRowError
from .matrix_core import as_matrix, normalize_rows
from .mf_solvers import EmbeddingPair

KIND_ITEM_ITEM = "item-item"
KIND_USER_USER = "user-user"
KIND_USER_ITEM = "user-item"
METRIC_COSINE = "cosine"
METRIC_DOT = "dot"


@dataclass(frozen=True)
class SimilarityMatrix:
    values: np.ndarray
    kind: str    # item-item | user-user | user-item
    metric: str  # cosine | dot
    excluded_rows: tuple[int, ...] = ()
    excluded_cols: tuple[int, ...] = ()


def _similarity(left: np.ndarray, right: np.ndarray, kind: str, metric: str,
                on_zero: str) -> SimilarityMatrix:
    if metric == METRIC_DOT:
        return SimilarityMatrix(values=left @ right.T, kind=kind, metric=METRIC_DOT)
    if metric != METRIC_COSINE:
        raise ValueError(f"unknown metric {metric!r}")
    # two normalize_rows calls even when left is right: one array on both
    # sides would send the product to syrk, whose last bits may differ
    (nl, zl), (nr, zr) = normalize_rows(left), normalize_rows(right)
    if on_zero == "raise" and (zl.size or zr.size):
        raise ZeroRowError(int((zl if zl.size else zr)[0]),
                           what="embedding row")
    # drop: zero-norm entities are left out of the matrix but reported
    return SimilarityMatrix(values=nl @ nr.T, kind=kind, metric=METRIC_COSINE,
                            excluded_rows=tuple(int(i) for i in zl),
                            excluded_cols=tuple(int(i) for i in zr))


def item_item(X, pair: EmbeddingPair, metric: str = METRIC_COSINE,
              on_zero: str = "raise") -> SimilarityMatrix:
    B = pair.B
    return _similarity(B, B, KIND_ITEM_ITEM, metric, on_zero)


def user_user(X, pair: EmbeddingPair, metric: str = METRIC_COSINE,
              on_zero: str = "raise") -> SimilarityMatrix:
    XA = as_matrix(X) @ pair.A
    return _similarity(XA, XA, KIND_USER_USER, metric, on_zero)


def user_item(X, pair: EmbeddingPair, metric: str = METRIC_COSINE,
              on_zero: str = "raise") -> SimilarityMatrix:
    XA = as_matrix(X) @ pair.A
    return _similarity(XA, pair.B, KIND_USER_ITEM, metric, on_zero)


# rows per block of ranking_equal, so that no n x p array of tie ranks exists
_ROW_BLOCK = 512


def _tie_ranks(v: np.ndarray, tol: float) -> np.ndarray:
    """Each entry's descending tie group within its row, counted from 0.

    Sorted neighbours whose drop is at most tol * max|row| share a group,
    so rows that differ by a positive factor get the same tie ranks.
    """
    order = np.argsort(-v, axis=1, kind="stable")
    vals = np.take_along_axis(v, order, axis=1)
    gap = tol * np.abs(v).max(axis=1, initial=0.0, keepdims=True)
    sorted_ranks = np.zeros(v.shape, dtype=np.intp)
    np.cumsum(vals[:, :-1] - vals[:, 1:] > gap, axis=1,
              out=sorted_ranks[:, 1:])
    ranks = np.empty_like(sorted_ranks)
    np.put_along_axis(ranks, order, sorted_ranks, axis=1)
    return ranks


def ranking_equal(s1: SimilarityMatrix, s2: SimilarityMatrix,
                  tol: float = 1e-9) -> np.ndarray:
    """Per-row flags: does row u of s1 rank the columns the same as row u of s2?

    Entries within tol times the largest magnitude of their row count as
    tied; two rows rank alike when every column has the same tie rank.
    """
    a, b = s1.values, s2.values
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = np.empty(a.shape[0], dtype=bool)
    for lo in range(0, a.shape[0], _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        out[rows] = np.all(_tie_ranks(a[rows], tol) == _tie_ranks(b[rows], tol),
                           axis=1)
    return out
