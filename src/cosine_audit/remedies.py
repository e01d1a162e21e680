"""Workarounds for the rescaling ambiguity of embedding cosine similarity.

Two concrete remedies: standardize the data before training (nothing
inverts it), and compute cosine on back-projections X @ A @ B^T in the
original interaction space. The back-projection depends only on the product
A B^T, which is unique, so it is immune to both diagonal rescaling and
rotation of the factors.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVarianceError
from .matrix_core import as_matrix, cosine_of_rows
from .mf_solvers import EmbeddingPair, predicted_scores
from .similarity import (KIND_ITEM_ITEM, KIND_USER_USER, METRIC_COSINE,
                         SimilarityMatrix)


def standardize(X) -> np.ndarray:
    """X with each column centered to mean 0 and scaled to sample std 1
    (ddof=1)."""
    X = as_matrix(X)
    if X.shape[0] < 2:
        raise ValueError("standardize needs at least 2 rows")
    means = X.mean(axis=0)
    stds = X.std(axis=0, ddof=1)
    bad = np.flatnonzero(stds < 1e-300)
    if bad.size:
        raise ZeroVarianceError(int(bad[0]))
    return (X - means) / stds


def backprojected_user_cosine(X, pair: EmbeddingPair) -> SimilarityMatrix:
    """Cosine between users represented by their smoothed interaction rows."""
    smoothed = predicted_scores(X, pair)
    return SimilarityMatrix(values=cosine_of_rows(smoothed, smoothed),
                            kind=KIND_USER_USER, metric=METRIC_COSINE)


def backprojected_item_cosine(X, pair: EmbeddingPair) -> SimilarityMatrix:
    """Cosine between items represented by their smoothed interaction columns."""
    smoothed = predicted_scores(X, pair).T
    return SimilarityMatrix(values=cosine_of_rows(smoothed, smoothed),
                            kind=KIND_ITEM_ITEM, metric=METRIC_COSINE)
