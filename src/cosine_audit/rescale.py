"""The diagonal rescaling degree of freedom of the product-regularized solver.

For any positive diagonal D, (A D, B D^-1) predicts the same scores as
(A, B), yet row-normalization does not commute with D, so cosine
similarities of the rescaled embeddings change. Named families:

    identity            all ones (leave the symmetric split alone)
    collapse            (1 + lambda/sigma_i^2)^(-1/2); at full rank the
                        item-item cosine matrix collapses to the identity
    inverse             (1 + lambda/sigma_i^2)^(+1/2); at full rank the
                        user-user cosine reduces to cosine of raw data rows
    symmetric-matching  sqrt(1/sigma_i); matches the symmetric per-dimension
                        weighting the split-regularized solver produces
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mf_solvers import EmbeddingPair

FAMILIES = ("identity", "collapse", "inverse", "symmetric-matching")


@dataclass(frozen=True)
class DiagonalScaling:
    """Diagonal of a strictly positive k x k scaling matrix D."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.ndim != 1:
            raise ValueError("scaling entries must be a vector")
        if not np.all(np.isfinite(e)) or np.any(e <= 0):
            raise ValueError("scaling entries must be finite and > 0")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class RotationMatrix:
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.values, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("rotation must be square")
        if not np.allclose(r.T @ r, np.eye(r.shape[0]), atol=1e-8):
            raise ValueError("rotation is not orthogonal within 1e-8")
        object.__setattr__(self, "values", r)


def apply_scaling(pair: EmbeddingPair, d: DiagonalScaling) -> EmbeddingPair:
    """Return the gauge-equivalent pair (A diag(d), B diag(d)^-1)."""
    if d.entries.shape[0] != pair.rank:
        raise ValueError(f"scaling length {d.entries.shape[0]} != rank {pair.rank}")
    return replace(pair, A=pair.A * d.entries, B=pair.B / d.entries)


def named_scaling(pair: EmbeddingPair, family: str) -> DiagonalScaling:
    """Build one of the named D families from the pair's training spectrum."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    s = pair.sigma
    if family == "identity":
        return DiagonalScaling(np.ones(pair.rank))
    degenerate = np.any(s <= (s[0] if s[0] > 0 else 1.0) * 1e-12)
    if family in ("inverse", "symmetric-matching") and degenerate:
        raise ValueError(f"family {family!r} needs strictly positive singular values")
    if family == "collapse":
        if pair.lam > 0 and degenerate:
            raise ValueError("collapse family degenerates to zero on sigma=0 dimensions")
        safe = np.where(s > 0, s, 1.0)
        return DiagonalScaling((1.0 + pair.lam / safe**2) ** -0.5)
    if family == "inverse":
        return DiagonalScaling((1.0 + pair.lam / s**2) ** 0.5)
    return DiagonalScaling(np.sqrt(1.0 / s))  # symmetric-matching


def apply_rotation(pair: EmbeddingPair, r: RotationMatrix) -> EmbeddingPair:
    """Rotate both factors; scores and all cosine similarities are unchanged."""
    if r.values.shape[0] != pair.rank:
        raise ValueError(f"rotation size {r.values.shape[0]} != rank {pair.rank}")
    return replace(pair, A=pair.A @ r.values, B=pair.B @ r.values)


def random_rotation(k: int, seed: int) -> RotationMatrix:
    """Deterministic orthogonal matrix: QR of a seeded Gaussian matrix."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = np.random.default_rng(seed).standard_normal((k, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return RotationMatrix(q)


def random_scaling(k: int, seed: int, spread: float = 1.0) -> DiagonalScaling:
    """Seeded admissible D with log-uniform entries in e^[-spread, spread]."""
    u = np.random.default_rng(seed).uniform(-spread, spread, size=k)
    return DiagonalScaling(np.exp(u))
