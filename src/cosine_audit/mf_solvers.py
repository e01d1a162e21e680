"""Closed-form solvers for the two regularized factorization objectives.

Objective 1 (product-reg) penalizes the product of the factors, objective 2
(split-reg) the user and item factors separately:
    ||X - X A B^T||_F^2 + lambda * ||A B^T||_F^2
    ||X - X A B^T||_F^2 + lambda * (||X A||_F^2 + ||B||_F^2)
Both minimizers keep, per retained dimension, the weight
    m_i = max(0, 1 - lambda_s/sigma_i) / (1 + lambda_p/sigma_i^2)
split as A = V_k diag(sqrt(m_i / sigma_i^e)), B = V_k diag(sqrt(m_i sigma_i^e)).
Objective 1 is the corner (lambda_p, lambda_s, e) = (lambda, 0, 0): A = B,
determined only up to a diagonal rescaling (see the rescale module).
Objective 2 is (0, lambda, 1), unique up to rotation; its B/A = sigma_i is
the `symmetric-matching` rescaling of objective 1.

A full-batch gradient-descent oracle checks both on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import Spectrum, as_matrix, spectrum

OBJECTIVE_PRODUCT_REG = 1
OBJECTIVE_SPLIT_REG = 2


@dataclass(frozen=True)
class EmbeddingPair:
    """Fitted factor pair (A, B) plus the training metadata needed downstream."""

    A: np.ndarray          # (p, k) item-side map; user embeddings are rows of X @ A
    B: np.ndarray          # (p, k) item embeddings as rows
    lam: float
    rank: int
    objective: int         # OBJECTIVE_PRODUCT_REG (1) or OBJECTIVE_SPLIT_REG (2)
    sigma: np.ndarray      # top-k singular values of the training matrix

    def __post_init__(self):
        if self.A.ndim != 2 or self.A.shape != self.B.shape:
            raise ValueError(f"factor shapes differ: A {self.A.shape}, "
                             f"B {self.B.shape}")
        if self.A.shape[1] != self.rank:
            raise ValueError(f"factors have {self.A.shape[1]} columns, "
                             f"rank is {self.rank}")
        if type(self.objective) is not int or self.objective not in (1, 2):
            raise ValueError(f"objective must be the int 1 or 2, "
                             f"got {self.objective!r}")

    @property
    def effective_rank(self) -> int:
        """Nonzero columns of B after shrinkage; a gauge keeps them."""
        return int(np.count_nonzero(self.B.any(axis=0)))

    @property
    def degenerate(self) -> bool:
        """At most one dimension left: every cosine is +-1 or undefined."""
        return self.effective_rank <= 1

    def degeneracy(self) -> dict:
        """The keys that every record of this pair's entry carries."""
        return {"effective_rank": self.effective_rank,
                "degenerate": self.degenerate}


def _closed_form(X, k: int, lam: float, objective: int) -> EmbeddingPair:
    """The minimizer of the module docstring from the top k dimensions of X,
    given as a matrix or as its Spectrum; validates k and lambda."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    spec = X if isinstance(X, Spectrum) else spectrum(X)
    s, v = spec.top(k)
    lam_p, lam_s, e = ((lam, 0.0, 0) if objective == OBJECTIVE_PRODUCT_REG
                       else (0.0, lam, 1))
    pos = s > 0
    safe = np.where(pos, s, 1.0)
    m = np.where(pos, np.maximum(0.0, 1.0 - lam_s / safe)
                 / (1.0 + lam_p / safe ** 2), 0.0)
    A, B = v * np.sqrt(m / safe ** e), v * np.sqrt(m * safe ** e)
    return EmbeddingPair(A, B, lam, k, objective, s.copy())


def solve_objective1(X, k: int, lam: float) -> EmbeddingPair:
    """Objective 1's minimizer with A = B; X is the training matrix or its
    `Spectrum`."""
    return _closed_form(X, k, lam, OBJECTIVE_PRODUCT_REG)


def solve_objective2(X, k: int, lam: float) -> EmbeddingPair:
    """Objective 2's minimizer (unique up to rotation); X is the training
    matrix or its `Spectrum`."""
    return _closed_form(X, k, lam, OBJECTIVE_SPLIT_REG)


def objective1_loss(X, A, B, lam: float) -> float:
    X, A, B = as_matrix(X), as_matrix(A), as_matrix(B)
    M = A @ B.T
    r = X - X @ M
    return float(np.sum(r * r) + lam * np.sum(M * M))


def objective2_loss(X, A, B, lam: float) -> float:
    X, A, B = as_matrix(X), as_matrix(A), as_matrix(B)
    XA = X @ A
    r = X - XA @ B.T
    return float(np.sum(r * r) + lam * (np.sum(XA * XA) + np.sum(B * B)))


def predicted_scores(X, pair: EmbeddingPair) -> np.ndarray:
    """Score matrix X @ A @ B^T; invariant under diagonal rescaling and rotation."""
    X = as_matrix(X)
    return (X @ pair.A) @ pair.B.T


def objective1_gradients(X, A, B, lam: float) -> tuple[np.ndarray, np.ndarray]:
    M = A @ B.T
    G = -2.0 * X.T @ (X - X @ M) + 2.0 * lam * M
    return G @ B, G.T @ A


def objective2_gradients(X, A, B, lam: float) -> tuple[np.ndarray, np.ndarray]:
    XA = X @ A
    r = X - XA @ B.T
    gA = -2.0 * X.T @ (r @ B) + 2.0 * lam * (X.T @ XA)
    gB = -2.0 * r.T @ XA + 2.0 * lam * B
    return gA, gB


_LOSSES = {OBJECTIVE_PRODUCT_REG: objective1_loss, OBJECTIVE_SPLIT_REG: objective2_loss}
_GRADS = {OBJECTIVE_PRODUCT_REG: objective1_gradients,
          OBJECTIVE_SPLIT_REG: objective2_gradients}


def gradient_descent_oracle(X, k: int, lam: float, objective: int) -> EmbeddingPair:
    """Independent full-batch gradient-descent check of either closed form.

    Intended for small instances only (n, p <= 50). It starts from seeded
    factors of scale 0.01 and a step of 1e-3. The step grows by half after
    each accepted update and is halved whenever a candidate update would
    increase the loss; iteration stops after 200 000 updates, or once the
    relative loss improvement over a 100-step window falls below 1e-13.
    """
    if objective not in _LOSSES:
        raise ValueError(f"unknown objective {objective!r}")
    X = as_matrix(X)
    sigma, _ = spectrum(X).top(k)
    loss_fn, grad_fn = _LOSSES[objective], _GRADS[objective]
    rng = np.random.default_rng(0)
    p = X.shape[1]
    A = 0.01 * rng.standard_normal((p, k))
    B = 0.01 * rng.standard_normal((p, k))

    loss = window_loss = loss_fn(X, A, B, lam)
    step = 1e-3
    for it in range(200_000):
        gA, gB = grad_fn(X, A, B, lam)
        while True:
            cand_A = A - step * gA
            cand_B = B - step * gB
            cand_loss = loss_fn(X, cand_A, cand_B, lam)
            if np.isfinite(cand_loss) and cand_loss <= loss:
                break
            step *= 0.5
            if step < 1e-18:
                if not np.isfinite(cand_loss):
                    raise FloatingPointError(
                        f"gradient descent diverged; last finite loss {loss}")
                cand_A, cand_B, cand_loss = A, B, loss
                break
        A, B, loss = cand_A, cand_B, cand_loss
        step *= 1.5
        if it % 100 == 99:
            if window_loss - loss <= 1e-13 * max(1.0, abs(loss)):
                break
            window_loss = loss

    return EmbeddingPair(A=A, B=B, lam=lam, rank=k, objective=objective,
                         sigma=sigma)
