"""Regularized matrix-factorization embeddings and their cosine-similarity
pathologies: closed-form solvers, the diagonal rescaling gauge, similarity
audits on simulated clustered data, and remedies."""

__version__ = "0.1.0"
