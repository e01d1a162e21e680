"""Matrix primitives: binary rows held as CSR, the spectrum of X, truncated
SVD, row normalization, cosine of rows.

Matrices are plain float64 numpy arrays, except a 0/1 interaction matrix,
which `BinaryRows` holds as the column indices of its ones: its `gram`
counts X^T X from those indices, and `as_matrix` densifies it where its
rows are multiplied. X is decomposed only by `Spectrum.of_gram`; `svd`,
the plain triple (U, sigma, V) of a dense matrix, is the reference it is
tested against. Tolerance conventions used throughout the package:
1e-12 for exact algebraic identities on small matrices, 1e-8 for
orthonormality, 1e-6 for identities that flow through a full SVD at desk
scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ZeroRowError

# A row counts as zero when its norm is below ZERO_NORM_RELATIVE times the
# largest row norm of its matrix, or below ZERO_NORM_THRESHOLD outright.
ZERO_NORM_THRESHOLD = 1e-300
ZERO_NORM_RELATIVE = 1e-12
# Eigenvalues of X^T X below GRAM_RANK_FACTOR * max(n, p) * eps times the
# largest are rounding noise: forming the Gram squares the condition number,
# so a true zero singular value comes back near sqrt(max(n, p) * eps) * sigma_1.
GRAM_RANK_FACTOR = 10.0
# (column, column) pairs counted per chunk of BinaryRows.gram, which keeps
# its index temporaries to about 1 MB
GRAM_PAIRS_PER_CHUNK = 1 << 15


@dataclass(frozen=True)
class BinaryRows:
    """An n x p matrix of 0s and 1s as CSR without values: the ones of row
    i sit in columns ``indices[indptr[i]:indptr[i + 1]]``, ascending."""

    indptr: np.ndarray   # (n + 1,) int64, from 0 to nnz
    indices: np.ndarray  # (nnz,) int64 column indices
    shape: tuple[int, int]

    def __post_init__(self):
        n, p = self.shape
        ptr = np.asarray(self.indptr, dtype=np.int64)
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", ptr)
        object.__setattr__(self, "indices", idx)
        if n < 1 or p < 1:
            raise ValueError(f"expected a 2-D matrix, got shape {self.shape}")
        if (ptr.shape != (n + 1,) or ptr[0] != 0 or ptr[-1] != idx.shape[0]
                or np.any(np.diff(ptr) < 0)):
            raise ValueError(f"indptr does not delimit {n} rows of "
                             f"{idx.shape[0]} indices")
        if idx.size and (idx.min() < 0 or idx.max() >= p):
            raise ValueError(f"column index out of range [0, {p})")

    @property
    def items_per_user(self) -> np.ndarray:
        """(n,) the number of ones of each row."""
        return np.diff(self.indptr)

    @property
    def matrix(self) -> np.ndarray:
        """The dense (n, p) 0/1 float64 matrix, `dense()`; perfbench's
        reference solve reads it."""
        return self.dense()

    def dense(self, lo: int = 0, hi: int | None = None,
              dtype=np.float64) -> np.ndarray:
        """Rows lo:hi as a dense array of 0s and 1s."""
        lo, hi, _ = slice(lo, hi).indices(self.shape[0])
        hi = max(hi, lo)
        out = np.zeros((hi - lo, self.shape[1]), dtype=dtype)
        out[np.repeat(np.arange(hi - lo), self.items_per_user[lo:hi]),
            self.indices[self.indptr[lo]:self.indptr[hi]]] = 1
        return out

    def __array__(self, dtype=None, copy=None):
        return self.dense(dtype=np.float64 if dtype is None else dtype)

    def gram(self) -> np.ndarray:
        """X^T X as float64: entry (i, j) counts the rows holding both i and j.

        Each one pairs with every one of its row; the pairs are counted a
        chunk at a time, straight into float64: every count is an integer
        below 2^53, exact as the dense product's partial sums are.
        """
        p, nnz = self.shape[1], self.indices.shape[0]
        lengths = self.items_per_user
        per_one = np.repeat(lengths, lengths)  # pairs of each one of X
        row_start = np.repeat(self.indptr[:-1], lengths)
        first = np.cumsum(per_one) - per_one  # index of each one's first pair
        # chunks of ones whose first pairs fall in one budget-sized range
        bounds = np.unique(np.append(np.searchsorted(
            first, np.arange(0, per_one.sum(), GRAM_PAIRS_PER_CHUNK)), nnz))
        counts = np.zeros(p * p)
        for a, b in zip(bounds[:-1], bounds[1:]):
            k = per_one[a:b]
            within = np.arange(k.sum()) - np.repeat(first[a:b] - first[a], k)
            pairs = np.repeat(self.indices[a:b] * p, k)
            pairs += self.indices[np.repeat(row_start[a:b], k) + within]
            np.add.at(counts, pairs, 1.0)  # an int 1 runs 6x slower
        return counts.reshape(p, p)


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class Spectrum:
    """Singular values and right singular vectors of an n x p matrix X.

    `singular_values` holds the top k, descending, each one whose square is
    Gram rounding noise (GRAM_RANK_FACTOR) set to exactly 0; `right` holds
    the matching columns of V, signed as by `svd`. k is min(n, p) from
    `of_gram`, or only a plan's largest rank. Both closed forms need no more.
    """

    singular_values: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.singular_values))

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(sigma, V) of the top k dimensions; warns when some sigma are 0."""
        if not 1 <= k <= self.singular_values.shape[0]:
            raise ValueError(f"rank k={k} out of range "
                             f"[1, {self.singular_values.shape[0]}]")
        s = self.singular_values[:k]
        n_zero = k - int(np.count_nonzero(s))
        if n_zero:
            warnings.warn(
                f"{n_zero} of the top {k} singular values are zero; "
                "the corresponding embedding dimensions are zero-padded",
                RuntimeWarning, stacklevel=2)
        return s, self.right[:, :k]

    @classmethod
    def of_gram(cls, gram: np.ndarray, n: int) -> "Spectrum":
        """The spectrum of an n-row matrix X from its p x p Gram X^T X."""
        p = gram.shape[0]
        w, v = np.linalg.eigh(gram)
        r = min(n, p)
        w, v = w[::-1][:r], v[:, ::-1][:, :r]
        cut = max(w[0], 0.0) * max(n, p) * np.finfo(np.float64).eps * GRAM_RANK_FACTOR
        s = np.where(w > cut, np.sqrt(np.maximum(w, 0.0)), 0.0)
        return cls(singular_values=s, right=v * _fix_signs(v))


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its entry of largest magnitude is positive."""
    anchor = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[anchor, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def spectrum(m) -> Spectrum:
    """Spectrum of m from the eigendecomposition of the p x p Gram m^T m.

    Costs one Gram and one p x p eigh instead of an n x p SVD, and never
    forms the n x p left factor. m is a dense matrix or `BinaryRows`, whose
    Gram is formed from its indices without the dense n x p matrix.
    """
    if isinstance(m, BinaryRows):
        return Spectrum.of_gram(m.gram(), m.shape[0])
    m = as_matrix(m)
    return Spectrum.of_gram(m.T @ m, m.shape[0])


def svd(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-r truncated SVD (U, sigma, V) with m ~= (U * sigma) @ V.T.

    Columns of U and V are orthonormal; sigma is sorted descending. The
    sign of each singular-vector pair is flipped so that the entry of
    largest magnitude in each right singular vector is positive, making the
    factors reproducible across runs and platforms.
    """
    m = as_matrix(m)
    n, p = m.shape
    if not 1 <= r <= min(n, p):
        raise ValueError(f"rank r={r} out of range [1, {min(n, p)}]")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    u, s, vt = u[:, :r], s[:r], vt[:r, :]
    v = vt.T
    # sign convention keyed on the right singular vectors
    signs = _fix_signs(v)
    return u * signs, s, v * signs


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(m, axis=1)


def normalize_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero rows of m scaled to unit Euclidean norm, and the indices
    of the zero rows, which the first array leaves out.

    This is the one place that decides which rows are zero, by the two
    ZERO_NORM bounds above. An embedding row of an item nobody interacted
    with comes out of the spectrum at rounding level (~1e-32), not at 0;
    its unit-normalised cosines would be noise.
    """
    m = as_matrix(m)
    norms = row_norms(m)
    keep = norms >= max(norms.max() * ZERO_NORM_RELATIVE, ZERO_NORM_THRESHOLD)
    zero = np.flatnonzero(~keep)
    if zero.size:
        m, norms = m[keep], norms[keep]
    return m * (1.0 / norms)[:, None], zero


def cosine_of_rows(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between the rows of m1 and the rows of m2.

    Raises ZeroRowError for the first zero row, as `normalize_rows`
    defines it.
    """
    (n1, z1), (n2, z2) = normalize_rows(m1), normalize_rows(m2)
    if n1.shape[1] != n2.shape[1]:
        raise ValueError(f"column mismatch: {n1.shape[1]} vs {n2.shape[1]}")
    if z1.size or z2.size:
        raise ZeroRowError(int((z1 if z1.size else z2)[0]))
    return n1 @ n2.T
