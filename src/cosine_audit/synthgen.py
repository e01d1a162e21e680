"""Synthetic user-item interaction generator with known item clusters.

Items belong to one of C clusters; each cluster gets a power-law popularity
profile, users get Dirichlet cluster preferences, and each user samples a
power-law-distributed number of items without replacement.

Determinism contract: all randomness flows from a single 64-bit seed through
named child streams spawned in a fixed order
(clusters -> exponents -> popularities -> prefs -> activity -> picks),
so identical configs reproduce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_section
from .matrix_core import BinaryRows

MIN_ITEMS_PER_USER = 5
DIRICHLET_CONCENTRATION = 0.5
# users per block of sample_interactions' weight and Gumbel-key arrays
_USER_BLOCK = 1_000

_STREAMS = ("clusters", "exponents", "popularities", "prefs", "activity", "picks")

# the JSON type of each key of the config's "sim" section
SIM_KEYS = {"n": "an integer", "p": "an integer", "C": "an integer",
            "cluster_probs": "a list of numbers", "beta_item_min": "a number",
            "beta_item_max": "a number", "beta_user": "a number",
            "seed": "an integer"}


@dataclass(frozen=True)
class SimConfig:
    n: int
    p: int
    C: int
    cluster_probs: tuple[float, ...]
    beta_item_min: float = 0.25
    beta_item_max: float = 1.5
    beta_user: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("n", "must be >= 1")
        if self.p < 1:
            raise ConfigError("p", "must be >= 1")
        if self.C < 1:
            raise ConfigError("C", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
        probs = np.asarray(self.cluster_probs, dtype=np.float64)
        if probs.shape != (self.C,):
            raise ConfigError("cluster_probs", f"must have length C={self.C}")
        if (not np.all(np.isfinite(probs)) or np.any(probs < 0)
                or abs(probs.sum() - 1.0) > 1e-9):
            raise ConfigError("cluster_probs",
                              "must be finite, nonnegative and sum to 1")
        for key in ("beta_item_min", "beta_item_max", "beta_user"):
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(key, "must be finite")
        if self.beta_item_min > self.beta_item_max:
            raise ConfigError("beta_item_min", "must be <= beta_item_max")

    @classmethod
    def uniform_clusters(cls, n: int, p: int, C: int, **kw) -> "SimConfig":
        return cls(n=n, p=p, C=C, cluster_probs=tuple([1.0 / C] * C), **kw)

    @classmethod
    def from_dict(cls, raw: dict) -> "SimConfig":
        """The SimConfig the `sim` section `raw` describes; every key of
        SIM_KEYS is required."""
        check_section(raw, "sim", SIM_KEYS, required=SIM_KEYS)
        return cls(n=raw["n"], p=raw["p"], C=raw["C"],
                   cluster_probs=tuple(map(float, raw["cluster_probs"])),
                   beta_item_min=float(raw["beta_item_min"]),
                   beta_item_max=float(raw["beta_item_max"]),
                   beta_user=float(raw["beta_user"]), seed=raw["seed"])

    def to_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "C": self.C,
            "cluster_probs": list(self.cluster_probs),
            "beta_item_min": self.beta_item_min,
            "beta_item_max": self.beta_item_max,
            "beta_user": self.beta_user, "seed": self.seed,
        }


@dataclass(frozen=True)
class GroundTruth:
    item_cluster: np.ndarray       # (p,) ints in [0, C)
    item_popularity: np.ndarray    # (p,) positive reals
    cluster_exponents: np.ndarray  # (C,)
    user_prefs: np.ndarray         # (n, C), rows sum to 1

    def to_dict(self) -> dict:
        return {
            "item_cluster": self.item_cluster.tolist(),
            "item_popularity": self.item_popularity.tolist(),
            "cluster_exponents": self.cluster_exponents.tolist(),
            "user_prefs": self.user_prefs.tolist(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "GroundTruth":
        return cls(
            item_cluster=np.asarray(raw["item_cluster"], dtype=np.int64),
            item_popularity=np.asarray(raw["item_popularity"], dtype=np.float64),
            cluster_exponents=np.asarray(raw["cluster_exponents"], dtype=np.float64),
            user_prefs=np.asarray(raw["user_prefs"], dtype=np.float64),
        )


@dataclass(frozen=True)
class InteractionSample:
    rows: BinaryRows            # (n, p) binary interactions
    items_per_user: np.ndarray  # (n,) ints: the ones in each row

    def __post_init__(self):
        n = self.rows.shape[0]
        if self.items_per_user.shape != (n,):
            raise ValueError(f"{n} matrix rows but "
                             f"{self.items_per_user.shape[0]} user counts")
        if np.any(np.diff(self.rows.indptr) != self.items_per_user):
            raise ValueError("user counts differ from the ones in their rows")

    @property
    def matrix(self) -> np.ndarray:
        """The dense (n, p) 0/1 float64 matrix."""
        return self.rows.dense()


def _streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(ss) for name, ss in zip(_STREAMS, children)}


def sample_ground_truth(config: SimConfig) -> GroundTruth:
    rng = _streams(config.seed)
    probs = np.asarray(config.cluster_probs, dtype=np.float64)
    probs = probs / probs.sum()
    item_cluster = rng["clusters"].choice(config.C, size=config.p, p=probs)
    exponents = rng["exponents"].uniform(
        config.beta_item_min, config.beta_item_max, size=config.C)

    # Zipf-style popularity: within each cluster, items get rank 1..m in
    # generation order and p_i proportional to rank^(-beta_c).
    popularity = np.empty(config.p, dtype=np.float64)
    for c in range(config.C):
        members = np.flatnonzero(item_cluster == c)
        ranks = np.arange(1, members.size + 1, dtype=np.float64)
        popularity[members] = ranks ** (-exponents[c])

    prefs = rng["prefs"].dirichlet(
        np.full(config.C, DIRICHLET_CONCENTRATION), size=config.n)
    prefs = prefs / prefs.sum(axis=1, keepdims=True)
    return GroundTruth(item_cluster=item_cluster, item_popularity=popularity,
                       cluster_exponents=exponents, user_prefs=prefs)


def user_item_probabilities(gt: GroundTruth, user: int) -> np.ndarray:
    """Probability of user picking each item: prefs[cluster] * popularity, normalized."""
    if not 0 <= user < gt.user_prefs.shape[0]:
        raise IndexError(f"user {user} out of range")
    w = gt.user_prefs[user, gt.item_cluster] * gt.item_popularity
    return w / w.sum()


def _items_per_user(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Bounded-Pareto activity: k_u = round(k_min * u^(-beta)), clamped.

    beta_user = 0.5 is non-normalizable on unbounded support, so both ends
    are clamped: [k_min, p/2] with k_min = min(5, p).
    """
    k_min = min(MIN_ITEMS_PER_USER, config.p)
    k_max = max(k_min, config.p // 2)
    u = rng.random(config.n)
    k = np.rint(k_min * u ** (-config.beta_user))
    return np.clip(k, k_min, k_max).astype(np.int64)


def sample_interactions(config: SimConfig) -> tuple[InteractionSample, GroundTruth]:
    gt = sample_ground_truth(config)
    rng = _streams(config.seed)
    k_u = _items_per_user(config, rng["activity"])

    # Weighted sampling without replacement via Gumbel top-k: adding i.i.d.
    # Gumbel noise to log-weights and keeping the k largest keys draws k
    # distinct items with the sequential-renormalization probabilities.
    # Users go in blocks so no n x p temporary exists; a (B, p) Gumbel draw
    # is the same stream as B draws of size p. Each block takes the top k of
    # all its users with the same k in one argpartition.
    picks_rng = rng["picks"]
    # reused by every block: a fresh array of this size would be
    # page-faulted in anew each time
    keys_buf = np.empty((min(config.n, _USER_BLOCK), config.p))
    group_buf = np.empty_like(keys_buf)
    indptr = np.zeros(config.n + 1, dtype=np.int64)
    blocks = []
    for lo in range(0, config.n, _USER_BLOCK):
        prefs = gt.user_prefs[lo:lo + _USER_BLOCK]
        keys = np.take(prefs, gt.item_cluster, axis=1,
                       out=keys_buf[:prefs.shape[0]])
        keys *= gt.item_popularity
        k_b = np.minimum(k_u[lo:lo + _USER_BLOCK],
                         np.count_nonzero(keys > 0, axis=1))
        k_u[lo:lo + _USER_BLOCK] = k_b
        with np.errstate(divide="ignore"):
            np.log(keys, out=keys)
        keys += picks_rng.gumbel(size=keys.shape)
        starts = np.concatenate(([0], np.cumsum(k_b)))
        picks = np.empty(starts[-1], dtype=np.int64)
        for k in np.unique(k_b[k_b > 0]).tolist():
            users = np.flatnonzero(k_b == k)
            group = np.take(keys, users, axis=0, out=group_buf[:users.size])
            top = np.argpartition(group, -k, axis=1)[:, -k:]
            top.sort(axis=1)
            picks[starts[users][:, None] + np.arange(k)] = top
        blocks.append(picks)
    np.cumsum(k_u, out=indptr[1:])
    rows = BinaryRows(indptr=indptr, indices=np.concatenate(blocks),
                      shape=(config.n, config.p))
    return InteractionSample(rows=rows, items_per_user=k_u), gt


def ground_truth_similarity(gt: GroundTruth) -> np.ndarray:
    """p x p indicator matrix: 1 where two items share a cluster."""
    c = gt.item_cluster
    return (c[:, None] == c[None, :]).astype(np.float64)


def figure_item_order(gt: GroundTruth) -> np.ndarray:
    """Item permutation: by cluster, then descending popularity within cluster."""
    return np.lexsort((-gt.item_popularity, gt.item_cluster))
