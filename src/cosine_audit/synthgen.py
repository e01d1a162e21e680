"""Synthetic user-item interaction generator with known item clusters.

Items belong to one of C clusters; each cluster gets a power-law popularity
profile, users get Dirichlet cluster preferences, and each user samples a
power-law-distributed number of items without replacement, by exact
successive sampling (`sample_interactions`).

Determinism contract: all randomness flows from a single 64-bit seed through
named child streams spawned in a fixed order
(clusters -> exponents -> popularities -> prefs -> activity -> picks ->
completion), so identical configs reproduce bit-identical outputs. The
sampler named by SAMPLER replaced a Gumbel top-k over every user and item:
the ground truth of a seed is unchanged, its X is not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, check_section
from .matrix_core import BinaryRows

MIN_ITEMS_PER_USER = 5
DIRICHLET_CONCENTRATION = 0.5
# users per block of sample_interactions' draws
_USER_BLOCK = 1_000
# names the sampler in every manifest.json: a directory holding an X drawn
# by another sampler is refused
SAMPLER = "successive-sampling"

# SeedSequence.spawn gives the same first children whatever their number,
# so a stream added at the end leaves the others unchanged
_STREAMS = ("clusters", "exponents", "popularities", "prefs", "activity",
            "picks", "completion")

# the JSON type of each key of the config's "sim" section, one per field of
# SimConfig in its order, and how a value of each type becomes its field
SIM_KEYS = {"n": "an integer", "p": "an integer", "C": "an integer",
            "cluster_probs": "a list of numbers", "beta_item_min": "a number",
            "beta_item_max": "a number", "beta_user": "a number",
            "seed": "an integer"}
_FIELD_VALUE = {"an integer": int, "a number": float,
                "a list of numbers": lambda v: tuple(map(float, v))}


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
        for key in ("n", "p", "C"):
            if getattr(self, key) < 1:
                raise ConfigError(key, "must be >= 1")
        # sample_interactions keys the item j of user u as u * p + j, an int64
        if self.n * self.p >= 2 ** 63:
            raise ConfigError("n", f"n * p = {self.n * self.p} must be below "
                                   "2**63, the range of the sampler's keys")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed", "must be >= 0 and below 2**64")
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
        try:
            return cls(**{key: _FIELD_VALUE[kind](raw[key])
                          for key, kind in SIM_KEYS.items()})
        except ConfigError as e:  # name the key by its path, as check_section does
            raise ConfigError(f"sim.{e.key}", e.message) from None

    def to_dict(self) -> dict:
        """The `sim` section from_dict reads back: a tuple is a JSON list."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v
                for key, v in values.items()}


@dataclass(frozen=True)
class GroundTruth:
    item_cluster: np.ndarray       # (p,) ints in [0, C)
    item_popularity: np.ndarray    # (p,) positive reals
    cluster_exponents: np.ndarray  # (C,)
    user_prefs: np.ndarray         # (n, C), rows sum to 1

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


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


def _cluster_tables(gt: GroundTruth, C: int):
    """The items grouped by cluster, ascending within each; each cluster's
    [start, end) in that order; the cumulative popularity of each cluster's
    items, restarting at its first item; and each cluster's total."""
    order = np.argsort(gt.item_cluster, kind="stable")
    ends = np.cumsum(np.bincount(gt.item_cluster, minlength=C))
    starts = np.concatenate(([0], ends[:-1]))
    cum_pop = np.empty(order.shape[0])
    for c in range(C):
        seg = slice(starts[c], ends[c])
        cum_pop[seg] = np.cumsum(gt.item_popularity[order[seg]])
    totals = np.where(ends > starts, cum_pop[ends - 1], 0.0)
    return order, starts, ends, cum_pop, totals


def sample_interactions(config: SimConfig) -> tuple[BinaryRows, GroundTruth]:
    """X and its ground truth: each user u picks k_u distinct items, with
    the successive-sampling law of the weights prefs[u, cluster] * popularity
    (each next item drawn with probability proportional to its weight among
    the items not yet picked). Zero-weight items are never picked, and k_u
    is clipped to the user's positive-weight items.

    The first k distinct items of an i.i.d. sequence drawn by weight have
    exactly that law. Each user takes 2 k_u uniforms from the picks stream
    and maps each to an item in two steps: a cluster c with probability
    proportional to prefs[u, c] * (c's total popularity), then an item of c
    by its cumulative popularity. A user whose draws hold fewer than k_u
    distinct items finishes with a Gumbel top-k over its remaining items,
    the exact conditional law, drawing p keys from the completion stream.
    The cost is O(k_u log p) per user, and O(p) for such a user only.
    """
    gt = sample_ground_truth(config)
    rng = _streams(config.seed)
    k_u = _items_per_user(config, rng["activity"])
    n, p, C = config.n, config.p, config.C
    order, starts, ends, cum_pop, totals = _cluster_tables(gt, C)
    pop = gt.item_popularity[order]
    blocks = []
    for lo in range(0, n, _USER_BLOCK):
        prefs = gt.user_prefs[lo:lo + _USER_BLOCK]
        k_b = k_u[lo:lo + _USER_BLOCK]  # a view: clipping writes to k_u
        cum_w = np.cumsum(prefs * totals, axis=1)
        total = cum_w[:, -1]
        user = np.repeat(np.arange(k_b.shape[0]), 2 * k_b)
        u = rng["picks"].random(user.shape[0])
        live = (np.isfinite(total) & (total > 0))[user]
        user, u = user[live], u[live]
        # u * total may round up to total; the double below it falls in the
        # last cluster, and then the last item, of positive width
        x = np.minimum(u * total[user], np.nextafter(total[user], 0))
        # the first cluster, and then the first item of it, whose
        # cumulative weight is above the draw
        c = np.count_nonzero(cum_w[user] <= x[:, None], axis=1)
        base = np.where(c > 0, cum_w[user, c - 1], 0.0)
        a = prefs[user, c]
        r = np.minimum((x - base) / a, np.nextafter(totals[c], 0))
        j = np.empty_like(c)
        for cl in range(C):
            mine = c == cl
            j[mine] = starts[cl] + np.searchsorted(
                cum_pop[starts[cl]:ends[cl]], r[mine], side="right")
        valid = a * pop[j] > 0  # the weight, as user_item_probabilities has it
        user = user[valid]
        keys = (lo + user) * p + order[j[valid]]

        # each user's first k_u distinct items, in draw order
        _, first = np.unique(keys, return_index=True)
        first.sort()
        owner = user[first]
        got = np.bincount(owner, minlength=k_b.shape[0])
        rank = np.arange(first.shape[0]) - (np.cumsum(got) - got)[owner]
        chosen = keys[first[rank < k_b[owner]]]
        short = np.flatnonzero(got < k_b)
        if short.size:
            chosen = np.concatenate((chosen, _complete(
                gt, lo, short, got[short], k_b, chosen, rng["completion"])))
        blocks.append(np.sort(chosen) % p)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(k_u, out=indptr[1:])
    return BinaryRows(indptr=indptr, indices=np.concatenate(blocks),
                      shape=(n, p)), gt


def _complete(gt: GroundTruth, lo: int, short: np.ndarray, got: np.ndarray,
              k_b: np.ndarray, chosen: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """The keys u * p + j of the items that finish the short users of the
    block starting at user lo (block rows `short`, holding `got` of the
    block's `chosen` keys): a Gumbel top-(k_u - got) over each one's
    positive-weight items not yet chosen. Clips k_b to what they hold."""
    p = gt.item_popularity.shape[0]
    w = gt.user_prefs[lo + short][:, gt.item_cluster] * gt.item_popularity
    row = np.full(k_b.shape[0], -1)
    row[short] = np.arange(short.shape[0])
    owner = row[chosen // p - lo]
    mine = owner >= 0
    w[owner[mine], chosen[mine] % p] = 0.0
    need = np.minimum(k_b[short] - got, np.count_nonzero(w > 0, axis=1))
    k_b[short] = got + need
    with np.errstate(divide="ignore"):
        keys = np.log(w)
    keys += rng.gumbel(size=keys.shape)
    top = np.argsort(-keys, axis=1, kind="stable")
    take = np.arange(p) < need[:, None]
    return ((lo + short)[:, None] * p + top)[take]


def ground_truth_similarity(gt: GroundTruth) -> np.ndarray:
    """p x p indicator matrix: 1 where two items share a cluster."""
    c = gt.item_cluster
    return (c[:, None] == c[None, :]).astype(np.float64)


def figure_item_order(gt: GroundTruth) -> np.ndarray:
    """Item permutation: by cluster, then descending popularity within cluster."""
    return np.lexsort((-gt.item_popularity, gt.item_cluster))
