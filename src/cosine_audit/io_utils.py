"""File formats: matrix CSV, binary PGM heatmaps, embedding-pair directories.

All numeric text output uses 17 significant digits so round-trips are exact
for float64 and reruns are byte-identical.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .matrix_core import BinaryRows, as_matrix
from .mf_solvers import EmbeddingPair
from .similarity import SimilarityMatrix
from .synthgen import SAMPLER

FLOAT_FMT = "%.17g"
# Matrices are formatted this many rows at a time, so an export adds only
# a few blocks' worth of memory to the caller's.
_BLOCK_ROWS = 16
# rows per block when writing a 0/1 matrix as text
_BINARY_BLOCK_ROWS = 256
# bytes per formatted CSV value: an 8-byte prefix (sign, "0.", leading
# zeros, first digit), 16 more digits, the separator, padding
_CELL = 32
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into 26-bit halves


@functools.cache
def _kernel_tables() -> dict:
    """Lookup tables of the CSV kernel, built on first use."""
    pow10 = np.array([float(10 ** k) for k in range(23)])  # exact to 10^22
    big = pow10 * _SPLIT
    pow10_hi = big - (big - pow10)

    g = np.arange(10_000)
    text = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    group = (text + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    group_tz = sum((g % 10 ** j == 0).astype(np.int64) for j in range(1, 5))

    # heads[(sign * 21 + d + 4) * 10 + first digit]: the text of a value
    # with decimal exponent d up to its first digit (and its "." when
    # d = 0), right-aligned in 8 bytes of "." fill. When d >= 1, shift[d]
    # moves the first d + 1 digits left over the fill byte before them and
    # puts a "." after them.
    heads = ["-" * sign + ("0." + "0" * (-d - 1) + str(first) if d < 0
                           else str(first) + "." if d == 0
                           else "." + str(first))
             for sign in (0, 1) for d in range(-4, 17) for first in range(10)]
    col = np.arange(_CELL)
    shift = np.tile(col, (17, 1))
    for d in range(17):
        shift[d, 6:7 + d] = np.arange(7, 8 + d)
        shift[d, 7 + d] = 0  # a "." fill byte

    return {
        "pow10": pow10, "pow10_hi": pow10_hi, "pow10_lo": pow10 - pow10_hi,
        "group": group, "group_tz": group_tz,
        "prefix": np.array([h.rjust(8, ".") for h in heads],
                           dtype="S8").view(np.uint64),
        "start": np.array([8 - len(h) for h in heads]), "shift": shift,
        # keep[start * _CELL + end]: which bytes of a cell hold its token
        # and separator
        "keep": ((col >= np.arange(8)[:, None, None])
                 & (col <= col[:, None])).reshape(-1, _CELL).view(np.uint64),
    }


def _scaled(a: np.ndarray, d: np.ndarray, t: dict):
    """a * 10^(16 - d) as an exact double-double (hi, lo): Dekker's product."""
    e = 16 - d
    p, p_hi, p_lo = (np.take(t[k], e) for k in ("pow10", "pow10_hi", "pow10_lo"))
    hi = a * p
    big = a * _SPLIT
    a_hi = big - (big - a)
    a_lo = a - a_hi
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _csv_block(block: np.ndarray) -> bytes:
    """CSV bytes of a 2-D float64 block, equal to FLOAT_FMT per value.

    Values that %.17g prints in fixed notation are formatted here: their 17
    significant digits come from rounding the exact product |x| * 10^(16-d)
    half-even to an integer in [10^16, 10^17), as dtoa does. Every other
    value (zero, -0, tiny, huge, non-finite) goes through FLOAT_FMT.
    """
    t = _kernel_tables()
    rows, p = block.shape
    x = block.ravel()
    m = x.size
    a = np.abs(x)
    native = (a >= 1e-5) & (a < 1e17)
    a = np.where(native, a, 1.0)
    d = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    hi, lo = _scaled(a, d, t)
    # log10 can miss the decade by one next to a power of ten
    while True:
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        fix = np.flatnonzero(low | high)
        if not fix.size:
            break
        d[fix] += high[fix].astype(np.int64) - low[fix]
        hi[fix], lo[fix] = _scaled(a[fix], d[fix], t)
    # hi >= 10^16 > 2^53 is an even integer, so rounding lo half-even
    # rounds the exact hi + lo half-even. It never reaches 10^17: the
    # largest double below 10^(d+1), for d+1 in [-4, 17], is more than 8
    # units of the 17th digit away from it.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    native &= d >= -4  # where %.17g prints fixed notation
    d[~native] = 0
    digits[~native] = 10 ** 16

    top, g34 = np.divmod(digits, 10 ** 8)
    first, g12 = np.divmod(top, 10 ** 8)
    g1, g2 = np.divmod(g12, 10 ** 4)
    g3, g4 = np.divmod(g34, 10 ** 4)
    head = ((x < 0) * 21 + d + 4) * 10 + first  # index into the heads table
    cells = np.empty((m, _CELL // 8), dtype=np.uint64)
    cells[:, 0] = np.take(t["prefix"], head)
    words = cells.view(np.uint32)
    for col, grp in enumerate((g1, g2, g3, g4), start=2):
        words[:, col] = np.take(t["group"], grp)
    text = cells.view(np.uint8)
    wide = np.flatnonzero(d >= 1)
    if wide.size:
        text[wide] = np.take_along_axis(text[wide], t["shift"][d[wide]], axis=1)

    tz = t["group_tz"]
    zeros = np.take(tz, g4)
    more = np.flatnonzero(g4 == 0)
    if more.size:
        h1, h2, h3 = g1[more], g2[more], g3[more]
        zeros[more] += tz[h3] + (h3 == 0) * (tz[h2] + (h2 == 0) * tz[h1])
    start = np.take(t["start"], head)
    end = np.where(zeros >= 16 - d, 7 + d, 24 - zeros)

    other = np.flatnonzero(~native)
    if other.size:
        tokens = [FLOAT_FMT % v for v in x[other].tolist()]
        text[other] = (np.array(tokens, dtype=f"S{_CELL}").view(np.uint8)
                       .reshape(-1, _CELL))
        start[other] = 0
        end[other] = [len(s) for s in tokens]

    sep = np.full((rows, p), ord(","), dtype=np.uint8)
    sep[:, -1] = ord("\n")
    text.reshape(-1)[np.arange(m) * _CELL + end] = sep.ravel()
    keep = np.take(t["keep"], start * _CELL + end, axis=0).view(bool)
    return text[keep].tobytes()


def _ones_csv(ones: np.ndarray) -> bytes:
    """CSV bytes of the 0/1 block whose ones are the True entries of `ones`."""
    n, p = ones.shape
    buf = np.full((n, 2 * p), ord(","), dtype=np.uint8)
    buf[:, 0::2] = ones.view(np.uint8) + np.uint8(ord("0"))
    buf[:, -1] = ord("\n")
    return buf.tobytes()


def write_matrix_csv(path, m) -> None:
    """Comma-separated rows, each value as FLOAT_FMT prints it.

    m is a dense matrix or `BinaryRows`, written a block of dense rows at a
    time.
    """
    if isinstance(m, BinaryRows):
        with open(path, "wb") as f:
            for i in range(0, m.shape[0], _BINARY_BLOCK_ROWS):
                f.write(_ones_csv(m.dense(i, i + _BINARY_BLOCK_ROWS, dtype=bool)))
        return
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    with open(path, "wb") as f:
        if m.shape[1] == 0:
            f.write(b"\n" * m.shape[0])
            return
        for i in range(0, m.shape[0], _BLOCK_ROWS):
            f.write(_csv_block(m[i:i + _BLOCK_ROWS]))


def read_matrix_csv(path) -> np.ndarray:
    """The float64 matrix in a CSV file."""
    return as_matrix(np.loadtxt(path, delimiter=",", ndmin=2))


def write_json(path, obj) -> None:
    # one write of the whole text: json.dump writes each token on its own
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w", newline="\n") as f:
        f.write(text + "\n")


def _unique_keys(pairs: list) -> dict:
    keys = [k for k, _ in pairs]
    for i, k in enumerate(keys):
        if k in keys[:i]:
            raise ValueError(f"key {k!r} given twice")
    return dict(pairs)


def read_json(path):
    """The value in a JSON file; an object that gives a key twice raises
    ValueError, as json.load would keep the last value silently."""
    with open(path) as f:
        return json.load(f, object_pairs_hook=_unique_keys)


def write_pgm(path, values: np.ndarray, lo: float, hi: float) -> None:
    """Binary (P5) PGM: values mapped linearly from [lo, hi] to gray 0..255,
    one byte per pixel; lo < hi.

    values may have any real dtype and memory layout: each block of rows is
    taken as C-ordered float64, so no float64 copy of the whole is made."""
    v = np.asarray(values)
    h, w = v.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        for i in range(0, h, _BLOCK_ROWS):
            block = np.ascontiguousarray(v[i:i + _BLOCK_ROWS], dtype=np.float64)
            f.write(np.clip(np.rint((block - lo) / (hi - lo) * 255.0),
                            0, 255).astype(np.uint8).tobytes())


def write_similarity(out_dir, name: str, sim: SimilarityMatrix,
                     provenance: dict) -> None:
    """Similarity CSV + sidecar JSON + PGM heatmap."""
    csv_path, json_path, pgm_path = (Path(out_dir) / (name + suffix)
                                     for suffix in (".csv", ".json", ".pgm"))
    write_matrix_csv(csv_path, sim.values)
    if sim.metric == "cosine":
        lo, hi = -1.0, 1.0
    else:  # a constant matrix maps from [lo, lo + 1], all black
        lo, hi = float(sim.values.min()), float(sim.values.max())
        hi = hi if hi > lo else lo + 1.0
    sidecar = {
        "kind": sim.kind,
        "metric": sim.metric,
        "excluded_rows": list(sim.excluded_rows),
        "excluded_cols": list(sim.excluded_cols),
        "heatmap_range": [lo, hi],
        "provenance": provenance,
    }
    write_json(json_path, sidecar)
    write_pgm(pgm_path, sim.values, lo, hi)


def write_embedding_pair(out_dir, pair: EmbeddingPair, entry: dict) -> None:
    """A.csv, B.csv and meta.json: the keys of the plan entry `entry` that
    `pair` solves, family included, and its "effective_rank", "degenerate"
    and "sigma"."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "A.csv", pair.A)
    write_matrix_csv(out_dir / "B.csv", pair.B)
    write_json(out_dir / "meta.json", {**entry, **pair.degeneracy(),
                                       "sigma": pair.sigma.tolist()})


def read_embedding_pair(in_dir) -> EmbeddingPair:
    in_dir = Path(in_dir)
    meta = read_json(in_dir / "meta.json")
    return EmbeddingPair(
        A=read_matrix_csv(in_dir / "A.csv"),
        B=read_matrix_csv(in_dir / "B.csv"),
        lam=float(meta["lambda"]), rank=int(meta["rank"]),
        objective=meta["objective"],
        sigma=np.asarray(meta["sigma"], dtype=np.float64),
    )


def config_hash(config: dict) -> str:
    import hashlib  # here: its 3.5 MB of OpenSSL would sit under audit's eigh
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(out_dir, config: dict, seed: int, version: str,
                   files: list[str]) -> None:
    # the numpy and BLAS that computed the outputs: another BLAS, or another
    # build of one, may change their last digits
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    write_json(Path(out_dir) / "manifest.json", {
        "config_sha256": config_hash(config),
        "seed": seed,
        "sampler": SAMPLER,
        "version": version,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "config": config,
        "files": files,
    })
