"""File formats: matrix CSV, plain PGM heatmaps, embedding-pair directories.

All numeric text output uses 17 significant digits so round-trips are exact
for float64 and reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .matrix_core import as_matrix
from .mf_solvers import EmbeddingPair
from .similarity import SimilarityMatrix

FLOAT_FMT = "%.17g"
# gray level -> its decimal text, for the PGM writer
_GRAY_TEXT = [str(i) for i in range(256)]


def _binary_csv(m: np.ndarray) -> bytes | None:
    """CSV bytes of a matrix whose entries are all +0.0 or 1.0, else None.

    FLOAT_FMT prints those as "0" and "1", so each row is one digit per
    entry between commas. -0.0 prints "-0" and takes the general path.
    """
    if m.size == 0 or not (np.all((m == 0.0) | (m == 1.0))
                           and not np.signbit(m).any()):
        return None
    n, p = m.shape
    buf = np.full((n, 2 * p), ord(","), dtype=np.uint8)
    buf[:, 0::2] = (m == 1.0).view(np.uint8) + np.uint8(ord("0"))
    buf[:, -1] = ord("\n")
    return buf.tobytes()


def write_matrix_csv(path, m: np.ndarray) -> None:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    data = _binary_csv(m)
    if data is not None:
        with open(path, "wb") as f:
            f.write(data)
        return
    line = ",".join([FLOAT_FMT] * m.shape[1]) + "\n"
    with open(path, "w", newline="\n") as f:
        for row in m:
            f.write(line % tuple(row.tolist()))


def read_matrix_csv(path) -> np.ndarray:
    return as_matrix(np.loadtxt(path, delimiter=",", ndmin=2))


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path):
    with open(path) as f:
        return json.load(f)


def write_pgm(path, values: np.ndarray, lo: float, hi: float) -> None:
    """Plain (P2) PGM: values mapped linearly from [lo, hi] to gray 0..255."""
    v = np.asarray(values, dtype=np.float64)
    if hi <= lo:
        hi = lo + 1.0
    gray = np.clip(np.rint((v - lo) / (hi - lo) * 255.0), 0, 255).astype(int)
    h, w = gray.shape
    with open(path, "w", newline="\n") as f:
        f.write(f"P2\n{w} {h}\n255\n")
        for row in gray:
            f.write(" ".join([_GRAY_TEXT[x] for x in row.tolist()]))
            f.write("\n")


def write_similarity(out_dir, name: str, sim: SimilarityMatrix,
                     provenance: dict, heatmap: bool = True) -> None:
    """Similarity CSV + sidecar JSON (+ optional PGM heatmap)."""
    out_dir = Path(out_dir)
    write_matrix_csv(out_dir / f"{name}.csv", sim.values)
    if sim.metric == "cosine":
        lo, hi = -1.0, 1.0
    else:
        lo, hi = float(sim.values.min()), float(sim.values.max())
    sidecar = {
        "kind": sim.kind,
        "metric": sim.metric,
        "excluded_rows": list(sim.excluded_rows),
        "excluded_cols": list(sim.excluded_cols),
        "heatmap_range": [lo, hi],
        "provenance": provenance,
    }
    write_json(out_dir / f"{name}.json", sidecar)
    if heatmap:
        write_pgm(out_dir / f"{name}.pgm", sim.values, lo, hi)


def write_embedding_pair(out_dir, pair: EmbeddingPair) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "A.csv", pair.A)
    write_matrix_csv(out_dir / "B.csv", pair.B)
    write_json(out_dir / "meta.json", {
        "lambda": pair.lam, "rank": pair.rank, "objective": pair.objective,
        "sigma": pair.sigma.tolist(),
    })


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
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(out_dir, config: dict, seed: int, version: str) -> None:
    write_json(Path(out_dir) / "manifest.json", {
        "config_sha256": config_hash(config),
        "seed": seed,
        "version": version,
    })
