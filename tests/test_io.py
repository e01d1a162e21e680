import numpy as np
import pytest

from cosine_audit.io_utils import (config_hash, read_embedding_pair,
                                   read_matrix_csv, write_embedding_pair,
                                   write_matrix_csv, write_pgm,
                                   write_similarity)
from cosine_audit.mf_solvers import solve_objective1
from cosine_audit.similarity import SimilarityMatrix


def test_matrix_csv_round_trip(tmp_path, rng):
    m = rng.standard_normal((7, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert np.array_equal(read_matrix_csv(path), m)
    # no header, comma separated
    first = path.read_text().splitlines()[0]
    assert len(first.split(",")) == 4


def test_matrix_csv_single_row(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix_csv(path, np.array([1.0, 2.5]))
    assert read_matrix_csv(path).shape == (1, 2)


def per_element_csv(m):
    """The original writer, one formatted element at a time."""
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in np.atleast_2d(m)).encode()


@pytest.mark.parametrize("m", [
    (np.random.default_rng(1).random((40, 25)) < 0.1).astype(float),
    np.array([[0.0, 1.0, -0.0], [1.0, 1e-300, 1e17], [-2.5, 0.1, 1.0]]),
    np.array([[0.0, -0.0], [1.0, 0.0]]),
    np.random.default_rng(2).standard_normal((6, 9)),
    np.zeros((3, 4)),
], ids=["binary", "mixed", "negative_zero", "gaussian", "zeros"])
def test_matrix_csv_bytes_match_per_element_writer(tmp_path, m):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_bytes() == per_element_csv(m)


def test_matrix_csv_empty(tmp_path):
    path = tmp_path / "e.csv"
    write_matrix_csv(path, np.zeros((0, 0)))
    assert path.read_bytes() == b""


def test_pgm_bytes_match_per_element_writer(tmp_path):
    v = np.random.default_rng(3).uniform(-1.2, 1.2, (30, 17))
    path = tmp_path / "h.pgm"
    write_pgm(path, v, -1.0, 1.0)
    gray = np.clip(np.rint((v + 1.0) / 2.0 * 255.0), 0, 255).astype(int)
    want = "P2\n17 30\n255\n" + "".join(
        " ".join(str(x) for x in row) + "\n" for row in gray)
    assert path.read_bytes() == want.encode()


def test_pgm_plain_format(tmp_path):
    path = tmp_path / "h.pgm"
    write_pgm(path, np.array([[-1.0, 0.0], [0.5, 1.0]]), -1.0, 1.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    assert lines[3].split() == ["0", "128"]
    assert lines[4].split() == ["191", "255"]


def test_embedding_pair_round_trip(tmp_path, rng):
    pair = solve_objective1(rng.standard_normal((8, 5)), 3, 2.0)
    write_embedding_pair(tmp_path / "pair", pair)
    back = read_embedding_pair(tmp_path / "pair")
    assert np.array_equal(back.A, pair.A)
    assert np.array_equal(back.B, pair.B)
    assert back.lam == pair.lam
    assert back.rank == pair.rank
    assert back.objective == pair.objective
    assert np.array_equal(back.sigma, pair.sigma)


def test_similarity_export_with_sidecar(tmp_path, rng):
    sim = SimilarityMatrix(values=rng.uniform(-1, 1, (4, 4)),
                           kind="item-item", metric="cosine")
    write_similarity(tmp_path, "s", sim, provenance={"lambda": 1.0})
    assert (tmp_path / "s.csv").exists()
    assert (tmp_path / "s.pgm").exists()
    import json
    sidecar = json.loads((tmp_path / "s.json").read_text())
    assert sidecar["kind"] == "item-item"
    assert sidecar["heatmap_range"] == [-1.0, 1.0]
    assert sidecar["provenance"]["lambda"] == 1.0


def test_config_hash_stable_and_order_free():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
