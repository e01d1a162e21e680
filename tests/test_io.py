import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cosine_audit.cli import main
from cosine_audit.io_utils import (config_hash, read_embedding_pair,
                                   read_matrix_csv, write_embedding_pair,
                                   write_matrix_csv, write_pgm,
                                   write_similarity)
from cosine_audit.mf_solvers import solve_objective1
from cosine_audit.similarity import SimilarityMatrix
from cosine_audit.synthgen import (SimConfig, figure_item_order,
                                   ground_truth_similarity,
                                   sample_interactions)

FIGURE_CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "figure_audit.json"


def test_matrix_csv_round_trip(tmp_path, rng):
    m = rng.standard_normal((7, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert np.array_equal(read_matrix_csv(path), m)
    # no header, comma separated
    first = path.read_text().splitlines()[0]
    assert len(first.split(",")) == 4


def test_binary_rows_csv_round_trip(tmp_path):
    # 600 rows: two full row blocks and a partial one
    rows, _ = sample_interactions(SimConfig.uniform_clusters(600, 80, 5, seed=7))
    path = tmp_path / "X.csv"
    write_matrix_csv(path, rows)
    assert path.read_bytes() == per_element_csv(rows.matrix)


def test_matrix_csv_single_row(tmp_path):
    path = tmp_path / "v.csv"
    write_matrix_csv(path, np.array([1.0, 2.5]))
    assert read_matrix_csv(path).shape == (1, 2)


def per_element_csv(m):
    """The original writer, one formatted element at a time."""
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in np.atleast_2d(m)).encode()


def per_element_pgm(v, lo, hi):
    """The heatmap writer's reference: each clipped gray level as one byte."""
    if hi <= lo:
        hi = lo + 1.0
    gray = np.clip(np.rint((v - lo) / (hi - lo) * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode() + gray.tobytes()


def csv_bytes(tmp_path, m):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    return path.read_bytes()


SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, SHAPES,
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_bytes_match_reference_on_any_finite_floats(tmp_path_factory, m):
    assert csv_bytes(tmp_path_factory.mktemp("h"), m) == per_element_csv(m)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.uint64, SHAPES, elements=st.integers(0, 2**64 - 1)))
def test_csv_bytes_match_reference_on_any_bit_pattern(tmp_path_factory, bits):
    m = bits.view(np.float64)
    m = np.where(np.isfinite(m), m, 0.0)
    assert csv_bytes(tmp_path_factory.mktemp("h"), m) == per_element_csv(m)


def _edge_values():
    powers = [10.0 ** k for k in range(-6, 18)]
    near = [np.nextafter(v, t) for v in powers for t in (0.0, np.inf)]
    edges = [0.0, 5e-324, 1e-4, np.nextafter(1e-4, 0.0),
             np.nextafter(1e-4, 1.0), 9.9999999999999995e-5,
             0.99999999999999989, 1.0000000000000002, 1e16 - 2, 1e16,
             # decade 0, whose head carries its own ".": exact +-1 and [1, 10)
             1.0, -1.0, 1.5, 9.999999999999998,
             # exact decimal ties at the 18th significant digit: half-even
             # keeps an even 17th digit and rounds an odd one up
             0.100002288818359375, 0.100009918212890625,
             1125899906842624.25, 1125899906842624.75]
    return np.array(edges + powers + near)


def test_csv_edge_values_match_reference(tmp_path):
    for x in _edge_values():
        m = np.array([[x, 0.5], [-x, x]])
        assert csv_bytes(tmp_path, m) == per_element_csv(m), repr(float(x))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (15, 7), (16, 7), (17, 7),
                                   (33, 7), (40, 1)])
def test_csv_block_boundaries(tmp_path, shape):
    m = np.random.default_rng(4).uniform(-1.0, 1.0, shape)
    m.ravel()[::5] = 0.0  # values the kernel hands to FLOAT_FMT
    assert csv_bytes(tmp_path, m) == per_element_csv(m)


# (3, 0) and (0, 3): an empty map is its header alone
@pytest.mark.parametrize("shape", [(1, 1), (37, 5), (16, 3), (3, 0), (0, 3)])
def test_pgm_blocks_match_reference(tmp_path, shape):
    v = np.random.default_rng(6).uniform(-1.5, 1.5, shape)
    path = tmp_path / "h.pgm"
    write_pgm(path, v, -1.0, 1.0)
    assert path.read_bytes() == per_element_pgm(v, -1.0, 1.0)


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
    assert path.read_bytes() == per_element_pgm(v, -1.0, 1.0)


@pytest.mark.parametrize("layout", ["transposed", "fortran"])
def test_pgm_any_memory_layout_matches_reference(tmp_path, layout):
    v = np.random.default_rng(8).uniform(-1.2, 1.2, (37, 21))
    v = v.T if layout == "transposed" else np.asfortranarray(v)
    path = tmp_path / "h.pgm"
    write_pgm(path, v, -1.0, 1.0)
    assert path.read_bytes() == per_element_pgm(v, -1.0, 1.0)


def test_pgm_binary_format(tmp_path):
    path = tmp_path / "h.pgm"
    write_pgm(path, np.array([[-1.0, 0.0], [0.5, 1.0]]), -1.0, 1.0)
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 191, 255])
    assert pgm_gray(path).tolist() == [[0, 128], [191, 255]]


def test_embedding_pair_round_trip(tmp_path, rng):
    pair = solve_objective1(rng.standard_normal((8, 5)), 3, 2.0)
    write_embedding_pair(tmp_path / "pair", pair)
    back = read_embedding_pair(tmp_path / "pair")
    assert np.array_equal(back.A, pair.A)
    assert np.array_equal(back.B, pair.B)
    assert back.lam == pair.lam
    assert back.rank == pair.rank
    assert back.objective == pair.objective == 1
    assert np.array_equal(back.sigma, pair.sigma)
    meta = json.loads((tmp_path / "pair" / "meta.json").read_text())
    assert meta["objective"] == 1


def test_similarity_export_with_sidecar(tmp_path, rng):
    sim = SimilarityMatrix(values=rng.uniform(-1, 1, (4, 4)),
                           kind="item-item", metric="cosine")
    write_similarity(tmp_path, "s", sim, provenance={"lambda": 1.0})
    assert (tmp_path / "s.csv").exists()
    assert (tmp_path / "s.pgm").exists()
    sidecar = json.loads((tmp_path / "s.json").read_text())
    assert sidecar["kind"] == "item-item"
    assert sidecar["heatmap_range"] == [-1.0, 1.0]
    assert sidecar["provenance"]["lambda"] == 1.0


def pgm_gray(path):
    """The gray levels of a P5 file, as an h x w array."""
    magic, size, maxval, pixels = path.read_bytes().split(b"\n", 3)
    assert (magic, maxval) == (b"P5", b"255")
    w, h = map(int, size.split())
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).astype(int)


def test_dot_similarity_heatmap_spans_its_values(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "sim": {"n": 120, "p": 30, "C": 3, "cluster_probs": [0.4, 0.3, 0.3],
                "seed": 11},
        "solve": {"objective": 1, "lambda": 10.0, "rank": 5}}))
    out = tmp_path / "out"
    assert main(["similarity", "--config", str(cfg), "--out", str(out),
                 "--metric", "dot"]) == 0
    path = out / "similarity_item-item_dot_obj1_identity.csv"
    values = read_matrix_csv(path)
    lo, hi = json.loads(path.with_suffix(".json").read_text())["heatmap_range"]
    assert [lo, hi] == [values.min(), values.max()]
    assert lo < hi
    gray = pgm_gray(path.with_suffix(".pgm"))
    assert gray.flat[values.argmin()] == 0
    assert gray.flat[values.argmax()] == 255
    assert path.with_suffix(".pgm").read_bytes() == per_element_pgm(values, lo, hi)


def test_constant_dot_similarity_heatmap_is_black(tmp_path):
    # lo == hi: the writer maps [lo, lo + 1], so every value is gray 0
    sim = SimilarityMatrix(values=np.full((3, 4), 2.5), kind="user-item",
                           metric="dot")
    write_similarity(tmp_path, "s", sim, provenance={})
    sidecar = json.loads((tmp_path / "s.json").read_text())
    assert sidecar["heatmap_range"] == [2.5, 2.5]
    assert pgm_gray(tmp_path / "s.pgm").tolist() == [[0] * 4] * 3


def test_config_hash_stable_and_order_free():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_audit_exports_match_reference_writers(tmp_path):
    sim = {"n": 600, "p": 80, "C": 5, "cluster_probs": [0.2] * 5,
           "beta_item_min": 0.25, "beta_item_max": 1.5, "beta_user": 0.5,
           "seed": 7}
    plan = [{"objective": 1, "lambda": 100.0, "rank": 10, "family": f}
            for f in ("collapse", "identity", "inverse")]
    plan.append({"objective": 2, "lambda": 1.0, "rank": 10})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sim": sim, "plan": plan}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
    csvs = sorted(out.glob("similarity_*.csv"))
    assert len(csvs) == 4
    for path in csvs + [out / "X.csv"]:
        values = read_matrix_csv(path)
        assert path.read_bytes() == per_element_csv(values), path.name
    for path in csvs:
        lo, hi = json.loads(path.with_suffix(".json").read_text())["heatmap_range"]
        values = read_matrix_csv(path)
        assert (path.with_suffix(".pgm").read_bytes()
                == per_element_pgm(values, lo, hi)), path.name


def test_figure_config_audit(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(FIGURE_CONFIG), "--out", str(out)]) == 0
    assert main(["audit", "--config", str(FIGURE_CONFIG), "--out", str(out)]) == 0
    # the ground truth simulate exports is the one audit draws
    _, gt = sample_interactions(SimConfig.from_dict(
        json.loads(FIGURE_CONFIG.read_text())["sim"]))
    assert json.loads((out / "ground_truth.json").read_text()) == gt.to_dict()
    order = figure_item_order(gt)
    truth = ground_truth_similarity(gt)[order][:, order]
    assert (out / "ground_truth.pgm").read_bytes() == per_element_pgm(truth, 0.0, 1.0)
    assert len(list(out.glob("similarity_*.pgm"))) == 4
    report = json.loads((out / "report.json").read_text())
    # three gauges of one objective-1 model on the same data
    gauges = [r["contrast"]["contrast"] for r in report["results"]
              if r["entry"]["objective"] == 1]
    assert len(gauges) == 3
    assert max(gauges) - min(gauges) > 0.2
