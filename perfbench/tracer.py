"""Span tracer for the benchmark's traced runs, installed from outside the package.

`Tracer.install` wraps the public module-level functions of each measured
`cosine_audit` layer (the modules listed in `HOOKS`) with a timing hook.
Every module of the package that holds a reference to a hooked function,
including references taken with `from .x import f`, gets the wrapper, so the
CLI's calls into the layers and the layers' calls into each other are all
recorded. Nothing under `src/` changes.

A span is `[layer, function, start, end, parent, note]`: `parent` is the
index of the enclosing span (-1 at top level) and `note` holds counts taken
from the call's arguments or result after its end time was recorded. The
spans stay in memory and are written out once, when the traced process ends.
The stack assumes calls on one thread, which holds because the benchmark
leaves `COSINE_AUDIT_THREADS` unset.

If a hooked function no longer exists, `install` raises `MissingHook`: a
refactor must update `HOOKS` rather than silently turn a layer's numbers
into zeros. Public functions that exist but are not hooked are reported on
stderr; their time lands in the self time of their caller.

`remedies` is not hooked: no CLI path calls it yet. `cli` is not hooked
either; it is the caller, and its time is what the layer spans leave over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter

PACKAGE = "cosine_audit"

HOOKS = {
    "synthgen": ("sample_ground_truth", "sample_interactions",
                 "user_item_probabilities", "ground_truth_similarity",
                 "figure_item_order"),
    "io_utils": ("write_matrix_csv", "read_matrix_csv", "write_json",
                 "read_json", "write_pgm", "write_similarity",
                 "write_embedding_pair", "read_embedding_pair", "config_hash",
                 "write_manifest"),
    "matrix_core": ("svd", "row_norms", "normalize_rows", "cosine_of_rows"),
    "mf_solvers": ("solve_objective1", "solve_objective2", "objective1_loss",
                   "objective2_loss", "predicted_scores",
                   "objective1_gradients", "objective2_gradients",
                   "gradient_descent_oracle"),
    "rescale": ("apply_scaling", "named_scaling", "apply_rotation",
                "random_rotation", "random_scaling"),
    "similarity": ("item_item", "user_user", "user_item", "ranking_equal"),
    "analysis": ("cluster_contrast", "audit_full_rank", "solve_plan_entry",
                 "compare_configurations"),
}
# modules that hold references to hooked functions without being hooked
UNHOOKED_MODULES = ("cli", "remedies")
# Public functions left unhooked on purpose. as_matrix validates the input
# of every loss evaluation inside the oracle's descent loop; a span there
# would cost more than the call.
NOT_HOOKED = {"matrix_core": ("as_matrix",)}

# io_utils functions that each write or read exactly one file, named by
# their first argument
FILE_WRITERS = ("write_matrix_csv", "write_json", "write_pgm")
FILE_READERS = ("read_matrix_csv", "read_json")
# the simulated data the CLI persists and reloads: "write X" and "read X"
PERSISTED = ("X.csv", "ground_truth.json")


class MissingHook(RuntimeError):
    pass


def _file_note(args, kwargs, result):
    path = str(args[0] if args else kwargs["path"])
    note = {"path": os.path.basename(path)}
    try:
        note["bytes"] = os.path.getsize(path)
    except OSError:
        note["bytes"] = 0
    return note


def _svd_note(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    shape = tuple(getattr(m, "shape", ()))
    ptr = getattr(m, "__array_interface__", {}).get("data", (0,))[0]
    return {"shape": list(shape), "x": f"{shape}@{ptr:x}"}


def _nnz_note(args, kwargs, result):
    sample, _ = result
    return {"nnz": int(sample.items_per_user.sum())}


def _disagree_note(args, kwargs, result):
    return {"disagreements": int((~result).sum())}


NOTES = {("matrix_core", "svd"): _svd_note,
         ("synthgen", "sample_interactions"): _nnz_note,
         ("similarity", "ranking_equal"): _disagree_note}
NOTES.update({("io_utils", f): _file_note for f in FILE_WRITERS + FILE_READERS})


def check_hooks() -> None:
    """Raise MissingHook if a function in HOOKS no longer exists."""
    missing = [f"{PACKAGE}.{layer}.{name}" for layer, names in HOOKS.items()
               for name in names
               if not inspect.isfunction(getattr(
                   importlib.import_module(f"{PACKAGE}.{layer}"), name, None))]
    if missing:
        raise MissingHook(f"hooked by the benchmark but no longer there: "
                          f"{', '.join(missing)}; update HOOKS in "
                          "perfbench/tracer.py")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get((layer, name))

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return hooked

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in (*HOOKS, *UNHOOKED_MODULES)}
        modules[PACKAGE] = importlib.import_module(PACKAGE)
        check_hooks()
        wrappers = {}
        for layer, names in HOOKS.items():
            mod = modules[layer]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
            unhooked = sorted(
                n for n, v in vars(mod).items()
                if inspect.isfunction(v) and not n.startswith("_")
                and v.__module__ == mod.__name__ and n not in names
                and n not in NOT_HOOKED.get(layer, ()))
            if unhooked:
                print(f"tracer: {layer} has unhooked public functions: "
                      f"{', '.join(unhooked)}", file=sys.stderr)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path, import_s: float) -> None:
        Path(path).write_text(json.dumps({"import_s": import_s,
                                          "spans": self.spans}))


# ---------------------------------------------------------------------------
# Turning spans into per-layer metrics

def svd_flop(shape) -> float:
    """Flops of a thin SVD computed from its shape, not measured: the Golub &
    Van Loan R-SVD count 6*m*k^2 + 20*k^3, m = max(n, p), k = min(n, p)."""
    m, k = max(shape), min(shape)
    return 6.0 * m * k * k + 20.0 * k ** 3


def _duration(span) -> float:
    return span[3] - span[2]


def layer_metrics(traces: list[dict], oracle_worst_rel_dev: float = 0.0) -> dict:
    """Per-layer metrics from the traces of one run's traced processes.

    Each trace is the dumped span document plus `wall_s`, the process's
    wall time from launch to exit measured by its parent, and
    `untraced_wall_s`, the wall time of the same step run without tracing.
    """
    m = {k: 0.0 for k in LAYER_METRICS}
    self_by_layer = {layer: 0.0 for layer in HOOKS}
    distinct_x = set()
    covered = wall = import_s = overhead = 0.0
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += _duration(s)
        wall += trace["wall_s"]
        import_s += trace["import_s"]
        overhead += trace["wall_s"] - trace["untraced_wall_s"]
        m["trace.spans"] += len(spans)
        for i, s in enumerate(spans):
            layer, fn, _, _, parent, note = s
            dur = _duration(s)
            own = dur - child_time[i]
            self_by_layer[layer] += own
            top = parent < 0
            if top:
                covered += dur
            in_layer = not top and spans[parent][0] == layer
            if layer == "synthgen" and fn == "sample_interactions":
                m["synthgen.simulate_s"] += dur
                m["synthgen.nnz"] += note["nnz"]
            elif layer == "io_utils":
                persisted = note is not None and note["path"] in PERSISTED
                if fn in FILE_WRITERS:
                    key = "write_x_mb" if persisted else "export_mb"
                    m[f"io_utils.{key}"] += note["bytes"] / 1e6
                    if not persisted:
                        m["io_utils.export_files"] += 1
                if not in_layer:
                    if persisted:
                        key = "read_x_s" if fn in FILE_READERS else "write_x_s"
                        m[f"io_utils.{key}"] += dur
                    elif fn.startswith("write_") or fn == "config_hash":
                        m["io_utils.export_s"] += dur
            elif layer == "matrix_core" and fn == "svd":
                m["matrix_core.svd_s"] += dur
                m["matrix_core.svd_calls"] += 1
                m["matrix_core.svd_gflop_computed"] += svd_flop(note["shape"]) / 1e9
                distinct_x.add(note["x"])
            elif layer == "mf_solvers":
                if fn.startswith("solve_objective"):
                    m["mf_solvers.solve_self_s"] += own
                elif fn == "gradient_descent_oracle":
                    m["mf_solvers.oracle_s"] += dur
                    m["mf_solvers.oracle_problems"] += 1
            elif layer == "rescale" and not in_layer:
                m["rescale.gauge_s"] += dur
            elif layer == "similarity":
                key = f"similarity.{fn}_s"
                if key in m:
                    m[key] += dur
                if fn == "ranking_equal":
                    m["similarity.ranking_disagreements"] += note["disagreements"]
            elif layer == "analysis":
                if fn == "cluster_contrast":
                    m["analysis.contrast_s"] += dur
                elif fn in ("compare_configurations", "solve_plan_entry"):
                    m["analysis.compare_self_s"] += own
                elif fn == "audit_full_rank":
                    m["analysis.full_rank_self_s"] += own
    if distinct_x:
        m["matrix_core.spectra_per_x"] = m["matrix_core.svd_calls"] / len(distinct_x)
    if m["matrix_core.svd_s"] > 0:
        m["matrix_core.svd_gflops"] = (m["matrix_core.svd_gflop_computed"]
                                       / m["matrix_core.svd_s"])
    m["mf_solvers.oracle_worst_rel_dev"] = oracle_worst_rel_dev
    for layer, t in self_by_layer.items():
        m[f"{layer}.self_s"] = t
    m["cli.import_s"] = import_s
    m["cli.self_s"] = wall - import_s - covered
    m["trace.wall_s"] = wall
    m["trace.coverage"] = covered / wall if wall > 0 else 0.0
    m["trace.overhead_s"] = overhead
    return m


# name -> unit, in the order the traced run prints them
LAYER_METRICS = {
    "synthgen.simulate_s": "s", "synthgen.nnz": "count",
    "synthgen.self_s": "s",
    "io_utils.write_x_s": "s", "io_utils.write_x_mb": "MB",
    "io_utils.read_x_s": "s", "io_utils.export_s": "s",
    "io_utils.export_mb": "MB", "io_utils.export_files": "count",
    "io_utils.self_s": "s",
    "matrix_core.svd_s": "s", "matrix_core.svd_calls": "count",
    "matrix_core.spectra_per_x": "ratio",
    "matrix_core.svd_gflop_computed": "GFLOP",
    "matrix_core.svd_gflops": "GFLOP/s", "matrix_core.self_s": "s",
    "mf_solvers.solve_self_s": "s", "mf_solvers.oracle_s": "s",
    "mf_solvers.oracle_problems": "count",
    "mf_solvers.oracle_worst_rel_dev": "ratio", "mf_solvers.self_s": "s",
    "rescale.gauge_s": "s", "rescale.self_s": "s",
    "similarity.item_item_s": "s", "similarity.user_user_s": "s",
    "similarity.user_item_s": "s", "similarity.ranking_equal_s": "s",
    "similarity.ranking_disagreements": "count", "similarity.self_s": "s",
    "analysis.contrast_s": "s", "analysis.compare_self_s": "s",
    "analysis.full_rank_self_s": "s", "analysis.self_s": "s",
    "cli.import_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.spans": "count",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}
