"""Benchmark of the cosine-audit pipeline, end to end and layer by layer.

Usage, from the root of a checkout (nothing needs installing; the package is
imported from `src/`):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/selftest.py

Workloads (`WORKLOADS` below; `BENCHMARK.json` lists the ones the regression
gate runs, and `perfbench/predictions.json` says which metric each layer
should move on which workload):

  paper-audit    cold `cosine-audit audit` at paper scale into an empty dir
  plan-sweep     `audit` with six plan entries on an X made by `simulate`
  fullrank-desk  `fullrank-check --lambda 100` on an X made by `simulate`
  oracle-verify  the criterion-5 oracle-versus-closed-form problem family

Each CLI workload gets a config written by the benchmark with today's
defaults pinned explicitly; the seed goes into the config's `sim.seed`, and
the program sees only that config. A run first sets up `SETUPS` times
(`setup_s` is their median), then repeats the timed step until `--seconds`
have passed, at least once. Every step runs in a child process with BLAS
pinned to one thread; wall time is taken from launch to exit, CPU time and
peak RSS from `os.wait4`. After the timed steps, every step's outputs are
checked; a step that exited non-zero, lacks an output or fails a check is
a failed operation.

With `--trace 0` the last line of stdout is the JSON result with the
end-to-end metrics. With `--trace 1` the run makes one untraced and one
traced step (and, where set-up calls the program, one traced set-up) and
reports the per-layer metrics of `tracer.py`; the traced minus the untraced
wall time is `trace.overhead_s`.

`--workload all` runs all four workloads and prints a summary table.
Outputs go to `.perfbench/` in the checkout: run directories are deleted
when the run ends; results, with the environment, stay in
`.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # before numpy is imported, here or in children

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUPS = 3              # set-ups per run, at least; setup_s is their median
SETUP_BUDGET_S = 2.0    # ... and more while they have taken less than this
DEADLINE_S = 170.0      # after this long a run kills its children
CONTRAST_TOL = 1e-9     # report.json contrasts against the reference
ORACLE_TOL = 1e-4       # the acceptance suite's oracle gate
ORACLE_PROBLEMS = 6     # oracle_job.py: one X, three lambdas, two objectives
STARTED = perf_counter()  # reset at the start of each run

# Today's built-in CLI defaults, pinned so that a change to a default
# cannot silently change the benchmark's work.
SIM_DEFAULTS = {"n": 20_000, "p": 1_000, "C": 5,
                "cluster_probs": [0.2, 0.2, 0.2, 0.2, 0.2],
                "beta_item_min": 0.25, "beta_item_max": 1.5,
                "beta_user": 0.5}
SOLVE_DEFAULTS = {"objective": 1, "lambda": 10_000.0, "rank": 50,
                  "standardize": False}


def entry(objective, lam, family, rank=50):
    return {"objective": objective, "lambda": lam, "rank": rank,
            "family": family}


DEFAULT_PLAN = [entry(1, 10_000.0, "collapse"), entry(1, 10_000.0, "identity"),
                entry(1, 10_000.0, "inverse"), entry(2, 100.0, "identity")]
# At n = 5 000 lambda = 10 keeps all 50 dimensions of objective 2 and
# lambda = 15 about 30, as lambda = 10 and 30 do at n = 20 000.
SWEEP_PLAN = [entry(1, 10_000.0, f) for f in
              ("collapse", "identity", "inverse", "symmetric-matching")] + [
              entry(2, 10.0, "identity"), entry(2, 15.0, "identity")]

# full size, then the tiny size the self-test uses
SIZES = {
    "full": {"paper": {"n": 20_000, "p": 1_000}, "sweep": {"n": 5_000, "p": 1_000},
             "desk": {"n": 5_000, "p": 500}},
    "tiny": {"paper": {"n": 600, "p": 80}, "sweep": {"n": 500, "p": 80},
             "desk": {"n": 400, "p": 40}},
}


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("COSINE_AUDIT_THREADS", None)
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    log: Path

    def log_tail(self, lines: int = 3) -> str:
        try:
            text = self.log.read_text(errors="replace").strip().splitlines()
        except OSError:
            return ""
        return " | ".join(text[-lines:])


def run_child(argv: list, log: Path) -> Child:
    """Run one child to completion; measure wall, CPU and peak RSS."""
    left = DEADLINE_S - (perf_counter() - STARTED)
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(left, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                 peak_rss_mb=usage.ru_maxrss / 1024.0,
                 exit_code=proc.returncode, log=log)


def cli_argv(args: list, spans: Path | None = None) -> list:
    if spans is None:
        return [sys.executable, "-m", "cosine_audit.cli", *args]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]


# ---------------------------------------------------------------------------
# Checks


@dataclass
class Check:
    name: str
    passed: bool
    deviation: float | None = None
    tol: float | None = None
    detail: str = ""

    def line(self) -> str:
        dev = "" if self.deviation is None else f" deviation={self.deviation:.3e}"
        tol = "" if self.tol is None else f" tol={self.tol:.0e}"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}{dev}{tol}{detail}"


def exit_check(child: Child) -> Check:
    ok = child.exit_code == 0
    return Check("exit_code", ok, float(child.exit_code), 0.0,
                 "" if ok else child.log_tail())


def read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Prepared:
    """What one set-up leaves for one timed step."""
    config: Path
    out: Path
    child: Child  # the set-up's own child process
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


class Scratch:
    """A run's private directory under .perfbench/runs, removed at the end."""

    def __init__(self, label: str):
        self.dir = OUT / "runs" / f"{label}-{os.getpid()}"
        self.count = 0

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def fresh(self, stem: str) -> Path:
        self.count += 1
        return self.dir / f"{stem}{self.count}"


class AuditWorkload:
    """`cosine-audit audit`, cold (empty dir) or warm (dir made by simulate)."""

    def __init__(self, sim, plan, warm, solve=SOLVE_DEFAULTS):
        self.sim, self.plan, self.warm, self.solve = sim, plan, warm, solve
        self.traced_setup = warm

    def write_config(self, scratch: Scratch, seed: int) -> tuple[Path, Path]:
        out = scratch.fresh("out")
        config = out.with_suffix(".json")
        config.write_text(json.dumps({
            "sim": {**self.sim, "seed": seed}, "solve": self.solve,
            "plan": self.plan, "output": {"dir": str(out)}}, indent=1))
        return config, out

    def setup(self, scratch: Scratch, seed: int, spans: Path | None = None) -> Prepared:
        config, out = self.write_config(scratch, seed)
        if not self.warm:
            out.mkdir()
            child = run_child([sys.executable, "-c", "import cosine_audit.cli"],
                              out.with_suffix(".setup.log"))
            return Prepared(config, out, child, [exit_check(child)])
        child = run_child(cli_argv(["simulate", "--config", str(config)], spans),
                          out.with_suffix(".setup.log"))
        checks = [exit_check(child)]
        missing = [f for f in ("X.csv", "ground_truth.json")
                   if not (out / f).is_file()]
        checks.append(Check("setup_outputs_present", not missing,
                            detail=", ".join(missing)))
        return Prepared(config, out, child, checks)

    def step(self, prep: Prepared, spans: Path | None = None) -> Child:
        return run_child(cli_argv(["audit", "--config", str(prep.config)], spans),
                         prep.out.with_suffix(".log"))

    def labels(self) -> list[str]:
        from cosine_audit.analysis import PlanEntry
        return [PlanEntry(objective=e["objective"], lam=e["lambda"],
                          rank=e["rank"], family=e["family"]).label()
                for e in self.plan]

    def reference(self, seed: int) -> dict:
        """Contrasts computed from the layers' public functions, not the CLI.

        Each solve runs on R from X = QR, which has X's singular values and
        right singular vectors, so it costs a p x p SVD instead of n x p.
        """
        import numpy as np
        from cosine_audit.analysis import cluster_contrast
        from cosine_audit.mf_solvers import solve_objective1, solve_objective2
        from cosine_audit.rescale import apply_scaling, named_scaling
        from cosine_audit.similarity import SimilarityMatrix, item_item
        from cosine_audit.synthgen import (SimConfig, ground_truth_similarity,
                                           sample_interactions)
        sample, gt = sample_interactions(
            SimConfig.from_dict({**self.sim, "seed": seed}))
        r = np.linalg.qr(sample.matrix, mode="r")
        pairs, contrasts = {}, []
        for e in self.plan:
            key = (e["objective"], e["lambda"], e["rank"])
            if key not in pairs:
                solver = solve_objective1 if e["objective"] == 1 else solve_objective2
                pairs[key] = solver(r, e["rank"], e["lambda"])
            pair = pairs[key]
            if e["family"] != "identity":
                pair = apply_scaling(pair, named_scaling(pair, e["family"]))
            contrasts.append(cluster_contrast(
                item_item(r, pair, "cosine", on_zero="drop"), gt).contrast)
        gt_sim = SimilarityMatrix(values=ground_truth_similarity(gt),
                                  kind="item-item", metric="dot")
        return {"contrasts": contrasts,
                "ground_truth": cluster_contrast(gt_sim, gt).contrast}

    def corrupt(self, prep: Prepared) -> None:
        """Move one reported contrast by 1e-6; used by the self-test."""
        path = prep.out / "report.json"
        doc = json.loads(path.read_text())
        doc["results"][0]["contrast"]["contrast"] += 1e-6
        path.write_text(json.dumps(doc))

    def check(self, prep: Prepared, child: Child, ref: dict) -> list[Check]:
        checks = [exit_check(child)]
        missing = [f"{label}.{ext}" for label in self.labels()
                   for ext in ("csv", "json", "pgm")
                   if not (prep.out / f"similarity_{label}.{ext}").is_file()]
        checks.append(Check("similarity_exports_present", not missing,
                            float(len(missing)), 0.0, ", ".join(missing[:3])))
        report = read_json(prep.out / "report.json")
        if report is None:
            checks.append(Check("report_json_readable", False))
            return checks
        got = [r["contrast"]["contrast"] for r in report.get("results", [])]
        entries = [r["entry"] for r in report.get("results", [])]
        checks.append(Check("report_entries_match_plan", entries == self.plan,
                            detail=f"{len(entries)} of {len(self.plan)} entries"))
        dev = contrast_deviation(got + [report["ground_truth_contrast"]["contrast"]],
                                 ref["contrasts"] + [ref["ground_truth"]])
        checks.append(Check("contrasts_match_reference", dev <= CONTRAST_TOL,
                            dev, CONTRAST_TOL))
        return checks


def contrast_deviation(got: list, want: list) -> float:
    if len(got) != len(want):
        return math.inf
    dev = 0.0
    for g, w in zip(got, want):
        if (g is None) != (w is None):
            return math.inf
        if g is not None:
            dev = max(dev, abs(g - w))
    return dev


class FullRankWorkload(AuditWorkload):
    """`cosine-audit fullrank-check` on an X made by simulate."""

    def __init__(self, sim, lam):
        super().__init__(sim, DEFAULT_PLAN, warm=True,
                         solve={**SOLVE_DEFAULTS, "lambda": lam})

    def step(self, prep, spans=None):
        return run_child(cli_argv(["fullrank-check", "--config", str(prep.config)],
                                  spans), prep.out.with_suffix(".log"))

    def reference(self, seed):
        return {}

    def check(self, prep, child, ref):
        checks = [exit_check(child)]
        report = read_json(prep.out / "fullrank_report.json")
        if report is None:
            checks.append(Check("fullrank_report_readable", False))
            return checks
        checks.append(Check("all_passed", bool(report.get("all_passed"))))
        for c in report.get("checks", []):
            if not (c["passed"] or c["skipped"]):
                checks.append(Check(f"fullrank.{c['name']}", False,
                                    c["deviation"], c["tol"]))
        return checks


class OracleWorkload:
    """The criterion-5 oracle problems, verified in a child process."""

    traced_setup = False

    def setup(self, scratch, seed, spans=None):
        out = scratch.fresh("oracle")
        child = run_child([sys.executable, "-c", "import cosine_audit.mf_solvers"],
                          out.with_suffix(".setup.log"))
        config = out.with_suffix(".json")
        config.write_text(json.dumps({"seed": seed}))
        return Prepared(config, out, child, [exit_check(child)])

    def step(self, prep, spans=None):
        seed = json.loads(prep.config.read_text())["seed"]
        argv = [sys.executable, str(BENCH / "oracle_job.py"), "--seed", str(seed),
                "--out", str(prep.out.with_suffix(".result.json"))]
        if spans is not None:
            argv += ["--trace", str(spans)]
        return run_child(argv, prep.out.with_suffix(".log"))

    def reference(self, seed):
        return {}

    def result(self, prep) -> dict | None:
        return read_json(prep.out.with_suffix(".result.json"))

    def check(self, prep, child, ref):
        checks = [exit_check(child)]
        result = self.result(prep)
        if result is None:
            checks.append(Check("oracle_result_readable", False))
            return checks
        want = ORACLE_PROBLEMS
        checks.append(Check("oracle_problem_count", result["problems"] == want,
                            float(result["problems"]), float(want)))
        worst = result["worst_rel_dev"]
        checks.append(Check("oracle_worst_rel_dev", worst <= ORACLE_TOL, worst,
                            ORACLE_TOL, json.dumps(result["worst_problem"])))
        return checks


def make_workload(name: str, size: str):
    """Why each workload was chosen: BENCHMARK.json and predictions.json."""
    s = SIZES[size]
    if name == "paper-audit":
        return AuditWorkload({**SIM_DEFAULTS, **s["paper"]}, DEFAULT_PLAN,
                             warm=False)
    if name == "plan-sweep":
        return AuditWorkload({**SIM_DEFAULTS, **s["sweep"]}, SWEEP_PLAN, warm=True)
    if name == "fullrank-desk":
        return FullRankWorkload({**SIM_DEFAULTS, **s["desk"]}, 100.0)
    if name == "oracle-verify":
        return OracleWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-audit", "plan-sweep", "fullrank-desk", "oracle-verify")


# ---------------------------------------------------------------------------
# One run


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_thread_pin": BLAS_PIN, "COSINE_AUDIT_THREADS": "unset",
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": commit}


def load_trace(spans: Path, child: Child, untraced_wall_s: float) -> dict:
    doc = read_json(spans) or {"import_s": 0.0, "spans": []}
    return {**doc, "wall_s": child.wall_s, "untraced_wall_s": untraced_wall_s}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", corrupt: bool = False) -> dict:
    """Set up, time, check and summarise one run of one workload.

    `corrupt` (audit workloads only) alters the first step's report before
    it is checked; the self-test uses it.
    """
    global STARTED
    STARTED = perf_counter()
    w = make_workload(name, size)
    with Scratch(name) as scratch:
        setup_s, setup_walls, preps = [], [], []

        def set_up() -> Prepared:
            t = perf_counter()
            prep = w.setup(scratch, seed)
            setup_s.append(perf_counter() - t)
            setup_walls.append(prep.child.wall_s)
            preps.append(prep)
            return prep

        while len(setup_s) < SETUPS or sum(setup_s) < SETUP_BUDGET_S:
            set_up()
        untimed = list(preps)
        steps = []   # (prep, child); child is None when the set-up failed

        def step(spans: Path | None = None) -> Child | None:
            prep = untimed.pop(0) if untimed else set_up()
            child = w.step(prep, spans) if prep.ok else None
            steps.append((prep, child))
            return child

        t0 = perf_counter()
        while True:
            child = step()
            last = child.wall_s if child else 0.0
            if (trace or perf_counter() - t0 >= seconds
                    or perf_counter() - STARTED + last > DEADLINE_S * 0.8):
                break

        traces = []
        if trace:
            untraced = steps[0][1]
            spans = scratch.fresh("spans").with_suffix(".json")
            child = step(spans)
            if child is not None and untraced is not None:
                traces.append(load_trace(spans, child, untraced.wall_s))
            if w.traced_setup:
                spans = scratch.fresh("spans").with_suffix(".json")
                traced_prep = w.setup(scratch, seed, spans)
                traces.append(load_trace(spans, traced_prep.child,
                                         statistics.median(setup_walls)))

        if corrupt and steps[0][1] is not None and steps[0][1].exit_code == 0:
            w.corrupt(steps[0][0])

        ref = w.reference(seed) if any(c is not None for _, c in steps) else None
        ops = []
        for prep, child in steps:
            if child is None:
                ops.append({"ok": False, "checks": prep.checks})
                continue
            checks = w.check(prep, child, ref)
            ops.append({"ok": all(c.passed for c in checks), "checks": checks,
                        "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                        "peak_rss_mb": child.peak_rss_mb})
        oracle_dev = 0.0
        if isinstance(w, OracleWorkload) and trace:
            result = w.result(steps[-1][0])
            oracle_dev = result["worst_rel_dev"] if result else math.inf

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    timed = [op for op in ops if "wall_s" in op]
    if trace:
        timed = timed[:1]   # the untraced step
    metrics = {"setup_s": metric(statistics.median(setup_s), "s", len(setup_s))}
    for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        vals = [op[key] for op in timed]
        metrics[key] = metric(statistics.median(vals) if vals else math.nan,
                              unit, len(vals))
    metrics["failed_ops"] = metric(failed / attempted, "share", attempted)
    layers = {}
    if trace:
        from tracer import LAYER_METRICS, layer_metrics
        values = layer_metrics(traces, oracle_dev) if traces else {}
        layers = {k: metric(values.get(k, math.nan), unit, len(traces))
                  for k, unit in LAYER_METRICS.items()}
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "size": size, "env": environment(),
            "attempted": attempted, "failed": failed,
            "correct": failed == 0, "metrics": metrics, "layers": layers,
            "ops": [{**op, "checks": [c.line() for c in op["checks"]]}
                    for op in ops]}


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


# ---------------------------------------------------------------------------
# Reporting

END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def print_run(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']} trace {res['trace']} "
          f"size {res['size']}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for i, op in enumerate(res["ops"]):
        for line in op["checks"]:
            print(f"check op{i} {line}")
    for key, m in res["metrics"].items():
        what = "set-up(s)" if key == "setup_s" else "step(s)"
        print(f"metric {key} = {m['value']:.6g} {m['unit']} "
              + (f"({res['failed']} of {m['samples']} attempted)"
                 if key == "failed_ops" else f"(median of {m['samples']} {what})"))
    if res["layers"]:
        predictions = json.loads((BENCH / "predictions.json").read_text())
        samples = next(iter(res["layers"].values()))["samples"]
        print(f"layer metrics from {samples} traced process(es); "
              f"{predictions['notes']['svd_gflop_computed']}")
        for key, m in res["layers"].items():
            moves = predictions["metrics"].get(key, {}).get("should_move", "")
            print(f"layer {key} = {m['value']:.6g} {m['unit']}"
                  + (f"  [should move: {moves}]" if moves else ""))


def result_line(results: list[dict], trace: bool) -> dict:
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        source = res["layers"] if trace else {k: res["metrics"][k] for k in END_TO_END}
        for key, m in source.items():
            metrics[prefix + key] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def print_summary(results: list[dict]) -> None:
    cols = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "failed_ops")
    print(f"\n{'workload':<15}" + "".join(f"{c:>18}" for c in cols))
    for res in results:
        cells = [f"{m['value']:.4g} {m['unit']} n={m['samples']}"
                 for m in (res["metrics"][c] for c in cols)]
        print(f"{res['workload']:<15}" + "".join(f"{c:>18}" for c in cells))
    for res in results:
        for i, op in enumerate(res["ops"]):
            for line in op["checks"]:
                if line.startswith("FAIL"):
                    print(f"{res['workload']} op{i}: {line}")


def result_path(workload: str, seed: int, trace: int, size: str) -> Path:
    tag = "" if size == "full" else f"-{size}"
    return OUT / "results" / f"{workload}-seed{seed}-trace{trace}{tag}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="'tiny' is for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "cosine_audit" / "cli.py").is_file():
        print(f"perfbench: no cosine_audit sources under {SRC}; run from the "
              "root of a cosine-audit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        # One process per workload: a child's peak RSS as wait4 reports it
        # includes its parent's peak, so the measuring process stays small.
        results = []
        for name in WORKLOADS:
            path = result_path(name, args.seed, args.trace, args.size)
            path.unlink(missing_ok=True)
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--size", args.size],
                           cwd=ROOT, stdout=subprocess.DEVNULL)
            res = read_json(path)
            if res is None:
                print(f"perfbench: {name} produced no result", file=sys.stderr)
                return 1
            print_run(res)
            results.append(res)
        print_summary(results)
    else:
        if args.trace:
            from tracer import MissingHook, check_hooks
            try:
                check_hooks()
            except MissingHook as e:
                print(f"perfbench: {e}", file=sys.stderr)
                return 3
        res = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.size)
        path = result_path(res["workload"], res["seed"], res["trace"], res["size"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(res, indent=1))
        print_run(res)
        results = [res]
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
