"""Self-test of the benchmark: tiny runs of every workload, in seconds.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
  * every workload runs at the tiny size with tracing off and on, and its
    last stdout line is the result object with exactly the keys `correct`,
    `attempted`, `failed` and `metrics`;
  * every end-to-end metric of BENCHMARK.json (tracing off) and every
    per-layer metric (tracing on) is printed by name with its unit, and
    `failed_ops` is printed too;
  * a deliberately corrupted output (one contrast in report.json moved by
    1e-6) is counted as a failed operation, naming the failed check;
  * the tracer refuses to run when a function it hooks no longer exists;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_output(workload: str, trace: int) -> None:
    proc = bench(run.ROOT, "--workload", workload, "--seed", "3",
                 "--seconds", "0.01", "--trace", str(trace), "--size", "tiny")
    label = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{label}: exit 0 ({proc.stderr.strip()[-200:]})")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, f"{label}: last line is JSON")
        return
    expect(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted = {result['attempted']}")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    prefix = "layer" if trace else "metric"
    for m in spec:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"]
               and isinstance(got.get("value"), (int, float)),
               f"{label}: {m['name']} in result with unit {m['unit']}")
        expect(any(line.startswith(f"{prefix} {m['name']} = ")
                   and f" {m['unit']}" in line for line in lines),
               f"{label}: {m['name']} printed with unit {m['unit']}")
    expect(any(line.startswith("metric failed_ops = ") for line in lines),
           f"{label}: failed_ops printed")


def check_corruption() -> None:
    res = run.run_workload("paper-audit", 3, 0.01, False, size="tiny",
                           corrupt=True)
    failed_checks = [line for op in res["ops"] for line in op["checks"]
                     if line.startswith("FAIL")]
    expect(res["failed"] == 1 and res["metrics"]["failed_ops"]["value"] > 0
           and not res["correct"],
           f"corrupted contrast counted: failed {res['failed']} of "
           f"{res['attempted']}")
    expect(any("contrasts_match_reference" in line for line in failed_checks),
           f"failed check named: {failed_checks}")


def check_missing_hook() -> None:
    saved = tracer.HOOKS["matrix_core"]
    tracer.HOOKS["matrix_core"] = saved + ("no_such_function",)
    try:
        tracer.check_hooks()
        raised = False
    except tracer.MissingHook:
        raised = True
    finally:
        tracer.HOOKS["matrix_core"] = saved
    expect(raised, "tracer fails loudly on a missing hooked function")


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "0", "--seconds", "1", "--trace", "0")
        printed_result = any(line.startswith("{")
                             for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_result,
               f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace)
    check_corruption()
    check_missing_hook()
    check_bare_directory()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
