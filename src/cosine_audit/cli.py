"""Command-line pipeline: simulate -> solve -> similarity -> audit.

One JSON config drives all subcommands; it may contain the sections
"sim", "solve", "plan", and "output". Every subcommand checks the whole
file before it writes anything. Command-line flags override config keys,
which override built-in defaults.

Exit codes: 0 success, 2 config error, 3 compute error, 4 identity-check
failure.
"""

from __future__ import annotations

import argparse
import mmap
import os
import shutil
import sys
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (PlanEntry, audit_full_rank, compare_configurations,
                       figure_similarity, solve_plan_entry)
from .errors import ConfigError, check_section
from .io_utils import (read_json, write_embedding_pair, write_json,
                       write_manifest, write_matrix_csv, write_pgm,
                       write_similarity)
from .matrix_core import Spectrum
from .remedies import standardize
from .rescale import FAMILIES
from .similarity import item_item, user_item, user_user
from .synthgen import (SAMPLER, SimConfig, figure_item_order,
                       sample_ground_truth, sample_interactions)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_CHECK = 4

# the paper's scale: five equally likely clusters, SimConfig's exponents
DEFAULT_SIM = SimConfig.uniform_clusters(20_000, 1_000, 5).to_dict()

# the rank of every built-in entry
DEFAULT_RANK = 50

DEFAULT_PLAN = [
    {"objective": 1, "lambda": 10_000.0, "rank": DEFAULT_RANK,
     "family": family} for family in ("collapse", "identity", "inverse")
] + [{"objective": 2, "lambda": 100.0, "rank": DEFAULT_RANK,
      "family": "identity"}]

# the solve section, read by solve, similarity and fullrank-check
DEFAULT_SOLVE = {"objective": 1, "lambda": 10_000.0, "rank": DEFAULT_RANK}

# `similarity --kind user-user` refuses larger n: its n x n float64 matrix
# would take 8 n^2 bytes, 200 MB at this n and 3.2 GB at the default n
USER_USER_MAX_USERS = 5_000

# simulate's files: every other command refuses them unless they hold its
# config's X, and keeps them
SIMULATED = ("X.csv", "ground_truth.json")


# the JSON type of each key the config file may hold at its top level, in
# its "output" section, in a plan entry and in its "solve" section (an
# entry and "standardize"); the "sim" section's table is synthgen.SIM_KEYS
CONFIG_KEYS = {"sim": "a JSON object", "solve": "a JSON object",
               "plan": "a non-empty list", "output": "a JSON object"}
OUTPUT_KEYS = {"dir": "a string"}
ENTRY_KEYS = {"objective": "an integer", "lambda": "a number",
              "rank": "an integer"}
PLAN_KEYS = {**ENTRY_KEYS, "family": "a string"}
SOLVE_KEYS = {**PLAN_KEYS, "standardize": "true or false"}


@dataclass(frozen=True)
class Resolved:
    """The config file, with the built-in defaults under it and the
    subcommand's flags over it."""
    sim: SimConfig
    plan: list[PlanEntry]
    solve: PlanEntry  # the solve section as a one-entry plan
    standardize: bool  # whether X is standardized before the solve
    out: Path


def _entry(fields: dict, where: str, max_rank: int | None) -> PlanEntry:
    try:
        entry = PlanEntry.from_dict(fields)
    except ConfigError as e:
        raise ConfigError(f"{where}.{e.key}", e.message)
    if max_rank is not None and entry.rank > max_rank:
        raise ConfigError(f"{where}.rank", "must be at most min(sim.n, sim.p)"
                                           f" = {max_rank}, got {entry.rank}")
    return entry


def _resolve(args) -> Resolved:
    """Read the config file once and check every section of it, whichever
    the subcommand reads, then the output directory; a ConfigError names
    the first offending key. Nothing is written before this returns."""
    cfg = {}
    if args.config is not None:
        try:
            cfg = read_json(args.config)
        except (OSError, ValueError) as e:
            raise ConfigError("config", f"cannot read {args.config}: {e}")
    check_section(cfg, "", CONFIG_KEYS)
    sim = {**DEFAULT_SIM, **cfg.get("sim", {})}
    if args.seed is not None:
        sim["seed"] = args.seed
    sim = SimConfig.from_dict(sim)
    # a rank the file or a flag sets must fit X
    top = min(sim.n, sim.p)
    plan = [_entry(check_section(e, f"plan[{i}]", PLAN_KEYS,
                                 required=ENTRY_KEYS), f"plan[{i}]",
                   top if "plan" in cfg else None)
            for i, e in enumerate(cfg.get("plan", DEFAULT_PLAN))]
    solve = check_section(cfg.get("solve", {}), "solve", SOLVE_KEYS)
    flags = {k: v for k, v in vars(args).items()
             if k in PLAN_KEYS and v is not None}
    output = check_section(cfg.get("output", {}), "output", OUTPUT_KEYS)
    fields = {**solve, **flags}
    solve_entry = _entry({**DEFAULT_SOLVE, **fields}, "solve",
                         top if "rank" in fields else None)
    # so must the built-in rank, in the subcommands that solve it: simulate
    # and fullrank-check do not
    if DEFAULT_RANK > top:
        bound = f"{DEFAULT_RANK} is above min(sim.n, sim.p) = {top}"
        if args.command == "audit" and "plan" not in cfg:
            raise ConfigError("plan", f"not set, and the built-in plan's "
                                      f"rank {bound}")
        if args.command in ("solve", "similarity") and "rank" not in fields:
            raise ConfigError("solve.rank", "not set by the file or --rank, "
                                            f"and the built-in rank {bound}")
    # a sample std needs 2 rows; refused by every subcommand, as a rank is
    if solve.get("standardize") and sim.n < 2:
        raise ConfigError("solve.standardize", "needs at least 2 rows, got "
                                               f"sim.n = {sim.n}")
    out = Path(args.out or output.get("dir", "."))
    # _writing makes out and its parents: each that exists must be a directory
    for d in (out, *out.parents):
        if d.exists() and not d.is_dir():
            raise ConfigError("output.dir", f"{d} exists and is not a directory")
    if args.command != "simulate":  # simulate replaces the exports
        _refuse_stale(out, sim)
    return Resolved(sim=sim, plan=plan, solve=solve_entry,
                    standardize=solve.get("standardize", False), out=out)


@contextmanager
def _writing(cfg: Resolved):
    """A staging directory in cfg.out for a command's files. Once they and
    manifest.json are written, each moves to its place in cfg.out, then the
    files inside cfg.out that the previous manifest listed and this one
    does not are deleted, then manifest.json moves; a failure before that
    leaves cfg.out as it was. manifest.json holds the whole resolved config,
    flags applied ("config"), its hash ("config_sha256"), the "seed", the
    "sampler", the "version", the "numpy" and "blas" that computed the
    outputs, and the "files" cfg.out then holds besides it: this run's, and
    the SIMULATED ones that _refuse_stale checked against this config. It
    holds no timings, so reruns match."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".writing-", dir=cfg.out))
    try:
        yield stage
        files = [f.relative_to(stage).as_posix()
                 for f in sorted(stage.rglob("*")) if f.is_file()]
        listed = sorted({*files, *(f for f in SIMULATED
                                   if (cfg.out / f).is_file())})
        solve = {**cfg.solve.to_dict(), "standardize": cfg.standardize}
        config = {"sim": cfg.sim.to_dict(), "solve": solve,
                  "plan": [e.to_dict() for e in cfg.plan]}
        write_manifest(stage, config, cfg.sim.seed, __version__, listed)
        manifest = cfg.out / "manifest.json"
        stale = _listed(manifest) - set(listed)
        # a move or deletion that fails leaves no manifest naming the files
        # it replaced
        manifest.unlink(missing_ok=True)
        for f in files:
            to = cfg.out / f
            to.parent.mkdir(exist_ok=True)
            os.replace(stage / f, to)
        inside = cfg.out.resolve()
        for f in sorted(stale):
            to = cfg.out / f
            # never outside cfg.out: by "..", an absolute name or a symlink
            if to.is_file() and to.parent.resolve().is_relative_to(inside):
                to.unlink()
                if (to.parent != cfg.out and not to.parent.is_symlink()
                        and not any(to.parent.iterdir())):
                    to.parent.rmdir()  # as solve's pair directory
        os.replace(stage / manifest.name, manifest)
    finally:
        shutil.rmtree(stage)


def _listed(manifest: Path) -> set[str]:
    """The names a command's `manifest` lists as its "files": none where it
    is missing or lists none."""
    try:
        files = read_json(manifest)["files"]
    except (OSError, ValueError, LookupError, TypeError):
        return set()
    return ({f for f in files if isinstance(f, str)}
            if isinstance(files, list) else set())


def _refuse_stale(out: Path, sim_cfg: SimConfig) -> None:
    """Refuse an `out` holding X.csv or ground_truth.json unless its
    manifest.json records this sim config and SAMPLER: an export would sit
    beside the outputs of another X. No command reads the exports back."""
    there = [f for f in SIMULATED if (out / f).exists()]
    if there:
        try:
            manifest = read_json(out / "manifest.json")
            recorded = {**manifest["config"]["sim"],
                        "sampler": manifest.get("sampler")}
        except (OSError, ValueError, LookupError, TypeError):
            recorded = {}  # no manifest, or not one a command wrote
        diff = ", ".join(f"{k} {recorded.get(k)!r} there, {v!r} here"
                         for k, v in {**sim_cfg.to_dict(),
                                      "sampler": SAMPLER}.items()
                         if recorded.get(k) != v)
        if diff:
            raise ConfigError("sim", f"{out} holds {' and '.join(there)}, not "
                                     f"simulated from this config ({diff}); "
                                     "use another --out or rerun simulate")


def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    sim_cfg, out = cfg.sim, cfg.out
    X, gt = sample_interactions(sim_cfg)
    # moved into out with the manifest that records their config
    with _writing(cfg) as stage:
        write_matrix_csv(stage / "X.csv", X)
        write_json(stage / "ground_truth.json", gt.to_dict())
    print(f"wrote {out / 'X.csv'} ({sim_cfg.n}x{sim_cfg.p}) and ground_truth.json")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _resolve(args)
    entry, out = cfg.solve, cfg.out
    X = sample_interactions(cfg.sim)[0]
    pair = solve_plan_entry(standardize(X) if cfg.standardize else X, entry)
    pair_dir = f"pair_obj{entry.objective}"
    with _writing(cfg) as stage:
        write_embedding_pair(stage / pair_dir, pair, entry.to_dict())
    print(f"wrote embedding pair to {out / pair_dir}")
    return EXIT_OK


def cmd_similarity(args) -> int:
    cfg = _resolve(args)
    entry, out, n = cfg.solve, cfg.out, cfg.sim.n
    if args.kind == "user-user" and n > USER_USER_MAX_USERS:
        raise ConfigError("kind", f"user-user needs an n x n matrix and n = "
                                  f"{n} > {USER_USER_MAX_USERS}")
    X = sample_interactions(cfg.sim)[0]
    X = standardize(X) if cfg.standardize else X
    kind_fn = {"item-item": item_item, "user-user": user_user,
               "user-item": user_item}[args.kind]
    pair = solve_plan_entry(X, entry)
    sim = kind_fn(X, pair, args.metric, on_zero="drop")
    name = (f"similarity_{args.kind}_{args.metric}_obj{entry.objective}"
            f"_{entry.family}")
    with _writing(cfg) as stage:
        write_similarity(stage, name, sim,
                         {**entry.to_dict(), **pair.degeneracy()})
    print(f"wrote {out / (name + '.csv')}")
    return EXIT_OK


def _export(results, order, out: Path) -> None:
    """Write the similarity exports of `results`, in order; the first
    failed one raises."""
    for result in results:
        entry = result.entry
        write_similarity(out, f"similarity_{entry.label()}",
                         figure_similarity(result, order),
                         provenance=entry.to_dict())


def _in_child(fill, size: int = 0):
    """Forks a child that runs `fill` on a float64 array of `size` held in an
    anonymous shared mapping, or on an empty array and no mapping for size
    0, and leaves by os._exit, 0 if `fill` returned and 1 otherwise, so no
    atexit handler or caller's `finally` runs there; there a warning is an
    error and prints nothing, and here no filter is set. Returns a function
    that waits for the child and returns that array itself, or None: where
    os.fork is missing, where the mapping cannot be made or the fork fails,
    and when the child failed or died. Call it, in a `finally` if work
    comes between, so that no child outlives the caller."""
    if not hasattr(os, "fork"):
        return lambda: None
    try:
        array = np.frombuffer(mmap.mmap(-1, 8 * size)) if size else np.empty(0)
        pid = os.fork()
    except (OSError, OverflowError):
        return lambda: None  # no room or no process: the caller does it
    if pid == 0:
        code = 1
        try:
            warnings.simplefilter("error")  # unprinted; the caller redoes it
            fill(array)
            code = 0
        finally:
            os._exit(code)
    return lambda: array if os.waitpid(pid, 0)[1] == 0 else None


def _audit_input(sim_cfg: SimConfig, k: int):
    """(spectrum of X, ground truth) of `sim_cfg`. A forked child draws X and
    counts its Gram (no BLAS); a second one decomposes that Gram and writes
    the top k of σ and V, k the plan's largest rank, to a mapping that this
    process reads in place, having drawn the ground truth meanwhile: eigh
    sits neither on the sampler's memory nor on the pages this process
    touched at import. A child that cannot run or fails has its step run
    here, into an array of its own, meeting its errors, and the next step
    goes on from that array, so every layout hands on the same spectrum."""
    n, p = sim_cfg.n, sim_cfg.p

    def count(out):
        out.reshape(p, p)[:] = sample_interactions(sim_cfg)[0].gram()

    gram = _in_child(count, p * p)()
    if gram is None:
        count(gram := np.empty(p * p))
    gram = gram.reshape(p, p)

    def decompose(out):
        spec = Spectrum.of_gram(gram, n)
        out[:p * k].reshape(p, k)[:] = spec.right[:, :k]
        out[p * k:] = spec.singular_values[:k]

    wait = _in_child(decompose, p * k + k)
    try:
        gt = sample_ground_truth(sim_cfg)
    finally:
        decomposed = wait()
    if decomposed is None:
        decompose(decomposed := np.empty(p * k + k))
    return Spectrum(singular_values=decomposed[p * k:],
                    right=decomposed[:p * k].reshape(p, k)), gt


def cmd_audit(args) -> int:
    cfg = _resolve(args)
    plan, out, sim_cfg = cfg.plan, cfg.out, cfg.sim
    spec, gt = _audit_input(sim_cfg, max(e.rank for e in plan))
    # the report, its warnings and its first compute error, before any
    # file is written; the exports take its pairs
    report = compare_configurations(spec, gt, plan)
    order = figure_item_order(gt)
    # equal entries, and only they, share a label and one set of files,
    # written from the first of them
    distinct = {}
    for r in report.results:
        distinct.setdefault(r.entry.label(), r)
    distinct = list(distinct.values())
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(distinct), cpus)
    with _writing(cfg) as stage:
        # with 2 or more workers, forked child w writes distinct[w::workers];
        # this process then writes again, in plan order, the entries of each
        # child that failed, died or was not forked, so the error, if any,
        # is the first one a single process meets
        written = [False] * workers
        if workers > 1:
            waits = [_in_child(lambda _, share=distinct[w::workers]:
                               _export(share, order, stage))
                     for w in range(workers)]
            written = [wait() is not None for wait in waits]
        _export([r for i, r in enumerate(distinct)
                 if not written[i % workers]], order, stage)
        # the ground truth in figure order: 1 where two items share a cluster
        cluster = gt.item_cluster[order]
        write_pgm(stage / "ground_truth.pgm",
                  cluster[:, None] == cluster[None, :], 0.0, 1.0)
        write_json(stage / "report.json", report.to_dict())
    print(f"audit complete: {len(report.results)} plan entries, "
          f"report at {out / 'report.json'}")
    return EXIT_OK


def cmd_fullrank_check(args) -> int:
    cfg = _resolve(args)
    # the full-rank identities are those of objective 1 on the raw X
    if cfg.solve.objective != 1:
        raise ConfigError("solve.objective", "the full-rank identities hold "
                                             "for objective 1 only")
    if cfg.standardize:
        raise ConfigError("solve.standardize", "the full-rank identities "
                                               "hold for the raw X only")
    n, p = cfg.sim.n, cfg.sim.p
    if p > n:
        raise ConfigError("sim.p", f"full-rank check needs p <= n, got {n}x{p}")
    X = sample_interactions(cfg.sim)[0]
    audit = audit_full_rank(X, cfg.solve.lam)
    with _writing(cfg) as stage:
        write_json(stage / "fullrank_report.json", audit.to_dict())
    if not audit.all_passed:
        first = next(c for c in audit.checks if not (c.passed or c.skipped))
        print(f"identity check failed: {first.name} "
              f"(deviation {first.deviation:.3e}, tol {first.tol:.3e})",
              file=sys.stderr)
        return EXIT_CHECK
    skipped = [c.name for c in audit.checks if c.skipped]
    print(f"full-rank checks passed, but rank {audit.rank} < p = {p} skipped "
          f"{len(skipped)} of them: {', '.join(skipped)}" if skipped else
          f"all full-rank checks passed (rank {audit.rank}, "
          f"{audit.zero_sigma_dims} zero-sigma dims excluded)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosine-audit",
        description="Audit cosine similarities of regularized matrix-"
                    "factorization embeddings on simulated clustered data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--config": {"metavar": "PATH", "help": "JSON config file"},
        "--out": {"metavar": "DIR", "help": "output directory"},
        "--seed": {"type": int, "metavar": "U64"},
        "--lambda": {"dest": "lambda", "type": float, "metavar": "REAL"},
        "--rank": {"type": int, "metavar": "INT"},
        "--objective": {"type": int, "choices": (1, 2)},
        "--family": {"choices": FAMILIES},
        "--metric": {"choices": ("cosine", "dot"), "default": "cosine"},
        "--kind": {"choices": ("item-item", "user-user", "user-item"),
                   "default": "item-item"},
    }
    common = ("--config", "--out", "--seed")
    solve = common + ("--lambda", "--rank", "--objective")
    for name, fn, own, about in (
            ("simulate", cmd_simulate, common,
             "generate X.csv and ground_truth.json"),
            ("solve", cmd_solve, solve, "fit an embedding pair and export it"),
            ("similarity", cmd_similarity,
             solve + ("--family", "--metric", "--kind"),
             "export one similarity matrix"),
            ("audit", cmd_audit, common,
             "run the configured plan and export contrasts plus heatmaps"),
            ("fullrank-check", cmd_fullrank_check, common + ("--lambda",),
             "verify the exact full-rank identities")):
        p = sub.add_parser(name, help=about)
        for flag in own:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one structured line per warning, without its source line
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        # set once, before any work: setting a filter forgets the warnings
        # already printed. Python 3.12+ warns at a fork with threads; ours
        # are OpenBLAS's, whose own fork handlers stop them
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is "
                                "multi-threaded", DeprecationWarning)
        try:
            return args.fn(args)
        except ConfigError as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except (ValueError, ArithmeticError, np.linalg.LinAlgError,
                OSError) as e:
            print(f"compute error: {e}", file=sys.stderr)
            return EXIT_COMPUTE
        except MemoryError as e:
            print("compute error: out of memory"
                  + (f": {e}" if str(e) else ""), file=sys.stderr)
            return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
