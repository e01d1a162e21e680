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
import os
import pickle
import sys
import warnings
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
from .matrix_core import spectrum
from .remedies import standardize
from .rescale import FAMILIES
from .similarity import item_item, user_item, user_user
from .synthgen import (SAMPLER, SimConfig, figure_item_order,
                       sample_interactions)

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

# Written by simulate next to its exports X.csv and ground_truth.json: the
# resolved sim config X was drawn from, and the sampler that drew it. No
# command reads those exports back; each draws X from its own config and
# refuses a directory whose exports this record does not match.
SIM_RECORD = "X.sim.json"

# `similarity --kind user-user` refuses larger n: its n x n float64 matrix
# would take 8 n^2 bytes, 200 MB at this n and 3.2 GB at the default n
USER_USER_MAX_USERS = 5_000


# the JSON type of each key the config file may hold at its top level, in
# its "output" section, in a plan entry and in its "solve" section; the
# "sim" section's table is synthgen.SIM_KEYS
CONFIG_KEYS = {"sim": "a JSON object", "solve": "a JSON object",
               "plan": "a non-empty list", "output": "a JSON object"}
OUTPUT_KEYS = {"dir": "a string"}
ENTRY_KEYS = {"objective": "an integer", "lambda": "a number",
              "rank": "an integer"}
PLAN_KEYS = {**ENTRY_KEYS, "family": "a string"}
SOLVE_KEYS = {**ENTRY_KEYS, "standardize": "true or false"}


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
        entry = PlanEntry(objective=fields["objective"],
                          lam=float(fields["lambda"]), rank=fields["rank"],
                          family=fields.get("family", "identity"))
    except ConfigError as e:
        raise ConfigError(f"{where}.{e.key}", e.message)
    if max_rank is not None and entry.rank > max_rank:
        raise ConfigError(f"{where}.rank", "must be at most min(sim.n, sim.p)"
                                           f" = {max_rank}, got {entry.rank}")
    return entry


def _resolve(args) -> Resolved:
    """Read the config file once and check every section of it, whichever
    the subcommand reads; a ConfigError names the first offending key.
    Nothing is written before this returns."""
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
             if k in ("objective", "lambda", "rank", "family") and v is not None}
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
    return Resolved(sim=sim, plan=plan, solve=solve_entry,
                    standardize=solve.get("standardize", False),
                    out=Path(args.out or output.get("dir", ".")))


def _write_manifest(cfg: Resolved) -> None:
    """manifest.json: the whole resolved config, flags applied, its hash,
    the seed and the version. It holds no timings, so reruns match."""
    config = {"sim": cfg.sim.to_dict(),
              "plan": [e.to_dict() for e in cfg.plan],
              "solve": {**cfg.solve.to_dict(), "standardize": cfg.standardize}}
    write_manifest(cfg.out, config, cfg.sim.seed, __version__)


def _sim_record(sim_cfg: SimConfig) -> dict:
    return {**sim_cfg.to_dict(), "sampler": SAMPLER}


def _draw(out: Path, sim_cfg: SimConfig):
    """(X as `BinaryRows`, ground truth), drawn from `sim_cfg`; `out` is made
    once the draw succeeds. An `out` holding an X.csv or ground_truth.json
    whose record is missing or names another config is refused first: its
    exports would sit beside outputs of another X."""
    x_path = out / "X.csv"
    if x_path.exists() or (out / "ground_truth.json").exists():
        try:
            recorded = read_json(out / SIM_RECORD)
        except (OSError, ValueError):
            recorded = None
        if not isinstance(recorded, dict):
            recorded = {}
        diff = ", ".join(f"{k} {recorded.get(k)!r} there, {v!r} here"
                         for k, v in _sim_record(sim_cfg).items()
                         if recorded.get(k) != v)
        if diff:
            raise ConfigError("sim", f"{x_path} was not simulated from this "
                                     f"config ({diff}); use another --out or "
                                     "rerun simulate")
    sample, gt = sample_interactions(sim_cfg)
    out.mkdir(parents=True, exist_ok=True)
    return sample.rows, gt


def cmd_simulate(args) -> int:
    cfg = _resolve(args)
    sim_cfg, out = cfg.sim, cfg.out
    sample, gt = sample_interactions(sim_cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out / "X.csv", sample.rows)
    write_json(out / "ground_truth.json", gt.to_dict())
    write_json(out / SIM_RECORD, _sim_record(sim_cfg))
    _write_manifest(cfg)
    print(f"wrote {out / 'X.csv'} ({sim_cfg.n}x{sim_cfg.p}) and ground_truth.json")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _resolve(args)
    entry, out = cfg.solve, cfg.out
    X, _ = _draw(out, cfg.sim)
    pair = solve_plan_entry(standardize(X)[0] if cfg.standardize else X,
                            entry)
    pair_dir = out / f"pair_obj{entry.objective}"
    write_embedding_pair(pair_dir, pair)
    _write_manifest(cfg)
    print(f"wrote embedding pair to {pair_dir}")
    return EXIT_OK


def cmd_similarity(args) -> int:
    cfg = _resolve(args)
    entry, out, n = cfg.solve, cfg.out, cfg.sim.n
    if args.kind == "user-user" and n > USER_USER_MAX_USERS:
        raise ConfigError("kind", f"user-user needs an n x n matrix and n = "
                                  f"{n} > {USER_USER_MAX_USERS}")
    X, _ = _draw(out, cfg.sim)
    X = standardize(X)[0] if cfg.standardize else X
    kind_fn = {"item-item": item_item, "user-user": user_user,
               "user-item": user_item}[args.kind]
    sim = kind_fn(X, solve_plan_entry(X, entry), args.metric, on_zero="drop")
    name = (f"similarity_{args.kind}_{args.metric}_obj{entry.objective}"
            f"_{entry.family}")
    write_similarity(out, name, sim, entry.to_dict())
    _write_manifest(cfg)
    print(f"wrote {out / (name + '.csv')}")
    return EXIT_OK


def _export_share(spec, gt, plan: list[PlanEntry], w: int, workers: int,
                  out: Path):
    """Write the similarity exports of plan entries w, w + workers, ... in
    order until one fails; (plan index, error) of that one, or None. The
    report pass has shown every warning these entries raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(w, len(plan), workers):
            try:
                write_similarity(out, f"similarity_{plan[i].label()}",
                                 figure_similarity(spec, gt, plan[i]),
                                 provenance=plan[i].to_dict())
            except Exception as e:
                return i, e
    return None


def _fork_share(spec, gt, plan: list[PlanEntry], w: int, workers: int,
                out: Path):
    """(pid, read end of its pipe) of a child that sends back
    `_export_share`'s return value, pickled. The child leaves through
    os._exit, so no atexit handler or caller's `finally` runs in it."""
    r, wfd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads forks; the only
            # threads here are OpenBLAS's, whose own fork handlers stop them
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            with open(wfd, "wb") as f:
                pickle.dump(_export_share(spec, gt, plan, w, workers, out), f)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, r


def _join_share(pid: int, fd: int, w: int):
    """What the child sent on `fd`, once it is reaped. A child that died
    first fails at its first entry, w."""
    with open(fd, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except Exception:
        return w, OSError(f"plan worker {pid} ended without a result (exit "
                          f"status {os.waitstatus_to_exitcode(status)})")


def cmd_audit(args) -> int:
    cfg = _resolve(args)
    plan, out, sim_cfg = cfg.plan, cfg.out, cfg.sim
    X, gt = _draw(out, sim_cfg)
    spec = spectrum(X)
    # the report, its warnings and its first compute error, before any
    # file is written
    report = compare_configurations(spec, gt, plan)
    # worker w writes the exports of plan[w::workers]; worker 0 is this
    # process
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(plan), cpus) if hasattr(os, "fork") else 1
    written = [out / f"similarity_{e.label()}.{ext}" for e in plan
               for ext in ("csv", "json", "pgm")]
    try:
        children, failures = [], []
        try:
            for w in range(1, workers):
                children.append(_fork_share(spec, gt, plan, w, workers, out))
            failures.append(_export_share(spec, gt, plan, 0, workers, out))
        finally:
            failures += [_join_share(pid, fd, w)
                         for w, (pid, fd) in enumerate(children, start=1)]
        failed = [f for f in failures if f is not None]
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
        # the ground truth in figure order: 1 where two items share a cluster
        cluster = gt.item_cluster[figure_item_order(gt)]
        written.append(out / "ground_truth.pgm")
        write_pgm(out / "ground_truth.pgm",
                  cluster[:, None] == cluster[None, :], 0.0, 1.0)
        written.append(out / "report.json")
        write_json(out / "report.json", report.to_dict())
        _write_manifest(cfg)
    except Exception:
        for f in written:
            f.unlink(missing_ok=True)
        raise
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
    n, p, out = cfg.sim.n, cfg.sim.p, cfg.out
    if p > n:
        raise ConfigError("sim.p", f"full-rank check needs p <= n, got {n}x{p}")
    X, _ = _draw(out, cfg.sim)
    audit = audit_full_rank(X, cfg.solve.lam)
    write_json(out / "fullrank_report.json", audit.to_dict())
    _write_manifest(cfg)
    if not audit.all_passed:
        first = next(c for c in audit.checks if not (c.passed or c.skipped))
        print(f"identity check failed: {first.name} "
              f"(deviation {first.deviation:.3e}, tol {first.tol:.3e})",
              file=sys.stderr)
        return EXIT_CHECK
    print(f"all full-rank checks passed (rank {audit.rank}, "
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
        "--family": {"choices": FAMILIES, "default": "identity"},
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


def _warning_line(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one structured line per warning, without its source line
        warnings.showwarning = _warning_line
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
