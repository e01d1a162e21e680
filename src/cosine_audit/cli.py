"""Command-line pipeline: simulate -> solve -> similarity -> audit.

One JSON config drives all subcommands; it may contain the sections
"sim", "solve", "plan", and "output". Command-line flags override config
keys, which override built-in defaults.

Exit codes: 0 success, 2 config error, 3 compute error, 4 identity-check
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (AuditReport, PlanEntry, audit_full_rank,
                       compare_configurations)
from .errors import ConfigError
from .io_utils import (read_json, read_matrix_csv, write_embedding_pair,
                       write_json, write_manifest, write_matrix_csv,
                       write_similarity)
from .mf_solvers import solve_objective1, solve_objective2
from .rescale import FAMILIES, apply_scaling, named_scaling
from .similarity import item_item, user_item, user_user
from .synthgen import GroundTruth, SimConfig, sample_interactions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_CHECK = 4

DEFAULT_SIM = {
    "n": 20_000, "p": 1_000, "C": 5,
    "cluster_probs": [0.2, 0.2, 0.2, 0.2, 0.2],
    "beta_item_min": 0.25, "beta_item_max": 1.5,
    "beta_user": 0.5, "seed": 0,
}

DEFAULT_PLAN = [
    {"objective": 1, "lambda": 10_000.0, "rank": 50, "family": "collapse"},
    {"objective": 1, "lambda": 10_000.0, "rank": 50, "family": "identity"},
    {"objective": 1, "lambda": 10_000.0, "rank": 50, "family": "inverse"},
    {"objective": 2, "lambda": 100.0, "rank": 50, "family": "identity"},
]

# Written next to X.csv by the step that simulated it: the resolved sim
# config X was drawn from. X.csv is reused only when this record matches.
SIM_RECORD = "X.sim.json"

# `similarity --kind user-user` refuses larger n: its n x n float64 matrix
# would take 8 n^2 bytes, 200 MB at this n and 3.2 GB at the default n
USER_USER_MAX_USERS = 5_000


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        cfg = read_json(path)
    except (OSError, ValueError) as e:
        raise ConfigError("config", f"cannot read {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top-level JSON object expected")
    return cfg


def _sim_config(cfg: dict, args) -> SimConfig:
    sim = dict(DEFAULT_SIM)
    # accept either a {"sim": {...}} section or a bare SimConfig object
    section = cfg.get("sim", cfg if "n" in cfg else {})
    sim.update(section)
    if args.seed is not None:
        sim["seed"] = args.seed
    return SimConfig.from_dict(sim)


def _solve_settings(cfg: dict, args) -> dict:
    solve = {"objective": 1, "lambda": 10_000.0, "rank": 50,
             "standardize": False}
    solve.update(cfg.get("solve", {}))
    if args.objective is not None:
        solve["objective"] = args.objective
    if getattr(args, "lam", None) is not None:
        solve["lambda"] = args.lam
    if args.rank is not None:
        solve["rank"] = args.rank
    if solve["objective"] not in (1, 2):
        raise ConfigError("objective", "must be 1 or 2")
    lam, rank = solve["lambda"], solve["rank"]
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise ConfigError("lambda", f"must be finite and >= 0, got {lam}")
    if not (isinstance(rank, int) and rank >= 1):
        raise ConfigError("rank", f"must be an integer >= 1, got {rank}")
    return solve


def _plan(cfg: dict, args) -> list[PlanEntry]:
    raw = cfg.get("plan", DEFAULT_PLAN)
    entries = []
    for i, e in enumerate(raw):
        try:
            entries.append(PlanEntry(objective=int(e["objective"]),
                                     lam=float(e["lambda"]),
                                     rank=int(e["rank"]),
                                     family=e.get("family", "identity")))
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"plan[{i}]", str(err))
        if entries[-1].family not in FAMILIES:
            raise ConfigError(f"plan[{i}].family",
                              f"must be one of {', '.join(FAMILIES)}")
    if not entries:
        raise ConfigError("plan", "must contain at least one entry")
    return entries


def _out_dir(cfg: dict, args) -> Path:
    out = args.out or cfg.get("output", {}).get("dir", ".")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _simulate(out: Path, sim_cfg: SimConfig):
    sample, gt = sample_interactions(sim_cfg)
    write_matrix_csv(out / "X.csv", sample.rows)
    write_json(out / "ground_truth.json", gt.to_dict())
    write_json(out / SIM_RECORD, sim_cfg.to_dict())
    return sample.rows, gt


def _load_or_simulate(out: Path, cfg: dict, args):
    """(X as `BinaryRows`, ground truth, sim config): reused from `out` when
    its simulation record matches the resolved sim config, simulated when
    absent."""
    sim_cfg = _sim_config(cfg, args)
    x_path = out / "X.csv"
    gt_path = out / "ground_truth.json"
    if not (x_path.exists() and gt_path.exists()):
        return (*_simulate(out, sim_cfg), sim_cfg)
    try:
        recorded = read_json(out / SIM_RECORD)
    except (OSError, ValueError):
        recorded = None
    if not isinstance(recorded, dict):
        recorded = {}
    diff = ", ".join(f"{k} {recorded.get(k)!r} there, {v!r} here"
                     for k, v in sim_cfg.to_dict().items() if recorded.get(k) != v)
    if diff:
        raise ConfigError("sim", f"{x_path} was not simulated from this config "
                                 f"({diff}); use another --out or rerun simulate")
    return (read_matrix_csv(x_path, binary=True),
            GroundTruth.from_dict(read_json(gt_path)), sim_cfg)


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    sim_cfg = _sim_config(cfg, args)
    out = _out_dir(cfg, args)
    _simulate(out, sim_cfg)
    write_manifest(out, sim_cfg.to_dict(), sim_cfg.seed, __version__)
    print(f"wrote {out / 'X.csv'} ({sim_cfg.n}x{sim_cfg.p}) and ground_truth.json")
    return EXIT_OK


def _solve(X, solve: dict):
    solver = solve_objective1 if solve["objective"] == 1 else solve_objective2
    if solve.get("standardize"):
        from .remedies import standardize
        X, _, _ = standardize(X)
    return X, solver(X, solve["rank"], solve["lambda"])


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    solve = _solve_settings(cfg, args)
    out = _out_dir(cfg, args)
    X, _, sim_cfg = _load_or_simulate(out, cfg, args)
    X, pair = _solve(X.dense(), solve)
    pair_dir = out / f"pair_obj{solve['objective']}"
    write_embedding_pair(pair_dir, pair)
    write_manifest(out, {"sim": sim_cfg.to_dict(), "solve": solve},
                   sim_cfg.seed, __version__)
    print(f"wrote embedding pair to {pair_dir}")
    return EXIT_OK


def cmd_similarity(args) -> int:
    cfg = _load_config(args.config)
    solve = _solve_settings(cfg, args)
    if args.kind == "user-user":
        n = _sim_config(cfg, args).n
        if n > USER_USER_MAX_USERS:
            raise ConfigError("kind", f"user-user needs an n x n matrix and n = "
                                      f"{n} > {USER_USER_MAX_USERS}")
    out = _out_dir(cfg, args)
    X, _, _ = _load_or_simulate(out, cfg, args)
    X, pair = _solve(X.dense(), solve)
    family = args.family or "identity"
    if family not in FAMILIES:
        raise ConfigError("family", f"must be one of {', '.join(FAMILIES)}")
    if family != "identity":
        pair = apply_scaling(pair, named_scaling(pair, family))
    metric = args.metric or "cosine"
    kind_fn = {"item-item": item_item, "user-user": user_user,
               "user-item": user_item}[args.kind]
    sim = kind_fn(X, pair, metric, on_zero="drop")
    name = f"similarity_{args.kind}_{metric}_obj{solve['objective']}_{family}"
    provenance = {"objective": solve["objective"], "lambda": solve["lambda"],
                  "rank": solve["rank"], "family": family}
    write_similarity(out, name, sim, provenance)
    print(f"wrote {out / (name + '.csv')}")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _load_config(args.config)
    plan = _plan(cfg, args)
    out = _out_dir(cfg, args)
    X, gt, sim_cfg = _load_or_simulate(out, cfg, args)

    written: list[Path] = []

    def export(res) -> None:
        if res.degenerate:
            print(f"warning: degenerate plan entry {res.entry.label()}: "
                  f"effective_rank={res.effective_rank} "
                  f"rank={res.entry.rank}; its cosines are all +-1 and "
                  "its contrast is not a finding", file=sys.stderr)
        name = f"similarity_{res.entry.label()}"
        written.extend(out / f"{name}.{ext}" for ext in ("csv", "json", "pgm"))
        write_similarity(out, name, res.similarity,
                         provenance=res.entry.to_dict())

    try:
        report = compare_configurations(X, gt, plan, export=export)
        p = X.shape[1]
        full_rank = None
        fr_entries = [e for e in plan if e.rank == p and e.objective == 1]
        if fr_entries:
            full_rank = audit_full_rank(X.dense(), fr_entries[0].lam,
                                        spec=report.spectrum)
        doc = report.to_dict()
        if full_rank is not None:
            doc["full_rank"] = full_rank.to_dict()
        write_json(out / "report.json", doc)
        write_manifest(out, {"sim": sim_cfg.to_dict(),
                             "plan": [e.to_dict() for e in plan]},
                       sim_cfg.seed, __version__)
    except Exception:
        for f in written:
            f.unlink(missing_ok=True)
        raise
    print(f"audit complete: {len(report.results)} plan entries, "
          f"report at {out / 'report.json'}")
    return EXIT_OK


def cmd_fullrank_check(args) -> int:
    cfg = _load_config(args.config)
    solve = _solve_settings(cfg, args)
    out = _out_dir(cfg, args)
    X, _, _ = _load_or_simulate(out, cfg, args)
    n, p = X.shape
    if p > n:
        raise ConfigError("sim.p", f"full-rank check needs p <= n, got {n}x{p}")
    audit = audit_full_rank(X.dense(), solve["lambda"])
    write_json(out / "fullrank_report.json", audit.to_dict())
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

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--seed", type=int, metavar="U64")
        p.add_argument("--lambda", dest="lam", type=float, metavar="REAL")
        p.add_argument("--rank", type=int, metavar="INT")
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--objective", type=int, choices=(1, 2))
        p.add_argument("--metric", choices=("cosine", "dot"))

    p = sub.add_parser("simulate", help="generate X.csv and ground_truth.json")
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("solve", help="fit an embedding pair and export it")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("similarity", help="export one similarity matrix")
    common(p)
    p.add_argument("--kind", choices=("item-item", "user-user", "user-item"),
                   default="item-item")
    p.set_defaults(fn=cmd_similarity)

    p = sub.add_parser("audit", help="run the configured plan and export "
                                     "contrasts plus heatmaps")
    common(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("fullrank-check", help="verify the exact full-rank "
                                              "identities")
    common(p)
    p.set_defaults(fn=cmd_fullrank_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError, np.linalg.LinAlgError, OSError) as e:
        print(f"compute error: {e}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
