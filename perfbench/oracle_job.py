"""Check gradient_descent_oracle against the closed forms on the criterion-5 family.

Usage: python3 perfbench/oracle_job.py --seed N --out RESULT_JSON
                                       [--trace SPANS_JSON]

The problems are the first instance of the acceptance test's family: the
8 x 6 standard-normal X drawn from seed 1000, solved at rank 3 for lambda in
{0.1, 1, 10} under both objectives, with the oracle's default
initialisation. One instance keeps a step short enough that a run can
repeat it and report the median. `--seed` only permutes the order of the
problems: the oracle's iteration count depends strongly on X and on its
starting point, so drawing either from the seed would make the work itself
differ from seed to seed. For every problem the oracle's loss is compared
with the closed form's; RESULT_JSON gets the problem count and the worst
relative deviation. With `--trace`, the benchmark's span tracer is
installed and its spans are written to SPANS_JSON.
"""

import argparse
import json
import sys
from time import perf_counter

start = perf_counter()

import numpy as np  # noqa: E402

from cosine_audit import mf_solvers  # noqa: E402

import_s = perf_counter() - start

INSTANCES = 1
LAMBDAS = (0.1, 1.0, 10.0)
RANK = 3


def problems(seed: int) -> list:
    family = []
    for inst in range(INSTANCES):
        x = np.random.default_rng(1000 + inst).standard_normal((8, 6))
        for lam in LAMBDAS:
            for objective, solver, loss in (
                    (mf_solvers.OBJECTIVE_PRODUCT_REG, "solve_objective1",
                     "objective1_loss"),
                    (mf_solvers.OBJECTIVE_SPLIT_REG, "solve_objective2",
                     "objective2_loss")):
                family.append((inst, x, lam, objective, solver, loss))
    order = np.random.default_rng(seed).permutation(len(family))
    return [family[i] for i in order]


def verify(seed: int) -> dict:
    worst, worst_problem, count = 0.0, None, 0
    for inst, x, lam, objective, solver, loss in problems(seed):
        # look functions up on the module so the tracer's hooks apply
        solve_fn, loss_fn = getattr(mf_solvers, solver), getattr(mf_solvers, loss)
        closed = solve_fn(x, RANK, lam)
        target = loss_fn(x, closed.A, closed.B, lam)
        oracle = mf_solvers.gradient_descent_oracle(x, RANK, lam, objective)
        achieved = loss_fn(x, oracle.A, oracle.B, lam)
        dev = abs(achieved - target) / target
        count += 1
        if worst_problem is None or dev > worst:
            worst = dev
            worst_problem = {"instance": inst, "lambda": lam,
                             "objective": objective}
    return {"problems": count, "worst_rel_dev": worst,
            "worst_problem": worst_problem}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace")
    args = ap.parse_args(argv)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        result = verify(args.seed)
    finally:
        if tracer is not None:
            tracer.dump(args.trace, import_s)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
