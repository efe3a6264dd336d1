"""Exact vs randomized first-layer SVD across seeded width-mode runs.

Trains the same width-mode configuration twice per seed, once per SVD
path, and reports the per-seed validation errors and their differences.
The randomized path sketches layer 1 only where the range finder is the
cheaper factor (``basis.build_basis1_width``) and takes the exact factor
elsewhere. The default shape, 400 fit rows of a 201-column lift at width
30, is one it sketches; on a tall and narrow lift both paths train the
same network.

Usage:
    python3 scripts/run_svd_comparison.py [--runs 10 --m 500 --d 200]
"""

import argparse
import sys
import time

from basis_learner import TrainConfig, train
from basis_learner.dataset import SplitSpec, split
from basis_learner.synthetic import random_regression


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--m", type=int, default=500)
    ap.add_argument("--d", type=int, default=200)
    ap.add_argument("--width", type=int, default=30)
    ap.add_argument("--batch", type=int, default=15)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--valid", type=int, default=100)
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args(argv)

    lambdas = (1e-6, 1e-4, 1e-2)
    worst = 0.0
    t0 = time.perf_counter()
    for seed in range(args.seed0, args.seed0 + args.runs):
        ds = random_regression(args.m, args.d, seed)
        tr, va = split(ds, SplitSpec(validation_count=args.valid))
        errs = {}
        for svd in ("exact", "randomized"):
            cfg = TrainConfig(mode="width", gamma=args.width, batch=args.batch,
                              max_depth=args.depth, lambda_grid=lambdas,
                              svd=svd, seed=seed)
            net, trace = train(tr, va, cfg)
            errs[svd] = trace.best_valid_err
        diff = abs(errs["exact"] - errs["randomized"])
        worst = max(worst, diff)
        print(f"seed {seed}: exact={errs['exact']:.6f} "
              f"randomized={errs['randomized']:.6f} diff={diff:.2e}")
    print(f"max |difference| over {args.runs} runs: {worst:.2e} "
          f"({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
