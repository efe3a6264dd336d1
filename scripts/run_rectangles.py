"""Rectangles benchmark: deep width-mode model vs the best linear model.

Renders outline rectangles into 28x28 binary images labeled +1 when the
rectangle is taller than wide, trains a depth-capped width-mode network
with hinge loss, and compares against a depth-2 (linear) model selected
over the same lambda grid. Both models share the train/validation split.

Usage:
    python3 scripts/run_rectangles.py [--train 1200 --test 5000 --width 50]
"""

import argparse
import sys
import time

from basis_learner import SplitSpec, TrainConfig, evaluate, split, train
from basis_learner.synthetic import rectangles


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--train", type=int, default=1200)
    ap.add_argument("--valid", type=int, default=200,
                    help="taken from the tail of the training block")
    ap.add_argument("--test", type=int, default=5000)
    ap.add_argument("--width", type=int, default=50)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--batch", type=int, default=50)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    total = args.train + args.test
    print(f"rendering {total} distinct rectangle images (seed {args.seed})")
    full = rectangles(total, seed=args.seed)
    train_block, test_ds = split(full, SplitSpec(args.test))
    fit_ds, valid_ds = split(train_block, SplitSpec(args.valid))

    runs = [
        ("deep", TrainConfig(mode="width", gamma=args.width, batch=args.batch,
                             max_depth=args.depth, loss="hinge", seed=0)),
        ("linear", TrainConfig(mode="width", gamma=args.width, batch=args.batch,
                               max_depth=2, loss="hinge", seed=0)),
    ]
    results = {}
    for name, cfg in runs:
        t0 = time.perf_counter()
        net, trace = train(fit_ds, valid_ds, cfg)
        err = evaluate(net, test_ds)["error"]
        results[name] = err
        print(f"{name:>6}: depth={net.depth} nodes={net.total_nodes} "
              f"valid_err={trace.best_valid_err:.4f} test_err={err:.4f} "
              f"({time.perf_counter() - t0:.1f}s)")
    gap = results["linear"] - results["deep"]
    print(f"deep beats linear by {100 * gap:.1f} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
