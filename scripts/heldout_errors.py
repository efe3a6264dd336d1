"""Held-out error, best depth and best λ of the margin-loss cases, per seed.

Three cases train margin heads:
- ``rect-hinge``: the bench workload, built by ``bench/workloads.py``
  (imported, never changed), scored on its 2,000 test rows by the bench's
  own ``held_out_error``;
- ``logistic`` and ``mc-hinge``: the configurations of
  ``scripts/model_digests.py``, trained on the first 600 rows of
  ``random_regression(2600, 6, seed)`` (its last 100 for validation) and
  scored on the other 2,000, all labelled by that script's projections.

Each run prints one line

    <case> <seed> <held-out error> <best_depth> <best_lambda> <best_valid_err>

and each case ends with the means over its seeds:

    <case> mean <held-out error> <best_valid_err> over <n> seeds

Errors are misclassification rates, printed to 10 significant digits.
BLAS is pinned to one thread before numpy loads, so the output depends
only on the code and the seeds. To compare two checkouts, run the script
in each on the same seeds and pair the lines by case and seed.

Usage:
    python3 scripts/heldout_errors.py [--cases rect-hinge logistic mc-hinge] [--seeds 1 2 3]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "scripts")]

import numpy as np  # noqa: E402
from basis_learner.network import predict  # noqa: E402
from basis_learner.synthetic import random_regression  # noqa: E402
from basis_learner.trainer import evaluate, train  # noqa: E402
from model_digests import margin_case, margin_labels  # noqa: E402
from workloads import held_out_error, make_inputs  # noqa: E402

CASES = ("rect-hinge", "logistic", "mc-hinge")


def run(case, seed):
    """(held-out error, trace) of one seeded train of ``case``."""
    if case == "rect-hinge":
        inputs = make_inputs(case, seed)
        net, trace = train(inputs.fit, inputs.valid, inputs.config)
        return held_out_error(inputs, predict(net, inputs.test_X)), trace
    X = random_regression(2600, 6, seed).X
    net, trace = train(*margin_case(case, X[:600]))
    return evaluate(net, margin_labels(case, X[600:]))["error"], trace


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", nargs="+", choices=CASES, default=list(CASES))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    for case in args.cases:
        errs, valids = [], []
        for seed in args.seeds:
            err, trace = run(case, seed)
            errs.append(err)
            valids.append(trace.best_valid_err)
            print(f"{case} {seed} {err:.10g} {trace.best_depth} {trace.best_lambda!r} "
                  f"{trace.best_valid_err:.10g}", flush=True)
        print(f"{case} mean {np.mean(errs):.10g} {np.mean(valids):.10g} "
              f"over {len(args.seeds)} seeds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
