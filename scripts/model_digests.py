"""SHA-256 of the model file and the trace each bench workload trains, per seed.

Builds each workload's inputs with ``bench/workloads.py`` (imported, never
changed), trains once per seed and prints one line per run. Four more cases
cover paths no bench workload takes. Every case runs the default
``svd="randomized"``: rect-hinge's 800 x 785 lift takes layer 1 from the
seeded range finder, every other case's lift from the exact factor
(``basis.build_basis1_width``). ``randomized`` trains the acceptance
suite's SVD comparison configuration with ``svd="randomized"``, whose
400 x 21 lift takes the exact route: ``random_regression(500, 20, seed)``
with its last 100 rows for validation.
The exact-mode workload fits λ = 0 alone on every row, so ``exact-valid``
trains the default configuration, ``TrainConfig()`` (exact mode, the
default λ grid), on ``random_regression(1200, 8, seed)`` with its last 200
rows for validation. rect-hinge is the only workload with margin heads, so
``logistic`` and ``mc-hinge`` train those two losses in width mode (γ = 20,
b = 10, depth 4, 10 epochs) on the inputs of ``random_regression(600, 6,
seed)``, labelled through four fixed projections Z = X P: the sign of
Z₁Z₂ for logistic, the argmax over Z's four columns for mc-hinge. Their
last 100 rows are for validation. Each line reads

    <workload> <seed> <sha256 of network.serialize(model)> <sha256 of the trace>
        <termination> <best_depth> <best_lambda> <total_nodes> <best_valid_err>

on one line. The trace digest covers ``trace.lines()``, one line per depth,
with the wall-clock ``secs=`` field masked. The answers after the digests
come from the trace header and the network: ``best_valid_err`` is printed
to 10 significant digits, ``-`` when there is no validation split. When a
change moves the digests by rounding alone, a diff of two outputs shows
that the answers did not move. BLAS is pinned to one thread before
numpy loads, so the printed digests depend only on the code and the seed.
Two checkouts that print the same lines write byte-identical models and
trace the same depths. To check that a change left every answer unchanged,
save one checkout's output to a file and run the other with ``--compare
FILE``: it prints, for each run whose line differs from the saved line of
the same workload and seed (or has none), the saved line prefixed ``-``
and its own prefixed ``+``, then a count, and exits 1 when any line differs.
Every run also checks that the trained model and its copy reloaded with
``network.deserialize`` predict the same bits on the first 1, 10 and 256
training rows and on all of them; a mismatch is reported on standard error
and the script exits 1. It leaves the printed lines as they are.

Usage:
    python3 scripts/model_digests.py [--workloads rect-hinge randomized ...] [--seeds 1 2 3]
        [--compare FILE]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from basis_learner.dataset import SplitSpec, make_dataset, split  # noqa: E402
from basis_learner.network import deserialize, predict, serialize  # noqa: E402
from basis_learner.synthetic import random_regression  # noqa: E402
from basis_learner.trainer import TrainConfig, train  # noqa: E402
from workloads import BUILDERS, make_inputs  # noqa: E402

_SECS = re.compile(r" secs=\S+")

# SVD_CFG of tests/test_acceptance.py
_SVD_CFG = dict(mode="width", gamma=30, batch=15, max_depth=4,
                lambda_grid=(1e-6, 1e-4, 1e-2))
CASES = [*BUILDERS, "randomized", "exact-valid", "logistic", "mc-hinge"]


def margin_labels(kind, X):
    """Rows X (6 inputs) labelled for the ``logistic`` or ``mc-hinge`` case:
    binary labels or four classes, from fixed projections."""
    Z = X @ np.random.default_rng(0).standard_normal((6, 4))
    return (make_dataset(X, np.where(Z[:, 0] * Z[:, 1] > 0, 1.0, -1.0), task="binary")
            if kind == "logistic" else make_dataset(X, Z.argmax(axis=1), task="multiclass"))


def margin_case(kind, X):
    """(fit, valid, config) of the ``logistic`` or ``mc-hinge`` case on rows
    X, the last 100 of them for validation."""
    fit, valid = split(margin_labels(kind, X), SplitSpec(validation_count=100))
    return fit, valid, TrainConfig(mode="width", gamma=20, batch=10, max_depth=4,
                                   loss=kind, sgd_epochs=10)


def _inputs(name, seed):
    """(fit, valid, config) of a bench workload or of one of the extra cases."""
    if name in ("logistic", "mc-hinge"):
        return margin_case(name, random_regression(600, 6, seed).X)
    if name == "randomized":
        fit, valid = split(random_regression(500, 20, seed), SplitSpec(validation_count=100))
        return fit, valid, TrainConfig(svd="randomized", seed=seed, **_SVD_CFG)
    if name == "exact-valid":
        fit, valid = split(random_regression(1200, 8, seed), SplitSpec(validation_count=200))
        return fit, valid, TrainConfig()
    inputs = make_inputs(name, seed)
    return inputs.fit, inputs.valid, inputs.config


def _reload_mismatches(net, blob, X):
    """Row counts n (1, 10, 256, all) on which ``net`` and the model loaded
    from its bytes ``blob`` predict other bits for the first n rows of X."""
    back = deserialize(blob)
    return [n for n in (1, 10, 256, X.shape[0])
            if predict(net, X[:n]).tobytes() != predict(back, X[:n]).tobytes()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=CASES, default=CASES)
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    ap.add_argument("--compare", metavar="FILE", help="saved output to compare against")
    args = ap.parse_args(argv)
    saved = None  # the saved line of each (workload, seed), when comparing
    if args.compare:
        saved = {tuple(line.split()[:2]): line
                 for line in Path(args.compare).read_text().splitlines() if line.strip()}
    differ = mismatched = 0
    for name in args.workloads:
        for seed in args.seeds:
            fit, valid, config = _inputs(name, seed)
            net, trace = train(fit, valid, config)
            blob = serialize(net)
            if bad := _reload_mismatches(net, blob, fit.X):
                mismatched += 1
                print(f"{name} {seed}: the reloaded model predicts other bits on "
                      f"{', '.join(map(str, bad))} rows", file=sys.stderr, flush=True)
            model_digest = hashlib.sha256(blob).hexdigest()
            lines = "\n".join(_SECS.sub(" secs=*", line) for line in trace.lines())
            trace_digest = hashlib.sha256(lines.encode()).hexdigest()
            head = trace.header()
            err = head["best_valid_err"]
            line = " ".join(map(str, (
                name, seed, model_digest, trace_digest, head["termination"], head["best_depth"],
                repr(float(head["best_lambda"])), net.total_nodes,
                "-" if err is None else f"{err:.10g}")))
            if saved is None:
                print(line, flush=True)
            elif (old := saved.get((name, str(seed)))) != line:
                differ += 1
                print(f"- {old or f'{name} {seed} (not saved)'}")
                print(f"+ {line}", flush=True)
    if saved is not None:
        print(f"{differ} of {len(args.workloads) * len(args.seeds)} lines differ from {args.compare}")
    return 1 if differ or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
