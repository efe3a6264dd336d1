"""Command-line front end.

Subcommands: ``train`` fits a model and writes it with a trace log,
``predict`` scores new rows, ``evaluate`` prints metrics against labeled
data, ``inspect`` summarizes a saved model. Exit codes: 0 success, 1
runtime failure, 2 usage error; all error text goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .dataset import DatasetFormatError, SplitSpec, load_dense, split
from .network import (
    SCHEMA,
    ModelFormatError,
    arithmetic_cost,
    load_model,
    predict,
    save_model,
)
from .output import LOSS_KINDS, decide
from .trainer import TrainConfig, evaluate, train


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--format", choices=("csv", "sparse"), default="csv")
    p.add_argument("--header", action="store_true", help="skip one header line")
    p.add_argument("--dims", type=int, default=None,
                   help="feature count: sparse data is read at this width, a CSV "
                   "file must have it (default: the model's input width, or, when "
                   "training, the largest sparse index or the CSV width)")


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lambda list {text!r}") from None
    if not vals:
        raise argparse.ArgumentTypeError("empty lambda list")
    return vals


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="basis-learner",
        description="Constructive layer-by-layer training of polynomial networks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="fit a model and write it to disk")
    _add_data_flags(tr)
    tr.add_argument("--out", required=True, help="model output path")
    tr.add_argument("--mode", choices=("exact", "width"), default=TrainConfig.mode,
                    help="layer construction mode (default %(default)s)")
    tr.add_argument("--width", dest="gamma", type=int, default=TrainConfig.gamma,
                    metavar="GAMMA",
                    help="per-layer node budget in width mode (default %(default)s)")
    tr.add_argument("--depth", dest="max_depth", type=int, default=None, metavar="DELTA",
                    help="max depth counting the output layer (default: uncapped)")
    tr.add_argument("--batch", type=int, default=TrainConfig.batch,
                    help="columns admitted per selection round (default %(default)s)")
    tr.add_argument("--loss", choices=LOSS_KINDS, default=TrainConfig.loss,
                    help="output-layer loss (default %(default)s)")
    tr.add_argument("--lambda", dest="lambda_grid", type=_parse_lambdas,
                    default=TrainConfig.lambda_grid, metavar="LIST",
                    help="comma-separated regularization grid "
                    "(default: 10^-7 .. 10^1 in half-decade steps)")
    tr.add_argument("--valid-count", type=int, default=0,
                    help="rows split off the tail for validation (default 0)")
    tr.add_argument("--patience", type=int, default=TrainConfig.patience,
                    help="stop after this many non-improving depths (default %(default)s)")
    tr.add_argument("--stop-train-loss", dest="error_threshold", type=float, default=None,
                    metavar="EPS", help="stop once training loss falls to EPS")
    tr.add_argument("--tol", type=float, default=None,
                    help="column-independence tolerance (default 1e-8*sqrt(m))")
    tr.add_argument("--svd", choices=("exact", "randomized"), default=TrainConfig.svd,
                    help="first-layer factorization in width mode: randomized takes the "
                    "seeded range finder on lifts where it is the cheaper factor, else the "
                    "exact one; exact takes the Gram eigendecomposition when "
                    "gamma < d+1 <= rows (default %(default)s)")
    tr.add_argument("--seed", type=int, default=TrainConfig.seed,
                    help="seed of the randomized SVD and the SGD heads (default %(default)s)")
    tr.add_argument("--trace-out", default=None, help="also write trace lines here")

    pr = sub.add_parser("predict", help="print score and decision per row")
    pr.add_argument("--model", required=True)
    _add_data_flags(pr)

    ev = sub.add_parser("evaluate", help="print metrics on labeled data")
    ev.add_argument("--model", required=True)
    _add_data_flags(ev)

    ins = sub.add_parser("inspect", help="print model architecture summary")
    ins.add_argument("--model", required=True)
    return ap


def _load(args, task=None, dims=None):
    # a sparse file is read at the model's width (an index it leaves out is
    # zero); a CSV file must have that width
    return load_dense(args.data, args.format, header=args.header,
                      dims=args.dims if args.dims is not None else dims, task=task)


def _cmd_train(args) -> int:
    ds = _load(args)
    train_part, valid_part = split(ds, SplitSpec(args.valid_count))
    # each config flag's dest is its TrainConfig field name
    config = TrainConfig(**{f.name: getattr(args, f.name)
                            for f in fields(TrainConfig) if hasattr(args, f.name)})
    net, trace = train(train_part, valid_part, config)
    for w in trace.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for line in trace.lines():
        print(line)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trace.lines()) + "\n")
    save_model(net, args.out)
    print(
        f"trained depth={trace.best_depth} nodes={net.total_nodes} "
        f"lambda={trace.best_lambda!r} train_loss={trace.best_train_loss!r} "
        f"train_err={trace.best_train_err!r} valid_err={trace.best_valid_err!r} "
        f"termination={trace.termination} model={args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    net = load_model(args.model)
    ds = _load(args, task=net.task, dims=net.input_dim)
    scores = np.atleast_2d(predict(net, ds.X))
    labels = decide(net.task, scores)
    if net.task == "binary":
        for s, lab in zip(scores[:, 0], labels):
            print(f"{float(s)!r} {int(lab):+d}")
    elif net.task == "multiclass":
        for row, lab in zip(scores, labels):
            print(" ".join(repr(float(s)) for s in row) + f" {lab}")
    else:
        for s in scores[:, 0]:
            print(repr(float(s)))
    return 0


def _cmd_evaluate(args) -> int:
    net = load_model(args.model)
    ds = _load(args, task=net.task, dims=net.input_dim)
    metrics = evaluate(net, ds)
    print(f"m: {metrics['m']}")
    print(f"error: {metrics['error']!r}")
    print(f"mean_loss: {metrics['mean_loss']!r}")
    if "confusion" in metrics:
        print("confusion:")
        for row in metrics["confusion"]:
            print("  " + " ".join(str(int(c)) for c in row))
    return 0


def _cmd_inspect(args) -> int:
    net = load_model(args.model)
    widths = net.layer_widths
    print(f"schema: {SCHEMA}")
    print(f"input_dim: {net.input_dim}")
    print(f"task: {net.task}" + (f"({net.n_classes})" if net.task == "multiclass" else ""))
    print(f"depth: {net.depth}")
    print(f"degree_bound: {net.depth - 1}")
    print(f"layer_widths: {' '.join(str(w) for w in widths)}")
    print(f"product_layers: {len(net.product_layers)}")
    print(f"total_nodes: {net.total_nodes}")
    print(f"outputs: {net.outputs}")
    print(f"arithmetic_cost: {arithmetic_cost(net)}")
    print(f"loss: {net.head.loss}")
    print(f"lambda: {net.head.lam!r}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DatasetFormatError, ModelFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
