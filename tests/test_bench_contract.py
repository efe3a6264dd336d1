"""What the benchmark in bench/ needs from the package, checked without running it.

The benchmark wraps entry points by module attribute (bench/tracing.py
ENTRY_POINTS), its hooks read arguments of those calls by parameter name,
and its layer metrics assume every span inside a train belongs to the
trainer, output, basis or linalg layer. A rename in the package that broke
any of this would otherwise only show when the benchmark runs. These tests
only read bench/.
"""

import inspect
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402,F401  (its imports of package names must resolve)

from basis_learner import make_dataset, trainer  # noqa: E402
from basis_learner.dataset import SplitSpec, split  # noqa: E402

TRAIN_LAYERS = {"trainer", "output", "basis", "linalg"}


def test_every_entry_point_resolves():
    for module, attr, name, _, _ in tracing.ENTRY_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_hook_arguments_are_parameters_of_the_wrapped_call():
    checked = 0
    for module, attr, _, before, after in tracing.ENTRY_POINTS:
        params = inspect.signature(getattr(module, attr)).parameters
        for hook in filter(None, (before, after)):
            for arg in re.findall(r'args\["(\w+)"\]', inspect.getsource(hook)):
                assert arg in params, f"{hook.__name__} reads {arg!r} of {attr}"
                checked += 1
    assert checked >= 4  # fit_head's F, kind, opt and the builders' state


def test_spans_inside_train_belong_to_the_training_layers():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((60, 3))
    ds = make_dataset(X, X[:, 0] * X[:, 1] + 0.1 * rng.standard_normal(60))
    fit, valid = split(ds, SplitSpec(validation_count=20))
    config = trainer.TrainConfig(mode="width", gamma=6, batch=3, max_depth=4,
                                 lambda_grid=(1e-3, 1e-1))
    with tracing.traced(tracing.Tracer()) as tr:
        trainer.train(fit, valid, config)
    spans = tr.spans
    root = next(i for i, s in enumerate(spans) if s.name == "trainer.train")
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # a parent span is recorded before its children
        inside[i] = i == root or (s.parent >= 0 and inside[s.parent])
    names = {s.name for s, keep in zip(spans, inside) if keep}
    assert {n.split(".")[0] for n in names} <= TRAIN_LAYERS, sorted(names)
    assert {"output.fit_head", "output.validation_error",
            "basis.build_basis_t_width", "linalg.residual"} <= names
