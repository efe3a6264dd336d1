"""Spans around each layer's public entry points, recorded from outside src/.

Each entry point is replaced, for the length of a traced run, at the module
attribute its caller resolves it by (``basis_learner.trainer.fit_head``,
``basis_learner.basis.residual``, ...), so the program itself is unchanged.
A span records name, start, end and the index of its parent span; spans
stay in memory until the run ends. Counts are taken at the same boundaries.

A span's self time is its duration minus the durations of its direct
children. Children nest inside their parent, so the self times of all spans
under ``trainer.train`` sum to that span's duration.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from basis_learner import basis, network, trainer


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Span list, call stack and counters of one traced run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.max_objective = float("-inf")
        self._stack: list[int] = []

    def wrap(self, name, fn, before=None, after=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if before or after else None
            if before:
                before(self, bound)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent)
            if after:
                after(self, bound, result)
            return result

        return wrapper


def _count_candidates(tr: Tracer, args) -> None:
    state = args["state"]
    lo, hi = state.layer_ranges[-1]
    tr.counts["basis.candidates"] += (hi - lo) * state.layer1_cols


def _count_admitted(tr: Tracer, args, built) -> None:
    tr.counts["basis.admitted"] += built.width


def _count_fit(tr: Tracer, args, fit) -> None:
    if args["kind"] != "squared":
        tr.counts["output.sgd_steps"] += args["opt"].epochs * args["F"].shape[0]
    tr.max_objective = max(tr.max_objective, fit.train_loss)


# (module, attribute, span name, before hook, after hook)
ENTRY_POINTS = (
    (trainer, "train", "trainer.train", None, None),
    (trainer, "fit_head", "output.fit_head", None, _count_fit),
    (trainer, "validation_error", "output.validation_error", None, None),
    (trainer, "build_basis1_exact", "basis.build_basis1_exact", None, None),
    (trainer, "build_basis1_width", "basis.build_basis1_width", None, None),
    (trainer, "initial_state", "basis.initial_state", None, None),
    (trainer, "build_basis_t_exact", "basis.build_basis_t_exact",
     _count_candidates, _count_admitted),
    (trainer, "build_basis_t_width", "basis.build_basis_t_width",
     _count_candidates, _count_admitted),
    (basis, "thin_svd", "linalg.thin_svd", None, None),
    (basis, "residual", "linalg.residual", None, None),
    (network, "predict", "network.predict", None, None),
    (network, "feature_matrix", "network.feature_matrix", None, None),
    (network, "serialize", "network.serialize", None, None),
    (network, "deserialize", "network.deserialize", None, None),
)


@contextmanager
def traced(tracer: Tracer):
    """Route every entry point through ``tracer`` until the block exits."""
    saved = []
    try:
        for module, attr, name, before, after in ENTRY_POINTS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, before, after))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# model I/O and prediction run many times per repeat: report mean seconds per call
PER_CALL = ("network.predict", "network.feature_matrix", "network.serialize",
            "network.deserialize")


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def _under(spans: list[Span], root: int) -> list[bool]:
    # spans are appended at entry, so a parent always precedes its children
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = i == root or (s.parent >= 0 and inside[s.parent])
    return inside


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (one train plus model I/O)."""
    spans = tr.spans
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.dur
        calls[s.name] += 1
    root = next(i for i, s in enumerate(spans) if s.name == "trainer.train")
    inside = _under(spans, root)
    self_by_layer: dict[str, float] = defaultdict(float)
    for i, st in enumerate(self_times(spans)):
        if inside[i]:
            self_by_layer[spans[i].name.split(".")[0]] += st

    construct = ("basis.build_basis_t_exact", "basis.build_basis_t_width")
    candidates = tr.counts["basis.candidates"]
    admitted = tr.counts["basis.admitted"]
    return {
        "trainer.train_s": spans[root].dur,
        "trainer.self_s": self_by_layer["trainer"],
        "output.self_s": self_by_layer["output"],
        "basis.self_s": self_by_layer["basis"],
        "linalg.self_s": self_by_layer["linalg"],
        "output.fit_s": total["output.fit_head"],
        "output.fit_calls": calls["output.fit_head"],
        "output.sgd_steps": tr.counts["output.sgd_steps"],
        "output.max_objective": tr.max_objective,
        "output.validation_s": total["output.validation_error"],
        "output.validation_calls": calls["output.validation_error"],
        "basis.layer1_s": (total["basis.build_basis1_exact"]
                           + total["basis.build_basis1_width"]
                           + total["basis.initial_state"]),
        "basis.construct_s": sum(total[n] for n in construct),
        "basis.construct_calls": sum(calls[n] for n in construct),
        "basis.candidates": candidates,
        "basis.admitted": admitted,
        "basis.admit_ratio": admitted / candidates if candidates else 0.0,
        "linalg.thin_svd_s": total["linalg.thin_svd"],
        "linalg.thin_svd_calls": calls["linalg.thin_svd"],
        "linalg.residual_s": total["linalg.residual"],
        "linalg.residual_calls": calls["linalg.residual"],
        **{f"{name}_s": total[name] / max(calls[name], 1) for name in PER_CALL},
    }
