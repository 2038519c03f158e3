"""Span tracing of headlearn's public functions, from outside the package.

While an :func:`instrument` block is open, every target function is
replaced by a wrapper at each ``headlearn.*`` module attribute (or class
attribute, for methods) that holds it, so calls are traced wherever the
calling module looks the name up.  Outside the block the original
functions are back in place and the package runs untouched.

A span records name, start, end and parent.  A span's self time is its
duration minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, qualified name) of every traced function, in report order.
TARGETS = (
    ("simulator", "HeadConfig.basis_matrix"),
    ("simulator", "forward"),
    ("simulator", "HeadSimulator.observe"),
    ("geometry", "derotate"),
    ("geometry", "procrustes_align"),
    ("geometry", "pairwise_distances"),
    ("features", "extract_aus"),
    ("features", "minmax_map"),
    ("dataset", "collect"),
    ("dataset", "save_dataset"),
    ("dataset", "load_dataset"),
    ("dataset", "ingest_openface_csv"),
    ("learn", "pca_fit"),
    ("learn", "pca_transform"),
    ("learn", "ols_fit"),
    ("learn", "mlp_fit"),
    ("learn", "grid_search"),
    ("analysis", "pearson_matrix"),
    ("analysis", "compare_representations"),
    ("retarget", "fit_pipeline"),
    ("retarget", "calibrate_human"),
    ("retarget", "PipelineModel.frame_features"),
    ("retarget", "PipelineModel.predict_raw"),
    ("retarget", "command_from_raw"),
    ("retarget", "stream"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


@dataclass
class Tracer:
    """In-memory spans plus counters for one traced region."""

    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")


def self_times(spans: list[Span]) -> Counter:
    """Sum per name of each span's duration minus its children's durations.

    :meth:`Tracer.close` enforces strict nesting, so the children of a span
    are disjoint and lie inside it: their durations sum to the time they
    cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: Counter = Counter()
    for s, covered in zip(spans, child_time):
        out[s.name] += (s.end - s.start) - covered
    return out


def check_self_time_arithmetic() -> list[str]:
    """Self-check of :func:`self_times` on hand-built nested spans."""
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),   # child of root, 3 s
        Span("b", 2.0, 3.0, 1),   # grandchild inside a, 1 s
        Span("a", 5.0, 6.5, 0),   # second call of a, 1.5 s
    ]
    want = {"root": 10.0 - 3.0 - 1.5, "a": (3.0 - 1.0) + 1.5, "b": 1.0}
    got = self_times(spans)
    return [
        f"self time of {name}: {got[name]} != {value}"
        for name, value in want.items()
        if abs(got[name] - value) > 1e-12
    ]


# -- counts recorded beside calls and self time ------------------------------

def _result_counts(name: str, result) -> dict[str, int]:
    if name == "dataset.ingest_openface_csv":
        return {"rows": len(result)}
    if name == "learn.grid_search":
        _, board = result
        return {
            "points": len(board),
            "diverged": sum(1 for e in board if e.error is not None),
        }
    return {}


def _wrap(fn, name: str, tracer: Tracer):
    sig = inspect.signature(fn)

    def on_call(args, kwargs) -> None:
        tracer.calls[name] += 1
        if name == "learn.mlp_fit":
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.counts[f"{name}.epochs"] += int(bound.arguments["epochs"])

    if inspect.isgeneratorfunction(fn):
        # one span per next(), so time spent by the consumer between
        # items is not charged to the generator
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            on_call(args, kwargs)
            inner = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        on_call(args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        for key, n in _result_counts(name, result).items():
            tracer.counts[f"{name}.{key}"] += n
        return result

    return wrapper


def instrument(tracer: Tracer):
    """Trace every function in :data:`TARGETS` into ``tracer`` while open."""
    return patched(TARGETS, lambda fn, name: _wrap(fn, name, tracer))


@contextlib.contextmanager
def patched(targets, wrap):
    """Replace each (module, qualified name) function of ``targets`` by
    ``wrap(function, "module.qualname")`` wherever headlearn holds it,
    and put the originals back on exit."""
    patches = []  # (owner, attribute, original)
    modules = [m for n, m in list(sys.modules.items())
               if n == "headlearn" or n.startswith("headlearn.")]
    for mod_name, qual in targets:
        home = importlib.import_module(f"headlearn.{mod_name}")
        name = f"{mod_name}.{qual}"
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, wrap(original, name))
            continue
        original = getattr(home, qual)
        wrapper = wrap(original, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
