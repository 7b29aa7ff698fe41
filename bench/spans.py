"""In-memory spans around the package's public functions.

The package binds names at import (``from .tree import fit_tree``), so
wrapping ``shooting.tree.fit_tree`` alone would miss the calls made from
``shooting.ensemble``. ``instrument`` therefore rebinds every module-level
name (and every value of a module-level dict, such as the CLI's runner
table) that refers to a traced function, and restores each one on exit.

This module imports nothing from numpy or the package, so the benchmark
can pin the BLAS thread variables before either loads.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "shooting"

# "module.function" for every public function that gets a span
TRACED = (
    "tree.fit_tree",
    "tree.predict_tree",
    "ensemble.fit_shooting",
    "ensemble.gradient_targets",
    "ensemble.initial_vectors",
    "ensemble.predict_per_estimator",
    "ensemble.predict",
    "ensemble.project_trajectories",
    "baselines.fit_rf",
    "baselines.fit_gbm",
    "baselines.predict_rf",
    "baselines.predict_gbm",
    "linear.fit_ols",
    "linear.sample_offsets",
    "nuopt.build_cache",
    "nuopt.minimize_nu",
    "nuopt.objective",
    "persist.model_to_dict",
    "persist.model_from_dict",
    "persist.save_model",
    "persist.load_model",
    "persist.write_text_atomic",
    "cli.run_nu_curve",
    "cli.run_pca_diag",
    "cli.write_csv",
    "data.load_auto_mpg",
    "data.split",
    "data.make_synthetic",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int  # operation id shared by a root span and its descendants
    context: str  # the root span's context: sr, rf, gbm, nu_curve, ...
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``op`` opens a root, ``span`` a child."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    @contextmanager
    def op(self, name: str, context: str):
        if self._stack:
            raise RuntimeError(f"operation {name!r} opened inside another span")
        self._ops += 1
        with self._open(name, context, self._ops) as span:
            yield span

    @contextmanager
    def span(self, name: str):
        if not self._stack:
            # a traced call outside any operation is its own operation
            with self.op(name, "none") as span:
                yield span
            return
        root = self.spans[self._stack[0]]
        with self._open(name, root.context, root.op) as span:
            yield span

    @contextmanager
    def _open(self, name: str, context: str, op: int):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, op, context)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                _count(name, span, args, result)
                return result

        return traced


def _count(name: str, span: Span, args, result) -> None:
    """Work counts recorded at the boundary where the work happens."""
    if name == "tree.fit_tree":
        span.counts["nodes"] = result.n_nodes
        span.counts["internal_nodes"] = result.n_nodes - result.n_leaves
        span.counts["digest"] = tree_digest(result)
    elif name == "tree.predict_tree":
        span.counts["rows"] = len(args[1])


def tree_digest(tree) -> str:
    h = hashlib.sha256()
    for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
        h.update(arr.tobytes())
    return h.hexdigest()


def _namespaces():
    """Module dicts of the package plus their module-level dicts."""
    seen = set()
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        ns = vars(module)
        for candidate in [ns, *(v for k, v in ns.items() if isinstance(v, dict) and not k.startswith("__"))]:
            if id(candidate) not in seen:
                seen.add(id(candidate))
                yield candidate


def bindings(originals: dict) -> list[tuple[dict, str, str]]:
    """Every (namespace, key, traced name) whose value is a traced function."""
    by_id = {id(fn): name for name, fn in originals.items()}
    found = []
    for ns in _namespaces():
        for key, value in list(ns.items()):
            name = by_id.get(id(value))
            if name is not None:
                found.append((ns, key, name))
    return found


def targets() -> dict:
    """Each traced function by name, as its defining module holds it."""
    found = {}
    for name in TRACED:
        modname, attr = name.split(".")
        found[name] = getattr(sys.modules[f"{PACKAGE}.{modname}"], attr)
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Rebind each traced function everywhere it is bound; restore on exit."""
    originals = targets()
    wrappers = {name: tracer.wrap(name, fn) for name, fn in originals.items()}
    saved = []
    try:
        for ns, key, name in bindings(originals):
            saved.append((ns, key, ns[key]))
            ns[key] = wrappers[name]
        yield saved
    finally:
        for ns, key, original in reversed(saved):
            ns[key] = original


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted(kids):
            s, e = max(s, span.start), min(e, span.end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.duration - covered)
    return out


def to_records(spans: list[Span]) -> list[dict]:
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "op": s.op,
            "context": s.context,
            **{k: v for k, v in s.counts.items() if k != "digest"},
        }
        for s in spans
    ]
