"""Spans recorded from outside the package, by wrapping its functions.

`Tracer.install` replaces each target with a timing wrapper in every
twistamp module namespace that holds it (so `from .graphs import
cycle_basis` call sites are traced too) and `uninstall` puts the originals
back. A target the package no longer has is listed in `absent` instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

from workloads import METHODS


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note_estimate(span, args, result):
    span.counts["samples"] = result.n_samples
    span.counts["rel_err"] = result.std_error / abs(result.estimate)


def _note_pfaffian_batch(span, args, result):
    batch, dim, _ = args[0].shape
    span.counts["bytes"] = batch * dim * dim * 16  # complex128


# (module, attribute, span name, kind, note)
TARGETS = (
    ("twistamp.graphs", "Graph.build", "graphs.build", "call", None),
    ("twistamp.graphs", "cycle_basis", "graphs.cycle_basis", "call", None),
    ("twistamp.graphs", "route_momenta", "graphs.route_momenta", "call", None),
    ("twistamp.symanzik", "second_symanzik", "symanzik.second_symanzik", "call", None),
    ("twistamp.symanzik", "first_symanzik_trees", "symanzik.first_symanzik_trees", "call", None),
    ("twistamp.twistor", "propagator_forms", "twistor.propagator_forms", "call", None),
    (
        "twistamp.twistor", "pfaffian_symanzik_ratio",
        "twistor.pfaffian_symanzik_ratio", "call", None,
    ),
    ("twistamp.algebra", "pfaffian_symbolic", "algebra.pfaffian_symbolic", "call", None),
    ("twistamp.integrate", "direct_amplitude", "integrate.direct", "call", _note_estimate),
    ("twistamp.integrate", "parametric_amplitude", "integrate.parametric", "call", _note_estimate),
    ("twistamp.integrate", "pfaffian_amplitude", "integrate.pfaffian", "call", _note_estimate),
    ("twistamp.integrate", "extract_constants", "integrate.extract_constants", "call", None),
    ("twistamp.integrate", "_simplex_batches", "integrate.sampler", "generator", None),
    ("twistamp.integrate", "_poly_evaluator", "integrate.s2_eval", "factory", None),
    (
        "twistamp.integrate", "_pfaffian_batch",
        "integrate.pfaffian_batch", "call", _note_pfaffian_batch,
    ),
    ("twistamp.integrate", "_Accumulator.add", "integrate.accumulate", "call", None),
    ("twistamp.cli", "cmd_integrate", "cli.integrate", "call", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                note(span, args, result)
            return result

        return wrapper

    def _generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return wrapper

    def _factory(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn(*args, **kwargs), None)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name in {t[0] for t in TARGETS}:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # its targets are reported absent below
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "twistamp"]
        for module_name, attr, name, kind, note in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(leaf)
            if raw is None:
                self.absent.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == "generator":
                wrapped = self._generator(name, fn)
            elif kind == "factory":
                wrapped = self._factory(name, fn)
            else:
                wrapped = self._call(name, fn, note)
            if path:  # class attribute: patch the class itself
                new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                self._undo.append((owner, leaf, raw))
                setattr(owner, leaf, new)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._undo.append((module, key, raw))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, raw = self._undo.pop()
            setattr(owner, key, raw)

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict:
        kids: dict = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_times(self) -> list:
        """Duration minus the part of the span that its children cover."""
        kids = self.children()
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            edge = span.start
            for child in sorted(kids.get(index, ()), key=lambda c: self.spans[c].start):
                c = self.spans[child]
                lo, hi = max(c.start, edge), min(c.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(span.duration - covered)
        return out

    def accounting_errors(self) -> list:
        """Estimator spans whose children plus self time do not add up to the
        span: children must lie inside their parent and not overlap."""
        kids = self.children()
        selfs = self.self_times()
        errors = []
        for index, span in enumerate(self.spans):
            if span.name.split(".")[-1] not in METHODS:
                continue
            child_sum = sum(self.spans[c].duration for c in kids.get(index, ()))
            gap = span.duration - (child_sum + selfs[index])
            if abs(gap) > 1e-9 + 1e-9 * span.duration or selfs[index] < 0.0:
                errors.append(f"{span.name}: children + self - span = {gap:.3g} s")
        return errors

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have an `ancestor` span above them."""
        count = 0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            count += parent is not None
        return count

    def totals(self) -> dict:
        """Per span name: calls, total and self seconds, summed counts.

        A span nested inside a span of the same name is not added twice.
        """
        selfs = self.self_times()
        out: dict = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            entry["calls"] += 1
            entry["self_s"] += selfs[index]
            parent = span.parent
            while parent is not None and self.spans[parent].name != span.name:
                parent = self.spans[parent].parent
            if parent is None:
                entry["total_s"] += span.duration
            for key, value in span.counts.items():
                entry["counts"].setdefault(key, []).append(value)
        return out
