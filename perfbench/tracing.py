"""Span tracing of discforge from outside the package.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper, at every module attribute that names it: the function's
home module, the package namespace and each module that imported it
(``discforge.cli.read_matrix`` and ``discforge.linalg.read_matrix`` are
the same function and get the same wrapper). ``uninstall`` puts the
originals back, so untraced calls run the unmodified code.

Spans are kept in memory as ``Span`` records: layer name, start, end,
parent span, and the unit (a CLI call or a set-up repetition) that all
spans of one call share. No source file of the package is changed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PACKAGE = "discforge"

# Errors an annotator may hit when a traced function's signature or
# arguments change; the span is then kept without its work annotation.
ANNOTATION_ERRORS = (KeyError, TypeError, AttributeError, IndexError, ValueError, OSError)

Annotator = Callable[[inspect.BoundArguments], dict]


@dataclass
class Span:
    unit: str
    span_id: int
    parent: int | None
    layer: str
    start: float
    end: float
    work: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the public functions of ``modules`` (names relative to the
    package) and records one span per call."""

    def __init__(self, modules: tuple[str, ...], annotators: dict[str, Annotator] | None = None):
        self.modules = modules
        self.annotators = annotators or {}
        self.spans: list[Span] = []
        self.unit = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, Callable]] | None = None

    def public_functions(self) -> dict[int, tuple[Callable, str]]:
        """id(function) -> (function, layer name) for every public function
        defined in a traced module."""
        found = {}
        for short in self.modules:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    found[id(obj)] = (obj, f"{short}.{name}")
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = {
                key: (fn, self._wrap(fn, layer))
                for key, (fn, layer) in self.public_functions().items()
            }
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        annotate = self.annotators.get(layer)
        signature = inspect.signature(fn) if annotate else None
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = Span(self.unit, span_id, parent, layer, start, end)
                spans.append(span)
            if annotate is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.work = annotate(bound)
                except ANNOTATION_ERRORS:
                    span.work = None
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out
