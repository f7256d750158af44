"""Spans recorded around loopwalks functions, from outside the package.

``install`` replaces each target function by a recording wrapper in every
``loopwalks.*`` namespace that holds it.  Modules import names directly
(``from .census import subgraph_census``), so rebinding only the defining
module would let those calls escape.  Spans stay in memory until the pass
ends; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a request root
    request: int


class Tracer:
    """Collects spans; ``observers`` see (args, result) of named functions."""

    def __init__(self, observers: dict[str, Callable] | None = None):
        self.spans: list[Span | None] = []
        self.request = -1
        self.observers = observers or {}
        self._stack = [-1]

    def record(self, name: str, fn: Callable, *args, **kwargs):
        spans = self.spans
        index = len(spans)
        spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[index] = Span(name, start, end, parent, self.request)
        observe = self.observers.get(name)
        if observe is not None:
            observe(args, result)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.record(name, fn, *args, **kwargs)
        return traced


def install(tracer: Tracer, targets: list[str]) -> list[tuple]:
    """Wrap each ``module.function`` target; returns what ``uninstall`` needs."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "loopwalks" or name.startswith("loopwalks.")]
    bindings = []
    for target in targets:
        module_name, func_name = target.rsplit(".", 1)
        home = sys.modules.get(f"loopwalks.{module_name}")
        original = getattr(home, func_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(target, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    bindings.append((module, attr, original))
    return bindings


def uninstall(bindings: list[tuple]) -> None:
    for module, attr, original in bindings:
        setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def write_spans(spans: list[Span], path) -> None:
    """Tab-separated: index, parent, request, name, start_ns, end_ns."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("index\tparent\trequest\tname\tstart_ns\tend_ns\n")
        for index, s in enumerate(spans):
            out.write(f"{index}\t{s.parent}\t{s.request}\t{s.name}\t"
                      f"{int(s.start * 1e9)}\t{int(s.end * 1e9)}\n")
