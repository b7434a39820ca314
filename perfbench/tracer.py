"""Outside-in tracer: wraps simfuse's public functions from the benchmark.

Nothing in the library is modified on disk.  ``install`` replaces each
public function of every ``simfuse`` module with a timing wrapper, at
every module-level name that refers to it, because some callers import a
function by name (``simfuse.cnn.weighted_pair_matrices`` is the same
object as ``simfuse.attention.weighted_pair_matrices``) and only the
name the caller looks up sees the wrapper.  ``uninstall`` puts the
originals back.

Spans (name, start, end, parent span, pair id) are kept in memory while
the tracer is enabled and written out once at the end.  Hot helpers
called tens of times per pair get a counting wrapper without a span, so
that tracing does not swamp the time it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Called tens of times per pair: counted (with their distinct arguments
#: where the ratio is a metric), never timed.
COUNTED = {
    "tfidf.term_frequency": None,
    "tfidf.idf": None,
    "attention.edit_distance": lambda u, v: (u, v),
    "embedding.lookup": None,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a top-level span
    pair_id: str


@dataclass
class Tracer:
    """Spans and counters of one traced run; disabled until ``enabled``."""

    enabled: bool = False
    pair_id: str = ""
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    distinct: dict[str, set] = field(default_factory=lambda: defaultdict(set))
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------
    def _span_wrapper(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1, self.pair_id))
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
        return wrapper

    def _count_wrapper(self, name: str, func, key):
        counts, distinct = self.counts, self.distinct

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
                if key is not None:
                    distinct[name].add(key(*args, **kwargs))
            return func(*args, **kwargs)
        return wrapper

    def _lookup_wrapper(self, func):
        """``embedding.lookup`` also counts misses and distinct missed surfaces."""
        counts, distinct = self.counts, self.distinct

        @functools.wraps(func)
        def wrapper(table, surface):
            if self.enabled:
                counts["embedding.lookup"] += 1
                if surface not in table.vectors:
                    counts["embedding.oov_lookups"] += 1
                    distinct["embedding.oov_lookups"].add(surface)
            return func(table, surface)
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self, package) -> list[str]:
        """Wrap every public function defined in ``package``'s modules.

        Returns the wrapped names as ``module.function``.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(prefix) or name == package.__name__]
        wrappers: dict[int, object] = {}
        names = []
        for module in modules:
            for attr, func in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != module.__name__):
                    continue
                name = f"{module.__name__[len(prefix):]}.{attr}"
                if name == "embedding.lookup":
                    wrappers[id(func)] = self._lookup_wrapper(func)
                elif name in COUNTED:
                    wrappers[id(func)] = self._count_wrapper(name, func, COUNTED[name])
                else:
                    wrappers[id(func)] = self._span_wrapper(name, func)
                names.append(name)
        # Install at every name bound to a wrapped function, re-exports included.
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return sorted(names)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as stream:
            stream.write("span\tname\tstart\tend\tparent\tpair_id\n")
            for i, s in enumerate(self.spans):
                stream.write(f"{i}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.pair_id}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    child spans (the union of the children's intervals, clipped to it)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def function_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``s`` (total duration) and ``self_s``."""
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        entry = stats[s.name]
        entry["calls"] += 1
        entry["s"] += s.end - s.start
        entry["self_s"] += own
    return dict(stats)
