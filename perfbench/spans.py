"""Spans recorded from outside the program, around calls into its layers.

The traced run replaces a public function (or method, or class used
as a constructor) with a wrapper that records one span per call:
name, start, end, parent span and request id. The program's own
code runs unchanged beneath the wrapper. Untraced runs install no
wrapper at all, so the end-to-end metrics never pay for tracing.

Spans stay in memory as small lists and are written out once, when
the run ends. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from collections.abc import Callable

#: Span list layout: [id, parent, request, name, start_ns, end_ns].
_ID, _PARENT, _REQUEST, _NAME, _START, _END = range(6)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, request_roots: tuple[str, ...] = ()) -> None:
        #: Span names that open a new request id when they start.
        self.request_roots = frozenset(request_roots)
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._requests = 0
        self._patches: list[tuple[object, str, object]] = []
        #: Cleared while the benchmark's own checking code runs.
        self.active = True

    # -- recording ------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """A callable recording a ``name`` span around each call of *fn*."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if name in self.request_roots:
                self._requests += 1
                request = self._requests
            else:
                request = parent[_REQUEST] if parent else None
            span = [
                len(spans),
                parent[_ID] if parent else None,
                request,
                name,
                0,
                0,
            ]
            spans.append(span)
            stack.append(span)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counting(self, name: str, fn: Callable) -> Callable:
        """A callable that only counts calls of *fn* (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def under(self, root: str) -> bool:
        """Whether the outermost open span is named *root*."""
        return bool(self._stack) and self._stack[0][_NAME] == root

    # -- patching -------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def patch_with(self, owner: object, attr: str, replacement) -> None:
        """Replace ``owner.attr`` with *replacement*, restorable."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def tree(
        self, root: str | None = None
    ) -> list[tuple[tuple[str, ...], int, int, int]]:
        """Spans aggregated by path from the root: calls, total, self ns.

        With *root*, only the spans under top-level spans of that name.
        """
        paths: dict[int, tuple[str, ...]] = {}
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            parent = span[_PARENT]
            paths[span[_ID]] = (
                paths[parent] if parent is not None else ()
            ) + (span[_NAME],)
            if parent is not None:
                child_ns[parent] += span[_END] - span[_START]
        totals: dict[tuple[str, ...], list[int]] = defaultdict(
            lambda: [0, 0, 0]
        )
        for span in self.spans:
            path = paths[span[_ID]]
            if root is not None and path[0] != root:
                continue
            duration = span[_END] - span[_START]
            entry = totals[path]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns.get(span[_ID], 0)
        return sorted(
            (path, *entry) for path, entry in totals.items()
        )

    def self_times(
        self, root: str | None = None
    ) -> dict[str, tuple[int, int, int]]:
        """Per span name, wherever it sits (under *root*): calls, total, self ns."""
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for path, calls, total, own in self.tree(root):
            entry = totals[path[-1]]
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        return {name: tuple(entry) for name, entry in totals.items()}

    def render_tree(
        self, per: int, unit: str, root: str | None = None
    ) -> list[str]:
        """The aggregated span tree (under *root*) as text, per *unit* of work."""
        lines = [
            f"span tree (per {unit}, n={per}): calls  total_us  self_us"
        ]
        for path, calls, total, own in self.tree(root):
            indent = "  " * (len(path) - 1)
            lines.append(
                f"  {indent}{path[-1]}: {calls / per:.2f}  "
                f"{total / per / 1e3:.1f}  {own / per / 1e3:.1f}"
            )
        return lines

    def dump(self, path, meta: dict) -> None:
        """Write every span (and *meta*) as gzipped JSON."""
        body = {
            "fields": ["id", "parent", "request", "name", "start_ns",
                       "end_ns"],
            "meta": meta,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            json.dump(body, stream, separators=(",", ":"))
