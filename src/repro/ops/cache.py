"""Content-addressed result cache for pure operations.

Operations marked ``pure`` (Table 1, the §5 statistics, the report,
the legend, …) are functions of their canonical request and the
codebook+corpus content digest alone. The kernel therefore caches
their full :class:`~repro.ops.spec.OpResponse` under a BLAKE2b key
of exactly those inputs: identical requests against identical data
hit; touching the corpus — or any request field — misses by
construction, with no invalidation protocol to get wrong.

Hit/miss counts are tracked twice: locally on the cache (for batch
summaries and the E17 benchmark) and as ``ops.cache.hits`` /
``ops.cache.misses`` counters in the installed metrics registry, so
an observed run exports cache effectiveness alongside every other
metric.

A parallel batch keeps one cache, on the coordinator (the warm
pool's, :mod:`repro.ops.pool`). Workers compute without a cache; the
coordinator counts each dispatched pure request as a miss when it
plans the dispatch, and folds the result the worker returns in with
:meth:`ResultCache.merge`, which moves no counter. ``key in cache``
probes without counting too, so dispatch planning never skews the
stats a batch summary reports.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from collections.abc import Iterable, Mapping

from .spec import OpResponse

__all__ = ["ResultCache", "cache_key"]


def cache_key(
    operation: str, request: Mapping, corpus_digest: str
) -> str:
    """The content address of one pure result.

    BLAKE2b-128 over the canonical JSON of ``(operation, request,
    corpus digest)`` — key equality is exactly "same computation on
    the same data".
    """
    canonical = json.dumps(
        {
            "corpus": corpus_digest,
            "op": operation,
            "request": dict(request),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=16
    ).hexdigest()


class ResultCache:
    """Bounded, insertion-ordered store of operation responses."""

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[str, OpResponse] = OrderedDict()

    def get(self, key: str) -> OpResponse | None:
        """The cached response for *key*, counting the hit or miss."""
        from ..observability import metrics

        response = self._entries.get(key)
        if response is None:
            self.misses += 1
            metrics().counter("ops.cache.misses").inc()
            return None
        self.hits += 1
        metrics().counter("ops.cache.hits").inc()
        return response

    def put(self, key: str, response: OpResponse) -> None:
        """Store *response*; the oldest entry is evicted at capacity."""
        if key not in self._entries and (
            len(self._entries) >= self.maxsize
        ):
            self._entries.popitem(last=False)
        self._entries[key] = response

    def merge(
        self, entries: Iterable[tuple[str, OpResponse]]
    ) -> int:
        """Fold *entries* computed elsewhere in; returns how many.

        Existing keys are kept (first write wins — entries are
        content-addressed, so a duplicate key carries an identical
        response and re-storing it would only churn eviction order).
        Neither hits nor misses move: merged entries were computed,
        not served.
        """
        merged = 0
        for key, response in entries:
            if key not in self._entries:
                self.put(key, response)
                merged += 1
        return merged

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Hit/miss/size counters as a JSON-serialisable dict."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "maxsize": self.maxsize,
            "misses": self.misses,
        }
