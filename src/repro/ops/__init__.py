"""The service kernel: typed operations over every subsystem façade.

The ROADMAP's north star is a system serving many clients, but until
this package existed the only entry point was a hand-wired CLI
monolith. ``repro.ops`` extracts the service layer the paper's
"ethics assessment as a queryable service" framing calls for:

* :mod:`~repro.ops.spec` — :class:`Operation` (name, declarative
  :class:`Arg` spec, handler, purity flags), canonical request
  building, :class:`OpResponse` (structured payload + exact CLI
  text + exit code), and the byte-stable :func:`emit_json` /
  :func:`emit_jsonl` serialisers;
* :mod:`~repro.ops.catalog` / :mod:`~repro.ops.catalog_runtime` —
  every subsystem entry point (Table 1, §5 statistics, reports,
  lint, simulators, the safeguard pipeline, audit inspection,
  telemetry egress, REB simulation) registered as an operation;
* :mod:`~repro.ops.kernel` — :func:`execute`, the single code path
  all adapters share;
* :mod:`~repro.ops.context` — :class:`RunContext`: memoised corpus
  + content digest, the result-cache slot, observer factories;
* :mod:`~repro.ops.cache` — the content-addressed
  :class:`ResultCache` for pure operations;
* :mod:`~repro.ops.failures` — the single domain-error →
  exit-code table (:func:`describe_failure`);
* :mod:`~repro.ops.pool` — the :class:`WarmPool`: a process-
  lifetime pool of pre-forked, pre-warmed, cache-less workers and
  the one coordinator-side result cache that learns from all of
  them;
* :mod:`~repro.ops.batch` — the JSONL :class:`BatchExecutor` with
  cache-aware chunked fan-out over the warm pool, per-request audit
  events and in-order telemetry replay.

The CLI (:mod:`repro.cli.main`) is one thin adapter over this
kernel — staticcheck rule R7 forbids it any other subsystem import —
and an HTTP server or queue consumer would be another. ``ReproError``
is re-exported so adapters can catch domain failures without
importing :mod:`repro.errors` directly.
"""

from ..errors import BatchError, OperationError, ReproError
from .batch import (
    BatchExecutor,
    BatchRequest,
    BatchResult,
    load_requests,
)
from .cache import ResultCache, cache_key
from .catalog import default_registry
from .context import RunContext
from .failures import (
    EXIT_FAILURE,
    EXIT_USAGE,
    describe_failure,
    failure_table,
)
from .kernel import execute
from .pool import (
    WarmPool,
    auto_chunk_size,
    shutdown_warm_pools,
    warm_pool,
)
from .spec import (
    Arg,
    Operation,
    OperationRegistry,
    OpResponse,
    build_request,
    emit_json,
    emit_jsonl,
)

__all__ = [
    "Arg",
    "BatchError",
    "BatchExecutor",
    "BatchRequest",
    "BatchResult",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "OpResponse",
    "Operation",
    "OperationError",
    "OperationRegistry",
    "ReproError",
    "ResultCache",
    "RunContext",
    "WarmPool",
    "auto_chunk_size",
    "build_request",
    "cache_key",
    "default_registry",
    "describe_failure",
    "emit_json",
    "emit_jsonl",
    "execute",
    "failure_table",
    "load_requests",
    "shutdown_warm_pools",
    "warm_pool",
]
