"""Tests for the shared ordered fan-out engine (repro.fanout).

The engine is driven here with in-process stand-ins for futures, so
ordering, the in-flight bound and worker-loss attribution are checked
deterministically; the process-pool callers are covered end to end in
``test_ops_pool.py`` and ``test_pipeline.py``.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import BatchError
from repro.fanout import IN_FLIGHT_PER_WORKER, OrderedFanout, worker_lost
from repro.observability import (
    FlightRecorder,
    Observer,
    observed,
)


class _Done:
    """A future that already holds its value (or its exception)."""

    def __init__(self, value=None, error=None):
        self.value = value
        self.error = error

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


class _Pool:
    """Records submissions; answers each item with ``item * 10``."""

    def __init__(self, refuse_from=None, lose=()):
        self.submitted: list[int] = []
        self.refuse_from = refuse_from
        self.lose = set(lose)

    def submit(self, item):
        if self.refuse_from is not None and item >= self.refuse_from:
            raise BrokenProcessPool("pool already broken")
        self.submitted.append(item)
        if item in self.lose:
            return _Done(error=BrokenProcessPool("worker died"))
        return _Done(item * 10)


def _lost(calls):
    def lost(item, exc):
        calls.append((item, type(exc).__name__))
        return BatchError(f"lost {item}")

    return lost


class TestOrderAndWindow:
    def test_results_in_submission_order(self):
        pool = _Pool()
        fanout = OrderedFanout(
            pool.submit, range(9), workers=2, lost=_lost([])
        )
        assert list(fanout) == [item * 10 for item in range(9)]

    def test_first_window_is_submitted_eagerly(self):
        pool = _Pool()
        OrderedFanout(pool.submit, range(20), workers=3, lost=_lost([]))
        assert pool.submitted == list(range(3 * IN_FLIGHT_PER_WORKER))

    def test_in_flight_never_exceeds_the_window(self):
        pool = _Pool()
        fanout = OrderedFanout(
            pool.submit, iter(range(50)), workers=2, lost=_lost([])
        )
        seen = []
        for drained, _ in enumerate(fanout, start=1):
            seen.append(len(pool.submitted) - drained)
        assert max(seen) == fanout.window == 2 * IN_FLIGHT_PER_WORKER
        assert seen[-1] == 0

    def test_resolve_hook_sees_every_item(self):
        pool = _Pool()
        waited = []

        def resolve(future, item):
            waited.append(item)
            return future.result()

        fanout = OrderedFanout(
            pool.submit,
            range(5),
            workers=1,
            lost=_lost([]),
            resolve=resolve,
        )
        assert list(fanout) == [0, 10, 20, 30, 40]
        assert waited == [0, 1, 2, 3, 4]


class TestLossAttribution:
    def test_refused_submission_blames_the_lost_pending_chunk(self):
        # Chunk 0's worker died; the pool then refused chunk 2. The
        # loss belongs to chunk 0, whose result really was lost.
        pool = _Pool(refuse_from=2, lose={0})
        calls = []
        fanout = OrderedFanout(
            pool.submit, range(6), workers=2, lost=_lost(calls)
        )
        with pytest.raises(BatchError, match="lost 0"):
            next(fanout)
        assert calls == [(0, "BrokenProcessPool")]
        assert pool.submitted == [0, 1]

    def test_refused_submission_after_clean_drain_blames_itself(self):
        pool = _Pool(refuse_from=3)
        calls = []
        fanout = OrderedFanout(
            pool.submit, range(6), workers=1, lost=_lost(calls)
        )
        assert [next(fanout) for _ in range(3)] == [0, 10, 20]
        with pytest.raises(BatchError, match="lost 3"):
            next(fanout)
        assert calls == [(3, "BrokenProcessPool")]

    def test_loss_is_reported_once(self):
        pool = _Pool(lose={1, 2})
        calls = []
        fanout = OrderedFanout(
            pool.submit, range(4), workers=2, lost=_lost(calls)
        )
        assert next(fanout) == 0
        with pytest.raises(BatchError, match="lost 1"):
            next(fanout)
        with pytest.raises(StopIteration):
            next(fanout)
        assert calls == [(1, "BrokenProcessPool")]


class TestWorkerLostReport:
    def test_event_incident_and_typed_error(self):
        recorder = FlightRecorder(capacity=8)
        observer = Observer.recording().attach(flight=recorder)
        with observed(observer):
            error = worker_lost(
                "ops",
                "requests 0-1",
                BrokenProcessPool("gone"),
                workers=2,
                error=BatchError,
                note="; rebuilt later",
                rebuilds=1,
            )
        assert isinstance(error, BatchError)
        assert str(error) == (
            "worker process lost while running requests 0-1 "
            "(BrokenProcessPool: gone); rebuilt later"
        )
        events = [
            event
            for event in observer.trail
            if event.action == "worker-lost"
        ]
        assert [(e.category, e.subject, e.detail) for e in events] == [
            ("ops", "pool", {"span": "requests 0-1", "workers": 2})
        ]
        (bundle,) = recorder.incidents
        assert bundle.kind == "worker-lost"
        assert bundle.envelope["context"] == {
            "rebuilds": 1,
            "span": "requests 0-1",
            "workers": 2,
        }
