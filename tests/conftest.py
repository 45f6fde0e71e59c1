"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import paper_bibliography, paper_codebook, table1_corpus


@pytest.fixture(scope="session")
def codebook():
    return paper_codebook()


@pytest.fixture(scope="session")
def corpus():
    return table1_corpus()


@pytest.fixture(scope="session")
def bibliography():
    return paper_bibliography()


def crash_worker(chunk, telemetry):
    """A worker entry that dies without cleanup (test double).

    Has ``repro.ops.pool._execute_chunk``'s signature; tests patch it
    in and the pool's workers inherit it through fork.
    """
    os._exit(13)


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash double reaches workers via fork inheritance",
)
