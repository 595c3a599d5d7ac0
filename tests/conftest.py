"""Shared test helpers."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Peak bytes that numpy and Python allocate during one call."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
