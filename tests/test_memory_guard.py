"""The suite's memory guard (``tests/conftest.py``) on made-up readings.

The hook reads the peak RSS of the test process and of its children
around each test and names, on the real stderr, a test that raised
either by more than the fixed limit.
"""

from __future__ import annotations

import io
import sys
from types import SimpleNamespace

import pytest

import conftest

LIMIT = conftest.PEAK_GROWTH_LIMIT_MB


def run_hook(monkeypatch, nodeid: str, readings: list[tuple[float, float]]) -> str:
    """Drive the hook wrapper around one test whose peaks read
    ``readings`` (before, after); returns what it wrote to stderr."""
    stream = io.StringIO()
    monkeypatch.setattr(sys, "__stderr__", stream)
    feed = iter(readings)
    monkeypatch.setattr(conftest, "peak_rss_mb", lambda: next(feed))
    hook = conftest.pytest_runtest_protocol(SimpleNamespace(nodeid=nodeid), None)
    next(hook)
    with pytest.raises(StopIteration):
        hook.send(None)
    return stream.getvalue()


def test_a_test_under_the_limit_prints_nothing(monkeypatch):
    readings = [(100.0, 50.0), (100.0 + LIMIT, 50.0 + LIMIT)]
    assert run_hook(monkeypatch, "tests/test_x.py::test_small", readings) == ""


def test_process_growth_past_the_limit_names_the_test(monkeypatch):
    readings = [(100.0, 50.0), (100.0 + LIMIT + 1, 50.0)]
    written = run_hook(monkeypatch, "tests/test_x.py::test_big[3]", readings)
    assert written == (
        f"memory: tests/test_x.py::test_big[3] raised process peak RSS 100 -> "
        f"{100 + LIMIT + 1} MB (limit +{LIMIT} MB)\n"
    )


def test_child_growth_past_the_limit_names_the_test(monkeypatch):
    readings = [(100.0, 0.0), (120.0, 4700.0)]
    written = run_hook(monkeypatch, "tests/test_x.py::test_spawns", readings)
    assert written.count("\n") == 1
    assert "tests/test_x.py::test_spawns" in written
    assert "children peak RSS 0 -> 4700 MB" in written
    assert "process peak" not in written


def test_a_child_reporting_the_process_peak_prints_nothing(monkeypatch):
    # The first child after the test process grew reports the
    # process's own high-water mark as its peak.
    readings = [(342.0, 29.0), (342.0, 342.0)]
    assert run_hook(monkeypatch, "tests/test_x.py::test_spawn", readings) == ""
    readings = [(342.0, 29.0), (342.0, 342.0 + LIMIT + 1)]
    assert "test_spawn" in run_hook(monkeypatch, "tests/test_x.py::test_spawn", readings)


def test_the_readings_are_megabytes_of_both_peaks():
    process, children = conftest.peak_rss_mb()
    assert 1 < process < 100_000
    assert 0 <= children < 100_000
