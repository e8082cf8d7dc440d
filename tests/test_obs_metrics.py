"""Tests for repro.obs.metrics: recorder, snapshots, merge, summary."""

import json

from repro.obs import metrics
from repro.obs.clock import ManualClock, wall_clock


class TestMemoryRecorder:
    def test_counters_accumulate(self):
        rec = metrics.MemoryRecorder()
        rec.count("bfs.candidates")
        rec.count("bfs.candidates")
        rec.count("bfs.candidates", 3)
        assert rec.counters == {"bfs.candidates": 5}

    def test_gauges_last_write_wins(self):
        rec = metrics.MemoryRecorder()
        rec.gauge("bfs.deadline_margin_s", 1.5)
        rec.gauge("bfs.deadline_margin_s", -0.25)
        assert rec.gauges == {"bfs.deadline_margin_s": -0.25}

    def test_histograms_keep_streaming_aggregates(self):
        rec = metrics.MemoryRecorder()
        for value in (2.0, 5.0, 3.0):
            rec.observe("bfs.select_s", value)
        hist = rec.histograms["bfs.select_s"]
        assert hist == {"count": 3, "sum": 10.0, "min": 2.0, "max": 5.0}

    def test_snapshot_is_json_ready_and_detached(self):
        rec = metrics.MemoryRecorder()
        rec.count("b")
        rec.count("a")
        rec.observe("h", 1.0)
        snap = rec.snapshot()
        json.dumps(snap)  # must serialize as-is
        assert list(snap["counters"]) == ["a", "b"]
        rec.count("a")
        rec.observe("h", 9.0)
        assert snap["counters"]["a"] == 1
        assert snap["histograms"]["h"]["count"] == 1


class TestActiveSlot:
    def test_disabled_by_default(self):
        assert metrics.active() is None

    def test_recording_installs_and_restores(self):
        assert metrics.active() is None
        with metrics.recording() as rec:
            assert metrics.active() is rec
            assert isinstance(rec, metrics.MemoryRecorder)
        assert metrics.active() is None

    def test_recording_accepts_existing_recorder(self):
        mine = metrics.MemoryRecorder()
        with metrics.recording(mine) as rec:
            assert rec is mine

    def test_nested_recording_restores_previous(self):
        with metrics.recording() as outer:
            with metrics.recording() as inner:
                assert metrics.active() is inner
            assert metrics.active() is outer

    def test_recording_restores_on_exception(self):
        try:
            with metrics.recording():
                raise ValueError("boom")
        except ValueError:
            pass
        assert metrics.active() is None

    def test_convenience_wrappers_route_to_active(self):
        metrics.count("ignored")  # disabled: must be a silent no-op
        metrics.gauge("ignored", 1.0)
        metrics.observe("ignored", 1.0)
        with metrics.recording() as rec:
            metrics.count("c", 2)
            metrics.gauge("g", 3.0)
            metrics.observe("h", 4.0)
        assert rec.counters == {"c": 2}
        assert rec.gauges == {"g": 3.0}
        assert rec.histograms["h"]["count"] == 1


class TestFormatSummary:
    def test_empty_snapshot_renders(self):
        text = metrics.format_summary({})
        assert "== metrics ==" in text
        assert "n/a" in text

    def test_derived_lines_and_raw_dump(self):
        rec = metrics.MemoryRecorder()
        rec.count("cache.worlds_hits", 3)
        rec.count("cache.worlds_misses", 1)
        rec.count("bfs.candidates", 500)
        rec.observe("bfs.select_s", 0.5)
        rec.gauge("bfs.deadline_margin_s", -0.1)
        text = metrics.format_summary(rec.snapshot())
        assert "cache worlds hit rate" in text
        assert "75.0% (3/4)" in text
        assert "candidates/sec" in text
        assert "1000.0" in text
        assert "bfs.candidates" in text  # raw counters are not hidden
        assert "gauges:" in text


class TestClock:
    def test_wall_clock_is_time_time(self):
        import time

        assert wall_clock is time.time

    def test_manual_clock_auto_advances(self):
        clock = ManualClock(start=10.0, step=2.0)
        assert [clock(), clock(), clock()] == [10.0, 12.0, 14.0]

    def test_manual_clock_advance_skips_without_reading(self):
        clock = ManualClock()
        clock.advance(100.0)
        assert clock() == 100.0
