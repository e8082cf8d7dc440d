"""Counters, gauges and histograms behind a swappable :class:`Recorder`.

Zero-dependency, and near-zero overhead when disabled: the module keeps
a single active-recorder slot, and ``active()`` returns ``None`` when
nothing is installed.  Hot paths hoist one ``rec = metrics.active()``
lookup and guard each bump with ``if rec is not None`` — the disabled
cost per instrumentation site is one global load, one call and one
comparison (the overhead-guard test in ``tests/test_obs_overhead.py``
prices this against the BFS bench ladder).

Counter names are flat dotted strings (``"bfs.candidates"``,
``"cache.worlds_hits"``); per-size strata append a suffix
(``"bfs.candidates.size4"``).  The canonical names live in
:mod:`repro.obs.events` next to the typed events that produce them.

The recorder slot is a plain module global, *not* a context variable,
so every thread of the process records into the one installed sink.
Forked pool workers inherit whatever was installed at fork time; the
shard workers of :mod:`repro.service.router` uninstall it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping, Protocol, runtime_checkable

__all__ = [
    "Recorder",
    "MemoryRecorder",
    "active",
    "set_recorder",
    "recording",
    "count",
    "gauge",
    "observe",
    "format_summary",
]


@runtime_checkable
class Recorder(Protocol):
    """What an installed metrics sink must provide."""

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the distribution ``name``."""


class MemoryRecorder:
    """In-process recorder: plain dicts, deterministic snapshots.

    Histograms keep streaming aggregates (count/sum/min/max) rather
    than raw samples so snapshots stay small enough to embed in
    ``BENCH_*.json``.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[str, float]] = {}

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            self.histograms[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
        else:
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = min(hist["min"], value)
            hist["max"] = max(hist["max"], value)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready copy, keys sorted for deterministic artifacts."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: dict(hist)
                for name, hist in sorted(self.histograms.items())
            },
        }


# -- the active-recorder slot ----------------------------------------------

_active: Recorder | None = None


def active() -> Recorder | None:
    """The installed recorder, or None when metrics are disabled."""
    return _active


def set_recorder(recorder: Recorder | None) -> Recorder | None:
    """Install ``recorder`` (None disables); returns it for chaining."""
    global _active
    _active = recorder
    return recorder


@contextmanager
def recording(recorder: Recorder | None = None) -> Iterator[Recorder]:
    """Install a recorder for the duration of a ``with`` block.

    A fresh :class:`MemoryRecorder` is created when none is given; the
    previously installed recorder is restored on exit.
    """
    installed = MemoryRecorder() if recorder is None else recorder
    previous = _active
    set_recorder(installed)
    try:
        yield installed
    finally:
        set_recorder(previous)


# -- convenience wrappers for cold paths -----------------------------------


def count(name: str, value: int = 1) -> None:
    rec = _active
    if rec is not None:
        rec.count(name, value)


def gauge(name: str, value: float) -> None:
    rec = _active
    if rec is not None:
        rec.gauge(name, value)


def observe(name: str, value: float) -> None:
    rec = _active
    if rec is not None:
        rec.observe(name, value)


# -- human summary ---------------------------------------------------------


def _rate(hits: int, misses: int) -> str:
    total = hits + misses
    if total == 0:
        return "n/a"
    return f"{hits / total:.1%} ({hits}/{total})"


def format_summary(snapshot: Mapping) -> str:
    """Render a snapshot as the CLI's human metrics table.

    Derived lines (hit rates, candidates/sec) come first; the raw
    counter/gauge dump follows so nothing recorded is hidden.
    """
    counters: Mapping[str, int] = snapshot.get("counters", {})
    gauges: Mapping[str, float] = snapshot.get("gauges", {})
    histograms: Mapping[str, Mapping[str, float]] = snapshot.get("histograms", {})

    lines = ["== metrics =="]
    derived: list[tuple[str, str]] = []

    derived.append(
        (
            "cache worlds hit rate",
            _rate(
                counters.get("cache.worlds_hits", 0),
                counters.get("cache.worlds_misses", 0),
            ),
        )
    )
    derived.append(
        (
            "dtrs memo hit rate",
            _rate(
                counters.get("dtrs.memo_hits", 0),
                counters.get("dtrs.memo_misses", 0),
            ),
        )
    )
    candidates = counters.get("bfs.candidates", 0)
    select_hist = histograms.get("bfs.select_s")
    if select_hist and select_hist.get("sum", 0.0) > 0:
        derived.append(
            ("candidates/sec", f"{candidates / select_hist['sum']:.1f}")
        )
    else:
        derived.append(("candidates/sec", "n/a"))
    derived.append(
        (
            "worlds enumerated",
            f"{counters.get('worlds.enumerated', 0)} base "
            f"(+{counters.get('worlds.extended_worlds', 0)} extended)",
        )
    )
    derived.append(
        (
            "matcher repairs",
            f"{counters.get('matcher.repairs', 0)} "
            f"(failed {counters.get('matcher.repair_failures', 0)})",
        )
    )

    width = max(len(label) for label, _ in derived)
    for label, value in derived:
        lines.append(f"  {label:<{width}}  {value}")

    if counters:
        lines.append("counters:")
        name_width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{name_width}}  {counters[name]}")
    if gauges:
        lines.append("gauges:")
        name_width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{name_width}}  {gauges[name]:.6g}")
    if histograms:
        lines.append("histograms:")
        name_width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            hist = histograms[name]
            lines.append(
                f"  {name:<{name_width}}  n={int(hist['count'])} "
                f"sum={hist['sum']:.4g} min={hist['min']:.4g} "
                f"max={hist['max']:.4g}"
            )
    return "\n".join(lines)
