"""Suite-wide pytest hooks.

A test that raises the peak resident memory of the test process, or of
the child processes it waited for, by more than
:data:`PEAK_GROWTH_LIMIT_MB` is named on the process's real stderr as
soon as it finishes.  The line bypasses pytest's capture and output
buffering, so a run that the machine kills later still shows which test
grew it.  A run whose tests all stay under the limit prints nothing.

A child started from this process reports this process's high-water
mark as its own peak (Linux records the peak of the address space a
task leaves at ``exec``, and a vforked child leaves its parent's), so
the children's peak counts as raised only above the test process's own.
"""

from __future__ import annotations

import resource
import sys

import pytest

#: Peak-RSS growth, in MB, over which a test is named.
PEAK_GROWTH_LIMIT_MB = 256

#: ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
_MAXRSS_PER_MB = 1024 * 1024 if sys.platform == "darwin" else 1024


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its waited-for children, in MB."""
    return tuple(
        resource.getrusage(who).ru_maxrss / _MAXRSS_PER_MB
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def growth_report(
    nodeid: str, before: tuple[float, float], after: tuple[float, float]
) -> str | None:
    """The line naming ``nodeid`` if either peak grew past the limit.

    ``before`` and ``after`` are (process, children) peaks in MB.
    """
    floors = (before[0], max(before[1], after[0]))
    grown = [
        f"{who} peak RSS {old:.0f} -> {new:.0f} MB"
        for who, old, floor, new in zip(("process", "children"), before, floors, after)
        if new - floor > PEAK_GROWTH_LIMIT_MB
    ]
    if not grown:
        return None
    return f"memory: {nodeid} raised {', '.join(grown)} (limit +{PEAK_GROWTH_LIMIT_MB} MB)"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Read both peaks around a test's setup, call and teardown."""
    before = peak_rss_mb()
    yield
    line = growth_report(item.nodeid, before, peak_rss_mb())
    if line is not None:
        sys.__stderr__.write(line + "\n")
        sys.__stderr__.flush()
