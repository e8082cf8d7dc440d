"""The observability equivalence contract (DESIGN.md §9).

Recording must never change solver behaviour: with metrics and tracing
enabled, ``bfs_select`` returns byte-identical results (ring tokens,
mixin set, ``candidates_checked``) to a bare run.  This is the
acceptance pin of the obs layer — instrumentation that bends the
search is worse than none.
"""

import random

from repro.core.bfs import bfs_select
from repro.core.problem import DamsInstance
from repro.core.ring import Ring, TokenUniverse
from repro.obs import metrics, trace

TOKEN_COUNT = 20
HT_COUNT = 10
C = 5.0
ELL = 3
MAX_RINGS = 3


def _ladder():
    """Three sequential fig4-style generations; returns comparable rows."""
    rng = random.Random(0)
    universe = TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(HT_COUNT)}" for i in range(TOKEN_COUNT)}
    )
    rings: list[Ring] = []
    consumed: set[str] = set()
    rows = []
    for index in range(MAX_RINGS):
        free = sorted(universe.tokens - consumed)
        target = free[rng.randrange(len(free))]
        instance = DamsInstance(universe, list(rings), target, c=C, ell=ELL)
        result = bfs_select(instance)
        rows.append(
            (
                sorted(result.ring.tokens),
                sorted(result.mixins),
                result.candidates_checked,
            )
        )
        rings.append(
            Ring(
                rid=f"r{index}",
                tokens=result.ring.tokens,
                c=C,
                ell=ELL,
                seq=result.ring.seq,
            )
        )
        consumed.add(target)
    return rows


def test_recording_off_matches_recording_on_serial():
    bare = _ladder()
    with metrics.recording() as rec, trace.tracing() as tracer:
        observed = _ladder()
    assert observed == bare
    # ... and the run actually recorded something (no silent no-op).
    assert rec.counters["bfs.selected"] == MAX_RINGS
    assert rec.counters["bfs.candidates"] > 0
    assert any(sp.name == "bfs.select" for sp in tracer.finished)


def test_metrics_only_and_trace_only_both_inert():
    bare = _ladder()
    with metrics.recording():
        assert _ladder() == bare
    with trace.tracing():
        assert _ladder() == bare
