"""Run the ``repro`` CLI with spans around each layer's public entry points.

Usage: ``python servebench/launcher.py <repro cli args...> --trace-out SPANS_OUT``

Before handing control to ``repro.cli.main`` the launcher replaces the
public entry points :func:`install` names with wrappers that open one
``repro.obs.trace`` span per call, named ``bench.<layer>.<call>`` and
carrying the request id it serves.  The CLI's ``--trace-out`` installs
the tracer, which keeps every span (name, start, end, parent,
attributes) in memory and writes them as JSON lines at exit, next to
the program's own spans; ``layers.py`` reads only the ``bench.`` ones.
The program's code is not changed.

Request ids: reader/writer-thread spans take theirs from the request or
response they carry, and nested spans take their caller's.  The single
worker thread serves a drained batch in admission order and resolves
each request before starting the next, so its other spans belong to the
head of the batch not yet resolved.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading

from layers import PREFIX
from repro.obs import trace

_local = threading.local()


def _inherited_rid():
    rid = getattr(_local, "rid", None)
    if rid is None:
        batch = getattr(_local, "batch", None)
        rid = batch[0] if batch else None
    return rid


def wrap(owner, attr: str, name: str, rid_of=None, note=None) -> None:
    """Replace ``owner.attr`` with a wrapper that records a span per call.

    ``rid_of(args, kwargs)`` names the request before the call, and
    ``note(args, result, attrs)`` adds attributes to the span after it.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        outer = getattr(_local, "rid", None)
        rid = None if rid_of is None else rid_of(args, kwargs)
        _local.rid = _inherited_rid() if rid is None else rid
        try:
            with trace.span(PREFIX + name, rid=_local.rid) as span:
                result = original(*args, **kwargs)
        finally:
            _local.rid = outer
        if note is not None and span is not None:
            note(args, result, span.attrs)
        return result

    setattr(owner, attr, wrapper)


def install() -> None:
    """Wrap the entry points of every layer the benchmark attributes time to."""
    mod = importlib.import_module
    server = mod("repro.service.server")
    daemon = mod("repro.service.daemon")
    batching = mod("repro.service.batching")
    telemetry = mod("repro.service.telemetry")
    state = mod("repro.service.state")
    journal = mod("repro.service.journal")
    modules = mod("repro.core.modules")
    ladder = mod("repro.resilience.ladder")
    bfs = mod("repro.core.bfs")
    kernels = mod("repro.core.perf.kernels")
    cache = mod("repro.core.perf.cache")

    def payload_id(payload):
        return payload.get("id") if isinstance(payload, dict) else None

    # service.server / service.protocol: the JSONL codec the front end calls.
    def on_decode(args, payload, attrs):
        attrs["rid"] = payload_id(payload)

    wrap(server, "decode", "server.decode", note=on_decode)
    wrap(server, "encode", "server.encode", rid_of=lambda a, k: payload_id(a[0]))

    # service.daemon: admission and resolution bracket one request.
    wrap(daemon.SelectionService, "submit", "daemon.submit",
         rid_of=lambda a, k: a[1].request_id)

    def on_resolve(args, result, attrs):
        response = args[1]
        attrs.update(memo=bool(response.attrs.get("memo")), status=response.status)
        batch = getattr(_local, "batch", None)
        if batch:
            batch.pop(0)

    wrap(daemon.PendingResult, "resolve", "daemon.resolve",
         rid_of=lambda a, k: a[1].request_id, note=on_resolve)
    wrap(daemon.SelectionService, "commit_ring", "daemon.commit",
         rid_of=lambda a, k: k.get("rid"))

    # service.batching: one span per drained batch (idle polls carry no rids).
    def on_drain(args, batch, attrs):
        rids = [] if batch is None else [item.request.request_id for item in batch.items]
        attrs["rids"] = rids
        _local.batch = list(rids)

    wrap(batching.AdmissionQueue, "drain_batch", "batching.drain", note=on_drain)

    # service.telemetry: the four lifecycle marks.
    for mark in ("admitted", "batch_started", "request_started", "request_finished"):
        wrap(telemetry.ServiceTelemetry, mark, "telemetry.mark")

    # service.state / core.modules: commits and per-epoch warm-state builds.
    wrap(state.ServiceState, "commit", "state.commit")
    wrap(cache.SolverCache, "__init__", "state.cache_build")
    wrap(modules.ModuleUniverse, "__init__", "modules.build")

    # service.journal
    wrap(journal.Journal, "append_commit", "journal.append")
    wrap(journal.Journal, "maybe_snapshot", "journal.snapshot")
    wrap(journal.Journal, "recover", "journal.recover")

    # resilience.ladder: the ladder itself and its Definition 5 re-check.
    wrap(daemon, "ladder_select", "ladder.select",
         note=lambda a, r, attrs: attrs.update(rung=r.rung))
    wrap(ladder, "verify_ring", "ladder.verify")

    # core.bfs, reached from the ladder's exact rung and exact-mode requests.
    for owner in (ladder, daemon):
        wrap(owner, "bfs_select", "bfs.select",
             note=lambda a, r, attrs: attrs.update(candidates=r.candidates_checked))

    # core.perf.kernels
    wrap(bfs, "prefilter_chunk", "kernel.prefilter",
         note=lambda a, r, attrs: attrs.update(
             candidates=len(a[2]),
             resolved=0 if r is None else sum(v is not None for v in r)))
    wrap(kernels.KernelBackend, "build_state", "kernel.state_build")

    # core.perf.cache / core.perf.worlds: a lookup that enumerated worlds missed.
    lookup = cache.SolverCache.base_worlds

    @functools.wraps(lookup)
    def base_worlds(self, key, deadline=None):
        misses = self.stats.worlds_misses
        with trace.span(PREFIX + "cache.base_worlds", rid=_inherited_rid()) as span:
            worlds = lookup(self, key, deadline=deadline)
        missed = self.stats.worlds_misses != misses
        span.attrs.update(miss=missed, worlds=len(worlds) if missed else 0)
        return worlds

    cache.SolverCache.base_worlds = base_worlds


def main(argv: list[str]) -> int:
    if "--trace-out" not in argv:
        print("usage: launcher.py <repro cli args...> --trace-out SPANS_OUT", file=sys.stderr)
        return 2
    install()
    from repro import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
