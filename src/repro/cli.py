"""Command-line interface: regenerate any figure from a terminal.

Usage::

    python -m repro.cli fig3
    python -m repro.cli fig5 --instances 100 --seed 3
    python -m repro.cli fig4 --budget 30
    python -m repro.cli sim --ticks 20
    python -m repro.cli select --rings 4 --budget 5
    python -m repro.cli serve --socket /tmp/repro.sock
    python -m repro.cli client --socket /tmp/repro.sock --target t03
    python -m repro.cli client --socket /tmp/repro.sock --stats
    python -m repro.cli top --socket /tmp/repro.sock

Each figure command prints the same table its benchmark writes; the
``sim`` command runs the longitudinal economy simulation; ``select``
generates sequential rings through the resilience ladder
(:mod:`repro.resilience`); ``serve`` runs the long-lived selection
daemon (:mod:`repro.service`, JSONL over stdio or a unix socket),
``client`` submits requests to it (``--stats``/``--watch`` pretty-print
the telemetry payload), and ``top`` is a live terminal view polling a
running daemon's stats and health probes.

Every command also accepts the observability flags ``--metrics`` (print
a counter/histogram summary after the run), ``--trace-out PATH`` (dump
the hierarchical span tree as JSONL; see ``repro.obs``) and
``--fault-plan PATH`` (install a :mod:`repro.resilience.faults` plan
for chaos runs).

Exit codes follow sysexits where a typed failure escapes: 75
(EX_TEMPFAIL) when the exact search ran out of budget, 65 (EX_DATAERR)
when the ladder failed closed on a Definition 5 violation.  A run that
*degraded* but still produced a verified ring exits 0 with a notice on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

#: sysexits(3)-style codes for the typed failures (satellite contract).
EXIT_BUDGET_EXCEEDED = 75
EXIT_CONSTRAINT_VIOLATION = 65
#: EX_UNAVAILABLE: another live daemon owns the socket/journal.
EXIT_ALREADY_RUNNING = 69
#: EX_DATAERR: journal recovery refused the journal (no usable base,
#: an unusable genesis, an epoch gap).
EXIT_JOURNAL_REFUSED = 65

from .obs import metrics as obs_metrics
from .obs import trace as obs_trace

__all__ = ["main"]

#: The figure sweeps, by command: names in :mod:`repro.experiments.figures`,
#: imported by the command that runs one (``serve`` never loads them).
_SWEEPS: dict[str, str] = {
    "fig5": "fig5_vary_c",
    "fig6": "fig6_vary_ell",
    "fig7": "fig7_vary_sigma",
    "fig8": "fig8_vary_super_count",
    "fig9": "fig9_vary_super_size",
    "fig10": "fig10_vary_fresh",
}


def _run_fig3(args: argparse.Namespace) -> None:
    from .experiments.figures import fig3_output_distribution

    distribution = fig3_output_distribution(seed=args.seed)
    print(f"{'outputs/tx':>10} | {'transactions':>12}")
    print("-" * 26)
    for outputs in sorted(distribution):
        print(f"{outputs:>10} | {distribution[outputs]:>12}")
    print(f"\ntotal: {sum(distribution.values())} transactions, "
          f"{sum(k * v for k, v in distribution.items())} tokens")


def _run_fig4(args: argparse.Namespace) -> None:
    from .experiments.figures import fig4_bfs_scaling

    measurements = fig4_bfs_scaling(
        token_count=args.tokens,
        max_rings=args.max_rings,
        time_budget=args.budget,
        seed=args.seed,
    )
    print(f"{'i-th RS':>8} | {'time (s)':>10} | {'ring size':>9} | outcome")
    print("-" * 48)
    for m in measurements:
        print(f"{m.ring_index:>8} | {m.elapsed:>10.4f} | {m.ring_size:>9} | "
              f"{m.outcome}")


def _run_sweep(name: str, args: argparse.Namespace) -> None:
    from .experiments import figures
    from .experiments.harness import format_table

    sweep = getattr(figures, _SWEEPS[name])(
        instances_per_point=args.instances, seed=args.seed
    )
    print("Mean ring size:")
    print(format_table(sweep, "mean_size"))
    print("\nMean selection time (s):")
    print(format_table(sweep, "mean_time"))


def _run_sim(args: argparse.Namespace) -> None:
    from .sim import Economy, EconomyConfig

    economy = Economy(
        EconomyConfig(algorithm=args.algorithm, seed=args.seed)
    )
    print(f"{'tick':>5} | {'minted':>6} | {'spends ok':>9} | "
          f"{'relaxed':>7} | {'infeasible':>10} | {'mean size':>9}")
    print("-" * 64)
    for report in economy.run(args.ticks):
        print(
            f"{report.tick:>5} | {report.minted_tokens:>6} | "
            f"{report.successful_spends:>9} | {report.relaxed_spends:>7} | "
            f"{report.infeasible_spends:>10} | {report.mean_ring_size:>9.1f}"
        )
    metrics = economy.anonymity()
    if metrics is not None:
        print(f"\nfinal population: {metrics.ring_count} rings, "
              f"deanonymization rate {metrics.deanonymization_rate:.1%}, "
              f"mean effective ring size {metrics.mean_effective_size:.2f}")


def _run_select(args: argparse.Namespace) -> int:
    """Sequential ring generations through the degradation ladder.

    Same synthetic sequential-ring setup as ``fig4`` (the workload
    whose cost explosion motivates degradation), but each generation
    goes through :func:`repro.resilience.ladder.ladder_select` — or
    plain :func:`repro.core.bfs.bfs_select` under ``--exact-only``, in
    which case a budget trip escapes as exit code 75.
    """
    import random

    from .core.bfs import bfs_select
    from .core.problem import DamsInstance, InfeasibleError
    from .core.ring import Ring, TokenUniverse
    from .resilience.ladder import ladder_select

    rng = random.Random(args.seed)
    universe = TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(args.hts)}" for i in range(args.tokens)}
    )
    rings: list[Ring] = []
    consumed: set[str] = set()
    degraded = 0

    print(f"{'ring':>4} | {'target':>6} | {'size':>4} | {'rung':>11} | claim")
    print("-" * 48)
    for ring_index in range(args.rings):
        candidates = sorted(universe.tokens - consumed)
        if not candidates:
            break
        target = candidates[rng.randrange(len(candidates))]
        instance = DamsInstance(
            universe, list(rings), target, c=args.c, ell=args.ell
        )
        try:
            if args.exact_only:
                solved = bfs_select(instance, time_budget=args.budget)
                tokens, rung = solved.ring.tokens, "exact"
                claimed_c, claimed_ell = args.c, args.ell
            else:
                outcome = ladder_select(
                    instance, time_budget=args.budget, rng=rng
                )
                tokens, rung = outcome.result.tokens, outcome.rung
                claimed_c, claimed_ell = outcome.claimed_c, outcome.claimed_ell
                if outcome.degraded:
                    degraded += 1
                    print(
                        f"notice: ring {ring_index + 1} degraded to rung "
                        f"{outcome.rung!r} (trigger: {outcome.trigger}); "
                        f"verified at ({outcome.claimed_c}, "
                        f"{outcome.claimed_ell})-diversity",
                        file=sys.stderr,
                    )
        except InfeasibleError:
            print(f"{ring_index + 1:>4} | {target:>6} | {'-':>4} | "
                  f"{'infeasible':>11} | -")
            break
        print(f"{ring_index + 1:>4} | {target:>6} | {len(tokens):>4} | "
              f"{rung:>11} | ({claimed_c}, {claimed_ell})")
        rings.append(
            Ring(rid=f"cli:{ring_index}", tokens=tokens, c=claimed_c,
                 ell=claimed_ell, seq=len(rings))
        )
        consumed.add(target)

    if degraded:
        print(f"\n{degraded} of {len(rings)} ring(s) degraded; all emitted "
              f"rings re-verified against their claimed requirement.",
              file=sys.stderr)
    return 0


def _synthetic_universe(tokens: int, hts: int, seed: int):
    """The fig4-style synthetic universe shared by select/serve."""
    import random

    from .core.ring import TokenUniverse

    rng = random.Random(seed)
    return TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(hts)}" for i in range(tokens)}
    )


def _run_serve(args: argparse.Namespace) -> int:
    """Run the selection daemon over a synthetic snapshot.

    Requests arrive as JSONL — on stdin by default, or over a unix
    socket with ``--socket`` — and each is answered with one JSONL
    response line (see ``docs/operations.md`` for the op vocabulary).

    With ``--journal DIR`` every commit is write-ahead logged before
    it applies, and startup replays snapshot + WAL tail back into a
    byte-identical twin of the pre-crash daemon (the ``recovered``
    block of stats/health/metrics reports how the replay went).  A
    pidfile guards the journal dir (or, unjournaled, the socket path)
    so two daemons can never interleave appends into one journal.
    """
    from .resilience.faults import FaultPlan
    from .service import (
        AlreadyRunning,
        Journal,
        JournalError,
        PidFile,
        RouterConfig,
        SelectionService,
        ServiceConfig,
        ShardRouter,
        serve_socket,
        serve_stdio,
    )

    fault_doc = None
    if args.fault_plan is not None:
        # Applied per request (fresh plan instance each time) rather
        # than installed process-globally like the one-shot commands.
        # Under --shards the document instead installs in every shard
        # worker (that is how chaos reaches the shard.batch site).
        fault_doc = FaultPlan.load(args.fault_plan).to_dict()

    guard = None
    if args.journal is not None:
        guard = PidFile.for_journal(args.journal)
    elif args.socket is not None:
        guard = PidFile.for_socket(args.socket)
    if guard is not None:
        try:
            guard.acquire()
        except AlreadyRunning as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ALREADY_RUNNING

    journal = None
    recovered = None
    try:
        rings0: tuple = ()
        epoch0 = 0
        batches = args.batches
        if args.journal is not None:
            journal = Journal(
                args.journal,
                sync_every=args.journal_sync,
                snapshot_every=args.snapshot_every,
            )
            try:
                recovered = journal.recover()
            except JournalError as exc:
                print(f"error: journal refused: {exc}", file=sys.stderr)
                return EXIT_JOURNAL_REFUSED
        if recovered is not None:
            universe = recovered.universe
            rings0 = recovered.rings
            epoch0 = recovered.epoch
            if batches is None:
                batches = recovered.batches
            rec = recovered.recovery
            notice = (
                f"recovered epoch {epoch0} ({len(rings0)} ring(s)) from "
                f"{args.journal}: snapshot epoch {rec['snapshot_epoch']}, "
                f"{rec['frames_replayed']} frame(s) replayed"
            )
            if rec["torn_tail"]:
                notice += (
                    f"; torn tail truncated ({rec['truncated_bytes']} "
                    f"byte(s): {rec['damage']})"
                )
            print(notice, file=sys.stderr)
        else:
            universe = _synthetic_universe(args.tokens, args.hts, args.seed)
            if journal is not None:
                effective_batches = batches
                if args.shards >= 2 and effective_batches is None:
                    effective_batches = args.shards
                journal.append_genesis(universe, (), effective_batches)
        recovery_block = None if recovered is None else recovered.recovery
        if args.shards >= 2:
            service_factory = lambda: ShardRouter(  # noqa: E731
                universe,
                rings0,
                config=RouterConfig(
                    shards=args.shards,
                    batches=batches,
                    max_queue=args.max_queue,
                    max_batch=args.max_batch,
                    linger_s=args.batch_wait,
                    default_budget=args.budget,
                    fault_plan=fault_doc,
                    telemetry=not args.no_telemetry,
                    journal=journal,
                ),
                epoch=epoch0,
                recovered=recovery_block,
            )
        else:
            config = ServiceConfig(
                max_queue=args.max_queue,
                max_batch=args.max_batch,
                linger_s=args.batch_wait,
                default_budget=args.budget,
                fault_plan=fault_doc,
                telemetry=not args.no_telemetry,
                partition=batches,
                journal=journal,
            )
            service_factory = lambda: SelectionService(  # noqa: E731
                universe, rings0, config=config,
                epoch=epoch0, recovered=recovery_block,
            )
        with service_factory() as service:
            if args.socket is not None:
                print(f"listening on {args.socket}", file=sys.stderr)
                served = serve_socket(service, args.socket)
                print(f"served {served} connection(s)", file=sys.stderr)
            else:
                served = serve_stdio(service, sys.stdin, sys.stdout)
                print(f"served {served} request line(s)", file=sys.stderr)
            stats = service.stats()
            summary = service.drain_summary()
        print(
            f"final epoch {stats['epoch']}, {stats['rings']} ring(s), "
            f"{stats['refused']} refused of {stats['offered']} offered",
            file=sys.stderr,
        )
        if summary is not None:
            print(summary, file=sys.stderr)
    finally:
        if journal is not None:
            journal.close()
        if guard is not None:
            guard.release()
    return 0


def _run_client(args: argparse.Namespace) -> int:
    """Submit requests to a running ``serve --socket`` daemon."""
    import json

    from .service import RetrySpec, ServiceClient

    retry = (
        None
        if args.retry_deadline is None
        else RetrySpec(deadline_s=args.retry_deadline, seed=args.seed)
    )
    with ServiceClient(args.socket, timeout=args.timeout, retry=retry) as client:
        if args.stats or args.watch is not None:
            import time

            from .service.telemetry import format_stats

            polls = 0
            try:
                while True:
                    if polls:
                        print()
                    print(format_stats(client.stats()))
                    polls += 1
                    if args.iterations is not None and polls >= args.iterations:
                        break
                    if args.watch is None:
                        break
                    time.sleep(args.watch)
            except KeyboardInterrupt:
                pass
            return 0
        if args.requests is not None:
            from .service.protocol import decode

            with open(args.requests, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    print(json.dumps(
                        client.request(decode(line)), sort_keys=True
                    ))
            return 0
        if args.target is None:
            print("error: provide --target or --requests", file=sys.stderr)
            return 2
        response = client.select(
            target=args.target,
            c=args.c,
            ell=args.ell,
            mode=args.mode,
            epoch=args.epoch,
            time_budget=args.budget,
            seed=args.seed,
        )
        print(json.dumps(response.to_dict(), sort_keys=True))
        if response.ok and args.commit:
            print(json.dumps(
                client.commit(response.tokens, c=args.c, ell=args.ell),
                sort_keys=True,
            ))
        if not response.ok:
            return (
                EXIT_BUDGET_EXCEEDED
                if response.code == "budget_exceeded"
                else EXIT_CONSTRAINT_VIOLATION
                if response.code == "constraint_violation"
                else 1
            )
    return 0


def _run_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running daemon (stats + health polls)."""
    import time

    from .service import ServiceClient
    from .service.telemetry import format_top

    with ServiceClient(args.socket, timeout=args.timeout) as client:
        polls = 0
        try:
            while True:
                if polls:
                    print()
                print(format_top(client.stats(), client.health()))
                polls += 1
                if args.iterations is not None and polls >= args.iterations:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures or run the economy sim.",
    )
    # Observability flags shared by every subcommand (repro.obs).
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--metrics", action="store_true",
                     help="record solver metrics and print a summary")
    obs.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write hierarchical trace spans as JSONL to PATH")
    obs.add_argument("--fault-plan", metavar="PATH", default=None,
                     help="install a repro.resilience.faults FaultPlan "
                          "from this JSON file (chaos testing)")
    sub = parser.add_subparsers(dest="command", required=True)

    fig3 = sub.add_parser("fig3", parents=[obs],
                          help="output-count distribution (real)")
    fig3.add_argument("--seed", type=int, default=0)

    fig4 = sub.add_parser("fig4", parents=[obs],
                          help="BFS per-ring time explosion")
    fig4.add_argument("--seed", type=int, default=0)
    fig4.add_argument("--budget", type=float, default=15.0,
                      help="per-ring wall-clock budget in seconds")
    fig4.add_argument("--tokens", type=int, default=20,
                      help="batch universe size (paper: 20)")
    fig4.add_argument("--max-rings", type=int, default=6,
                      help="how many sequential rings to generate")

    for name, help_text in [
        ("fig5", "vary c (real)"),
        ("fig6", "vary l (real)"),
        ("fig7", "vary sigma (synthetic)"),
        ("fig8", "vary |S| (synthetic)"),
        ("fig9", "vary |s_i| (synthetic)"),
        ("fig10", "vary |F| (synthetic)"),
    ]:
        sweep = sub.add_parser(name, parents=[obs], help=help_text)
        sweep.add_argument("--instances", type=int, default=25,
                           help="instances per sweep point (paper: 1000)")
        sweep.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("sim", parents=[obs],
                         help="longitudinal economy simulation")
    sim.add_argument("--ticks", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--algorithm", default="progressive",
                     choices=["progressive", "game", "smallest", "random"])

    select = sub.add_parser(
        "select", parents=[obs],
        help="sequential ring generation through the resilience ladder",
    )
    select.add_argument("--tokens", type=int, default=20,
                        help="batch universe size (paper fig4: 20)")
    select.add_argument("--hts", type=int, default=10,
                        help="distinct holder types in the universe")
    select.add_argument("--c", type=float, default=5.0)
    select.add_argument("--ell", type=int, default=3)
    select.add_argument("--seed", type=int, default=0)
    select.add_argument("--rings", type=int, default=4,
                        help="how many sequential rings to generate")
    select.add_argument("--budget", type=float, default=None,
                        help="per-ring wall-clock budget in seconds")
    select.add_argument("--exact-only", action="store_true",
                        help="no degradation ladder: a budget trip exits "
                             f"{EXIT_BUDGET_EXCEEDED}")

    serve = sub.add_parser(
        "serve", parents=[obs],
        help="long-running selection daemon (JSONL over stdio or socket)",
    )
    serve.add_argument("--tokens", type=int, default=20,
                       help="batch universe size of the initial snapshot")
    serve.add_argument("--hts", type=int, default=10,
                       help="distinct holder types in the universe")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="listen on this unix socket (default: stdio)")
    serve.add_argument("--max-queue", type=int, default=256,
                       help="admission bound; beyond it requests are "
                            "rejected with queue_full")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="largest micro-batch executed at once")
    serve.add_argument("--batch-wait", type=float, default=0.0,
                       help="seconds to linger for batch-mates once a "
                            "request is waiting")
    serve.add_argument("--budget", type=float, default=None,
                       help="default per-request exact-search budget (s)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable the request-lifecycle telemetry "
                            "(stats stays the flat counter payload; "
                            "metrics/health degrade gracefully)")
    serve.add_argument("--shards", type=int, default=1,
                       help="shard worker processes; >= 2 routes requests "
                            "by their target's TokenMagic batch over a "
                            "process fleet (see docs/operations.md)")
    serve.add_argument("--batches", type=int, default=None,
                       help="TokenMagic batches to partition the universe "
                            "into (default: unpartitioned single daemon, "
                            "or one batch per shard under --shards)")
    serve.add_argument("--journal", metavar="DIR", default=None,
                       help="write-ahead journal directory: commits are "
                            "logged before they apply, and startup replays "
                            "snapshot + WAL back into the pre-crash state")
    serve.add_argument("--journal-sync", type=int, default=1,
                       metavar="N",
                       help="fsync the WAL every N appends (1 = every "
                            "commit durable before ack; 0 = OS-buffered, "
                            "crash-unsafe, bench only)")
    serve.add_argument("--snapshot-every", type=int, default=64,
                       metavar="N",
                       help="write a compacted snapshot and truncate the "
                            "WAL every N commits (0 = never compact)")

    client = sub.add_parser(
        "client",
        help="submit requests to a running `serve --socket` daemon",
    )
    client.add_argument("--socket", metavar="PATH", required=True)
    client.add_argument("--requests", metavar="PATH", default=None,
                        help="JSONL file of raw ops to replay")
    client.add_argument("--target", default=None,
                        help="token to consume (single-request mode)")
    client.add_argument("--c", type=float, default=2.0)
    client.add_argument("--ell", type=int, default=2)
    client.add_argument("--mode", default="ladder",
                        choices=["exact", "ladder"])
    client.add_argument("--epoch", type=int, default=None,
                        help="pin the request to this snapshot epoch")
    client.add_argument("--budget", type=float, default=None)
    client.add_argument("--seed", type=int, default=0)
    client.add_argument("--commit", action="store_true",
                        help="commit the selected ring (advances the epoch)")
    client.add_argument("--timeout", type=float, default=60.0)
    client.add_argument("--retry-deadline", type=float, metavar="SECONDS",
                        default=None,
                        help="reconnect + resend idempotently for up to "
                             "SECONDS when the daemon is unreachable or "
                             "dies mid-request (exponential backoff with "
                             "seeded jitter; default: fail fast)")
    client.add_argument("--stats", action="store_true",
                        help="pretty-print the enriched stats payload "
                             "instead of submitting a request")
    client.add_argument("--watch", type=float, metavar="SECONDS",
                        default=None,
                        help="re-poll stats every SECONDS (implies --stats)")
    client.add_argument("--iterations", type=int, default=None,
                        help="stop a --watch loop after N polls "
                             "(default: poll until interrupted)")

    top = sub.add_parser(
        "top",
        help="live stats/health view of a running `serve --socket` daemon",
    )
    top.add_argument("--socket", metavar="PATH", required=True)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N polls (default: until interrupted)")
    top.add_argument("--timeout", type=float, default=60.0)

    return parser


def _dispatch(args: argparse.Namespace) -> int | None:
    if args.command == "fig3":
        _run_fig3(args)
    elif args.command == "fig4":
        _run_fig4(args)
    elif args.command == "sim":
        _run_sim(args)
    elif args.command == "select":
        return _run_select(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "client":
        return _run_client(args)
    elif args.command == "top":
        return _run_top(args)
    else:
        _run_sweep(args.command, args)
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    want_metrics = getattr(args, "metrics", False)
    trace_out = getattr(args, "trace_out", None)
    fault_plan_path = getattr(args, "fault_plan", None)
    if args.command == "serve":
        # `serve` scopes the plan per request (fresh instance each
        # time) instead of installing one process-global plan.
        fault_plan_path = None

    from .core.bfs import SearchBudgetExceeded
    from .resilience import faults
    from .resilience.ladder import ConstraintViolation

    tracer = obs_trace.Tracer() if trace_out is not None else None
    recorder = obs_metrics.MemoryRecorder() if want_metrics else None
    try:
        with contextlib.ExitStack() as stack:
            if fault_plan_path is not None:
                stack.enter_context(
                    faults.injecting(faults.FaultPlan.load(fault_plan_path))
                )
            if tracer is not None:
                stack.enter_context(obs_trace.tracing(tracer))
            if recorder is not None:
                stack.enter_context(obs_metrics.recording(recorder))
            code = _dispatch(args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET_EXCEEDED
    except ConstraintViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT_VIOLATION
    finally:
        # Flush whatever was observed even if the command raised.
        if recorder is not None:
            print()
            print(obs_metrics.format_summary(recorder.snapshot()))
        if tracer is not None:
            count = tracer.export_jsonl(trace_out)
            print(f"wrote {count} spans to {trace_out}")
    return 0 if code is None else code


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
