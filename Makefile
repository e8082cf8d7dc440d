PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint chaos bench-smoke bench docs telemetry-smoke shard-smoke recover-smoke servebench-smoke pairs verify

test:
	$(PYTHON) -m pytest -x -q

lint:
	ruff check src tests benchmarks

# Fault-injection suite: budget trips, cache corruption, clock skew,
# chain-load I/O errors, and the ladder's fail-closed rungs.
chaos:
	$(PYTHON) -m pytest tests/test_failure_injection.py tests/test_resilience.py -q

# Sub-minute perf guard: the before/after BFS ladder (writes
# benchmarks/results/BENCH_bfs.json) with tight caps — the seed
# budget-trips the deepest rung here; the full `bench` target lets it
# finish (~70 s) and claims the deeper rung.
bench-smoke:
	REPRO_BENCH_REF_BUDGET=15 REPRO_BENCH_REF_TOTAL=30 $(PYTHON) -m pytest benchmarks/test_bench_bfs_perf.py -q -s

# bench_shard.py is a plain script (no test_ prefix, so the pytest
# glob skips it): the full shard grid runs after the pytest benches.
bench:
	$(PYTHON) -m pytest benchmarks/ -q -s
	PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_shard.py
	PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_recovery.py

# Sharded-service gate: the router/partition test suite plus a capped
# run of the shard benchmark (1 and 4 shard columns, its own workload
# fingerprint so the trend check skips it) proving byte-identical
# responses across the columns.
shard-smoke:
	$(PYTHON) -m pytest tests/test_service_shard.py -q
	REPRO_BENCH_SHARD_SMOKE=1 PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_shard.py

# Documentation gate: every markdown link/anchor resolves and every
# public-API docstring example still runs.
docs:
	$(PYTHON) tools/check_docs.py
	$(PYTHON) -m pytest tests/test_doctests.py -q

# Telemetry gate: the telemetry test suites, one live stdio round trip
# through `serve` asserting the metrics op and the drain summary, and
# the bench-trend regression check against the committed artifacts.
telemetry-smoke:
	$(PYTHON) -m pytest tests/test_obs_telemetry.py tests/test_service_telemetry.py tests/test_bench_trend.py -q
	printf '%s\n%s\n%s\n' \
		'{"op":"select","id":"r1","target":"t03","c":2.0,"ell":2,"mode":"exact"}' \
		'{"op":"metrics","id":"m1"}' \
		'{"op":"shutdown","id":"x1"}' \
		| $(PYTHON) -m repro.cli serve 2>/dev/null \
		| grep -q 'repro_service_requests_total 1'
	$(PYTHON) tools/bench_trend.py --check

# Crash-safety gate: the journal/recovery suite (framing, replay,
# torn tails, pidfile, retrying client, the SIGKILL-during-commit
# soak), a capped run of the recovery benchmark (journal-on overhead +
# replay cost, its own workload fingerprint so the trend check skips
# it), then a strict fsck over the journal that bench run left behind
# — a clean daemon must produce a byte-perfect journal.  The suite runs
# under `-X dev` with leaked files and sockets (ResourceWarning, and the
# unraisable-exception warning a leak in a finalizer becomes) as errors;
# the -W flags go to pytest, which resets Python's own warning filters.
recover-smoke:
	$(PYTHON) -X dev -m pytest tests/test_service_recovery.py -q \
		-W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning
	REPRO_BENCH_RECOVERY_SMOKE=1 PYTHONPATH=src:benchmarks $(PYTHON) benchmarks/bench_recovery.py
	$(PYTHON) tools/journal_fsck.py --check benchmarks/results/recovery_journal

# End-to-end benchmark gate: servebench's own test runs every workload
# on a short profile, untraced and traced, checks every served answer
# against the frozen seed functions, and requires identical daemon work
# counts in both runs.
servebench-smoke:
	$(PYTHON) -m pytest servebench/test_servebench.py -q

# A change against its parent on servebench workloads: alternating
# pairs of full runs (each pair runs every named workload on its seed),
# per workload each metric's median and quartiles per side, wins out of
# pairs and the BENCHMARK.json bounds.  PARENT is a second checkout, of
# the parent commit:
#   make pairs PARENT=../parent WORKLOAD="cold-selects spend-flow memo-reads" PAIRS=10 SEED=701
WORKLOAD ?= spend-flow
PAIRS ?= 10
SEED ?= 1
pairs:
	$(PYTHON) tools/servebench_pairs.py $(PARENT) . --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

verify: test chaos bench-smoke shard-smoke recover-smoke telemetry-smoke servebench-smoke docs
