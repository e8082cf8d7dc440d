"""Monero-shaped, TokenMagic-batched chains and the operation plans run on them.

Every input of a run is a pure function of ``(workload, seed, sessions)``:
the chain (token -> HT labels and the genesis super rings) and the plan
of operations the client sends.  Only the spend-flow targets depend on
the daemon's answers as well, and those answers are themselves
deterministic, so the same seed replays the same work.

Chain make-up (see README.md):

* TokenMagic batches of ``BATCH_TOKENS`` tokens.  Token ids sort batch
  by batch (``b003t17``), so ``TokenPartition``'s sorted slices of
  ``ceil(n / batches)`` tokens are exactly these batches;
* each batch is a run of transactions whose output counts follow
  ``repro.data.monero.OUTPUT_COUNT_DISTRIBUTION`` (Fig. 3); a token's
  HT label is its transaction;
* each batch holds ``SUPER_RINGS`` disjoint super rings of
  ``RING_SIZE`` tokens (the dominant Monero ring size), claimed at
  (1, 2) like ``generate_monero_hour``'s; the rest of the batch is fresh.

A run is a sequence of sessions (one daemon start each); every session
works on its own group of batches, listed by :func:`layout`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.ring import Ring, TokenUniverse
from repro.data.monero import OUTPUT_COUNT_DISTRIBUTION, SUPER_RS_SIZE

BATCH_TOKENS = 40
SUPER_RINGS = 2
RING_SIZE = SUPER_RS_SIZE

#: Every select asks for recursive (2, 2)-diversity.
C, ELL = 2.0, 2

#: Pipelined bursts hold the daemon's default ``--max-batch``.
BURST = 32

#: memo-reads: hot keys, alternately fresh tokens and super-ring
#: members, one in each of the chain's first HOT_KEYS batches.
HOT_KEYS = 8
#: cold-selects: per batch, how many targets are super-ring members and
#: how many are fresh.  Fresh targets solve ~10x faster; keeping them a
#: fixed minority keeps the median inside the ring-member cluster.  A
#: select's cost varies threefold from batch to batch, so few targets in
#: many batches keep a session's figures close to every other session's.
COLD_RING_TARGETS = 4
COLD_FRESH_TARGETS = 1
#: Read sessions end with a block of other wallets' spends landing in
#: their batches: this many Monero-style rings, batches round-robin.
BLOCK_RINGS = 64
#: spend-flow: spends per batch, each of a token no ring holds yet.
SPENDS_PER_BATCH = 7

#: Batches each session works on.
SESSION_BATCHES = {"memo-reads": 4, "cold-selects": 6, "spend-flow": 32}


@dataclass(frozen=True)
class Chain:
    universe: TokenUniverse
    rings: tuple[Ring, ...]
    batches: tuple[tuple[str, ...], ...]

    def held(self) -> set[str]:
        return {token for ring in self.rings for token in ring.tokens}


def batch_of(token: str) -> int:
    return int(token[1:4])


def layout(workload: str, sessions: int) -> tuple[int, list[list[int]]]:
    """(batches in the chain, the batch group of every session)."""
    first = HOT_KEYS if workload == "memo-reads" else 0
    size = SESSION_BATCHES[workload]
    groups = [list(range(first + s * size, first + (s + 1) * size)) for s in range(sessions)]
    return first + sessions * size, groups


def build_chain(seed: int, batches: int) -> Chain:
    """The genesis chain for ``seed``."""
    rng = random.Random(f"chain:{seed}")
    counts = list(OUTPUT_COUNT_DISTRIBUTION)
    weights = list(OUTPUT_COUNT_DISTRIBUTION.values())
    labels: dict[str, str] = {}
    rings: list[Ring] = []
    slices = []
    for batch in range(batches):
        tokens = [f"b{batch:03d}t{index:02d}" for index in range(BATCH_TOKENS)]
        slices.append(tuple(tokens))
        start = tx = 0
        while start < BATCH_TOKENS:
            outputs = rng.choices(counts, weights)[0]
            for token in tokens[start : start + outputs]:
                labels[token] = f"b{batch:03d}x{tx:02d}"
            start += outputs
            tx += 1
        members = tokens[:]
        rng.shuffle(members)
        for k in range(SUPER_RINGS):
            rings.append(
                Ring(
                    rid=f"b{batch:03d}r{k}",
                    tokens=frozenset(members[k * RING_SIZE : (k + 1) * RING_SIZE]),
                    c=1.0,
                    ell=2,
                    seq=len(rings),
                )
            )
    return Chain(TokenUniverse(labels), tuple(rings), tuple(slices))


def memo_keys(chain: Chain, seed: int) -> list[str]:
    """The hot targets: alternately fresh and super-ring members."""
    rng = random.Random(f"memo:{seed}")
    held = chain.held()
    return [
        rng.choice([t for t in chain.batches[batch] if (t in held) == (batch % 2 == 1)])
        for batch in range(HOT_KEYS)
    ]


def cold_targets(chain: Chain, seed: int, group: list[int]) -> list[str]:
    """Distinct targets, a fixed ring/fresh mix per batch, batches interleaved."""
    rng = random.Random(f"cold:{seed}:{group[0]}")
    held = chain.held()
    per_batch = []
    for batch in group:
        tokens = chain.batches[batch]
        mixed = rng.sample([t for t in tokens if t in held], COLD_RING_TARGETS)
        mixed += rng.sample([t for t in tokens if t not in held], COLD_FRESH_TARGETS)
        rng.shuffle(mixed)
        per_batch.append(mixed)
    order: list[str] = []
    for r in range(COLD_RING_TARGETS + COLD_FRESH_TARGETS):
        rng.shuffle(per_batch)
        order.extend(queue[r] for queue in per_batch)
    return order


def block_rings(
    chain: Chain, seed: int, group: list[int], exclude: set[str]
) -> list[tuple[str, list[str]]]:
    """Monero-style spends landing in ``group``: (rid, tokens), batches round-robin.

    Each spends one fresh token outside ``exclude`` with ``RING_SIZE - 1``
    decoys drawn uniformly from the rest of its batch.
    """
    rng = random.Random(f"block:{seed}:{group[0]}")
    held = chain.held()
    spendable = {}
    for batch in group:
        pool = [t for t in chain.batches[batch] if t not in held and t not in exclude]
        spendable[batch] = rng.sample(pool, -(-BLOCK_RINGS // len(group)))
    rings = []
    for k in range(BLOCK_RINGS):
        batch, index = group[k % len(group)], k // len(group)
        target = spendable[batch][index]
        decoys = rng.sample([t for t in chain.batches[batch] if t != target], RING_SIZE - 1)
        rings.append((f"blk{batch:03d}.{index}", sorted([target, *decoys])))
    return rings


def spend_target(chain: Chain, batch: int, held: set[str], rng: random.Random) -> str:
    """A token of ``batch`` that no ring holds yet (the spend-flow target)."""
    pool = [t for t in chain.batches[batch] if t not in held]
    if not pool:
        raise RuntimeError(f"batch {batch} has no token left that no ring holds")
    return rng.choice(pool)
