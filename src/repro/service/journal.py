"""The durable commit journal: a write-ahead log under the service.

Everything the daemon and the shard router know — accepted rings,
snapshot epochs, the partition — lives in RAM; a crash mid-traffic
would silently lose committed chain state, which a long-running
reproduction of the paper's recursive (c, l)-diversity guarantees
cannot tolerate.  :class:`Journal` closes that hole with the classic
write-ahead discipline:

* every state-mutating op (the genesis configuration, every ring
  commit) is appended to ``wal.jsonl`` **before** it is applied to the
  in-memory :class:`~repro.service.state.ServiceState`;
* frames are CRC-framed JSONL — ``<crc32 hex8> <canonical-json>`` per
  line — keyed by a strictly increasing ``(epoch, seq)`` pair and
  carrying the ring id as the idempotency token, so a replay can both
  verify integrity and refuse double-application;
* appends are fsync-batched: ``sync_every=1`` (the default) makes
  every commit durable before it is acknowledged, larger values
  amortize the fsync over bursts at a bounded durability lag
  (``lag_frames`` in :meth:`stats` is the exposure);
* every ``snapshot_every`` commits the journal writes a *compacted
  snapshot* — one CRC-framed line holding the full chain state — and
  truncates the WAL, so recovery cost is bounded by the compaction
  cadence, not by chain length.

A snapshot is the fold of the journal's own frames, assembled from
text it already holds rather than re-serialized from the service's
objects: the universe never changes and rings are only appended, so
the next snapshot is the base state's canonical text (the genesis
frame or the newest snapshot) with the canonical ring docs journaled
since spliced into its ``rings`` array — byte-identical to encoding
the full state, at the cost of copying the bytes plus one CRC.  The
journal keeps that record in memory: the base's ring docs and universe
as text, about the size of one snapshot file (0.64 MB for a chain of
15360 tokens and 3456 rings), plus the ring docs journaled since.
Recovery rebuilds it by slicing the base text it CRC-checked, never by
re-encoding it.  The rename of a new snapshot, and the creation of
``wal.jsonl``, are made durable by fsyncing the journal directory
before the WAL is truncated or the first frame is acknowledged.

Recovery (:meth:`Journal.recover`) loads the newest valid snapshot,
replays the WAL tail on top of it, and returns a
:class:`RecoveredState` from which ``serve --journal DIR`` rebuilds a
byte-identical twin of the crashed daemon.  Torn tails degrade
gracefully: the first frame that fails its CRC, fails to parse, has an
``epoch`` or ``seq`` that is not an integer, breaks key monotonicity,
or is a commit whose ring doc does not parse ends the replay, the file
is truncated back to the last valid frame, and the damage is surfaced
as a typed ``recovered`` block (``tests/test_service_recovery.py``
pins all of it).  A snapshot that fails validation (its CRC, its key,
or a ``data`` that does not parse into a chain state) falls back to the
next older one, or to the genesis frame, rather than aborting recovery,
as long as the WAL still covers the commits the skipped snapshot held:
a folded commit whose epoch is not the current epoch + 1 raises
:class:`JournalError` naming the missing epochs and the skipped
snapshot.  A genesis frame whose ``data`` does not parse, with no
usable snapshot to stand in for it, raises :class:`JournalError`
naming the frame.

Fault sites (``journal.append``, ``journal.fsync``,
``journal.replay``) hook the same deterministic
:mod:`repro.resilience.faults` machinery as the rest of the pipeline,
which is how the kill-and-recover chaos soak drives I/O failure paths
without monkeypatching.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from ..core.ring import Ring, TokenUniverse
from ..resilience import faults

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "WAL_NAME",
    "SNAPSHOT_GLOB",
    "JournalError",
    "JournalCorruption",
    "RecoveredState",
    "Journal",
    "encode_frame",
    "decode_frame",
    "decode_state",
    "scan_frames",
    "metrics_lines",
    "ring_to_doc",
    "ring_from_doc",
]

JOURNAL_FORMAT_VERSION = 1

WAL_NAME = "wal.jsonl"
SNAPSHOT_GLOB = "snapshot-*.json"
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")

#: ``op`` vocabulary of journal frames.
FRAME_OPS = ("genesis", "commit", "snapshot")


class JournalError(RuntimeError):
    """A journal operation that cannot proceed (bad dir, bad config)."""


class JournalCorruption(JournalError):
    """A frame or snapshot that failed CRC/parse/monotonicity checks.

    Raised only by the strict paths (``journal_fsck --check``);
    :meth:`Journal.recover` degrades gracefully instead — truncate at
    the last valid frame and report the damage.
    """


# -- framing -----------------------------------------------------------------


def _canonical(body: Mapping) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _frame(text: str) -> str:
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {text}"


def encode_frame(body: Mapping) -> str:
    """One CRC-framed journal line (no trailing newline).

    The CRC32 of the canonical JSON body leads the line as eight hex
    digits, so a torn or bit-flipped tail is detected before the JSON
    parser ever runs::

        >>> line = encode_frame({"op": "commit", "epoch": 1, "seq": 0})
        >>> decode_frame(line)["epoch"]
        1
    """
    return _frame(_canonical(body))


def decode_frame(line: str) -> dict:
    """Parse one framed line; raises :class:`JournalCorruption` on damage."""
    if len(line) < 10 or line[8] != " ":
        raise JournalCorruption(f"malformed frame header: {line[:24]!r}")
    crc_text, text = line[:8], line[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        raise JournalCorruption(f"bad CRC field {crc_text!r}") from None
    actual = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise JournalCorruption(
            f"CRC mismatch: frame says {crc_text}, body hashes to {actual:08x}"
        )
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JournalCorruption(f"frame body is not valid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise JournalCorruption("frame body must be a JSON object")
    return body


def scan_frames(path: Path) -> tuple[list[dict], int, str | None]:
    """Read every valid frame prefix of ``path``.

    Returns ``(frames, valid_bytes, damage)``: the frames decoded
    before the first invalid line, how many bytes of the file they
    span (the truncation point), and a human description of the first
    damage found (``None`` for a clean file).  A line is invalid when
    its CRC or JSON fails, its ``(epoch, seq)`` key is not integers
    (see :func:`_key_damage`) or not after the previous one.  A final
    line without a newline terminator is treated as torn — a crash
    mid-append — even if its CRC happens to verify.
    """
    frames, _, ends, damage = _scan(path)
    return frames, ends[-1] if ends else 0, damage


def _scan(path: Path) -> tuple[list[dict], list[str], list[int], str | None]:
    """:func:`scan_frames`, plus each valid frame's CRC-checked body text
    and the byte offset where it ends (instead of just the last one)."""
    frames: list[dict] = []
    texts: list[str] = []
    ends: list[int] = []
    damage: str | None = None
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return frames, texts, ends, None
    offset = 0
    last_key: tuple[int, int] | None = None
    while offset < len(blob):
        newline = blob.find(b"\n", offset)
        if newline < 0:
            damage = f"torn tail: {len(blob) - offset} byte(s) without newline"
            break
        raw = blob[offset:newline]
        try:
            line = raw.decode("utf-8", errors="strict")
            body = decode_frame(line)
        except (JournalCorruption, UnicodeDecodeError) as exc:
            damage = f"frame {len(frames)}: {exc}"
            break
        problem = _key_damage(body)
        if problem is not None:
            damage = f"frame {len(frames)}: {problem}"
            break
        key = (body.get("epoch", -1), body.get("seq", -1))
        if last_key is not None and key <= last_key:
            damage = (
                f"frame {len(frames)}: key {key} not after {last_key} "
                f"(non-monotonic (epoch, seq))"
            )
            break
        last_key = key
        frames.append(body)
        texts.append(line[9:])
        offset = newline + 1
        ends.append(offset)
    return frames, texts, ends, damage


def _key_damage(body: Mapping) -> str | None:
    """Why a CRC-valid frame's ``(epoch, seq)`` key is unusable, or ``None``.

    ``epoch`` and ``seq``, where present, must be JSON integers
    (``true`` is not one), and a genesis, snapshot or commit frame must
    carry an epoch.
    """
    for name in ("epoch", "seq"):
        if name in body and type(body[name]) is not int:
            return f"{name} {body[name]!r} is not an integer"
    op = body.get("op")
    if op in FRAME_OPS and "epoch" not in body:
        return f"{op} frame has no epoch"
    return None


# -- chain-state (de)serialization -------------------------------------------


def ring_to_doc(ring: Ring) -> dict:
    return {
        "rid": ring.rid,
        "tokens": sorted(ring.tokens),
        "c": ring.c,
        "ell": ring.ell,
        "seq": ring.seq,
    }


def ring_from_doc(doc: Mapping) -> Ring:
    return Ring(
        rid=str(doc["rid"]),
        tokens=frozenset(str(t) for t in doc["tokens"]),
        c=float(doc["c"]),
        ell=int(doc["ell"]),
        seq=int(doc["seq"]),
    )


def decode_state(body: Mapping) -> tuple[TokenUniverse, list[Ring], int | None]:
    """The ``(universe, rings, batches)`` a genesis or snapshot frame holds.

    Raises:
        JournalCorruption: the frame's ``data`` does not parse into a
            chain state (missing, not an object, a universe mapping a
            token to something unhashable, a ring doc that does not
            parse, non-integer ``batches``).
    """
    data = body.get("data")
    if not isinstance(data, dict):
        raise JournalCorruption(f"{body.get('op')} frame has no data object")
    try:
        universe = TokenUniverse(dict(data["universe"]))
        rings = [ring_from_doc(doc) for doc in data["rings"]]
        batches = data.get("batches")
        return universe, rings, None if batches is None else int(batches)
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalCorruption(
            f"{body.get('op')} data does not parse ({type(exc).__name__}: {exc})"
        ) from None


def _state_doc(
    universe: TokenUniverse,
    rings: Sequence[Ring],
    batches: int | None,
) -> dict:
    """The ``data`` of a genesis or snapshot frame, as objects.

    The reference encoding: every state frame the journal writes is
    byte-identical to :func:`encode_frame` of a body holding this doc,
    though the journal assembles it from text (see
    :func:`_state_text`) instead of building it.
    """
    return {
        "universe": {token: universe.ht_of(token) for token in sorted(universe.tokens)},
        "rings": [ring_to_doc(ring) for ring in rings],
        "batches": batches,
    }


# -- canonical text, spliced --------------------------------------------------
#
# A state frame body (genesis or snapshot) in canonical form is
#
#   {"data":{"batches":B,"rings":[R],"universe":U},"epoch":E,"op":O,"seq":S,"version":V}
#
# with R the ring docs joined by commas and U the universe object; a
# commit frame body is
#
#   {"data":D,"epoch":E,"op":"commit","seq":S,"token":T,"version":V}
#
# with D one ring doc.  Everything around R, U and D is formatted from
# scalars, so the journal keeps R, U and each D as text and assembles
# frames around them.  A JSON string escapes every '"', so '],"universe":'
# occurs only where a list closes before a "universe" key.  Recovery
# slices a base only after rebuilding its TokenUniverse, whose HT labels
# must be hashable, so U holds no list and the last occurrence ends the
# rings array.

_STATE_KEYS = ["data", "epoch", "op", "seq", "version"]
_DATA_KEYS = ["batches", "rings", "universe"]
_COMMIT_KEYS = ["data", "epoch", "op", "seq", "token", "version"]
_RINGS_END = '],"universe":'
_COMMIT_HEAD = '{"data":'


def _ring_text(ring: Ring) -> str:
    return _canonical(ring_to_doc(ring))


def _universe_text(universe: TokenUniverse) -> str:
    return _canonical({token: universe.ht_of(token) for token in universe.tokens})


def _scalar(value) -> str:
    """``json.dumps(value)``; an int skips building an encoder (commit path)."""
    return str(value) if type(value) is int else json.dumps(value)


def _state_frame(op, epoch, seq, batches, version=JOURNAL_FORMAT_VERSION) -> tuple[str, str]:
    """The canonical text before R and after U of a state frame body."""
    head = '{"data":{"batches":' + _scalar(batches) + ',"rings":['
    tail = (
        '},"epoch":' + _scalar(epoch) + ',"op":' + _scalar(op)
        + ',"seq":' + _scalar(seq) + ',"version":' + _scalar(version) + "}"
    )
    return head, tail


def _state_text(op: str, epoch: int, seq: int, batches: int | None,
                rings: str, universe: str) -> str:
    head, tail = _state_frame(op, epoch, seq, batches)
    return "".join((head, rings, _RINGS_END, universe, tail))


def _commit_tail(epoch, seq, token, version=JOURNAL_FORMAT_VERSION) -> str:
    """The canonical text after the ring doc of a commit frame body."""
    return (
        ',"epoch":' + _scalar(epoch) + ',"op":"commit","seq":' + _scalar(seq)
        + ',"token":' + _scalar(token) + ',"version":' + _scalar(version) + "}"
    )


def _slice_state(text: str, body: Mapping) -> tuple[str, str] | None:
    """The (R, U) texts of a state frame body, or ``None``.

    ``text`` is a CRC-checked body and ``body`` its parse.  The slices
    are returned only when the text around them is exactly what
    ``body`` formats to in the canonical layout — a file this journal
    did not write gets ``None``, and its caller re-encodes instead.
    """
    data = body.get("data")
    if (
        list(body) != _STATE_KEYS
        or not isinstance(data, dict)
        or list(data) != _DATA_KEYS
        or not text.isascii()
    ):
        return None
    head, tail = _state_frame(
        body["op"], body["epoch"], body["seq"], data["batches"], body["version"]
    )
    end = len(text) - len(tail)
    cut = text.rfind(_RINGS_END, len(head), end)
    if cut < 0 or not (text.startswith(head) and text.endswith(tail)):
        return None
    rings = text[len(head):cut]
    if bool(rings) != bool(data["rings"]):
        return None
    return rings, text[cut + len(_RINGS_END):end]


def _slice_commit(text: str, body: Mapping) -> str | None:
    """The ring-doc text D of a commit frame body, or ``None`` (as above)."""
    if list(body) != _COMMIT_KEYS or not text.isascii():
        return None
    tail = _commit_tail(body["epoch"], body["seq"], body["token"], body["version"])
    end = len(text) - len(tail)
    if end <= len(_COMMIT_HEAD) or not (
        text.startswith(_COMMIT_HEAD) and text.endswith(tail)
    ):
        return None
    return text[len(_COMMIT_HEAD):end]


def _epoch_gap(
    wal_path: Path, index: int, epoch: int, found: int, notes: Sequence[str]
) -> str:
    """Why a commit frame at epoch ``found`` cannot fold onto ``epoch``;
    ``notes`` name the snapshots the base fell back past."""
    first, last = epoch + 1, found - 1
    missing = f"epoch {first} is" if first == last else f"epochs {first}-{last} are"
    skipped = f" [{'; '.join(notes)}]" if notes else ""
    return (
        f"{wal_path} frame {index}: commit at epoch {found} does not follow "
        f"epoch {epoch}: {missing} missing{skipped}; refusing to recover a "
        f"chain that lost acknowledged commits"
    )


@dataclass(slots=True)
class RecoveredState:
    """What a journal replay reconstructed, plus how it went.

    ``recovery`` is the typed ``recovered`` block the service surfaces
    through ``stats``/``health``/``metrics``:

    ============================ ===========================================
    ``snapshot_epoch``           epoch of the compacted snapshot used
                                 (``0`` = genesis)
    ``frames_replayed``          WAL commit frames applied on top of it
    ``torn_tail``                the WAL ended in damage that was cut off
    ``truncated_bytes``          bytes discarded past the last valid frame
    ``damage``                   human description of the damage (or None)
    ============================ ===========================================
    """

    epoch: int
    universe: TokenUniverse
    rings: tuple[Ring, ...]
    batches: int | None
    recovery: dict = field(default_factory=dict)


class Journal:
    """One durable journal directory (WAL + compacted snapshots).

    Args:
        directory: the journal home; created if missing.
        sync_every: fsync after every Nth append (1 = every append is
            durable before the commit is acknowledged; larger values
            batch the fsync and bound the durability lag; 0 disables
            fsync entirely — OS-buffered, crash-unsafe, bench only).
        snapshot_every: write a compacted snapshot and truncate the WAL
            after this many commits (0 disables compaction).

    One process owns a journal at a time — see
    :mod:`repro.service.pidfile` for the guard the CLI installs.

    Besides the WAL handle, the journal keeps the record a snapshot is
    assembled from: the base state's ring docs and universe as
    canonical text, the ring-doc texts journaled since, and the highest
    ring ``seq`` on the chain.  Like the handle, it is only touched
    under the lock that serializes commits.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        sync_every: int = 1,
        snapshot_every: int = 64,
    ) -> None:
        if sync_every < 0 or snapshot_every < 0:
            raise JournalError("sync_every and snapshot_every must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sync_every = sync_every
        self.snapshot_every = snapshot_every
        self.wal_path = self.directory / WAL_NAME
        self._wal = None  # opened lazily by append paths
        self._unsynced = 0
        self._commits_since_snapshot = 0
        self._base_rings: str | None = None  # None: no base state yet
        self._base_universe = ""
        self._since_base: list[str] = []
        self._max_seq = -1
        self.counters: dict[str, int] = {
            "appends": 0,
            "fsyncs": 0,
            "snapshots": 0,
            "replayed_frames": 0,
            "truncated_bytes": 0,
        }

    # -- write side ----------------------------------------------------------

    def _open_wal(self):
        if self._wal is None:
            created = not self.wal_path.exists()
            self._wal = open(self.wal_path, "a", encoding="utf-8")
            if created:
                self._fsync_directory()
        return self._wal

    def _fsync(self) -> None:
        plan = faults.active()
        if plan is not None:
            plan.check("journal.fsync")
        os.fsync(self._wal.fileno())
        self.counters["fsyncs"] += 1
        self._unsynced = 0

    def _fsync_directory(self) -> None:
        """Make a file created or renamed in the journal directory durable."""
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _set_base(self, rings: str, universe: str, since: list[str], max_seq: int) -> None:
        self._base_rings = rings
        self._base_universe = universe
        self._since_base = since
        self._max_seq = max_seq

    def append(self, body: Mapping) -> None:
        """Append one frame; fsync per the batching policy.

        The caller must hold whatever lock serializes commits — frames
        must land in the same order state mutations are applied.
        """
        self._append_text(_canonical(body))

    def _append_text(self, text: str) -> None:
        plan = faults.active()
        if plan is not None:
            plan.check("journal.append")
        handle = self._open_wal()
        handle.write(_frame(text) + "\n")
        handle.flush()
        self.counters["appends"] += 1
        self._unsynced += 1
        if self.sync_every and self._unsynced >= self.sync_every:
            self._fsync()

    def append_genesis(
        self,
        universe: TokenUniverse,
        rings: Sequence[Ring],
        batches: int | None,
    ) -> None:
        """Record the initial chain state (epoch 0) as the first frame."""
        ring_texts = ",".join(_ring_text(ring) for ring in rings)
        universe_text = _universe_text(universe)
        self._append_text(
            _state_text("genesis", 0, -1, batches, ring_texts, universe_text)
        )
        if self.sync_every and self._unsynced:
            self._fsync()
        self._set_base(
            ring_texts, universe_text, [], max((ring.seq for ring in rings), default=-1)
        )

    def append_commit(self, epoch: int, ring: Ring) -> None:
        """WAL a ring commit *before* it is applied to the state.

        ``epoch`` is the epoch the chain will be at once the commit
        applies; the ring id doubles as the idempotency token a
        recovering replay and a retrying client both key on.  The ring
        doc is encoded once: the same text goes into the frame and into
        the record the next snapshot is assembled from.
        """
        text = _ring_text(ring)
        self._append_text(_COMMIT_HEAD + text + _commit_tail(epoch, ring.seq, ring.rid))
        self._since_base.append(text)
        self._max_seq = max(self._max_seq, ring.seq)
        self._commits_since_snapshot += 1

    def sync(self) -> None:
        """Force any batched appends to disk now."""
        if self._wal is not None and self._unsynced:
            self._fsync()

    def due_for_snapshot(self) -> bool:
        return (
            self.snapshot_every > 0
            and self._commits_since_snapshot >= self.snapshot_every
        )

    def write_snapshot(self, epoch: int, batches: int | None) -> Path:
        """Compact: persist the full state, then truncate the WAL.

        The snapshot is the fold of the journal's own frames: the base
        state's text with the ring docs journaled since spliced into its
        rings array, byte-identical to encoding the whole chain, so it
        costs a copy of the snapshot's bytes, one CRC and the fsyncs,
        not a pass over the chain's objects; the new rings were encoded
        once, when they were journaled.  The assembled text becomes the
        next base, so the record held in memory stays about one
        snapshot file in size.  ``batches`` is recorded as given
        (``serve --batches`` may override the journal's value).

        The snapshot is written to a temp file, fsynced and renamed
        into place, and the directory is fsynced so the rename is
        durable before the WAL is touched: a crash at any point leaves
        either the old (snapshot, WAL) pair or the new one — never a
        state that loses a committed ring.  Replays skip WAL frames at
        or below the snapshot epoch, which also covers a crash between
        the rename and the truncation.

        Raises:
            JournalError: the journal has no base state — no genesis
                was appended and nothing was recovered.
        """
        if self._base_rings is None:
            raise JournalError(
                "no base state to compact: append a genesis frame or recover first"
            )
        rings = ",".join(filter(None, (self._base_rings, *self._since_base)))
        text = _state_text(
            "snapshot", epoch, self._max_seq, batches, rings, self._base_universe
        )
        path = self.directory / f"snapshot-{epoch:08d}.json"
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(_frame(text) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_directory()
        # Truncate the WAL: everything up to `epoch` now lives in the
        # snapshot.  Reopen in write mode to drop the old frames.
        if self._wal is not None:
            self._wal.close()
        self._wal = open(self.wal_path, "w", encoding="utf-8")
        self._wal.flush()
        os.fsync(self._wal.fileno())
        self._set_base(rings, self._base_universe, [], self._max_seq)
        self.counters["snapshots"] += 1
        self._commits_since_snapshot = 0
        self._unsynced = 0
        self._prune_snapshots(keep=2)
        return path

    def maybe_snapshot(self, epoch: int, batches: int | None) -> Path | None:
        """Compact when the cadence says so (the commit-path helper)."""
        if not self.due_for_snapshot():
            return None
        return self.write_snapshot(epoch, batches)

    def _prune_snapshots(self, keep: int) -> None:
        files = sorted(self._snapshot_paths(), reverse=True)
        for path in files[keep:]:
            try:
                path.unlink()
            except OSError:
                pass

    def close(self) -> None:
        self.sync()
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    # -- read side -----------------------------------------------------------

    def _snapshot_paths(self) -> list[Path]:
        return [
            path
            for path in self.directory.glob(SNAPSHOT_GLOB)
            if _SNAPSHOT_RE.match(path.name)
        ]

    def exists(self) -> bool:
        """Is there anything to recover from in this directory?"""
        return bool(self._snapshot_paths()) or (
            self.wal_path.exists() and self.wal_path.stat().st_size > 0
        )

    def _load_base(self) -> tuple[dict | None, str, tuple | None, list[str]]:
        """The newest valid snapshot: its body, its text and the state it
        decodes to, plus notes on any snapshot skipped."""
        notes: list[str] = []
        for path in sorted(self._snapshot_paths(), reverse=True):
            try:
                line = path.read_text(encoding="utf-8").rstrip("\n")
                body = decode_frame(line)
            except (OSError, JournalCorruption) as exc:
                notes.append(f"snapshot {path.name} unusable ({exc}); skipped")
                continue
            if body.get("op") not in ("snapshot", "genesis"):
                notes.append(f"snapshot {path.name} has op {body.get('op')!r}; skipped")
                continue
            problem = _key_damage(body)
            if problem is not None:
                notes.append(f"snapshot {path.name} unusable ({problem}); skipped")
                continue
            try:
                state = decode_state(body)
            except JournalCorruption as exc:
                notes.append(f"snapshot {path.name} unusable ({exc}); skipped")
                continue
            return body, line[9:], state, notes
        return None, "", None, notes

    def recover(self, truncate: bool = True) -> RecoveredState | None:
        """Replay snapshot + WAL tail into a :class:`RecoveredState`.

        Returns ``None`` when the directory holds no journal at all (a
        fresh start).  Damage never raises: the WAL is cut back to its
        last valid frame (``truncate=True`` persists the cut; fsck's
        read-only mode passes ``False``) and the loss is reported in
        ``RecoveredState.recovery``.

        Recovery also rebuilds the record the next snapshot is spliced
        from, by slicing the base text it CRC-checked and the folded
        commit frames.  A base not in the canonical layout (a file this
        journal did not write) is re-encoded once, here.

        Raises:
            JournalError: a WAL exists but no usable snapshot does, and
                the WAL does not open with a usable genesis frame —
                there is no base state to replay onto; or a folded
                commit's epoch is not the current epoch + 1 — the base
                fell back past a skipped snapshot that alone held the
                commits in between.  Nothing is truncated then.
        """
        plan = faults.active()
        if plan is not None:
            plan.check("journal.replay")
        if not self.exists():
            return None
        base, base_text, state, notes = self._load_base()
        frames, texts, ends, damage = _scan(self.wal_path)
        first = 0  # index of the first WAL frame to fold
        if base is None:
            # No usable snapshot: the genesis frame must lead the WAL.
            if not frames or frames[0].get("op") != "genesis":
                raise JournalError(
                    f"{self.wal_path} has no genesis frame and no snapshot "
                    f"exists; cannot reconstruct state"
                )
            base, base_text = frames[0], texts[0]
            try:
                state = decode_state(base)
            except JournalCorruption as exc:
                raise JournalError(
                    f"{self.wal_path} frame 0: genesis unusable ({exc}) and no "
                    f"usable snapshot exists; cannot reconstruct state"
                ) from None
            first = 1

        universe, rings, batches = state
        epoch = int(base["epoch"])
        seen = {ring.rid for ring in rings}
        pieces = _slice_state(base_text, base) or (
            ",".join(_ring_text(ring) for ring in rings),
            _universe_text(universe),
        )

        replayed = 0
        since: list[str] = []
        for index in range(first, len(frames)):
            body, text = frames[index], texts[index]
            if body.get("op") != "commit":
                continue
            if body["epoch"] <= epoch:
                continue  # already folded into the snapshot
            token = str(body.get("token", ""))
            if token in seen:
                continue  # idempotency: a double-appended frame is a no-op
            if body["epoch"] != epoch + 1:
                # The commits in between were acknowledged, and the WAL
                # held them only until a snapshot was written: folding
                # past them would serve a chain that lost them.
                raise JournalError(
                    _epoch_gap(self.wal_path, index, epoch, body["epoch"], notes)
                )
            try:
                ring = ring_from_doc(body["data"])
            except (KeyError, TypeError, ValueError) as exc:
                # Damage like a bad CRC: the replay ends before this frame.
                damage = (
                    f"frame {index}: commit ring doc does not parse "
                    f"({type(exc).__name__}: {exc})"
                )
                del ends[index:]
                break
            rings.append(ring)
            seen.add(ring.rid)
            epoch = body["epoch"]
            replayed += 1
            since.append(_slice_commit(text, body) or _ring_text(ring))
        self._set_base(*pieces, since, max((ring.seq for ring in rings), default=-1))

        valid_bytes = ends[-1] if ends else 0
        truncated = 0
        if damage is not None:
            try:
                truncated = self.wal_path.stat().st_size - valid_bytes
            except OSError:
                truncated = 0
            if truncate and truncated > 0:
                with open(self.wal_path, "r+b") as handle:
                    handle.truncate(valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
        self.counters["replayed_frames"] += replayed
        self.counters["truncated_bytes"] += truncated

        recovery = {
            "snapshot_epoch": int(base["epoch"]),
            "frames_replayed": replayed,
            "torn_tail": damage is not None,
            "truncated_bytes": truncated,
            "damage": damage,
        }
        if notes:
            recovery["notes"] = notes
        return RecoveredState(
            epoch=epoch,
            universe=universe,
            rings=tuple(rings),
            batches=batches,
            recovery=recovery,
        )

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """The ``journal`` block of the service ``stats`` payload."""
        return {
            "directory": str(self.directory),
            "sync_every": self.sync_every,
            "snapshot_every": self.snapshot_every,
            "lag_frames": self._unsynced,
            "commits_since_snapshot": self._commits_since_snapshot,
            **{key: value for key, value in sorted(self.counters.items())},
        }

    # -- lifecycle sugar -----------------------------------------------------

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def metrics_lines(
    journal_stats: Mapping | None,
    recovered: Mapping | None,
    prefix: str = "repro_service",
) -> str:
    """Prometheus exposition lines for the journal + recovery blocks.

    Appended to the service's ``metrics`` body so journal durability
    lag and replay/truncation history scrape from the same endpoint as
    everything else.
    """
    lines: list[str] = []
    if journal_stats is not None:
        for name in (
            "appends",
            "fsyncs",
            "snapshots",
            "replayed_frames",
            "truncated_bytes",
        ):
            lines.append(
                f"{prefix}_journal_{name}_total {int(journal_stats.get(name, 0))}"
            )
        lines.append(
            f"{prefix}_journal_lag_frames {int(journal_stats.get('lag_frames', 0))}"
        )
    if recovered is not None:
        lines.append(
            f"{prefix}_recovered_frames_replayed "
            f"{int(recovered.get('frames_replayed', 0))}"
        )
        lines.append(
            f"{prefix}_recovered_snapshot_epoch "
            f"{int(recovered.get('snapshot_epoch', 0))}"
        )
        lines.append(
            f"{prefix}_recovered_torn_tail "
            f"{1 if recovered.get('torn_tail') else 0}"
        )
        lines.append(
            f"{prefix}_recovered_truncated_bytes "
            f"{int(recovered.get('truncated_bytes', 0))}"
        )
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
