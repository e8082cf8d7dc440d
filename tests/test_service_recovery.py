"""Crash safety: the journal, recovery replay, and idempotent retry.

Four layers of pinning:

* the WAL framing is tamper-evident and replayable — CRC framing,
  strict (epoch, seq) monotonicity, torn-tail truncation at the last
  valid frame, snapshot compaction bounding the tail, every spliced
  snapshot byte-identical to the reference encoder, and the fsync
  order that makes a compaction durable;
* a daemon rebuilt from snapshot + WAL answers **byte-identically** to
  an uncrashed twin that applied the same commits (the
  test_service_equivalence convention, minus execution coordinates);
* the client turns transport loss into exactly-once semantics: typed
  :class:`~repro.service.client.ServiceUnavailable` (never a bare
  ``BrokenPipeError``), deadline-aware reconnect with seeded backoff,
  idempotency-key resend that survives a commit applied-but-unacked;
* the seeded SIGKILL soak: a real ``serve --journal`` subprocess is
  killed at seeded points under commit-interleaved load, restarted,
  and must come back with every acknowledged ring present and every
  replayed response byte-identical to the uncrashed reference.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

import repro
from repro.resilience import faults
from repro.service import (
    Journal,
    JournalCorruption,
    JournalError,
    PidFile,
    AlreadyRunning,
    RetrySpec,
    RouterConfig,
    SelectionService,
    SelectRequest,
    ServiceClient,
    ServiceConfig,
    ServiceUnavailable,
    ShardRouter,
    TokenPartition,
)
from repro.service import journal as journal_module
from repro.service.journal import (
    _state_doc,
    decode_frame,
    encode_frame,
    metrics_lines,
    ring_from_doc,
    ring_to_doc,
    scan_frames,
)
from repro.service.daemon import _shard_sync
from repro.service.pidfile import pid_alive
from repro.service.server import handle_line
from repro.service.state import DuplicateRingId, ReservedRingId
from repro.core.ring import Ring, TokenUniverse

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def recovery_universe(tokens: int = 24, hts: int = 6, seed: int = 3) -> TokenUniverse:
    """Same construction as the CLI's synthetic serve universe."""
    rng = random.Random(seed)
    return TokenUniverse(
        {f"t{i:02d}": f"h{rng.randrange(hts)}" for i in range(tokens)}
    )


def canon(response) -> dict:
    """A response minus its execution coordinates (shard-test convention)."""
    payload = response.to_dict() if hasattr(response, "to_dict") else dict(response)
    for key in ("elapsed", "batch_id", "batch_size", "warm_cache"):
        payload.pop(key, None)
    attrs = payload.get("attrs")
    if attrs is not None:
        attrs.pop("memo", None)
        if not attrs:
            payload.pop("attrs")
    return payload


# -- framing -----------------------------------------------------------------


def test_frame_roundtrip_and_crc_detection():
    body = {"op": "commit", "epoch": 3, "seq": 2, "token": "r2"}
    line = encode_frame(body)
    assert decode_frame(line) == body
    # Flip one body byte: the CRC catches it before the JSON parser.
    tampered = line[:-2] + ("0" if line[-2] != "0" else "1") + line[-1]
    with pytest.raises(JournalCorruption, match="CRC mismatch"):
        decode_frame(tampered)
    with pytest.raises(JournalCorruption, match="malformed frame header"):
        decode_frame("not a frame")
    with pytest.raises(JournalCorruption, match="bad CRC field"):
        decode_frame("zzzzzzzz " + line[9:])


def test_scan_frames_torn_tail_and_monotonicity(tmp_path):
    wal = tmp_path / "wal.jsonl"
    frames = [
        {"op": "commit", "epoch": 1, "seq": 0},
        {"op": "commit", "epoch": 2, "seq": 1},
    ]
    text = "".join(encode_frame(f) + "\n" for f in frames)
    # A torn final line: valid CRC but no newline terminator.
    wal.write_text(text + encode_frame({"op": "commit", "epoch": 3, "seq": 2}))
    scanned, valid_bytes, damage = scan_frames(wal)
    assert [f["epoch"] for f in scanned] == [1, 2]
    assert valid_bytes == len(text.encode())
    assert "torn tail" in damage

    # A non-monotonic key ends the replay at the last good frame.
    wal.write_text(text + encode_frame({"op": "commit", "epoch": 2, "seq": 1}) + "\n")
    scanned, _, damage = scan_frames(wal)
    assert [f["epoch"] for f in scanned] == [1, 2]
    assert "non-monotonic" in damage

    # Clean file: no damage.
    wal.write_text(text)
    scanned, valid_bytes, damage = scan_frames(wal)
    assert damage is None and valid_bytes == len(text.encode())


def test_ring_doc_roundtrip():
    ring = Ring("r7", frozenset({"t01", "t05"}), c=2.5, ell=3, seq=7)
    assert ring_from_doc(ring_to_doc(ring)) == ring


# -- the journal write/replay cycle ------------------------------------------


def test_journal_genesis_commit_recover_roundtrip(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    rings = [
        Ring(f"r{i}", frozenset({f"t{2*i:02d}", f"t{2*i+1:02d}"}), c=1.0,
             ell=1, seq=i)
        for i in range(4)
    ]
    for i, ring in enumerate(rings):
        journal.append_commit(i + 1, ring)
    journal.close()

    recovered = Journal(tmp_path / "j").recover()
    assert recovered.epoch == 4
    assert list(recovered.rings) == rings
    assert recovered.universe.tokens == universe.tokens
    assert all(
        recovered.universe.ht_of(t) == universe.ht_of(t)
        for t in universe.tokens
    )
    assert recovered.recovery == {
        "snapshot_epoch": 0,
        "frames_replayed": 4,
        "torn_tail": False,
        "truncated_bytes": 0,
        "damage": None,
    }


def test_recover_on_empty_directory_is_fresh_start(tmp_path):
    assert Journal(tmp_path / "nothing").recover() is None


def test_recover_without_genesis_or_snapshot_raises(tmp_path):
    journal = Journal(tmp_path / "j", snapshot_every=0)
    ring = Ring("r0", frozenset({"t00"}), c=1.0, ell=1, seq=0)
    journal.append_commit(1, ring)
    journal.close()
    with pytest.raises(JournalError, match="no genesis frame"):
        Journal(tmp_path / "j").recover()


def test_snapshot_compaction_bounds_wal_and_prunes(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=2)
    journal.append_genesis(universe, (), None)
    rings: list[Ring] = []
    for i in range(7):
        ring = Ring(f"r{i}", frozenset({f"t{(3 * i) % 24:02d}",
                                        f"t{(3 * i + 1) % 24:02d}"}),
                    c=1.0, ell=1, seq=i)
        rings.append(ring)
        journal.append_commit(i + 1, ring)
        journal.maybe_snapshot(i + 1, None)
    journal.close()

    home = tmp_path / "j"
    snapshots = sorted(p.name for p in home.glob("snapshot-*.json"))
    # Compaction every 2 commits, keeping the 2 newest.
    assert snapshots == ["snapshot-00000004.json", "snapshot-00000006.json"]
    # The WAL holds only the post-snapshot tail.
    frames, _, damage = scan_frames(home / "wal.jsonl")
    assert damage is None
    assert [f["epoch"] for f in frames] == [7]

    recovered = Journal(home).recover()
    assert recovered.epoch == 7
    assert list(recovered.rings) == rings
    assert recovered.recovery["snapshot_epoch"] == 6
    assert recovered.recovery["frames_replayed"] == 1


def snapshot_frame(universe, rings, epoch: int) -> str:
    """A snapshot file's line holding ``rings`` at ``epoch``."""
    return encode_frame(
        {
            "version": 1,
            "op": "snapshot",
            "epoch": epoch,
            "seq": rings[-1].seq,
            "data": {
                "universe": {t: universe.ht_of(t) for t in sorted(universe.tokens)},
                "rings": [ring_to_doc(ring) for ring in rings],
                "batches": None,
            },
        }
    ) + "\n"


def break_crc(line: str) -> str:
    return line[:20] + ("X" if line[20] != "X" else "Y") + line[21:]


def test_recover_falls_back_past_a_corrupt_snapshot(tmp_path):
    # The WAL still holds every commit after the older snapshot (the
    # newest one was written but the WAL not yet cut), so falling back
    # to the older base loses nothing.
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    rings: list[Ring] = []
    for i in range(4):
        ring = Ring(f"r{i}", frozenset({f"t{i:02d}"}), c=1.0, ell=1, seq=i)
        rings.append(ring)
        journal.append_commit(i + 1, ring)
    journal.close()
    home = tmp_path / "j"
    (home / "snapshot-00000001.json").write_text(snapshot_frame(universe, rings[:1], 1))
    (home / "snapshot-00000002.json").write_text(
        break_crc(snapshot_frame(universe, rings[:2], 2))
    )

    recovered = Journal(home).recover()
    # Fallback snapshot is at epoch 1; frames 2, 3 and 4 replay on top.
    assert recovered.epoch == 4
    assert list(recovered.rings) == rings
    assert recovered.recovery["snapshot_epoch"] == 1
    assert recovered.recovery["frames_replayed"] == 3
    assert any("unusable" in note for note in recovered.recovery["notes"])


def test_recover_refuses_an_epoch_gap_past_a_corrupt_snapshot(tmp_path, capsys):
    # write_snapshot cut the WAL at epoch 2, so r1 (epoch 2) lives only
    # in the newest snapshot.  Falling back past it to an older base
    # would fold r2 and r3 onto r0 and serve a chain that lost r1: the
    # recovery refuses, names the snapshot and the missing epoch, and
    # leaves every file as it was.
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    rings: list[Ring] = []
    for i in range(4):
        ring = Ring(f"r{i}", frozenset({f"t{i:02d}"}), c=1.0, ell=1, seq=i)
        rings.append(ring)
        journal.append_commit(i + 1, ring)
        if i == 1:
            journal.write_snapshot(2, None)
    journal.close()
    home = tmp_path / "j"
    (home / "snapshot-00000001.json").write_text(snapshot_frame(universe, rings[:1], 1))
    path = home / "snapshot-00000002.json"
    path.write_text(break_crc(path.read_text()))
    before = {file.name: file.read_bytes() for file in home.iterdir()}

    with pytest.raises(JournalError) as excinfo:
        Journal(home).recover()
    message = str(excinfo.value)
    assert "commit at epoch 3 does not follow epoch 1" in message
    assert "epoch 2 is missing" in message
    assert "snapshot-00000002.json" in message
    assert {file.name: file.read_bytes() for file in home.iterdir()} == before
    # The checker reports the chain unrecoverable, naming the gap.
    assert _load_fsck().main(["--check", str(home)]) == 2
    assert "epoch 2 is missing" in capsys.readouterr().out


def epoch_gap_journal(home: Path) -> None:
    """The journal of the test above: its newest snapshot is broken and
    the WAL no longer covers the commit only that snapshot held."""
    universe = recovery_universe()
    journal = Journal(home, sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    rings: list[Ring] = []
    for i in range(4):
        ring = Ring(f"r{i}", frozenset({f"t{i:02d}"}), c=1.0, ell=1, seq=i)
        rings.append(ring)
        journal.append_commit(i + 1, ring)
        if i == 1:
            journal.write_snapshot(2, None)
    journal.close()
    (home / "snapshot-00000001.json").write_text(snapshot_frame(universe, rings[:1], 1))
    path = home / "snapshot-00000002.json"
    path.write_text(break_crc(path.read_text()))


def unusable_genesis_journal(home: Path) -> None:
    """A WAL holding one CRC-valid genesis frame with no ``data``."""
    home.mkdir()
    (home / "wal.jsonl").write_text(encode_frame({"op": "genesis", "epoch": 0, "seq": 0}) + "\n")


@pytest.mark.parametrize(
    "make_journal, reason",
    [(unusable_genesis_journal, "genesis unusable"), (epoch_gap_journal, "epoch 2 is missing")],
)
def test_serve_refuses_an_unrecoverable_journal_with_one_line(tmp_path, make_journal, reason):
    # Recovery refuses the journal; serve says so on one line and exits
    # EX_DATAERR, releasing its pidfile, so a second start gets the
    # same answer rather than "already running".
    home = tmp_path / "j"
    make_journal(home)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    for _ in range(2):
        proc = subprocess.run(
            serve_command(tmp_path / "d.sock", home),
            env=env, capture_output=True, text=True, timeout=60.0,
        )
        assert proc.returncode == 65, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: journal refused: "), lines
        assert reason in lines[0]
    assert not (home / "daemon.pid").exists()


def test_recover_truncates_torn_tail_and_reports(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    ring = Ring("r0", frozenset({"t00", "t01"}), c=1.0, ell=1, seq=0)
    journal.append_commit(1, ring)
    journal.close()

    wal = tmp_path / "j" / "wal.jsonl"
    clean_size = wal.stat().st_size
    # A crash mid-append: half a frame, no newline.
    with open(wal, "a", encoding="utf-8") as handle:
        handle.write(encode_frame({"op": "commit", "epoch": 2, "seq": 1})[:25])

    recovered = Journal(tmp_path / "j").recover()
    assert recovered.epoch == 1
    assert [r.rid for r in recovered.rings] == ["r0"]
    assert recovered.recovery["torn_tail"] is True
    assert recovered.recovery["truncated_bytes"] > 0
    assert "torn tail" in recovered.recovery["damage"]
    # The truncation persisted: the next recovery sees a clean journal.
    assert wal.stat().st_size == clean_size
    again = Journal(tmp_path / "j").recover()
    assert again.recovery["torn_tail"] is False
    assert again.epoch == 1


def test_recover_stops_at_corrupt_middle_frame(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    for i in range(3):
        journal.append_commit(
            i + 1, Ring(f"r{i}", frozenset({f"t{i:02d}"}), c=1.0, ell=1, seq=i)
        )
    journal.close()
    wal = tmp_path / "j" / "wal.jsonl"
    lines = wal.read_text().splitlines()
    lines[2] = lines[2][:4] + ("0" if lines[2][4] != "0" else "1") + lines[2][5:]
    wal.write_text("\n".join(lines) + "\n")

    recovered = Journal(tmp_path / "j").recover()
    # Frames after the corrupt one are gone too — there is no way to
    # trust anything past the first damage.
    assert recovered.epoch == 1
    assert [r.rid for r in recovered.rings] == ["r0"]
    assert "CRC mismatch" in recovered.recovery["damage"]


def _load_fsck():
    path = Path(__file__).resolve().parent.parent / "tools" / "journal_fsck.py"
    spec = importlib.util.spec_from_file_location("journal_fsck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unfoldable_commit(case: str) -> dict:
    """A CRC-valid commit frame the replay cannot fold, keyed after
    ``(1, 0)``: a non-integer key, or a ring doc that does not parse."""
    ring = Ring("r1", frozenset({"t02", "t03"}), c=1.0, ell=1, seq=1)
    body = commit_body(2, ring)
    if case == "epoch-string":
        return {"op": "commit", "epoch": "x", "seq": 0}
    if case in ("epoch-null", "epoch-list", "epoch-bool"):
        body["epoch"] = {"epoch-null": None, "epoch-list": [1], "epoch-bool": True}[case]
    elif case == "seq-float":
        body["seq"] = 1.0
    elif case == "no-data":
        del body["data"]
    elif case == "no-tokens":
        del body["data"]["tokens"]
    elif case == "c-not-a-number":
        body["data"]["c"] = "a"
    return body


@pytest.mark.parametrize(
    "case",
    ["epoch-string", "epoch-null", "epoch-list", "epoch-bool", "seq-float",
     "no-data", "no-tokens", "c-not-a-number"],
)
def test_recover_truncates_at_an_unfoldable_frame(tmp_path, capsys, case):
    home = tmp_path / "j"
    journal = Journal(home, sync_every=1, snapshot_every=0)
    journal.append_genesis(recovery_universe(), (), None)
    journal.append_commit(1, Ring("r0", frozenset({"t00", "t01"}), c=1.0, ell=1, seq=0))
    journal.append(_unfoldable_commit(case))
    journal.close()
    wal = home / "wal.jsonl"
    full_size = wal.stat().st_size
    clean_size = len(b"".join(wal.read_bytes().splitlines(keepends=True)[:2]))

    # The strict checker flags the frame without touching the file.
    assert _load_fsck().main(["--check", str(home)]) == 1
    assert "frame 2: " in capsys.readouterr().err
    assert wal.stat().st_size == full_size

    # Recovery keeps the frames before it and cuts the WAL there.
    recovered = Journal(home).recover()
    assert recovered.epoch == 1
    assert [ring.rid for ring in recovered.rings] == ["r0"]
    assert recovered.recovery["torn_tail"] is True
    assert recovered.recovery["damage"].startswith("frame 2: ")
    assert recovered.recovery["truncated_bytes"] == full_size - clean_size
    assert wal.stat().st_size == clean_size
    assert Journal(home).recover().recovery["torn_tail"] is False


@pytest.mark.parametrize("case", ["no-data", "token-maps-to-a-list"])
def test_unusable_genesis_without_a_snapshot_raises_naming_the_frame(
    tmp_path, capsys, case
):
    home = tmp_path / "j"
    body = {
        "version": 1, "op": "genesis", "epoch": 0, "seq": -1,
        "data": _state_doc(recovery_universe(), (), None),
    }
    if case == "no-data":
        del body["data"]
    else:
        body["data"]["universe"]["t00"] = ["h0"]
    journal = Journal(home, sync_every=1, snapshot_every=0)
    journal.append(body)
    journal.close()

    with pytest.raises(JournalError, match="frame 0: genesis unusable"):
        Journal(home).recover()
    # The checker reports the state unrecoverable instead of crashing.
    assert _load_fsck().main(["--check", str(home)]) == 2
    assert "frame 0: genesis unusable" in capsys.readouterr().out


def test_recover_falls_back_past_a_snapshot_without_data(tmp_path, capsys):
    home = tmp_path / "j"
    journal = Journal(home, sync_every=1, snapshot_every=0)
    journal.append_genesis(recovery_universe(), (), None)
    ring = Ring("r0", frozenset({"t00", "t01"}), c=1.0, ell=1, seq=0)
    journal.append_commit(1, ring)
    journal.close()
    (home / "snapshot-00000001.json").write_text(
        encode_frame({"version": 1, "op": "snapshot", "epoch": 1, "seq": 0}) + "\n"
    )

    recovered = Journal(home).recover()
    assert (recovered.epoch, recovered.rings) == (1, (ring,))
    assert recovered.recovery["snapshot_epoch"] == 0  # the genesis
    assert recovered.recovery["notes"] == [
        "snapshot snapshot-00000001.json unusable "
        "(snapshot frame has no data object); skipped"
    ]
    assert _load_fsck().main(["--check", str(home)]) == 1
    assert "snapshot frame has no data object" in capsys.readouterr().err


def test_double_appended_commit_frame_replays_once(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    ring = Ring("r0", frozenset({"t00", "t01"}), c=1.0, ell=1, seq=0)
    journal.append_commit(1, ring)
    # A retried append that slipped through (same token, later key):
    journal.append(
        {
            "version": 1,
            "op": "commit",
            "epoch": 2,
            "seq": 1,
            "token": ring.rid,
            "data": ring_to_doc(ring),
        }
    )
    journal.close()
    recovered = Journal(tmp_path / "j").recover()
    assert [r.rid for r in recovered.rings] == ["r0"]
    assert recovered.epoch == 1  # the duplicate advanced nothing


def test_journal_fault_sites_fire(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    ring = Ring("r0", frozenset({"t00"}), c=1.0, ell=1, seq=0)

    def plan(site):
        return faults.FaultPlan(
            [faults.FaultSpec(site=site, action="io_error")], seed=0
        )

    with faults.injecting(plan("journal.append")):
        with pytest.raises(faults.InjectedIOError):
            journal.append_genesis(universe, (), None)
    journal.append_genesis(universe, (), None)
    with faults.injecting(plan("journal.fsync")):
        with pytest.raises(faults.InjectedIOError):
            journal.append_commit(1, ring)
    journal.close()
    with faults.injecting(plan("journal.replay")):
        with pytest.raises(faults.InjectedIOError):
            Journal(tmp_path / "j").recover()


def test_journal_stats_and_metrics_lines(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=2, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    journal.append_commit(
        1, Ring("r0", frozenset({"t00"}), c=1.0, ell=1, seq=0)
    )
    stats = journal.stats()
    assert stats["sync_every"] == 2
    assert stats["appends"] == 2
    assert stats["lag_frames"] == 1  # one unsynced frame outstanding
    journal.sync()
    assert journal.stats()["lag_frames"] == 0
    journal.close()

    text = metrics_lines(stats, {"frames_replayed": 3, "snapshot_epoch": 2,
                                 "torn_tail": True, "truncated_bytes": 17})
    assert "repro_service_journal_appends_total 2" in text
    assert "repro_service_recovered_frames_replayed 3" in text
    assert "repro_service_recovered_torn_tail 1" in text
    assert metrics_lines(None, None) == ""


# -- compaction from the journal's own text ----------------------------------

#: Pieces of hostile names: JSON metacharacters, the delimiters the
#: journal splices at, a newline and non-ASCII text.
HOSTILE = ('"', "\\", "]", '],"universe":{', '},"epoch":', "\n", "é", "☃", " ", "x")


def hostile(rng: random.Random, core: str) -> str:
    """``core`` between two runs of up to three hostile pieces."""

    def pad() -> str:
        return "".join(rng.choice(HOSTILE) for _ in range(rng.randrange(4)))

    return pad() + core + pad()


def state_line(op, epoch, universe, rings, batches, seq=None) -> str:
    """The reference encoding of a state frame: ``_state_doc`` of the full state."""
    body = {
        "version": 1,
        "op": op,
        "epoch": epoch,
        "seq": max((r.seq for r in rings), default=-1) if seq is None else seq,
        "data": _state_doc(universe, rings, batches),
    }
    return encode_frame(body) + "\n"


def commit_body(epoch: int, ring: Ring, seq: int | None = None) -> dict:
    return {
        "version": 1,
        "op": "commit",
        "epoch": epoch,
        "seq": ring.seq if seq is None else seq,
        "token": ring.rid,
        "data": ring_to_doc(ring),
    }


def state_tuple(epoch, rings, universe, batches) -> tuple:
    return (epoch, list(rings), {t: universe.ht_of(t) for t in universe.tokens}, batches)


def read_only_state(home: Path) -> tuple:
    rec = Journal(home).recover(truncate=False)
    return state_tuple(rec.epoch, rec.rings, rec.universe, rec.batches)


def drive_random_journal(home: Path, rng: random.Random, tally: dict) -> None:
    """Interleave commits, snapshots, reopens, torn tails and duplicate frames.

    Every snapshot must equal the reference encoding of the full state,
    a read-only recovery just before and just after it must agree, and
    the WAL must hold exactly the reference frames appended since.
    """
    universe = TokenUniverse(
        {
            hostile(rng, f"t{i}"): hostile(rng, f"h{rng.randrange(3)}")
            for i in range(rng.randrange(3, 9))
        }
    )
    tokens = sorted(universe.tokens)
    batches = rng.choice([None, 1, 4])
    snapshot_every = rng.choice([0, 1, 2, 3])
    counter = {"rid": 0, "seq": 0}

    def new_ring() -> Ring:
        ring = Ring(
            hostile(rng, f"r{counter['rid']}"),
            frozenset(rng.sample(tokens, rng.randrange(1, 4))),
            c=rng.choice([1.0, 2.5, 1 / 3]),
            ell=rng.randrange(1, 4),
            seq=counter["seq"],
        )
        counter["rid"] += 1
        counter["seq"] += rng.randrange(1, 3)
        return ring

    rings = [new_ring() for _ in range(rng.randrange(3))]
    epoch = 0
    wal = [state_line("genesis", 0, universe, rings, batches, seq=-1)]
    duplicated_at = None
    journal = Journal(home, sync_every=0, snapshot_every=snapshot_every)
    journal.append_genesis(universe, rings, batches)

    def compact(write) -> None:
        before = read_only_state(home)
        path = write()
        assert path.read_text(encoding="utf-8") == state_line(
            "snapshot", epoch, universe, rings, batches
        )
        after = read_only_state(home)
        assert before == after == state_tuple(epoch, rings, universe, batches)
        wal.clear()
        tally["snapshots"] += 1

    try:
        for _ in range(12):
            action = rng.choice(
                ("commit", "commit", "commit", "snapshot", "reopen", "torn", "double")
            )
            if action == "commit":
                ring = new_ring()
                epoch += 1
                journal.append_commit(epoch, ring)
                rings.append(ring)
                wal.append(encode_frame(commit_body(epoch, ring)) + "\n")
                if journal.due_for_snapshot():
                    compact(lambda: journal.maybe_snapshot(epoch, batches))
                else:
                    assert journal.maybe_snapshot(epoch, batches) is None
            elif action == "snapshot":
                compact(lambda: journal.write_snapshot(epoch, batches))
            elif action == "double" and rings and duplicated_at != epoch:
                # A retried append that slipped through: an applied
                # ring's frame again, under a later key.
                body = commit_body(epoch + 1, rng.choice(rings), seq=counter["seq"] - 1)
                journal.append(body)
                wal.append(encode_frame(body) + "\n")
                duplicated_at = epoch
                tally["duplicates"] += 1
            elif action in ("reopen", "torn"):
                journal.close()
                if action == "torn":
                    line = encode_frame(commit_body(epoch + 1, new_ring()))
                    with open(home / "wal.jsonl", "a", encoding="utf-8") as handle:
                        handle.write(line[: rng.randrange(1, len(line))])
                    tally["torn"] += 1
                base = "snapshot" if any(home.glob("snapshot-*.json")) else "genesis"
                journal = Journal(home, sync_every=0, snapshot_every=snapshot_every)
                rec = journal.recover()
                assert state_tuple(rec.epoch, rec.rings, rec.universe, rec.batches) == (
                    state_tuple(epoch, rings, universe, batches)
                )
                assert rec.recovery["torn_tail"] is (action == "torn")
                tally[f"from_{base}"] += 1
            assert (home / "wal.jsonl").read_text(encoding="utf-8") == "".join(wal)
    finally:
        journal.close()


def test_spliced_snapshots_are_byte_identical_to_the_reference_encoder(tmp_path):
    tally = {"snapshots": 0, "duplicates": 0, "torn": 0,
             "from_genesis": 0, "from_snapshot": 0}
    for seed in range(40):
        drive_random_journal(tmp_path / f"j{seed}", random.Random(seed), tally)
    # Every path above ran, several times over.
    assert min(tally.values()) >= 5, tally


def test_compaction_and_recovery_encode_no_ring(tmp_path, monkeypatch):
    """A compacting commit copies text; recovery slices it.  Neither encodes a ring."""
    universe = recovery_universe()
    rings = [
        Ring(f"g{i}", frozenset({f"t{i:02d}", f"t{i + 12:02d}"}), c=2.5, ell=2, seq=i)
        for i in range(3)
    ]
    home = tmp_path / "j"
    journal = Journal(home, sync_every=0, snapshot_every=4)
    journal.append_genesis(universe, rings, 4)
    encodes: list = []

    def counting(fn):
        def wrapper(*args):
            encodes.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("ring_to_doc", "_canonical"):
        monkeypatch.setattr(journal_module, name, counting(getattr(journal_module, name)))

    def commit(count: int) -> None:
        for _ in range(count):
            ring = Ring(f"c{len(rings)}", frozenset({f"t{len(rings) % 24:02d}"}),
                        c=1.0, ell=1, seq=len(rings))
            journal.append_commit(len(rings) - 2, ring)
            rings.append(ring)

    for _ in range(2):
        commit(4)
        encodes.clear()
        path = journal.maybe_snapshot(len(rings) - 3, 4)
        assert encodes == []
        assert path.read_text(encoding="utf-8") == state_line(
            "snapshot", len(rings) - 3, universe, rings, 4
        )
        # Recovery slices the snapshot and the WAL tail after it.
        commit(2)
        journal.close()
        journal = Journal(home, sync_every=0, snapshot_every=4)
        encodes.clear()
        assert list(journal.recover().rings) == rings
        assert encodes == []
    journal.close()


@pytest.mark.parametrize(
    "dumps",
    [
        pytest.param(lambda body: json.dumps(body, sort_keys=True), id="whitespace"),
        pytest.param(lambda body: json.dumps(body, separators=(",", ":")), id="key-order"),
        pytest.param(
            lambda body: json.dumps({**body, "note": "x"}, sort_keys=True, separators=(",", ":")),
            id="extra-key",
        ),
    ],
)
def test_foreign_layout_recovers_and_next_snapshot_is_canonical(tmp_path, dumps):
    """CRC-valid frames this journal did not write are re-encoded, never spliced."""
    universe = recovery_universe()
    rings = [
        Ring(f"r{i}", frozenset({f"t{i:02d}", f"t{i + 8:02d}"}), c=2.5, ell=2, seq=i)
        for i in range(4)
    ]
    home = tmp_path / "j"
    home.mkdir()

    def foreign_line(body: dict) -> str:
        text = dumps(body)
        return f"{zlib.crc32(text.encode('utf-8')):08x} {text}\n"

    snapshot = {"version": 1, "op": "snapshot", "epoch": 3, "seq": 2,
                "data": _state_doc(universe, rings[:3], 4)}
    (home / "snapshot-00000003.json").write_text(foreign_line(snapshot))
    (home / "wal.jsonl").write_text(foreign_line(commit_body(4, rings[3])))

    journal = Journal(home, sync_every=1, snapshot_every=1)
    recovered = journal.recover()
    assert (recovered.epoch, list(recovered.rings), recovered.batches) == (4, rings, 4)
    ring = Ring("r4", frozenset({"t20"}), c=1.0, ell=1, seq=4)
    journal.append_commit(5, ring)
    path = journal.maybe_snapshot(5, 4)
    journal.close()
    assert path.read_text(encoding="utf-8") == state_line(
        "snapshot", 5, universe, rings + [ring], 4
    )


def test_snapshot_without_a_base_state_raises(tmp_path):
    journal = Journal(tmp_path / "j", snapshot_every=1)
    journal.append_commit(1, Ring("r0", frozenset({"t00"}), c=1.0, ell=1, seq=0))
    with pytest.raises(JournalError, match="no base state"):
        journal.maybe_snapshot(1, None)
    journal.close()


def test_directory_is_fsynced_after_rename_and_wal_creation(tmp_path, monkeypatch):
    """POSIX makes a rename or a new file durable only once its directory is fsynced.

    Order of a compaction: temp-file fsync, rename, directory fsync,
    then WAL truncation and its fsync — a power loss can never leave
    the previous snapshot beside an already-truncated WAL.  Creating
    the WAL fsyncs the directory before the first frame is durable.
    """
    home = tmp_path / "j"
    journal = Journal(home, sync_every=1, snapshot_every=1)
    events: list[str] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        inode = os.fstat(fd).st_ino
        if inode == os.stat(home).st_ino:
            events.append("fsync dir")
        elif inode == os.stat(journal.wal_path).st_ino:
            events.append("fsync wal")
        else:
            events.append("fsync tmp")
        real_fsync(fd)

    def replace(src, dst):
        events.append("rename")
        real_replace(src, dst)

    def tracked_open(path, mode="r", *args, **kwargs):
        if Path(path) == journal.wal_path:
            events.append(f"open wal {mode}")
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(journal_module, "open", tracked_open, raising=False)

    journal.append_genesis(recovery_universe(), (), None)
    assert events == ["open wal a", "fsync dir", "fsync wal"]
    events.clear()
    journal.append_commit(1, Ring("r0", frozenset({"t00"}), c=1.0, ell=1, seq=0))
    journal.maybe_snapshot(1, None)
    assert events == [
        "fsync wal", "fsync tmp", "rename", "fsync dir", "open wal w", "fsync wal",
    ]
    assert journal.stats()["fsyncs"] == 2  # WAL appends only
    journal.close()


# -- service-level recovery equivalence --------------------------------------


def select_battery(partition: TokenPartition) -> list[SelectRequest]:
    """Exact selects on unconsumed targets, two per batch.

    The commit helpers below consume only the low indexes of each
    batch slice, so slots 4 and 5 stay free — exact solves on the
    6-token batch slices stay cheap (the full 24-token universe in
    exact mode blows up combinatorially once rings accumulate).
    """
    requests = []
    for b in range(partition.batches):
        for j, slot in enumerate((4, 5)):
            requests.append(
                SelectRequest(
                    request_id=f"b{b}-{j}",
                    target=partition.tokens_of(b)[slot],
                    c=2.0, ell=2, mode="exact",
                )
            )
    return requests


def test_daemon_recovery_matches_uncrashed_twin(tmp_path):
    universe = recovery_universe()
    part = TokenPartition(universe, batches=4)
    commits = [
        (f"r{i}", sorted(part.tokens_of(i)[0:3])) for i in range(4)
    ]

    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=3)
    journal.append_genesis(universe, (), 4)
    with SelectionService(
        universe, config=ServiceConfig(journal=journal, partition=4)
    ) as crashed:
        for i, (rid, tokens) in enumerate(commits):
            crashed.submit_wait(
                SelectRequest(request_id=f"w{i}",
                              target=part.tokens_of(i)[4],
                              c=2.0, ell=2, mode="exact"),
                timeout=60.0,
            )
            crashed.commit_ring(tokens, c=1.0, ell=1, rid=rid)
    # "Crash": the journal is simply never closed gracefully by the
    # service; every commit frame is already fsynced.

    recovered = Journal(tmp_path / "j").recover()
    journal.close()  # the crashed process's handle, once recovery has read the files
    assert recovered.epoch == 4
    assert recovered.batches == 4
    twin = SelectionService(
        recovered.universe,
        recovered.rings,
        ServiceConfig(partition=recovered.batches),
        epoch=recovered.epoch,
        recovered=recovered.recovery,
    )
    uncrashed = SelectionService(universe, config=ServiceConfig(partition=4))
    for rid, tokens in commits:
        uncrashed.commit_ring(tokens, c=1.0, ell=1, rid=rid)
    with twin, uncrashed:
        for request in select_battery(part):
            a = twin.submit_wait(request, timeout=60.0)
            b = uncrashed.submit_wait(request, timeout=60.0)
            assert a.epoch == 4 and b.epoch == 4
            assert canon(a) == canon(b)

        # The typed recovered block reaches stats, health and metrics.
        stats = twin.stats()
        assert stats["recovered"]["snapshot_epoch"] == 3
        assert stats["recovered"]["frames_replayed"] == 1
        assert stats["recovered"]["torn_tail"] is False
        assert twin.health()["recovered"]["frames_replayed"] == 1
        assert "repro_service_recovered_frames_replayed 1" in twin.metrics_text()


def test_recovered_twin_keeps_matching_after_a_further_commit(tmp_path):
    """A twin recovered cold advances like the daemon that never crashed.

    The WAL records chain growth, not warm state: the crashed daemon
    carried warm batches through every commit, the twin starts cold
    from the replay, and one more commit *after* recovery (advancing
    the twin's recovered snapshot) must leave it answering
    byte-identically to the uncrashed reference.
    """
    universe = recovery_universe()
    part = TokenPartition(universe, batches=4)
    commits = [
        (f"r{i}", sorted(part.tokens_of(i)[0:3])) for i in range(4)
    ]

    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), 4)
    with SelectionService(
        universe, config=ServiceConfig(journal=journal, partition=4)
    ) as crashed:
        for i, (rid, tokens) in enumerate(commits):
            # Warm each batch between commits so the advances exercised
            # here actually carry state, not empty caches.
            crashed.submit_wait(
                SelectRequest(request_id=f"w{i}",
                              target=part.tokens_of(i)[4],
                              c=2.0, ell=2, mode="exact"),
                timeout=60.0,
            )
            crashed.commit_ring(tokens, c=1.0, ell=1, rid=rid)

    recovered = Journal(tmp_path / "j").recover()
    journal.close()  # the crashed process's handle, once recovery has read the files
    assert recovered.epoch == 4
    twin = SelectionService(
        recovered.universe,
        recovered.rings,
        ServiceConfig(partition=recovered.batches),
        epoch=recovered.epoch,
        recovered=recovered.recovery,
    )
    uncrashed = SelectionService(universe, config=ServiceConfig(partition=4))
    for rid, tokens in commits:
        uncrashed.commit_ring(tokens, c=1.0, ell=1, rid=rid)
    extra = ("r4", sorted(part.tokens_of(1)[0:2]))
    with twin, uncrashed:
        for service in (twin, uncrashed):
            service.commit_ring(extra[1], c=1.0, ell=1, rid=extra[0])
        for request in select_battery(part):
            baseline = uncrashed.submit_wait(request, timeout=60.0)
            answer = twin.submit_wait(request, timeout=60.0)
            assert baseline.epoch == answer.epoch == 5
            assert canon(answer) == canon(baseline), (
                f"recovered twin diverged on {request.request_id}"
            )
        assert twin.stats()["epochs_advanced"] == 1


def test_journaled_commit_is_idempotent_by_rid(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    service = SelectionService(universe, config=ServiceConfig(journal=journal))
    first = service.commit_ring(["t00", "t01"], c=1.0, ell=1, rid="dup")
    replay = service.commit_ring(["t00", "t01"], c=1.0, ell=1, rid="dup")
    assert first.epoch == 1 and replay.epoch == 1
    assert service.counters["commits.replayed"] == 1
    journal.close()
    # Only one frame landed: the replay never touched the WAL.
    frames, _, _ = scan_frames(tmp_path / "j" / "wal.jsonl")
    assert [f.get("token") for f in frames] == [None, "dup"]


def test_doomed_commit_never_lands_a_wal_frame(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), 4)
    part = TokenPartition(universe, batches=4)
    spanning = [part.tokens_of(0)[0], part.tokens_of(1)[0]]
    service = SelectionService(
        universe, config=ServiceConfig(journal=journal, partition=4)
    )
    with pytest.raises(ValueError, match="spans batches"):
        service.commit_ring(spanning, c=1.0, ell=1)
    journal.close()
    frames, _, _ = scan_frames(tmp_path / "j" / "wal.jsonl")
    assert len(frames) == 1  # genesis only


def test_client_rid_cannot_take_an_assigned_id(tmp_path):
    """A client rid in the ``svc:`` namespace is refused before the WAL.

    Unreserved, ``rid="svc:1"`` at seq 0 made every later anonymous
    commit derive ``svc:1`` again and fail as a duplicate after its WAL
    frame had landed, wedging the chain.
    """
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    service = SelectionService(universe, config=ServiceConfig(journal=journal))
    with pytest.raises(ReservedRingId, match="reserved"):
        service.commit_ring(["t00", "t01"], c=1.0, ell=1, rid="svc:1")
    for k in range(2):
        head = service.commit_ring([f"t0{2 * k + 2}", f"t0{2 * k + 3}"], c=1.0, ell=1)
        assert head.epoch == k + 1
    journal.close()
    frames, _, _ = scan_frames(tmp_path / "j" / "wal.jsonl")
    assert [f.get("token") for f in frames] == [None, "svc:0", "svc:1"]


def test_assigned_id_never_shadows_a_client_ring():
    """A client ring sent as ``svc:0`` is rejected, not taken for a retry.

    Unreserved, it matched the anonymous commit's ``svc:0`` and was
    dropped as ``commits.replayed`` under an ``ok`` reply.
    """
    service = SelectionService(recovery_universe())
    service.commit_ring(["t00", "t01"], c=1.0, ell=1)
    line = json.dumps(
        {"op": "commit", "id": "c1", "tokens": ["t02", "t03"],
         "c": 1.0, "ell": 1, "rid": "svc:0"}
    )
    reply = json.loads(handle_line(service, line)[0])
    assert reply["status"] == "rejected" and reply["code"] == "bad_request"
    assert "reserved" in reply["detail"]
    assert "commits.replayed" not in service.counters
    assert [ring.rid for ring in service.state.current().rings] == ["svc:0"]


def test_assigned_id_collision_never_lands_a_wal_frame(tmp_path):
    universe = recovery_universe()
    genesis = (Ring("svc:1", frozenset({"t00", "t01"}), c=1.0, ell=1, seq=0),)
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, genesis, None)
    service = SelectionService(universe, genesis, ServiceConfig(journal=journal))
    with pytest.raises(DuplicateRingId, match="svc:1"):
        service.commit_ring(["t02", "t03"], c=1.0, ell=1)
    journal.close()
    frames, _, _ = scan_frames(tmp_path / "j" / "wal.jsonl")
    assert len(frames) == 1  # genesis only


def test_rids_and_seq_continue_after_replay_and_shard_sync(tmp_path):
    universe = recovery_universe()
    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), None)
    service = SelectionService(universe, config=ServiceConfig(journal=journal))
    service.commit_ring(["t00", "t01"], c=1.0, ell=1)
    service.commit_ring(["t02", "t03"], c=1.0, ell=1, rid="a")
    journal.close()

    recovered = Journal(tmp_path / "j").recover()
    twin = SelectionService(recovered.universe, recovered.rings, epoch=recovered.epoch)
    assert twin.commit_ring(["t00"], c=1.0, ell=1, rid="a").epoch == 2
    assert twin.counters["commits.replayed"] == 1
    head = twin.commit_ring(["t04", "t05"], c=1.0, ell=1)
    assert [(r.rid, r.seq) for r in head.rings] == [("svc:0", 0), ("a", 1), ("svc:2", 2)]

    # A shard worker rebuilt from a router sync numbers on from the log.
    worker = SelectionService(universe, config=ServiceConfig(partition=1))
    _shard_sync(worker, {"rings": head.rings, "epoch": head.epoch})
    synced = worker.commit_ring(["t06", "t07"], c=1.0, ell=1)
    assert (synced.epoch, synced.rings[-1].rid, synced.rings[-1].seq) == (4, "svc:3", 3)


def test_router_recovery_matches_uncrashed_twin(tmp_path):
    universe = recovery_universe()
    part = TokenPartition(universe, batches=4)
    commits = [
        (f"r{i}", sorted(part.tokens_of(i % 4)[0:3])) for i in range(4)
    ]
    requests = [
        SelectRequest(request_id=f"q{i}", target=part.tokens_of(i)[4],
                      c=2.0, ell=2, mode="exact")
        for i in range(4)
    ]

    journal = Journal(tmp_path / "j", sync_every=1, snapshot_every=0)
    journal.append_genesis(universe, (), 4)
    with ShardRouter(
        universe, config=RouterConfig(shards=2, batches=4, journal=journal)
    ) as crashed:
        for rid, tokens in commits:
            crashed.commit_ring(tokens, c=1.0, ell=1, rid=rid)

    recovered = Journal(tmp_path / "j").recover()
    journal.close()  # the crashed process's handle, once recovery has read the files
    assert recovered.epoch == 4 and recovered.batches == 4
    with ShardRouter(
        recovered.universe,
        recovered.rings,
        config=RouterConfig(shards=2, batches=recovered.batches),
        epoch=recovered.epoch,
        recovered=recovered.recovery,
    ) as twin, ShardRouter(
        universe, config=RouterConfig(shards=2, batches=4)
    ) as uncrashed:
        for rid, tokens in commits:
            uncrashed.commit_ring(tokens, c=1.0, ell=1, rid=rid)
        got = twin.submit_wait_many(requests, timeout=60.0)
        want = uncrashed.submit_wait_many(requests, timeout=60.0)
        assert [canon(a) for a in got] == [canon(b) for b in want]
        assert all(r.epoch == 4 for r in got)
        stats = twin.stats()
        assert stats["recovered"]["frames_replayed"] == 4
        assert "repro_service_recovered_frames_replayed 4" in twin.metrics_text()


# -- the pidfile guard -------------------------------------------------------


def test_pidfile_refuses_live_owner_and_reclaims_stale(tmp_path):
    target = tmp_path / "daemon.pid"
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        target.write_text(f"{sleeper.pid}\n")
        with pytest.raises(AlreadyRunning, match=f"pid {sleeper.pid}"):
            PidFile(target).acquire()
    finally:
        sleeper.kill()
        sleeper.wait()
    # The owner is dead now: the stale pidfile is reclaimed silently.
    assert not pid_alive(sleeper.pid)
    guard = PidFile(target).acquire()
    assert guard.read() == os.getpid()
    guard.release()
    assert not target.exists()


def test_pidfile_garbled_content_is_reclaimed(tmp_path):
    target = tmp_path / "daemon.pid"
    target.write_text("not-a-pid\n")
    with PidFile(target) as guard:
        assert guard.read() == os.getpid()
    assert not target.exists()


def test_pidfile_release_spares_a_reclaimed_file(tmp_path):
    target = tmp_path / "daemon.pid"
    guard = PidFile(target).acquire()
    target.write_text("424242\n")  # someone else took over
    guard.release()
    assert target.read_text() == "424242\n"


# -- typed transport loss + idempotent retry ---------------------------------


def test_connect_refused_raises_service_unavailable(tmp_path):
    with pytest.raises(ServiceUnavailable, match="cannot connect"):
        ServiceClient(tmp_path / "nope.sock")


class FlakyServer:
    """A unix-socket server that mistreats its first connections.

    ``crash_mode``:

    * ``"before_apply"`` — read the request, apply nothing, close:
      the daemon died before the commit landed;
    * ``"after_apply"`` — read the request, apply it to the service,
      close *without replying*: the commit landed but the ack was
      lost — the resend must deduplicate.

    Connections after the first ``crashes`` speak the real protocol
    (lockstep, via :func:`repro.service.server.handle_line`).
    """

    def __init__(self, path, service, crashes=1, crash_mode="before_apply"):
        self.path = os.fspath(path)
        self.service = service
        self.crashes = crashes
        self.crash_mode = crash_mode
        self.connections = 0
        self._stop = threading.Event()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self.thread.start()
        assert self._ready.wait(5.0)
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self.thread.join(timeout=5.0)
        if os.path.exists(self.path):
            os.unlink(self.path)

    def _run(self):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
            listener.bind(self.path)
            listener.listen()
            listener.settimeout(0.1)
            self._ready.set()
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                self.connections += 1
                with conn:
                    if self.connections <= self.crashes:
                        data = conn.recv(65536)
                        if self.crash_mode == "after_apply" and data:
                            line = data.decode().splitlines()[0]
                            handle_line(self.service, line)
                        continue  # close without replying: "crash"
                    buffer = b""
                    conn.settimeout(0.1)
                    while not self._stop.is_set():
                        try:
                            chunk = conn.recv(65536)
                        except socket.timeout:
                            continue
                        except OSError:
                            break
                        if not chunk:
                            break
                        buffer += chunk
                        while b"\n" in buffer:
                            raw, buffer = buffer.split(b"\n", 1)
                            response, _ = handle_line(self.service, raw.decode())
                            conn.sendall((response + "\n").encode())


def test_peer_death_mid_request_raises_typed_error(tmp_path):
    universe = recovery_universe()
    service = SelectionService(universe, config=ServiceConfig(telemetry=False))
    with FlakyServer(tmp_path / "svc.sock", service, crashes=1) as server:
        client = ServiceClient(server.path)  # no retry configured
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.stats()
        # Typed, not a bare BrokenPipeError/ConnectionResetError.
        assert not isinstance(excinfo.value, BrokenPipeError)
        assert "closed the connection" in str(excinfo.value)
        client.close()


def test_retry_resends_after_lost_ack_without_double_commit(tmp_path):
    universe = recovery_universe()
    service = SelectionService(universe, config=ServiceConfig(telemetry=False))
    # The nastier half of exactly-once: the commit APPLIED, the ack
    # was lost.  The resend must be deduplicated by rid.
    with FlakyServer(
        tmp_path / "svc.sock", service, crashes=1, crash_mode="after_apply"
    ) as server:
        client = ServiceClient(
            server.path,
            retry=RetrySpec(deadline_s=10.0, base_delay_s=0.01, seed=1),
        )
        ack = client.commit(["t00", "t01"], c=1.0, ell=1, rid="once")
        assert ack["status"] == "ok"
        assert ack["epoch"] == 1 and ack["rings"] == 1
        assert service.state.epoch == 1  # applied exactly once
        client.close()


def test_retry_applies_commit_lost_before_the_frame(tmp_path):
    universe = recovery_universe()
    service = SelectionService(universe, config=ServiceConfig(telemetry=False))
    with FlakyServer(
        tmp_path / "svc.sock", service, crashes=1, crash_mode="before_apply"
    ) as server:
        client = ServiceClient(
            server.path,
            retry=RetrySpec(deadline_s=10.0, base_delay_s=0.01, seed=1),
        )
        ack = client.commit(["t02", "t03"], c=1.0, ell=1)  # rid auto-generated
        assert ack["status"] == "ok" and ack["epoch"] == 1
        assert service.state.epoch == 1
        client.close()


def test_retry_deadline_exhaustion_reports_attempts(tmp_path):
    with pytest.raises(ServiceUnavailable, match=r"attempt\(s\) within"):
        ServiceClient(
            tmp_path / "never.sock",
            retry=RetrySpec(deadline_s=0.3, base_delay_s=0.05, seed=2),
        )


def test_client_reconnect_fault_site_fires(tmp_path):
    plan = faults.FaultPlan(
        [faults.FaultSpec(site="client.reconnect", action="error",
                          at_index=None, on_attempt=0)],
        seed=0,
    )
    with faults.injecting(plan):
        with pytest.raises(faults.InjectedFault, match="client.reconnect"):
            ServiceClient(
                tmp_path / "never.sock",
                retry=RetrySpec(deadline_s=0.5, base_delay_s=0.01, seed=3),
            )


def test_shutdown_is_never_retried(tmp_path):
    universe = recovery_universe()
    service = SelectionService(universe, config=ServiceConfig(telemetry=False))
    with FlakyServer(tmp_path / "svc.sock", service, crashes=2) as server:
        client = ServiceClient(
            server.path,
            retry=RetrySpec(deadline_s=5.0, base_delay_s=0.01, seed=4),
        )
        with pytest.raises(ServiceUnavailable):
            client.shutdown()
        assert server.connections == 1  # no reconnect attempt
        client.close()


# -- the seeded SIGKILL soak -------------------------------------------------


def serve_command(sock: Path, journal: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "serve",
        "--socket", str(sock),
        "--journal", str(journal),
        "--tokens", "24", "--hts", "6", "--seed", "3",
        "--batches", "4",
        "--snapshot-every", "4",
    ]


def start_daemon(sock: Path, journal: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        serve_command(sock, journal),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            _, err = proc.communicate()
            raise AssertionError(f"daemon exited early ({proc.returncode}): {err}")
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                probe.connect(str(sock))
            return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    reap(proc)
    raise AssertionError("daemon never became ready")


def reap(proc: subprocess.Popen, timeout: float | None = None) -> None:
    """Wait for a daemon started by :func:`start_daemon`; close its stderr pipe."""
    proc.wait(timeout=timeout)
    proc.stderr.close()


@pytest.mark.slow
def test_sigkill_soak_recovers_byte_identical(tmp_path):
    """SIGKILL the daemon at seeded points under commit-interleaved load.

    Every acknowledged commit must be present after each restart, the
    retrying client must complete all of them exactly once, and the
    recovered daemon's answers must be byte-identical to an uncrashed
    in-process twin that applied the same commits in the same order.
    """
    sock = tmp_path / "soak.sock"
    journal_dir = tmp_path / "journal"
    # Batch-local pairs (the serve partition is 4 contiguous 6-token
    # slices): commit i consumes two low-index tokens of batch i % 4,
    # leaving slots 4 and 5 of every batch free for the selects.
    commits = [
        (f"soak:{i}",
         [f"t{6 * (i % 4) + 2 * (i // 4):02d}",
          f"t{6 * (i % 4) + 2 * (i // 4) + 1:02d}"])
        for i in range(8)
    ]
    rng = random.Random(20260808)
    kill_after = sorted(rng.sample(range(1, len(commits) - 1), 2))

    proc = start_daemon(sock, journal_dir)
    client = ServiceClient(
        sock, timeout=30.0,
        retry=RetrySpec(deadline_s=30.0, base_delay_s=0.05, seed=11),
    )
    acked: list[str] = []
    errors: list[BaseException] = []

    def drive() -> None:
        try:
            for i, (rid, tokens) in enumerate(commits):
                client.select(
                    target=f"t{6 * (i % 4) + 4:02d}", c=2.0, ell=2,
                    mode="exact", request_id=f"load{i}",
                )
                ack = client.commit(tokens, c=1.0, ell=1, rid=rid)
                assert ack["status"] == "ok", ack
                acked.append(rid)
        except BaseException as exc:  # noqa: BLE001 - surfaced by the test
            errors.append(exc)

    driver = threading.Thread(target=drive, daemon=True)
    driver.start()
    try:
        for kill_point in kill_after:
            # Seeded-but-randomized: wait until the driver has acked
            # `kill_point` commits, then SIGKILL mid-traffic after a
            # seeded extra delay (the next commit is likely in flight).
            deadline = time.monotonic() + 60.0
            while len(acked) < kill_point and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(rng.uniform(0.0, 0.1))
            proc.kill()  # SIGKILL — no cleanup, no flush, no goodbye
            reap(proc)
            proc = start_daemon(sock, journal_dir)
        driver.join(timeout=120.0)
        assert not driver.is_alive(), "driver never finished"
        assert not errors, errors
        assert acked == [rid for rid, _ in commits]

        # Every acknowledged commit survived; the epoch counted each
        # exactly once.
        status = client.epoch()
        assert status["epoch"] == len(commits)
        assert status["rings"] == len(commits)

        stats = client.stats()
        assert "journal" in stats
        assert "recovered" in stats  # this daemon was itself a replay
        assert stats["recovered"]["frames_replayed"] >= 0

        # Byte-identical replay: an uncrashed in-process twin applies
        # the same commits in the same order.
        universe = recovery_universe()
        twin = SelectionService(universe, config=ServiceConfig(partition=4))
        for rid, tokens in commits:
            twin.commit_ring(tokens, c=1.0, ell=1, rid=rid)
        with twin:
            for request in select_battery(TokenPartition(universe, batches=4)):
                live = client.select(
                    target=request.target, c=request.c, ell=request.ell,
                    mode=request.mode, request_id=request.request_id,
                )
                local = twin.submit_wait(request, timeout=60.0)
                assert live.epoch == len(commits)
                assert canon(live) == canon(local)
        client.shutdown()
        reap(proc, timeout=30.0)
        proc = None
    finally:
        client.close()
        if proc is not None:
            proc.kill()
            reap(proc)

    # The journal on disk is internally consistent (the fsck pass).
    recovered = Journal(journal_dir).recover(truncate=False)
    assert recovered.epoch == len(commits)
    assert [r.rid for r in recovered.rings] == [rid for rid, _ in commits]


def test_serve_refuses_second_daemon_on_same_journal(tmp_path):
    sock = tmp_path / "one.sock"
    journal_dir = tmp_path / "journal"
    proc = start_daemon(sock, journal_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    try:
        second = subprocess.run(
            serve_command(tmp_path / "two.sock", journal_dir),
            env=env, capture_output=True, text=True, timeout=30.0,
        )
        assert second.returncode == 69  # EX_UNAVAILABLE
        assert "refusing" in second.stderr
        with ServiceClient(sock) as client:
            client.shutdown()
        reap(proc, timeout=30.0)
        proc = None
    finally:
        if proc is not None:
            proc.kill()
            reap(proc)
    # The first daemon exited cleanly: its pidfile is gone, so a
    # restart owns the journal again (and replays genesis).
    third = start_daemon(sock, journal_dir)
    try:
        with ServiceClient(sock) as client:
            assert client.epoch()["epoch"] == 0
            client.shutdown()
        reap(third, timeout=30.0)
        third = None
    finally:
        if third is not None:
            third.kill()
            reap(third)
