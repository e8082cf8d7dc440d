#!/usr/bin/env python3
"""Offline integrity checker for a selection-service journal directory.

Walks a journal home (the ``serve --journal DIR`` directory: a
``wal.jsonl`` write-ahead log plus ``snapshot-*.json`` compaction
files), verifies every CRC frame, and replays the state exactly the
way a restarting daemon would — without ever starting one.  The
"Crash recovery" runbook in ``docs/operations.md`` shows where this
fits: inspect first, truncate only once you know what you are cutting.

Modes:

* default — report: per-snapshot validity, WAL frame count, torn-tail
  / corruption diagnosis, and the recovered head (epoch, ring count,
  frames replayed past the snapshot).  Read-only; exits 0 as long as
  the state is recoverable at all.
* ``--check`` — strict CI mode: additionally exit 1 when *any* damage
  is present (torn tail, corrupt frame, unusable snapshot), even
  though recovery would still succeed by cutting the tail.  ``make
  recover-smoke`` runs this over the journal the recovery bench
  leaves behind, so a clean daemon run must produce a byte-perfect
  journal.
* ``--truncate`` — repair: persist the cut at the last valid frame
  (what a recovering daemon does on startup), then re-verify.

Exit codes: 0 clean (or recoverable in report mode), 1 damaged under
``--check`` (or still damaged after ``--truncate``), 2 unrecoverable
(no usable genesis frame and no usable snapshot).

Zero third-party dependencies; imports :mod:`repro.service.journal`
from ``src/`` directly so it runs from a fresh checkout without an
install step, like everything else in ``tools/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.journal import (  # noqa: E402
    Journal,
    JournalCorruption,
    JournalError,
    decode_frame,
    decode_state,
    scan_frames,
)


def inspect(directory: Path) -> dict:
    """Everything the report prints, as one JSON-ready document."""
    journal = Journal(directory, sync_every=0, snapshot_every=0)
    doc: dict = {"directory": str(directory), "snapshots": [], "wal": None}

    for path in sorted(journal._snapshot_paths()):
        entry: dict = {"file": path.name}
        try:
            body = decode_frame(path.read_text(encoding="utf-8").rstrip("\n"))
            _, rings, _ = decode_state(body)
            entry["ok"] = True
            entry["epoch"] = body.get("epoch")
            entry["rings"] = len(rings)
        except (OSError, JournalCorruption) as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
        doc["snapshots"].append(entry)

    wal_path = journal.wal_path
    if wal_path.exists():
        frames, valid_bytes, damage = scan_frames(wal_path)
        doc["wal"] = {
            "file": wal_path.name,
            "bytes": wal_path.stat().st_size,
            "valid_bytes": valid_bytes,
            "frames": len(frames),
            "damage": damage,
        }

    try:
        recovered = journal.recover(truncate=False)
    except JournalError as exc:
        doc["recoverable"] = False
        doc["error"] = str(exc)
        return doc
    doc["recoverable"] = True
    if recovered is None:
        doc["empty"] = True
        return doc
    doc["head"] = {
        "epoch": recovered.epoch,
        "rings": len(recovered.rings),
        "batches": recovered.batches,
    }
    doc["recovery"] = recovered.recovery
    return doc


def damage_lines(doc: dict) -> list[str]:
    """Human-readable reasons this journal is not byte-perfect."""
    reasons = []
    for entry in doc.get("snapshots", []):
        if not entry.get("ok"):
            reasons.append(f"snapshot {entry['file']}: {entry['error']}")
    wal = doc.get("wal")
    if wal and wal.get("damage"):
        lost = wal["bytes"] - wal["valid_bytes"]
        reasons.append(
            f"wal {wal['file']}: {wal['damage']} "
            f"({lost} byte(s) past the last valid frame)"
        )
    recovery = doc.get("recovery") or {}
    damage = recovery.get("damage")
    if damage and damage != (wal or {}).get("damage"):
        # A CRC-valid frame the replay could not fold.
        reasons.append(f"wal {wal['file']}: {damage}")
    for note in recovery.get("notes", []):
        if note not in " ".join(reasons):
            reasons.append(note)
    return reasons


def report(doc: dict) -> None:
    print(f"journal: {doc['directory']}")
    for entry in doc.get("snapshots", []):
        if entry.get("ok"):
            print(
                f"  snapshot {entry['file']}: ok "
                f"(epoch {entry['epoch']}, {entry['rings']} ring(s))"
            )
        else:
            print(f"  snapshot {entry['file']}: BAD ({entry['error']})")
    wal = doc.get("wal")
    if wal is None:
        print("  wal: missing")
    else:
        status = "ok" if wal["damage"] is None else f"DAMAGED ({wal['damage']})"
        print(
            f"  wal {wal['file']}: {wal['frames']} frame(s), "
            f"{wal['valid_bytes']}/{wal['bytes']} valid byte(s), {status}"
        )
    if not doc.get("recoverable"):
        print(f"  head: UNRECOVERABLE ({doc.get('error')})")
    elif doc.get("empty"):
        print("  head: empty directory (fresh start)")
    else:
        head, recovery = doc["head"], doc["recovery"]
        print(
            f"  head: epoch {head['epoch']}, {head['rings']} ring(s) "
            f"(snapshot epoch {recovery['snapshot_epoch']} + "
            f"{recovery['frames_replayed']} replayed frame(s))"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify (and optionally repair) a selection-service journal."
    )
    parser.add_argument("directory", type=Path, help="journal home (serve --journal DIR)")
    parser.add_argument(
        "--check", action="store_true",
        help="strict mode: exit 1 on any damage, even if recoverable",
    )
    parser.add_argument(
        "--truncate", action="store_true",
        help="persist the cut at the last valid WAL frame, then re-verify",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    if not args.directory.is_dir():
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 2

    if args.truncate:
        try:
            Journal(args.directory).recover(truncate=True)
        except JournalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    doc = inspect(args.directory)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        report(doc)

    if not doc.get("recoverable"):
        return 2
    reasons = damage_lines(doc)
    if reasons:
        for reason in reasons:
            print(f"damage: {reason}", file=sys.stderr)
        if args.check or args.truncate:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
