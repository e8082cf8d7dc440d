"""JSONL front-ends for the selection daemon: stdio and unix socket.

Both front-ends speak the line protocol of
:mod:`repro.service.protocol`: one request object per line in, exactly
one response object per line out, in request order per connection.
The stdio mode serves a single client (the stream ends the session);
the socket mode accepts any number of sequential or concurrent
connections, each handled on its own thread.

Connections are **pipelined**, not lockstep: a connection's reader
admits every ``select`` line into the daemon the moment it arrives
(admission order = arrival order), while a writer thread emits the
responses strictly in request order.  A client that writes ten selects
in one burst therefore lands them in the admission queue together —
which is what lets the daemon micro-batch them — instead of one
request per round trip.  Non-``select`` ops (``commit``, ``stats``,
``metrics``, ``health``, ``epoch``, ``shutdown``) act as *barriers*
in both directions: the writer evaluates them only once every earlier
select on the connection has resolved, and selects written *after*
them are executed only once the barrier has run — so "select, read
the counters" observes the select completed, and "commit, select"
answers against the post-commit epoch, exactly as under the old
lockstep loop.

A malformed line never kills the session: it is answered with a
``bad_request`` rejection and the loop continues, so one buggy client
request cannot take the service down for everyone else.  That
includes a line longer than :data:`MAX_LINE_BYTES`, which is answered
once and discarded up to its newline rather than buffered, and a line
that is not valid UTF-8.  A last line that ends at EOF without a
newline is served like any other.

The ``service`` argument is duck-typed: anything with the
:class:`~repro.service.daemon.SelectionService` front-end surface —
``submit`` / ``commit_ring`` / ``state`` / ``queue_depth`` /
``stats`` / ``metrics_text`` / ``health`` — serves here, which is how
``serve --shards N`` puts a
:class:`~repro.service.router.ShardRouter` behind the same ops.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
from typing import IO, Iterator

from ..obs.telemetry import PROMETHEUS_CONTENT_TYPE
from .protocol import (
    KNOWN_OPS,
    REJECT_BAD_REQUEST,
    ProtocolError,
    SelectRequest,
    decode,
    encode,
    finite_float,
)

__all__ = ["MAX_LINE_BYTES", "handle_line", "serve_stdio", "serve_socket"]

#: Longest request line, without its newline, that a front end reads; a
#: longer one is answered ``bad_request``.  The socket counts bytes; the
#: stdio front end reads decoded text and counts characters.
MAX_LINE_BYTES = 1 << 20


def _bad_request(detail: str) -> str:
    return encode(
        {"id": None, "status": "rejected", "code": REJECT_BAD_REQUEST, "detail": detail}
    )


def handle_line(service, line: str) -> tuple[str, bool]:
    """Serve one request line; returns ``(response_line, keep_going)``.

    ``keep_going`` is ``False`` only for a ``shutdown`` op.  All other
    outcomes — including malformed input — keep the session alive.
    """
    try:
        payload = decode(line)
        op = payload.get("op", "select")
        if op not in KNOWN_OPS:
            raise ProtocolError(
                f"unknown op {op!r}; known: {', '.join(KNOWN_OPS)}"
            )
        if op == "select":
            request = SelectRequest.from_dict(payload)
            response = service.submit(request).wait()
            return encode(response.to_dict()), True
        if op == "commit":
            snapshot = service.commit_ring(
                tokens=[str(token) for token in payload["tokens"]],
                c=finite_float(payload["c"], "c"),
                ell=int(payload["ell"]),
                rid=None if payload.get("rid") is None else str(payload["rid"]),
            )
            return encode(
                {
                    "id": payload.get("id"),
                    "status": "ok",
                    "epoch": snapshot.epoch,
                    "rings": len(snapshot.rings),
                }
            ), True
        if op == "epoch":
            head = service.state.current()
            return encode(
                {
                    "id": payload.get("id"),
                    "status": "ok",
                    "epoch": head.epoch,
                    "rings": len(head.rings),
                    "queue_depth": service.queue_depth(),
                }
            ), True
        if op == "stats":
            return encode(
                {"id": payload.get("id"), "status": "ok", **service.stats()}
            ), True
        if op == "metrics":
            return encode(
                {
                    "id": payload.get("id"),
                    "status": "ok",
                    "content_type": PROMETHEUS_CONTENT_TYPE,
                    "body": service.metrics_text(),
                }
            ), True
        if op == "health":
            return encode(
                {"id": payload.get("id"), "status": "ok", **service.health()}
            ), True
        # op == "shutdown"
        return encode(
            {"id": payload.get("id"), "status": "ok", "shutdown": True}
        ), False
    except (ProtocolError, KeyError, TypeError, ValueError, OverflowError) as exc:
        return _bad_request(str(exc)), True


class _Session:
    """One pipelined connection: eager admission, ordered responses.

    The connection's reader calls :meth:`feed` per received line —
    ``select`` lines are submitted to the service *immediately* and
    their pending slots queued to the outbox; every other line (ops,
    malformed input) is queued raw, and :meth:`reject` queues the
    answer to a line that could not be read at all.  The writer thread
    drains the outbox in order: slots block until their response resolves,
    raw lines run through :func:`handle_line` at their position — the
    barrier that keeps op responses causally after every earlier
    select on the connection.  While any raw line is still queued, new
    selects are queued raw too (executed in order by the writer), so a
    select written after a ``commit`` always sees the commit applied.
    """

    def __init__(self, service, write_line) -> None:
        self.service = service
        self.write_line = write_line
        self.outbox: queue.Queue = queue.Queue()
        self.served = 0
        self.shutdown = False
        self._lock = threading.Lock()
        self._barriers = 0

    def _put_line(self, line: str) -> None:
        with self._lock:
            self._barriers += 1
        self.outbox.put(("line", line))

    def feed(self, line: str) -> bool:
        """Ingest one raw line; returns ``False`` once the session ends."""
        line = line.strip()
        if not line:
            return True
        try:
            payload = decode(line)
        except ProtocolError:
            self._put_line(line)
            return True
        if payload.get("op", "select") == "select":
            try:
                request = SelectRequest.from_dict(payload)
            except ProtocolError:
                self._put_line(line)
                return True
            with self._lock:
                behind_barrier = self._barriers > 0
            if behind_barrier:
                self._put_line(line)
            else:
                self.outbox.put(("slot", self.service.submit(request)))
            return True
        self._put_line(line)
        if payload.get("op") == "shutdown":
            self.shutdown = True
            return False
        return True

    def reject(self, detail: str) -> None:
        """Answer an unreadable line ``bad_request``, in line order."""
        self.outbox.put(("reply", _bad_request(detail)))

    def finish(self) -> None:
        """Signal end of input; the writer drains what is queued."""
        self.outbox.put(("eof", None))

    def write_loop(self) -> None:
        while True:
            kind, value = self.outbox.get()
            if kind == "eof":
                return
            try:
                if kind == "slot":
                    response_line = encode(value.wait().to_dict())
                    keep_going = True
                elif kind == "reply":
                    response_line, keep_going = value, True
                else:
                    response_line, keep_going = handle_line(self.service, value)
                    with self._lock:
                        self._barriers -= 1
                self.write_line(response_line)
            except Exception:  # noqa: BLE001 - peer gone; stop writing
                return
            self.served += 1
            if not keep_going:
                return


def serve_stdio(service, in_stream: IO[str], out_stream: IO[str]) -> int:
    """Serve JSONL requests from ``in_stream`` until EOF or ``shutdown``.

    Returns the number of responses written.  Responses are flushed
    per line, in request order; requests are admitted as they arrive
    (see :class:`_Session`), so a burst of selects micro-batches.  A
    line longer than :data:`MAX_LINE_BYTES` is answered ``bad_request``
    once and skipped (see :func:`_stream_lines`), and so is a line that
    is not valid UTF-8: a stream with ``reconfigure`` is switched to
    the ``surrogateescape`` error handler so its bad bytes reach the
    check instead of raising out of the read.
    """

    def write_line(text: str) -> None:
        out_stream.write(text + "\n")
        out_stream.flush()

    reconfigure = getattr(in_stream, "reconfigure", None)
    if reconfigure is not None:
        # Undecodable bytes become lone surrogates instead of raising
        # out of readline, so the line they sit in can be answered.
        reconfigure(errors="surrogateescape")
    session = _Session(service, write_line)
    writer = threading.Thread(
        target=session.write_loop, name="repro-stdio-writer", daemon=True
    )
    writer.start()
    for line in _stream_lines(in_stream):
        if line is None:
            session.reject(f"request line longer than {MAX_LINE_BYTES} characters")
        elif not (line.isascii() or _encodes(line)):
            session.reject("request line is not valid UTF-8")
        elif not session.feed(line):
            break
    session.finish()
    writer.join()
    return session.served


def _encodes(line: str) -> bool:
    """Is ``line`` valid UTF-8 text (no lone surrogates)?"""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _stream_lines(stream: IO[str]) -> Iterator[str | None]:
    """Yield the lines of a text stream, like :func:`_connection_lines`.

    A line longer than :data:`MAX_LINE_BYTES` characters is yielded
    once as ``None`` and discarded up to its newline, read in pieces of
    at most that size, so the reader holds at most that much of it.
    """
    while line := stream.readline(MAX_LINE_BYTES + 1):
        if line.endswith("\n") or len(line) <= MAX_LINE_BYTES:
            yield line
            continue
        yield None
        while (rest := stream.readline(MAX_LINE_BYTES)) and not rest.endswith("\n"):
            pass


def _connection_lines(sock: socket.socket) -> Iterator[bytes | None]:
    """Yield the newline-terminated lines of a connected socket.

    A line longer than :data:`MAX_LINE_BYTES` is yielded once as
    ``None`` and discarded up to its newline, so the reader holds at
    most that much of any line.  A last line the peer ends with EOF
    instead of a newline is yielded too.
    """
    pending = b""  # the current line's bytes so far
    skipping = False  # inside an over-long line already yielded
    while chunk := sock.recv(65536):
        start = 0
        while (newline := chunk.find(b"\n", start)) >= 0:
            if not skipping:
                line = pending + chunk[start:newline]
                yield line if len(line) <= MAX_LINE_BYTES else None
            pending, skipping = b"", False
            start = newline + 1
        if not skipping:
            pending += chunk[start:]
            if len(pending) > MAX_LINE_BYTES:
                yield None
                pending, skipping = b"", True
    if pending:  # the peer closed after a last line with no newline
        yield pending


def serve_socket(
    service,
    path: str | os.PathLike,
    ready: threading.Event | None = None,
) -> int:
    """Listen on a unix socket at ``path`` until a ``shutdown`` op.

    Each accepted connection runs a pipelined :class:`_Session` on its
    own reader thread plus a writer thread, so concurrent clients
    interleave freely and a single client's request burst is admitted
    all at once.  ``ready`` (if given) is set once the socket is bound
    — tests and the CLI use it to avoid connect races.  Returns the
    number of connections served.
    """
    path = os.fspath(path)
    if os.path.exists(path):
        os.unlink(path)
    stop = threading.Event()
    connections = 0
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(path)
        listener.listen()
        listener.settimeout(0.1)
        if ready is not None:
            ready.set()

        def handle(conn: socket.socket) -> None:
            with conn:

                def write_line(text: str) -> None:
                    conn.sendall((text + "\n").encode("utf-8"))

                session = _Session(service, write_line)
                writer = threading.Thread(
                    target=session.write_loop,
                    name="repro-socket-writer",
                    daemon=True,
                )
                writer.start()
                for raw in _connection_lines(conn):
                    if raw is None:
                        session.reject(
                            f"request line longer than {MAX_LINE_BYTES} bytes"
                        )
                        continue
                    try:
                        line = raw.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        session.reject(f"request line is not valid UTF-8: {exc}")
                        continue
                    if not session.feed(line):
                        break
                session.finish()
                writer.join()
                if session.shutdown:
                    stop.set()

        threads: list[threading.Thread] = []
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            connections += 1
            thread = threading.Thread(target=handle, args=(conn,), daemon=True)
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=5.0)
    if os.path.exists(path):
        os.unlink(path)
    return connections
