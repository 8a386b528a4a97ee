"""Fork workers: the one way the package forks, and the chunk lanes of
supervised fan-out.

:class:`Child` is the primitive behind every worker process — the
campaign lanes here and the ``repro serve`` workers
(:mod:`repro.serve_worker`).  ``Child.spawn(target, *args)`` forks the
calling process and runs ``target(conn, *args)`` in the child over one
duplex pipe; the parent keeps ``pid`` and ``conn`` and ends the child
with :meth:`Child.retire`.  The child never returns into its parent's
frames.

:mod:`repro.engine.supervisor` owns *policy* — timeouts, retries,
splitting, the degradation ladder, checkpoints, flight merging.  A
:class:`ForkTransport` owns *mechanics*: chunk lanes across forked
children, driven through a handful of calls::

    transport.start()
    lane = transport.submit(key, start, stop, attempt)  # one chunk
    for result in transport.poll(t):   # completed / failed / died chunks
        ...
    transport.replace(lane)            # retire + respawn one lane
    transport.shutdown()

Lanes are integer slots (0..lanes-1); every result names the lane it
came from so the supervisor can enforce per-chunk deadlines and the
worker-replacement cap.  Each worker replaces the host it inherits
with what the chunk kind's ``worker_host`` builds from it (for fault
chunks, an engine of its own).  The host holds the items, so a job
names only an index range: no item crosses the pipe, only the
payloads come back.

Workers run chunks through the supervisor module's ``chunk_statuses``
seam and honour :data:`repro.engine.supervisor.WORKER_CHUNK_HOOK`,
both looked up late so the chaos suite's patches reach forked children
(fork inherits the armed parent state).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import stat
import sys
import time
from typing import List, Optional, Sequence

from .. import obs

#: Grace given to SIGTERM before a worker is SIGKILLed (seconds).
KILL_GRACE = 0.25


class TransportUnavailable(RuntimeError):
    """Fork workers cannot start at all (no ``os.fork``); the campaign
    steps down to the serial rung with this reason recorded."""


class TransportFailure(RuntimeError):
    """Running workers cannot make progress (a replacement lane cannot
    be spawned); completed chunks are salvaged on a lower rung."""


class SubmitFailed(RuntimeError):
    """A task could not be placed on the chosen lane (the worker died
    while idle).  The supervisor requeues the task and replaces the
    lane."""

    def __init__(self, lane: int, reason: str) -> None:
        super().__init__(reason)
        self.lane = lane


@dataclasses.dataclass
class ChunkResult:
    """One message back from a lane.

    ``kind`` is ``"ok"`` (``payload`` is the payload list), ``"error"``
    (``payload`` is the reason text; the chunk is retryable), or
    ``"died"`` (the lane is gone, with ``key`` ``None``: the supervisor
    knows which chunk each lane carries).  ``events`` carries the
    worker's buffered flight-recorder events for the parent to merge.
    """

    kind: str
    key: Optional[str]
    lane: int
    payload: object = None
    events: Sequence[dict] = ()


# ----------------------------------------------------------------------
# the fork primitive
# ----------------------------------------------------------------------
def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(Exception):
            stream.flush()


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a fresh child inherited except its own pipe
    end: its parent's end of the pipe, its siblings' pipes, a server's
    listener and client connections.  Only then does the child read EOF
    once its parent is gone (even SIGKILLed), and a server restart can
    rebind its port.  Files and pipes stay, so stdio keeps working."""
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        if fd <= 2 or fd == keep:
            continue
        with contextlib.suppress(OSError):
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)


class Child:
    """A forked child process: its ``pid`` and the parent's end of its
    duplex pipe, ``conn``."""

    __slots__ = ("pid", "conn")

    def __init__(self, pid: int, conn) -> None:
        self.pid = pid
        self.conn = conn

    @classmethod
    def spawn(cls, target, *args) -> "Child":
        """Fork ``target(conn, *args)`` into a child; raises ``OSError``
        when the fork fails.

        The child first drops the signal state it inherited (a parent
        running an asyncio loop routes SIGTERM/SIGINT to the loop's
        wakeup fd, and the SIGTERM that ends a child must not reach the
        parent's handler through it), freezes the inherited heap (no
        collection can close a socket object whose number was reused)
        and closes the sockets it inherited.  It exits 0 when
        ``target`` returns and 1 (printing the traceback) when it
        raises, after flushing stdio.
        """
        import gc  # like the pipe, loaded only when a process forks
        from multiprocessing.connection import Pipe

        _flush_stdio()
        ours, theirs = Pipe(duplex=True)
        try:
            pid = os.fork()
        except OSError:
            ours.close()
            theirs.close()
            raise
        if pid == 0:  # the child: it never returns into the caller
            code = 1
            try:
                signal.set_wakeup_fd(-1)
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.signal(signal.SIGINT, signal.SIG_DFL)
                gc.freeze()
                ours.close()
                _close_inherited_sockets(theirs.fileno())
                target(theirs, *args)
                code = 0
            except BaseException:
                import traceback

                traceback.print_exc()
            finally:
                _flush_stdio()
                os._exit(code)
        theirs.close()
        return cls(pid, ours)

    def send(self, message) -> bool:
        """Send without raising; ``False`` means the child is gone."""
        try:
            self.conn.send(message)
        except (OSError, ValueError):
            return False
        return True

    def retire(self) -> int:
        """Close the pipe and SIGTERM the child, reap it within
        :data:`KILL_GRACE`, else SIGKILL it and reap it; returns its
        exit code (negative: the signal that ended it)."""
        self.conn.close()
        deadline = time.monotonic() + KILL_GRACE
        try:
            os.kill(self.pid, signal.SIGTERM)
            while time.monotonic() < deadline:
                done, status = os.waitpid(self.pid, os.WNOHANG)
                if done:
                    return os.waitstatus_to_exitcode(status)
                time.sleep(0.0005)
            os.kill(self.pid, signal.SIGKILL)
            return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except (ChildProcessError, ProcessLookupError):  # pragma: no cover
            return 0  # reaped elsewhere


# ----------------------------------------------------------------------
# chunk lanes
# ----------------------------------------------------------------------
def _forked_worker(conn, kind, host) -> None:
    """One lane: build its host through ``kind.worker_host``, then
    serve chunk jobs on ``conn`` until the parent closes its end (or
    goes away).  Job messages are ``(key, start, stop, attempt)``
    tuples naming a range of the host's items; replies are
    ``(kind, key, payload, events)``.

    The supervisor module is consulted late for both the chunk hook and
    ``chunk_statuses`` so chaos patches stay effective inside workers.
    The per-chunk drain of the inherited recorder's child buffer carries
    this chunk's spans back to the parent, which merges them into the
    flight exactly once.
    """
    from . import supervisor as _sup

    host = kind.worker_host(host)
    while True:
        try:
            key, start, stop, attempt = conn.recv()
        except (EOFError, OSError):
            return
        hook = _sup.WORKER_CHUNK_HOOK
        try:
            with obs.span("worker.chunk", chunk=key, attempt=attempt):
                if hook is not None:
                    hook(key, attempt)
                payloads = _sup.chunk_statuses(kind, host, start, stop)
        except Exception as error:  # reported, retried by the supervisor
            reply = ("error", key, f"{type(error).__name__}: {error}")
        else:
            reply = ("ok", key, payloads)
        try:
            conn.send(reply + (obs.drain_child_events(),))
        except OSError:  # the parent is gone
            return


class _Lane(Child):
    __slots__ = ("busy", "dead")

    def __init__(self, pid: int, conn) -> None:
        super().__init__(pid, conn)
        self.busy = False
        self.dead = False


class ForkTransport:
    """Replaceable fork-worker lanes over duplex pipes, running chunks
    of one :class:`~repro.engine.supervisor.ChunkKind` against
    ``host``."""

    def __init__(self, kind, host, lanes: int) -> None:
        self.kind = kind
        self.host = host
        self.lanes = max(lanes, 1)
        self._lanes: List[_Lane] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bring the lanes up; raises :class:`TransportUnavailable` when
        the platform cannot fork."""
        if not hasattr(os, "fork"):
            raise TransportUnavailable("fork unavailable: no os.fork")
        try:
            for _ in range(self.lanes):
                self._lanes.append(self._spawn())
        except TransportFailure:
            self.shutdown()
            raise

    def _spawn(self) -> _Lane:
        try:
            return _Lane.spawn(_forked_worker, self.kind, self.host)
        except OSError as error:
            raise TransportFailure(f"cannot spawn fork worker: {error}")

    def replace(self, lane: int) -> None:
        """Retire and respawn one lane; raises :class:`TransportFailure`
        when a replacement cannot be built."""
        self._lanes[lane].retire()
        self._lanes[lane] = self._spawn()

    def shutdown(self) -> None:
        """Retire every lane (idempotent).  All pipes close first, so
        the lanes read EOF and exit side by side."""
        for entry in self._lanes:
            entry.conn.close()
        for entry in self._lanes:
            entry.retire()
        self._lanes = []

    # -- task flow -----------------------------------------------------
    @property
    def free_lanes(self) -> int:
        return sum(
            1
            for entry in self._lanes
            if not entry.busy and not entry.dead
        )

    def lane_pid(self, lane: int) -> int:
        return self._lanes[lane].pid

    def submit(self, key: str, start: int, stop: int, attempt: int) -> int:
        """Place items ``start:stop`` on a free lane; returns the lane
        id.  ``key`` is the supervisor's chunk identity, opaque here.
        Raises :class:`SubmitFailed` when the chosen lane is
        unreachable."""
        for index, entry in enumerate(self._lanes):
            if entry.busy or entry.dead:
                continue
            if not entry.send((key, start, stop, attempt)):
                entry.dead = True
                raise SubmitFailed(index, "worker unreachable at assignment")
            entry.busy = True
            return index
        raise RuntimeError("no free lane")  # pragma: no cover - defended

    def poll(self, timeout: float) -> List[ChunkResult]:
        """Results that became available within ``timeout`` seconds
        (possibly none).  A lane that died shows as EOF on its pipe."""
        from multiprocessing import connection as mp_connection

        busy = [
            (i, entry)
            for i, entry in enumerate(self._lanes)
            if entry.busy and not entry.dead
        ]
        if not busy:
            time.sleep(min(timeout, 0.005))
            return []
        ready = mp_connection.wait(
            [entry.conn for _i, entry in busy], timeout=timeout
        )
        return [
            self._drain(index, entry)
            for index, entry in busy
            if entry.conn in ready
        ]

    def _drain(self, index: int, entry: _Lane) -> ChunkResult:
        entry.busy = False
        try:
            kind, key, payload, events = entry.conn.recv()
        except (EOFError, OSError):
            entry.dead = True
            return ChunkResult(
                "died", None, index, payload="worker died mid-chunk"
            )
        return ChunkResult(kind, key, index, payload=payload, events=events)
