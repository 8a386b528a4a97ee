"""Fork workers: the one execution fabric behind supervised fan-out.

:mod:`repro.engine.supervisor` owns *policy* — timeouts, retries,
splitting, the degradation ladder, checkpoints, flight merging.  A
:class:`ForkTransport` owns *mechanics*: chunk lanes across forked
worker processes over duplex pipes, driven through a handful of
calls::

    transport.start()
    lane = transport.submit(key, items, attempt)  # one chunk
    for result in transport.poll(t):   # completed / failed / died chunks
        ...
    transport.replace(lane)            # kill + respawn one lane
    transport.shutdown()

Lanes are integer slots (0..lanes-1); every result names the lane it
came from so the supervisor can enforce per-chunk deadlines and the
worker-replacement cap.  Each worker replaces the host it inherits
with what the chunk kind's ``worker_host`` builds from it (for fault
chunks, an engine of its own).

Workers run chunks through the supervisor module's ``chunk_statuses``
seam and honour :data:`repro.engine.supervisor.WORKER_CHUNK_HOOK`,
both looked up late so the chaos suite's patches reach forked children
(fork inherits the armed parent state).
"""

from __future__ import annotations

import dataclasses
import signal
import time
from typing import List, Optional, Sequence

from .. import obs

#: Grace given to SIGTERM before a hung worker is SIGKILLed (seconds).
KILL_GRACE = 0.25


class TransportError(RuntimeError):
    """Base class for fork-worker failures."""


class TransportUnavailable(TransportError):
    """Fork workers cannot start at all (no fork start method); the
    campaign steps down to the serial rung with this reason recorded."""


class TransportFailure(TransportError):
    """Running workers cannot make progress (a replacement lane cannot
    be spawned); completed chunks are salvaged on a lower rung."""


class SubmitFailed(TransportError):
    """A task could not be placed on the chosen lane (the worker died
    while idle).  The supervisor requeues the task and replaces the
    lane."""

    def __init__(self, lane: int, reason: str) -> None:
        super().__init__(reason)
        self.lane = lane
        self.reason = reason


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
# worker process
# ----------------------------------------------------------------------
def _forked_worker(conn, kind, host) -> None:
    """One fork worker: build its host through ``kind.worker_host``,
    then serve chunk jobs on ``conn`` until a ``None`` shutdown sentinel
    (or the parent disappears).  Job messages are
    ``(key, items, attempt)`` tuples; replies are
    ``(kind, key, payload, events)``.

    The child first drops the signal state it inherited: a parent
    running an asyncio loop (``repro serve``) has SIGTERM/SIGINT routed
    to the loop's wakeup fd, and the SIGTERM that stops this worker
    must not reach the parent's drain handler through it.

    The supervisor module is consulted late for both the chunk hook and
    ``chunk_statuses`` so chaos patches stay effective inside workers.
    The per-chunk drain of the inherited recorder's child buffer carries
    this chunk's spans back to the parent, which merges them into the
    flight exactly once.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    from . import supervisor as _sup

    host = kind.worker_host(host)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent vanished
            break
        if job is None:
            break
        key, items, attempt = job
        hook = _sup.WORKER_CHUNK_HOOK
        try:
            with obs.span("worker.chunk", chunk=key, attempt=attempt):
                if hook is not None:
                    hook(key, attempt)
                payloads = _sup.chunk_statuses(kind, host, items)
        except Exception as error:  # reported, retried by the supervisor
            reply = ("error", key, f"{type(error).__name__}: {error}")
        else:
            reply = ("ok", key, payloads)
        conn.send(reply + (obs.drain_child_events(),))
    conn.close()


class _Lane:
    __slots__ = ("process", "conn", "busy", "dead")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.busy = False
        self.dead = False


def _stop_lane(lane: _Lane) -> None:
    """Tear one worker down, escalating SIGTERM -> SIGKILL."""
    try:
        lane.conn.close()
    except OSError:  # pragma: no cover
        pass
    process = lane.process
    if process.is_alive():
        process.terminate()
        process.join(KILL_GRACE)
        if process.is_alive():
            process.kill()
            process.join(KILL_GRACE)
    else:
        process.join(0)


class ForkTransport:
    """Replaceable fork-worker lanes over duplex pipes, running chunks
    of one :class:`~repro.engine.supervisor.ChunkKind` against
    ``host``."""

    def __init__(self, kind, host, lanes: int) -> None:
        self.kind = kind
        self.host = host
        self.lanes = max(lanes, 1)
        self._ctx = None
        self._lanes: List[_Lane] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bring the lanes up; raises :class:`TransportUnavailable` when
        fork workers cannot be used at all."""
        try:
            import multiprocessing

            self._ctx = multiprocessing.get_context("fork")
        except (ImportError, ValueError) as error:
            raise TransportUnavailable(
                f"fork start method unavailable: {error}"
            )
        try:
            for _ in range(self.lanes):
                self._lanes.append(self._spawn())
        except TransportFailure:
            self.shutdown()
            raise

    def _spawn(self) -> _Lane:
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_forked_worker,
                args=(child_conn, self.kind, self.host),
                daemon=True,
            )
            process.start()
        except OSError as error:
            raise TransportFailure(f"cannot spawn fork worker: {error}")
        child_conn.close()
        return _Lane(process, parent_conn)

    def replace(self, lane: int) -> None:
        """Tear down and respawn one lane; raises
        :class:`TransportFailure` when a replacement cannot be built."""
        _stop_lane(self._lanes[lane])
        self._lanes[lane] = self._spawn()

    def shutdown(self) -> None:
        """Release every lane (idempotent)."""
        for entry in self._lanes:
            try:
                entry.conn.send(None)
            except (OSError, ValueError):
                pass
        for entry in self._lanes:
            _stop_lane(entry)
        self._lanes = []

    # -- task flow -----------------------------------------------------
    @property
    def free_lanes(self) -> int:
        return sum(
            1
            for entry in self._lanes
            if not entry.busy and not entry.dead
        )

    def lane_pid(self, lane: int) -> Optional[int]:
        return self._lanes[lane].process.pid

    def submit(self, key: str, items: List, attempt: int) -> int:
        """Place one chunk on a free lane; returns the lane id.  ``key``
        is the supervisor's chunk identity, opaque here.  Raises
        :class:`SubmitFailed` when the chosen lane is unreachable."""
        for index, entry in enumerate(self._lanes):
            if entry.busy or entry.dead:
                continue
            try:
                entry.conn.send((key, items, attempt))
            except (OSError, ValueError) as error:
                entry.dead = True
                raise SubmitFailed(
                    index, f"worker unreachable at assignment: {error}"
                )
            entry.busy = True
            return index
        raise RuntimeError("no free lane")  # pragma: no cover - defended

    def poll(self, timeout: float) -> List[ChunkResult]:
        """Results that became available within ``timeout`` seconds
        (possibly none)."""
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
        results: List[ChunkResult] = []
        for index, entry in busy:
            if entry.conn in ready:
                results.extend(self._drain(index, entry))
            elif not entry.process.is_alive():
                results.append(self._death(index, entry))
        return results

    def _drain(self, index: int, entry: _Lane) -> List[ChunkResult]:
        try:
            message = entry.conn.recv()
        except (EOFError, OSError):
            return [self._death(index, entry)]
        kind, key, payload, events = message
        entry.busy = False
        return [ChunkResult(kind, key, index, payload=payload, events=events)]

    def _death(self, index: int, entry: _Lane) -> ChunkResult:
        entry.dead = True
        entry.busy = False
        return ChunkResult(
            "died", None, index, payload="worker died mid-chunk"
        )
