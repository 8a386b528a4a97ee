"""The formal transport seam of the supervised campaign runtime.

A :class:`Transport` owns *execution mechanics* — where chunk tasks run
(in-process or fork workers) and how their results come
back — and nothing else.  All *policy* (timeouts, retries, splitting,
the degradation ladder, checkpoints, flight-recorder merging) stays in :mod:`repro.engine.supervisor`, which drives any
transport through the same four calls::

    transport.start()
    lane = transport.submit(task)      # place one chunk on a free lane
    for result in transport.poll(t):   # completed / failed / died chunks
        ...
    transport.replace(lane)            # kill + respawn one lane
    transport.shutdown()

Lanes are integer slots (0..lanes-1); every result names the lane it
came from so the supervisor can enforce per-chunk deadlines and the
worker-replacement cap without knowing what a lane *is*.  Results use
one message shape across all transports: ``ok`` carries the statuses
list, ``error`` carries the reason text (the chunk is retryable), and
``died`` means the lane vanished mid-chunk (process killed, pipe EOF)
and must be replaced before it can serve again.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence


class TransportError(RuntimeError):
    """Base class for transport-layer failures."""


class TransportUnavailable(TransportError):
    """The transport cannot start at all (no fork start method); the
    campaign steps down to the serial rung with this reason recorded."""


class TransportFailure(TransportError):
    """A running transport cannot make progress (a replacement lane
    cannot be spawned); completed chunks are salvaged on a lower rung."""


class SubmitFailed(TransportError):
    """A task could not be placed on the chosen lane (the worker died
    while idle).  The supervisor requeues the task and replaces the
    lane."""

    def __init__(self, lane: int, reason: str) -> None:
        super().__init__(reason)
        self.lane = lane
        self.reason = reason


@dataclasses.dataclass
class ChunkTask:
    """One unit of transportable work: classify ``faults`` on a resolved
    block backend.  ``key`` is the supervisor's chunk identity (the
    ``"start:stop"`` index range); transports treat it as opaque."""

    key: str
    faults: List
    backend: str
    attempt: int = 0


@dataclasses.dataclass
class ChunkResult:
    """One message back from a lane.

    ``kind`` is ``"ok"`` (``payload`` is the statuses list), ``"error"``
    (``payload`` is the reason text; the chunk is retryable), or
    ``"died"`` (the lane is gone; ``key`` names the chunk it was
    carrying, or ``None`` if it was idle).  ``events`` carries the
    worker's buffered flight-recorder events for the parent to merge.
    """

    kind: str
    key: Optional[str]
    lane: int
    payload: object = None
    events: Sequence[dict] = ()
    error: Optional[BaseException] = None  #: in-process transports only


class Transport:
    """Abstract execution fabric for chunk tasks (see module docstring).

    Attributes set by every implementation:

    * ``name`` — registry name (``inline`` / ``fork``);
    * ``lanes`` — parallel lane count;
    * ``in_process`` — ``True`` when :meth:`poll` computes results
      synchronously in the caller (no deadline enforcement, no
      replacement, errors carry the original exception).
    """

    name: str = "?"
    lanes: int = 1
    in_process: bool = False

    def start(self) -> None:
        """Bring the lanes up; raises :class:`TransportUnavailable` when
        the fabric cannot be used at all."""
        raise NotImplementedError

    def submit(self, task: ChunkTask) -> int:
        """Place ``task`` on a free lane; returns the lane id.  Raises
        :class:`SubmitFailed` when the chosen lane is unreachable."""
        raise NotImplementedError

    def poll(self, timeout: float) -> List[ChunkResult]:
        """Results that became available within ``timeout`` seconds
        (possibly none)."""
        raise NotImplementedError

    def replace(self, lane: int) -> None:
        """Tear down and respawn one lane; raises
        :class:`TransportFailure` when a replacement cannot be built."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release every lane and any shared resources (idempotent)."""
        raise NotImplementedError

    @property
    def free_lanes(self) -> int:
        raise NotImplementedError

    def lane_pid(self, lane: int) -> Optional[int]:
        """The OS pid serving ``lane`` (``None`` for in-process lanes)."""
        return None
