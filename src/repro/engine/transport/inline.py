"""The in-process transport: zero dependencies, one synchronous lane.

The ``serial`` and ``scalar`` rungs of the degradation ladder run here:
:meth:`poll` runs the submitted chunk immediately in the calling
process through the :func:`repro.engine.supervisor.chunk_statuses` seam
(looked up late, so the chaos suite's ``block-backend-broken`` patch on
the supervisor module is honoured).  A chunk that raises comes back as
an ``error`` result carrying the original exception — the supervisor's
step-down table decides whether that means "step down to the scalar
rung" or "re-raise" (the scalar ``bitmask`` rung and ``synth`` fitness
chunks have no lower step).
"""

from __future__ import annotations

from typing import List, Optional

from .base import ChunkResult, ChunkTask, Transport


class InlineTransport(Transport):
    """One synchronous lane inside the supervising process."""

    name = "inline"
    lanes = 1
    in_process = True

    def __init__(self, engine) -> None:
        self.engine = engine
        self._task: Optional[ChunkTask] = None

    def start(self) -> None:
        pass

    def submit(self, task: ChunkTask) -> int:
        if self._task is not None:  # pragma: no cover - defended invariant
            raise RuntimeError("inline lane is busy")
        self._task = task
        return 0

    def poll(self, timeout: float) -> List[ChunkResult]:
        task, self._task = self._task, None
        if task is None:
            return []
        # Late lookup keeps the supervisor module the single patch point
        # for chunk classification across every rung.
        from .. import supervisor as _sup

        try:
            statuses = _sup.chunk_statuses(
                self.engine, task.faults, task.backend
            )
        except Exception as error:
            return [
                ChunkResult(
                    "error",
                    task.key,
                    0,
                    payload=f"{type(error).__name__}: {error}",
                    error=error,
                )
            ]
        return [ChunkResult("ok", task.key, 0, payload=statuses)]

    def replace(self, lane: int) -> None:  # pragma: no cover - no lanes
        pass

    def shutdown(self) -> None:
        self._task = None

    @property
    def free_lanes(self) -> int:
        return 0 if self._task is not None else 1
