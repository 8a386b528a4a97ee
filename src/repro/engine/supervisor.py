"""Supervised campaign runtime: retries, timeouts, checkpoints.

:mod:`repro.engine.campaign` makes sweeps fast; this module makes them
survive.  A long campaign dies in boring ways — a worker segfaults or
is OOM-killed, a chunk hangs on a pathological cone — and an
all-or-nothing ``pool.map`` turns any of those into a lost campaign.
:func:`run_campaign` replaces it with per-chunk supervision over ``n``
items:

* the items are split into **chunk tasks**, contiguous ``start:stop``
  index ranges, each with a configurable ``timeout``;
* a failed or hung chunk is re-queued and, on repeat failure,
  **split in half** so a single poisoned item cannot hold a whole
  chunk hostage;
* a dead worker is **replaced** instead of killing the campaign, and a
  runtime that cannot keep workers alive salvages every completed
  chunk and finishes the remainder serially;
* completed chunks are **checkpointed** to a JSON artifact (through
  :mod:`repro.engine.durable`) so an interrupted campaign can resume
  without re-running them (payloads are per-item deterministic, so
  chunking never changes results);
* a :class:`CancelToken` is the one way a campaign stops early.

This module owns *scheduling* only: it hands out index ranges and
never sees an item.  The host owns the items — a fault sweep's host
holds its universe, a synthesis batch's host its task list — and a
:class:`ChunkKind` says how one range of them is evaluated.  With
``processes > 1`` chunks fan out to forked workers over pipes
(:class:`repro.engine.fork.ForkTransport`), each inheriting the host;
otherwise they run in-process in a plain loop.  The one step down the
**degradation ladder** —

    ``fork`` → ``serial``

— is recorded as a :class:`Degradation` in the :class:`CampaignReport`
instead of being swallowed by a bare ``except``.  What the items are,
and what their payloads mean (statuses, fitness records), is the
caller's business, and so are its spans, reports and metrics.

Chaos hooks (:data:`WORKER_CHUNK_HOOK` and :func:`chunk_statuses`,
swapped by :mod:`repro.qa.chaos`) let the test suite SIGKILL a worker,
hang a chunk, or make a chunk raise mid-campaign and assert the
campaign still finishes with payloads identical to the serial path.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from .durable import CheckpointError, load_envelope, write_envelope
from .fork import (
    ForkTransport,
    SubmitFailed,
    TransportFailure,
    TransportUnavailable,
)

# Telemetry: campaign-level counters are incremented by the supervising
# parent (workers keep their own process-local registries, which die
# with them — their per-chunk detail travels as flight-recorder events
# over the result channel instead).
_REG = obs.REGISTRY
_M_CHUNKS_DONE = _REG.counter(
    "repro_campaign_chunks_total", "Chunks completed, by campaign outcome"
)
_M_RETRIES = _REG.counter(
    "repro_campaign_retries_total", "Chunk retries, by supervisor action"
)
_M_DEGRADATIONS = _REG.counter(
    "repro_campaign_degradations_total", "Ladder steps down, by rung edge"
)
_M_REPLACED = _REG.counter(
    "repro_campaign_workers_replaced_total", "Dead workers replaced"
)
_M_CHECKPOINTS = _REG.counter(
    "repro_campaign_checkpoint_writes_total", "Checkpoint chunk flushes"
)

#: Attempts on one chunk before it is split (multi-item chunks) or
#: escalated to the parent's serial path (single-item chunks).
MAX_CHUNK_ATTEMPTS = 3

#: Worker replacements tolerated before the runtime concludes workers
#: cannot be kept alive and degrades to the serial rung.
def _max_replacements(lanes: int) -> int:
    return max(2 * lanes, 4)

#: Supervision poll interval: deadline precision and the latency of
#: noticing a dead worker (seconds).
POLL_SECONDS = 0.05

#: Statuses a checkpoint may legally contain.
VALID_STATUSES = frozenset({"dangerous", "detected", "silent"})

#: Test/chaos seam: when set, every worker calls this with
#: ``(chunk_key, attempt)`` before evaluating the chunk.  Fork workers
#: inherit the value at spawn time, so arming it in the parent sabotages
#: the children (see :func:`repro.qa.chaos.sabotage_campaign`).
WORKER_CHUNK_HOOK: Optional[Callable[[str, int], None]] = None


class CampaignCancelled(RuntimeError):
    """Raised when a campaign's :class:`CancelToken` fires — an explicit
    cancel (client gone, server draining) or a blown deadline.  Every
    chunk completed before the cancellation is already in the
    checkpoint, so a later run resumes byte-identically."""


class CancelToken:
    """Cooperative cancellation threaded from a caller (the ``repro
    serve`` HTTP layer) into :func:`run_campaign`'s supervision loop.

    The token fires when :meth:`cancel` is called from any thread, or —
    with ``deadline_s`` set — once the deadline has elapsed.  The fork
    supervision loop checks it once per poll interval and the serial
    loop once per chunk, so a running campaign stops and frees its
    worker lanes within roughly :data:`POLL_SECONDS` plus the cost of
    the chunk currently in flight.
    Reads and writes are simple attribute operations (atomic under the
    GIL); no lock is needed.
    """

    __slots__ = ("_cancelled", "_reason", "_deadline", "deadline_s")

    def __init__(self, deadline_s: Optional[float] = None) -> None:
        self._cancelled = False
        self._reason = "cancelled"
        self.deadline_s = deadline_s
        self._deadline = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )

    def cancel(self, reason: str = "cancelled") -> None:
        """Fire the token (idempotent; the first reason wins)."""
        if not self._cancelled:
            self._reason = reason
            self._cancelled = True

    @property
    def cancelled(self) -> bool:
        if self._cancelled:
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self.cancel(f"deadline exceeded after {self.deadline_s:g}s")
            return True
        return False

    @property
    def reason(self) -> str:
        return self._reason

    def check(self) -> None:
        """Raise :class:`CampaignCancelled` if the token has fired."""
        if self.cancelled:
            raise CampaignCancelled(self._reason)


class _SupervisionFailure(RuntimeError):
    """The worker runtime cannot make progress (workers cannot be
    spawned or kept alive); completed chunks are salvaged on a lower
    rung."""


# ----------------------------------------------------------------------
# report structures
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Degradation:
    """One step down the ladder, with the reason it was taken."""

    frm: str
    to: str
    reason: str


@dataclasses.dataclass
class RetryEvent:
    """One chunk failure and what the supervisor did about it."""

    chunk: str  #: index range ``"start:stop"``
    attempt: int
    reason: str
    action: str  #: ``retried`` | ``split`` | ``parent-serial``


@dataclasses.dataclass
class CampaignReport:
    """Structured account of how a campaign actually ran.

    ``backend`` is the ladder rung plus the chunk kind's name (e.g.
    ``"fork:bitmask"``, ``"serial:bitmask"``, ``"serial:cone"``, or
    ``"resumed"`` when every chunk came from the checkpoint);
    ``block_backend`` is the kind's name alone.  Chunk counts and
    retry ranges are over the campaign's items; ``faults`` is left to
    the caller, which knows what an item is.
    ``degradations`` lists every ladder step down with its reason — an
    empty list means the requested mode is exactly what ran.
    """

    requested: str
    backend: str = ""
    block_backend: str = ""
    faults: int = 0
    chunks_total: int = 0
    chunks_completed: int = 0
    chunks_resumed: int = 0
    workers_replaced: int = 0
    degradations: List[Degradation] = dataclasses.field(default_factory=list)
    retries: List[RetryEvent] = dataclasses.field(default_factory=list)
    wall_seconds: float = 0.0
    checkpoint_path: Optional[str] = None

    def degrade(self, frm: str, to: str, reason: str) -> None:
        self.degradations.append(Degradation(frm, to, reason))
        _M_DEGRADATIONS.inc(frm=frm, to=to)
        obs.event("campaign.degradation", frm=frm, to=to, reason=reason)

    def retry(self, chunk: str, attempt: int, reason: str, action: str) -> None:
        """Record one chunk failure (report, metrics, and flight)."""
        self.retries.append(RetryEvent(chunk, attempt, reason, action))
        _M_RETRIES.inc(action=action)
        obs.event(
            "campaign.retry",
            chunk=chunk,
            attempt=attempt,
            reason=reason,
            action=action,
        )

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "backend": self.backend,
            "block_backend": self.block_backend,
            "faults": self.faults,
            "chunks_total": self.chunks_total,
            "chunks_completed": self.chunks_completed,
            "chunks_resumed": self.chunks_resumed,
            "workers_replaced": self.workers_replaced,
            "degradations": [dataclasses.asdict(d) for d in self.degradations],
            "retries": [dataclasses.asdict(r) for r in self.retries],
            "wall_seconds": self.wall_seconds,
            "checkpoint": self.checkpoint_path,
        }

    def summary(self) -> str:
        lines = [
            f"campaign: {self.faults} faults via {self.backend} "
            f"(requested {self.requested}) in {self.wall_seconds:.3f}s",
            f"  chunks: {self.chunks_completed} simulated, "
            f"{self.chunks_resumed} resumed of {self.chunks_total}",
        ]
        if self.workers_replaced:
            lines.append(f"  workers replaced: {self.workers_replaced}")
        for event in self.retries:
            lines.append(
                f"  retry [{event.chunk}] attempt {event.attempt}: "
                f"{event.reason} -> {event.action}"
            )
        for deg in self.degradations:
            lines.append(f"  degraded {deg.frm} -> {deg.to}: {deg.reason}")
        if not self.degradations:
            lines.append("  no degradations")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# checkpoint artifact
# ----------------------------------------------------------------------
class CampaignCheckpoint:
    """Completed item statuses, flushed to JSON after every chunk.

    The artifact maps contiguous index ranges of the campaign's items to
    their statuses; resuming fills those ranges and re-chunks only the
    uncovered remainder, so chunk-size changes between runs cannot
    corrupt a resume.  ``fingerprint`` is the caller's identity of the
    campaign (for a fault sweep,
    :func:`~repro.engine.campaign.universe_fingerprint`), and
    ``n_faults`` its item count: a file written over a different item
    axis is refused.
    """

    VERSION = 1

    def __init__(self, path: str, fingerprint: str, n_faults: int) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.n_faults = n_faults
        self.ranges: Dict[Tuple[int, int], List] = {}

    def load(self) -> None:
        """Read and validate an existing artifact (for ``--resume``)."""
        payload = load_envelope(self.path, self.VERSION, self.fingerprint)
        if payload.get("n_faults") != self.n_faults:
            raise CheckpointError(
                f"checkpoint {self.path!r} covers {payload.get('n_faults')} "
                f"items, campaign has {self.n_faults}"
            )
        for entry in payload.get("ranges", []):
            try:
                start, stop = int(entry["start"]), int(entry["stop"])
                statuses = list(entry["statuses"])
            except (KeyError, TypeError, ValueError):
                raise CheckpointError(
                    f"checkpoint {self.path!r} has a malformed range entry"
                )
            if not (0 <= start < stop <= self.n_faults):
                raise CheckpointError(
                    f"checkpoint {self.path!r} range {start}:{stop} is out "
                    f"of bounds for {self.n_faults} items"
                )
            if len(statuses) != stop - start or not all(
                s in VALID_STATUSES for s in statuses
            ):
                raise CheckpointError(
                    f"checkpoint {self.path!r} range {start}:{stop} holds "
                    f"corrupt statuses"
                )
            self.ranges[(start, stop)] = statuses

    def apply(self, statuses: List[Optional[str]]) -> int:
        """Fill ``statuses`` from the loaded ranges; returns the number
        of resumed chunks."""
        for (start, stop), values in self.ranges.items():
            statuses[start:stop] = values
        return len(self.ranges)

    def record(self, start: int, stop: int, values: Sequence[str]) -> None:
        self.ranges[(start, stop)] = list(values)
        self._flush()
        _M_CHECKPOINTS.inc()
        obs.event(
            "campaign.checkpoint",
            path=self.path,
            start=start,
            stop=stop,
            ranges=len(self.ranges),
        )

    def _flush(self) -> None:
        write_envelope(
            self.path,
            self.VERSION,
            self.fingerprint,
            {
                "n_faults": self.n_faults,
                "ranges": [
                    {"start": start, "stop": stop, "statuses": values}
                    for (start, stop), values in sorted(self.ranges.items())
                ],
            },
        )


# ----------------------------------------------------------------------
# chunk kinds
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ChunkKind:
    """How :func:`run_campaign` evaluates one range of items.

    ``name`` labels the work: reports read ``serial:<name>`` or
    ``fork:<name>``.  ``evaluate(host, start, stop)`` returns one
    payload per item of ``range(start, stop)``, in order, reading the
    items from ``host``; it is reached only through
    :func:`chunk_statuses`.  A fork worker evaluates against
    ``worker_host(host)``, built from the host it inherits.
    """

    name: str
    evaluate: Callable[[object, int, int], List]
    worker_host: Callable[[object], object]


def chunk_statuses(kind: ChunkKind, host, start: int, stop: int) -> List:
    """Run items ``start:stop`` of ``kind``: fork workers and the serial
    loop both look this function up late here, so chaos patches of it
    reach every execution path."""
    return kind.evaluate(host, start, stop)


# ----------------------------------------------------------------------
# chunk tasks
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Task:
    start: int
    stop: int
    attempt: int = 0

    @property
    def key(self) -> str:
        return f"{self.start}:{self.stop}"


def _uncovered_runs(statuses: List[Optional[str]]) -> List[Tuple[int, int]]:
    """Maximal contiguous index ranges still lacking a payload."""
    runs: List[Tuple[int, int]] = []
    i, n = 0, len(statuses)
    while i < n:
        if statuses[i] is None:
            j = i
            while j < n and statuses[j] is None:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def default_chunk_faults(n_remaining: int, processes: Optional[int]) -> int:
    """Chunk size balancing checkpoint granularity against per-chunk
    overhead: roughly four chunks per worker lane."""
    lanes = max(processes or 1, 1)
    return max(1, -(-n_remaining // max(4 * lanes, 8)))


def _build_tasks(statuses: List[Optional[str]], chunk: int) -> List[_Task]:
    return [
        _Task(start, min(start + chunk, run_stop))
        for run_start, run_stop in _uncovered_runs(statuses)
        for start in range(run_start, run_stop, chunk)
    ]


# ----------------------------------------------------------------------
# the fork supervision loop
# ----------------------------------------------------------------------
class _Inflight:
    """Parent-side record of one submitted chunk."""

    __slots__ = ("task", "deadline")

    def __init__(self, task: _Task, deadline: Optional[float]) -> None:
        self.task = task
        self.deadline = deadline


class _ForkSupervisor:
    """Drives chunk tasks through a :class:`ForkTransport`.

    Owns every piece of policy: retries, split-on-repeat-failure,
    per-chunk deadlines, lane replacement with a global cap,
    parent-serial salvage of single poisoned items, and
    flight-recorder merging.  The transport only moves tasks and
    results.
    """

    def __init__(
        self,
        transport: ForkTransport,
        timeout: Optional[float],
        report: CampaignReport,
        complete: Callable[[_Task, List[str]], None],
        cancel: Optional[CancelToken] = None,
    ) -> None:
        self.transport = transport
        self.timeout = timeout
        self.report = report
        self.complete = complete
        self.cancel = cancel
        self.pending: deque = deque()
        self.inflight: Dict[int, _Inflight] = {}
        self.replaced = 0

    def run(self, tasks: List[_Task]) -> None:
        """Drive ``tasks`` to completion; the transport must already be
        started and is always shut down on the way out."""
        self.pending = deque(tasks)
        try:
            self._loop()
        finally:
            self.transport.shutdown()

    # -- supervision loop ----------------------------------------------
    def _loop(self) -> None:
        while self.pending or self.inflight:
            if self.cancel is not None:
                self.cancel.check()
            self._assign()
            for result in self.transport.poll(POLL_SECONDS):
                self._handle(result)
            self._enforce_deadlines()

    def _assign(self) -> None:
        while self.pending and self.transport.free_lanes > 0:
            task = self.pending.popleft()
            try:
                lane = self.transport.submit(
                    task.key, task.start, task.stop, task.attempt
                )
            except SubmitFailed as error:
                # Worker died while idle: put the task back, replace it.
                self.pending.appendleft(task)
                self.report.retry(task.key, task.attempt, str(error), "retried")
                self._replace_lane(error.lane)
                continue
            deadline = (
                time.monotonic() + self.timeout
                if self.timeout is not None
                else None
            )
            self.inflight[lane] = _Inflight(task, deadline)

    def _handle(self, result) -> None:
        if result.events:
            recorder = obs.get_recorder()
            if recorder is not None:
                recorder.merge(result.events)
        entry = self.inflight.get(result.lane)
        if result.kind == "died":
            self.inflight.pop(result.lane, None)
            self._replace_lane(result.lane)
            if entry is not None:
                self._requeue(entry.task, "worker died mid-chunk")
            return
        if entry is None or result.key != entry.task.key:
            return  # pragma: no cover - stale reply from a replaced lane
        del self.inflight[result.lane]
        task = entry.task
        size = task.stop - task.start
        if result.kind == "ok" and len(result.payload) == size:
            self.complete(task, list(result.payload))
        else:
            reason = (
                f"chunk raised: {result.payload}"
                if result.kind == "error"
                else "malformed chunk result"
            )
            self._requeue(task, reason)

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for lane in list(self.inflight):
            entry = self.inflight[lane]
            if entry.deadline is not None and now >= entry.deadline:
                del self.inflight[lane]
                self._replace_lane(lane)
                self._requeue(entry.task, f"timeout after {self.timeout:g}s")

    def _replace_lane(self, lane: int) -> None:
        self.replaced += 1
        self.report.workers_replaced += 1
        _M_REPLACED.inc()
        obs.event(
            "campaign.worker_replaced",
            worker_pid=self.transport.lane_pid(lane),
            replacements=self.replaced,
        )
        if self.replaced > _max_replacements(self.transport.lanes):
            raise _SupervisionFailure(
                f"{self.replaced} worker replacements exceeded the limit"
            )
        try:
            self.transport.replace(lane)
        except TransportFailure as error:
            raise _SupervisionFailure(str(error))

    # -- retry policy ---------------------------------------------------
    def _requeue(self, task: _Task, reason: str) -> None:
        task.attempt += 1
        if task.attempt >= MAX_CHUNK_ATTEMPTS:
            if task.stop - task.start > 1:
                # Re-chunk smaller: a repeatedly failing chunk is split
                # so one poisoned item cannot sink its neighbours.
                mid = (task.start + task.stop) // 2
                self.report.retry(task.key, task.attempt, reason, "split")
                self.report.chunks_total += 1
                self.pending.appendleft(_Task(mid, task.stop))
                self.pending.appendleft(_Task(task.start, mid))
            else:
                # A single item that keeps failing runs in the parent.
                self.report.retry(
                    task.key, task.attempt, reason, "parent-serial"
                )
                self.complete(task, chunk_statuses(
                    self.transport.kind, self.transport.host, task.start,
                    task.stop,
                ))
        else:
            self.report.retry(task.key, task.attempt, reason, "retried")
            self.pending.append(task)


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------
def run_campaign(
    host,
    n: int,
    kind: ChunkKind,
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    checkpoint: Optional[CampaignCheckpoint] = None,
    cancel: Optional[CancelToken] = None,
) -> Tuple[List, CampaignReport]:
    """Run one supervised campaign over items ``0 .. n-1``; returns
    ``(payloads, report)``.

    ``host`` owns the items and ``kind`` says how a range of them is
    evaluated; only ``start:stop`` ranges cross to the workers.  The
    campaign fans out to fork workers iff ``processes > 1``; otherwise
    it runs in-process.  ``checkpoint`` records every completed chunk;
    the ranges it already holds (loaded for a resume) are not run
    again.  ``cancel`` is a :class:`CancelToken` checked once per
    supervision poll interval (once per chunk in-process); when it
    fires the campaign shuts its workers down and raises
    :class:`CampaignCancelled`, with every completed chunk already
    checkpointed.  Spans, timing and item metrics are the caller's.
    """
    if cancel is not None:
        cancel.check()
    lanes = max(processes or 1, 1)
    want_workers = lanes > 1
    report = CampaignReport(
        requested=f"{'fork' if want_workers else 'serial'}:{kind.name}",
        block_backend=kind.name,
        checkpoint_path=checkpoint.path if checkpoint is not None else None,
    )
    statuses: List[Optional[str]] = [None] * n
    if checkpoint is not None:
        report.chunks_resumed = checkpoint.apply(statuses)
        report.chunks_total += report.chunks_resumed

    def complete(task: _Task, values: List[str]) -> None:
        statuses[task.start : task.stop] = values
        report.chunks_completed += 1
        if _REG.enabled:
            _M_CHUNKS_DONE.inc()
        obs.event("campaign.chunk", chunk=task.key, n=len(values))
        if checkpoint is not None:
            checkpoint.record(task.start, task.stop, values)

    n_remaining = sum(1 for s in statuses if s is None)
    if n_remaining == 0:
        # Everything came from the checkpoint (or there are no items).
        report.backend = (
            "resumed" if report.chunks_resumed else f"serial:{kind.name}"
        )
        return statuses, report

    # Degenerate-fan-out guard: never spawn more lanes than chunks can
    # amortize.
    use_workers = want_workers and n_remaining >= 4 * lanes
    if want_workers and not use_workers:
        report.degrade(
            "fork",
            "serial",
            f"{n_remaining} remaining items cannot amortize {lanes} "
            f"fork workers (need >= {4 * lanes}); running in-process",
        )
    chunk = default_chunk_faults(n_remaining, lanes if use_workers else None)
    tasks = _build_tasks(statuses, chunk)
    report.chunks_total += len(tasks)

    served = False
    if use_workers:
        served = _run_fork_workers(
            kind,
            host,
            min(lanes, max(len(tasks), 1)),
            timeout,
            report,
            complete,
            tasks,
            cancel,
        )

    if served:
        report.backend = f"fork:{kind.name}"
    else:
        _serial_fill(kind, host, statuses, report, complete, chunk, cancel)
        report.backend = f"serial:{kind.name}"

    missing = sum(1 for s in statuses if s is None)
    if missing:  # pragma: no cover - defended invariant
        raise RuntimeError(f"campaign finished with {missing} items unrun")
    return statuses, report


def _run_fork_workers(
    kind: ChunkKind,
    host,
    lanes: int,
    timeout: Optional[float],
    report: CampaignReport,
    complete: Callable[[_Task, List[str]], None],
    tasks: List[_Task],
    cancel: Optional[CancelToken] = None,
) -> bool:
    """Serve ``tasks`` on fork workers; returns ``False`` (with the
    degradation recorded) when the remainder must be finished
    in-process."""
    fabric = ForkTransport(kind, host, lanes)
    try:
        fabric.start()
    except TransportUnavailable as error:
        report.degrade(
            "fork",
            "serial",
            f"{error}; serving the batch in-process",
        )
        return False
    supervisor = _ForkSupervisor(fabric, timeout, report, complete, cancel)
    try:
        supervisor.run(tasks)
    except _SupervisionFailure as error:
        report.degrade(
            "fork",
            "serial",
            f"supervised fork runtime failed: {error}; salvaging "
            f"completed chunks and finishing serially",
        )
        return False
    return True


def _serial_fill(
    kind: ChunkKind,
    host,
    statuses: List[Optional[str]],
    report: CampaignReport,
    complete: Callable[[_Task, List[str]], None],
    chunk: int,
    cancel: Optional[CancelToken] = None,
) -> None:
    """Run every still-uncovered item in-process, one chunk at a time."""
    tasks = _build_tasks(statuses, chunk)
    # _build_tasks was already counted for the worker attempt; only count
    # tasks that re-chunked differently after a partial salvage.
    already = report.chunks_completed + report.chunks_resumed
    report.chunks_total = already + len(tasks)
    for task in tasks:
        if cancel is not None:
            cancel.check()
        complete(task, chunk_statuses(kind, host, task.start, task.stop))
