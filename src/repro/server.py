"""``repro serve`` — a crash-tolerant queueing campaign service.

A deliberately small asyncio front end (stdlib only) that turns the
supervised campaign runtime into a long-lived service:

* ``POST /campaign`` with a JSON body (``netlist`` text plus the usual
  sweep knobs) streams campaign progress back as NDJSON over HTTP/1.1
  chunked transfer — one JSON object per line: an ``accepted`` header,
  every ``campaign.*`` flight event as it happens, then a ``result``
  line with the coverage stats and the structured
  :class:`~repro.engine.supervisor.CampaignReport`.  A body with
  ``"kind": "synth"`` runs a synthesis/repair campaign instead
  (``spec`` from :data:`repro.synth.SPECS` for from-scratch search, or
  ``netlist`` for repair mode), streaming ``synth.*`` generation events
  and finishing with the structured
  :class:`~repro.synth.SynthReport`.
* Identical requests are **coalesced**: an in-flight job is keyed by a
  content fingerprint of the request (netlist text + universe shape +
  execution knobs), and every later identical submission subscribes to
  the same execution instead of starting its own.  Completed campaigns
  additionally land in the process-wide content-addressed
  :data:`~repro.engine.store.STORE` (kind ``"campaign"``, keyed by
  compiled-program + universe fingerprints), so repeats after
  completion replay instantly — the hit rate is visible in
  ``/metrics``.
* ``GET /metrics`` serves the Prometheus text exposition of
  :data:`repro.obs.REGISTRY`; ``GET /healthz`` is a pure **liveness**
  probe (200 for as long as the process can answer), ``GET /readyz``
  the **readiness** probe (503 while draining — take the instance out
  of rotation without killing in-flight streams).

The service supervises itself with the same discipline the campaign
runtime applies to its workers:

* **Admission control** — campaigns run on a bounded worker pool
  (``workers`` threads; each campaign still owns its own fork
  fan-out) behind a bounded accept queue.  When ``workers +
  queue_limit`` jobs are outstanding, new *distinct* submissions are
  shed with ``429 + Retry-After`` instead of queueing unboundedly
  (coalescing onto an existing identical job is always admitted — it
  adds no work).  Shed counts and queue depth are exported.
* **Deadlines & cancellation** — every execution carries a
  :class:`~repro.engine.supervisor.CancelToken` threaded into the
  supervision poll loop.  A per-request ``deadline_s`` (or the server
  default), the last subscriber disconnecting mid-stream, or a drain
  fires the token; the campaign stops and frees its worker lanes
  within one poll interval, recording a ``campaign.cancelled`` flight
  event.
* **Graceful drain** — SIGTERM/SIGINT stops the listener, lets
  in-flight jobs finish against ``drain_timeout``, then cancels the
  stragglers (their checkpoints survive) and exits.
* **Durable request journal** — with a state directory configured,
  every accepted request is appended (fsync'd) to an append-only JSONL
  write-ahead journal before it executes, and marked done after.
  ``repro serve --recover`` replays accepted-but-unfinished requests on
  restart, resuming each campaign from its supervisor checkpoint, so a
  ``kill -9`` loses no accepted work and the replayed statuses are
  byte-identical to an uninterrupted run.

Per-job memory is bounded too: the finished-job table is a pruned LRU
(completed results replay from the content-addressed store, not from
this table) and every subscriber queue drops its oldest *progress* line
when a slow NDJSON client falls behind — the terminal ``result`` line
is never dropped.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import hashlib
import json
import os
import signal as signallib
import socket as socketlib
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from . import obs
from .engine.durable import append_line, atomic_write, open_log
from .engine.store import STORE, program_fingerprint, text_fingerprint
from .engine.supervisor import (
    CampaignCancelled,
    CancelToken,
    CheckpointError,
)
from .obs.recorder import MemoryRecorder

#: Request fields a client may set, with their defaults.  Anything else
#: in the body is rejected — silent typos ("backnd") would otherwise
#: dedup two requests the client believes are different.
REQUEST_DEFAULTS = {
    "kind": "campaign",
    "processes": None,
    "timeout": None,
    "collapse": True,
    "statuses": False,
    "deadline_s": None,
    # kind == "synth" only:
    "spec": None,
    "seed": 0,
    "population": 24,
    "generations": 40,
    "max_gates": 16,
    "damage": 3,
}

#: Fields that only make sense on ``kind == "synth"`` bodies; a
#: campaign submission setting them is rejected rather than silently
#: forked into a distinct fingerprint.
_SYNTH_ONLY = ("spec", "seed", "population", "generations", "max_gates", "damage")

#: Upper bound on request bodies (netlists are text; 8 MiB is generous).
MAX_BODY_BYTES = 8 << 20

#: How often the drain loop re-checks for in-flight jobs (seconds).
DRAIN_POLL_SECONDS = 0.05

#: Grace period after drain-cancelling stragglers: cooperative
#: cancellation lands within one supervision poll interval, so this only
#: needs to cover the chunk currently in flight.
DRAIN_CANCEL_GRACE_SECONDS = 5.0

_REG = obs.REGISTRY
_M_REQUESTS = _REG.counter(
    "repro_serve_requests_total", "HTTP requests handled, by route"
)
_M_JOBS = _REG.counter(
    "repro_serve_jobs_total",
    "Campaign submissions, by disposition (executed/coalesced/replayed)",
)
_M_ACTIVE = _REG.gauge(
    "repro_serve_subscribers", "NDJSON subscribers currently connected"
)
_M_SHED = _REG.counter(
    "repro_serve_shed_total",
    "Submissions shed by admission control, by reason",
)
_M_QUEUE_DEPTH = _REG.gauge(
    "repro_serve_queue_depth", "Accepted jobs waiting for a worker thread"
)
_M_CANCELLED = _REG.counter(
    "repro_serve_cancelled_total", "Campaigns cancelled, by reason kind"
)
_M_EVICTED = _REG.counter(
    "repro_serve_jobs_evicted_total", "Finished jobs pruned from the LRU"
)
_M_DROPS = _REG.counter(
    "repro_serve_subscriber_drops_total",
    "Progress lines dropped for slow subscribers, by buffer",
)
_M_READ_TIMEOUTS = _REG.counter(
    "repro_serve_read_timeouts_total",
    "Connections dropped by the slow-client guard (HTTP 408)",
)
_M_JOURNAL = _REG.counter(
    "repro_serve_journal_records_total", "Journal appends, by record op"
)
_M_RECOVERED = _REG.counter(
    "repro_serve_recovered_total", "Journaled requests replayed on recovery"
)


class RequestError(ValueError):
    """A malformed campaign submission (maps to HTTP 400)."""


def canonical_request(body: dict) -> dict:
    """Validate a raw JSON body into the canonical request shape."""
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    netlist = body.get("netlist")
    request = {"netlist": netlist}
    for key, default in REQUEST_DEFAULTS.items():
        request[key] = body.get(key, default)
    unknown = set(body) - set(request)
    if unknown:
        raise RequestError(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )
    kind = request["kind"]
    if kind not in ("campaign", "synth"):
        raise RequestError("'kind' must be 'campaign' or 'synth'")
    has_netlist = isinstance(netlist, str) and bool(netlist.strip())
    if kind == "campaign":
        if not has_netlist:
            raise RequestError("'netlist' must be non-empty .bench text")
        for key in _SYNTH_ONLY:
            if request[key] != REQUEST_DEFAULTS[key]:
                raise RequestError(
                    f"'{key}' applies only to kind 'synth'"
                )
    else:
        if netlist is not None and not has_netlist:
            raise RequestError("'netlist' must be non-empty .bench text")
        if (request["spec"] is None) == (not has_netlist):
            raise RequestError(
                "kind 'synth' needs exactly one of 'spec' "
                "(from-scratch) or 'netlist' (repair mode)"
            )
        if request["spec"] is not None:
            from .synth.specs import SPECS

            if request["spec"] not in SPECS:
                raise RequestError(
                    f"unknown spec {request['spec']!r}; known: "
                    f"{', '.join(sorted(SPECS))}"
                )
        from .synth.campaign import MIN_POPULATION

        for key, floor in (
            ("seed", 0),
            ("population", MIN_POPULATION),
            ("generations", 1),
            ("max_gates", 1),
            ("damage", 1),
        ):
            value = request[key]
            if (
                not isinstance(value, int)
                or isinstance(value, bool)
                or value < floor
            ):
                raise RequestError(f"'{key}' must be an integer >= {floor}")
    processes = request["processes"]
    if processes is not None and (
        not isinstance(processes, int)
        or isinstance(processes, bool)
        or processes < 1
    ):
        raise RequestError("'processes' must be an integer >= 1")
    for key in ("timeout", "deadline_s"):
        value = request[key]
        if value is not None and (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or value <= 0
        ):
            raise RequestError(f"'{key}' must be a number > 0")
    for key in ("collapse", "statuses"):
        if not isinstance(request[key], bool):
            raise RequestError(f"'{key}' must be a boolean")
    return request


def request_fingerprint(request: dict) -> str:
    """Content identity of one submission: the dedup key for in-flight
    coalescing.  Statuses only depend on the netlist and the universe
    shape, but the *stream* a client receives also depends on the
    execution knobs, so all of them participate."""
    digest = hashlib.sha256()
    digest.update(text_fingerprint(request["netlist"] or "").encode())
    for key in sorted(REQUEST_DEFAULTS):
        digest.update(f"\x00{key}={request[key]!r}".encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# durable request journal
# ----------------------------------------------------------------------
class RequestJournal:
    """Append-only JSONL write-ahead journal of accepted requests.

    Two record shapes, one per line: ``{"op": "accepted",
    "fingerprint": ..., "request": {...}}`` written (and fsync'd, through
    :mod:`repro.engine.durable`) *before* a campaign executes, and
    ``{"op": "done", "fingerprint": ..., "outcome": {...}}`` after it
    finishes (successfully, with an error, or cancelled for good — a
    drain cancellation is deliberately *not* marked done, so the work
    survives the restart).  Recovery replays every accepted record
    without a matching done.

    The journal lives in a state directory alongside one supervisor
    checkpoint per in-flight request (``ckpt-<fingerprint>.json``), so
    a recovered campaign resumes from its completed chunks instead of
    starting over — statuses are byte-identical either way.  A partial
    final line (the crash landed mid-append) is skipped on read and
    truncated when the journal is reopened for append, so the next
    record never glues onto it; the journal is compacted to just the
    pending records on recovery.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.path = os.path.join(directory, "journal.jsonl")
        self._handle = None
        self._lock = threading.Lock()

    def open(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self._handle = open_log(self.path)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def checkpoint_path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"ckpt-{fingerprint}.json")

    def _append(self, record: dict) -> None:
        with self._lock:
            if self._handle is None:  # pragma: no cover - closed journal
                return
            append_line(self._handle, json.dumps(record, sort_keys=True))
        _M_JOURNAL.inc(op=record["op"])

    def accepted(self, fingerprint: str, request: dict) -> None:
        self._append(
            {"op": "accepted", "fingerprint": fingerprint, "request": request}
        )

    def done(self, fingerprint: str, outcome: dict) -> None:
        self._append(
            {"op": "done", "fingerprint": fingerprint, "outcome": outcome}
        )

    def records(self) -> List[dict]:
        """Every parseable record, tolerating a torn final line."""
        records: List[dict] = []
        try:
            with open(self.path) as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn append from a crash mid-write
                    if isinstance(record, dict):
                        records.append(record)
        except FileNotFoundError:
            pass
        return records

    def load_pending(self) -> "OrderedDict[str, dict]":
        """Accepted-but-unfinished requests, in acceptance order."""
        pending: "OrderedDict[str, dict]" = OrderedDict()
        for record in self.records():
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str):
                continue
            if record.get("op") == "accepted" and isinstance(
                record.get("request"), dict
            ):
                pending[fingerprint] = record["request"]
            elif record.get("op") == "done":
                pending.pop(fingerprint, None)
        return pending

    def compact(self, pending: "OrderedDict[str, dict]") -> None:
        """Atomically rewrite the journal to just ``pending`` (recovery
        startup: done work and torn lines are dropped for good)."""
        atomic_write(
            self.path,
            "".join(
                json.dumps(
                    {
                        "op": "accepted",
                        "fingerprint": fingerprint,
                        "request": request,
                    },
                    sort_keys=True,
                )
                + "\n"
                for fingerprint, request in pending.items()
            ),
        )
        with self._lock:
            if self._handle is not None:
                self._handle.close()
            self._handle = open_log(self.path)


class _BridgeRecorder(MemoryRecorder):
    """A recorder that additionally forwards ``campaign.*`` and
    ``synth.*`` events from the executing thread into the event loop
    for live streaming."""

    def __init__(self, loop: asyncio.AbstractEventLoop, job: "_Job") -> None:
        super().__init__()
        self._loop = loop
        self._job = job

    def emit(self, event: dict) -> None:
        super().emit(event)
        name = event.get("name", "")
        if event.get("k") == "event" and name.startswith(
            ("campaign.", "synth.")
        ):
            line = {"event": name, "t": event.get("t")}
            line.update(event.get("attrs") or {})
            self._loop.call_soon_threadsafe(self._job.publish, line)


class _Job:
    """One underlying campaign execution plus its subscriber fan-out.

    ``cancel`` is the job's :class:`CancelToken` (deadline armed at
    submit time); ``detached`` marks journal-recovery replays, which
    legitimately run with no subscribers and must not be cancelled for
    it.  Both the shared history and every subscriber queue are bounded
    to ``queue_limit`` lines with a drop-oldest-progress policy: the
    terminal ``result`` line is published last and therefore always
    survives.
    """

    def __init__(
        self,
        fingerprint: str,
        request: dict,
        cancel: CancelToken,
        queue_limit: int = 256,
        detached: bool = False,
    ) -> None:
        self.fingerprint = fingerprint
        self.request = request
        self.cancel = cancel
        self.detached = detached
        self.queue_limit = max(int(queue_limit), 2)
        self.subscribers: List[asyncio.Queue] = []
        self.history: List[dict] = []
        self.result: Optional[dict] = None
        self.done = asyncio.Event()

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        for line in self.history:
            queue.put_nowait(line)
        if self.result is None:
            self.subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Detach one subscriber; the last one leaving a live job
        cancels the now-orphaned campaign (nobody is listening, and a
        late identical request replays from the store anyway)."""
        if queue in self.subscribers:
            self.subscribers.remove(queue)
        if not self.subscribers and not self.done.is_set() and not self.detached:
            self.cancel.cancel("all subscribers disconnected")

    def publish(self, line: dict) -> None:
        self.history.append(line)
        if len(self.history) > self.queue_limit:
            self.history.pop(0)
            _M_DROPS.inc(buffer="history")
        for queue in self.subscribers:
            if queue.qsize() >= self.queue_limit:
                with contextlib.suppress(asyncio.QueueEmpty):
                    queue.get_nowait()
                    _M_DROPS.inc(buffer="subscriber")
            queue.put_nowait(line)

    def finish(self, result: dict) -> None:
        self.result = result
        self.publish(dict(result, event="result"))
        self.subscribers = []
        self.done.set()


def _campaign_job(request: dict, network, cancel: Optional[CancelToken]):
    """Store key and run step of one fault campaign.  The key is pure
    content (program + universe fingerprints + universe shape), so a
    replay does not even need the supervised runtime."""
    from .engine.campaign import FaultSweep, universe_fingerprint

    sweep = FaultSweep(network)
    universe = sweep.compiled.universe_ids(collapse=request["collapse"])
    key = (
        "campaign",
        program_fingerprint(sweep.compiled),
        universe_fingerprint(universe, sweep.n, sweep.compiled),
        f"collapse={request['collapse']}",
    )

    def run(checkpoint: Optional[str], resume: bool) -> dict:
        pairs = sweep.sweep(
            universe,
            processes=request["processes"],
            timeout=request["timeout"],
            checkpoint=checkpoint,
            resume=resume,
            cancel=cancel,
        )
        statuses = tuple(status for _fault, status in pairs)
        total = max(len(statuses), 1)
        return {
            "faults": len(statuses),
            "detected": statuses.count("detected") / total,
            "silent": statuses.count("silent") / total,
            "dangerous": statuses.count("dangerous") / total,
            "backend": sweep.last_report.backend,
            "report": sweep.last_report.to_dict(),
            "statuses": statuses,
        }

    return key, run


def _synth_job(request: dict, network, cancel: Optional[CancelToken]):
    """Store key and run step of one synthesis/repair campaign, keyed
    by the target identity (spec fingerprint, or the netlist text
    fingerprint in repair mode) plus the search knobs."""
    from .synth.campaign import SynthCampaign, repair_campaign
    from .synth.specs import SPECS

    if network is None:
        spec = SPECS[request["spec"]]
        target_fp = spec.fingerprint()
    else:
        target_fp = text_fingerprint(request["netlist"])
    key = (
        "synth",
        target_fp,
        f"seed={request['seed']},population={request['population']},"
        f"generations={request['generations']},"
        f"max_gates={request['max_gates']},damage={request['damage']}",
    )

    def run(checkpoint: Optional[str], resume: bool) -> dict:
        common = dict(
            seed=request["seed"],
            population=request["population"],
            generations=request["generations"],
            max_gates=request["max_gates"],
            processes=request["processes"],
            timeout=request["timeout"],
            checkpoint=checkpoint,
            resume=resume,
            cancel=cancel,
        )
        if network is None:
            campaign = SynthCampaign(spec, **common)
        else:
            campaign = repair_campaign(
                network, damage=request["damage"], **common
            )
        report = campaign.run()
        return {
            "kind": "synth",
            "spec": report.spec,
            "seed": report.seed,
            "mode": report.mode,
            "converged": report.converged,
            "generations": report.generations_run,
            "evaluations": report.evaluations,
            "best_score": report.best_record.score,
            "best_fingerprint": report.best_fingerprint,
            "best_genome": json.loads(report.best_genome),
            "pareto": report.pareto,
            "report": report.to_dict(),
        }

    return key, run


#: Request kind -> ``(request, network, cancel) -> (store key, run)``.
_JOBS = {"campaign": _campaign_job, "synth": _synth_job}


def _execute(
    request: dict,
    recorder,
    cancel: Optional[CancelToken] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> dict:
    """Run one request (worker-thread side) and shape the result line.

    Parses are deduped through the store (kind ``"network"`` by text
    fingerprint) so identical netlists share one ``Network`` instance —
    and therefore, via ``engine_for``, one compiled program and one
    cached baseline.  A finished run lands in the store under its
    kind's content key, so an identical resubmission replays without
    touching the supervised runtime.

    ``checkpoint``/``resume`` ride the journal's state directory: a
    recovered request resumes from the work its interrupted run already
    checkpointed.  An unusable checkpoint falls back to one fresh run —
    both kinds are deterministic, so the result is identical either way.
    """
    from .logic.benchfmt import BenchFormatError, parse_bench

    if cancel is not None:
        cancel.check()
    network = None
    if request["netlist"] is not None:
        text_fp = text_fingerprint(request["netlist"])
        network = STORE.get("network", text_fp)
        if network is None:
            try:
                network = parse_bench(request["netlist"], name="serve")
            except BenchFormatError as error:
                raise RequestError(f"netlist does not parse: {error}")
            STORE.put("network", text_fp, value=network)
    key, run = _JOBS[request["kind"]](request, network, cancel)
    value = STORE.get(*key)
    replayed = value is not None
    if not replayed:
        with obs.recording(recorder=recorder):
            try:
                value = run(checkpoint, resume)
            except CheckpointError:
                value = run(checkpoint, False)
        STORE.put(*key, value=value)
    result = dict(value, replayed=replayed, store=STORE.stats())
    statuses = result.pop("statuses", None)
    if request["statuses"] and statuses is not None:
        result["statuses"] = list(statuses)
    return result


def _cancel_kind(reason: str) -> str:
    if reason.startswith("deadline exceeded"):
        return "deadline"
    if reason.startswith("all subscribers"):
        return "abandoned"
    if reason.startswith("server draining"):
        return "drain"
    return "other"


class CampaignServer:
    """The asyncio HTTP front end.  One instance per process."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8341,
        processes: Optional[int] = None,
        workers: int = 2,
        queue_limit: int = 8,
        deadline_s: Optional[float] = None,
        drain_timeout: float = 10.0,
        state_dir: Optional[str] = None,
        recover: bool = False,
        max_jobs: int = 64,
        subscriber_queue: int = 256,
        read_timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.default_processes = processes
        self.workers = max(int(workers), 1)
        self.queue_limit = max(int(queue_limit), 0)
        self.default_deadline_s = deadline_s
        self.drain_timeout = drain_timeout
        self.max_jobs = max(int(max_jobs), 1)
        self.subscriber_queue = subscriber_queue
        self.read_timeout = read_timeout
        self.recover = recover
        self.journal = RequestJournal(state_dir) if state_dir else None
        self.jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self.executions = 0
        self.recovered = 0
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        # Live connection handlers: Python 3.11's ``wait_closed`` does
        # not wait for them, so ``close`` cancels and awaits them itself.
        self._connections: Set[asyncio.Task] = set()
        # A bounded pool: the recorder/metrics seams are process-global
        # but per-job recorders keep flights attributable, and each
        # campaign owns its own fork fan-out, so a small number of
        # concurrent campaigns shares the machine without oversubscribing.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        STORE.enabled = True
        obs.enable_metrics(True)
        if self.journal is not None:
            self.journal.open()
            if self.recover:
                self._recover_journal()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.port = bound[1]

    def _recover_journal(self) -> None:
        """Replay accepted-but-unfinished journal records as detached
        jobs (no subscribers; results land in the store and the journal
        done records)."""
        pending = self.journal.load_pending()
        self.journal.compact(pending)
        for fingerprint, raw in pending.items():
            try:
                request = canonical_request(raw)
            except RequestError as error:
                self.journal.done(
                    fingerprint,
                    {"ok": False, "error": f"unreplayable record: {error}"},
                )
                continue
            self.recovered += 1
            _M_RECOVERED.inc()
            obs.event("serve.recovered", fingerprint=fingerprint)
            self.submit(request, detached=True)

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, wait for in-flight jobs against the
        drain timeout, then cancel the stragglers (their checkpoints —
        and, with a journal, their accepted records — survive for a
        ``--recover`` restart)."""
        if self.draining:
            return
        self.draining = True
        obs.event("serve.drain", jobs=self._outstanding())
        # The listener stays up: /healthz and /readyz must remain
        # answerable while draining (that is the point of the split) and
        # new POSTs are shed with 503 by admission control.  close()
        # tears the listener down after the drain completes.
        budget = self.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + max(budget, 0.0)
        while self._outstanding() and time.monotonic() < deadline:
            await asyncio.sleep(DRAIN_POLL_SECONDS)
        for job in self.jobs.values():
            if not job.done.is_set():
                job.cancel.cancel("server draining")
        grace = time.monotonic() + DRAIN_CANCEL_GRACE_SECONDS
        while self._outstanding() and time.monotonic() < grace:
            await asyncio.sleep(DRAIN_POLL_SECONDS)

    async def close(self) -> None:
        """Immediate shutdown: drain with a zero wait (in-flight jobs
        are cancelled, not awaited), stop listening, cancel every live
        connection handler, then release the pool and journal."""
        await self.drain(timeout=0.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        handlers = list(self._connections)
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        self._executor.shutdown(wait=False)
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # job management
    # ------------------------------------------------------------------
    def _outstanding(self) -> int:
        return sum(1 for job in self.jobs.values() if not job.done.is_set())

    def _set_queue_gauge(self) -> None:
        _M_QUEUE_DEPTH.set(max(self._outstanding() - self.workers, 0))

    def _prune_jobs(self) -> None:
        """Bound the job table: evict the oldest *finished* jobs beyond
        ``max_jobs`` (their results replay from the content-addressed
        store; the table only carries live fan-out state)."""
        if len(self.jobs) <= self.max_jobs:
            return
        for fingerprint in [
            fp for fp, job in self.jobs.items() if job.done.is_set()
        ]:
            if len(self.jobs) <= self.max_jobs:
                break
            del self.jobs[fingerprint]
            _M_EVICTED.inc()

    def submit(self, request: dict, detached: bool = False) -> Tuple[_Job, str]:
        """The job serving ``request`` and its disposition — a running
        identical job (``coalesced``) or a fresh one (``executed``)."""
        fingerprint = request_fingerprint(request)
        job = self.jobs.get(fingerprint)
        if job is not None and not job.done.is_set():
            _M_JOBS.inc(disposition="coalesced")
            return job, "coalesced"
        deadline_s = request.get("deadline_s")
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        cancel = CancelToken(deadline_s=deadline_s)
        job = _Job(
            fingerprint,
            request,
            cancel,
            queue_limit=self.subscriber_queue,
            detached=detached,
        )
        self.jobs[fingerprint] = job
        self.jobs.move_to_end(fingerprint)
        self.executions += 1
        _M_JOBS.inc(disposition="executed")
        checkpoint, resume = None, False
        if self.journal is not None:
            if not detached:
                # WAL discipline: the accepted record is durable before
                # any work happens, so a crash between here and the
                # result can always be replayed.
                self.journal.accepted(fingerprint, request)
            checkpoint = self.journal.checkpoint_path(fingerprint)
            resume = os.path.exists(checkpoint)
        self._set_queue_gauge()
        loop = asyncio.get_running_loop()
        recorder = _BridgeRecorder(loop, job)

        def run() -> dict:
            return _execute(
                request,
                recorder,
                cancel=cancel,
                checkpoint=checkpoint,
                resume=resume,
            )

        def finish(future: "asyncio.Future") -> None:
            error = future.exception()
            if error is None:
                result = future.result()
                if result.get("replayed"):
                    _M_JOBS.inc(disposition="replayed")
                job.finish(result)
                self._finalize(fingerprint, job, result, None)
            else:
                job.finish(self._shape_error(error))
                self._finalize(fingerprint, job, None, error)
            self._set_queue_gauge()
            self._prune_jobs()

        task = asyncio.ensure_future(
            loop.run_in_executor(self._executor, run)
        )
        task.add_done_callback(finish)
        return job, "executed"

    def _shape_error(self, error: BaseException) -> dict:
        if isinstance(error, CampaignCancelled):
            reason = str(error)
            _M_CANCELLED.inc(kind=_cancel_kind(reason))
            return {"error": f"cancelled: {reason}", "cancelled": True}
        return {"error": f"{type(error).__name__}: {error}"}

    def _finalize(
        self,
        fingerprint: str,
        job: _Job,
        result: Optional[dict],
        error: Optional[BaseException],
    ) -> None:
        """Journal the outcome and clean the checkpoint up.  A
        drain-cancelled job stays *pending* in the journal (and keeps
        its checkpoint): that is exactly the work ``--recover`` must
        finish after the restart."""
        if self.journal is None:
            return
        checkpoint = self.journal.checkpoint_path(fingerprint)
        if error is None:
            self.journal.done(
                fingerprint, {"ok": True, "replayed": result["replayed"]}
            )
            with contextlib.suppress(OSError):
                os.remove(checkpoint)
            return
        if (
            isinstance(error, CampaignCancelled)
            and _cancel_kind(str(error)) == "drain"
        ):
            return  # still pending: survives for --recover
        outcome = {"ok": False, "error": f"{type(error).__name__}: {error}"}
        if isinstance(error, CampaignCancelled):
            outcome["cancelled"] = str(error)
        self.journal.done(fingerprint, outcome)

    # ------------------------------------------------------------------
    # HTTP plumbing (four routes: campaign, metrics, healthz, readyz)
    # ------------------------------------------------------------------
    async def _read_head(self, reader) -> Optional[Tuple[str, str, dict]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, path, _version = (
                request_line.decode("latin-1").split(maxsplit=2)
            )
        except ValueError:
            raise RequestError("bad request line")
        headers: dict = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                head = await asyncio.wait_for(
                    self._read_head(reader), self.read_timeout
                )
            except asyncio.TimeoutError:
                _M_READ_TIMEOUTS.inc(phase="head")
                await _respond(
                    writer,
                    408,
                    {
                        "error": f"request head not received within "
                        f"{self.read_timeout:g}s"
                    },
                )
                return
            except RequestError as error:
                await _respond(writer, 400, {"error": str(error)})
                return
            if head is None:
                return
            method, path, headers = head
            _M_REQUESTS.inc(route=f"{method} {path}")
            if method == "GET" and path == "/metrics":
                await _respond_text(
                    writer,
                    200,
                    _REG.to_prometheus(),
                    content_type="text/plain; version=0.0.4",
                )
            elif method == "GET" and path == "/healthz":
                # Liveness only: a draining server is still alive.
                await _respond(writer, 200, self._health())
            elif method == "GET" and path == "/readyz":
                if self.draining:
                    await _respond(
                        writer,
                        503,
                        {"ready": False, "draining": True},
                        retry_after=self.drain_timeout,
                    )
                else:
                    await _respond(writer, 200, {"ready": True})
            elif method == "POST" and path == "/campaign":
                await self._handle_campaign(reader, writer, headers)
            else:
                await _respond(
                    writer, 404, {"error": f"no route {method} {path}"}
                )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to salvage
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _health(self) -> dict:
        return {
            "ok": True,
            "draining": self.draining,
            "jobs": len(self.jobs),
            "running": self._outstanding(),
            "executions": self.executions,
            "recovered": self.recovered,
            "replaying": sum(
                1
                for job in self.jobs.values()
                if job.detached and not job.done.is_set()
            ),
            "store": STORE.stats(),
        }

    async def _handle_campaign(self, reader, writer, headers) -> None:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await _respond(writer, 400, {"error": "bad Content-Length"})
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            await _respond(
                writer,
                400,
                {"error": f"Content-Length must be in (0, {MAX_BODY_BYTES}]"},
            )
            return
        try:
            body = await asyncio.wait_for(
                reader.readexactly(length), self.read_timeout
            )
        except asyncio.TimeoutError:
            _M_READ_TIMEOUTS.inc(phase="body")
            await _respond(
                writer,
                408,
                {
                    "error": f"request body not received within "
                    f"{self.read_timeout:g}s"
                },
            )
            return
        try:
            request = canonical_request(json.loads(body))
        except json.JSONDecodeError as error:
            await _respond(writer, 400, {"error": f"bad JSON: {error}"})
            return
        except RequestError as error:
            await _respond(writer, 400, {"error": str(error)})
            return
        if request["processes"] is None:
            request["processes"] = self.default_processes

        # Admission control.  Coalescing onto a live identical job is
        # always admitted (it adds no work); everything else is checked
        # against the drain flag and the bounded accept queue.
        if self.draining:
            _M_SHED.inc(reason="draining")
            await _respond(
                writer,
                503,
                {"error": "server is draining"},
                retry_after=max(self.drain_timeout, 1.0),
            )
            return
        live = self.jobs.get(request_fingerprint(request))
        coalescing = live is not None and not live.done.is_set()
        outstanding = self._outstanding()
        if not coalescing and outstanding >= self.workers + self.queue_limit:
            retry_after = max(1, min(30, outstanding - self.workers + 1))
            _M_SHED.inc(reason="queue-full")
            obs.event("serve.shed", outstanding=outstanding)
            await _respond(
                writer,
                429,
                {
                    "error": f"{outstanding} campaigns already outstanding "
                    f"(workers={self.workers}, queue={self.queue_limit}); "
                    f"retry later",
                    "retry_after_s": retry_after,
                },
                retry_after=retry_after,
            )
            return

        job, disposition = self.submit(request)
        queue = job.subscribe()
        _M_ACTIVE.inc()
        # EOF watch: a POST client sends nothing after the body, so a
        # completed read means it disconnected — the stream loop races
        # this against the next queue line and cancels orphaned work.
        eof_task = asyncio.ensure_future(reader.read(1))
        get_task: Optional[asyncio.Future] = None
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/x-ndjson\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"Connection: close\r\n\r\n"
            )
            await _send_chunk(
                writer,
                {
                    "event": "accepted",
                    "fingerprint": job.fingerprint,
                    "disposition": disposition,
                },
            )
            get_task = asyncio.ensure_future(queue.get())
            while True:
                await asyncio.wait(
                    {get_task, eof_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if get_task.done():
                    line = get_task.result()
                    await _send_chunk(writer, line)
                    if line.get("event") == "result":
                        break
                    get_task = asyncio.ensure_future(queue.get())
                    if not eof_task.done():
                        continue
                if eof_task.done():
                    try:
                        stray = eof_task.result()
                    except (ConnectionError, OSError):
                        stray = b""
                    if not stray:
                        return  # client disconnected mid-stream
                    eof_task = asyncio.ensure_future(reader.read(1))
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            for task in (eof_task, get_task):
                if task is not None and not task.done():
                    task.cancel()
                    with contextlib.suppress(
                        asyncio.CancelledError, Exception
                    ):
                        await task
            _M_ACTIVE.inc(-1)
            job.unsubscribe(queue)


async def _send_chunk(writer, payload: dict) -> None:
    data = (json.dumps(payload, sort_keys=True) + "\n").encode()
    writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
    await writer.drain()


async def _respond(
    writer, status: int, payload: dict, retry_after: Optional[float] = None
) -> None:
    await _respond_text(
        writer,
        status,
        json.dumps(payload, sort_keys=True) + "\n",
        content_type="application/json",
        retry_after=retry_after,
    )


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


async def _respond_text(
    writer,
    status: int,
    text: str,
    content_type: str,
    retry_after: Optional[float] = None,
) -> None:
    body = text.encode()
    reason = _REASONS.get(status, "OK")
    extra = ""
    if retry_after is not None:
        extra = f"Retry-After: {max(int(retry_after), 1)}\r\n"
    writer.write(
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: close\r\n\r\n".encode() + body
    )
    await writer.drain()


async def _serve_forever(server: CampaignServer) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for sig in (signallib.SIGTERM, signallib.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without loop signal handlers
    await server.start()
    print(
        f"repro serve: listening on http://{server.host}:{server.port} "
        f"(POST /campaign, GET /metrics, GET /healthz, GET /readyz)",
        flush=True,
    )
    if server.recovered:
        print(
            f"repro serve: recovered {server.recovered} journaled "
            f"request(s); replaying from checkpoints",
            flush=True,
        )
    try:
        await stop.wait()
        print(
            f"repro serve: draining ({server._outstanding()} in flight, "
            f"timeout {server.drain_timeout:g}s)",
            flush=True,
        )
        await server.drain()
        print("repro serve: drained, bye", flush=True)
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 8341,
    processes: Optional[int] = None,
    workers: int = 2,
    queue_limit: int = 8,
    deadline_s: Optional[float] = None,
    drain_timeout: float = 10.0,
    state_dir: Optional[str] = None,
    recover: bool = False,
    max_jobs: int = 64,
    read_timeout: float = 10.0,
) -> int:
    """Blocking entry point behind ``python -m repro serve``."""
    if os.environ.get("REPRO_CHAOS_SERVE"):
        # Test seam: the serve-chaos suite arms deliberate slowness in
        # the spawned server process through the environment.
        from .qa.chaos import install_serve_env_sabotage

        install_serve_env_sabotage()
    # Fail fast (and before asyncio swallows it) if the port is taken.
    if port:
        probe = socketlib.socket()
        try:
            probe.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
            probe.bind((host, port))
        except OSError as error:
            print(f"repro serve: cannot bind {host}:{port}: {error}")
            return 2
        finally:
            probe.close()
    if recover and state_dir is None:
        print("repro serve: --recover requires --state-dir DIR")
        return 2
    server = CampaignServer(
        host=host,
        port=port,
        processes=processes,
        workers=workers,
        queue_limit=queue_limit,
        deadline_s=deadline_s,
        drain_timeout=drain_timeout,
        state_dir=state_dir,
        recover=recover,
        max_jobs=max_jobs,
        read_timeout=read_timeout,
    )
    try:
        asyncio.run(_serve_forever(server))
    except KeyboardInterrupt:
        pass
    return 0
