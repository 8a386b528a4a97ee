"""The campaign side of ``repro serve``: what runs one request, and the
worker processes that run it.

:mod:`repro.server` keeps HTTP, admission, coalescing, replays, the
journal and cancellation in its event-loop process.  It imports
this module at its first dispatch, just before it forks its workers, so
every worker inherits the campaign stack (and a server that has served
nothing has loaded none of it).  A worker is a
:class:`~repro.engine.fork.Child` forked from the loop process — the one
fork primitive, which also drops the loop's signal state and closes the
listener and client sockets in the child.  It runs one request at a
time and never returns into the loop's frames; the loop watches its
pipe with ``loop.add_reader`` and ends it with ``Child.retire``.

One duplex pipe per worker carries tuples.  Loop -> worker::

    ("job", seq, request, checkpoint, resume, deadline_s, deadline)
    ("cancel", seq, reason)

Worker -> loop, for job ``seq``::

    ("event", seq, line)             one campaign.*/synth.* stream line
    ("result", seq, value, metrics)
    ("error", seq, text, cancel_reason, metrics)

``deadline`` is the loop token's absolute :func:`time.monotonic` time,
which every process on the host reads alike; ``metrics`` are the
worker's metric samples for the job, which :func:`merge_metrics` adds
into the loop's registry for ``/metrics``.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from . import obs
from .engine.campaign import FaultSweep
from .engine.fork import Child
from .engine.supervisor import CampaignCancelled, CancelToken, CheckpointError
from .logic.benchfmt import BenchFormatError, parse_bench
from .obs.recorder import MemoryRecorder
from .server import RequestError

_REG = obs.REGISTRY


def _run_campaign(
    request: dict,
    network,
    cancel: Optional[CancelToken],
    checkpoint: Optional[str],
    resume: bool,
) -> dict:
    """One fault campaign over the request's universe."""
    sweep = FaultSweep(network)
    pairs = sweep.sweep(
        sweep.compiled.universe_ids(collapse=request["collapse"]),
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


def _run_synth(
    request: dict,
    network,
    cancel: Optional[CancelToken],
    checkpoint: Optional[str],
    resume: bool,
) -> dict:
    """One synthesis campaign (from a spec) or repair campaign (from
    the request's netlist)."""
    from .synth.campaign import SynthCampaign, repair_campaign
    from .synth.specs import SPECS

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
        campaign = SynthCampaign(SPECS[request["spec"]], **common)
    else:
        campaign = repair_campaign(network, damage=request["damage"], **common)
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


#: Request kind -> ``(request, network, cancel, checkpoint, resume) ->
#: value``.
_JOBS = {"campaign": _run_campaign, "synth": _run_synth}


def run_request(
    request: dict,
    cancel: Optional[CancelToken] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> dict:
    """Parse the request's netlist and run its campaign.

    ``checkpoint``/``resume`` ride the journal's state directory: a
    recovered request resumes from the work its interrupted run already
    checkpointed.  An unusable checkpoint falls back to one fresh run —
    both kinds are deterministic, so the result is identical either way.
    """
    if cancel is not None:
        cancel.check()
    network = None
    if request["netlist"] is not None:
        try:
            network = parse_bench(request["netlist"], name="serve")
        except BenchFormatError as error:
            raise RequestError(f"netlist does not parse: {error}")
    run = _JOBS[request["kind"]]
    try:
        return run(request, network, cancel, checkpoint, resume)
    except CheckpointError:
        return run(request, network, cancel, checkpoint, False)


def _drain_metrics() -> List[tuple]:
    """Hand over (and clear) this process's metric samples as
    picklable ``(kind, name, help, options, values)`` rows."""
    rows = []
    for metric in _REG._metrics.values():
        if metric._values:
            options = (
                {"buckets": metric.bounds}
                if isinstance(metric, obs.Histogram)
                else {}
            )
            rows.append(
                (metric.kind, metric.name, metric.help, options, metric._values)
            )
            metric._values = {}
    return rows


def merge_metrics(rows: List[tuple]) -> None:
    """Add a worker's drained samples in, registering any metric the
    loop process has not: counters and histograms sum, gauges take the
    shipped value."""
    for kind, name, help, options, values in rows:
        metric = getattr(_REG, kind)(name, help, **options)
        for key, value in values.items():
            old = metric._values.get(key)
            if old is not None and kind == "counter":
                value += old
            elif old is not None and kind == "histogram":
                counts, total, count = old  # per-bucket counts, sum, count
                value = [
                    [a + b for a, b in zip(counts, value[0])],
                    total + value[1],
                    count + value[2],
                ]
            metric._values[key] = value


class _WorkerToken(CancelToken):
    """A served job's token inside its worker.  It fires at the job's
    deadline — the loop token's absolute :func:`time.monotonic` time,
    which every process on the host reads alike — or on the loop's
    ``cancel`` message, which every check of the token reads off the
    pipe without blocking; a vanished loop process cancels it too."""

    __slots__ = ("_conn", "_seq")

    def __init__(self, conn, seq: int, deadline_s, deadline) -> None:
        super().__init__(deadline_s)
        self._deadline = deadline
        self._conn = conn
        self._seq = seq

    @property
    def cancelled(self) -> bool:
        while not self._cancelled and self._conn.poll():
            try:
                _tag, seq, reason = self._conn.recv()
            except (EOFError, OSError):
                self.cancel("server gone")
                break
            if seq == self._seq:  # else it crossed an older job's result
                self.cancel(reason)
        return super().cancelled


class _StreamRecorder(MemoryRecorder):
    """A worker's flight recorder for one job: every ``campaign.*`` or
    ``synth.*`` event goes to the loop process as a pipe message as it
    happens, and nothing is kept.  Events of the job's own fork fan-out
    reach it through :meth:`merge`."""

    def __init__(self, conn, seq: int) -> None:
        super().__init__()
        self._conn = conn
        self._seq = seq

    def emit(self, event: dict) -> None:
        if os.getpid() != self._pid:  # a fan-out child of this worker
            self._child_buffer.append(event)
            return
        name = event.get("name", "")
        if event.get("k") == "event" and name.startswith(
            ("campaign.", "synth.")
        ):
            line = {"event": name, "t": event.get("t")}
            line.update(event.get("attrs") or {})
            self._conn.send(("event", self._seq, line))


def _serve_worker(conn) -> None:
    """A campaign worker process: run jobs from ``conn`` one at a time
    until the loop process closes its end (or goes away).

    :meth:`Child.spawn <repro.engine.fork.Child.spawn>` forked it
    inside the loop process's running event loop, reset the loop's
    signal state and closed the listener and client sockets.  Its
    metrics start empty and are drained into each job's last message.
    """
    _REG.reset()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] != "job":
            continue  # a cancel that crossed its job's result
        _tag, seq, request, checkpoint, resume, deadline_s, deadline = message
        cancel = _WorkerToken(conn, seq, deadline_s, deadline)
        try:
            with obs.recording(recorder=_StreamRecorder(conn, seq)):
                value = run_request(request, cancel, checkpoint, resume)
            reply = ("result", seq, value)
        except Exception as error:
            reason = str(error) if isinstance(error, CampaignCancelled) else None
            reply = ("error", seq, f"{type(error).__name__}: {error}", reason)
        try:
            conn.send(reply + (_drain_metrics(),))
        except OSError:
            return


class Worker(Child):
    """The server's handle on one worker process: a :class:`Child`
    running :func:`_serve_worker`, plus the job it runs (``seq``
    numbers the jobs it has been sent)."""

    __slots__ = ("job", "seq")

    def __init__(self, pid: int, conn) -> None:
        super().__init__(pid, conn)
        self.job = None
        self.seq = 0

    @classmethod
    def spawn(cls) -> "Worker":
        """Fork a worker from the calling (event-loop) process."""
        return super().spawn(_serve_worker)
