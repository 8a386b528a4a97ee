"""The campaign side of ``repro serve``: what runs one request, and the
worker processes that run it.

:mod:`repro.server` keeps HTTP, admission, coalescing, the journal, the
result store and cancellation in its event-loop process.  It imports
this module at its first dispatch, just before it forks its workers, so
every worker inherits the campaign stack (and a server that has served
nothing has loaded none of it).  A worker is forked from the loop
process, runs one request at a time and never returns into the loop's
frames; the loop watches its pipe with ``loop.add_reader``.

One duplex pipe per worker carries tuples.  Loop -> worker::

    ("job", seq, request, checkpoint, resume, deadline_s, deadline)
    ("answer", seq, stored)          the reply to the job's store key
    ("cancel", seq, reason)

Worker -> loop, for job ``seq``::

    ("key", seq, key)                the content key, before any work
    ("event", seq, line)             one campaign.*/synth.* stream line
    ("result", seq, value, metrics)  value is None when it was stored
    ("error", seq, text, cancel_reason, metrics)

``deadline`` is the loop token's absolute :func:`time.monotonic` time,
which every process on the host reads alike; ``metrics`` are the
worker's metric samples for the job, which :func:`merge_metrics` adds
into the loop's registry for ``/metrics``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import signal
import stat
import time
from typing import Callable, List, Optional, Tuple

from . import obs
from .engine.campaign import FaultSweep, universe_fingerprint
from .engine.fork import KILL_GRACE
from .engine.store import STORE, program_fingerprint, text_fingerprint
from .engine.supervisor import CampaignCancelled, CancelToken, CheckpointError
from .logic.benchfmt import BenchFormatError, parse_bench
from .obs.recorder import MemoryRecorder
from .server import RequestError

_REG = obs.REGISTRY


def _campaign_job(request: dict, network, cancel: Optional[CancelToken]):
    """Store key and run step of one fault campaign.  The key is pure
    content (program + universe fingerprints + universe shape), so a
    replay does not even need the supervised runtime."""
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


def run_request(
    request: dict,
    cancel: Optional[CancelToken],
    checkpoint: Optional[str],
    resume: bool,
    lookup: Callable[[tuple], object],
) -> Tuple[tuple, object, bool]:
    """Run one request's campaign unless its result is already stored.

    Parses are deduped through this process's store (kind
    ``"network"``, by text fingerprint), so identical netlists share one
    ``Network`` — and therefore, via ``engine_for``, one compiled
    program and one cached baseline.  ``lookup`` is asked for the
    kind's content key and answers with the stored value (in a worker,
    just ``True``), or a false value to run.  Returns ``(key, value,
    replayed)``.

    ``checkpoint``/``resume`` ride the journal's state directory: a
    recovered request resumes from the work its interrupted run already
    checkpointed.  An unusable checkpoint falls back to one fresh run —
    both kinds are deterministic, so the result is identical either way.
    """
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
    value = lookup(key)
    if value:
        return key, value, True
    try:
        return key, run(checkpoint, resume), False
    except CheckpointError:
        return key, run(checkpoint, False), False


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

    def _read(self):
        """One loop message; a cancel is applied here and not returned."""
        try:
            message = self._conn.recv()
        except (EOFError, OSError):
            self.cancel("server gone")
            return None
        if message[0] != "cancel":
            return message
        if message[1] == self._seq:  # else it crossed an older job's result
            self.cancel(message[2])
        return None

    @property
    def cancelled(self) -> bool:
        while not self._cancelled and self._conn.poll():
            self._read()
        return super().cancelled

    def stored(self, key: tuple) -> bool:
        """Send the job's store key; block for the loop's answer."""
        self._conn.send(("key", self._seq, key))
        while True:
            message = self._read()
            self.check()
            if message is not None:  # the answer
                return message[2]


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


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a fresh worker inherited except its own pipe:
    the listener and client connections must not outlive the loop
    process (a client waits for EOF; a restart must rebind the port).
    Files and pipes stay, so stdio keeps working."""
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        if fd <= 2 or fd == keep:
            continue
        with contextlib.suppress(OSError):
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)


def _serve_worker(conn) -> None:
    """A campaign worker process: run jobs from ``conn`` one at a time
    until the loop process closes its end (or goes away).

    The worker was forked inside the loop process's running event loop
    and never returns into it.  It first drops the loop's signal
    wakeup fd and handlers (SIGTERM stops a worker, not the server, and
    its own fork fan-out must not reach the server either), freezes the
    inherited heap (no collection can close a socket object whose
    number was reused) and closes the inherited sockets.  Its metrics
    start empty and are drained into each job's last message; its
    store keeps only parsed networks (results live in the loop's).
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    gc.freeze()
    _close_inherited_sockets(conn.fileno())
    _REG.reset()
    STORE.clear()
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
                _key, value, replayed = run_request(
                    request, cancel, checkpoint, resume, cancel.stored
                )
            reply = ("result", seq, None if replayed else value)
        except Exception as error:
            reason = str(error) if isinstance(error, CampaignCancelled) else None
            reply = ("error", seq, f"{type(error).__name__}: {error}", reason)
        try:
            conn.send(reply + (_drain_metrics(),))
        except OSError:
            return


class Worker:
    """The server's handle on one worker process: its pid, its pipe and
    the job it runs (``seq`` numbers the jobs it has been sent)."""

    __slots__ = ("pid", "conn", "job", "seq")

    def __init__(self, pid: int, conn) -> None:
        self.pid = pid
        self.conn = conn
        self.job = None
        self.seq = 0

    @classmethod
    def spawn(cls) -> "Worker":
        """Fork a worker from the calling (event-loop) process."""
        from multiprocessing.connection import Pipe

        ours, theirs = Pipe(duplex=True)
        pid = os.fork()
        if pid == 0:  # the worker: it never returns into the loop
            code = 1
            try:
                ours.close()
                _serve_worker(theirs)
                code = 0
            finally:
                os._exit(code)
        theirs.close()
        return cls(pid, ours)

    def send(self, message) -> bool:
        """Send without raising; ``False`` means the worker is gone (its
        EOF reaches the loop's reader, which retires it)."""
        try:
            self.conn.send(message)
        except (OSError, ValueError):
            return False
        return True

    def retire(self) -> int:
        """Close the pipe and collect the process, SIGKILLing it after
        the kill grace; returns its exit code (negative: the signal
        that ended it)."""
        self.conn.close()
        deadline = time.monotonic() + KILL_GRACE
        try:
            while time.monotonic() < deadline:
                done, status = os.waitpid(self.pid, os.WNOHANG)
                if done:
                    return os.waitstatus_to_exitcode(status)
                time.sleep(0.002)
            os.kill(self.pid, signal.SIGKILL)
            return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except ChildProcessError:  # pragma: no cover - reaped elsewhere
            return 0
