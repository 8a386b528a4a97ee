"""Batched multi-fault campaign driver over the compiled engine.

A fault campaign asks one question many times: "how does this network
respond to fault *f*?".  :class:`FaultSweep` amortizes everything that is
fault-independent — the compiled op program, the fault-free baseline
masks, the per-output alternation masks and, on the big-int rung, the
stem regions with one flip simulation per fanout stem — so each fault
costs only a handful of integer operations.

The SCAL pair-level classification lives here in raw-integer form (the
:class:`~repro.core.simulate.ScalSimulator` wraps it back into
:class:`TruthTable` objects for the thesis-facing API):

* **affected** — pairs where some output differs from fault-free,
* **detected** — pairs where some output is nonalternating,
* **violations** — pairs where some output is wrong yet every output
  alternates: the undetected fault-secure violation of Theorem 3.1.

Every exhaustive sweep classifies through :class:`FaultItems`, the one
tile loop: by the stem-region path of
:class:`~repro.engine.backends.BitmaskBackend`, on the whole table up to
:data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs and per pair
tile above, on fault ids resolved once per sweep.  Its items are the
faults themselves up to that cut, and
tile-major ``(tile, fault)`` pairs above it, so consecutive chunks share
a tile and each process derives each tile once; a fault's status is its
most severe over the tiles.  Scheduling — serial or fanned
out across supervised fork workers with per-chunk timeouts, retries,
checkpoint/resume, cancellation and the explicit fork → serial
degradation ladder — is delegated to
:func:`repro.engine.supervisor.run_campaign`, which sees only index
ranges.  Everything that knows what an item is stays here: the
``campaign.run`` span, the ``campaign.report``/``campaign.cancelled``
events, the wall-time and status metrics and the checkpoint identity
(:func:`universe_fingerprint`).  Every sweep leaves a structured
:class:`~repro.engine.supervisor.CampaignReport` in
:attr:`FaultSweep.last_report`.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
from typing import Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..logic.network import Network
from .compiled import FaultLike
from .durable import CheckpointError
from .supervisor import (
    VALID_STATUSES,
    CampaignCancelled,
    CampaignCheckpoint,
    CampaignReport,
    CancelToken,
    ChunkKind,
    run_campaign,
)
from .backends import (
    NetworkEngine,
    classify_status,
    engine_for,
    most_severe,
    tile_count,
)

_REG = obs.REGISTRY
#: Items classified by supervised chunks, by chunk kind: faults, or
#: ``(tile, fault)`` pairs above the untiled cut, or synthesis
#: candidates.
CHUNK_FAULTS = _REG.counter(
    "repro_campaign_chunk_faults_total",
    "Items classified by supervised chunks (faults, (tile, fault) pairs "
    "or synthesis candidates), by backend",
)
_M_FAULTS = _REG.counter(
    "repro_campaign_faults_total", "Faults classified by campaigns, by status"
)
_M_CANCELLED = _REG.counter(
    "repro_campaign_cancelled_total",
    "Campaigns cancelled cooperatively, by reason kind",
)
_M_WALL = _REG.histogram(
    "repro_campaign_wall_seconds", "End-to-end campaign wall time"
)


@dataclasses.dataclass(frozen=True)
class ResponseBits:
    """Pair-level response masks of one fault, as raw integers."""

    affected: int
    detected: int
    violations: int

    @property
    def status(self) -> str:
        """``dangerous`` | ``detected`` | ``silent`` — the Section 2.4
        coverage buckets (dangerous = fault-secure violation)."""
        return classify_status(self.detected, self.violations)


def universe_fingerprint(universe: Sequence, n_inputs: int) -> str:
    """Identity of a campaign: the ordered fault universe plus the
    input width.  Statuses are backend-independent, so this is all a
    checkpoint needs to match to be resumable."""
    digest = hashlib.sha256()
    digest.update(f"n_inputs={n_inputs}".encode())
    for fault in universe:
        describe = getattr(fault, "describe", None)
        name = describe() if callable(describe) else repr(fault)
        digest.update(b"\x00" + name.encode())
    return digest.hexdigest()


class FaultItems:
    """The items of one supervised sweep, and the host its chunks read.

    Item ``i`` is fault ``i % F`` on table ``i // F`` of
    :func:`~repro.engine.backends.tile_count`: tile-major ``(tile,
    fault)`` pairs, which up to
    :data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs (one
    table) are just the faults.  Consecutive ranges share a tile and
    the most recent tile is kept, so a process that evaluates its
    ranges in order derives each tile once.  The faults become fault ids
    once, here, and fork workers inherit the ids.  :meth:`merge` folds
    item statuses back into one most severe status per fault, and
    :meth:`all_statuses` classifies every item in one range and merges.
    """

    def __init__(self, network: Network, engine, faults: Sequence) -> None:
        self.network = network
        self.engine = engine
        self.faults = list(faults)
        self.ids = [engine.compiled.fault_ids(fault) for fault in self.faults]
        self.tiles = tile_count(engine.compiled.n_inputs)
        self._tile: Tuple[int, object] = (-1, None)

    def __len__(self) -> int:
        return self.tiles * len(self.faults)

    def statuses(self, start: int, stop: int, cone: bool = False) -> List[str]:
        """Statuses of items ``start:stop``: by stem regions, or with
        ``cone=True`` by every fault's cone plan (the reference the stem
        regions are checked against).  Every chunk classifies through
        this span, so the flight's count of successful ``sweep.chunk``
        spans equals the report's chunk ledger; its ``faults`` attribute
        counts the chunk's items."""
        backend = "cone" if cone else "bitmask"
        n_faults = len(self.faults)
        statuses: List[str] = []
        with obs.span("sweep.chunk", faults=stop - start, backend=backend):
            for tile in range(start // n_faults, -(-stop // n_faults)):
                lo = max(start - tile * n_faults, 0)
                hi = min(stop - tile * n_faults, n_faults)
                statuses += self._table(tile)._classify(
                    self.ids[lo:hi], cone
                )
        if _REG.enabled:
            CHUNK_FAULTS.inc(stop - start, backend=backend)
        return statuses

    def _table(self, tile: int):
        if self._tile[0] != tile:
            self._tile = (tile, self.engine.bitmask.tile(tile))
        return self._tile[1]

    def merge(self, statuses: Sequence[str]) -> List[str]:
        """Each fault's most severe status over the tiles."""
        n_faults = len(self.faults)
        merged = list(statuses[:n_faults])
        for tile in range(1, self.tiles):
            start = tile * n_faults
            merged = most_severe(merged, statuses[start : start + n_faults])
        return merged

    def all_statuses(self, cone: bool = False) -> List[str]:
        """Every fault's status, unsupervised: all items as one range,
        merged over the tiles."""
        return self.merge(self.statuses(0, len(self), cone=cone))


def _worker_items(items: FaultItems) -> FaultItems:
    """The inherited items, fault ids included, over an engine of the
    worker's own, so each fork worker derives the tables its chunks
    read."""
    worker = copy.copy(items)
    worker.engine = NetworkEngine(items.network)
    worker._tile = (-1, None)
    return worker


#: Fault classification by stem regions: the host is a
#: :class:`FaultItems` and the payloads are statuses.
FAULT_CHUNKS = ChunkKind(
    name="bitmask",
    evaluate=lambda items, start, stop: items.statuses(start, stop),
    worker_host=_worker_items,
)

#: The same classification re-simulating every fault's cone plan: the
#: reference the stem regions are checked against.
CONE_CHUNKS = dataclasses.replace(
    FAULT_CHUNKS,
    name="cone",
    evaluate=lambda items, start, stop: items.statuses(
        start, stop, cone=True
    ),
)

#: Backend names accepted by :meth:`FaultSweep.sweep`, each mapped to
#: the chunk kind it runs: ``auto`` and ``bitmask`` are the stem-region
#: sweep, and ``vectorized`` (the name of a retired NumPy rung, kept for
#: callers that ask for an independent check) is every fault's cone
#: plan over the same tiles.
SWEEP_RUNGS = {
    "auto": FAULT_CHUNKS,
    "bitmask": FAULT_CHUNKS,
    "vectorized": CONE_CHUNKS,
}


class FaultSweep:
    """Compile once, baseline once, then classify faults in batches.

    ``engine`` lets callers that insist on fresh state (the QA
    determinism properties) supply their own
    :class:`~repro.engine.NetworkEngine`; by default the weakly-cached
    shared engine of ``network`` is used, so every sweep over the same
    network instance shares baselines and fault plans.
    """

    def __init__(self, network: Network, engine=None) -> None:
        self.network = network
        self.engine = engine if engine is not None else engine_for(network)
        self.compiled = self.engine.compiled
        self.n = self.compiled.n_inputs
        #: Structured :class:`CampaignReport` of the most recent
        #: :meth:`sweep` — backend, degradations, retries, wall time.
        self.last_report: Optional[CampaignReport] = None

    @property
    def full(self) -> int:
        """The all-ones 2^n-bit input-space mask, built lazily: on a
        circuit beyond the whole-table ceiling it raises the bitmask
        backend's clear ``ValueError`` instead of allocating."""
        return self.engine.bitmask.full

    def response_bits(self, fault: FaultLike) -> ResponseBits:
        """The pair-level response masks for one fault."""
        return ResponseBits(*self.engine.bitmask.response_triple(fault))

    def classify(self, fault: FaultLike) -> str:
        return self.response_bits(fault).status

    # ------------------------------------------------------------------
    # batched drivers
    # ------------------------------------------------------------------
    def single_fault_universe(
        self, include_inputs: bool = True, include_pins: bool = True
    ) -> List[FaultLike]:
        """All single faults on lines that can reach some output (dead
        lines are not lines of the network in the thesis's sense), less
        the pin faults folded into their stem by the non-fanout branch
        rule: the uncollapsed campaign universe."""
        return self.compiled.fault_universe(
            include_inputs, include_pins, collapse=False
        )

    def sweep(
        self,
        faults: Iterable[FaultLike],
        processes: Optional[int] = None,
        backend: str = "auto",
        timeout: Optional[float] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        cancel: Optional[CancelToken] = None,
    ) -> List[Tuple[FaultLike, str]]:
        """Classify every fault under the supervised campaign runtime.

        ``backend`` names the chunk kind (:data:`SWEEP_RUNGS`): ``auto`` and
        ``bitmask`` classify by stem regions, ``vectorized`` re-simulates
        every fault's cone plan; the statuses are identical.  Width is a
        question of time only: above
        :data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs the
        sweep's items are tile-major ``(tile, fault)`` pairs
        (:class:`FaultItems`).  With ``processes > 1``
        the items are fanned out across supervised fork-worker lanes
        (:mod:`repro.engine.fork`): each chunk carries an optional
        per-chunk ``timeout`` (seconds), failed or hung chunks are
        retried and re-chunked smaller on repeat failure, and dead
        workers are replaced instead of aborting the sweep.
        ``checkpoint`` names a JSON artifact that records completed
        chunks after each one; ``resume=True`` reloads it (keyed by
        :func:`universe_fingerprint` and the item count, so the backend
        that wrote it does not matter) and re-simulates only the
        uncovered remainder (statuses are byte-identical either way).
        Every fallback taken is recorded in :attr:`last_report`.
        ``cancel`` threads a
        :class:`~repro.engine.supervisor.CancelToken` into the
        supervision loop, the one way a sweep stops early: a fired token
        (explicit cancel or blown deadline) raises
        :class:`~repro.engine.supervisor.CampaignCancelled` within one
        poll interval, with completed chunks already checkpointed.

        One :class:`~repro.obs.Stopwatch` times the whole campaign;
        ``report.wall_seconds`` is assigned exactly once from it, and the
        flight's ``campaign.report`` event carries that same value, so
        the two records cannot disagree.
        """
        if backend not in SWEEP_RUNGS:
            raise ValueError(
                f"unknown sweep backend {backend!r}; "
                f"expected one of {tuple(SWEEP_RUNGS)}"
            )
        if resume and checkpoint is None:
            raise CheckpointError("resume requires a checkpoint path")
        kind = SWEEP_RUNGS[backend]
        items = FaultItems(self.network, self.engine, faults)
        universe = items.faults
        ckpt = None
        if checkpoint is not None:
            ckpt = CampaignCheckpoint(
                checkpoint, universe_fingerprint(universe, self.n), len(items)
            )
            if resume:
                ckpt.load()
        watch = obs.Stopwatch()
        with obs.span(
            "campaign.run", faults=len(universe), backend=kind.name,
            processes=processes or 0,
        ):
            try:
                statuses, report = run_campaign(
                    items,
                    len(items),
                    kind,
                    processes=processes,
                    timeout=timeout,
                    checkpoint=ckpt,
                    cancel=cancel,
                )
            except CampaignCancelled as error:
                reason_kind = (
                    "deadline"
                    if str(error).startswith("deadline exceeded")
                    else "explicit"
                )
                _M_CANCELLED.inc(kind=reason_kind)
                obs.event(
                    "campaign.cancelled",
                    reason=str(error),
                    wall_seconds=watch.elapsed(),
                )
                raise
        report.wall_seconds = watch.elapsed()
        report.faults = len(universe)
        statuses = items.merge(statuses)
        if _REG.enabled:
            _M_WALL.observe(report.wall_seconds)
            for status in VALID_STATUSES:
                count = statuses.count(status)
                if count:
                    _M_FAULTS.inc(count, status=status)
        obs.event("campaign.report", **report.to_dict())
        self.last_report = report
        return list(zip(universe, statuses))

    def coverage(
        self,
        faults: Optional[Sequence[FaultLike]] = None,
        processes: Optional[int] = None,
        timeout: Optional[float] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
    ) -> dict:
        """Section 2.4 coverage fractions over a fault universe."""
        universe = (
            list(faults) if faults is not None else self.single_fault_universe()
        )
        counts = {"detected": 0, "silent": 0, "dangerous": 0}
        for _fault, status in self.sweep(
            universe,
            processes=processes,
            timeout=timeout,
            checkpoint=checkpoint,
            resume=resume,
        ):
            counts[status] += 1
        total = max(len(universe), 1)
        return {
            "faults": float(len(universe)),
            "detected": counts["detected"] / total,
            "silent": counts["silent"] / total,
            "dangerous": counts["dangerous"] / total,
        }
