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

Bulk sweeps run the one exhaustive sweep,
:meth:`~repro.engine.backends.BitmaskBackend.sweep_statuses`: the
stem-region path, per pair tile above
:data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs.  Execution —
serial or fanned out across supervised fork workers with per-chunk
timeouts, retries, checkpoint/resume, and the explicit
fork → serial degradation ladder — is delegated to
:func:`repro.engine.supervisor.run_campaign`; every sweep leaves a
structured :class:`~repro.engine.supervisor.CampaignReport` in
:attr:`FaultSweep.last_report`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..logic.network import Network
from .compiled import FaultLike
from .durable import CheckpointError
from .supervisor import (
    CampaignCheckpoint,
    CampaignReport,
    CancelToken,
    ChunkKind,
    run_campaign,
    universe_fingerprint,
)
from .backends import chunk_statuses, classify_status


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


def _worker_sweep(sweep: "FaultSweep") -> "FaultSweep":
    """A sweep over the inherited network with an engine of its own, so
    each fork worker derives the tables its chunks read."""
    from . import NetworkEngine  # local: engine/__init__ imports us

    return FaultSweep(sweep.network, engine=NetworkEngine(sweep.network))


#: Fault classification by stem regions: the host is a
#: :class:`FaultSweep` and the payloads are statuses.
FAULT_CHUNKS = ChunkKind(
    name="bitmask",
    evaluate=lambda sweep, faults: chunk_statuses(sweep.engine, faults),
    worker_host=_worker_sweep,
    span=lambda n_faults, processes: obs.span(
        "campaign.run", faults=n_faults, backend="bitmask", processes=processes
    ),
)

#: The same classification re-simulating every fault's cone plan: the
#: reference the stem regions are checked against.
CONE_CHUNKS = dataclasses.replace(
    FAULT_CHUNKS,
    name="cone",
    evaluate=lambda sweep, faults: chunk_statuses(
        sweep.engine, faults, cone=True
    ),
    span=lambda n_faults, processes: obs.span(
        "campaign.run", faults=n_faults, backend="cone", processes=processes
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
        from . import engine_for  # local: engine/__init__ imports us

        self.network = network
        self.engine = engine if engine is not None else engine_for(network)
        self.compiled = self.engine.compiled
        self.n = self.compiled.n_inputs
        #: Name of the chunk kind the most recent :meth:`sweep` ran
        #: (``"fork:<name>"`` when fanned out across workers).
        self.last_sweep_backend: Optional[str] = None
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
        abort_after_chunks: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List[Tuple[FaultLike, str]]:
        """Classify every fault under the supervised campaign runtime.

        ``backend`` names the chunk kind (:data:`SWEEP_RUNGS`): ``auto`` and
        ``bitmask`` classify by stem regions, ``vectorized`` re-simulates
        every fault's cone plan; the statuses are identical.  Width is a
        question of time only: above
        :data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs the
        sweep runs per pair tile.  With ``processes > 1``
        the universe is fanned out across supervised fork-worker lanes
        (:mod:`repro.engine.fork`): each chunk carries an optional
        per-chunk ``timeout`` (seconds), failed or hung chunks are
        retried and re-chunked smaller on repeat failure, and dead
        workers are replaced instead of aborting the sweep.
        ``checkpoint`` names a JSON artifact that records completed
        chunks after each one; ``resume=True`` reloads it (keyed by
        :func:`~repro.engine.supervisor.universe_fingerprint`, so the
        backend that wrote it does not matter) and re-simulates only the
        uncovered remainder (statuses are byte-identical either way).
        Every
        fallback taken is recorded in :attr:`last_report`;
        ``abort_after_chunks`` is the deliberate-interruption hook used
        by tests and resume drills.  ``cancel`` threads a
        :class:`~repro.engine.supervisor.CancelToken` into the
        supervision loop: a fired token (explicit cancel or blown
        deadline) raises
        :class:`~repro.engine.supervisor.CampaignCancelled` within one
        poll interval, with completed chunks already checkpointed.
        """
        if backend not in SWEEP_RUNGS:
            raise ValueError(
                f"unknown sweep backend {backend!r}; "
                f"expected one of {tuple(SWEEP_RUNGS)}"
            )
        if resume and checkpoint is None:
            raise CheckpointError("resume requires a checkpoint path")
        universe = list(faults)
        ckpt = None
        if checkpoint is not None:
            ckpt = CampaignCheckpoint(
                checkpoint, universe_fingerprint(universe, self.n),
                len(universe),
            )
            if resume:
                ckpt.load()
        statuses, report = run_campaign(
            self,
            universe,
            SWEEP_RUNGS[backend],
            processes=processes,
            timeout=timeout,
            checkpoint=ckpt,
            abort_after_chunks=abort_after_chunks,
            cancel=cancel,
        )
        self.last_report = report
        self.last_sweep_backend = _legacy_backend_name(report)
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


def _legacy_backend_name(report: CampaignReport) -> str:
    """The :attr:`FaultSweep.last_sweep_backend` convention predating the
    structured report: ``"fork:<kind>"`` for fanned-out sweeps, the
    plain chunk kind's name otherwise."""
    if report.backend.startswith("fork"):
        return f"fork:{report.block_backend}"
    return report.block_backend
