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

Bulk sweeps route through a backend-selection rule
(:func:`~repro.engine.vectorized.select_backend`): up to 20 inputs they
run on the big-int stem-region path, wider ones on the chunked NumPy
block backend (without NumPy every sweep runs on the big-int path, and
:func:`~repro.engine.vectorized.resolve_rung` refuses exhaustive
sweeps the big-int tables cannot hold).  Execution —
serial or fanned out across supervised fork workers with per-chunk
timeouts, retries, checkpoint/resume, and the explicit
fork → serial → scalar degradation ladder — is delegated to
:func:`repro.engine.supervisor.run_campaign`; every sweep leaves a
structured :class:`~repro.engine.supervisor.CampaignReport` in
:attr:`FaultSweep.last_report`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Tuple

from ..logic.network import Network
from .compiled import FaultLike
from .supervisor import CampaignReport, CancelToken, run_campaign
from .vectorized import classify_status, resolve_rung, select_backend


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


#: Backend names accepted by :meth:`FaultSweep.sweep`.
SWEEP_BACKENDS = ("auto", "bitmask", "vectorized")


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
        #: Name of the backend the most recent :meth:`sweep` ran on
        #: (``"fork:<name>"`` when fanned out across workers).
        self.last_sweep_backend: Optional[str] = None
        #: Structured :class:`CampaignReport` of the most recent
        #: :meth:`sweep` — backend, degradations, retries, wall time.
        self.last_report: Optional[CampaignReport] = None

    @property
    def full(self) -> int:
        """The all-ones 2^n-bit input-space mask, built lazily: on a
        >MAX_BITMASK_INPUTS circuit it raises the bitmask backend's
        clear ``ValueError`` instead of allocating."""
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

    def _resolve_backend(self, backend: str) -> str:
        if backend not in SWEEP_BACKENDS:
            raise ValueError(
                f"unknown sweep backend {backend!r}; "
                f"expected one of {SWEEP_BACKENDS}"
            )
        if backend == "auto":
            backend = select_backend(self.n)
        return resolve_rung(self.engine, backend)

    def sweep(
        self,
        faults: Iterable[FaultLike],
        processes: Optional[int] = None,
        backend: str = "auto",
        timeout: Optional[float] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        chunk_faults: Optional[int] = None,
        abort_after_chunks: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
    ) -> List[Tuple[FaultLike, str]]:
        """Classify every fault under the supervised campaign runtime.

        ``backend`` is ``auto`` (the :func:`select_backend` rule),
        ``bitmask`` (big-int masks, pure Python), or ``vectorized``
        (NumPy fault-batched; degrades to ``bitmask`` without NumPy).
        A sweep that resolves to ``bitmask`` on a circuit beyond
        :data:`~repro.engine.backends.MAX_BITMASK_INPUTS` inputs raises
        ``ValueError`` before any chunk runs.  With ``processes > 1``
        the universe is fanned out across supervised fork-worker lanes
        (:mod:`repro.engine.fork`): each chunk carries an optional
        per-chunk ``timeout`` (seconds), failed or hung chunks are
        retried and re-chunked smaller on repeat failure, and dead
        workers are replaced instead of aborting the sweep.  ``checkpoint`` names a
        JSON artifact that records completed chunks after each one;
        ``resume=True`` reloads it and re-simulates only the uncovered
        remainder (statuses are byte-identical either way).  Every
        fallback taken is recorded in :attr:`last_report`;
        ``abort_after_chunks`` is the deliberate-interruption hook used
        by tests and resume drills.  ``cancel`` threads a
        :class:`~repro.engine.supervisor.CancelToken` into the
        supervision loop: a fired token (explicit cancel or blown
        deadline) raises
        :class:`~repro.engine.supervisor.CampaignCancelled` within one
        poll interval, with completed chunks already checkpointed.
        """
        universe = list(faults)
        chosen = self._resolve_backend(backend)
        statuses, report = run_campaign(
            self,
            universe,
            chosen,
            processes=processes,
            timeout=timeout,
            checkpoint=checkpoint,
            resume=resume,
            chunk_faults=chunk_faults,
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
        backend: str = "auto",
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
            backend=backend,
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
    structured report: ``"fork:<block>"`` for fanned-out sweeps, the
    plain block-backend name otherwise."""
    if report.backend.startswith("fork"):
        return f"fork:{report.block_backend}"
    return report.block_backend
