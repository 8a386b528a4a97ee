"""Fault campaigns for SCAL sequential machines.

The combinational oracle (:mod:`repro.core.simulate`) is exhaustive over
inputs; sequential machines additionally carry state, so their campaigns
drive a (seeded or supplied) input stream against every fault and
classify the runs.  :func:`dualff_campaign` and :func:`codeconv_campaign`
build the fault universe: the network's fault ids, then the state
element and memory faults.  One shared loop puts every fault in its own
row of a row-parallel clocked run (:class:`~repro.engine.compiled.RowForcing`),
so one pass over the machine's compiled network (the dual flip-flop
block, or the code-conversion loop) per clock period advances the whole
universe, on the :class:`~repro.seq.simulator.Stepper` both forms share.
This is the API behind the Chapter 4 benches and the tool a user points
at their own machine:

    campaign = dualff_campaign(to_dual_flipflop(machine), vectors)
    assert campaign.dangerous == 0
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence, Tuple, Union

from ..engine.compiled import RowForcing
from ..seq.machine import StateTable
from ..seq.simulator import FlipFlopFault
from ..system.memory import single_memory_faults
from .codeconv import CodeConversionMachine
from .dualff import DualFlipFlopMachine

ClockedMachine = Union[DualFlipFlopMachine, CodeConversionMachine]


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """Outcome of a sequential single-fault campaign."""

    machine_name: str
    total: int
    detected: int
    silent: int
    dangerous: int
    dangerous_faults: Tuple[str, ...]
    mean_detection_latency: Optional[float]

    @property
    def is_fault_secure(self) -> bool:
        return self.dangerous == 0

    def summary(self) -> str:
        latency = (
            f"{self.mean_detection_latency:.1f} steps"
            if self.mean_detection_latency is not None
            else "n/a"
        )
        return (
            f"{self.machine_name}: {self.total} faults -> "
            f"detected {self.detected}, silent {self.silent}, "
            f"DANGEROUS {self.dangerous}; mean detection latency {latency}"
        )


def _campaign(
    machine: ClockedMachine,
    name: str,
    faults: Sequence[object],
    vectors: Sequence[Tuple[int, ...]],
    include_inputs: bool,
    collapse: bool,
) -> CampaignResult:
    """Clock one fault per row — the network's stem fault ids (one per
    structural equivalence class unless ``collapse=False``: equivalent
    faults give the same verdict), then ``faults`` — and classify them.

    A row is detected at the first step where a monitored output fails
    to alternate or the checker mask flags it; that step is its
    latency.  Rows the machine stops (a stuck common clock) are
    detected with no latency.  An undetected row whose decoded Z ever
    differs from the state table's run is dangerous; only those rows
    are named.
    """
    compiled = machine.stepper.compiled
    ids = compiled.universe_ids(
        include_inputs, include_pins=False, collapse=collapse, live_only=False
    )
    forcing = RowForcing(len(ids) + len(faults))
    for row, fid in enumerate(ids):
        forcing.stick_fault(compiled, (fid,), 1 << row)
    for row, fault in enumerate(faults, len(ids)):
        machine.force(forcing, row, fault)
    trace = machine.clock_rows(vectors, forcing)
    reference = machine.machine.run(list(vectors))
    n_z = len(machine.output_names)
    full = forcing.full
    detected = machine.stopped_rows(forcing)
    wrong = 0
    latency_sum = latency_count = 0
    for step, ((first, second, flags), expected) in enumerate(
        zip(trace, reference)
    ):
        bad = flags
        for a, b in zip(first, second):
            bad |= full & ~(a ^ b)
        new = bad & ~detected
        if new:
            count = new.bit_count()
            latency_sum += step * count
            latency_count += count
            detected |= new
        for value, bit in zip(first[:n_z], expected):
            wrong |= value ^ (full if bit else 0)
    dangerous = wrong & ~detected
    bad_labels = tuple(
        (compiled.fault(ids[row]) if row < len(ids) else faults[row - len(ids)])
        .describe()
        for row in range(forcing.rows)
        if dangerous >> row & 1
    )
    n_detected = detected.bit_count()
    return CampaignResult(
        machine_name=name,
        total=forcing.rows,
        detected=n_detected,
        silent=forcing.rows - n_detected - len(bad_labels),
        dangerous=len(bad_labels),
        dangerous_faults=bad_labels,
        mean_detection_latency=(
            latency_sum / latency_count if latency_count else None
        ),
    )


def dualff_campaign(
    machine: DualFlipFlopMachine,
    vectors: Sequence[Tuple[int, ...]],
    include_inputs: bool = False,
    include_flip_flops: bool = True,
    collapse: bool = True,
) -> CampaignResult:
    """Single-fault campaign over a dual flip-flop machine: every
    combinational stem fault (collapsed to equivalence-class
    representatives unless ``collapse=False``) plus (optionally) every
    flip-flop stage output stuck."""
    faults = [
        FlipFlopFault(line, stage, value)
        for _ff, line, stage in (e.site for e in machine.stepper.elements)
        for value in (0, 1)
        if include_flip_flops
    ]
    name = machine.circuit.name
    return _campaign(machine, name, faults, vectors, include_inputs, collapse)


def codeconv_campaign(
    machine: CodeConversionMachine,
    vectors: Sequence[Tuple[int, ...]],
    include_inputs: bool = False,
    collapse: bool = True,
) -> CampaignResult:
    """Single-fault campaign over a code-conversion machine: every stem
    fault of the loop network, translator lines included (collapsed
    unless ``collapse=False``), every ALPT latch output stuck, and every
    memory fault."""
    faults: List = [
        FlipFlopFault(latch, 0, value)
        for latch in machine.latch_names
        for value in (0, 1)
    ]
    faults += single_memory_faults(
        machine.encoding.width, machine.memory.address_bits
    )
    name = f"{machine.machine.name}_codeconv"
    return _campaign(machine, name, faults, vectors, include_inputs, collapse)


def random_vectors(
    machine: StateTable, length: int, seed: int = 0
) -> List[Tuple[int, ...]]:
    """A seeded input stream exercising the machine."""
    rnd = random.Random(seed)
    return [
        tuple(rnd.randint(0, 1) for _ in range(machine.n_inputs))
        for _ in range(length)
    ]
