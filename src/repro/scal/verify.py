"""Fault campaigns for SCAL sequential machines.

The combinational oracle (:mod:`repro.core.simulate`) is exhaustive over
inputs; sequential machines additionally carry state, so their campaigns
drive a (seeded or supplied) input stream against every fault and
classify the runs.  :func:`dualff_campaign` and :func:`codeconv_campaign`
build the fault universe; one shared loop puts every fault in its own row
of a row-parallel clocked run (:class:`~repro.engine.compiled.RowForcing`,
added by the machine's ``force``), so one pass over the compiled block
per clock period advances the whole universe.  This is the API behind
the Chapter 4 benches and the tool a user points at their own machine:

    campaign = dualff_campaign(to_dual_flipflop(machine), vectors)
    assert campaign.dangerous == 0
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence, Tuple, Union

from ..engine.compiled import RowForcing, compile_network
from ..logic.faults import Fault
from ..seq.machine import StateTable
from ..seq.simulator import FlipFlopFault
from ..system.memory import single_memory_faults
from .codeconv import CodeConversionMachine
from .dualff import DualFlipFlopMachine
from .translators import TranslatorFault

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
    universe: Sequence[object],
    labels: Sequence[str],
    vectors: Sequence[Tuple[int, ...]],
) -> CampaignResult:
    """Clock ``universe`` one fault per row (row ``r`` is ``labels[r]``)
    and classify every row.

    A row is detected at the first step where a monitored output fails
    to alternate or the checker mask flags it; that step is its
    latency.  Rows the machine stops (a stuck common clock) are
    detected with no latency.  An undetected row whose decoded Z ever
    differs from the state table's run is dangerous.
    """
    forcing = RowForcing(len(universe))
    for row, fault in enumerate(universe):
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
        label for row, label in enumerate(labels) if dangerous >> row & 1
    )
    n_detected = detected.bit_count()
    return CampaignResult(
        machine_name=name,
        total=len(labels),
        detected=n_detected,
        silent=len(labels) - n_detected - len(bad_labels),
        dangerous=len(bad_labels),
        dangerous_faults=bad_labels,
        mean_detection_latency=(
            latency_sum / latency_count if latency_count else None
        ),
    )


def _stem_universe(
    network, include_inputs: bool, collapse: bool
) -> List[Fault]:
    """Combinational stem faults for a campaign, collapsed by default.

    Structurally equivalent faults have identical faulty functions at
    every evaluation, so one representative per class preserves the
    campaign verdict while skipping the duplicate clocked runs.  Pass
    ``collapse=False`` for the raw stem universe.
    """
    return compile_network(network).fault_universe(
        include_inputs, include_pins=False, collapse=collapse, live_only=False
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
    circuit = machine.circuit
    universe: List = _stem_universe(circuit.network, include_inputs, collapse)
    if include_flip_flops:
        universe += [
            FlipFlopFault(state_line, stage, value)
            for state_line in circuit.stages
            for stage in range(circuit.depth)
            for value in (0, 1)
        ]
    labels = [fault.describe() for fault in universe]
    return _campaign(machine, circuit.name, universe, labels, vectors)


def codeconv_campaign(
    machine: CodeConversionMachine,
    vectors: Sequence[Tuple[int, ...]],
    include_inputs: bool = False,
    collapse: bool = True,
) -> CampaignResult:
    """Single-fault campaign over a code-conversion machine: every
    combinational stem fault (collapsed unless ``collapse=False``),
    every translator line class, every memory fault."""
    width = machine.encoding.width
    universe: List[Tuple[str, object]] = [
        ("comb", fault)
        for fault in _stem_universe(machine.network, include_inputs, collapse)
    ]
    alpt_sites = [(s, k) for s in "abcde" for k in range(width)]
    alpt_sites += [("f", 0), ("i", 0), ("h", 0), ("g", 0)]
    palt_sites = [(s, k) for s in "abcde" for k in range(width)]
    palt_sites += [("f", 0), ("g", 0), ("h", 0)]
    for unit, sites in (("alpt", alpt_sites), ("palt", palt_sites)):
        universe += [
            (unit, TranslatorFault(site, k, value))
            for site, k in sites
            for value in (0, 1)
        ]
    universe += [
        ("mem", fault)
        for fault in single_memory_faults(width, machine.memory.address_bits)
    ]
    labels = [f"{unit} {fault.describe()}" for unit, fault in universe]
    name = f"{machine.machine.name}_codeconv"
    return _campaign(machine, name, universe, labels, vectors)


def random_vectors(
    machine: StateTable, length: int, seed: int = 0
) -> List[Tuple[int, ...]]:
    """A seeded input stream exercising the machine."""
    rnd = random.Random(seed)
    return [
        tuple(rnd.randint(0, 1) for _ in range(machine.n_inputs))
        for _ in range(length)
    ]
