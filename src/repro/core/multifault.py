"""Coverage beyond the single-fault model (Definitions 2.2–2.3).

The thesis scopes its guarantee carefully: "Although the system is also
self-checking for many multiple faults, the fault coverage is complete
only for single faults" (Section 2.2) and lists "not all failures are
covered" among SCAL's disadvantages (Section 2.4).  Section 8.3's
recommendation 5 asks for multiple-fault treatment of minority modules.

This module quantifies those statements: enumerate (or sample) double,
unidirectional, and general multiple stuck-at faults, classify each with
the SCAL oracle, and report how coverage decays as the fault class
widens — the evaluation the thesis gestures at but never runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterable, List, Optional, Sequence

from ..engine.campaign import FaultSweep
from ..engine.compiled import compile_network
from ..logic.faults import MultipleFault, StuckAt
from ..logic.network import Network


@dataclasses.dataclass(frozen=True)
class ClassCoverage:
    """Oracle statistics for one fault class."""

    fault_class: str
    total: int
    detected: int
    silent: int
    dangerous: int

    @property
    def dangerous_fraction(self) -> float:
        return self.dangerous / self.total if self.total else 0.0

    @property
    def detected_fraction(self) -> float:
        return self.detected / self.total if self.total else 0.0

    def row(self) -> str:
        return (
            f"{self.fault_class:22s} {self.total:6d} "
            f"{self.detected_fraction:9.3f} {self.silent / max(self.total, 1):7.3f} "
            f"{self.dangerous_fraction:10.3f}"
        )


def _classify(
    sweep: FaultSweep, faults: Iterable[MultipleFault], label: str
) -> ClassCoverage:
    total = detected = silent = dangerous = 0
    for fault in faults:
        total += 1
        status = sweep.classify(fault)
        if status == "dangerous":
            dangerous += 1
        elif status == "detected":
            detected += 1
        else:
            silent += 1
    return ClassCoverage(label, total, detected, silent, dangerous)


def _stems(network: Network) -> List[str]:
    comp = compile_network(network)
    return [line for line, live in zip(comp.names, comp.live) if live]


def double_faults(
    network: Network,
    sample: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> List[MultipleFault]:
    """All (or a sample of) simultaneous two-line stem stuck-at faults."""
    stems = _stems(network)
    combos = [
        MultipleFault((StuckAt(a, va), StuckAt(b, vb)))
        for a, b in itertools.combinations(stems, 2)
        for va in (0, 1)
        for vb in (0, 1)
    ]
    if sample is not None and sample < len(combos):
        rng = rng or random.Random(0)
        combos = rng.sample(combos, sample)
    return combos


def unidirectional_faults(
    network: Network,
    max_lines: int = 3,
    sample: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> List[MultipleFault]:
    """Definition 2.2: any number of lines stuck at *one* value."""
    stems = _stems(network)
    faults: List[MultipleFault] = []
    for k in range(2, max_lines + 1):
        for group in itertools.combinations(stems, k):
            for value in (0, 1):
                faults.append(
                    MultipleFault(tuple(StuckAt(s, value) for s in group))
                )
    if sample is not None and sample < len(faults):
        rng = rng or random.Random(0)
        faults = rng.sample(faults, sample)
    return faults


def random_multiple_faults(
    network: Network,
    count: int,
    max_lines: int = 4,
    rng: Optional[random.Random] = None,
) -> List[MultipleFault]:
    """Definition 2.3: arbitrary multiple stuck-ats, mixed polarities."""
    rng = rng or random.Random(0)
    stems = _stems(network)
    faults = []
    for _ in range(count):
        k = rng.randint(2, min(max_lines, len(stems)))
        group = rng.sample(stems, k)
        faults.append(
            MultipleFault(
                tuple(StuckAt(s, rng.randint(0, 1)) for s in group)
            )
        )
    return faults


def coverage_by_class(
    network: Network,
    sample: int = 200,
    seed: int = 0,
) -> List[ClassCoverage]:
    """Oracle coverage across single / double / unidirectional /
    multiple fault classes — the Section 2.4 quantification."""
    rng = random.Random(seed)
    sweep = FaultSweep(network)
    singles = [
        MultipleFault((StuckAt(line, value),))
        for line in _stems(network)
        for value in (0, 1)
    ]
    rows = [
        _classify(sweep, singles, "single (Def 2.1)"),
        _classify(
            sweep,
            double_faults(network, sample=sample, rng=rng),
            "double",
        ),
        _classify(
            sweep,
            unidirectional_faults(network, sample=sample, rng=rng),
            "unidirectional (2.2)",
        ),
        _classify(
            sweep,
            random_multiple_faults(network, count=sample, rng=rng),
            "multiple (Def 2.3)",
        ),
    ]
    return rows


def render_coverage(rows: Sequence[ClassCoverage]) -> str:
    header = (
        f"{'fault class':22s} {'faults':>6s} {'detected':>9s} "
        f"{'silent':>7s} {'dangerous':>10s}"
    )
    return "\n".join([header] + [row.row() for row in rows])
