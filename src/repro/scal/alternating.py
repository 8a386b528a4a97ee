"""Alternating-operation helpers: drive streams, check alternation.

Alternating logic applies each input vector twice — true in the first
period (φ=0), complemented in the second (φ=1) — and a healthy SCAL
network answers with complementary values (Definition 2.5).  These
helpers build such streams, split period traces back into logical steps,
and perform the checker's job in software: flag every output pair that
fails to alternate.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

PERIOD_CLOCK = "phi"

#: A row-parallel clocked run (:class:`~repro.engine.compiled.RowForcing`):
#: per logical step, the first- and second-period monitored row masks
#: and the rows an extra checker flagged.
RowTrace = List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]


def alternating_pair(
    vector: Mapping[str, int], clock_name: str = PERIOD_CLOCK
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """The two period assignments for one logical input vector."""
    first = dict(vector)
    first[clock_name] = 0
    second = {name: 1 - (int(v) & 1) for name, v in vector.items()}
    second[clock_name] = 1
    return first, second


def alternating_stream(
    vectors: Iterable[Mapping[str, int]], clock_name: str = PERIOD_CLOCK
) -> List[Dict[str, int]]:
    """Interleave true/complemented assignments with the period clock."""
    stream: List[Dict[str, int]] = []
    for vector in vectors:
        first, second = alternating_pair(vector, clock_name)
        stream.append(first)
        stream.append(second)
    return stream


@dataclasses.dataclass(frozen=True)
class AlternatingStep:
    """One logical step: the two period output tuples plus the verdict."""

    first: Tuple[int, ...]
    second: Tuple[int, ...]

    @property
    def alternates(self) -> bool:
        return all(b == 1 - a for a, b in zip(self.first, self.second))

    @property
    def decoded(self) -> Tuple[int, ...]:
        """The logical (first-period) output values."""
        return self.first

    def nonalternating_positions(self) -> Tuple[int, ...]:
        return tuple(
            i for i, (a, b) in enumerate(zip(self.first, self.second)) if a == b
        )


@dataclasses.dataclass(frozen=True)
class AlternatingRun:
    """A full alternating run: steps plus any extra checker flags."""

    steps: Tuple[AlternatingStep, ...]
    checker_flags: Tuple[bool, ...] = ()  # True = extra checker raised

    @property
    def detected(self) -> bool:
        """Any nonalternating step or raised checker flag."""
        if any(not step.alternates for step in self.steps):
            return True
        return any(self.checker_flags)

    @property
    def first_detection(self) -> Optional[int]:
        for i, step in enumerate(self.steps):
            if not step.alternates:
                return i
            if i < len(self.checker_flags) and self.checker_flags[i]:
                return i
        return None

    def decoded_outputs(self) -> List[Tuple[int, ...]]:
        return [step.decoded for step in self.steps]


def check_vectors(
    vectors: Iterable[Sequence[int]], n_inputs: int
) -> List[Tuple[int, ...]]:
    """The input stream as tuples, each exactly ``n_inputs`` bits wide
    (``ValueError`` naming the first offending vector otherwise)."""
    stream = [tuple(vector) for vector in vectors]
    for index, vector in enumerate(stream):
        if len(vector) != n_inputs:
            raise ValueError(
                f"input vector {index} has width {len(vector)}; "
                f"the machine has n_inputs={n_inputs}"
            )
    return stream


def pair_periods(trace: Sequence[Tuple[int, ...]]) -> AlternatingRun:
    """Group a per-period output trace into alternating steps."""
    if len(trace) % 2:
        raise ValueError("alternating traces have an even number of periods")
    steps = tuple(
        AlternatingStep(trace[i], trace[i + 1]) for i in range(0, len(trace), 2)
    )
    return AlternatingRun(steps)
