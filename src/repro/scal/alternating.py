"""Alternating-operation helpers: logical steps and the alternation check.

Alternating logic applies each input vector twice — true in the first
period (φ=0), complemented in the second (φ=1) — and a healthy SCAL
network answers with complementary values (Definition 2.5).  These
helpers hold a clocked run as logical steps and perform the checker's
job in software: flag every output pair that fails to alternate.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Sequence, Tuple

PERIOD_CLOCK = "phi"

#: A row-parallel clocked run (:class:`~repro.engine.compiled.RowForcing`):
#: per logical step, the first- and second-period monitored row masks
#: and the rows an extra checker flagged.
RowTrace = List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]


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


def one_row_run(
    trace: RowTrace, stopped: int = 0, checker: bool = True
) -> AlternatingRun:
    """The :class:`AlternatingRun` of a one-row clocked trace.

    ``checker`` reports the extra checker's flag per step (a machine
    whose only checkers are the alternation monitors passes False).  A
    ``stopped`` run (the common clock stuck) produces no steps and one
    raised flag: shutdown is a noncode state, reported as a detection.
    """
    if stopped:
        return AlternatingRun((), (True,))
    steps = tuple(AlternatingStep(first, second) for first, second, _ in trace)
    if not checker:
        return AlternatingRun(steps)
    return AlternatingRun(steps, tuple(bool(flag) for _, _, flag in trace))


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
