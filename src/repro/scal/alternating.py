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
        return self.first_detection is not None

    @property
    def first_detection(self) -> Optional[int]:
        """The first step with a nonalternating pair or a raised flag (a
        stopped run's one flag is step 0); ``None`` if there is none."""
        bad = [i for i, step in enumerate(self.steps) if not step.alternates]
        bad += [i for i, flag in enumerate(self.checker_flags) if flag]
        return min(bad, default=None)

    def decoded_outputs(self) -> List[Tuple[int, ...]]:
        return [step.decoded for step in self.steps]


def one_row_run(
    trace: RowTrace, stopped: int = 0, checker: bool = True
) -> AlternatingRun:
    """The :class:`AlternatingRun` of a one-row clocked trace.

    ``checker`` reports the extra checker's flag per step (a machine
    whose only checkers are the alternation monitors passes False).  A
    ``stopped`` run (the common clock stuck) produces no steps and one
    raised flag: shutdown is a noncode state, reported as a detection at
    step 0 (:attr:`AlternatingRun.first_detection`).  A campaign counts
    such rows detected but leaves them out of its mean latency.
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


def alternating_periods(
    vectors: Sequence[Tuple[int, ...]], full: int
) -> List[List[int]]:
    """The input row masks (the inputs in order, then the period clock)
    of each vector's two periods: true with the clock at 0, then
    complemented with the clock at 1."""
    return [
        [full if (bit & 1) ^ phase else 0 for bit in vector]
        + [full if phase else 0]
        for vector in vectors
        for phase in (0, 1)
    ]


class AlternatingMachine:
    """What both SCAL realizations of a state table share: line names,
    the :class:`~repro.seq.simulator.Stepper`'s one ``force``, the one-row
    ``run`` and the decoded outputs.  A subclass sets ``machine``,
    ``encoding``, ``stepper`` and ``clock_rows``."""

    #: Whether the form has a checker besides the alternation monitors.
    checker = True

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.machine.n_inputs))

    @property
    def output_names(self) -> Tuple[str, ...]:
        return tuple(f"Z{i}" for i in range(self.machine.n_outputs))

    @property
    def state_output_names(self) -> Tuple[str, ...]:
        return tuple(f"Y{i}" for i in range(self.encoding.width))

    def force(self, forcing, row: int, fault) -> None:
        """Add a network, flip-flop/latch or memory fault to ``forcing``
        in ``row``; ``ValueError`` for one on a line, state element or
        memory site the machine does not have."""
        self.stepper.force(forcing, row, fault)

    def stopped_rows(self, forcing) -> int:
        """The rows a stuck clock stops (none unless the form says so)."""
        return 0

    def run(
        self, vectors: Sequence[Tuple[int, ...]], faults=(), **clocking
    ) -> AlternatingRun:
        """Drive logical input vectors under ``faults``, all in one
        machine (``clocking`` goes to ``clock_rows``): per vector the
        (Z..., Y...) pair — Z *and* Y monitored, as the thesis requires —
        and the extra checker's flag.  A stopped machine is a run with no
        steps and one raised flag."""
        forcing = self.stepper.one_row(faults)
        trace = self.clock_rows(vectors, forcing, **clocking)
        return one_row_run(trace, self.stopped_rows(forcing), self.checker)

    def monitored_pairs(self, periods: List[List[int]]) -> List[Tuple[int, ...]]:
        """Each period's (Z..., Y...) row masks."""
        index = self.stepper.compiled.index
        lines = [index[n] for n in self.output_names + self.state_output_names]
        return [tuple(values[i] for i in lines) for values in periods]

    def decoded_outputs(self, run: AlternatingRun) -> List[Tuple[int, ...]]:
        """Logical Z values (first-period, Z positions only)."""
        n_z = len(self.output_names)
        return [step.first[:n_z] for step in run.steps]
