"""Clocked simulation of gate-level sequential circuits.

A :class:`Stepper` clocks a combinational
:class:`~repro.logic.network.Network` closed through edge-triggered state
elements (:class:`Element`) and, optionally, one parity-memory word.  It
is row-parallel (:class:`~repro.engine.compiled.RowForcing`): every line
value, element and memory bit is a big int whose bit ``r`` is row ``r``,
and one clock period is one pass of :func:`repro.engine.backends.run_ops`
for every row, so a fault campaign clocks one fault per row, all at once.
It holds no run state: :meth:`Stepper.clock_rows` starts from a state
passed in, keeps the run in locals and returns the final state, so any
number of callers may clock one stepper at once.

A :class:`SequentialCircuit` is the Figure 4.1a model made executable: a
stepper whose present-state inputs are fed back from next-state outputs
through ``depth`` D flip-flops in series (``depth=2``: the dual
flip-flop machine of Figure 4.2a).  A fault is a network stem/pin
stuck-at, a stuck element output (:class:`FlipFlopFault`) or a fault of
the memory, permanent for the whole run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..engine.backends import run_ops
from ..engine.compiled import RowForcing, compile_network
from ..logic.faults import Fault, MultipleFault, PinStuckAt, StuckAt
from ..logic.network import Network


@dataclasses.dataclass(frozen=True)
class FlipFlopFault:
    """The output of the ``index``-th stage of one feedback chain stuck."""

    state_line: str
    stage: int
    value: int

    def describe(self) -> str:
        return f"ff[{self.state_line}#{self.stage}] s/{self.value}"


#: A fault a :class:`SequentialCircuit` can carry.
CircuitFault = Union[Fault, MultipleFault, FlipFlopFault]

#: A stepper's run state as row masks: every element's content, then the
#: memory word each row's access finds (empty without a memory).
State = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclasses.dataclass(frozen=True)
class Element:
    """One edge-triggered state element outside the network.

    ``site`` is its output's forcing site, ``("ff", line, stage)``: a
    stuck output holds from the element's first load on, and wherever
    the network or the memory reads it.  The element loads line ``d``
    (``None``: the element before it, a shift chain) at the end of every
    period when ``clock`` is ``None``; otherwise at the end of each step,
    in the rows where line ``clock`` differs between the step's first and
    last periods, from the step's period ``period``.  It drives the
    network input ``drives``, if any, and holds ``initial`` at first.
    """

    site: Tuple[str, str, int]
    d: Optional[str]
    clock: Optional[str] = None
    period: int = 0
    drives: Optional[str] = None
    initial: int = 0


class Stepper:
    """A compiled network closed through state elements and, with a
    ``memory``, the word at its address 0: the elements' outputs are the
    word stored at the end of every step, and the word read at its start
    drives the ``stored`` lines.  ``what`` names a network line and an
    element in the messages of :meth:`force`."""

    def __init__(
        self,
        network: Network,
        inputs: Sequence[str],
        elements: Sequence[Element],
        memory=None,
        stored: Sequence[str] = (),
        what: Tuple[str, str] = ("network line", "flip-flop"),
    ) -> None:
        self.compiled = compile_network(network)
        index = self.compiled.index
        # The inputs' lines, then the lines the memory word drives.
        self.lines = [index[name] for name in (*inputs, *stored)]
        self.elements = tuple(elements)
        self.memory = memory
        self.what = what
        # Line names resolved once: the inputs the elements drive, the
        # every-period elements' D lines (None: the element before) and
        # the clocked elements' (clock, period, D line).
        enum = list(enumerate(self.elements))
        self._drives = [
            (index[e.drives], e.site, k) for k, e in enum if e.drives is not None
        ]
        self._every = [
            (k, e.site, None if e.d is None else index[e.d])
            for k, e in enum
            if e.clock is None
        ]
        self._clocked = [
            (k, e.site, index[e.clock], e.period, index[e.d])
            for k, e in enum
            if e.clock is not None
        ]

    def force(self, forcing: RowForcing, row: int, fault) -> None:
        """Add a network, element-output or memory fault to ``forcing``
        in ``row``; ``ValueError`` for one on a line, element or memory
        site the loop does not have (it would force nothing)."""
        if isinstance(fault, FlipFlopFault):
            site = ("ff", fault.state_line, fault.stage)
            if site not in {element.site for element in self.elements}:
                raise ValueError(f"no {self.what[1]} {fault.describe()!r}")
            forcing.stick(site, 1 << row, fault.value)
        elif isinstance(fault, (StuckAt, PinStuckAt, MultipleFault)):
            ids = self.compiled.fault_ids(fault)
            if not ids:
                raise ValueError(f"no {self.what[0]} {fault.describe()!r}")
            forcing.stick_fault(self.compiled, ids, 1 << row)
        elif self.memory is not None:
            self.memory.force(forcing, row, fault)
        else:
            raise ValueError(f"no memory for {fault.describe()!r}")

    def one_row(self, faults: Iterable) -> RowForcing:
        """The one-row forcing of ``faults``, all together in row 0."""
        forcing = RowForcing()
        for fault in faults:
            self.force(forcing, 0, fault)
        return forcing

    def clock_rows(
        self,
        periods: Sequence[Sequence[int]],
        forcing: RowForcing,
        state: Optional[State] = None,
        step: int = 1,
    ) -> Tuple[List[List[int]], State]:
        """Clock every row of ``forcing`` through ``periods`` (each the
        row masks of the ``inputs`` in order), ``step`` periods to a step,
        from ``state`` (default: every element at its initial bit, their
        word stored fault free).  Returns every line's row masks
        (compiled order) per period, as seen before its edge, and the
        final state."""
        compiled, full, apply = self.compiled, forcing.full, forcing.apply
        memory, n_lines = self.memory, len(compiled.names)
        if state is None:
            content = [full if e.initial else 0 for e in self.elements]
        else:
            content = list(state[0])
        word, masks = [], []
        if memory is not None:
            masks, fold = memory.read_masks(forcing, 0), memory.fold(full, 0)
            if state is None:
                stored = content[:-1] + [content[-1] ^ fold]
                word = memory.gather({0: stored}, forcing, 0)
            else:
                word = list(state[1])
        trace: List[List[int]] = []
        for first in range(0, len(periods), step):
            read = [w & ~rows | ones for w, (rows, ones) in zip(word, masks)]
            if read:
                read[-1] ^= fold
            for point in periods[first : first + step]:
                values = [0] * n_lines
                for pos, value in zip(self.lines, [*point, *read]):
                    values[pos] = value
                for pos, site, k in self._drives:
                    values[pos] = apply(site, content[k])
                trace.append(run_ops(compiled, values, full, forcing=forcing))
                old = list(content)
                for k, site, d in self._every:
                    content[k] = apply(site, old[k - 1] if d is None else values[d])
            done = trace[first:]
            for k, site, clock, period, d in self._clocked:
                load = done[0][clock] ^ done[-1][clock]
                content[k] = content[k] & ~load | apply(site, done[period][d]) & load
            if memory is not None:
                word = [apply(e.site, c) for e, c in zip(self.elements, content)]
                word[-1] ^= fold
        return trace, (tuple(content), tuple(word))


class SequentialCircuit(Stepper):
    """A combinational network closed through D flip-flop chains."""

    def __init__(
        self,
        network: Network,
        feedback: Mapping[str, str],
        depth: int = 1,
        initial_state: Optional[Mapping[str, int]] = None,
        name: str = "sequential",
    ) -> None:
        """``feedback`` maps next-state *output* line → present-state
        *input* line.  Present-state lines must be primary inputs of the
        network; next-state lines must be among its outputs."""
        if depth < 1:
            raise ValueError("a feedback chain needs at least one stage")
        self.name = name
        self.network = network
        self.depth = depth
        self.feedback: Dict[str, str] = dict(feedback)
        for next_line, present_line in self.feedback.items():
            if next_line not in network.outputs:
                raise ValueError(f"{next_line!r} is not a network output")
            if present_line not in network.inputs:
                raise ValueError(f"{present_line!r} is not a network input")
        self.external_inputs: Tuple[str, ...] = tuple(
            i for i in network.inputs if i not in self.feedback.values()
        )
        self.external_outputs: Tuple[str, ...] = tuple(
            o for o in network.outputs if o not in self.feedback
        )
        init = initial_state or {}
        # Stage 0 loads the next-state line every period; the last stage
        # drives the present-state line.
        chains = [
            Element(
                ("ff", present, stage),
                None if stage else next_line,
                drives=present if stage == depth - 1 else None,
                initial=init.get(present, 0),
            )
            for next_line, present in self.feedback.items()
            for stage in range(depth)
        ]
        super().__init__(network, self.external_inputs, chains)

    def run(
        self,
        input_stream: Iterable[Mapping[str, int]],
        faults: Iterable[CircuitFault] = (),
        state: Optional[State] = None,
    ) -> List[Dict[str, int]]:
        """Simulate a one-row input stream under ``faults`` from
        ``state`` (default: the initial state); returns per-period line
        values, as seen before each rising edge."""
        periods = [
            [int(inputs[name]) & 1 for name in self.external_inputs]
            for inputs in input_stream
        ]
        trace, _final = self.clock_rows(periods, self.one_row(faults), state)
        return [dict(zip(self.compiled.names, values)) for values in trace]

    def output_trace(
        self,
        input_stream: Iterable[Mapping[str, int]],
        faults: Iterable[CircuitFault] = (),
    ) -> List[Tuple[int, ...]]:
        """External-output tuples per period."""
        trace = self.run(input_stream, faults)
        return [tuple(v[o] for o in self.external_outputs) for v in trace]

    def flip_flop_count(self) -> int:
        return self.depth * len(self.feedback)

    def gate_count(self) -> int:
        return self.network.gate_count(include_buffers=False)
