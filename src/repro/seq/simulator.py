"""Clocked simulation of gate-level sequential circuits.

A :class:`SequentialCircuit` is the Figure 4.1a model made executable: a
combinational :class:`~repro.logic.network.Network` whose inputs include
the present-state lines, plus a feedback map *next-state output line →
present-state input line* realized with ``depth`` D flip-flops in
series.  ``depth=1`` gives the standard machine; ``depth=2`` gives the
dual flip-flop alternating machine of Figure 4.2a.

Simulation is row-parallel (:class:`~repro.engine.compiled.RowForcing`):
the circuit clocks many copies of itself at once, every line value and
flip-flop stage a big int whose bit ``r`` is row ``r``.  One clock period
is one pass of :func:`repro.engine.backends.run_ops` over the compiled op
program for every row, so a fault campaign puts one fault per row and
clocks them all together.  The scalar API
(:meth:`SequentialCircuit.step`, :meth:`~SequentialCircuit.run`) is the
one-row case.

Faults can be injected persistently into the combinational network (any
stem/pin stuck-at) or onto a flip-flop stage output — the fault lives
for the whole simulated run, matching the permanent single-fault model.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..engine.backends import run_ops
from ..engine.compiled import RowForcing, compile_network
from ..logic.faults import Fault, MultipleFault
from ..logic.network import Network

FaultLike = Union[Fault, MultipleFault]


@dataclasses.dataclass(frozen=True)
class FlipFlopFault:
    """The output of the ``index``-th stage of one feedback chain stuck."""

    state_line: str
    stage: int
    value: int

    def describe(self) -> str:
        return f"ff[{self.state_line}#{self.stage}] s/{self.value}"


class SequentialCircuit:
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
        self.compiled = compile_network(network)
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
        init = dict(initial_state or {})
        self._initial = {p: init.get(p, 0) for p in self.feedback.values()}
        self._next_line = {
            present: self.compiled.index[next_line]
            for next_line, present in self.feedback.items()
        }
        #: present-state line -> stage row masks, stage 0 at the input
        #: end; the last stage drives the present-state line.
        self.stages: Dict[str, List[int]] = {}
        self.reset()

    def reset(
        self, state: Optional[Mapping[str, int]] = None, rows: int = 1
    ) -> None:
        """Fill every stage of every chain with its initial bit (or
        ``state``'s), in each of ``rows`` rows."""
        values = dict(self._initial)
        if state:
            values.update(state)
        full = (1 << rows) - 1
        self.stages = {
            present: [full if values.get(present, 0) else 0] * self.depth
            for present in self._initial
        }
        self._full = full

    def set_stages(self, stages: Mapping[str, Sequence[int]]) -> None:
        """Load per-stage bits (stage 0 first) into chains, the same in
        every row — e.g. the dual flip-flop machine's alternating seed
        ``(ȳ, y)``."""
        for present, bits in stages.items():
            if present not in self.stages:
                raise ValueError(f"{present!r} is not a present-state line")
            if len(bits) != self.depth:
                raise ValueError(
                    f"{present!r}: {len(bits)} stage values for a "
                    f"depth-{self.depth} chain"
                )
            self.stages[present] = [self._full if b & 1 else 0 for b in bits]

    @property
    def present_state(self) -> Dict[str, int]:
        return {line: chain[-1] for line, chain in self.stages.items()}

    def force(
        self,
        forcing: RowForcing,
        row: int,
        fault: Union[FaultLike, FlipFlopFault],
    ) -> None:
        """Add a network or flip-flop fault to ``forcing`` in ``row``."""
        if isinstance(fault, FlipFlopFault):
            forcing.stick(
                ("ff", fault.state_line, fault.stage), 1 << row, fault.value
            )
        else:
            forcing.stick_fault(
                self.compiled, self.compiled.fault_ids(fault), 1 << row
            )

    def fault_forcing(
        self,
        fault: Optional[FaultLike] = None,
        ff_fault: Optional[FlipFlopFault] = None,
    ) -> RowForcing:
        """The one-row forcing of a network and/or flip-flop fault."""
        forcing = RowForcing()
        for part in (fault, ff_fault):
            if part is not None:
                self.force(forcing, 0, part)
        return forcing

    def clock(
        self, inputs: Mapping[str, int], forcing: RowForcing
    ) -> List[int]:
        """One clock period over every row: evaluate, then shift every
        chain on the rising edge.

        ``inputs`` maps each external input to its row mask.  Returns
        every line's row mask (compiled order) as seen *before* the
        edge.  A stuck final stage corrupts the present state the block
        reads; a stuck earlier stage corrupts the value shifted into it.
        """
        last = self.depth - 1
        point = []
        for name in self.compiled.input_names:
            chain = self.stages.get(name)
            if chain is None:
                point.append(inputs[name])
            else:
                point.append(forcing.apply(("ff", name, last), chain[-1]))
        point += [0] * len(self.compiled.ops)
        values = run_ops(self.compiled, point, forcing.full, forcing=forcing)
        for present, chain in self.stages.items():
            chain[1:] = chain[:-1]
            chain[0] = values[self._next_line[present]]
            for stage in range(last):
                chain[stage] = forcing.apply(("ff", present, stage), chain[stage])
        return values

    def step(
        self,
        inputs: Mapping[str, int],
        fault: Optional[FaultLike] = None,
        ff_fault: Optional[FlipFlopFault] = None,
    ) -> Dict[str, int]:
        """One clock period of a one-row circuit: evaluate, then latch on
        the rising edge.

        Returns the values of all network lines for this period (external
        outputs included), as seen *before* the edge.
        """
        return self._named(inputs, self.fault_forcing(fault, ff_fault))

    def _named(
        self, inputs: Mapping[str, int], forcing: RowForcing
    ) -> Dict[str, int]:
        masks = {name: int(v) & 1 for name, v in inputs.items()}
        return dict(zip(self.compiled.names, self.clock(masks, forcing)))

    def run(
        self,
        input_stream: Iterable[Mapping[str, int]],
        fault: Optional[FaultLike] = None,
        ff_fault: Optional[FlipFlopFault] = None,
        reset: bool = True,
    ) -> List[Dict[str, int]]:
        """Simulate a whole input stream; returns per-period line values."""
        if reset:
            self.reset()
        forcing = self.fault_forcing(fault, ff_fault)
        return [self._named(inputs, forcing) for inputs in input_stream]

    def output_trace(
        self,
        input_stream: Iterable[Mapping[str, int]],
        fault: Optional[FaultLike] = None,
        ff_fault: Optional[FlipFlopFault] = None,
        reset: bool = True,
    ) -> List[Tuple[int, ...]]:
        """External-output tuples per period."""
        trace = self.run(input_stream, fault=fault, ff_fault=ff_fault, reset=reset)
        return [tuple(v[o] for o in self.external_outputs) for v in trace]

    def flip_flop_count(self) -> int:
        return self.depth * len(self.stages)

    def gate_count(self) -> int:
        return self.network.gate_count(include_buffers=False)
