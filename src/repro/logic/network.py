"""Netlist model: named lines, gates, and combinational networks.

The thesis analyzes *networks* — gate-level implementations of functions
(its Section 2.1 vocabulary: function = logical operation, network =
implementation, system = combination of networks).  A :class:`Network`
here is a named, acyclic netlist:

* every *line* is either a primary input or the output of exactly one gate;
* gates reference their input lines by name, so fanout is implicit
  (several gates reading the same line);
* a subset of lines is designated as the network outputs.

The model deliberately keeps lines first-class and nameable because the
whole of Chapter 3 is phrased per-line ("the network is self-checking
with respect to line g").
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .gates import GateKind, check_arity


class NetworkError(ValueError):
    """Raised on malformed netlists (cycles, missing lines, bad arities)."""


@dataclasses.dataclass(frozen=True)
class Gate:
    """One gate: drives line ``name`` from the lines in ``inputs``."""

    name: str
    kind: GateKind
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        check_arity(self.kind, len(self.inputs))


class Network:
    """An acyclic combinational netlist with named lines.

    Build one either with :class:`NetworkBuilder` or from an explicit gate
    list.  The network is immutable once constructed; transformations
    (self-dualization, minority conversion, the Figure 3.7 fix...) build
    new networks.
    """

    def __init__(
        self,
        inputs: Sequence[str],
        gates: Sequence[Gate],
        outputs: Sequence[str],
        name: str = "network",
    ) -> None:
        self.name = name
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.outputs: Tuple[str, ...] = tuple(outputs)
        self._gates: Dict[str, Gate] = {}
        if len(set(self.inputs)) != len(self.inputs):
            raise NetworkError("duplicate primary input names")
        defined: Set[str] = set(self.inputs)
        for gate in gates:
            if gate.name in defined:
                raise NetworkError(f"line {gate.name!r} defined twice")
            defined.add(gate.name)
            self._gates[gate.name] = gate
        for gate in gates:
            for src in gate.inputs:
                if src not in defined:
                    raise NetworkError(
                        f"gate {gate.name!r} reads undefined line {src!r}"
                    )
        for out in self.outputs:
            if out not in defined:
                raise NetworkError(f"output {out!r} is not a defined line")
        if len(set(self.outputs)) != len(self.outputs):
            raise NetworkError("duplicate output names")
        self._topo: Tuple[str, ...] = self._toposort()
        self._fanout: Dict[str, Tuple[str, ...]] = self._fanout_map()
        self._pin_counts: Dict[str, int] = dict.fromkeys(self.lines(), 0)
        for gate in self._gates.values():
            for src in gate.inputs:
                self._pin_counts[src] += 1

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _toposort(self) -> Tuple[str, ...]:
        """Gate lines in depth-first post-order: each gate after its
        inputs, visited in input order, roots in definition order."""
        order: List[str] = []
        gates = self._gates
        done: Set[str] = set(self.inputs)
        for root in gates:
            if root in done:
                continue
            path = {root}
            stack = [(root, iter(gates[root].inputs))]
            while stack:
                node, pending = stack[-1]
                for child in pending:
                    if child not in done:
                        if child in path:
                            raise NetworkError(
                                f"combinational cycle through {child!r}"
                            )
                        path.add(child)
                        stack.append((child, iter(gates[child].inputs)))
                        break
                else:
                    stack.pop()
                    path.discard(node)
                    done.add(node)
                    order.append(node)
        return tuple(order)

    def _fanout_map(self) -> Dict[str, Tuple[str, ...]]:
        fan: Dict[str, List[str]] = {name: [] for name in self.lines()}
        for gate in self._gates.values():
            for src in set(gate.inputs):
                fan[src].append(gate.name)
        return {name: tuple(dests) for name, dests in fan.items()}

    def lines(self) -> Iterator[str]:
        """All line names: primary inputs first, then gates in topo order."""
        yield from self.inputs
        yield from self._topo

    def gate(self, line: str) -> Gate:
        """The gate driving ``line`` (KeyError for primary inputs)."""
        return self._gates[line]

    def is_input(self, line: str) -> bool:
        return line in self.inputs and line not in self._gates

    def has_line(self, line: str) -> bool:
        return line in self._gates or line in self.inputs

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """All gates in topological order."""
        return tuple(self._gates[name] for name in self._topo)

    def fanout(self, line: str) -> Tuple[str, ...]:
        """Names of the gates that read ``line``."""
        return self._fanout.get(line, ())

    def fanout_count(self, line: str) -> int:
        """Number of gate *pins* the line drives (for the output lines of
        the network the external observation does not count as fanout)."""
        return self._pin_counts.get(line, 0)

    def cone(self, output: str) -> Set[str]:
        """The set of lines in the transitive fan-in cone of ``output``,
        including ``output`` itself and any primary inputs it reads.

        Chapter 3's multiple-output analysis partitions lines by which
        outputs their cones reach; :meth:`outputs_using` is the inverse.
        """
        seen: Set[str] = set()
        stack = [output]
        while stack:
            line = stack.pop()
            if line in seen:
                continue
            seen.add(line)
            if line in self._gates:
                stack.extend(self._gates[line].inputs)
        return seen

    def outputs_using(self, line: str) -> Tuple[str, ...]:
        """The network outputs whose cones contain ``line``."""
        return tuple(out for out in self.outputs if line in self.cone(out))

    def reachable_outputs(self) -> Dict[str, Tuple[str, ...]]:
        """Map every line to the tuple of outputs its value can reach."""
        reach: Dict[str, Set[str]] = {name: set() for name in self.lines()}
        for out in self.outputs:
            for line in self.cone(out):
                reach[line].add(out)
        ordered: Dict[str, Tuple[str, ...]] = {}
        for line in self.lines():
            ordered[line] = tuple(o for o in self.outputs if o in reach[line])
        return ordered

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        assignment: Mapping[str, int],
        overrides: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate every line for one input assignment.

        ``overrides`` maps line names to forced values — the stem stuck-at
        fault model (Definition 2.1).  Pin (branch) faults go through
        :func:`repro.logic.evaluate.evaluate_with_fault`, which this is a
        stem-fault call of.
        """
        # Local imports: the engine imports this module.
        from .evaluate import evaluate_with_fault
        from .faults import MultipleFault, StuckAt

        stems = (overrides or {}).items()
        fault = MultipleFault(tuple(StuckAt(n, v) for n, v in stems))
        return evaluate_with_fault(self, assignment, fault)

    def output_values(
        self,
        assignment: Mapping[str, int],
        overrides: Optional[Mapping[str, int]] = None,
    ) -> Tuple[int, ...]:
        """The output tuple for one input assignment."""
        values = self.evaluate(assignment, overrides)
        return tuple(values[out] for out in self.outputs)

    def assignment_from_index(self, index: int) -> Dict[str, int]:
        """Decode a truth-table index into an input assignment.

        Bit *i* of ``index`` is the value of ``self.inputs[i]`` — the same
        convention :mod:`repro.logic.truthtable` uses.
        """
        return {name: (index >> i) & 1 for i, name in enumerate(self.inputs)}

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def gate_count(self, include_buffers: bool = True) -> int:
        """Number of gates (constants excluded; buffers optionally)."""
        count = 0
        for gate in self._gates.values():
            if gate.kind in (GateKind.CONST0, GateKind.CONST1):
                continue
            if gate.kind is GateKind.BUF and not include_buffers:
                continue
            count += 1
        return count

    def gate_input_count(self) -> int:
        """Total number of gate input pins — the thesis's secondary cost
        metric ('the number of gate inputs ... may also be cost factors')."""
        return sum(
            len(gate.inputs)
            for gate in self._gates.values()
            if gate.kind not in (GateKind.CONST0, GateKind.CONST1)
        )

    def kind_histogram(self) -> Dict[GateKind, int]:
        hist: Dict[GateKind, int] = {}
        for gate in self._gates.values():
            hist[gate.kind] = hist.get(gate.kind, 0) + 1
        return hist

    def depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        level: Dict[str, int] = {name: 0 for name in self.inputs}
        for name in self._topo:
            gate = self._gates[name]
            level[name] = 1 + max((level[src] for src in gate.inputs), default=0)
        return max((level[out] for out in self.outputs), default=0)

    def renamed(self, prefix: str) -> "Network":
        """A copy with every line renamed ``prefix + old_name``.

        Useful when instantiating a network as a sub-block of a larger
        system (e.g. replicating checker trees).
        """

        def ren(line: str) -> str:
            return prefix + line

        gates = [
            Gate(ren(g.name), g.kind, tuple(ren(s) for s in g.inputs))
            for g in self.gates
        ]
        return Network(
            [ren(i) for i in self.inputs],
            gates,
            [ren(o) for o in self.outputs],
            name=prefix + self.name,
        )

    def with_outputs(self, outputs: Sequence[str]) -> "Network":
        """A copy exposing a different output list (same gates)."""
        return Network(self.inputs, self.gates, outputs, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network({self.name!r}, {len(self.inputs)} inputs, "
            f"{len(self._gates)} gates, {len(self.outputs)} outputs)"
        )


class NetworkBuilder:
    """Incremental construction of a :class:`Network`.

    >>> b = NetworkBuilder(["a", "b"])
    >>> _ = b.add("n1", GateKind.NAND, ["a", "b"])
    >>> net = b.build(["n1"])
    >>> net.output_values({"a": 1, "b": 1})
    (0,)
    """

    def __init__(self, inputs: Sequence[str], name: str = "network") -> None:
        self.name = name
        self._inputs = list(inputs)
        self._gates: List[Gate] = []
        self._defined: Set[str] = set(inputs)
        self._auto = 0

    def add(self, name: str, kind: GateKind, inputs: Sequence[str]) -> str:
        """Add a gate driving line ``name``; returns ``name`` for chaining."""
        if name in self._defined:
            raise NetworkError(f"line {name!r} already defined")
        for src in inputs:
            if src not in self._defined:
                raise NetworkError(f"gate {name!r} reads undefined line {src!r}")
        self._gates.append(Gate(name, kind, tuple(inputs)))
        self._defined.add(name)
        return name

    def fresh(self, kind: GateKind, inputs: Sequence[str], stem: str = "t") -> str:
        """Add a gate with an auto-generated line name."""
        self._auto += 1
        return self.add(f"{stem}{self._auto}", kind, inputs)

    def add_input(self, name: str) -> str:
        if name in self._defined:
            raise NetworkError(f"line {name!r} already defined")
        self._inputs.append(name)
        self._defined.add(name)
        return name

    def has_line(self, name: str) -> bool:
        return name in self._defined

    def build(self, outputs: Sequence[str]) -> Network:
        return Network(self._inputs, self._gates, outputs, name=self.name)


def map_lines(network: Network, transform: Callable[[Gate], Gate]) -> Network:
    """Rebuild ``network`` applying ``transform`` to every gate."""
    gates = [transform(g) for g in network.gates]
    return Network(network.inputs, gates, network.outputs, name=network.name)


def expand_fanout_branches(network: Network, suffix: str = "_br") -> Network:
    """Give every fanout branch its own named line via a BUF gate.

    The thesis numbers each wire segment of a fanout stem separately (the
    "equivalent pairs of lines" bookkeeping of Section 3.6 then collapses
    the trivial ones).  After this transform every *pin* fault of the
    original network corresponds to a *stem* fault of the expanded one, so
    the per-line Algorithm 3.1 analysis covers the full stem+pin fault
    universe.  Branch lines are named ``<stem><suffix><k>``.
    """
    needs_branches = {
        line for line in network.lines() if network.fanout_count(line) > 1
    }
    counters: Dict[str, int] = {}
    new_gates: List[Gate] = []
    branch_gates: List[Gate] = []
    for gate in network.gates:
        new_inputs = []
        for src in gate.inputs:
            if src in needs_branches:
                counters[src] = counters.get(src, 0) + 1
                branch = f"{src}{suffix}{counters[src]}"
                branch_gates.append(Gate(branch, GateKind.BUF, (src,)))
                new_inputs.append(branch)
            else:
                new_inputs.append(src)
        new_gates.append(Gate(gate.name, gate.kind, tuple(new_inputs)))
    return Network(
        network.inputs,
        branch_gates + new_gates,
        network.outputs,
        name=f"{network.name}_expanded",
    )


def merge_disjoint(
    a: Network, b: Network, outputs: Optional[Iterable[str]] = None
) -> Network:
    """Union of two networks over shared primary inputs.

    Gate line names must be disjoint (rename with :meth:`Network.renamed`
    first when composing copies).  Primary inputs with equal names are
    identified — this is how multi-output systems sharing input busses are
    assembled.
    """
    inputs = list(a.inputs) + [i for i in b.inputs if i not in a.inputs]
    a_lines = {g.name for g in a.gates}
    for gate in b.gates:
        if gate.name in a_lines:
            raise NetworkError(f"gate line {gate.name!r} defined in both networks")
    gates = list(a.gates) + list(b.gates)
    outs = list(outputs) if outputs is not None else list(a.outputs) + list(b.outputs)
    return Network(inputs, gates, outs, name=f"{a.name}+{b.name}")
