"""Compiled netlist form: a flat, integer-indexed op program.

Every evaluation path in this repository — the Chapter-3 conditions, the
Definition-2.4 oracle, PODEM's validation runs, and the Chapter-4
sequential campaigns — reduces to "evaluate this netlist under this
fault, many times".  The name-keyed :class:`~repro.logic.network.Network`
is the right *modelling* structure (the thesis reasons per named line),
but re-walking its dicts once per fault is the wrong *execution*
structure.

A :class:`CompiledNetwork` is built once per network: lines become dense
integer indices (primary inputs first, then gates in topological order),
gates become a flat tuple of :class:`Op` records, and two derived indices
make incremental fault simulation cheap:

* ``readers[line]`` — the op positions that read a line (the fanout
  adjacency), and
* :meth:`cone_ops` — the transitive *output cone* of a line: exactly the
  ops whose value can change when that line changes.

:meth:`resolve` maps a named stem/pin single or multiple fault onto
indices, and :meth:`fault_plan` adds the minimal ascending op list to
re-evaluate on top of a cached fault-free baseline.  The backends in
:mod:`repro.engine.backends` execute these plans pointwise,
word-parallel, or over sampled points.

The single-fault universe lives here too, on integer *fault ids* (stem
``line`` s-a-``v`` is ``2*line + v``; pin ``k``, counting ops then slots,
is ``2*(len(names) + k) + v``), folded once per network into its
structural equivalence classes (:attr:`fault_classes`, the thesis's
"equivalent pairs of lines", Section 3.6 step 2).
"""

from __future__ import annotations

import dataclasses
import functools
import weakref
from typing import Dict, List, Tuple, Union

from ..logic.faults import Fault, MultipleFault, PinStuckAt, StuckAt
from ..logic.faults import fault_overrides
from ..logic.gates import GateKind
from ..logic.network import Network

FaultLike = Union[Fault, MultipleFault]

#: Gate-boundary equivalences: any input pin stuck at the first value is
#: the output stuck at the second (the controlling value for AND/NAND/
#: OR/NOR; either value through a NOT or BUF).
PIN_EQUIVALENCES = {
    GateKind.AND: ((0, 0),),
    GateKind.NAND: ((0, 1),),
    GateKind.OR: ((1, 1),),
    GateKind.NOR: ((1, 0),),
    GateKind.NOT: ((0, 1), (1, 0)),
    GateKind.BUF: ((0, 0), (1, 1)),
}


@dataclasses.dataclass(frozen=True)
class Op:
    """One gate as an executable record: drive line ``out`` from ``srcs``."""

    out: int
    kind: GateKind
    srcs: Tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A fault pre-resolved against one compiled network.

    ``stems`` forces line values; ``pins`` maps an op position to the
    ``(operand slot, value)`` overrides of that op; ``ops`` is the
    ascending (hence topological) list of op positions whose value can
    differ from the fault-free baseline and must be re-evaluated.
    """

    stems: Tuple[Tuple[int, int], ...]
    pins: Dict[int, Tuple[Tuple[int, int], ...]]
    ops: Tuple[int, ...]


class CompiledNetwork:
    """The flat op program of one :class:`Network`.

    Holds no strong reference to the source network so the per-network
    compile cache (a :class:`weakref.WeakKeyDictionary`) can release both
    together.
    """

    def __init__(self, network: Network) -> None:
        self.name = network.name
        self.input_names: Tuple[str, ...] = tuple(network.inputs)
        self.n_inputs = len(self.input_names)
        names: List[str] = list(self.input_names)
        index: Dict[str, int] = {name: i for i, name in enumerate(names)}
        ops: List[Op] = []
        for gate in network.gates:  # already topologically ordered
            out = len(names)
            index[gate.name] = out
            names.append(gate.name)
            ops.append(
                Op(out, gate.kind, tuple(index[src] for src in gate.inputs))
            )
        self.names: Tuple[str, ...] = tuple(names)
        self.index = index
        self.ops: Tuple[Op, ...] = tuple(ops)
        self.output_names: Tuple[str, ...] = tuple(network.outputs)
        self.out_idx: Tuple[int, ...] = tuple(
            index[out] for out in network.outputs
        )
        readers: List[List[int]] = [[] for _ in names]
        for pos, op in enumerate(ops):
            for src in set(op.srcs):
                readers[src].append(pos)
        self.readers: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(r) for r in readers
        )
        self._cones: Dict[int, Tuple[int, ...]] = {}
        self._plans: Dict[FaultLike, FaultPlan] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def cone_ops(self, line: int) -> Tuple[int, ...]:
        """Ascending op positions in the output cone of line ``line`` —
        the ops whose value can change when that line's value changes."""
        cached = self._cones.get(line)
        if cached is not None:
            return cached
        seen_ops: set = set()
        stack = [line]
        while stack:
            src = stack.pop()
            for pos in self.readers[src]:
                if pos not in seen_ops:
                    seen_ops.add(pos)
                    stack.append(self.ops[pos].out)
        cone = tuple(sorted(seen_ops))
        self._cones[line] = cone
        return cone

    def resolve(
        self, fault: FaultLike
    ) -> Tuple[Dict[int, int], Dict[int, List[Tuple[int, int]]]]:
        """``(stems, pins)``: forced values by line, ``(slot, value)`` pin
        forces by op position.  Absent lines and out-of-range pin slots
        are ignored (the legacy dict-lookup semantics), and a stem force
        shadows the pin forces on the gate driving that stem."""
        stem_names, pin_keys = fault_overrides(fault)
        index = self.index
        stems = {index[n]: v for n, v in stem_names.items() if n in index}
        pins: Dict[int, List[Tuple[int, int]]] = {}
        for (gate, slot), value in pin_keys.items():
            line = index.get(gate, -1)
            if line < self.n_inputs or line in stems:
                continue
            pos = line - self.n_inputs
            if slot < len(self.ops[pos].srcs):
                pins.setdefault(pos, []).append((slot, value))
        return stems, pins

    def fault_plan(self, fault: FaultLike) -> FaultPlan:
        """Resolve a fault into forced values plus the minimal re-simulation
        schedule over the fault's output cone(s)."""
        plan = self._plans.get(fault)
        if plan is not None:
            return plan
        stems, pins = self.resolve(fault)
        affected: set = set(pins)
        for pos in pins:
            affected.update(self.cone_ops(self.ops[pos].out))
        for idx in stems:
            affected.update(self.cone_ops(idx))
        # Ops whose output line is stem-forced never run.
        ops = tuple(
            pos for pos in sorted(affected) if self.ops[pos].out not in stems
        )
        plan = FaultPlan(
            stems=tuple(sorted(stems.items())),
            pins={pos: tuple(overrides) for pos, overrides in pins.items()},
            ops=ops,
        )
        self._plans[fault] = plan
        return plan

    # ------------------------------------------------------------------
    # the single-fault universe, on fault ids
    # ------------------------------------------------------------------
    @functools.cached_property
    def pin_sites(self) -> Tuple[Tuple[int, int, int], ...]:
        """``(gate line, slot, source line)`` of every pin, in pin order."""
        return tuple(
            (op.out, slot, src)
            for op in self.ops
            for slot, src in enumerate(op.srcs)
        )

    @functools.cached_property
    def branch_folds(self) -> Tuple[bool, ...]:
        """Per line: it drives exactly one gate pin (counted from
        ``ops[*].srcs``, so ``AND(a, a)`` gives ``a`` two) and is no
        output, so that branch's faults are its stem's."""
        pins = [0] * len(self.names)
        for op in self.ops:
            for src in op.srcs:
                pins[src] += 1
        outputs = set(self.out_idx)
        return tuple(n == 1 and i not in outputs for i, n in enumerate(pins))

    @functools.cached_property
    def live(self) -> Tuple[bool, ...]:
        """Per line: it reaches some output (dead lines are not lines of
        the network in the thesis's sense)."""
        live = [False] * len(self.names)
        for idx in self.out_idx:
            live[idx] = True
        for op in reversed(self.ops):
            if live[op.out]:
                for src in op.srcs:
                    live[src] = True
        return tuple(live)

    @functools.cached_property
    def fault_classes(self) -> Tuple[Tuple[int, ...], ...]:
        """The stem+pin universe's equivalence classes as fault ids,
        ordered by smallest id, members in id order: the
        :data:`PIN_EQUIVALENCES` and the :attr:`branch_folds` pins."""
        folds = self.branch_folds
        parent = list(range(2 * (len(self.names) + len(self.pin_sites))))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        def union(a: int, b: int) -> None:
            a, b = find(a), find(b)
            if a != b:
                parent[max(a, b)] = min(a, b)

        pin = 2 * len(self.names)
        for op in self.ops:
            pairs = PIN_EQUIVALENCES.get(op.kind, ())
            for src in op.srcs:
                if folds[src]:
                    union(pin, 2 * src)
                    union(pin + 1, 2 * src + 1)
                for pin_value, out_value in pairs:
                    union(pin + pin_value, 2 * op.out + out_value)
                pin += 2
        classes: Dict[int, List[int]] = {}
        for fid in range(len(parent)):
            classes.setdefault(find(fid), []).append(fid)
        return tuple(tuple(members) for members in classes.values())

    def fault_site(self, fid: int) -> int:
        """The line a fault sits on: its stem, or the gate its pin feeds."""
        pin = fid - 2 * len(self.names)
        return fid >> 1 if pin < 0 else self.pin_sites[pin >> 1][0]

    def fault(self, fid: int) -> Fault:
        """The named fault of one fault id."""
        pin = fid - 2 * len(self.names)
        if pin < 0:
            return StuckAt(self.names[fid >> 1], fid & 1)
        gate, slot, _src = self.pin_sites[pin >> 1]
        return PinStuckAt(self.names[gate], slot, fid & 1)

    def fault_universe(
        self,
        include_inputs: bool = True,
        include_pins: bool = True,
        collapse: bool = True,
        live_only: bool = True,
    ) -> List[Fault]:
        """A single-fault list in id order: with ``collapse`` one
        representative per class (its first member the ``include_*``
        filters keep, so its first stem when it has one), else every kept
        fault less the :attr:`branch_folds` pin faults.  ``live_only``
        drops the faults on lines that reach no output."""
        n_stems = 2 * len(self.names)
        first_gate = 2 * self.n_inputs

        def kept(fid: int) -> bool:
            if fid < n_stems:
                return include_inputs or fid >= first_gate
            return include_pins

        if collapse:
            ids = [
                next((fid for fid in members if kept(fid)), None)
                for members in self.fault_classes
            ]
        else:
            folds = self.branch_folds
            ids = [fid for fid in range(n_stems) if kept(fid)]
            if include_pins:
                ids += [
                    n_stems + 2 * k + value
                    for k, (_gate, _slot, src) in enumerate(self.pin_sites)
                    if not folds[src]
                    for value in (0, 1)
                ]
        live = self.live
        return [
            self.fault(fid)
            for fid in ids
            if fid is not None
            and (not live_only or live[self.fault_site(fid)])
        ]


_compile_cache: "weakref.WeakKeyDictionary[Network, CompiledNetwork]" = (
    weakref.WeakKeyDictionary()
)


def compile_network(network: Network) -> CompiledNetwork:
    """The compiled form of ``network``, cached per network instance.

    Networks are immutable once constructed, so identity caching is safe:
    ``logic.evaluate``, the Chapter-3 conditions, ``scal.verify`` and the
    campaign drivers all hit this memo and share one compile (and, via
    :func:`repro.engine.engine_for`, one baseline) per netlist.  The
    cache holds the network weakly and the compiled form keeps no
    reference back, so both are released together.

    **Mutation caveat**: the memo is keyed on *identity*, not content.
    Code that mutates a ``Network`` in place after first evaluation
    (nothing in this repository does — the design/repair flows build new
    networks) would keep receiving the stale compiled form; rebuild the
    network instead of mutating it.
    """
    compiled = _compile_cache.get(network)
    if compiled is None:
        compiled = CompiledNetwork(network)
        _compile_cache[network] = compiled
    return compiled

