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

Faults are integer *fault ids*: stem ``line`` s-a-``v`` is
``2*line + v``, and pin ``k``, counting ops then slots, is
``2*(len(names) + k) + v``.  :meth:`CompiledNetwork.fault_ids` is the one
place a named stem/pin single or multiple fault is read; everything past
it takes ids.  :class:`RowForcing` is the one form a fault is forced in:
mask pairs on lines and pins, per row of a row-parallel run.  A
:meth:`fault_plan` is a forcing over every row plus the minimal
ascending op list to re-evaluate on top of a cached fault-free baseline.
:func:`repro.engine.backends.run_ops` is the one interpreter that runs
the op program under a forcing, whole or over a cone.

The single-fault universe lives here too, on fault ids, folded once per
network into its structural equivalence classes (:attr:`fault_classes`,
the thesis's "equivalent pairs of lines", Section 3.6 step 2).
:meth:`CompiledNetwork.universe_ids` is the one definition of that
universe, and :meth:`CompiledNetwork.fault` the one way from an id back
to a name.  Sweeps and ATPG take the ids as they are.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import weakref
from typing import Dict, Hashable, List, Sequence, Tuple, Union

from ..logic.faults import Fault, MultipleFault, PinStuckAt, StuckAt
from ..logic.faults import fault_overrides
from ..logic.gates import GateKind
from ..logic.network import Network

#: A fault: one fault id (:meth:`CompiledNetwork.universe_ids`) or a
#: named stem/pin single or multiple fault.
FaultLike = Union[int, Fault, MultipleFault]

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


Masks = Tuple[int, int]


def _merge(table: Dict, key: Hashable, rows: int, value: int) -> None:
    forced, ones = table.get(key, (0, 0))
    table[key] = (forced | rows, (ones & ~rows) | (rows if value else 0))


class RowForcing:
    """Stuck-at forcing masks over ``rows`` parallel rows.

    Every line value, flip-flop stage, latch and memory bit is an integer
    whose bit ``r`` is row ``r``'s value.  A stuck-at is a mask pair
    ``(rows, ones)`` on one *site*, applied as ``v = (v & ~rows) | ones``
    where the fault sits.  One row is the scalar single-fault case; a
    clocked campaign puts one fault per row, ATPG one per slot of pattern
    bits, and a :class:`FaultPlan` forces every row of any width with the
    row mask ``-1`` (Python's infinite two's complement).  Network stems
    and pins have their own tables, which
    :func:`repro.engine.backends.run_ops` reads; any other site is a
    hashable key in :attr:`sites`.
    """

    def __init__(self, rows: int = 1) -> None:
        self.rows = rows
        self.full = (1 << rows) - 1
        #: compiled line index -> (rows, ones)
        self.lines: Dict[int, Masks] = {}
        #: op position -> {operand slot: (rows, ones)}
        self.pins: Dict[int, Dict[int, Masks]] = {}
        #: any other site (flip-flop stage, latch, memory bit)
        self.sites: Dict[Hashable, Masks] = {}

    def stick(self, site: Hashable, rows: int, value: int) -> None:
        """Force ``site`` to ``value`` in the row mask ``rows``."""
        _merge(self.sites, site, rows, value)

    def stick_fault(
        self, compiled: "CompiledNetwork", ids: Sequence[int], rows: int
    ) -> None:
        """Force the network fault ids ``ids`` (one fault's
        :meth:`CompiledNetwork.fault_ids`) in ``rows``."""
        n_stems = 2 * len(compiled.names)
        for fid in ids:
            value = fid & 1
            if fid < n_stems:
                _merge(self.lines, fid >> 1, rows, value)
            else:
                gate, slot, _src = compiled.pin_sites[(fid - n_stems) >> 1]
                pos = gate - compiled.n_inputs
                _merge(self.pins.setdefault(pos, {}), slot, rows, value)

    def apply(self, site: Hashable, value: int) -> int:
        """``value`` with the rows forced at ``site`` overridden."""
        forced = self.sites.get(site)
        if forced is None:
            return value
        rows, ones = forced
        return (value & ~rows) | ones


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A fault pre-resolved against one compiled network.

    ``forcing`` forces the fault's stems and pins in every row (row mask
    ``-1``); ``ops`` is the ascending (hence topological) list of op
    positions whose value can differ from the fault-free baseline and
    must be re-evaluated.
    """

    forcing: RowForcing
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
        self._plans: Dict[Tuple[int, ...], FaultPlan] = {}

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

    def fault_ids(self, fault: FaultLike) -> Tuple[int, ...]:
        """The ascending fault ids of a fault: an id is its own, and this
        is the one place a named stem/pin single or multiple fault is
        read.  Absent lines, pins of primary inputs and out-of-range slots
        are dropped (the legacy dict-lookup semantics), a later part on
        the same site wins, and a stem force shadows the pin forces on
        the gate driving that stem."""
        if type(fault) is int:
            return (fault,)
        if type(fault) is StuckAt:
            line = self.index.get(fault.line)
            return () if line is None else (2 * line + fault.value,)
        stem_names, pin_keys = fault_overrides(fault)
        index = self.index
        stems = {index[n]: v for n, v in stem_names.items() if n in index}
        ids = [2 * line + value for line, value in stems.items()]
        first_pin = self.first_pin
        pins_at = 2 * len(self.names)
        for (gate, slot), value in pin_keys.items():
            line = index.get(gate, -1)
            if line < self.n_inputs or line in stems:
                continue
            pos = line - self.n_inputs
            if slot < len(self.ops[pos].srcs):
                ids.append(pins_at + 2 * (first_pin[pos] + slot) + value)
        return tuple(sorted(ids))

    def fault_plan(self, ids: Tuple[int, ...]) -> FaultPlan:
        """The every-row forcing of one fault's :meth:`fault_ids` plus
        the minimal re-simulation schedule over its output cone(s),
        cached by the id tuple."""
        plan = self._plans.get(ids)
        if plan is not None:
            return plan
        forcing = RowForcing()
        forcing.stick_fault(self, ids, -1)
        stems = forcing.lines
        affected: set = set(forcing.pins)
        for pos in forcing.pins:
            affected.update(self.cone_ops(self.ops[pos].out))
        for idx in stems:
            affected.update(self.cone_ops(idx))
        # Ops whose output line is stem-forced never run.
        ops = tuple(
            pos for pos in sorted(affected) if self.ops[pos].out not in stems
        )
        plan = FaultPlan(forcing, ops)
        self._plans[ids] = plan
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
    def first_pin(self) -> Tuple[int, ...]:
        """Per op position: the pin number of its slot 0."""
        sizes = (len(op.srcs) for op in self.ops[:-1])
        return tuple(itertools.accumulate(sizes, initial=0))

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
        n_stems = 2 * len(self.names)
        # Union-find with every parent below its child, so each class's
        # root is its smallest id.  A pin fault joins at most two stem
        # faults (its source's, when the branch folds, and its gate's
        # output's), so pins point at a stem and only stems are merged.
        parent = list(range(n_stems + 2 * len(self.pin_sites)))
        pin = n_stems
        for op in self.ops:
            pairs = PIN_EQUIVALENCES.get(op.kind, ())
            out = 2 * op.out
            for src in op.srcs:
                for value in (0, 1):
                    a = 2 * src + value if folds[src] else None
                    for pin_value, out_value in pairs:
                        if pin_value != value:
                            continue
                        b = out + out_value
                        if a is None:
                            a = b
                            continue
                        while parent[a] != a:
                            parent[a] = a = parent[parent[a]]
                        while parent[b] != b:
                            parent[b] = b = parent[parent[b]]
                        a, b = min(a, b), max(a, b)
                        parent[b] = a
                    if a is not None:
                        parent[pin + value] = a
                pin += 2
        classes: Dict[int, List[int]] = {}
        for fid, up in enumerate(parent):
            parent[fid] = root = parent[up]
            classes.setdefault(root, []).append(fid)
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

    def universe_ids(
        self,
        include_inputs: bool = True,
        include_pins: bool = True,
        collapse: bool = True,
        live_only: bool = True,
    ) -> List[int]:
        """A single-fault id list in id order: with ``collapse`` one
        representative per class (its first member the ``include_*``
        filters keep, so its first stem when it has one), else every kept
        fault less the :attr:`branch_folds` pin faults.  ``live_only``
        drops the faults on lines that reach no output."""
        n_stems = 2 * len(self.names)
        first = 0 if include_inputs else 2 * self.n_inputs
        last = None if include_pins else n_stems
        if collapse:
            # Members ascend: the first one at or past ``first``, unless
            # it is a pin and pins are left out.
            ids = []
            for members in self.fault_classes:
                k = bisect.bisect_left(members, first)
                if k < len(members) and (last is None or members[k] < last):
                    ids.append(members[k])
        else:
            folds = self.branch_folds
            ids = list(range(first, n_stems))
            if include_pins:
                ids += [
                    n_stems + 2 * k + value
                    for k, (_gate, _slot, src) in enumerate(self.pin_sites)
                    if not folds[src]
                    for value in (0, 1)
                ]
        if not live_only:
            return ids
        live = self.live
        return [fid for fid in ids if live[self.fault_site(fid)]]


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

