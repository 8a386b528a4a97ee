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

:meth:`fault_plan` turns any stem/pin single or multiple fault into a
pre-resolved plan: forced line values, per-op pin overrides, and the
minimal ascending op list to re-evaluate on top of a cached fault-free
baseline.  The backends in :mod:`repro.engine.backends` execute these
plans pointwise, word-parallel, or over sampled points.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Dict, List, Optional, Tuple, Union

from ..logic.faults import Fault, MultipleFault, fault_overrides
from ..logic.gates import GateKind
from ..logic.network import Network

FaultLike = Union[Fault, MultipleFault]


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

    def fault_plan(self, fault: FaultLike) -> FaultPlan:
        """Resolve a fault into forced values plus the minimal re-simulation
        schedule over the fault's output cone(s)."""
        plan = self._plans.get(fault)
        if plan is not None:
            return plan
        stem_names, pin_keys = fault_overrides(fault)
        # Faults naming lines absent from this network are ignored, matching
        # the legacy evaluators' dict-lookup semantics.
        stems: Dict[int, int] = {
            self.index[name]: value
            for name, value in stem_names.items()
            if name in self.index
        }
        pins: Dict[int, List[Tuple[int, int]]] = {}
        affected: set = set()
        for (gate, pin), value in pin_keys.items():
            idx = self.index.get(gate)
            if idx is None or idx < self.n_inputs:
                continue
            pos = idx - self.n_inputs
            if pin >= len(self.ops[pos].srcs):
                continue
            pins.setdefault(pos, []).append((pin, value))
            affected.add(pos)
            affected.update(self.cone_ops(idx))
        for idx in stems:
            affected.update(self.cone_ops(idx))
        # Ops whose output line is stem-forced never run: the forced value
        # wins (and shadows any pin override on the same gate, exactly as
        # the legacy evaluators resolved the conflict).
        ops = tuple(
            pos
            for pos in sorted(affected)
            if self.ops[pos].out not in stems
        )
        plan = FaultPlan(
            stems=tuple(sorted(stems.items())),
            pins={pos: tuple(overrides) for pos, overrides in pins.items()},
            ops=ops,
        )
        self._plans[fault] = plan
        return plan


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

