"""Structural test generation (PODEM) for stuck-at faults.

The truth-table machinery of :mod:`repro.core.testgen` is exact but
exponential in the input count.  For wider networks this module provides
the classical structural alternative: **PODEM** (path-oriented decision
making) over five-valued logic — every line carries a (good, faulty)
value pair from {0, 1, X}, a *D* being (1, 0) and a *D̄* being (0, 1).

**Compiled state.**  The search runs on the integer line indices of
the network's :class:`~repro.engine.compiled.CompiledNetwork` (primary
inputs first, then gates in topological order).  One search's values
live in two flat lists, ``good[i]`` and ``faulty[i]`` (``X`` = unknown),
and the SCOAP measures are lists indexed the same way.  The target is
its one fault id (:meth:`~repro.engine.compiled.CompiledNetwork.fault_ids`;
a fault with no single site raises ``KeyError``), applied inside the one
op evaluator: a stuck stem (gate output or primary input) keeps its
forced faulty value, a stuck pin overrides one operand slot of its gate.
No name, dict key or ``Network`` lookup is left in the search.

**Event queue and undo trail.**  Injecting the fault into the all-X
state is the first event.  A decision assigns one primary input and
re-evaluates only the ops its change reaches, in ascending op order (a
heap over the compiled ``readers``), so each op runs at most once per
decision.  Every line it changes is pushed on a trail as ``(line, old
good, old faulty)``; each decision records the trail length before it,
and backtracking pops the trail back to that mark (restoring the exact
earlier state) before it assigns the flipped value.

**Guided search.**  A one-pass SCOAP-style testability analysis
(0/1-controllability and observability per line) is computed once per
:class:`Podem`; the D-frontier gate closest to an output (lowest
observability) is propagated first, and backtrace picks the *easiest*
input when any input suffices for the objective value but the
*hardest* when all inputs are needed (fail fast).  A dynamic X-path
check prunes branches whose fault effect can no longer reach any output
through still-undecided lines — sound because ternary simulation is
monotone: a concrete composite value never changes as X's are refined.
The D-frontier scan and the X-path walk visit only the fault site's
output cone, the only ops a fault effect can reach, in the order a
whole-network scan would, so they pick what a whole-network scan picks.

:meth:`Podem.generate_test_ex` distinguishes the three search outcomes
(``test`` / ``redundant`` / ``aborted``) and accepts a wall-clock
deadline, which is what the fault-dropping campaign driver in
:mod:`repro.engine.atpg` builds on (in its ``pairs`` mode too, for SCAL
test pairs); :meth:`Podem.generate_test` keeps the legacy
``assignment | None`` surface.

Validated against the exhaustive truth-table generator on every small
network in the test suite.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.compiled import FaultLike, compile_network
from ..logic.gates import DOMINANT_VALUE, GateKind
from ..logic.network import Network

X = None  # the unknown value in three-valued simulation

Value = Optional[int]
Composite = Tuple[Value, Value]  # (good circuit, faulty circuit)

#: Cost ceiling for the SCOAP-style measures (uncontrollable /
#: unobservable lines saturate here instead of overflowing).
UNREACHABLE_COST = 1 << 20


def _eval3(kind: GateKind, values: Sequence[Value]) -> Value:
    """Three-valued gate evaluation (X = unknown)."""
    if kind is GateKind.AND or kind is GateKind.NAND:
        if 0 in values:
            out = 0
        elif X in values:
            return X
        else:
            out = 1
        return out if kind is GateKind.AND else 1 - out
    if kind is GateKind.OR or kind is GateKind.NOR:
        if 1 in values:
            out = 1
        elif X in values:
            return X
        else:
            out = 0
        return out if kind is GateKind.OR else 1 - out
    if kind is GateKind.XOR or kind is GateKind.XNOR:
        if X in values:
            return X
        out = sum(values) % 2
        return out if kind is GateKind.XOR else 1 - out
    if kind is GateKind.NOT:
        return X if values[0] is X else 1 - values[0]
    if kind is GateKind.BUF:
        return values[0]
    if kind is GateKind.MAJ or kind is GateKind.MIN:
        # Both are monotone in the count of ones, so the output is known
        # when the fewest and the most ones the X inputs allow agree.
        # MIN is no 1 - MAJ at even arity: MIN(0, 1) = 0 is a NOR.
        n = len(values)
        fewest = values.count(1)
        most = n - values.count(0)
        if kind is GateKind.MAJ:
            at_fewest, at_most = 2 * fewest > n, 2 * most > n
        else:
            at_fewest, at_most = 2 * fewest < n, 2 * most < n
        return int(at_fewest) if at_fewest == at_most else X
    if kind is GateKind.CONST0:
        return 0
    if kind is GateKind.CONST1:
        return 1
    raise ValueError(f"unsupported gate kind {kind}")


@dataclasses.dataclass(frozen=True)
class PodemResult:
    """Outcome of one budgeted PODEM search.

    ``status`` is ``"test"`` (``test`` holds a full detecting input
    assignment, ``assignment`` just the decided primary inputs — the
    free ones are completion candidates), ``"redundant"`` (the decision
    tree was exhausted: no single-vector test exists), or ``"aborted"``
    (backtrack budget or deadline hit — testability undecided).
    """

    status: str
    test: Optional[Dict[str, int]] = None
    assignment: Optional[Dict[str, int]] = None
    backtracks: int = 0


class _Implication:
    """The line values of one PODEM search and their undo trail (see
    the module docstring): ``good[i]`` / ``faulty[i]`` per line, events
    in ascending op order, ``(line, old good, old faulty)`` trail
    entries."""

    def __init__(self, podem: "Podem", fault: FaultLike) -> None:
        comp = podem.compiled
        ids = comp.fault_ids(fault)
        if len(ids) != 1:  # PODEM targets one stem or one pin
            raise KeyError(fault.describe())
        (fid,) = ids
        self.ops = comp.ops
        self.readers = comp.readers
        self.good: List[Value] = list(podem._x_good)
        self.faulty: List[Value] = list(podem._x_good)
        self.trail: List[Tuple[int, Value, Value]] = []
        self.stem = self.pin_pos = -1
        self.pin_slot = 0
        self.value = fid & 1
        pin = fid - 2 * len(comp.names)
        if pin < 0:
            self.stem = self.site = self.act = fid >> 1
            self.faulty[self.stem] = self.value
            events = list(self.readers[self.stem])
        else:
            self.site, self.pin_slot, self.act = comp.pin_sites[pin >> 1]
            self.pin_pos = self.site - comp.n_inputs
            events = [self.pin_pos]
        #: The ops a fault effect can reach, ascending: the D-frontier
        #: and the X-path live there.
        self.cone = comp.cone_ops(self.site)
        #: The ops whose faulty value may differ from the good one.
        self.faulty_ops = set(self.cone)
        if self.pin_pos >= 0:
            self.faulty_ops.add(self.pin_pos)
        # Injecting the fault is the first event on the fault-free,
        # all-X state; no decision can undo it.
        self._propagate(events)
        self.trail.clear()

    def _eval(self, pos: int) -> Composite:
        op = self.ops[pos]
        good = self.good
        g = _eval3(op.kind, [good[src] for src in op.srcs])
        if op.out == self.stem:
            return g, self.value
        if pos not in self.faulty_ops:
            return g, g
        faulty = self.faulty
        operands = [faulty[src] for src in op.srcs]
        if pos == self.pin_pos:
            operands[self.pin_slot] = self.value
        return g, _eval3(op.kind, operands)

    def assign(self, pi: int, value: int) -> None:
        """Decide primary input ``pi`` and propagate the events."""
        self.trail.append((pi, self.good[pi], self.faulty[pi]))
        self.good[pi] = value
        if pi != self.stem:
            self.faulty[pi] = value
        self._propagate(list(self.readers[pi]))

    def _propagate(self, heap: List[int]) -> None:
        """Re-evaluate the ops in ``heap`` (ascending) and, in ascending
        order, every op reading a line whose value changed."""
        good, faulty, trail = self.good, self.faulty, self.trail
        queued = set(heap)
        while heap:
            pos = heapq.heappop(heap)
            g, f = self._eval(pos)
            out = self.ops[pos].out
            if g != good[out] or f != faulty[out]:
                trail.append((out, good[out], faulty[out]))
                good[out] = g
                faulty[out] = f
                for reader in self.readers[out]:
                    if reader not in queued:
                        queued.add(reader)
                        heapq.heappush(heap, reader)

    def undo(self, mark: int) -> None:
        """Pop the trail back to length ``mark``."""
        good, faulty, trail = self.good, self.faulty, self.trail
        while len(trail) > mark:
            line, g, f = trail.pop()
            good[line] = g
            faulty[line] = f


class Podem:
    """PODEM test generator for one combinational network.

    The search runs on the network's cached compiled form — the one
    every :class:`~repro.engine.NetworkEngine` of the network shares, so
    nothing is compiled twice.
    """

    def __init__(self, network: Network, max_backtracks: int = 2000) -> None:
        self.network = network
        self.max_backtracks = max_backtracks
        self.compiled = compile_network(network)
        self._cc = self._controllability()
        self._co = self._observability()
        # Fault-free values with no input decided: constants and what
        # they imply; every search starts from a copy.
        x_good: List[Value] = [X] * len(self.compiled.names)
        for op in self.compiled.ops:
            x_good[op.out] = _eval3(op.kind, [x_good[s] for s in op.srcs])
        self._x_good: Tuple[Value, ...] = tuple(x_good)

    # ------------------------------------------------------------------
    # SCOAP-style testability measures (one pass per network)
    # ------------------------------------------------------------------
    def _controllability(self) -> List[Tuple[int, int]]:
        """(cost of forcing 0, cost of forcing 1) per line; primary
        inputs cost 1, each gate adds 1 plus its inputs' costs."""
        cap = UNREACHABLE_COST
        comp = self.compiled
        cc: List[Tuple[int, int]] = [(1, 1)] * len(comp.names)
        for op in comp.ops:
            ins = [cc[src] for src in op.srcs]
            kind = op.kind
            if kind is GateKind.CONST0:
                pair = (1, cap)
            elif kind is GateKind.CONST1:
                pair = (cap, 1)
            elif kind is GateKind.BUF:
                pair = (ins[0][0] + 1, ins[0][1] + 1)
            elif kind is GateKind.NOT:
                pair = (ins[0][1] + 1, ins[0][0] + 1)
            elif kind in (GateKind.AND, GateKind.NAND):
                hi = sum(c1 for _c0, c1 in ins) + 1  # all inputs 1
                lo = min(c0 for c0, _c1 in ins) + 1  # any input 0
                pair = (lo, hi) if kind is GateKind.AND else (hi, lo)
            elif kind in (GateKind.OR, GateKind.NOR):
                lo = sum(c0 for c0, _c1 in ins) + 1
                hi = min(c1 for _c0, c1 in ins) + 1
                pair = (lo, hi) if kind is GateKind.OR else (hi, lo)
            elif kind in (GateKind.XOR, GateKind.XNOR):
                even, odd = 0, cap  # parity DP over the fan-in
                for c0, c1 in ins:
                    even, odd = (
                        min(even + c0, odd + c1),
                        min(even + c1, odd + c0),
                    )
                pair = (
                    (even + 1, odd + 1)
                    if kind is GateKind.XOR
                    else (odd + 1, even + 1)
                )
            elif kind in (GateKind.MAJ, GateKind.MIN):
                need = len(ins) // 2 + 1  # votes to decide either way
                hi = sum(sorted(c1 for _c0, c1 in ins)[:need]) + 1
                lo = sum(sorted(c0 for c0, _c1 in ins)[:need]) + 1
                pair = (lo, hi) if kind is GateKind.MAJ else (hi, lo)
            else:  # pragma: no cover - exhaustive over GateKind
                pair = (1, 1)
            cc[op.out] = (min(pair[0], cap), min(pair[1], cap))
        return cc

    def _observability(self) -> List[int]:
        """Cost of propagating a value difference from each line to some
        primary output (0 at the outputs themselves)."""
        cap = UNREACHABLE_COST
        comp = self.compiled
        cc = self._cc
        co: List[int] = [cap] * len(comp.names)
        for out in comp.out_idx:
            co[out] = 0
        for op in reversed(comp.ops):
            out_co = co[op.out]
            kind = op.kind
            for pin, src in enumerate(op.srcs):
                others = [s for j, s in enumerate(op.srcs) if j != pin]
                if kind in (GateKind.AND, GateKind.NAND):
                    extra = sum(cc[o][1] for o in others)
                elif kind in (GateKind.OR, GateKind.NOR):
                    extra = sum(cc[o][0] for o in others)
                elif kind in (GateKind.NOT, GateKind.BUF):
                    extra = 0
                else:  # XOR/XNOR/MAJ/MIN: side inputs pinned either way
                    extra = sum(min(cc[o]) for o in others)
                cand = min(out_co + extra + 1, cap)
                if cand < co[src]:
                    co[src] = cand
        return co

    # ------------------------------------------------------------------
    # detection and the X-path check
    # ------------------------------------------------------------------
    def _detected(self, imp: _Implication) -> bool:
        good, faulty = imp.good, imp.faulty
        for out in self.compiled.out_idx:
            g, f = good[out], faulty[out]
            if g is not X and f is not X and g != f:
                return True
        return False

    def _possible(self, imp: _Implication) -> bool:
        """Could this partial assignment still lead to detection?"""
        good, faulty = imp.good, imp.faulty
        site_good = good[imp.act]
        site_faulty = faulty[imp.act] if imp.pin_pos < 0 else imp.value
        if site_good is not X and site_faulty is not X and site_good == site_faulty:
            return False  # fault not activated and can no longer be
        # Open lines: an undecided composite value or a live fault effect.
        # Ternary simulation is monotone (a concrete composite value never
        # changes as X's refine), so a detecting refinement can only flip
        # outputs that are open now, through lines that are open now.
        # Dynamic X-path check: walk backwards from the open outputs
        # through open lines; the fault site must still be on such a
        # path.  Only the site's output cone can carry one.
        live = set()
        for out in self.compiled.out_idx:
            g, f = good[out], faulty[out]
            if g is X or f is X or g != f:
                live.add(out)
        if not live:
            return False
        ops = imp.ops
        for pos in reversed(imp.cone):
            op = ops[pos]
            if op.out in live:
                for src in op.srcs:
                    g, f = good[src], faulty[src]
                    if g is X or f is X or g != f:
                        live.add(src)
        return imp.site in live

    # ------------------------------------------------------------------
    # objective and backtrace
    # ------------------------------------------------------------------
    def _objective(self, imp: _Implication) -> Optional[Tuple[int, int]]:
        good, faulty = imp.good, imp.faulty
        if good[imp.act] is X:
            return (imp.act, 1 - imp.value)  # activate the fault
        # Propagate: among the D-frontier gates (output still open, some
        # input carrying a definite fault effect, some input still X),
        # drive the one closest to an output — lowest observability —
        # and feed it its cheapest non-controlling side input.  Only
        # the site's output cone can hold a fault effect.
        co = self._co
        best: Optional[Tuple[int, GateKind, List[int]]] = None
        ops = imp.ops
        for pos in imp.cone:
            op = ops[pos]
            if good[op.out] is not X and faulty[op.out] is not X:
                continue
            has_effect = False
            for src in op.srcs:
                g, f = good[src], faulty[src]
                if g is not X and f is not X and g != f:
                    has_effect = True
                    break
            if not has_effect:
                continue
            x_inputs = [src for src in op.srcs if good[src] is X]
            if not x_inputs:
                continue
            rank = co[op.out]
            if best is None or rank < best[0]:
                best = (rank, op.kind, x_inputs)
        if best is not None:
            _rank, kind, x_inputs = best
            noncontrolling = 1
            if kind in DOMINANT_VALUE:
                noncontrolling = 1 - DOMINANT_VALUE[kind][0]
            cc = self._cc
            src = min(x_inputs, key=lambda s: cc[s][noncontrolling])
            return (src, noncontrolling)
        # Fall back: the first undecided primary input.
        for line in range(self.compiled.n_inputs):
            if good[line] is X:
                return (line, 1)
        return None

    def _backtrace(
        self, imp: _Implication, line: int, value: int
    ) -> Tuple[int, int]:
        """Walk an X-path from the objective back to a primary input,
        choosing fan-ins by controllability: the *hardest* input when the
        objective needs all of them (fail fast), the *easiest* when any
        one suffices.  Every step moves to a lower line index, so the
        walk ends at a primary input."""
        comp = self.compiled
        good = imp.good
        current, target = line, value
        while current >= comp.n_inputs:
            op = comp.ops[current - comp.n_inputs]
            if op.kind in (
                GateKind.NOT, GateKind.NAND, GateKind.NOR, GateKind.MIN
            ):
                target = 1 - target
            x_inputs = [src for src in op.srcs if good[src] is X]
            if not x_inputs:
                x_inputs = list(op.srcs)
            current = self._pick_backtrace_input(op.kind, x_inputs, target)
        return current, target

    def _pick_backtrace_input(
        self, kind: GateKind, x_inputs: List[int], target: int
    ) -> int:
        if len(x_inputs) == 1:
            return x_inputs[0]
        cc = self._cc
        # ``target`` already refers to the non-inverted core (the caller
        # flipped it for NAND/NOR/NOT/MIN), so AND-like cores need every
        # input at 1 and OR-like cores every input at 0.
        if kind in (GateKind.AND, GateKind.NAND):
            all_needed = target == 1
        elif kind in (GateKind.OR, GateKind.NOR):
            all_needed = target == 0
        else:
            return min(x_inputs, key=lambda s: min(cc[s]))
        chooser = max if all_needed else min
        return chooser(x_inputs, key=lambda s: cc[s][target])

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def generate_test_ex(
        self, fault: FaultLike, deadline: Optional[float] = None
    ) -> PodemResult:
        """Run the budgeted search and report *why* it stopped.

        ``deadline`` is an absolute :func:`time.monotonic` instant; a
        search still running past it returns ``aborted`` (the campaign
        driver's per-target timeout).  An exhausted decision tree is
        ``redundant`` — on these combinational networks PODEM is
        complete, so exhaustion is a proof of untestability.
        """
        imp = _Implication(self, fault)
        good = imp.good
        # (primary input, value, tried_both, trail mark before it)
        decisions: List[Tuple[int, int, bool, int]] = []
        backtracks = 0
        aborted = False

        def backtrack() -> bool:
            """Flip the most recent untried decision; False = exhausted."""
            nonlocal backtracks, aborted
            while decisions:
                pi, value, tried_both, mark = decisions.pop()
                imp.undo(mark)
                if not tried_both:
                    backtracks += 1
                    if backtracks > self.max_backtracks:
                        aborted = True
                        return False
                    imp.assign(pi, 1 - value)
                    decisions.append((pi, 1 - value, True, mark))
                    return True
            return False

        def stopped() -> PodemResult:
            return PodemResult(
                status="aborted" if aborted else "redundant",
                backtracks=backtracks,
            )

        names = self.compiled.input_names
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                aborted = True
                return stopped()
            if self._detected(imp):
                return PodemResult(
                    status="test",
                    test={
                        name: 0 if good[i] is X else good[i]
                        for i, name in enumerate(names)
                    },
                    assignment={
                        names[pi]: value for pi, value, _both, _m in decisions
                    },
                    backtracks=backtracks,
                )
            if not self._possible(imp):
                if not backtrack():
                    return stopped()
                continue
            objective = self._objective(imp)
            if objective is None:
                # Fully assigned (or masked) without detection: this
                # branch of the decision tree is a dead end.
                if not backtrack():
                    return stopped()
                continue
            pi, value = self._backtrace(imp, *objective)
            if good[pi] is not X:
                # Backtrace could not reach a fresh input: dead end.
                if not backtrack():
                    return stopped()
                continue
            mark = len(imp.trail)
            imp.assign(pi, value)
            decisions.append((pi, value, False, mark))

    def generate_test(self, fault: FaultLike) -> Optional[Dict[str, int]]:
        """A primary-input assignment detecting ``fault`` (single-vector
        sense), or ``None`` when the budgeted search finds no test."""
        return self.generate_test_ex(fault).test
