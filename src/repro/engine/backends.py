"""Interchangeable execution backends over a compiled netlist.

Two backends share one :class:`~repro.engine.compiled.CompiledNetwork`
and one interpreter, :func:`run_ops`.  The bitmask backend computes the
fault-free **baseline** once, caches it, and answers each faulty query
from the baseline plus as little extra simulation as the query needs;
a point query is one pass of its own.

* :class:`BitmaskBackend` — word-parallel: every line is a ``2**n``-bit
  truth-table mask, one pass covers the whole input space (a big int
  already is a packed word array).  This is the exhaustive-oracle
  backend (Definition 2.4, conditions A–E) and the one exhaustive
  sweep.  Its classification (:meth:`BitmaskBackend.response_triple`,
  :meth:`~BitmaskBackend._classify`) is a **stem-region** sweep:
  critical-path tracing with exact stem simulation (Abramovici, Menon
  & Miller, 1984).  A single stuck-at fault on line ``L`` changes
  output ``O`` at point ``p`` exactly when ``L`` differs from its stuck
  value at ``p`` and complementing ``L`` at ``p`` flips ``O``.  Every
  line that drives exactly one pin and is no output belongs to its
  reader's fanout-free region; one reverse pass gives each line its
  region's **root** (a fanout stem or an output) and a **sensitization
  mask** (the points where complementing the line complements the
  root), and one flip simulation of each root's output cone gives its
  output deltas, stored split into pair halves (point ``p`` of the
  lower half beside its complement ``~p``), so the ``X ↔ X̄`` pairing
  is an aligned AND.  A fault of one fault id then costs a few mask
  operations and one half-width
  :func:`~repro.logic.truthtable.reverse_bits`.  Explicit line
  tables (:meth:`~BitmaskBackend.line_bits`) and faults of any other
  number of ids (multiple faults, absent lines) take the cone schedule
  instead (the
  :meth:`~repro.engine.compiled.CompiledNetwork.fault_plan` path:
  copy the baseline, re-evaluate only the fault's output cone); a
  ``cone=True`` sweep takes it for every fault, which is the
  reference the stem-region path is checked against.  ATPG reads each
  fault's test set off the same root flips
  (:meth:`~BitmaskBackend.detection_mask`).
* :class:`PointQueries` — explicit input points (for spaces too wide to
  enumerate): one point is a one-row pass, a point list one packed pass
  with a row per point.

A :class:`NetworkEngine` holds one network's compiled form and both
backends; :func:`engine_for` shares one per network instance.

**Pair tiles.**  Definition 2.4 classifies a fault pair by pair, so any
set of whole pairs can be classified alone, and a fault's status is the
most severe over the sets.  Above :data:`UNTILED_MAX_INPUTS` inputs a
sweep runs once per tile of :data:`TILE_PAIRS` pairs: lower-half points
``[lo, lo+T)`` followed by their complements ``[2**n-lo-T, 2**n-lo)``,
as one ``2T``-bit table.  Inside a tile the complement of bit ``j`` is
bit ``2T-1-j``, the reversal of a ``(log2 T + 1)``-input table, so the
pairing code runs unchanged at that width; only the input variables'
masks differ (:meth:`BitmaskBackend.tile`).  Each tile's baseline,
regions and root flips are derived, used and dropped, which bounds a
sweep's memory at any width.  At or below the cut a sweep is one tile,
the whole table.  The one tile loop is
:class:`repro.engine.campaign.FaultItems`, which puts the tiles on a
sweep's item axis, so each process derives each tile once.

**One interpreter.**  Every table above, the clocked sequential
campaigns (:class:`repro.seq.simulator.Stepper`, one fault per row) and
ATPG pattern simulation (:func:`repro.engine.atpg.pattern_detections`,
one fault per slot of pattern bits over the explicit pattern list
:func:`pack_pattern_masks` packs) run the op program through :func:`run_ops`, with faults in the
one forcing form, :class:`~repro.engine.compiled.RowForcing`.  A fault
plan is such a forcing over every row, so the bitmask chaos sabotage of
:mod:`repro.qa.chaos` on :func:`evaluate_mask` reaches every caller.

The public queries take named faults and resolve them to fault ids
(:meth:`~repro.engine.compiled.CompiledNetwork.fault_ids`) at entry;
everything below them works on ids.  Both return plain
``list``/``tuple`` values; the name-keyed
wrappers in :mod:`repro.logic.evaluate` re-attach line names for
callers that want them.
"""

from __future__ import annotations

import functools
import threading
import weakref
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..logic.gates import GateKind, evaluate_mask
from ..logic.network import Network
from ..logic.truthtable import reverse_bits
from .. import obs
from .compiled import CompiledNetwork, FaultLike, RowForcing, compile_network

#: Widest input space a sweep classifies as one whole table.  Above it
#: the sweep runs per pair tile, each tile derived once per process.
#: Tiles take about the whole table's time from 8 to 22 inputs
#: (``benchmarks/bench_rungs.py``), while the whole table's memory
#: doubles per input; 20 is the widest row where it is still small.
UNTILED_MAX_INPUTS = 20

#: Pairs per tile of a tiled sweep (a ``2**18``-bit, 32 KiB table per
#: line).  At 22 inputs the sweep time is flat from ``2**17`` to
#: ``2**19`` pairs while peak memory grows with the tile.
TILE_PAIRS = 1 << 17

#: Whole tables are ``2**n`` bits *per line*; beyond this many inputs
#: even the all-ones ``full`` mask is a multi-gigabyte allocation, so
#: the methods of :class:`BitmaskBackend` that build or read a whole
#: table refuse with ``ValueError`` instead of attempting the OOM.
#: A sweep (:class:`repro.engine.campaign.FaultItems`) tiles, so it runs
#: at any width.
MAX_BITMASK_INPUTS = 25

#: Fault statuses in increasing severity: a tiled sweep keeps each
#: fault's most severe tile status.
SEVERITY = ("silent", "detected", "dangerous")


def most_severe(old: Sequence[str], new: Sequence[str]) -> List[str]:
    """Per fault, the more severe of two tiles' statuses."""
    return [max(a, b, key=SEVERITY.index) for a, b in zip(old, new)]


def tile_count(n_inputs: int) -> int:
    """How many tables a sweep of ``n_inputs`` inputs classifies on: the
    whole table up to :data:`UNTILED_MAX_INPUTS` inputs, else pair tiles
    of :data:`TILE_PAIRS` pairs covering the lower half."""
    if n_inputs <= UNTILED_MAX_INPUTS:
        return 1
    half = 1 << (n_inputs - 1)
    return half // min(TILE_PAIRS, half)

# Telemetry: per-backend work counters.  Hot paths hoist the enabled
# check (`_REG.enabled`) so a disabled registry costs one branch per
# query, not one call per op.
_REG = obs.REGISTRY
_M_OPS = _REG.counter(
    "repro_engine_ops_total", "Compiled ops evaluated, by backend"
)
_M_WORDS = _REG.counter(
    "repro_engine_words_total", "64-bit truth-table words simulated, by backend"
)


def classify_status(detected: int, violations: int) -> str:
    """``dangerous`` | ``detected`` | ``silent`` from pair-level masks
    (or any truthy stand-ins for them) — the Section 2.4 coverage
    buckets (dangerous = fault-secure violation)."""
    if violations:
        return "dangerous"
    if detected:
        return "detected"
    return "silent"


def table_normals(
    outs: Sequence[int], n: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Fault-free output tables and their alternation masks (bit ``p``
    set iff the output differs at ``p`` and at its complement)."""
    return tuple(outs), tuple(t ^ reverse_bits(t, n) for t in outs)


def table_response(
    normals: Tuple[Tuple[int, ...], Tuple[int, ...]],
    faulty: Sequence[int],
    n: int,
) -> Tuple[int, int, int]:
    """``(affected, detected, violations)`` pair-level masks of one fault
    from its output tables and the :func:`table_normals` of the
    fault-free ones, all big ints in truth-table order — the raw-integer
    SCAL classification (Definition 2.4)."""
    normal_out, normal_alt = normals
    full = (1 << (1 << n)) - 1
    wrong = 0
    detected = 0
    all_alternate = full
    for t_normal, alt_normal, t_fault in zip(normal_out, normal_alt, faulty):
        if t_fault == t_normal:
            alternates = alt_normal
        else:
            alternates = t_fault ^ reverse_bits(t_fault, n)
            wrong |= t_normal ^ t_fault
        detected |= alternates ^ full  # nonalternating pairs
        all_alternate &= alternates
    # Close point sets under the X ↔ X̄ pairing (alternation masks
    # are already pair-symmetric, so `detected` needs no closing).
    affected = wrong | reverse_bits(wrong, n)
    return affected, detected, affected & all_alternate


def variable_masks(width: int, count: int) -> List[int]:
    """Masks of inputs ``0 .. count-1`` over a ``2**width``-bit table:
    bit ``p`` of mask ``i`` is bit ``i`` of point ``p``.

    Mask doubling: start from one period (``2**i`` zeros then ``2**i``
    ones) and double the covered span until it fills the table — O(n)
    big-int ops instead of O(2**n) shifts.
    """
    total = 1 << width
    masks = []
    for i in range(count):
        mask = ((1 << (1 << i)) - 1) << (1 << i)
        span = 1 << (i + 1)
        while span < total:
            mask |= mask << span
            span <<= 1
        masks.append(mask)
    return masks


def run_ops(
    comp: CompiledNetwork,
    values: List[int],
    full: int,
    ops: Optional[Sequence[int]] = None,
    forcing: Optional[RowForcing] = None,
) -> List[int]:
    """The one op interpreter: run every op, or the ascending positions
    ``ops`` (a cone, on a baseline copy), on ``values`` (every line's
    mask; ``full`` is all ones) in place, and return it.

    ``forcing``'s line and pin masks override the values where its faults
    sit, masked with ``full`` so a fault plan's every-row mask ``-1``
    fits any width.  A buffer copies its operand; every other kind goes
    through this module's :func:`evaluate_mask`, looked up at call time,
    so a chaos patch of that name reaches every caller."""
    program = comp.ops
    if forcing is None:
        lines, pins = {}, {}
    else:
        lines, pins = forcing.lines, forcing.pins
        # A whole pass forces each gate line after its op; a cone may
        # skip a forced line's op, so it forces every line first.
        first = comp.n_inputs if ops is None else len(values)
        for line, (rows, ones) in lines.items():
            if line < first:
                values[line] = (values[line] & ~rows | ones) & full
    if ops is None:
        ops = range(len(program))
    buf = GateKind.BUF
    for pos in ops:
        op = program[pos]
        kind = op.kind
        if pins and pos in pins:
            operands = [values[s] for s in op.srcs]
            for slot, (rows, ones) in pins[pos].items():
                operands[slot] = (operands[slot] & ~rows | ones) & full
            value = evaluate_mask(kind, operands, full)
        elif kind is buf:
            value = values[op.srcs[0]]
        else:
            value = evaluate_mask(kind, [values[s] for s in op.srcs], full)
        out = op.out
        if out in lines:
            rows, ones = lines[out]
            value = (value & ~rows | ones) & full
        values[out] = value
    return values


class BitmaskBackend:
    """Word-parallel evaluation: one integer mask per line.

    ``tile``, ``(width, variables)``, makes a backend over one pair tile
    of a tiled sweep instead of the whole table: a ``2**width``-bit
    table whose input lines hold ``variables`` (see :meth:`tile`).
    """

    def __init__(
        self,
        compiled: CompiledNetwork,
        tile: Optional[Tuple[int, List[int]]] = None,
    ) -> None:
        self.compiled = compiled
        # The table's width: the reversal of a `width`-input table pairs
        # its points (the whole table's, or one tile's).
        width, self._variables = (
            (compiled.n_inputs, None) if tile is None else tile
        )
        self._width = width
        self._baseline: Optional[Tuple[int, ...]] = None
        self._baseline_lock = threading.Lock()
        self._words_per_line = max(1, (1 << width) >> 6)
        self._normals: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        # Stem-region state, derived like the baseline and as immutable
        # tuples: ``(roots, sens)`` per line, and each root's flip
        # response, filled on first use.
        self._regions: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        self._flips: Dict[int, Tuple] = {}
        # Pair halves: point p < H of the lower half is paired with
        # point ~p of the upper half; width 0 pairs its point with itself.
        self._half = (1 << (width - 1)) if width else 0

    @functools.cached_property
    def full(self) -> int:
        """The all-ones table mask.  A whole table wider than
        :data:`MAX_BITMASK_INPUTS` inputs refuses with ``ValueError``
        here, before anything is allocated."""
        n = self.compiled.n_inputs
        if self._variables is None and n > MAX_BITMASK_INPUTS:
            raise ValueError(
                f"BitmaskBackend: {n} inputs exceeds the "
                f"{MAX_BITMASK_INPUTS}-input exhaustive ceiling for a "
                f"whole table (a 2**{n}-bit mask per line); "
                "a fault sweep tiles and runs at any width, and the "
                "pointwise backend serves explicit points"
            )
        return (1 << (1 << self._width)) - 1

    @functools.cached_property
    def _low(self) -> int:
        """The lower half's mask, and the all-pairs mask of pair masks."""
        return self.full >> self._half if self._half else 1

    def baseline(self) -> Tuple[int, ...]:
        """Fault-free masks for every line.

        Cached as an **immutable tuple**: engines are shared across
        concurrently constructed sweeps (``engine_for``) and held across
        ``serve`` requests, so an accidental in-place write by any
        consumer must raise instead of silently corrupting every other
        sweep on the same network.  Faulty queries copy it
        (:meth:`line_bits`); the lock makes first-derivation safe under
        the server's worker threads.
        """
        if self._baseline is None:
            full = self.full  # refuses a whole table too wide to hold
            with self._baseline_lock:
                if self._baseline is None:
                    self._baseline = self._derive_baseline(full)
        return self._baseline

    def _derive_baseline(self, full: int) -> Tuple[int, ...]:
        comp = self.compiled
        variables = self._variables
        if variables is None:
            variables = variable_masks(comp.n_inputs, comp.n_inputs)
        values = run_ops(comp, list(variables) + [0] * len(comp.ops), full)
        self._count_ops(len(comp.ops))
        return tuple(values)

    def line_bits(self, fault: Optional[FaultLike] = None) -> List[int]:
        """Masks for every line under ``fault`` (cone-pruned re-simulation
        on top of the cached baseline).  Always returns a fresh list —
        the cached baseline itself stays immutable behind
        :meth:`baseline`."""
        if fault is None:
            return list(self.baseline())
        return self._plan_lines(self.compiled.fault_ids(fault))

    def _plan_lines(self, ids: Tuple[int, ...]) -> List[int]:
        """Every line's mask under fault ids ``ids``, by their cone plan."""
        plan = self.compiled.fault_plan(ids)
        values = run_ops(
            self.compiled, list(self.baseline()), self.full, plan.ops,
            plan.forcing,
        )
        self._count_ops(len(plan.ops))
        return values

    def output_bits(self, fault: Optional[FaultLike] = None) -> Tuple[int, ...]:
        return self._outputs(self.line_bits(fault))

    def _outputs(self, values: Sequence[int]) -> Tuple[int, ...]:
        return tuple(values[i] for i in self.compiled.out_idx)

    # ------------------------------------------------------------------
    # SCAL pair classification (Definition 2.4)
    # ------------------------------------------------------------------
    def normals(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Fault-free output masks and their alternation masks (cached)."""
        if self._normals is None:
            self._normals = table_normals(self.output_bits(), self._width)
        return self._normals

    def response_triple(self, fault: FaultLike) -> Tuple[int, int, int]:
        """``(affected, detected, violations)`` pair-level masks for one
        fault, byte-identical to :func:`table_response` over this
        backend's tables.  A fault of exactly one fault id takes the
        stem-region path; any other fault re-simulates its cone
        schedule."""
        ids = self.compiled.fault_ids(fault)
        if len(ids) != 1:
            return self._cone_response(ids)
        pairs = self._flip_pairs(*self._site_mask(ids[0]))
        return tuple(self._join(mask, mask) for mask in pairs)

    def _cone_response(self, ids: Tuple[int, ...]) -> Tuple[int, int, int]:
        return table_response(
            self.normals(), self._outputs(self._plan_lines(ids)), self._width
        )

    def _classify(
        self, faults: Sequence[Tuple[int, ...]], cone: bool = False
    ) -> List[str]:
        """One table's statuses of faults given by their fault ids: a
        single id on its stem region, anything else (or everything, with
        ``cone=True``) on its cone plan."""
        statuses = []
        for ids in faults:
            _aff, det, vio = (
                self._cone_response(ids)
                if cone or len(ids) != 1
                else self._flip_pairs(*self._site_mask(ids[0]))
            )
            statuses.append(classify_status(det, vio))
        return statuses

    def tile(self, index: int) -> "BitmaskBackend":
        """Table ``index`` of :func:`tile_count`: this backend itself when
        it is untiled or already a tile, else a fresh backend over the
        ``index``-th pair tile.

        Tile ``lo = index*T`` of ``T`` pairs holds points ``[lo, lo+T)``
        in bits ``[0, T)`` and ``[2**n-lo-T, 2**n-lo)`` in bits
        ``[T, 2T)``.  Both ranges start at a multiple of ``T``, so below
        bit ``log2 T`` every input repeats with its usual period over the
        ``2T`` bits, and above it each input is constant on each range.
        """
        n = self.compiled.n_inputs
        if self._variables is not None or n <= UNTILED_MAX_INPUTS:
            return self
        pairs = min(TILE_PAIRS, 1 << (n - 1))
        width = pairs.bit_length()
        low = (1 << pairs) - 1
        lo = index * pairs
        top = (1 << n) - lo - pairs
        constant = [
            (low if lo >> i & 1 else 0) | (low << pairs if top >> i & 1 else 0)
            for i in range(width - 1, n)
        ]
        return BitmaskBackend(
            self.compiled, (width, variable_masks(width, width - 1) + constant)
        )

    # ------------------------------------------------------------------
    # stem regions (critical-path tracing with exact stem simulation)
    # ------------------------------------------------------------------
    def regions(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(roots, sens)``: per line, the root of its fanout-free region
        and the points where complementing the line complements that
        root (``full`` for a root itself).

        One reverse pass over the ops: a line that drives exactly one pin
        and is no output (:attr:`CompiledNetwork.branch_folds`) takes its
        reader's root and ``sens(reader) & (reader(pin complemented) ^
        reader)``.  Cached like :meth:`baseline`.
        """
        if self._regions is None:
            baseline = self.baseline()
            with self._baseline_lock:
                if self._regions is None:
                    self._regions = self._derive_regions(baseline)
        return self._regions

    def _derive_regions(self, baseline: Tuple[int, ...]):
        comp = self.compiled
        full = self.full
        folds = comp.branch_folds
        roots = list(range(len(comp.names)))
        sens = [full] * len(comp.names)
        folded = 0
        for op in reversed(comp.ops):
            gate = op.out
            for slot, src in enumerate(op.srcs):
                if folds[src]:
                    roots[src] = roots[gate]
                    sens[src] = sens[gate] & self._pin_delta(
                        op, slot, baseline[src] ^ full, baseline
                    )
                    folded += 1
        self._count_ops(folded)
        return tuple(roots), tuple(sens)

    def _pin_delta(self, op, slot: int, operand: int, baseline) -> int:
        """Points where ``op``'s output changes when pin ``slot`` reads
        ``operand`` instead of its baseline (one op evaluation)."""
        operands = [baseline[s] for s in op.srcs]
        operands[slot] = operand
        return evaluate_mask(op.kind, operands, self.full) ^ baseline[op.out]

    def _count_ops(self, ops: int) -> None:
        if _REG.enabled:
            _M_OPS.inc(ops, backend="bitmask")
            _M_WORDS.inc(ops * self._words_per_line, backend="bitmask")

    def _site_mask(self, fid: int) -> Tuple[int, int]:
        """``(root, m)`` of fault id ``fid`` on this table: ``m`` the
        points where the fault complements ``root``."""
        comp = self.compiled
        baseline = self.baseline()
        roots, sens = self.regions()
        value = fid & 1
        pin = fid - 2 * len(comp.names)
        if pin < 0:
            line = fid >> 1
            differs = baseline[line] ^ self.full if value else baseline[line]
            return roots[line], sens[line] & differs
        gate, slot, _src = comp.pin_sites[pin >> 1]
        self._count_ops(1)
        forced = self._pin_delta(
            comp.ops[gate - comp.n_inputs], slot, self.full if value else 0,
            baseline,
        )
        return roots[gate], sens[gate] & forced

    def _halves(self, mask: int) -> Tuple[int, int]:
        """``(lo, hi)`` of a truth-table mask: bit ``p`` of ``lo`` is
        point ``p < H`` and bit ``p`` of ``hi`` its complement ``~p``,
        so pair ``p`` is bit ``p`` of both."""
        if not self._half:
            return mask, mask
        return mask & self._low, reverse_bits(
            mask >> self._half, self._width - 1
        )

    def _join(self, lo: int, hi: int) -> int:
        """The truth-table mask of :meth:`_halves` ``(lo, hi)``."""
        if not self._half:
            return lo
        return lo | reverse_bits(hi, self._width - 1) << self._half

    def _root_flip(self, root: int) -> Tuple:
        """``(deltas, detected, all_alternate, changed)`` of complementing
        ``root`` everywhere: ``deltas`` holds ``(k, lo, hi, alternates)``
        of each output ``k`` whose table changes — the :meth:`_halves` of
        its delta and its pair alternation mask — the next two fold the
        outputs it leaves alone into pair masks, and ``changed`` is the
        points where some output changes.  One simulation of the root's
        output cone, on first use."""
        flip = self._flips.get(root)
        if flip is not None:
            return flip
        comp = self.compiled
        full = self.full
        baseline = self.baseline()
        values = list(baseline)
        values[root] ^= full
        cone = comp.cone_ops(root)
        run_ops(comp, values, full, cone)
        self._count_ops(len(cone))
        low = self._low
        deltas = []
        detected = changed = 0
        all_alternate = low
        for k, (idx, alternates) in enumerate(
            zip(comp.out_idx, self.normals()[1])
        ):
            alternates &= low  # pair-symmetric: its lower half is per pair
            delta = values[idx] ^ baseline[idx]
            if delta:
                deltas.append((k, *self._halves(delta), alternates))
                changed |= delta
            else:
                detected |= alternates ^ low
                all_alternate &= alternates
        flip = (tuple(deltas), detected, all_alternate, changed)
        self._flips[root] = flip
        return flip

    def _flip_pairs(self, root: int, m: int) -> Tuple[int, int, int]:
        """:func:`table_response` of outputs ``O ^ (D & m)`` as masks over
        pairs: output ``k`` alternates on pair ``p`` unless exactly one
        of its two points flips, ``alt ^ e_lo ^ e_hi`` with ``e = D & m``
        split by :meth:`_halves` — one reversal, of ``m``, per fault."""
        deltas, detected, all_alternate, _changed = self._root_flip(root)
        if not deltas:
            return 0, detected, 0
        low = self._low
        m_lo, m_hi = self._halves(m)
        affected = 0
        for _k, delta_lo, delta_hi, alternates in deltas:
            wrong_lo = delta_lo & m_lo
            wrong_hi = delta_hi & m_hi
            affected |= wrong_lo | wrong_hi
            alternates ^= wrong_lo ^ wrong_hi
            detected |= alternates ^ low
            all_alternate &= alternates
        return affected, detected, affected & all_alternate

    def detection_mask(self, fault: FaultLike, pairs: bool = False) -> int:
        """A fault's test set: bit ``p`` for each point ``p`` where some
        output changes or, in ``pairs`` mode, bit ``p < H`` for each pair
        ``(p, ~p)`` on which some output alternates fault-free and not
        under the fault (Theorem 3.2's nonalternating output).  A
        single-id fault reads its root flip, ``(D & m)`` per output;
        any other fault its cone plan's output tables."""
        ids = self.compiled.fault_ids(fault)
        if len(ids) != 1:
            mask, outs = 0, self._outputs(self._plan_lines(ids))
            for good, alt, bad in zip(*self.normals(), outs):
                if pairs:  # the good pairs that alternate, the bad don't
                    bad ^= reverse_bits(bad, self._width)
                    good, bad = alt, alt & bad
                mask |= good ^ bad
            return mask & self._low if pairs else mask
        root, m = self._site_mask(ids[0])
        deltas, _detected, _all_alternate, changed = self._root_flip(root)
        if not pairs:
            return m & changed
        # Pair p stops alternating where exactly one of its points flips.
        m_lo, m_hi = self._halves(m)
        mask = 0
        for _k, delta_lo, delta_hi, alternates in deltas:
            mask |= alternates & ((delta_lo & m_lo) ^ (delta_hi & m_hi))
        return mask

    def region_output_bits(
        self, fault: FaultLike
    ) -> Optional[Tuple[int, ...]]:
        """The output tables :meth:`response_triple` classifies for a
        fault on the stem-region path, ``O ^ (D & m)``; ``None`` for a
        fault that takes the cone path."""
        ids = self.compiled.fault_ids(fault)
        if len(ids) != 1:
            return None
        root, m = self._site_mask(ids[0])
        m_lo, m_hi = self._halves(m)
        outputs = list(self.output_bits())
        for k, delta_lo, delta_hi, _alt in self._root_flip(root)[0]:
            outputs[k] ^= self._join(delta_lo & m_lo, delta_hi & m_hi)
        return tuple(outputs)


def pack_pattern_masks(
    patterns: Sequence[int], n_inputs: int
) -> List[int]:
    """Per-input big-int masks of an explicit pattern list.

    Bit ``j`` of mask ``i`` is input ``i``'s value under pattern ``j``
    (patterns are point encodings: bit ``i`` = input ``i``) — the
    pattern-space analogue of the truth-table variable masks.
    """
    masks = [0] * n_inputs
    for j, point in enumerate(patterns):
        p = int(point)
        bit = 1 << j
        i = 0
        while p and i < n_inputs:
            if p & 1:
                masks[i] |= bit
            p >>= 1
            i += 1
    return masks


class PointQueries:
    """Explicit input points on :func:`run_ops`, for spaces too wide to
    enumerate: one point is a one-row pass, a point list one packed pass
    with a row per point.  A fault rides its plan's every-row forcing."""

    def __init__(self, compiled: CompiledNetwork) -> None:
        self.compiled = compiled

    def _run(
        self, inputs: List[int], full: int, fault: Optional[FaultLike]
    ) -> List[int]:
        comp = self.compiled
        ids = None if fault is None else comp.fault_ids(fault)
        forcing = None if ids is None else comp.fault_plan(ids).forcing
        values = inputs + [0] * len(comp.ops)
        return run_ops(comp, values, full, forcing=forcing)

    def line_values(
        self, point: Tuple[int, ...], fault: Optional[FaultLike] = None
    ) -> List[int]:
        """Line values under ``fault`` at one input point (a 0/1 tuple in
        input order)."""
        return self._run(list(point), 1, fault)

    def output_values(
        self, point: Tuple[int, ...], fault: Optional[FaultLike] = None
    ) -> Tuple[int, ...]:
        values = self.line_values(point, fault)
        return tuple(values[i] for i in self.compiled.out_idx)

    def point_tuple(self, point: int) -> Tuple[int, ...]:
        """Decode a truth-table index into the engine's input tuple
        (bit *i* of ``point`` is input *i* — the repo-wide convention)."""
        return tuple((point >> i) & 1 for i in range(self.compiled.n_inputs))

    def output_vectors(
        self, points: Iterable[int], fault: Optional[FaultLike] = None
    ) -> List[Tuple[int, ...]]:
        """Output tuples at an explicit list of truth-table points."""
        points = list(points)
        n = len(points)
        masks = pack_pattern_masks(points, self.compiled.n_inputs)
        values = self._run(masks, (1 << n) - 1, fault)
        outputs = [values[i] for i in self.compiled.out_idx]
        return [tuple(out >> j & 1 for out in outputs) for j in range(n)]


class NetworkEngine:
    """One network's compiled form plus its shared backends.

    The point queries are always there; the exhaustive
    :attr:`bitmask` backend is constructed lazily on first use, so
    engines for small one-off queries pay nothing.  Building it never
    allocates a table: on circuits beyond the
    :data:`MAX_BITMASK_INPUTS` whole-table ceiling its tiled sweep
    still runs, while its whole-table methods raise ``ValueError``
    instead of attempting the 2^n-bit allocation.
    """

    def __init__(self, network: Network) -> None:
        self.compiled = compile_network(network)
        self.pointwise = PointQueries(self.compiled)
        self._bitmask: Optional[BitmaskBackend] = None

    @property
    def bitmask(self) -> BitmaskBackend:
        """The exhaustive big-int truth-table backend."""
        if self._bitmask is None:
            self._bitmask = BitmaskBackend(self.compiled)
        return self._bitmask


_engine_cache: "weakref.WeakKeyDictionary[Network, NetworkEngine]" = (
    weakref.WeakKeyDictionary()
)


def engine_for(network: Network) -> NetworkEngine:
    """The shared engine of ``network`` (compile once, simulate many).

    Cached weakly per network instance — networks are immutable, so every
    caller sharing a network also shares its baselines and fault plans.
    """
    engine = _engine_cache.get(network)
    if engine is None:
        engine = NetworkEngine(network)
        _engine_cache[network] = engine
    return engine
