"""Interchangeable execution backends over a compiled netlist.

Two backends share one :class:`~repro.engine.compiled.CompiledNetwork`
and one discipline: compute the fault-free **baseline** once, cache it,
and answer each faulty query from the baseline plus as little extra
simulation as the query needs.

* :class:`BitmaskBackend` — word-parallel: every line is a ``2**n``-bit
  truth-table mask, one pass covers the whole input space (a big int
  already is a packed word array).  This is the exhaustive-oracle
  backend (Definition 2.4, conditions A–E) and the one exhaustive
  sweep.  Its classification (:meth:`BitmaskBackend.response_triple`,
  :meth:`~BitmaskBackend.sweep_statuses`) is a **stem-region** sweep:
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
  is an aligned AND.  A stem or pin fault then costs a few mask
  operations and one half-width
  :func:`~repro.logic.truthtable.reverse_bits`.  Explicit line
  tables (:meth:`~BitmaskBackend.line_bits`), multiple faults and
  absent lines take the fault's cone schedule instead (the
  :meth:`~repro.engine.compiled.CompiledNetwork.fault_plan` path:
  copy the baseline, re-evaluate only the fault's output cone); with
  ``cone=True`` a sweep takes it for every fault, which is the
  reference the stem-region path is checked against.
* :class:`PointwiseBackend` — one input assignment (or an explicit list
  of points, for spaces too wide to enumerate) at a time, with a
  bounded per-point baseline cache, so a revisited point costs only a
  cone-sized update.

**Pair tiles.**  Definition 2.4 classifies a fault pair by pair, so any
set of whole pairs can be classified alone, and a fault's status is the
most severe over the sets.  Above :data:`UNTILED_MAX_INPUTS` inputs a
sweep runs once per tile of :data:`TILE_PAIRS` pairs: lower-half points
``[lo, lo+T)`` followed by their complements ``[2**n-lo-T, 2**n-lo)``,
as one ``2T``-bit table.  Inside a tile the complement of bit ``j`` is
bit ``2T-1-j``, the reversal of a ``(log2 T + 1)``-input table, so the
pairing code runs unchanged at that width; only the input variables'
masks differ (:meth:`BitmaskBackend._tiles`).  Each tile's baseline,
regions and root flips are derived, used and dropped, which bounds a
sweep's memory at any width.  At or below the cut a sweep is one tile,
the whole table.

Clocked sequential campaigns and ATPG pattern simulation do not use
either backend's fault plans: :func:`repro.seq.simulator.evaluate_rows`
puts one fault per bit (or per slot of pattern bits, for
:func:`repro.engine.atpg.pattern_detections`, over the explicit
pattern list :func:`pack_pattern_masks` packs) and calls
:func:`evaluate_mask` through this module, so the bitmask chaos
sabotage of :mod:`repro.qa.chaos` reaches them too.

Both backends return plain ``list``/``tuple`` values; the name-keyed
wrappers in :mod:`repro.logic.evaluate` re-attach line names for
callers that want them.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..logic.gates import evaluate as eval_gate
from ..logic.gates import evaluate_mask
from ..logic.truthtable import reverse_bits
from .. import obs
from .compiled import CompiledNetwork, FaultLike

#: Pointwise baseline caches stop growing beyond this many distinct
#: input points (2**16 — larger spaces should sample explicit points).
POINT_CACHE_LIMIT = 1 << 16

#: Widest input space a sweep classifies as one whole table.  Above it
#: the sweep runs per pair tile: every fault chunk re-derives each tile,
#: which costs 1.5–1.8x the untiled sweep at 20 inputs, while from 21
#: inputs up the whole table's memory doubles per input.
UNTILED_MAX_INPUTS = 20

#: Pairs per tile of a tiled sweep (a ``2**18``-bit, 32 KiB table per
#: line).  At 22 inputs the sweep time is flat from ``2**17`` to
#: ``2**19`` pairs while peak memory grows with the tile.
TILE_PAIRS = 1 << 17

#: Whole tables are ``2**n`` bits *per line*; beyond this many inputs
#: even the all-ones ``full`` mask is a multi-gigabyte allocation, so
#: the methods of :class:`BitmaskBackend` that build or read a whole
#: table refuse with ``ValueError`` instead of attempting the OOM.
#: :meth:`BitmaskBackend.sweep_statuses` tiles, so it runs at any width.
MAX_BITMASK_INPUTS = 25

#: Fault statuses in increasing severity: a tiled sweep keeps each
#: fault's most severe tile status.
SEVERITY = ("silent", "detected", "dangerous")

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
#: Items per supervised chunk, by chunk kind (synthesis fitness chunks
#: too).
CHUNK_FAULTS = _REG.counter(
    "repro_campaign_chunk_faults_total",
    "Faults classified through chunk_statuses, by backend",
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


def _evaluate_masks(
    comp: CompiledNetwork, inputs: List[int], full: int, words: int
) -> List[int]:
    """Every line's mask from the input lines' masks: one pass over the
    op program.  ``words`` (64-bit words per mask) sizes the telemetry."""
    values = list(inputs) + [0] * len(comp.ops)
    for op in comp.ops:
        values[op.out] = evaluate_mask(
            op.kind, [values[s] for s in op.srcs], full
        )
    if _REG.enabled:
        _M_OPS.inc(len(comp.ops), backend="bitmask")
        _M_WORDS.inc(len(comp.ops) * words, backend="bitmask")
    return values


def _inject_masks(
    comp: CompiledNetwork, baseline, plan, full: int, words: int
) -> List[int]:
    """A fresh copy of ``baseline`` under one fault plan: the plan's
    stems forced, only its cone ops re-evaluated."""
    values = list(baseline)
    for idx, forced in plan.stems:
        values[idx] = full if forced else 0
    pins = plan.pins
    ops = comp.ops
    for pos in plan.ops:
        op = ops[pos]
        operands = [values[s] for s in op.srcs]
        overrides = pins.get(pos)
        if overrides:
            for slot, forced in overrides:
                operands[slot] = full if forced else 0
        values[op.out] = evaluate_mask(op.kind, operands, full)
    if _REG.enabled:
        _M_OPS.inc(len(plan.ops), backend="bitmask")
        _M_WORDS.inc(len(plan.ops) * words, backend="bitmask")
    return values


class BitmaskBackend:
    """Word-parallel evaluation: one integer mask per line.

    ``tile``, ``(width, variables)``, makes a backend over one pair tile
    of a tiled sweep instead of the whole table: a ``2**width``-bit
    table whose input lines hold ``variables`` (see :meth:`_tiles`).
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
                "sweep_statuses tiles and runs at any width, and the "
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
        return tuple(
            _evaluate_masks(comp, variables, full, self._words_per_line)
        )

    def line_bits(self, fault: Optional[FaultLike] = None) -> List[int]:
        """Masks for every line under ``fault`` (cone-pruned re-simulation
        on top of the cached baseline).  Always returns a fresh list —
        the cached baseline itself stays immutable behind
        :meth:`baseline`."""
        baseline = self.baseline()
        if fault is None:
            return list(baseline)
        comp = self.compiled
        return _inject_masks(
            comp, baseline, comp.fault_plan(fault), self.full,
            self._words_per_line,
        )

    def output_bits(self, fault: Optional[FaultLike] = None) -> Tuple[int, ...]:
        values = self.line_bits(fault)
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
        backend's tables.  A fault that resolves to exactly one stem or
        one pin takes the stem-region path; any other fault re-simulates
        its cone schedule."""
        site = self._single_site(fault)
        if site is None:
            return self._cone_response(fault)
        pairs = self._flip_pairs(*site)
        return tuple(self._join(mask, mask) for mask in pairs)

    def _cone_response(self, fault: FaultLike) -> Tuple[int, int, int]:
        return table_response(
            self.normals(), self.output_bits(fault), self._width
        )

    def sweep_statuses(
        self, faults: Iterable[FaultLike], cone: bool = False
    ) -> List[str]:
        """Classify every fault (``dangerous``/``detected``/``silent``).

        The stem-region path classifies on its pair masks directly;
        ``cone=True`` re-simulates every fault's cone plan instead (the
        reference the stem-region path is checked against).  Above
        :data:`UNTILED_MAX_INPUTS` inputs the sweep runs once per pair
        tile and keeps each fault's most severe status (an OR of the
        tiles' pair masks, so no mask crosses tiles).
        """
        faults = list(faults)
        sites = (
            [None] * len(faults) if cone else [self._site(f) for f in faults]
        )
        statuses: List[str] = []
        for index, table in enumerate(self._tiles()):
            got = table._classify(faults, sites)
            statuses = got if not index else [
                max(old, new, key=SEVERITY.index)
                for old, new in zip(statuses, got)
            ]
        return statuses

    def _classify(self, faults: List[FaultLike], sites: List) -> List[str]:
        """One table's statuses: each fault on its :meth:`_site`'s stem
        region, or on its cone plan where it has none."""
        statuses = []
        for fault, site in zip(faults, sites):
            _aff, det, vio = (
                self._cone_response(fault)
                if site is None
                else self._flip_pairs(*self._site_mask(site))
            )
            statuses.append(classify_status(det, vio))
        return statuses

    def _tiles(self) -> Iterator["BitmaskBackend"]:
        """The tables a sweep classifies on: this backend's own, or above
        :data:`UNTILED_MAX_INPUTS` inputs a fresh backend per pair tile.

        Tile ``lo`` of ``T`` pairs holds points ``[lo, lo+T)`` in bits
        ``[0, T)`` and ``[2**n-lo-T, 2**n-lo)`` in bits ``[T, 2T)``.  Both
        ranges start at a multiple of ``T``, so below bit ``log2 T``
        every input repeats with its usual period over the ``2T`` bits,
        and above it each input is constant on each range.
        """
        n = self.compiled.n_inputs
        if self._variables is not None or n <= UNTILED_MAX_INPUTS:
            yield self
            return
        pairs = min(TILE_PAIRS, 1 << (n - 1))
        width = pairs.bit_length()
        periodic = variable_masks(width, width - 1)
        low = (1 << pairs) - 1
        total = 1 << n
        for lo in range(0, total >> 1, pairs):
            top = total - lo - pairs
            constant = [
                (low if lo >> i & 1 else 0)
                | (low << pairs if top >> i & 1 else 0)
                for i in range(width - 1, n)
            ]
            yield BitmaskBackend(self.compiled, (width, periodic + constant))

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

    def _site(
        self, fault: FaultLike
    ) -> Optional[Tuple[int, Optional[int], int]]:
        """The one stem ``(line, None, value)`` or the one pin ``(op
        position, slot, value)`` a fault resolves to, else ``None``.  It
        reads no table, so a tiled sweep resolves each fault once."""
        stems, pins = self.compiled.resolve(fault)
        if len(stems) + sum(len(forces) for forces in pins.values()) != 1:
            return None
        if stems:
            ((line, value),) = stems.items()
            return line, None, value
        ((pos, ((slot, value),)),) = pins.items()
        return pos, slot, value

    def _site_mask(self, site) -> Tuple[int, int]:
        """``(root, m)`` of a :meth:`_site` on this table: ``m`` the
        points where the fault complements ``root``."""
        where, slot, value = site
        baseline = self.baseline()
        roots, sens = self.regions()
        if slot is None:
            differs = baseline[where] ^ self.full if value else baseline[where]
            return roots[where], sens[where] & differs
        op = self.compiled.ops[where]
        self._count_ops(1)
        forced = self._pin_delta(
            op, slot, self.full if value else 0, baseline
        )
        return roots[op.out], sens[op.out] & forced

    def _single_site(self, fault: FaultLike) -> Optional[Tuple[int, int]]:
        """:meth:`_site_mask` of a single-site fault, else ``None``."""
        site = self._site(fault)
        return None if site is None else self._site_mask(site)

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
        """``(deltas, detected, all_alternate)`` of complementing ``root``
        everywhere: ``deltas`` holds ``(k, lo, hi, alternates)`` of each
        output ``k`` whose table changes — the :meth:`_halves` of its
        delta and its pair alternation mask — and the other two fold the
        outputs it leaves alone into pair masks.  One simulation of the
        root's output cone, on first use."""
        flip = self._flips.get(root)
        if flip is not None:
            return flip
        comp = self.compiled
        full = self.full
        baseline = self.baseline()
        values = list(baseline)
        values[root] ^= full
        ops = comp.ops
        cone = comp.cone_ops(root)
        for pos in cone:
            op = ops[pos]
            values[op.out] = evaluate_mask(
                op.kind, [values[s] for s in op.srcs], full
            )
        self._count_ops(len(cone))
        low = self._low
        deltas = []
        detected = 0
        all_alternate = low
        for k, (idx, alternates) in enumerate(
            zip(comp.out_idx, self.normals()[1])
        ):
            alternates &= low  # pair-symmetric: its lower half is per pair
            delta = values[idx] ^ baseline[idx]
            if delta:
                deltas.append((k, *self._halves(delta), alternates))
            else:
                detected |= alternates ^ low
                all_alternate &= alternates
        flip = (tuple(deltas), detected, all_alternate)
        self._flips[root] = flip
        return flip

    def _flip_pairs(self, root: int, m: int) -> Tuple[int, int, int]:
        """:func:`table_response` of outputs ``O ^ (D & m)`` as masks over
        pairs: output ``k`` alternates on pair ``p`` unless exactly one
        of its two points flips, ``alt ^ e_lo ^ e_hi`` with ``e = D & m``
        split by :meth:`_halves` — one reversal, of ``m``, per fault."""
        deltas, detected, all_alternate = self._root_flip(root)
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

    def region_output_bits(
        self, fault: FaultLike
    ) -> Optional[Tuple[int, ...]]:
        """The output tables :meth:`response_triple` classifies for a
        fault on the stem-region path, ``O ^ (D & m)``; ``None`` for a
        fault that takes the cone path."""
        site = self._single_site(fault)
        if site is None:
            return None
        root, m = site
        m_lo, m_hi = self._halves(m)
        outputs = list(self.output_bits())
        for k, delta_lo, delta_hi, _alt in self._root_flip(root)[0]:
            outputs[k] ^= self._join(delta_lo & m_lo, delta_hi & m_hi)
        return tuple(outputs)


def chunk_statuses(
    engine, faults: Sequence[FaultLike], cone: bool = False
) -> List[str]:
    """Classify one chunk of faults by the stem-region sweep of a
    :class:`~repro.engine.NetworkEngine` (``bitmask``), or with
    ``cone=True`` by every fault's cone plan (``cone``).

    Fork workers and the serial loop both reach it through
    :func:`repro.engine.supervisor.chunk_statuses`, which is why every
    execution path classifies byte-identically.
    """
    universe = list(faults)
    backend = "cone" if cone else "bitmask"
    # Every chunk classifies through this span: the flight's count of
    # successful "sweep.chunk" spans equals the report's chunk ledger.
    with obs.span("sweep.chunk", faults=len(universe), backend=backend):
        statuses = engine.bitmask.sweep_statuses(universe, cone=cone)
    if _REG.enabled:
        CHUNK_FAULTS.inc(len(universe), backend=backend)
    return statuses


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


class PointwiseBackend:
    """One assignment at a time, with a per-point baseline cache."""

    def __init__(
        self, compiled: CompiledNetwork, cache_limit: int = POINT_CACHE_LIMIT
    ) -> None:
        self.compiled = compiled
        self.cache_limit = cache_limit
        self._cache: dict = {}

    def baseline(self, point: Tuple[int, ...]) -> List[int]:
        """Fault-free line values for one input tuple (cached; do not
        mutate the returned list)."""
        values = self._cache.get(point)
        if values is None:
            comp = self.compiled
            values = list(point) + [0] * len(comp.ops)
            for op in comp.ops:
                values[op.out] = eval_gate(
                    op.kind, [values[s] for s in op.srcs]
                )
            if len(self._cache) < self.cache_limit:
                self._cache[point] = values
        return values

    def line_values(
        self, point: Tuple[int, ...], fault: Optional[FaultLike] = None
    ) -> List[int]:
        """Line values under ``fault`` at one input point."""
        baseline = self.baseline(point)
        if fault is None:
            return baseline
        comp = self.compiled
        plan = comp.fault_plan(fault)
        values = baseline.copy()
        for idx, forced in plan.stems:
            values[idx] = forced
        pins = plan.pins
        ops = comp.ops
        for pos in plan.ops:
            op = ops[pos]
            operands = [values[s] for s in op.srcs]
            overrides = pins.get(pos)
            if overrides:
                for slot, forced in overrides:
                    operands[slot] = forced
            values[op.out] = eval_gate(op.kind, operands)
        return values

    def output_values(
        self, point: Tuple[int, ...], fault: Optional[FaultLike] = None
    ) -> Tuple[int, ...]:
        values = self.line_values(point, fault)
        return tuple(values[i] for i in self.compiled.out_idx)

    def point_tuple(self, point: int) -> Tuple[int, ...]:
        """Decode a truth-table index into the engine's input tuple
        (bit *i* of ``point`` is input *i* — the repo-wide convention)."""
        n = self.compiled.n_inputs
        return tuple((point >> i) & 1 for i in range(n))

    def output_vectors(
        self, points: Iterable[int], fault: Optional[FaultLike] = None
    ) -> List[Tuple[int, ...]]:
        """Output tuples at an explicit list of truth-table points."""
        return [self.output_values(self.point_tuple(p), fault) for p in points]
