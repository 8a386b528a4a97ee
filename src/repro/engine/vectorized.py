"""Vectorized fault-batched simulation: PPSFP over packed truth tables.

Re-running each fault's cone schedule one big-int operation at a time
pays Python interpreter overhead *per fault per op*.  This module
removes that cost with parallel-pattern, parallel-fault simulation
(PPSFP):

* every line's ``2**n``-point table is packed into ``uint64`` words, and
* a whole **block of faults** is simulated at once along a second axis:
  line values become ``(faults, words)`` arrays, one vectorized pass
  over the union of the block's cone-pruned op schedules replaces
  ``faults × ops`` interpreted steps with ``ops`` NumPy calls.

Fault injection composes exactly as in the scalar backends: stem
overrides force whole rows of a line's array (forced values win over
pin overrides on the driving gate), pin overrides force rows of one
operand copy.  Re-evaluating an op for rows whose fault does not reach
it simply reproduces the baseline, so the union schedule is sound.

Points are packed in **pair-major** order, so the SCAL pairing
``X ↔ X̄`` needs no reflection.  The lower half of the words holds the
points whose top input is 0, in natural order; the upper half holds
their complements, in the same order (its input patterns are the
bitwise NOT of the lower half's).  Bit ``j`` of lower word ``w`` and
bit ``j`` of upper word ``H + w`` are one pair: alternation is
``lo ^ hi`` on aligned words and the affected pairs are
``wrong_lo | wrong_hi``, so the pair masks are half-width.  A table of
one word or less (``n ≤ 6``) keeps both halves in its one word, and
alternation is ``(v ^ (v >> h)) & low``; ``n = 0`` is one point paired
with itself, which never alternates.  The public raw masks
(:meth:`VectorizedBackend.line_bits`, ``output_bits`` and
``response_block``) are converted to truth-table order in one place,
``_table_order``: the upper half reversed by
:func:`~repro.logic.truthtable.reverse_bits`.

The big-int rung sidesteps the per-fault cone instead (its stem-region
sweep pays one flip simulation per fanout stem), which is why ``auto``
keeps it up to 20 inputs; this module serves the wider spaces, where
its word tiles bound memory.

For wide input spaces the word axis is processed in **tiles**: words
``[lo, lo+K)`` of the lower half together with ``[H+lo, H+lo+K)``, so
the alternation test stays local while memory is bounded by
``faults × 2K × lines`` words instead of the full table.

When NumPy is missing, the big-int
:class:`~repro.engine.backends.BitmaskBackend` serves the same
classification (a big int *is* a packed word array — CPython already
stores it as 30-bit digits and runs mask ops in C).  Callers never
branch on NumPy availability: :func:`select_backend` picks a rung from
the campaign's input width and :func:`resolve_rung` maps it to the rung
an engine can actually serve.

This module serves exhaustive sweeps only.  ATPG's explicit pattern
lists are a few words wide, too narrow to pay back NumPy's per-call
overhead, so :func:`repro.engine.atpg.pattern_detections` simulates
them on the big-int row evaluator instead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .backends import MAX_BITMASK_INPUTS, classify_status
from .compiled import CompiledNetwork, FaultLike
from .. import obs
from ..logic.gates import GateKind
from ..logic.truthtable import reverse_bits

# Telemetry: block-backend work counters and the per-chunk span.  The
# enabled check is hoisted (`_REG.enabled`) so disabled telemetry costs
# one branch per block, never per op.
_REG = obs.REGISTRY
_M_OPS = _REG.counter(
    "repro_engine_ops_total", "Compiled ops evaluated, by backend"
)
_M_WORDS = _REG.counter(
    "repro_engine_words_total", "64-bit truth-table words simulated, by backend"
)
_M_BLOCK = _REG.histogram(
    "repro_engine_block_faults",
    "Faults simulated per vectorized block",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
)
#: Items per supervised chunk, by rung (synthesis fitness chunks too).
CHUNK_FAULTS = _REG.counter(
    "repro_campaign_chunk_faults_total",
    "Faults classified through chunk_statuses, by backend",
)

try:  # NumPy is optional: the big-int bitmask rung keeps every path alive.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

#: Widest input space ``auto`` sweeps on ``bitmask`` when NumPy is
#: present.  The big-int rung classifies by stem regions (one flip
#: simulation per fanout stem, see :mod:`repro.engine.backends`), which
#: makes it the fastest cold rung on every row of
#: ``benchmarks/bench_rungs.py``'s grid from 8 to 20 inputs; above 20
#: ``auto`` takes the chunked ``vectorized`` rung, whose word tiles keep
#: memory bounded where the big-int rung holds a whole ``2**n``-bit
#: table per line.
AUTO_BITMASK_MAX_INPUTS = 20

#: Faults simulated per block (the PPSFP fault axis).
DEFAULT_BLOCK_FAULTS = 64

#: Word-axis chunk size for wide input spaces: tables whose half is
#: wider than ``DEFAULT_CHUNK_WORDS`` words are processed in tiles of
#: this many words of the half plus their partner words in the other
#: half (bounding live memory to roughly
#: ``block_faults * 2 * chunk_words * lines`` words).
DEFAULT_CHUNK_WORDS = 256

_FULL64 = 0xFFFFFFFFFFFFFFFF

#: Packed-word pattern of input variable ``i`` (i < 6) inside one word:
#: bit ``p`` is set iff bit ``i`` of the point index ``p`` is set.
_LOW_PATTERNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


def select_backend(
    n_inputs: int, numpy_available: Optional[bool] = None
) -> str:
    """Pick an execution backend from the campaign's input width.

    ==================  ==================================
    input space         backend
    ==================  ==================================
    any                 ``bitmask`` without NumPy
    ``n ≤ 20``          ``bitmask`` (big-int stem regions)
    ``n > 20``          ``vectorized`` (chunked NumPy)
    ==================  ==================================

    ``bitmask`` is the pure-Python big-int path, the only choice without
    NumPy.  The cut-off is a row of ``benchmarks/bench_rungs.py``'s cold
    crossover grid (see :data:`AUTO_BITMASK_MAX_INPUTS`); the fault
    count does not enter: a stem-region sweep pays per fanout stem, not
    per fault, so the block rung's batching never catches up below it.
    """
    if numpy_available is None:
        numpy_available = HAVE_NUMPY
    if numpy_available and n_inputs > AUTO_BITMASK_MAX_INPUTS:
        return "vectorized"
    return "bitmask"


def resolve_rung(engine, rung: str) -> str:
    """The rung that actually serves a request for ``rung`` on ``engine``.

    ``vectorized`` needs NumPy: on an engine without it
    (``engine.vectorized is None``) the request lands on the big-int
    ``bitmask`` rung, which is always there (callers validate names
    first).  Landing on ``bitmask`` beyond ``MAX_BITMASK_INPUTS`` inputs
    raises ``ValueError`` before any chunk runs: the sweep is exhaustive
    over the ``2**n`` truth table.
    """
    if rung == "vectorized" and engine.vectorized is None:
        rung = "bitmask"
    n = engine.compiled.n_inputs
    if rung == "bitmask" and n > MAX_BITMASK_INPUTS:
        raise ValueError(
            f"exhaustive campaigns above {MAX_BITMASK_INPUTS} inputs need "
            f"NumPy: this circuit has {n} inputs, and the big-int bitmask "
            f"rung would hold a 2**{n}-bit table per line; install NumPy "
            "and sweep with backend 'auto' or 'vectorized'"
        )
    return rung


def pair_tiles(words: int, k: int) -> List:
    """Word indices of each tile of a pair-major table of ``words``
    words: words ``[lo, lo+k)`` of the lower half followed by their
    partners ``[H+lo, H+lo+k)``, the last tile clipped at the half.  A
    table whose half fits in ``k`` words is one tile, the whole table."""
    half = words >> 1
    if half <= k:
        return [_np.arange(words, dtype=_np.uint64)]
    return [
        _np.r_[lo : min(lo + k, half), half + lo : half + min(lo + k, half)]
        .astype(_np.uint64)
        for lo in range(0, half, k)
    ]


class VectorizedBackend:
    """NumPy PPSFP executor over ``(faults, words)`` ``uint64`` arrays.

    Internally every table is in pair-major point order (see the module
    docstring), so the pair classification is aligned-word XOR; the
    public masks (:meth:`line_bits`, :meth:`output_bits`,
    :meth:`response_block`) are in truth-table order, byte-identical to
    :class:`~repro.engine.backends.BitmaskBackend`'s.
    """

    name = "vectorized"

    def __init__(
        self,
        compiled: CompiledNetwork,
        block_faults: int = DEFAULT_BLOCK_FAULTS,
        chunk_words: int = DEFAULT_CHUNK_WORDS,
    ) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError(
                "NumPy is unavailable; use BitmaskBackend instead"
            )
        self.compiled = compiled
        self.n = compiled.n_inputs
        self.total_bits = 1 << self.n
        self.words = max(1, self.total_bits >> 6)
        self.full_word = _np.uint64(
            (1 << min(self.total_bits, 64)) - 1
        )
        #: Words per half; 0 when both halves share one word (n <= 6).
        self.half = self.words >> 1
        self.half_bits = self.total_bits >> 1
        #: The all-pairs mask of one pair word.
        if self.half:
            self.pair_full = _np.uint64(_FULL64)
        elif self.n:
            self.pair_full = _np.uint64((1 << self.half_bits) - 1)
        else:  # one point, paired with itself
            self.pair_full = _np.uint64(1)
        self.block_faults = max(1, block_faults)
        self.chunk_words = max(1, chunk_words)
        #: The truth table's word-index tiles (:func:`pair_tiles`).
        self._tiles = pair_tiles(self.words, self.chunk_words)
        #: Tables whose half is wider than one chunk are swept in tiles.
        self.chunked = (self.words >> 1) > self.chunk_words
        self._base: Optional[List] = None  # full-table baseline

    # ------------------------------------------------------------------
    # packed building blocks
    # ------------------------------------------------------------------
    def _var_words(self, i: int, widx, flip) -> "object":
        """Packed pair-major words of input variable ``i`` over word
        indices ``widx``: its truth-table pattern, XOR-ed with ``flip``
        (the upper-half bits) for every input but the top one."""
        if i < 6:
            words = _np.full(
                widx.shape,
                _np.uint64(_LOW_PATTERNS[i]) & self.full_word,
                dtype=_np.uint64,
            )
        else:
            # Bit i of point p = 64*w + b (i >= 6) is bit i-6 of the
            # word index; for the top input that is "w is upper half".
            bit = (widx >> _np.uint64(i - 6)) & _np.uint64(1)
            words = _np.where(bit != 0, _np.uint64(_FULL64), _np.uint64(0))
        return words ^ flip if i < self.n - 1 else words

    def _baseline_words(self, widx) -> List:
        """Fault-free packed values of every line over word indices
        ``widx``."""
        comp = self.compiled
        if self.half:
            flip = _np.where(
                widx >= self.half, _np.uint64(_FULL64), _np.uint64(0)
            )
        else:
            flip = self.full_word & ~self.pair_full
        values: List = [None] * len(comp.names)
        for i in range(comp.n_inputs):
            values[i] = self._var_words(i, widx, flip)
        for op in comp.ops:
            values[op.out] = _eval_words(
                op.kind, [values[s] for s in op.srcs], self.full_word
            )
        k = len(widx)
        if _REG.enabled:
            _M_OPS.inc(len(comp.ops), backend="vectorized")
            _M_WORDS.inc(len(comp.ops) * k, backend="vectorized")
        return [
            _np.broadcast_to(_np.asarray(v, dtype=_np.uint64), (k,))
            for v in values
        ]

    def _full_baseline(self) -> List:
        if self._base is None:
            self._base = self._baseline_words(
                _np.arange(self.words, dtype=_np.uint64)
            )
        return self._base

    def _tile_baseline(self, widx) -> List:
        if not self.chunked:
            return self._full_baseline()
        return self._baseline_words(widx)

    def _halves(self, values):
        """``(lower, upper)`` halves of pair-major packed values: bit
        ``j`` of a lower word and of its aligned upper word are one
        ``(X, X̄)`` pair."""
        if not self.half:
            shift = _np.uint64(self.half_bits)
            return values & self.pair_full, values >> shift
        k = values.shape[-1] >> 1
        return values[..., :k], values[..., k:]

    def _table_order(self, lo: int, hi: int) -> int:
        """The one conversion out of pair-major order: a big-int table
        in truth-table order from its lower and upper halves (the
        upper half holds the complements of the lower half's points, so
        its truth-table order is its reversal)."""
        if self.n == 0:
            return lo
        return lo | (reverse_bits(hi, self.n - 1) << self.half_bits)

    # ------------------------------------------------------------------
    # fault-block evaluation
    # ------------------------------------------------------------------
    def _block_outputs(self, plans, base, k: int):
        """Faulty packed values over one ``k``-word tile for a block.

        Returns ``get(line) -> ndarray`` where rows are faults.  Lines
        untouched by every fault in the block resolve to the shared
        baseline row; the union of the block's cone schedules is
        evaluated once, vectorized over the fault axis (re-evaluating an
        op for rows whose fault does not reach it reproduces the
        baseline, so the union schedule is exact).
        """
        block = len(plans)
        full = self.full_word
        zero = _np.uint64(0)
        stem_rows: dict = {}
        pin_rows: dict = {}
        schedule: set = set()
        for row, plan in enumerate(plans):
            for idx, value in plan.stems:
                stem_rows.setdefault(idx, []).append((row, value))
            for pos, overrides in plan.pins.items():
                slots = pin_rows.setdefault(pos, {})
                for slot, value in overrides:
                    slots.setdefault(slot, []).append((row, value))
            schedule.update(plan.ops)

        def forced(arr, rows):
            arr = _row_copy(arr, block, k)
            for row, value in rows:
                arr[row, :] = full if value else zero
            return arr

        if _REG.enabled:
            _M_OPS.inc(len(schedule), backend="vectorized")
            _M_WORDS.inc(len(schedule) * block * k, backend="vectorized")
            _M_BLOCK.observe(block)

        values = list(base)
        ops = self.compiled.ops
        n_in = self.compiled.n_inputs
        # Stem-forced lines hold their forced rows from the start, unless
        # their driving op is scheduled: it runs before any reader, and
        # its result is forced (forced values win, exactly as the scalar
        # plans resolve stem-over-pin conflicts).
        for idx, rows in stem_rows.items():
            if idx < n_in or idx - n_in not in schedule:
                values[idx] = forced(values[idx], rows)
        for pos in sorted(schedule):
            op = ops[pos]
            operands = [values[src] for src in op.srcs]
            slots = pin_rows.get(pos)
            if slots:
                for slot, rows in slots.items():
                    operands[slot] = forced(operands[slot], rows)
            result = _eval_words(op.kind, operands, full)
            rows = stem_rows.get(op.out)
            values[op.out] = forced(result, rows) if rows else result
        return values.__getitem__

    def _block_masks(self, plans, base, width: int):
        """Pair-level ``(affected, detected, violations)`` arrays of one
        fault block over one tile of ``width`` words, one bit per
        ``(X, X̄)`` pair: shape ``(len(plans), width // 2)``, or
        ``(len(plans), 1)`` for a one-word table."""
        np = _np
        get = self._block_outputs(plans, base, width)
        block = len(plans)
        shape = (block, width)
        pairs = (block, width >> 1 if self.half else 1)
        full = self.pair_full
        wrong = np.zeros(shape, dtype=np.uint64)
        detected = np.zeros(pairs, dtype=np.uint64)
        all_alt = np.full(pairs, full, dtype=np.uint64)
        for idx in self.compiled.out_idx:
            t_fault = np.broadcast_to(
                np.asarray(get(idx), dtype=np.uint64), shape
            )
            wrong |= t_fault ^ base[idx]
            lo, hi = self._halves(t_fault)
            alt = lo ^ hi
            detected |= alt ^ full
            all_alt &= alt
        lo, hi = self._halves(wrong)
        affected = lo | hi
        return affected, detected, affected & all_alt

    def _pair_masks(self, plans, block_faults: int):
        """Yield ``(start, masks)``: the :meth:`_block_masks` of every
        block of ``block_faults`` plans on every tile, tile by tile."""
        for widx in self._tiles:
            base = self._tile_baseline(widx)
            for start in range(0, len(plans), block_faults):
                block = plans[start : start + block_faults]
                yield start, self._block_masks(block, base, len(widx))

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def line_bits(self, fault: Optional[FaultLike] = None) -> List[int]:
        """Every line's truth-table mask as a big int, optionally under a
        fault — byte-identical to :meth:`BitmaskBackend.line_bits`."""
        comp = self.compiled
        plans = [comp.fault_plan(fault)] if fault is not None else []
        halves: List[Tuple[List, List]] = [([], []) for _ in comp.names]
        for widx in self._tiles:
            base = self._tile_baseline(widx)
            width = len(widx)
            get = (
                self._block_outputs(plans, base, width)
                if plans
                else base.__getitem__
            )
            for idx, (lows, highs) in enumerate(halves):
                row = _np.broadcast_to(
                    _np.asarray(get(idx), dtype=_np.uint64), (1, width)
                )[0]
                lo, hi = self._halves(row)
                lows.append(lo)
                highs.append(hi)
        return [
            self._table_order(_words_to_int(*lows), _words_to_int(*highs))
            for lows, highs in halves
        ]

    def output_bits(self, fault: Optional[FaultLike] = None) -> Tuple[int, ...]:
        bits = self.line_bits(fault)
        return tuple(bits[i] for i in self.compiled.out_idx)

    def response_block(
        self, faults: Sequence[FaultLike]
    ) -> List[Tuple[int, int, int]]:
        """``(affected, detected, violations)`` big-int masks per fault
        in truth-table order, byte-identical to the scalar
        classification (meant for tests and spot checks; sweeps only
        need :meth:`sweep_statuses`)."""
        comp = self.compiled
        plans = [comp.fault_plan(fault) for fault in faults]
        rows: List[Tuple[List, List, List]] = [([], [], []) for _ in plans]
        for start, masks in self._pair_masks(plans, self.block_faults):
            for which, arr in enumerate(masks):
                for offset, row in enumerate(arr):
                    rows[start + offset][which].append(row)
        out: List[Tuple[int, int, int]] = []
        for parts in rows:
            pair_masks = [_words_to_int(*part) for part in parts]
            out.append(tuple(self._table_order(m, m) for m in pair_masks))
        return out

    def sweep_statuses(
        self,
        faults: Sequence[FaultLike],
        block_faults: Optional[int] = None,
    ) -> List[str]:
        """Classify every fault (``dangerous``/``detected``/``silent``)."""
        np = _np
        comp = self.compiled
        plans = [comp.fault_plan(fault) for fault in faults]
        has_det = np.zeros(len(plans), dtype=bool)
        has_vio = np.zeros(len(plans), dtype=bool)
        block_size = block_faults or self.block_faults
        for start, (_aff, det, vio) in self._pair_masks(plans, block_size):
            stop = start + det.shape[0]
            has_det[start:stop] |= np.any(det != 0, axis=1)
            has_vio[start:stop] |= np.any(vio != 0, axis=1)
        return [
            classify_status(d, v)
            for d, v in zip(has_det.tolist(), has_vio.tolist())
        ]

def chunk_statuses(engine, faults: Sequence[FaultLike], backend: str) -> List[str]:
    """Classify one chunk of faults on ``vectorized`` / ``bitmask``,
    mapped through :func:`resolve_rung` to the rung this
    :class:`~repro.engine.NetworkEngine` can serve.

    Fork workers and the serial loop both reach it through
    :func:`repro.engine.supervisor.chunk_statuses`, which is why every
    rung of the degradation ladder classifies byte-identically.
    """
    universe = list(faults)
    if backend not in ("vectorized", "bitmask"):
        raise ValueError(f"unknown chunk backend {backend!r}")
    backend = resolve_rung(engine, backend)
    # Every rung classifies through this span: the flight's count of
    # successful "sweep.chunk" spans equals the report's chunk ledger.
    with obs.span("sweep.chunk", faults=len(universe), backend=backend):
        statuses = getattr(engine, backend).sweep_statuses(universe)
    if _REG.enabled:
        CHUNK_FAULTS.inc(len(universe), backend=backend)
    return statuses


# ----------------------------------------------------------------------
# word-level primitives (NumPy path)
# ----------------------------------------------------------------------
def _row_copy(values, block: int, k: int):
    """A writable ``(block, k)`` copy of ``values`` broadcast over the
    fault rows (an order of magnitude cheaper than copying a
    ``broadcast_to`` view)."""
    out = _np.empty((block, k), dtype=_np.uint64)
    out[...] = values
    return out


def _words_to_int(*rows) -> int:
    """Packed rows, concatenated, back to a big int (first word lowest)."""
    return int.from_bytes(
        b"".join(
            _np.ascontiguousarray(row).astype("<u8").tobytes() for row in rows
        ),
        "little",
    )


def _eval_words(kind: GateKind, masks, full):
    """One gate over packed-word arrays (the vector analogue of
    :func:`repro.logic.gates.evaluate_mask`); ``full`` masks the unused
    high bits of sub-word tables after complements."""
    np = _np
    if kind is GateKind.CONST0:
        return np.uint64(0)
    if kind is GateKind.CONST1:
        return full
    if kind is GateKind.BUF:
        return masks[0]
    if kind is GateKind.NOT:
        return ~masks[0] & full
    if kind is GateKind.AND or kind is GateKind.NAND:
        out = masks[0]
        for m in masks[1:]:
            out = out & m
        return (~out & full) if kind is GateKind.NAND else out
    if kind is GateKind.OR or kind is GateKind.NOR:
        out = masks[0]
        for m in masks[1:]:
            out = out | m
        return (~out & full) if kind is GateKind.NOR else out
    if kind is GateKind.XOR or kind is GateKind.XNOR:
        out = masks[0]
        for m in masks[1:]:
            out = out ^ m
        return (~out & full) if kind is GateKind.XNOR else out
    if kind in (GateKind.MAJ, GateKind.MIN):
        return _threshold_words(kind, masks, full)
    raise ValueError(f"gate kind {kind} has no packed-word evaluation")


def _threshold_words(kind: GateKind, masks, full):
    """Vectorized bit-sliced population count, thresholded against
    ``len(masks)/2`` — the array form of ``gates._threshold_mask``."""
    np = _np
    counter: List = []
    for m in masks:
        carry = m
        for i in range(len(counter)):
            current = counter[i]
            counter[i] = current ^ carry
            carry = current & carry
        if np.any(carry):
            counter.append(carry)
    n = len(masks)
    out = np.uint64(0)
    for count in range(n + 1):
        if kind is GateKind.MAJ and not 2 * count > n:
            continue
        if kind is GateKind.MIN and not 2 * count < n:
            continue
        if count >> len(counter):
            continue  # count not representable in the counter width
        sel = full
        for bit, slice_mask in enumerate(counter):
            if (count >> bit) & 1:
                sel = sel & slice_mask
            else:
                sel = sel & (~slice_mask & full)
        out = out | sel
    # All-zero operands leave ``counter`` empty and ``out`` a scalar:
    # give it the operands' broadcast shape (the fault-row axis).
    shape = np.broadcast_shapes(*(np.shape(m) for m in masks))
    if np.shape(out) != shape:
        out = np.full(shape, out, dtype=np.uint64)
    return out
