"""Vectorized fault-batched simulation: PPSFP over packed truth tables.

The scalar backends pay Python interpreter overhead *per fault per op*:
a campaign over F faults re-runs each fault's cone schedule one big-int
operation at a time, and the SCAL pair classification spends most of its
time in :func:`~repro.engine.compiled.reflect_bits` (a Python loop over
set bits).  This module removes both costs with parallel-pattern,
parallel-fault simulation (PPSFP):

* every line's ``2**n``-point truth table is packed into ``uint64``
  words (bit ``p & 63`` of word ``p >> 6`` is input point ``p`` — the
  repo-wide bit-order convention, just re-chunked), and
* a whole **block of faults** is simulated at once along a second axis:
  line values become ``(faults, words)`` arrays, one vectorized pass
  over the union of the block's cone-pruned op schedules replaces
  ``faults × ops`` interpreted steps with ``ops`` NumPy calls.

Fault injection composes exactly as in the scalar backends: stem
overrides force whole rows of a line's array (forced values win over
pin overrides on the driving gate), pin overrides force rows of one
operand copy.  Re-evaluating an op for rows whose fault does not reach
it simply reproduces the baseline, so the union schedule is sound.

The SCAL pair pairing ``X ↔ X̄`` is an index complement, i.e. a reversal
of the whole table's bit order; on packed words that is "reverse the
word order, bit-reverse each word", which vectorizes as a byte-table
lookup — no per-bit Python loop.

For wide input spaces the word axis is processed in **mirror chunk
pairs** (words ``[lo, lo+K)`` together with ``[W-lo-K, W-lo)``) so the
alternation test stays local while memory is bounded by
``faults × 2K × lines`` words instead of the full table.

When NumPy is missing, the big-int
:class:`~repro.engine.backends.BitmaskBackend` serves the same
classification (a big int *is* a packed word array — CPython already
stores it as 30-bit digits and runs mask ops in C).  Callers never
branch on NumPy availability: :func:`select_backend` picks a rung from
the campaign's shape and :func:`resolve_rung` maps it to the rung an
engine can actually serve.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .backends import (
    MAX_BITMASK_INPUTS,
    bitmask_pattern_bits,
    classify_status,
    pack_pattern_masks,
)
from .compiled import CompiledNetwork, FaultLike
from .. import obs
from ..logic.gates import GateKind

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
_M_CHUNKS = _REG.counter(
    "repro_campaign_chunk_faults_total",
    "Faults classified through chunk_statuses, by backend",
)

try:  # NumPy is optional: the big-int bitmask rung keeps every path alive.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

#: Fault batches below this size cannot amortize block set-up; the
#: scalar bitmask path wins.
VECTOR_MIN_FAULTS = 8

#: Faults simulated per block (the PPSFP fault axis).
DEFAULT_BLOCK_FAULTS = 64

#: Word-axis chunk size for wide input spaces: tables wider than
#: ``2 * DEFAULT_CHUNK_WORDS`` words are processed in mirror chunk
#: pairs of this many words each (bounding live memory to roughly
#: ``block_faults * 2 * chunk_words * lines`` words).
DEFAULT_CHUNK_WORDS = 256

#: Input counts beyond this make even one packed truth table heavy;
#: the heuristic recommends sampling instead of exhaustion.
EXHAUSTIVE_INPUT_LIMIT = 16

#: Word counts of 128+ (``n_inputs > 12``) are where the codegen kernel
#: tier beats the vectorized interpreter even cold, compile time
#: included (see BENCH_kernels.json); below that it only wins once its
#: per-signature kernels are warm, so auto keeps the vectorized rung.
KERNEL_AUTO_MIN_INPUTS = 12

#: Input counts beyond this would materialize full-table baselines too
#: large for the kernel form (:class:`~repro.engine.kernels.KernelBackend`
#: refuses them); auto routes wider circuits to the chunked vectorized
#: path.
KERNEL_MAX_INPUTS = 20

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

if HAVE_NUMPY:
    #: Per-byte bit reversal table; combined with a byteswap this
    #: reverses all 64 bits of a word.
    _REV8 = _np.array(
        [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=_np.uint8
    )


def select_backend(
    n_inputs: int,
    n_faults: int,
    numpy_available: Optional[bool] = None,
) -> str:
    """Pick an execution backend from the campaign's shape.

    ==================  =============  =========================================
    input space         fault count    backend
    ==================  =============  =========================================
    ``n ≤ 16``          ``< 8``        ``bitmask`` (big-int masks, per fault)
    ``n ≤ 12``          ``≥ 8``        ``vectorized`` (NumPy) or ``bitmask``
    ``12 < n ≤ 20``     ``≥ 8``        ``kernel`` (codegen) or ``bitmask``
    ``n > 20``          any            ``vectorized`` (chunked) or ``bitmask``
    ==================  =============  =========================================

    ``bitmask`` is the pure-Python big-int path, the only choice without
    NumPy.  The ``kernel`` rung only engages where its codegen cost wins
    even on a cold one-shot sweep (``n_inputs > KERNEL_AUTO_MIN_INPUTS``);
    narrower circuits still reach it explicitly via ``backend="kernel"``.
    """
    if numpy_available is None:
        numpy_available = HAVE_NUMPY
    if not numpy_available or (
        n_inputs <= EXHAUSTIVE_INPUT_LIMIT and n_faults < VECTOR_MIN_FAULTS
    ):
        return "bitmask"
    if KERNEL_AUTO_MIN_INPUTS < n_inputs <= KERNEL_MAX_INPUTS:
        return "kernel"
    return "vectorized"


#: The one rung table: where a request lands when the engine cannot
#: build that rung (kernel needs NumPy and <= KERNEL_MAX_INPUTS inputs,
#: vectorized needs NumPy; the big-int bitmask rung is always there).
_UNAVAILABLE_STEP = {"kernel": "vectorized", "vectorized": "bitmask"}


def resolve_rung(engine, rung: str, exhaustive: bool = True) -> str:
    """The rung that actually serves a request for ``rung`` on ``engine``.

    A rung in :data:`_UNAVAILABLE_STEP` is available when the engine's
    attribute of the same name is not ``None``; otherwise the request
    steps down the table (callers validate names first).  For
    ``exhaustive`` sweeps over the ``2**n`` truth table, landing on
    ``bitmask`` beyond ``MAX_BITMASK_INPUTS`` inputs raises
    ``ValueError`` before any chunk runs; pattern simulation packs only
    its patterns and passes ``exhaustive=False``.
    """
    while rung in _UNAVAILABLE_STEP and getattr(engine, rung) is None:
        rung = _UNAVAILABLE_STEP[rung]
    n = engine.compiled.n_inputs
    if exhaustive and rung == "bitmask" and n > MAX_BITMASK_INPUTS:
        raise ValueError(
            f"exhaustive campaigns above {MAX_BITMASK_INPUTS} inputs need "
            f"NumPy: this circuit has {n} inputs, and the big-int bitmask "
            f"rung would hold a 2**{n}-bit table per line; install NumPy "
            "and sweep with backend 'auto' or 'vectorized'"
        )
    return rung


class VectorizedBackend:
    """NumPy PPSFP executor over ``(faults, words)`` ``uint64`` arrays."""

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
        self.block_faults = max(1, block_faults)
        self.chunk_words = max(1, chunk_words)
        #: Tables wider than two chunks are swept in mirror chunk pairs.
        self.chunked = self.words > 2 * self.chunk_words
        self._base: Optional[List] = None  # full-table baseline (unchunked)

    # ------------------------------------------------------------------
    # packed building blocks
    # ------------------------------------------------------------------
    def _var_words(self, i: int, widx) -> "object":
        """Packed words of input variable ``i`` over word indices ``widx``."""
        if i < 6:
            return _np.full(
                widx.shape,
                _np.uint64(_LOW_PATTERNS[i]) & self.full_word,
                dtype=_np.uint64,
            )
        # Bit i of point p = 64*w + b (i >= 6) is bit i-6 of the word index.
        bit = (widx >> _np.uint64(i - 6)) & _np.uint64(1)
        return _np.where(bit != 0, _np.uint64(_FULL64), _np.uint64(0))

    def _baseline_words(self, w0: int, w1: int) -> List:
        """Fault-free packed values of every line over words ``[w0, w1)``."""
        comp = self.compiled
        widx = _np.arange(w0, w1, dtype=_np.uint64)
        values: List = [None] * len(comp.names)
        for i in range(comp.n_inputs):
            values[i] = self._var_words(i, widx)
        for op in comp.ops:
            values[op.out] = _eval_words(
                op.kind, [values[s] for s in op.srcs], self.full_word
            )
        if _REG.enabled:
            _M_OPS.inc(len(comp.ops), backend="vectorized")
            _M_WORDS.inc(len(comp.ops) * (w1 - w0), backend="vectorized")
        k = w1 - w0
        return [
            _np.broadcast_to(_np.asarray(v, dtype=_np.uint64), (k,))
            for v in values
        ]

    def _full_baseline(self) -> List:
        if self._base is None:
            self._base = self._baseline_words(0, self.words)
        return self._base

    def _reflect_full(self, arr):
        """The ``X ↔ X̄`` index complement of a full packed table:
        reverse the word order and bit-reverse each word (for tables
        narrower than one word, reverse just the low ``2**n`` bits)."""
        if self.total_bits < 64:
            return _bitrev64(arr) >> _np.uint64(64 - self.total_bits)
        return _bitrev64(arr)[..., ::-1]

    # ------------------------------------------------------------------
    # fault-block evaluation
    # ------------------------------------------------------------------
    def _block_outputs(self, plans, w0: int, w1: int, base, full=None):
        """Faulty packed values over words ``[w0, w1)`` for a block.

        Returns ``get(line) -> ndarray`` where rows are faults.  Lines
        untouched by every fault in the block resolve to the shared
        baseline row; the union of the block's cone schedules is
        evaluated once, vectorized over the fault axis (re-evaluating an
        op for rows whose fault does not reach it reproduces the
        baseline, so the union schedule is exact).

        ``full`` is the valid-bit word for forcing and complements; it
        defaults to the truth-table word but pattern-space callers
        (:meth:`pattern_bits`) pass all 64 bits — their word axis packs
        an explicit pattern list, not the ``2**n`` point space.
        """
        np = _np
        block = len(plans)
        k = w1 - w0
        if full is None:
            full = self.full_word
        comp = self.compiled
        stem_rows: dict = {}
        pin_rows: dict = {}
        schedule: set = set()
        for row, plan in enumerate(plans):
            for idx, forced in plan.stems:
                stem_rows.setdefault(idx, []).append((row, forced))
            for pos, overrides in plan.pins.items():
                for slot, forced in overrides:
                    pin_rows.setdefault(pos, []).append((row, slot, forced))
            schedule.update(plan.ops)
        values: dict = {}

        def get(idx: int):
            arr = values.get(idx)
            return base[idx] if arr is None else arr

        def force(idx: int, rows) -> None:
            arr = values.get(idx)
            if arr is None:
                arr = base[idx]
            arr = np.array(np.broadcast_to(arr, (block, k)))
            for row, forced in rows:
                arr[row, :] = full if forced else np.uint64(0)
            values[idx] = arr

        if _REG.enabled:
            _M_OPS.inc(len(schedule), backend="vectorized")
            _M_WORDS.inc(len(schedule) * block * k, backend="vectorized")
            _M_BLOCK.observe(block)

        # Stem-forced lines hold their forced rows from the start (and
        # again after their driving op runs: forced values win, exactly
        # as the scalar plans resolve stem-over-pin conflicts).
        for idx, rows in stem_rows.items():
            force(idx, rows)
        for pos in sorted(schedule):
            op = comp.ops[pos]
            operands = [get(src) for src in op.srcs]
            overrides = pin_rows.get(pos)
            if overrides:
                by_slot: dict = {}
                for row, slot, forced in overrides:
                    by_slot.setdefault(slot, []).append((row, forced))
                for slot, rows in by_slot.items():
                    forced_arr = np.array(
                        np.broadcast_to(operands[slot], (block, k))
                    )
                    for row, forced in rows:
                        forced_arr[row, :] = full if forced else np.uint64(0)
                    operands[slot] = forced_arr
            result = _eval_words(op.kind, operands, full)
            rows = stem_rows.get(op.out)
            if rows:
                force_src = np.array(np.broadcast_to(result, (block, k)))
                for row, forced in rows:
                    force_src[row, :] = full if forced else np.uint64(0)
                values[op.out] = force_src
            else:
                values[op.out] = result
        return get

    def _block_masks(self, faults: Sequence[FaultLike]):
        """Full-table ``(affected, detected, violations)`` arrays, shape
        ``(len(faults), words)`` each.  Unchunked tables only."""
        np = _np
        comp = self.compiled
        plans = [comp.fault_plan(fault) for fault in faults]
        base = self._full_baseline()
        get = self._block_outputs(plans, 0, self.words, base)
        block = len(plans)
        shape = (block, self.words)
        full = self.full_word
        wrong = np.zeros(shape, dtype=np.uint64)
        detected = np.zeros(shape, dtype=np.uint64)
        all_alt = np.full(shape, full, dtype=np.uint64)
        for pos, idx in enumerate(comp.out_idx):
            t_fault = np.broadcast_to(
                np.asarray(get(idx), dtype=np.uint64), shape
            )
            wrong |= t_fault ^ base[idx]
            alt = t_fault ^ self._reflect_full(t_fault)
            detected |= ~alt & full
            all_alt &= alt
        affected = wrong | self._reflect_full(wrong)
        violations = affected & all_alt
        return affected, detected, violations

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def line_bits(self, fault: Optional[FaultLike] = None) -> List[int]:
        """Every line's truth-table mask as a big int, optionally under a
        fault — byte-identical to :meth:`BitmaskBackend.line_bits`."""
        comp = self.compiled
        plans = [comp.fault_plan(fault)] if fault is not None else []
        pieces: List[List[bytes]] = [[] for _ in comp.names]
        for w0, w1 in self._ranges():
            base = (
                self._full_baseline()
                if not self.chunked
                else self._baseline_words(w0, w1)
            )
            if plans:
                get = self._block_outputs(plans, w0, w1, base)
            else:
                def get(idx, _base=base):  # noqa: E731 - closure per range
                    return _base[idx]
            for idx in range(len(comp.names)):
                arr = _np.asarray(get(idx), dtype=_np.uint64)
                if arr.ndim == 2:  # single-fault block: one row
                    arr = arr[0]
                row = _np.broadcast_to(arr, (w1 - w0,))
                pieces[idx].append(row.astype("<u8").tobytes())
        return [
            int.from_bytes(b"".join(parts), "little") for parts in pieces
        ]

    def output_bits(self, fault: Optional[FaultLike] = None) -> Tuple[int, ...]:
        bits = self.line_bits(fault)
        return tuple(bits[i] for i in self.compiled.out_idx)

    def response_block(
        self, faults: Sequence[FaultLike]
    ) -> List[Tuple[int, int, int]]:
        """``(affected, detected, violations)`` big-int masks per fault,
        byte-identical to the scalar classification."""
        out: List[Tuple[int, int, int]] = []
        for start in range(0, len(faults), self.block_faults):
            block = faults[start : start + self.block_faults]
            if self.chunked:
                out.extend(self._response_block_chunked(block))
                continue
            affected, detected, violations = self._block_masks(block)
            for row in range(len(block)):
                out.append(
                    (
                        _words_to_int(affected[row]),
                        _words_to_int(detected[row]),
                        _words_to_int(violations[row]),
                    )
                )
        return out

    def sweep_statuses(
        self,
        faults: Sequence[FaultLike],
        block_faults: Optional[int] = None,
    ) -> List[str]:
        """Classify every fault (``dangerous``/``detected``/``silent``)."""
        universe = list(faults)
        if self.chunked:
            return self._sweep_statuses_chunked(universe)
        block_size = block_faults or self.block_faults
        statuses: List[str] = []
        for start in range(0, len(universe), block_size):
            block = universe[start : start + block_size]
            _affected, detected, violations = self._block_masks(block)
            has_det = _np.any(detected != 0, axis=1)
            has_vio = _np.any(violations != 0, axis=1)
            statuses.extend(
                classify_status(bool(d), bool(v))
                for d, v in zip(has_det, has_vio)
            )
        return statuses

    def pattern_bits(
        self,
        patterns: Sequence[int],
        faults: Optional[Sequence[FaultLike]] = None,
    ):
        """Output masks over an explicit pattern list (NumPy path).

        Same contract as :func:`~repro.engine.backends.bitmask_pattern_bits`,
        but the pattern list is packed onto the ``uint64`` word axis and
        whole fault blocks ride one :meth:`_block_outputs` pass — this
        is the word axis the fault-dropping ATPG driver batches its
        candidate patterns along.  Because the word axis holds patterns
        (possibly more than ``2**n`` of them), forcing uses all 64 bits
        per word, not the truth-table ``full_word``.
        """
        np = _np
        comp = self.compiled
        n_patterns = len(patterns)
        n_words = max(1, (n_patterns + 63) >> 6)
        valid = (1 << n_patterns) - 1 if n_patterns else 0
        full64 = np.uint64(_FULL64)
        base: List = [None] * len(comp.names)
        for i, mask in enumerate(pack_pattern_masks(patterns, comp.n_inputs)):
            raw = mask.to_bytes(n_words * 8, "little")
            base[i] = np.frombuffer(raw, dtype="<u8").astype(np.uint64)
        for op in comp.ops:
            base[op.out] = _eval_words(
                op.kind, [base[s] for s in op.srcs], full64
            )
        base = [
            np.broadcast_to(np.asarray(v, dtype=np.uint64), (n_words,))
            for v in base
        ]
        if _REG.enabled:
            _M_OPS.inc(len(comp.ops), backend="vectorized")
            _M_WORDS.inc(len(comp.ops) * n_words, backend="vectorized")

        if faults is None:
            return tuple(_words_to_int(base[idx]) & valid for idx in comp.out_idx)
        results: List[Tuple[int, ...]] = []
        for start in range(0, len(faults), self.block_faults):
            chunk = faults[start : start + self.block_faults]
            plans = [comp.fault_plan(fault) for fault in chunk]
            get = self._block_outputs(plans, 0, n_words, base, full=full64)
            # One bulk numpy->python conversion per output column beats
            # a per-(row, output) broadcast + int round trip — this is
            # the driver's hot loop (every target simulates candidates
            # against the whole remaining universe).
            cols = []
            for idx in comp.out_idx:
                arr = np.asarray(get(idx), dtype=np.uint64)
                if arr.ndim == 1:
                    arr = np.broadcast_to(arr, (len(plans), n_words))
                cols.append(arr)
            if n_words == 1:
                col_lists = [col[:, 0].tolist() for col in cols]
                for row in range(len(plans)):
                    results.append(
                        tuple(cl[row] & valid for cl in col_lists)
                    )
            else:
                for row in range(len(plans)):
                    results.append(
                        tuple(
                            _words_to_int(col[row]) & valid for col in cols
                        )
                    )
        return results

    # ------------------------------------------------------------------
    # chunked (wide-input) path: mirror chunk pairs bound memory
    # ------------------------------------------------------------------
    def _ranges(self) -> List[Tuple[int, int]]:
        """Word ranges to evaluate: the full table, or successive chunks."""
        if not self.chunked:
            return [(0, self.words)]
        k = self.chunk_words
        return [(lo, lo + k) for lo in range(0, self.words, k)]

    def _pair_masks(self, plans, lo: int):
        """Pair-classification arrays for mirror chunks ``[lo, lo+K)``
        and ``[W-lo-K, W-lo)``.  The complement of a word in one chunk
        lands in the other, so alternation is local to the pair."""
        np = _np
        k = self.chunk_words
        w = self.words
        full = self.full_word
        comp = self.compiled
        base_a = self._baseline_words(lo, lo + k)
        base_b = self._baseline_words(w - lo - k, w - lo)
        get_a = self._block_outputs(plans, lo, lo + k, base_a)
        get_b = self._block_outputs(plans, w - lo - k, w - lo, base_b)
        shape = (len(plans), k)
        wrong_a = np.zeros(shape, dtype=np.uint64)
        wrong_b = np.zeros(shape, dtype=np.uint64)
        det = np.zeros(shape, dtype=np.uint64)
        det_b = np.zeros(shape, dtype=np.uint64)
        alt_all_a = np.full(shape, full, dtype=np.uint64)
        alt_all_b = np.full(shape, full, dtype=np.uint64)
        for pos, idx in enumerate(comp.out_idx):
            t_a = np.broadcast_to(np.asarray(get_a(idx), np.uint64), shape)
            t_b = np.broadcast_to(np.asarray(get_b(idx), np.uint64), shape)
            wrong_a |= t_a ^ base_a[idx]
            wrong_b |= t_b ^ base_b[idx]
            # Reflection of the table restricted to chunk A reads the
            # mirror chunk B with words reversed and bits reversed.
            alt_a = t_a ^ _bitrev64(t_b)[..., ::-1]
            alt_b = t_b ^ _bitrev64(t_a)[..., ::-1]
            det |= ~alt_a & full
            det_b |= ~alt_b & full
            alt_all_a &= alt_a
            alt_all_b &= alt_b
        aff_a = wrong_a | _bitrev64(wrong_b)[..., ::-1]
        aff_b = wrong_b | _bitrev64(wrong_a)[..., ::-1]
        vio_a = aff_a & alt_all_a
        vio_b = aff_b & alt_all_b
        return (aff_a, det, vio_a), (aff_b, det_b, vio_b)

    def _sweep_statuses_chunked(self, universe: List[FaultLike]) -> List[str]:
        np = _np
        comp = self.compiled
        total = len(universe)
        has_det = np.zeros(total, dtype=bool)
        has_vio = np.zeros(total, dtype=bool)
        k = self.chunk_words
        for lo in range(0, self.words // 2, k):
            for start in range(0, total, self.block_faults):
                block = universe[start : start + self.block_faults]
                plans = [comp.fault_plan(fault) for fault in block]
                masks_a, masks_b = self._pair_masks(plans, lo)
                for _aff, det, vio in (masks_a, masks_b):
                    has_det[start : start + len(block)] |= np.any(
                        det != 0, axis=1
                    )
                    has_vio[start : start + len(block)] |= np.any(
                        vio != 0, axis=1
                    )
        return [
            classify_status(bool(d), bool(v))
            for d, v in zip(has_det, has_vio)
        ]

    def _response_block_chunked(
        self, block: Sequence[FaultLike]
    ) -> List[Tuple[int, int, int]]:
        """Full masks in chunked mode (assembled per chunk pair; meant
        for tests and spot checks, not bulk sweeps)."""
        comp = self.compiled
        plans = [comp.fault_plan(fault) for fault in block]
        k = self.chunk_words
        parts: dict = {}
        for lo in range(0, self.words // 2, k):
            masks_a, masks_b = self._pair_masks(plans, lo)
            parts[lo] = masks_a
            parts[self.words - lo - k] = masks_b
        out: List[Tuple[int, int, int]] = []
        for row in range(len(block)):
            triple: List[int] = []
            for which in range(3):
                chunks = [
                    parts[lo][which][row].astype("<u8").tobytes()
                    for lo in sorted(parts)
                ]
                triple.append(int.from_bytes(b"".join(chunks), "little"))
            out.append(tuple(triple))
        return out


def chunk_statuses(engine, faults: Sequence[FaultLike], backend: str) -> List[str]:
    """Classify one chunk of faults on ``kernel`` / ``vectorized`` /
    ``bitmask``, mapped through :func:`resolve_rung` to the rung this
    :class:`~repro.engine.NetworkEngine` can serve.

    Fork workers and the serial loop both reach it through
    :func:`repro.engine.supervisor.chunk_statuses`, which is why every
    rung of the degradation ladder classifies byte-identically.
    """
    universe = list(faults)
    if backend not in ("kernel", "vectorized", "bitmask"):
        raise ValueError(f"unknown chunk backend {backend!r}")
    backend = resolve_rung(engine, backend)
    # Every rung classifies through this span: the flight's count of
    # successful "sweep.chunk" spans equals the report's chunk ledger.
    with obs.span("sweep.chunk", faults=len(universe), backend=backend):
        statuses = getattr(engine, backend).sweep_statuses(universe)
    if _REG.enabled:
        _M_CHUNKS.inc(len(universe), backend=backend)
    return statuses


def _pointwise_pattern_bits(engine, patterns, faults):
    """Scalar rung of :func:`chunk_pattern_bits`: one cone-pruned point
    evaluation per (pattern, fault) through the pointwise backend."""
    width = len(engine.compiled.out_idx)

    def run(fault):
        masks = [0] * width
        vectors = engine.pointwise.output_vectors(patterns, fault)
        for j, values in enumerate(vectors):
            for pos, value in enumerate(values):
                if value:
                    masks[pos] |= 1 << j
        return tuple(masks)

    if faults is None:
        return run(None)
    return [run(fault) for fault in faults]


#: Pattern-simulation rungs (the ATPG degradation ladder), fastest first.
ATPG_RUNGS = ("vectorized", "bitmask", "pointwise")


def chunk_pattern_bits(
    engine,
    patterns: Sequence[int],
    faults: Optional[Sequence[FaultLike]],
    backend: str,
):
    """Output masks over an explicit pattern list on a pattern rung.

    The pattern-space analogue of :func:`chunk_statuses` — the single
    chunk-level entry the fault-dropping ATPG driver (and its QA
    properties) use, so every rung of its degradation ladder evaluates
    patterns identically.  ``patterns`` is a list of point encodings;
    ``faults`` is a fault sequence (one output-mask tuple per fault,
    bit ``j`` = the output value under pattern ``j``) or ``None`` for
    the fault-free baseline tuple.  ``backend`` is ``vectorized`` /
    ``bitmask`` / ``pointwise``, mapped through :func:`resolve_rung`
    (``vectorized`` serves on the big-int path when NumPy is absent).
    """
    if backend not in ATPG_RUNGS:
        raise ValueError(f"unknown pattern backend {backend!r}")
    backend = resolve_rung(engine, backend, exhaustive=False)
    with obs.span(
        "atpg.chunk",
        patterns=len(patterns),
        faults=0 if faults is None else len(faults),
        backend=backend,
    ):
        if backend == "vectorized":
            return engine.vectorized.pattern_bits(patterns, faults)
        if backend == "bitmask":
            return bitmask_pattern_bits(engine.compiled, patterns, faults)
        return _pointwise_pattern_bits(engine, patterns, faults)


# ----------------------------------------------------------------------
# word-level primitives (NumPy path)
# ----------------------------------------------------------------------
def _bitrev64(arr):
    """Element-wise 64-bit reversal: per-byte table + byteswap."""
    a = _np.ascontiguousarray(arr, dtype=_np.uint64)
    return _REV8[a.view(_np.uint8)].view(_np.uint64).byteswap()


def _words_to_int(row) -> int:
    """One packed row back to the repo's big-int truth-table form."""
    return int.from_bytes(
        _np.ascontiguousarray(row).astype("<u8").tobytes(), "little"
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
    return out
