"""Program-specialized kernel tier: codegen'd fused sweep kernels.

The vectorized backend removed the *per-fault* interpreter cost, but its
inner loop still pays per-gate dispatch: every scheduled op walks the
``GateKind`` ladder in :func:`~repro.engine.vectorized._eval_words`,
rebuilds operand lists, and consults fanout bookkeeping dicts — on every
pass of every sweep.  This module removes that layer too.

For each **block signature** — the union of a fault block's cone-pruned
schedules, the set of stem-forced lines, and the set of forced
``(op, slot)`` pins — a specialized straight-line Python function is
*generated as source* and ``exec``'d once:

* gate dispatch is resolved at generation time (an AND gate becomes the
  literal expression ``v13 & v17``),
* fault-injection branching is resolved at generation time: each forced
  line becomes one ``value & sa | so`` line over per-row ``(B, 1)``
  forcing columns (stem forcing re-applied after the driving op, so stem
  values win over pin overrides exactly as the scalar plans resolve it),
* **dead-line elimination** drops every scheduled op (and forced line)
  that cannot reach an output, and **constant folding** collapses
  CONST-fed subexpressions (an AND with a constant-0 side input folds to
  a constant, all the way through the cone), and
* the SCAL pair classification is fused into the same function: baseline
  contributions of the outputs the block cannot touch are folded into
  per-signature seed constants (their detection mask, if nonzero, makes
  detection constant-true for the whole block — no per-output work).

The generated kernel takes the cached fault-free baseline line arrays as
inputs and computes *only* the block's live cone, so a whole-circuit
pass is one chain of native NumPy calls.  Kernels are cached per
``(program fingerprint, signature)`` — in-process and, when the
content-addressed :data:`~repro.engine.store.STORE` is enabled, across
engines of identical programs.  Prepared per-block argument tuples are
cached too, so steady-state sweeps (the synthesis-campaign fitness shape:
the same universe swept millions of times) skip all set-up.

Tables are in the vectorized tier's pair-major point order, so the
fused classification needs no reflection: alternation is the XOR of a
tile's two aligned halves (or ``(v ^ (v >> h)) & low`` inside a table
of one word or less).  Wide tables are blocked into L2-sized **tiles**
on the word axis (words ``[lo, lo+K)`` of the lower half together with
their partners ``[H+lo, H+lo+K)``, so alternation stays local to the
tile) and tiles run on a shared :class:`ThreadPoolExecutor` (NumPy
releases the GIL on large array ops).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..logic.gates import GateKind
from .compiled import CompiledNetwork, FaultLike
from .store import STORE, program_fingerprint
from .vectorized import (
    HAVE_NUMPY,
    KERNEL_MAX_INPUTS,
    VectorizedBackend,
    _threshold_words,
    classify_status,
    pair_tiles,
)

try:  # NumPy is required for this tier; selection happens upstream.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the no-numpy CI job
    _np = None

_REG = obs.REGISTRY
_M_COMPILES = _REG.counter(
    "repro_kernel_compiles_total", "Specialized kernels generated"
)
_M_HITS = _REG.counter(
    "repro_kernel_cache_hits_total", "Kernel cache hits, by source"
)
_M_MISSES = _REG.counter(
    "repro_kernel_cache_misses_total", "Kernel cache misses (compiles)"
)
_M_BLOCKS = _REG.counter(
    "repro_kernel_blocks_total", "Fault blocks executed by the kernel tier"
)
_M_FAULTS = _REG.counter(
    "repro_kernel_faults_total", "Faults classified by the kernel tier"
)
_M_OPS = _REG.counter(
    "repro_engine_ops_total", "Compiled ops evaluated, by backend"
)
_M_WORDS = _REG.counter(
    "repro_engine_words_total", "64-bit truth-table words simulated, by backend"
)

#: Faults per kernel block.  Smaller than the vectorized default (64):
#: a specialized kernel has no per-op dispatch to amortize, so smaller
#: blocks win on cache locality (measured best 16 on the randlogic
#: sweep).
DEFAULT_KERNEL_BLOCK_FAULTS = 16

#: Words of the lower half per tile.  One tile is ``2 * tile_words``
#: words, those plus their upper-half partners: a ``(16, 4096)``-word
#: block row set stays within a typical L2 slice.
DEFAULT_TILE_WORDS = 2048

class _Kernel:
    """One compiled signature: the exec'd function plus its arg spec."""

    __slots__ = (
        "fn",
        "source",
        "digest",
        "base_args",
        "stem_args",
        "pin_args",
        "touched",
        "det_const",
        "alt_seed",
        "const_status",
        "n_ops",
    )


class _PreparedBlock:
    """One fault block bound to its kernel: ready-to-call arg tuples."""

    __slots__ = ("size", "const_status", "det_const", "kern", "tile_args")


class KernelBackend:
    """Codegen'd fused-sweep executor (the ``kernel`` backend).

    Serves the same :meth:`sweep_statuses` contract as the other block
    backends — statuses are byte-identical to the scalar bitmask path —
    but each block runs as one specialized straight-line function
    instead of an interpreted union schedule.
    """

    name = "kernel"

    def __init__(
        self,
        compiled: CompiledNetwork,
        vectorized: Optional[VectorizedBackend] = None,
        block_faults: int = DEFAULT_KERNEL_BLOCK_FAULTS,
        tile_words: int = DEFAULT_TILE_WORDS,
        threads: Optional[int] = None,
        max_cached_blocks: int = 4096,
    ) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError(
                "NumPy is unavailable; the kernel tier needs it "
                "(use BitmaskBackend instead)"
            )
        if compiled.n_inputs > KERNEL_MAX_INPUTS:
            raise ValueError(
                f"kernel backend supports at most {KERNEL_MAX_INPUTS} "
                f"inputs (got {compiled.n_inputs}); use the vectorized "
                f"or pointwise backends for wider input spaces"
            )
        self.compiled = compiled
        self.vec = (
            vectorized
            if vectorized is not None
            else VectorizedBackend(compiled)
        )
        self.n = compiled.n_inputs
        self.total_bits = 1 << self.n
        self.words = max(1, self.total_bits >> 6)
        self.full_word = _np.uint64((1 << min(self.total_bits, 64)) - 1)
        self.block_faults = max(1, block_faults)
        self.tile_words = max(1, tile_words)
        self.threads = (
            threads if threads is not None else (os.cpu_count() or 1)
        )
        self.max_cached_blocks = max_cached_blocks
        self._fingerprint = program_fingerprint(compiled)
        self._kernels: Dict[str, _Kernel] = {}
        self._blocks: "OrderedDict[Tuple, _PreparedBlock]" = OrderedDict()
        self._lock = threading.Lock()
        self._base: Optional[List] = None
        self._base_alt: Dict[int, object] = {}
        self._seed_cache: Dict[Tuple[int, ...], Tuple[bool, object]] = {}
        self._tile_base: Dict[int, Dict[int, object]] = {}
        self._pool: Optional[ThreadPoolExecutor] = None
        # Tiles of a power-of-two word count divide the half evenly, so
        # every tile has the same width.
        self._tiles = pair_tiles(
            self.words, 1 << (self.tile_words.bit_length() - 1)
        )
        # Gate literals span a whole tile, so every computed line does
        # too and a tile's two halves can always be sliced apart.
        width = len(self._tiles[0])
        self._literals = (
            _np.full(width, self.full_word, dtype=_np.uint64),
            _np.zeros(width, dtype=_np.uint64),
        )

    # ------------------------------------------------------------------
    # baseline material
    # ------------------------------------------------------------------
    def _baseline(self) -> List:
        if self._base is None:
            self._base = self.vec._full_baseline()
        return self._base

    def _base_alt_of(self, out: int):
        """Baseline alternation mask of output line ``out``, one bit per
        pair (cached)."""
        cached = self._base_alt.get(out)
        if cached is None:
            base = self._baseline()
            row = _np.broadcast_to(
                _np.asarray(base[out], dtype=_np.uint64), (self.words,)
            )
            lo, hi = self.vec._halves(row)
            cached = lo ^ hi
            self._base_alt[out] = cached
        return cached

    def _seeds(self, untouched: Tuple[int, ...]) -> Tuple[bool, object]:
        """``(det_const, alt_seed)`` for a signature's untouched outputs.

        Outputs a block cannot touch contribute their *baseline* masks to
        the classification: any nonalternating baseline pair makes every
        fault in the block "detected" (``det_const``), and their
        alternation masks AND into the violation test (``alt_seed``;
        ``None`` when they alternate everywhere, i.e. the seed is full).
        """
        cached = self._seed_cache.get(untouched)
        if cached is not None:
            return cached
        full = self.vec.pair_full
        det_const = False
        alt_seed = None
        for out in untouched:
            alt = self._base_alt_of(out)
            if not det_const and bool(_np.any(alt != full)):
                det_const = True
            alt_seed = alt if alt_seed is None else (alt_seed & alt)
        if alt_seed is not None and bool(_np.all(alt_seed == full)):
            alt_seed = None
        result = (det_const, alt_seed)
        self._seed_cache[untouched] = result
        return result

    # ------------------------------------------------------------------
    # signature + codegen
    # ------------------------------------------------------------------
    def _signature(self, plans):
        """Dead-line-eliminated block signature: kept schedule, live
        stem-forced lines, live forced pins, and the cache digest."""
        comp = self.compiled
        ops = comp.ops
        stems: set = set()
        pins: set = set()
        sched: set = set()
        for plan in plans:
            stems.update(idx for idx, _ in plan.stems)
            for pos, overrides in plan.pins.items():
                for slot, _ in overrides:
                    pins.add((pos, slot))
            sched.update(plan.ops)
        order = sorted(sched)
        outs = _dedupe(comp.out_idx)
        driven = {ops[pos].out for pos in order}
        touched = [o for o in outs if o in stems or o in driven]
        # Dead-line elimination: walk the schedule backwards from the
        # touched outputs; ops that cannot reach one are dropped, and
        # with them their pin overrides and unread stem forcings.
        need = set(touched)
        kept: List[int] = []
        for pos in reversed(order):
            if ops[pos].out in need:
                kept.append(pos)
                need.update(ops[pos].srcs)
        kept.reverse()
        kept_set = set(kept)
        stems_kept = tuple(sorted(stems & need))
        pins_kept = tuple(
            sorted(key for key in pins if key[0] in kept_set)
        )
        digest = hashlib.sha256(
            "|".join(
                (
                    self._fingerprint,
                    ",".join(map(str, stems_kept)),
                    ",".join(f"{p}.{s}" for p, s in pins_kept),
                    ",".join(map(str, kept)),
                )
            ).encode()
        ).hexdigest()
        return digest, stems_kept, pins_kept, tuple(kept)

    def _kernel_for(self, digest, stems, pins, sched) -> _Kernel:
        kern = self._kernels.get(digest)
        if kern is not None:
            if _REG.enabled:
                _M_HITS.inc(source="memory")
            return kern
        if STORE.enabled:
            cached = STORE.get("kernel", self._fingerprint, digest)
            if cached is not None:
                self._kernels[digest] = cached
                if _REG.enabled:
                    _M_HITS.inc(source="store")
                return cached
        if _REG.enabled:
            _M_MISSES.inc()
        with obs.span(
            "kernel.compile",
            digest=digest[:12],
            ops=len(sched),
            stems=len(stems),
            pins=len(pins),
        ):
            kern = self._generate(digest, stems, pins, sched)
            if _REG.enabled:
                _M_COMPILES.inc()
        self._kernels[digest] = kern
        if STORE.enabled:
            STORE.put("kernel", self._fingerprint, digest, value=kern)
        return kern

    def _generate(self, digest, stem_lines, pin_keys, sched) -> _Kernel:
        """Generate and ``exec`` one signature."""
        comp = self.compiled
        ops = comp.ops
        stem_set = set(stem_lines)
        stem_arg = {ln: k for k, ln in enumerate(stem_lines)}
        pin_arg = {key: j for j, key in enumerate(pin_keys)}
        driven_by = {ops[pos].out: pos for pos in sched}
        const_lines = {
            op.out: (1 if op.kind is GateKind.CONST1 else 0)
            for op in ops
            if op.kind in (GateKind.CONST0, GateKind.CONST1)
        }
        computed: set = set()
        lit: Dict[int, int] = {}
        base_args: List[int] = []
        base_seen: set = set()
        body: List[str] = []

        def base_ref(idx: int) -> str:
            cv = const_lines.get(idx)
            if cv is not None:
                return "F" if cv else "ZW"
            if idx not in base_seen:
                base_seen.add(idx)
                base_args.append(idx)
            return f"b{idx}"

        def ref(idx: int):
            """Operand as (expression, literal-or-None)."""
            if idx in computed:
                return f"v{idx}", None
            lv = lit.get(idx)
            if lv is None and idx not in stem_set:
                lv = const_lines.get(idx)
            if lv is not None:
                return ("F" if lv else "ZW"), lv
            return base_ref(idx), None

        # Stem-forced lines whose driving op is not scheduled force on
        # top of the baseline; scheduled ones re-force after their op
        # (forced values win over pin overrides, as in the scalar plans).
        for ln in stem_lines:
            if ln not in driven_by:
                k = stem_arg[ln]
                body.append(f"v{ln} = {base_ref(ln)} & sa{k} | so{k}")
                computed.add(ln)
        for pos in sched:
            op = ops[pos]
            rendered = []
            for slot, src in enumerate(op.srcs):
                expr, lv = ref(src)
                j = pin_arg.get((pos, slot))
                if j is not None:
                    expr, lv = f"({expr} & pa{j} | po{j})", None
                rendered.append((expr, lv))
            folded = _gate_fold(op.kind, rendered, masked=self.total_bits < 64)
            if folded[0] == "lit" and op.out not in stem_set:
                lit[op.out] = folded[1]
                continue
            expr = (
                folded[1]
                if folded[0] == "expr"
                else ("F" if folded[1] else "ZW")
            )
            if op.out in stem_set:
                k = stem_arg[op.out]
                body.append(f"v{op.out} = ({expr}) & sa{k} | so{k}")
            else:
                body.append(f"v{op.out} = {expr}")
            computed.add(op.out)

        outs = _dedupe(comp.out_idx)
        touched = tuple(o for o in outs if o in computed)
        untouched = tuple(o for o in outs if o not in computed)
        det_const, alt_seed = self._seeds(untouched)

        kern = _Kernel()
        kern.digest = digest
        kern.stem_args = stem_lines
        kern.pin_args = pin_keys
        kern.touched = touched
        kern.det_const = det_const
        kern.alt_seed = alt_seed
        kern.n_ops = len(body)
        if not touched:
            # The block cannot reach any output: every fault's status is
            # decided by the baseline seeds alone.
            kern.fn = None
            kern.source = ""
            kern.base_args = ()
            kern.const_status = "detected" if det_const else "silent"
            return kern
        kern.const_status = None

        # Each line's two aligned halves, whose XOR is its alternation:
        # the two K-word halves of a tile, or the two S-bit halves of a
        # one-word table (``L`` masks the lower one).
        one_word = self.words == 1
        if one_word:
            lo, hi, inv = "({} & L)", "({} >> S)", "a ^ L"
        else:
            lo, hi, inv = "{}[..., :K]", "{}[..., K:]", "~a"

        def alternation(v: str) -> str:
            return f"{lo.format(v)} ^ {hi.format(v)}"

        first = touched[0]
        body.append(f"w = v{first} ^ {base_ref(first)}")
        body.append(f"a = {alternation(f'v{first}')}")
        body.append("alt = AS & a" if alt_seed is not None else "alt = a")
        if not det_const:
            body.append(f"det = {inv}")
        for o in touched[1:]:
            body.append(f"w = w | (v{o} ^ {base_ref(o)})")
            body.append(f"a = {alternation(f'v{o}')}")
            body.append("alt = alt & a")
            if not det_const:
                body.append(f"det = det | ({inv})")
        # A pair is affected when either of its points is wrong.
        body.append(f"vio = ({lo.format('w')} | {hi.format('w')}) & alt")
        body.append("return (" + ("None" if det_const else "det") + ", vio)")

        args = ["F", "ZW"] if one_word else ["F", "ZW", "K"]
        if alt_seed is not None:
            args.append("AS")
        args.extend(f"b{i}" for i in base_args)
        for k in range(len(stem_lines)):
            args.extend((f"sa{k}", f"so{k}"))
        for j in range(len(pin_keys)):
            args.extend((f"pa{j}", f"po{j}"))
        source = (
            f"def _kernel({', '.join(args)}):\n"
            + "".join(f"    {line}\n" for line in body)
        )
        globs = {
            "S": _np.uint64(self.vec.half_bits),
            "L": self.vec.pair_full,
            "TH": _threshold_words,
            "_MAJ": GateKind.MAJ,
            "_MIN": GateKind.MIN,
        }
        code = compile(source, f"<repro-kernel-{digest[:12]}>", "exec")
        exec(code, globs)
        kern.fn = globs["_kernel"]
        kern.base_args = tuple(base_args)
        kern.source = source
        return kern

    # ------------------------------------------------------------------
    # block preparation + execution
    # ------------------------------------------------------------------
    def _tile_slice(self, tile_i: int, arr, pairs: bool = False):
        """``arr`` restricted to tile ``tile_i``: the tile's words of a
        table row, or its lower-half words of a pair mask (``pairs``);
        identity for a whole-table tile."""
        if len(self._tiles) == 1:
            return arr
        widx = self._tiles[tile_i]
        return arr[widx[: len(widx) >> 1]] if pairs else arr[widx]

    def _tile_base_arg(self, tile_i: int, idx: int):
        per = self._tile_base.setdefault(tile_i, {})
        arr = per.get(idx)
        if arr is None:
            base = self._baseline()
            row = _np.broadcast_to(
                _np.asarray(base[idx], dtype=_np.uint64), (self.words,)
            )
            arr = self._tile_slice(tile_i, row)
            per[idx] = arr
        return arr

    def _prepare(self, block: Tuple[FaultLike, ...]) -> _PreparedBlock:
        # Engines are shared across server threads; one lock covers both
        # the prepared-block LRU and the kernel cache (the hit path is a
        # single dict probe, so contention stays negligible).
        with self._lock:
            return self._prepare_locked(block)

    def _prepare_locked(self, block: Tuple[FaultLike, ...]) -> _PreparedBlock:
        prep = self._blocks.get(block)
        if prep is not None:
            self._blocks.move_to_end(block)
            return prep
        comp = self.compiled
        plans = [comp.fault_plan(fault) for fault in block]
        digest, stems, pins, sched = self._signature(plans)
        kern = self._kernel_for(digest, stems, pins, sched)
        prep = _PreparedBlock()
        prep.size = len(block)
        prep.kern = kern
        prep.const_status = kern.const_status
        prep.det_const = kern.det_const
        prep.tile_args = None
        if kern.const_status is None:
            B = len(block)
            full = self.full_word
            zero = _np.uint64(0)
            forcing: List = []
            for ln in kern.stem_args:
                sa = _np.full((B, 1), full, dtype=_np.uint64)
                so = _np.zeros((B, 1), dtype=_np.uint64)
                for row, plan in enumerate(plans):
                    for idx, value in plan.stems:
                        if idx == ln:
                            sa[row, 0] = zero
                            so[row, 0] = full if value else zero
                forcing.extend((sa, so))
            for pos, slot in kern.pin_args:
                pa = _np.full((B, 1), full, dtype=_np.uint64)
                po = _np.zeros((B, 1), dtype=_np.uint64)
                for row, plan in enumerate(plans):
                    for pslot, value in plan.pins.get(pos, ()):
                        if pslot == slot:
                            pa[row, 0] = zero
                            po[row, 0] = full if value else zero
                forcing.extend((pa, po))
            tile_args = []
            for tile_i, widx in enumerate(self._tiles):
                args: List = list(self._literals)
                if self.words > 1:
                    args.append(len(widx) >> 1)  # K
                if kern.alt_seed is not None:
                    args.append(
                        self._tile_slice(tile_i, kern.alt_seed, pairs=True)
                    )
                args.extend(
                    self._tile_base_arg(tile_i, idx)
                    for idx in kern.base_args
                )
                args.extend(forcing)
                tile_args.append(tuple(args))
            prep.tile_args = tile_args
        self._blocks[block] = prep
        while len(self._blocks) > self.max_cached_blocks:
            self._blocks.popitem(last=False)
        return prep

    def _run_block(self, prep: _PreparedBlock):
        """``(det_any, vio_any)`` per fault row; ``det_any`` is ``None``
        when detection is constant-true for the block (baseline seeds)."""
        fn = prep.kern.fn
        n_tiles = len(prep.tile_args)
        if n_tiles == 1:  # the common full-table tile: no reduce loop
            det, vio = fn(*prep.tile_args[0])
            d = None if det is None else _np.any(det, axis=-1)
            return d, _np.any(vio, axis=-1)
        det_b = None if prep.det_const else _np.zeros(prep.size, dtype=bool)
        vio_b = _np.zeros(prep.size, dtype=bool)

        def one(tile_i: int):
            det, vio = fn(*prep.tile_args[tile_i])
            d = None if det is None else _np.any(det, axis=-1)
            return d, _np.any(vio, axis=-1)

        if self.threads > 1:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(self.threads, n_tiles),
                    thread_name_prefix="repro-kernel",
                )
            results = list(self._pool.map(one, range(n_tiles)))
        else:
            results = [one(i) for i in range(n_tiles)]
        for d, v in results:
            if d is not None and det_b is not None:
                det_b |= d
            vio_b |= v
        return det_b, vio_b

    # ------------------------------------------------------------------
    # public API (the chunk_statuses contract)
    # ------------------------------------------------------------------
    def sweep_statuses(
        self,
        faults: Sequence[FaultLike],
        block_faults: Optional[int] = None,
    ) -> List[str]:
        """Classify every fault — byte-identical to the scalar path."""
        universe = list(faults)
        block_size = block_faults or self.block_faults
        statuses: List[str] = []
        enabled = _REG.enabled
        for start in range(0, len(universe), block_size):
            block = tuple(universe[start : start + block_size])
            prep = self._prepare(block)
            if enabled:
                _M_BLOCKS.inc()
                _M_FAULTS.inc(len(block))
                _M_OPS.inc(prep.kern.n_ops, backend="kernel")
                _M_WORDS.inc(
                    prep.kern.n_ops * len(block) * self.words,
                    backend="kernel",
                )
            if prep.const_status is not None:
                statuses.extend([prep.const_status] * len(block))
                continue
            det_b, vio_b = self._run_block(prep)
            if det_b is None:  # detection constant-true for the block
                statuses.extend(
                    "dangerous" if v else "detected"
                    for v in vio_b.tolist()
                )
            else:
                statuses.extend(
                    classify_status(d, v)
                    for d, v in zip(det_b.tolist(), vio_b.tolist())
                )
        return statuses

    def cache_stats(self) -> dict:
        """Codegen/blocks cache occupancy (tests and `repro stats`)."""
        return {
            "kernels": len(self._kernels),
            "blocks": len(self._blocks),
            "tiles": len(self._tiles),
        }


def _dedupe(seq) -> Tuple[int, ...]:
    seen: set = set()
    out: List[int] = []
    for item in seq:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return tuple(out)


def _gate_fold(kind: GateKind, rendered, masked: bool):
    """Fold one gate over rendered operands ``(expr, lit)`` where ``lit``
    is 0/1 for compile-time constants, ``None`` for arrays.  Returns
    ``("lit", 0/1)`` or ``("expr", text)``.  ``masked`` is True for
    sub-word tables, whose complements must clear the unused high bits;
    full-word tables fold the ``& F`` away (F is all ones)."""

    def complemented(expr: str) -> str:
        return f"~({expr}) & F" if masked else f"~({expr})"

    if kind is GateKind.CONST0:
        return ("lit", 0)
    if kind is GateKind.CONST1:
        return ("lit", 1)
    if kind is GateKind.BUF:
        expr, lv = rendered[0]
        return ("lit", lv) if lv is not None else ("expr", expr)
    if kind is GateKind.NOT:
        expr, lv = rendered[0]
        if lv is not None:
            return ("lit", 1 - lv)
        return ("expr", complemented(expr))
    if kind in (GateKind.AND, GateKind.NAND, GateKind.OR, GateKind.NOR):
        is_or = kind in (GateKind.OR, GateKind.NOR)
        invert = kind in (GateKind.NAND, GateKind.NOR)
        absorbing = 1 if is_or else 0  # OR with 1 / AND with 0
        arrays = [expr for expr, lv in rendered if lv is None]
        if any(lv == absorbing for _, lv in rendered):
            value = absorbing
        elif not arrays:
            value = 1 - absorbing
        else:
            joined = (" | " if is_or else " & ").join(arrays)
            if invert:
                return ("expr", complemented(joined))
            return (
                "expr", joined if len(arrays) > 1 else arrays[0]
            )
        return ("lit", 1 - value if invert else value)
    if kind in (GateKind.XOR, GateKind.XNOR):
        flip = sum(lv for _, lv in rendered if lv) & 1
        if kind is GateKind.XNOR:
            flip ^= 1
        arrays = [expr for expr, lv in rendered if lv is None]
        if not arrays:
            return ("lit", flip)
        joined = " ^ ".join(arrays)
        if flip:
            return ("expr", complemented(joined))
        return ("expr", joined if len(arrays) > 1 else arrays[0])
    if kind in (GateKind.MAJ, GateKind.MIN):
        name = "_MAJ" if kind is GateKind.MAJ else "_MIN"
        exprs = ", ".join(expr for expr, _ in rendered)
        return ("expr", f"TH({name}, ({exprs},), F)")
    raise ValueError(f"gate kind {kind} has no kernel codegen")
