"""Fault-dropping ATPG campaigns: guided PODEM + fault-parallel drops.

The scalar :class:`~repro.core.atpg.Podem` answers one fault at a time;
fault-parallel pattern simulation checks a pattern against a whole
fault universe per pass.  This driver fuses them into the classic
fault-dropping loop:

1. **Target** the first remaining collapsed fault.  Up to
   :data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs the
   exhaustive tables answer first: a target whose faulty output tables
   equal the fault-free ones changes no output at any input point, so
   it is ``redundant`` without a search.  Every other target gets a
   budgeted PODEM search (guided by the SCOAP-weighted backtrace in
   ``core/atpg``); wider nets build no whole table and search every
   target.
2. **Complete** the returned partial assignment several ways — PODEM
   only decides the inputs the search needed, so the free inputs are a
   candidate space; each completion detects the target but drops a
   different slice of the rest of the universe.
3. **Simulate** every candidate against the *entire remaining* fault
   universe in one fault-parallel pass (:func:`pattern_detections`:
   bit ``f*P + p`` of every line is fault ``f`` under candidate
   pattern ``p``).
4. **Drop** everything the best candidate detects and keep that pattern;
   redundant targets (from the tables or from PODEM) and aborted ones
   are classified and removed directly.  A target the tables prove
   redundant never aborts, even where PODEM's backtrack budget or
   deadline would have run out.

A final reverse-greedy **compaction** pass re-simulates the kept
patterns against the detected set and discards every pattern whose
coverage is subsumed — conservation is machine-checked by the
``atpg-compaction-conservation`` QA property.

Pattern simulation is one big-int pass of the clocked campaigns'
row-parallel evaluator (:func:`~repro.seq.simulator.evaluate_rows`),
so it needs no NumPy and has no fallback rungs; per-target deadlines
reuse ``generate_test_ex``'s monotonic-deadline seam, and the whole run
is instrumented through :mod:`repro.obs` (``atpg.target`` spans whose
``via`` says ``table`` or ``podem``, ``atpg.chunk`` spans, drop
counters, a closing ``atpg.report`` event).

In ``pairs`` mode every candidate is an alternating pair ``(X, X̄)``
simulated as two adjacent pattern bits; a fault is dropped only when the
good pair alternates and the faulty pair does not — Theorem 3.2's test
condition, so the kept schedule is directly a SCAL test sequence.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..core.atpg import Podem, PodemResult
from ..core.collapse import sorted_stem_universe
from ..logic.faults import Fault
from ..logic.network import Network
from ..seq.forcing import RowForcing
from ..seq.simulator import evaluate_rows, force_fault
from .backends import UNTILED_MAX_INPUTS, pack_pattern_masks
from .compiled import CompiledNetwork, FaultLike

_REG = obs.REGISTRY
_M_TARGETS = _REG.counter(
    "repro_atpg_targets_total",
    "ATPG targets (table-proved or searched), by status",
)
_M_DROPPED = _REG.counter(
    "repro_atpg_dropped_total",
    "Faults dropped by pattern simulation without their own PODEM run",
)
_M_PATTERNS = _REG.counter(
    "repro_atpg_patterns_total", "ATPG patterns, by stage (generated/kept)"
)
_M_CANDIDATES = _REG.counter(
    "repro_atpg_candidates_total", "Candidate completions simulated"
)

#: Bits per line of one :func:`pattern_detections` block (fault slots
#: times patterns): 1,024 64-bit words.  A candidate batch is a few
#: patterns wide, so one block takes thousands of faults.
BLOCK_BITS = 1 << 16


@dataclasses.dataclass(frozen=True)
class AtpgReport:
    """Outcome of one fault-dropping ATPG run.

    ``classifications`` maps ``fault.describe()`` to ``"detected"`` /
    ``"redundant"`` / ``"aborted"``; ``detected_by`` maps each detected
    fault to the index (into ``patterns``) of the kept pattern that
    detects it.  In ``pairs`` mode each entry of ``patterns`` is the
    anchor ``X`` of an alternating pair ``(X, X̄)``.
    """

    circuit: str
    pairs: bool
    requested: int
    detected: int
    redundant: int
    aborted: int
    dropped: int
    targets: int
    patterns_generated: int
    patterns_kept: int
    candidates_evaluated: int
    wall_seconds: float
    patterns: Tuple[int, ...]
    classifications: Dict[str, str]
    detected_by: Dict[str, int]

    def coverage(self) -> float:
        """Detected fraction of the requested fault universe."""
        return self.detected / self.requested if self.requested else 1.0

    def to_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data["coverage"] = self.coverage()
        return data

    def summary(self) -> str:
        kind = "pairs" if self.pairs else "patterns"
        lines = [
            f"atpg {self.circuit}: {self.detected}/{self.requested} "
            f"detected ({self.coverage():.1%}), "
            f"{self.redundant} redundant, {self.aborted} aborted",
            f"  {self.patterns_kept} {kind} kept "
            f"(of {self.patterns_generated} generated), "
            f"{self.targets} targets, {self.dropped} dropped "
            f"without a search, "
            f"{self.candidates_evaluated} candidates simulated",
            f"  {self.wall_seconds:.3f}s wall",
        ]
        return "\n".join(lines)


def _candidate_patterns(
    result: PodemResult,
    input_names: Sequence[str],
    budget: int,
    rng: random.Random,
) -> List[int]:
    """Distinct completions of a PODEM result's free inputs, as points.

    The first candidate is always the zero-fill — byte-identical to
    ``result.test`` — so a driver run with ``candidates=1`` reproduces
    the scalar generator's pattern exactly.
    """
    assigned = result.assignment or {}
    fixed = 0  # the decided inputs' bits
    free: List[int] = []  # bit positions of the free inputs
    for i, name in enumerate(input_names):
        if name not in assigned:
            free.append(i)
        elif assigned[name]:
            fixed |= 1 << i

    def point(fills) -> int:
        p = fixed
        for i, value in zip(free, fills):
            if value:
                p |= 1 << i
        return p

    candidates: List[int] = []
    seen = set()

    def add(p: int) -> None:
        if p not in seen and len(candidates) < budget:
            seen.add(p)
            candidates.append(p)

    add(fixed)
    add(point([1] * len(free)))
    add(point([i & 1 for i in free]))
    space = 1 << len(free)
    for _ in range(4 * budget):
        if len(candidates) >= budget or len(seen) >= space:
            break
        add(point([rng.randrange(2) for _ in free]))
    return candidates


def pattern_detections(
    compiled: CompiledNetwork,
    patterns: Sequence[int],
    faults: Sequence[FaultLike],
    pairs: bool = False,
) -> List[int]:
    """One detection mask per fault over an explicit pattern list.

    ``patterns`` are point encodings (bit ``i`` = input ``i``).  Bit
    ``j`` of a fault's mask is set when pattern ``j`` detects it: some
    output differs from the good circuit's.  In ``pairs`` mode patterns
    ``2j``/``2j+1`` are one pair and only even bits are set: bit ``2j``
    when, on some output, the good pair alternates and the faulty pair
    does not — Theorem 3.2's nonalternating-output test condition.

    Fault-parallel on :func:`~repro.seq.simulator.evaluate_rows`: with
    ``P`` patterns, bit ``f*P + p`` of every line is fault ``f`` under
    pattern ``p``.  The input masks are the packed patterns times the
    slot-replication constant, each fault forces its whole ``P``-bit
    slot, and a block holds at most :data:`BLOCK_BITS` bits per line.
    Faults resolve through :meth:`CompiledNetwork.resolve`, so multiple
    faults and absent lines need no special case.
    """
    n_pat = len(patterns)
    with obs.span("atpg.chunk", patterns=n_pat, faults=len(faults)):
        if not n_pat:
            return [0] * len(faults)
        slot = (1 << n_pat) - 1
        inputs = pack_pattern_masks(patterns, compiled.n_inputs)
        good = evaluate_rows(compiled, inputs, RowForcing(n_pat))
        good = [good[i] for i in compiled.out_idx]
        if pairs:  # the good pairs that alternate, on their even bits
            good = [(g ^ (g >> 1)) & slot // 3 for g in good]
        per_block = max(1, BLOCK_BITS // n_pat)
        masks: List[int] = []
        for start in range(0, len(faults), per_block):
            block = faults[start : start + per_block]
            width = n_pat * len(block)
            replicate = ((1 << width) - 1) // slot  # bit f*P per slot f
            forcing = RowForcing(width)
            for f, fault in enumerate(block):
                force_fault(forcing, slot << (f * n_pat), fault, compiled)
            values = evaluate_rows(
                compiled, [m * replicate for m in inputs], forcing
            )
            diff = 0
            for idx, g in zip(compiled.out_idx, good):
                bad = values[idx]
                if pairs:
                    diff |= g * replicate & ~(bad ^ (bad >> 1))
                else:
                    diff |= g * replicate ^ bad
            masks.extend(
                (diff >> (f * n_pat)) & slot for f in range(len(block))
            )
    return masks


def _detected_candidates(mask: int, n_candidates: int, pairs: bool) -> set:
    """Indices of the candidates a :func:`pattern_detections` mask
    credits: candidate ``j`` is bit ``2j`` in pairs mode, else bit
    ``j``."""
    if not mask:
        return set()
    step = 2 if pairs else 1
    return {j for j in range(n_candidates) if (mask >> (step * j)) & 1}


def _table_redundant(tables, normal: Tuple[int, ...], fault: Fault) -> bool:
    """Whether ``fault`` leaves every output table unchanged, so no
    input point detects it (Theorem 3.4's observability condition).  A
    fault whose site is not in the net resolves to no force at all and
    is left to PODEM, which refuses it."""
    plan = tables.compiled.fault_plan(fault)
    return bool(plan.stems or plan.pins) and (
        tables.output_bits(fault) == normal
    )


def run_atpg(
    network: Network,
    faults: Optional[Sequence[Fault]] = None,
    *,
    collapse: bool = True,
    drop: bool = True,
    compact: bool = True,
    candidates: int = 8,
    pairs: bool = False,
    target_timeout: Optional[float] = None,
    max_backtracks: int = 2000,
    seed: int = 0,
    engine=None,
) -> AtpgReport:
    """Run the fault-dropping ATPG campaign and report classifications.

    ``faults`` overrides the target universe (default: collapsed stem
    representatives, or all stem faults with ``collapse=False``);
    repeats are dropped, keeping first occurrences in order.
    ``drop=False`` disables fault dropping (every fault is its own
    target and a testable one keeps the scalar zero-fill completion —
    the scalar-parity reference mode), ``compact=False`` keeps every
    generated pattern.  ``candidates`` bounds the completion
    batch per target; ``pairs`` generates alternating SCAL pairs.
    ``target_timeout`` is a per-target PODEM deadline in seconds.
    """
    from . import engine_for

    if candidates < 1:
        raise ValueError("candidates must be >= 1")
    engine = engine if engine is not None else engine_for(network)
    compiled = engine.compiled

    # A repeated fault would be requested twice but classified once, and
    # the counts would no longer tile the universe.
    universe = (
        list(dict.fromkeys(faults))
        if faults is not None
        else sorted_stem_universe(network, collapse)
    )

    input_names = list(network.inputs)
    full_point = (1 << len(input_names)) - 1
    podem = Podem(network, max_backtracks=max_backtracks)
    rng = random.Random(f"atpg:{seed}")

    t_start = time.monotonic()
    # Up to the whole-table cut the exhaustive tables decide redundancy
    # outright; wider nets build no whole table and leave it to PODEM.
    tables = (
        engine.bitmask if compiled.n_inputs <= UNTILED_MAX_INPUTS else None
    )
    normal = tables.output_bits() if tables is not None else None
    remaining = list(universe)
    classifications: Dict[Fault, str] = {}
    pattern_of: Dict[Fault, int] = {}
    patterns: List[int] = []
    targets = 0
    dropped = 0
    candidates_evaluated = 0

    while remaining:
        target = remaining[0]
        with obs.span("atpg.target", fault=target.describe()) as span:
            targets += 1
            if tables is not None and _table_redundant(
                tables, normal, target
            ):
                status, via = "redundant", "table"
            else:
                deadline = (
                    time.monotonic() + target_timeout
                    if target_timeout
                    else None
                )
                result = podem.generate_test_ex(target, deadline)
                status, via = result.status, "podem"
            span.set(status=status, via=via)
            if _REG.enabled:
                _M_TARGETS.inc(1, status=status)
            if status != "test":
                classifications[target] = status
                remaining.pop(0)
                continue
            cands = _candidate_patterns(result, input_names, candidates, rng)
            if not drop:
                # Candidate completions only buy extra drops; without
                # dropping, keep the zero-fill (scalar) completion and
                # charge it against the target alone.
                cands = cands[:1]
            if pairs:
                sim_patterns: List[int] = []
                for c in cands:
                    sim_patterns.extend((c, c ^ full_point))
            else:
                sim_patterns = cands
            masks = pattern_detections(
                compiled, sim_patterns, remaining if drop else remaining[:1],
                pairs,
            )
            candidates_evaluated += len(cands)
            detects = [
                _detected_candidates(mask, len(cands), pairs)
                for mask in masks
            ]
            # Best candidate: must detect the target (index 0 in
            # `remaining`), then maximal drop count; ties break to the
            # lowest candidate index (candidate 0 == the scalar test).
            counts = [0] * len(cands)
            for d in detects:
                for j in d:
                    counts[j] += 1
            best, best_count = None, -1
            for j in range(len(cands)):
                if j in detects[0] and counts[j] > best_count:
                    best, best_count = j, counts[j]
            if best is None:
                # The simulated response contradicts PODEM's detection
                # claim — never expected; classify conservatively rather
                # than drop a fault pattern simulation cannot confirm.
                obs.event("atpg.anomaly", fault=target.describe())
                classifications[target] = "aborted"
                remaining.pop(0)
                continue
            index = len(patterns)
            patterns.append(cands[best])
            to_drop = (
                {fi for fi, d in enumerate(detects) if best in d}
                if drop
                else {0}
            )
            for fi in to_drop:
                classifications[remaining[fi]] = "detected"
                pattern_of[remaining[fi]] = index
            dropped += len(to_drop) - 1
            remaining = [
                f for fi, f in enumerate(remaining) if fi not in to_drop
            ]

    patterns_generated = len(patterns)

    detected_faults = [
        f for f in universe if classifications.get(f) == "detected"
    ]
    if compact and len(patterns) > 1 and detected_faults:
        if pairs:
            sim_patterns = []
            for p in patterns:
                sim_patterns.extend((p, p ^ full_point))
        else:
            sim_patterns = list(patterns)
        cover = [
            _detected_candidates(mask, len(patterns), pairs)
            for mask in pattern_detections(
                compiled, sim_patterns, detected_faults, pairs
            )
        ]
        if all(cover):
            kept = set(range(len(patterns)))
            # Reverse-greedy: later patterns were generated for the
            # rarely-detected tail, so try discarding early, broadly
            # subsumed ones first.
            for j in range(len(patterns)):
                if all(j not in c or len(c & kept) > 1 for c in cover):
                    kept.discard(j)
            order = sorted(kept)
            remap = {old: new for new, old in enumerate(order)}
            patterns = [patterns[j] for j in order]
            for fault, c in zip(detected_faults, cover):
                pattern_of[fault] = remap[min(c & kept)]
        else:
            obs.event("atpg.anomaly", reason="uncovered detected fault")

    wall = time.monotonic() - t_start
    detected = sum(1 for s in classifications.values() if s == "detected")
    redundant = sum(1 for s in classifications.values() if s == "redundant")
    aborted = sum(1 for s in classifications.values() if s == "aborted")
    if _REG.enabled:
        _M_DROPPED.inc(dropped)
        _M_PATTERNS.inc(patterns_generated, stage="generated")
        _M_PATTERNS.inc(len(patterns), stage="kept")
        _M_CANDIDATES.inc(candidates_evaluated)
    report = AtpgReport(
        circuit=network.name,
        pairs=pairs,
        requested=len(universe),
        detected=detected,
        redundant=redundant,
        aborted=aborted,
        dropped=dropped,
        targets=targets,
        patterns_generated=patterns_generated,
        patterns_kept=len(patterns),
        candidates_evaluated=candidates_evaluated,
        wall_seconds=wall,
        patterns=tuple(patterns),
        classifications={
            f.describe(): classifications[f] for f in universe
        },
        detected_by={
            f.describe(): pattern_of[f]
            for f in universe
            if f in pattern_of
        },
    )
    obs.event(
        "atpg.report",
        circuit=report.circuit,
        faults=report.requested,
        detected=report.detected,
        redundant=report.redundant,
        aborted=report.aborted,
        dropped=report.dropped,
        patterns_kept=report.patterns_kept,
        wall_seconds=report.wall_seconds,
    )
    return report
