"""Fault-dropping ATPG campaigns: tests from the exhaustive tables, or
guided PODEM plus fault-parallel drops.

Up to :data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs a fault's
test set is a mask the engine reads off its tables
(:meth:`~repro.engine.backends.BitmaskBackend.detection_mask`): the
points where some output changes or, in ``pairs`` mode, the pairs
``(X, X̄)`` on which some output alternates fault-free and not under the
fault (Theorem 3.2, ``A ∨ B``).  A dropping run compacts on the masks
alone: the first remaining fault is the **target**; its mask is
**narrowed** by each remaining fault's mask whenever the two still share
a point; the lowest point left is kept as a pattern (the pair's anchor
``X``) and every fault it detects is **dropped**.  An empty mask proves
the target ``redundant`` under the mode's test condition.

Above the cut no whole table is built.  Each target gets a budgeted
PODEM search (SCOAP-guided, ``core/atpg``); the returned partial
assignment is **completed** several ways, and every candidate is
**simulated** against the *entire remaining* universe in one
fault-parallel pass of the engine's one interpreter
(:func:`pattern_detections`: bit ``f*P + p`` of every line is fault
``f`` under pattern ``p``); everything the best candidate detects is
dropped.  ``drop=False`` is the one-search-per-fault reference at any
width, except that up to the cut a target whose output tables equal the
fault-free ones is ``redundant`` without a search.

Either way a reverse-greedy **compaction** pass discards every kept
pattern whose coverage is subsumed (machine-checked by the
``atpg-compaction-conservation`` QA property).  The run is instrumented
through :mod:`repro.obs`: ``atpg.target`` spans whose ``via`` says
``table`` or ``podem``, ``atpg.chunk`` spans around mask building and
pattern simulation, drop counters and a closing ``atpg.report`` event.
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
from .backends import UNTILED_MAX_INPUTS, engine_for, pack_pattern_masks, run_ops
from .compiled import CompiledNetwork, FaultLike, RowForcing

_REG = obs.REGISTRY
_M_TARGETS = _REG.counter(
    "repro_atpg_targets_total",
    "ATPG targets (table-proved or searched), by status",
)
_M_DROPPED = _REG.counter(
    "repro_atpg_dropped_total",
    "Faults detected without being a target themselves",
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

    ``redundant`` means no test under the mode's test condition, so in
    ``pairs`` mode a fault can be detected singly yet have no detecting
    pair.  ``aborted`` means a PODEM budget or deadline stop (or, in a
    ``pairs`` search, a vector that forms no detecting pair).
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
            f"without being targeted, "
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

    Fault-parallel on :func:`~repro.engine.backends.run_ops`: with
    ``P`` patterns, bit ``f*P + p`` of every line is fault ``f`` under
    pattern ``p``.  The input masks are the packed patterns times the
    slot-replication constant, each fault forces its whole ``P``-bit
    slot, and a block holds at most :data:`BLOCK_BITS` bits per line.
    Faults resolve through :meth:`CompiledNetwork.fault_ids`, so multiple
    faults and absent lines need no special case.
    """
    n_pat = len(patterns)
    with obs.span("atpg.chunk", patterns=n_pat, faults=len(faults)):
        if not n_pat:
            return [0] * len(faults)
        slot = (1 << n_pat) - 1
        inputs = pack_pattern_masks(patterns, compiled.n_inputs)
        blank = [0] * len(compiled.ops)
        good = run_ops(compiled, inputs + blank, slot)
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
                forcing.stick_fault(
                    compiled, compiled.fault_ids(fault), slot << (f * n_pat)
                )
            values = run_ops(
                compiled,
                [m * replicate for m in inputs] + blank,
                forcing.full,
                forcing=forcing,
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


def _table_tests(tables, universe: List[Fault], pairs: bool):
    """``(step, cover)`` over every fault's test set from the exhaustive
    tables (:meth:`~repro.engine.backends.BitmaskBackend.detection_mask`).
    ``step(remaining)`` returns ``(status, via, pattern or None, detected,
    candidates simulated)``: it narrows the target's mask by each
    remaining fault's whenever the two still share a point, and the
    lowest point left detects all of them; an empty mask proves
    redundancy."""
    compiled = tables.compiled
    with obs.span(
        "atpg.chunk", patterns=1 << compiled.n_inputs, faults=len(universe)
    ):
        masks = [tables.detection_mask(fault, pairs) for fault in universe]

    def step(remaining: List[int]):
        test = masks[remaining[0]]
        if not test:
            if not compiled.fault_ids(universe[remaining[0]]):
                raise KeyError(universe[remaining[0]].describe())
            return "redundant", "table", None, (), 0
        for i in remaining:
            shared = test & masks[i]
            if shared:
                test = shared
        bit = test & -test
        detected = [i for i in remaining if masks[i] & bit]
        return "test", "table", bit.bit_length() - 1, detected, 0

    def cover(patterns: List[int], detected: List[int]) -> List[set]:
        bits = [1 << p for p in patterns]
        return [
            {j for j, bit in enumerate(bits) if masks[i] & bit}
            for i in detected
        ]

    return step, cover


def _search_tests(
    network: Network, compiled: CompiledNetwork, universe: List[Fault],
    tables, *, drop: bool, candidates: int, pairs: bool,
    target_timeout: Optional[float], max_backtracks: int, seed: int,
):
    """``(step, cover)`` of the PODEM loop: a budgeted search per
    target, its completions simulated against the remaining universe.
    With ``tables`` (``drop=False`` up to the cut) a target whose output
    tables equal the fault-free ones is redundant without a search."""
    input_names = list(network.inputs)
    full_point = (1 << len(input_names)) - 1
    podem = Podem(network, max_backtracks=max_backtracks)
    rng = random.Random(f"atpg:{seed}")
    normal = tables.output_bits() if tables is not None else None

    def simulate(points: Sequence[int], faults: List[int]) -> List[int]:
        if pairs:
            points = [q for p in points for q in (p, p ^ full_point)]
        return pattern_detections(
            compiled, points, [universe[i] for i in faults], pairs
        )

    def step(remaining: List[int]):
        target = universe[remaining[0]]
        if (
            tables is not None
            and compiled.fault_ids(target)
            and tables.output_bits(target) == normal
        ):
            return "redundant", "table", None, (), 0
        deadline = (
            time.monotonic() + target_timeout if target_timeout else None
        )
        result = podem.generate_test_ex(target, deadline)
        if result.status != "test":
            return result.status, "podem", None, (), 0
        cands = _candidate_patterns(result, input_names, candidates, rng)
        if not drop:
            # Candidate completions only buy extra drops; without
            # dropping, keep the zero-fill (scalar) completion and
            # charge it against the target alone.
            cands, remaining = cands[:1], remaining[:1]
        detects = [
            _detected_candidates(mask, len(cands), pairs)
            for mask in simulate(cands, remaining)
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
            # Simulation contradicts PODEM's claim (in pairs mode: its
            # vector forms no detecting pair); classify conservatively.
            obs.event("atpg.anomaly", fault=target.describe())
            return "test", "podem", None, (), len(cands)
        detected = [i for i, d in zip(remaining, detects) if best in d]
        return "test", "podem", cands[best], detected, len(cands)

    def cover(patterns: List[int], detected: List[int]) -> List[set]:
        return [
            _detected_candidates(mask, len(patterns), pairs)
            for mask in simulate(patterns, detected)
        ]

    return step, cover


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
    PODEM target and a testable one keeps the scalar zero-fill
    completion — the scalar-parity reference mode), ``compact=False``
    keeps every generated pattern.  ``pairs`` generates alternating
    SCAL pairs.  Up to :data:`~repro.engine.backends.UNTILED_MAX_INPUTS`
    inputs a dropping run takes its tests from the exhaustive tables
    and searches nothing; above it ``candidates`` bounds the completion
    batch per target and ``target_timeout`` is a per-target PODEM
    deadline in seconds.
    """
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

    t_start = time.monotonic()
    # Up to the whole-table cut the exhaustive tables hold every test
    # set; wider nets build no whole table and leave it to PODEM.
    tables = (
        engine.bitmask if compiled.n_inputs <= UNTILED_MAX_INPUTS else None
    )
    if drop and tables is not None:
        step, cover = _table_tests(tables, universe, pairs)
    else:
        step, cover = _search_tests(
            network, compiled, universe, tables,
            drop=drop, candidates=candidates, pairs=pairs,
            target_timeout=target_timeout, max_backtracks=max_backtracks,
            seed=seed,
        )
    statuses: List[Optional[str]] = [None] * len(universe)
    pattern_of: Dict[int, int] = {}
    patterns: List[int] = []
    candidates_evaluated = 0
    remaining = list(range(len(universe)))
    while remaining:
        target = remaining[0]
        fault = universe[target]
        with obs.span("atpg.target", fault=fault.describe()) as span:
            status, via, pattern, detected, n_cands = step(remaining)
            span.set(status=status, via=via)
        if _REG.enabled:
            _M_TARGETS.inc(1, status=status)
        candidates_evaluated += n_cands
        if pattern is None:  # a PODEM "test" here is an anomaly
            statuses[target] = "aborted" if status == "test" else status
            remaining.pop(0)
            continue
        for i in detected:
            statuses[i] = "detected"
            pattern_of[i] = len(patterns)
        patterns.append(pattern)
        remaining = [i for i in remaining if statuses[i] is None]
    patterns_generated = len(patterns)

    if compact and len(patterns) > 1 and pattern_of:
        covered = sorted(pattern_of)
        cover_sets = cover(patterns, covered)
        if all(cover_sets):
            kept = set(range(len(patterns)))
            # Reverse-greedy: later patterns were generated for the
            # rarely-detected tail, so try discarding early, broadly
            # subsumed ones first.
            for j in range(len(patterns)):
                if all(j not in c or len(c & kept) > 1 for c in cover_sets):
                    kept.discard(j)
            order = sorted(kept)
            remap = {old: new for new, old in enumerate(order)}
            patterns = [patterns[j] for j in order]
            for i, c in zip(covered, cover_sets):
                pattern_of[i] = remap[min(c & kept)]
        else:
            obs.event("atpg.anomaly", reason="uncovered detected fault")

    wall = time.monotonic() - t_start
    detected = len(pattern_of)
    redundant = statuses.count("redundant")
    aborted = len(universe) - detected - redundant
    # Each generated pattern is one target's; every other detected fault
    # was dropped without being a target.
    dropped = detected - patterns_generated
    if _REG.enabled:
        _M_DROPPED.inc(dropped)
        _M_PATTERNS.inc(patterns_generated, stage="generated")
        _M_PATTERNS.inc(len(patterns), stage="kept")
        _M_CANDIDATES.inc(candidates_evaluated)
    names = [fault.describe() for fault in universe]
    report = AtpgReport(
        circuit=network.name,
        pairs=pairs,
        requested=len(universe),
        detected=detected,
        redundant=redundant,
        aborted=aborted,
        dropped=dropped,
        targets=patterns_generated + redundant + aborted,
        patterns_generated=patterns_generated,
        patterns_kept=len(patterns),
        candidates_evaluated=candidates_evaluated,
        wall_seconds=wall,
        patterns=tuple(patterns),
        classifications=dict(zip(names, statuses)),
        detected_by={names[i]: pattern_of[i] for i in sorted(pattern_of)},
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
