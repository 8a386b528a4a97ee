"""Fault-dropping ATPG campaigns: guided PODEM + block-simulation drops.

The scalar :class:`~repro.core.atpg.Podem` answers one fault at a time;
the block backends classify whole fault universes per pass.  This driver
fuses them into the classic fault-dropping loop:

1. **Target** the first remaining collapsed fault with a budgeted PODEM
   search (guided by the SCOAP-weighted backtrace in ``core/atpg``).
2. **Complete** the returned partial assignment several ways — PODEM
   only decides the inputs the search needed, so the free inputs are a
   candidate space; each completion detects the target but drops a
   different slice of the rest of the universe.
3. **Simulate** every candidate against the *entire remaining* fault
   universe in one word-packed pass (:func:`chunk_pattern_bits`: the
   candidates live on the pattern axis, the faults on the block axis).
4. **Drop** everything the best candidate detects and keep that pattern;
   redundant/aborted targets are classified and removed directly.

A final reverse-greedy **compaction** pass re-simulates the kept
patterns against the detected set and discards every pattern whose
coverage is subsumed — conservation is machine-checked by the
``atpg-compaction-conservation`` QA property.

Pattern simulation runs down a vectorized → bitmask → pointwise
degradation ladder (each step recorded as a
:class:`~repro.engine.supervisor.Degradation`, mirroring the campaign
supervisor's serial→scalar rung), per-target deadlines reuse
``generate_test_ex``'s monotonic-deadline seam, and the whole run is
instrumented through :mod:`repro.obs` (``atpg.target`` / ``atpg.chunk``
spans, drop counters, a closing ``atpg.report`` event).

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
from .supervisor import Degradation
from .vectorized import ATPG_RUNGS, chunk_pattern_bits, resolve_rung

_REG = obs.REGISTRY
_M_TARGETS = _REG.counter(
    "repro_atpg_targets_total", "PODEM targets attempted, by status"
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

#: Below this many targets, ``backend="auto"`` starts on the big-int
#: bitmask rung: NumPy's fixed per-call overhead beats its fault-axis
#: throughput on small universes.  On candidate-batch pattern
#: simulation the crossover is ~8-16 targets at 10-14 inputs (a cutoff
#: of 48 kept mid-sized universes on the slower rung).  Pattern tables
#: are a few words wide, so the exhaustive sweep grid of
#: ``benchmarks/bench_rungs.py`` does not set this one.
AUTO_BITMASK_MAX_FAULTS = 16


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
    backend: str
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
    degradations: Tuple[Degradation, ...] = ()
    #: The resolved simulation rung ``backend="auto"`` chose to *start*
    #: on (``"vectorized"`` / ``"bitmask"``); for explicit backends,
    #: the requested rung after availability resolution.
    auto_rung: str = ""

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
            f"{self.targets} PODEM targets, {self.dropped} dropped "
            f"without a search, "
            f"{self.candidates_evaluated} candidates simulated",
            f"  backend {self.backend}"
            + (
                f" (auto started on {self.auto_rung})"
                if self.auto_rung and self.auto_rung != self.backend
                else ""
            )
            + f", {self.wall_seconds:.3f}s",
        ]
        for d in self.degradations:
            lines.append(f"  degraded {d.frm} -> {d.to}: {d.reason}")
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


def _detected_candidates(
    base: Sequence[int], row: Sequence[int], n_candidates: int, pairs: bool
) -> set:
    """Indices of the candidates whose response differs under the fault.

    Single-pattern mode: any output bit differs.  Pairs mode (candidate
    ``j`` occupies pattern bits ``2j``/``2j+1``): the good pair
    alternates while the faulty pair does not — Theorem 3.2's
    nonalternating-output test condition.
    """
    diff = 0
    if pairs:
        for good, bad in zip(base, row):
            diff |= (good ^ (good >> 1)) & ~(bad ^ (bad >> 1))
        return {j for j in range(n_candidates) if (diff >> (2 * j)) & 1}
    for good, bad in zip(base, row):
        diff |= good ^ bad
    if not diff:
        return set()
    return {j for j in range(n_candidates) if (diff >> j) & 1}


def run_atpg(
    network: Network,
    faults: Optional[Sequence[Fault]] = None,
    *,
    collapse: bool = True,
    drop: bool = True,
    compact: bool = True,
    candidates: int = 8,
    pairs: bool = False,
    backend: str = "auto",
    target_timeout: Optional[float] = None,
    max_backtracks: int = 2000,
    seed: int = 0,
    engine=None,
) -> AtpgReport:
    """Run the fault-dropping ATPG campaign and report classifications.

    ``faults`` overrides the target universe (default: collapsed stem
    representatives, or all stem faults with ``collapse=False``).
    ``drop=False`` disables fault dropping (every fault gets its own
    PODEM search and keeps the scalar zero-fill completion — the
    scalar-parity reference mode), ``compact=False`` keeps every
    generated pattern.  ``candidates`` bounds the completion
    batch per target; ``pairs`` generates alternating SCAL pairs.
    ``backend`` picks the top simulation rung (``auto`` / ``vectorized``
    / ``bitmask`` / ``pointwise``); failures degrade down the ladder.
    ``target_timeout`` is a per-target PODEM deadline in seconds.
    """
    from . import engine_for

    if backend not in ("auto",) + ATPG_RUNGS:
        raise ValueError(f"unknown atpg backend {backend!r}")
    if candidates < 1:
        raise ValueError("candidates must be >= 1")
    eng = engine if engine is not None else engine_for(network)

    degradations: List[Degradation] = []

    def degrade(frm: str, to: str, reason: str) -> None:
        degradations.append(Degradation(frm=frm, to=to, reason=reason))
        obs.event("atpg.degradation", frm=frm, to=to, reason=reason)

    universe = (
        list(faults)
        if faults is not None
        else sorted_stem_universe(network, collapse)
    )

    wanted = backend
    if backend == "auto":
        big = len(universe) >= AUTO_BITMASK_MAX_FAULTS
        wanted = "vectorized" if big else "bitmask"
    start = resolve_rung(eng, wanted, exhaustive=False)
    if backend != "auto" and start != backend:
        degrade(backend, start, f"{backend} unavailable on this engine")
    ladder = ATPG_RUNGS[ATPG_RUNGS.index(start):]
    rung = [0]

    def simulate(patterns, fault_list):
        while True:
            name = ladder[rung[0]]
            try:
                return chunk_pattern_bits(eng, patterns, fault_list, name)
            except Exception as exc:  # degrade on any rung failure
                if rung[0] + 1 >= len(ladder):
                    raise
                degrade(name, ladder[rung[0] + 1], f"{type(exc).__name__}: {exc}")
                rung[0] += 1

    input_names = list(network.inputs)
    full_point = (1 << len(input_names)) - 1
    podem = Podem(network, max_backtracks=max_backtracks)
    rng = random.Random(f"atpg:{seed}")

    t_start = time.monotonic()
    remaining = list(universe)
    classifications: Dict[Fault, str] = {}
    pattern_of: Dict[Fault, int] = {}
    patterns: List[int] = []
    targets = 0
    dropped = 0
    candidates_evaluated = 0

    while remaining:
        target = remaining[0]
        deadline = (
            time.monotonic() + target_timeout if target_timeout else None
        )
        with obs.span("atpg.target", fault=target.describe()):
            result = podem.generate_test_ex(target, deadline)
            targets += 1
            if _REG.enabled:
                _M_TARGETS.inc(1, status=result.status)
            if result.status != "test":
                classifications[target] = result.status
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
            base = simulate(sim_patterns, None)
            rows = simulate(sim_patterns, remaining if drop else remaining[:1])
            candidates_evaluated += len(cands)
            detects = [
                _detected_candidates(base, row, len(cands), pairs)
                for row in rows
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
                # than drop a fault the block backend cannot confirm.
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
        base = simulate(sim_patterns, None)
        rows = simulate(sim_patterns, detected_faults)
        cover = [
            _detected_candidates(base, row, len(patterns), pairs)
            for row in rows
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
        backend=ladder[rung[0]],
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
        degradations=tuple(degradations),
        auto_rung=start,
    )
    obs.event(
        "atpg.report",
        circuit=report.circuit,
        backend=report.backend,
        faults=report.requested,
        detected=report.detected,
        redundant=report.redundant,
        aborted=report.aborted,
        dropped=report.dropped,
        patterns_kept=report.patterns_kept,
        wall_seconds=report.wall_seconds,
    )
    return report
