"""The executable-invariant registry: the paper's theorems as properties.

Each :class:`Property` pairs a seeded case generator with a pure checker
``check(case) -> Optional[str]`` (``None`` = holds, message = violated).
Checkers quantify *internally* over small, exhaustively enumerable
universes (all inputs, all single faults) so the greedy shrinker can
re-check mutated cases without carrying a fault or point selection
around.  The registered invariants:

* ``backend-agreement`` — the bitmask and pointwise backends (single
  points and explicit point lists) agree bit-for-bit with the naive
  reference interpreter, fault-free and under every single stem/pin
  fault (the differential anchor for the single-engine seam), and the
  stem-region sweep's statuses equal the cone-plan sweep's.
* ``stem-region-agreement`` — the bitmask backend's stem-region path
  (one flip simulation per fanout stem) gives every single fault of the
  uncollapsed universe, dead lines included, the output tables and
  ``(affected, detected, violations)`` of its cone-plan re-simulation,
  on every gate kind, duplicate pins, outputs that feed gates, and 0 to
  7 or 20 inputs.
* ``alternation-self-dual`` — a synthesized self-dual network satisfies
  ``F(X̄) = ¬F(X)`` at every point (Definition 2.5 / Theorem 2.1), per
  the reference interpreter, and the engine's tables match it.
* ``algorithm31-oracle-agreement`` — Algorithm 3.1's per-line verdict
  (conditions A–E + Corollary 3.2) names exactly the lines whose stem
  faults the exhaustive Definition-2.4 oracle finds fault-insecure.
* ``atpg-detects`` — PODEM is sound (every generated test detects its
  target fault per the reference interpreter) and, on these small
  networks, complete (testable faults get tests); on self-dual networks
  the pair ``(X, X̄)`` the ``pairs``-mode driver credits each detected
  fault really produces a nonalternating output pair (Theorem 3.2).
* ``podem-table-agreement`` — ``atpg-detects``'s checker on networks
  of MAJ, MIN (even arity included) and XNOR gates of up to 6 inputs:
  PODEM's ``redundant`` means unchanged output tables, and its ``test``
  detects.
* ``collapse-verdict`` — every structural equivalence class of faults is
  status-uniform under the sweep, so the ``collapse=True`` campaign
  default preserves verdicts.
* ``seq-transform-equivalence`` — dual flip-flop (Figure 4.2a) and
  code-conversion (Figure 4.5) machines decode to the reference Mealy
  run and alternate cleanly when fault-free.
* ``clocked-campaign-reference`` — the row-parallel clocked stepper
  agrees with independent steppers: every dual flip-flop row (stem, pin
  and flip-flop faults) and every code-conversion row (loop network
  stems, translator lines included; ALPT latch outputs; memory faults)
  has the first-detection step and decoded-wrong verdict of a naive
  per-fault stepper on the reference interpreter.
* ``sampled-determinism`` — one seed yields one sample set and one set
  of verdicts, across fresh backends and across the sweep's serial vs
  fork-worker paths; the supervised campaign report's chunk ledger must
  balance (completed + resumed = total) so no work is silently lost.
* ``atpg-drop-soundness`` — every fault the fault-dropping ATPG driver
  classifies as detected is confirmed detected by pattern simulation
  (and the naive reference interpreter) for the single pattern the
  report credits it to, every fault it classifies as redundant leaves
  the reference interpreter's output tables unchanged, and
  classification counts must tile the universe; in ``pairs`` mode each
  detected fault's credited pair detects it and each redundant fault
  has no detecting pair, per the reference interpreter.
* ``atpg-compaction-conservation`` — the compacted test set detects
  exactly the faults the full per-fault (no-drop, no-compact) set
  detects, both by the reports' own claims and by re-simulating each
  pattern set against the whole collapsed universe.
* ``synth-determinism`` — a synthesis campaign is a pure function of
  its seed: two fresh runs are byte-identical, and an interrupted run
  resumed from its checkpoint produces the same winner, history, and
  evaluation count as the uninterrupted one.
* ``synth-soundness`` — the batched fitness record the search trusted
  matches the scalar evaluator field-for-field, and a claimed-perfect
  winner re-verifies from first principles: reference-interpreter
  tables equal the spec, every output self-dual, and the exhaustive
  Definition-2.4 oracle finds no fault-insecure line.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.analysis import analyze_network
from ..core.atpg import Podem
from ..core.simulate import ScalSimulator
from ..engine.atpg import atpg_targets, pattern_detections, run_atpg
from ..engine.backends import NetworkEngine, table_response
from ..engine.campaign import FaultSweep
from ..engine.compiled import RowForcing
from ..logic.faults import enumerate_single_faults, enumerate_stem_faults
from ..logic.gates import GateKind
from ..logic.network import Gate, Network
from ..scal.alternating import RowTrace
from ..scal.codeconv import to_code_conversion
from ..scal.dualff import to_dual_flipflop
from ..seq.simulator import FlipFlopFault
from ..system.memory import MemoryFault, parity, single_memory_faults
from ..workloads.randomlogic import (
    random_alternating_network,
    random_input_vectors,
    random_machine,
    random_mixed_network,
    random_nand_network,
    random_sample_points,
)
from .cases import Case
from .reference import (
    point_tuple,
    reference_is_self_dual,
    reference_output_bits,
    reference_outputs,
)

#: Trial-size ceilings — small enough that every checker can afford to
#: quantify exhaustively over inputs × faults, large enough to exercise
#: fanout, reconvergence, and every gate kind.
MAX_INPUTS = 4
MAX_GATES = 10


@dataclasses.dataclass(frozen=True)
class Property:
    """One registered invariant: seeded generator + pure checker."""

    name: str
    description: str
    generate: Callable[[random.Random], Case]
    check: Callable[[Case], Optional[str]]


PROPERTIES: Dict[str, Property] = {}


def register(name: str, description: str):
    def wrap(pair: Tuple) -> Property:
        generate, check = pair
        prop = Property(name, description, generate, check)
        PROPERTIES[name] = prop
        return prop

    return wrap


def trial_rng(seed: int, name: str, trial: int) -> random.Random:
    """The per-trial RNG: deterministic in (seed, property, trial) and
    independent of interpreter hash randomization."""
    return random.Random(f"{seed}:{name}:{trial}")


# ----------------------------------------------------------------------
# backend-agreement
# ----------------------------------------------------------------------
def _gen_mixed(rng: random.Random) -> Case:
    n = rng.randint(2, MAX_INPUTS)
    gates = rng.randint(2, MAX_GATES)
    if rng.random() < 0.5:
        net = random_nand_network(rng, n, gates, n_outputs=rng.randint(1, 2))
    else:
        net = random_mixed_network(rng, n, gates, n_outputs=rng.randint(1, 2))
    return Case(network=net)


def _check_backend_agreement(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    n = len(net.inputs)
    engine = NetworkEngine(net)  # fresh — never trust another run's cache
    universe = [None] + enumerate_single_faults(net)
    all_points = list(range(1 << n))
    for fault in universe:
        label = fault.describe() if fault is not None else "fault-free"
        expected = reference_output_bits(net, fault)
        got_mask = engine.bitmask.output_bits(fault)
        if got_mask != expected:
            return (
                f"bitmask backend disagrees with reference under {label}: "
                f"{got_mask} != {expected}"
            )
        for index in all_points:
            point = point_tuple(n, index)
            want = reference_outputs(net, point, fault)
            got = engine.pointwise.output_values(point, fault)
            if tuple(got) != want:
                return (
                    f"pointwise backend disagrees with reference under "
                    f"{label} at point {index}: {tuple(got)} != {want}"
                )
        vectors = engine.pointwise.output_vectors(all_points, fault)
        want_all = [
            reference_outputs(net, point_tuple(n, i), fault)
            for i in all_points
        ]
        if [tuple(v) for v in vectors] != want_all:
            return (
                f"pointwise output vectors disagree with reference under "
                f"{label}"
            )
    # Fault statuses must be byte-identical across the sweep backends
    # (the cone-plan classification is a re-derivation, not a reuse, of
    # the stem-region one — this is the differential check that keeps
    # them locked together).
    sweep = FaultSweep(net, engine=engine)
    faults = [f for f in universe if f is not None]
    region, cone = (
        [status for _f, status in sweep.sweep(faults, backend=backend)]
        for backend in ("bitmask", "vectorized")
    )
    if cone != region:
        return (
            "cone-plan statuses diverge from the stem-region sweep: "
            f"{cone} != {region}"
        )
    return None


backend_agreement = register(
    "backend-agreement",
    "bitmask/pointwise backends match the naive interpreter "
    "bit-for-bit under every single fault, with identical stem-region "
    "and cone-plan sweep statuses",
)((_gen_mixed, _check_backend_agreement))


# ----------------------------------------------------------------------
# stem-region-agreement
# ----------------------------------------------------------------------
#: Input widths of the stem-region cases: no inputs, one, the 64-bit
#: word boundary (6/7) and the widest ``auto`` sweeps on ``bitmask``.
STEM_REGION_WIDTHS = (0, 1, 2, 3, 4, 6, 7, 20)

_REGION_KINDS = tuple(
    kind for kind in GateKind if kind is not GateKind.INPUT
)


def random_region_network(
    rng: random.Random, n_inputs: int, n_gates: int
) -> Network:
    """A small net over every gate kind whose pins are drawn with
    replacement (so ``AND(a, a)`` occurs), with a random output set
    that may hold gates read by other gates, inputs, and leave dead
    lines behind."""
    inputs = [f"x{i}" for i in range(n_inputs)]
    lines = list(inputs)
    gates = []
    for g in range(n_gates):
        kind = rng.choice(_REGION_KINDS)
        if not lines or kind in (GateKind.CONST0, GateKind.CONST1):
            kind = rng.choice((GateKind.CONST0, GateKind.CONST1))
            arity = 0
        elif kind in (GateKind.NOT, GateKind.BUF):
            arity = 1
        elif kind is GateKind.MAJ:
            arity = rng.choice((3, 5))
        else:
            arity = rng.randint(1, 3)
        srcs = tuple(rng.choice(lines) for _ in range(arity))
        gates.append(Gate(f"g{g}", kind, srcs))
        lines.append(f"g{g}")
    outputs = rng.sample(lines, rng.randint(1, min(3, len(lines))))
    return Network(inputs, gates, outputs, name="stem_region")


def _gen_stem_region(rng: random.Random) -> Case:
    n = rng.choice(STEM_REGION_WIDTHS)
    return Case(network=random_region_network(rng, n, rng.randint(1, MAX_GATES)))


def _check_stem_region(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    engine = NetworkEngine(net)
    bitmask = engine.bitmask
    n = len(net.inputs)
    normals = bitmask.normals()
    compiled = engine.compiled
    for fault in compiled.universe_ids(collapse=False, live_only=False):
        label = compiled.fault(fault).describe()
        cone = bitmask.output_bits(fault)  # the fault_plan re-simulation
        region = bitmask.region_output_bits(fault)
        if region is None:
            return f"single fault {label} missed the stem-region path"
        if region != cone:
            return (
                f"stem-region tables disagree with the cone plan under "
                f"{label}: {region} != {cone}"
            )
        want = table_response(normals, cone, n)
        got = bitmask.response_triple(fault)
        if got != want:
            return (
                f"stem-region response disagrees with the cone plan under "
                f"{label}: {got} != {want}"
            )
    return None


stem_region_agreement = register(
    "stem-region-agreement",
    "the bitmask stem-region path gives every single fault the output "
    "tables and response masks of its cone-plan re-simulation",
)((_gen_stem_region, _check_stem_region))


# ----------------------------------------------------------------------
# alternation-self-dual
# ----------------------------------------------------------------------
def _gen_alternating(rng: random.Random) -> Case:
    n = rng.randint(2, 3)
    return Case(network=random_alternating_network(rng, n))


def _check_alternation(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    n = len(net.inputs)
    full = (1 << n) - 1
    ref_bits = reference_output_bits(net)
    engine_bits = NetworkEngine(net).bitmask.output_bits()
    if tuple(engine_bits) != ref_bits:
        return (
            f"engine fault-free tables disagree with reference: "
            f"{tuple(engine_bits)} != {ref_bits}"
        )
    for out, bits in zip(net.outputs, ref_bits):
        for index in range(1 << n):
            value = (bits >> index) & 1
            mirror = (bits >> (index ^ full)) & 1
            if mirror != 1 - value:
                return (
                    f"output {out!r} does not alternate at pair anchored "
                    f"at {index}: F(X)={value}, F(X̄)={mirror}"
                )
        if not reference_is_self_dual(bits, n):
            return f"output {out!r} is not self-dual"  # pragma: no cover
    return None


alternation_self_dual = register(
    "alternation-self-dual",
    "synthesized self-dual networks satisfy F(X̄)=¬F(X) at every point "
    "(Definition 2.5), engine and reference agreeing",
)((_gen_alternating, _check_alternation))


# ----------------------------------------------------------------------
# algorithm31-oracle-agreement
# ----------------------------------------------------------------------
def _check_algorithm31(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    analysis = analyze_network(net)
    if not analysis.alternating or analysis.redundant:
        # Algorithm 3.1's premises (self-dual, irredundant) do not hold;
        # nothing to compare.  Shrunken candidates that lose the premise
        # are treated as passing, so shrinking stays inside the domain.
        return None
    failing = set(analysis.failing_lines())
    verdict = ScalSimulator(net).verdict(include_pins=False)
    insecure = {resp.fault.line for resp in verdict.insecure}
    if failing != insecure:
        return (
            f"Algorithm 3.1 and the exhaustive oracle disagree on "
            f"fault-insecure lines: algorithm={sorted(failing)}, "
            f"oracle={sorted(insecure)}"
        )
    return None


algorithm31_oracle = register(
    "algorithm31-oracle-agreement",
    "Algorithm 3.1 (conditions A–E + Corollary 3.2) flags exactly the "
    "stem-fault-insecure lines the exhaustive oracle finds",
)((_gen_alternating, _check_algorithm31))


# ----------------------------------------------------------------------
# atpg-detects
# ----------------------------------------------------------------------
def _gen_atpg(rng: random.Random) -> Case:
    if rng.random() < 0.5:
        # Self-dual population: exercises the Theorem 3.2 pair guarantee.
        return Case(network=random_alternating_network(rng, rng.randint(2, 3)))
    n = rng.randint(2, MAX_INPUTS)
    gates = rng.randint(2, 8)
    return Case(network=random_nand_network(rng, n, gates))


def _check_atpg(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    n = len(net.inputs)
    podem = Podem(net)
    normal = reference_output_bits(net)
    # Theorem 3.2's "the pair (X, X̄) yields a nonalternating output" is a
    # SCAL-domain guarantee: it presumes the fault-free pair alternates,
    # i.e. every output self-dual.  Outside that domain only single-vector
    # soundness/completeness is claimed.
    self_dual = all(
        reference_is_self_dual(bits, n) for bits in normal
    )
    for fault in enumerate_stem_faults(net):
        faulty = reference_output_bits(net, fault)
        testable = faulty != normal
        test = podem.generate_test(fault)
        if test is not None:
            point = tuple(test[name] for name in net.inputs)
            if reference_outputs(net, point, fault) == reference_outputs(
                net, point
            ):
                return (
                    f"PODEM test for {fault.describe()} does not detect "
                    f"it (assignment {test})"
                )
        if testable and test is None:
            return (
                f"PODEM found no test for the testable fault "
                f"{fault.describe()}"
            )
        if test is not None and not testable:
            return (
                f"PODEM claims a test for the untestable fault "
                f"{fault.describe()}"
            )
    if not self_dual:
        return None
    return _pair_verdicts_problem(net, list(enumerate_stem_faults(net)))


def _pair_detects(net: Network, x: int, fault) -> bool:
    """Whether the pair ``(X, X̄)`` detects ``fault`` per the reference
    interpreter: some output alternates fault-free and not under the
    fault (Theorem 3.2's test condition)."""
    n = len(net.inputs)
    points = (point_tuple(n, x), point_tuple(n, x ^ ((1 << n) - 1)))
    good = [reference_outputs(net, p) for p in points]
    bad = [reference_outputs(net, p, fault) for p in points]
    return any(g0 != g1 and b0 == b1 for g0, g1, b0, b1 in zip(*good, *bad))


def _pair_verdicts_problem(net: Network, faults, engine=None):
    """A ``pairs``-mode run, checked on the reference interpreter: it
    aborts nothing, each detected fault's credited pair detects it, and
    each redundant fault has no detecting pair at all."""
    report = run_atpg(net, faults, pairs=True, engine=engine)
    if report.aborted:
        return f"pairs-mode run aborted {report.aborted} faults"
    for fault in faults:
        name = fault.describe()
        if report.classifications[name] == "detected":
            x = report.patterns[report.detected_by[name]]
            if not _pair_detects(net, x, fault):
                return f"pair anchored at {x} does not detect {name}"
        elif any(
            _pair_detects(net, x, fault) for x in range(1 << len(net.inputs))
        ):
            return f"pair-redundant fault {name} has a detecting pair"
    return None


atpg_detects = register(
    "atpg-detects",
    "PODEM tests detect their target fault (sound + complete on small "
    "networks) and, on self-dual networks, alternating pairs yield "
    "nonalternating outputs",
)((_gen_atpg, _check_atpg))


#: The threshold gates, whose three-valued evaluation differs at even
#: arity (an even MIN is no inverted MAJ), beside XNOR.
_THRESHOLD_KINDS = (GateKind.MAJ, GateKind.MIN, GateKind.XNOR)


def _gen_threshold(rng: random.Random) -> Case:
    return Case(
        network=random_mixed_network(
            rng,
            rng.randint(3, 6),
            rng.randint(4, 10),
            n_outputs=rng.randint(1, 2),
            kinds=_THRESHOLD_KINDS,
            max_fan_in=4,
        )
    )


podem_table_agreement = register(
    "podem-table-agreement",
    "on MAJ/MIN/XNOR networks PODEM agrees with the output tables: a "
    "fault it finds no test for leaves the reference tables unchanged, "
    "and each test it returns detects its fault",
)((_gen_threshold, _check_atpg))


# ----------------------------------------------------------------------
# collapse-verdict
# ----------------------------------------------------------------------
def _check_collapse(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    sweep = FaultSweep(net)
    fault = sweep.compiled.fault
    for members in sweep.compiled.fault_classes:
        statuses = {
            fault(fid).describe(): sweep.classify(fid) for fid in members
        }
        if len(set(statuses.values())) > 1:
            return (
                f"fault equivalence class is not status-uniform: {statuses}"
            )
    return None


collapse_verdict = register(
    "collapse-verdict",
    "every structural fault-equivalence class is status-uniform, so the "
    "collapse=True campaign default preserves verdicts",
)((_gen_mixed, _check_collapse))


# ----------------------------------------------------------------------
# seq-transform-equivalence
# ----------------------------------------------------------------------
def _gen_machine(rng: random.Random) -> Case:
    machine = random_machine(rng, rng.randint(2, 4))
    vectors = tuple(random_input_vectors(rng, 1, rng.randint(3, 8)))
    return Case(machine=machine, vectors=vectors)


def _check_seq_equivalence(case: Case) -> Optional[str]:
    if case.machine is None or case.vectors is None or not case.vectors:
        return None
    machine, vectors = case.machine, list(case.vectors)
    reference = [tuple(out) for out in machine.run(vectors)]
    dualff = to_dual_flipflop(machine)
    run_d = dualff.run(vectors)
    if run_d.detected:
        return "fault-free dual flip-flop run fails to alternate"
    decoded_d = [tuple(z) for z in dualff.decoded_outputs(run_d)]
    if decoded_d != reference:
        return (
            f"dual flip-flop machine decodes {decoded_d}, reference Mealy "
            f"run gives {reference}"
        )
    codeconv = to_code_conversion(machine)
    run_c = codeconv.run(vectors)
    if run_c.detected:
        return "fault-free code-conversion run raises a checker"
    decoded_c = [tuple(z) for z in codeconv.decoded_outputs(run_c)]
    if decoded_c != decoded_d:
        return (
            f"code-conversion machine decodes {decoded_c}, dual flip-flop "
            f"decodes {decoded_d}"
        )
    return None


seq_equivalence = register(
    "seq-transform-equivalence",
    "dual flip-flop and code-conversion SCAL machines both decode to the "
    "reference Mealy run and alternate cleanly fault-free",
)((_gen_machine, _check_seq_equivalence))


# ----------------------------------------------------------------------
# clocked-campaign-reference
# ----------------------------------------------------------------------
def _row_trace(trace: RowTrace, row: int) -> RowTrace:
    """One row of a row-parallel clocked trace, as 0/1 values."""
    return [
        (
            tuple(v >> row & 1 for v in first),
            tuple(v >> row & 1 for v in second),
            flags >> row & 1,
        )
        for first, second, flags in trace
    ]


def _row_verdict(trace: RowTrace, reference, n_z: int) -> Tuple:
    """(first-detection step, decoded Z ever wrong) of a one-row trace."""
    first_detection = next(
        (
            step
            for step, (first, second, flags) in enumerate(trace)
            if flags or any(a == b for a, b in zip(first, second))
        ),
        None,
    )
    wrong = any(
        first[:n_z] != tuple(expected)
        for (first, _second, _flags), expected in zip(trace, reference)
    )
    return first_detection, wrong


def _naive_period(machine, network, vector, phase, fault, lines) -> Dict:
    """One clock period on the reference interpreter: ``vector`` true
    in period 0 and complemented in period 1, the period clock at
    ``phase``, the other inputs from ``lines``; every output by name."""
    values = {name: bit ^ phase for name, bit in zip(machine.input_names, vector)}
    values[machine.clock_name] = phase
    values.update(lines)
    point = [values[name] for name in network.inputs]
    return dict(zip(network.outputs, reference_outputs(network, point, fault)))


def _naive_dualff(dualff, vectors, fault) -> RowTrace:
    """The dual flip-flop machine stepped by hand: the reference
    interpreter per period and a plain two-stage shift per chain."""
    ff = fault if isinstance(fault, FlipFlopFault) else None
    stem = None if ff is not None else fault
    code = dualff.encoding.code(dualff.machine.initial_state)
    chains = {f"y{i}": [1 - bit, bit] for i, bit in enumerate(code)}
    next_line = {p: n for n, p in dualff.circuit.feedback.items()}
    monitored = dualff.output_names + dualff.state_output_names
    trace: RowTrace = []
    for vector in vectors:
        pair = []
        for phase in (0, 1):
            present = {
                line: ff.value
                if ff is not None and (ff.state_line, ff.stage) == (line, 1)
                else chain[1]
                for line, chain in chains.items()
            }
            out = _naive_period(
                dualff, dualff.circuit.network, vector, phase, stem, present
            )
            pair.append(tuple(out[name] for name in monitored))
            for line, chain in chains.items():
                chain[1] = chain[0]
                chain[0] = out[next_line[line]]
                if ff is not None and (ff.state_line, ff.stage) == (line, 0):
                    chain[0] = ff.value
        trace.append((pair[0], pair[1], 0))
    return trace


def _naive_codeconv(codeconv, vectors, fault) -> Optional[RowTrace]:
    """The code-conversion machine stepped by hand: the reference
    interpreter over the loop network per period, the ALPT latches as
    plain bits, and a dict of memory words at physical addresses.  A
    stuck clock (the period clock or the ALPT's common clock stem)
    stops the machine: ``None``."""
    width = codeconv.encoding.width
    ff = fault if isinstance(fault, FlipFlopFault) else None
    mem = fault if isinstance(fault, MemoryFault) else None
    stem = None if ff or mem else fault
    if stem is not None and stem.line in ("alpt_g", codeconv.clock_name):
        return None
    address = 0
    if mem is not None and mem.kind == "address_line":
        address = mem.value << mem.index
    code = list(codeconv.encoding.code(codeconv.machine.initial_state))
    state = code + [parity(code)]
    cells = {0: list(state)}  # the initial word, written fault free
    monitored = codeconv.output_names + codeconv.state_output_names
    trace: RowTrace = []
    for vector in vectors:
        word = list(cells.get(address, [0] * (width + 1)))
        if mem is not None and (
            mem.kind == "data_line"
            or mem.kind == "cell" and (mem.address or 0) == address
        ):
            word[mem.index] = mem.value
        stored = dict(zip([f"t{k}" for k in range(width)] + ["tp"], word))
        first, second = (
            _naive_period(codeconv, codeconv.loop, vector, phase, stem, stored)
            for phase in (0, 1)
        )
        # Data latch k takes line b from the first period, the parity
        # latch line f from the second, where its clock took both values.
        loads = [(f"alpt_b{k}", f"alpt_d{k}", first) for k in range(width)]
        loads.append(("alpt_f", "alpt_j", second))
        for k, (d_line, clock, period) in enumerate(loads):
            if first[clock] != second[clock]:
                state[k] = period[d_line]
        cells[address] = [
            ff.value if ff is not None and ff.state_line == name else bit
            for name, bit in zip(codeconv.latch_names, state)
        ]
        trace.append(
            (
                tuple(first[name] for name in monitored),
                tuple(second[name] for name in monitored),
                int(first["palt_g"] == first["palt_h"]),
            )
        )
    return trace


def _packed_vs_naive(scal, universe, vectors, reference, naive) -> Optional[str]:
    """The first row of ``scal``'s row-parallel run of ``universe`` whose
    (first detection, wrong) verdict differs from the ``naive`` stepper's
    (``None``: the machine stopped)."""
    forcing = RowForcing(len(universe))
    for row, fault in enumerate(universe):
        scal.force(forcing, row, fault)
    packed = scal.clock_rows(vectors, forcing)
    stopped = scal.stopped_rows(forcing)
    n_z = len(scal.output_names)
    for row, fault in enumerate(universe):
        trace = naive(scal, vectors, fault)
        want = None if trace is None else _row_verdict(trace, reference, n_z)
        got = None if stopped >> row & 1 else _row_verdict(
            _row_trace(packed, row), reference, n_z
        )
        if got != want:
            return (
                f"row {fault.describe()}: packed run gives (first detection, "
                f"wrong) = {got}, naive stepper {want} (None: stopped)"
            )
    return None


def _check_clocked_campaign(case: Case) -> Optional[str]:
    if case.machine is None or case.vectors is None:
        return None
    machine, vectors = case.machine, list(case.vectors)
    reference = machine.run(vectors)
    dualff = to_dual_flipflop(machine)
    circuit = dualff.circuit
    universe: List = enumerate_single_faults(circuit.network)
    universe += [
        FlipFlopFault(line, stage, value)
        for line in circuit.feedback.values()
        for stage in range(circuit.depth)
        for value in (0, 1)
    ]
    bad = _packed_vs_naive(dualff, universe, vectors, reference, _naive_dualff)
    if bad:
        return f"dual flip-flop {bad}"
    codeconv = to_code_conversion(machine)
    universe = list(enumerate_stem_faults(codeconv.loop, include_inputs=True))
    universe += [
        FlipFlopFault(latch, 0, value)
        for latch in codeconv.latch_names
        for value in (0, 1)
    ]
    # Cells at addresses 0 (the state word) and 1 (where a stuck
    # address line reroutes it).
    universe += single_memory_faults(
        codeconv.encoding.width, codeconv.memory.address_bits, (0, 1)
    )
    bad = _packed_vs_naive(
        codeconv, universe, vectors, reference, _naive_codeconv
    )
    return f"code-conversion {bad}" if bad else None


clocked_campaign = register(
    "clocked-campaign-reference",
    "row-parallel clocked campaigns match naive per-fault steppers on the "
    "reference interpreter (dual flip-flop and code conversion)",
)((_gen_machine, _check_clocked_campaign))


# ----------------------------------------------------------------------
# sampled-determinism
# ----------------------------------------------------------------------
def _gen_sampled(rng: random.Random) -> Case:
    case = _gen_mixed(rng)
    return dataclasses.replace(case, seed=rng.randint(0, 2**31 - 1))


def _sampled_run(
    net: Network, seed: int
) -> Tuple[List[int], List[Tuple[str, Tuple[Tuple[int, ...], ...]]]]:
    """One complete seeded sampled campaign, on entirely fresh state."""
    n = len(net.inputs)
    rng = random.Random(seed)
    points = random_sample_points(rng, n, min(8, 1 << n))
    engine = NetworkEngine(net)
    verdicts = []
    for fault in enumerate_stem_faults(net):
        vectors = tuple(engine.pointwise.output_vectors(points, fault))
        verdicts.append((fault.describe(), vectors))
    return points, verdicts


def _check_sampled_determinism(case: Case) -> Optional[str]:
    net = case.network
    if net is None or case.seed is None:
        return None
    points_a, verdicts_a = _sampled_run(net, case.seed)
    points_b, verdicts_b = _sampled_run(net, case.seed)
    if points_a != points_b:
        return (
            f"sample set differs across runs of seed {case.seed}: "
            f"{points_a} != {points_b}"
        )
    if verdicts_a != verdicts_b:
        return f"sampled verdicts differ across runs of seed {case.seed}"
    sweep = FaultSweep(net)
    universe = sweep.compiled.universe_ids(collapse=False)
    serial = [status for _f, status in sweep.sweep(universe)]
    forked = [
        status for _f, status in sweep.sweep(universe, processes=2)
    ]
    if serial != forked:
        return "serial and fork-worker sweeps classify faults differently"
    # The supervised runtime must also account for every chunk it ran:
    # a report whose chunk ledger does not add up means work was lost
    # (or double-counted) even though the statuses happened to agree.
    report = sweep.last_report
    if report is None:
        return "sweep left no CampaignReport behind"
    if report.chunks_completed + report.chunks_resumed != report.chunks_total:
        return (
            f"campaign report ledger does not balance: "
            f"{report.chunks_completed} completed + "
            f"{report.chunks_resumed} resumed != {report.chunks_total} total"
        )
    if report.faults != len(universe):
        return (
            f"campaign report covers {report.faults} faults, "
            f"universe has {len(universe)}"
        )
    return None


sampled_determinism = register(
    "sampled-determinism",
    "one seed ⇒ one sample set and one verdict list, across fresh "
    "backends and across serial vs fork-worker sweeps, with a balanced "
    "campaign-report chunk ledger",
)((_gen_sampled, _check_sampled_determinism))


# ----------------------------------------------------------------------
# atpg-drop-soundness / atpg-compaction-conservation
# ----------------------------------------------------------------------
def _gen_atpg_engine(rng: random.Random) -> Case:
    # Small enough that 200 tier-1 trials stay cheap: each checker runs
    # whole ATPG campaigns plus per-pattern reference simulations.
    n = rng.randint(2, 3)
    gates = rng.randint(2, 8)
    if rng.random() < 0.5:
        net = random_nand_network(rng, n, gates, n_outputs=rng.randint(1, 2))
    else:
        net = random_mixed_network(rng, n, gates, n_outputs=rng.randint(1, 2))
    return Case(network=net)


def _named_targets(engine: NetworkEngine) -> List:
    """The named faults of the default ATPG universe, for the reference
    interpreter."""
    return list(map(engine.compiled.fault, atpg_targets(engine.compiled)))


def _check_atpg_drop_soundness(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    n = len(net.inputs)
    engine = NetworkEngine(net)  # fresh — never trust another run's cache
    universe = _named_targets(engine)
    report = run_atpg(net, engine=engine)
    if report.detected + report.redundant + report.aborted != report.requested:
        return (
            f"classification counts do not tile the universe: "
            f"{report.detected} + {report.redundant} + {report.aborted} "
            f"!= {report.requested}"
        )
    by_name = {fault.describe(): fault for fault in universe}
    # A redundant verdict (from the tables or from PODEM) must leave the
    # reference interpreter's whole output table as it is.
    normal = reference_output_bits(net)
    for name, status in report.classifications.items():
        if status == "redundant" and (
            reference_output_bits(net, by_name[name]) != normal
        ):
            return (
                f"redundant fault {name} changes an output per the "
                f"reference interpreter"
            )
    by_pattern: Dict[int, List[str]] = {}
    for name, status in report.classifications.items():
        if status != "detected":
            continue
        if name not in report.detected_by:
            return f"detected fault {name} has no crediting pattern"
        index = report.detected_by[name]
        if not 0 <= index < len(report.patterns):
            return f"fault {name} credits out-of-range pattern {index}"
        by_pattern.setdefault(index, []).append(name)
    # One pattern-simulation pass per credited pattern (not per fault).
    for index, names in sorted(by_pattern.items()):
        pattern = report.patterns[index]
        masks = pattern_detections(
            engine.compiled, [pattern], [by_name[name] for name in names]
        )
        point = point_tuple(n, pattern)
        reference_good = reference_outputs(net, point)
        for name, mask in zip(names, masks):
            if not mask:
                return (
                    f"dropped fault {name} is not detected by its "
                    f"credited pattern {pattern} per pattern simulation"
                )
            if reference_outputs(net, point, by_name[name]) == (
                reference_good
            ):
                return (
                    f"dropped fault {name} is not detected by pattern "
                    f"{pattern} per the reference interpreter"
                )
    return _pair_verdicts_problem(net, universe, engine)


atpg_drop_soundness = register(
    "atpg-drop-soundness",
    "every fault the dropping ATPG driver marks detected is confirmed "
    "by pattern simulation and the reference interpreter on the single "
    "pattern credited in the report, and every fault it marks redundant "
    "leaves the reference interpreter's output tables unchanged; in "
    "pairs mode the credited pairs detect and redundant faults have no "
    "detecting pair",
)((_gen_atpg_engine, _check_atpg_drop_soundness))


def _detected_set(engine: NetworkEngine, patterns, universe) -> frozenset:
    """Names of the universe faults some pattern in ``patterns`` detects."""
    masks = pattern_detections(engine.compiled, list(patterns), universe)
    return frozenset(
        fault.describe() for fault, mask in zip(universe, masks) if mask
    )


def _check_atpg_compaction(case: Case) -> Optional[str]:
    net = case.network
    if net is None:
        return None
    engine = NetworkEngine(net)
    universe = _named_targets(engine)
    compacted = run_atpg(net, engine=engine)
    full = run_atpg(net, engine=engine, drop=False, compact=False)
    claimed_c = {
        name
        for name, status in compacted.classifications.items()
        if status == "detected"
    }
    claimed_f = {
        name
        for name, status in full.classifications.items()
        if status == "detected"
    }
    if claimed_c != claimed_f:
        return (
            f"compacted run claims a different detected set than the "
            f"per-fault run: only-compacted={sorted(claimed_c - claimed_f)}, "
            f"only-full={sorted(claimed_f - claimed_c)}"
        )
    simulated_c = _detected_set(engine, compacted.patterns, universe)
    simulated_f = _detected_set(engine, full.patterns, universe)
    if simulated_c != simulated_f:
        return (
            f"compacted pattern set detects a different fault set than "
            f"the full set: only-compacted="
            f"{sorted(simulated_c - simulated_f)}, "
            f"only-full={sorted(simulated_f - simulated_c)}"
        )
    if simulated_c != claimed_c:
        return (
            f"report claims differ from simulation: claimed-only="
            f"{sorted(claimed_c - simulated_c)}, simulated-only="
            f"{sorted(simulated_c - claimed_c)}"
        )
    if compacted.patterns_kept > full.patterns_kept:
        return (
            f"compaction kept more patterns ({compacted.patterns_kept}) "
            f"than the uncompacted per-fault run ({full.patterns_kept})"
        )
    return None


atpg_compaction = register(
    "atpg-compaction-conservation",
    "the compacted ATPG test set detects exactly the faults the full "
    "per-fault set detects, by report claims and by re-simulating both "
    "pattern sets against the collapsed universe",
)((_gen_atpg_engine, _check_atpg_compaction))


# ----------------------------------------------------------------------
# synth-determinism / synth-soundness
# ----------------------------------------------------------------------
#: Spec rotation for synth trials; the checker derives the spec from
#: the case seed so the whole trial shrinks along one integer.
_SYNTH_SPECS = ("and2", "or2", "maj3", "xor2")


def _gen_synth(rng: random.Random) -> Case:
    return Case(seed=rng.randint(0, 2**31 - 1))


def _micro_synth(
    spec_name: str,
    seed: int,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    generations: int = 4,
):
    """A deliberately tiny campaign — determinism and soundness do not
    need convergence, so trials stay cheap enough for the fuzz budget."""
    from ..synth.campaign import SynthCampaign
    from ..synth.specs import SPECS

    return SynthCampaign(
        SPECS[spec_name],
        seed=seed,
        population=8,
        generations=generations,
        max_gates=8,
        checkpoint=checkpoint,
        resume=resume,
    )


def _synth_identity(report) -> Tuple:
    """The replay-comparable slice of a SynthReport (timing, chunk
    accounting, and checkpoint paths legitimately vary)."""
    return (
        report.best_genome,
        report.best_fingerprint,
        report.best_generation,
        dataclasses.replace(report.best_record, backend=""),
        report.generations_run,
        report.evaluations,
        report.improvements,
        report.converged,
        tuple(tuple(sorted(h.items())) for h in report.history),
        tuple(tuple(sorted(p.items())) for p in report.pareto),
    )


def _check_synth_determinism(case: Case) -> Optional[str]:
    import os
    import tempfile

    if case.seed is None:
        return None
    spec_name = _SYNTH_SPECS[case.seed % len(_SYNTH_SPECS)]
    straight = _synth_identity(_micro_synth(spec_name, case.seed).run())
    repeat = _synth_identity(_micro_synth(spec_name, case.seed).run())
    if repeat != straight:
        return (
            f"two fresh runs of spec {spec_name!r} seed {case.seed} "
            f"diverge: {repeat} != {straight}"
        )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "synth.ckpt.json")
        # The first half stops at a 2-generation cap; the cap is no part
        # of the checkpoint's identity, so the second half continues it.
        _micro_synth(
            spec_name, case.seed, checkpoint=ckpt, generations=2
        ).run()
        resumed = _synth_identity(
            _micro_synth(spec_name, case.seed, checkpoint=ckpt, resume=True)
            .run()
        )
    if resumed != straight:
        return (
            f"checkpoint-resumed run of spec {spec_name!r} seed "
            f"{case.seed} diverges from the uninterrupted one: "
            f"{resumed} != {straight}"
        )
    return None


synth_determinism = register(
    "synth-determinism",
    "a synthesis campaign is a pure function of its seed: fresh reruns "
    "and checkpoint-resumed continuations are byte-identical",
)((_gen_synth, _check_synth_determinism))


def _check_synth_soundness(case: Case) -> Optional[str]:
    from ..synth.fitness import evaluate_task, make_task
    from ..synth.genome import Genome
    from ..synth.specs import SPECS

    if case.seed is None:
        return None
    spec = SPECS[_SYNTH_SPECS[case.seed % len(_SYNTH_SPECS)]]
    report = _micro_synth(spec.name, case.seed).run()
    genome = Genome.from_json(report.best_genome)
    claimed = dataclasses.replace(report.best_record, backend="")
    scalar = dataclasses.replace(
        evaluate_task(make_task(genome, spec, mode="scalar")), backend=""
    )
    if scalar != claimed:
        return (
            f"the batched fitness record the search trusted diverges "
            f"from the scalar evaluator for the winner of spec "
            f"{spec.name!r} seed {case.seed}: {scalar} != {claimed}"
        )
    if not report.converged:
        return None
    # A claimed-perfect winner must re-verify from first principles.
    net = genome.to_network(spec.input_names)
    bits = reference_output_bits(net)
    if tuple(bits) != tuple(spec.tables):
        return (
            f"claimed-perfect winner's reference tables {tuple(bits)} "
            f"do not match spec {spec.name!r} tables {tuple(spec.tables)}"
        )
    n = len(spec.input_names)
    for out, out_bits in zip(net.outputs, bits):
        if not reference_is_self_dual(out_bits, n):
            return (
                f"claimed-perfect winner output {out!r} is not self-dual "
                f"per the reference interpreter"
            )
    verdict = ScalSimulator(net).verdict(include_pins=False)
    if verdict.insecure:
        lines = sorted(resp.fault.line for resp in verdict.insecure)
        return (
            f"claimed-perfect winner has fault-insecure lines per the "
            f"exhaustive Definition-2.4 oracle: {lines}"
        )
    return None


synth_soundness = register(
    "synth-soundness",
    "batched fitness records match the scalar evaluator, and a "
    "claimed-perfect synthesis winner re-verifies against the reference "
    "interpreter and the exhaustive fault-security oracle",
)((_gen_synth, _check_synth_soundness))


def property_names() -> List[str]:
    return sorted(PROPERTIES)


def resolve(names: Optional[Sequence[str]] = None) -> List[Property]:
    """The selected properties (default: all), with a helpful error."""
    if not names:
        return [PROPERTIES[name] for name in property_names()]
    chosen = []
    for name in names:
        if name not in PROPERTIES:
            known = ", ".join(property_names())
            raise KeyError(f"unknown property {name!r}; registered: {known}")
        chosen.append(PROPERTIES[name])
    return chosen
