"""Mixed checker design — Algorithm 5.1 (Section 5.4).

Networks usually have a mix of outputs: some independent (cheap XOR
checking suffices), some sharing logic (a single internal fault can break
several at once, or produce an incorrect alternation that only *another*
output reveals — those need the dual-rail checker).  Algorithm 5.1
partitions the outputs:

1. outputs independent of all others → partition **A**;
2. the rest → **B**, subdivided into groups ``B_i`` of outputs that share
   logic only within the group;
3. from each ``B_i``, one output that never alternates incorrectly under
   any fault may be promoted to **A** (its faults are covered by the
   remaining B outputs of its group, and an extra stuck B-output is
   exactly the single-parity-flip the XOR checker catches);
4. A-outputs are checked by the XOR tree, remaining B-outputs by the
   dual-rail checker; the two checker outputs combine through either one
   more XOR stage (Figure 5.4a) or a dual-rail stage (Figure 5.4b).

The partitioner works from either an abstract dependency specification
(the thesis's nine-output example) or a real :class:`Network`, for which
sharing groups come from cone overlaps and the "alternates incorrectly"
set from exhaustive fault simulation.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, List, Sequence, Set, Tuple

from ..logic.network import Network
from .tworail import CELL_GATES
from .xorchk import xor_checker_gate_cost


@dataclasses.dataclass(frozen=True)
class CheckerSpec:
    """Abstract input to Algorithm 5.1: output names, sharing groups, and
    which outputs can alternate incorrectly under some fault."""

    outputs: Tuple[str, ...]
    #: groups of outputs that share logic pairwise-overlapping; outputs
    #: absent from every group are independent.
    sharing_groups: Tuple[FrozenSet[str], ...]
    incorrectly_alternating: FrozenSet[str]


@dataclasses.dataclass(frozen=True)
class CheckerPlan:
    """Outcome of Algorithm 5.1."""

    xor_checked: Tuple[str, ...]          # partition A
    dual_rail_checked: Tuple[str, ...]    # what stays in B
    groups: Tuple[Tuple[str, ...], ...]   # the B_i subpartitions (pre-step 3)

    def xor_gate_cost(self, fan_in: int = 3) -> int:
        if not self.xor_checked:
            return 0
        return xor_checker_gate_cost(len(self.xor_checked), fan_in)

    def dual_rail_gate_cost(self) -> int:
        n = len(self.dual_rail_checked)
        return max(n - 1, 0) * CELL_GATES

    def dual_rail_flip_flops(self) -> int:
        return len(self.dual_rail_checked)

    def combine_cost(self, style: str = "xor") -> Tuple[int, int]:
        """(gates, flip-flops) of the combining stage.

        ``"xor"`` (Figure 5.4a): fold the dual-rail pair into the XOR
        tree — one 3-input XOR gate.  ``"dual-rail"`` (Figure 5.4b):
        latch the XOR output and add one two-rail cell.
        """
        if not self.xor_checked or not self.dual_rail_checked:
            return (0, 0)
        if style == "xor":
            return (1, 0)
        if style == "dual-rail":
            return (CELL_GATES, 1)
        raise ValueError(f"unknown combining style {style!r}")

    def total_cost(self, style: str = "xor", fan_in: int = 3) -> Tuple[int, int]:
        """(gates, flip-flops) of the whole mixed checker."""
        cg, cf = self.combine_cost(style)
        gates = self.xor_gate_cost(fan_in) + self.dual_rail_gate_cost() + cg
        ffs = self.dual_rail_flip_flops() + cf
        return gates, ffs


def all_dual_rail_cost(n_outputs: int) -> Tuple[int, int]:
    """(gates, flip-flops) of the conventional all-dual-rail checker —
    the baseline the thesis halves (48 gates + 9 FFs for nine lines)."""
    return max(n_outputs - 1, 0) * CELL_GATES, n_outputs


def partition(spec: CheckerSpec) -> CheckerPlan:
    """Run Algorithm 5.1 on an abstract specification."""
    grouped: Set[str] = set()
    for group in spec.sharing_groups:
        grouped |= set(group)
    # Step 1: independent outputs.
    a_part: List[str] = [o for o in spec.outputs if o not in grouped]
    # Step 2: merge overlapping sharing groups into the B_i partitions.
    b_groups = _merge_groups(spec.sharing_groups)
    # Step 3: one never-incorrectly-alternating output per B_i may move.
    remaining: List[str] = []
    for group in b_groups:
        promotable = [
            o for o in spec.outputs
            if o in group and o not in spec.incorrectly_alternating
        ]
        promoted = promotable[0] if promotable else None
        if promoted is not None:
            a_part.append(promoted)
        remaining.extend(
            o for o in spec.outputs if o in group and o != promoted
        )
    order = {name: i for i, name in enumerate(spec.outputs)}
    a_part.sort(key=order.__getitem__)
    remaining.sort(key=order.__getitem__)
    return CheckerPlan(
        xor_checked=tuple(a_part),
        dual_rail_checked=tuple(remaining),
        groups=tuple(
            tuple(o for o in spec.outputs if o in g) for g in b_groups
        ),
    )


def _merge_groups(
    groups: Sequence[FrozenSet[str]],
) -> List[FrozenSet[str]]:
    """Union overlapping sharing groups (transitive closure)."""
    merged: List[Set[str]] = []
    for group in groups:
        touching = [m for m in merged if m & group]
        for m in touching:
            merged.remove(m)
        union: Set[str] = set(group)
        for m in touching:
            union |= m
        merged.append(union)
    return [frozenset(m) for m in merged]


def spec_from_network(network: Network) -> CheckerSpec:
    """Derive the Algorithm 5.1 specification from a real netlist.

    Sharing groups: outputs whose cones overlap on a non-input line.
    Incorrectly-alternating set: outputs showing an incorrect alternating
    pair under some single (stem or pin) stuck-at fault — computed by
    exhaustive SCAL fault simulation.
    """
    from ..engine.compiled import compile_network
    from ..logic.evaluate import line_tables

    cones = {out: network.cone(out) for out in network.outputs}
    groups: List[FrozenSet[str]] = []
    outs = list(network.outputs)
    for i, a in enumerate(outs):
        for b in outs[i + 1 :]:
            shared = {
                line
                for line in cones[a] & cones[b]
                if not network.is_input(line)
            }
            if shared:
                groups.append(frozenset({a, b}))
    bad: Set[str] = set()
    normal = line_tables(network)
    universe = compile_network(network).universe_ids(
        collapse=False, live_only=False
    )
    for fault in universe:
        faulty = line_tables(network, fault)
        for out in network.outputs:
            if out in bad:
                continue
            t, tf = normal[out], faulty[out]
            wrong = t ^ tf
            agrees_pairing = ~(t ^ tf.co_reflect())
            if not (wrong & agrees_pairing).is_zero():
                bad.add(out)
        if bad == set(network.outputs):
            break
    return CheckerSpec(
        outputs=tuple(network.outputs),
        sharing_groups=tuple(groups),
        incorrectly_alternating=frozenset(bad),
    )


def thesis_nine_output_example() -> CheckerSpec:
    """The Section 5.4 example: nine outputs, groups (4,5,6), (6,7),
    (8,9); outputs 5 and 8 can alternate incorrectly."""
    return CheckerSpec(
        outputs=tuple(str(i) for i in range(1, 10)),
        sharing_groups=(
            frozenset({"4", "5", "6"}),
            frozenset({"6", "7"}),
            frozenset({"8", "9"}),
        ),
        incorrectly_alternating=frozenset({"5", "8"}),
    )
