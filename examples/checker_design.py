#!/usr/bin/env python
"""Checker design for SCAL systems (Chapter 5).

* the Anderson dual-rail TSCC on alternating outputs (Figure 5.1),
* the minimum-cost XOR checker for independent lines (Figure 5.2) and
  its Table 5.1 blind spot (an even number of stuck lines),
* Algorithm 5.1's mixed design on the thesis's nine-output example and
  on the Figure 3.4 network,
* the hardcore clock-disable module (Table 5.2), its replication, and
  the executable Theorem 5.2 survey.

Run:  python examples/checker_design.py
"""

from repro.checkers.hardcore import (
    clock_disable_truth_table,
    replication_failure_probability,
    theorem_5_2_survey,
)
from repro.checkers.mixed import (
    all_dual_rail_cost,
    partition,
    spec_from_network,
    thesis_nine_output_example,
)
from repro.checkers.tworail import ScalDualRailChecker, code_valid
from repro.checkers.xorchk import check_pair, xor_checker_gate_cost
from repro.workloads.fig34 import fig34_network


def main() -> None:
    print("--- dual-rail checker on alternating outputs ---")
    checker = ScalDualRailChecker(4)
    good = checker.feed_pair([1, 0, 1, 1], [0, 1, 0, 0])
    bad = checker.feed_pair([1, 0, 1, 1], [0, 1, 0, 1])
    print(f"healthy pair -> code {good} valid={code_valid(good)}")
    print(f"line 3 stuck -> code {bad} valid={code_valid(bad)}")
    print(f"cost for 9 lines: {ScalDualRailChecker(9).gate_cost()} gates + "
          f"{ScalDualRailChecker(9).flip_flop_cost()} flip-flops")

    print("\n--- XOR checker: cheap but blind to even stuck counts ---")
    print(f"cost for 9 independent lines: {xor_checker_gate_cost(9)} XOR gates")
    first = [1, 0, 1, 1]
    one_stuck = [0, 1, 0, 1]
    two_stuck = [0, 1, 1, 1]
    print(f"1 stuck line  -> detected: {not check_pair(first, one_stuck).valid}")
    print(f"2 stuck lines -> detected: {not check_pair(first, two_stuck).valid} "
          f"(Table 5.1's forbidden case)")

    print("\n--- Algorithm 5.1 on the Section 5.4 nine-output example ---")
    plan = partition(thesis_nine_output_example())
    print(f"XOR-checked (partition A): {plan.xor_checked}")
    print(f"dual-rail checked:         {plan.dual_rail_checked}")
    gates, ffs = plan.total_cost("xor")
    base_gates, base_ffs = all_dual_rail_cost(9)
    print(f"mixed cost: {gates} gates + {ffs} FFs "
          f"vs all-dual-rail {base_gates} gates + {base_ffs} FFs "
          f"(~{100 * gates / base_gates:.0f}% of the gate cost)")

    print("\n--- Algorithm 5.1 derived from a real netlist (Figure 3.4) ---")
    spec = spec_from_network(fig34_network())
    net_plan = partition(spec)
    groups = sorted(tuple(sorted(g)) for g in spec.sharing_groups)
    print(f"sharing groups: {groups}")
    print(f"can alternate incorrectly: {sorted(spec.incorrectly_alternating)}")
    print(f"plan: XOR {net_plan.xor_checked}, dual-rail "
          f"{net_plan.dual_rail_checked}")

    print("\n--- hardcore: the Table 5.2 clock disable ---")
    print("clk f g | out")
    for clock, f, g, out in clock_disable_truth_table():
        print(f"  {clock}  {f} {g} |  {out}")
    print("replicated hardcore failure probability p^n (p = 0.05):",
          [f"{replication_failure_probability(0.05, n):.2e}" for n in (1, 2, 3)])

    print("\n--- Theorem 5.2: no self-checking clock disable exists ---")
    for verdict in theorem_5_2_survey():
        if verdict.meets_requirements:
            reason = f"untestable fault(s): {', '.join(verdict.untestable_faults)}"
        else:
            reason = f"requirement violation: {verdict.violation}"
        print(f"  {verdict.name}: NOT a self-checking hardcore — {reason}")


if __name__ == "__main__":
    main()
