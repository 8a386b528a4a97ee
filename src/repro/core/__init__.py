"""The paper's primary contribution: SCAL self-checking analysis.

* :mod:`repro.core.simulate` — the exhaustive SCAL oracle (Definition 2.4
  / Theorem 2.2 evaluated directly).
* :mod:`repro.core.conditions` — conditions A–E and Corollary 3.2.
* :mod:`repro.core.analysis` — Algorithm 3.1.
* :mod:`repro.core.testgen` — Theorem 3.2 test generation.
* :mod:`repro.core.redundancy` — Theorems 3.3–3.5 redundancy handling.
* :mod:`repro.core.report` — Figure 3.6-style fault tables.
"""

from .atpg import Podem
from .collapse import CollapseReport, collapse_faults, equivalence_collapse
from .diagnosis import FaultDictionary, adaptive_probe, build_fault_dictionary, simulate_faulty_unit
from .design import (
    RepairReport,
    RepairStep,
    design_scal_network,
    duplicate_gate_for_branches,
    make_self_checking,
)
from .multifault import (
    ClassCoverage,
    coverage_by_class,
    double_faults,
    random_multiple_faults,
    render_coverage,
    unidirectional_faults,
)
from .analysis import (
    LineVerdict,
    NetworkAnalysis,
    analyze_network,
    lines_needing_multi_output,
)
from .conditions import (
    Condition,
    ConditionEResult,
    condition_a,
    condition_b,
    condition_c,
    condition_d,
    condition_e,
    corollary_3_1_formula,
    corollary_3_2,
)
from .redundancy import (
    apply_constant_replacements,
    constant_replacements,
    is_irredundant,
    line_testability,
    redundant_lines,
)
from .report import (
    FaultTableRow,
    fault_table,
    input_pairs,
    pair_label,
    render_fault_table,
    undetected_faults,
)
from .simulate import (
    FaultResponse,
    ScalSimulator,
    ScalVerdict,
    canonical_pairs,
    fault_coverage,
    is_scal_network,
)
from .testgen import (
    StuckAtTestPlan,
    all_test_pairs,
    format_pair,
    greedy_test_schedule,
    test_plan,
)

__all__ = [
    "ClassCoverage",
    "CollapseReport",
    "FaultDictionary",
    "adaptive_probe",
    "build_fault_dictionary",
    "simulate_faulty_unit",
    "Podem",
    "collapse_faults",
    "equivalence_collapse",
    "Condition",
    "RepairReport",
    "RepairStep",
    "ConditionEResult",
    "FaultResponse",
    "FaultTableRow",
    "LineVerdict",
    "NetworkAnalysis",
    "ScalSimulator",
    "ScalVerdict",
    "StuckAtTestPlan",
    "all_test_pairs",
    "analyze_network",
    "apply_constant_replacements",
    "canonical_pairs",
    "coverage_by_class",
    "design_scal_network",
    "double_faults",
    "duplicate_gate_for_branches",
    "make_self_checking",
    "random_multiple_faults",
    "render_coverage",
    "unidirectional_faults",
    "condition_a",
    "condition_b",
    "condition_c",
    "condition_d",
    "condition_e",
    "constant_replacements",
    "corollary_3_1_formula",
    "corollary_3_2",
    "fault_coverage",
    "fault_table",
    "format_pair",
    "greedy_test_schedule",
    "input_pairs",
    "is_irredundant",
    "is_scal_network",
    "line_testability",
    "lines_needing_multi_output",
    "pair_label",
    "redundant_lines",
    "render_fault_table",
    "test_plan",
    "undetected_faults",
]
