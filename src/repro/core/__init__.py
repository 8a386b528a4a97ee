"""The paper's primary contribution: SCAL self-checking analysis.

* :mod:`repro.core.simulate` — the exhaustive SCAL oracle (Definition 2.4
  / Theorem 2.2 evaluated directly).
* :mod:`repro.core.conditions` — conditions A–E and Corollary 3.2.
* :mod:`repro.core.analysis` — Algorithm 3.1.
* :mod:`repro.core.testgen` — Theorem 3.2 test generation.
* :mod:`repro.core.redundancy` — Theorems 3.3–3.5 redundancy handling.
* :mod:`repro.core.report` — Figure 3.6-style fault tables.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ClassCoverage": "multifault",
    "CollapseReport": "collapse",
    "FaultDictionary": "diagnosis",
    "adaptive_probe": "diagnosis",
    "build_fault_dictionary": "diagnosis",
    "simulate_faulty_unit": "diagnosis",
    "Podem": "atpg",
    "collapse_faults": "collapse",
    "equivalence_collapse": "collapse",
    "Condition": "conditions",
    "RepairReport": "design",
    "RepairStep": "design",
    "ConditionEResult": "conditions",
    "FaultResponse": "simulate",
    "FaultTableRow": "report",
    "LineVerdict": "analysis",
    "NetworkAnalysis": "analysis",
    "ScalSimulator": "simulate",
    "ScalVerdict": "simulate",
    "StuckAtTestPlan": "testgen",
    "all_test_pairs": "testgen",
    "analyze_network": "analysis",
    "apply_constant_replacements": "redundancy",
    "canonical_pairs": "simulate",
    "coverage_by_class": "multifault",
    "design_scal_network": "design",
    "double_faults": "multifault",
    "duplicate_gate_for_branches": "design",
    "make_self_checking": "design",
    "random_multiple_faults": "multifault",
    "render_coverage": "multifault",
    "unidirectional_faults": "multifault",
    "condition_a": "conditions",
    "condition_b": "conditions",
    "condition_c": "conditions",
    "condition_d": "conditions",
    "condition_e": "conditions",
    "constant_replacements": "redundancy",
    "corollary_3_1_formula": "conditions",
    "corollary_3_2": "conditions",
    "fault_coverage": "simulate",
    "fault_table": "report",
    "format_pair": "testgen",
    "greedy_test_schedule": "testgen",
    "input_pairs": "report",
    "is_irredundant": "redundancy",
    "is_scal_network": "simulate",
    "line_testability": "redundancy",
    "lines_needing_multi_output": "analysis",
    "pair_label": "report",
    "redundant_lines": "redundancy",
    "render_fault_table": "report",
    "test_plan": "testgen",
    "undetected_faults": "report",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
