"""Workloads: the thesis's worked examples and random populations."""

from .._lazy import lazy_exports

_EXPORTS = {
    "FIG36_PAIR_LABELS": "fig34",
    "THESIS_COSTS": "detectors",
    "THESIS_LINE_MAP": "fig34",
    "expected_output_functions": "fig34",
    "fig32_xor_path_network": "benchcircuits",
    "fig34_network": "fig34",
    "fig37_fixed_network": "fig34",
    "fig62_nand_network": "benchcircuits",
    "kohavi_0101": "detectors",
    "kohavi_circuit": "detectors",
    "machine_suite": "machines",
    "modulo_counter": "machines",
    "parity_checker": "machines",
    "debouncer": "machines",
    "minority3_table": "benchcircuits",
    "serial_adder": "machines",
    "traffic_light": "machines",
    "pattern_positions": "detectors",
    "random_alternating_network": "randomlogic",
    "random_input_vectors": "randomlogic",
    "random_machine": "randomlogic",
    "random_mixed_network": "randomlogic",
    "random_nand_network": "randomlogic",
    "random_self_dual_table": "randomlogic",
    "random_truth_table": "randomlogic",
    "reference_outputs": "detectors",
    "reynolds_0101": "detectors",
    "section32_example": "benchcircuits",
    "translator_0101": "detectors",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
