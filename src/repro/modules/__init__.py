"""SCAL building-block modules (Chapters 2, 6, 7): minority modules, the
self-dual adder, shift register, and status storage."""

from .._lazy import lazy_exports

_EXPORTS = {
    "AlternatingShiftRegister": "shifter",
    "AlternatingStatusBit": "status",
    "AlternatingStatusRegister": "status",
    "CatalogEntry": "catalog",
    "ConversionReport": "minority",
    "biased_majority_table": "catalog",
    "closest_self_dual": "catalog",
    "compose_self_dual": "catalog",
    "majority_table": "catalog",
    "minority_table": "catalog",
    "self_dual_count": "catalog",
    "self_dual_fraction": "catalog",
    "standard_catalog": "catalog",
    "xor_table": "catalog",
    "add_words": "adder",
    "alternating_add": "adder",
    "conversion_report": "minority",
    "full_adder_network": "adder",
    "majority": "minority",
    "majority_from_minority": "minority",
    "minimal_minority_realization": "minority",
    "minority": "minority",
    "nand_via_minority": "minority",
    "nor_via_minority": "minority",
    "ripple_adder_network": "adder",
    "shift_word": "shifter",
    "to_minority_network": "minority",
    "verify_theorem_6_2": "minority",
    "verify_theorem_6_3": "minority",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
