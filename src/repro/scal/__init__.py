"""SCAL sequential design techniques (Chapter 4): alternating operation,
the dual flip-flop transform, the gate-level ALPT/PALT translators, the
complete code-conversion system (one loop network of PALT, self-dual
block and ALPT), and the Table 4.1 cost model."""

from .._lazy import lazy_exports

_EXPORTS = {
    "AlternatingRun": "alternating",
    "CampaignResult": "verify",
    "InductiveVerdict": "induction",
    "AlternatingStep": "alternating",
    "CodeConversionMachine": "codeconv",
    "CostReport": "costs",
    "DualFlipFlopMachine": "dualff",
    "PERIOD_CLOCK": "alternating",
    "REYNOLDS_COST_FACTOR": "costs",
    "THESIS_TABLE_4_1": "costs",
    "alpt_network": "translators",
    "codeconv_campaign": "verify",
    "cost_factor": "costs",
    "dualff_campaign": "verify",
    "kohavi_general": "costs",
    "loop_network": "codeconv",
    "measured_cost": "costs",
    "render_cost_table": "costs",
    "palt_network": "translators",
    "reynolds_general": "costs",
    "self_dual_machine_network": "dualff",
    "to_code_conversion": "codeconv",
    "to_dual_flipflop": "dualff",
    "random_vectors": "verify",
    "verify_inductively": "induction",
    "translator_general": "costs",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
