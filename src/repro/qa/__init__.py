"""QA subsystem: differential fuzzing, metamorphic properties, shrinking.

The paper's theorems are executable invariants; this package checks them
continuously against randomized populations instead of only on the
hand-written examples:

* :mod:`repro.qa.reference` — an independent naive interpreter (shares
  no code with the engine) used as the differential oracle;
* :mod:`repro.qa.properties` — the registry of seeded properties
  (backend agreement, alternation, Algorithm 3.1 vs oracle, ATPG
  soundness, collapse verdicts, sequential-transform equivalence,
  sampled determinism);
* :mod:`repro.qa.shrink` — greedy counterexample minimization;
* :mod:`repro.qa.runner` — the campaign driver behind
  ``python -m repro fuzz`` (artifacts: JSON + pytest reproducer);
* :mod:`repro.qa.chaos` — named engine sabotage for harness self-tests.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Case": "cases",
    "Counterexample": "cases",
    "FuzzReport": "runner",
    "PROPERTIES": "properties",
    "Property": "properties",
    "PropertyReport": "runner",
    "case_from_json": "cases",
    "case_to_json": "cases",
    "fuzz": "runner",
    "network_from_json": "cases",
    "network_to_json": "cases",
    "property_names": "properties",
    "pytest_snippet": "cases",
    "resolve": "properties",
    "run_property": "runner",
    "shrink_case": "shrink",
    "trial_rng": "properties",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
