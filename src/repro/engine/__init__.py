"""Unified compiled fault-simulation engine.

The single execution seam behind every evaluation path in the repo: the
exhaustive Chapter-3 conditions, the Definition-2.4 SCAL oracle, PODEM's
validation runs, and the Chapter-4 sequential campaigns all compile
their :class:`~repro.logic.network.Network` once (into the flat,
integer-indexed op program of :mod:`repro.engine.compiled`) and then
simulate many times through one of two interchangeable backends:

* **bitmask** — word-parallel big-int truth-table masks: the one
  exhaustive sweep, classifying by stem regions, per pair tile above
  :data:`~repro.engine.backends.UNTILED_MAX_INPUTS` inputs,
* **pointwise** — explicit input points: one point is a one-row pass,
  a point list one packed pass (for spaces too wide to enumerate).

Both run the op program through the one interpreter,
:func:`~repro.engine.backends.run_ops`, with faults in the one forcing
form, :class:`~repro.engine.compiled.RowForcing`.  The Chapter-4 clocked
campaigns (:mod:`repro.seq.simulator`) run it row-parallel, one fault
per row; the fault-dropping ATPG driver (:mod:`repro.engine.atpg`)
simulates its candidate patterns the same way, one fault per slot of
pattern bits.  Nothing in the package needs NumPy.

The bitmask backend caches the fault-free baseline (an immutable tuple —
engines are shared across sweeps and across ``serve`` requests, so
in-place mutation must raise) and re-simulates only the injected fault's
output cone (its classification needs even less: one flip simulation
per fanout stem, then a few mask operations per single fault);
:mod:`repro.engine.campaign` batches that into multi-fault
sweep drivers with fan-out across supervised fork workers
(:mod:`repro.engine.fork`) whenever ``processes > 1``, each run
described by one :class:`~repro.engine.supervisor.ChunkKind`; the
content-addressed :data:`repro.engine.store.STORE` lets ``repro
serve`` replay finished campaigns across requests.

Usage::

    from repro.engine import engine_for

    eng = engine_for(network)          # compiled once, weakly cached
    bits = eng.bitmask.line_bits(StuckAt("g", 1))   # cone-pruned
    vals = eng.pointwise.line_values((0, 1, 1))     # one one-row pass
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ArtifactStore": "store",
    "AtpgReport": "atpg",
    "BitmaskBackend": "backends",
    "CampaignCancelled": "supervisor",
    "CampaignCheckpoint": "supervisor",
    "CampaignReport": "supervisor",
    "CancelToken": "supervisor",
    "CheckpointError": "durable",
    "ChunkKind": "supervisor",
    "ChunkResult": "fork",
    "CompiledNetwork": "compiled",
    "Degradation": "supervisor",
    "FaultPlan": "compiled",
    "FaultSweep": "campaign",
    "ForkTransport": "fork",
    "NetworkEngine": "backends",
    "Op": "compiled",
    "PointQueries": "backends",
    "ResponseBits": "campaign",
    "RetryEvent": "supervisor",
    "RowForcing": "compiled",
    "STORE": "store",
    "SubmitFailed": "fork",
    "TransportError": "fork",
    "TransportFailure": "fork",
    "TransportUnavailable": "fork",
    "atpg_targets": "atpg",
    "compile_network": "compiled",
    "engine_for": "backends",
    "program_fingerprint": "store",
    "run_atpg": "atpg",
    "run_campaign": "supervisor",
    "universe_fingerprint": "campaign",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
