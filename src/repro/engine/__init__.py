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

from __future__ import annotations

import weakref
from typing import Optional

from ..logic.network import Network
from .backends import BitmaskBackend, PointQueries
from .campaign import FaultSweep, ResponseBits, universe_fingerprint
from .supervisor import (
    CampaignCancelled,
    CampaignCheckpoint,
    CampaignReport,
    CancelToken,
    CheckpointError,
    ChunkKind,
    Degradation,
    RetryEvent,
    run_campaign,
)
from .compiled import (
    CompiledNetwork,
    FaultPlan,
    Op,
    RowForcing,
    compile_network,
)
from .store import STORE, ArtifactStore, program_fingerprint
from .fork import (
    ChunkResult,
    ForkTransport,
    SubmitFailed,
    TransportError,
    TransportFailure,
    TransportUnavailable,
)


class NetworkEngine:
    """One network's compiled form plus its shared backends.

    The point queries are always there; the exhaustive
    :attr:`bitmask` backend is constructed lazily on first use, so
    engines for small one-off queries pay nothing.  Building it never
    allocates a table: on circuits beyond the
    :data:`~repro.engine.backends.MAX_BITMASK_INPUTS` whole-table
    ceiling its tiled sweep still runs, while its whole-table methods
    raise ``ValueError`` instead of attempting the 2^n-bit allocation.
    """

    def __init__(self, network: Network) -> None:
        self.compiled = compile_network(network)
        self.pointwise = PointQueries(self.compiled)
        self._bitmask: Optional[BitmaskBackend] = None

    @property
    def bitmask(self) -> BitmaskBackend:
        """The exhaustive big-int truth-table backend."""
        if self._bitmask is None:
            self._bitmask = BitmaskBackend(self.compiled)
        return self._bitmask


_engine_cache: "weakref.WeakKeyDictionary[Network, NetworkEngine]" = (
    weakref.WeakKeyDictionary()
)


def engine_for(network: Network) -> NetworkEngine:
    """The shared engine of ``network`` (compile once, simulate many).

    Cached weakly per network instance — networks are immutable, so every
    caller sharing a network also shares its baselines and fault plans.
    """
    engine = _engine_cache.get(network)
    if engine is None:
        engine = NetworkEngine(network)
        _engine_cache[network] = engine
    return engine


def __getattr__(name: str):
    # Lazy re-export: engine.atpg pulls in core.atpg, which imports the
    # logic package, which imports this package — resolving it at first
    # attribute access instead of import time keeps the cycle open.
    if name in ("AtpgReport", "run_atpg"):
        from . import atpg

        return getattr(atpg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArtifactStore",
    "AtpgReport",
    "BitmaskBackend",
    "CampaignCancelled",
    "CampaignCheckpoint",
    "CampaignReport",
    "CancelToken",
    "CheckpointError",
    "ChunkKind",
    "ChunkResult",
    "CompiledNetwork",
    "Degradation",
    "FaultPlan",
    "FaultSweep",
    "ForkTransport",
    "NetworkEngine",
    "Op",
    "PointQueries",
    "ResponseBits",
    "RetryEvent",
    "RowForcing",
    "STORE",
    "SubmitFailed",
    "TransportError",
    "TransportFailure",
    "TransportUnavailable",
    "compile_network",
    "engine_for",
    "program_fingerprint",
    "run_atpg",
    "run_campaign",
    "universe_fingerprint",
]
