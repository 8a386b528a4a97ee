"""Content-addressed artifact store for campaign reuse.

Repeated campaigns over the same netlist — the normal shape once
``repro serve`` queues requests from many clients — keep recomputing
the full campaign result.  This store keys results (and parsed
netlists) by *content*, not by object identity:

* ``program_fingerprint(compiled)`` — sha256 over the compiled
  program's structure (input count, line names, op list, output
  indices).  Two separately constructed but identical netlists hash the
  same, so artifacts survive across ``Network`` instances, across
  fork workers, and across ``serve`` requests.
* :func:`repro.engine.supervisor.universe_fingerprint` — the existing
  sha256 of the ordered fault universe.

Keys are tuples ``(kind, *fingerprints)``; kinds in use are
``"campaign"`` (program fp + universe fp + the request shape that
affects the statuses), ``"synth"`` (target fp + search knobs), and
``"network"`` (raw netlist text, used by the server to dedup parses).
Baselines are not stored: identical netlist text already shares one
``Network`` through the ``"network"`` kind, and so one engine and one
baseline through :func:`repro.engine.engine_for`, while caching every
scored synthesis candidate's baseline would evict served results.

The store is **opt-in** (``STORE.enabled`` defaults to ``False``): the
chaos/fuzz suites intentionally sabotage engines and must observe the
sabotage, not a cached clean artifact.  ``repro serve`` enables it for
the process; library users can flip it or build private instances.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from .. import obs

_REG = obs.REGISTRY
_M_HITS = _REG.counter(
    "repro_store_hits_total", "Artifact store hits, by artifact kind"
)
_M_MISSES = _REG.counter(
    "repro_store_misses_total", "Artifact store misses, by artifact kind"
)
_M_EVICTIONS = _REG.counter(
    "repro_store_evictions_total", "Artifact store LRU evictions"
)


def program_fingerprint(compiled) -> str:
    """sha256 of a compiled program's structure.

    Content-addressed: hashes the input count, the ordered line names,
    every op's ``(out, kind, srcs)``, and the output indices — exactly
    the fields that determine what the program computes.  Cached on the
    compiled instance (compiled programs are immutable after
    construction).
    """
    cached = getattr(compiled, "_program_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(str(compiled.n_inputs).encode())
    for name in compiled.names:
        digest.update(b"\x00")
        digest.update(name.encode())
    for op in compiled.ops:
        digest.update(
            f"\x01{op.out}\x02{op.kind.value}\x02"
            f"{','.join(map(str, op.srcs))}".encode()
        )
    for out in compiled.out_idx:
        digest.update(f"\x03{out}".encode())
    fingerprint = digest.hexdigest()
    try:
        compiled._program_fingerprint = fingerprint
    except AttributeError:  # pragma: no cover - frozen/slotted compiled
        pass
    return fingerprint


def text_fingerprint(text: str) -> str:
    """sha256 of raw netlist text (the server's parse-dedup key)."""
    return hashlib.sha256(text.encode()).hexdigest()


class ArtifactStore:
    """A bounded, thread-safe, LRU map from content keys to artifacts.

    Artifacts must be immutable (tuples, frozen dataclasses, report
    dicts the caller promises not to mutate) — the store hands back the
    same object to every caller.
    """

    def __init__(self, max_entries: int = 64, enabled: bool = False) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, kind: str, *fingerprints: str) -> Optional[object]:
        """The stored artifact, or ``None`` (also when disabled)."""
        if not self.enabled:
            return None
        key = (kind,) + fingerprints
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                _M_MISSES.inc(kind=kind)
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            _M_HITS.inc(kind=kind)
            return value

    def put(self, kind: str, *fingerprints: str, value: object) -> None:
        """Store ``value`` under the content key (no-op when disabled)."""
        if not self.enabled:
            return
        key = (kind,) + fingerprints
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                _M_EVICTIONS.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide store.  Disabled by default — sabotage-driven test
#: suites must see their sabotage, not cached clean artifacts; the
#: campaign service enables it at startup.
STORE = ArtifactStore()
