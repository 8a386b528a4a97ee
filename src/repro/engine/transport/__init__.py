"""Execution transports for the supervised campaign runtime.

The supervisor owns *policy* — timeouts, retries, splitting, the
degradation ladder, checkpoints, flight merging.  A
:class:`Transport` owns *mechanics* — where chunks actually run and how
their results travel back.  Two implementations ship:

==========  =====================================================
``inline``  one synchronous lane in the supervising process
``fork``    forked worker processes over duplex pipes
==========  =====================================================

``create_transport(name, sweep, lanes)`` builds the implementation
named ``name``.
"""

from __future__ import annotations

from .base import (
    ChunkResult,
    ChunkTask,
    SubmitFailed,
    Transport,
    TransportError,
    TransportFailure,
    TransportUnavailable,
)
from .fork import ForkTransport
from .inline import InlineTransport


def create_transport(name: str, sweep, lanes: int) -> Transport:
    """The transport named ``name`` (``fork`` or ``inline``) for
    ``sweep``."""
    if name == "fork":
        return ForkTransport(sweep, lanes)
    if name == "inline":
        return InlineTransport(sweep.engine)
    raise ValueError(f"unknown transport: {name!r}")


__all__ = [
    "ChunkResult",
    "ChunkTask",
    "ForkTransport",
    "InlineTransport",
    "SubmitFailed",
    "Transport",
    "TransportError",
    "TransportFailure",
    "TransportUnavailable",
    "create_transport",
]
