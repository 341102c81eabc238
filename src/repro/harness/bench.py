"""Protocol names and the throughput guard shared across the harness.

:func:`config_for` is the one parser from a protocol name (``repro run
--protocol``, ``repro scale --protocols``, a served run spec) to a
:class:`~repro.harness.runner.ProtocolConfig`;
:func:`events_per_second` is the one place a count is divided by a
measured wall clock.
"""

from __future__ import annotations

from typing import Optional

from repro.dsm.overlap import ALL_MODES
from repro.harness.runner import ProtocolConfig

__all__ = ["PROTOCOL_NAMES", "config_for", "events_per_second"]

_TM_MODES = {mode.name.lower(): mode.name for mode in ALL_MODES}

# Every name config_for accepts, in the order error messages list them.
PROTOCOL_NAMES = tuple(_TM_MODES.values()) + ("aurc", "aurc+prefetch")


def config_for(protocol: str, prefetch: bool = False) -> ProtocolConfig:
    """Parse a protocol name, case-insensitively.

    The six TreadMarks overlap modes (``Base`` ... ``I+P+D``), ``aurc``
    and ``aurc+prefetch``.  ``prefetch`` turns on AURC prefetching and
    is ignored for TreadMarks, whose prefetching is part of the mode
    name.  Anything else raises ``ValueError`` naming every accepted
    name.
    """
    name = protocol.lower() if isinstance(protocol, str) else None
    if name == "aurc":
        return ProtocolConfig.aurc(prefetch=prefetch)
    if name == "aurc+prefetch":
        return ProtocolConfig.aurc(prefetch=True)
    mode = _TM_MODES.get(name)
    if mode is None:
        raise ValueError(f"unknown protocol {protocol!r}; choose from "
                         f"{', '.join(PROTOCOL_NAMES)}")
    return ProtocolConfig.treadmarks(mode)


def events_per_second(events: float, wall: Optional[float]) -> float:
    """Throughput with the degenerate-wall guard applied in one place.

    Every events/s (and cycles/s) figure in the harness divides a count
    by a measured wall clock that can legitimately be zero or missing
    (cached rows, sub-resolution timers); callers must use this helper
    instead of dividing inline.
    """
    if not wall or wall <= 0.0:
        return 0.0
    return events / wall
