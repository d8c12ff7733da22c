"""Ambient telemetry state shared by every layer.

Instrumentation points in the mesh stack cannot thread a registry
through every constructor (proxies, gateways, and control planes are
built deep inside experiments), so they emit into the *ambient*
:class:`~repro.obs.telemetry.Telemetry` held here. The default registry
is **disabled** — emissions cost one early-returning method call — and
runs that want measurements install an enabled one::

    with use_telemetry(Telemetry(enabled=True)) as t:
        run("fig11")
    print(t.total("mesh_requests_total"))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .telemetry import Telemetry

__all__ = [
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
]

_telemetry = Telemetry(enabled=False)


def get_telemetry() -> Telemetry:
    """The ambient registry every instrumentation point emits into."""
    return _telemetry


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` as ambient; returns the previous registry."""
    global _telemetry
    previous, _telemetry = _telemetry, telemetry
    return previous


@contextmanager
def use_telemetry(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Scope an (enabled, by default) registry over a ``with`` block."""
    installed = telemetry if telemetry is not None else Telemetry(enabled=True)
    previous = set_telemetry(installed)
    try:
        yield installed
    finally:
        set_telemetry(previous)
