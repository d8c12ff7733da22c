"""Flow identifiers: the five-tuple that ECMP and bucket tables hash.

Flows here are simulation records, not byte buffers. A
:class:`FiveTuple` names a connection, and :meth:`FiveTuple.flow_hash`
gives the deterministic hash that the stateless ECMP router and the
Beamer bucket tables dispatch on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

__all__ = ["FiveTuple", "TCP"]

TCP = "tcp"


@dataclass(frozen=True)
class FiveTuple:
    """The classic connection identifier."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str = TCP

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port out of range: {port}")

    def flow_hash(self, salt: int = 0) -> int:
        """Deterministic 32-bit hash, stable across runs and processes.

        ECMP routers and Beamer bucket tables hash on this; determinism
        matters so that tests of session consistency are exact.
        """
        key = (f"{self.src_ip}:{self.src_port}>"
               f"{self.dst_ip}:{self.dst_port}/{self.protocol}#{salt}")
        return zlib.crc32(key.encode("ascii"))
