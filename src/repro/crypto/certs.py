"""Workload identity: a toy-but-honest certificate authority.

The zero-trust layer (§4.1.1) needs real verification semantics — a
certificate must be checkable against its issuer, forgeries and expired
certificates must be rejected — but not real public-key math. We use
HMAC-SHA256 with a per-CA secret as the "signature": deterministic,
unforgeable without the CA secret, and fast.

The paper's key decision reproduced here: certificates (and the private
keys behind them) contain sensitive identity material, so *issuing and
using* them must stay on trusted nodes — authentication cannot be
deployed remotely, which is why Canal keeps mTLS origination in the
on-node proxy.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["Certificate", "CertificateAuthority", "PrivateKey"]


@dataclass(frozen=True)
class PrivateKey:
    """An opaque tenant secret; never leaves its owner in plaintext."""

    owner: str
    secret_hex: str

    @classmethod
    def generate(cls, owner: str, seed: str) -> "PrivateKey":
        digest = hashlib.sha256(f"pk:{owner}:{seed}".encode()).hexdigest()
        return cls(owner=owner, secret_hex=digest)


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a workload identity to its tenant."""

    identity: str          # e.g. "spiffe://tenant1/ns/default/sa/cart"
    tenant: str
    issuer: str
    not_after: float       # simulated-time expiry
    signature: str

    def payload(self) -> bytes:
        return f"{self.identity}|{self.tenant}|{self.issuer}|{self.not_after}".encode()


class CertificateAuthority:
    """Issues and verifies workload certificates for one trust domain."""

    def __init__(self, name: str, seed: str = "ca-secret"):
        self.name = name
        self._seed = seed
        self._generation = 0
        self._secret = self._derive_secret()
        self._issued: Dict[str, Certificate] = {}

    def _derive_secret(self) -> bytes:
        material = f"ca:{self.name}:{self._seed}"
        if self._generation:
            material += f":gen{self._generation}"
        return hashlib.sha256(material.encode()).digest()

    def _sign(self, payload: bytes) -> str:
        return hmac.new(self._secret, payload, hashlib.sha256).hexdigest()

    def rotate_secret(self) -> int:
        """Rotate to a fresh (deterministically derived) CA secret.

        This is the cert-rotation *failure* fault point: a correct
        rotation re-issues every outstanding certificate under the new
        secret, and skipping that step (as this method alone does)
        leaves every previously issued certificate unverifiable —
        exactly the production incident class where workloads keep
        presenting certs signed by a retired key. Returns the new
        generation number.
        """
        self._generation += 1
        self._secret = self._derive_secret()
        return self._generation

    def reissue_all(self, not_after: float) -> Dict[str, Certificate]:
        """Re-issue every outstanding certificate under the current
        secret (the recovery half of a rotation), valid until
        ``not_after``. Returns identity → fresh certificate."""
        reissued: Dict[str, Certificate] = {}
        for identity in sorted(self._issued):
            cert = self._issued[identity]
            reissued[identity] = self.issue(identity, cert.tenant, not_after)
        return reissued

    def issue(self, identity: str, tenant: str,
              not_after: float) -> Certificate:
        """Issue a certificate valid until simulated time ``not_after``."""
        unsigned = Certificate(identity=identity, tenant=tenant,
                               issuer=self.name, not_after=not_after,
                               signature="")
        cert = Certificate(identity=identity, tenant=tenant,
                           issuer=self.name, not_after=not_after,
                           signature=self._sign(unsigned.payload()))
        self._issued[identity] = cert
        return cert

    def verify(self, cert: Certificate, now: float) -> bool:
        """Check issuer, signature, and expiry."""
        if cert.issuer != self.name:
            return False
        if now > cert.not_after:
            return False
        expected = self._sign(cert.payload())
        return hmac.compare_digest(expected, cert.signature)

    def revoke(self, identity: str) -> None:
        self._issued.pop(identity, None)

    def issued_for(self, identity: str) -> Optional[Certificate]:
        return self._issued.get(identity)

    @property
    def issued_count(self) -> int:
        return len(self._issued)
