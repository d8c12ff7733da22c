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
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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


def _payload(identity: str, tenant: str, issuer: str,
             not_after: float) -> bytes:
    return f"{identity}|{tenant}|{issuer}|{not_after}".encode()


def _require_finite(name: str, value: float) -> None:
    # ``now > nan`` is False, so a NaN expiry would never expire and a
    # NaN clock would pass every expiry check.
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite time, got {value!r}")


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a workload identity to its tenant."""

    identity: str          # e.g. "spiffe://tenant1/ns/default/sa/cart"
    tenant: str
    issuer: str
    not_after: float       # simulated-time expiry
    signature: str

    def payload(self) -> bytes:
        return _payload(self.identity, self.tenant, self.issuer,
                        self.not_after)


class CertificateAuthority:
    """Issues and verifies workload certificates for one trust domain.

    ``_issued`` maps each identity to its current certificate and the
    secret generation that signed it. It is also the workload
    certificate cache (:meth:`workload_certificate`), and it lets
    :meth:`verify` skip the HMAC for exactly that object: a certificate
    that *is* the current record, signed under the current generation,
    was signed by this CA with the current secret. Anything else — a
    forgery, an equal-field copy, an older or pre-rotation certificate
    — is checked by HMAC.
    """

    def __init__(self, name: str, seed: str = "ca-secret"):
        self.name = name
        self._seed = seed
        self._generation = 0
        self._secret = self._derive_secret()
        self._issued: Dict[str, Tuple[Certificate, int]] = {}

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
        _require_finite("not_after", not_after)
        reissued: Dict[str, Certificate] = {}
        for identity in sorted(self._issued):
            cert = self._issued[identity][0]
            reissued[identity] = self.issue(identity, cert.tenant, not_after)
        return reissued

    def issue(self, identity: str, tenant: str,
              not_after: float) -> Certificate:
        """Issue a certificate valid until simulated time ``not_after``."""
        _require_finite("not_after", not_after)
        cert = Certificate(
            identity=identity, tenant=tenant, issuer=self.name,
            not_after=not_after,
            signature=self._sign(_payload(identity, tenant, self.name,
                                          not_after)))
        self._issued[identity] = (cert, self._generation)
        return cert

    def workload_certificate(self, identity: str, tenant: str, now: float,
                             ttl_s: float) -> Certificate:
        """The certificate a workload presents at ``now``.

        Issued once per identity, as an SDS-delivered SVID is, and
        reused while it is unexpired and signed under the current
        secret. After expiry or a rotation it is re-issued, valid for
        ``ttl_s`` from ``now``.
        """
        record = self._issued.get(identity)
        if record is not None:
            cert, generation = record
            if generation == self._generation and now <= cert.not_after:
                return cert
        return self.issue(identity, tenant, now + ttl_s)

    def verify(self, cert: Certificate, now: float) -> bool:
        """Check issuer, expiry, and signature."""
        _require_finite("now", now)
        if cert.issuer != self.name:
            return False
        if now > cert.not_after:
            return False
        record = self._issued.get(cert.identity)
        if (record is not None and record[0] is cert
                and record[1] == self._generation):
            return True
        expected = self._sign(cert.payload())
        # As bytes: ``compare_digest`` rejects non-ASCII str operands.
        return hmac.compare_digest(expected.encode(),
                                   cert.signature.encode())

    def revoke(self, identity: str) -> None:
        self._issued.pop(identity, None)

    def issued_for(self, identity: str) -> Optional[Certificate]:
        record = self._issued.get(identity)
        return None if record is None else record[0]

    @property
    def issued_count(self) -> int:
        return len(self._issued)
