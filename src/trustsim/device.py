"""Device-side composition: anchor + boot chain + credential wallet.

Every scenario device is one of these. The default chain measures the
platform stages and the application components the scenario cares about
(policy enforcer, VSIM, prepaid client, POS client) so their integrity is
part of every quote. Verifier-side reference measurements come from a
chain alone (reference_db_for), never from a provisioned device.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import boot as mb
from .anchor import Manufacturer, TrustAnchor
from .attestation import AttestationChallenge, AttestationResponse
from .crypto import Rng
from .privacy_ca import CredentialWallet, PrivacyCa

BASE_CHAIN = (
    ("crtm", b"crtm-code-v1"),
    ("bios", b"bios-code-v1"),
    ("os", b"trusted-os-v1"),
)


def standard_chain(extra_components=()) -> list:
    """Boot chain of the stock platform plus scenario app components."""
    return mb.make_chain(list(BASE_CHAIN) + list(extra_components))


@dataclass
class TrustedDevice:
    device_id: str
    anchor: TrustAnchor
    chain: list
    log: mb.MeasurementLog | None = None
    wallet: CredentialWallet | None = None
    identity: str | None = None  # the identity-bearing network credential holder

    @classmethod
    def provision(
        cls,
        device_id: str,
        rng: Rng,
        manufacturer: Manufacturer,
        chain=None,
        identity: str | None = None,
    ) -> "TrustedDevice":
        anchor = TrustAnchor.manufacture(device_id, rng.fork(f"anchor:{device_id}"), manufacturer)
        return cls(
            device_id=device_id,
            anchor=anchor,
            chain=list(chain) if chain is not None else standard_chain(),
            identity=identity,
        )

    def tamper(self, component_name: str, new_payload: bytes) -> None:
        """Pre-boot supply-chain attack on one measured component."""
        self.chain = mb.tamper(self.chain, component_name, new_payload)

    def boot(self) -> mb.MeasurementLog:
        self.log = mb.boot(self.anchor, self.chain)
        return self.log

    def attach_wallet(self, pca: PrivacyCa, batch_size: int) -> CredentialWallet:
        self.wallet = CredentialWallet(self.anchor, pca, batch_size=batch_size)
        self.wallet.enroll()
        return self.wallet

    def respond(self, challenge: AttestationChallenge) -> AttestationResponse:
        """Answer a challenge with the next one-time credential."""
        if self.log is None:
            raise RuntimeError(f"{self.device_id} has not booted")
        if self.wallet is None:
            raise RuntimeError(f"{self.device_id} has no credential wallet")
        record, cert = self.wallet.take()
        quote = self.anchor.quote(record.aik_id, challenge.pcr_selection, challenge.nonce)
        return AttestationResponse(quote=quote, log=self.log, certificate=cert)


def reference_db_for(chain) -> dict:
    """Verifier-side expected measurements of an honest boot chain:
    component name -> measurement hex."""
    return {e.component: e.measurement for e in mb.measure(chain).entries}
