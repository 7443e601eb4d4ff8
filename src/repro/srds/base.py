"""SRDS — succinctly reconstructed distributed signatures (Def. 2.1/2.2).

An SRDS scheme for ``n`` (virtual) parties is a quintuple

    (Setup, KeyGen, Sign, Aggregate, Verify)

where ``Aggregate`` decomposes into a deterministic filter ``Aggregate1``
(which may read all verification keys) and a succinct combiner
``Aggregate2`` (which must not), per Definition 2.2.  Verification checks
that a signature was aggregated from a *large* number of base signatures
on the message — without the verifier ever learning *who* signed, which
is what separates SRDS from multi-/aggregate-/threshold signatures.

Following the remark after Def. 2.1, every signature (base or aggregated)
encodes the minimum and maximum virtual index that contributed to it;
``min_index``/``max_index`` are the paper's ``min(sigma)``/``max(sigma)``
and drive the planar range checks of step 5(c) in Fig. 3.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SignatureError
from repro.pki.registry import PKIMode


class SRDSSignature(abc.ABC):
    """Common surface of base and aggregated SRDS signatures.

    Concrete signatures are frozen dataclasses, and the wire classes
    cache their canonical bytes in the instance ``__dict__`` on the
    first :meth:`encode` (pi_ba charges one signature once per
    recipient).  The cache is not a dataclass field, so equality,
    hashing, ``repr`` and :func:`dataclasses.replace` ignore it; it is
    only sound because the objects are immutable — never mutate one
    after it has been encoded (``object.__setattr__`` included).
    """

    @property
    @abc.abstractmethod
    def min_index(self) -> int:
        """Smallest virtual index aggregated into this signature."""

    @property
    @abc.abstractmethod
    def max_index(self) -> int:
        """Largest virtual index aggregated into this signature."""

    @abc.abstractmethod
    def encode(self) -> bytes:
        """Canonical wire encoding (what the network meter charges)."""

    def size_bytes(self) -> int:
        """Wire size in bytes."""
        return len(self.encode())

    @property
    def is_base(self) -> bool:
        """Whether this is an un-aggregated base signature."""
        return self.min_index == self.max_index and self._base_marker()

    def _base_marker(self) -> bool:
        return False


@dataclass(frozen=True)
class PublicParameters:
    """Output of SRDS ``Setup``: scheme-specific opaque parameters.

    ``num_parties`` is the number of *virtual* parties the scheme was set
    up for (the remark after Def. 2.1: in the BA protocol this exceeds the
    number of real participants).  ``acceptance_threshold`` is the number
    of distinct base contributions a verifying aggregate must attest to.
    """

    num_parties: int
    security_bits: int
    acceptance_threshold: int
    extra: Dict[str, object]


class SRDSScheme(abc.ABC):
    """The abstract SRDS scheme interface (Def. 2.1).

    Concrete schemes:

    * :class:`repro.srds.owf.OwfSRDS` — OWF + trusted PKI (Thm 2.7);
    * :class:`repro.srds.snark_based.SnarkSRDS` — CRH + SNARK + bare PKI
      and CRS (Thm 2.8).
    """

    # -- metadata used by Table 1 ------------------------------------------

    #: Human-readable scheme name.
    name: str = "abstract-srds"
    #: The PKI model the scheme's security proofs live in.
    pki_mode: PKIMode = PKIMode.TRUSTED
    #: The cryptographic assumptions (Table 1 column).
    assumptions: str = ""
    #: Whether the scheme additionally consumes a CRS.
    needs_crs: bool = False

    # -- Def. 2.1 algorithms --------------------------------------------------

    @abc.abstractmethod
    def setup(self, num_parties: int, rng) -> PublicParameters:
        """``Setup(1^kappa, 1^n) -> pp``."""

    @abc.abstractmethod
    def keygen(self, pp: PublicParameters, rng) -> Tuple[bytes, object]:
        """``KeyGen(pp) -> (vk, sk)``.

        ``vk`` is the published verification-key bytes; ``sk`` is an
        opaque signing handle (``None`` encodes "cannot sign", which the
        OWF scheme's oblivious keys use).
        """

    @abc.abstractmethod
    def sign(
        self,
        pp: PublicParameters,
        index: int,
        signing_key: object,
        message: bytes,
    ) -> Optional[SRDSSignature]:
        """``Sign(pp, i, sk, m) -> sigma`` (or ``None`` for bottom)."""

    @abc.abstractmethod
    def aggregate1(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> List[SRDSSignature]:
        """The deterministic filter ``Aggregate1`` of Def. 2.2.

        Drops invalid/duplicate contributions using the verification
        keys; the surviving set ``S_sig`` has polylog size and is the
        only input (besides ``pp`` and ``m``) to :meth:`aggregate2`.
        """

    @abc.abstractmethod
    def aggregate2(
        self,
        pp: PublicParameters,
        message: bytes,
        filtered: Sequence[SRDSSignature],
    ) -> Optional[SRDSSignature]:
        """The succinct combiner ``Aggregate2`` of Def. 2.2.

        Must not consult the verification-key vector (its circuit size is
        required to be polylog; the key vector alone is Theta(n)).
        Returns ``None`` for bottom when the filtered set is empty.
        """

    @abc.abstractmethod
    def verify(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signature: SRDSSignature,
    ) -> bool:
        """``Verify(pp, {vk}, m, sigma) -> {0, 1}``."""

    # -- derived conveniences --------------------------------------------------

    def aggregate(
        self,
        pp: PublicParameters,
        verification_keys: Dict[int, bytes],
        message: bytes,
        signatures: Sequence[SRDSSignature],
    ) -> Optional[SRDSSignature]:
        """``Aggregate = Aggregate2 . Aggregate1`` (Def. 2.2)."""
        filtered = self.aggregate1(pp, verification_keys, message, signatures)
        return self.aggregate2(pp, message, filtered)

    def describe(self) -> Dict[str, str]:
        """Metadata row used by the Table-1 reproduction."""
        return {
            "scheme": self.name,
            "setup": self.pki_mode.value + ("+crs" if self.needs_crs else ""),
            "assumptions": self.assumptions,
        }


def check_index_range(
    signature: SRDSSignature, lo: int, hi: int
) -> bool:
    """Whether a signature's contribution range lies inside ``[lo, hi)``.

    This is the step-5(c) check of Fig. 3 that, together with the planar
    ordering of virtual ids, prevents the same base signature from being
    aggregated through two different tree branches.
    """
    return lo <= signature.min_index and signature.max_index < hi


def ensure_same_message_space(message: bytes) -> bytes:
    """Validate a message (the scheme's message space M is all bytes)."""
    if not isinstance(message, (bytes, bytearray)):
        raise SignatureError("SRDS messages must be bytes")
    return bytes(message)
