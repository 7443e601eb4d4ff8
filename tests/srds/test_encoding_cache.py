"""SRDS wire objects cache their canonical encoding.

pi_ba charges every wire message at its encoded size, and the same
immutable signature is re-charged once per committee member and
recipient, so each wire class keeps its bytes after the first
``encode()``.  The cache lives in the instance ``__dict__`` outside the
dataclass fields: it must never change equality, hashing, ``repr``,
pickling or ``dataclasses.replace``.
"""

import dataclasses
import pickle

import pytest

from repro.crypto.merkle import MerkleProof
from repro.crypto.snark import Proof
from repro.srds.owf import OwfAggregateSignature, OwfBaseSignature
from repro.srds.snark_based import (
    CertifiedBaseSignature,
    SnarkAggregateSignature,
    SnarkBaseSignature,
)


def _snark_base(index=3):
    return SnarkBaseSignature(index=index, signature_bytes=b"\x01" * 40)


def _certified():
    return CertifiedBaseSignature(
        base=_snark_base(),
        verification_key=b"\x02" * 33,
        inclusion_proof=MerkleProof(
            leaf_index=3,
            siblings=((b"\x03" * 32, True), (b"\x04" * 32, False)),
        ),
    )


def _snark_aggregate():
    return SnarkAggregateSignature(
        count=5, lo=0, hi=200, digest=b"\x05" * 32, vk_root=b"\x06" * 32,
        message_tag=b"\x07" * 16,
        proof=Proof(relation_name="srds/leaf-count", tag=b"\x08" * 32),
    )


def _owf_base(index=9):
    return OwfBaseSignature(index=index, ots_signature=b"\x09" * 64)


def _owf_aggregate():
    return OwfAggregateSignature(
        contributions=(_owf_base(1), _owf_base(130))
    )


#: (factory, a field to change, its new value) for each wire class.
CASES = {
    "SnarkBaseSignature": (_snark_base, "index", 300),
    "CertifiedBaseSignature": (_certified, "verification_key", b"\x0a" * 33),
    "SnarkAggregateSignature": (_snark_aggregate, "count", 6),
    "OwfBaseSignature": (_owf_base, "ots_signature", b"\x0b" * 64),
    "OwfAggregateSignature": (
        _owf_aggregate, "contributions", (_owf_base(2),)
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


class TestEncodingCache:
    def test_encode_matches_a_fresh_object(self, case):
        factory, _, _ = case
        warm = factory()
        first = warm.encode()
        assert warm.encode() is first  # served from the cache
        assert first == factory().encode()

    def test_eq_hash_repr_ignore_the_cache(self, case):
        factory, _, _ = case
        warm, cold = factory(), factory()
        warm.encode()
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_pickle_round_trip_keeps_the_bytes(self, case):
        factory, _, _ = case
        warm = factory()
        encoded = warm.encode()
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == warm
        assert clone.encode() == encoded

    def test_replace_yields_the_new_encoding(self, case):
        factory, field, value = case
        warm = factory()
        stale = warm.encode()
        changed = dataclasses.replace(warm, **{field: value})
        assert changed.encode() != stale
        assert changed.encode() == dataclasses.replace(
            factory(), **{field: value}
        ).encode()

    def test_cache_is_not_a_field(self, case):
        factory, _, _ = case
        warm = factory()
        warm.encode()
        names = {f.name for f in dataclasses.fields(warm)}
        assert "_encoded" not in names
        assert "_encoded" not in dataclasses.asdict(warm)
