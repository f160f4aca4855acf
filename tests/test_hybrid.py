import hashlib
import hmac

import pytest

from adreward.elgamal import keygen
from adreward.encoding import DetRng, dhash, encode_element
from adreward.errors import AuthFailure, InvalidPublicKey
from adreward.group import P
from adreward.hybrid import (
    _seal,
    derive_shared_keys,
    hybrid_unwrap,
    hybrid_wrap,
    symmetric_open,
    symmetric_seal,
)


@pytest.fixture
def recipient(group):
    return keygen(group, DetRng("recipient"))


def test_wrap_unwrap_round_trip(group, recipient, rng):
    payload = b"per-ad policy entry: 20 coins"
    wrapped = hybrid_wrap(group, recipient.pk, payload, rng)
    assert hybrid_unwrap(group, recipient, wrapped) == payload


def test_single_bit_tamper_fails_authentication(group, recipient, rng):
    wrapped = hybrid_wrap(group, recipient.pk, b"secret bytes", rng)
    for pos in range(len(wrapped.sealed_payload)):
        tampered = bytearray(wrapped.sealed_payload)
        tampered[pos] ^= 0x01
        from adreward.hybrid import WrappedKey

        mutated = WrappedKey(kem_ciphertext=wrapped.kem_ciphertext, sealed_payload=bytes(tampered))
        with pytest.raises(AuthFailure):
            hybrid_unwrap(group, recipient, mutated)


def test_wrong_recipient_key_fails(group, recipient, rng):
    other = keygen(group, DetRng("wrong-recipient"))
    wrapped = hybrid_wrap(group, recipient.pk, b"payload", rng)
    with pytest.raises(AuthFailure):
        hybrid_unwrap(group, other, wrapped)


def test_empty_payload_rejected(group, recipient, rng):
    with pytest.raises(ValueError):
        hybrid_wrap(group, recipient.pk, b"", rng)


def test_wrap_is_seed_deterministic(group, recipient):
    a = hybrid_wrap(group, recipient.pk, b"x", DetRng("fixed"))
    b = hybrid_wrap(group, recipient.pk, b"x", DetRng("fixed"))
    assert a == b
    c = hybrid_wrap(group, recipient.pk, b"x", DetRng("different"))
    assert a != c


def test_symmetric_seal_open_and_tamper(rng):
    key = DetRng("sym-key").bytes(32)
    sealed = symmetric_seal(key, b"agreed policy value", rng)
    assert symmetric_open(key, sealed) == b"agreed policy value"
    tampered = bytearray(sealed)
    tampered[-1] ^= 0x80
    with pytest.raises(AuthFailure):
        symmetric_open(key, bytes(tampered))
    with pytest.raises(AuthFailure):
        symmetric_open(DetRng("other-key").bytes(32), sealed)


def test_dh_shared_key_agreement(group):
    a = keygen(group, DetRng("party-a"))
    b = keygen(group, DetRng("party-b"))
    labels = ["campaign/policy/3", "campaign/policy/4"]
    k_ab = derive_shared_keys(group, a.sk, b.pk, labels)
    k_ba = derive_shared_keys(group, b.sk, a.pk, iter(labels))
    assert k_ab == k_ba
    assert len(set(k_ab)) == 2
    # every key is hashed from the one shared element under its own label
    shared = encode_element(pow(b.pk, a.sk, P))
    assert k_ab == [dhash("adreward/dh-key", label.encode(), shared) for label in labels]
    assert derive_shared_keys(group, a.sk, b.pk, []) == []


@pytest.mark.parametrize("peer_pk", [0, 1, P - 1, P], ids=["0", "identity", "p-1", "p"])
def test_dh_refuses_a_peer_key_that_is_not_a_non_identity_element(group, peer_pk):
    own = keygen(group, DetRng("dh-own"))
    with pytest.raises(InvalidPublicKey):
        derive_shared_keys(group, own.sk, peer_pk, ["campaign/policy/0"])
    valid = keygen(group, DetRng("dh-valid-peer")).pk
    assert len(derive_shared_keys(group, own.sk, valid, ["campaign/policy/0"])) == 1


def _byte_loop_seal(key: bytes, nonce: bytes, payload: bytes) -> bytes:
    """The sealing cipher as first written: a keystream block at a time, XORed byte by byte."""
    enc_key = dhash("adreward/aead-enc", key)
    mac_key = dhash("adreward/aead-mac", key)
    ct = bytearray(len(payload))
    for offset in range(0, len(payload), 32):
        block = hashlib.sha256(enc_key + nonce + (offset // 32).to_bytes(4, "big")).digest()
        for i, byte in enumerate(payload[offset:offset + 32]):
            ct[offset + i] = byte ^ block[i]
    return nonce + bytes(ct) + hmac.new(mac_key, nonce + bytes(ct), hashlib.sha256).digest()


def test_sealed_bytes_match_the_byte_loop_reference_for_every_short_length():
    rng = DetRng("keystream-reference")
    key, nonce = rng.bytes(32), rng.bytes(16)
    for length in range(101):
        payload = rng.bytes(length)
        assert _seal(key, nonce, payload) == _byte_loop_seal(key, nonce, payload), length
