"""Hybrid public-key encryption: ElGamal KEM plus an authenticated stream cipher.

Wraps arbitrary byte payloads to a recipient group key. The KEM transports a
random group element whose hash keys an encrypt-then-MAC cipher built from
SHA-256 in counter mode with an HMAC tag. Any tamper of the sealed payload or
unwrapping with the wrong key fails authentication.
"""

from __future__ import annotations

import hashlib
import hmac
from collections.abc import Iterable
from dataclasses import dataclass

from .elgamal import Ciphertext, KeyPair
from .encoding import DetRng, dhash, encode_element
from .errors import AuthFailure, InvalidPublicKey
from .group import PrimeOrderGroup

_NONCE_BYTES = 16
_TAG_BYTES = 32
_BLOCK_BYTES = hashlib.sha256().digest_size


@dataclass(frozen=True)
class WrappedKey:
    kem_ciphertext: Ciphertext
    sealed_payload: bytes

    def to_bytes(self) -> bytes:
        return self.kem_ciphertext.to_bytes() + self.sealed_payload


def _keystream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR with SHA-256(key || nonce || counter) blocks, counter from 0, as one big-integer XOR."""
    blocks = -(-len(data) // _BLOCK_BYTES)
    stream = b"".join(hashlib.sha256(key + nonce + i.to_bytes(4, "big")).digest() for i in range(blocks))
    mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream[:len(data)], "big")
    return mixed.to_bytes(len(data), "big")


def _seal(key: bytes, nonce: bytes, payload: bytes) -> bytes:
    enc_key = dhash("adreward/aead-enc", key)
    mac_key = dhash("adreward/aead-mac", key)
    ct = _keystream_xor(enc_key, nonce, payload)
    tag = hmac.new(mac_key, nonce + ct, hashlib.sha256).digest()
    return nonce + ct + tag


def _open(key: bytes, sealed: bytes) -> bytes:
    if len(sealed) < _NONCE_BYTES + _TAG_BYTES:
        raise AuthFailure("sealed payload too short")
    nonce = sealed[:_NONCE_BYTES]
    ct = sealed[_NONCE_BYTES:-_TAG_BYTES]
    tag = sealed[-_TAG_BYTES:]
    enc_key = dhash("adreward/aead-enc", key)
    mac_key = dhash("adreward/aead-mac", key)
    expected = hmac.new(mac_key, nonce + ct, hashlib.sha256).digest()
    if not hmac.compare_digest(tag, expected):
        raise AuthFailure("authentication tag mismatch")
    return _keystream_xor(enc_key, nonce, ct)


def symmetric_seal(key: bytes, payload: bytes, rng: DetRng) -> bytes:
    """Authenticated encryption under a pre-shared 32-byte key."""
    if not payload:
        raise ValueError("payload must be non-empty")
    return _seal(key, rng.bytes(_NONCE_BYTES), payload)


def symmetric_open(key: bytes, sealed: bytes) -> bytes:
    return _open(key, sealed)


def derive_shared_keys(group: PrimeOrderGroup, own_sk: int, peer_pk: int, labels: Iterable[str]) -> list[bytes]:
    """Diffie-Hellman shared keys between two group key pairs, one per label.

    The shared element is computed once and every key is hashed from it under
    its own label. A peer key outside the group, or the identity, is refused:
    raised to any secret, 1 gives 1 and p - 1 gives +-1, so anyone could
    compute the "shared" keys.
    """
    if peer_pk == group.identity or not group.is_element(peer_pk):
        raise InvalidPublicKey(f"peer key is not a non-identity group element: {peer_pk}")
    shared = encode_element(group.power(peer_pk, own_sk))
    return [dhash("adreward/dh-key", label.encode(), shared) for label in labels]


def hybrid_wrap(
    group: PrimeOrderGroup,
    recipient_pk: int,
    payload: bytes,
    rng: DetRng | bytes | int | str,
) -> WrappedKey:
    if not payload:
        raise ValueError("payload must be non-empty")
    if not isinstance(rng, DetRng):
        rng = DetRng(rng)
    # KEM: ElGamal-encrypt a random group element, hash it into the data key
    t = group.random_scalar(rng)
    key_elem = group.pow_g(t)
    y = group.random_scalar(rng)
    kem = Ciphertext(c1=group.pow_g(y), c2=key_elem * group.power(recipient_pk, y) % group.p)
    key = dhash("adreward/kem-key", encode_element(key_elem), encode_element(recipient_pk))
    return WrappedKey(kem_ciphertext=kem, sealed_payload=_seal(key, rng.bytes(_NONCE_BYTES), payload))


def hybrid_unwrap(group: PrimeOrderGroup, recipient: KeyPair, wrapped: WrappedKey) -> bytes:
    kem = wrapped.kem_ciphertext
    key_elem = group.div(kem.c2, group.power(kem.c1, recipient.sk))
    key = dhash("adreward/kem-key", encode_element(key_elem), encode_element(recipient.pk))
    return _open(key, wrapped.sealed_payload)
