"""Schnorr signatures and Chaum-Pedersen (DLEQ) proofs.

One DLEQ prover and verifier serve every proof of equal discrete logs: a
payment request's proof of correct decryption, a pool member's partial
decryption and a VRF output. All are sigma protocols made non-interactive
with Fiat-Shamir; each proof type hashes under its own domain string so
transcripts cannot be replayed across protocols. Nonces are derived
deterministically from the secret and the transcript, which keeps every
proof reproducible for a fixed seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .elgamal import Ciphertext, KeyPair
from .encoding import dhash, encode_element, encode_scalar, hash_to_int
from .group import PrimeOrderGroup

SIG_DOMAIN = "adreward/schnorr-sig"
DECRYPT_DOMAIN = "adreward/decrypt-proof"


@dataclass(frozen=True)
class Signature:
    challenge: int
    response: int
    signer_pk: int

    def to_bytes(self) -> bytes:
        return encode_scalar(self.challenge) + encode_scalar(self.response) + encode_element(self.signer_pk)


def sign(group: PrimeOrderGroup, key: KeyPair, msg: bytes) -> Signature:
    sk, pk = key.sk, key.pk
    nonce = hash_to_int("adreward/sig-nonce", encode_scalar(sk), msg) % group.q
    big_r = group.pow_g(nonce)
    e = group.hash_to_scalar(SIG_DOMAIN, encode_element(pk), encode_element(big_r), msg)
    s = (nonce + e * sk) % group.q
    return Signature(challenge=e, response=s, signer_pk=pk)


def verify_sig(group: PrimeOrderGroup, pk: int, msg: bytes, sig: Signature) -> bool:
    if sig.signer_pk != pk or not group.is_element(pk):
        return False
    if not (0 <= sig.challenge < group.q and 0 <= sig.response < group.q):
        return False
    # R = g^s / pk^e must rebuild the challenged commitment; pk has order q (or is 1),
    # so pk^(q - e) is pk^-e without an inverse, and e = 0 gives pk^q = 1
    big_r = group.pow_g(sig.response) * group.power(pk, group.q - sig.challenge) % group.p
    e = group.hash_to_scalar(SIG_DOMAIN, encode_element(pk), encode_element(big_r), msg)
    return e == sig.challenge


@dataclass(frozen=True)
class DleqProof:
    """Equality of discrete logs of (public1, public2) under (base1, base2)."""

    commitment_a: int
    commitment_b: int
    challenge: int
    response: int


def _dleq_transcript(group, domain, base1, public1, base2, public2, a, b, context) -> int:
    return group.hash_to_scalar(
        domain,
        encode_element(base1),
        encode_element(public1),
        encode_element(base2),
        encode_element(public2),
        encode_element(a),
        encode_element(b),
        context,
    )


def dleq_prove(
    group: PrimeOrderGroup,
    domain: str,
    base1: int,
    base2: int,
    exponent: int,
    context: bytes = b"",
    public2: int | None = None,
) -> DleqProof:
    """Prove log_base1(base1^x) = log_base2(base2^x) for x = exponent.

    A caller that already holds base2^exponent passes it as ``public2``.
    """
    power1 = group.pow_g if base1 == group.g else functools.partial(group.power, base1)
    public1 = power1(exponent)
    if public2 is None:
        public2 = group.power(base2, exponent)
    w = hash_to_int(
        "adreward/dleq-nonce",
        domain.encode(),
        encode_scalar(exponent),
        encode_element(base1),
        encode_element(base2),
        context,
    ) % group.q
    a = power1(w)
    b = group.power(base2, w)
    e = _dleq_transcript(group, domain, base1, public1, base2, public2, a, b, context)
    z = (w + e * exponent) % group.q
    return DleqProof(commitment_a=a, commitment_b=b, challenge=e, response=z)


def dleq_verify(
    group: PrimeOrderGroup,
    domain: str,
    base1: int,
    public1: int,
    base2: int,
    public2: int,
    proof: DleqProof,
    context: bytes = b"",
) -> bool:
    """Check a DLEQ proof; accepts exactly what ``pow`` on both equations accepts.

    A caller that verifies many proofs against one public1 registers it with
    ``group.precomputed`` around the calls.
    """
    if not (0 <= proof.challenge < group.q and 0 <= proof.response < group.q):
        return False
    e = _dleq_transcript(group, domain, base1, public1, base2, public2, proof.commitment_a, proof.commitment_b, context)
    if e != proof.challenge:
        return False
    p = group.p
    z = proof.response
    lhs = group.pow_g(z) if base1 == group.g else group.power(base1, z)
    if lhs != proof.commitment_a * group.power(public1, e) % p:
        return False
    # base2^z == b * public2^e, checked as base2^z * public2^(p-1-e) == b in one
    # Straus pass; p-1-e inverts e for any unit mod p, inside the subgroup or not
    if public2 % p == 0:
        # public2^e is 0 (1 when e = 0) and has no inverse
        return group.power(base2, z) == (proof.commitment_b if e == 0 else 0) % p
    return group.multi_power(base2, z, public2, p - 1 - e) == proof.commitment_b % p


def _decryption_context(group: PrimeOrderGroup, c: Ciphertext, m: int) -> tuple[bytes, int]:
    """The DLEQ context and public2 of the claim that c decrypts to m: c2 / g^m = c1^sk.

    The claimed g^m goes into the context because the DLEQ nonce hashes the
    context but not public2: without it, proofs over one ciphertext for two
    plaintexts would share a nonce and reveal sk.
    """
    plaintext_elem = group.pow_g(m)
    return c.to_bytes() + encode_element(plaintext_elem), group.div(c.c2, plaintext_elem)


def prove_decryption(group: PrimeOrderGroup, sk: int, c: Ciphertext, m: int) -> DleqProof:
    """Prove that c decrypts to m under the secret key matching pk = g^sk."""
    context, public2 = _decryption_context(group, c, m)
    return dleq_prove(group, DECRYPT_DOMAIN, group.g, c.c1, sk, context=context, public2=public2)


def verify_decryption(group: PrimeOrderGroup, pk: int, c: Ciphertext, m: int, proof: DleqProof) -> bool:
    if m < 0:
        return False
    context, public2 = _decryption_context(group, c, m)
    return dleq_verify(group, DECRYPT_DOMAIN, group.g, pk, c.c1, public2, proof, context=context)


def aggregate_message(user_pk: int, ciphertext: Ciphertext) -> bytes:
    """Canonical bytes the consortium signs when it stores a reward aggregate."""
    return dhash("adreward/aggregate-msg", encode_element(user_pk), ciphertext.to_bytes())
