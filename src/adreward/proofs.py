"""Schnorr signatures and Chaum-Pedersen (DLEQ) proofs.

One DLEQ prover and verifier serve every proof of equal discrete logs: a
payment request's proof of correct decryption, a pool member's partial
decryption and a VRF output. All are sigma protocols made non-interactive
with Fiat-Shamir; each proof type hashes under its own domain string so
transcripts cannot be replayed across protocols. Nonces are derived
deterministically from the secret and the transcript, which keeps every
proof reproducible for a fixed seed.

``dleq_verify_batch`` checks many DLEQ proofs under one domain at once with a
small-exponent test and a Legendre sign test. It is accept-only: True means
every proof passes ``dleq_verify`` except with probability at most 2^-126 per
seed, and a caller that gets False decides proof by proof with
``dleq_verify``.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from .elgamal import Ciphertext, KeyPair
from .encoding import dhash, encode_element, encode_scalar, hash_to_int
from .group import PrimeOrderGroup

SIG_DOMAIN = "adreward/schnorr-sig"
DECRYPT_DOMAIN = "adreward/decrypt-proof"
BATCH_DOMAIN = "adreward/dleq-batch"

_BATCH_COEFFICIENT_BYTES = 16  # 128-bit small exponents: a bad batch passes with probability 2^-128


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
    public1: int | None = None,
    public2: int | None = None,
) -> DleqProof:
    """Prove log_base1(base1^x) = log_base2(base2^x) for x = exponent.

    A caller that already holds base1^exponent or base2^exponent passes it as
    ``public1`` or ``public2``.
    """
    power1 = group.pow_g if base1 == group.g else functools.partial(group.power, base1)
    if public1 is None:
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


def dleq_verify_batch(group: PrimeOrderGroup, domain: str, statements: Sequence[tuple]) -> bool:
    """Accept-only check of many DLEQ proofs under one domain, each given as the arguments of ``dleq_verify``.

    Each statement is ``(base1, public1, base2, public2, proof, context)``.
    True means every proof passes ``dleq_verify``, except with probability at
    most 2^-126 per seed. False proves nothing by itself: it is also returned
    when some element lies outside [1, p-1], which ``dleq_verify`` may still
    accept, so a caller decides a refused batch proof by proof.

    1. Every proof's range and transcript hash are checked as ``dleq_verify``
       checks them.
    2. The seed hashes the domain and every challenge and response; each
       challenge already binds its statement and commitments. SHAKE-256 of
       the seed gives 128-bit coefficients r_j and s_j.
    3. Proof j passes when U_j = base1^z / (a public1^e) and V_j = base2^z /
       (b public2^e) are 1. The Legendre symbol of U_j is that of its "sign
       carrier" a base1^(z&1) public1^(e&1), and likewise for V_j;
       ``group.all_elements`` checks that all carriers are residues, so every
       U_j and V_j is a residue (wrong with probability at most 2^-128).
    4. Small-exponent test (Bellare, Garay and Rabin, EUROCRYPT 1998):
       prod(U_j^r_j V_j^s_j) = 1, checked as g^(sum r_j z_j) times one
       ``multi_exp`` over the other verification bases, merged where equal,
       against +-prod(a_j^r_j b_j^s_j). Exponents are reduced mod q, which
       changes a unit's power by a sign only, so equality is up to sign; since
       the signs were checked in step 3, a product that is -1 cannot be a
       residue. If some U_j or V_j is a residue other than 1, the test passes
       with probability at most 2^-128: the residues have prime order q >
       2^128, so at most one value of its coefficient balances the product.

    The two failure chances add up to 2^-127, inside the 2^-126 stated
    above. If every proof passes ``dleq_verify`` and every element is in
    range, the result is True.
    """
    p, q = group.p, group.q
    for base1, public1, base2, public2, proof, context in statements:
        a, b, e, z = proof.commitment_a, proof.commitment_b, proof.challenge, proof.response
        if not all(0 < v < p for v in (base1, public1, base2, public2, a, b)):
            return False
        if not (0 <= e < q and 0 <= z < q):
            return False
        if _dleq_transcript(group, domain, base1, public1, base2, public2, a, b, context) != e:
            return False
    seed = dhash(
        BATCH_DOMAIN,
        domain.encode(),
        b"".join(encode_scalar(proof.challenge) + encode_scalar(proof.response) for *_, proof, _ in statements),
    )
    width = _BATCH_COEFFICIENT_BYTES
    coefficients = hashlib.shake_256(seed).digest(2 * width * len(statements))
    carriers = []
    verification: dict[int, int] = {}  # base -> exponent on the side of base1^z and base2^z
    commitments: dict[int, int] = {}  # a_j and b_j -> coefficient
    for j, (base1, public1, base2, public2, proof, _) in enumerate(statements):
        a, b, e, z = proof.commitment_a, proof.commitment_b, proof.challenge, proof.response
        r = int.from_bytes(coefficients[2 * j * width:(2 * j + 1) * width], "little")
        s = int.from_bytes(coefficients[(2 * j + 1) * width:(2 * j + 2) * width], "little")
        carriers.append(a * (base1 if z & 1 else 1) * (public1 if e & 1 else 1) % p)
        carriers.append(b * (base2 if z & 1 else 1) * (public2 if e & 1 else 1) % p)
        for base, exponent in ((base1, r * z), (public1, -r * e), (base2, s * z), (public2, -s * e)):
            verification[base] = verification.get(base, 0) + exponent
        commitments[a] = commitments.get(a, 0) + r
        commitments[b] = commitments.get(b, 0) + s
    if not group.all_elements(carriers, seed):
        return False
    lhs = group.pow_g(verification.pop(group.g, 0))
    lhs = lhs * group.multi_exp((base, exponent % q) for base, exponent in verification.items()) % p
    rhs = group.multi_exp(commitments.items())
    return lhs == rhs or lhs == p - rhs


def _decryption_context(group: PrimeOrderGroup, c: Ciphertext, m: int) -> tuple[bytes, int]:
    """The DLEQ context and public2 of the claim that c decrypts to m: c2 / g^m = c1^sk.

    The claimed g^m goes into the context because the DLEQ nonce hashes the
    context but not public2: without it, proofs over one ciphertext for two
    plaintexts would share a nonce and reveal sk.
    """
    plaintext_elem = group.pow_g(m)
    return c.to_bytes() + encode_element(plaintext_elem), group.div(c.c2, plaintext_elem)


def prove_decryption(group: PrimeOrderGroup, key: KeyPair, c: Ciphertext, m: int) -> DleqProof:
    """Prove that c decrypts to m under ``key``."""
    context, public2 = _decryption_context(group, c, m)
    return dleq_prove(group, DECRYPT_DOMAIN, group.g, c.c1, key.sk, context=context, public1=key.pk, public2=public2)


def verify_decryption(group: PrimeOrderGroup, pk: int, c: Ciphertext, m: int, proof: DleqProof) -> bool:
    if m < 0:
        return False
    context, public2 = _decryption_context(group, c, m)
    return dleq_verify(group, DECRYPT_DOMAIN, group.g, pk, c.c1, public2, proof, context=context)


def aggregate_message(user_pk: int, ciphertext: Ciphertext) -> bytes:
    """Canonical bytes the consortium signs when it stores a reward aggregate."""
    return dhash("adreward/aggregate-msg", encode_element(user_pk), ciphertext.to_bytes())
