"""Exponential ElGamal: additively homomorphic encryption of small integers.

Plaintexts are encoded in the exponent (c2 carries g^m), so component-wise
multiplication of ciphertexts adds plaintexts and exponentiation by a public
constant scales them. Decryption yields g^m; the integer comes back through
baby-step/giant-step recovery, which is why plaintexts must stay below a
configured bound.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .encoding import DetRng, encode_element
from .errors import NotInRange, PlaintextTooLarge
from .group import PrimeOrderGroup

MAX_PLAINTEXT = 1 << 20


@dataclass(frozen=True)
class KeyPair:
    sk: int
    pk: int


@dataclass(frozen=True)
class Ciphertext:
    c1: int
    c2: int

    def to_bytes(self) -> bytes:
        return encode_element(self.c1) + encode_element(self.c2)


def keygen(group: PrimeOrderGroup, rng: DetRng | bytes | int | str) -> KeyPair:
    """Fresh key pair; sk is resampled until nonzero, pk = g^sk."""
    if not isinstance(rng, DetRng):
        rng = DetRng(rng)
    sk = group.random_scalar(rng)
    return KeyPair(sk=sk, pk=group.pow_g(sk))


def _check_plaintext(m: int, max_plaintext: int) -> None:
    if m < 0 or m > max_plaintext:
        raise PlaintextTooLarge(f"plaintext {m} outside [0, {max_plaintext}]")


def encrypt(
    group: PrimeOrderGroup,
    pk: int,
    m: int,
    r: int,
    max_plaintext: int = MAX_PLAINTEXT,
) -> Ciphertext:
    _check_plaintext(m, max_plaintext)
    c1 = group.pow_g(r)
    c2 = group.pow_g(m) * group.power(pk, r) % group.p
    return Ciphertext(c1=c1, c2=c2)


def encrypt_vector(
    group: PrimeOrderGroup,
    pk: int,
    values: list[int],
    rng: DetRng,
    max_plaintext: int = MAX_PLAINTEXT,
) -> list[Ciphertext]:
    return [encrypt(group, pk, v, group.random_scalar(rng), max_plaintext) for v in values]


def encrypt_vector_to_self(
    group: PrimeOrderGroup,
    key: KeyPair,
    values: list[int],
    rng: DetRng,
    max_plaintext: int = MAX_PLAINTEXT,
) -> list[Ciphertext]:
    """``encrypt_vector(group, key.pk, values, rng, max_plaintext)``, by the owner of the key.

    g^m * pk^r = g^(m + sk*r), so both components come from g's table. The
    randomness is drawn and the plaintexts checked in the same order.
    """
    out = []
    for v in values:
        r = group.random_scalar(rng)
        _check_plaintext(v, max_plaintext)
        out.append(Ciphertext(c1=group.pow_g(r), c2=group.pow_g(v + key.sk * r)))
    return out


def add_ciphertexts(group: PrimeOrderGroup, a: Ciphertext, b: Ciphertext) -> Ciphertext:
    # Caller contract: both ciphertexts under the same public key.
    p = group.p
    return Ciphertext(c1=a.c1 * b.c1 % p, c2=a.c2 * b.c2 % p)


def scalar_mul_ciphertext(group: PrimeOrderGroup, a: Ciphertext, k: int) -> Ciphertext:
    if k < 0:
        raise ValueError("scalar must be non-negative")
    return Ciphertext(c1=group.power(a.c1, k), c2=group.power(a.c2, k))


def sum_ciphertexts(group: PrimeOrderGroup, items: Iterable[Ciphertext]) -> Ciphertext:
    """The homomorphic sum of ``items``, as folding ``add_ciphertexts`` from (1, 1) gives it, with one object."""
    p = group.p
    c1 = c2 = 1
    for item in items:
        c1 = c1 * item.c1 % p
        c2 = c2 * item.c2 % p
    return Ciphertext(c1=c1, c2=c2)


def decrypt_to_element(group: PrimeOrderGroup, sk: int, c: Ciphertext) -> int:
    return group.div(c.c2, group.power(c.c1, sk))


def recover_plaintext(group: PrimeOrderGroup, elem: int, bound: int) -> int:
    m = group.dlog(elem, bound)
    if m is None:
        raise NotInRange(f"no plaintext at or below {bound}")
    return m


def decrypt(group: PrimeOrderGroup, sk: int, c: Ciphertext, bound: int = MAX_PLAINTEXT) -> int:
    return recover_plaintext(group, decrypt_to_element(group, sk, c), bound)
