"""Canonical byte encodings, domain-separated hashing, and deterministic randomness.

Every hash in the protocol goes through :func:`dhash` with a distinct domain
string, so transcripts from one proof system can never be replayed in another.
Scalars and group elements encode to fixed 32-byte little-endian strings; these
encodings are the exact bytes hashed by transcripts and stored by the ledger.
"""

from __future__ import annotations

import hashlib

SCALAR_BYTES = 32
ELEMENT_BYTES = 32


def encode_scalar(value: int) -> bytes:
    return value.to_bytes(SCALAR_BYTES, "little")


def decode_scalar(data: bytes) -> int:
    if len(data) != SCALAR_BYTES:
        raise ValueError("scalar encoding must be 32 bytes")
    return int.from_bytes(data, "little")


def encode_element(value: int) -> bytes:
    return value.to_bytes(ELEMENT_BYTES, "little")


def decode_element(data: bytes) -> int:
    if len(data) != ELEMENT_BYTES:
        raise ValueError("element encoding must be 32 bytes")
    return int.from_bytes(data, "little")


def dhash(domain: str, *parts: bytes) -> bytes:
    """SHA-256 over length-framed parts under a domain tag."""
    h = hashlib.sha256()
    dom = domain.encode()
    h.update(len(dom).to_bytes(2, "big"))
    h.update(dom)
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


def hash_to_int(domain: str, *parts: bytes) -> int:
    """512-bit integer from two counter-separated digests (for unbiased mod q)."""
    base = dhash(domain, *parts)
    lo = hashlib.sha256(base + b"\x00").digest()
    hi = hashlib.sha256(base + b"\x01").digest()
    return int.from_bytes(lo + hi, "big")


class DetRng:
    """Deterministic byte stream derived from a seed via SHA-256 in counter mode.

    Used for every randomized operation so that a scenario seed reproduces the
    full run bit-exactly, independent of interpreter PRNG internals. `child`
    forks an independent stream, which keeps draws stable when unrelated parts
    of a scenario change.
    """

    def __init__(self, seed: bytes | int | str):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=False) if seed >= 0 else str(seed).encode()
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = hashlib.sha256(b"adreward/rng" + len(seed).to_bytes(4, "big") + seed).digest()
        self._counter = 0
        self._buffer = b""

    def child(self, label: str | int) -> "DetRng":
        tag = str(label).encode()
        return DetRng(self._key + b"/" + tag)

    def bytes(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def scalar(self, order: int) -> int:
        # 64 bytes mod order: bias is ~2^-258, irrelevant for a simulator
        return int.from_bytes(self.bytes(64), "big") % order

    def nonzero_scalar(self, order: int) -> int:
        while True:
            value = self.scalar(order)
            if value != 0:
                return value

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via rejection sampling."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        nbytes = (span.bit_length() + 7) // 8
        limit = (1 << (8 * nbytes)) // span * span
        while True:
            draw = int.from_bytes(self.bytes(nbytes), "big")
            if draw < limit:
                return lo + draw % span

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]
