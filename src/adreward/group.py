"""Prime-order group used by every cryptographic primitive in the package.

The group is the order-q subgroup of quadratic residues modulo a 255-bit safe
prime p = 2q + 1, which gives exactly what the protocol needs: prime order,
canonical 32-byte element encodings, and two generators g, h with unknown
relative discrete log (h is derived by hashing into the group). Exponentiation
is CPython's C-level ``pow``, with Straus' simultaneous exponentiation for
products of two powers (``multi_power``), a bucket multi-exponentiation for
products of many (``multi_exp``, which batch verification uses) and fixed-base
comb tables (Lim and Lee, CRYPTO '94; see ``FixedBaseTable``) for bases that
are raised to many exponents:

* g has one table for the life of the group, since g is by far the hottest
  base (key generation, encryption, transcript commitments); a user encrypts
  under their own key from it too, as g^m * pk^r = g^(m + sk*r);
* any other base gets a table only inside a ``with group.precomputed(base):``
  scope, which ``power`` and ``is_element`` consult and which is emptied again
  when the scope ends. A campaign registers, per phase, the keys that the
  phase raises about once per ad or per user (``scenario.Campaign`` names the
  three scopes): phase 1 the consortium key, to which every policy key is
  wrapped, and the facilitator's account key, which signs every setup
  transaction; the user phases the consortium key and the pool key; settlement
  h, under which every payment note is committed and opened, and the
  facilitator's key, which signs every ``payment_processed``. Each analytics
  sum's c1 is registered while every pool member decrypts that sum
  (``actors.analytics_round``), since each member raises it twice. Rows of
  partial decryptions are checked in batches, which raise each share
  commitment once and need no table.

A table holds 4 x 256 integers (68 KiB) and costs about as much to build as
four or five full ``pow`` calls. A power takes about 39 modular
multiplications, against some 60 for a 4-bit window table of the same size.
Exponents below 2^16 go to ``pow``.

Membership in the subgroup is the Legendre symbol, which for this p is
computed faster by the Jacobi-symbol loop than by ``pow(a, q, p)``.
``all_elements`` checks many values at once with 128 symbols of random subset
products, wrong only when some value is not an element and then with
probability at most 2^-128. ``proofs.dleq_verify_batch`` uses it and
``multi_exp`` to accept a batch of DLEQ proofs with error at most 2^-126 per
seed; its callers check a refused batch proof by proof.

``multi_power`` stays for two bases: on a 2-core host (Python 3.11, median of
7 x 300 calls with 255-bit exponents) it took 182 us per call where
``multi_exp`` took 386 us, because a bucket method spends two multiplications
per bucket and window however few bases it has.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager

from .encoding import encode_element, hash_to_int

# Largest 255-bit safe prime: both p and (p-1)/2 are prime. The subgroup of
# quadratic residues mod p therefore has prime order q = (p-1)/2.
P = (1 << 255) - 46545
Q = (P - 1) // 2

_WINDOW_BITS = 4

_SMALL_EXPONENT = 1 << 16  # below this, C ``pow`` beats a comb table

_SIGN_TESTS = 128  # Legendre symbols per ``all_elements`` call: a non-element escapes with probability 2^-128
_SIGN_BLOCK = 5  # values per block of precomputed subset products in ``all_elements``
_SIGN_SUBSETS = 1 << _SIGN_BLOCK

# shifts and masks of the three delta swaps of an 8 x 8 bit transpose,
# repeated in each of the four 64-bit lanes of a 256-bit integer
_TRANSPOSE = tuple(
    (shift, sum(mask << (64 * lane) for lane in range(4)))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


class PrimeOrderGroup:
    """Multiplicative group of quadratic residues mod a safe prime."""

    def __init__(self, p: int = P, q: int = Q, g: int = 4):
        self.p = p
        self.q = q
        self.g = g
        self.identity = 1
        self.h = self.hash_to_element("adreward/generator-h", encode_element(g))
        self._g_table: FixedBaseTable | None = None
        self._tables: dict[int, FixedBaseTable] = {}  # bases of the open precomputed() scopes
        self._bsgs_tables: dict[int, dict[int, int]] = {}
        self._lock = threading.Lock()

    # -- core operations -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def power(self, base: int, exponent: int) -> int:
        table = self._tables.get(base)
        if table is not None:
            return table.power(exponent)
        return pow(base, exponent % self.q, self.p)

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return a * pow(b, -1, self.p) % self.p

    def pow_g(self, exponent: int) -> int:
        """g^exponent via a lazily built fixed-base table."""
        table = self._g_table
        if table is None:
            with self._lock:
                if self._g_table is None:
                    self._g_table = FixedBaseTable(self, self.g)
                table = self._g_table
        return table.power(exponent)

    @contextmanager
    def precomputed(self, *bases: int) -> Iterator[None]:
        """Serve ``power`` and ``is_element`` for these bases from fixed-base tables until the scope ends.

        Every base must be a group element. A base that another open scope has
        already registered keeps that scope's table; on exit, normal or not,
        only the tables this scope added are dropped. A base whose table is
        dropped while still in use falls back to ``pow`` with the same result.
        """
        for base in bases:
            if not self.is_element(base):
                raise ValueError(f"cannot precompute powers of a non-element: {base}")
        added = []
        with self._lock:
            for base in bases:
                if base not in self._tables:
                    self._tables[base] = FixedBaseTable(self, base)
                    added.append(base)
        try:
            yield
        finally:
            with self._lock:
                for base in added:
                    del self._tables[base]

    def multi_power(self, b1: int, e1: int, b2: int, e2: int) -> int:
        """b1^e1 * b2^e2 mod p for non-negative exponents, as two ``pow`` calls give it.

        Straus' simultaneous exponentiation: both exponents are read in
        interleaved 4-bit windows, so the two powers share one chain of
        squarings. Exponents are not reduced mod q, which keeps the result
        exact for bases outside the subgroup.
        """
        p = self.p
        t1 = [1, b1 % p]
        t2 = [1, b2 % p]
        for _ in range(2, 16):
            t1.append(t1[-1] * t1[1] % p)
            t2.append(t2[-1] * t2[1] % p)
        acc = 1
        top = max(e1.bit_length(), e2.bit_length())
        for shift in range((top - 1) // _WINDOW_BITS * _WINDOW_BITS, -1, -_WINDOW_BITS):
            acc = pow(acc, 16, p)
            d1 = (e1 >> shift) & 0xF
            d2 = (e2 >> shift) & 0xF
            if d1:
                acc = acc * t1[d1] % p
            if d2:
                acc = acc * t2[d2] % p
        return acc

    def multi_exp(self, pairs: Iterable[tuple[int, int]]) -> int:
        """Product of base^exponent mod p over (base, exponent) pairs, as ``pow`` on each gives it.

        Bucket (Pippenger) multi-exponentiation: the exponents are read in
        c-bit windows from the top; in each window every base is multiplied
        into the bucket of its digit, and the buckets are combined as
        prod(bucket_k^k) with two multiplications per bucket. The window c
        minimises (pairs + 2^(c+1)) / c, so the cost per exponent bit falls
        as pairs are added. Exponents must be non-negative and are not
        reduced mod q, which keeps the result exact for bases outside the
        subgroup; bases may be any integers.
        """
        p = self.p
        pairs = [(base % p, exponent) for base, exponent in pairs if exponent]
        if not pairs:
            return 1
        c = _bucket_window(len(pairs))
        mask = (1 << c) - 1
        top = max(exponent.bit_length() for _, exponent in pairs)
        acc = 1
        for shift in range((top - 1) // c * c, -1, -c):
            acc = pow(acc, 1 << c, p)
            buckets = [1] * (mask + 1)
            for base, exponent in pairs:
                digit = (exponent >> shift) & mask
                if digit:
                    buckets[digit] = buckets[digit] * base % p
            # running = prod(buckets[k:]) multiplied in once per k gives prod(bucket_k^k)
            running = window = 1
            for bucket in reversed(buckets[1:]):
                if bucket != 1:
                    running = running * bucket % p
                if running != 1:
                    window = window * running % p
            acc = acc * window % p
        return acc

    # -- membership and sampling ----------------------------------------------

    def is_element(self, a: int) -> bool:
        if not 0 < a < self.p:
            return False
        # a registered base was checked when its scope opened
        return a in self._tables or _jacobi(a, self.p) == 1

    def all_elements(self, values: Sequence[int], seed: bytes) -> bool:
        """Whether every value is a group element; wrong only when some value is not, with probability at most 2^-128.

        Every value must lie in [1, p-1]. Up to 128 values then get one
        Legendre symbol each, which is exact. More values get 128 Legendre
        symbols of random subset products instead. The symbol is
        multiplicative, so taking one non-residue in or out of a subset flips
        the symbol of its product: if any value is a non-residue, each random
        subset product is a residue with probability exactly 1/2. The subsets
        are read from SHAKE-256 of the seed. The values are split into blocks
        of 5 whose 32 subset products are computed once, so a subset product
        costs one multiplication per block.
        """
        p = self.p
        if not all(0 < v < p for v in values):
            return False
        if len(values) <= _SIGN_TESTS:
            return all(_jacobi(v, p) == 1 for v in values)
        blocks = []
        for start in range(0, len(values), _SIGN_BLOCK):
            products = [1]
            for v in values[start:start + _SIGN_BLOCK]:
                products += [x * v % p for x in products]
            # a short last block repeats its products, which keeps its subsets uniform
            blocks.append(products * (_SIGN_SUBSETS // len(products)))
        n = len(blocks)
        # one byte per block and test, of which the low 5 bits pick the block's subset
        picks = hashlib.shake_256(b"adreward/subset-signs" + seed).digest(_SIGN_TESTS * n)
        mask = _SIGN_SUBSETS - 1
        for test in range(_SIGN_TESTS):
            acc = 1
            for products, pick in zip(blocks, picks[test * n:(test + 1) * n]):
                acc = acc * products[pick & mask] % p
            if _jacobi(acc, p) != 1:
                return False
        return True

    def random_scalar(self, rng) -> int:
        return rng.nonzero_scalar(self.q)

    def hash_to_element(self, domain: str, *parts: bytes) -> int:
        """Map bytes into the subgroup by squaring a hash-derived residue.

        Squaring lands in the quadratic residues; the preimage exponent stays
        unknown, so elements derived this way are independent generators.
        """
        counter = 0
        while True:
            raw = hash_to_int(domain, *parts, counter.to_bytes(4, "big")) % self.p
            elem = raw * raw % self.p
            if elem != 1 and elem != 0:
                return elem
            counter += 1

    def hash_to_scalar(self, domain: str, *parts: bytes) -> int:
        return hash_to_int(domain, *parts) % self.q

    # -- discrete-log recovery -------------------------------------------------

    def bsgs_table(self, table_size: int) -> dict[int, int]:
        """Baby-step table {g^i: i for i < table_size}, cached per size."""
        with self._lock:
            table = self._bsgs_tables.get(table_size)
            if table is None:
                table = {}
                acc = 1
                for i in range(table_size):
                    table.setdefault(acc, i)
                    acc = acc * self.g % self.p
                self._bsgs_tables[table_size] = table
        return table

    def dlog(self, element: int, bound: int) -> int | None:
        """Discrete log of element base g if it lies in [0, bound], else None.

        Baby-step/giant-step: O(sqrt(bound)) group operations.
        """
        if bound < 0:
            return None
        if element == 1:
            return 0
        table_size = math.isqrt(bound) + 1
        table = self.bsgs_table(table_size)
        giant = pow(self.inv(self.g), table_size, self.p)
        gamma = element
        p = self.p
        steps = bound // table_size + 1
        for j in range(steps + 1):
            i = table.get(gamma)
            if i is not None:
                m = j * table_size + i
                if m <= bound:
                    return m
                return None
            gamma = gamma * giant % p
        return None


def _bucket_window(pairs: int) -> int:
    """Window bits of a bucket multi-exponentiation: per exponent bit it costs (pairs + 2^(c+1)) / c multiplications."""
    return min(range(1, 17), key=lambda c: (pairs + (2 << c)) / c)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0: binary reduction with quadratic reciprocity.

    For a prime n it is the Legendre symbol, so for 0 < a < p it is 1 exactly
    when a is a quadratic residue, which is what ``pow(a, q, p) == 1`` tests.
    """
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        if twos:
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                sign = -sign
        if a & n & 3 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


class FixedBaseTable:
    """Lim-Lee comb table for repeated exponentiations of one base.

    An exponent below 2^256 is read as 8 teeth of 32 bits; column j gathers
    bit j of every tooth into an 8-bit index, and the power is the product of
    T[index_j]^(2^j), where T[i] = prod(base^(2^(32k)) for each bit k set in i).
    Columns 8s..8s+7 use sub-table s = T raised to 2^(8s), so one power is 8
    rounds of a squaring and 4 multiplications. The 4 sub-tables of 256
    entries hold 1,020 integers other than 1 (68 KiB). Building them takes
    248 squarings and 1,020 multiplications, about as long as four or five
    full ``pow`` calls, so a table pays off once a base is used more often
    than that: a campaign's user phases under the consortium and pool keys,
    or checking a pool member's row of partial decryptions. Exponents are
    reduced mod q; those below 2^16 go to ``pow``, which for them costs at
    most 16 squarings where the comb always runs its 8 rounds.
    """

    def __init__(self, group: PrimeOrderGroup, base: int):
        self.group = group
        self.base = base
        p = group.p
        # teeth[j] = base^(2^(8j)); sub-table s's tooth k is base^(2^(32k + 8s)) = teeth[4k + s]
        teeth = [base % p]
        for _ in range(31):
            teeth.append(pow(teeth[-1], 256, p))
        subtables = []
        for s in range(4):
            table = [1]  # subset products: table[i] = product of the teeth whose bit is set in i
            for k in range(8):
                tooth = teeth[4 * k + s]
                table += [x * tooth % p for x in table]
            subtables.append(table)
        self._subtables = subtables

    def power(self, exponent: int) -> int:
        group = self.group
        p = group.p
        e = exponent % group.q
        if e < _SMALL_EXPONENT:
            return pow(self.base, e, p)
        # Byte 4k + s of e is byte s of tooth k. Regrouped by s, each 64-bit
        # lane is an 8 x 8 bit matrix (row k = tooth k), and its transpose
        # puts column 8s + t's index in byte 8s + t.
        raw = e.to_bytes(32, "little")
        x = int.from_bytes(raw[0::4] + raw[1::4] + raw[2::4] + raw[3::4], "little")
        for shift, mask in _TRANSPOSE:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        index = x.to_bytes(32, "little")
        t0, t1, t2, t3 = self._subtables
        acc = 1
        for t in range(7, -1, -1):
            acc = acc * acc % p * t0[index[t]] % p * t1[index[t + 8]] % p * t2[index[t + 16]] % p * t3[index[t + 24]] % p
        return acc


_default_group: PrimeOrderGroup | None = None
_default_lock = threading.Lock()


def default_group() -> PrimeOrderGroup:
    global _default_group
    if _default_group is None:
        with _default_lock:
            if _default_group is None:
                _default_group = PrimeOrderGroup()
    return _default_group
