"""Distributed key generation and threshold decryption for the consensus pool.

Joint-Feldman DKG: every dealer commits to a random degree-(k-1) polynomial
and sends each participant an encrypted evaluation. Shares from disqualified
dealers are dropped; the pool key is the product of the surviving constant
terms, and each participant's share is the sum of the evaluations it kept.
Partial decryptions carry DLEQ proofs so anybody can check them against the
public share commitments before combining with Lagrange coefficients. A row of
one member's partials is checked as one ``dleq_verify_batch``
(``first_rejected_partial``), and proof by proof only when the batch refuses.

Combining has two entry points. ``combine_partials`` takes partials nobody has
checked yet: it checks the ids and the threshold, verifies every partial and
then combines. ``lagrange_combine`` is the combination step alone, for partials
already verified elsewhere (the fund contract's ``post_analytics`` verifies
each posted partial on chain); its caller computes ``lagrange_at_zero`` once
per quorum and reuses it for every ciphertext that quorum decrypts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .elgamal import Ciphertext, KeyPair
from .encoding import DetRng, decode_scalar, encode_scalar
from .errors import InsufficientShares, InvalidConfig, InvalidPartial, NoQualifiedDealers
from .group import PrimeOrderGroup
from .hybrid import WrappedKey, hybrid_unwrap, hybrid_wrap
from .proofs import DleqProof, dleq_prove, dleq_verify, dleq_verify_batch

PARTIAL_DOMAIN = "adreward/partial-dec"


@dataclass(frozen=True)
class ThresholdConfig:
    n: int
    k: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise InvalidConfig(f"threshold {self.k} of {self.n} is not satisfiable")


@dataclass(frozen=True)
class DealerRound:
    participant_id: int
    coefficient_commitments: tuple[int, ...]
    encrypted_shares: dict[int, WrappedKey]


@dataclass(frozen=True)
class ThresholdKeyMaterial:
    pk_T: int
    share: int
    share_commitments: dict[int, int]  # participant id -> g^share_j, public


@dataclass(frozen=True)
class PartialDecryption:
    participant_id: int
    d_i: int
    proof: DleqProof


def dkg_deal(
    group: PrimeOrderGroup,
    cfg: ThresholdConfig,
    participant_id: int,
    recipient_pks: dict[int, int],
    rng: DetRng | bytes | int | str,
) -> DealerRound:
    """One dealer's contribution: Feldman commitments plus encrypted shares."""
    if not (1 <= participant_id <= cfg.n):
        raise InvalidConfig("dealer id outside 1..n")
    if set(recipient_pks) != set(range(1, cfg.n + 1)):
        raise InvalidConfig("need a recipient key for every participant")
    if not isinstance(rng, DetRng):
        rng = DetRng(rng)
    coefficients = [group.random_scalar(rng) for _ in range(cfg.k)]
    commitments = tuple(group.pow_g(c) for c in coefficients)
    encrypted = {}
    for j in range(1, cfg.n + 1):
        share = _poly_eval(coefficients, j, group.q)
        encrypted[j] = hybrid_wrap(group, recipient_pks[j], encode_scalar(share), rng.child(f"share-{j}"))
    return DealerRound(
        participant_id=participant_id,
        coefficient_commitments=commitments,
        encrypted_shares=encrypted,
    )


def _poly_eval(coefficients: list[int], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coefficients):
        acc = (acc * x + c) % q
    return acc


def open_share(group: PrimeOrderGroup, round_: DealerRound, my_id: int, my_key: KeyPair) -> int:
    return decode_scalar(hybrid_unwrap(group, my_key, round_.encrypted_shares[my_id]))


def commitment_eval(group: PrimeOrderGroup, commitments, x: int) -> int:
    """Evaluate a committed polynomial in the exponent: prod A_t^(x^t)."""
    acc = 1
    x_pow = 1
    for a in commitments:
        acc = acc * group.power(a, x_pow) % group.p
        x_pow = x_pow * x % group.q
    return acc


def dkg_verify_share(group: PrimeOrderGroup, round_: DealerRound, my_id: int, my_share: int) -> bool:
    return group.pow_g(my_share) == commitment_eval(group, round_.coefficient_commitments, my_id)


def dkg_finalize(
    group: PrimeOrderGroup,
    cfg: ThresholdConfig,
    rounds: list[DealerRound],
    received_shares: dict[int, dict[int, int]],
    disqualified: set[int] = frozenset(),
) -> dict[int, ThresholdKeyMaterial]:
    """Combine qualified dealer rounds into per-participant key material.

    received_shares maps recipient id -> {dealer id -> decrypted share}; every
    retained share is re-verified against the dealer's commitments.
    """
    qualified = [r for r in rounds if r.participant_id not in disqualified]
    if not qualified:
        raise NoQualifiedDealers("no dealer survived disqualification")
    pk_t = 1
    for r in qualified:
        pk_t = pk_t * r.coefficient_commitments[0] % group.p
    share_commitments = {}
    for j in range(1, cfg.n + 1):
        acc = 1
        for r in qualified:
            acc = acc * commitment_eval(group, r.coefficient_commitments, j) % group.p
        share_commitments[j] = acc
    material = {}
    for j in range(1, cfg.n + 1):
        total = 0
        for r in qualified:
            share = received_shares[j][r.participant_id]
            if not dkg_verify_share(group, r, j, share):
                raise InvalidConfig(f"retained share from dealer {r.participant_id} fails verification")
            total = (total + share) % group.q
        if group.pow_g(total) != share_commitments[j]:
            raise InvalidConfig("aggregated share does not match public commitment")
        material[j] = ThresholdKeyMaterial(pk_T=pk_t, share=total, share_commitments=share_commitments)
    return material


def partial_decrypt(
    group: PrimeOrderGroup, participant_id: int, share: int, share_commitment: int, c: Ciphertext,
) -> PartialDecryption:
    """The member's partial decryption of c, with its proof against ``share_commitment`` = g^share."""
    d = group.power(c.c1, share)
    proof = dleq_prove(
        group, PARTIAL_DOMAIN, group.g, c.c1, share, context=c.to_bytes(), public1=share_commitment, public2=d,
    )
    return PartialDecryption(participant_id=participant_id, d_i=d, proof=proof)


def partial_statement(
    group: PrimeOrderGroup, c: Ciphertext, partial: PartialDecryption, share_commitment: int,
) -> tuple:
    """The DLEQ statement of one partial: ``dleq_verify``'s arguments after the domain."""
    return group.g, share_commitment, c.c1, partial.d_i, partial.proof, c.to_bytes()


def verify_partial(
    group: PrimeOrderGroup,
    c: Ciphertext,
    partial: PartialDecryption,
    share_commitment: int,
) -> bool:
    """Check one partial's DLEQ proof against the member's share commitment."""
    return dleq_verify(group, PARTIAL_DOMAIN, *partial_statement(group, c, partial, share_commitment))


def first_rejected_partial(
    group: PrimeOrderGroup,
    cts: Sequence[Ciphertext],
    partials: Sequence[PartialDecryption],
    share_commitment: int,
) -> int | None:
    """Index of the first of one member's partials (paired with cts) that fails, or None.

    The row is checked as one ``dleq_verify_batch``; only a row that the batch
    does not accept is checked partial by partial, to find the index.
    """
    row = list(zip(cts, partials))
    statements = [partial_statement(group, c, partial, share_commitment) for c, partial in row]
    if dleq_verify_batch(group, PARTIAL_DOMAIN, statements):
        return None
    for index, (c, partial) in enumerate(row):
        if not verify_partial(group, c, partial, share_commitment):
            return index
    return None


def lagrange_at_zero(ids: list[int], q: int) -> dict[int, int]:
    coeffs = {}
    for i in ids:
        num, den = 1, 1
        for j in ids:
            if j == i:
                continue
            num = num * j % q
            den = den * (j - i) % q
        coeffs[i] = num * pow(den, -1, q) % q
    return coeffs


def lagrange_combine(
    group: PrimeOrderGroup,
    c: Ciphertext,
    partials: Sequence[PartialDecryption],
    coeffs: dict[int, int],
) -> int:
    """Recover g^m = c2 / prod(d_i^coeffs[i]) from partials that have already been verified.

    ``coeffs`` is ``lagrange_at_zero`` of exactly the partials' participant
    ids. Nothing is checked here: partials that nobody has verified go through
    ``combine_partials``.
    """
    combined = 1
    for p in partials:
        combined = combined * group.power(p.d_i, coeffs[p.participant_id]) % group.p
    return group.div(c.c2, combined)


def combine_partials(
    group: PrimeOrderGroup,
    cfg: ThresholdConfig,
    c: Ciphertext,
    partials: list[PartialDecryption],
    share_commitments: dict[int, int],
) -> int:
    """Recover g^m from at least k partial decryptions that nobody has verified yet.

    Checks that the ids are distinct and at least k, verifies every partial
    against its member's share commitment, then runs ``lagrange_combine``. A
    caller that combines many ciphertexts from the same members registers
    their share commitments with ``group.precomputed`` around the calls.
    """
    ids = [p.participant_id for p in partials]
    if len(set(ids)) != len(ids):
        raise InvalidPartial("duplicate participant ids")
    if len(partials) < cfg.k:
        raise InsufficientShares(f"{len(partials)} partials, threshold is {cfg.k}")
    for p in partials:
        commitment = share_commitments.get(p.participant_id)
        if commitment is None or not verify_partial(group, c, p, commitment):
            raise InvalidPartial(f"partial from participant {p.participant_id} rejected")
    return lagrange_combine(group, c, partials, lagrange_at_zero(ids, group.q))
