"""Confidential payment notes with batched settlement verification.

A note hides its amount in a Pedersen commitment g^amount * h^r; the payer
keeps the opening (r, amount) and hands it to the recipient out-of-band so
underpayment can later be proven on-chain. A settlement batch proves that the
hidden amounts sum to the public withdrawal total with a single knowledge
proof over the aggregate blinding, so verification cost is dominated by a
fixed number of exponentiations rather than the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import dhash, encode_element, encode_scalar, hash_to_int
from .errors import AmountOutOfRange, TotalMismatch, UnknownTxRef
from .group import PrimeOrderGroup

BATCH_DOMAIN = "adreward/batch-proof"
DEFAULT_RANGE = 1 << 32


@dataclass(frozen=True)
class PaymentNote:
    tx_ref: bytes
    recipient: bytes
    commitment: int
    range_tag: int


@dataclass(frozen=True)
class SettlementBatch:
    notes: tuple[PaymentNote, ...]
    total: int
    proof_commitment: int  # h^w
    challenge: int
    response: int  # w + challenge * sum(r_i)


def note_ref(group: PrimeOrderGroup, commitment: int, recipient: bytes) -> bytes:
    return dhash("adreward/note-ref", encode_element(commitment), recipient)


def make_note(
    group: PrimeOrderGroup,
    recipient: bytes,
    amount: int,
    r: int,
    range_tag: int = DEFAULT_RANGE,
) -> PaymentNote:
    if amount < 0 or amount > range_tag:
        raise AmountOutOfRange(f"amount {amount} outside [0, {range_tag}]")
    commitment = group.pow_g(amount) * group.power(group.h, r) % group.p
    return PaymentNote(
        tx_ref=note_ref(group, commitment, recipient),
        recipient=recipient,
        commitment=commitment,
        range_tag=range_tag,
    )


def verify_opening(group: PrimeOrderGroup, note: PaymentNote, r: int, l: int) -> bool:
    if l < 0:
        return False
    return note.commitment == group.pow_g(l) * group.power(group.h, r) % group.p


def _batch_challenge(group: PrimeOrderGroup, notes, total: int, proof_commitment: int) -> int:
    blob = b"".join(encode_element(n.commitment) for n in notes)
    return group.hash_to_scalar(
        BATCH_DOMAIN,
        total.to_bytes(16, "big"),
        blob,
        encode_element(proof_commitment),
    )


def settle_batch(
    group: PrimeOrderGroup,
    entries: list[tuple[PaymentNote, int, int]],
    total: int,
) -> SettlementBatch:
    """Build a batch over (note, amount, r) entries whose amounts sum to total."""
    if sum(amount for _, amount, _ in entries) != total:
        raise TotalMismatch("batch amounts do not sum to the declared total")
    notes = tuple(note for note, _, _ in entries)
    aggregate_r = sum(r for _, _, r in entries) % group.q
    w = hash_to_int(
        "adreward/batch-nonce",
        encode_scalar(aggregate_r),
        total.to_bytes(16, "big"),
        *(n.tx_ref for n in notes),
    ) % group.q
    proof_commitment = group.power(group.h, w)
    challenge = _batch_challenge(group, notes, total, proof_commitment)
    response = (w + challenge * aggregate_r) % group.q
    return SettlementBatch(
        notes=notes,
        total=total,
        proof_commitment=proof_commitment,
        challenge=challenge,
        response=response,
    )


def verify_batch(group: PrimeOrderGroup, batch: SettlementBatch) -> bool:
    """Check prod(commitments) = g^total * h^R via the aggregate-blinding proof.

    The per-note work is one modular multiplication; everything else is a
    fixed number of exponentiations independent of the batch size.
    """
    if batch.total < 0:
        return False
    if not (0 <= batch.challenge < group.q and 0 <= batch.response < group.q):
        return False
    p = group.p
    product = 1
    for note in batch.notes:
        product = product * note.commitment % p
    if _batch_challenge(group, batch.notes, batch.total, batch.proof_commitment) != batch.challenge:
        return False
    # P = prod / g^total must equal h^R; the Schnorr relation checks knowledge of R
    blinded = product * group.inv(group.pow_g(batch.total)) % p
    lhs = group.power(group.h, batch.response)
    rhs = batch.proof_commitment * group.power(blinded, batch.challenge) % p
    return lhs == rhs


class PayerLedger:
    """The payer's private record of openings, one per issued note."""

    def __init__(self):
        self._openings: dict[bytes, tuple[bytes, int, int]] = {}

    def record(self, note: PaymentNote, amount: int, r: int) -> None:
        self._openings[note.tx_ref] = (note.recipient, amount, r)

    def opening_for(self, tx_ref: bytes) -> tuple[bytes, int, int]:
        if tx_ref not in self._openings:
            raise UnknownTxRef(f"no opening for {tx_ref.hex()}")
        return self._openings[tx_ref]

    def __len__(self) -> int:
        return len(self._openings)
