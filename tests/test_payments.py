import dataclasses

import pytest

from adreward.encoding import DetRng, encode_element
from adreward.errors import AmountOutOfRange, TotalMismatch, UnknownTxRef
from adreward.payments import (
    PayerLedger,
    SettlementBatch,
    make_note,
    note_ref,
    settle_batch,
    verify_batch,
    verify_opening,
)


def _notes(group, count, seed="notes", amount_max=1 << 16):
    rng = DetRng(seed)
    entries = []
    for i in range(count):
        recipient = rng.bytes(20)
        amount = rng.randint(0, amount_max)
        r = group.random_scalar(rng)
        entries.append((make_note(group, recipient, amount, r), amount, r))
    return entries


def test_zero_amount_commitment_is_pure_blinding(group, rng):
    r = group.random_scalar(rng)
    note = make_note(group, b"\x01" * 20, 0, r)
    assert note.commitment == group.power(group.h, r)


def test_same_amount_different_blinding_hides(group, rng):
    r1, r2 = group.random_scalar(rng), group.random_scalar(rng)
    n1 = make_note(group, b"\x02" * 20, 50, r1)
    n2 = make_note(group, b"\x02" * 20, 50, r2)
    assert n1.commitment != n2.commitment


def test_opening_round_trip_and_mutations(group, rng):
    r = group.random_scalar(rng)
    note = make_note(group, b"\x03" * 20, 36, r)
    assert verify_opening(group, note, r, 36)
    assert not verify_opening(group, note, r, 37)
    assert not verify_opening(group, note, (r + 1) % group.q, 36)
    assert not verify_opening(group, note, r, -1)


def test_amount_range_enforced(group, rng):
    r = group.random_scalar(rng)
    with pytest.raises(AmountOutOfRange):
        make_note(group, b"\x04" * 20, -1, r)
    with pytest.raises(AmountOutOfRange):
        make_note(group, b"\x04" * 20, 1 << 40, r, range_tag=1 << 32)


def test_tx_ref_binds_commitment_and_recipient(group, rng):
    r = group.random_scalar(rng)
    note = make_note(group, b"\x05" * 20, 7, r)
    assert note.tx_ref == note_ref(group, note.commitment, b"\x05" * 20)
    other = make_note(group, b"\x06" * 20, 7, r)
    assert other.tx_ref != note.tx_ref


def test_batch_of_one(group):
    entries = _notes(group, 1)
    total = sum(a for _, a, _ in entries)
    batch = settle_batch(group, entries, total)
    assert verify_batch(group, batch)


def test_batch_of_800_random_amounts(group):
    entries = _notes(group, 800, seed="big-batch")
    total = sum(a for _, a, _ in entries)  # sum oracle
    batch = settle_batch(group, entries, total)
    assert verify_batch(group, batch)
    assert batch.total == total


def test_total_mismatch_at_creation(group):
    entries = _notes(group, 10)
    total = sum(a for _, a, _ in entries)
    with pytest.raises(TotalMismatch):
        settle_batch(group, entries, total + 1)


def test_batch_mutations_all_rejected(group):
    entries = _notes(group, 20, seed="mutate")
    total = sum(a for _, a, _ in entries)
    batch = settle_batch(group, entries, total)
    assert verify_batch(group, batch)
    assert not verify_batch(group, dataclasses.replace(batch, total=total + 1))
    for field in ("proof_commitment", "challenge", "response"):
        mutated = dataclasses.replace(batch, **{field: (getattr(batch, field) + 1) % group.p})
        assert not verify_batch(group, mutated), field
    # swap one commitment for another note's
    swapped_notes = list(batch.notes)
    swapped_notes[0] = dataclasses.replace(swapped_notes[0], commitment=swapped_notes[1].commitment)
    assert not verify_batch(group, dataclasses.replace(batch, notes=tuple(swapped_notes)))
    # drop a note
    assert not verify_batch(group, dataclasses.replace(batch, notes=batch.notes[1:]))


def test_commitment_byte_histograms_indistinguishable(group):
    """Chi-square over byte histograms for amounts 0 vs 1 (hiding)."""
    samples = 10_000
    rng = DetRng("hiding")
    histograms = {0: [0] * 256, 1: [0] * 256}
    for amount in (0, 1):
        for _ in range(samples):
            r = group.random_scalar(rng)
            commitment = group.pow_g(amount) * group.power(group.h, r) % group.p
            for byte in encode_element(commitment):
                histograms[amount][byte] += 1
    chi2 = 0.0
    for o1, o2 in zip(histograms[0], histograms[1]):
        if o1 + o2:
            chi2 += (o1 - o2) ** 2 / (o1 + o2)
    # 255 degrees of freedom; critical value at alpha=0.001 is ~330
    assert chi2 < 330, f"chi-square {chi2:.1f} separates amount 0 from 1"


def test_complaint_linkage_via_payer_ledger(group):
    entries = _notes(group, 12, seed="linkage")
    payer = PayerLedger()
    published = {}
    for note, amount, r in entries:
        payer.record(note, amount, r)
        published[note.tx_ref] = note
    for note, amount, r in entries:
        recipient, recorded_amount, recorded_r = payer.opening_for(note.tx_ref)
        assert recipient == note.recipient
        assert verify_opening(group, published[note.tx_ref], recorded_r, recorded_amount)
        assert not verify_opening(group, published[note.tx_ref], recorded_r, recorded_amount + 1)
    with pytest.raises(UnknownTxRef):
        payer.opening_for(b"\x00" * 32)


def test_note_log_exposes_only_public_fields(group):
    import json

    from test_contracts import run_full_campaign

    campaign, sessions, outcome = run_full_campaign(group, seed="note-log")
    lines = campaign.fsc.note_log_json_lines().splitlines()
    assert len(lines) == len(sessions) == len(outcome.batch.notes)
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"tx_ref", "recipient", "commitment"}
