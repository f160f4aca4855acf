import dataclasses
import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adreward import ledger as ledger_module
from adreward.codec import decode_args, decode_value, encode_args, encode_value
from adreward.elgamal import keygen
from adreward.encoding import DetRng
from adreward.errors import BadSequence, BadSignature, InsufficientFunds, Revert
from adreward.hybrid import WrappedKey
from adreward.ledger import (
    Call,
    ExecutionContext,
    LedgerState,
    address_from_pk,
    run_parallel,
    transaction_signing_bytes,
)
from adreward.proofs import sign


@pytest.fixture
def accounts(group):
    rng = DetRng("ledger-accounts")
    return [keygen(group, rng.child(f"acct-{i}")) for i in range(3)]


@pytest.fixture
def ledger(group, accounts):
    balances = {address_from_pk(accounts[0].pk): 1000, address_from_pk(accounts[1].pk): 500}
    return LedgerState.genesis(group, "ledger-test", balances)


def test_zero_transfer_is_a_noop_success(ledger, accounts):
    before = ledger.state_hash()
    receipt = ledger.transfer(accounts[0], address_from_pk(accounts[1].pk), 0)
    assert receipt.status == "ok"
    assert ledger.balance(address_from_pk(accounts[0].pk)) == 1000
    assert ledger.state_hash() != before  # the log grew, balances did not


def test_full_balance_transfer(ledger, accounts):
    dest = address_from_pk(accounts[2].pk)
    receipt = ledger.transfer(accounts[0], dest, 1000)
    assert receipt.status == "ok"
    assert ledger.balance(address_from_pk(accounts[0].pk)) == 0
    assert ledger.balance(dest) == 1000


def test_overdraft_reverts_and_restores(ledger, accounts):
    sender = address_from_pk(accounts[1].pk)
    snapshot_balances = dict(ledger.balances)
    receipt = ledger.transfer(accounts[1], address_from_pk(accounts[0].pk), 501)
    assert receipt.status == "reverted"
    assert "InsufficientFunds" in receipt.revert_reason
    assert ledger.balances == snapshot_balances
    assert ledger.balance(sender) == 500


def test_sequence_replay_rejected(ledger, accounts):
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 5)))
    ledger.submit(tx)
    with pytest.raises(BadSequence):
        ledger.submit(tx)


def test_wrong_sequence_rejected(ledger, accounts):
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 5)),
                        sequence_no=99)
    with pytest.raises(BadSequence):
        ledger.submit(tx)


def test_bad_signature_rejected(ledger, accounts, group):
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 5)))
    forged = dataclasses.replace(tx, signature=sign(group, accounts[1], tx.signing_bytes()))
    with pytest.raises(BadSignature):
        ledger.submit(forged)
    tampered_call = dataclasses.replace(tx, call=Call("system", "transfer", (address_from_pk(accounts[1].pk), 500)))
    with pytest.raises(BadSignature):
        ledger.submit(tampered_call)


def test_the_signing_memo_never_vouches_for_fields_it_was_not_computed_from(ledger, accounts):
    dest = address_from_pk(accounts[1].pk)
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (dest, 5)), private_args=(b"inputs", 7))
    other = ledger.make_tx(accounts[0], Call("system", "transfer", (dest, 5)), private_args=(b"other", 8))
    assert tx.signing_bytes() == transaction_signing_bytes(tx.sequence_no, tx.sender, tx.call, tx.private_envelope)
    assert dataclasses.replace(tx).signing_bytes() == tx.signing_bytes()
    swapped = (
        dataclasses.replace(tx, call=Call("system", "transfer", (dest, 500))),
        dataclasses.replace(tx, private_envelope=other.private_envelope),
        dataclasses.replace(tx, private_envelope=None),
    )
    for forged in swapped:
        assert forged.signature == tx.signature
        with pytest.raises(BadSignature):
            ledger.submit(forged)
    assert ledger.submit(tx).status == "ok"


def test_submit_checks_make_tx_signed_bytes_without_encoding_again(ledger, accounts, monkeypatch):
    calls = []
    encode = ledger_module.transaction_signing_bytes
    monkeypatch.setattr(ledger_module, "transaction_signing_bytes", lambda *args: calls.append(args) or encode(*args))
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 5)))
    assert len(calls) == 1
    assert ledger.submit(tx).status == "ok"
    assert len(calls) == 1


def test_conservation_across_random_ops(ledger, accounts):
    rng = DetRng("conservation")
    supply = ledger.total_supply()
    addrs = [address_from_pk(k.pk) for k in accounts]
    for i in range(50):
        src = accounts[rng.randint(0, 2)]
        dst = addrs[rng.randint(0, 2)]
        amount = rng.randint(0, 600)
        ledger.transfer(src, dst, amount)  # some revert; that is the point
        assert ledger.total_supply() == supply


def test_revert_restores_exact_state_fault_injection(ledger, accounts):
    """Randomly interleaved valid and invalid transactions; every revert is clean."""
    rng = DetRng("fault-injection")
    addrs = [address_from_pk(k.pk) for k in accounts]
    for i in range(40):
        before = dict(ledger.balances)
        src = accounts[rng.randint(0, 2)]
        overdraft = rng.randint(0, 1) == 1
        amount = 10_000 if overdraft else rng.randint(0, 50)
        receipt = ledger.transfer(src, addrs[rng.randint(0, 2)], amount)
        if receipt.status == "reverted":
            assert ledger.balances == before


def test_determinism_same_genesis_same_txs(group, accounts):
    def build():
        balances = {address_from_pk(accounts[0].pk): 1000}
        led = LedgerState.genesis(group, "det-seed", balances)
        for i in range(10):
            led.transfer(accounts[0], address_from_pk(accounts[1].pk), i)
        return led

    a, b = build(), build()
    assert a.state_hash() == b.state_hash()
    assert [r.status for r in a.receipts] == [r.status for r in b.receipts]
    assert a.export_tx_log() == b.export_tx_log()


def test_replay_reproduces_state_bit_exactly(group, accounts, ledger):
    for i in range(8):
        ledger.transfer(accounts[0], address_from_pk(accounts[2].pk), 7 * i)
    rebuilt = LedgerState.replay(group, ledger.genesis_json(), ledger.export_tx_log())
    assert rebuilt.state_hash() == ledger.state_hash()
    assert rebuilt.balances == ledger.balances


def test_private_envelope_round_trip(group, ledger, accounts):
    payload = (accounts[0].pk, 36, b"reward-address-bytes", "context")
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 0)),
                        private_args=payload)
    assert ExecutionContext(ledger, tx).open_private_inputs() == payload


def test_tampered_envelope_fails_auth(group, ledger, accounts):
    from adreward.errors import AuthFailure

    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 0)),
                        private_args=(1, 2, 3))
    sealed = bytearray(tx.private_envelope.sealed_payload)
    sealed[-1] ^= 1
    tampered = dataclasses.replace(
        tx, private_envelope=WrappedKey(tx.private_envelope.kem_ciphertext, bytes(sealed)),
    )
    with pytest.raises(AuthFailure):
        ExecutionContext(ledger, tampered).open_private_inputs()


def test_open_private_inputs_without_envelope_errors(ledger, accounts):
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 0)))
    with pytest.raises(Revert, match="no private envelope"):
        ExecutionContext(ledger, tx).open_private_inputs()


def test_privacy_boundary_envelope_args_not_in_public_log(group, ledger, accounts):
    marker = b"THIS-SECRET-MARKER-MUST-NOT-LEAK"
    tx = ledger.make_tx(accounts[0], Call("system", "transfer", (address_from_pk(accounts[1].pk), 0)),
                        private_args=(marker,))
    ledger.submit(tx)
    public = ledger.export_tx_log().encode() + encode_args(())
    assert marker not in public
    assert marker.hex().encode() not in public


def test_codec_round_trips_every_supported_type(group, rng):
    from adreward.dkg import PartialDecryption
    from adreward.elgamal import Ciphertext
    from adreward.payments import PaymentNote, SettlementBatch, make_note, settle_batch
    from adreward.proofs import DleqProof, Signature
    from adreward.vrf import vrf_keygen, vrf_rand_gen

    key = vrf_keygen(group, rng)
    vrf_out = vrf_rand_gen(group, key.vrf_sk, b"eps")
    note = make_note(group, b"\x07" * 20, 9, group.random_scalar(rng))
    batch = settle_batch(group, [(note, 9, 0)], 9)  # placeholder blinding for codec only
    values = (
        None, True, False, 0, 1 << 200, b"", b"bytes", "text",
        (1, (2, b"three")), Ciphertext(3, 4),
        Signature(1, 2, 3), DleqProof(5, 6, 7, 8),
        vrf_out, PartialDecryption(2, 9, DleqProof(1, 2, 3, 4)), note,
    )
    for value in values:
        assert decode_args(encode_args((value,)))[0] == value
    assert decode_args(encode_args((batch,)))[0] == batch


def _pinned_records():
    from adreward.dkg import PartialDecryption
    from adreward.elgamal import Ciphertext
    from adreward.payments import PaymentNote, SettlementBatch
    from adreward.proofs import DleqProof, Signature
    from adreward.vrf import VrfOutput

    notes = (PaymentNote(b"\x01" * 32, b"\x02" * 20, 1 << 255, 1 << 32), PaymentNote(b"", b"r", 0, 7))
    records = {
        "ciphertext": Ciphertext(3, (1 << 2047) + 5),
        "signature": Signature(11, 1 << 200, 258),
        "dleq_proof": DleqProof(0, 1 << 64, 12345678901234567890, 2),
        "wrapped_key": WrappedKey(Ciphertext(17, 1 << 100), b"\x00sealed\xff"),
        "vrf_output": VrfOutput(1 << 128, 99, DleqProof(4, 3, 2, 1)),
        "partial_decryption": PartialDecryption(5, 1 << 300, DleqProof(9, 8, 7, 6)),
        "payment_note": notes[0],
        "settlement_batch": SettlementBatch(notes, 1 << 40, 77, 1 << 250, 0),
    }
    records["mixed"] = (None, True, False, 0, 255, 256, b"", b"\x00\x01", "", "texté",
                        tuple(records.values()), [1, (2, ())])
    return records


# SHA-256 of encode_value(record), recorded before the codec's record table replaced its
# per-type branches ("mixed" re-recorded by that codec without the retired 0x07 record);
# any change here changes state hashes and the exported log.
_PINNED_CODEC_SHA256 = {
    "ciphertext": "788f804466b969225da3b660596321aaf11d7eaade5b5c9dfdd836eb8eb503f1",
    "dleq_proof": "3e1f800571ccbd6a1c261dcc4f0b4d8261e581240eaddaffaf738f915b206357",
    "mixed": "5c1a7004d00e05a069f52a357fcb9f17c67ee3b909325971189fceb72a736b2d",
    "partial_decryption": "319db8114bef93b9bcd996cb7cad243e0131dd0e98f2a42011a9559fdce0bc8c",
    "payment_note": "2c04fbe3254de760ff15e600e6e718521f05634bd1afce3cc6b7a00918c6a2a2",
    "settlement_batch": "26de895d99e193e5f39ad16335587cf61ee95489d3d16ec1c2638fbbc698bfc3",
    "signature": "d4d109b49d7cf1f94422956660373c3b0fb3005fe8bafd5dad7a17ee519fd9c4",
    "vrf_output": "a34e4324baeba856cd7d4d3d807b283d6665d8fd5ef4e0197640ba67c6423cb7",
    "wrapped_key": "4d49760dd56610160268218471d3ab5767e267fce90990fb1a04cade4ee10ac7",
}


@pytest.mark.parametrize("name", sorted(_PINNED_CODEC_SHA256))
def test_codec_wire_bytes_are_pinned(name):
    value = _pinned_records()[name]
    data = encode_value(value)
    assert hashlib.sha256(data).hexdigest() == _PINNED_CODEC_SHA256[name]
    expected = tuple(tuple(v) if isinstance(v, list) else v for v in value) if name == "mixed" else value
    assert decode_value(data) == expected


def _encodable():
    from adreward.dkg import PartialDecryption
    from adreward.elgamal import Ciphertext
    from adreward.payments import PaymentNote
    from adreward.proofs import DleqProof, Signature
    from adreward.vrf import VrfOutput

    ints = st.integers(min_value=0, max_value=1 << 300)
    dleq = st.builds(DleqProof, ints, ints, ints, ints)
    leaf = st.one_of(
        st.none(), st.booleans(), ints, st.binary(max_size=40), st.text(max_size=8),
        st.builds(Ciphertext, ints, ints), st.builds(Signature, ints, ints, ints), dleq,
        st.builds(VrfOutput, ints, ints, dleq), st.builds(PartialDecryption, ints, ints, dleq),
        st.builds(PaymentNote, st.binary(max_size=32), st.binary(max_size=20), ints, ints),
        st.builds(WrappedKey, st.builds(Ciphertext, ints, ints), st.binary(max_size=40)),
    )
    return st.recursive(leaf, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(value=_encodable())
def test_codec_rejects_every_strict_prefix(value):
    data = encode_value(value)
    assert decode_value(data) == value
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            decode_value(data[:cut])


@settings(max_examples=500, deadline=None)
@given(data=st.binary(max_size=64))
@example(data=bytes([0x04, 0, 0, 0, 1]) * 5000)  # nested deeper than the interpreter's recursion limit
@example(data=bytes([0x02, 0, 0, 0, 9]) + b"short")
def test_codec_decodes_arbitrary_bytes_or_raises_value_error(data):
    try:
        decode_value(data)
    except ValueError:
        pass


def test_codec_retired_tag_0x07_does_not_decode():
    from adreward.proofs import DleqProof

    # 0x07 once carried a separate decryption-proof record with DleqProof's layout
    body = encode_value(DleqProof(1, 256, 65535, 65536))[1:]
    with pytest.raises(ValueError, match="unknown codec tag 0x7"):
        decode_value(bytes([0x07]) + body)


def _parallel_probe(chain_index: int, transfers: int) -> int:
    from adreward.group import default_group

    g = default_group()
    rng = DetRng(f"parallel-{chain_index}")
    key_a, key_b = keygen(g, rng.child("a")), keygen(g, rng.child("b"))
    led = LedgerState.genesis(g, f"par-{chain_index}", {address_from_pk(key_a.pk): 10_000})
    for i in range(transfers):
        led.transfer(key_a, address_from_pk(key_b.pk), 1)
    return len(led.tx_log)


def test_run_parallel_chains_are_independent():
    single = run_parallel(_parallel_probe, [(0, 20)])
    assert single == [20]
    results = run_parallel(_parallel_probe, [(0, 20), (1, 20), (2, 20)])
    assert results == [20, 20, 20]


@pytest.fixture
def inline_process_pool(monkeypatch):
    """Runs ``run_parallel``'s process pool inline on a two-core host; yields the requested pool sizes."""
    import concurrent.futures
    import os

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return sizes


def test_run_parallel_is_bounded_by_the_host(inline_process_pool):
    assert run_parallel(_parallel_probe, [(i, 2) for i in range(5)]) == [2] * 5
    assert run_parallel(_parallel_probe, [(0, 1)]) == [1]  # one chain runs inline
    assert inline_process_pool == [2]


def test_bench_concurrent_queued_chains_share_the_deadline(inline_process_pool):
    from adreward.bench import bench_concurrent

    report = bench_concurrent(user_counts=(), catalog=4, chain_counts=(1, 3), budget_s=0.4)
    scaling = report["scaling"]
    assert {k: v["processes"] for k, v in scaling.items()} == {"1": 1, "3": 2}
    assert inline_process_pool == [2]
    assert scaling["1"]["users_processed"] > 0
    # the inline pool runs chains one after another: the first uses up the deadline
    assert scaling["3"]["per_chain"][1:] == [0, 0]
    assert report["scaling_ratio_vs_single"]["3"] <= scaling["3"]["processes"]


def test_concurrent_submissions_totally_ordered(group, ledger, accounts):
    from concurrent.futures import ThreadPoolExecutor

    dest = address_from_pk(accounts[2].pk)

    def worker(_):
        return ledger.call(accounts[0], Call("system", "transfer", (dest, 1))).status

    with ThreadPoolExecutor(max_workers=8) as pool:
        statuses = list(pool.map(worker, range(40)))
    assert statuses == ["ok"] * 40
    assert [tx.sequence_no for tx in ledger.tx_log] == list(range(1, 41))
    assert ledger.balance(dest) == 40
