import dataclasses

import pytest

from adreward.dkg import PARTIAL_DOMAIN, first_rejected_partial, partial_decrypt
from adreward.elgamal import Ciphertext, encrypt, keygen
from adreward.encoding import DetRng, encode_element
from adreward.proofs import (
    DECRYPT_DOMAIN,
    DleqProof,
    _dleq_transcript,
    dleq_prove,
    dleq_verify,
    prove_decryption,
    sign,
    verify_decryption,
    verify_sig,
)
from adreward.vrf import VRF_DOMAIN, vrf_keygen, vrf_rand_gen
from test_dkg import run_dkg


@pytest.fixture
def keypair(group):
    return keygen(group, DetRng("proof-key"))


# -- Schnorr signatures ---------------------------------------------------------


def test_signature_round_trip(group, keypair):
    sig = sign(group, keypair, b"reward aggregate")
    assert verify_sig(group, keypair.pk, b"reward aggregate", sig)


def test_signature_rejects_all_single_bit_mutations(group, keypair):
    msg = bytes(DetRng("sig-msg").bytes(125))  # 1000 bits
    sig = sign(group, keypair, msg)
    assert verify_sig(group, keypair.pk, msg, sig)
    rejected = 0
    for bit in range(len(msg) * 8):
        mutated = bytearray(msg)
        mutated[bit // 8] ^= 1 << (bit % 8)
        if not verify_sig(group, keypair.pk, bytes(mutated), sig):
            rejected += 1
    assert rejected == len(msg) * 8


def test_signature_rejects_wrong_key(group, keypair):
    other = keygen(group, DetRng("other-key"))
    sig = sign(group, keypair, b"msg")
    assert not verify_sig(group, other.pk, b"msg", sig)


def test_signature_is_deterministic(group, keypair):
    assert sign(group, keypair, b"msg") == sign(group, keypair, b"msg")


# -- decryption proofs -----------------------------------------------------------


def _setup_ciphertext(group, keypair, m=36):
    rng = DetRng(f"ct-{m}")
    return encrypt(group, keypair.pk, m, group.random_scalar(rng))


def test_decryption_proof_completeness(group, keypair):
    c = _setup_ciphertext(group, keypair)
    proof = prove_decryption(group, keypair.sk, c, 36)
    assert verify_decryption(group, keypair.pk, c, 36, proof)


def test_decryption_proof_rejects_wrong_plaintext(group, keypair):
    c = _setup_ciphertext(group, keypair)
    proof = prove_decryption(group, keypair.sk, c, 36)
    assert not verify_decryption(group, keypair.pk, c, 37, proof)
    assert not verify_decryption(group, keypair.pk, c, 35, proof)


def test_decryption_proof_transcript_binding(group, keypair):
    c1 = _setup_ciphertext(group, keypair, 36)
    c2 = encrypt(group, keypair.pk, 36, group.random_scalar(DetRng("other-r")))
    proof = prove_decryption(group, keypair.sk, c1, 36)
    # same plaintext, different ciphertext: replay must fail
    assert not verify_decryption(group, keypair.pk, c2, 36, proof)


def test_decryption_proof_field_mutations_all_rejected(group, keypair):
    c = _setup_ciphertext(group, keypair)
    proof = prove_decryption(group, keypair.sk, c, 36)
    for field in ("commitment_a", "commitment_b", "challenge", "response"):
        original = getattr(proof, field)
        mutated = dataclasses.replace(proof, **{field: (original + 1) % group.p})
        assert not verify_decryption(group, keypair.pk, c, 36, mutated), field
    # bound ciphertext mutations
    assert not verify_decryption(group, keypair.pk, Ciphertext(c.c1 * group.g % group.p, c.c2), 36, proof)
    assert not verify_decryption(group, keypair.pk, Ciphertext(c.c1, c.c2 * group.g % group.p), 36, proof)
    # wrong verifying key
    other = keygen(group, DetRng("other-vk"))
    assert not verify_decryption(group, other.pk, c, 36, proof)


def test_decryption_proof_zero_plaintext(group, keypair):
    c = _setup_ciphertext(group, keypair, 0)
    proof = prove_decryption(group, keypair.sk, c, 0)
    assert verify_decryption(group, keypair.pk, c, 0, proof)
    assert not verify_decryption(group, keypair.pk, c, 1, proof)


def test_decryption_proofs_for_two_plaintexts_use_different_nonces(group, keypair):
    # one nonce under two challenges would give sk = (z - z') / (e - e')
    c = _setup_ciphertext(group, keypair)
    honest, false_claim = prove_decryption(group, keypair.sk, c, 36), prove_decryption(group, keypair.sk, c, 37)
    assert honest.commitment_a != false_claim.commitment_a
    assert honest.commitment_b != false_claim.commitment_b
    assert not verify_decryption(group, keypair.pk, c, 37, false_claim)


# -- generic DLEQ ------------------------------------------------------------------


def test_dleq_round_trip_and_mutations(group):
    rng = DetRng("dleq")
    x = group.random_scalar(rng)
    base2 = group.hash_to_element("dleq-base", b"u")
    proof = dleq_prove(group, "test/dleq", group.g, base2, x, context=b"ctx")
    p1, p2 = group.pow_g(x), group.power(base2, x)
    assert dleq_verify(group, "test/dleq", group.g, p1, base2, p2, proof, context=b"ctx")
    # context binding
    assert not dleq_verify(group, "test/dleq", group.g, p1, base2, p2, proof, context=b"other")
    # domain separation
    assert not dleq_verify(group, "test/other", group.g, p1, base2, p2, proof, context=b"ctx")
    # wrong statement
    assert not dleq_verify(group, "test/dleq", group.g, p1, base2, p2 * group.g % group.p, proof, context=b"ctx")
    for field in ("commitment_a", "commitment_b", "challenge", "response"):
        mutated = dataclasses.replace(proof, **{field: (getattr(proof, field) + 1) % group.p})
        assert not dleq_verify(group, "test/dleq", group.g, p1, base2, p2, mutated, context=b"ctx")


# -- DLEQ verifier against the direct four-pow form -----------------------------


def four_pow_dleq_verify(group, domain, base1, public1, base2, public2, proof, context=b""):
    """Reference verifier: both equations checked with plain pow, as first written."""
    if not (0 <= proof.challenge < group.q and 0 <= proof.response < group.q):
        return False
    e = _dleq_transcript(group, domain, base1, public1, base2, public2, proof.commitment_a, proof.commitment_b, context)
    if e != proof.challenge:
        return False
    if group.power(base1, proof.response) != proof.commitment_a * group.power(public1, e) % group.p:
        return False
    if group.power(base2, proof.response) != proof.commitment_b * group.power(public2, e) % group.p:
        return False
    return True


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def _variants(group, x):
    """Each field +-1, times g, p - x (outside the subgroup), x + p and 0."""
    return [x + 1, x - 1, x * group.g % group.p, group.p - x, x + group.p, 0]


STATEMENT_FIELDS = ("base1", "public1", "base2", "public2")
PROOF_FIELDS = ("commitment_a", "commitment_b", "challenge", "response")


def _dleq_statements(group):
    """(domain, statement, proof, context) for decryption, partial-decryption, VRF and generic DLEQs."""
    rng = DetRng("dleq-oracle")
    out = []
    # payment-request decryption: g, user pk, c1, c2 / g^m
    key = keygen(group, rng.child("decrypt"))
    c = encrypt(group, key.pk, 36, group.random_scalar(rng))
    plaintext_elem = group.pow_g(36)
    out.append((DECRYPT_DOMAIN, dict(base1=group.g, public1=key.pk, base2=c.c1,
                                     public2=group.div(c.c2, plaintext_elem)),
                prove_decryption(group, key.sk, c, 36), c.to_bytes() + encode_element(plaintext_elem)))
    # partial decryption: g, share commitment, c1, d
    _, _, _, material = run_dkg(group, n=3, k=2, seed="dleq-oracle")
    c = encrypt(group, material[1].pk_T, 7, group.random_scalar(rng))
    partial = partial_decrypt(group, 1, material[1].share, c)
    out.append((PARTIAL_DOMAIN, dict(base1=group.g, public1=material[1].share_commitments[1], base2=c.c1,
                                     public2=partial.d_i), partial.proof, c.to_bytes()))
    # VRF: g, vrf pk, hashed base, gamma
    key = vrf_keygen(group, rng.child("vrf"))
    eps = rng.bytes(16)
    vrf_out = vrf_rand_gen(group, key.vrf_sk, eps)
    out.append((VRF_DOMAIN, dict(base1=group.g, public1=key.vrf_pk, base2=group.hash_to_element("adreward/vrf-base", eps),
                                 public2=vrf_out.gamma), vrf_out.proof, eps))
    # generic: neither base is g
    x = group.random_scalar(rng)
    base2 = group.hash_to_element("dleq-oracle", b"b2")
    proof = dleq_prove(group, "test/dleq", group.h, base2, x, context=b"ctx")
    out.append(("test/dleq", dict(base1=group.h, public1=group.power(group.h, x), base2=base2,
                                  public2=group.power(base2, x)), proof, b"ctx"))
    return out


def _rechallenged(group, domain, statement, proof, context):
    """The proof with its challenge recomputed, so the check reaches both equations."""
    e = _dleq_transcript(group, domain, statement["base1"], statement["public1"], statement["base2"],
                         statement["public2"], proof.commitment_a, proof.commitment_b, context)
    return dataclasses.replace(proof, challenge=e)


def test_dleq_verify_matches_four_pow_oracle_on_mutations(group):
    checked = 0
    for domain, statement, proof, context in _dleq_statements(group):
        assert dleq_verify(group, domain, **statement, proof=proof, context=context)
        cases = []
        for field in STATEMENT_FIELDS:
            for v in _variants(group, statement[field]):
                cases.append(({**statement, field: v}, proof))
        for field in PROOF_FIELDS:
            for v in _variants(group, getattr(proof, field)):
                cases.append((statement, dataclasses.replace(proof, **{field: v})))
        for mutated_statement, mutated_proof in cases:
            candidates = [mutated_proof]
            rechallenged = _outcome(_rechallenged, group, domain, mutated_statement, mutated_proof, context)
            if isinstance(rechallenged, DleqProof):
                candidates.append(rechallenged)
                # the response too, so the second equation is reached with a wrong z
                candidates.append(dataclasses.replace(rechallenged, response=(rechallenged.response + 1) % group.q))
            for candidate in candidates:
                args = (group, domain, *mutated_statement.values(), candidate)
                assert _outcome(dleq_verify, *args, context=context) == _outcome(
                    four_pow_dleq_verify, *args, context=context
                ), (domain, mutated_statement, candidate)
                checked += 1
    assert checked > 300


def test_dleq_verify_matches_oracle_on_proofs_of_degenerate_statements(group):
    """Honest proofs for public2 = 0, outside the subgroup or >= p: same verdict as pow gives."""
    x = group.random_scalar(DetRng("degenerate"))
    good_base = group.hash_to_element("degenerate", b"b")
    for base2 in (good_base, 0, group.p - good_base, good_base + group.p, 1, group.p - 1):
        for public2 in (group.power(base2, x), 0, group.p, group.p - 1, group.power(base2, x) + group.p):
            proof = dleq_prove(group, "test/dleq", group.g, base2, x, public2=public2)
            args = (group, "test/dleq", group.g, group.pow_g(x), base2, public2, proof)
            assert dleq_verify(*args) == four_pow_dleq_verify(*args), (base2, public2)
    # c1 = d = 0: both forms accept, so subgroup checks must come before them
    proof = dleq_prove(group, "test/dleq", group.g, 0, x)
    args = (group, "test/dleq", group.g, group.pow_g(x), 0, 0, proof)
    assert dleq_verify(*args) and four_pow_dleq_verify(*args)


def test_dleq_verify_matches_oracle_on_chosen_commitments(group):
    """Proofs whose commitments are picked, not computed, with the challenge bound to them."""
    rng = DetRng("chosen")
    x, w = group.random_scalar(rng), group.random_scalar(rng)
    good_base = group.hash_to_element("chosen", b"b")
    verdicts = set()
    for base2 in (good_base, 0, group.p - good_base, 1):
        for public2 in (group.power(base2, x), 0, group.p - 1):
            honest_a, honest_b = group.pow_g(w), group.power(base2, w)
            for a in (honest_a, honest_a + group.p):
                for b in (honest_b, honest_b + group.p, 0, 5):
                    e = _dleq_transcript(group, "test/dleq", group.g, group.pow_g(x), base2, public2, a, b, b"")
                    proof = DleqProof(commitment_a=a, commitment_b=b, challenge=e, response=(w + e * x) % group.q)
                    args = (group, "test/dleq", group.g, group.pow_g(x), base2, public2, proof)
                    verdict = four_pow_dleq_verify(*args)
                    assert dleq_verify(*args) == verdict, (base2, public2, a, b)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def test_dleq_verify_with_public1_registered_matches_plain_form(group):
    for domain, statement, proof, context in _dleq_statements(group):
        for mutated in (proof, dataclasses.replace(proof, response=(proof.response + 1) % group.q)):
            plain = dleq_verify(group, domain, *statement.values(), mutated, context=context)
            with group.precomputed(statement["public1"], statement["base1"]):
                tabled = dleq_verify(group, domain, *statement.values(), mutated, context=context)
            assert plain == tabled == (mutated is proof)


def test_first_rejected_partial_names_the_first_bad_partial(group):
    rng = DetRng("row-oracle")
    _, _, _, material = run_dkg(group, n=3, k=2, seed="row-oracle")
    commitment = material[2].share_commitments[2]
    cts = [encrypt(group, material[2].pk_T, i, group.random_scalar(rng)) for i in range(6)]
    row = [partial_decrypt(group, 2, material[2].share, c) for c in cts]
    assert first_rejected_partial(group, cts, row, commitment) is None

    def oracle_first_rejected(partials):
        for index, (c, p) in enumerate(zip(cts, partials)):
            if not four_pow_dleq_verify(group, PARTIAL_DOMAIN, group.g, commitment, c.c1, p.d_i, p.proof,
                                        context=c.to_bytes()):
                return index
        return None

    for bad in (0, 3, 5):
        for v in _variants(group, row[bad].d_i):
            mutated = list(row)
            mutated[bad] = dataclasses.replace(row[bad], d_i=v)
            # a later partial also broken: the first one is still named
            mutated[5] = dataclasses.replace(row[5], proof=dataclasses.replace(row[5].proof, response=0))
            expected = oracle_first_rejected(mutated)
            assert expected == bad
            assert first_rejected_partial(group, cts, mutated, commitment) == expected
    wrong_key = material[1].share_commitments[1]
    assert first_rejected_partial(group, cts, row, wrong_key) == 0
