import dataclasses

import pytest

from adreward.dkg import PARTIAL_DOMAIN, first_rejected_partial, partial_decrypt, partial_statement
from adreward.elgamal import Ciphertext, encrypt, keygen
from adreward.encoding import DetRng, encode_element
from adreward.proofs import (
    DECRYPT_DOMAIN,
    DleqProof,
    _dleq_transcript,
    dleq_prove,
    dleq_verify,
    dleq_verify_batch,
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
    proof = prove_decryption(group, keypair, c, 36)
    assert verify_decryption(group, keypair.pk, c, 36, proof)


def test_decryption_proof_rejects_wrong_plaintext(group, keypair):
    c = _setup_ciphertext(group, keypair)
    proof = prove_decryption(group, keypair, c, 36)
    assert not verify_decryption(group, keypair.pk, c, 37, proof)
    assert not verify_decryption(group, keypair.pk, c, 35, proof)


def test_decryption_proof_transcript_binding(group, keypair):
    c1 = _setup_ciphertext(group, keypair, 36)
    c2 = encrypt(group, keypair.pk, 36, group.random_scalar(DetRng("other-r")))
    proof = prove_decryption(group, keypair, c1, 36)
    # same plaintext, different ciphertext: replay must fail
    assert not verify_decryption(group, keypair.pk, c2, 36, proof)


def test_decryption_proof_field_mutations_all_rejected(group, keypair):
    c = _setup_ciphertext(group, keypair)
    proof = prove_decryption(group, keypair, c, 36)
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
    proof = prove_decryption(group, keypair, c, 0)
    assert verify_decryption(group, keypair.pk, c, 0, proof)
    assert not verify_decryption(group, keypair.pk, c, 1, proof)


def test_decryption_proofs_for_two_plaintexts_use_different_nonces(group, keypair):
    # one nonce under two challenges would give sk = (z - z') / (e - e')
    c = _setup_ciphertext(group, keypair)
    honest, false_claim = prove_decryption(group, keypair, c, 36), prove_decryption(group, keypair, c, 37)
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


def test_provers_given_the_public_values_give_the_same_proofs(group, keypair):
    x = group.random_scalar(DetRng("given-publics"))
    base2 = group.hash_to_element("given-publics", b"b")
    recomputed = dleq_prove(group, "test/dleq", group.g, base2, x, context=b"ctx")
    given = dleq_prove(group, "test/dleq", group.g, base2, x, context=b"ctx",
                       public1=group.pow_g(x), public2=group.power(base2, x))
    assert given == recomputed
    c = _setup_ciphertext(group, keypair)
    context = c.to_bytes() + encode_element(group.pow_g(36))
    assert prove_decryption(group, keypair, c, 36) == dleq_prove(group, DECRYPT_DOMAIN, group.g, c.c1, keypair.sk,
                                                                 context=context)
    _, _, _, material = run_dkg(group, n=3, k=2, seed="given-publics")
    partial = partial_decrypt(group, 2, material[2].share, material[2].share_commitments[2], c)
    assert partial.proof == dleq_prove(group, PARTIAL_DOMAIN, group.g, c.c1, material[2].share, context=c.to_bytes())
    assert partial.d_i == group.power(c.c1, material[2].share)


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
                prove_decryption(group, key, c, 36), c.to_bytes() + encode_element(plaintext_elem)))
    # partial decryption: g, share commitment, c1, d
    _, _, _, material = run_dkg(group, n=3, k=2, seed="dleq-oracle")
    c = encrypt(group, material[1].pk_T, 7, group.random_scalar(rng))
    partial = partial_decrypt(group, 1, material[1].share, material[1].share_commitments[1], c)
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
    row = [partial_decrypt(group, 2, material[2].share, material[2].share_commitments[2], c) for c in cts]
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


# -- batch verification against the four-pow oracle -----------------------------


def _honest_statements(group, domain, count, label="honest"):
    """``count`` honest (base1, public1, base2, public2, proof, context) statements under ``domain``."""
    rng = DetRng(f"{label}-{domain}")
    out = []
    for i in range(count):
        x = group.random_scalar(rng)
        base2 = group.hash_to_element(label, i.to_bytes(4, "big"))
        context = b"ctx-%d" % i
        proof = dleq_prove(group, domain, group.g, base2, x, context=context)
        out.append((group.g, group.pow_g(x), base2, group.power(base2, x), proof, context))
    return out


def _dleq_corpus(group):
    """(domain, statement) of every case the per-proof oracle tests above run, as dleq_verify's arguments."""
    for domain, statement, proof, context in _dleq_statements(group):
        yield domain, (*statement.values(), proof, context)
        cases = []
        for field in STATEMENT_FIELDS:
            for v in _variants(group, statement[field]):
                cases.append(({**statement, field: v}, proof))
        for field in PROOF_FIELDS:
            for v in _variants(group, getattr(proof, field)):
                cases.append((statement, dataclasses.replace(proof, **{field: v})))
        for mutated_statement, mutated_proof in cases:
            yield domain, (*mutated_statement.values(), mutated_proof, context)
            rechallenged = _outcome(_rechallenged, group, domain, mutated_statement, mutated_proof, context)
            if isinstance(rechallenged, DleqProof):
                yield domain, (*mutated_statement.values(), rechallenged, context)
                bumped = dataclasses.replace(rechallenged, response=(rechallenged.response + 1) % group.q)
                yield domain, (*mutated_statement.values(), bumped, context)
    x = group.random_scalar(DetRng("degenerate"))
    good_base = group.hash_to_element("degenerate", b"b")
    for base2 in (good_base, 0, group.p - good_base, good_base + group.p, 1, group.p - 1):
        for public2 in (group.power(base2, x), 0, group.p, group.p - 1, group.power(base2, x) + group.p):
            proof = dleq_prove(group, "test/dleq", group.g, base2, x, public2=public2)
            yield "test/dleq", (group.g, group.pow_g(x), base2, public2, proof, b"")
    rng = DetRng("chosen")
    x, w = group.random_scalar(rng), group.random_scalar(rng)
    good_base = group.hash_to_element("chosen", b"b")
    for base2 in (good_base, 0, group.p - good_base, 1):
        for public2 in (group.power(base2, x), 0, group.p - 1):
            honest_a, honest_b = group.pow_g(w), group.power(base2, w)
            for a in (honest_a, honest_a + group.p):
                for b in (honest_b, honest_b + group.p, 0, 5):
                    e = _dleq_transcript(group, "test/dleq", group.g, group.pow_g(x), base2, public2, a, b, b"")
                    proof = DleqProof(commitment_a=a, commitment_b=b, challenge=e, response=(w + e * x) % group.q)
                    yield "test/dleq", (group.g, group.pow_g(x), base2, public2, proof, b"")


def _oracle_accepts(group, domain, statement) -> bool:
    return _outcome(four_pow_dleq_verify, group, domain, *statement) is True


def test_dleq_verify_batch_accepts_only_what_the_four_pow_oracle_accepts(group):
    fillers = {}
    accepted = refused = 0
    for domain, statement in _dleq_corpus(group):
        honest = fillers.setdefault(domain, _honest_statements(group, domain, 3))
        oracle = _oracle_accepts(group, domain, statement)
        for batch in ([statement], [honest[0], statement], [*honest, statement], [honest[0], statement, *honest[1:]]):
            verdict = dleq_verify_batch(group, domain, batch)
            if verdict:
                assert oracle, (domain, statement)
                assert all(_oracle_accepts(group, domain, s) for s in batch)
            accepted += verdict
            refused += not verdict
        if oracle and all(0 < v < group.p for v in (*statement[:4], statement[4].commitment_a,
                                                       statement[4].commitment_b)):
            assert dleq_verify_batch(group, domain, [statement])  # in range and valid: always accepted
    assert accepted > 20 and refused > 300


def test_dleq_verify_batch_past_128_sign_carriers_accepts_only_what_the_oracle_accepts(group):
    """The same corpus mixed into 70 honest proofs, so the sign test runs on random subset products."""
    fillers = {}
    checked = 0
    for number, (domain, statement) in enumerate(_dleq_corpus(group)):
        if number % 7:
            continue  # a seventh of the corpus: each batch here costs as much as 70 single checks
        honest = fillers.setdefault(domain, _honest_statements(group, domain, 70))
        position = number % len(honest)
        batch = honest[:position] + [statement] + honest[position:]
        if dleq_verify_batch(group, domain, batch):
            assert _oracle_accepts(group, domain, statement), (domain, statement)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("count", [0, 1, 2, 64, 65, 150])
def test_dleq_verify_batch_accepts_every_honest_batch(group, count):
    for domain in ("test/dleq", PARTIAL_DOMAIN):
        assert dleq_verify_batch(group, domain, _honest_statements(group, domain, count))


def test_dleq_verify_batch_accepts_an_honest_row_with_shared_bases(group):
    """A member's row shares public1, and an audit's statements share each c1 across members."""
    rng = DetRng("shared-bases")
    _, _, _, material = run_dkg(group, n=3, k=2, seed="shared-bases")
    cts = [encrypt(group, material[1].pk_T, i, group.random_scalar(rng)) for i in range(40)]
    statements = [
        partial_statement(group, c, partial_decrypt(group, j, material[j].share, material[j].share_commitments[j], c),
                          material[j].share_commitments[j])
        for j in (1, 2, 3) for c in cts
    ]
    assert dleq_verify_batch(group, PARTIAL_DOMAIN, statements)
    # one partial checked against another member's commitment breaks the batch
    g, _, c1, d, proof, context = statements[-1]
    misattributed = (g, statements[0][1], c1, d, proof, context)
    assert not dleq_verify_batch(group, PARTIAL_DOMAIN, statements[:-1] + [misattributed])


_NEGATABLE = ("commitment_a", "public1", "base2", "commitment_b", "public2")


def _negated(group, domain, w, x, label, negate):
    """An honest statement with the fields in ``negate`` replaced by p - value, and e and z recomputed for them.

    Each negation multiplies one verification ratio by -1 or by (-1)^e or (-1)^z, so which of these proofs
    dleq_verify accepts depends on the parities of e and z: a sign change can cancel another.
    """
    base2 = group.hash_to_element("sign-change", label)
    values = dict(commitment_a=group.pow_g(w), public1=group.pow_g(x), base2=base2,
                  commitment_b=group.power(base2, w), public2=group.power(base2, x))
    for name in negate:
        values[name] = group.p - values[name]
    a, b = values["commitment_a"], values["commitment_b"]
    e = _dleq_transcript(group, domain, group.g, values["public1"], values["base2"], values["public2"], a, b, label)
    proof = DleqProof(commitment_a=a, commitment_b=b, challenge=e, response=(w + e * x) % group.q)
    return group.g, values["public1"], values["base2"], values["public2"], proof, label


def test_dleq_verify_batch_decides_sign_changes_as_the_per_proof_check_does(group):
    rng = DetRng("sign-change")
    honest = _honest_statements(group, "test/dleq", 70)
    verdicts = set()
    for mask in range(1 << len(_NEGATABLE)):
        negate = [name for bit, name in enumerate(_NEGATABLE) if mask >> bit & 1]
        for i in range(2):
            label = b"%d-%d" % (mask, i)
            statement = _negated(group, "test/dleq", group.random_scalar(rng), group.random_scalar(rng), label, negate)
            expected = dleq_verify(group, "test/dleq", *statement)
            assert expected == four_pow_dleq_verify(group, "test/dleq", *statement)
            verdicts.add((len(negate), expected))
            for batch in ([statement], honest[:3] + [statement], honest[:mask] + [statement] + honest[mask:]):
                assert dleq_verify_batch(group, "test/dleq", batch) == expected, (negate, len(batch))
    # the (p - b, p - public2) pair passes exactly when e is odd
    for i in range(8):
        statement = _negated(group, "test/dleq", group.random_scalar(rng), group.random_scalar(rng), b"pair-%d" % i,
                             ["commitment_b", "public2"])
        odd = bool(statement[4].challenge & 1)
        assert dleq_verify(group, "test/dleq", *statement) == odd
        assert dleq_verify_batch(group, "test/dleq", honest[:i] + [statement] + honest[i:]) == odd
    assert {True, False} <= {verdict for count, verdict in verdicts if count >= 2}


def test_dleq_verify_batch_refuses_equations_that_fail_by_inverse_factors(group):
    """a * g^k and b / g^k: each equation is off by g^-k and g^k, so only their product holds."""
    rng = DetRng("inverse-factors")
    honest = _honest_statements(group, "test/dleq", 70)
    base2 = group.hash_to_element("inverse-factors", b"b")
    for k in (1, 2, group.random_scalar(rng)):
        w, x = group.random_scalar(rng), group.random_scalar(rng)
        a, b = group.pow_g(w + k), group.power(base2, w) * group.pow_g(-k) % group.p
        public1, public2 = group.pow_g(x), group.power(base2, x)
        e = _dleq_transcript(group, "test/dleq", group.g, public1, base2, public2, a, b, b"")
        proof = DleqProof(commitment_a=a, commitment_b=b, challenge=e, response=(w + e * x) % group.q)
        statement = (group.g, public1, base2, public2, proof, b"")
        assert not four_pow_dleq_verify(group, "test/dleq", *statement)
        for batch in ([statement], honest[:3] + [statement], honest[:40] + [statement] + honest[40:]):
            assert not dleq_verify_batch(group, "test/dleq", batch)


def test_dleq_verify_batch_refuses_a_response_past_q_that_the_equations_accept(group):
    honest = _honest_statements(group, "test/dleq", 70)
    g, public1, base2, public2, proof, context = honest[5]
    for field in ("response", "challenge"):
        shifted = dataclasses.replace(proof, **{field: getattr(proof, field) + group.q})
        statement = (g, public1, base2, public2, shifted, context)
        assert not four_pow_dleq_verify(group, "test/dleq", *statement)
        assert not dleq_verify_batch(group, "test/dleq", [statement])
        assert not dleq_verify_batch(group, "test/dleq", honest[:5] + [statement] + honest[6:])
