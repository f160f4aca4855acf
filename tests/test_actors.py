import dataclasses

import pytest

from adreward import actors
from adreward.actors import (
    AdCatalog,
    Advertiser,
    CampaignFacilitator,
    CampaignPlan,
    CatalogEntry,
    UserSession,
    advertiser_verify_analytics,
    aggregate_click_ciphertexts,
    analytics_round,
    cf_settle,
    make_pool_registrants,
    mark_payments_processed,
    phase1_setup,
    pool_selection,
    user_claim,
    user_payment_request,
)
from adreward.dkg import partial_decrypt
from adreward.elgamal import Ciphertext, add_ciphertexts, decrypt_to_element, encrypt_vector, keygen, recover_plaintext
from adreward.encoding import DetRng
from adreward.errors import InsufficientShares, InvalidPartial, Revert
from adreward.ledger import Call, LedgerState
from adreward.proofs import prove_decryption

from baseline import CampaignManager


def nine_ad_plan(fee=12):
    entries = tuple(
        CatalogEntry(ad_id=f"ad-{i}", advertiser_id=f"adv-{i // 3}", impression_budget=50)
        for i in range(9)
    )
    policies = (4, 20, 12, 7, 3, 9, 15, 2, 11)
    return CampaignPlan(
        catalog=AdCatalog(entries=entries),
        policies=policies,
        fee=fee,
        click_cap=10,
        recovery_bound=9 * 20 * 50,
    )


def build_campaign(group, seed="actors", with_pool=True, plan=None, registered=6, expected=3, bad_dealers=frozenset()):
    plan = plan or nine_ad_plan()
    rng = DetRng(seed)
    cf = CampaignFacilitator(group, plan, rng.child("cf"))
    advertisers = [Advertiser(group, a, plan, rng.child(a)) for a in plan.advertiser_ids()]
    fee_shares = plan.fee_shares()
    balances = {a.address: plan.budget_of(a.adv_id) + fee_shares[a.adv_id] for a in advertisers}
    ledger = LedgerState.genesis(group, seed, balances)
    psc_id, fsc_id = phase1_setup(group, ledger, cf, advertisers, "e2e")
    pool = None
    if with_pool:
        registrants = make_pool_registrants(group, registered, rng.child("pool"))
        pool = pool_selection(group, ledger, psc_id, cf, registrants, expected, rng.child("dkg"),
                              bad_dealers=bad_dealers)
    return plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng


def test_phase1_three_advertisers_nine_ads_initializes(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, _, _ = build_campaign(group, with_pool=False)
    assert len(advertisers) == 3
    fsc = ledger.contracts[fsc_id]
    assert fsc.initialized
    psc = ledger.contracts[psc_id]
    assert all(entry is not None for entry in psc.enc_policies)
    assert len(psc.enc_keys) == 9


def test_phase1_zero_advertisers_rejected(group):
    plan = nine_ad_plan()
    cf = CampaignFacilitator(group, plan, DetRng("nocf"))
    ledger = LedgerState.genesis(group, "empty", {})
    with pytest.raises(Revert):
        phase1_setup(group, ledger, cf, [], "none")


def test_user_claim_worked_example_against_oracle(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group)
    counts = (3, 0, 2, 1, 0, 0, 0, 4, 0)
    session = UserSession(group, 0, counts, rng.child("u"))
    psc = ledger.contracts[psc_id]
    user_claim(group, ledger, psc_id, session, psc.pool_pk)
    elem = decrypt_to_element(group, session.ephemeral.sk, session.aggregate)
    expected = sum(p * a for p, a in zip(plan.policies, counts))
    assert recover_plaintext(group, elem, plan.recovery_bound) == expected


def test_payment_request_retries_on_corrupted_client_copy(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed="retry")
    session = UserSession(group, 0, (1,) * 9, rng.child("u"))
    psc = ledger.contracts[psc_id]
    user_claim(group, ledger, psc_id, session, psc.pool_pk)
    # transport corruption of the client-side signature copy: the client
    # re-requests the aggregate from the chain and proceeds
    session.aggregate_sig = dataclasses.replace(session.aggregate_sig, response=(session.aggregate_sig.response + 1) % group.q)
    user_payment_request(group, ledger, psc_id, session, plan.recovery_bound)
    fsc = ledger.contracts[fsc_id]
    assert fsc.payment_queue[session.reward_address] == sum(plan.policies)


def test_settlement_ten_users_all_paid(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed="ten")
    psc = ledger.contracts[psc_id]
    sessions = []
    for i in range(10):
        counts = tuple(rng.child(f"c{i}").randint(0, 5) for _ in range(9))
        session = UserSession(group, i, counts, rng.child(f"u{i}"))
        user_claim(group, ledger, psc_id, session, psc.pool_pk)
        user_payment_request(group, ledger, psc_id, session, plan.recovery_bound)
        sessions.append(session)
    analytics_round(group, ledger, psc_id, fsc_id, pool, 10 * 10)
    outcome = cf_settle(group, ledger, fsc_id, cf, rng.child("settle"))
    assert len(outcome.batch.notes) == 10
    from adreward.payments import verify_batch

    assert verify_batch(group, outcome.batch)
    mark_payments_processed(ledger, fsc_id, cf, outcome)
    fsc = ledger.contracts[fsc_id]
    assert len(fsc.paid) == 10 and fsc.campaign_complete


def test_analytics_round_two_users(group):
    plan = CampaignPlan(
        catalog=AdCatalog(entries=tuple(
            CatalogEntry(ad_id=f"a{i}", advertiser_id="adv-0", impression_budget=20) for i in range(3)
        )),
        policies=(4, 20, 12),
        fee=2,
        click_cap=5,
        recovery_bound=3 * 20 * 20,
    )
    _, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed="an2", plan=plan)
    psc = ledger.contracts[psc_id]
    for i, counts in enumerate([(3, 0, 2), (1, 1, 0)]):
        session = UserSession(group, i, counts, rng.child(f"u{i}"))
        user_claim(group, ledger, psc_id, session, psc.pool_pk)
    totals = analytics_round(group, ledger, psc_id, fsc_id, pool, 20)
    assert totals == (4, 1, 2)
    fsc = ledger.contracts[fsc_id]
    assert fsc.aggr_clicks == (4, 1, 2)


def test_analytics_detects_omitted_vector(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed="omit")
    psc = ledger.contracts[psc_id]
    for i in range(3):
        session = UserSession(group, i, (1,) * 9, rng.child(f"u{i}"))
        user_claim(group, ledger, psc_id, session, psc.pool_pk)
    analytics_round(group, ledger, psc_id, fsc_id, pool, 30)
    assert all(advertiser_verify_analytics(group, ledger, psc_id, fsc_id, a) for a in advertisers)
    # a dishonest pool posting that drops one user's vector is detected by the
    # advertiser-side recomputation over the full public log
    fsc = ledger.contracts[fsc_id]
    dropped_log = psc.enc_vec_prime_log[:-1]
    full = fsc.posted_aggregate_cts
    from adreward.elgamal import Ciphertext, add_ciphertexts

    sums = [Ciphertext(1, 1)] * 9
    for _, vec in dropped_log:
        sums = [add_ciphertexts(group, acc, ct) for acc, ct in zip(sums, vec)]
    fsc.posted_aggregate_cts = tuple(sums)
    assert not any(advertiser_verify_analytics(group, ledger, psc_id, fsc_id, a) for a in advertisers)
    fsc.posted_aggregate_cts = full


_VECTORS = ((1, 0, 2, 0, 0, 1, 0, 0, 3), (0, 4, 0, 0, 1, 0, 2, 0, 0))


def _claimed_campaign(group, seed):
    """A nine-ad campaign with the two claims of ``_VECTORS``, whose pool has a spare member and k >= 2."""
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed=seed)
    assert len(pool.members) > pool.cfg.k >= 2
    psc = ledger.contracts[psc_id]
    for i, counts in enumerate(_VECTORS):
        user_claim(group, ledger, psc_id, UserSession(group, i, counts, rng.child(f"u{i}")), psc.pool_pk)
    return ledger, psc_id, fsc_id, pool


def _no_totals_stored(ledger, fsc_id) -> bool:
    return (ledger.contracts[fsc_id].aggr_clicks == (0,) * 9
            and all(tx.call.method != "store_aggr_clicks" for tx in ledger.tx_log))


def test_analytics_combines_the_first_k_accepted_rows_past_a_refused_member(group, monkeypatch):
    ledger, psc_id, fsc_id, pool = _claimed_campaign(group, "analytics-refused")
    refused = pool.members[0].pool_index

    def partial_decrypt_with_a_bad_first_member(grp, pool_index, share, commitment, ct):
        partial = partial_decrypt(grp, pool_index, share, commitment, ct)
        if pool_index != refused:
            return partial
        return dataclasses.replace(partial, d_i=partial.d_i * grp.g % grp.p)

    monkeypatch.setattr(actors, "partial_decrypt", partial_decrypt_with_a_bad_first_member)
    totals = analytics_round(group, ledger, psc_id, fsc_id, pool, 20)
    assert totals == tuple(map(sum, zip(*_VECTORS)))
    fsc = ledger.contracts[fsc_id]
    assert list(fsc.posted_partials) == [m.pool_index for m in pool.members[1:]]  # the quorum leaves out member 1
    assert fsc.aggr_clicks == totals


def test_a_non_residue_claim_ends_analytics_in_insufficient_shares_naming_each_refused_member(group):
    ledger, psc_id, fsc_id, pool = _claimed_campaign(group, "non-residue")
    psc = ledger.contracts[psc_id]
    attacker = UserSession(group, 2, (1,) * 9, DetRng("non-residue-attacker"))
    enc_vec = tuple(encrypt_vector(group, attacker.ephemeral.pk, [1] * 9, attacker.enc_rng))
    enc_vec_prime = list(encrypt_vector(group, psc.pool_pk, [1] * 9, attacker.enc_rng))
    enc_vec_prime[0] = Ciphertext(group.p - enc_vec_prime[0].c1, enc_vec_prime[0].c2)
    receipt = ledger.call(attacker.ephemeral, Call(
        psc_id, "compute_aggregate", (attacker.ephemeral.pk, enc_vec, tuple(enc_vec_prime)),
    ))
    assert receipt.status == "ok"  # the chain does not check subgroup membership yet
    # Over a non-residue c1, whether a member's proof passes depends on the parity of
    # (w + e * share) // q, so it differs per member; with this seed too few rows pass.
    with pytest.raises(InsufficientShares) as raised:
        analytics_round(group, ledger, psc_id, fsc_id, pool, 30)
    fsc = ledger.contracts[fsc_id]
    refused = [m.pool_index for m in pool.members if m.pool_index not in fsc.posted_partials]
    assert len(refused) > len(pool.members) - pool.cfg.k
    for index in refused:
        reason = f"ProofRejected: partial decryption from member {index} rejected for ad 0"
        assert f"member {index}: {reason}" in str(raised.value)
    assert _no_totals_stored(ledger, fsc_id)


@pytest.mark.parametrize("quorum, error", [(False, InsufficientShares), (True, InvalidPartial)],
                         ids=["one-row", "a-quorum"])
def test_a_first_posting_of_shifted_sums_ends_analytics_in_a_typed_error_with_no_totals(group, quorum, error):
    ledger, psc_id, fsc_id, pool = _claimed_campaign(group, "shifted-sums")
    planted = pool.cfg.k if quorum else 1
    sums = aggregate_click_ciphertexts(group, ledger, psc_id, range(9))
    shifted = (add_ciphertexts(group, sums[0], Ciphertext(1, group.g)),) + sums[1:]  # one more click on ad 0
    for member in pool.members[:planted]:
        share, commitment = member.material.share, member.material.share_commitments[member.pool_index]
        partials = tuple(partial_decrypt(group, member.pool_index, share, commitment, ct) for ct in shifted)
        receipt = ledger.call(member.account, Call(fsc_id, "post_analytics", (member.pool_index, shifted, partials)))
        assert receipt.status == "ok"  # the chain does not compare posted sums with the claim log yet
    with pytest.raises(error) as raised:
        analytics_round(group, ledger, psc_id, fsc_id, pool, 30)
    if error is InsufficientShares:
        for member in pool.members:
            assert f"member {member.pool_index}: Revert: posted aggregates disagree" in str(raised.value)
    assert _no_totals_stored(ledger, fsc_id)


def _audited_campaign(group, seed):
    """Nine ads of three advertisers, three users and a posted analytics round."""
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed=seed)
    assert len(advertisers) == 3 and len(pool.members) >= 2
    psc = ledger.contracts[psc_id]
    for i in range(3):
        session = UserSession(group, i, (i + 1,) * 9, rng.child(f"u{i}"))
        user_claim(group, ledger, psc_id, session, psc.pool_pk)
    analytics_round(group, ledger, psc_id, fsc_id, pool, 30)
    return ledger, advertisers, psc_id, fsc_id


def test_bad_partial_fails_only_its_owners_audit(group):
    ledger, advertisers, psc_id, fsc_id = _audited_campaign(group, "owner-audit")
    fsc = ledger.contracts[fsc_id]
    honest = dict(fsc.posted_partials)
    for pool_index, row in honest.items():
        for ad in range(len(row)):
            bad_proof = dataclasses.replace(row[ad].proof, response=(row[ad].proof.response + 1) % group.q)
            bad = dataclasses.replace(row[ad], proof=bad_proof)
            fsc.posted_partials[pool_index] = row[:ad] + (bad,) + row[ad + 1:]
            verdicts = [advertiser_verify_analytics(group, ledger, psc_id, fsc_id, a) for a in advertisers]
            assert verdicts == [ad not in a.ad_indices for a in advertisers], (pool_index, ad)
            assert not all(verdicts)
        fsc.posted_partials[pool_index] = row


def test_audit_verifies_each_posted_partial_once(group, monkeypatch):
    import adreward.dkg as dkg

    ledger, advertisers, psc_id, fsc_id = _audited_campaign(group, "audit-once")
    fsc = ledger.contracts[fsc_id]
    commitments = ledger.contracts[psc_id].pool_share_commitments
    batched, single = [], []
    batch, verify_partial = actors.dleq_verify_batch, dkg.verify_partial

    def counting_batch(group_, domain, statements):
        batched.append(list(statements))
        return batch(group_, domain, statements)

    def counting_single(*args):
        single.append(args)
        return verify_partial(*args)

    monkeypatch.setattr(actors, "dleq_verify_batch", counting_batch)
    monkeypatch.setattr(dkg, "dleq_verify_batch", counting_batch)
    monkeypatch.setattr(dkg, "verify_partial", counting_single)
    assert all(advertiser_verify_analytics(group, ledger, psc_id, fsc_id, a) for a in advertisers)
    posted = [
        dkg.partial_statement(group, ct, partial, commitments[index])
        for index, row in fsc.posted_partials.items()
        for ct, partial in zip(fsc.posted_aggregate_cts, row)
    ]
    # one batch per advertiser, each posted partial in exactly one of them, and no check of a single partial
    assert len(batched) == len(advertisers)
    assert sorted(map(repr, (s for statements in batched for s in statements))) == sorted(map(repr, posted))
    assert len(set(posted)) == len(fsc.posted_partials) * len(fsc.posted_aggregate_cts)
    assert single == []


def test_pool_selection_statistics_and_forgery(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, _, rng = build_campaign(group, seed="draw", with_pool=False)
    registrants = make_pool_registrants(group, 100, rng.child("reg"))
    pool = pool_selection(group, ledger, psc_id, cf, registrants, 10, rng.child("dkg"))
    assert 1 <= len(pool.members) <= 30  # around 10 expected
    # forged randomness rejected at publication
    psc = ledger.contracts[psc_id]
    from adreward.vrf import vrf_rand_gen

    honest = vrf_rand_gen(group, registrants[0].vrf_key.vrf_sk, psc.epsilon)
    forged = dataclasses.replace(honest, rand=0)
    receipt = ledger.call(registrants[0].account, Call(psc_id, "publish_win", (registrants[0].reg_id, forged)))
    assert receipt.status == "reverted"


def test_single_registrant_pool(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(
        group, seed="solo", registered=1, expected=1,
    )
    assert len(pool.members) == 1
    assert pool.cfg.k == 1
    psc = ledger.contracts[psc_id]
    assert psc.pool_pk == pool.members[0].material.pk_T


def test_pool_survives_misbehaving_dealer(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(
        group, seed="baddealer", registered=6, expected=4, bad_dealers={2},
    )
    # threshold decryption still works end to end
    psc = ledger.contracts[psc_id]
    session = UserSession(group, 0, (2,) * 9, rng.child("u"))
    user_claim(group, ledger, psc_id, session, psc.pool_pk)
    totals = analytics_round(group, ledger, psc_id, fsc_id, pool, 20)
    assert totals == (2,) * 9


def test_centralized_baseline_cross_check(group):
    """The decentralized pipeline pays exactly what the single-manager baseline pays."""
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed="xcheck")
    psc = ledger.contracts[psc_id]
    manager = CampaignManager(group, plan.policies, seed="cm")
    fsc = ledger.contracts[fsc_id]
    for i in range(5):
        counts = tuple(rng.child(f"cc{i}").randint(0, 9) for _ in range(9))
        session = UserSession(group, i, counts, rng.child(f"cu{i}"))
        user_claim(group, ledger, psc_id, session, psc.pool_pk)
        user_payment_request(group, ledger, psc_id, session, plan.recovery_bound)

        # baseline path with the same vector and an independent ephemeral key
        user = keygen(group, rng.child(f"sm{i}"))
        enc_vec = encrypt_vector(group, user.pk, list(counts), rng.child(f"sme{i}"))
        aggregate, reward_sig = manager.compute_reward(user.pk, enc_vec)
        elem = decrypt_to_element(group, user.sk, aggregate)
        dec_result = recover_plaintext(group, elem, plan.recovery_bound)
        proof = prove_decryption(group, user, aggregate, dec_result)
        paid = manager.pay(user.pk, dec_result, aggregate, reward_sig, proof)

        assert fsc.payment_queue[session.reward_address] == paid


def test_sessions_rotate_keys_per_period(group):
    session = UserSession(group, 0, (1, 2, 3), DetRng("rotate"))
    first = (session.ephemeral.pk, session.payment_key.pk, session.reward_address)
    session.new_period()
    second = (session.ephemeral.pk, session.payment_key.pk, session.reward_address)
    assert first[0] != second[0]
    assert first[1] != second[1]
    assert first[2] != second[2]


def test_full_campaign_replays_bit_exactly(group):
    """Export the complete campaign log and re-execute it from genesis."""
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed="replay")
    psc = ledger.contracts[psc_id]
    for i in range(3):
        session = UserSession(group, i, (1, 0, 2, 0, 1, 0, 0, 0, 1), rng.child(f"u{i}"))
        user_claim(group, ledger, psc_id, session, psc.pool_pk)
        user_payment_request(group, ledger, psc_id, session, plan.recovery_bound)
    analytics_round(group, ledger, psc_id, fsc_id, pool, 30)
    outcome = cf_settle(group, ledger, fsc_id, cf, rng.child("settle"))
    mark_payments_processed(ledger, fsc_id, cf, outcome)

    rebuilt = LedgerState.replay(group, ledger.genesis_json(), ledger.export_tx_log())
    assert rebuilt.state_hash() == ledger.state_hash()
    assert rebuilt.contracts[fsc_id].aggr_clicks == ledger.contracts[fsc_id].aggr_clicks
    assert rebuilt.contracts[fsc_id].refunds_paid == ledger.contracts[fsc_id].refunds_paid


def test_aggregate_click_ciphertexts_matches_public_log(group):
    plan, ledger, cf, advertisers, psc_id, fsc_id, pool, rng = build_campaign(group, seed="aggsum")
    psc = ledger.contracts[psc_id]
    vectors = [(1, 0, 2, 0, 0, 1, 0, 0, 3), (0, 4, 0, 0, 1, 0, 2, 0, 0)]
    sessions = []
    for i, counts in enumerate(vectors):
        session = UserSession(group, i, counts, rng.child(f"u{i}"))
        user_claim(group, ledger, psc_id, session, psc.pool_pk)
        sessions.append(session)
    sums = aggregate_click_ciphertexts(group, ledger, psc_id, range(9))
    assert aggregate_click_ciphertexts(group, ledger, psc_id, (8, 2)) == (sums[8], sums[2])
    # decrypting the sums with the interpolated pool secret matches the vector sum
    from adreward.dkg import lagrange_at_zero

    ids = sorted(m.pool_index for m in pool.members)[: pool.cfg.k]
    coeffs = lagrange_at_zero(ids, group.q)
    secret = sum(pool.member_by_index(j).material.share * coeffs[j] for j in ids) % group.q
    for i, ct in enumerate(sums):
        elem = group.div(ct.c2, group.power(ct.c1, secret))
        assert recover_plaintext(group, elem, 20) == vectors[0][i] + vectors[1][i]
