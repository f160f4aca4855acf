"""Contract state-machine tests built around the three-ad worked example:
rewards [4, 20, 12] and an interaction vector [3, 0, 2] paying out 36."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreward import codec
from adreward.actors import (
    AdCatalog,
    Advertiser,
    CampaignFacilitator,
    CampaignPlan,
    CatalogEntry,
    UserSession,
    analytics_round,
    cf_settle,
    make_pool_registrants,
    mark_payments_processed,
    phase1_setup,
    pool_selection,
    user_claim,
    user_payment_request,
)
from adreward.contracts import FundContract, PolicyContract, keys_message, settlement_message
from adreward.elgamal import Ciphertext, decrypt, encrypt_vector, keygen
from adreward.encoding import DetRng, encode_element
from adreward.errors import PolicyMismatch
from adreward.ledger import Call, LedgerState, address_from_pk, contract_address
from adreward.proofs import Signature, sign
from adreward.scenario import _policy_plaintext_leaked

POLICIES = (4, 20, 12)


def make_plan(policies=POLICIES, advertisers=1, impressions=10, fee=10, click_cap=8):
    entries = tuple(
        CatalogEntry(ad_id=f"ad-{i}", advertiser_id=f"adv-{i % advertisers}", impression_budget=impressions)
        for i in range(len(policies))
    )
    bound = len(policies) * max(policies) * impressions
    return CampaignPlan(
        catalog=AdCatalog(entries=entries),
        policies=tuple(policies),
        fee=fee,
        click_cap=click_cap,
        recovery_bound=bound,
    )


class Campaign:
    def __init__(self, group, plan=None, seed="contract-campaign", with_pool=False):
        plan = plan or make_plan()
        rng = DetRng(seed)
        self.group = group
        self.plan = plan
        self.cf = CampaignFacilitator(group, plan, rng.child("cf"))
        self.advertisers = [
            Advertiser(group, adv_id, plan, rng.child(f"adv-{adv_id}"))
            for adv_id in plan.advertiser_ids()
        ]
        fee_shares = plan.fee_shares()
        balances = {
            adv.address: plan.budget_of(adv.adv_id) + fee_shares[adv.adv_id]
            for adv in self.advertisers
        }
        self.deposits = sum(balances.values())
        self.ledger = LedgerState.genesis(group, seed, balances)
        self.psc_id, self.fsc_id = phase1_setup(group, self.ledger, self.cf, self.advertisers, "t")
        self.rng = rng
        self.pool = None
        if with_pool:
            registrants = make_pool_registrants(group, 5, rng.child("pool"))
            self.pool = pool_selection(group, self.ledger, self.psc_id, self.cf, registrants, 3, rng.child("dkg"))

    @property
    def psc(self):
        return self.ledger.contracts[self.psc_id]

    @property
    def fsc(self):
        return self.ledger.contracts[self.fsc_id]

    def session(self, counts, label="user"):
        return UserSession(self.group, 0, tuple(counts), self.rng.child(label))

    def claim(self, counts, label="user"):
        if self.psc.pool_pk is None:
            registrants = make_pool_registrants(self.group, 5, self.rng.child("latepool"))
            self.pool = pool_selection(self.group, self.ledger, self.psc_id, self.cf, registrants, 3, self.rng.child("latedkg"))
        session = self.session(counts, label)
        user_claim(self.group, self.ledger, self.psc_id, session, self.psc.pool_pk)
        return session


@pytest.fixture
def campaign(group):
    return Campaign(group)


# -- aggregate computation (worked example) ---------------------------------------


def test_worked_example_dot_product(campaign, group):
    session = campaign.claim([3, 0, 2])
    assert decrypt(group, session.ephemeral.sk, session.aggregate, bound=1000) == 36


def test_all_zero_vector_aggregates_to_zero(campaign, group):
    session = campaign.claim([0, 0, 0], label="zero-user")
    assert decrypt(group, session.ephemeral.sk, session.aggregate, bound=10) == 0


def test_vector_length_mismatch_reverts(campaign, group):
    session = campaign.session([1, 1])
    short = tuple(encrypt_vector(group, session.ephemeral.pk, [1, 1], session.enc_rng))
    receipt = campaign.ledger.call(session.ephemeral, Call(
        campaign.psc_id, "compute_aggregate", (session.ephemeral.pk, short, short),
    ))
    assert receipt.status == "reverted"
    assert "LengthMismatch" in receipt.revert_reason


def test_store_policy_access_control(campaign, group):
    outsider = keygen(group, DetRng("outsider"))
    receipt = campaign.ledger.call(outsider, Call(campaign.psc_id, "store_policy", (0, b"sealed")))
    assert "Unauthorized" in receipt.revert_reason
    receipt = campaign.ledger.call(campaign.cf.account, Call(campaign.psc_id, "store_policy", (3, b"sealed")))
    assert "IndexOutOfRange" in receipt.revert_reason


def test_store_encrypted_keys_signature_and_length(campaign, group):
    psc = campaign.psc
    wrapped = psc.enc_keys
    outsider = keygen(group, DetRng("forger"))
    forged = sign(group, outsider, keys_message(campaign.psc_id, wrapped))
    receipt = campaign.ledger.call(campaign.cf.account, Call(
        campaign.psc_id, "store_encrypted_keys", (wrapped, forged),
    ))
    assert "BadSignature" in receipt.revert_reason
    good_sig = sign(group, campaign.cf.account, keys_message(campaign.psc_id, wrapped[:2]))
    receipt = campaign.ledger.call(campaign.cf.account, Call(
        campaign.psc_id, "store_encrypted_keys", (wrapped[:2], good_sig),
    ))
    assert "LengthMismatch" in receipt.revert_reason


def test_get_aggregate_unknown_key_and_stability(campaign, group):
    from adreward.errors import NotFound

    with pytest.raises(NotFound):
        campaign.ledger.view(campaign.psc_id, "get_aggregate", 12345)
    session = campaign.claim([1, 0, 0])
    first = campaign.ledger.view(campaign.psc_id, "get_aggregate", session.ephemeral.pk)
    second = campaign.ledger.view(campaign.psc_id, "get_aggregate", session.ephemeral.pk)
    assert first == second  # bit-identical stored value


def test_one_claim_per_key(campaign, group):
    session = campaign.claim([3, 0, 2])
    before = campaign.psc.state_bytes()
    enc_vec = tuple(encrypt_vector(group, session.ephemeral.pk, [8, 8, 8], session.enc_rng))
    receipt = campaign.ledger.call(session.ephemeral, Call(
        campaign.psc_id, "compute_aggregate", (session.ephemeral.pk, enc_vec, enc_vec),
    ))
    assert receipt.revert_reason == "Revert: this key already has an aggregate"
    assert campaign.psc.state_bytes() == before
    assert campaign.ledger.view(campaign.psc_id, "get_aggregate", session.ephemeral.pk) == (
        session.aggregate, session.aggregate_sig,
    )


def test_claim_must_be_sent_by_the_claimed_key(campaign, group):
    session = campaign.claim([1, 0, 0])  # provisions the pool
    victim = campaign.session([1, 1, 1], label="victim")
    enc_vec = tuple(encrypt_vector(group, victim.ephemeral.pk, [8, 8, 8], victim.enc_rng))
    receipt = campaign.ledger.call(session.ephemeral, Call(
        campaign.psc_id, "compute_aggregate", (victim.ephemeral.pk, enc_vec, enc_vec),
    ))
    assert receipt.revert_reason.startswith("Unauthorized: ")
    assert encode_element(victim.ephemeral.pk) not in campaign.psc.aggregates
    assert len(campaign.psc.enc_vec_prime_log) == 1


def test_rejected_claim_retry_leaves_analytics_at_the_oracle(group):
    campaign = Campaign(group, seed="retry", with_pool=True)
    counts_list = ((3, 0, 2), (1, 1, 0))
    sessions = [campaign.claim(counts, label=f"user-{i}") for i, counts in enumerate(counts_list)]
    retry = tuple(encrypt_vector(group, campaign.psc.pool_pk, [2, 2, 2], sessions[0].enc_rng))
    receipt = campaign.ledger.call(sessions[0].ephemeral, Call(
        campaign.psc_id, "compute_aggregate", (sessions[0].ephemeral.pk, retry, retry),
    ))
    assert receipt.status == "reverted"
    totals = analytics_round(group, campaign.ledger, campaign.psc_id, campaign.fsc_id, campaign.pool,
                             len(counts_list) * campaign.plan.click_cap)
    oracle = [sum(column) for column in zip(*counts_list)]
    assert list(totals) == oracle
    assert list(campaign.fsc.aggr_clicks) == oracle


@pytest.mark.parametrize("vector, index, malform", [
    ("enc_vec_prime", 1, lambda ct, p: 7),
    ("enc_vec_prime", 0, lambda ct, p: Ciphertext(ct.c1, 0)),
    ("enc_vec_prime", 2, lambda ct, p: Ciphertext(0, ct.c2)),
    ("enc_vec_prime", 2, lambda ct, p: Ciphertext(ct.c1 + p, ct.c2)),
    ("enc_vec", 0, lambda ct, p: Ciphertext(0, ct.c2)),
], ids=["int", "c2-zero", "c1-zero", "c1-unreduced", "aggregate-c1-zero"])
def test_malformed_claim_ciphertext_reverts_and_analytics_stay_at_the_oracle(group, vector, index, malform):
    campaign = Campaign(group, seed="malformed", with_pool=True)
    honest = ((3, 0, 2), (1, 1, 0))
    for i, counts in enumerate(honest):
        campaign.claim(counts, label=f"user-{i}")
    attacker = campaign.session((2, 2, 2), label="attacker")
    vectors = {
        "enc_vec": list(encrypt_vector(group, attacker.ephemeral.pk, [2, 2, 2], attacker.enc_rng)),
        "enc_vec_prime": list(encrypt_vector(group, campaign.psc.pool_pk, [2, 2, 2], attacker.enc_rng)),
    }
    vectors[vector][index] = malform(vectors[vector][index], group.p)
    receipt = campaign.ledger.call(attacker.ephemeral, Call(
        campaign.psc_id, "compute_aggregate",
        (attacker.ephemeral.pk, tuple(vectors["enc_vec"]), tuple(vectors["enc_vec_prime"])),
    ))
    assert receipt.revert_reason == f"Revert: {vector}[{index}] is not a ciphertext with 0 < c1, c2 < p"
    assert encode_element(attacker.ephemeral.pk) not in campaign.psc.aggregates
    totals = analytics_round(group, campaign.ledger, campaign.psc_id, campaign.fsc_id, campaign.pool,
                             len(honest) * campaign.plan.click_cap)
    assert list(totals) == [sum(column) for column in zip(*honest)]


# -- payment requests ---------------------------------------------------------------


def test_honest_payment_request_queues_amount(campaign, group):
    session = campaign.claim([3, 0, 2])
    user_payment_request(group, campaign.ledger, campaign.psc_id, session, campaign.plan.recovery_bound)
    assert campaign.fsc.payment_queue == {session.reward_address: 36}


def test_wrong_claimed_plaintext_rejected_on_chain(campaign, group):
    from adreward.errors import Revert

    session = campaign.claim([3, 0, 2])
    with pytest.raises(Revert, match="ProofRejected"):
        user_payment_request(
            group, campaign.ledger, campaign.psc_id, session,
            campaign.plan.recovery_bound, proof_plaintext_offset=1,
        )


def test_duplicate_address_rejected(campaign, group):
    from adreward.errors import Revert

    session = campaign.claim([3, 0, 2])
    user_payment_request(group, campaign.ledger, campaign.psc_id, session, campaign.plan.recovery_bound)
    with pytest.raises(Revert, match="DuplicateAddress"):
        user_payment_request(group, campaign.ledger, campaign.psc_id, session, campaign.plan.recovery_bound)


def test_payment_request_unknown_aggregate(campaign, group):
    from adreward.proofs import DleqProof, Signature

    stranger = keygen(group, DetRng("stranger"))
    request = (stranger.pk, 1, Signature(1, 2, 3), DleqProof(1, 2, 3, 4), b"\x01" * 20)
    receipt = campaign.ledger.call(stranger, Call(campaign.psc_id, "payment_request", ()), private_args=request)
    assert "NotFound" in receipt.revert_reason


# -- fund contract: registration and funding ------------------------------------------


def test_store_adv_id_rules(group):
    campaign = Campaign(group, seed="adv-rules")
    outsider = keygen(group, DetRng("outsider2"))
    receipt = campaign.ledger.call(outsider, Call(campaign.fsc_id, "store_adv_id", ("x", (0,), 1, 0)))
    assert "Unauthorized" in receipt.revert_reason
    # campaign is already initialized by the fixture, so adding now must fail
    receipt = campaign.ledger.call(campaign.cf.account, Call(campaign.fsc_id, "store_adv_id", ("late", (0,), 1, 0)))
    assert "AlreadyInitialized" in receipt.revert_reason


def test_duplicate_advertiser_rejected(group):
    plan = make_plan(advertisers=1)
    campaign = Campaign(group, plan, seed="dup-adv")
    assert campaign.fsc.initialized  # duplicate check happens pre-init in a fresh deploy


def test_funding_gates_and_deposit_arithmetic(group):
    plan = make_plan(policies=(4, 20, 12), advertisers=3, impressions=10, fee=9)
    rng = DetRng("funding")
    cf = CampaignFacilitator(group, plan, rng.child("cf"))
    advertisers = [Advertiser(group, a, plan, rng.child(a)) for a in plan.advertiser_ids()]
    fee_shares = plan.fee_shares()
    # each advertiser holds one ad: required = policy * impressions + fee share
    expected_required = {
        adv.adv_id: plan.policies[adv.ad_indices[0]] * 10 + fee_shares[adv.adv_id]
        for adv in advertisers
    }
    balances = {adv.address: expected_required[adv.adv_id] for adv in advertisers}
    ledger = LedgerState.genesis(group, "funding", balances)
    assert sum(fee_shares.values()) == 9

    psc_id, fsc_id = "psc/f", "fsc/f"
    ledger.call(cf.account, Call("system", "deploy", ("policy", psc_id, (cf.account.pk, 3, fsc_id))))
    ledger.call(cf.account, Call("system", "deploy", ("fund", fsc_id, (cf.account.pk, 9, 3, psc_id))))
    for adv in advertisers:
        ledger.call(cf.account, Call(
            fsc_id, "store_adv_id",
            (adv.adv_id, adv.ad_indices, expected_required[adv.adv_id], fee_shares[adv.adv_id]),
        ))
    fsc = ledger.contracts[fsc_id]

    receipt = ledger.call(advertisers[0].account, Call(fsc_id, "store_funds", ("nobody", 5)))
    assert "UnknownAdvertiser" in receipt.revert_reason
    receipt = ledger.call(advertisers[0].account, Call(
        fsc_id, "store_funds", (advertisers[0].adv_id, expected_required[advertisers[0].adv_id] - 1),
    ))
    assert "InsufficientFunds" in receipt.revert_reason

    for i, adv in enumerate(advertisers):
        assert not fsc.initialized
        ledger.call(adv.account, Call(fsc_id, "store_funds", (adv.adv_id, expected_required[adv.adv_id])))
    assert fsc.initialized  # the last deposit flips the campaign on


def test_tampered_sealed_policy_aborts_before_staking(group):
    plan = make_plan()
    rng = DetRng("tampered")
    cf = CampaignFacilitator(group, plan, rng.child("cf"))
    advertisers = [Advertiser(group, a, plan, rng.child(a)) for a in plan.advertiser_ids()]
    balances = {advertisers[0].address: 10_000}
    ledger = LedgerState.genesis(group, "tampered", balances)
    with pytest.raises(PolicyMismatch):
        phase1_setup(group, ledger, cf, advertisers, "t", tamper_policy_index=1)
    assert ledger.contracts["fsc/t"].escrow == {}  # nobody staked


# -- analytics accumulation ------------------------------------------------------------


def test_store_aggr_clicks_accumulates_with_pool_signatures(group):
    from adreward.contracts import clicks_message

    campaign = Campaign(group, seed="clicks", with_pool=True)
    pool = campaign.pool
    values = (7, 5, 1)
    msg = clicks_message(campaign.fsc_id, values)
    cosigs = tuple(
        (m.pool_index, sign(group, m.sign_key, msg))
        for m in pool.members[: pool.cfg.k]
    )
    sender = pool.members[0].account
    assert campaign.ledger.call(sender, Call(campaign.fsc_id, "store_aggr_clicks", (values, cosigs))).status == "ok"
    assert campaign.fsc.aggr_clicks == (7, 5, 1)
    # accumulation: second posting adds element-wise (brute-force sum oracle)
    zero = (0, 0, 0)
    zero_sigs = tuple(
        (m.pool_index, sign(group, m.sign_key, clicks_message(campaign.fsc_id, zero)))
        for m in pool.members[: pool.cfg.k]
    )
    campaign.ledger.call(sender, Call(campaign.fsc_id, "store_aggr_clicks", (zero, zero_sigs)))
    assert campaign.fsc.aggr_clicks == (7, 5, 1)

    forged = tuple((idx, sign(group, keygen(group, DetRng("f")), msg)) for idx, _ in cosigs)
    receipt = campaign.ledger.call(sender, Call(campaign.fsc_id, "store_aggr_clicks", (values, forged)))
    assert "BadSignature" in receipt.revert_reason
    receipt = campaign.ledger.call(sender, Call(campaign.fsc_id, "store_aggr_clicks", (values, cosigs[:-1])))
    assert "BadSignature" in receipt.revert_reason


# -- settlement, refunds, fees ------------------------------------------------------------


def run_full_campaign(group, seed="full", underpay_delta=0, overdraw=0, counts_list=((3, 0, 2), (1, 1, 0))):
    campaign = Campaign(group, make_plan(advertisers=3, impressions=20, fee=9), seed=seed, with_pool=True)
    sessions = [campaign.claim(counts, label=f"user-{i}") for i, counts in enumerate(counts_list)]
    for session in sessions:
        user_payment_request(group, campaign.ledger, campaign.psc_id, session, campaign.plan.recovery_bound)
    click_bound = len(counts_list) * campaign.plan.click_cap * 4
    analytics_round(group, campaign.ledger, campaign.psc_id, campaign.fsc_id, campaign.pool, click_bound)
    underpay = None
    if underpay_delta:
        underpay = {sessions[0].reward_address: underpay_delta}
    outcome = cf_settle(group, campaign.ledger, campaign.fsc_id, campaign.cf,
                        campaign.rng.child("settle"), underpay=underpay, overdraw=overdraw)
    for session in sessions:
        session.opening = outcome.openings.get(session.reward_address)
    return campaign, sessions, outcome


def test_settlement_request_guards(group):
    campaign, sessions, _ = run_full_campaign(group, seed="guards")
    fsc = campaign.fsc
    outsider = keygen(group, DetRng("outsider3"))
    bad_sig = sign(group, outsider, settlement_message(campaign.fsc_id, fsc.settlement_count, 5))
    receipt = campaign.ledger.call(campaign.cf.account, Call(campaign.fsc_id, "settlement_request", (5, bad_sig)))
    assert "BadSignature" in receipt.revert_reason
    huge = campaign.deposits + 1
    good_sig = sign(group, campaign.cf.account, settlement_message(campaign.fsc_id, fsc.settlement_count, huge))
    receipt = campaign.ledger.call(campaign.cf.account, Call(campaign.fsc_id, "settlement_request", (huge, good_sig)))
    assert "InsufficientFunds" in receipt.revert_reason


def test_payment_processed_flow_and_refund_conservation(group):
    campaign, sessions, outcome = run_full_campaign(group, seed="flow")
    fsc = campaign.fsc
    receipt = campaign.ledger.call(campaign.cf.account, Call(
        campaign.fsc_id, "payment_processed", (b"\x00" * 32, sessions[0].reward_address),
    ))
    assert "UnknownTxRef" in receipt.revert_reason

    mark_payments_processed(campaign.ledger, campaign.fsc_id, campaign.cf, outcome)
    assert fsc.campaign_complete
    # double-mark is an idempotent no-op
    tx_ref, _, _ = sessions[0].opening
    before = campaign.ledger.contracts[campaign.fsc_id].state_bytes()
    campaign.ledger.call(campaign.cf.account, Call(
        campaign.fsc_id, "payment_processed", (tx_ref, sessions[0].reward_address),
    ))
    assert campaign.ledger.contracts[campaign.fsc_id].state_bytes() == before

    fee_receipt = campaign.ledger.call(campaign.cf.account, Call(campaign.fsc_id, "pay_processing_fees", ()))
    assert fee_receipt.status == "ok"
    payouts = sum(fsc.payment_queue.values())
    refunds = sum(fsc.refunds_paid.values())
    assert campaign.deposits == payouts + refunds + campaign.plan.fee
    assert campaign.ledger.balance(contract_address(campaign.fsc_id)) == 0


def test_zero_click_campaign_full_refund_minus_fee(group):
    campaign, sessions, outcome = run_full_campaign(group, seed="zero", counts_list=((0, 0, 0),))
    mark_payments_processed(campaign.ledger, campaign.fsc_id, campaign.cf, outcome)
    fsc = campaign.fsc
    fee_shares = campaign.plan.fee_shares()
    for adv in campaign.advertisers:
        assert fsc.refunds_paid[adv.adv_id] == fsc.escrow[adv.adv_id] - fee_shares[adv.adv_id]


def test_clicks_exhaust_budget_zero_refund(group):
    # single ad, budget exactly equals consumption
    plan = make_plan(policies=(5,), advertisers=1, impressions=4, fee=0, click_cap=4)
    campaign = Campaign(group, plan, seed="exhaust", with_pool=True)
    session = campaign.claim([4])
    user_payment_request(group, campaign.ledger, campaign.psc_id, session, plan.recovery_bound)
    analytics_round(group, campaign.ledger, campaign.psc_id, campaign.fsc_id, campaign.pool, 4)
    outcome = cf_settle(group, campaign.ledger, campaign.fsc_id, campaign.cf, campaign.rng.child("settle"))
    mark_payments_processed(campaign.ledger, campaign.fsc_id, campaign.cf, outcome)
    assert campaign.fsc.refunds_paid[campaign.advertisers[0].adv_id] == 0


def test_pay_processing_fees_zero_fee_allowed(group):
    plan = make_plan(policies=(5,), advertisers=1, impressions=4, fee=0, click_cap=4)
    campaign = Campaign(group, plan, seed="zerofee", with_pool=True)
    session = campaign.claim([1])
    user_payment_request(group, campaign.ledger, campaign.psc_id, session, plan.recovery_bound)
    analytics_round(group, campaign.ledger, campaign.psc_id, campaign.fsc_id, campaign.pool, 4)
    outcome = cf_settle(group, campaign.ledger, campaign.fsc_id, campaign.cf, campaign.rng.child("settle"))
    mark_payments_processed(campaign.ledger, campaign.fsc_id, campaign.cf, outcome)
    receipt = campaign.ledger.call(campaign.cf.account, Call(campaign.fsc_id, "pay_processing_fees", ()))
    assert receipt.status == "ok"


# -- complaints ---------------------------------------------------------------------------


def test_underpaid_user_complaint_flags_cf(group):
    campaign, sessions, outcome = run_full_campaign(group, seed="underpaid", underpay_delta=6)
    tx_ref, r, paid = sessions[0].opening
    assert paid == 30 and campaign.fsc.payment_queue[sessions[0].reward_address] == 36
    receipt = campaign.ledger.call(sessions[0].payment_key, Call(
        campaign.fsc_id, "raise_complaint", (sessions[0].ephemeral.pk, tx_ref, r, paid),
    ))
    assert receipt.status == "ok"
    assert campaign.fsc.cf_flagged_dishonest and campaign.fsc.state_failed
    mark_payments_processed(campaign.ledger, campaign.fsc_id, campaign.cf, outcome)
    fee_receipt = campaign.ledger.call(campaign.cf.account, Call(campaign.fsc_id, "pay_processing_fees", ()))
    assert "CampaignFailed" in (fee_receipt.revert_reason or "")


def test_correct_payment_complaint_does_not_flag(group):
    campaign, sessions, outcome = run_full_campaign(group, seed="honest-complaint")
    tx_ref, r, paid = sessions[0].opening
    receipt = campaign.ledger.call(sessions[0].payment_key, Call(
        campaign.fsc_id, "raise_complaint", (sessions[0].ephemeral.pk, tx_ref, r, paid),
    ))
    assert receipt.status == "ok"
    assert not campaign.fsc.cf_flagged_dishonest


def test_complaint_bad_opening_and_unknown_ref(group):
    campaign, sessions, outcome = run_full_campaign(group, seed="bad-opening")
    tx_ref, r, paid = sessions[0].opening
    receipt = campaign.ledger.call(sessions[0].payment_key, Call(
        campaign.fsc_id, "raise_complaint", (sessions[0].ephemeral.pk, tx_ref, (r + 1) % group.q, paid),
    ))
    assert "BadOpening" in receipt.revert_reason
    receipt = campaign.ledger.call(sessions[0].payment_key, Call(
        campaign.fsc_id, "raise_complaint", (sessions[0].ephemeral.pk, b"\x09" * 32, r, paid),
    ))
    assert "NoSuchRequest" in receipt.revert_reason
    assert not campaign.fsc.cf_flagged_dishonest


def test_overwithdrawal_detected_by_refund_claims(group):
    campaign, sessions, outcome = run_full_campaign(group, seed="siphon", overdraw=9 + 5)  # fee + 5
    mark_payments_processed(campaign.ledger, campaign.fsc_id, campaign.cf, outcome)
    assert campaign.fsc.refund_deficit
    for adv in campaign.advertisers:
        campaign.ledger.call(adv.account, Call(campaign.fsc_id, "claim_insufficient_refund", (adv.adv_id,)))
    assert campaign.fsc.cf_flagged_dishonest


def test_honest_refund_claims_do_not_flag(group):
    campaign, sessions, outcome = run_full_campaign(group, seed="honest-claims")
    mark_payments_processed(campaign.ledger, campaign.fsc_id, campaign.cf, outcome)
    for adv in campaign.advertisers:
        receipt = campaign.ledger.call(adv.account, Call(campaign.fsc_id, "claim_insufficient_refund", (adv.adv_id,)))
        assert receipt.status == "ok"
    assert not campaign.fsc.cf_flagged_dishonest
    receipt = campaign.ledger.call(
        campaign.advertisers[0].account, Call(campaign.fsc_id, "claim_insufficient_refund", ("ghost",)),
    )
    assert "UnknownAdvertiser" in receipt.revert_reason


# -- dot-product property and privacy -------------------------------------------------------


@pytest.mark.parametrize("n_ads,cases", [(8, 60), (64, 30), (256, 12)])
def test_dot_product_random_policies_and_vectors(group, n_ads, cases):
    rng = DetRng(f"dot-{n_ads}")
    policies = tuple(rng.randint(1, 255) for _ in range(n_ads))
    plan = make_plan(policies=policies, advertisers=2, impressions=260, fee=5, click_cap=255)
    campaign = Campaign(group, plan, seed=f"dot-{n_ads}", with_pool=True)
    for case in range(cases):
        counts = [rng.randint(0, 255) for _ in range(n_ads)]
        session = campaign.claim(counts, label=f"case-{case}")
        expected = sum(p * a for p, a in zip(policies, counts))
        assert decrypt(group, session.ephemeral.sk, session.aggregate, bound=plan.recovery_bound) == expected


def test_policy_plaintexts_never_in_public_storage(group):
    # distinctive values that cannot appear by coincidence
    policies = (999983, 424243, 777779)
    plan = make_plan(policies=policies, advertisers=3, impressions=4, fee=3, click_cap=3)
    campaign = Campaign(group, plan, seed="privacy", with_pool=True)
    session = campaign.claim([1, 2, 3])
    user_payment_request(group, campaign.ledger, campaign.psc_id, session, plan.recovery_bound)
    assert not _policy_plaintext_leaked(campaign.ledger, campaign.ledger.state_parts(), policies)


# -- storage declaration and atomicity ----------------------------------------------------------

NOT_STORAGE = {"ledger", "contract_id", "address", "_policy_cache"}


@pytest.mark.parametrize("which", ["psc", "fsc"])
def test_storage_declaration_covers_every_attribute(group, which):
    campaign, _, _ = run_full_campaign(group, seed=f"declaration-{which}")
    contract = getattr(campaign, which)
    cls = type(contract)
    declared = cls.DEPLOYED + cls.STORAGE
    assert len(set(declared)) == len(declared)
    assert set(cls.HASHED_AS) <= set(declared)
    assert set(declared) <= set(vars(contract))
    assert set(vars(contract)) - set(declared) <= NOT_STORAGE
    assert set(cls.CACHES) <= NOT_STORAGE


@pytest.mark.parametrize("which", ["psc", "fsc"])
def test_restore_undoes_a_change_to_every_storage_field(group, which):
    campaign, _, _ = run_full_campaign(group, seed=f"rollback-{which}")
    contract = getattr(campaign, which)
    before = contract.state_bytes()
    snap = contract.snapshot()
    marker = object()
    for name in contract.STORAGE:
        value = getattr(contract, name)
        if isinstance(value, list):
            value.append(marker)
        elif isinstance(value, dict):
            value[marker] = marker
        else:
            setattr(contract, name, marker)
    contract.restore(snap)
    assert contract.state_bytes() == before
    if which == "psc":
        assert contract._policy_cache is None  # filled by the campaign's claims, dropped by rollback
    else:
        assert not hasattr(contract, "_policy_cache")


def test_only_declared_entry_points_are_reachable_by_a_transaction(group):
    campaign, sessions, _ = run_full_campaign(group, seed="entry-points")
    ledger = campaign.ledger
    refused = set()
    for contract in (campaign.psc, campaign.fsc):
        assert all(callable(getattr(contract, name)) for name in contract.ENTRY_POINTS)
        state = (campaign.psc.state_bytes(), campaign.fsc.state_bytes(), dict(ledger.balances))
        for name in dir(contract):
            if name.startswith("_") or name in contract.ENTRY_POINTS:
                continue
            # a view such as get_aggregate would succeed with this argument if it were reachable
            receipt = ledger.call(campaign.cf.account, Call(contract.contract_id, name, (sessions[0].ephemeral.pk,)))
            assert (receipt.status, receipt.revert_reason) == ("reverted", f"Revert: unknown method {name}")
            refused.add(name)
        assert (campaign.psc.state_bytes(), campaign.fsc.state_bytes(), dict(ledger.balances)) == state
    assert refused >= {"snapshot", "restore", "state_bytes", "storage_json", "draw_config",
                       "note_log_json_lines", "ledger", "get_aggregate"}


_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=0, max_value=1 << 16),
    st.sampled_from([1 << 64, (1 << 255) - 19]),
    st.integers(min_value=-3, max_value=-1),  # codec rejects negative ints
    st.floats(allow_nan=False, width=16),  # and floats
    st.binary(max_size=40),
    st.text(max_size=8) | st.sampled_from(["policy", "fund", "adv-0"]),
    st.builds(Ciphertext, st.integers(0, 9), st.integers(0, 9)),
    st.builds(Signature, st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
)
_value = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)
_args = st.lists(_value, max_size=4).map(tuple)
_METHODS = sorted({name for cls in (PolicyContract, FundContract) for name in vars(cls) if not name.startswith("__")})


def test_random_calls_yield_one_receipt_and_revert_atomically(group):
    campaign = Campaign(group, seed="fuzz", with_pool=True)
    ledger = campaign.ledger
    senders = [campaign.cf.account, campaign.advertisers[0].account, campaign.pool.members[0].account,
               keygen(group, DetRng("fuzz-outsider"))]
    call = st.tuples(
        st.sampled_from([campaign.psc_id, campaign.fsc_id, "system", "no-such-contract"]),
        st.sampled_from(_METHODS + ["transfer", "deploy", "no_such_method"]),
        _args,
        st.none() | _args,
        st.sampled_from(range(len(senders))),
    )
    statuses = {"unencodable": 0, "ok": 0, "reverted": 0}

    @settings(max_examples=60, deadline=None, database=None)
    @given(calls=st.lists(call, min_size=1, max_size=10))
    def run(calls):
        for contract_id, method, args, private_args, sender in calls:
            try:
                tx = ledger.make_tx(senders[sender], Call(contract_id, method, args), private_args)
            except (TypeError, ValueError):
                with pytest.raises((TypeError, ValueError)):
                    codec.encode_args(args + (private_args or ()))
                statuses["unencodable"] += 1
                continue
            state = (campaign.psc.state_bytes(), campaign.fsc.state_bytes(), dict(ledger.balances), set(ledger.contracts))
            logged = len(ledger.tx_log)
            receipt = ledger.submit(tx)
            assert len(ledger.tx_log) == len(ledger.receipts) == logged + 1
            assert ledger.receipts[-1] is receipt
            statuses[receipt.status] += 1
            if receipt.status == "reverted":
                after = (campaign.psc.state_bytes(), campaign.fsc.state_bytes(), dict(ledger.balances), set(ledger.contracts))
                assert after == state, receipt.revert_reason

    run()
    assert statuses["reverted"] > statuses["unencodable"] > 0
    replayed = LedgerState.replay(group, ledger.genesis_json(), ledger.export_tx_log())
    assert replayed.state_hash() == ledger.state_hash()
