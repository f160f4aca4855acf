import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adreward.bench import benchmark_summary, run_cohort
from adreward.encoding import DetRng, encode_scalar
from adreward.ledger import Call
from adreward.scenario import (
    ScenarioConfig,
    _policy_plaintext_leaked,
    build_interactions,
    build_plan,
    open_campaign,
    run_campaign,
    scalar_encoding_found,
)


def test_fee_shares_sum_exactly():
    for fee in (0, 1, 7, 99, 1000):
        cfg = ScenarioConfig(name="fees", seed=1, num_ads=7, num_advertisers=3, users=2, fee=fee)
        plan = build_plan(cfg, DetRng("fees"))
        shares = plan.fee_shares()
        assert sum(shares.values()) == fee
        assert set(shares) == set(plan.advertiser_ids())


def test_interactions_respect_cap_and_underpay_target():
    cfg = ScenarioConfig(
        name="caps", seed=3, num_ads=5, num_advertisers=2, users=4,
        click_cap=3, misbehavior_kind="underpay", misbehavior_delta=2, misbehavior_user=2,
    )
    vectors = build_interactions(cfg, DetRng("caps"))
    assert len(vectors) == 4
    assert all(0 <= count <= 3 for vec in vectors for count in vec)
    assert sum(vectors[2]) > 0  # the shorted user must have something to claim


def test_plan_generation_is_seed_deterministic():
    cfg = ScenarioConfig(name="det", seed=11, num_ads=6, num_advertisers=2, users=3)
    a = build_plan(cfg, DetRng("x"))
    b = build_plan(cfg, DetRng("x"))
    assert a == b
    assert build_plan(cfg, DetRng("y")) != a


def test_campaign_report_shape(group):
    cfg = ScenarioConfig(name="shape", seed=21, num_ads=4, num_advertisers=2, users=3,
                         policy_max=16, click_cap=4, pool_registered=4, pool_expected=2, fee=5)
    report = run_campaign(cfg)
    body = report.as_dict()
    assert set(body) >= {
        "chain_id", "payouts", "oracle_payouts", "click_totals", "oracle_click_totals",
        "deposits", "payouts_total", "refunds_total", "fee_paid",
        "cf_flagged", "state_failed", "state_hash", "checks",
    }
    assert all({"name", "passed", "detail"} == set(c) for c in body["checks"])
    assert report.timings["total_s"] > 0


def test_contract_storage_dumps_are_json(group):
    cfg = ScenarioConfig(name="dump", seed=31, num_ads=4, num_advertisers=2, users=2,
                         policy_max=16, click_cap=4, pool_registered=4, pool_expected=2, fee=5)
    from adreward.actors import Advertiser, CampaignFacilitator, phase1_setup
    from adreward.ledger import LedgerState

    rng = DetRng("dump")
    plan = build_plan(cfg, rng.child("plan"))
    cf = CampaignFacilitator(group, plan, rng.child("cf"))
    advertisers = [Advertiser(group, a, plan, rng.child(a)) for a in plan.advertiser_ids()]
    shares = plan.fee_shares()
    balances = {a.address: plan.budget_of(a.adv_id) + shares[a.adv_id] for a in advertisers}
    ledger = LedgerState.genesis(group, "dump", balances)
    psc_id, fsc_id = phase1_setup(group, ledger, cf, advertisers, "d")

    psc_dump = json.loads(ledger.contracts[psc_id].storage_json())
    assert psc_dump["catalog_size"] == 4
    assert len(psc_dump["enc_policies"]) == 4
    fsc_dump = json.loads(ledger.contracts[fsc_id].storage_json())
    assert fsc_dump["initialized"] is True
    assert set(fsc_dump["escrow"]) == set(plan.advertiser_ids())
    assert ledger.contracts[fsc_id].note_log_json_lines() == ""


def test_benchmark_summary_keys():
    body = benchmark_summary(catalog=4, users=2, batch=8, budget_s=0.5)
    assert set(body) == {"schema", "kind", "catalog_size", "user_count", "sidechain_count", "timings", "throughput"}
    assert (body["kind"], body["catalog_size"], body["user_count"], body["sidechain_count"]) == ("summary", 4, 2, 1)
    assert set(body["timings"]) == {
        "interaction_encryption_s", "request_generation_s", "end_to_end_claim_s",
        "batch_proof_gen_s", "batch_verify_s",
    }
    assert set(body["throughput"]) == {"users_per_day", "users_per_month", "extrapolation_basis"}


def test_cohort_ends_in_the_same_state_for_the_same_seed():
    first = run_cohort(6, catalog=4, seed="cohort-determinism")
    second = run_cohort(6, catalog=4, seed="cohort-determinism")
    assert first["queued"] == 6
    assert first["state_hash"] == second["state_hash"]


def _plant(where: str) -> bool:
    """Open a small campaign, plant its first policy's encoding at ``where`` and run the privacy search."""
    cfg = ScenarioConfig(name="leak", seed=41, num_ads=3, num_advertisers=1, users=1,
                         policy_max=255, click_cap=4, pool_registered=4, pool_expected=2, fee=5)
    campaign = open_campaign(cfg, "policy-leak")
    ledger, policies = campaign.ledger, campaign.plan.policies
    assert not _policy_plaintext_leaked(ledger, ledger.state_parts(), policies)
    needle = encode_scalar(policies[0])
    if where == "transfer destination":
        assert ledger.transfer(campaign.cf.account, needle, 0).status == "ok"
    elif where == "call argument":
        # a reverted call is still logged with its arguments
        receipt = ledger.call(campaign.cf.account, Call(campaign.psc_id, "no_such_method", (b"note:" + needle + b"!",)))
        assert receipt.status == "reverted"
    else:
        campaign.psc.enc_policies[1] = needle
    return _policy_plaintext_leaked(ledger, ledger.state_parts(), policies)


def test_policy_privacy_check_finds_a_policy_planted_in_a_transaction():
    assert _plant("transfer destination")
    assert _plant("call argument")
    assert _plant("contract storage")


def _naive_scalar_encoding_found(chunks, values) -> bool:
    needles = {encode_scalar(v) for v in values}
    return any(n in chunk for chunk in chunks for n in needles)


@st.composite
def _chunks_and_policies(draw):
    policies = draw(st.lists(st.integers(1, 1 << 16), min_size=1, max_size=5))
    encoded = (st.integers(1, 1 << 16) | st.sampled_from(policies)).map(encode_scalar)
    zero_run = st.integers(0, 80).map(bytes)
    segment = st.one_of(st.binary(max_size=40), zero_run, encoded, encoded.map(lambda e: e[:-1]))
    chunks = draw(st.lists(st.lists(segment, max_size=6).map(b"".join), max_size=4))
    return chunks, policies


@settings(max_examples=300, deadline=None)
@given(_chunks_and_policies())
@example(([encode_scalar(7) + b"\x01"], [7]))  # a needle at a chunk's start
@example(([b"\x01" + encode_scalar(1 << 16)], [3, 1 << 16]))  # at its end
@example(([encode_scalar(1 << 16)], [1 << 16]))  # the whole chunk
@example(([bytes(50) + encode_scalar(5) + bytes(50)], [5, 300]))  # inside a long zero run
@example(([bytes(60) + encode_scalar(1 << 16)[:3] + bytes(28)], [1 << 16]))  # one zero short
@example(([bytes(100), encode_scalar(9)[:31]], [1, 9]))  # zeros only, and a chunk too short
def test_one_pass_policy_search_agrees_with_the_naive_search(case):
    chunks, policies = case
    assert scalar_encoding_found(chunks, policies) == _naive_scalar_encoding_found(chunks, policies)
