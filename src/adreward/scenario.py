"""Scenario-driven campaign execution: config parsing, checks, and reports.

A scenario JSON fixes every input (catalog, policies, users, pool, misbehavior
injection, seed); the runner executes the full campaign on a fresh chain per
sidechain, re-checks the protocol invariants against plaintext oracles, and
emits a machine-readable report whose non-timing fields are deterministic for
a fixed seed.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import codec
from .actors import (
    AdCatalog,
    Advertiser,
    CampaignFacilitator,
    CampaignPlan,
    CatalogEntry,
    PoolState,
    UserSession,
    advertiser_verify_analytics,
    analytics_round,
    cf_settle,
    make_pool_registrants,
    mark_payments_processed,
    phase1_setup,
    pool_selection,
    user_check_payment,
    user_claim,
    user_payment_request,
)
from .encoding import SCALAR_BYTES, DetRng, encode_scalar
from .errors import ScenarioError
from .group import default_group
from .ledger import Call, LedgerState, contract_address, state_digest

SCHEMA_VERSION = 1

MISBEHAVIOR_KINDS = ("none", "underpay", "overwithdraw")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    num_ads: int
    num_advertisers: int
    users: int
    policy_min: int = 1
    policy_max: int = 1 << 8
    click_cap: int = 1 << 8
    pool_registered: int = 8
    pool_expected: int = 4
    pool_threshold: int | None = None
    fee: int = 100
    sidechains: int = 1
    misbehavior_kind: str = "none"
    misbehavior_delta: int = 1
    misbehavior_user: int = 0

    def validate(self) -> None:
        if self.num_ads < 1 or self.num_advertisers < 1:
            raise ScenarioError("catalog needs at least one ad and one advertiser")
        if self.num_advertisers > self.num_ads:
            raise ScenarioError("more advertisers than ads")
        if self.users < 1:
            raise ScenarioError("at least one user required")
        if not (1 <= self.policy_min <= self.policy_max):
            raise ScenarioError("policy range must satisfy 1 <= min <= max")
        if self.click_cap < 1:
            raise ScenarioError("click cap must be positive")
        if self.pool_registered < 1 or self.pool_expected < 1:
            raise ScenarioError("pool sizes must be positive")
        if self.pool_expected > self.pool_registered:
            raise ScenarioError("expected pool exceeds registrants")
        threshold = self.pool_threshold
        if threshold is not None and (isinstance(threshold, bool) or not isinstance(threshold, int) or threshold < 1):
            raise ScenarioError("pool threshold must be absent, null or an integer of at least 1")
        if self.fee < 0 or self.sidechains < 1:
            raise ScenarioError("fee must be non-negative and sidechains positive")
        if self.misbehavior_kind not in MISBEHAVIOR_KINDS:
            raise ScenarioError(f"misbehavior must be one of {MISBEHAVIOR_KINDS}")
        if self.misbehavior_kind != "none" and self.misbehavior_delta < 1:
            raise ScenarioError("misbehavior delta must be at least 1")
        if not (0 <= self.misbehavior_user < self.users):
            raise ScenarioError("misbehavior user index out of range")

    @property
    def recovery_bound(self) -> int:
        return self.num_ads * self.policy_max * self.click_cap

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        if raw.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema {raw.get('schema')}")

        def section(name: str) -> dict:
            value = raw.get(name, {})
            if not isinstance(value, dict):
                raise ScenarioError(f"scenario section {name!r} must be an object")
            return value

        catalog, policy, pool = section("catalog"), section("policy"), section("pool")
        mis = {} if raw.get("misbehavior") is None else section("misbehavior")
        sections = {"": raw, "catalog": catalog, "policy": policy, "pool": pool, "misbehavior": mis}

        def integer(name: str, default: int | None = None) -> int:
            """The value at ``name`` ("section.key" or a top-level key), which must be a JSON integer."""
            where, _, key = name.rpartition(".")
            value = sections[where][key] if default is None else sections[where].get(key, default)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(f"scenario field {name!r} must be an integer, got {value!r}")
            return value

        try:
            cfg = cls(
                name=str(raw.get("name", "scenario")),
                seed=integer("seed"),
                num_ads=integer("catalog.num_ads"),
                num_advertisers=integer("catalog.advertisers"),
                users=integer("users"),
                policy_min=integer("policy.min", 1),
                policy_max=integer("policy.max", 1 << 8),
                click_cap=integer("click_cap", 1 << 8),
                pool_registered=integer("pool.registered", 8),
                pool_expected=integer("pool.expected", 4),
                pool_threshold=pool.get("threshold"),
                fee=integer("fee", 100),
                sidechains=integer("sidechains", 1),
                misbehavior_kind=str(mis.get("kind", "none")),
                misbehavior_delta=integer("misbehavior.delta", 1),
                misbehavior_user=integer("misbehavior.user_index", 0),
            )
        except KeyError as exc:
            raise ScenarioError(f"malformed scenario: missing field {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "catalog": {"num_ads": self.num_ads, "advertisers": self.num_advertisers},
            "users": self.users,
            "policy": {"min": self.policy_min, "max": self.policy_max},
            "click_cap": self.click_cap,
            "pool": {
                "registered": self.pool_registered,
                "expected": self.pool_expected,
                "threshold": self.pool_threshold,
            },
            "fee": self.fee,
            "sidechains": self.sidechains,
            "misbehavior": {
                "kind": self.misbehavior_kind,
                "delta": self.misbehavior_delta,
                "user_index": self.misbehavior_user,
            },
        }


def build_plan(cfg: ScenarioConfig, rng: DetRng) -> CampaignPlan:
    policies = tuple(rng.randint(cfg.policy_min, cfg.policy_max) for _ in range(cfg.num_ads))
    # impression budgets cover the worst case so honest campaigns never overspend
    budget = cfg.users * cfg.click_cap
    entries = tuple(
        CatalogEntry(ad_id=f"ad-{i}", advertiser_id=f"adv-{i % cfg.num_advertisers}", impression_budget=budget)
        for i in range(cfg.num_ads)
    )
    return CampaignPlan(
        catalog=AdCatalog(entries=entries),
        policies=policies,
        fee=cfg.fee,
        click_cap=cfg.click_cap,
        recovery_bound=cfg.recovery_bound,
    )


def build_interactions(cfg: ScenarioConfig, rng: DetRng) -> list[tuple[int, ...]]:
    vectors = []
    for user in range(cfg.users):
        user_rng = rng.child(f"user-{user}")
        counts = [user_rng.randint(0, cfg.click_cap) for _ in range(cfg.num_ads)]
        vectors.append(tuple(counts))
    if cfg.misbehavior_kind == "underpay" and sum(vectors[cfg.misbehavior_user]) == 0:
        # the shorted user needs a positive payout for the complaint to exist
        fixed = list(vectors[cfg.misbehavior_user])
        fixed[0] = 1
        vectors[cfg.misbehavior_user] = tuple(fixed)
    return vectors


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class CampaignReport:
    chain_id: str
    payouts: dict[int, int] = field(default_factory=dict)
    oracle_payouts: dict[int, int] = field(default_factory=dict)
    click_totals: list[int] = field(default_factory=list)
    oracle_click_totals: list[int] = field(default_factory=list)
    deposits: int = 0
    payouts_total: int = 0
    refunds_total: int = 0
    fee_paid: int = 0
    cf_flagged: bool = False
    state_failed: bool = False
    state_hash: str = ""
    checks: list[CheckResult] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "chain_id": self.chain_id,
            "payouts": {str(k): v for k, v in sorted(self.payouts.items())},
            "oracle_payouts": {str(k): v for k, v in sorted(self.oracle_payouts.items())},
            "click_totals": list(self.click_totals),
            "oracle_click_totals": list(self.oracle_click_totals),
            "deposits": self.deposits,
            "payouts_total": self.payouts_total,
            "refunds_total": self.refunds_total,
            "fee_paid": self.fee_paid,
            "cf_flagged": self.cf_flagged,
            "state_failed": self.state_failed,
            "state_hash": self.state_hash,
            "checks": [c.as_dict() for c in self.checks],
        }


@dataclass
class Campaign:
    """An opened campaign: its actors, a ledger past phase 1 and the pool draw, and its users."""

    rng: DetRng
    plan: CampaignPlan
    cf: CampaignFacilitator
    advertisers: list[Advertiser]
    balances: dict[bytes, int]
    ledger: LedgerState
    psc_id: str
    fsc_id: str
    pool: PoolState
    sessions: list[UserSession]
    timings: dict[str, float]

    @property
    def psc(self):
        return self.ledger.contracts[self.psc_id]

    @property
    def fsc(self):
        return self.ledger.contracts[self.fsc_id]

    # Each phase that raises the same long-lived keys many times runs in a scope
    # that gives them fixed-base tables; the pool draw and the analytics do not.

    @staticmethod
    def setup_keys_precomputed(ledger: LedgerState, cf: CampaignFacilitator):
        """Phase 1's scope, in which the consortium key and the facilitator's account key have tables.

        Every ad's policy key is wrapped to the consortium key, and the ledger
        checks every facilitator transaction (about one per ad) against the
        facilitator's key.
        """
        return ledger.group.precomputed(ledger.validator_key.pk, cf.account.pk)

    def user_keys_precomputed(self):
        """The user phases' scope, in which the consortium key and the pool key have tables.

        Every claim encrypts under the pool key; every payment request checks
        the consortium's signature and wraps its envelope to that key.
        """
        return self.ledger.group.precomputed(self.ledger.validator_key.pk, self.psc.pool_pk)

    def settlement_keys_precomputed(self):
        """Settlement's scope, in which h and the facilitator's account key have tables.

        Every payment note commits to its blinding under h and every user checks
        that opening; the facilitator signs one ``payment_processed`` per user.
        """
        return self.ledger.group.precomputed(self.ledger.group.h, self.cf.account.pk)


def open_campaign(cfg: ScenarioConfig, seed: str, chain_index: int = 0) -> Campaign:
    """Fund a fresh chain, run phase 1 and the pool draw, and create one session per user.

    ``seed`` drives every random choice and the validator key; the chain is
    ``chain-{chain_index}`` and its contracts are ``c{chain_index}-*``.
    """
    group = default_group()
    rng = DetRng(seed)
    timings: dict[str, float] = {}
    started = time.perf_counter()

    plan = build_plan(cfg, rng.child("plan"))
    interactions = build_interactions(cfg, rng.child("interactions"))
    cf = CampaignFacilitator(group, plan, rng.child("cf"))
    advertisers = [Advertiser(group, adv_id, plan, rng.child(f"adv-{adv_id}")) for adv_id in plan.advertiser_ids()]
    fee_shares = plan.fee_shares()
    balances = {
        adv.address: plan.budget_of(adv.adv_id) + fee_shares[adv.adv_id]
        for adv in advertisers
    }
    ledger = LedgerState.genesis(group, seed, balances, f"chain-{chain_index}")
    with Campaign.setup_keys_precomputed(ledger, cf):
        psc_id, fsc_id = phase1_setup(group, ledger, cf, advertisers, f"c{chain_index}")
    timings["phase1_s"] = time.perf_counter() - started

    mark = time.perf_counter()
    registrants = make_pool_registrants(group, cfg.pool_registered, rng.child("pool"))
    pool = pool_selection(
        group, ledger, psc_id, cf, registrants, cfg.pool_expected,
        rng.child("dkg"), threshold=cfg.pool_threshold,
    )
    timings["pool_selection_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    sessions = [
        UserSession(group, user_id, counts, rng.child(f"session-{user_id}"))
        for user_id, counts in enumerate(interactions)
    ]
    timings["sessions_s"] = time.perf_counter() - mark
    return Campaign(rng, plan, cf, advertisers, balances, ledger, psc_id, fsc_id, pool, sessions, timings)


def run_campaign(cfg: ScenarioConfig, chain_index: int = 0) -> CampaignReport:
    """Execute one full campaign on a fresh chain and check every invariant."""
    group = default_group()
    started = time.perf_counter()
    campaign = open_campaign(cfg, f"scenario/{cfg.seed}/chain-{chain_index}", chain_index)
    plan, cf, advertisers, ledger, sessions = campaign.plan, campaign.cf, campaign.advertisers, campaign.ledger, campaign.sessions
    psc_id, fsc_id, fsc = campaign.psc_id, campaign.fsc_id, campaign.fsc
    report = CampaignReport(chain_id=ledger.chain_id, timings=campaign.timings)
    timings = report.timings
    fee_shares = plan.fee_shares()
    deposits_total = sum(campaign.balances.values())

    # building the key tables counts as claim time; dropping them as payment-request time
    mark = time.perf_counter()
    with campaign.user_keys_precomputed():
        for session in sessions:
            user_claim(group, ledger, psc_id, session, campaign.psc.pool_pk)
        timings["claims_s"] = time.perf_counter() - mark

        mark = time.perf_counter()
        for session in sessions:
            user_payment_request(group, ledger, psc_id, session, cfg.recovery_bound)
    timings["payment_requests_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    click_bound = cfg.users * cfg.click_cap
    totals = analytics_round(group, ledger, psc_id, fsc_id, campaign.pool, click_bound)
    timings["analytics_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    underpay = None
    overdraw = 0
    if cfg.misbehavior_kind == "underpay":
        target = sessions[cfg.misbehavior_user]
        queued = fsc.payment_queue[target.reward_address]
        underpay = {target.reward_address: min(cfg.misbehavior_delta, queued)}
    elif cfg.misbehavior_kind == "overwithdraw":
        # shortfall must exceed the fee slack before refunds feel it
        expected_refunds = deposits_total - sum(fsc.payment_queue.values()) - cfg.fee
        overdraw = cfg.fee + min(cfg.misbehavior_delta, max(expected_refunds, 0))
    with campaign.settlement_keys_precomputed():
        settle_rng = campaign.rng.child("settle")
        outcome = cf_settle(group, ledger, fsc_id, cf, settle_rng, underpay=underpay, overdraw=overdraw)
        for session in sessions:
            if session.reward_address in outcome.openings:
                session.opening = outcome.openings[session.reward_address]
        for session in sessions:
            user_check_payment(group, ledger, fsc_id, session)
        mark_payments_processed(ledger, fsc_id, cf, outcome)
        for adv in advertisers:
            ledger.call(adv.account, Call(fsc_id, "claim_insufficient_refund", (adv.adv_id,)))
        fee_receipt = ledger.call(cf.account, Call(fsc_id, "pay_processing_fees", ()))
    timings["settlement_s"] = time.perf_counter() - mark

    # -- oracle comparisons ---------------------------------------------------
    mark = time.perf_counter()
    oracle_payouts = {
        s.user_id: sum(p * a for p, a in zip(plan.policies, s.counts))
        for s in sessions
    }
    payouts = {s.user_id: fsc.payment_queue.get(s.reward_address, 0) for s in sessions}
    oracle_totals = [sum(s.counts[i] for s in sessions) for i in range(cfg.num_ads)]

    report.payouts = payouts
    report.oracle_payouts = oracle_payouts
    report.click_totals = list(fsc.aggr_clicks)
    report.oracle_click_totals = oracle_totals
    report.deposits = deposits_total
    note_pool = sum(amount for _, amount, _ in (cf.payer.opening_for(ref) for ref in fsc.notes))
    report.payouts_total = note_pool
    report.refunds_total = sum(fsc.refunds_paid.values())
    report.fee_paid = cfg.fee if fsc.fees_paid else 0
    report.cf_flagged = fsc.cf_flagged_dishonest
    report.state_failed = fsc.state_failed

    checks = report.checks
    checks.append(CheckResult(
        "payout-oracle",
        payouts == oracle_payouts,
        f"{sum(payouts.values())} queued vs {sum(oracle_payouts.values())} expected",
    ))
    checks.append(CheckResult(
        "analytics-oracle",
        list(fsc.aggr_clicks) == oracle_totals and list(totals) == oracle_totals,
        "per-ad click totals",
    ))
    expected_flag = cfg.misbehavior_kind != "none"
    checks.append(CheckResult(
        "misbehavior-flag",
        fsc.cf_flagged_dishonest == expected_flag,
        f"flagged={fsc.cf_flagged_dishonest} expected={expected_flag}",
    ))
    if expected_flag:
        checks.append(CheckResult("fee-withheld", fee_receipt.status == "reverted", fee_receipt.revert_reason or ""))
    else:
        conserved = deposits_total == note_pool + report.refunds_total + report.fee_paid
        residual = ledger.balance(contract_address(fsc_id))
        checks.append(CheckResult(
            "conservation",
            conserved and residual == 0 and fee_receipt.status == "ok",
            f"deposits={deposits_total} payouts={note_pool} refunds={report.refunds_total} "
            f"fee={report.fee_paid} residual={residual}",
        ))
        refund_identity = all(
            fsc.refunds_paid[adv.adv_id]
            == campaign.balances[adv.address]
            - sum(plan.policies[i] * fsc.aggr_clicks[i] for i in adv.ad_indices)
            - fee_shares[adv.adv_id]
            for adv in advertisers
        )
        checks.append(CheckResult("refund-identity", refund_identity, "deposit = spent + refund + fee share"))
    user_pks = [s.ephemeral.pk for s in sessions]
    addrs = [s.reward_address for s in sessions]
    checks.append(CheckResult(
        "request-uniqueness",
        len(set(user_pks)) == len(user_pks) and len(set(addrs)) == len(addrs),
        "ephemeral keys and reward addresses never repeat",
    ))
    checks.append(CheckResult(
        "analytics-recomputation",
        all(advertiser_verify_analytics(group, ledger, psc_id, fsc_id, adv) for adv in advertisers),
        "advertiser-side homomorphic sum and proof checks",
    ))
    state = ledger.state_parts()
    policy_leak = _policy_plaintext_leaked(ledger, state, plan.policies)
    checks.append(CheckResult("policy-privacy", not policy_leak, "no canonical policy encoding in public state"))

    report.state_hash = state_digest(state)
    timings["checks_s"] = time.perf_counter() - mark
    timings["total_s"] = time.perf_counter() - started
    return report


def _policy_plaintext_leaked(ledger: LedgerState, state_parts: list[bytes], policies: tuple[int, ...]) -> bool:
    """Whether a policy's encoding occurs in the ledger state or in a logged transaction.

    ``state_parts`` is ``ledger.state_parts()``: every contract's storage plus
    the balances and the rest of what the state hash commits to. Each
    transaction is searched in the bytes its signature covers (sequence number,
    sender, call, arguments and private envelope), which ``signing_bytes()``
    keeps, and in its encoded signature. That covers every codec byte its
    exported log line carries as hex.
    """
    def public_chunks():
        yield from state_parts
        for tx in ledger.tx_log:
            yield tx.signing_bytes()
            yield codec.encode_value(tx.signature)

    return scalar_encoding_found(public_chunks(), policies)


def scalar_encoding_found(chunks: Iterable[bytes], values: Iterable[int]) -> bool:
    """Whether some chunk contains ``encode_scalar(v)`` for some v in ``values``, in one pass per chunk.

    Every needle is 32 bytes little-endian, so each ends in at least as many
    zero bytes as the longest value leaves free. The search finds that common
    tail with ``bytes.find`` and tests the 32-byte window ending there against
    the needle set. Every needle occurrence ends in the tail, so the result is
    that of ``any(n in chunk ...)`` for any values; it walks a zero run of the
    tail's length or more byte by byte, which codec bytes seldom hold.
    """
    needles = {encode_scalar(v) for v in values}
    if not needles:
        return False
    tail = bytes(min(SCALAR_BYTES - len(n.rstrip(b"\0")) for n in needles))
    first = SCALAR_BYTES - len(tail)  # no full window ends at a tail that starts before this
    for chunk in chunks:
        at = chunk.find(tail, first)
        while at >= 0:
            end = at + len(tail)
            if chunk[end - SCALAR_BYTES:end] in needles:
                return True
            at = chunk.find(tail, at + 1)
    return False


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    chains: list[CampaignReport]
    timings: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(chain.passed for chain in self.chains)

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.config.to_dict(),
            "passed": self.passed,
            "chains": [c.as_dict() for c in self.chains],
            "timings": {
                "total_s": self.timings.get("total_s", 0.0),
                "per_chain": [c.timings for c in self.chains],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def deterministic_fields(self) -> str:
        """Everything except wall-clock timings, canonically serialized."""
        body = self.as_dict()
        body.pop("timings", None)
        return json.dumps(body, sort_keys=True)


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    started = time.perf_counter()
    chains = [run_campaign(cfg, index) for index in range(cfg.sidechains)]
    return ScenarioReport(config=cfg, chains=chains, timings={"total_s": time.perf_counter() - started})
