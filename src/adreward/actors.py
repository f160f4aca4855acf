"""Protocol roles and the phase orchestration that drives a campaign end-to-end.

Actors own their private state (keys, interaction vectors, openings) and talk
to each other only through the ledger. The orchestration helpers here run the
four campaign phases plus the analytics round: setup and escrow funding, reward
claiming, payment requests, confidential settlement, and the threshold-decrypted
per-ad click totals that advertisers verify.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

from .dkg import (
    PARTIAL_DOMAIN,
    ThresholdConfig,
    dkg_deal,
    dkg_finalize,
    dkg_verify_share,
    first_rejected_partial,
    lagrange_at_zero,
    lagrange_combine,
    open_share,
    partial_decrypt,
    partial_statement,
)
from .elgamal import (
    Ciphertext,
    KeyPair,
    decrypt_to_element,
    encrypt_vector,
    encrypt_vector_to_self,
    keygen,
    recover_plaintext,
    sum_ciphertexts,
)
from .encoding import DetRng, decode_scalar, encode_scalar
from .errors import BadSignature, InsufficientShares, InvalidPartial, NoWinners, PolicyMismatch, Revert
from .group import PrimeOrderGroup
from .hybrid import derive_shared_keys, hybrid_wrap, symmetric_open, symmetric_seal
from .ledger import Call, LedgerState, address_from_pk
from .payments import PayerLedger, make_note, settle_batch, verify_opening
from .proofs import aggregate_message, dleq_verify_batch, prove_decryption, sign, verify_sig
from .vrf import vrf_keygen, vrf_rand_gen

MAX_DRAW_ROUNDS = 32


@dataclass(frozen=True)
class CatalogEntry:
    ad_id: str
    advertiser_id: str
    impression_budget: int


@dataclass(frozen=True)
class AdCatalog:
    entries: tuple[CatalogEntry, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def indices_of(self, advertiser_id: str) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.entries) if e.advertiser_id == advertiser_id)


@dataclass(frozen=True)
class CampaignPlan:
    catalog: AdCatalog
    policies: tuple[int, ...]  # reward per ad, aligned with catalog indices
    fee: int
    click_cap: int
    recovery_bound: int

    def __post_init__(self):
        if len(self.policies) != self.catalog.size:
            raise ValueError("one policy entry per catalog ad required")
        if any(p <= 0 for p in self.policies):
            raise ValueError("policy rewards must be positive")

    def advertiser_ids(self) -> list[str]:
        seen = []
        for entry in self.catalog.entries:
            if entry.advertiser_id not in seen:
                seen.append(entry.advertiser_id)
        return seen

    def budget_of(self, advertiser_id: str) -> int:
        return sum(
            self.policies[i] * self.catalog.entries[i].impression_budget
            for i in self.catalog.indices_of(advertiser_id)
        )

    def fee_shares(self) -> dict[str, int]:
        """Split the processing fee pro-rata to advertiser budgets, exactly."""
        ids = self.advertiser_ids()
        budgets = {a: self.budget_of(a) for a in ids}
        total = sum(budgets.values())
        shares = {}
        remaining = self.fee
        for a in ids[:-1]:
            share = self.fee * budgets[a] // total if total else 0
            shares[a] = share
            remaining -= share
        shares[ids[-1]] = remaining
        return shares


def policy_keys(
    group: PrimeOrderGroup, own_sk: int, peer_pk: int, campaign_id: str, ad_indices: Sequence[int],
) -> dict[int, bytes]:
    """The keys that seal an advertiser's policies, by ad index, from one Diffie-Hellman exponentiation.

    The advertiser and the facilitator derive the same keys, each from its own
    secret and the other's public key.
    """
    labels = (f"{campaign_id}/policy/{i}" for i in ad_indices)
    return dict(zip(ad_indices, derive_shared_keys(group, own_sk, peer_pk, labels)))


class Advertiser:
    def __init__(self, group: PrimeOrderGroup, adv_id: str, plan: CampaignPlan, rng: DetRng):
        self.group = group
        self.adv_id = adv_id
        self.plan = plan
        self.account = keygen(group, rng.child("account"))
        self.dh_key = keygen(group, rng.child("dh"))
        self.ad_indices = plan.catalog.indices_of(adv_id)
        self.agreed = {i: plan.policies[i] for i in self.ad_indices}
        self._rng = rng

    @property
    def address(self):
        return address_from_pk(self.account.pk)

    def symmetric_keys(self, cf_dh_pk: int, campaign_id: str) -> dict[int, bytes]:
        return policy_keys(self.group, self.dh_key.sk, cf_dh_pk, campaign_id, self.ad_indices)

    def sealed_policies(self, cf_dh_pk: int, campaign_id: str) -> dict[int, bytes]:
        keys = self.symmetric_keys(cf_dh_pk, campaign_id)
        return {
            i: symmetric_seal(keys[i], encode_scalar(self.agreed[i]), self._rng.child(f"seal-{i}"))
            for i in self.ad_indices
        }

    def verify_posted_policies(self, ledger: LedgerState, psc_id: str, cf_dh_pk: int, campaign_id: str) -> None:
        """Re-open the sealed on-chain entries and compare with the agreed values."""
        psc = ledger.contracts[psc_id]
        keys = self.symmetric_keys(cf_dh_pk, campaign_id)
        for i in self.ad_indices:
            sealed = psc.enc_policies[i]
            try:
                value = decode_scalar(symmetric_open(keys[i], sealed))
            except Exception as exc:
                raise PolicyMismatch(f"ad {i}: sealed policy does not open") from exc
            if value != self.agreed[i]:
                raise PolicyMismatch(f"ad {i}: posted {value}, agreed {self.agreed[i]}")


class CampaignFacilitator:
    def __init__(self, group: PrimeOrderGroup, plan: CampaignPlan, rng: DetRng):
        self.group = group
        self.plan = plan
        self.account = keygen(group, rng.child("account"))
        self.dh_key = keygen(group, rng.child("dh"))
        self.payer = PayerLedger()
        self._rng = rng

    @property
    def address(self):
        return address_from_pk(self.account.pk)


class UserSession:
    """One user's per-payout-period state: keys are fresh every period."""

    def __init__(self, group: PrimeOrderGroup, user_id: int, counts: tuple[int, ...], rng: DetRng):
        self.group = group
        self.user_id = user_id
        self.counts = counts
        self._rng = rng
        self._period = -1
        self.new_period()

    def new_period(self) -> None:
        self._period += 1
        period_rng = self._rng.child(f"period-{self._period}")
        self.ephemeral = keygen(self.group, period_rng.child("ephemeral"))
        self.payment_key = keygen(self.group, period_rng.child("payment"))
        self.enc_rng = period_rng.child("enc")
        self.aggregate: Ciphertext | None = None
        self.aggregate_sig = None
        self.dec_result: int | None = None
        self.opening: tuple[bytes, int, int] | None = None  # (tx_ref, r, amount)

    @property
    def reward_address(self):
        return address_from_pk(self.payment_key.pk)


@dataclass
class PoolMember:
    reg_id: int
    vrf_key: object
    enc_key: KeyPair
    sign_key: KeyPair
    account: KeyPair
    pool_index: int = 0
    material: object = None


@dataclass
class PoolState:
    cfg: ThresholdConfig
    members: list[PoolMember] = field(default_factory=list)

    def member_by_index(self, pool_index: int) -> PoolMember:
        for m in self.members:
            if m.pool_index == pool_index:
                return m
        raise KeyError(pool_index)


# -- phase 1: rewards definition, contracts, escrow -----------------------------


def phase1_setup(
    group: PrimeOrderGroup,
    ledger: LedgerState,
    cf: CampaignFacilitator,
    advertisers: list[Advertiser],
    campaign_id: str,
    tamper_policy_index: int | None = None,
) -> tuple[str, str]:
    """Deploy both contracts, provision sealed policies and keys, collect stakes."""
    plan = cf.plan
    if not advertisers:
        raise Revert("campaign needs at least one advertiser")
    psc_id = f"psc/{campaign_id}"
    fsc_id = f"fsc/{campaign_id}"
    n_a = plan.catalog.size
    ledger.call(cf.account, Call("system", "deploy", ("policy", psc_id, (cf.account.pk, n_a, fsc_id))))
    ledger.call(cf.account, Call("system", "deploy", ("fund", fsc_id, (cf.account.pk, plan.fee, n_a, psc_id))))

    # Advertisers seal their agreed rewards; the facilitator checks them against
    # the plan before posting anything on-chain.
    sealed_by_index: dict[int, bytes] = {}
    keys_by_index: dict[int, bytes] = {}
    for adv in advertisers:
        sealed = adv.sealed_policies(cf.dh_key.pk, campaign_id)
        keys = policy_keys(group, cf.dh_key.sk, adv.dh_key.pk, campaign_id, adv.ad_indices)
        for i, blob in sealed.items():
            if decode_scalar(symmetric_open(keys[i], blob)) != plan.policies[i]:
                raise PolicyMismatch(f"advertiser {adv.adv_id} sealed a different value for ad {i}")
            sealed_by_index[i] = blob
            keys_by_index[i] = keys[i]
    if len(sealed_by_index) != n_a:
        raise Revert("catalog entries without an advertiser policy")

    if tamper_policy_index is not None:
        # fault injection hook: flip a byte in one sealed entry before posting
        blob = bytearray(sealed_by_index[tamper_policy_index])
        blob[-1] ^= 0x01
        sealed_by_index[tamper_policy_index] = bytes(blob)

    for i in range(n_a):
        ledger.call(cf.account, Call(psc_id, "store_policy", (i, sealed_by_index[i])))

    wrapped = tuple(
        hybrid_wrap(group, ledger.validator_key.pk, keys_by_index[i], cf._rng.child(f"wrap-{i}"))
        for i in range(n_a)
    )
    from .contracts import keys_message

    key_sig = sign(group, cf.account, keys_message(psc_id, wrapped))
    ledger.call(cf.account, Call(psc_id, "store_encrypted_keys", (wrapped, key_sig)))

    fee_shares = plan.fee_shares()
    for adv in advertisers:
        required = plan.budget_of(adv.adv_id) + fee_shares[adv.adv_id]
        ledger.call(cf.account, Call(
            fsc_id, "store_adv_id",
            (adv.adv_id, adv.ad_indices, required, fee_shares[adv.adv_id]),
        ))

    # Every advertiser independently re-opens its sealed entries before staking.
    for adv in advertisers:
        adv.verify_posted_policies(ledger, psc_id, cf.dh_key.pk, campaign_id)
    for adv in advertisers:
        required = plan.budget_of(adv.adv_id) + fee_shares[adv.adv_id]
        ledger.call(adv.account, Call(fsc_id, "store_funds", (adv.adv_id, required)))

    fsc = ledger.contracts[fsc_id]
    if not fsc.initialized:
        raise Revert("escrow funding did not initialize the campaign")
    return psc_id, fsc_id


# -- consensus-pool selection and key generation ---------------------------------


def make_pool_registrants(group: PrimeOrderGroup, count: int, rng: DetRng) -> list[PoolMember]:
    members = []
    for reg_id in range(1, count + 1):
        member_rng = rng.child(f"registrant-{reg_id}")
        members.append(PoolMember(
            reg_id=reg_id,
            vrf_key=vrf_keygen(group, member_rng.child("vrf")),
            enc_key=keygen(group, member_rng.child("enc")),
            sign_key=keygen(group, member_rng.child("sign")),
            account=keygen(group, member_rng.child("account")),
        ))
    return members


def pool_selection(
    group: PrimeOrderGroup,
    ledger: LedgerState,
    psc_id: str,
    cf: CampaignFacilitator,
    registrants: list[PoolMember],
    expected: int,
    rng: DetRng,
    threshold: int | None = None,
    bad_dealers: set[int] = frozenset(),
) -> PoolState:
    """Run the draw, the distributed key generation, and publish the pool key."""
    psc = ledger.contracts[psc_id]
    for member in registrants:
        ledger.call(member.account, Call(
            psc_id, "register_draw",
            (member.reg_id, member.vrf_key.vrf_pk, member.sign_key.pk),
        ))

    winners: list[PoolMember] = []
    for round_no in range(MAX_DRAW_ROUNDS):
        ledger.call(cf.account, Call(psc_id, "close_registration", (expected, round_no)))
        epsilon = psc.epsilon
        cfg = psc.draw_config()
        for member in registrants:
            out = vrf_rand_gen(group, member.vrf_key.vrf_sk, epsilon)
            from .vrf import is_selected

            if is_selected(out, cfg):
                ledger.call(member.account, Call(psc_id, "publish_win", (member.reg_id, out)))
        if psc.winners:
            winners = sorted(
                (m for m in registrants if m.reg_id in psc.winners),
                key=lambda m: m.reg_id,
            )
            break
    if not winners:
        raise NoWinners(f"no registrant won after {MAX_DRAW_ROUNDS} rounds")

    n = len(winners)
    k = threshold if threshold is not None else n // 2 + 1
    k = max(1, min(k, n))
    cfg = ThresholdConfig(n=n, k=k)
    for pool_index, member in enumerate(winners, start=1):
        member.pool_index = pool_index

    recipient_pks = {m.pool_index: m.enc_key.pk for m in winners}
    rounds = []
    for member in winners:
        deal_rng = rng.child(f"deal-{member.pool_index}")
        round_ = dkg_deal(group, cfg, member.pool_index, recipient_pks, deal_rng)
        if member.pool_index in bad_dealers:
            round_ = _corrupt_round(group, round_, winners, rng.child(f"corrupt-{member.pool_index}"))
        rounds.append(round_)

    received: dict[int, dict[int, int]] = {m.pool_index: {} for m in winners}
    complaints: set[int] = set()
    for member in winners:
        for round_ in rounds:
            share = open_share(group, round_, member.pool_index, member.enc_key)
            if not dkg_verify_share(group, round_, member.pool_index, share):
                complaints.add(round_.participant_id)
            received[member.pool_index][round_.participant_id] = share

    material = dkg_finalize(group, cfg, rounds, received, disqualified=complaints)
    for member in winners:
        member.material = material[member.pool_index]

    pk_t = winners[0].material.pk_T
    share_commitments = tuple(sorted(winners[0].material.share_commitments.items()))
    sign_pks = tuple((m.pool_index, m.reg_id, m.sign_key.pk) for m in winners)
    from .contracts import pool_key_message

    msg = pool_key_message(psc_id, pk_t, k, share_commitments, sign_pks)
    cosigs = tuple((m.reg_id, sign(group, m.sign_key, msg)) for m in winners)
    ledger.call(cf.account, Call(
        psc_id, "publish_pool_key",
        (pk_t, k, share_commitments, sign_pks, cosigs),
    ))
    return PoolState(cfg=cfg, members=winners)


def _corrupt_round(group, round_, winners, rng):
    """Replace one recipient's encrypted share with garbage (misbehaving dealer)."""
    from .dkg import DealerRound

    target = winners[0].pool_index
    bogus = hybrid_wrap(group, winners[0].enc_key.pk, encode_scalar(group.random_scalar(rng)), rng)
    shares = dict(round_.encrypted_shares)
    shares[target] = bogus
    return DealerRound(
        participant_id=round_.participant_id,
        coefficient_commitments=round_.coefficient_commitments,
        encrypted_shares=shares,
    )


# -- phases 2 and 3: claiming and payment requests ----------------------------------


def user_claim(group: PrimeOrderGroup, ledger: LedgerState, psc_id: str, session: UserSession, pool_pk: int):
    """Encrypt the interaction vector under both keys and request the aggregate."""
    enc_vec = tuple(encrypt_vector_to_self(group, session.ephemeral, list(session.counts), session.enc_rng))
    enc_vec_prime = tuple(encrypt_vector(group, pool_pk, list(session.counts), session.enc_rng))
    receipt = ledger.call(session.ephemeral, Call(
        psc_id, "compute_aggregate",
        (session.ephemeral.pk, enc_vec, enc_vec_prime),
    ))
    if receipt.status != "ok":
        raise Revert(receipt.revert_reason or "claim failed")
    session.aggregate, session.aggregate_sig = ledger.view(psc_id, "get_aggregate", session.ephemeral.pk)
    return session.aggregate


def user_payment_request(
    group: PrimeOrderGroup,
    ledger: LedgerState,
    psc_id: str,
    session: UserSession,
    recovery_bound: int,
    proof_plaintext_offset: int = 0,
):
    """Decrypt the aggregate, prove it, and submit the encrypted payment request.

    An invalid consortium signature triggers one re-request of the aggregate
    before giving up.
    """
    consortium_pk = ledger.validator_key.pk
    msg = aggregate_message(session.ephemeral.pk, session.aggregate)
    if not verify_sig(group, consortium_pk, msg, session.aggregate_sig):
        session.aggregate, session.aggregate_sig = ledger.view(psc_id, "get_aggregate", session.ephemeral.pk)
        msg = aggregate_message(session.ephemeral.pk, session.aggregate)
        if not verify_sig(group, consortium_pk, msg, session.aggregate_sig):
            raise BadSignature("aggregate signature invalid after retry")

    elem = decrypt_to_element(group, session.ephemeral.sk, session.aggregate)
    session.dec_result = recover_plaintext(group, elem, recovery_bound)
    claimed = session.dec_result + proof_plaintext_offset  # offset used by fault-injection tests
    proof = prove_decryption(group, session.ephemeral, session.aggregate, session.dec_result)
    request = (session.ephemeral.pk, claimed, session.aggregate_sig, proof, session.reward_address)
    receipt = ledger.call(session.payment_key, Call(psc_id, "payment_request", ()), private_args=request)
    if receipt.status != "ok":
        raise Revert(receipt.revert_reason or "payment request rejected")
    return receipt


# -- phase 4: confidential settlement ------------------------------------------------


@dataclass
class SettlementOutcome:
    batch: object
    openings: dict[bytes, tuple[bytes, int, int]]  # addr -> (tx_ref, r, amount)
    total_withdrawn: int


def cf_settle(
    group: PrimeOrderGroup,
    ledger: LedgerState,
    fsc_id: str,
    cf: CampaignFacilitator,
    rng: DetRng,
    underpay: dict[bytes, int] | None = None,
    overdraw: int = 0,
) -> SettlementOutcome:
    """Withdraw the settlement total and issue one confidential note per request.

    `underpay` shorts specific reward addresses by the given amounts and
    `overdraw` withdraws extra into the facilitator's own account; both model
    the dishonest-facilitator scenarios and leave detection to the contracts.
    """
    from .contracts import settlement_message

    fsc = ledger.contracts[fsc_id]
    queue = list(fsc.payment_queue.items())
    tau = sum(amount for _, amount in queue) + overdraw
    sig = sign(group, cf.account, settlement_message(fsc_id, fsc.settlement_count, tau))
    receipt = ledger.call(cf.account, Call(fsc_id, "settlement_request", (tau, sig)))
    if receipt.status != "ok":
        raise Revert(receipt.revert_reason or "settlement request rejected")

    underpay = underpay or {}
    entries = []
    openings = {}
    tag = _note_range(queue)
    for addr, amount in queue:
        paid = amount - underpay.get(addr, 0)
        r = group.random_scalar(rng.child(f"note-{addr.hex()}"))
        note = make_note(group, addr, paid, r, tag)
        cf.payer.record(note, paid, r)
        entries.append((note, paid, r))
        openings[addr] = (note.tx_ref, r, paid)
    batch = settle_batch(group, entries, sum(paid for _, paid, _ in entries))
    receipt = ledger.call(cf.account, Call(fsc_id, "post_settlement_batch", (batch,)))
    if receipt.status != "ok":
        raise Revert(receipt.revert_reason or "batch rejected")
    return SettlementOutcome(batch=batch, openings=openings, total_withdrawn=tau)


def _note_range(queue) -> int:
    top = max((amount for _, amount in queue), default=0)
    return max(1 << 16, 1 << (top.bit_length() + 1))


def mark_payments_processed(ledger: LedgerState, fsc_id: str, cf: CampaignFacilitator, outcome: SettlementOutcome):
    for addr, (tx_ref, _, _) in outcome.openings.items():
        ledger.call(cf.account, Call(fsc_id, "payment_processed", (tx_ref, addr)))


def user_check_payment(group: PrimeOrderGroup, ledger: LedgerState, fsc_id: str, session: UserSession) -> bool:
    """Verify the received opening; file a complaint when the amount is short."""
    if session.opening is None:
        return False
    tx_ref, r, amount = session.opening
    fsc = ledger.contracts[fsc_id]
    note = fsc.notes.get(tx_ref)
    if note is None or not verify_opening(group, note, r, amount):
        return False
    if amount != session.dec_result:
        receipt = ledger.call(session.payment_key, Call(
            fsc_id, "raise_complaint",
            (session.ephemeral.pk, tx_ref, r, amount),
        ))
        return receipt.status == "ok"
    return True


# -- analytics ---------------------------------------------------------------------


def aggregate_click_ciphertexts(
    group: PrimeOrderGroup, ledger: LedgerState, psc_id: str, ad_indices: Sequence[int],
) -> tuple:
    """Homomorphic sums over every logged analytics vector, one per ad in ``ad_indices``.

    The sums come back in the order of ``ad_indices``: the pool passes every
    catalog index, an advertiser's audit only its own ads.
    """
    log = ledger.contracts[psc_id].enc_vec_prime_log
    return tuple(sum_ciphertexts(group, (enc_vec_prime[i] for _, enc_vec_prime in log)) for i in ad_indices)


def analytics_round(
    group: PrimeOrderGroup,
    ledger: LedgerState,
    psc_id: str,
    fsc_id: str,
    pool: PoolState,
    recovery_bound: int,
) -> tuple[int, ...]:
    """Pool members post partial decryptions; combine the accepted ones, recover, and store totals.

    Every member raises each sum's c1 twice (for its share and for its proof's
    commitment), so the partials are computed ad by ad inside one fixed-base
    scope of that c1; a c1 outside the group gets no table and plain ``pow``.
    ``post_analytics`` verifies every posted partial on chain, so the totals
    are combined from the first k accepted rows without verifying them again,
    with one set of Lagrange coefficients for that quorum.

    Raises ``InsufficientShares``, naming each refused member and its revert
    reason, when fewer than k rows were accepted, and ``InvalidPartial`` when
    the sums the chain verified them against are not the claim log's sums.
    """
    from .contracts import clicks_message

    psc = ledger.contracts[psc_id]
    aggregate_cts = aggregate_click_ciphertexts(group, ledger, psc_id, range(psc.catalog_size))
    rows: list[list] = [[] for _ in pool.members]
    for ct in aggregate_cts:
        with group.precomputed(ct.c1) if group.is_element(ct.c1) else nullcontext():
            for member, row in zip(pool.members, rows):
                material = member.material
                commitment = material.share_commitments[member.pool_index]
                row.append(partial_decrypt(group, member.pool_index, material.share, commitment, ct))
    refused = {}
    for member, row in zip(pool.members, rows):
        call = Call(fsc_id, "post_analytics", (member.pool_index, aggregate_cts, tuple(row)))
        receipt = ledger.call(member.account, call)
        if receipt.status != "ok":
            refused[member.pool_index] = receipt.revert_reason

    fsc = ledger.contracts[fsc_id]
    k = pool.cfg.k
    if len(fsc.posted_partials) < k:
        reasons = "; ".join(f"member {index}: {reason}" for index, reason in refused.items())
        raise InsufficientShares(f"{len(fsc.posted_partials)} analytics rows accepted, threshold is {k}; {reasons}")
    if fsc.posted_aggregate_cts != aggregate_cts:
        raise InvalidPartial("the posted sums differ from the sums of the claim log")
    quorum = list(fsc.posted_partials)[:k]
    coeffs = lagrange_at_zero(quorum, group.q)
    totals = tuple(
        recover_plaintext(
            group,
            lagrange_combine(group, ct, [fsc.posted_partials[index][ad] for index in quorum], coeffs),
            recovery_bound,
        )
        for ad, ct in enumerate(fsc.posted_aggregate_cts)
    )

    msg = clicks_message(fsc_id, totals)
    cosigs = tuple(
        (m.pool_index, sign(group, m.sign_key, msg))
        for m in pool.members[:k]
    )
    receipt = ledger.call(pool.members[0].account, Call(fsc_id, "store_aggr_clicks", (totals, cosigs)))
    if receipt.status != "ok":
        raise Revert(receipt.revert_reason or "click totals rejected")
    return totals


def advertiser_verify_analytics(
    group: PrimeOrderGroup,
    ledger: LedgerState,
    psc_id: str,
    fsc_id: str,
    advertiser: Advertiser,
) -> bool:
    """Audit the posted analytics of the advertiser's own ads.

    For each of ``advertiser.ad_indices`` this recomputes the homomorphic sum
    over the public log and compares it with the posted sum, and it checks
    every posted member's partial decryption of that ad against the member's
    share commitment. An unknown member fails the audit. Other advertisers'
    ads are not checked: a bad partial on one of them fails only its owner's
    audit. Every ad has one owner, so auditing every advertiser checks each
    posted partial once; ``post_analytics`` has already checked all of them
    on chain, and ``analytics_round`` combines the totals from those checked
    partials without checking them again.

    All the checked partials go into one ``dleq_verify_batch``. Only when the
    batch does not accept are they checked member by member, as
    ``post_analytics`` checks a row.
    """
    psc = ledger.contracts[psc_id]
    fsc = ledger.contracts[fsc_id]
    if not fsc.posted_aggregate_cts:
        return False
    own = advertiser.ad_indices
    posted_cts = tuple(fsc.posted_aggregate_cts[i] for i in own)
    if aggregate_click_ciphertexts(group, ledger, psc_id, own) != posted_cts:
        return False
    rows = []
    for pool_index, partials in fsc.posted_partials.items():
        commitment = psc.pool_share_commitments.get(pool_index)
        if commitment is None:
            return False
        rows.append((commitment, [partials[i] for i in own]))
    statements = [
        partial_statement(group, c, partial, commitment)
        for commitment, own_partials in rows
        for c, partial in zip(posted_cts, own_partials)
    ]
    if dleq_verify_batch(group, PARTIAL_DOMAIN, statements):
        return True
    return all(first_rejected_partial(group, posted_cts, own_partials, commitment) is None
               for commitment, own_partials in rows)
