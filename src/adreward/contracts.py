"""The policy and fund contracts: reward computation, escrow, and complaints.

The policy contract stores sealed per-ad reward values, computes each user's
encrypted reward aggregate homomorphically (the validator opens the sealed
policies with the consortium key during execution; plaintext policies never
touch public storage), validates payment requests, and hosts the consensus
pool draw. The fund contract escrows advertiser deposits, queues and settles
payments, accumulates pool-signed analytics, refunds advertisers, and flags
the facilitator when a complaint or the refund arithmetic proves misbehavior.

Each contract declares its storage once, in state-hash order. ``DEPLOYED``
names the fields fixed at deploy time, which are hashed first; ``STORAGE``
names the fields that transactions change. Rollback and the state commitment
are derived from these two tuples by ``_snapshot``, ``_restore`` and
``_state_bytes``. A field is committed in a generic form (a dict as its
key-sorted items, a list as a tuple, anything else as is) unless ``HASHED_AS``
maps its name to another encoder. ``CACHES`` names validator-local working
memory that is no part of storage: rollback drops it and the hash never sees it.
``ENTRY_POINTS`` names the methods a transaction may call; the ledger reverts a
call to any other attribute, views included.
"""

from __future__ import annotations

import copy

from . import codec
from .dkg import first_rejected_partial
from .elgamal import Ciphertext, add_ciphertexts, scalar_mul_ciphertext
from .encoding import decode_scalar, dhash, encode_element
from .errors import (
    AlreadyInitialized,
    BadOpening,
    BadSignature,
    CampaignFailed,
    DuplicateAddress,
    IndexOutOfRange,
    InsufficientFunds,
    LengthMismatch,
    NoSuchRequest,
    NotFound,
    ProofRejected,
    Revert,
    Unauthorized,
    UnknownAddr,
    UnknownAdvertiser,
    UnknownTxRef,
)
from .hybrid import symmetric_open
from .ledger import Address, ExecutionContext, address_from_pk, contract_address
from .payments import SettlementBatch, verify_batch
from .proofs import Signature, aggregate_message, verify_decryption, verify_sig
from .vrf import DrawConfig, VrfOutput, is_selected, max_draw, vrf_verify


def keys_message(contract_id: str, wrapped_keys: tuple) -> bytes:
    return dhash("adreward/store-keys", contract_id.encode(), codec.encode_value(tuple(wrapped_keys)))


def settlement_message(contract_id: str, count: int, amount: int) -> bytes:
    return dhash("adreward/settlement", contract_id.encode(), count.to_bytes(8, "big"), amount.to_bytes(16, "big"))


def clicks_message(contract_id: str, values: tuple) -> bytes:
    return dhash("adreward/aggr-clicks", contract_id.encode(), codec.encode_value(tuple(values)))


def pool_key_message(contract_id: str, pk_t: int, threshold: int, commitments: tuple, sign_pks: tuple) -> bytes:
    return dhash(
        "adreward/pool-key",
        contract_id.encode(),
        encode_element(pk_t),
        threshold.to_bytes(4, "big"),
        codec.encode_value(tuple(commitments)),
        codec.encode_value(tuple(sign_pks)),
    )


def _committed(value):
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    return value


def _snapshot(self) -> tuple:
    return tuple(copy.copy(getattr(self, name)) for name in self.STORAGE)


def _restore(self, snap: tuple) -> None:
    """Put a snapshot back; its containers become live storage, so restore it once."""
    for name, value in zip(self.STORAGE, snap):
        setattr(self, name, value)
    for name in self.CACHES:
        setattr(self, name, None)


def _state_bytes(self) -> bytes:
    hashed_as = self.HASHED_AS
    fields = []
    for name in self.DEPLOYED + self.STORAGE:
        value = getattr(self, name)
        fields.append(hashed_as[name](value) if name in hashed_as else _committed(value))
    return codec.encode_value(tuple(fields))


class PolicyContract:
    DEPLOYED = ("owner", "cf_pk", "catalog_size", "fund_id")
    STORAGE = (
        "enc_policies", "enc_keys", "aggregates", "enc_vec_prime_log",
        # consensus-pool draw state
        "registration_open", "registry", "epsilon", "draw_expected", "max_draw_value", "winners",
        "pool_pk", "pool_threshold", "pool_share_commitments", "pool_sign_pks",
    )
    ENTRY_POINTS = (
        "store_policy", "store_encrypted_keys", "compute_aggregate", "payment_request",
        "register_draw", "close_registration", "publish_win", "publish_pool_key",
    )
    HASHED_AS = {
        "enc_policies": lambda policies: tuple(p if p is not None else b"" for p in policies),
        "aggregates": lambda aggregates: tuple(sorted((k, ct, sig) for k, (ct, sig) in aggregates.items())),
        "epsilon": lambda epsilon: epsilon or b"",
        "pool_pk": lambda pool_pk: pool_pk or 0,
    }
    CACHES = ("_policy_cache",)
    # Bound in each class body rather than inherited: the per-layer tracer
    # (perfbench/tracer.py) finds these methods in the class's own vars(cls).
    snapshot, restore, state_bytes = _snapshot, _restore, _state_bytes

    def __init__(self, ledger, contract_id: str, deployer: Address, params: tuple):
        cf_pk, catalog_size, fund_id = params
        self.ledger = ledger
        self.contract_id = contract_id
        self.owner = deployer
        self.cf_pk = cf_pk
        self.catalog_size = catalog_size
        self.fund_id = fund_id
        self.enc_policies: list[bytes | None] = [None] * catalog_size
        self.enc_keys: tuple = ()
        self.aggregates: dict[bytes, tuple[Ciphertext, Signature]] = {}
        self.enc_vec_prime_log: list[tuple[bytes, tuple]] = []
        # consensus-pool draw state
        self.registration_open = True
        self.registry: dict[int, tuple[int, int]] = {}  # reg id -> (vrf pk, sign pk)
        self.epsilon: bytes | None = None
        self.draw_expected = 0
        self.max_draw_value = 0
        self.winners: dict[int, VrfOutput] = {}
        self.pool_pk: int | None = None
        self.pool_threshold = 0
        self.pool_share_commitments: dict[int, int] = {}
        self.pool_sign_pks: dict[int, int] = {}
        self._policy_cache: list[int] | None = None

    # -- policy storage --------------------------------------------------------

    def store_policy(self, ctx: ExecutionContext, index: int, sealed: bytes):
        if ctx.sender != self.owner:
            raise Unauthorized("only the deploying facilitator stores policies")
        if not (0 <= index < self.catalog_size):
            raise IndexOutOfRange(f"index {index} outside catalog of {self.catalog_size}")
        self.enc_policies[index] = sealed
        self._policy_cache = None

    def store_encrypted_keys(self, ctx: ExecutionContext, wrapped_keys: tuple, sig: Signature):
        if len(wrapped_keys) != self.catalog_size:
            raise LengthMismatch("one wrapped key per catalog entry required")
        msg = keys_message(self.contract_id, wrapped_keys)
        if not verify_sig(self.ledger.group, self.cf_pk, msg, sig):
            raise BadSignature("key vector not signed by the facilitator")
        self.enc_keys = tuple(wrapped_keys)
        self._policy_cache = None

    def _open_policies(self, ctx: ExecutionContext) -> list[int]:
        """Validator-side decryption of the sealed policy vector. Never stored.

        The cache is validator-local working memory, keyed off the sealed
        inputs; it never enters public storage or the state hash.
        """
        if self._policy_cache is not None:
            return self._policy_cache
        if len(self.enc_keys) != self.catalog_size or any(p is None for p in self.enc_policies):
            raise Revert("policies or keys not fully provisioned")
        values = []
        for i in range(self.catalog_size):
            sym_key = ctx.validator_unwrap(self.enc_keys[i])
            opened = symmetric_open(sym_key, self.enc_policies[i])
            values.append(decode_scalar(opened.ljust(32, b"\x00")))
        self._policy_cache = values
        return values

    # -- reward aggregation -------------------------------------------------------

    def compute_aggregate(self, ctx: ExecutionContext, user_pk: int, enc_vec: tuple, enc_vec_prime: tuple):
        if ctx.sender != address_from_pk(user_pk):
            raise Unauthorized("a claim must be sent by the key it claims for")
        key = encode_element(user_pk)
        if key in self.aggregates:
            raise Revert("this key already has an aggregate")
        if len(enc_vec) != self.catalog_size or len(enc_vec_prime) != self.catalog_size:
            raise LengthMismatch(f"interaction vectors must have {self.catalog_size} entries")
        group = self.ledger.group
        # a zero c1 or c2 zeroes that component of every sum it enters: the analytics
        # then fail, and an aggregate with c1 = 0 passes the decryption proof for any m
        for name, vec in (("enc_vec", enc_vec), ("enc_vec_prime", enc_vec_prime)):
            for i, ct in enumerate(vec):
                if not (isinstance(ct, Ciphertext) and 0 < ct.c1 < group.p and 0 < ct.c2 < group.p):
                    raise Revert(f"{name}[{i}] is not a ciphertext with 0 < c1, c2 < p")
        policies = self._open_policies(ctx)
        acc = Ciphertext(c1=1, c2=1)
        for policy, ct in zip(policies, enc_vec):
            acc = add_ciphertexts(group, acc, scalar_mul_ciphertext(group, ct, policy))
        sig = ctx.validator_sign(aggregate_message(user_pk, acc))
        self.aggregates[key] = (acc, sig)
        self.enc_vec_prime_log.append((key, tuple(enc_vec_prime)))
        ctx.emit("aggregate-computed", user_pk)

    def get_aggregate(self, ctx: ExecutionContext, user_pk: int) -> tuple[Ciphertext, Signature]:
        entry = self.aggregates.get(encode_element(user_pk))
        if entry is None:
            raise NotFound("no aggregate for this key")
        return entry

    def payment_request(self, ctx: ExecutionContext):
        """Validate an encrypted payment request and queue it on the fund contract."""
        user_pk, dec_result, sign_reward, proof, addr = ctx.open_private_inputs()
        entry = self.aggregates.get(encode_element(user_pk))
        if entry is None:
            raise NotFound("no aggregate for this key")
        stored_ct, _ = entry
        group = self.ledger.group
        if not verify_sig(group, self.ledger.validator_key.pk, aggregate_message(user_pk, stored_ct), sign_reward):
            raise BadSignature("reward signature does not verify under the consortium key")
        if not verify_decryption(group, user_pk, stored_ct, dec_result, proof):
            raise ProofRejected("decryption proof rejected")
        ctx.contract(self.fund_id)._queue_payment(addr, dec_result)
        ctx.emit("payment-queued", addr)

    # -- consensus-pool draw ---------------------------------------------------------

    def register_draw(self, ctx: ExecutionContext, reg_id: int, vrf_pk: int, sign_pk: int):
        if not self.registration_open:
            raise Revert("registration window closed")
        if reg_id in self.registry:
            raise Revert("registrant id already taken")
        self.registry[reg_id] = (vrf_pk, sign_pk)

    def close_registration(self, ctx: ExecutionContext, expected: int, round_no: int):
        if ctx.sender != self.owner:
            raise Unauthorized("only the facilitator closes registration")
        if not self.registry:
            raise Revert("nobody registered")
        # Seed derives from chain context at the close transaction, so a retry
        # round yields fresh randomness without any external oracle.
        self.registration_open = False
        self.epsilon = dhash(
            "adreward/draw-seed",
            self.contract_id.encode(),
            len(self.ledger.tx_log).to_bytes(8, "big"),
            round_no.to_bytes(4, "big"),
        )
        self.draw_expected = min(expected, len(self.registry))
        cfg = self.draw_config()
        self.max_draw_value = max_draw(cfg)
        self.winners = {}

    def draw_config(self) -> DrawConfig:
        return DrawConfig(
            epsilon=self.epsilon,
            expected_participants=self.draw_expected,
            pool_size=len(self.registry),
        )

    def publish_win(self, ctx: ExecutionContext, reg_id: int, out: VrfOutput):
        if self.epsilon is None:
            raise Revert("draw not started")
        entry = self.registry.get(reg_id)
        if entry is None:
            raise Revert("unknown registrant")
        vrf_pk, _ = entry
        if not vrf_verify(self.ledger.group, vrf_pk, self.epsilon, out):
            raise ProofRejected("randomness proof rejected")
        if not is_selected(out, self.draw_config()):
            raise Revert("draw value above the selection threshold")
        self.winners[reg_id] = out

    def publish_pool_key(
        self,
        ctx: ExecutionContext,
        pk_t: int,
        threshold: int,
        share_commitments: tuple,  # (pool index, commitment) pairs
        sign_pks: tuple,  # (pool index, reg id, sign pk) triples
        cosigs: tuple,  # (reg id, Signature) pairs from draw winners
    ):
        if self.pool_pk is not None:
            raise AlreadyInitialized("pool key already published")
        msg = pool_key_message(self.contract_id, pk_t, threshold, share_commitments, sign_pks)
        valid = set()
        for reg_id, sig in cosigs:
            if reg_id not in self.winners or reg_id in valid:
                continue
            _, sign_pk = self.registry[reg_id]
            if verify_sig(self.ledger.group, sign_pk, msg, sig):
                valid.add(reg_id)
        if len(valid) < len(self.winners) // 2 + 1:
            raise BadSignature("pool key needs co-signatures from a winner majority")
        self.pool_pk = pk_t
        self.pool_threshold = threshold
        self.pool_share_commitments = {idx: commitment for idx, commitment in share_commitments}
        self.pool_sign_pks = {idx: sign_pk for idx, _, sign_pk in sign_pks}
        ctx.emit("pool-key-published", pk_t)

    def storage_json(self) -> str:
        """Public storage dump for audit tooling."""
        import json

        return json.dumps({
            "contract": self.contract_id,
            "owner": self.owner.hex(),
            "catalog_size": self.catalog_size,
            "enc_policies": [p.hex() if p else None for p in self.enc_policies],
            "enc_keys": [w.to_bytes().hex() for w in self.enc_keys],
            "aggregates": {
                k.hex(): {"ciphertext": ct.to_bytes().hex(), "signature": sig.to_bytes().hex()}
                for k, (ct, sig) in sorted(self.aggregates.items())
            },
            "enc_vec_prime_log_entries": len(self.enc_vec_prime_log),
            "pool_pk": encode_element(self.pool_pk).hex() if self.pool_pk else None,
            "pool_threshold": self.pool_threshold,
            "winners": sorted(self.winners),
        }, sort_keys=True)


class FundContract:
    DEPLOYED = ("owner", "cf_pk", "fee", "catalog_size", "policy_id")
    STORAGE = (
        "initialized", "advertisers", "adv_ad_indices", "required_deposits", "fee_shares",
        "escrow", "escrow_sources", "payment_queue", "paid", "aggr_clicks",
        "posted_aggregate_cts", "posted_partials", "notes", "settlement_count", "refunds_paid",
        "refund_deficit", "campaign_complete", "fees_paid", "cf_flagged_dishonest", "state_failed",
        "complaints",
    )
    ENTRY_POINTS = (
        "store_adv_id", "store_funds", "post_analytics", "store_aggr_clicks", "settlement_request",
        "post_settlement_batch", "payment_processed", "pay_processing_fees", "raise_complaint",
        "claim_insufficient_refund",
    )
    HASHED_AS = {"payment_queue": lambda queue: tuple(queue.items()), "paid": tuple}  # insertion order
    CACHES = ()
    # Bound in each class body rather than inherited: see PolicyContract.
    snapshot, restore, state_bytes = _snapshot, _restore, _state_bytes

    def __init__(self, ledger, contract_id: str, deployer: Address, params: tuple):
        cf_pk, fee, catalog_size, policy_id = params
        self.ledger = ledger
        self.contract_id = contract_id
        self.owner = deployer
        self.cf_pk = cf_pk
        self.fee = fee
        self.catalog_size = catalog_size
        self.policy_id = policy_id
        self.address = contract_address(contract_id)
        self.initialized = False
        self.advertisers: list[str] = []
        self.adv_ad_indices: dict[str, tuple[int, ...]] = {}
        self.required_deposits: dict[str, int] = {}
        self.fee_shares: dict[str, int] = {}
        self.escrow: dict[str, int] = {}
        self.escrow_sources: dict[str, bytes] = {}  # refunds return to the funding account
        self.payment_queue: dict[bytes, int] = {}  # addr -> amount, in queueing order
        self.paid: dict[bytes, None] = {}  # a set of addresses, in payment order
        self.aggr_clicks: tuple[int, ...] = tuple([0] * catalog_size)
        self.posted_aggregate_cts: tuple = ()
        self.posted_partials: dict[int, tuple] = {}
        self.notes: dict[bytes, tuple] = {}  # tx_ref -> PaymentNote
        self.settlement_count = 0
        self.refunds_paid: dict[str, int] = {}
        self.refund_deficit = False
        self.campaign_complete = False
        self.fees_paid = False
        self.cf_flagged_dishonest = False
        self.state_failed = False
        self.complaints: list[tuple] = []

    # -- campaign setup --------------------------------------------------------

    def store_adv_id(self, ctx: ExecutionContext, adv_id: str, ad_indices: tuple, required_deposit: int, fee_share: int):
        if ctx.sender != self.owner:
            raise Unauthorized("only the facilitator registers advertisers")
        if self.initialized:
            raise AlreadyInitialized("campaign already started")
        if adv_id in self.adv_ad_indices:
            raise Revert("advertiser id already registered")
        self.advertisers.append(adv_id)
        self.adv_ad_indices[adv_id] = tuple(ad_indices)
        self.required_deposits[adv_id] = required_deposit
        self.fee_shares[adv_id] = fee_share

    def store_funds(self, ctx: ExecutionContext, adv_id: str, amount: int):
        if adv_id not in self.adv_ad_indices:
            raise UnknownAdvertiser(f"advertiser {adv_id} not registered")
        if adv_id in self.escrow:
            raise Revert("advertiser already funded")
        required = self.required_deposits[adv_id]
        if amount < required:
            raise InsufficientFunds(f"deposit {amount} below required {required}")
        if amount > required:
            raise Revert(f"deposit {amount} exceeds required {required}")
        ctx.move(ctx.sender, self.address, amount)
        self.escrow[adv_id] = amount
        self.escrow_sources[adv_id] = ctx.sender
        if all(a in self.escrow for a in self.advertisers):
            self.initialized = True

    # -- analytics -------------------------------------------------------------

    def post_analytics(self, ctx: ExecutionContext, pool_index: int, aggregate_cts: tuple, partials: tuple):
        """A pool member posts the encrypted per-ad sums, its partial decryptions, and proofs."""
        psc = ctx.contract(self.policy_id)
        if pool_index not in psc.pool_share_commitments:
            raise Unauthorized("not a consensus pool member")
        if len(aggregate_cts) != self.catalog_size or len(partials) != self.catalog_size:
            raise LengthMismatch("one ciphertext and one partial per catalog entry")
        if self.posted_aggregate_cts:
            if tuple(aggregate_cts) != self.posted_aggregate_cts:
                raise Revert("posted aggregates disagree with the earlier posting")
        else:
            self.posted_aggregate_cts = tuple(aggregate_cts)
        if any(partial.participant_id != pool_index for partial in partials):
            raise ProofRejected(f"partial decryption from member {pool_index} rejected")
        commitment = psc.pool_share_commitments[pool_index]
        rejected = first_rejected_partial(self.ledger.group, aggregate_cts, partials, commitment)
        if rejected is not None:
            raise ProofRejected(f"partial decryption from member {pool_index} rejected for ad {rejected}")
        self.posted_partials[pool_index] = tuple(partials)

    def store_aggr_clicks(self, ctx: ExecutionContext, values: tuple, cosigs: tuple):
        if len(values) != self.catalog_size:
            raise LengthMismatch("one total per catalog entry")
        psc = ctx.contract(self.policy_id)
        if psc.pool_pk is None:
            raise BadSignature("no consensus pool key published yet")
        msg = clicks_message(self.contract_id, values)
        valid = set()
        for pool_index, sig in cosigs:
            sign_pk = psc.pool_sign_pks.get(pool_index)
            if sign_pk is None or pool_index in valid:
                continue
            if verify_sig(self.ledger.group, sign_pk, msg, sig):
                valid.add(pool_index)
        if len(valid) < psc.pool_threshold:
            raise BadSignature(f"need {psc.pool_threshold} pool co-signatures, got {len(valid)}")
        self.aggr_clicks = tuple(a + b for a, b in zip(self.aggr_clicks, values))

    # -- payments ----------------------------------------------------------------

    def _queue_payment(self, addr: bytes, amount: int):
        if addr in self.payment_queue:
            raise DuplicateAddress("payment address already queued")
        self.payment_queue[addr] = amount

    def settlement_request(self, ctx: ExecutionContext, amount: int, sig: Signature):
        msg = settlement_message(self.contract_id, self.settlement_count, amount)
        if not verify_sig(self.ledger.group, self.cf_pk, msg, sig):
            raise BadSignature("settlement not signed by the facilitator")
        ctx.move(self.address, ctx.sender, amount)
        self.settlement_count += 1

    def post_settlement_batch(self, ctx: ExecutionContext, batch: SettlementBatch):
        """Single on-chain verification of a confidential payment batch."""
        if not verify_batch(self.ledger.group, batch):
            raise ProofRejected("settlement batch proof rejected")
        for note in batch.notes:
            self.notes[note.tx_ref] = note

    def payment_processed(self, ctx: ExecutionContext, tx_ref: bytes, addr: bytes):
        note = self.notes.get(tx_ref)
        if note is None:
            raise UnknownTxRef("no settled note under this reference")
        if note.recipient != addr:
            raise UnknownAddr("note does not pay this address")
        if addr not in self.payment_queue:
            raise UnknownAddr("address was never queued")
        if addr in self.paid:
            return  # idempotent re-mark
        self.paid[addr] = None
        if len(self.paid) == len(self.payment_queue):
            self.campaign_complete = True
            self._refund_advertisers(ctx)

    # -- completion ----------------------------------------------------------------

    def _spent_by(self, policies: list[int], adv_id: str) -> int:
        return sum(policies[i] * self.aggr_clicks[i] for i in self.adv_ad_indices[adv_id])

    def _refund_advertisers(self, ctx: ExecutionContext):
        policies = ctx.contract(self.policy_id)._open_policies(ctx)
        for adv_id in self.advertisers:
            spent = self._spent_by(policies, adv_id)
            expected = max(0, self.escrow[adv_id] - spent - self.fee_shares[adv_id])
            available = self.ledger.balance(self.address)
            payable = min(expected, available)
            if payable < expected:
                self.refund_deficit = True
            if payable:
                ctx.move(self.address, self.escrow_sources[adv_id], payable)
            self.refunds_paid[adv_id] = payable

    def pay_processing_fees(self, ctx: ExecutionContext):
        if not self.campaign_complete:
            raise Revert("campaign not complete")
        if self.state_failed:
            raise CampaignFailed("complaint validated; no processing fees")
        if self.fees_paid:
            raise Revert("fees already paid")
        ctx.move(self.address, self.owner, self.fee)
        self.fees_paid = True

    # -- misbehavior detection --------------------------------------------------------

    def raise_complaint(self, ctx: ExecutionContext, user_pk: int, tx_ref: bytes, r: int, l: int):
        from .payments import verify_opening

        note = self.notes.get(tx_ref)
        if note is None:
            raise NoSuchRequest("no settled note under this reference")
        queued = self.payment_queue.get(note.recipient)
        if queued is None:
            raise NoSuchRequest("note recipient was never queued")
        if not verify_opening(self.ledger.group, note, r, l):
            raise BadOpening("opening does not match the note commitment")
        if l != queued:
            self.cf_flagged_dishonest = True
            self.state_failed = True
            self.complaints.append(("underpayment", user_pk, tx_ref, l, queued))
            ctx.emit("cf-flagged", "underpayment")

    def claim_insufficient_refund(self, ctx: ExecutionContext, adv_id: str):
        if adv_id not in self.adv_ad_indices:
            raise UnknownAdvertiser(f"advertiser {adv_id} not registered")
        if not self.campaign_complete:
            raise Revert("refunds not yet executed")
        policies = ctx.contract(self.policy_id)._open_policies(ctx)
        spent = self._spent_by(policies, adv_id)
        refunded = self.refunds_paid.get(adv_id, 0)
        if spent + refunded + self.fee_shares[adv_id] != self.escrow[adv_id]:
            self.cf_flagged_dishonest = True
            self.state_failed = True
            self.complaints.append(("refund-deficit", adv_id, spent, refunded))
            ctx.emit("cf-flagged", "refund-deficit")

    def storage_json(self) -> str:
        """Public storage dump for audit tooling."""
        import json

        return json.dumps({
            "contract": self.contract_id,
            "initialized": self.initialized,
            "advertisers": list(self.advertisers),
            "escrow": dict(sorted(self.escrow.items())),
            "fee": self.fee,
            "payment_requests": [[addr.hex(), amount] for addr, amount in self.payment_queue.items()],
            "paid_requests": [addr.hex() for addr in self.paid],
            "aggr_clicks": list(self.aggr_clicks),
            "refunds_paid": dict(sorted(self.refunds_paid.items())),
            "cf_flagged_dishonest": self.cf_flagged_dishonest,
            "state_failed": self.state_failed,
            "fees_paid": self.fees_paid,
        }, sort_keys=True)

    def note_log_json_lines(self) -> str:
        """On-chain note log (tx_ref, recipient, commitment); amounts never appear."""
        import json

        return "\n".join(
            json.dumps({
                "tx_ref": ref.hex(),
                "recipient": note.recipient.hex(),
                "commitment": encode_element(note.commitment).hex(),
            }, sort_keys=True)
            for ref, note in sorted(self.notes.items())
        )


# the contract kinds a ``system deploy`` transaction may name
CONTRACT_KINDS = {"policy": PolicyContract, "fund": FundContract}
