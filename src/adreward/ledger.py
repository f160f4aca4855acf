"""Deterministic in-process sidechain: totally ordered transactions over contracts.

Consensus is abstracted to a single sequencer; every submitted transaction is
validated, executed atomically against contract storage and balances, and
appended to a log that replays bit-exactly from genesis. Contract calls with
private inputs carry an envelope encrypted to the chain's validator consortium
key, which only the executing validator opens.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import codec
from .elgamal import KeyPair, keygen
from .encoding import DetRng, dhash, encode_element
from .errors import BadSequence, BadSignature, InsufficientFunds, Revert
from .group import PrimeOrderGroup
from .hybrid import WrappedKey, hybrid_unwrap, hybrid_wrap
from .proofs import Signature, sign, verify_sig

Address = bytes  # 20-byte identifier


def address_from_pk(pk: int) -> Address:
    return dhash("adreward/addr", encode_element(pk))[:20]


def contract_address(contract_id: str) -> Address:
    return dhash("adreward/contract-addr", contract_id.encode())[:20]


@dataclass(frozen=True)
class Call:
    contract: str
    method: str
    args: tuple


@dataclass(frozen=True)
class Transaction:
    """A signed call, which keeps the bytes its signature covers.

    ``signing_bytes()`` is memoized per object. Soundness rule: only
    ``make_tx`` seeds the memo, with the body it has just encoded from these
    same fields and signed. Every other transaction (a replayed one, a
    ``dataclasses.replace`` copy, one built by hand) starts without it and
    encodes its own frozen fields once, on first use, so the memo never vouches
    for fields it was not computed from.
    """

    sequence_no: int
    sender: Address
    call: Call
    private_envelope: WrappedKey | None
    signature: Signature
    _signed_body: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        if self._signed_body is None:
            body = transaction_signing_bytes(self.sequence_no, self.sender, self.call, self.private_envelope)
            object.__setattr__(self, "_signed_body", body)
        return self._signed_body


def transaction_signing_bytes(sequence_no: int, sender: Address, call: Call, envelope: WrappedKey | None) -> bytes:
    """The bytes a transaction's signature covers (perfbench's tracer counts them under this name)."""
    return codec.encode_value((
        sequence_no,
        sender,
        call.contract,
        call.method,
        call.args,
        envelope,
    ))


@dataclass
class Receipt:
    sequence_no: int
    status: str  # "ok" | "reverted"
    events: tuple
    revert_reason: str | None
    exec_time: float
    result: object = None


class ExecutionContext:
    """What a contract method sees while executing inside a transaction."""

    def __init__(self, ledger: "LedgerState", tx: Transaction | None):
        self.ledger = ledger
        self.tx = tx
        self.sender: Address | None = tx.sender if tx is not None else None
        self.events: list[tuple] = []

    def emit(self, name: str, payload) -> None:
        self.events.append((name, payload))

    def contract(self, contract_id: str):
        return self.ledger.contracts[contract_id]

    def move(self, source: Address, dest: Address, amount: int) -> None:
        self.ledger._move(source, dest, amount)

    def open_private_inputs(self) -> tuple:
        if self.tx is None or self.tx.private_envelope is None:
            raise Revert("transaction carries no private envelope")
        raw = hybrid_unwrap(self.ledger.group, self.ledger.validator_key, self.tx.private_envelope)
        return codec.decode_args(raw)

    def validator_unwrap(self, wrapped: WrappedKey) -> bytes:
        return hybrid_unwrap(self.ledger.group, self.ledger.validator_key, wrapped)

    def validator_sign(self, msg: bytes) -> Signature:
        return sign(self.ledger.group, self.ledger.validator_key, msg)


class LedgerState:
    """Single sidechain: balances, contracts, and an append-only transaction log."""

    def __init__(self, group: PrimeOrderGroup, validator_seed: bytes | str, chain_id: str = "chain-0"):
        self.group = group
        self.chain_id = chain_id
        self.validator_key: KeyPair = keygen(group, DetRng(validator_seed).child("validator"))
        self.balances: dict[Address, int] = {}
        self.contracts: dict[str, object] = {}
        self.tx_log: list[Transaction] = []
        self.receipts: list[Receipt] = []
        self._genesis = {"validator_seed": _seed_repr(validator_seed), "chain_id": chain_id, "balances": {}}
        self._lock = threading.RLock()

    # -- genesis -------------------------------------------------------------

    @classmethod
    def genesis(
        cls,
        group: PrimeOrderGroup,
        validator_seed: bytes | str,
        initial_balances: dict[Address, int] | None = None,
        chain_id: str = "chain-0",
    ) -> "LedgerState":
        ledger = cls(group, validator_seed, chain_id)
        for addr, amount in (initial_balances or {}).items():
            ledger.balances[addr] = ledger.balances.get(addr, 0) + amount
            ledger._genesis["balances"][addr.hex()] = amount
        return ledger

    def genesis_json(self) -> str:
        return json.dumps(self._genesis, sort_keys=True)

    # -- transaction construction ---------------------------------------------

    def next_sequence(self) -> int:
        return len(self.tx_log) + 1

    def make_tx(
        self,
        sender_key: KeyPair,
        call: Call,
        private_args: tuple | None = None,
        sequence_no: int | None = None,
    ) -> Transaction:
        envelope = None
        if private_args is not None:
            plaintext = codec.encode_args(private_args)
            envelope = hybrid_wrap(
                self.group,
                self.validator_key.pk,
                plaintext,
                DetRng(dhash("adreward/envelope-seed", plaintext, encode_element(sender_key.pk))),
            )
        seq = self.next_sequence() if sequence_no is None else sequence_no
        sender = address_from_pk(sender_key.pk)
        body = transaction_signing_bytes(seq, sender, call, envelope)
        tx = Transaction(
            sequence_no=seq,
            sender=sender,
            call=call,
            private_envelope=envelope,
            signature=sign(self.group, sender_key, body),
        )
        object.__setattr__(tx, "_signed_body", body)  # the one place the memo is seeded
        return tx

    # -- execution -------------------------------------------------------------

    def submit(self, tx: Transaction) -> Receipt:
        with self._lock:
            if tx.sequence_no != self.next_sequence():
                raise BadSequence(f"expected sequence {self.next_sequence()}, got {tx.sequence_no}")
            if address_from_pk(tx.signature.signer_pk) != tx.sender:
                raise BadSignature("signer key does not match sender address")
            if not verify_sig(self.group, tx.signature.signer_pk, tx.signing_bytes(), tx.signature):
                raise BadSignature("invalid transaction signature")
            return self._execute(tx)

    def call(self, sender_key: KeyPair, call: Call, private_args: tuple | None = None) -> Receipt:
        """Build, sign, and submit in one step; safe under concurrent sessions."""
        with self._lock:
            return self.submit(self.make_tx(sender_key, call, private_args))

    def _execute(self, tx: Transaction) -> Receipt:
        snapshot = self._snapshot()
        ctx = ExecutionContext(self, tx)
        started = time.perf_counter()
        try:
            result = self._dispatch(ctx, tx)
            receipt = Receipt(
                sequence_no=tx.sequence_no,
                status="ok",
                events=tuple(ctx.events),
                revert_reason=None,
                exec_time=time.perf_counter() - started,
                result=result,
            )
        except Exception as exc:  # any failure in dispatch reverts, so every tx gets one receipt
            self._restore(snapshot)
            receipt = Receipt(
                sequence_no=tx.sequence_no,
                status="reverted",
                events=(),
                revert_reason=f"{type(exc).__name__}: {exc}",
                exec_time=time.perf_counter() - started,
            )
        self.tx_log.append(tx)
        self.receipts.append(receipt)
        return receipt

    def _dispatch(self, ctx: ExecutionContext, tx: Transaction):
        call = tx.call
        if call.contract == "system":
            return self._system_call(ctx, call)
        contract = self.contracts.get(call.contract)
        if contract is None:
            raise Revert(f"unknown contract {call.contract}")
        if call.method not in contract.ENTRY_POINTS:
            raise Revert(f"unknown method {call.method}")
        return getattr(contract, call.method)(ctx, *call.args)

    def _system_call(self, ctx: ExecutionContext, call: Call):
        if call.method == "transfer":
            dest, amount = call.args
            self._move(ctx.sender, dest, amount)
            ctx.emit("transfer", (ctx.sender, dest, amount))
            return None
        if call.method == "deploy":
            kind, contract_id, params = call.args
            return self._deploy(ctx, kind, contract_id, params)
        raise Revert(f"unknown system method {call.method}")

    def _deploy(self, ctx: ExecutionContext, kind: str, contract_id: str, params: tuple):
        if contract_id in self.contracts:
            raise Revert(f"contract id {contract_id} taken")
        from .contracts import CONTRACT_KINDS

        factory = CONTRACT_KINDS.get(kind)
        if factory is None:
            raise Revert(f"unknown contract kind {kind}")
        self.contracts[contract_id] = factory(self, contract_id, ctx.sender, params)
        ctx.emit("deploy", (kind, contract_id))
        return contract_id

    # -- balances ---------------------------------------------------------------

    def balance(self, addr: Address) -> int:
        return self.balances.get(addr, 0)

    def _move(self, source: Address, dest: Address, amount: int) -> None:
        if amount < 0:
            raise Revert("negative transfer amount")
        if self.balances.get(source, 0) < amount:
            raise InsufficientFunds(f"balance {self.balances.get(source, 0)} below {amount}")
        self.balances[source] = self.balances.get(source, 0) - amount
        self.balances[dest] = self.balances.get(dest, 0) + amount

    def transfer(self, sender_key: KeyPair, dest: Address, amount: int) -> Receipt:
        tx = self.make_tx(sender_key, Call("system", "transfer", (dest, amount)))
        return self.submit(tx)

    def total_supply(self) -> int:
        return sum(self.balances.values())

    # -- views ---------------------------------------------------------------------

    def view(self, contract_id: str, method: str, *args):
        contract = self.contracts[contract_id]
        return getattr(contract, method)(ExecutionContext(self, None), *args)

    # -- snapshots, hashing, replay --------------------------------------------------

    def _snapshot(self):
        return (
            dict(self.balances),
            {cid: contract.snapshot() for cid, contract in self.contracts.items()},
            set(self.contracts),
        )

    def _restore(self, snapshot) -> None:
        balances, contract_snaps, contract_ids = snapshot
        self.balances = balances
        for cid in list(self.contracts):
            if cid not in contract_ids:
                del self.contracts[cid]
        for cid, snap in contract_snaps.items():
            self.contracts[cid].restore(snap)

    def state_parts(self) -> list[bytes]:
        """The byte strings the state hash commits to, in order; ``state_digest`` hashes them."""
        parts = [
            self.chain_id.encode(),
            encode_element(self.validator_key.pk),
            codec.encode_value(tuple(sorted(self.balances.items()))),
            len(self.tx_log).to_bytes(8, "big"),
        ]
        for cid in sorted(self.contracts):
            parts.append(cid.encode())
            parts.append(self.contracts[cid].state_bytes())
        return parts

    def state_hash(self) -> str:
        return state_digest(self.state_parts())

    def export_tx_lines(self) -> Iterator[str]:
        """One JSON line per logged transaction, built lazily in log order."""
        for tx in self.tx_log:
            yield json.dumps({
                "seq": tx.sequence_no,
                "sender": tx.sender.hex(),
                "contract": tx.call.contract,
                "method": tx.call.method,
                "args": codec.encode_args(tx.call.args).hex(),
                "envelope": codec.encode_value(tx.private_envelope).hex(),
                "sig": codec.encode_value(tx.signature).hex(),
            }, sort_keys=True)

    def export_tx_log(self) -> str:
        return "\n".join(self.export_tx_lines())

    @classmethod
    def replay(cls, group: PrimeOrderGroup, genesis_json: str, tx_log_lines: str) -> "LedgerState":
        """Rebuild a ledger by re-executing an exported log from genesis."""
        genesis = json.loads(genesis_json)
        balances = {bytes.fromhex(addr): amount for addr, amount in genesis["balances"].items()}
        ledger = cls.genesis(group, genesis["validator_seed"], balances, genesis["chain_id"])
        for line in tx_log_lines.splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            tx = Transaction(
                sequence_no=entry["seq"],
                sender=bytes.fromhex(entry["sender"]),
                call=Call(entry["contract"], entry["method"], codec.decode_args(bytes.fromhex(entry["args"]))),
                private_envelope=codec.decode_value(bytes.fromhex(entry["envelope"])),
                signature=codec.decode_value(bytes.fromhex(entry["sig"])),
            )
            ledger.submit(tx)
        return ledger


def state_digest(parts: list[bytes]) -> str:
    """The state hash of ``LedgerState.state_parts()``."""
    return dhash("adreward/state", *parts).hex()


def _seed_repr(seed: bytes | str) -> str:
    return seed.hex() if isinstance(seed, bytes) else seed


def parallel_processes(chains: int) -> int:
    """How many processes ``run_parallel`` runs at once: one per chain, at most one per core."""
    return min(chains, os.cpu_count() or 1)


def run_parallel(worker, per_chain_args: list[tuple]) -> list:
    """Run one workload per chain: one chain inline, several in a pool of at most one process per core.

    `worker` must be a module-level callable when there is more than one chain.
    """
    if len(per_chain_args) <= 1:
        return [worker(*args) for args in per_chain_args]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=parallel_processes(len(per_chain_args))) as pool:
        futures = [pool.submit(worker, *args) for args in per_chain_args]
        return [f.result() for f in futures]
