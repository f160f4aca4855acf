"""Span tracer that measures adreward's layers from outside the package.

Nothing under ``src/`` is changed. For the length of one traced campaign every
function in ``SPANS`` is replaced by a wrapper that records a span
``(span id, parent span id, name, start, end)``:

* a module-level function is rebound in every ``adreward.*`` namespace that
  holds it, because ``from .x import y`` copies the name into the importer;
* a method is rebound on its class, which covers every instance.

Spans stay in memory and are written out once, when the run ends. A layer's
self time is its spans' duration minus the part their child spans cover.
``scenario.run_campaign`` is the root span, so its self time is the untraced
remainder and the self times of one campaign add up to its traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import time
from collections import Counter

# (span name, module, attribute or Class.method)
SPANS = (
    ("scenario.run_campaign", "adreward.scenario", "run_campaign"),
    ("group.power", "adreward.group", "PrimeOrderGroup.power"),
    ("group.pow_g", "adreward.group", "PrimeOrderGroup.pow_g"),
    ("group.is_element", "adreward.group", "PrimeOrderGroup.is_element"),
    ("group.dlog", "adreward.group", "PrimeOrderGroup.dlog"),
    ("group.fixed_base_table.build", "adreward.group", "FixedBaseTable.__init__"),
    ("group.fixed_base_table.power", "adreward.group", "FixedBaseTable.power"),
    ("elgamal.encrypt_vector", "adreward.elgamal", "encrypt_vector"),
    ("elgamal.scalar_mul_ciphertext", "adreward.elgamal", "scalar_mul_ciphertext"),
    ("elgamal.recover_plaintext", "adreward.elgamal", "recover_plaintext"),
    ("proofs.sign", "adreward.proofs", "sign"),
    ("proofs.verify_sig", "adreward.proofs", "verify_sig"),
    ("proofs.prove_decryption", "adreward.proofs", "prove_decryption"),
    ("proofs.verify_decryption", "adreward.proofs", "verify_decryption"),
    ("proofs.dleq_prove", "adreward.proofs", "dleq_prove"),
    ("proofs.dleq_verify", "adreward.proofs", "dleq_verify"),
    ("hybrid.hybrid_wrap", "adreward.hybrid", "hybrid_wrap"),
    ("hybrid.hybrid_unwrap", "adreward.hybrid", "hybrid_unwrap"),
    ("hybrid.symmetric_open", "adreward.hybrid", "symmetric_open"),
    ("vrf.vrf_rand_gen", "adreward.vrf", "vrf_rand_gen"),
    ("vrf.vrf_verify", "adreward.vrf", "vrf_verify"),
    ("dkg.dkg_deal", "adreward.dkg", "dkg_deal"),
    ("dkg.dkg_finalize", "adreward.dkg", "dkg_finalize"),
    ("dkg.partial_decrypt", "adreward.dkg", "partial_decrypt"),
    ("dkg.verify_partial", "adreward.dkg", "verify_partial"),
    ("dkg.combine_partials", "adreward.dkg", "combine_partials"),
    ("payments.make_note", "adreward.payments", "make_note"),
    ("payments.settle_batch", "adreward.payments", "settle_batch"),
    ("payments.verify_batch", "adreward.payments", "verify_batch"),
    ("payments.verify_opening", "adreward.payments", "verify_opening"),
    ("codec.encode_value", "adreward.codec", "encode_value"),
    ("codec.decode_args", "adreward.codec", "decode_args"),
    ("ledger.make_tx", "adreward.ledger", "LedgerState.make_tx"),
    ("ledger.submit", "adreward.ledger", "LedgerState.submit"),
    ("ledger.view", "adreward.ledger", "LedgerState.view"),
    ("ledger.state_hash", "adreward.ledger", "LedgerState.state_hash"),
    ("contracts.snapshot", "adreward.contracts", "PolicyContract.snapshot"),
    ("contracts.snapshot", "adreward.contracts", "FundContract.snapshot"),
    ("contracts.state_bytes", "adreward.contracts", "PolicyContract.state_bytes"),
    ("contracts.state_bytes", "adreward.contracts", "FundContract.state_bytes"),
    ("actors.user_claim", "adreward.actors", "user_claim"),
    ("actors.user_payment_request", "adreward.actors", "user_payment_request"),
    ("actors.pool_selection", "adreward.actors", "pool_selection"),
    ("actors.analytics_round", "adreward.actors", "analytics_round"),
    ("actors.cf_settle", "adreward.actors", "cf_settle"),
    ("actors.advertiser_verify_analytics", "adreward.actors", "advertiser_verify_analytics"),
)

# encode_value recurses through its own module global; only the outermost call is a span
OUTERMOST_ONLY = {"codec.encode_value"}

CLIENT_SPANS = {"actors.user_claim", "actors.user_payment_request"}
LEDGER_SPANS = {"ledger.make_tx", "ledger.submit", "ledger.view"}

# contract methods whose summed Receipt.exec_time is reported
EXEC_METHODS = (
    "compute_aggregate",
    "payment_request",
    "post_analytics",
    "post_settlement_batch",
    "payment_processed",
    "store_aggr_clicks",
)

# per-layer metrics reported as <name>.calls and <name>.self_s
CALLS_AND_SELF = (
    "group.power", "group.pow_g", "group.is_element", "group.dlog", "group.fixed_base_table.power",
    "elgamal.encrypt_vector", "elgamal.scalar_mul_ciphertext", "elgamal.recover_plaintext",
    "proofs.sign", "proofs.verify_sig", "proofs.prove_decryption", "proofs.verify_decryption",
    "proofs.dleq_prove", "proofs.dleq_verify",
    "hybrid.hybrid_wrap", "hybrid.hybrid_unwrap", "hybrid.symmetric_open",
    "vrf.vrf_rand_gen", "vrf.vrf_verify",
    "dkg.dkg_deal", "dkg.dkg_finalize", "dkg.partial_decrypt", "dkg.verify_partial", "dkg.combine_partials",
    "payments.make_note", "payments.settle_batch", "payments.verify_batch", "payments.verify_opening",
    "codec.encode_value", "codec.decode_args",
    "ledger.state_hash",
    "contracts.snapshot", "contracts.state_bytes",
    "actors.pool_selection", "actors.analytics_round", "actors.cf_settle", "actors.advertiser_verify_analytics",
)

# protocol layers whose work is mostly group operations (child spans) also get
# <name>.total_s, their inclusive time, so a change that replaces group calls
# with other code still shows as one number
WITH_TOTAL = tuple(
    name for name in CALLS_AND_SELF if name.split(".")[0] in ("elgamal", "proofs", "hybrid", "vrf", "dkg", "payments")
) + ("ledger.make_tx", "ledger.submit")


def _is_program_module(name: str) -> bool:
    return name == "adreward" or name.startswith("adreward.")


class Patches:
    """Rebinds attributes in adreward's namespaces and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, value) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not _is_program_module(name):
                continue
            for attr, current in list(vars(module).items()):
                if current is original:
                    self.set(module, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _resolve(module_name: str, attr: str):
    """(owner, attribute, original) for a target; owner is None for module functions."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        owner = getattr(module, cls_name)
        return owner, method, vars(owner)[method]
    return None, attr, getattr(module, attr)


class Tracer:
    """Records spans and counters for one traced campaign at a time."""

    def __init__(self):
        self.campaigns: list[tuple[str, list[tuple], Counter]] = []
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.stack: list[tuple[int, str]] = []
        self._ids = itertools.count()
        self._patches = Patches()
        self.missing: set[str] = set()  # targets this version of the program does not have

    # -- installing ---------------------------------------------------------

    def begin(self, campaign_id: str) -> None:
        self.spans = []
        self.counters = Counter()
        self.stack = []
        self._campaign_id = campaign_id
        for name, module_name, attr in SPANS:
            try:
                owner, attr_name, original = _resolve(module_name, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{module_name}:{attr}")
                continue
            wrapper = self._wrap(name, original, _AFTER.get(name))
            if owner is None:
                self._patches.replace_everywhere(original, wrapper)
            else:
                self._patches.set(owner, attr_name, wrapper)
        try:
            _, _, signing_bytes = _resolve("adreward.ledger", "transaction_signing_bytes")
        except AttributeError:
            self.missing.add("adreward.ledger:transaction_signing_bytes")
        else:
            self._patches.replace_everywhere(signing_bytes, self._count_signing_bytes(signing_bytes))

    def end(self) -> None:
        self._patches.restore()
        if self.stack:
            raise RuntimeError(f"unbalanced spans at end of campaign: {self.stack}")
        self.campaigns.append((self._campaign_id, self.spans, self.counters))

    def _wrap(self, name: str, fn, after):
        tracer = self
        clock = time.perf_counter
        ids = self._ids
        outermost = name in OUTERMOST_ONLY

        def traced(*args, **kwargs):
            stack = tracer.stack
            if outermost and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(tracer.counters, args, out)
            return out

        return functools.update_wrapper(traced, fn)

    def _count_signing_bytes(self, fn):
        """Counts the bytes a new transaction signs; submit re-encodes them to verify."""
        tracer = self

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.stack and tracer.stack[-1][1] == "ledger.make_tx":
                tracer.counters["ledger.signing_bytes"] += len(out)
            return out

        return functools.update_wrapper(counted, fn)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> int:
        """Writes every span of every traced campaign as gzip'd tab-separated lines."""
        count = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("campaign\tspan\tparent\tname\tstart\tend\n")
            for campaign_id, spans, _ in self.campaigns:
                for sid, parent, name, t0, t1 in spans:
                    out.write(f"{campaign_id}\t{sid}\t{parent}\t{name}\t{t0!r}\t{t1!r}\n")
                    count += 1
        return count


def _after_encode(counters, args, out):
    counters["codec.encoded_bytes"] += len(out)


def _after_make_tx(counters, args, tx):
    if tx.private_envelope is not None:
        counters["ledger.envelope_bytes"] += len(tx.private_envelope.to_bytes())


def _after_submit(counters, args, receipt):
    counters["ledger.tx"] += 1
    if receipt.status == "reverted":
        counters["ledger.reverted"] += 1
    counters[f"contracts.{args[1].call.method}.exec_s"] += receipt.exec_time


_AFTER = {
    "codec.encode_value": _after_encode,
    "ledger.make_tx": _after_make_tx,
    "ledger.submit": _after_submit,
}


# -- analysis --------------------------------------------------------------------


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    position = {span[0]: i for i, span in enumerate(spans)}
    own = [t1 - t0 for _, _, _, t0, t1 in spans]
    for sid, parent, _, t0, t1 in spans:
        if parent >= 0:
            own[position[parent]] -= t1 - t0
    return own


def layer_stats(spans: list[tuple]) -> dict[str, list]:
    """name -> [calls, self seconds, total seconds]."""
    stats: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = stats.setdefault(span[2], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += own
        entry[2] += span[4] - span[3]
    return stats


def client_self_s(spans: list[tuple]) -> float:
    """Time in user_claim and user_payment_request minus the ledger spans inside them."""
    names = {sid: name for sid, _, name, _, _ in spans}
    total = 0.0
    for _, parent, name, t0, t1 in spans:
        if name in CLIENT_SPANS:
            total += t1 - t0
        elif name in LEDGER_SPANS and names.get(parent) in CLIENT_SPANS:
            total -= t1 - t0
    return total


def layer_metrics(spans: list[tuple], counters: Counter, pool_size: int, draw_rounds: int) -> dict[str, tuple]:
    """Every per-layer metric of one traced campaign: name -> (value, unit)."""
    stats = layer_stats(spans)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    metrics: dict[str, tuple] = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (own(name), "s")
    for name in WITH_TOTAL:
        metrics[f"{name}.total_s"] = (stats.get(name, (0, 0.0, 0.0))[2], "s")
    metrics["group.fixed_base_table.builds"] = (calls("group.fixed_base_table.build"), "count")
    metrics["group.fixed_base_table.build.self_s"] = (own("group.fixed_base_table.build"), "s")
    metrics["vrf.draw_rounds"] = (draw_rounds, "count")
    metrics["vrf.winners"] = (pool_size, "count")
    metrics["codec.encoded_bytes"] = (counters["codec.encoded_bytes"], "bytes")
    metrics["ledger.tx"] = (counters["ledger.tx"], "count")
    metrics["ledger.reverted"] = (counters["ledger.reverted"], "count")
    metrics["ledger.make_tx.self_s"] = (own("ledger.make_tx"), "s")
    metrics["ledger.submit.self_s"] = (own("ledger.submit"), "s")
    metrics["ledger.signing_bytes"] = (counters["ledger.signing_bytes"], "bytes")
    metrics["ledger.envelope_bytes"] = (counters["ledger.envelope_bytes"], "bytes")
    for method in EXEC_METHODS:
        metrics[f"contracts.{method}.exec_s"] = (float(counters[f"contracts.{method}.exec_s"]), "s")
    metrics["actors.client.self_s"] = (client_self_s(spans), "s")
    metrics["scenario.run_campaign.self_s"] = (own("scenario.run_campaign"), "s")
    return metrics
