"""Scoped fixed-base tables and the Legendre-symbol membership test.

``group.precomputed(*bases)`` registers window tables that ``power`` and
``is_element`` consult; the scope must leave nothing behind, and neither
answer may differ from plain ``pow``.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreward import actors, bench, dkg, scenario
from adreward.contracts import FundContract
from adreward.elgamal import keygen
from adreward.encoding import DetRng, encode_element, encode_scalar, hash_to_int
from adreward.errors import PolicyMismatch, Revert
from adreward.group import FixedBaseTable, P, Q
from adreward.proofs import SIG_DOMAIN, Signature, sign, verify_sig


def _oracle_is_element(a: int) -> bool:
    return 0 < a < P and pow(a, Q, P) == 1


def _member(group, label: str) -> int:
    return group.pow_g(group.random_scalar(DetRng(label)))


_squares = st.integers(min_value=1, max_value=P - 1).map(lambda x: x * x % P)
_candidates = st.one_of(
    st.integers(min_value=-2 * P, max_value=2 * P),
    st.sampled_from([0, 1, 2, 4, P - 1, P, P + 1, P + 4, -1, -4, 2 * P, -2 * P]),
    _squares,
    _squares.map(lambda s: P - s),
    _squares.map(lambda s: s + P),
    _squares.map(lambda s: -s),
)


@settings(max_examples=500, deadline=None)
@given(a=_candidates)
def test_is_element_matches_euler_criterion(group, a):
    assert group.is_element(a) == _oracle_is_element(a)


def test_is_element_answers_registered_bases_and_their_negations(group):
    pk = _member(group, "registered-member")
    with group.precomputed(pk):
        assert group.is_element(pk)
        assert not group.is_element(P - pk)
        assert not group.is_element(pk + P)


def test_power_on_a_registered_base_matches_pow(group):
    base = _member(group, "registered-power")
    exponents = (0, 1, Q - 1, Q, Q + 1, -1, 1 << 300)
    with group.precomputed(base):
        table = group._tables[base]
        served = []
        original = table.power
        table.power = lambda e: served.append(e) or original(e)
        for e in exponents:
            assert group.power(base, e) == pow(base, e % Q, P)
    assert served == list(exponents)  # every power came from the table


@pytest.mark.parametrize("value", [0, P, P + 4, -4, P - 4, P - 1], ids=["0", "p", "p+4", "-4", "p-4", "p-1"])
def test_precomputed_refuses_a_non_element(group, value):
    member = _member(group, "refused-neighbour")
    with pytest.raises(ValueError):
        with group.precomputed(member, value):
            pass
    assert group._tables == {}


def test_precomputed_refuses_the_negation_of_a_member(group):
    pk = _member(group, "refused-negation")
    with pytest.raises(ValueError):
        with group.precomputed(P - pk):
            pass
    assert group._tables == {}


def test_scope_leaves_nothing_registered(group):
    a, b = _member(group, "scope-a"), _member(group, "scope-b")
    with group.precomputed(a, b, a):
        assert set(group._tables) == {a, b}
    assert group._tables == {}

    with pytest.raises(RuntimeError):
        with group.precomputed(a):
            raise RuntimeError("raised inside the scope")
    assert group._tables == {}

    with group.precomputed(a):
        outer = group._tables[a]
        with group.precomputed(a, b):
            assert group._tables[a] is outer  # the enclosing scope's table is reused
        assert set(group._tables) == {a}  # the inner scope drops only what it added
        assert group.power(a, 12345) == pow(a, 12345, P)
    assert group._tables == {}


def _forge_with_negated_key(group, sk: int, msg: bytes) -> Signature:
    """A signature under the non-residue p - pk that passes every check of verify_sig but membership.

    (p - pk)^e = (-1)^e * pk^e, so the commitment is g^k or -g^k, whichever
    makes the challenge's parity cancel the sign.
    """
    forged_pk = P - group.pow_g(sk)
    for counter in range(1000):
        k = hash_to_int("test/forge-nonce", encode_scalar(counter)) % Q
        for negate in (False, True):
            big_r = group.pow_g(k)
            if negate:
                big_r = P - big_r
            e = group.hash_to_scalar(SIG_DOMAIN, encode_element(forged_pk), encode_element(big_r), msg)
            if e % 2 == negate:
                return Signature(challenge=e, response=(k + e * sk) % Q, signer_pk=forged_pk)
    raise AssertionError("no forgery found")


def test_verify_sig_rejects_a_signer_key_outside_the_group(group):
    key = keygen(group, DetRng("negated-signer"))
    msg = b"aggregate under a negated key"
    forged = _forge_with_negated_key(group, key.sk, msg)
    forged_pk = forged.signer_pk
    # the Schnorr equation itself holds, so only the membership test can refuse it
    big_r = pow(group.g, forged.response, P) * pow(pow(forged_pk, forged.challenge, P), -1, P) % P
    assert group.hash_to_scalar(SIG_DOMAIN, encode_element(forged_pk), encode_element(big_r), msg) == forged.challenge
    assert verify_sig(group, key.pk, msg, sign(group, key, msg))
    assert not verify_sig(group, forged_pk, msg, forged)
    with group.precomputed(key.pk):
        assert not verify_sig(group, forged_pk, msg, forged)


_SMALL_CAMPAIGN = dict(seed=5, users=3, num_ads=4, num_advertisers=2, pool_registered=6, pool_expected=3,
                       policy_max=255, click_cap=15, fee=10)

# run_campaign's steps, by the phase they begin or belong to; a phase lasts until the next one begins
_PHASE_STEPS = {
    "phase1_setup": "phase 1",
    "pool_selection": "pool draw",
    "user_claim": "users",
    "user_payment_request": "users",
    "analytics_round": "analytics",
    "cf_settle": "settlement",
    "user_check_payment": "settlement",
    "mark_payments_processed": "settlement",
    "advertiser_verify_analytics": "audit",
}


class _PhaseSpy:
    """Records, by phase, which bases are registered, which bases ``group.power`` raises and which get a table.

    Each step in ``_PHASE_STEPS`` is rebound in ``adreward.scenario`` (where
    run_campaign looks it up), ``PrimeOrderGroup.power`` and
    ``FixedBaseTable.__init__`` on their classes, and ``dkg.verify_partial``
    in its module, where every caller looks it up. ``campaign`` is the opened
    campaign, for its keys.
    """

    def __init__(self, group, monkeypatch):
        self.phase = None
        self.registered: dict[str, set[frozenset]] = {}
        self.powers: list[tuple[str | None, int, bool]] = []  # (phase, base, whether base had a table)
        self.builds: list[tuple[str | None, int]] = []  # (phase, base) of every table built
        self.partial_checks: list[tuple[str | None, bool]] = []  # (phase, whether inside post_analytics)
        self.campaign = None
        for name, phase in _PHASE_STEPS.items():
            monkeypatch.setattr(scenario, name, self._step(group, phase, getattr(scenario, name)))
        open_campaign = scenario.open_campaign

        def opened(*args, **kwargs):
            self.campaign = open_campaign(*args, **kwargs)
            return self.campaign

        monkeypatch.setattr(scenario, "open_campaign", opened)
        power = type(group).power

        def spy_power(grp, base, exponent):
            self.powers.append((self.phase, base, base in grp._tables))
            return power(grp, base, exponent)

        monkeypatch.setattr(type(group), "power", spy_power)
        build = FixedBaseTable.__init__

        def spy_build(table, grp, base):
            self.builds.append((self.phase, base))
            build(table, grp, base)

        monkeypatch.setattr(FixedBaseTable, "__init__", spy_build)
        self._posting = False
        post = FundContract.post_analytics

        def spy_post(contract, *args):
            self._posting = True
            try:
                return post(contract, *args)
            finally:
                self._posting = False

        monkeypatch.setattr(FundContract, "post_analytics", spy_post)
        verify = dkg.verify_partial

        def spy_verify(*args):
            self.partial_checks.append((self.phase, self._posting))
            return verify(*args)

        monkeypatch.setattr(dkg, "verify_partial", spy_verify)

    def _step(self, group, phase, original):
        def step(*args, **kwargs):
            self.phase = phase
            self.registered.setdefault(phase, set()).add(frozenset(group._tables))
            return original(*args, **kwargs)

        return step

    def raised_in(self, phase: str, bases) -> dict[int, set[bool]]:
        """For each of ``bases`` that ``power`` raised in ``phase``: whether it had a table, per call."""
        seen: dict[int, set[bool]] = {}
        for at, base, registered in self.powers:
            if at == phase and base in bases:
                seen.setdefault(base, set()).add(registered)
        return seen


def test_run_campaign_registers_the_user_phase_keys_and_drops_them(group, monkeypatch):
    spy = _PhaseSpy(group, monkeypatch)
    report = scenario.run_campaign(scenario.ScenarioConfig(name="precomputed", **_SMALL_CAMPAIGN))
    assert report.passed
    campaign = spy.campaign
    consortium, facilitator, pool_key = campaign.ledger.validator_key.pk, campaign.cf.account.pk, campaign.psc.pool_pk
    assert spy.registered == {
        "phase 1": {frozenset({consortium, facilitator})},
        "pool draw": {frozenset()},
        "users": {frozenset({consortium, pool_key})},
        "analytics": {frozenset()},
        "settlement": {frozenset({group.h, facilitator})},
        "audit": {frozenset()},
    }
    assert group._tables == {}
    assert group._g_table is not None and group._g_table.base == group.g


def test_no_power_of_a_phase_key_falls_back_to_pow_in_phase1_or_settlement(group, monkeypatch):
    spy = _PhaseSpy(group, monkeypatch)
    assert scenario.run_campaign(scenario.ScenarioConfig(name="precomputed", **_SMALL_CAMPAIGN)).passed
    consortium, facilitator = spy.campaign.ledger.validator_key.pk, spy.campaign.cf.account.pk
    keys = {group.h, consortium, facilitator}
    # each phase raises both of its keys, and every time from a table
    assert spy.raised_in("phase 1", keys) == {consortium: {True}, facilitator: {True}}
    assert spy.raised_in("settlement", keys) == {group.h: {True}, facilitator: {True}}


def test_analytics_checks_each_posted_partial_once_and_raises_each_sums_c1_from_one_table(group, monkeypatch):
    spy = _PhaseSpy(group, monkeypatch)
    assert scenario.run_campaign(scenario.ScenarioConfig(name="precomputed", **_SMALL_CAMPAIGN)).passed
    fsc = spy.campaign.fsc
    c1s = [ct.c1 for ct in fsc.posted_aggregate_cts]
    assert len(set(c1s)) == _SMALL_CAMPAIGN["num_ads"]
    # every check is the chain's, one per posted member and ad; the combination checks nothing again
    checks = [posting for phase, posting in spy.partial_checks if phase == "analytics"]
    assert checks == [True] * (len(fsc.posted_partials) * _SMALL_CAMPAIGN["num_ads"])
    assert spy.raised_in("analytics", set(c1s)) == {c1: {True} for c1 in c1s}
    assert sorted(base for phase, base in spy.builds if phase == "analytics" and base in c1s) == sorted(c1s)


class _StopAfterPhase1(Exception):
    pass


def _phase1_dh_exponentiations(group, monkeypatch, num_ads: int) -> int:
    """How often phase 1 raises a facilitator's or an advertiser's Diffie-Hellman key."""
    spy = _PhaseSpy(group, monkeypatch)
    dh_keys = set()
    setup = scenario.phase1_setup

    def setup_then_stop(grp, ledger, cf, advertisers, campaign_id):
        dh_keys.update([cf.dh_key.pk, *(adv.dh_key.pk for adv in advertisers)])
        setup(grp, ledger, cf, advertisers, campaign_id)
        raise _StopAfterPhase1()

    monkeypatch.setattr(scenario, "phase1_setup", setup_then_stop)
    cfg = scenario.ScenarioConfig(name="dh-count", **{**_SMALL_CAMPAIGN, "num_ads": num_ads})
    with pytest.raises(_StopAfterPhase1):
        scenario.run_campaign(cfg)
    monkeypatch.undo()
    return sum(base in dh_keys for phase, base, _ in spy.powers if phase == "phase 1")


def test_phase1_dh_exponentiations_depend_on_the_advertisers_not_the_catalog(group, monkeypatch):
    # per advertiser: it seals, the facilitator checks the seals, it re-opens the posted entries
    assert _phase1_dh_exponentiations(group, monkeypatch, 8) == 3 * 2
    assert _phase1_dh_exponentiations(group, monkeypatch, 64) == 3 * 2


def _reject_settlement(*args, **kwargs):
    raise Revert("settlement request rejected")


class _PartialFault(Exception):
    """Raised by a partial decryption; carries the bases registered when it was raised."""


def _failing_partial_decrypt(group):
    def partial_decrypt(*args):
        raise _PartialFault(frozenset(group._tables))

    return partial_decrypt


@pytest.mark.parametrize("step, error", [
    ("phase1_setup", PolicyMismatch), ("analytics_round", _PartialFault), ("cf_settle", Revert),
])
def test_a_campaign_that_raises_inside_a_scope_leaves_no_table(group, monkeypatch, step, error):
    if step == "phase1_setup":
        monkeypatch.setattr(scenario, step, functools.partial(scenario.phase1_setup, tamper_policy_index=0))
    elif step == "analytics_round":
        monkeypatch.setattr(actors, "partial_decrypt", _failing_partial_decrypt(group))
    else:
        monkeypatch.setattr(scenario, step, _reject_settlement)
    spy = _PhaseSpy(group, monkeypatch)
    with pytest.raises(error) as raised:
        scenario.run_campaign(scenario.ScenarioConfig(name="raises", **_SMALL_CAMPAIGN))
    if step == "analytics_round":
        (registered,) = raised.value.args
        assert len(registered) == 1  # it raised inside the first ad's c1 scope, which opens inside the step
    else:
        assert [len(bases) for bases in spy.registered[_PHASE_STEPS[step]]] == [2]  # it raised inside its scope
    assert group._tables == {}


def test_bench_cohort_serves_users_with_the_campaign_key_tables(group, monkeypatch):
    served_with_tables = []
    original = bench._serve_user

    def serve(cfg, campaign, session):
        user_keys = {campaign.ledger.validator_key.pk, campaign.psc.pool_pk}
        served_with_tables.append(set(group._tables) == user_keys)
        original(cfg, campaign, session)

    monkeypatch.setattr(bench, "_serve_user", serve)
    result = bench.run_cohort(3, catalog=4, seed="precomputed-cohort")
    assert result["queued"] == 3
    assert served_with_tables == [True] * 3
    assert group._tables == {}
