import builtins

from hypothesis import given, settings
from hypothesis import strategies as st

from adreward import group as group_module
from adreward.encoding import DetRng, decode_element, decode_scalar, encode_element, encode_scalar
from adreward.group import FixedBaseTable, P, Q, PrimeOrderGroup, default_group


def test_modulus_is_a_safe_prime_structure(group):
    assert group.p == 2 * group.q + 1
    assert group.p == P and group.q == Q
    assert group.p.bit_length() == 255


def test_generators_have_prime_order(group):
    assert pow(group.g, group.q, group.p) == 1
    assert pow(group.h, group.q, group.p) == 1
    assert group.g != group.h
    assert group.is_element(group.g)
    assert group.is_element(group.h)


def test_identity_and_inverse(group):
    rng = DetRng("group-ops")
    a = group.pow_g(group.random_scalar(rng))
    assert group.mul(a, group.identity) == a
    assert group.mul(a, group.inv(a)) == group.identity
    assert group.div(a, a) == group.identity


def test_pow_g_matches_generic_pow(group):
    rng = DetRng("powg")
    for _ in range(20):
        e = group.random_scalar(rng)
        assert group.pow_g(e) == pow(group.g, e, group.p)
    assert group.pow_g(0) == 1
    assert group.pow_g(group.q) == 1  # exponent reduced mod q


_elements = st.integers(min_value=1, max_value=Q - 1).map(lambda k: pow(4, k, P))
_table_exponents = st.one_of(
    st.integers(min_value=-(1 << 300), max_value=1 << 300),
    st.sampled_from([0, 1, (1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32, Q - 1, Q, Q + 1, -1, (1 << 256) - 1]),
)


@settings(max_examples=60, deadline=None)
@given(base=_elements, exponents=st.lists(_table_exponents, min_size=1, max_size=10))
def test_fixed_base_table_matches_generic_pow(group, base, exponents):
    table = FixedBaseTable(group, base)
    for e in exponents:
        assert table.power(e) == pow(base, e % Q, P)


def test_fixed_base_table_sends_exponents_below_2_16_to_pow(group, monkeypatch):
    table = FixedBaseTable(group, group.h)
    calls = []
    monkeypatch.setattr(group_module, "pow", lambda *args: calls.append(args) or builtins.pow(*args), raising=False)
    # (exponent, whether C pow serves it): the bound applies after reduction mod q
    cases = [(0, True), ((1 << 16) - 1, True), (1 << 16, False), (Q + 5, True), (Q + (1 << 16), False), (-1, False)]
    for e, by_pow in cases:
        calls.clear()
        assert table.power(e) == builtins.pow(group.h, e % Q, P)
        assert bool(calls) == by_pow, e


def test_fixed_base_table_stores_at_most_1024_integers(group):
    table = FixedBaseTable(group, group.h)
    assert sum(len(sub) for sub in table._subtables) <= 1024


def test_pow_g_uses_one_shared_fixed_base_table(group):
    group.pow_g(1)
    table = group._g_table
    assert isinstance(table, FixedBaseTable) and table.base == group.g
    group.pow_g(12345)
    assert group._g_table is table


# bases cover 0, the subgroup, its complement (p - x has order 2q) and values >= p
_bases = st.one_of(st.integers(min_value=0, max_value=2 * P), st.sampled_from([0, 1, P - 1, P, P + 1, 4, P - 4]))
_exponents = st.one_of(st.integers(min_value=0, max_value=1 << 300), st.sampled_from([0, 1, 15, 16, Q, P - 1, P]))


@settings(max_examples=200, deadline=None)
@given(b1=_bases, e1=_exponents, b2=_bases, e2=_exponents)
def test_multi_power_matches_two_pows(group, b1, e1, b2, e2):
    assert group.multi_power(b1, e1, b2, e2) == pow(b1, e1, P) * pow(b2, e2, P) % P


def test_hash_to_element_lands_in_subgroup(group):
    for i in range(10):
        elem = group.hash_to_element("test-domain", i.to_bytes(4, "big"))
        assert group.is_element(elem)
        assert elem != group.identity


def test_hash_to_element_domain_separation(group):
    a = group.hash_to_element("domain-a", b"x")
    b = group.hash_to_element("domain-b", b"x")
    assert a != b


def test_encodings_round_trip(group):
    rng = DetRng("encodings")
    s = group.random_scalar(rng)
    assert decode_scalar(encode_scalar(s)) == s
    assert len(encode_scalar(s)) == 32
    e = group.pow_g(s)
    assert decode_element(encode_element(e)) == e
    assert len(encode_element(e)) == 32


def test_dlog_agrees_with_linear_scan_up_to_2_12(group):
    # oracle: incremental multiplication by g
    acc = 1
    for m in range(1 << 12):
        assert group.dlog(acc, (1 << 12) - 1) == m
        acc = acc * group.g % group.p


def test_dlog_rejects_out_of_range(group):
    bound = 100
    elem = group.pow_g(bound + 1)
    assert group.dlog(elem, bound) is None
    # element outside the g-span entirely (uses h, dlog unknown)
    assert group.dlog(group.h, 1 << 12) is None


def test_dlog_large_value(group):
    assert group.dlog(group.pow_g(1_000_000), 1 << 20) == 1_000_000


def test_independent_instances_share_nothing():
    a = PrimeOrderGroup()
    b = default_group()
    assert a.p == b.p and a.h == b.h
    assert a is not b
