import dataclasses
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreward.dkg import (
    PartialDecryption,
    ThresholdConfig,
    combine_partials,
    dkg_deal,
    dkg_finalize,
    dkg_verify_share,
    lagrange_at_zero,
    lagrange_combine,
    open_share,
    partial_decrypt,
    verify_partial,
)
from adreward.elgamal import encrypt, keygen, recover_plaintext
from adreward.encoding import DetRng
from adreward.errors import InsufficientShares, InvalidConfig, InvalidPartial, NoQualifiedDealers


def run_dkg(group, n, k, disqualified=frozenset(), seed="dkg"):
    cfg = ThresholdConfig(n=n, k=k)
    rng = DetRng(seed)
    enc_keys = {j: keygen(group, rng.child(f"enc-{j}")) for j in range(1, n + 1)}
    recipient_pks = {j: kp.pk for j, kp in enc_keys.items()}
    rounds = [dkg_deal(group, cfg, i, recipient_pks, rng.child(f"deal-{i}")) for i in range(1, n + 1)]
    received = {
        j: {r.participant_id: open_share(group, r, j, enc_keys[j]) for r in rounds}
        for j in range(1, n + 1)
    }
    material = dkg_finalize(group, cfg, rounds, received, disqualified=disqualified)
    return cfg, rounds, received, material


def joint_secret(group, material, k):
    """Test-only reconstruction: interpolate any k shares at zero."""
    ids = sorted(material)[:k]
    coeffs = lagrange_at_zero(ids, group.q)
    return sum(material[j].share * coeffs[j] for j in ids) % group.q


def test_threshold_config_validation():
    with pytest.raises(InvalidConfig):
        ThresholdConfig(n=3, k=4)
    with pytest.raises(InvalidConfig):
        ThresholdConfig(n=3, k=0)


def test_k1_degenerate_all_shares_equal_secret(group):
    cfg, rounds, received, material = run_dkg(group, n=3, k=1)
    for r in rounds:
        assert len(r.coefficient_commitments) == 1
        shares = {received[j][r.participant_id] for j in received}
        assert len(shares) == 1  # constant polynomial
    secret = joint_secret(group, material, 1)
    assert group.pow_g(secret) == material[1].pk_T


def test_n1_k1_reduces_to_plain_keygen(group):
    _, _, _, material = run_dkg(group, n=1, k=1)
    assert group.pow_g(material[1].share) == material[1].pk_T


def test_feldman_share_verification(group):
    cfg, rounds, received, _ = run_dkg(group, n=3, k=3)
    for r in rounds:
        assert len(r.coefficient_commitments) == 3
        assert len(r.encrypted_shares) == 3
        for j in received:
            share = received[j][r.participant_id]
            assert dkg_verify_share(group, r, j, share)
            assert not dkg_verify_share(group, r, j, (share + 1) % group.q)
    # commitments from a different dealer reject the share
    assert not dkg_verify_share(group, rounds[1], 1, received[1][rounds[0].participant_id])


def test_shares_match_polynomial_evaluation_oracle(group):
    """Dealer shares are evaluations of the committed polynomial."""
    cfg, rounds, received, _ = run_dkg(group, n=4, k=2)
    for r in rounds:
        for j in range(1, 5):
            share = received[j][r.participant_id]
            # oracle: evaluate the committed polynomial in the exponent
            expected = 1
            x_pow = 1
            for commitment in r.coefficient_commitments:
                expected = expected * group.power(commitment, x_pow) % group.p
                x_pow = x_pow * j % group.q
            assert group.pow_g(share) == expected


def test_finalize_pk_matches_interpolated_secret(group):
    for n, k in [(2, 2), (3, 2), (5, 3), (5, 5)]:
        _, _, _, material = run_dkg(group, n=n, k=k, seed=f"dkg-{n}-{k}")
        secret = joint_secret(group, material, k)
        assert group.pow_g(secret) == material[1].pk_T, (n, k)


def test_disqualified_dealer_excluded(group):
    cfg = ThresholdConfig(n=3, k=2)
    rng = DetRng("dkg-dq")
    enc_keys = {j: keygen(group, rng.child(f"enc-{j}")) for j in range(1, 4)}
    recipient_pks = {j: kp.pk for j, kp in enc_keys.items()}
    rounds = [dkg_deal(group, cfg, i, recipient_pks, rng.child(f"deal-{i}")) for i in range(1, 4)]
    received = {
        j: {r.participant_id: open_share(group, r, j, enc_keys[j]) for r in rounds}
        for j in range(1, 4)
    }
    full = dkg_finalize(group, cfg, rounds, received)
    dropped = dkg_finalize(group, cfg, rounds, received, disqualified={2})
    expected_pk = full[1].pk_T * group.inv(rounds[1].coefficient_commitments[0]) % group.p
    assert dropped[1].pk_T == expected_pk
    with pytest.raises(NoQualifiedDealers):
        dkg_finalize(group, cfg, rounds, received, disqualified={1, 2, 3})


def test_partial_decryption_proofs(group):
    _, _, _, material = run_dkg(group, n=3, k=2)
    pk_t = material[1].pk_T
    ct = encrypt(group, pk_t, 25, group.random_scalar(DetRng("ct")))
    partial = partial_decrypt(group, 1, material[1].share, material[1].share_commitments[1], ct)
    assert verify_partial(group, ct, partial, material[1].share_commitments[1])
    tampered = dataclasses.replace(partial, d_i=partial.d_i * group.g % group.p)
    assert not verify_partial(group, ct, tampered, material[1].share_commitments[1])
    other_ct = encrypt(group, pk_t, 25, group.random_scalar(DetRng("ct2")))
    assert not verify_partial(group, other_ct, partial, material[1].share_commitments[1])


def test_combination_thresholds_and_subsets(group):
    """Every k-subset decrypts identically; every (k-1)-subset fails; all n <= 5."""
    for n, k in [(n, k) for n in range(1, 6) for k in range(1, n + 1)]:
        cfg, _, _, material = run_dkg(group, n=n, k=k, seed=f"combine-{n}-{k}")
        pk_t = material[1].pk_T
        message = 123
        ct = encrypt(group, pk_t, message, group.random_scalar(DetRng(f"m-{n}-{k}")))
        commitments = material[1].share_commitments
        partials = {
            j: partial_decrypt(group, j, material[j].share, material[j].share_commitments[j], ct)
            for j in range(1, n + 1)
        }
        # oracle: direct decryption under the interpolated joint secret
        secret = joint_secret(group, material, k)
        expected_elem = group.div(ct.c2, group.power(ct.c1, secret))
        assert recover_plaintext(group, expected_elem, 1000) == message
        for subset in itertools.combinations(range(1, n + 1), k):
            elem = combine_partials(group, cfg, ct, [partials[j] for j in subset], commitments)
            assert elem == expected_elem, (n, k, subset)
        for subset in itertools.combinations(range(1, n + 1), k - 1):
            with pytest.raises(InsufficientShares):
                combine_partials(group, cfg, ct, [partials[j] for j in subset], commitments)


@functools.lru_cache(maxsize=None)
def _pool(group, n, k):
    return run_dkg(group, n=n, k=k, seed=f"lagrange-{n}-{k}")


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lagrange_combine_of_any_quorum_matches_combine_partials(group, data):
    """The combination step alone, with a quorum's coefficients, gives what the checked entry point gives."""
    n = data.draw(st.integers(min_value=1, max_value=5), label="n")
    k = data.draw(st.integers(min_value=1, max_value=n), label="k")
    message = data.draw(st.integers(min_value=0, max_value=1000), label="message")
    r = data.draw(st.integers(min_value=1, max_value=group.q - 1), label="r")
    cfg, _, _, material = _pool(group, n, k)
    ct = encrypt(group, material[1].pk_T, message, r)
    commitments = material[1].share_commitments
    ids = range(1, n + 1)
    partials = {j: partial_decrypt(group, j, material[j].share, commitments[j], ct) for j in ids}
    with group.precomputed(ct.c1):
        assert {j: partial_decrypt(group, j, material[j].share, commitments[j], ct) for j in ids} == partials
    for subset in itertools.combinations(range(1, n + 1), k):
        quorum = data.draw(st.permutations(subset), label="quorum order")
        chosen = [partials[j] for j in quorum]
        elem = combine_partials(group, cfg, ct, chosen, commitments)
        assert lagrange_combine(group, ct, chosen, lagrange_at_zero(list(quorum), group.q)) == elem
        assert recover_plaintext(group, elem, 1000) == message


def test_combine_rejects_invalid_partial(group):
    cfg, _, _, material = run_dkg(group, n=3, k=2)
    ct = encrypt(group, material[1].pk_T, 5, group.random_scalar(DetRng("bad")))
    commitments = material[1].share_commitments
    good = [partial_decrypt(group, j, material[j].share, material[j].share_commitments[j], ct) for j in (1, 2)]
    bad = dataclasses.replace(good[0], d_i=good[0].d_i * group.g % group.p)
    with pytest.raises(InvalidPartial):
        combine_partials(group, cfg, ct, [bad, good[1]], commitments)
    with pytest.raises(InvalidPartial):
        combine_partials(group, cfg, ct, [good[0], good[0]], commitments)  # duplicate ids


def test_deal_validates_inputs(group):
    cfg = ThresholdConfig(n=2, k=2)
    pks = {1: group.g, 2: group.g}
    with pytest.raises(InvalidConfig):
        dkg_deal(group, cfg, 3, pks, DetRng("x"))
    with pytest.raises(InvalidConfig):
        dkg_deal(group, cfg, 1, {1: group.g}, DetRng("x"))
