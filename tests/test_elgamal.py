import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adreward.elgamal import (
    MAX_PLAINTEXT,
    add_ciphertexts,
    decrypt,
    decrypt_to_element,
    encrypt,
    encrypt_vector,
    encrypt_vector_to_self,
    keygen,
    recover_plaintext,
    scalar_mul_ciphertext,
    sum_ciphertexts,
)
from adreward.encoding import DetRng
from adreward.errors import NotInRange, PlaintextTooLarge


@pytest.fixture
def keypair(group):
    return keygen(group, DetRng("elgamal-key"))


def enc(group, pk, m, rng):
    return encrypt(group, pk, m, group.random_scalar(rng))


def test_sk_one_gives_generator(group):
    from adreward.elgamal import KeyPair

    pair = KeyPair(sk=1, pk=group.pow_g(1))
    assert pair.pk == group.g


def test_keygen_excludes_zero_and_is_seeded(group):
    secrets = {keygen(group, DetRng(f"seed-{i}")).sk for i in range(1000)}
    assert 0 not in secrets
    assert len(secrets) == 1000  # distinct seeds give distinct keys
    assert keygen(group, DetRng("seed-1")).sk == keygen(group, DetRng("seed-1")).sk


def test_zero_plaintext_round_trip(group, keypair, rng):
    assert decrypt(group, keypair.sk, enc(group, keypair.pk, 0, rng)) == 0


def test_homomorphic_addition(group, keypair, rng):
    c = add_ciphertexts(group, enc(group, keypair.pk, 5, rng), enc(group, keypair.pk, 7, rng))
    assert decrypt(group, keypair.sk, c) == 12


def test_additive_identity(group, keypair, rng):
    a = enc(group, keypair.pk, 41, rng)
    c = add_ciphertexts(group, a, enc(group, keypair.pk, 0, rng))
    assert decrypt(group, keypair.sk, c) == 41


def test_scalar_multiplication(group, keypair, rng):
    assert decrypt(group, keypair.sk, scalar_mul_ciphertext(group, enc(group, keypair.pk, 3, rng), 4)) == 12
    assert decrypt(group, keypair.sk, scalar_mul_ciphertext(group, enc(group, keypair.pk, 9, rng), 0)) == 0
    assert decrypt(group, keypair.sk, scalar_mul_ciphertext(group, enc(group, keypair.pk, 9, rng), 1)) == 9
    assert decrypt(group, keypair.sk, scalar_mul_ciphertext(group, enc(group, keypair.pk, 0, rng), 20)) == 0


def test_plaintext_bound_enforced(group, keypair, rng):
    with pytest.raises(PlaintextTooLarge):
        encrypt(group, keypair.pk, MAX_PLAINTEXT + 1, group.random_scalar(rng))
    with pytest.raises(PlaintextTooLarge):
        encrypt(group, keypair.pk, -1, group.random_scalar(rng))
    # configurable bound
    encrypt(group, keypair.pk, 2 ** 22, group.random_scalar(rng), max_plaintext=2 ** 24)


def test_decrypt_to_element(group, keypair, rng):
    assert decrypt_to_element(group, keypair.sk, enc(group, keypair.pk, 0, rng)) == group.identity
    c = enc(group, keypair.pk, 42, rng)
    assert decrypt_to_element(group, keypair.sk, c) == group.pow_g(42)
    wrong_sk = (keypair.sk + 1) % group.q
    assert decrypt_to_element(group, wrong_sk, c) != group.pow_g(42)


def test_recover_plaintext_cases(group):
    assert recover_plaintext(group, group.pow_g(0), 10) == 0
    assert recover_plaintext(group, group.pow_g(1_000_000), 1 << 20) == 1_000_000
    with pytest.raises(NotInRange):
        recover_plaintext(group, group.pow_g(101), 100)


def test_homomorphism_bulk_oracle(group, keypair):
    # plaintext integer addition as the oracle, 1000 random cases
    rng = DetRng("bulk-homomorphism")
    half = MAX_PLAINTEXT // 2
    for _ in range(1000):
        m1, m2 = rng.randint(0, half), rng.randint(0, half)
        c = add_ciphertexts(
            group,
            enc(group, keypair.pk, m1, rng),
            enc(group, keypair.pk, m2, rng),
        )
        assert decrypt(group, keypair.sk, c, bound=MAX_PLAINTEXT) == m1 + m2


@settings(max_examples=100, deadline=None)
@given(
    m1=st.integers(min_value=0, max_value=MAX_PLAINTEXT // 2),
    m2=st.integers(min_value=0, max_value=MAX_PLAINTEXT // 2),
)
def test_homomorphism_property(group, m1, m2):
    keypair = keygen(group, DetRng("hyp-key"))
    rng = DetRng(f"hyp-{m1}-{m2}")
    c = add_ciphertexts(group, enc(group, keypair.pk, m1, rng), enc(group, keypair.pk, m2, rng))
    assert decrypt(group, keypair.sk, c) == m1 + m2


def test_linearity_weighted_sum(group, keypair):
    rng = DetRng("linearity")
    values = [rng.randint(0, 255) for _ in range(16)]
    weights = [rng.randint(0, 255) for _ in range(16)]
    cts = encrypt_vector(group, keypair.pk, values, rng)
    combined = sum_ciphertexts(group, [scalar_mul_ciphertext(group, c, w) for c, w in zip(cts, weights)])
    expected = sum(v * w for v, w in zip(values, weights))
    assert decrypt(group, keypair.sk, combined, bound=expected + 1) == expected


def test_encrypt_vector_matches_scalar_encrypt_semantics(group, keypair):
    rng = DetRng("vector")
    values = [rng.randint(0, 100) for _ in range(40)]
    cts = encrypt_vector(group, keypair.pk, values, rng)
    assert [decrypt(group, keypair.sk, c) for c in cts] == values
    with pytest.raises(PlaintextTooLarge):
        encrypt_vector(group, keypair.pk, [0] * 20 + [MAX_PLAINTEXT + 1], rng)


@pytest.mark.parametrize("length", [0, 1, 4, 16, 64])
def test_encrypt_vector_to_self_equals_encrypt_vector(group, keypair, length):
    value_rng = DetRng(f"self-values-{length}")
    values = [value_rng.randint(0, MAX_PLAINTEXT) for _ in range(length)]
    own_rng, rng = DetRng(f"self-{length}"), DetRng(f"self-{length}")
    assert encrypt_vector_to_self(group, keypair, values, own_rng) == encrypt_vector(group, keypair.pk, values, rng)
    assert own_rng.bytes(32) == rng.bytes(32)


@pytest.mark.parametrize("bad", [-1, 1001])
def test_encrypt_vector_to_self_checks_the_range_in_order(group, keypair, bad):
    values = [0, 1000, bad, 7]
    own_rng, rng = DetRng("self-range"), DetRng("self-range")
    with pytest.raises(PlaintextTooLarge):
        encrypt_vector_to_self(group, keypair, values, own_rng, max_plaintext=1000)
    with pytest.raises(PlaintextTooLarge):
        encrypt_vector(group, keypair.pk, values, rng, max_plaintext=1000)
    assert own_rng.bytes(32) == rng.bytes(32)


def test_mixing_keys_yields_garbage(group, rng):
    a = keygen(group, DetRng("key-a"))
    b = keygen(group, DetRng("key-b"))
    c = add_ciphertexts(group, enc(group, a.pk, 1, rng), enc(group, b.pk, 1, rng))
    with pytest.raises(NotInRange):
        decrypt(group, a.sk, c, bound=1 << 12)
