"""Centralized baseline fixture: a single trusted manager computes, signs, and
pays rewards directly. Used only to cross-check that the decentralized path
pays exactly what the simple flow would."""

from adreward.elgamal import Ciphertext, add_ciphertexts, keygen, scalar_mul_ciphertext
from adreward.encoding import DetRng
from adreward.errors import BadSignature, ProofRejected
from adreward.group import PrimeOrderGroup
from adreward.proofs import aggregate_message, sign, verify_decryption, verify_sig


class CampaignManager:
    def __init__(self, group: PrimeOrderGroup, policies: tuple[int, ...], seed: str = "manager"):
        self.group = group
        self.policies = policies
        self.key = keygen(group, DetRng(seed))
        self.paid: dict[int, int] = {}

    def compute_reward(self, user_pk: int, enc_vec) -> tuple[Ciphertext, object]:
        aggregate = Ciphertext(c1=1, c2=1)
        for policy, ct in zip(self.policies, enc_vec):
            aggregate = add_ciphertexts(self.group, aggregate, scalar_mul_ciphertext(self.group, ct, policy))
        return aggregate, sign(self.group, self.key, aggregate_message(user_pk, aggregate))

    def pay(self, user_pk: int, dec_result: int, aggregate: Ciphertext, reward_sig, proof) -> int:
        if not verify_sig(self.group, self.key.pk, aggregate_message(user_pk, aggregate), reward_sig):
            raise BadSignature("reward signature rejected")
        if not verify_decryption(self.group, user_pk, aggregate, dec_result, proof):
            raise ProofRejected("decryption proof rejected")
        self.paid[user_pk] = dec_result
        return dec_result
