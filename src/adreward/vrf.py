"""Verifiable random function and the consensus-pool draw it drives.

Construction: hash the seed into the group, raise it to the secret key, and
prove with a DLEQ that the same exponent links the public key and the output
point. The 64-bit random value is a hash of the output point, so for a fixed
(key, seed) pair exactly one value can ever verify.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encoding import DetRng, dhash, encode_element
from .errors import InvalidConfig
from .group import PrimeOrderGroup
from .proofs import DleqProof, dleq_prove, dleq_verify

VRF_DOMAIN = "adreward/vrf"
OUTPUT_SPACE = 1 << 64


@dataclass(frozen=True)
class VrfKeyPair:
    vrf_sk: int
    vrf_pk: int


@dataclass(frozen=True)
class VrfOutput:
    rand: int
    gamma: int
    proof: DleqProof


@dataclass(frozen=True)
class DrawConfig:
    epsilon: bytes
    expected_participants: int
    pool_size: int
    output_space: int = OUTPUT_SPACE


def vrf_keygen(group: PrimeOrderGroup, rng: DetRng | bytes | int | str) -> VrfKeyPair:
    if not isinstance(rng, DetRng):
        rng = DetRng(rng)
    sk = group.random_scalar(rng)
    return VrfKeyPair(vrf_sk=sk, vrf_pk=group.pow_g(sk))


def _rand_from_gamma(gamma: int) -> int:
    return int.from_bytes(dhash("adreward/vrf-out", encode_element(gamma))[:8], "big")


def vrf_rand_gen(group: PrimeOrderGroup, sk: int, epsilon: bytes) -> VrfOutput:
    base = group.hash_to_element("adreward/vrf-base", epsilon)
    gamma = group.power(base, sk)
    proof = dleq_prove(group, VRF_DOMAIN, group.g, base, sk, context=epsilon, public2=gamma)
    return VrfOutput(rand=_rand_from_gamma(gamma), gamma=gamma, proof=proof)


def vrf_verify(group: PrimeOrderGroup, pk: int, epsilon: bytes, out: VrfOutput) -> bool:
    if not (0 <= out.rand < OUTPUT_SPACE):
        return False
    base = group.hash_to_element("adreward/vrf-base", epsilon)
    if not dleq_verify(group, VRF_DOMAIN, group.g, pk, base, out.gamma, out.proof, context=epsilon):
        return False
    return out.rand == _rand_from_gamma(out.gamma)


def max_draw(cfg: DrawConfig) -> int:
    """Selection threshold: floor(expected * output_space / pool_size).

    Computed with the multiplication first so small expected/pool ratios do
    not truncate to zero.
    """
    if cfg.pool_size < 1:
        raise InvalidConfig("pool size must be at least 1")
    if cfg.expected_participants < 0 or cfg.expected_participants > cfg.pool_size:
        raise InvalidConfig("expected participants must lie in [0, pool size]")
    return cfg.expected_participants * cfg.output_space // cfg.pool_size


def is_selected(out: VrfOutput, cfg: DrawConfig) -> bool:
    return out.rand < max_draw(cfg)
