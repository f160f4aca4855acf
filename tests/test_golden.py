"""Behaviour lock: fixed seeds must keep giving the same chains and reports.

The pinned values are the state hash of every chain and the SHA-256 of
``ScenarioReport.deterministic_fields()``. They cover the four bundled
scenarios and one small campaign of each benchmark workload shape (many users
over a small catalog, a wide catalog, a large pool over a large catalog). A
change that alters any of them changes protocol behaviour and must say why.
"""

import hashlib
from pathlib import Path

import pytest

from adreward.scenario import ScenarioConfig, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

COMMON = {"policy_max": 255, "click_cap": 15, "fee": 100}
SHAPES = {
    "many_users": ScenarioConfig(name="many_users", seed=101, users=24, num_ads=4, num_advertisers=2,
                                 pool_registered=8, pool_expected=4, **COMMON),
    "wide_catalog": ScenarioConfig(name="wide_catalog", seed=102, users=4, num_ads=64, num_advertisers=4,
                                   pool_registered=8, pool_expected=4, **COMMON),
    "pool_analytics": ScenarioConfig(name="pool_analytics", seed=103, users=2, num_ads=128, num_advertisers=8,
                                     pool_registered=16, pool_expected=9, **COMMON),
}

# name -> (state hash of each chain, sha256 of deterministic_fields())
GOLDEN = {
    "cf_overwithdraws": (
        ["a4f1bdfaa9ccafa95f19020e404745696a353c7b5b445c3f581df47f9aa39a66"],
        "e5b3ef594b3e7fac7db4e7f7fe1eea05a304173716191017ca48ad61e82f39e4",
    ),
    "cf_underpays": (
        ["ae4ae579620bf1237cc605c5a33ff014140bcc3f5371dd362667107ab5e3059e"],
        "a3fc2c99eb9499001682dcf2d598a955f0556ab39ce4c76a72723a65bee041e8",
    ),
    "honest_multichain": (
        ["979c4df56f38081c17551220307314935e19c1ad0e872cdcf1e392737af4b1a4",
         "162ef914dfa729a5087fbe5545c966a22e9a307d9fdb2fd05986c9f8da3d84e9"],
        "96673e5eaeb348ae1a58e1c06363cb9baa0ecf8e039e00336e48570820642400",
    ),
    "honest_small": (
        ["83153654938edd5b978c804623eb6ba18e86e74c9480b95b0468f5fc83358ae1"],
        "4fd80c855ac17d73f5fc5a7ddeda1a675e95946c62c9e05050dcb14f39ccbc0f",
    ),
    "many_users": (
        ["0b33284cb7725b565b6af30867421669f4fcbb5afd1285659fec7bacf6010013"],
        "9bc63080ff6d955b7248568ce88569d778d3495d378d0133e3a424b6fa84e97f",
    ),
    "pool_analytics": (
        ["145cdc430c9746881c31810c2763a60d03851448693237705002e10c25c920b6"],
        "344a3900374aa0c8026edc00229901dfc36787d380fb14444c3a8f545880af72",
    ),
    "wide_catalog": (
        ["4348b47382bf9530c5e7880e22b9963b67df848d90fe696595c74f52fdecb385"],
        "bd3462307eb401cae2a24a243619573b8ad9f9608fc2a1d80b879f4d8a25b7f8",
    ),
}


def _config(name: str) -> ScenarioConfig:
    if name in SHAPES:
        return SHAPES[name]
    return ScenarioConfig.from_json((SCENARIOS / f"{name}.json").read_text())


def observed(name: str) -> tuple[list[str], str]:
    report = run_scenario(_config(name))
    fields = hashlib.sha256(report.deterministic_fields().encode()).hexdigest()
    return [chain.state_hash for chain in report.chains], fields


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_state_hash_and_report(name):
    assert observed(name) == GOLDEN[name]


def test_golden_covers_every_bundled_scenario():
    assert {p.stem for p in SCENARIOS.glob("*.json")} <= set(GOLDEN)
    assert set(SHAPES) <= set(GOLDEN)
