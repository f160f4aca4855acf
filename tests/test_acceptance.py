"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints exactly one `ACCEPTANCE <n> ...: PASS|FAIL` line. Timing
criteria use shape checks (monotonicity, linearity, growth ratios) plus
generous absolute ceilings; absolute throughput figures are hardware-bound
and reported, not asserted.
"""

import dataclasses
import itertools
import os
import time

import pytest

from adreward.dkg import ThresholdConfig, combine_partials, partial_decrypt
from adreward.elgamal import Ciphertext, add_ciphertexts, encrypt_vector, keygen, recover_plaintext
from adreward.encoding import DetRng
from adreward.errors import InsufficientShares
from adreward.group import default_group
from adreward.scenario import ScenarioConfig, run_campaign, run_scenario


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _honest_configs(count: int = 100) -> list[ScenarioConfig]:
    rng = DetRng("acceptance/honest-campaigns")
    catalogs = [8, 8, 8, 16, 16, 16, 32, 32, 64, 64, 128, 256]
    configs = []
    for i in range(count):
        if i == 0:
            num_ads, users = 256, 100  # pin the extreme corner
        elif i == 1:
            num_ads, users = 8, 10
        else:
            num_ads = rng.choice(catalogs)
            users = 10 + rng.randint(0, 9) * rng.randint(0, 10)  # skewed toward small cohorts
        configs.append(ScenarioConfig(
            name=f"honest-{i}",
            seed=1000 + i,
            num_ads=num_ads,
            num_advertisers=rng.randint(1, min(4, num_ads)),
            users=min(users, 100),
            policy_min=1,
            policy_max=rng.randint(2, 256),
            click_cap=rng.randint(1, 256),
            pool_registered=5,
            pool_expected=3,
            fee=rng.randint(0, 200),
        ))
    return configs


@pytest.fixture(scope="module")
def honest_runs():
    started = time.perf_counter()
    runs = [run_campaign(cfg) for cfg in _honest_configs()]
    return runs, time.perf_counter() - started


def _check_names(report):
    return {c.name: c for c in report.checks}


def test_criterion_1_payout_oracle_equivalence(honest_runs):
    runs, elapsed = honest_runs
    mismatches = [
        r.chain_id for r in runs
        if r.payouts != r.oracle_payouts or not _check_names(r)["payout-oracle"].passed
    ]
    ok = not mismatches and len(runs) == 100 and elapsed < 600
    _verdict(1, "payout oracle equivalence",
             ok, f"{len(runs)} campaigns, {len(mismatches)} mismatches, {elapsed:.1f}s (< 600s)")


def test_criterion_2_conservation(honest_runs):
    runs, _ = honest_runs
    failures = []
    for r in runs:
        exact = r.deposits == r.payouts_total + r.refunds_total + r.fee_paid
        if not (exact and _check_names(r)["conservation"].passed and _check_names(r)["refund-identity"].passed):
            failures.append(r.chain_id)
    _verdict(2, "fund conservation", not failures,
             f"deposits = payouts + refunds + fee exactly in {len(runs)}/{len(runs)} campaigns"
             if not failures else f"violations in {failures}")


def test_criterion_3_analytics_threshold_subsets(honest_runs):
    runs, _ = honest_runs
    analytics_ok = all(
        r.click_totals == r.oracle_click_totals and _check_names(r)["analytics-oracle"].passed
        for r in runs
    )

    # threshold reproducibility: every k-subset of n <= 7 recovers the same
    # totals; every (k-1)-subset fails
    group = default_group()
    rng = DetRng("acceptance/subsets")
    subset_ok = True
    insufficient_ok = True
    for n, k in [(5, 3), (7, 4)]:
        from test_dkg import run_dkg

        cfg, _, _, material = run_dkg(group, n=n, k=k, seed=f"acc-{n}-{k}")
        pk_t = material[1].pk_T
        commitments = material[1].share_commitments
        vectors = [[rng.randint(0, 20) for _ in range(6)] for _ in range(4)]
        sums = [Ciphertext(1, 1)] * 6
        for vec in vectors:
            cts = encrypt_vector(group, pk_t, vec, rng)
            sums = [add_ciphertexts(group, a, b) for a, b in zip(sums, cts)]
        brute = [sum(vec[i] for vec in vectors) for i in range(6)]
        partials = {
            j: [partial_decrypt(group, j, material[j].share, commitments[j], ct) for ct in sums]
            for j in range(1, n + 1)
        }
        for subset in itertools.combinations(range(1, n + 1), k):
            recovered = [
                recover_plaintext(group, combine_partials(group, cfg, ct, [partials[j][i] for j in subset], commitments), 200)
                for i, ct in enumerate(sums)
            ]
            subset_ok = subset_ok and recovered == brute
        for subset in itertools.combinations(range(1, n + 1), k - 1):
            try:
                combine_partials(group, cfg, sums[0], [partials[j][0] for j in subset], commitments)
                insufficient_ok = False
            except InsufficientShares:
                pass
    ok = analytics_ok and subset_ok and insufficient_ok
    _verdict(3, "analytics equality and threshold subsets", ok,
             f"brute-force equality in {len(runs)} campaigns; all k-subsets agree; all (k-1)-subsets rejected")


def test_criterion_4_misbehavior_detection(honest_runs):
    runs, _ = honest_runs
    rng = DetRng("acceptance/misbehavior")

    def injected(kind: str, index: int) -> ScenarioConfig:
        users = rng.randint(10, 20)
        return ScenarioConfig(
            name=f"{kind}-{index}",
            seed=20_000 + index,
            num_ads=rng.choice([8, 12, 16, 24, 32]),
            num_advertisers=rng.randint(1, 3),
            users=users,
            policy_max=rng.randint(2, 64),
            click_cap=rng.randint(1, 16),
            pool_registered=5,
            pool_expected=3,
            fee=rng.randint(1, 50),
            misbehavior_kind=kind,
            misbehavior_delta=rng.randint(1, 10),
            misbehavior_user=rng.randint(0, users - 1),
        )

    missed = []
    for kind in ("underpay", "overwithdraw"):
        for i in range(100):
            report = run_campaign(injected(kind, i if kind == "underpay" else 100 + i))
            if not (report.cf_flagged and report.passed):
                missed.append(report.chain_id + ":" + kind + str(i))
    false_positives = [r.chain_id for r in runs if r.cf_flagged]
    ok = not missed and not false_positives
    _verdict(4, "misbehavior detection", ok,
             f"200/200 injected campaigns flagged, 0/{len(runs)} honest campaigns flagged"
             if ok else f"missed={missed[:3]} false={false_positives[:3]}")


def test_criterion_5_proof_mutation_suite():
    from adreward.payments import make_note, settle_batch, verify_batch
    from adreward.proofs import prove_decryption, sign, verify_decryption, verify_sig
    from adreward.vrf import vrf_keygen, vrf_rand_gen, vrf_verify
    from adreward.dkg import verify_partial
    from test_dkg import run_dkg

    group = default_group()
    rng = DetRng("acceptance/mutations")
    total = 0
    accepted = 0

    def scalar_variants(v):
        return [(v + 1) % group.q, (v + rng.randint(1, group.q - 1)) % group.q]

    def element_variants(v):
        return [v * group.g % group.p, v * group.h % group.p]

    # decryption proofs
    for i in range(12):
        kp = keygen(group, rng.child(f"dp-{i}"))
        m = rng.randint(0, 1000)
        from adreward.elgamal import encrypt

        ct = encrypt(group, kp.pk, m, group.random_scalar(rng))
        proof = prove_decryption(group, kp, ct, m)
        assert verify_decryption(group, kp.pk, ct, m, proof)
        for field in ("challenge", "response"):
            for v in scalar_variants(getattr(proof, field)):
                total += 1
                accepted += verify_decryption(group, kp.pk, ct, m, dataclasses.replace(proof, **{field: v}))
        for field in ("commitment_a", "commitment_b"):
            for v in element_variants(getattr(proof, field)):
                total += 1
                accepted += verify_decryption(group, kp.pk, ct, m, dataclasses.replace(proof, **{field: v}))
        for claimed in (m + 1, (m + rng.randint(1, 500)), m - 1):
            total += 1
            accepted += verify_decryption(group, kp.pk, ct, claimed, proof)
        for mutated_ct in (Ciphertext(ct.c1 * group.g % group.p, ct.c2), Ciphertext(ct.c1, ct.c2 * group.g % group.p)):
            total += 1
            accepted += verify_decryption(group, kp.pk, mutated_ct, m, proof)

    # signatures
    for i in range(14):
        kp = keygen(group, rng.child(f"sig-{i}"))
        msg = rng.bytes(48)
        sig = sign(group, kp, msg)
        assert verify_sig(group, kp.pk, msg, sig)
        for field in ("challenge", "response"):
            for v in scalar_variants(getattr(sig, field)):
                total += 1
                accepted += verify_sig(group, kp.pk, msg, dataclasses.replace(sig, **{field: v}))
        for v in element_variants(sig.signer_pk):
            total += 1
            accepted += verify_sig(group, kp.pk, msg, dataclasses.replace(sig, signer_pk=v))

    # VRF outputs
    for i in range(10):
        key = vrf_keygen(group, rng.child(f"vrf-{i}"))
        eps = rng.bytes(16)
        out = vrf_rand_gen(group, key.vrf_sk, eps)
        assert vrf_verify(group, key.vrf_pk, eps, out)
        for v in ((out.rand + 1) % (1 << 64), (out.rand ^ 0xFFFF)):
            total += 1
            accepted += vrf_verify(group, key.vrf_pk, eps, dataclasses.replace(out, rand=v))
        for v in element_variants(out.gamma):
            total += 1
            accepted += vrf_verify(group, key.vrf_pk, eps, dataclasses.replace(out, gamma=v))
        for field in ("challenge", "response"):
            for v in scalar_variants(getattr(out.proof, field)):
                total += 1
                accepted += vrf_verify(group, key.vrf_pk, eps,
                                       dataclasses.replace(out, proof=dataclasses.replace(out.proof, **{field: v})))
        for field in ("commitment_a", "commitment_b"):
            for v in element_variants(getattr(out.proof, field)):
                total += 1
                accepted += vrf_verify(group, key.vrf_pk, eps,
                                       dataclasses.replace(out, proof=dataclasses.replace(out.proof, **{field: v})))

    # partial decryptions
    for i in range(8):
        cfg, _, _, material = run_dkg(group, n=3, k=2, seed=f"acc-mut-{i}")
        from adreward.elgamal import encrypt

        ct = encrypt(group, material[1].pk_T, rng.randint(0, 100), group.random_scalar(rng))
        partial = partial_decrypt(group, 1, material[1].share, material[1].share_commitments[1], ct)
        commitment = material[1].share_commitments[1]
        assert verify_partial(group, ct, partial, commitment)
        for v in element_variants(partial.d_i):
            total += 1
            accepted += verify_partial(group, ct, dataclasses.replace(partial, d_i=v), commitment)
        for field in ("challenge", "response"):
            for v in scalar_variants(getattr(partial.proof, field)):
                total += 1
                accepted += verify_partial(group, ct,
                                           dataclasses.replace(partial, proof=dataclasses.replace(partial.proof, **{field: v})),
                                           commitment)
        for field in ("commitment_a", "commitment_b"):
            for v in element_variants(getattr(partial.proof, field)):
                total += 1
                accepted += verify_partial(group, ct,
                                           dataclasses.replace(partial, proof=dataclasses.replace(partial.proof, **{field: v})),
                                           commitment)

    # settlement batches
    for i in range(10):
        entries = []
        for _ in range(12):
            amount = rng.randint(0, 500)
            r = group.random_scalar(rng)
            entries.append((make_note(group, rng.bytes(20), amount, r), amount, r))
        batch = settle_batch(group, entries, sum(a for _, a, _ in entries))
        assert verify_batch(group, batch)
        total += 1
        accepted += verify_batch(group, dataclasses.replace(batch, total=batch.total + 1))
        for field in ("challenge", "response"):
            for v in scalar_variants(getattr(batch, field)):
                total += 1
                accepted += verify_batch(group, dataclasses.replace(batch, **{field: v}))
        for v in element_variants(batch.proof_commitment):
            total += 1
            accepted += verify_batch(group, dataclasses.replace(batch, proof_commitment=v))
        swapped = list(batch.notes)
        swapped[0] = dataclasses.replace(swapped[0], commitment=swapped[1].commitment)
        total += 1
        accepted += verify_batch(group, dataclasses.replace(batch, notes=tuple(swapped)))

    ok = total >= 500 and accepted == 0
    _verdict(5, "proof mutation suite", ok, f"{total} single-field mutations, {accepted} accepted")


def test_criterion_6_client_side_shape():
    from adreward.bench import bench_client

    report = bench_client(sizes=(64, 128, 256), runs=10)
    per = report["per_size"]
    enc_256 = per["256"]["interaction_encryption_s"]
    req_256 = per["256"]["request_generation_s"]
    monotone = (
        per["64"]["interaction_encryption_s"] < per["256"]["interaction_encryption_s"]
        and per["64"]["request_generation_s"] <= per["256"]["request_generation_s"]
    )
    ok = (
        enc_256 < 1.0
        and req_256 < 5.0
        and report["encryption_linear_r2"] >= 0.95
        and report["request_linear_r2"] >= 0.95
        and monotone
    )
    _verdict(6, "client-side shape", ok,
             f"256-ad encryption {enc_256*1000:.1f}ms (<1s), request gen {req_256*1000:.1f}ms (<5s), "
             f"R2 enc {report['encryption_linear_r2']:.3f} req {report['request_linear_r2']:.3f} (>=0.95)")


def test_criterion_7_settlement_shape():
    from adreward.bench import bench_settlement

    report = bench_settlement(batches=(80, 200, 400, 800), runs=5)
    verify_ratio = report["verify_growth_ratio"]
    gen_ratio = report["generation_growth_ratio"]
    ok = verify_ratio <= 3.0 and gen_ratio >= 5.0
    _verdict(7, "batched settlement shape", ok,
             f"verify 800/80 ratio {verify_ratio:.2f} (<=3), generation ratio {gen_ratio:.1f} (>=5)")


def test_criterion_8_concurrency_shape():
    from adreward.bench import run_cohort

    small = run_cohort(10, catalog=256, seed="acceptance-cohort")
    large = run_cohort(100, catalog=256, seed="acceptance-cohort")
    ratio = large["per_user_latency_median_s"] / small["per_user_latency_median_s"]
    ok = ratio <= 2.0 and large["queued"] == 100
    _verdict(8, "concurrent-cohort shape", ok,
             f"median per-user latency: 10 users {small['per_user_latency_median_s']*1000:.1f}ms, "
             f"100 users {large['per_user_latency_median_s']*1000:.1f}ms, ratio {ratio:.2f} (<=2)")


def test_criterion_9_multichain_scaling():
    cores = os.cpu_count() or 1
    if cores < 4:
        print(f"\nACCEPTANCE 9 (multi-sidechain linearity): SKIP - requires >=4 cores, host has {cores}")
        pytest.skip(f"criterion premise unmet: {cores} cores < 4")
    from adreward.bench import bench_concurrent

    report = bench_concurrent(user_counts=(10,), chain_counts=(1, 3), budget_s=8.0)
    ratio = report["scaling_ratio_vs_single"]["3"]
    ok = ratio >= 2.5
    _verdict(9, "multi-sidechain linearity", ok,
             f"3-chain throughput {ratio:.2f}x single chain (>=2.5x) on {cores} cores")


def test_criterion_10_determinism():
    cfg = ScenarioConfig(
        name="determinism", seed=4242, num_ads=16, num_advertisers=3, users=8,
        policy_max=64, click_cap=12, pool_registered=6, pool_expected=3, fee=30,
        sidechains=2,
    )
    first = run_scenario(cfg)
    second = run_scenario(cfg)
    identical = first.deterministic_fields() == second.deterministic_fields()
    hashes = [c.state_hash for c in first.chains] == [c.state_hash for c in second.chains]
    ok = identical and hashes and first.passed
    _verdict(10, "determinism", ok,
             "two runs produced byte-identical non-timing report fields and ledger state hashes")
