"""Benchmark harness: client-side timings, batched settlement, and concurrency.

Timing methodology: client-side operations and settlement verification are
timed in isolation, and the sizes being compared are interleaved within each
run so that slow drift of the host's speed affects all of them alike. A
cohort's campaign is opened by ``scenario.open_campaign`` and its users are
served one after another; a user's latency covers the user's crypto, signing, and the ledger's checks and
execution of both of the user's transactions, but not the wait behind other
users (``cohort_wall_s`` covers that). Multi-chain scaling runs one process
per chain, because chains share no state, and at most one per core; each
scaling point reports how many ran at once as ``processes``. The chains of a run
share one wall-clock deadline, so chains queued behind a busy core add nothing
once it has passed.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from contextlib import contextmanager

from .actors import UserSession, user_claim, user_payment_request
from .elgamal import decrypt_to_element, encrypt_vector_to_self, keygen, recover_plaintext
from .encoding import DetRng
from .group import default_group
from .ledger import parallel_processes, run_parallel
from .payments import make_note, settle_batch, verify_batch
from .proofs import prove_decryption
from .scenario import Campaign, ScenarioConfig, open_campaign

SCHEMA_VERSION = 1


def _median_of(fn, runs: int) -> float:
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@contextmanager
def _gc_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def linear_fit_r2(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        return 0.0
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0:
        return 1.0
    return 1.0 - ss_res / ss_tot


# -- client-side operations ----------------------------------------------------


def bench_client(sizes: tuple[int, ...] = (64, 128, 256), runs: int = 10, seed: int = 7) -> dict:
    """Median time to encrypt an interaction vector and to build a payment request.

    Each run uses a fresh interaction vector and aggregate so the medians
    reflect typical plaintext-recovery depth rather than one arbitrary value.
    The aggregates are computed before any timing. Each run then times every
    size in turn, and a request-generation sample is the mean of several
    repetitions, taken one size after another. Interaction encryption is
    ``encrypt_vector_to_self``, as in a claim: the user encrypts under their
    own key.
    """
    from .elgamal import Ciphertext, add_ciphertexts, scalar_mul_ciphertext

    group = default_group()
    rng = DetRng(f"bench-client/{seed}")
    prepared = {}
    for size in sizes:
        user = keygen(group, rng.child(f"user-{size}"))
        policies = [rng.randint(1, 255) for _ in range(size)]
        bound = size * 256 * 256
        group.bsgs_table(math.isqrt(bound) + 1)  # build outside the timed region
        per_run = []
        for run in range(runs):
            counts = [rng.randint(0, 255) for _ in range(size)]
            vector = encrypt_vector_to_self(group, user, counts, rng.child(f"enc-{size}-{run}"))
            aggregate = Ciphertext(c1=1, c2=1)
            for p, ct in zip(policies, vector):
                aggregate = add_ciphertexts(group, aggregate, scalar_mul_ciphertext(group, ct, p))
            per_run.append((counts, aggregate))
        prepared[size] = (user, bound, per_run)

    reps = 5
    enc_samples: dict[int, list[float]] = {size: [] for size in sizes}
    request_samples: dict[int, list[float]] = {size: [] for size in sizes}
    for run in range(runs):
        for size in sizes:
            user, _, per_run = prepared[size]
            counts, _ = per_run[run]
            enc_rng = rng.child(f"enc-{size}-{run}")
            t0 = time.perf_counter()
            encrypt_vector_to_self(group, user, counts, enc_rng)
            enc_samples[size].append(time.perf_counter() - t0)

        # one request per size in turn, so a slow moment of the host hits every size alike
        request_s = dict.fromkeys(sizes, 0.0)
        for _ in range(reps):
            for size in sizes:
                user, bound, per_run = prepared[size]
                _, aggregate = per_run[run]
                t0 = time.perf_counter()
                elem = decrypt_to_element(group, user.sk, aggregate)
                m = recover_plaintext(group, elem, bound)
                prove_decryption(group, user.sk, aggregate, m)
                request_s[size] += time.perf_counter() - t0
        for size in sizes:
            request_samples[size].append(request_s[size] / reps)

    results = {
        size: {
            "interaction_encryption_s": statistics.median(enc_samples[size]),
            "request_generation_s": statistics.median(request_samples[size]),
        }
        for size in sizes
    }
    xs = [float(s) for s in sizes]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "client",
        "sizes": list(sizes),
        "per_size": {str(k): v for k, v in results.items()},
        "encryption_linear_r2": linear_fit_r2(xs, [results[s]["interaction_encryption_s"] for s in sizes]),
        "request_linear_r2": linear_fit_r2(xs, [results[s]["request_generation_s"] for s in sizes]),
    }


# -- batched settlement ----------------------------------------------------------


def bench_settlement(batches: tuple[int, ...] = (80, 200, 400, 800), runs: int = 5, seed: int = 11) -> dict:
    """Median time to generate and to verify a settlement batch of each size.

    Every batch is generated before any verification is timed. Each run then
    verifies the sizes one after another, so a slow moment of the host hits
    every size alike, and the garbage collector is paused inside each timed
    block, as ``timeit`` does.
    """
    group = default_group()
    rng = DetRng(f"bench-settlement/{seed}")
    gen_s = {}
    prepared = {}
    for batch_size in batches:
        recipients = [rng.bytes(20) for _ in range(batch_size)]
        amounts = [rng.randint(0, 1 << 16) for _ in range(batch_size)]
        blinders = [group.random_scalar(rng) for _ in range(batch_size)]
        total = sum(amounts)

        def generate():
            entries = [
                (make_note(group, recipient, amount, r), amount, r)
                for recipient, amount, r in zip(recipients, amounts, blinders)
            ]
            return settle_batch(group, entries, total)

        gen_s[batch_size] = _median_of(generate, runs)
        prepared[batch_size] = generate()
        if not verify_batch(group, prepared[batch_size]):
            raise RuntimeError(f"generated batch of {batch_size} notes fails verification")

    # verification is fast; time a block of repetitions for stable numbers
    reps = 20
    verify_samples: dict[int, list[float]] = {size: [] for size in batches}
    for _ in range(runs):
        for batch_size in batches:
            batch = prepared[batch_size]
            with _gc_paused():
                t0 = time.perf_counter()
                for _ in range(reps):
                    verify_batch(group, batch)
                verify_samples[batch_size].append((time.perf_counter() - t0) / reps)
    results = {
        size: {"proof_generation_s": gen_s[size], "verification_s": statistics.median(verify_samples[size])}
        for size in batches
    }

    first, last = batches[0], batches[-1]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "settlement",
        "batches": list(batches),
        "per_batch": {str(k): v for k, v in results.items()},
        "verify_growth_ratio": results[last]["verification_s"] / results[first]["verification_s"],
        "generation_growth_ratio": results[last]["proof_generation_s"] / results[first]["proof_generation_s"],
    }


# -- concurrent users and multi-chain scaling --------------------------------------


def _bench_config(users: int, catalog: int) -> ScenarioConfig:
    return ScenarioConfig(
        name="bench", seed=0, num_ads=catalog, num_advertisers=min(4, catalog),
        users=users, policy_max=255, click_cap=15,
        pool_registered=6, pool_expected=3, fee=10,
    )


def _serve_user(cfg: ScenarioConfig, campaign: Campaign, session: UserSession) -> None:
    """One user's reward claim and payment request; a rejected receipt raises."""
    group = campaign.ledger.group
    user_claim(group, campaign.ledger, campaign.psc_id, session, campaign.psc.pool_pk)
    user_payment_request(group, campaign.ledger, campaign.psc_id, session, cfg.recovery_bound)


def run_cohort(users: int, catalog: int = 256, seed: str = "bench-cohort") -> dict:
    """One cohort of reward claims served in user order; returns per-user latency stats.

    A user's latency is the wall time of their claim and payment request: the
    user's crypto and signing plus the ledger's checks and execution of both
    transactions. Users are served one after another, so it leaves out the
    wait behind other users, which ``cohort_wall_s`` covers. As in a campaign,
    the users are served with fixed-base tables of the consortium and pool keys;
    building them is part of ``cohort_wall_s`` but of no user's latency.
    """
    cfg = _bench_config(users, catalog)
    campaign = open_campaign(cfg, f"{seed}/{users}/{catalog}")
    latencies = []
    cohort_start = time.perf_counter()
    with campaign.user_keys_precomputed():
        for session in campaign.sessions:
            t0 = time.perf_counter()
            _serve_user(cfg, campaign, session)
            latencies.append(time.perf_counter() - t0)
    cohort_wall_s = time.perf_counter() - cohort_start
    return {
        "users": users,
        "catalog": catalog,
        "per_user_latency_median_s": statistics.median(latencies),
        "per_user_latency_mean_s": statistics.fmean(latencies),
        "cohort_wall_s": cohort_wall_s,
        "queued": len(campaign.fsc.payment_queue),
        "state_hash": campaign.ledger.state_hash(),
    }


def _chain_worker(chain_index: int, catalog: int, deadline: float, seed: str) -> int:
    """Process reward claims on one chain until the shared wall-clock deadline (a ``time.time()`` value).

    All chains of one run share the deadline, so a chain that waits for a free process
    only gets the time that is left and the total stays a throughput over the budget.
    """
    cfg = _bench_config(8, catalog)
    processed = 0
    round_no = 0
    while time.time() < deadline:
        campaign = open_campaign(cfg, f"{seed}/chain{chain_index}/round{round_no}")
        with campaign.user_keys_precomputed():
            for session in campaign.sessions:
                if time.time() >= deadline:
                    break
                _serve_user(cfg, campaign, session)
                processed += 1
        round_no += 1
    return processed


def check_budget(budget_s: float) -> None:
    """Throughput is users processed per budget second, so the budget must be positive."""
    if not budget_s > 0:
        raise ValueError(f"wall-clock budget must be positive, got {budget_s}")


def bench_concurrent(
    user_counts: tuple[int, ...] = (10, 30, 60, 100),
    catalog: int = 256,
    chain_counts: tuple[int, ...] = (1, 2, 3),
    budget_s: float = 10.0,
    seed: str = "bench-concurrent",
) -> dict:
    check_budget(budget_s)
    cohorts = [run_cohort(users, catalog, seed) for users in user_counts]

    scaling = {}
    for chains in chain_counts:
        deadline = time.time() + budget_s
        args = [(i, catalog, deadline, seed) for i in range(chains)]
        counts = run_parallel(_chain_worker, args)
        scaling[chains] = {
            "users_processed": sum(counts),
            "per_chain": list(counts),
            "processes": parallel_processes(chains),
            "budget_s": budget_s,
        }
    base = scaling[chain_counts[0]]["users_processed"] or 1
    per_day = {
        chains: entry["users_processed"] * 86400 / budget_s
        for chains, entry in scaling.items()
    }
    return {
        "schema": SCHEMA_VERSION,
        "kind": "concurrent",
        "catalog": catalog,
        "cohorts": cohorts,
        "scaling": {str(k): v for k, v in scaling.items()},
        "scaling_ratio_vs_single": {str(k): v["users_processed"] / base for k, v in scaling.items()},
        "extrapolated_users_per_day": {str(k): v for k, v in per_day.items()},
        "extrapolation_basis": f"users processed in a {budget_s}s wall-clock budget",
    }


def benchmark_summary(
    catalog: int = 256,
    users: int = 100,
    chains: int = 1,
    batch: int = 800,
    budget_s: float = 8.0,
) -> dict:
    check_budget(budget_s)
    client = bench_client(sizes=(catalog,), runs=5)["per_size"][str(catalog)]
    settlement = bench_settlement(batches=(batch,), runs=3)["per_batch"][str(batch)]
    cohort = run_cohort(users, catalog)
    deadline = time.time() + budget_s
    args = [(i, catalog, deadline, "summary") for i in range(chains)]
    processed = sum(run_parallel(_chain_worker, args))
    per_day = processed * 86400 / budget_s
    return {
        "schema": SCHEMA_VERSION,
        "kind": "summary",
        "catalog_size": catalog,
        "user_count": users,
        "sidechain_count": chains,
        "timings": {
            "interaction_encryption_s": client["interaction_encryption_s"],
            "request_generation_s": client["request_generation_s"],
            "end_to_end_claim_s": cohort["per_user_latency_median_s"],
            "batch_proof_gen_s": settlement["proof_generation_s"],
            "batch_verify_s": settlement["verification_s"],
        },
        "throughput": {
            "users_per_day": per_day,
            "users_per_month": per_day * 30,
            "extrapolation_basis": f"linear from users processed in a {budget_s}s wall-clock budget on {chains} chain(s)",
        },
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
