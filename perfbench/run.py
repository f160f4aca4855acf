#!/usr/bin/env python3
"""Campaign benchmark for adreward: whole campaigns, timed end to end and by layer.

    python3 perfbench/run.py --workload many_users --seed 1 --seconds 30 --trace 0

Each run imports the package from ``src/`` of this checkout, generates one
``ScenarioConfig`` from ``--workload`` and ``--seed`` and runs it through the
public ``adreward.scenario.run_campaign`` again and again for ``--seconds``
seconds (at least three campaigns). The program receives only that config.

Load model: one process is one closed-loop client. Each user's transaction
waits for its receipt before the next one is sent; there are no threads and
``sidechains = 1``, so the ledger lock is never contended and there is no
waiting to report. Multi-chain scaling is not measured.

Seeds: the campaign seed is the first of ``seed * 1000 + j`` (j = 0, 1, ...)
whose VRF draw selects exactly the workload's expected pool size, so every
seed measures the same pool and the pool-sized costs (DKG, analytics, audit)
compare across seeds. The drawn pool and ``vrf.draw_rounds`` are printed with
every run. Seed ``HELD_OUT_SEED`` is never used while tuning; it is kept for
confirming a claimed gain.

``--trace 0`` prints the end-to-end metrics, taken with tracing off; per-user
times come from bare timers around ``user_claim`` and ``user_payment_request``.
``--trace 1`` alternates traced and untraced campaigns and prints the
per-layer metrics of ``tracer.py`` plus the tracing overhead. All spans are
written to ``perfbench/out/`` when the run ends.

Correctness gate, in every run: the four bundled ``scenarios/*.json`` run once,
untimed (honest ones pass, ``cf_*`` ones flag the facilitator); every campaign
must pass all report checks; every campaign of a seed must give the same
``state_hash`` and ``deterministic_fields`` as the earlier ones, in this run
and in earlier runs of the same sources (``perfbench/out/record.json``); traced
campaigns must give identical call counts. Any failure counts in
``campaign_fail_ratio`` and makes the command exit 1. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Patches, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

COMMON = {"policy_max": 255, "click_cap": 15, "fee": 100}
WORKLOADS = {
    "many_users": {"users": 500, "num_ads": 4, "num_advertisers": 2, "pool_registered": 8, "pool_expected": 4},
    "wide_catalog": {"users": 100, "num_ads": 64, "num_advertisers": 4, "pool_registered": 8, "pool_expected": 4},
    "pool_analytics": {"users": 40, "num_ads": 128, "num_advertisers": 8, "pool_registered": 16, "pool_expected": 9},
}
HELD_OUT_SEED = 7919
MIN_CAMPAIGNS = 3
MAX_SEED_CANDIDATES = 200
TAIL_BEYOND = 10  # the tail percentile is the highest one with this many samples beyond it

END_TO_END_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "users_per_s": "1/s",
    "user_latency_p50_ms": "ms",
    "user_latency_tail_ms": "ms",
    "analytics_s": "s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
}
PHASES = ("phase1_s", "pool_selection_s", "claims_s", "payment_requests_s", "analytics_s", "settlement_s")


def load_program():
    """Imports adreward from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "adreward" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no adreward package under {src}")
    sys.path.insert(0, str(src))
    import adreward.scenario as scenario

    if not Path(scenario.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: adreward was imported from {scenario.__file__}, not {src}")
    return scenario


def host_metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "adreward"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# -- per-campaign probes ----------------------------------------------------------


class DrawDone(Exception):
    """Raised after the pool draw to cut a seed-selection campaign short."""


class Probe:
    """Bare timers and a draw record bound in adreward.scenario for one campaign."""

    def __init__(self, scenario, stop_after_draw: bool = False):
        self.claim_s: dict[int, float] = {}
        self.payment_s: dict[int, float] = {}
        self.pool_size = 0
        self.draw_rounds = 0
        self._stop = stop_after_draw
        self._patches = Patches()
        self._patches.set(scenario, "user_claim", self._timed(scenario.user_claim, self.claim_s))
        self._patches.set(scenario, "user_payment_request", self._timed(scenario.user_payment_request, self.payment_s))
        self._patches.set(scenario, "pool_selection", self._draw(scenario.pool_selection))

    def _timed(self, fn, store):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            store[args[3].user_id] = clock() - t0  # args[3] is the UserSession
            return out

        return timed

    def _draw(self, fn):
        def draw(*args, **kwargs):
            pool = fn(*args, **kwargs)
            ledger = args[1]
            self.pool_size = len(pool.members)
            self.draw_rounds = sum(tx.call.method == "close_registration" for tx in ledger.tx_log)
            if self._stop:
                raise DrawDone()
            return pool

        return draw

    def latencies_ms(self) -> list[float]:
        return [1000.0 * (self.claim_s[u] + self.payment_s[u]) for u in sorted(self.claim_s)]

    def restore(self) -> None:
        self._patches.restore()


def make_config(scenario, workload: str, campaign_seed: int):
    return scenario.ScenarioConfig(name=workload, seed=campaign_seed, **COMMON, **WORKLOADS[workload])


def pick_campaign_seed(scenario, workload: str, seed: int):
    """First candidate seed whose draw selects exactly the expected pool size."""
    expected = WORKLOADS[workload]["pool_expected"]
    for j in range(MAX_SEED_CANDIDATES):
        cfg = make_config(scenario, workload, seed * 1000 + j)
        probe = Probe(scenario, stop_after_draw=True)
        try:
            scenario.run_campaign(cfg)
            raise RuntimeError("run_campaign finished without a pool draw")
        except DrawDone:
            pass
        finally:
            probe.restore()
        if probe.pool_size == expected:
            return cfg, j + 1
    raise RuntimeError(f"no candidate seed drew a pool of {expected} in {MAX_SEED_CANDIDATES} tries")


# -- running campaigns ------------------------------------------------------------------


@dataclass
class Campaign:
    wall_s: float
    timings: dict
    latencies_ms: list[float]
    pool_size: int
    draw_rounds: int
    state_hash: str
    fields_digest: str
    layers: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def fail(self, note: str) -> None:
        self.failed += 1
        print(f"FAIL: {note}", file=sys.stderr)


def run_one(scenario, cfg, tracer: Tracer | None, campaign_id: str) -> Campaign:
    gc.collect()
    if tracer is not None:
        tracer.begin(campaign_id)
    probe = Probe(scenario)
    try:
        t0 = time.perf_counter()
        report = scenario.run_campaign(cfg)
        wall = time.perf_counter() - t0
    finally:
        probe.restore()
        if tracer is not None:
            tracer.end()
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise AssertionError(f"report checks failed: {failed}")
    fields = scenario.ScenarioReport(config=cfg, chains=[report], timings={}).deterministic_fields()
    campaign = Campaign(
        wall_s=wall,
        timings=dict(report.timings),
        latencies_ms=probe.latencies_ms(),
        pool_size=probe.pool_size,
        draw_rounds=probe.draw_rounds,
        state_hash=report.state_hash,
        fields_digest=hashlib.sha256(fields.encode()).hexdigest(),
    )
    if tracer is not None:
        _, spans, counters = tracer.campaigns[-1]
        campaign.layers = layer_metrics(spans, counters, probe.pool_size, probe.draw_rounds)
    return campaign


def run_bundled_scenarios(scenario, tally: Tally) -> None:
    """Untimed: honest scenarios must pass, cf_* ones must flag the facilitator."""
    files = sorted((ROOT / "scenarios").glob("*.json"))
    if len(files) != 4:
        tally.attempted += 1
        tally.fail(f"expected 4 bundled scenarios, found {len(files)}")
        return
    for path in files:
        tally.attempted += 1
        try:
            report = scenario.run_scenario(scenario.ScenarioConfig.from_json(path.read_text()))
        except Exception:
            traceback.print_exc()
            tally.fail(f"bundled scenario {path.name} raised")
            continue
        should_flag = path.name.startswith("cf_")
        flags = [chain.cf_flagged for chain in report.chains]
        if not report.passed or any(flag != should_flag for flag in flags):
            tally.fail(f"bundled scenario {path.name}: passed={report.passed} flagged={flags}")


def measure(scenario, cfg, seconds: float, trace: bool, tally: Tally, tracer: Tracer | None) -> list[Campaign]:
    """Runs campaigns of one config until the time is up; traced runs alternate."""
    campaigns: list[Campaign] = []
    deadline = time.perf_counter() + seconds
    index = 0
    last_s = 0.0
    # the next campaign starts when at least half of it fits before the deadline
    while index < MIN_CAMPAIGNS or time.perf_counter() + last_s / 2 < deadline:
        traced = trace and index % 2 == 0
        tally.attempted += 1
        started = time.perf_counter()
        try:
            campaigns.append(run_one(scenario, cfg, tracer if traced else None, f"{cfg.name}/{cfg.seed}/{index}"))
        except Exception:
            traceback.print_exc()
            tally.fail(f"campaign {index} raised")
        last_s = time.perf_counter() - started
        index += 1
    return campaigns


def check_consistency(campaigns: list[Campaign], tally: Tally, record: dict, key: str) -> None:
    """Same seed, same outputs: across this run's campaigns and earlier runs' records."""
    earlier = record.get(key)
    reference = earlier or {"state_hash": campaigns[0].state_hash, "fields": campaigns[0].fields_digest}
    for i, c in enumerate(campaigns):
        if c.state_hash != reference["state_hash"] or c.fields_digest != reference["fields"]:
            tally.fail(f"campaign {i}: state hash or deterministic fields differ from an earlier run of {key}")
    traced = [c.layers for c in campaigns if c.layers is not None]
    counts = [{k: v for k, (v, unit) in layers.items() if unit != "s"} for layers in traced]
    if earlier and counts and "counts" in earlier:
        counts.insert(0, earlier["counts"])
    if any(other != counts[0] for other in counts[1:]):
        tally.fail(f"per-layer call counts differ between traced runs of {key}")
    if not earlier:
        record[key] = dict(reference)
    if counts and "counts" not in record[key]:
        record[key]["counts"] = counts[-1]


def load_record(path: Path, digest: str) -> dict:
    if path.is_file():
        return json.loads(path.read_text()).get(digest, {})
    return {}


def save_record(path: Path, digest: str, entries: dict) -> None:
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[digest] = entries
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


# -- metrics ----------------------------------------------------------------------------------


def tail_rank(n: int) -> int:
    """Index of the highest order statistic with TAIL_BEYOND samples beyond it."""
    return max(n - TAIL_BEYOND - 1, (n - 1) // 2)


def end_to_end(campaigns: list[Campaign], users: int) -> dict[str, float]:
    med = statistics.median
    rank = tail_rank(users)
    return {
        "campaign_s": med(c.wall_s for c in campaigns),
        "setup_s": med(c.timings["phase1_s"] + c.timings["pool_selection_s"] for c in campaigns),
        "users_per_s": med(users / (c.timings["claims_s"] + c.timings["payment_requests_s"]) for c in campaigns),
        "user_latency_p50_ms": med(med(c.latencies_ms) for c in campaigns),
        "user_latency_tail_ms": med(sorted(c.latencies_ms)[rank] for c in campaigns),
        "analytics_s": med(c.timings["analytics_s"] for c in campaigns),
        "audit_s": med(c.wall_s - sum(c.timings[p] for p in PHASES) for c in campaigns),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(campaigns: list[Campaign]) -> dict[str, tuple]:
    """Counts of the first traced campaign, medians of the times, and the tracing overhead."""
    traced = [c for c in campaigns if c.layers is not None]
    untraced = [c for c in campaigns if c.layers is None]
    metrics = {}
    for name, (value, unit) in traced[0].layers.items():
        if unit == "s":
            value = statistics.median(c.layers[name][0] for c in traced)
        metrics[name] = (value, unit)
    overhead = statistics.median(c.wall_s for c in traced) - statistics.median(c.wall_s for c in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def declared_metric_names(trace: bool) -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


# -- main ----------------------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    scenario = load_program()
    declared = declared_metric_names(trace)
    OUT_DIR.mkdir(exist_ok=True)
    print("host " + json.dumps(host_metadata(), sort_keys=True))

    tally = Tally()
    run_bundled_scenarios(scenario, tally)
    try:
        cfg, candidates = pick_campaign_seed(scenario, args.workload, args.seed)
    except Exception:
        traceback.print_exc()
        tally.attempted += 1
        tally.fail("no campaign seed could be drawn")
        print(json.dumps({"correct": False, "attempted": tally.attempted, "failed": tally.failed, "metrics": {}}))
        return 1
    print("run " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "campaign_seed": cfg.seed,
        "seed_candidates": candidates,
        "trace": args.trace,
        "config": cfg.to_dict(),
    }, sort_keys=True))
    print("load: 1 closed-loop client, sidechains=1, no threads; "
          "the ledger lock is never contended, so no waiting is reported")

    tracer = Tracer() if trace else None
    campaigns = measure(scenario, cfg, args.seconds, trace, tally, tracer)
    digest = source_digest()
    record_path = OUT_DIR / "record.json"
    record = load_record(record_path, digest)
    if campaigns:
        config_digest = hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()[:16]
        check_consistency(campaigns, tally, record, f"{args.workload}/{cfg.seed}/{config_digest}")
        save_record(record_path, digest, record)
        first = campaigns[0]
        print("draw " + json.dumps({"pool_size": first.pool_size, "draw_rounds": first.draw_rounds}))
        if any((c.pool_size, c.draw_rounds) != (first.pool_size, first.draw_rounds) for c in campaigns):
            tally.fail("pool size or draw rounds differ between campaigns of one seed")
    if tracer is not None:
        if tracer.missing:
            print("not traced (absent in this version): " + ", ".join(sorted(tracer.missing)))
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        print(f"spans: {tracer.write(spans_path)} written to {spans_path.relative_to(ROOT)}")

    metrics: dict[str, tuple] = {}
    traced_ok = trace and any(c.layers for c in campaigns) and any(c.layers is None for c in campaigns)
    if campaigns and (traced_ok or not trace):
        if trace:
            metrics = per_layer(campaigns)
            for suffix in (".self_s", ".total_s"):
                ranked = sorted((k for k in metrics if k.endswith(suffix)), key=lambda k: -metrics[k][0])
                print(f"top {suffix[1:]}: " + ", ".join(f"{k}={metrics[k][0]:.3f}" for k in ranked[:8]))
        else:
            users = WORKLOADS[args.workload]["users"]
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(campaigns, users).items()}
            percentile = 100.0 * (tail_rank(users) + 1) / users
            print(f"user_latency_tail_ms is p{percentile:g} of {users} users per campaign, "
                  f"median over {len(campaigns)} campaigns")
        print(f"measured {len(campaigns)} campaigns")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
        if sorted(metrics) != sorted(declared):
            tally.fail(f"printed metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    elif tally.failed == 0:
        tally.fail("no campaign was measured")

    print(f"campaign_fail_ratio {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
