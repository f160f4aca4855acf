#!/usr/bin/env python3
"""Self-test of the campaign benchmark on a tiny config; exits 1 on any failure.

    python3 perfbench/selftest.py

Checks that spans nest, that the layers' self times plus the untraced
remainder account for the traced wall time, that tracing changes no output
and no call count, that every wrapper is removed afterwards, that the printed
metric names match BENCHMARK.json, and that the benchmark refuses to run in a
directory without the program's sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run
from tracer import Tracer, _is_program_module, self_times

TINY = {"users": 4, "num_ads": 8, "num_advertisers": 2, "pool_registered": 4, "pool_expected": 2}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def check_nesting(spans: list[tuple]) -> bool:
    by_id = {span[0]: span for span in spans}
    roots = [span for span in spans if span[1] < 0]
    if len(roots) != 1 or roots[0][2] != "scenario.run_campaign":
        return False
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[1] >= 0:
            parent = by_id.get(span[1])
            if parent is None or not (parent[3] <= span[3] <= span[4] <= parent[4]):
                return False
            children.setdefault(span[1], []).append(span)
        if span[2] == "codec.encode_value" and by_id.get(span[1], (0, 0, ""))[2] == "codec.encode_value":
            return False
    for siblings in children.values():
        siblings.sort(key=lambda s: s[3])
        if any(a[4] > b[3] for a, b in zip(siblings, siblings[1:])):
            return False
    return True


def namespaces() -> dict[tuple, object]:
    """Every attribute of every adreward module and of the classes they define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not _is_program_module(name):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type):
                for key, member in vars(value).items():
                    found[(name, attr, key)] = member
    return found


def main() -> int:
    scenario = run.load_program()
    run.WORKLOADS["selftest"] = TINY
    cfg, _ = run.pick_campaign_seed(scenario, "selftest", 1)
    before = namespaces()

    tracer = Tracer()
    tally = run.Tally()
    campaigns = run.measure(scenario, cfg, 0.0, True, tally, tracer)
    check(tally.failed == 0 and len(campaigns) == run.MIN_CAMPAIGNS, "traced and untraced campaigns ran and passed")
    after = namespaces()
    check(all(after.get(key) is value for key, value in before.items()),
          "every wrapper is removed after a traced campaign")
    check(not tracer.missing, "every traced target exists")

    traced = [c for c in campaigns if c.layers is not None]
    for (campaign_id, spans, _), campaign in zip(tracer.campaigns, traced):
        check(check_nesting(spans), f"{campaign_id}: spans nest, siblings do not overlap")
        root = next(span for span in spans if span[1] < 0)
        root_s = root[4] - root[3]
        covered = sum(self_times(spans))
        check(abs(covered - root_s) <= 1e-6 * max(root_s, 1.0),
              f"{campaign_id}: self times sum to the root span ({covered:.6f} vs {root_s:.6f} s)")
        check(0.0 <= campaign.wall_s - root_s <= 0.005,
              f"{campaign_id}: root span covers the traced wall time ({root_s:.6f} of {campaign.wall_s:.6f} s)")

    counts = [{k: v for k, (v, unit) in c.layers.items() if unit != "s"} for c in traced]
    check(len(counts) == 2 and counts[0] == counts[1], "call counts repeat across traced campaigns")
    check(len({(c.state_hash, c.fields_digest) for c in campaigns}) == 1,
          "traced and untraced campaigns give the same state hash and report fields")

    e2e = run.end_to_end([c for c in campaigns if c.layers is None], TINY["users"])
    check(sorted(e2e) == sorted(run.declared_metric_names(False)), "end-to-end metric names match BENCHMARK.json")
    layers = run.per_layer(campaigns)
    check(sorted(layers) == sorted(run.declared_metric_names(True)), "per-layer metric names match BENCHMARK.json")
    check(layers["ledger.tx"][0] > 0 and layers["proofs.verify_sig.calls"][0] >= layers["ledger.tx"][0],
          "every transaction's signature is verified")

    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_users", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the program's sources the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
