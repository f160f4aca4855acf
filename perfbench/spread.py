#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads many_users pool_analytics --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/out/spread-A.json
    python3 perfbench/spread.py --seeds 1-10 --write-baseline perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the runs and
the distance between their first and third quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json; with ``--compare`` it also prints
how far each median moved from an earlier result file, in the metric's worse
direction. ``--write-baseline`` stores the medians and quartiles, with the
host's metadata, under the "end_to_end" or "per_layer" key of a JSON file.
Runs go one after another, each through ``perfbench/run.py`` with
BENCHMARK.json's ``run_seconds``. Raw results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - started
    for line in lines:
        if line.startswith(("host ", "draw ")):
            key, _, body = line.partition(" ")
            result[key] = json.loads(body)
    return result


def summarize(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def write_baseline(path: Path, results: dict[str, list[dict]], metrics: list[dict], trace: int, seeds, seconds) -> None:
    baseline = json.loads(path.read_text()) if path.is_file() else {}
    section = {}
    for workload, runs in results.items():
        section[workload] = {"draw": runs[0].get("draw"), "metrics": {}}
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            section[workload]["metrics"][metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3, "unit": metric["unit"],
            }
    baseline["host"] = next(iter(results.values()))[0].get("host")
    baseline["per_layer" if trace else "end_to_end"] = {"seeds": seeds, "run_seconds": seconds, "workloads": section}
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, help="earlier output of this script")
    parser.add_argument("--write-baseline", type=Path, help="JSON file to store medians and quartiles in")
    args = parser.parse_args()

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads:
        results[workload] = []
        for seed in args.seeds:
            result = run_once(workload, seed, bench["run_seconds"], args.trace)
            results[workload].append(result)
            print(f"{workload} seed {seed}: {result['elapsed_s']:.1f} s, correct={result['correct']}", flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out_path.write_text(json.dumps(results, indent=1))
    print(f"raw results: {out_path.relative_to(ROOT)}")
    if args.write_baseline:
        write_baseline(args.write_baseline, results, metrics, args.trace, args.seeds, bench["run_seconds"])

    worst = 0.0
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, longest {max(r['elapsed_s'] for r in runs):.1f} s")
        for metric in metrics:
            name = metric["name"]
            median, spread = summarize([r["metrics"][name]["value"] for r in runs])
            bound = metric.get("bound")
            line = f"  {name:<26} median {median:12.6g}  spread {spread:6.3f}"
            if bound is not None:
                line += f"  bound {bound:.2f}  {'ok' if spread <= bound / 3 else 'WIDE' if spread <= bound else 'OVER'}"
                if name != "setup_s":
                    worst = max(worst, spread / bound)
            if workload in earlier:
                before, _ = summarize([r["metrics"][name]["value"] for r in earlier[workload]])
                worse = (median - before) / before * (1 if metric["better"] == "lower" else -1)
                line += f"  worse by {worse:+.3f} vs earlier"
            print(line)
    print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
