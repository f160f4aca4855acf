"""Command-line scenario runner and benchmark harness.

Exit codes for `run`: 0 when every invariant check passes and no unexpected
flag was raised, 1 on an invariant failure, 2 when the scenario file cannot
be parsed. Set ADREWARD_LOG=debug for verbose progress output.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .bench import bench_client, bench_concurrent, bench_settlement, benchmark_summary, check_budget, write_report
from .errors import ScenarioError
from .scenario import ScenarioConfig, run_scenario

log = logging.getLogger("adreward")


def _setup_logging() -> None:
    level = os.environ.get("ADREWARD_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(message)s")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers: {exc}")


def _budget(text: str) -> float:
    try:
        budget = float(text)
        check_budget(budget)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return budget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adreward", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a campaign scenario file")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--out", default="report.json", help="report output path")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    bench_p = sub.add_parser("bench", help="run a benchmark suite")
    bench_p.add_argument("kind", choices=["client", "settlement", "concurrent", "summary"])
    bench_p.add_argument("--sizes", type=_parse_sizes, default=None,
                         help="comma-separated sizes (catalogs, batches, or user counts)")
    bench_p.add_argument("--chains", type=_parse_sizes, default=None, help="chain counts for concurrent")
    bench_p.add_argument("--budget", type=_budget, default=10.0, help="wall-clock budget per scaling point (s)")
    bench_p.add_argument("--out", default=None, help="report output path")
    return parser


def cmd_run(args) -> int:
    try:
        with open(args.scenario) as fh:
            text = fh.read()
        cfg = ScenarioConfig.from_json(text)
        if args.seed is not None:
            cfg = ScenarioConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    except (OSError, ScenarioError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    log.info("running scenario %s (seed %d)", cfg.name, cfg.seed)
    report = run_scenario(cfg)
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    for chain in report.chains:
        for check in chain.checks:
            status = "ok" if check.passed else "FAIL"
            log.info("%s %s: %s (%s)", chain.chain_id, check.name, status, check.detail)
    if not report.passed:
        failed = [
            f"{chain.chain_id}:{check.name}"
            for chain in report.chains
            for check in chain.checks
            if not check.passed
        ]
        print(f"invariant failures: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"scenario {cfg.name}: all checks passed; report written to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.kind == "client":
        report = bench_client(sizes=args.sizes or (64, 128, 256))
    elif args.kind == "settlement":
        report = bench_settlement(batches=args.sizes or (80, 200, 400, 800))
    elif args.kind == "summary":
        report = benchmark_summary(budget_s=args.budget)
    else:
        report = bench_concurrent(
            user_counts=args.sizes or (10, 30, 60, 100),
            chain_counts=args.chains or (1, 2, 3),
            budget_s=args.budget,
        )
    out = args.out or f"bench_{args.kind}.json"
    write_report(report, out)
    print(json.dumps(report, sort_keys=True, indent=2))
    print(f"benchmark report written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
