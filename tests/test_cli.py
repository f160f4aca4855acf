import json
import pathlib

import pytest

from adreward.cli import main
from adreward.errors import ScenarioError
from adreward.scenario import ScenarioConfig

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_bundled_honest_scenario_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(SCENARIOS / "honest_small.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["chains"][0]["cf_flagged"] is False
    assert set(report["scenario"]["catalog"]) == {"num_ads", "advertisers"}


def test_bundled_underpay_scenario_reports_flag(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(SCENARIOS / "cf_underpays.json"), "--out", str(out)])
    assert code == 0  # the flag is expected, so checks pass
    report = json.loads(out.read_text())
    assert report["chains"][0]["cf_flagged"] is True
    assert report["chains"][0]["state_failed"] is True


def test_bundled_overwithdraw_scenario_reports_flag(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", str(SCENARIOS / "cf_overwithdraws.json"), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["chains"][0]["cf_flagged"] is True


def test_malformed_scenario_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    missing_fields = tmp_path / "missing.json"
    missing_fields.write_text(json.dumps({"schema": 1, "name": "x"}))
    assert main(["run", str(missing_fields), "--out", str(tmp_path / "r.json")]) == 2
    assert main(["run", str(tmp_path / "nonexistent.json")]) == 2


def test_seed_override(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", str(SCENARIOS / "honest_small.json"), "--out", str(out_a), "--seed", "123"]) == 0
    assert main(["run", str(SCENARIOS / "honest_small.json"), "--out", str(out_b), "--seed", "123"]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    a.pop("timings"), b.pop("timings")
    assert a == b
    assert a["scenario"]["seed"] == 123


def test_multichain_scenario(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", str(SCENARIOS / "honest_multichain.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["chains"]) == 2
    # independent chains, same scenario: different seeds per chain
    assert report["chains"][0]["state_hash"] != report["chains"][1]["state_hash"]


def test_scenario_validation_errors():
    base = json.loads((SCENARIOS / "honest_small.json").read_text())
    for mutation in (
        {"users": 0},
        {"catalog": {"num_ads": 2, "advertisers": 5}},
        {"pool": {"registered": 2, "expected": 5}},
        {"misbehavior": {"kind": "bribe"}},
        {"schema": 99},
        {"policy": 5}, {"policy": None}, {"pool": None}, {"catalog": [2, 1]}, {"misbehavior": "none"},
        {"pool": {"threshold": "3"}}, {"pool": {"threshold": 0}}, {"pool": {"threshold": -2}},
        {"pool": {"threshold": True}}, {"pool": {"threshold": 2.0}},
    ):
        broken = {**base, **mutation}
        with pytest.raises(ScenarioError):
            ScenarioConfig.from_dict(broken)


def test_scenario_numbers_must_be_json_integers():
    base = json.loads((SCENARIOS / "honest_small.json").read_text())
    for mutation, name in (
        ({"users": 6.9}, "users"),
        ({"fee": "25"}, "fee"),
        ({"catalog": {**base["catalog"], "advertisers": True}}, "catalog.advertisers"),
    ):
        with pytest.raises(ScenarioError, match=f"'{name}' must be an integer"):
            ScenarioConfig.from_dict({**base, **mutation})


def test_bundled_scenarios_load_unchanged():
    for path in sorted(SCENARIOS.glob("*.json")):
        raw = json.loads(path.read_text())
        assert ScenarioConfig.from_dict(raw).to_dict() == raw, path.name


def test_null_misbehavior_and_large_threshold_are_accepted():
    base = json.loads((SCENARIOS / "honest_small.json").read_text())
    assert ScenarioConfig.from_dict({**base, "misbehavior": None}).misbehavior_kind == "none"
    assert ScenarioConfig.from_dict({**base, "pool": {**base["pool"], "threshold": 99}}).pool_threshold == 99


def test_null_section_exits_two(tmp_path):
    base = json.loads((SCENARIOS / "honest_small.json").read_text())
    bad = tmp_path / "null_policy.json"
    bad.write_text(json.dumps({**base, "policy": None}))
    assert main(["run", str(bad), "--out", str(tmp_path / "r.json")]) == 2


def test_bench_client_cli_smoke(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "client", "--sizes", "16,32", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "client"
    assert set(report["per_size"]) == {"16", "32"}


def test_nonpositive_budget_is_rejected_before_any_work(monkeypatch, capsys):
    import adreward.bench as bench

    def no_work(*args, **kwargs):
        raise AssertionError("a benchmark ran despite an invalid budget")

    monkeypatch.setattr(bench, "run_cohort", no_work)
    monkeypatch.setattr(bench, "bench_client", no_work)
    for budget in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="budget must be positive"):
            bench.bench_concurrent(user_counts=(10,), budget_s=budget)
        with pytest.raises(ValueError, match="budget must be positive"):
            bench.benchmark_summary(budget_s=budget)
    for kind in ("concurrent", "summary"):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", kind, "--budget", "0"])
        assert exit_info.value.code == 2
        assert "budget must be positive" in capsys.readouterr().err
