"""Every workload runs end to end at a tiny size and passes its checks."""

import json

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS, make_plan


def _result(capsys, *argv):
    code = run.main(["--seed", "3", "--seconds", "1", "--smoke", *argv])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(capsys, workload):
    code, result = _result(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer(capsys):
    code, result = _result(capsys, "--workload", "discrete-portfolio", "--trace", "1")
    assert code == 0 and result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["problems.evaluate_us"] > 0 and metrics["rng.block_ms"] > 0
    assert metrics["oracles.subsets_per_s"] > 0 and metrics["trace.overhead_ratio"] > 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plans_are_seeded_and_case_names_unique(workload):
    plan = make_plan(workload, 7)
    assert plan == make_plan(workload, 7) and plan != make_plan(workload, 8)
    assert len({c.name for c in plan.cases}) == len(plan.cases)
