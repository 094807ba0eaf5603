"""CLI verbs: generate / solve / bench / stats / inspect-degeneracy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphopt
from graphopt.cli import main
from graphopt.suite import generate, solve_oracle

FAST = ["--pop", "8", "--iters", "10"]


def run_module(*args):
    """``python -m graphopt.cli *args`` in a subprocess that imports the
    same ``graphopt`` package as this test run."""
    package_root = str(Path(graphopt.__file__).resolve().parent.parent)
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-m", "graphopt.cli", *args],
                          capture_output=True, text=True, timeout=120, env=env)


def test_generate_writes_contract_json_to_stdout(capsys):
    assert main(["generate", "--problem", "P2"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == generate("P2", "small", 0).spec_bytes()
    assert list(json.loads(out))[:3] == ["facilities", "countries",
                                         "trial_counts"]


def test_generate_into_directory(tmp_path, capsys):
    assert main(["generate", "--problem", "P1", "--seed", "4",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "P1_spec.json"
    assert path.read_bytes() == generate("P1", "small", 4).spec_bytes()
    assert "wrote" in capsys.readouterr().out


def test_generate_explicit_json_path(tmp_path, capsys):
    target = tmp_path / "inst.json"
    assert main(["generate", "--problem", "P4", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["threshold"] == 23


def test_generate_json_path_into_missing_directories(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.json"
    assert main(["generate", "--problem", "P1", "--out", str(target)]) == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    assert json.loads(target.read_text())["k"] == 4


def test_generate_records_dropped_property(capsys):
    assert main(["generate", "--problem", "P2"]) == 0
    healthy = capsys.readouterr().out
    assert main(["generate", "--problem", "P2",
                 "--drop-property", "trial_count"]) == 0
    degraded = capsys.readouterr().out
    assert degraded != healthy
    assert json.loads(degraded)["dropped_properties"] == ["trial_count"]
    assert "dropped_properties" not in json.loads(healthy)


def test_generate_rejects_undroppable_property():
    proc = run_module("generate", "--problem", "P6",
                      "--drop-property", "burden")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "P6 cannot drop node property 'burden'" in proc.stderr


def test_generate_with_disruption(capsys):
    assert main(["generate", "--problem", "P3",
                 "--disrupt", "capacity_halving:0.5:2.0:1"]) == 0
    spec = json.loads(capsys.readouterr().out)
    record = spec["disruption"]
    assert record["mode"] == "capacity_halving"
    assert record["fraction"] == 0.5
    assert record["ports_halved"]


def test_disrupt_without_fraction_exits():
    with pytest.raises(SystemExit, match="MODE:FRACTION"):
        main(["generate", "--problem", "P3", "--disrupt", "capacity_halving"])


@pytest.mark.parametrize("problem, disrupt, cause", [
    ("P1", "capacity_halving:0.5", "capacity_halving applies to P3 only"),
    ("P3", "capacity_halving:abc", "could not convert string to float: 'abc'"),
    ("P3", "capacity_halving:1.5", "fraction must be in [0, 1]"),
    ("P3", "bogus:0.5", "unknown disruption mode 'bogus'"),
    ("P3", "capacity_halving:0.5:2.0:1:9", "needs MODE:FRACTION"),
])
def test_bad_disrupt_exits_with_its_cause(problem, disrupt, cause):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--problem", problem, "--disrupt", disrupt])
    message = str(info.value.code)
    assert message.startswith("graphopt: ") and cause in message


def test_unknown_problem_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--problem", "P9"])
    assert str(info.value.code) == "graphopt: unknown problem id 'P9'"
    assert capsys.readouterr().out == ""


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_solve_payload_deterministic(capsys):
    argv = ["solve", "--problem", "P2", "--variant", "rao1",
            "--run-seed", "3"] + FAST
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_seconds")
    second.pop("wall_seconds")
    assert first == second
    assert first["variant"] == "rao1"
    assert first["run_seed"] == 3
    assert len(first["best_x"]) == 5
    assert first["evaluations"] == 8 * (1 + 10)
    assert first["query_executions"] == 0  # Pattern B queries at startup only
    assert main(["solve", "--problem", "P1", "--variant", "rao1"] + FAST) == 0
    p1 = json.loads(capsys.readouterr().out)
    terms = len(generate("P1", "small", 0).binding.term_sources)
    assert p1["query_executions"] == terms * (p1["evaluations"] - p1["memo_hits"]) > 0


def test_solve_with_oracle_field(capsys):
    assert main(["solve", "--problem", "P2", "--variant", "bmwr",
                 "--oracle"] + FAST) == 0
    payload = json.loads(capsys.readouterr().out)
    oracle = solve_oracle(generate("P2", "small", 0))
    assert payload["oracle_kind"] == "brute_force"
    assert payload["oracle_optimum"] == oracle.optimum
    assert payload["best_fitness"] >= oracle.optimum


def test_bench_summary_to_stdout(capsys):
    assert main(["bench", "--problems", "P2", "--variants", "rao1,jaya",
                 "--seeds", "2", "--master-seed", "4",
                 "--pop", "8", "--iters", "10"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Benchmark summary")
    assert "Winner by mean:" in out


def test_bench_reports_then_stats_round_trip(tmp_path, capsys):
    assert main(["bench", "--problems", "P2", "--variants", "rao1,jaya",
                 "--seeds", "3", "--master-seed", "1", "--pop", "8",
                 "--iters", "10", "--out", str(tmp_path)]) == 0
    wrote = capsys.readouterr().out
    for name in ("P2_spec.json", "results.csv", "summary.md",
                 "degeneracy.md"):
        assert name in wrote
        assert (tmp_path / name).is_file()
    assert main(["stats", "--results", str(tmp_path / "results.csv")]) == 0
    out = capsys.readouterr().out
    assert "P2: winner" in out
    assert "holm=" in out


def test_bench_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"problems": ["P2"], "variants": ["rao1"],
                               "n_seeds": 1, "pop_size": 6,
                               "iterations": 5, "master_seed": 0}))
    out_dir = tmp_path / "reports"
    assert main(["bench", "--config", str(cfg), "--iters", "7",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    rows = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header + one cell
    evals = int(rows[1].split(",")[4])
    assert evals == 6 * (1 + 7)  # --iters beat the config file


def test_bench_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"max_iters": 9}))
    with pytest.raises(SystemExit) as info:
        main(["bench", "--config", str(cfg)])
    assert str(info.value.code) == "graphopt: unknown config keys: ['max_iters']"


@pytest.mark.parametrize("argv, cause", [
    (["solve", "--problem", "P2", "--pop", "3"], "population size must be at least 4"),
    (["solve", "--problem", "P2", "--variant", "nope"], "unknown solver variant 'nope'"),
    (["bench", "--pop", "3", "--seeds", "1", "--problems", "P2"],
     "population size must be at least 4"),
    (["bench", "--iters", "0", "--problems", "P2"], "iterations must be at least 1"),
    (["bench", "--seeds", "0"], "need at least one seed"),
    (["bench", "--problems", "P9", "--seeds", "1"], "unknown problem id 'P9'"),
    (["bench", "--config", "{tmp}/scale.json"], "unknown scale 'huge'"),
    (["bench", "--config", "{tmp}/p5_mode.json"], "unknown P5 mode 'cubic'"),
])
def test_bad_config_exits_with_its_cause(argv, cause, tmp_path, capsys):
    (tmp_path / "scale.json").write_text(json.dumps({"scale": "huge"}))
    (tmp_path / "p5_mode.json").write_text(json.dumps({"p5_mode": "cubic"}))
    with pytest.raises(SystemExit) as info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    message = str(info.value.code)
    assert message.startswith("graphopt: ") and cause in message
    assert capsys.readouterr().out == ""  # nothing ran


def test_stats_empty_csv_fails(tmp_path, capsys):
    path = tmp_path / "results.csv"
    path.write_text("problem,solver,seed,fitness,evals,memo_hits,"
                    "wall_ms,error\n")
    assert main(["stats", "--results", str(path)]) == 1
    assert "no usable rows" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cause", [
    (["inspect-degeneracy", "--problem", "P2", "--samples", "1"],
     "need at least 2 samples"),
    (["stats", "--results", "{tmp}/missing.csv"], "No such file or directory"),
    (["stats", "--results", "{tmp}/results.csv"],
     "could not convert string to float: 'oops'"),
])
def test_bad_input_exits_with_its_cause(argv, cause, tmp_path, capsys):
    (tmp_path / "results.csv").write_text(
        "problem,solver,seed,fitness\nP2,jaya,0,oops\n")
    with pytest.raises(SystemExit) as info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    message = str(info.value.code)
    assert message.startswith("graphopt: ") and cause in message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("header, column", [
    ("solver,seed,fitness", "problem"),
    ("problem,seed,fitness", "solver"),
    ("problem,solver,fitness", "seed"),
])
def test_stats_names_a_missing_column(header, column, tmp_path, capsys):
    path = tmp_path / "results.csv"
    row = {"problem": "P2", "solver": "jaya", "seed": "0", "fitness": "1.5"}
    path.write_text(header + "\n" + ",".join(row[c] for c in header.split(",")) + "\n")
    with pytest.raises(SystemExit) as info:
        main(["stats", "--results", str(path)])
    assert str(info.value.code) == f"graphopt: {path} has no {column!r} column"
    assert capsys.readouterr().out == ""


def test_inspect_degeneracy_exit_codes(capsys):
    healthy = main(["inspect-degeneracy", "--problem", "P4",
                    "--samples", "50"])
    flagged = main(["inspect-degeneracy", "--problem", "P4",
                    "--samples", "50", "--drop-property", "who_region"])
    out = capsys.readouterr().out
    assert (healthy, flagged) == (0, 2)
    assert "FLAGGED zero-variance" in out


def test_module_entrypoint_subprocess():
    proc = run_module("generate", "--problem", "P7")
    assert proc.returncode == 0
    spec = json.loads(proc.stdout)
    assert spec["n_centroids"] * spec["n_exits"] == len(spec["travel_time"])
