"""Bench matrix wiring: grid layout, csv/report emission, determinism."""

import csv
import io
import json
from pathlib import Path

import pytest

from graphopt.bench import (BenchConfig, degeneracy_md_text, emit_report,
                            results_csv_text, run_matrix, seed_groups,
                            summary_md_text)
from graphopt.solvers import SolverConfig, normalize_variant, run
from graphopt.solvers import run_group as real_run_group
from graphopt.suite import fresh_binding

_REPORTS = {}


def small_config(**overrides):
    base = dict(problems=("P2",), variants=("rao1", "jaya"), n_seeds=2,
                master_seed=11, pop_size=10, iterations=20)
    base.update(overrides)
    return BenchConfig(**base)


def small_report():
    # one shared run; tests below only read from it
    if "small" not in _REPORTS:
        _REPORTS["small"] = run_matrix(small_config())
    return _REPORTS["small"]


def csv_rows_without_wall(text):
    rows = list(csv.reader(io.StringIO(text)))
    wall = rows[0].index("wall_ms")
    return [r[:wall] + r[wall + 1:] for r in rows]


# --------------------------------------------------------------------------
# config
# --------------------------------------------------------------------------

def test_config_normalizes_names():
    cfg = BenchConfig(problems=("p2", "p3"), variants=("SAMP-Jaya", "Rao1"))
    assert cfg.problems == ("P2", "P3")
    assert cfg.variants == ("samp_jaya", "rao1")


def test_config_rejects_bad_counts():
    with pytest.raises(ValueError):
        BenchConfig(n_seeds=0)
    with pytest.raises(ValueError):
        BenchConfig(workers=0)
    with pytest.raises(ValueError, match="at least 2 degeneracy samples"):
        BenchConfig(degeneracy_samples=1)
    with pytest.raises(ValueError, match="at least 2 degeneracy samples"):
        BenchConfig.from_dict({"degeneracy_samples": 0})


def test_config_checks_the_solver_settings():
    # SolverConfig's rules, checked for each variant before any cell runs
    with pytest.raises(ValueError, match="population size must be at least 4"):
        BenchConfig(pop_size=3)
    with pytest.raises(ValueError, match="iterations must be at least 1"):
        BenchConfig.from_dict({"iterations": 0, "variants": ["rao1"]})
    with pytest.raises(ValueError, match="unknown solver variant 'nope'"):
        BenchConfig(variants=("jaya", "nope"))


def test_config_checks_the_instance_settings():
    # generate's rules, checked before any instance is built
    with pytest.raises(ValueError, match="unknown problem id 'P9'"):
        BenchConfig(problems=("P2", "p9"))
    with pytest.raises(ValueError, match="unknown scale 'huge'"):
        BenchConfig.from_dict({"scale": "huge"})
    with pytest.raises(ValueError, match="unknown P5 mode 'cubic'"):
        BenchConfig.from_dict({"p5_mode": "cubic"})
    assert BenchConfig(scale="medium", p5_mode="nonlinear").p5_mode == "nonlinear"


def test_run_seeds_deterministic():
    a = BenchConfig(n_seeds=6, master_seed=5).run_seeds()
    b = BenchConfig(n_seeds=6, master_seed=5).run_seeds()
    c = BenchConfig(n_seeds=6, master_seed=6).run_seeds()
    assert a == b
    assert a != c
    assert len(a) == 6
    assert all(0 <= s < 2 ** 31 for s in a)


def test_from_dict_coerces_and_rejects():
    cfg = BenchConfig.from_dict(
        {"problems": ["p2"], "variants": ["rao1"], "n_seeds": 3})
    assert cfg.problems == ("P2",)
    assert cfg.variants == ("rao1",)
    assert cfg.n_seeds == 3
    with pytest.raises(ValueError, match="max_iters"):
        BenchConfig.from_dict({"max_iters": 10})


# --------------------------------------------------------------------------
# matrix execution
# --------------------------------------------------------------------------

def test_grid_is_complete_and_ordered():
    report = small_report()
    cfg = report.config
    seeds = cfg.run_seeds()
    assert len(report.cells) == 1 * 2 * 2
    expected = [("P2", label, seed)
                for label in ("Rao1", "Jaya") for seed in seeds]
    got = [(c.problem, c.variant, c.seed) for c in report.cells]
    assert got == expected
    assert all(c.run is not None and c.error is None for c in report.cells)


def test_oracle_attached_for_p2():
    report = small_report()
    oracle = report.oracles["P2"]
    assert oracle is not None
    assert oracle.kind == "brute_force"
    best = min(c.run.best_total for c in report.cells)
    assert best >= oracle.optimum


def test_environment_block():
    env = small_report().environment
    for key in ("package_version", "python", "numpy", "master_seed"):
        assert key in env
    assert env["master_seed"] == 11


def test_rerun_is_identical_modulo_wall():
    first = results_csv_text(small_report())
    second = results_csv_text(run_matrix(small_config()))
    assert csv_rows_without_wall(first) == csv_rows_without_wall(second)


def test_parallel_matches_serial():
    serial = results_csv_text(small_report())
    parallel = results_csv_text(run_matrix(small_config(workers=2)))
    assert csv_rows_without_wall(serial) == csv_rows_without_wall(parallel)


def test_failed_cell_recorded_not_fatal(monkeypatch):
    def flaky(binding, configs):
        if configs[0].variant == "jaya":
            raise RuntimeError("boom")
        return real_run_group(binding, configs)

    monkeypatch.setattr("graphopt.bench.run_group", flaky)
    report = run_matrix(small_config())
    by_variant = {}
    for cell in report.cells:
        by_variant.setdefault(cell.variant, []).append(cell)
    assert all(c.run is None and c.error == "RuntimeError: boom"
               for c in by_variant["Jaya"])
    assert all(c.run is not None for c in by_variant["Rao1"])
    # summary only sees the surviving solver
    solvers = {c.solver for c in report.summary.cells}
    assert solvers == {"Rao1"}
    rows = list(csv.reader(io.StringIO(results_csv_text(report))))
    error_rows = [r for r in rows[1:] if r[-1]]
    assert len(error_rows) == 2
    assert all(r[3] == "" for r in error_rows)


def test_failed_seed_costs_only_its_cells(monkeypatch):
    """A group that raises reruns seed by seed: the failing seed records
    the error, and every other cell equals its solo run, bit for bit."""
    config = small_config(n_seeds=3)
    bad = config.run_seeds()[1]

    def flaky(binding, configs):
        if any(c.seed == bad for c in configs):
            raise RuntimeError("boom")
        return real_run_group(binding, configs)

    monkeypatch.setattr("graphopt.bench.run_group", flaky)
    report = run_matrix(config)
    assert len(report.cells) == 2 * 3
    for cell in report.cells:
        if cell.seed == bad:
            assert cell.run is None and cell.error == "RuntimeError: boom"
            continue
        solo = run(fresh_binding(report.instances["P2"]),
                   SolverConfig(normalize_variant(cell.variant),
                                pop_size=config.pop_size,
                                iterations=config.iterations, seed=cell.seed))
        got = cell.run
        assert (got.best_total, got.best_x.tobytes(), got.curve.tobytes(),
                got.evaluations, got.memo_hits, got.query_executions) == (
            solo.best_total, solo.best_x.tobytes(), solo.curve.tobytes(),
            solo.evaluations, solo.memo_hits, solo.query_executions)


def test_seed_groups_split_by_row_budget(monkeypatch):
    seeds = list(range(30))
    assert seed_groups(seeds, 30 * 4) == [seeds]
    monkeypatch.setattr("graphopt.bench.GROUP_DOUBLES", 30 * 96 * 11)
    groups = seed_groups(seeds, 30 * 96)
    assert [len(g) for g in groups] == [10, 10, 10]
    assert sum(groups, []) == seeds
    assert seed_groups(seeds, 10 ** 9) == [[s] for s in seeds]


@pytest.mark.parametrize("workers", [1, 2])
def test_grouped_matrix_equals_groups_of_one(monkeypatch, workers):
    """results.csv apart from wall_ms is the same whether each cell's
    seeds run in one lockstep group or one by one."""
    config = small_config(problems=("P1", "P2", "P3", "P5"),
                          variants=("bmwr", "samp_jaya", "ehr_jaya", "qo_rao"),
                          n_seeds=3, pop_size=6, iterations=8, workers=workers)
    grouped = run_matrix(config)
    assert all(c.run is not None for c in grouped.cells)
    monkeypatch.setattr("graphopt.bench.GROUP_DOUBLES", 1)
    alone = run_matrix(config)
    assert (csv_rows_without_wall(results_csv_text(grouped))
            == csv_rows_without_wall(results_csv_text(alone)))


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def test_results_csv_shape():
    report = small_report()
    rows = list(csv.reader(io.StringIO(results_csv_text(report))))
    assert rows[0] == ["problem", "solver", "seed", "fitness", "evals",
                       "memo_hits", "query_executions", "wall_ms", "error"]
    assert len(rows) == 1 + len(report.cells)
    for row, cell in zip(rows[1:], report.cells):
        # repr round-trip keeps fitness bit-exact through the csv
        assert float(row[3]) == cell.run.best_total
        assert int(row[4]) == cell.run.evaluations
        assert int(row[6]) == cell.run.query_executions


def test_summary_md_content():
    text = summary_md_text(small_report())
    assert text.startswith("# Benchmark summary")
    assert "## Gap to oracle" in text
    assert "### P2" in text
    assert "Winner by mean:" in text
    assert "brute_force" in text
    assert "Rao1" in text
    for header in ("| problem | best fitness | oracle optimum | gap | oracle |",
                   "| solver | seeds | mean | std | best | worst |",
                   "| comparison | W | p raw | p Holm | method |"):
        rule = "|" + "---|" * header.count(" | ") + "---|"
        assert f"{header}\n{rule}\n| " in text


def test_degeneracy_md_content():
    text = degeneracy_md_text(small_report())
    assert text.startswith("# Degenerate-term report")
    assert "## P2 (200 samples)" in text
    assert ("| term | kind | min | max | variance | missing properties | "
            "flagged |\n|---|---|---|---|---|---|---|\n| ") in text
    assert "YES" not in text  # healthy instance, nothing flagged


def test_oracle_less_problem_renders_dash():
    cfg = BenchConfig(problems=("P5",), variants=("rao1",), n_seeds=1,
                      master_seed=3, pop_size=8, iterations=10,
                      p5_mode="nonlinear")
    report = run_matrix(cfg)
    assert report.oracles["P5"] is None
    assert "P5" not in report.oracle_errors  # no oracle by design, not an error
    line = next(l for l in summary_md_text(report).splitlines()
                if l.startswith("| P5 |"))
    assert "| - |" in line
    assert "no oracle (non-linear emission mode)" in line


def test_emit_report_writes_expected_files(tmp_path):
    report = small_report()
    written = emit_report(report, tmp_path / "out")
    names = {Path(p).name for p in written}
    assert names == {"P2_spec.json", "results.csv", "summary.md",
                     "degeneracy.md"}
    assert all(Path(p).is_file() for p in written)
    spec_path = tmp_path / "out" / "P2_spec.json"
    assert spec_path.read_bytes() == report.instances["P2"].spec_bytes()
    json.loads(spec_path.read_text())  # stays valid json on disk
    csv_path = tmp_path / "out" / "results.csv"
    assert csv_path.read_text() == results_csv_text(report)
