"""Benchmark matrix: problems x solver variants x seeds, with reports.

A bench run generates each instance once, runs the seeds of every
(problem, variant) cell in lockstep groups (``solvers.run_group``), each
group against a group-private binding, collects oracle optima, builds
the statistical summary, and emits spec.json / results.csv / summary.md
/ degeneracy.md.  Everything except wall-clock timings is a pure
function of the config, at any worker count.
"""

from __future__ import annotations

import csv
import io
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .oracles import OracleTooLarge
from .rng import SeededRng
from .solvers import (DISPLAY_NAMES, VARIANT_LABELS, RunResult, SolverConfig,
                      run_group)
from .stats import SummaryTable, build_summary
from .suite import (PROBLEM_IDS, Instance, check_instance_args,
                    detect_degenerate_terms, fresh_binding, gap_ratio,
                    generate, solve_oracle)

DEFAULT_VARIANTS = ("bmwr", "jaya", "samp_jaya", "ehr_jaya", "rao1")
_SEED_STREAM = 4242

# upper bound on the population doubles (runs x pop x d) of one lockstep
# group; measured in SOLVERS.md, "Lockstep runs"
GROUP_DOUBLES = 1 << 15


@dataclass(frozen=True)
class BenchConfig:
    problems: tuple = PROBLEM_IDS
    variants: tuple = DEFAULT_VARIANTS
    n_seeds: int = 30
    master_seed: int = 0
    scale: str = "small"
    pop_size: int = 30
    iterations: int = 300
    workers: int = 1
    p5_mode: str = "linear"
    degeneracy_samples: int = 200

    def __post_init__(self):
        object.__setattr__(self, "problems",
                           tuple(p.upper() for p in self.problems))
        # checked here, not in generate after the pool has started
        for problem in self.problems:
            check_instance_args(problem, self.scale, self.p5_mode)
        if self.n_seeds < 1:
            raise ValueError("need at least one seed")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        # checked here, not after every cell has run; SolverConfig checks each variant
        object.__setattr__(self, "variants", tuple(
            SolverConfig(v, self.pop_size, self.iterations).variant
            for v in self.variants))
        if self.degeneracy_samples < 2:
            raise ValueError("need at least 2 degeneracy samples")

    def run_seeds(self) -> list[int]:
        rng = SeededRng(self.master_seed, stream=_SEED_STREAM)
        return [rng.integer(0, 2 ** 31) for _ in range(self.n_seeds)]

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(raw)
        for key in ("problems", "variants"):
            if key in coerced:
                coerced[key] = tuple(coerced[key])
        return cls(**coerced)


@dataclass(frozen=True)
class CellResult:
    problem: str
    variant: str          # canonical label, e.g. SAMPJaya
    seed: int
    run: Optional[RunResult]
    error: Optional[str] = None


@dataclass
class BenchReport:
    config: BenchConfig
    instances: dict
    oracles: dict          # problem -> OracleResult | None
    oracle_errors: dict    # problem -> str, for oracles that refused
    cells: list
    summary: SummaryTable
    degeneracy: dict       # problem -> DegeneracyReport
    environment: dict


# worker processes keep generated instances for the life of the pool
_INSTANCE_CACHE: dict = {}


def _cached_instance(problem: str, scale: str, seed: int, p5_mode: str) -> Instance:
    key = (problem, scale, seed, p5_mode)
    inst = _INSTANCE_CACHE.get(key)
    if inst is None:
        inst = generate(problem, scale, seed, p5_mode=p5_mode)
        _INSTANCE_CACHE[key] = inst
    return inst


def seed_groups(seeds: list, rows_per_run: int) -> list[list]:
    """The seeds split into consecutive groups of near-equal size, as few
    as keep each group's ``len(group) * rows_per_run`` within
    ``GROUP_DOUBLES`` (a single seed may exceed it)."""
    per_group = max(1, GROUP_DOUBLES // rows_per_run)
    n_groups = -(-len(seeds) // per_group)
    size, extra = divmod(len(seeds), n_groups)
    groups, start = [], 0
    for g in range(n_groups):
        stop = start + size + (g < extra)
        groups.append(seeds[start:stop])
        start = stop
    return groups


def _run_cells(problem: str, instance_key: tuple, configs: list) -> list:
    """The cells of one seed group; if the group raises, each seed
    reruns alone, so only the failing seeds' cells record the error."""
    label = VARIANT_LABELS[configs[0].variant]
    try:
        inst = _cached_instance(problem, *instance_key)
        results = run_group(fresh_binding(inst), configs)
    except Exception as err:  # recorded per-cell, the matrix keeps going
        if len(configs) > 1:
            return [cell for config in configs
                    for cell in _run_cells(problem, instance_key, [config])]
        return [CellResult(problem, label, configs[0].seed, None,
                           f"{type(err).__name__}: {err}")]
    return [CellResult(problem, label, r.seed, r) for r in results]


def _group_worker(task: tuple) -> tuple[int, list]:
    (index, problem, instance_key, variant, seeds, pop_size,
     iterations) = task
    configs = [SolverConfig(variant=variant, pop_size=pop_size,
                            iterations=iterations, seed=seed)
               for seed in seeds]
    return index, _run_cells(problem, instance_key, configs)


def run_matrix(config: BenchConfig) -> BenchReport:
    """Execute the full matrix; deterministic at any worker count."""
    seeds = config.run_seeds()
    instance_key = (config.scale, config.master_seed, config.p5_mode)
    tasks = []
    index = 0
    for problem in config.problems:
        dim = _cached_instance(problem, *instance_key).space.dim
        groups = seed_groups(seeds, config.pop_size * dim)
        for variant in config.variants:
            for group in groups:
                tasks.append((index, problem, instance_key, variant, group,
                              config.pop_size, config.iterations))
                index += len(group)

    slots: list = [None] * index
    if config.workers == 1:
        for i, cells in map(_group_worker, tasks):
            slots[i:i + len(cells)] = cells
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            # one task per chunk: there are few tasks, of unequal cost
            for i, cells in pool.map(_group_worker, tasks, chunksize=1):
                slots[i:i + len(cells)] = cells

    instances, oracles, oracle_errors, degeneracy = {}, {}, {}, {}
    for problem in config.problems:
        inst = _cached_instance(problem, config.scale, config.master_seed,
                                config.p5_mode)
        instances[problem] = inst
        try:
            oracles[problem] = solve_oracle(inst)
        except OracleTooLarge as err:
            oracles[problem] = None
            oracle_errors[problem] = str(err)
        degeneracy[problem] = detect_degenerate_terms(
            inst, samples=config.degeneracy_samples, seed=config.master_seed)

    fitness: dict = {}
    for cell in slots:
        if cell.run is not None:
            fitness.setdefault(cell.problem, {}).setdefault(
                cell.variant, {})[cell.seed] = cell.run.best_total
    summary = build_summary(fitness)

    environment = {
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "master_seed": config.master_seed,
        "scale": config.scale,
        "pop_size": config.pop_size,
        "iterations": config.iterations,
    }
    return BenchReport(config=config, instances=instances, oracles=oracles,
                       oracle_errors=oracle_errors, cells=slots,
                       summary=summary, degeneracy=degeneracy,
                       environment=environment)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def results_csv_text(report: BenchReport) -> str:
    """CSV body, one row per cell.  wall_ms is informational only; every
    other column is deterministic for a given config."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["problem", "solver", "seed", "fitness", "evals",
                     "memo_hits", "query_executions", "wall_ms", "error"])
    for cell in report.cells:
        if cell.run is None:
            writer.writerow([cell.problem, cell.variant, cell.seed,
                             "", 0, 0, 0, "", cell.error])
        else:
            r = cell.run
            writer.writerow([cell.problem, cell.variant, cell.seed,
                             repr(r.best_total), r.evaluations, r.memo_hits,
                             r.query_executions,
                             round(r.wall_seconds * 1000.0, 3), ""])
    return buf.getvalue()


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}g}"


def _md_table(headers, rows) -> list[str]:
    """The lines of a markdown table: the header, its rule and one line
    per row of cells."""
    def line(cells):
        return f"| {' | '.join(map(str, cells))} |"
    return [line(headers), "|" + "---|" * len(headers), *map(line, rows)]


def summary_md_text(report: BenchReport) -> str:
    lines = ["# Benchmark summary", ""]
    env = report.environment
    lines.append(f"Package {env['package_version']}, python {env['python']}, "
                 f"numpy {env['numpy']}; master seed {env['master_seed']}, "
                 f"scale {env['scale']}, pop {env['pop_size']}, "
                 f"iterations {env['iterations']}.")
    lines.append("")

    lines.append("## Gap to oracle")
    lines.append("")
    lines.append("Gap 1.0 means the best cell matched the oracle optimum; "
                 "ratios are oriented so that worse solutions give larger "
                 "gaps on every problem.")
    lines.append("")
    rows = []
    for problem in report.config.problems:
        cells = [c for c in report.cells
                 if c.problem == problem and c.run is not None]
        best = min((c.run.best_total for c in cells), default=None)
        oracle = report.oracles.get(problem)
        if oracle is None:
            note = report.oracle_errors.get(problem)
            inst = report.instances[problem]
            label = (f"oracle unavailable: {note}" if note
                     else inst.oracle_note)
            rows.append((problem, _fmt(best, 8), "-", "-", label))
            continue
        gap = None if best is None else gap_ratio(best, oracle.optimum)
        note = oracle.note
        if gap is not None and gap < 1.0:
            note = f"gap below 1.0: {note}"
        rows.append((problem, _fmt(best, 8), _fmt(oracle.optimum, 8),
                     _fmt(gap, 5), f"{oracle.kind}: {note}"))
    lines += _md_table(("problem", "best fitness", "oracle optimum", "gap",
                        "oracle"), rows)
    lines.append("")

    lines.append("## Per-problem results")
    for verdict in report.summary.verdicts:
        lines.append("")
        lines.append(f"### {verdict.problem}")
        lines.append("")
        lines += _md_table(
            ("solver", "seeds", "mean", "std", "best", "worst"),
            [(DISPLAY_NAMES.get(cell.solver, cell.solver), cell.n,
              _fmt(cell.mean, 8), _fmt(cell.std, 5), _fmt(cell.best, 8),
              _fmt(cell.worst, 8))
             for cell in report.summary.cells if cell.problem == verdict.problem])
        lines.append("")
        if verdict.winner is None:
            lines.append("No solver had enough seeds for testing.")
            continue
        winner = DISPLAY_NAMES.get(verdict.winner, verdict.winner)
        flag = ("statistically dominant"
                if verdict.dominant else "not statistically dominant")
        lines.append(f"Winner by mean: **{winner}** ({flag} at alpha 0.05, "
                     "Holm-corrected Wilcoxon).")
        if verdict.note:
            lines.append(f"Note: {verdict.note}.")
        lines.append("")
        lines += _md_table(
            ("comparison", "W", "p raw", "p Holm", "method"),
            [(f"{winner} vs {DISPLAY_NAMES.get(comp.other, comp.other)}",
              _fmt(comp.statistic), _fmt(comp.p_raw, 4), _fmt(comp.p_holm, 4),
              comp.method) for comp in verdict.comparisons])
    lines.append("")
    return "\n".join(lines)


def degeneracy_md_text(report: BenchReport) -> str:
    lines = ["# Degenerate-term report", ""]
    lines.append("A term is flagged when it is constant across every "
                 "sampled candidate (max == min): it cannot steer the "
                 "search.")
    for problem in report.config.problems:
        rep = report.degeneracy[problem]
        lines.append("")
        lines.append(f"## {problem} ({rep.samples} samples)")
        lines.append("")
        lines += _md_table(
            ("term", "kind", "min", "max", "variance", "missing properties",
             "flagged"),
            [(t.name, t.kind, _fmt(t.minimum, 6), _fmt(t.maximum, 6),
              _fmt(t.variance, 6), t.missing_property_count,
              "YES" if t.flagged else "no") for t in rep.terms])
    lines.append("")
    return "\n".join(lines)


def emit_report(report: BenchReport, directory) -> list[str]:
    """Write spec.json per instance plus the three report files.

    Returns the written paths; IO failures propagate with path context.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _write(name: str, data) -> None:
        path = out / name
        try:
            if isinstance(data, bytes):
                path.write_bytes(data)
            else:
                path.write_text(data, encoding="utf-8")
        except OSError as err:
            raise OSError(f"writing {path}: {err}") from err
        written.append(str(path))

    for problem, inst in report.instances.items():
        _write(f"{problem}_spec.json", inst.spec_bytes())
    _write("results.csv", results_csv_text(report))
    _write("summary.md", summary_md_text(report))
    _write("degeneracy.md", degeneracy_md_text(report))
    return written
