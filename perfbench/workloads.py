"""The four workloads: what each runs, how its seeds derive, one round.

A round is the workload's whole batch of operations, always the same
for one workload seed.  An operation is one solver run, one oracle call
or, on ``bench-matrix``, one matrix cell.  graphopt is reached through
its public modules only, by attribute lookup at call time, so the layer
tracer sees every call.

This module imports graphopt and numpy but not scipy: the set-up probe
imports it to time what a user's process pays before the first solve.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from graphopt import bench, solvers, suite

WORKLOADS = ("discrete-portfolio", "query-grounded", "continuous-flow",
             "bench-matrix")
PORTFOLIO = ("bmwr", "jaya", "samp_jaya", "ehr_jaya", "rao1")


@dataclass(frozen=True)
class Case:
    """One instance of a workload and how it is run."""

    name: str
    problem: str
    scale: str
    gen_seed: int
    dropped: tuple = ()
    run_seed: int = 0         # of every solver run on it
    pattern_a: bool = False   # solve through pattern_a_binding (P2 only)
    oracle: bool = True       # call solve_oracle on it every round
    variants: tuple = PORTFOLIO


@dataclass(frozen=True)
class Plan:
    workload: str
    cases: tuple
    pop: int
    iterations: int
    oracle_repeats: int = 1   # oracle calls per case per round; median kept
    matrix_seeds: int = 0     # bench-matrix: seeds per (problem, variant)
    workers: int = 1
    degeneracy_samples: int = 200


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    """The workload's batch for a workload seed.

    Generation seeds, then run seeds, are drawn in a fixed order from a
    stdlib ``random.Random`` seeded with the workload name and seed.
    Throughput differs from instance to instance (memo hit ratio, graph
    size), so the workloads hold several instances of each kind.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    draw = random.Random(f"perfbench:{workload}:{seed}").randrange
    pop, iterations = (6, 10) if smoke else (30, 300)

    def gen_seed() -> int:
        return draw(2 ** 31)

    if workload == "bench-matrix":
        # two matrices, each generating its instances from its own master
        # seed: one P1 instance would otherwise set the pace of the pool
        cases = ()
        for copy in "ab":
            master = gen_seed()
            cases += tuple(Case(f"{p}-{copy}", p, "small", master)
                           for p in suite.PROBLEM_IDS)
        return Plan(workload, cases, pop, iterations,
                    matrix_seeds=2, workers=nproc(),
                    degeneracy_samples=20 if smoke else 200)

    cases, oracle_repeats = (), 1
    if workload == "discrete-portfolio":
        for copy in "abc":
            g2, g2m, g4, g4m, g6, g6m = (gen_seed() for _ in range(6))
            cases += (
                Case(f"P2-small-{copy}", "P2", "small", g2),
                Case(f"P2-medium-{copy}", "P2", "medium", g2m),
                Case(f"P4-small-{copy}", "P4", "small", g4),
                Case(f"P4-medium-{copy}", "P4", "medium", g4m),
                Case(f"P6-small-{copy}", "P6", "small", g6),
                Case(f"P6-medium-{copy}", "P6", "medium", g6m),
                Case(f"P2-small-{copy}-no-trial_count", "P2", "small", g2,
                     ("trial_count",)),
                Case(f"P4-small-{copy}-no-who_region", "P4", "small", g4,
                     ("who_region",)),
            )
    elif workload == "query-grounded":
        iterations = min(iterations, 50)
        for copy in "abcdef":
            g1, g1m, g2 = (gen_seed() for _ in range(3))
            cases += (
                Case(f"P1-small-{copy}", "P1", "small", g1),
                # its oracle sweeps C(60,4) subsets through queries (~90 s);
                # runs are checked against the benchmark's own optimum
                Case(f"P1-medium-{copy}", "P1", "medium", g1m, oracle=False),
                Case(f"P2-small-{copy}-pattern-a", "P2", "small", g2,
                     pattern_a=True, oracle=False),
            )
    else:  # continuous-flow
        iterations = min(iterations, 100)
        variants = PORTFOLIO + ("qo_rao",)
        cases = tuple(Case(f"{p}-{scale}-{copy}", p, scale, gen_seed(), variants=variants)
                      for copy in "abcdef"
                      for p, scale in (("P3", "small"), ("P5", "small"),
                                       ("P7", "small"), ("P5", "medium")))
        # oracle-only instances: one flow oracle takes under a millisecond
        # and its time depends on the instance, so several are timed.  They
        # are small: at medium scale the transportation oracle fails on
        # some seeds (see CHANGES.md)
        cases += tuple(Case(f"P3-small-oracle-{copy}", "P3", "small", gen_seed(),
                            variants=()) for copy in range(18))
        oracle_repeats = 15
    if smoke:
        cases = tuple(dataclasses.replace(c, variants=c.variants[:2]) for c in cases)
        oracle_repeats = 1
    # each instance gets its own run seed, so that no one seed's member
    # streams set every run of the round
    cases = tuple(dataclasses.replace(c, run_seed=draw(2 ** 31)) for c in cases)
    return Plan(workload, cases, pop, iterations, oracle_repeats)


def setup(plan: Plan) -> dict:
    """Generate every instance and build its binding: case name -> Instance."""
    instances = {}
    for case in plan.cases:
        inst = suite.generate(case.problem, case.scale, case.gen_seed,
                              drop_properties=case.dropped)
        if case.pattern_a:
            inst = dataclasses.replace(inst, binding=suite.pattern_a_binding(inst))
        instances[case.name] = inst
    return instances


@dataclass
class Op:
    kind: str                 # 'run' | 'oracle' | 'cell'
    case: str
    variant: Optional[str]
    seed: Optional[int]
    start: float              # perf_counter at the start (0 for a cell)
    seconds: float
    value: object             # RunResult | OracleResult | None
    error: Optional[str] = None


def _attempt(kind, case, variant, seed, fn) -> Op:
    start = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception as err:  # counted as a failed operation, the round goes on
        traceback.print_exc(file=sys.stderr)
        value, error = None, f"{type(err).__name__}: {err}"
    return Op(kind, case, variant, seed, start, time.perf_counter() - start, value, error)


@dataclass
class Round:
    ops: list
    start: float              # perf_counter at the start of the round
    seconds: float            # wall time of the operations
    matrices: list = field(default_factory=list)   # bench-matrix: Matrix
    matrix_seconds: float = 0.0
    sums: dict = field(default_factory=dict)   # tracer sums of the round
    traced: bool = False
    speed: object = None      # the SpeedProbe that ran with the round


def run_round(plan: Plan, instances: dict, tracer, out_dir) -> Round:
    if plan.workload == "bench-matrix":
        return _matrix_round(plan, tracer, out_dir)
    ops = []
    start = time.perf_counter()
    for case in plan.cases:
        inst = instances[case.name]
        if case.oracle:
            tracer.phase = "oracle"
            for _ in range(plan.oracle_repeats):
                ops.append(_attempt("oracle", case.name, None, None,
                                    lambda: suite.solve_oracle(inst)))
        tracer.phase = "solve"
        for variant in case.variants:
            config = solvers.SolverConfig(variant, pop_size=plan.pop,
                                          iterations=plan.iterations, seed=case.run_seed)
            ops.append(_attempt(
                "run", case.name, variant, case.run_seed,
                lambda: solvers.run(suite.fresh_binding(inst), config)))
    return Round(ops, start, time.perf_counter() - start)


@dataclass
class Matrix:
    copy: str                 # suffix of its cases' names
    report: object            # the BenchReport
    written: tuple            # paths emit_report wrote


def matrix_config(plan: Plan, master_seed: int) -> "bench.BenchConfig":
    return bench.BenchConfig(
        problems=suite.PROBLEM_IDS, variants=PORTFOLIO,
        n_seeds=plan.matrix_seeds, master_seed=master_seed, scale="small",
        pop_size=plan.pop, iterations=plan.iterations, workers=plan.workers,
        degeneracy_samples=plan.degeneracy_samples)


def _matrix_round(plan: Plan, tracer, out_dir) -> Round:
    masters: dict = {}        # copy -> master seed, in case order
    for case in plan.cases:
        masters.setdefault(case.name.rsplit("-", 1)[1], case.gen_seed)
    ops, matrices, matrix_seconds = [], [], 0.0
    start = time.perf_counter()
    for copy, master in masters.items():
        tracer.phase = "matrix"
        began = time.perf_counter()
        report = bench.run_matrix(matrix_config(plan, master))
        matrix_seconds += time.perf_counter() - began
        tracer.phase = "emit"
        written = bench.emit_report(report, Path(out_dir) / copy)
        matrices.append(Matrix(copy, report, tuple(written)))
        ops += [Op("cell", f"{c.problem}-{copy}", c.variant, c.seed, 0.0,
                   c.run.wall_seconds if c.run is not None else 0.0, c.run, c.error)
                for c in report.cells]
    return Round(ops, start, time.perf_counter() - start, matrices, matrix_seconds)
