#!/usr/bin/env python3
"""Benchmark of graphopt: one workload, one seed, one result line.

    python3 perfbench/run.py --workload discrete-portfolio --seed 1 \
        --seconds 5 --trace 0

Runs whole rounds of the workload's batch until ``--seconds`` have
passed, checks every output against independent references, and prints
the metrics, then one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics and the tracing overhead.
``--smoke`` shrinks every workload to a few seconds.  See README.md.

Exit status: 0 when every check passed, 1 when a check failed (the result
line says ``"correct": false``), 2 when the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import SRC  # noqa: E402  (puts the checkout's src first)

OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "evals_per_s": "evaluations/s",
    "oracle_s": "s",
    "oracle_gap_geomean": "ratio",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solvers.optimum_hits": "runs",
    "rng.block_ms": "ms",
    "rng.doubles_per_eval": "count",
    "solvers.self_ms": "ms",
    "solvers.us_per_eval": "us",
    "problems.evaluate_us": "us",
    "problems.fitness_fn_ms": "ms",
    "problems.assemble_ms": "ms",
    "problems.decode_per_eval": "count",
    "problems.memo_hit_ratio": "ratio",
    "querylang.substitute_ms": "ms",
    "querylang.execute_ms": "ms",
    "querylang.executions_per_eval": "count",
    "graph.shortest_paths_ms": "ms",
    "suite.generate_ms": "ms",
    "oracles.brute_force_ms": "ms",
    "oracles.subsets_per_s": "subsets/s",
    "oracles.transportation_ms": "ms",
    "oracles.merit_order_ms": "ms",
    "suite.degeneracy_ms": "ms",
    "stats.summary_ms": "ms",
    "bench.pool_s": "s",
    "bench.serial_s": "s",
    "bench.pool_busy_ratio": "ratio",
    "bench.emit_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

ROUND_PHASES = ("oracle", "solve", "matrix", "emit")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in seconds")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time import and set-up only; print the seconds")
    return parser.parse_args(argv)


def _import_graphopt() -> None:
    """graphopt must come from this checkout's src, nowhere else."""
    try:
        import graphopt
    except ImportError as err:
        print(f"perfbench: cannot import graphopt from {SRC}: {err}", file=sys.stderr)
        raise SystemExit(2)
    if Path(graphopt.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: graphopt was imported from {graphopt.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def setup_probe(args) -> int:
    start = time.perf_counter()
    _import_graphopt()
    from perfbench import workloads
    workloads.setup(workloads.make_plan(args.workload, args.seed, args.smoke))
    seconds = time.perf_counter() - start
    from perfbench import speed
    print(repr(seconds / speed.sampled_factor()))
    return 0


def probe_setup_seconds(args, probes: int) -> float:
    """Median import-and-set-up time over fresh interpreter processes, each
    at the reference host speed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    times = []
    for _ in range(probes):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    _import_graphopt()
    from perfbench import speed, trace, workloads
    from perfbench.verify import Verifier

    plan = workloads.make_plan(args.workload, args.seed, args.smoke)
    matrix = plan.workload == "bench-matrix"
    setup_s = None
    if not args.trace:
        setup_s = probe_setup_seconds(args, 1 if args.smoke else SETUP_PROBES)

    # untraced runs keep only a stopwatch on solve_oracle, which times the
    # oracle calls inside run_matrix
    tracer = trace.Tracer(layers=None if args.trace else {"suite.solve_oracle"})
    setup_sums = []
    if args.trace:
        for name in tracer.install():
            print(f"perfbench: not traced, not found: {name}", file=sys.stderr)
    for _ in range(3 if args.trace else 1):
        tracer.phase = "setup"
        instances = workloads.setup(plan)
        setup_sums.append(tracer.take())
    tracer.uninstall()
    setup_factor = speed.sampled_factor()

    verifier = Verifier(plan, instances)
    out_dir = OUT / plan.workload
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced or not args.trace:
            tracer.install(bindings=[i.binding for i in instances.values()])
        tracer.round = len(rounds)
        with speed.SpeedProbe() as probe:
            rnd = workloads.run_round(plan, instances, tracer, out_dir)
        tracer.uninstall()
        rnd.sums, rnd.traced, rnd.speed = tracer.take(), traced, probe
        verifier.check(rnd)
        rounds.append(rnd)
        if time.perf_counter() >= deadline and (not args.trace or len(rounds) >= 2):
            break

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(op.error is not None for r in rounds for op in r.ops)
    if args.trace:
        metrics = layer_metrics(plan, rounds, setup_sums, setup_factor, verifier.hits)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / f"trace-{plan.workload}-seed{args.seed}.json", {
            "workload": plan.workload, "seed": args.seed,
            "setup_sums": [_named(s) for s in setup_sums],
            "setup_speed_factor": setup_factor,
            "round_sums": [{"traced": r.traced, "seconds": r.seconds,
                            "speed_factor": r.speed.factor, "sums": _named(r.sums)}
                           for r in rounds]})
    else:
        metrics = end_to_end_metrics(plan, rounds, verifier, setup_s, matrix)
    for problem in verifier.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {units[name]}")
    print(f"{'rounds':32s} {len(rounds):16d}")
    print(f"{'host speed factors':32s} " + " ".join(f"{r.speed.factor:.3f}" for r in rounds))
    correct = not verifier.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def _named(sums: dict) -> list:
    return [{"phase": p, "layer": n, "calls": e[0], "ns": e[1], "nested_ns": e[2],
             "items": e[3]} for (p, n), e in sorted(sums.items())]


def end_to_end_metrics(plan, rounds, verifier, setup_s, matrix) -> dict:
    """Timings per round at the reference host speed; medians over rounds."""
    from perfbench import trace
    evals, cells, oracle = [], [], []
    for rnd in rounds:
        done = [op for op in rnd.ops if op.kind in ("run", "cell") and op.error is None]
        n_evals = sum(op.value.evaluations for op in done)
        if matrix:
            factor = rnd.speed.factor
            wall = rnd.matrix_seconds / factor
            oracle.append(trace.total(rnd.sums, "suite.solve_oracle", ("matrix",))
                          / 1e9 / factor)
        else:
            def at_reference(op):
                return op.seconds / rnd.speed.factor_during(op.start, op.seconds)
            wall = sum(at_reference(op) for op in done)
            by_case = {}
            for op in rnd.ops:
                if op.kind == "oracle" and op.error is None:
                    by_case.setdefault(op.case, []).append(at_reference(op))
            oracle.append(sum(statistics.median(t) for t in by_case.values()))
        evals.append(n_evals / wall)
        cells.append(len(done) / wall)
    return {
        "setup_s": setup_s,
        "evals_per_s": statistics.median(evals),
        "oracle_s": statistics.median(oracle),
        "oracle_gap_geomean": verifier.gap_geomean,
        "cells_per_s": statistics.median(cells),
        "peak_rss_mb": peak_rss_mb(with_children=matrix),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _at_reference_speed(metrics: dict, factor: float) -> dict:
    """Times divided by the host speed factor, rates multiplied by it."""
    scale = {"ms": 1 / factor, "us": 1 / factor, "s": 1 / factor, "subsets/s": factor}
    return {n: v * scale.get(PER_LAYER[n], 1.0) for n, v in metrics.items()}


def layer_metrics(plan, rounds, setup_sums, setup_factor, hits) -> dict:
    from perfbench.trace import total

    def per_round(rnd) -> dict:
        s = rnd.sums
        solve = ("solve",)
        done = [op.value for op in rnd.ops
                if op.kind in ("run", "cell") and op.error is None]
        evals = sum(r.evaluations for r in done)
        solve_evals = total(s, "problems.evaluate", solve, 0)
        run_ns = total(s, "solvers.run", solve)
        pool_s = total(s, "bench.pool", ROUND_PHASES) / 1e9
        brute_ns = total(s, "oracles.brute_force", ROUND_PHASES)
        return _at_reference_speed({
            "rng.block_ms": total(s, "rng.uniform_block", solve) / 1e6,
            "rng.doubles_per_eval": _ratio(total(s, "rng.uniform_block", solve, 3),
                                           solve_evals),
            "solvers.self_ms": (run_ns - total(s, "solvers.run", solve, 2)) / 1e6,
            "solvers.us_per_eval": _ratio(run_ns / 1e3, solve_evals),
            "problems.evaluate_us": _ratio(total(s, "problems.evaluate", solve) / 1e3,
                                           solve_evals),
            "problems.fitness_fn_ms": total(s, "problems.fitness_fn", solve) / 1e6,
            "problems.assemble_ms": total(s, "problems.assemble_fitness", solve) / 1e6,
            "problems.decode_per_eval": _ratio(
                total(s, "problems.decode_selection", solve, 0), solve_evals),
            "problems.memo_hit_ratio": _ratio(sum(r.memo_hits for r in done), evals),
            "querylang.substitute_ms": total(s, "querylang.substitute", ROUND_PHASES) / 1e6,
            "querylang.execute_ms": total(s, "querylang.execute", ROUND_PHASES) / 1e6,
            "querylang.executions_per_eval": _ratio(
                total(s, "querylang.execute", solve, 0), solve_evals),
            "oracles.brute_force_ms": brute_ns / 1e6,
            "oracles.subsets_per_s": _ratio(
                total(s, "oracles.brute_force", ROUND_PHASES, 3), brute_ns / 1e9),
            "oracles.transportation_ms": total(s, "oracles.transportation", ROUND_PHASES) / 1e6,
            "oracles.merit_order_ms": total(s, "oracles.merit_order", ROUND_PHASES) / 1e6,
            "suite.degeneracy_ms": total(s, "suite.degeneracy", ROUND_PHASES) / 1e6,
            "stats.summary_ms": total(s, "stats.summary", ROUND_PHASES) / 1e6,
            "bench.pool_s": pool_s,
            "bench.serial_s": (total(s, "bench.run_matrix", ROUND_PHASES) / 1e9 - pool_s
                               if pool_s else 0.0),
            "bench.pool_busy_ratio": _ratio(sum(r.wall_seconds for r in done),
                                            pool_s * plan.workers),
            "bench.emit_ms": total(s, "bench.emit_report", ROUND_PHASES) / 1e6,
        }, rnd.speed.factor)

    traced = [per_round(r) for r in rounds if r.traced]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["solvers.optimum_hits"] = float(hits)
    metrics["graph.shortest_paths_ms"] = statistics.median(
        total(s, "graph.shortest_paths", ("setup",)) / 1e6 for s in setup_sums) / setup_factor
    metrics["suite.generate_ms"] = statistics.median(
        total(s, "suite.generate", ("setup",)) / 1e6 for s in setup_sums) / setup_factor
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.seconds / r.speed.factor for r in rounds if r.traced)
        / statistics.median(r.seconds / r.speed.factor for r in rounds if not r.traced))
    return {name: metrics[name] for name in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
