"""Command-line entry points: generate, solve, bench, stats,
inspect-degeneracy."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .bench import BenchConfig, emit_report, run_matrix, summary_md_text
from .solvers import VARIANTS, SolverConfig, run
from .stats import build_summary
from .suite import (P5_MODES, PROBLEM_IDS, SCALES, DisruptionSpec,
                    detect_degenerate_terms, generate, inject_disruption,
                    solve_oracle)


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True,
                   help=f"one of {', '.join(PROBLEM_IDS)}")
    p.add_argument("--scale", default="small", choices=SCALES)
    p.add_argument("--seed", type=int, default=0,
                   help="instance generation seed")
    p.add_argument("--drop-property", action="append", default=[],
                   metavar="NAME",
                   help="omit this node property at generation time "
                        "(repeatable); used to study degraded data")
    p.add_argument("--p5-mode", default=P5_MODES[0], choices=P5_MODES,
                   help="P5 objective mode; nonlinear has no oracle")


def _build_instance(args):
    try:
        inst = generate(args.problem, args.scale, args.seed,
                        drop_properties=tuple(args.drop_property),
                        p5_mode=args.p5_mode)
    except ValueError as err:  # an unknown problem or an undroppable property
        raise SystemExit(f"graphopt: {err}") from err
    disrupt = getattr(args, "disrupt", None)
    if disrupt:
        parts = disrupt.split(":")
        if not 2 <= len(parts) <= 4:
            raise SystemExit("graphopt: --disrupt needs MODE:FRACTION[:FACTOR[:SEED]]")
        try:
            dspec = DisruptionSpec(
                mode=parts[0], fraction=float(parts[1]),
                factor=float(parts[2]) if len(parts) > 2 else 2.0,
                seed=int(parts[3]) if len(parts) > 3 else 0)
            inst = inject_disruption(inst, dspec)
        except ValueError as err:
            raise SystemExit(f"graphopt: --disrupt: {err}") from err
    return inst


def _cmd_generate(args) -> int:
    inst = _build_instance(args)
    if args.out:
        path = Path(args.out)
        if path.suffix != ".json":
            path = path / f"{inst.problem_id}_spec.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(inst.spec_bytes())
        print(f"wrote {path}")
    else:
        sys.stdout.write(inst.spec_bytes().decode("utf-8"))
    return 0


def _cmd_solve(args) -> int:
    try:
        cfg = SolverConfig(args.variant, args.pop, args.iters, args.run_seed)
    except ValueError as err:
        raise SystemExit(f"graphopt: {err}") from err
    inst = _build_instance(args)
    result = run(inst.binding, cfg)
    payload = {
        "problem": inst.problem_id,
        "variant": result.variant,
        "run_seed": result.seed,
        "best_fitness": result.best_total,
        "best_x": [float(v) for v in result.best_x],
        "evaluations": result.evaluations,
        "memo_hits": result.memo_hits,
        "query_executions": result.query_executions,
        "wall_seconds": result.wall_seconds,
    }
    if args.oracle:
        orc = solve_oracle(inst)
        if orc is not None:
            payload["oracle_optimum"] = orc.optimum
            payload["oracle_kind"] = orc.kind
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_bench(args) -> int:
    raw = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if args.problems:
        raw["problems"] = [p.strip() for p in args.problems.split(",")]
    if args.variants:
        raw["variants"] = [v.strip() for v in args.variants.split(",")]
    for key, value in (("n_seeds", args.seeds),
                       ("master_seed", args.master_seed),
                       ("scale", args.scale), ("pop_size", args.pop),
                       ("iterations", args.iters),
                       ("workers", args.workers)):
        if value is not None:
            raw[key] = value
    try:
        config = BenchConfig.from_dict(raw)
    except ValueError as err:
        raise SystemExit(f"graphopt: {err}") from err
    report = run_matrix(config)
    if args.out:
        for path in emit_report(report, args.out):
            print(f"wrote {path}")
    else:
        sys.stdout.write(summary_md_text(report))
    failures = [c for c in report.cells if c.run is None]
    if failures:
        print(f"{len(failures)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args) -> int:
    fitness: dict = {}
    try:
        with open(args.results, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if not row.get("fitness"):
                    continue
                fitness.setdefault(row["problem"], {}).setdefault(
                    row["solver"], {})[int(row["seed"])] = float(row["fitness"])
    except (OSError, ValueError) as err:  # no such file, or a cell not a number
        raise SystemExit(f"graphopt: {err}") from err
    except KeyError as err:  # a column the header lacks
        raise SystemExit(f"graphopt: {args.results} has no {err.args[0]!r} column") from err
    if not fitness:
        print("no usable rows", file=sys.stderr)
        return 1
    table = build_summary(fitness)
    for verdict in table.verdicts:
        flag = "dominant" if verdict.dominant else "not dominant"
        print(f"{verdict.problem}: winner {verdict.winner} ({flag})")
        for comp in verdict.comparisons:
            p_raw = "-" if comp.p_raw is None else f"{comp.p_raw:.4g}"
            p_holm = "-" if comp.p_holm is None else f"{comp.p_holm:.4g}"
            print(f"  vs {comp.other}: p={p_raw} holm={p_holm} "
                  f"[{comp.method}]")
    return 0


def _cmd_inspect_degeneracy(args) -> int:
    inst = _build_instance(args)
    try:
        report = detect_degenerate_terms(inst, samples=args.samples,
                                         seed=args.detector_seed)
    except ValueError as err:
        raise SystemExit(f"graphopt: {err}") from err
    print(f"{inst.problem_id} ({report.samples} samples)")
    for t in report.terms:
        flag = "FLAGGED zero-variance" if t.flagged else "ok"
        print(f"  {t.name} [{t.kind}]: min={t.minimum:.6g} "
              f"max={t.maximum:.6g} var={t.variance:.6g} "
              f"missing={t.missing_property_count} {flag}")
    return 2 if report.flagged_terms else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphopt",
        description="Graph-grounded optimization bench: seeded problem "
                    "instances bound to a property graph, Rao-family "
                    "solvers, exact oracles, and statistical reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build an instance, write spec.json")
    _add_instance_args(p)
    p.add_argument("--disrupt", metavar="MODE:FRACTION[:FACTOR[:SEED]]",
                   help="apply a disruption (capacity_halving on P3, "
                        "time_inflation on P7)")
    p.add_argument("--out", help="output directory or .json path "
                                 "(default: stdout)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("solve", help="run one solver on one instance")
    _add_instance_args(p)
    p.add_argument("--disrupt", metavar="MODE:FRACTION[:FACTOR[:SEED]]")
    p.add_argument("--variant", default="jaya",
                   help=f"one of {', '.join(VARIANTS)}")
    p.add_argument("--pop", type=int, default=30)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--run-seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true",
                   help="also solve the exact oracle when one applies")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="run the full matrix and emit reports")
    p.add_argument("--config", help="JSON file with BenchConfig fields")
    p.add_argument("--problems", help="comma-separated subset, e.g. P2,P4")
    p.add_argument("--variants", help="comma-separated solver variants")
    p.add_argument("--seeds", type=int, default=None,
                   help="seeds per cell (default 30)")
    p.add_argument("--master-seed", type=int, default=None)
    p.add_argument("--scale", choices=SCALES, default=None)
    p.add_argument("--pop", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", help="report directory (default: summary "
                                 "to stdout)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("stats", help="recompute dominance from results.csv")
    p.add_argument("--results", required=True, help="path to results.csv")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("inspect-degeneracy",
                       help="sample an instance and flag constant terms")
    _add_instance_args(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--detector-seed", type=int, default=0)
    p.set_defaults(fn=_cmd_inspect_degeneracy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
