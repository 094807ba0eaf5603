"""End-to-end acceptance gates for the whole package.

Each gate prints one [PASS]/[FAIL] line on the real stdout, bypassing
pytest capture, so the verdicts are always visible in a run log.  The
numbered gates cover: discrete optimum recovery, continuous gap
reporting, the full benchmark matrix with its statistics, dual-route
fitness equivalence, degeneracy flagging, solver invariants, oracle
cross-validation, and the instance snapshot contract.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from graphopt.bench import (DEFAULT_VARIANTS, BenchConfig, run_matrix,
                            summary_md_text)
from graphopt.cli import main as cli_main
from graphopt.rng import SeededRng
from graphopt.solvers import VARIANTS, Population, SolverConfig, run
from graphopt.stats import holm, wilcoxon_signed_rank
from graphopt.suite import (PROBLEM_IDS, detect_degenerate_terms,
                            fresh_binding, gap_ratio, generate,
                            pattern_a_binding, solve_oracle)
from tests import test_graph as graph_checks
from tests import test_oracles as oracle_checks
from tests.test_solvers import propose

GOLDEN = Path(__file__).parent / "golden"

PORTFOLIO = dict(pop_size=30, iterations=300)


@pytest.fixture
def verdict(capsys):
    """Print one [PASS]/[FAIL] line with capture suspended, then assert."""
    def _report(num, ok, text):
        line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {text}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def _portfolio_best(instance, seeds):
    return min(
        run(fresh_binding(instance),
            SolverConfig(variant=v, seed=s, **PORTFOLIO)).best_total
        for v in DEFAULT_VARIANTS for s in seeds)


def test_acceptance_1_portfolio_recovers_discrete_optima(verdict):
    reps = 20
    t0 = time.perf_counter()
    hits = {"P2": 0, "P4": 0}
    for rep in range(reps):
        seeds = BenchConfig(master_seed=rep, n_seeds=3).run_seeds()
        for pid in hits:
            inst = generate(pid, "small", rep)
            oracle = solve_oracle(inst)
            hits[pid] += _portfolio_best(inst, seeds) == oracle.optimum
    elapsed = time.perf_counter() - t0
    ok = (all(hits[pid] >= 0.95 * reps for pid in hits)
          and elapsed < 60.0)
    verdict(1, ok,
             f"portfolio (5 variants x 3 seeds) hit the exact optimum on "
             f"{hits['P2']}/{reps} P2-small and {hits['P4']}/{reps} P4-small "
             f"reps (need 19), {elapsed:.1f}s (budget 60s)")


def test_acceptance_2_continuous_gap_window_and_annotations(verdict):
    t0 = time.perf_counter()
    cfg = BenchConfig(problems=("P3", "P7"), n_seeds=3, master_seed=0,
                      **PORTFOLIO)
    report = run_matrix(cfg)
    text = summary_md_text(report)
    gaps, rows = {}, {}
    for pid in ("P3", "P7"):
        best = min(c.run.best_total for c in report.cells
                   if c.problem == pid)
        gaps[pid] = gap_ratio(best, report.oracles[pid].optimum)
        rows[pid] = next(l for l in text.splitlines()
                         if l.startswith(f"| {pid} |"))
    elapsed = time.perf_counter() - t0
    annotated = ("enforces balance and capacity exactly" in rows["P3"]
                 and "may dip below the oracle cost" in rows["P7"])
    # a sub-1.0 P7 gap is legal but must be called out in the table
    below_one_flagged = gaps["P7"] >= 1.0 or "gap below 1.0" in rows["P7"]
    ok = (1.0 <= gaps["P3"] <= 3.0 and annotated and below_one_flagged
          and elapsed < 120.0)
    verdict(2, ok,
             f"P3 gap {gaps['P3']:.4f} within [1.0, 3.0], P7 gap "
             f"{gaps['P7']:.4f}, soft-vs-hard annotations present, "
             f"{elapsed:.1f}s (budget 120s)")


def test_acceptance_3_default_bench_and_pinned_statistics(verdict):
    pins_ok = (wilcoxon_signed_rank([1.0, 2.0, 3.0]).p_value == 0.25
               and wilcoxon_signed_rank(
                   [1.0, 2.0, 3.0, 4.0, 5.0]).p_value == 0.0625
               and holm([0.01, 0.04, 0.03]) == [0.03, 0.06, 0.06])

    t0 = time.perf_counter()
    report = run_matrix(BenchConfig())  # 5 variants x 7 problems x 30 seeds
    elapsed = time.perf_counter() - t0

    cells_ok = (len(report.cells) == 5 * 7 * 30
                and all(c.error is None for c in report.cells))
    verdicts = {v.problem: v for v in report.summary.verdicts}
    flags_ok = (sorted(verdicts) == sorted(PROBLEM_IDS)
                and all(isinstance(v.dominant, bool)
                        and len(v.comparisons) == 4
                        for v in verdicts.values()))
    ok = pins_ok and cells_ok and flags_ok and elapsed < 600.0
    flags = {p: verdicts[p].dominant for p in PROBLEM_IDS if p in verdicts}
    verdict(3, ok,
             f"full 5x7x30 bench in {elapsed:.0f}s (budget 600s), "
             f"hand-enumerated p/Holm pins exact, dominance flags {flags}")


def test_acceptance_4_dual_route_equivalence_and_memo_short_circuit(verdict):
    inst = generate("P2", "small", 0)
    arrays = inst.binding            # startup-materialized route
    queried = pattern_a_binding(inst)  # per-evaluation query route
    rng = SeededRng(99)
    lo, hi = inst.space.lower, inst.space.upper
    vectors = [np.array([rng.uniform(lo[j], hi[j]) for j in range(lo.size)])
               for _ in range(1000)]

    via_queries = [queried.evaluate(x).total for x in vectors]
    via_arrays = [arrays.evaluate(x).total for x in vectors]
    worst = max(abs(a - b) for a, b in zip(via_queries, via_arrays))

    executed = queried.query_executions
    second_pass = [queried.evaluate(x).total for x in vectors]
    extra_queries = queried.query_executions - executed

    ok = (worst <= 1e-9 and executed > 0 and extra_queries == 0
          and second_pass == via_queries)
    verdict(4, ok,
             f"1000 random vectors agree across both routes (worst "
             f"disagreement {worst:.2e}, tol 1e-9); memoized re-pass ran "
             f"{extra_queries} queries (counter-verified)")


def test_acceptance_5_degeneracy_flagging(capsys, verdict):
    healthy_exit = cli_main(["inspect-degeneracy", "--problem", "P4",
                             "--scale", "small", "--seed", "0"])
    stripped_exit = cli_main(["inspect-degeneracy", "--problem", "P4",
                              "--scale", "small", "--seed", "0",
                              "--drop-property", "who_region"])
    cli_text = capsys.readouterr().out

    healthy = detect_degenerate_terms(generate("P4", "small", 0))
    stripped = detect_degenerate_terms(
        generate("P4", "small", 0, drop_properties=("who_region",)))
    diversity = {t.name: t for t in stripped.terms}["region_diversity"]

    ok = (healthy_exit == 0 and stripped_exit == 2
          and "region_diversity" in cli_text and "FLAGGED" in cli_text
          and healthy.flagged_terms == ()
          and "region_diversity" in stripped.flagged_terms
          and diversity.variance == 0.0)
    verdict(5, ok,
             "stripping the region property flags the diversity term as "
             "zero-variance (cli exit 2); the healthy instance stays "
             "unflagged (cli exit 0)")


class BoundsChecked:
    """Binding wrapper that counts evaluations outside the box."""

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
        self.evaluations = 0
        self.out_of_bounds = 0

    @property
    def memo_hits(self):
        return self.inner.memo_hits

    @property
    def query_executions(self):
        return self.inner.query_executions

    def evaluate(self, x):
        if np.any(x < self.space.lower) or np.any(x > self.space.upper):
            self.out_of_bounds += 1
        self.evaluations += 1
        return self.inner.evaluate(x)

    def evaluate_batch(self, X):
        outside = (X < self.space.lower) | (X > self.space.upper)
        self.out_of_bounds += int(np.count_nonzero(outside.any(axis=1)))
        self.evaluations += X.shape[0]
        return self.inner.evaluate_batch(X)


def test_acceptance_6_solver_invariant_sweep(verdict):
    rng = SeededRng(2718)
    draws = [(PROBLEM_IDS[rng.integer(0, len(PROBLEM_IDS))],
              rng.integer(0, 100000)) for _ in range(100)]
    instances = {}
    violations = []
    t0 = time.perf_counter()

    for pid, seed in draws:
        inst = instances.get((pid, seed))
        if inst is None:
            inst = instances[(pid, seed)] = generate(pid, "small", seed)

        for variant in VARIANTS:
            cfg = SolverConfig(variant=variant, pop_size=10, iterations=15,
                               seed=seed)
            checked = BoundsChecked(fresh_binding(inst))
            first = run(checked, cfg)
            if checked.out_of_bounds:
                violations.append((variant, pid, seed, "out of bounds"))
            if np.any(np.diff(first.curve) > 0):
                violations.append((variant, pid, seed, "curve not monotone"))
            again = run(BoundsChecked(fresh_binding(inst)), cfg)
            identical = (np.array_equal(first.best_x, again.best_x)
                         and np.array_equal(first.curve, again.curve)
                         and first.best_total == again.best_total
                         and first.evaluations == again.evaluations)
            if not identical:
                violations.append((variant, pid, seed, "rerun differs"))

        # difference-driven moves from a fully converged population must
        # return the point itself, bit for bit
        space = inst.space
        point = space.lower + rng.u01() * (space.upper - space.lower)
        pop = Population(space=space, x=np.tile(point, (6, 1)),
                         totals=np.full(6, 1.0))
        cand = propose("rao1", pop, rng.integer(0, 6), SeededRng(seed))
        if not np.array_equal(cand, point):
            violations.append(("rao1", pid, seed, "converged fixed point"))

    elapsed = time.perf_counter() - t0
    ok = not violations
    verdict(6, ok,
             f"all {len(VARIANTS)} variants x 100 (problem, seed) draws: "
             f"{len(violations)} violations (monotone curve, in-bounds "
             f"evals, bit-identical rerun, converged fixed point), "
             f"{elapsed:.1f}s")
    assert not violations, violations[:5]


def test_acceptance_7_exact_oracle_cross_validation(verdict):
    t0 = time.perf_counter()
    problems = []
    try:
        oracle_checks.test_transportation_complete_integer_sweep()
    except AssertionError as err:
        problems.append(f"transportation sweep: {err}")
    try:
        graph_checks.test_dijkstra_matches_bellman_ford_100_random_graphs()
    except AssertionError as err:
        problems.append(f"shortest-path cross-check: {err}")
    elapsed = time.perf_counter() - t0
    verdict(7, not problems,
             f"transportation == exhaustive enumeration on the complete "
             f"small-integer sweep; Dijkstra == Bellman-Ford on 100 random "
             f"graphs; {'; '.join(problems) or 'zero discrepancies'}, "
             f"{elapsed:.1f}s")


CONTRACT_KEYS = {
    "P1": ("candidates", "targets"),
    "P2": ("facilities", "countries", "trial_counts"),
    "P3": ("distance_km",),
    "P4": ("names", "regions"),
    "P7": ("n_centroids", "n_exits", "pop", "capacity", "travel_time"),
}


def test_acceptance_8_snapshot_contract_golden_bytes(verdict):
    mismatches = []
    for pid, required in CONTRACT_KEYS.items():
        raw = generate(pid, "small", 0).spec_bytes()
        golden = (GOLDEN / f"{pid}_small_seed0_spec.json").read_bytes()
        if raw != golden:
            mismatches.append(f"{pid} bytes differ from golden")
        keys = set(json.loads(raw.decode("utf-8")))
        missing = [k for k in required if k not in keys]
        if missing:
            mismatches.append(f"{pid} missing keys {missing}")
    verdict(8, not mismatches,
             f"P1-P4, P7 snapshots byte-identical to goldens with the "
             f"contract key names; {'; '.join(mismatches) or 'all match'}")
