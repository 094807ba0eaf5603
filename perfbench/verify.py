"""Checks one workload's rounds: references, invariants, determinism.

The references are computed once, before the first round, from each
instance's spec and the properties its case dropped.  Each round is then
checked outside the timed region; the problems found accumulate in
``Verifier.problems``, and any problem fails the run.
"""

from __future__ import annotations

import statistics

import numpy as np

from graphopt import solvers, suite

from . import checks, references

SELECTION = ("P1", "P2", "P4", "P6")
AGREEMENT_VECTORS = 50  # random vectors scored by both binding patterns


class Verifier:
    def __init__(self, plan, instances: dict):
        self.plan = plan
        self.instances = instances
        self.problems: list[str] = []
        self.hits = 0
        self.gap_geomean = None
        self._first = None
        self.refs = {}   # case name -> (SelectionModel or None, optimum)
        for case in plan.cases:
            spec = instances[case.name].spec
            if case.problem in SELECTION:
                model = references.selection_model(case.problem, spec, case.dropped)
                self.refs[case.name] = (model, references.selection_optimum(model)[0])
            else:
                self.refs[case.name] = (None, references.continuous_optimum(case.problem,
                                                                            spec))
        # Pattern A cases are compared with the Pattern B binding of the
        # same instance on the runs' best vectors and on random vectors
        self._twins = {}
        for case in plan.cases:
            if case.pattern_a:
                inst = suite.generate(case.problem, case.scale, case.gen_seed,
                                      drop_properties=case.dropped)
                lower, upper = inst.space.lower, inst.space.upper
                unit = np.random.default_rng(case.gen_seed).random(
                    (AGREEMENT_VECTORS, lower.size))
                self._twins[case.name] = (inst, list(lower + (upper - lower) * unit))

    def check(self, rnd) -> None:
        found = []
        instances = self.instances
        if rnd.matrices:
            instances = {}
            for matrix in rnd.matrices:
                found += self._matrix(matrix)
                instances.update({f"{p}-{matrix.copy}": inst
                                  for p, inst in matrix.report.instances.items()})
        plan = self.plan
        outcome, gaps, hits = [], [], 0
        best_vectors = {name: [] for name in self._twins}
        for op in rnd.ops:
            if op.error is not None:
                continue
            model, optimum = self.refs[op.case]
            label = " ".join(str(p) for p in (op.case, op.kind, op.variant, op.seed)
                             if p is not None)
            if op.kind == "oracle":
                found += checks.oracle_value(label, op.value.optimum, optimum,
                                             model is not None)
                continue
            run, inst = op.value, instances[op.case]
            found += checks.run_properties(
                label, run, inst.space, plan.pop, plan.iterations,
                solvers.normalize_variant(op.variant), suite.fresh_binding(inst))
            if model is not None:
                found += checks.selection_run(label, run, model, optimum)
            if op.case in best_vectors:
                best_vectors[op.case].append(run.best_x)
            outcome.append((op.case, op.variant, op.seed, run.best_total))
            if model is not None:
                hits += abs(run.best_total - optimum) <= checks.SELECTION_TOL
            elif rnd.matrices:
                # the matrix's flow and dispatch oracles bound soft-penalty
                # and ramp-relaxed problems, so only selection cells count
                continue
            gap = checks.gap(run.best_total, optimum)
            if not gap > 0:
                found.append(f"{label}: gap {gap!r} to the optimum {optimum!r} is not positive")
                continue
            gaps.append(gap)
        for name, (pattern_b, vectors) in self._twins.items():
            found += checks.pattern_agreement(
                name, best_vectors[name] + vectors,
                suite.fresh_binding(self.instances[name]), suite.fresh_binding(pattern_b))

        if self._first is None:
            self._first = outcome
            self.hits = hits
            self.gap_geomean = statistics.geometric_mean(gaps)
        elif outcome != self._first:
            found.append("a round's results differ from the first round's")
        self.problems += found

    def _matrix(self, matrix) -> list[str]:
        report = matrix.report
        found = []
        for problem, inst in report.instances.items():
            case = f"{problem}-{matrix.copy}"
            if inst.spec_bytes() != self.instances[case].spec_bytes():
                found.append(f"{case}: the matrix generated another instance")
            model, optimum = self.refs[case]
            oracle = report.oracles.get(problem)
            if oracle is None:
                found.append(f"{case}: no oracle ({report.oracle_errors.get(problem)})")
            else:
                found += checks.oracle_value(f"{case} oracle", oracle.optimum,
                                             optimum, model is not None)
        csv_path = next(p for p in matrix.written if p.endswith("results.csv"))
        with open(csv_path, encoding="utf-8") as handle:
            found += checks.results_csv(handle.read(), report.cells)
        found += checks.holm_adjustment(report.summary)
        return found
