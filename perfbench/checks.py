"""Output checks: program results against independent references and the
solver invariants SOLVERS.md pins.

Every check returns a list of problem descriptions; an empty list means
it passed.  The checks take plain values and duck-typed objects, so the
tests feed them small fakes.  They run outside the timed regions.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from . import references

SELECTION_TOL = 1e-9   # absolute, on integer- and tenth-valued totals
LP_RTOL = 1e-6         # relative, LP optimum against the oracle


def run_properties(label: str, result, space, pop: int, iterations: int,
                   variant: str, fresh_binding) -> list[str]:
    """Curve, evaluation count, box and replay invariants of one run."""
    found = []
    curve = np.asarray(result.curve, dtype=np.float64)
    if curve.shape != (iterations,):
        found.append(f"{label}: curve has {curve.size} points, expected {iterations}")
    rises = np.flatnonzero(np.diff(curve) > 0)
    if rises.size:
        found.append(f"{label}: curve rises at iteration {int(rises[0]) + 1}")
    if curve.size and result.best_total != curve[-1]:
        found.append(f"{label}: best_total {result.best_total!r} != curve[-1] {curve[-1]!r}")
    extra = result.evaluations - pop * (1 + iterations)
    if extra != 0 and not (variant == "qo_rao" and extra > 0 and extra % pop == 0):
        found.append(f"{label}: {result.evaluations} evaluations, expected "
                     f"{pop}*(1+{iterations})" + (" + a multiple of the population"
                                                  if variant == "qo_rao" else ""))
    x = np.asarray(result.best_x, dtype=np.float64)
    if x.shape != space.lower.shape or np.any(x < space.lower) or np.any(x > space.upper):
        found.append(f"{label}: best_x lies outside the box")
    again = fresh_binding.evaluate(x).total
    if again != result.best_total:
        found.append(f"{label}: best_x re-evaluates to {again!r} on a fresh binding, "
                     f"run reported {result.best_total!r}")
    return found


def oracle_value(label: str, value: float, reference: float,
                 selection: bool) -> list[str]:
    """solve_oracle against the reference optimum."""
    tol = SELECTION_TOL if selection else LP_RTOL * max(1.0, abs(reference))
    if not abs(value - reference) <= tol:
        return [f"{label}: oracle {value!r} differs from the reference optimum {reference!r}"]
    return []


def selection_run(label: str, result, model, optimum: float) -> list[str]:
    """A run on a selection problem: never below the optimum, and its best
    subset re-scored by the reference formula gives its best_total."""
    found = []
    if result.best_total < optimum - SELECTION_TOL:
        found.append(f"{label}: best_total {result.best_total!r} is below the "
                     f"exact optimum {optimum!r}")
    subset = references.decode(result.best_x, model.n)
    rescored = references.score_subset(model, subset)
    if not abs(rescored - result.best_total) <= SELECTION_TOL:
        found.append(f"{label}: best subset {sorted(subset)} re-scores to {rescored!r}, "
                     f"run reported {result.best_total!r}")
    return found


def gap(best: float, optimum: float) -> float:
    """Distance to the optimum, 1.0 at the optimum and larger when worse:
    1 + (best - optimum) / max(|optimum|, 1).  For an optimum of 1 or
    more it is best/optimum, the oracle gap ratio; unlike that ratio it
    stays positive when an optimum is negative or near zero (P6)."""
    return 1.0 + (best - optimum) / max(abs(optimum), 1.0)


def holm(pvalues) -> list[float]:
    """Holm step-down: with p sorted ascending as p_(1..m), the adjusted
    p_(i) is max over j <= i of min(1, (m - j + 1) p_(j))."""
    m = len(pvalues)
    ranked = sorted(range(m), key=lambda i: pvalues[i])
    steps = [min(1.0, (m - j) * pvalues[i]) for j, i in enumerate(ranked)]
    adjusted = [0.0] * m
    for j, i in enumerate(ranked):
        adjusted[i] = max(steps[:j + 1])
    return adjusted


def holm_adjustment(summary) -> list[str]:
    """Every verdict's Holm p-values against a step-down of its raw ones."""
    found = []
    for verdict in summary.verdicts:
        tested = [c for c in verdict.comparisons if c.p_raw is not None]
        expected = holm([c.p_raw for c in tested])
        for comp, want in zip(tested, expected):
            if comp.p_holm is None or not abs(comp.p_holm - want) <= 1e-12:
                found.append(f"{verdict.problem} {comp.winner} vs {comp.other}: "
                             f"Holm p {comp.p_holm!r}, step-down gives {want!r}")
    return found


def results_csv(text: str, cells) -> list[str]:
    """results.csv has one row per cell, in order, whose fitness column
    reads back as the cell's best_total."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(cells):
        return [f"results.csv has {len(rows)} rows for {len(cells)} cells"]
    found = []
    for row, cell in zip(rows, cells):
        key = (row["problem"], row["solver"], int(row["seed"]))
        if key != (cell.problem, cell.variant, cell.seed):
            found.append(f"results.csv row {row['problem']}/{row['solver']}/{row['seed']} "
                         f"is out of order")
        elif cell.run is not None and float(row["fitness"]) != cell.run.best_total:
            found.append(f"results.csv {cell.problem}/{cell.variant}/{cell.seed}: fitness "
                         f"{row['fitness']} != best_total {cell.run.best_total!r}")
    return found


def pattern_agreement(label: str, vectors, binding_a, binding_b) -> list[str]:
    """The two binding patterns score the same vectors alike (1e-9)."""
    found = []
    for x in vectors:
        a, b = binding_a.evaluate(x).total, binding_b.evaluate(x).total
        if not abs(a - b) <= SELECTION_TOL:
            found.append(f"{label}: Pattern A {a!r} and Pattern B {b!r} disagree "
                         f"at {np.asarray(x).tolist()}")
    return found
