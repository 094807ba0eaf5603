"""Exact optima computed apart from graphopt.

Every reference here reads only an instance's ``spec`` snapshot and the
list of node properties the workload dropped at generation time; it never
calls a binding, a query or an oracle of the package.  Selection problems
are swept over every k-subset with numpy; the flow and dispatch problems
are solved as linear programs by HiGHS through scipy.

The objective definitions (coefficients included) are the problem
statements of P1, P2, P4 and P6; ``score_subset`` scores one subset by the
same definitions, so a solver's best subset can be re-scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np
from scipy.optimize import linprog

# problem coefficients, from the problem statements
P1_SIDE_EFFECT_WEIGHT = 0.5
P2_DIVERSITY_BONUS = 10.0
P4_DIVERSITY_BONUS = 10.0
P6_BURDEN_WEIGHT = 0.1

_CHUNK = 1 << 15  # subsets scored per numpy call


@dataclass(frozen=True)
class SelectionModel:
    """Per-candidate data of a k-of-N problem, rebuilt from its spec.

    total(subset) = -sum(value[i]) + weight * sum(load[i])
                    - bonus * distinct(bucket[i]) - coverage(subset)
    where coverage is the number of genes covered (P1) or the summed
    best efficacy per pathogen (P6); unused parts are zero.
    """

    problem: str
    n: int
    k: int
    value: np.ndarray          # summed reward per candidate
    load: np.ndarray           # summed penalty per candidate
    load_weight: float
    bucket: np.ndarray         # diversity bucket per candidate
    bonus: float
    gene_words: np.ndarray     # (n, words) uint64 gene bitmasks, P1
    efficacy: np.ndarray       # (n, pathogens), P6


def selection_model(problem: str, spec: dict, dropped=()) -> SelectionModel:
    """Build the reference model of P1/P2/P4/P6 from a spec snapshot.

    ``dropped`` names the node properties removed at generation time.  A
    missing numeric property contributes 0; a missing region puts every
    candidate in one bucket.
    """
    dropped = set(dropped)
    k = int(spec["k"])
    empty_words = np.zeros((0, 1), dtype=np.uint64)
    if problem == "P1":
        _reject(dropped - {"side_effect_count"}, problem)
        targets = spec["targets"]
        n = len(spec["candidates"])
        genes = sorted({g for row in targets for g in row})
        column = {g: j for j, g in enumerate(genes)}
        words = np.zeros((n, max(1, -(-len(genes) // 64))), dtype=np.uint64)
        for i, row in enumerate(targets):
            for g in row:
                j = column[g]
                words[i, j // 64] |= np.uint64(1) << np.uint64(j % 64)
        load = np.asarray(spec["side_effect_counts"], dtype=np.float64)
        if "side_effect_count" in dropped:
            load = np.zeros(n)
        return SelectionModel(problem, n, k, np.zeros(n), load,
                              P1_SIDE_EFFECT_WEIGHT, np.zeros(n, np.int64), 0.0,
                              words, np.zeros((n, 0)))
    if problem == "P2":
        _reject(dropped - {"trial_count", "who_region"}, problem)
        n = len(spec["facilities"])
        value = np.asarray(spec["trial_counts"], dtype=np.float64)
        if "trial_count" in dropped:
            value = np.zeros(n)
        # a country is named "<WHO region>-C<i>"
        regions = [c.split("-")[0] for c in spec["countries"]]
        if "who_region" in dropped:
            regions = [None] * n
        return SelectionModel(problem, n, k, value, np.zeros(n), 0.0,
                              _codes(regions), P2_DIVERSITY_BONUS, empty_words,
                              np.zeros((n, 0)))
    if problem == "P4":
        _reject(dropped - {"physician_density", "who_region"}, problem)
        n = len(spec["names"])
        threshold = float(spec["threshold"])
        value = np.array([max(threshold - d, 0.0) for d in spec["densities"]])
        if "physician_density" in dropped:
            value = np.zeros(n)
        regions = list(spec["regions"])
        if "who_region" in dropped:
            regions = [None] * n
        return SelectionModel(problem, n, k, value, np.zeros(n), 0.0,
                              _codes(regions), P4_DIVERSITY_BONUS, empty_words,
                              np.zeros((n, 0)))
    if problem == "P6":
        _reject(dropped, problem)
        n = len(spec["subclasses"])
        counts = np.asarray(spec["resistance_counts"], dtype=np.float64)
        efficacy = 1.0 / (1.0 + counts.reshape(n, len(spec["pathogens"])))
        return SelectionModel(problem, n, k, np.zeros(n),
                              np.asarray(spec["burden"], dtype=np.float64),
                              P6_BURDEN_WEIGHT, np.zeros(n, np.int64), 0.0,
                              empty_words, efficacy)
    raise ValueError(f"{problem} is not a selection problem")


def _reject(unsupported, problem: str) -> None:
    if unsupported:
        raise ValueError(f"no reference for {problem} without {sorted(unsupported)}")


def _codes(regions) -> np.ndarray:
    """One integer per distinct region; all missing regions share one."""
    seen: dict = {}
    return np.array([seen.setdefault(r, len(seen)) for r in regions],
                    dtype=np.int64)


def subset_totals(model: SelectionModel, rows: np.ndarray) -> np.ndarray:
    """Reference totals of an (m, k) array of candidate-index rows."""
    total = -model.value[rows].sum(axis=1)
    total += model.load_weight * model.load[rows].sum(axis=1)
    if model.bonus:
        codes = np.sort(model.bucket[rows], axis=1)
        distinct = 1 + np.count_nonzero(np.diff(codes, axis=1), axis=1)
        total -= model.bonus * distinct
    if model.gene_words.shape[0]:
        covered = np.bitwise_or.reduce(model.gene_words[rows], axis=1)
        total -= np.bitwise_count(covered).sum(axis=1)
    if model.efficacy.shape[1]:
        total -= model.efficacy[rows].max(axis=1).sum(axis=1)
    return total


def score_subset(model: SelectionModel, subset) -> float:
    return float(subset_totals(model, np.asarray([sorted(subset)]))[0])


def selection_optimum(model: SelectionModel) -> tuple[float, tuple]:
    """Minimum total over all C(n, k) subsets, with one minimizing subset."""
    combos = combinations(range(model.n), model.k)
    best, best_rows = math.inf, None
    while True:
        flat = np.fromiter(chain.from_iterable(islice(combos, _CHUNK)),
                           dtype=np.int64)
        if flat.size == 0:
            return best, best_rows
        rows = flat.reshape(-1, model.k)
        totals = subset_totals(model, rows)
        j = int(np.argmin(totals))
        if totals[j] < best:
            best, best_rows = float(totals[j]), tuple(rows[j].tolist())


def decode(x, n: int) -> list[int]:
    """A selection vector's candidate indices: each coordinate floors to
    an index clamped to [0, n-1]; a repeat moves cyclically to the next
    index not yet taken."""
    chosen: list[int] = []
    for value in np.asarray(x, dtype=np.float64):
        idx = min(max(math.floor(value), 0), n - 1)
        while idx in chosen:
            idx = (idx + 1) % n
        chosen.append(idx)
    return chosen


# ---------------------------------------------------------------------------
# linear programs
# ---------------------------------------------------------------------------

def _solve_lp(cost, a_ub, b_ub, a_eq, b_eq, bounds) -> float:
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def transportation_optimum(cost, supply, capacity) -> float:
    """min sum c_ij f_ij  s.t.  sum_j f_ij = supply_i, sum_i f_ij <= cap_j."""
    n_src, n_snk = len(supply), len(capacity)
    cost = np.asarray(cost, dtype=np.float64).reshape(n_src, n_snk)
    rows = np.kron(np.eye(n_src), np.ones(n_snk))   # row sums
    cols = np.kron(np.ones(n_src), np.eye(n_snk))   # column sums
    return _solve_lp(cost.ravel(), cols, capacity, rows, supply, (0, None))


def relaxed_dispatch_optimum(spec: dict) -> float:
    """P5 with ramp limits dropped: min sum_g,h eff_g out_gh with
    min_out_g <= out_gh <= max_out_g and sum_g out_gh = demand_h."""
    n_gen, n_hours = spec["n_generators"], spec["n_hours"]
    eff = (np.asarray(spec["cost_rate"])
           + spec["emission_weight"] * np.asarray(spec["emission_rate"]))
    cost = np.repeat(eff, n_hours)                  # out is gen-major
    hours = np.kron(np.ones(n_gen), np.eye(n_hours))
    bounds = [(lo, hi) for lo, hi in zip(spec["min_out"], spec["max_out"])
              for _ in range(n_hours)]
    return _solve_lp(cost, None, None, hours, spec["demand"], bounds)


def continuous_optimum(problem: str, spec: dict) -> float:
    if problem == "P3":
        return transportation_optimum(spec["distance_km"], spec["demands"],
                                      spec["capacities"])
    if problem == "P7":
        return transportation_optimum(spec["travel_time"], spec["pop"],
                                      spec["capacity"])
    if problem == "P5":
        return relaxed_dispatch_optimum(spec)
    raise ValueError(f"{problem} has no LP reference")
