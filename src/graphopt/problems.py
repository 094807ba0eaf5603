"""Problem abstraction: decision spaces, fitness, and graph bindings.

A problem binds a decision space to a fitness function in one of two
ways.  Pattern A substitutes the decoded selection into query templates
and executes them per evaluation.  Pattern B runs its queries once at
startup, keeps the resulting per-candidate arrays, and evaluates as a
pure function over them.  Both memoize on the same exact key, the
sorted tuple of decoded indices (``subset_key``), both report missing
properties per node, and both name the queries behind their terms in
``provenance``.

Every binding scores a population with ``evaluate_batch(X)``, which
returns the (m,) totals and advances the counters exactly as m calls of
``evaluate`` would.  A memoized Pattern B selection binding with
``subset_totals`` decodes the batch once and scores its memo misses in
one vectorized call; every other binding loops over its own
``evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .graph import PropertyGraph
from .querylang import ExecutionError, Query, QueryTemplate, execute, substitute

SELECTION_EPS = 1e-6


class MaterializationError(ValueError):
    """Startup queries produced arrays that cannot be aligned."""


# ---------------------------------------------------------------------------
# decision spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecisionSpace:
    """Box-bounded decision space, optionally a k-of-N selection.

    kind is 'continuous' or 'selection'.  For selection spaces dim
    equals k and every coordinate ranges over [0, N - eps) so flooring
    yields an index in [0, N-1].
    """

    kind: str
    lower: np.ndarray
    upper: np.ndarray
    k: int = 0
    n_candidates: int = 0

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.kind not in ("continuous", "selection"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size == 0:
            raise ValueError("bounds must be equal-length 1-D arrays")
        if not np.all(lower < upper):
            raise ValueError("every dimension needs lower < upper")
        lower.setflags(write=False)
        upper.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.lower.size


def continuous_space(lower, upper) -> DecisionSpace:
    lower = np.atleast_1d(np.asarray(lower, dtype=np.float64))
    upper = np.atleast_1d(np.asarray(upper, dtype=np.float64))
    return DecisionSpace(kind="continuous", lower=lower, upper=upper)


def selection_space(k: int, n_candidates: int) -> DecisionSpace:
    """k-of-N selection: k coordinates, each flooring to a candidate index."""
    if k < 1:
        raise ValueError("selection needs k >= 1")
    if k > n_candidates:
        raise ValueError(f"cannot select {k} of {n_candidates} candidates")
    lower = np.zeros(k)
    upper = np.full(k, float(n_candidates) - SELECTION_EPS)
    return DecisionSpace(kind="selection", lower=lower, upper=upper,
                         k=k, n_candidates=n_candidates)


def decode_selection(x, space: DecisionSpace) -> list[int]:
    """Map a selection-space vector to k distinct candidate indices.

    Coordinates floor to indices; a duplicate advances cyclically to the
    next unused index, so every in-bounds vector decodes to a valid
    selection.
    """
    if space.kind != "selection":
        raise ValueError("decode_selection needs a selection space")
    n = space.n_candidates
    top = n - 1
    chosen: list[int] = []
    values = x.tolist() if type(x) is np.ndarray else x
    for value in values:
        idx = int(value)
        if idx > top:
            idx = top
        elif idx < 0:
            idx = 0
        # k is small, so a list scan beats keeping a side set
        while idx in chosen:
            idx += 1
            if idx == n:
                idx = 0
        chosen.append(idx)
    return chosen


def subset_key(indices: Sequence[int]) -> tuple:
    """Exact memo key of a decoded selection: its sorted indices, so
    permutations of one subset share a memo entry."""
    return tuple(sorted(indices))


def _finite_rows(X) -> np.ndarray:
    """The batch as a float (m, d) array; a NaN or infinite coordinate
    raises, since flooring it to an index would hide it."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"a batch is an (m, d) array, got shape {X.shape}")
    if not np.isfinite(X).all():
        row = int(np.argmax(~np.isfinite(X).all(axis=1)))
        raise ValueError(f"batch row {row} has a non-finite coordinate: "
                         f"{X[row].tolist()}")
    return X


def _check_totals(totals: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(totals)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"batch row {row} has a non-finite total {float(totals[row])!r}")
    return totals


def _evaluate_each(binding, X) -> np.ndarray:
    """The batch as m calls of ``binding.evaluate``, in row order."""
    X = _finite_rows(X)
    return _check_totals(np.array([binding.evaluate(x).total for x in X],
                                  dtype=np.float64))


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------

class Fitness(NamedTuple):
    """Minimization fitness with its penalty decomposition.

    An immutable ``NamedTuple`` (cheaper to build than a frozen
    dataclass; one is made per evaluation).  total is exactly
    sum(objective_terms.values()) plus
    sum(weight[name] * violation_terms[name]) in insertion order.
    """

    total: float
    objective_terms: dict
    violation_terms: dict
    penalty_weights: dict

    @property
    def penalty_weighted_total(self) -> float:
        return weighted_total(self.objective_terms, self.violation_terms,
                              self.penalty_weights)

    @property
    def feasible(self) -> bool:
        return all(v == 0 for v in self.violation_terms.values())


def weighted_total(objective_terms: Mapping[str, float],
                   violation_terms: Mapping[str, float],
                   penalty_weights: Mapping[str, float]) -> float:
    total = 0.0
    for value in objective_terms.values():
        total += value
    for name, violation in violation_terms.items():
        total += penalty_weights[name] * violation
    return total


# builds a Fitness without the NamedTuple's Python-level __new__, which
# costs a third of the no-violation path below
_new_fitness = tuple.__new__


def assemble_fitness(objective_terms: Mapping[str, float],
                     violation_terms: Mapping[str, float],
                     penalty_weights: Mapping[str, float]) -> Fitness:
    if not violation_terms:
        total = 0.0
        for value in objective_terms.values():
            total += value
        return _new_fitness(Fitness, (total, dict(objective_terms), {}, {}))
    for name, violation in violation_terms.items():
        if violation < 0:
            raise ValueError(f"violation term {name!r} is negative: {violation}")
        if name not in penalty_weights:
            raise ValueError(f"violation term {name!r} has no penalty weight")
    objective_terms = dict(objective_terms)
    violation_terms = dict(violation_terms)
    penalty_weights = dict(penalty_weights)
    return Fitness(
        total=weighted_total(objective_terms, violation_terms, penalty_weights),
        objective_terms=objective_terms,
        violation_terms=violation_terms,
        penalty_weights=penalty_weights,
    )


# ---------------------------------------------------------------------------
# Pattern A: per-evaluation queries with memoization
# ---------------------------------------------------------------------------

@dataclass
class QueryTerm:
    """One fitness term sourced by a query template.

    The template's scalar result is multiplied by ``coefficient`` for
    objective terms; constraint terms report the raw value as the
    violation degree and ``coefficient`` is the penalty weight.
    """

    name: str
    template: QueryTemplate
    coefficient: float = 1.0
    scalars: dict = field(default_factory=dict)


@dataclass
class PatternABinding:
    """Evaluates fitness by substituting the decoded selection into
    query templates and executing them against the graph per call.

    The memo is keyed exactly on the sorted decoded indices
    (``subset_key``), so a subset already scored never touches the
    graph again.  ``missing_counts`` holds, per term, the missing
    property lookups of one execution of its template over every
    candidate: the per-node count Pattern B's materialization gives.
    """

    graph: PropertyGraph
    space: DecisionSpace
    candidates: list[int]
    objective_terms: list[QueryTerm]
    constraint_terms: list[QueryTerm] = field(default_factory=list)
    selection_param: str = "selected"
    memoize: bool = True

    evaluations: int = field(init=False, default=0)
    memo_hits: int = field(init=False, default=0)
    query_executions: int = field(init=False, default=0)

    def __post_init__(self):
        if self.space.kind != "selection":
            raise ValueError("Pattern A needs a selection space")
        if len(self.candidates) != self.space.n_candidates:
            raise ValueError("candidate list does not match the selection space")
        self._memo: dict[tuple, Fitness] = {}

    @property
    def _terms(self) -> list[QueryTerm]:
        return [*self.objective_terms, *self.constraint_terms]

    @property
    def term_sources(self) -> dict[str, tuple]:
        return {term.name: (term.name,) for term in self._terms}

    @property
    def provenance(self) -> tuple:
        """One ``"<term>: <template text>"`` line per term, as
        ``materialize`` gives for Pattern B arrays."""
        return tuple(f"{term.name}: {term.template.text}" for term in self._terms)

    @cached_property
    def missing_counts(self) -> dict[str, int]:
        return {term.name:
                self._execute(term, self.candidates).missing_property_count
                for term in self._terms}

    def _execute(self, term: QueryTerm, selected_ids: list[int]):
        query = substitute(term.template, scalars=term.scalars,
                           lists={self.selection_param: selected_ids})
        try:
            return execute(self.graph, query)
        except ExecutionError as err:
            raise ExecutionError(f"term {term.name!r}: {err}") from err

    def _run(self, term: QueryTerm, selected_ids: list[int]):
        table = self._execute(term, selected_ids)
        self.query_executions += 1
        value = table.scalar()
        if value is None or isinstance(value, (list, str)):
            raise ExecutionError(
                f"term {term.name!r}: query produced a non-numeric value {value!r}")
        return value

    def evaluate(self, x) -> Fitness:
        self.evaluations += 1
        indices = decode_selection(x, self.space)
        if self.memoize:
            key = subset_key(indices)
            cached = self._memo.get(key)
            if cached is not None:
                self.memo_hits += 1
                return cached

        selected_ids = [self.candidates[i] for i in indices]
        objective = {}
        for term in self.objective_terms:
            objective[term.name] = term.coefficient * self._run(term, selected_ids)
        violations = {}
        weights = {}
        for term in self.constraint_terms:
            violations[term.name] = float(self._run(term, selected_ids))
            weights[term.name] = term.coefficient
        fitness = assemble_fitness(objective, violations, weights)
        if self.memoize:
            self._memo[key] = fitness
        return fitness

    def evaluate_batch(self, X) -> np.ndarray:
        return _evaluate_each(self, X)


# ---------------------------------------------------------------------------
# Pattern B: startup materialization, pure evaluation
# ---------------------------------------------------------------------------

def materialize(graph: PropertyGraph, queries: Mapping[str, Query]):
    """Run startup queries and convert each to a named value array.

    Every query must return a single column with one row per candidate;
    all arrays must come out the same length.  A missing property shows
    up as a None entry plus a per-array missing count (the degeneracy
    detector's input).  Returns (arrays, missing_counts, provenance).
    """
    arrays: dict[str, tuple] = {}
    missing_counts: dict[str, int] = {}
    provenance: list[str] = []
    length: Optional[int] = None
    for name, query in queries.items():
        table = execute(graph, query)
        if len(table.columns) != 1:
            raise MaterializationError(
                f"array {name!r}: expected 1 column, got {len(table.columns)}")
        values = tuple(row[0] for row in table.rows)
        if length is None:
            length = len(values)
        elif len(values) != length:
            raise MaterializationError(
                f"array {name!r} has {len(values)} rows, expected {length}")
        arrays[name] = values
        missing_counts[name] = table.missing_property_count
        provenance.append(f"{name}: {query.text}")
    return arrays, missing_counts, tuple(provenance)


TermFn = Callable[..., tuple[dict, dict]]


@dataclass
class PatternBBinding:
    """Pure-function evaluation over arrays materialized at startup.

    ``fitness_fn(x, arrays)`` returns (objective_terms, violation_terms);
    the binding assembles the penalty-weighted total.  Arrays never
    change after construction and evaluation performs no queries.

    ``memoize`` caches fitness per decoded subset (``subset_key``), the
    memo Pattern A keeps too.  Only valid on
    selection spaces whose fitness depends on the subset alone; it
    never changes results, it just skips recomputing a seen subset.
    A subset first scored by ``evaluate_batch`` is stored as its total;
    the first ``evaluate`` of it replaces the total with the full
    ``Fitness`` (a hit) and raises ``RuntimeError`` if the two totals
    differ.
    """

    space: DecisionSpace
    arrays: Mapping[str, tuple]
    fitness_fn: TermFn
    penalty_weights: dict = field(default_factory=dict)
    provenance: tuple = ()
    missing_counts: Mapping[str, int] = field(default_factory=dict)
    # which arrays feed which term, for per-term missing-data reporting
    term_sources: Mapping[str, tuple] = field(default_factory=dict)
    memoize: bool = False
    # optional vectorized scorer for selection spaces: maps an (m, k) int
    # array of sorted index rows to the m totals evaluate() gives for
    # those subsets, bit for bit; evaluate_batch and the brute-force
    # oracle use it
    subset_totals: Optional[Callable[[np.ndarray], np.ndarray]] = None

    evaluations: int = field(init=False, default=0)
    memo_hits: int = field(init=False, default=0)
    # evaluation performs no queries; kept for the shared binding protocol
    query_executions: int = field(init=False, default=0)

    def __post_init__(self):
        if self.memoize and self.space.kind != "selection":
            raise ValueError("subset memoization needs a selection space")
        # a Fitness, or the bare total of a subset evaluate_batch scored
        self._memo: dict[tuple, Fitness | float] = {}
        frozen = {}
        for name, values in self.arrays.items():
            if isinstance(values, np.ndarray):
                values = values.copy()
                values.setflags(write=False)
            else:
                values = tuple(values)
            frozen[name] = values
        self.arrays = frozen

    def evaluate(self, x) -> Fitness:
        self.evaluations += 1
        if self.memoize:
            key = subset_key(decode_selection(x, self.space))
            cached = self._memo.get(key)
            if cached is not None:
                self.memo_hits += 1
                if type(cached) is float:
                    # scored by evaluate_batch: build the terms now, held
                    # to the vectorized total, and keep them for later hits
                    cached = self._checked_fitness(x, key, cached)
                    self._memo[key] = cached
                return cached
            objective, violations = self.fitness_fn(x, self.arrays)
            fitness = assemble_fitness(objective, violations, self.penalty_weights)
            self._memo[key] = fitness
            return fitness
        objective, violations = self.fitness_fn(x, self.arrays)
        return assemble_fitness(objective, violations, self.penalty_weights)

    def _checked_fitness(self, x, key: tuple, total: float) -> Fitness:
        objective, violations = self.fitness_fn(x, self.arrays)
        fitness = assemble_fitness(objective, violations, self.penalty_weights)
        if fitness.total != total:
            raise RuntimeError(
                f"subset {key}: subset_totals gave {total!r}, "
                f"fitness_fn gives {fitness.total!r}")
        return fitness

    def evaluate_batch(self, X) -> np.ndarray:
        """Totals of the (m, k) batch X, with the counters m calls of
        ``evaluate`` would leave.

        With the memo on and ``subset_totals``, each row is decoded
        once: clamped and truncated in numpy, where a row of k distinct
        indices sorts into its ``subset_key``; only a row with a
        repeated index goes through ``decode_selection`` for its cyclic
        rule.  Memo misses are scored in one ``subset_totals`` call and
        stored as their totals; a subset repeated within the batch is a
        miss the first time and a hit after that.  Otherwise the batch
        loops over ``evaluate``.
        """
        if self.subset_totals is None or not self.memoize:
            return _evaluate_each(self, X)
        X = _finite_rows(X)
        space = self.space
        if X.shape[1] != space.k:
            raise ValueError(f"batch rows have {X.shape[1]} coordinates, "
                             f"the space selects {space.k}")
        # clamped while still float, so a huge coordinate cannot overflow
        # the cast; this gives what int() then clamping gives per value
        top = space.n_candidates - 1
        ints = np.maximum(np.minimum(X, top), 0.0).astype(np.int64)
        ordered = np.sort(ints, axis=1)
        keys = list(map(tuple, ordered.tolist()))
        repeats = np.flatnonzero(
            (ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if repeats.size:
            rows = ints.tolist()
            for i in repeats.tolist():
                keys[i] = subset_key(decode_selection(rows[i], space))
        self.evaluations += len(keys)

        memo = self._memo
        found = [memo.get(key) for key in keys]
        # the distinct subsets neither the memo nor an earlier row scored
        new = dict.fromkeys(
            key for key, value in zip(keys, found) if value is None)
        self.memo_hits += len(keys) - len(new)
        if new:
            scored = self.subset_totals(np.array(list(new), dtype=np.int64))
            new = dict(zip(new, scored.tolist()))
        totals = _check_totals(np.array(
            [new[key] if value is None
             else value if type(value) is float else value.total
             for key, value in zip(keys, found)], dtype=np.float64))
        memo.update(new)
        return totals


@dataclass
class CallableBinding:
    """Plain function binding for tests and synthetic landscapes.

    It keeps no memo and runs no queries; its counters follow the shared
    binding protocol."""

    space: DecisionSpace
    fn: Callable[[np.ndarray], Fitness]
    evaluations: int = field(init=False, default=0)
    memo_hits: int = field(init=False, default=0)
    query_executions: int = field(init=False, default=0)

    def evaluate(self, x) -> Fitness:
        self.evaluations += 1
        return self.fn(x)

    def evaluate_batch(self, X) -> np.ndarray:
        return _evaluate_each(self, X)


def objective_only(total_fn: Callable[[np.ndarray], float],
                   name: str = "objective") -> Callable[[np.ndarray], Fitness]:
    def fn(x) -> Fitness:
        return assemble_fitness({name: float(total_fn(x))}, {}, {})
    return fn
