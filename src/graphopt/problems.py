"""Problem abstraction: decision spaces, fitness, and graph bindings.

A problem binds a decision space to a fitness function in one of two
ways.  Pattern A substitutes the decoded selection into query templates
and executes them per evaluation.  Pattern B runs its queries once at
startup, keeps the resulting per-candidate arrays, and evaluates one
``terms`` formula over them.  Both memoize on the same exact key, the
rank of the decoded subset (``subset_rows``, ``subset_ranks``), both
report missing properties per node, and both name the queries behind
their terms in ``provenance``.

Every binding scores a population with ``evaluate_batch(X)``, which
returns the (m,) totals and advances the counters exactly as m calls of
``evaluate`` would.  A Pattern A binding decodes the batch once and runs
its queries for each subset the memo does not hold; a Pattern B binding
scores the batch in numpy through its ``terms``.  Either way
``evaluate`` is a batch of one.  A ``CallableBinding`` loops over its
own ``evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .graph import PropertyGraph
from .oracles import BRUTE_FORCE_LIMIT, subset_ranks
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


def subset_rows(X: np.ndarray, space: DecisionSpace) -> np.ndarray:
    """The sorted ``decode_selection`` of every row of a finite (m, k)
    batch, as an (m, k) int64 array.  The cyclic rule is linear probing,
    whose filled set does not depend on insertion order, so a running
    maximum over each sorted row gives it (SOLVERS.md, "Selection
    decode")."""
    n, j = space.n_candidates, np.arange(space.k)
    # clamped while still float, so a huge coordinate cannot overflow
    # the cast; this gives what int() then clamping gives per value
    s = np.maximum(np.minimum(X, n - 1), 0.0).astype(np.int64)
    s.sort(axis=1)
    c = np.maximum.accumulate(s - j, axis=1) + j
    if (c >= n).any():
        # past n - 1 an index wraps to 0; k <= n, so this cannot overflow
        c[c >= n] = 0
        c = np.maximum.accumulate(np.sort(c, axis=1) - j, axis=1) + j
    return c


def _check_memo_space(space: DecisionSpace, memoize: bool) -> None:
    if memoize and space.kind != "selection":
        raise ValueError("subset memoization needs a selection space")
    size = math.comb(space.n_candidates, space.k) if memoize else 0
    if size > BRUTE_FORCE_LIMIT:
        raise ValueError(f"subset memoization needs C(n, k) <= "
                         f"{BRUTE_FORCE_LIMIT}, this space has {size}")


def _finite_rows(X) -> np.ndarray:
    """The batch as a C-ordered float (m, d) array; a NaN or infinite
    coordinate raises, since flooring it to an index would hide it.
    (numpy sums a row of a column-major block, as the solver's are, in
    another order than the row alone.)"""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"a batch is an (m, d) array, got shape {X.shape}")
    if not np.isfinite(X).all():
        row = int(np.argmax(~np.isfinite(X).all(axis=1)))
        raise ValueError(f"batch row {row} has a non-finite coordinate: "
                         f"{X[row].tolist()}")
    return X


def _decoded(X, space: DecisionSpace) -> np.ndarray:
    """The finite batch checked against the space; on a selection space,
    its ``subset_rows``."""
    X = _finite_rows(X)
    width = space.k if space.kind == "selection" else space.dim
    if X.shape[1] != width:
        raise ValueError(f"batch rows have {X.shape[1]} coordinates, "
                         f"the space has {width}")
    return subset_rows(X, space) if space.kind == "selection" else X


def _check_totals(totals: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(totals)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(
            f"batch row {row} has a non-finite total {float(totals[row])!r}")
    return totals


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
    def feasible(self) -> bool:
        return all(v == 0 for v in self.violation_terms.values())


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
    total = 0.0
    for value in objective_terms.values():
        total += value
    for name, violation in violation_terms.items():
        if violation < 0:
            raise ValueError(f"violation term {name!r} is negative: {violation}")
        if name not in penalty_weights:
            raise ValueError(f"violation term {name!r} has no penalty weight")
        total += penalty_weights[name] * violation
    return _new_fitness(Fitness, (total, dict(objective_terms),
                                  dict(violation_terms), dict(penalty_weights)))


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
    """Evaluates fitness by substituting each decoded selection into
    query templates and executing them against the graph.

    The memo maps the rank of each decoded subset (``subset_ranks``)
    to its ``Fitness``, so a subset already scored never touches the
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
        _check_memo_space(self.space, self.memoize)
        self._memo: dict[int, Fitness] = {}

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

    def _fitness(self, selected_ids: list[int]) -> Fitness:
        objective = {}
        for term in self.objective_terms:
            objective[term.name] = term.coefficient * self._run(term, selected_ids)
        violations = {}
        weights = {}
        for term in self.constraint_terms:
            violations[term.name] = float(self._run(term, selected_ids))
            weights[term.name] = term.coefficient
        return assemble_fitness(objective, violations, weights)

    def _scored(self, X):
        """The ``Fitness`` of each row of the batch X, decoded once
        (``subset_rows``), as a generator: a long batch, such as an
        oracle chunk with the memo off, keeps no ``Fitness`` alive.
        Rows are walked in order: with the memo on, a subset it holds is
        a hit, and any other is scored and stored, so a subset repeated
        within the batch is a miss the first time and a hit after that."""
        rows = _decoded(X, self.space)
        self.evaluations += len(rows)
        candidates = self.candidates
        memo = self._memo if self.memoize else None
        ranks = ([None] * len(rows) if memo is None
                 else subset_ranks(rows, self.space.n_candidates).tolist())
        for row, rank in zip(rows.tolist(), ranks):
            fit = None if memo is None else memo.get(rank)
            if fit is None:
                fit = self._fitness([candidates[i] for i in row])
                if memo is not None:
                    memo[rank] = fit
            else:
                self.memo_hits += 1
            yield fit

    def evaluate(self, x) -> Fitness:
        """``evaluate_batch`` of the one row x, with its ``Fitness``."""
        (fit,) = self._scored(np.asarray(x, dtype=np.float64)[None])
        _check_totals(np.array([fit.total]))
        return fit

    def evaluate_batch(self, X) -> np.ndarray:
        """Totals of the (m, k) batch X, with the counters m calls of
        ``evaluate`` would leave; each scored subset runs every term's
        query once."""
        return _check_totals(np.array([fit.total for fit in self._scored(X)],
                                      dtype=np.float64))


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


@dataclass
class PatternBBinding:
    """Pure-function evaluation over arrays materialized at startup.

    Its one formula is ``terms(rows) -> (m, T)``.  Its columns are the
    ``term_sources`` keys in order; a column with a penalty weight is a
    violation.  A selection binding passes the (m, k) sorted decoded
    index rows, a continuous one the raw (m, d) block.  Row i must not
    depend on the other rows (so no BLAS reductions): ``evaluate(x)`` is
    a batch of one, bit for bit, with the total ``assemble_fitness``
    gives.  Arrays never change after construction and evaluation
    performs no queries.

    ``memoize`` keeps each decoded subset's total in a float64 array
    indexed by its rank (``subset_ranks``), NaN for "not scored"; only
    valid on selection spaces whose fitness depends on the subset alone.
    It never changes results.
    """

    space: DecisionSpace
    arrays: Mapping[str, tuple]
    terms: Callable[[np.ndarray], np.ndarray]
    penalty_weights: dict = field(default_factory=dict)
    provenance: tuple = ()
    missing_counts: Mapping[str, int] = field(default_factory=dict)
    # which arrays feed which term, for per-term missing-data reporting;
    # also the names of the ``terms`` columns
    term_sources: Mapping[str, tuple] = field(default_factory=dict)
    memoize: bool = False

    evaluations: int = field(init=False, default=0)
    memo_hits: int = field(init=False, default=0)
    # evaluation performs no queries; kept for the shared binding protocol
    query_executions: int = field(init=False, default=0)

    def __post_init__(self):
        _check_memo_space(self.space, self.memoize)
        frozen = {}
        for name, values in self.arrays.items():
            if isinstance(values, np.ndarray):
                values = values.copy()
                values.setflags(write=False)
            else:
                values = tuple(values)
            frozen[name] = values
        self.arrays = frozen
        self._columns = list(self.term_sources)
        # (column, weight or None) in the order of the total: objectives,
        # then weighted violations, each in column order (a stable sort)
        self._weighted_columns = sorted(
            ((j, self.penalty_weights.get(name))
             for j, name in enumerate(self._columns)),
            key=lambda column: column[1] is not None)

    def weighted_sum(self, terms: np.ndarray) -> np.ndarray:
        """The (m,) totals of an (m, T) ``terms`` matrix: from 0.0, each
        objective column, then weight x each violation column, in
        column order."""
        if terms.shape[1] != len(self._columns):
            raise ValueError(f"terms gave {terms.shape[1]} columns for "
                             f"{len(self._columns)} terms")
        total = np.zeros(terms.shape[0])
        for j, weight in self._weighted_columns:
            total += terms[:, j] if weight is None else weight * terms[:, j]
        return total

    @cached_property
    def _memo(self) -> np.ndarray:
        """Allocated on first memoized use."""
        return np.full(math.comb(self.space.n_candidates, self.space.k), np.nan)

    def evaluate(self, x) -> Fitness:
        """``evaluate_batch`` of the one row x, with its ``Fitness``
        built from the row's terms."""
        rows = _decoded(np.asarray(x, dtype=np.float64)[None], self.space)
        terms = dict(zip(self._columns, self.terms(rows)[0].tolist()))
        weights = self.penalty_weights
        fitness = assemble_fitness(
            {name: v for name, v in terms.items() if name not in weights},
            {name: v for name, v in terms.items() if name in weights}, weights)
        _check_totals(np.array([fitness.total]))
        self.evaluations += 1
        if self.memoize:
            (rank,) = subset_ranks(rows, self.space.n_candidates)
            memo = self._memo
            if np.isnan(memo[rank]):
                memo[rank] = fitness.total
            else:
                self.memo_hits += 1
        return fitness

    def evaluate_batch(self, X) -> np.ndarray:
        """Totals of the (m, d) batch X, with the counters m calls of
        ``evaluate`` would leave.

        Each row is decoded once (``subset_rows``).  With the memo on,
        only the rows whose subsets the memo does not hold are scored, in
        one ``terms`` call, and their totals stored; a subset repeated
        within the batch is a miss the first time and a hit after that.
        """
        rows = _decoded(X, self.space)
        self.evaluations += len(rows)
        if not self.memoize:
            return _check_totals(self.weighted_sum(self.terms(rows)))

        memo, ranks = self._memo, subset_ranks(rows, self.space.n_candidates)
        totals = memo[ranks]
        missed = np.isnan(totals).nonzero()[0]
        # one miss per distinct subset the memo lacks: a repeat within
        # the batch scores to the same bits, so it counts as a hit
        self.memo_hits += len(rows) - len(set(ranks[missed].tolist()))
        if missed.size:
            totals[missed] = self.weighted_sum(self.terms(rows[missed]))
            _check_totals(totals)
            memo[ranks[missed]] = totals[missed]
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
        """The batch as m calls of ``evaluate``, in row order."""
        return _check_totals(np.array(
            [self.evaluate(x).total for x in _finite_rows(X)], dtype=np.float64))
