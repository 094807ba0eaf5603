"""Problem abstraction: decision spaces, fitness, and graph bindings.

A problem binds a decision space to a fitness function in one of two
ways.  Pattern A runs its query templates over the decoded selection
per evaluation.  Pattern B runs its queries once at startup, keeps the
resulting per-candidate arrays, and evaluates one ``terms`` formula
over them.  Both memoize on the same exact key, the rank of the decoded
subset (``subset_rows``, ``subset_ranks``), both report missing
properties per node, and both name the queries behind their terms in
``provenance``.

Every binding scores a population with ``evaluate_batch(X)``, which
returns the (m,) totals and advances the counters exactly as m calls of
``evaluate`` would.  Both patterns decode the batch once and score the
subsets the memo does not hold in one ``terms`` call: Pattern A folds
each term's per-node arrays over that block of subsets, Pattern B
computes in numpy over its arrays.  Either way ``evaluate`` is a batch
of one, through ``_score_runs``.  A ``CallableBinding`` loops over its
own ``evaluate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .graph import PropertyGraph
from .oracles import BRUTE_FORCE_LIMIT, Fold, joint_fold, subset_ranks
from .querylang import (ExecutionError, Query, QueryTemplate, execute,
                        execute_floats, substitute)

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


def _check_totals(totals: np.ndarray, rows=None) -> np.ndarray:
    """The totals, if all finite; ``rows`` names each one's batch row
    when they are not the whole batch in order."""
    bad = ~np.isfinite(totals)
    if bad.any():
        i = int(np.argmax(bad))
        row = i if rows is None else int(rows[i])
        raise ValueError(
            f"batch row {row} has a non-finite total {float(totals[i])!r}")
    return totals


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------

class Fitness(NamedTuple):
    """Minimization fitness with its penalty decomposition.

    An immutable ``NamedTuple``.  total is exactly
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


def assemble_fitness(objective_terms: Mapping[str, float],
                     violation_terms: Mapping[str, float],
                     penalty_weights: Mapping[str, float]) -> Fitness:
    total = 0.0
    for value in objective_terms.values():
        total += value
    for name, violation in violation_terms.items():
        if violation < 0:
            raise ValueError(f"violation term {name!r} is negative: {violation}")
        if name not in penalty_weights:
            raise ValueError(f"violation term {name!r} has no penalty weight")
        total += penalty_weights[name] * violation
    return Fitness(total, dict(objective_terms), dict(violation_terms),
                   dict(penalty_weights) if violation_terms else {})


# ---------------------------------------------------------------------------
# what both patterns share: one terms formula, its weighted sum, the memo
# ---------------------------------------------------------------------------

class _TermsBinding:
    """Evaluation over one ``terms(rows) -> (m, T)`` formula, for Pattern
    A and Pattern B alike.

    The columns are the ``term_sources`` keys in order; a column with a
    penalty weight is a violation.  A selection binding passes the (m, k)
    sorted decoded index rows, a continuous one the raw (m, d) block.
    Row i must not depend on the other rows (so no BLAS reductions):
    ``evaluate(x)`` is a batch of one, bit for bit, with the total
    ``assemble_fitness`` gives, and the runs stacked in one
    ``evaluate_runs`` batch score as they would alone.

    ``memoize`` keeps what each decoded subset scored in a float64
    array indexed by its rank (``subset_ranks``), and one seen-bitmap
    per run marks what that run has scored (``evaluate_batch`` and
    ``evaluate`` are run 0); only valid on selection spaces whose
    fitness depends on the subset alone.  A binding whose terms run
    queries keeps each subset's terms (``_memo_keeps_terms``), so a hit
    builds its ``Fitness`` without running one; the others keep the
    total alone and recompute a hit's terms in ``evaluate``.  The memo
    never changes results.  ``query_executions`` grows by
    ``_queries_per_subset`` for each subset a run scores, or for each
    row with the memo off.
    """

    _queries_per_subset = 0
    _memo_keeps_terms = False

    def _init_columns(self) -> None:
        self._columns = list(self.term_sources)
        # (column, weight or None) in the order of the total: objectives,
        # then weighted violations, each in column order (a stable sort)
        self._weighted_columns = sorted(
            ((j, self.penalty_weights.get(name))
             for j, name in enumerate(self._columns)),
            key=lambda column: column[1] is not None)
        self._violations = np.array([j for j, w in self._weighted_columns if w is not None])

    def weighted_sum(self, terms: np.ndarray, rows=None) -> np.ndarray:
        """The (m,) totals of an (m, T) ``terms`` matrix: from 0.0, each
        objective column, then weight x each violation column, in
        column order.  A negative violation raises ``ValueError`` naming
        its first row as ``_check_totals`` does, which catches a NaN; or
        naming its subset where ``rows`` is a function giving row i's."""
        if terms.shape[1] != len(self._columns):
            raise ValueError(f"terms gave {terms.shape[1]} columns for "
                             f"{len(self._columns)} terms")
        if self._violations.size and (low := terms.take(self._violations, 1)).min() < 0:
            i, j = divmod(int(np.argmax(low < 0)), low.shape[1])
            j = int(self._violations[j])
            row = (f"batch row {i}" if rows is None else
                   f"subset {rows(i)}" if callable(rows) else
                   f"batch row {int(rows[i])}")
            raise ValueError(f"{row} has a negative violation term "
                             f"{self._columns[j]!r}: {float(terms[i, j])!r}")
        total = np.zeros(terms.shape[0])
        for j, weight in self._weighted_columns:
            total += terms[:, j] if weight is None else weight * terms[:, j]
        return total

    def term_columns(self, X) -> list[tuple[str, str, np.ndarray]]:
        """(name, kind, values) of each term over the (m, d) batch X, in
        the order of a ``Fitness``: objectives, then violations, each in
        column order.  Neither the memo nor the counters are touched; a
        bad term or total raises as in ``evaluate_batch``."""
        block = self.terms(_decoded(X, self.space))
        _check_totals(self.weighted_sum(block))
        return [(self._columns[j], "objective" if weight is None else "violation",
                 block[:, j].copy())  # contiguous, as a per-term array is
                for j, weight in self._weighted_columns]

    @cached_property
    def _memo(self) -> np.ndarray:
        """Allocated on first memoized use: (C(n, k), T) terms or
        (C(n, k),) totals.  An entry is read only where a run's
        seen-bitmap is set, so it is never read before it is written."""
        size = math.comb(self.space.n_candidates, self.space.k)
        width = len(self._columns) if self._memo_keeps_terms else None
        return np.empty(size if width is None else (size, width))

    def _seen(self, runs: int) -> np.ndarray:
        """The (>= runs, C(n, k)) seen-bitmaps, row r run r's; a run that
        has not scored a subset misses it, whoever else has."""
        seen = getattr(self, "_seen_bits", None)
        if seen is None or len(seen) < runs:
            grown = np.zeros((runs, len(self._memo)), dtype=bool)
            if seen is not None:
                grown[:len(seen)] = seen
            self._seen_bits = seen = grown
        return seen

    def evaluate(self, x) -> Fitness:
        """``evaluate_batch`` of the one row x, with its ``Fitness``
        built from the terms just scored, the memo's on a hit where it
        keeps them, else from the row's terms computed again."""
        _, scored, rows, terms = self._score_runs([x], (0,))
        self._count(1, scored)
        row = (self.terms(rows) if terms is None else terms)[0]
        values = dict(zip(self._columns, row.tolist()))
        weights = self.penalty_weights
        return assemble_fitness(
            {name: v for name, v in values.items() if name not in weights},
            {name: v for name, v in values.items() if name in weights}, weights)

    def _count(self, rows: int, scored) -> None:
        """Counts ``rows`` evaluations, ``scored`` of them scored (None: all)."""
        n_scored = rows if scored is None else len(scored)
        self.evaluations += rows
        self.memo_hits += rows - n_scored
        self.query_executions += self._queries_per_subset * n_scored

    def evaluate_batch(self, X) -> np.ndarray:
        """Totals of the (m, d) batch X, with the counters m calls of
        ``evaluate`` would leave: the batch is run 0 of
        ``evaluate_runs``."""
        totals, scored, _, _ = self._score_runs(X, (0,))
        self._count(len(totals), scored)
        return totals

    def evaluate_runs(self, X, runs) -> tuple[np.ndarray, np.ndarray]:
        """Totals of the (R m, d) batch X whose R blocks of m rows belong
        to the distinct runs numbered ``runs``, and the (3, R) integer
        evaluations, memo hits and query executions of each block.

        Each run's counts are those ``evaluate_batch`` of its block gives
        on a binding that has scored only that run's earlier subsets: the
        runs share one memo of scores, and each has its own seen-bitmap.
        The binding's counters grow by the sums.
        """
        runs = np.asarray(runs, dtype=np.int64)
        if len(X) % len(runs):
            raise ValueError(f"a batch of {len(X)} rows does not split "
                             f"into {len(runs)} runs")
        totals, scored, _, _ = self._score_runs(X, runs)
        m = len(totals) // len(runs)
        counts = np.empty((3, len(runs)), dtype=np.int64)
        counts[0] = m
        counts[1] = 0 if scored is None else m - np.bincount(
            scored // m, minlength=len(runs))
        counts[2] = self._queries_per_subset * (m - counts[1])
        self._count(len(totals), scored)
        return totals, counts

    def _score_runs(self, X, runs):
        """Totals of X in ``runs``' blocks, the batch rows scored (None:
        all of them), the decoded rows, and the terms of every row, or
        of the scored rows (None: none) where the memo keeps totals.

        Each row is decoded once (``subset_rows``).  With the memo on, a
        row is scored only if its run's seen-bitmap lacks its subset, and
        a subset its run misses twice is scored at its first row only;
        all of them in one ``terms`` call, whose results are checked, then
        stored and marked seen for their runs.  With the memo off every
        row is scored.
        """
        rows = _decoded(X, self.space)
        if not self.memoize:
            terms = self.terms(rows)
            return _check_totals(self.weighted_sum(terms)), None, rows, terms
        memo, ranks = self._memo, subset_ranks(rows, self.space.n_candidates)
        if len(runs) == 1:  # the run's own bitmap, at the ranks
            (run,) = runs
            seen, at = self._seen(run + 1)[run], ranks
        else:  # all bitmaps flat, at run * C(n, k) + rank
            seen = self._seen(int(runs.max()) + 1).reshape(-1)
            at = np.repeat(runs * len(memo), len(rows) // len(runs)) + ranks
        new = missed = (~seen[at]).nonzero()[0]
        terms = None
        if missed.size:
            new_at = at[missed]
            if len(set(new_at.tolist())) < missed.size:
                # a subset a run misses twice is scored at its first row
                # only (np.unique costs more than the common case, no
                # repeat, needs)
                new = missed[np.sort(np.unique(new_at, return_index=True)[1])]
            terms = self.terms(rows[new])
            totals = _check_totals(self.weighted_sum(terms, new), new)
            memo[ranks[new]] = terms if self._memo_keeps_terms else totals
            seen[at[new]] = True
        kept = memo[ranks]
        if not self._memo_keeps_terms:
            return kept, new, rows, terms
        return self.weighted_sum(kept), new, rows, kept


# ---------------------------------------------------------------------------
# Pattern A: per-evaluation queries
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
class PatternABinding(_TermsBinding):
    """Evaluates fitness by running query templates, one value each,
    over the decoded selections against the graph.

    Each term is checked once, at construction, by one ``substitute``
    of a k-element list, and keeps its checked scalars; the candidates
    must be strictly increasing node ids.  ``terms`` is a ``Fold`` of
    the terms' node blocks over a whole block of subsets, which the
    brute-force oracle sweeps level by level.  Evaluation and the memo are
    ``_TermsBinding``'s, as Pattern B's are; each scored subset runs one
    query per term, and the memo keeps its terms, so a subset already
    scored never touches the graph again.
    ``missing_counts`` holds, per term, the missing property lookups of
    one execution of its template over every candidate: the per-node
    count Pattern B's materialization gives.
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
        if len(self.term_sources) != len(self._terms):
            raise ValueError("Pattern A term names must be distinct")
        self._bound = []  # (term, its checked scalars, its column's factor)
        for j, term in enumerate(self._terms):
            template = term.template
            if (template.block_placeholders != {self.selection_param}
                    or len(template.ast.items) != 1):
                raise ValueError(
                    f"term {term.name!r}: the template must be an aggregate query "
                    f"of one item whose one list outside RETURN is "
                    f"${self.selection_param}")
            scalars = substitute(template, scalars=term.scalars, lists={
                self.selection_param: [0] * self.space.k}).scalars
            self._bound.append((term, scalars, term.coefficient
                                if j < len(self.objective_terms) else 1.0))
        _check_memo_space(self.space, self.memoize)
        if not self._bound:  # a fold of no terms would not know its row count
            raise ValueError("Pattern A needs at least one term")
        self.penalty_weights = {term.name: term.coefficient
                                for term in self.constraint_terms}
        self._init_columns()
        ids = self._candidate_ids = np.array(self.candidates, dtype=np.int64)
        bad = np.flatnonzero((np.diff(ids, prepend=-1) <= 0) | (ids >= len(self.graph.nodes)))
        if bad.size:  # so sorted index rows give sorted distinct node ids
            raise ValueError(f"candidate {bad[0]} is {ids[bad[0]]}: the candidates must "
                             f"be strictly increasing node ids of the graph")
        self._queries_per_subset = len(self._bound)

    _memo_keeps_terms = True

    # the layer tracer wraps ``evaluate`` on each binding class
    evaluate = _TermsBinding.evaluate

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
        counts = {}
        for term, scalars, _ in self._bound:
            query = substitute(term.template, scalars=scalars,
                               lists={self.selection_param: self.candidates})
            try:
                counts[term.name] = execute(self.graph, query).missing_property_count
            except ExecutionError as err:
                raise ExecutionError(f"term {term.name!r}: {err}") from err
        return counts

    @cached_property
    def terms(self) -> Fold:
        """The (m, T) terms of (m, k) sorted index rows: a ``Fold``, built
        on first use, of each term's node-block fold (``_NodeBlock.parts``)
        or row path side by side over the rows' candidate ids.  An
        objective column is coefficient x value, a constraint column the
        raw violation (its coefficient is the penalty weight)."""
        parts = []
        for term, scalars, _ in self._bound:
            block = term.template.plan.node_block(self.graph)
            parts += block.parts if block else [(self._row_fold(term, scalars), 1)]
        factors = np.array([factor for *_, factor in self._bound])
        fold = joint_fold(parts, lambda values: np.array(values, dtype=np.float64).T * factors)
        ids = self._candidate_ids
        return Fold(lambda cols: fold.first(ids[cols]),
                    lambda state, col: fold.step(state, ids[col]), fold.finish)

    def _row_fold(self, term: QueryTerm, scalars: dict) -> Fold:
        """A term's row path as a fold over its id rows (``execute_floats``)."""
        def finish(state: tuple) -> np.ndarray:
            try:
                return execute_floats(self.graph, term.template, scalars,
                                      self.selection_param, state[0])[:, 0]
            except ExecutionError as err:
                raise ExecutionError(f"term {term.name!r}: {err}") from err

        return Fold(lambda cols: (np.ascontiguousarray(cols.T),),
                    lambda state, col: (np.column_stack([state[0], col]),), finish)


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
class PatternBBinding(_TermsBinding):
    """Pure-function evaluation over arrays materialized at startup.

    Its one formula is the ``terms`` field; evaluation and the memo are
    ``_TermsBinding``'s.  Declared as an ``oracles.Fold``, it is swept
    level by level by the brute-force oracle.  Arrays never change after
    construction and evaluation performs no queries.
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
        self._init_columns()

    # the layer tracer wraps ``evaluate`` on each binding class
    evaluate = _TermsBinding.evaluate


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
