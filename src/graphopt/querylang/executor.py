"""Query execution against a frozen PropertyGraph.

Each template compiles once, on its first execution, into a ``Plan``:
the match source, nested closures over match rows for WHERE and RETURN,
and the column names, from the AST's row slots (``MatchPattern.slots``),
``QueryAst.aggregated`` and each item's ``param_uses``.  The closures
read bound values from a per-execution environment, so every query
bound from the template runs the same plan.  Rows stream in
deterministic order: ascending source node id, then ascending edge id
for two-element patterns.  When the whole WHERE is ``<source var>.id IN
<list>``, the plan visits only the listed nodes instead of scanning the
label.  A missing property makes the enclosing WHERE clause
non-matching and contributes nothing to aggregates; each such lookup
increments ``missing_property_count`` on the result.

``execute_floats`` answers an (m, k) integer block of m id lists as an
(m, items) float64 matrix.  When the list is a placeholder and every
RETURN item is a count or a sum free of placeholders, it folds per-node
numpy arrays (``_NodeBlock``, whose folds Pattern A's ``terms`` runs
too); every other plan runs the lists one at a time through
``execute``, which walks the match rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from numbers import Real
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from ..graph import PropertyGraph
from ..oracles import Fold, joint_fold
from .ast import (Aggregate, Binary, InExpr, ListLiteral, Literal, Param,
                  Prop, QueryAst, ReturnItem, Unary, param_uses, render_item)
from .parser import Query, QueryTemplate


class ExecutionError(ValueError):
    """Raised when a query applies an operator to unsupported types."""


class _Missing:
    __slots__ = ()

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]
    missing_property_count: int = 0

    def scalar(self):
        """The single value of a one-column, one-row result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "=": operator.eq, "<>": operator.ne,
              "<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge}


def _is_number(value) -> bool:
    # exact int and float first: the abstract-class check costs far more
    return type(value) in (int, float) or (
        isinstance(value, Real) and not isinstance(value, bool))


@dataclass
class _Compiler:
    """Compiles expressions into closures ``fn(row, env)``; ``env`` holds
    the bound values (``params``) and the missing-lookup count of one
    execution."""

    slots: dict

    def compile(self, expr) -> Callable:
        if isinstance(expr, Literal):
            value = expr.value
            return lambda row, env: value
        if isinstance(expr, Param):
            name = expr.name
            return lambda row, env: env.params[name]
        if isinstance(expr, Prop):
            slot = self.slots[expr.var]
            name = expr.name
            if name == "id":
                # reserved name: always the element's dense id, never a
                # stored property
                return lambda row, env: row[slot].id

            def get(row, env):
                value = row[slot].properties.get(name, MISSING)
                if value is MISSING:
                    env.missing += 1
                return value
            return get
        if isinstance(expr, Unary):
            inner = self.compile(expr.operand)
            if expr.op == "-":
                def neg(row, env):
                    value = inner(row, env)
                    if value is MISSING:
                        return MISSING
                    if not _is_number(value):
                        raise ExecutionError(f"cannot negate {type(value).__name__}")
                    return -value
                return neg

            def invert(row, env):
                value = inner(row, env)
                if value is MISSING:
                    return MISSING
                if not isinstance(value, bool):
                    raise ExecutionError("NOT expects a boolean")
                return not value
            return invert
        if isinstance(expr, Binary):
            return self._compile_binary(expr)
        if isinstance(expr, InExpr):
            return self._compile_in(expr)
        if isinstance(expr, ListLiteral):
            values = expr.values
            return lambda row, env: list(values)  # a fresh list per result
        raise ExecutionError(f"cannot compile {type(expr).__name__}")

    def _compile_binary(self, expr: Binary) -> Callable:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)

        if op in ("AND", "OR"):
            keep_if = op == "OR"  # short-circuit value

            def logic(row, env):
                lv = left(row, env)
                rv = right(row, env)
                for v in (lv, rv):
                    if v is not MISSING and not isinstance(v, bool):
                        raise ExecutionError(f"{op} expects booleans")
                # a known short-circuiting operand decides even if the
                # other side is missing
                if lv is keep_if or rv is keep_if:
                    return keep_if
                if lv is MISSING or rv is MISSING:
                    return MISSING
                return (lv or rv) if keep_if else (lv and rv)
            return logic

        fn = _OPERATORS[op]
        if op in ("+", "-", "*", "/"):
            def arith(row, env):
                lv = left(row, env)
                rv = right(row, env)
                if lv is MISSING or rv is MISSING:
                    return MISSING
                if not (_is_number(lv) and _is_number(rv)):
                    raise ExecutionError(
                        f"'{op}' expects numbers, got "
                        f"{type(lv).__name__} and {type(rv).__name__}")
                if op == "/" and rv == 0:
                    raise ExecutionError("division by zero")
                return fn(lv, rv)
            return arith

        # comparison operators; = and <> accept any matching scalar kind,
        # the orderings require two numbers or two strings
        def compare(row, env):
            lv = left(row, env)
            rv = right(row, env)
            if lv is MISSING or rv is MISSING:
                return MISSING
            numeric = _is_number(lv) and _is_number(rv)
            same_kind = numeric or (
                isinstance(lv, str) and isinstance(rv, str)) or (
                isinstance(lv, bool) and isinstance(rv, bool))
            if op in ("=", "<>"):
                if not same_kind:
                    raise ExecutionError(f"'{op}' expects values of the same kind")
            elif not same_kind or isinstance(lv, bool):
                raise ExecutionError(
                    f"'{op}' expects two numbers or two strings")
            return fn(lv, rv)
        return compare

    def _compile_in(self, expr: InExpr) -> Callable:
        needle = self.compile(expr.needle)
        haystack = expr.haystack
        fixed = None if isinstance(haystack, Param) else frozenset(haystack.values)

        def contains(row, env):
            value = needle(row, env)
            if value is MISSING:
                return MISSING
            members = env.params[haystack.name] if fixed is None else fixed
            try:
                return value in members
            except TypeError:
                raise ExecutionError(
                    f"IN needle must be a scalar, got {type(value).__name__}")
        return contains


def _seek_ids(graph: PropertyGraph, label: str, values) -> list[int]:
    """Ids of the listed nodes that exist and carry ``label``, ascending:
    the ids ``id IN values`` keeps.  An id equals only a bool, an int or
    an integral finite float; strings, NaN, infinities and fractions
    match nothing."""
    nodes = graph.nodes
    found = set()
    for value in values:
        if isinstance(value, str) or (
                isinstance(value, float) and not value.is_integer()):
            continue
        nid = int(value)
        if 0 <= nid < len(nodes) and label in nodes[nid].labels:
            found.add(nid)
    return sorted(found)


def _columns(items) -> list[str]:
    return [item.alias or render_item(ReturnItem(value=item.value, alias=None))
            for item in items]


class Plan:
    """A template compiled once (``QueryTemplate.plan``): the match
    source, the WHERE and RETURN closures and the column names.  The
    graph and the bound values arrive with each execution.

    A WHERE of exactly ``<source var>.id IN <list>`` is not compiled:
    the match seeks the listed ids instead.  ``id`` is never missing and
    never raises, so skipping the other nodes changes no row, aggregate
    or missing count.

    When that list is a placeholder and every RETURN item is a ``count``
    or a ``sum`` with no placeholder in its argument (``numpy_block``),
    every row of a listed node gives the same argument values in every
    query.  ``execute_floats`` then answers a block of lists from
    per-node arrays the plan builds once per frozen graph
    (``node_block``) instead of walking its rows.
    """

    def __init__(self, ast: QueryAst):
        pattern = self.pattern = ast.pattern
        compiler = _Compiler(slots=pattern.slots)
        where, self.seek = ast.where, None
        if isinstance(where, InExpr) and where.needle == Prop(pattern.src.var, "id"):
            where, self.seek = None, where.haystack
        self.where = compiler.compile(where) if where is not None else None

        items = ast.items
        if ast.aggregated:
            self.returns = [(item.value, None if item.value.arg is None
                             else compiler.compile(item.value.arg))
                            for item in items]
        else:
            self.returns = [compiler.compile(item.value) for item in items]
        # an unaliased item with a placeholder is named after its bound
        # value, so its columns are rendered per query
        per_query = any(item.alias is None and param_uses(item) for item in items)
        self.columns = None if per_query else _columns(items)
        self.numpy_block = (
            ast.aggregated and isinstance(self.seek, Param)
            and all(item.value.func in ("count", "sum")
                    and not param_uses(item) for item in items))
        # id(graph) -> (graph, _NodeBlock or None); holding the graph
        # keeps its id from being reused while its block lives
        self._blocks: dict[int, tuple[PropertyGraph, Optional[_NodeBlock]]] = {}

    def rows(self, graph: PropertyGraph, query: Query):
        if self.seek is None:
            src_ids = graph.nodes_by_label(self.pattern.src.label)
        else:
            values = (query.lists[self.seek.name] if isinstance(self.seek, Param)
                      else self.seek.values)
            src_ids = _seek_ids(graph, self.pattern.src.label, values)
        return self._match(graph, src_ids)

    def _match(self, graph: PropertyGraph, src_ids):
        """The match rows of the source nodes ``src_ids``, in order."""
        pattern = self.pattern
        nodes = graph.nodes
        if pattern.edge is None:
            for nid in src_ids:
                yield (nodes[nid],)
            return
        edge_type = pattern.edge.type
        dst_label = pattern.dst.label
        edges = graph.edges
        for nid in src_ids:
            src = nodes[nid]
            for eid in graph.out_edges(nid):
                edge = edges[eid]
                if edge.type != edge_type:
                    continue
                dst = nodes[edge.dst]
                if dst_label in dst.labels:
                    yield (src, edge, dst)

    def _entry(self, graph: PropertyGraph, nid: int):
        """Node ``nid``'s row count and kept values, where kept values
        holds, per RETURN item, the non-MISSING values of its argument
        in row order (``count(DISTINCT …)`` keeps their ``_hashable``
        form)."""
        env = SimpleNamespace(params={}, missing=0)
        kept = tuple([] for _ in self.returns)
        n_rows = 0
        for row in self._match(graph, (nid,)):
            n_rows += 1
            for values, (agg, arg) in zip(kept, self.returns):
                if arg is None:
                    continue
                value = arg(row, env)
                if value is not MISSING:
                    values.append(_hashable(value) if agg.distinct else value)
        return n_rows, kept

    def node_block(self, graph: PropertyGraph) -> Optional[_NodeBlock]:
        """The ``_NodeBlock`` of a ``numpy_block`` plan over this graph,
        built on first use; None for any other plan, or if some node's
        entry raises or holds a value the numpy sums cannot add exactly
        (the lists then run the row path)."""
        if not self.numpy_block:
            return None
        held = self._blocks.get(id(graph))
        if held is None:
            try:
                block = _NodeBlock(self, graph)
            except ExecutionError:
                block = None
            held = self._blocks[id(graph)] = (graph, block)
        return held[1]


# an int sum stays exact in float64 while every partial sum is below this
_EXACT_INT = 2 ** 53


class _NodeBlock:
    """Per-node arrays of a ``numpy_block`` plan over one graph, indexed
    by node id, with one more row (id ``len(graph.nodes)``, the pad) of
    zeros for an id that names no node of the source label.

    ``fold``, an ``oracles.Fold`` over (j, m) columns of node ids whose
    rows are sorted and distinct (the nodes and order of the row path's
    id-seek), is the plan's arithmetic, declared once: ``parts``, one
    (fold, state width) per RETURN item, side by side, and the (m, items)
    float64 values.  Per item:

    - ``count(*)`` and ``count``: an int64 running sum of per-node counts;
    - ``count(DISTINCT …)`` codes the kept values' ``_hashable`` forms
      by a dict, which assigns them with the set's equality, and gives
      each node the bit mask of its codes (``code_masks``): one uint64
      OR per mask word, whose bits ``count_bits`` counts;
    - ``sum``: a float64 running sum from 0.0 over the listed nodes'
      kept values, node by node and then value by value, each node's
      padded with 0.0 to the longest node's length.  The row path adds
      the same values in the same order from 0.  A sum from 0.0 is never
      -0.0, so adding 0.0 changes no partial sum; and the int partial
      sums equal these floats, since the kept ints sum to less than
      ``_EXACT_INT``.

    ``values`` takes any (m, k) id block: the id rule sorts each row and
    sends a repeated id, or one that names no node, to the pad.
    """

    def __init__(self, plan: Plan, graph: PropertyGraph):
        self.pad = len(graph.nodes)
        label = plan.pattern.src.label
        empty = (0, tuple(() for _ in plan.returns))  # a node of no row
        entries = [plan._entry(graph, nid) if label in node.labels else empty
                   for nid, node in enumerate(graph.nodes)]
        n_rows, node_kept = zip(*entries, empty)
        self.parts = []
        for j, (agg, arg) in enumerate(plan.returns):
            kept = [values[j] for values in node_kept]
            if agg.func == "sum":
                self.parts.append((sum_fold(self._sums(kept)), 1))
            elif agg.distinct:
                codes: dict = {}
                masks = code_masks([[codes.setdefault(v, len(codes)) for v in values]
                                    for values in kept], len(codes))
                self.parts.append((distinct_fold(masks), len(masks)))
            else:  # int counts of rows (count(*)) or of kept values
                counts = n_rows if arg is None else list(map(len, kept))
                self.parts.append((sum_fold(np.array(counts)[:, None]), 1))
        self.fold = joint_fold(self.parts, lambda values: np.array(values, dtype=np.float64).T)

    @staticmethod
    def _sums(kept):
        """The padded per-node values of a ``sum``; ExecutionError, which
        sends the plan's lists down the row path, if numpy cannot add
        them as it does."""
        values = [v for node in kept for v in node]
        if any(type(v) is not int and type(v) is not float for v in values):
            raise ExecutionError("sum of a value that is not an int or a float")
        if sum(abs(v) for v in values if type(v) is int) >= _EXACT_INT:
            raise ExecutionError("int sum too large to add exactly in float64")
        padded = np.zeros((len(kept), max(map(len, kept))))
        for nid, node in enumerate(kept):
            padded[nid, :len(node)] = node
        return padded

    def values(self, block: np.ndarray) -> np.ndarray:
        """The (m, items) float64 values of the (m, k) int64 id block:
        each RETURN item's count or sum per row, after the id rule."""
        ids = np.sort(block, axis=1)
        ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = self.pad
        # read unsigned, a negative id is past the pad too
        ids[ids.view(np.uint64) > self.pad] = self.pad
        return self.fold(ids)


def distinct_fold(masks: np.ndarray) -> Fold:
    """One uint64 OR per word of the nodes' ``code_masks``, whose bits
    ``count_bits`` counts.  An OR is exact in any order, so ``first``
    reduces each word's gather, made C-ordered for contiguous columns."""
    def step(state: tuple, col: np.ndarray) -> tuple:
        for found, word in zip(state, masks):
            found |= word[col]
        return state

    return Fold(lambda cols: tuple(np.bitwise_or.reduce(np.ascontiguousarray(word[cols]),
                                                        axis=0) for word in masks),
                step, count_bits)


def sum_fold(padded: np.ndarray) -> Fold:
    """The running sum from 0, in ``padded``'s dtype, of each node's row
    of ``padded``, value by value.  A float64 one is never -0.0."""
    slots = list(padded.T.copy())  # a 1-D table per value slot

    def step(state: tuple, col: np.ndarray) -> tuple:
        (total,) = state
        for slot in slots:
            total += slot[col]
        return state

    def first(cols: np.ndarray) -> tuple:
        total = np.zeros(cols.shape[1], dtype=padded.dtype)
        for col in cols:
            for slot in slots:
                total += slot[col]
        return (total,)

    return Fold(first, step, lambda state: state[0])


def code_masks(node_codes, n_codes: int) -> np.ndarray:
    """The (max(1, ceil(n_codes / 64)), len(node_codes)) uint64 bit
    masks of lists of codes in range(n_codes), word by word: column i
    has bit c % 64 of word c // 64 set for each code c in node_codes[i]."""
    masks = np.zeros((max(1, (n_codes + 63) // 64), len(node_codes)), dtype=np.uint64)
    for i, found in enumerate(node_codes):
        for c in found:
            masks[c // 64, i] |= np.uint64(1 << c % 64)
    return masks


def count_bits(words) -> np.ndarray:
    """The set bits of each row of per-word ORs of ``code_masks``, summed
    over the words, as int64: the number of distinct codes in the row."""
    total = np.zeros(len(words[0]), dtype=np.int64)
    for found in words:
        total += np.bitwise_count(found)
    return total


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


class _Acc:
    """Streaming accumulator for one aggregate return item."""

    __slots__ = ("func", "distinct", "arg", "count", "total", "best", "seen", "items")

    def __init__(self, agg: Aggregate, arg: Optional[Callable]):
        self.func = agg.func
        self.distinct = agg.distinct
        self.arg = arg
        self.count = 0
        self.total = 0
        self.best = None
        self.seen = set() if agg.distinct else None
        self.items: list = []

    def add(self, row, env) -> None:
        if self.arg is None:  # count(*)
            self.count += 1
            return
        value = self.arg(row, env)
        if value is MISSING:
            return
        func = self.func
        if func == "count":
            if self.distinct:
                self.seen.add(_hashable(value))
            else:
                self.count += 1
        elif func == "sum":
            if not _is_number(value):
                raise ExecutionError("sum expects numbers")
            self.total += value
        elif func == "avg":
            if not _is_number(value):
                raise ExecutionError("avg expects numbers")
            self.total += value
            self.count += 1
        elif func in ("min", "max"):
            if not (_is_number(value) or isinstance(value, str)):
                raise ExecutionError(f"{func} expects numbers or strings")
            if self.best is None:
                self.best = value
            else:
                if _is_number(value) != _is_number(self.best):
                    raise ExecutionError(f"{func} saw mixed value kinds")
                if (value < self.best) == (func == "min"):
                    self.best = value
        elif func == "collect":
            if self.distinct:
                key = _hashable(value)
                if key in self.seen:
                    return
                self.seen.add(key)
            self.items.append(value)

    def result(self):
        func = self.func
        if func == "count":
            if self.arg is None or not self.distinct:
                return self.count
            return len(self.seen)
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count if self.count else None
        if func in ("min", "max"):
            return self.best
        return list(self.items)


def execute(graph: PropertyGraph, query: Query) -> ResultTable:
    """Run a bound query and return its result table.

    Aggregate queries yield exactly one row.  Bare item queries yield
    one row per surviving match, with missing values surfaced as None.
    """
    if not isinstance(query, Query):
        raise TypeError("execute() expects a bound Query; substitute templates first")
    if not graph.frozen:
        raise ExecutionError("graph must be frozen before it can be queried")
    plan = query.template.plan
    params = dict(query.scalars)
    for name, values in query.lists.items():
        params[name] = frozenset(values)
    env = SimpleNamespace(params=params, missing=0)
    where = plan.where
    # lazy: each row's WHERE runs after the RETURN items of the row before
    rows = (row for row in plan.rows(graph, query)
            if where is None or where(row, env) is True)
    if query.template.ast.aggregated:
        accs = [_Acc(agg, arg) for agg, arg in plan.returns]
        for row in rows:
            for acc in accs:
                acc.add(row, env)
        out_rows = [tuple(acc.result() for acc in accs)]
    else:
        out_rows = []
        for row in rows:
            values = tuple(g(row, env) for g in plan.returns)
            out_rows.append(tuple(None if v is MISSING else v for v in values))
    columns = (_columns(query.ast.items) if plan.columns is None
               else list(plan.columns))
    return ResultTable(columns=columns, rows=out_rows,
                       missing_property_count=env.missing)


def execute_floats(graph: PropertyGraph, template: QueryTemplate, scalars: dict,
                   name: str, block: np.ndarray) -> np.ndarray:
    """The values of ``template`` with its ``scalars`` and each list of
    the (m, k) int64 id block bound in turn to list ``name``, as (m,
    items) float64: row i is the one row list i gives alone.  A
    ``numpy_block`` plan reads ``_NodeBlock.values``, with no query or
    table built.  Any other plan, or one whose node block could not be
    built, runs the lists one at a time through ``execute`` and reads
    each one's single row, so an error is the one the first failing list
    raises; a value that is not a number raises ExecutionError.  The
    binding is not checked (bind one list with ``substitute`` to check
    it)."""
    if not graph.frozen:
        raise ExecutionError("graph must be frozen before it can be queried")
    plan = template.plan
    node_block = plan.node_block(graph)
    if node_block is not None:
        return node_block.values(block)
    rows = []
    for ids in block.tolist():
        (row,) = execute(graph, Query(template, scalars, {name: tuple(ids)})).rows
        for value in row:
            if value is None or isinstance(value, (list, str)):
                raise ExecutionError(f"query produced a non-numeric value {value!r}")
        rows.append(row)
    # every value is an int or a float; an int past 2^53 rounds to nearest
    return np.array(rows, dtype=np.float64).reshape(
        len(block), len(template.ast.items))
