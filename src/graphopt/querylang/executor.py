"""Query execution against a frozen PropertyGraph.

Each template compiles once, on its first execution, into a ``Plan``:
the match source, nested closures over match rows for WHERE and RETURN,
and the column names.  The closures read bound values from a
per-execution environment, so every query bound from the template runs
the same plan.  Rows stream in deterministic order: ascending source
node id, then ascending edge id for two-element patterns.  When the
whole WHERE is ``<source var>.id IN <list>``, the plan visits only the
listed nodes instead of scanning the label; when, besides, every
RETURN item is an aggregate free of placeholders, the plan aggregates
per-node values it prepared once per graph (``Plan.by_node``).  A
missing property makes the enclosing WHERE clause non-matching and
contributes nothing to aggregates; each such lookup increments
``missing_property_count`` on the result.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from numbers import Real
from types import SimpleNamespace
from typing import Callable, Optional

from ..graph import PropertyGraph
from .ast import (Aggregate, Binary, InExpr, ListLiteral, Literal, Param,
                  Prop, QueryAst, ReturnItem, Unary, render_item)
from .parser import Query, _param_uses


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

    def column(self, name: Optional[str] = None) -> list:
        idx = 0 if name is None else self.columns.index(name)
        return [row[idx] for row in self.rows]


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

        if op in ("+", "-", "*", "/"):
            fn = {"+": operator.add, "-": operator.sub,
                  "*": operator.mul, "/": operator.truediv}[op]

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
            if op == "=":
                if not same_kind:
                    raise ExecutionError("'=' expects values of the same kind")
                return lv == rv
            if op == "<>":
                if not same_kind:
                    raise ExecutionError("'<>' expects values of the same kind")
                return lv != rv
            if not same_kind or isinstance(lv, bool):
                raise ExecutionError(
                    f"'{op}' expects two numbers or two strings")
            if op == "<":
                return lv < rv
            if op == "<=":
                return lv <= rv
            if op == ">":
                return lv > rv
            return lv >= rv
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

    When that list is a placeholder and the RETURN items are aggregates
    with no placeholder in their arguments (``by_node``), every row of a
    listed node gives the same argument values in every query.  The
    plan then keeps, per frozen graph, a table from each seek value seen
    to its node's entry (``_entry``) and combines the entries of the
    listed nodes (``aggregate_by_node``) instead of walking their rows.
    """

    def __init__(self, ast: QueryAst):
        pattern = self.pattern = ast.pattern
        slots = {pattern.src.var: 0}
        if pattern.edge is not None:
            slots[pattern.dst.var] = 2
            if pattern.edge.var:
                slots[pattern.edge.var] = 1
        compiler = _Compiler(slots=slots)
        where, self.seek = ast.where, None
        if isinstance(where, InExpr) and where.needle == Prop(pattern.src.var, "id"):
            where, self.seek = None, where.haystack
        self.where = compiler.compile(where) if where is not None else None

        items = ast.items
        self.aggregated = isinstance(items[0].value, Aggregate)
        if self.aggregated:
            self.returns = [(item.value, None if item.value.arg is None
                             else compiler.compile(item.value.arg))
                            for item in items]
        else:
            self.returns = [compiler.compile(item.value) for item in items]
        # an unaliased item with a placeholder is named after its bound
        # value, so its columns are rendered per query
        per_query = any(item.alias is None and any(_param_uses(item.value))
                        for item in items)
        self.columns = None if per_query else _columns(items)
        self.by_node = (self.aggregated and isinstance(self.seek, Param)
                        and not any(any(_param_uses(item.value)) for item in items))
        # id(graph) -> (graph, {seek value: entry or None}); holding the
        # graph keeps its id from being reused while its table lives
        self._tables: dict[int, tuple[PropertyGraph, dict]] = {}

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

    def _entry(self, graph: PropertyGraph, seek_value):
        """The entry of the node that ``seek_value`` names, or None if it
        names none: ``(node id, row count, kept values, missing
        lookups)``, where kept values holds, per RETURN item, the
        non-MISSING values of its argument in row order (``count``
        DISTINCT keeps their ``_hashable`` form).  A ``sum`` of a
        non-number raises here, where the row path would."""
        src_ids = _seek_ids(graph, self.pattern.src.label, (seek_value,))
        if not src_ids:
            return None
        env = SimpleNamespace(params={}, missing=0)
        kept = tuple([] for _ in self.returns)
        n_rows = 0
        for row in self._match(graph, src_ids):
            n_rows += 1
            for values, (agg, arg) in zip(kept, self.returns):
                if arg is None:
                    continue
                value = arg(row, env)
                if value is MISSING:
                    continue
                if agg.func == "count" and agg.distinct:
                    value = _hashable(value)
                elif agg.func == "sum" and not _is_number(value):
                    raise ExecutionError("sum expects numbers")
                values.append(value)
        return src_ids[0], n_rows, kept, env.missing

    def aggregate_by_node(self, graph: PropertyGraph, values) -> ResultTable:
        """The result of a ``by_node`` plan for the seek list ``values``.

        The listed nodes' entries are combined in ascending node id, the
        row path's order: ``sum`` adds from 0 in row order (``reduce``,
        not the builtin, which compensates float sums from Python 3.12),
        the counts add up integers, and any other aggregate runs
        ``_Acc`` over the kept values.
        """
        held = self._tables.get(id(graph))
        if held is None:
            held = self._tables[id(graph)] = (graph, {})
        table = held[1]
        chosen = {}
        for value in values:
            entry = table.get(value, table)  # the table itself: not seen yet
            if entry is table:
                entry = table[value] = self._entry(graph, value)
            if entry is not None:
                chosen[entry[0]] = entry
        entries = [chosen[nid] for nid in sorted(chosen)]
        out = []
        for j, (agg, arg) in enumerate(self.returns):
            kept = [entry[2][j] for entry in entries]
            if arg is None:
                out.append(sum(entry[1] for entry in entries))
            elif agg.func == "count":
                out.append(len(set(chain.from_iterable(kept))) if agg.distinct
                           else sum(map(len, kept)))
            elif agg.func == "sum":
                out.append(reduce(operator.add, chain.from_iterable(kept), 0))
            else:
                acc = _Acc(agg, arg)
                for value in chain.from_iterable(kept):
                    acc.add_value(value)
                out.append(acc.result())
        return ResultTable(columns=list(self.columns), rows=[tuple(out)],
                           missing_property_count=sum(entry[3] for entry in entries))


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
        if value is not MISSING:
            self.add_value(value)

    def add_value(self, value) -> None:
        """Accumulate one non-MISSING argument value."""
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
    if plan.by_node:
        try:
            return plan.aggregate_by_node(graph, query.lists[plan.seek.name])
        except ExecutionError:
            pass  # the row path raises the error it meets first in row order
    params = dict(query.scalars)
    for name, values in query.lists.items():
        params[name] = frozenset(values)
    env = SimpleNamespace(params=params, missing=0)
    where = plan.where
    if plan.aggregated:
        accs = [_Acc(agg, arg) for agg, arg in plan.returns]
        for row in plan.rows(graph, query):
            if where is not None and where(row, env) is not True:
                continue
            for acc in accs:
                acc.add(row, env)
        out_rows = [tuple(acc.result() for acc in accs)]
    else:
        out_rows = []
        for row in plan.rows(graph, query):
            if where is not None and where(row, env) is not True:
                continue
            values = tuple(g(row, env) for g in plan.returns)
            out_rows.append(tuple(None if v is MISSING else v for v in values))
    columns = (_columns(query.ast.items) if plan.columns is None
               else list(plan.columns))
    return ResultTable(columns=columns, rows=out_rows,
                       missing_property_count=env.missing)
