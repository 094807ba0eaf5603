"""AST node types for the mini query language, their shape, and
canonical rendering.

The grammar is a single-hop subset of the Cypher family: one MATCH
pattern, an optional WHERE expression, and a RETURN list that is either
all-aggregate or all-bare.  See QUERYLANG.md for the EBNF and semantics.

``_SUBEXPRESSIONS`` declares, once, which fields of each node type hold
a sub-expression.  Every walk over a query reads it: ``subexpressions``
(the variable check, placeholder uses, a term's properties), ``rebuild``
(inlining bound values) and ``param_uses``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

AGGREGATE_FUNCS = ("count", "sum", "min", "max", "avg", "collect")


@dataclass(frozen=True)
class Prop:
    """Property access ``var.name``; ``id`` resolves to the element id."""
    var: str
    name: str


@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class ListLiteral:
    values: tuple


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # '-' or 'NOT'
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / AND OR = <> < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class InExpr:
    needle: "Expr"
    haystack: Union[ListLiteral, Param]


Expr = Union[Prop, Literal, ListLiteral, Param, Unary, Binary, InExpr]


@dataclass(frozen=True)
class Aggregate:
    func: str
    arg: Optional[Expr]  # None only for count(*)
    distinct: bool = False


@dataclass(frozen=True)
class ReturnItem:
    value: Union[Aggregate, Expr]
    alias: Optional[str] = None


@dataclass(frozen=True)
class NodePattern:
    var: str
    label: str


@dataclass(frozen=True)
class EdgePattern:
    var: Optional[str]
    type: str


@dataclass(frozen=True)
class MatchPattern:
    src: NodePattern
    edge: Optional[EdgePattern] = None
    dst: Optional[NodePattern] = None

    @property
    def slots(self) -> dict:
        """Each pattern variable -> its position in a match row (source
        0, edge 1, destination 2); a repeated name keeps one entry."""
        names = (self.src.var, self.edge and self.edge.var, self.dst and self.dst.var)
        return {name: i for i, name in enumerate(names) if name}


@dataclass(frozen=True)
class QueryAst:
    pattern: MatchPattern
    where: Optional[Expr]
    items: tuple[ReturnItem, ...]

    @property
    def aggregated(self) -> bool:
        """Whether the RETURN items are aggregates (they all are, or none)."""
        return isinstance(self.items[0].value, Aggregate)


# The fields of each node type that hold a sub-expression (a tuple field
# holds several), in walk order: an IN haystack before its needle, the
# order substitution checks placeholders in.  A type not listed has none.
_SUBEXPRESSIONS = {
    Unary: ("operand",), Binary: ("left", "right"),
    InExpr: ("haystack", "needle"), Aggregate: ("arg",),
    ReturnItem: ("value",), QueryAst: ("where", "items"),
}


def subexpressions(node):
    """``node`` and every node under it, depth first, each before its
    sub-expressions and those in ``_SUBEXPRESSIONS`` order.  A
    ``QueryAst`` yields its WHERE, then each RETURN item."""
    yield node
    for field in _SUBEXPRESSIONS.get(type(node), ()):
        value = getattr(node, field)
        for child in value if isinstance(value, tuple) else (value,):
            if child is not None:
                yield from subexpressions(child)


def rebuild(node, fn):
    """``fn`` of a copy of ``node`` whose sub-expressions are rebuilt
    first, bottom up."""
    fields = {}
    for field in _SUBEXPRESSIONS.get(type(node), ()):
        value = getattr(node, field)
        if isinstance(value, tuple):
            fields[field] = tuple(rebuild(v, fn) for v in value)
        elif value is not None:
            fields[field] = rebuild(value, fn)
    return fn(replace(node, **fields))


def param_uses(node) -> tuple:
    """(name, is_list) for each placeholder under ``node``, in walk
    order; ``is_list`` marks an IN haystack, the node the walk yields
    right after its ``InExpr``."""
    uses, after_in = [], False
    for n in subexpressions(node):
        if isinstance(n, Param):
            uses.append((n.name, after_in))
        after_in = isinstance(n, InExpr)
    return tuple(uses)


def _render_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    return repr(value)


def render_expr(expr: Expr) -> str:
    if isinstance(expr, Prop):
        return f"{expr.var}.{expr.name}"
    if isinstance(expr, Literal):
        return _render_value(expr.value)
    if isinstance(expr, ListLiteral):
        return "[" + ", ".join(_render_value(v) for v in expr.values) + "]"
    if isinstance(expr, Param):
        return f"${expr.name}"
    if isinstance(expr, Unary):
        if expr.op == "NOT":
            return f"NOT ({render_expr(expr.operand)})"
        return f"-{render_expr(expr.operand)}"
    if isinstance(expr, Binary):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, InExpr):
        return f"{render_expr(expr.needle)} IN {render_expr(expr.haystack)}"
    raise TypeError(f"not an expression node: {expr!r}")


def render_item(item: ReturnItem) -> str:
    value = item.value
    if isinstance(value, Aggregate):
        if value.arg is None:
            inner = "*"
        else:
            inner = ("DISTINCT " if value.distinct else "") + render_expr(value.arg)
        text = f"{value.func}({inner})"
    else:
        text = render_expr(value)
    if item.alias:
        text += f" AS {item.alias}"
    return text


def render_query(ast: QueryAst) -> str:
    pat = ast.pattern
    text = f"MATCH ({pat.src.var}:{pat.src.label})"
    if pat.edge is not None:
        edge_var = pat.edge.var or ""
        text += f"-[{edge_var}:{pat.edge.type}]->({pat.dst.var}:{pat.dst.label})"
    if ast.where is not None:
        text += f" WHERE {render_expr(ast.where)}"
    text += " RETURN " + ", ".join(render_item(item) for item in ast.items)
    return text
