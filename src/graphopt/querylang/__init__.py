"""Single-hop graph query language: parse, substitute, execute."""

from .ast import (Aggregate, Binary, EdgePattern, InExpr, ListLiteral,
                  Literal, MatchPattern, NodePattern, Param, Prop, QueryAst,
                  ReturnItem, Unary, render_expr, render_query)
from .executor import (MISSING, ExecutionError, ResultTable, execute,
                       execute_floats)
from .parser import (MAX_IN_LIST, ParseError, Query, QueryTemplate,
                     SubstitutionError, parse_query, parse_template,
                     substitute)

__all__ = [
    "Aggregate", "Binary", "EdgePattern", "InExpr", "ListLiteral", "Literal",
    "MatchPattern", "NodePattern", "Param", "Prop", "QueryAst", "ReturnItem",
    "Unary", "render_expr", "render_query",
    "MISSING", "ExecutionError", "ResultTable", "execute", "execute_floats",
    "MAX_IN_LIST", "ParseError", "Query", "QueryTemplate",
    "SubstitutionError", "parse_query", "parse_template", "substitute",
]
