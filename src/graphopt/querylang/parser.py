"""Tokenizer, recursive-descent parser, and parameter substitution.

Parsing produces either a ``Query`` (no ``$`` placeholders) or a
``QueryTemplate`` (placeholders present).  Substitution checks the
bindings against the template and returns an immutable ``Query`` that
carries them by name; the AST with the values inlined as literals is
built only when someone reads it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .ast import (
    AGGREGATE_FUNCS,
    Aggregate,
    Binary,
    EdgePattern,
    Expr,
    InExpr,
    ListLiteral,
    Literal,
    MatchPattern,
    NodePattern,
    Param,
    Prop,
    QueryAst,
    ReturnItem,
    Unary,
    render_query,
)

MAX_IN_LIST = 100_000

_KEYWORDS = {"match", "where", "return", "and", "or", "not", "in", "as",
             "distinct", "true", "false"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<param>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")
  | (?P<arrow>->)
  | (?P<op><=|>=|<>|[=<>+\-*/(),.:\[\]])
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}


class ParseError(ValueError):
    """Raised for malformed query text; carries the byte offset."""

    def __init__(self, message: str, text: str, pos: int):
        self.offset = len(text[:pos].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'keyword' | 'int' | 'float' | 'string' | 'param' | 'op' | 'eof'
    value: object
    pos: int  # character offset into source text


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup
        raw = m.group()
        if kind == "ws":
            pass
        elif kind == "int":
            tokens.append(Token("int", int(raw), pos))
        elif kind == "float":
            tokens.append(Token("float", float(raw), pos))
        elif kind == "ident":
            if raw.lower() in _KEYWORDS:
                tokens.append(Token("keyword", raw.lower(), pos))
            else:
                tokens.append(Token("ident", raw, pos))
        elif kind == "param":
            tokens.append(Token("param", raw[1:], pos))
        elif kind == "string":
            body = raw[1:-1]
            out: list[str] = []
            i = 0
            while i < len(body):
                ch = body[i]
                if ch == "\\":
                    i += 1
                    if i >= len(body) or body[i] not in _ESCAPES:
                        raise ParseError("bad string escape", text, pos)
                    out.append(_ESCAPES[body[i]])
                else:
                    out.append(ch)
                i += 1
            tokens.append(Token("string", "".join(out), pos))
        elif kind == "arrow":
            tokens.append(Token("op", "->", pos))
        else:
            tokens.append(Token("op", raw, pos))
        pos = m.end()
    tokens.append(Token("eof", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token plumbing -------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.cur.pos)

    def expect_op(self, op: str) -> None:
        if self.cur.kind != "op" or self.cur.value != op:
            raise self.error(f"expected {op!r}")
        self.advance()

    def expect_keyword(self, kw: str) -> None:
        if self.cur.kind != "keyword" or self.cur.value != kw:
            raise self.error(f"expected {kw.upper()}")
        self.advance()

    def expect_ident(self, what: str) -> str:
        if self.cur.kind != "ident":
            raise self.error(f"expected {what}")
        return self.advance().value

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.value in ops

    def at_keyword(self, *kws: str) -> bool:
        return self.cur.kind == "keyword" and self.cur.value in kws

    # -- grammar ---------------------------------------------------------

    def parse(self) -> QueryAst:
        self.expect_keyword("match")
        pattern = self.pattern()
        where = None
        if self.at_keyword("where"):
            self.advance()
            where = self.expr()
        self.expect_keyword("return")
        items = self.return_items()
        if self.cur.kind != "eof":
            raise self.error("unexpected trailing input")
        self._check_variables(pattern, where, items)
        return QueryAst(pattern=pattern, where=where, items=items)

    def pattern(self) -> MatchPattern:
        src = self.node_pattern()
        if not self.at_op("-"):
            return MatchPattern(src=src)
        self.advance()
        self.expect_op("[")
        edge_var: Optional[str] = None
        if self.cur.kind == "ident":
            edge_var = self.advance().value
        self.expect_op(":")
        edge_type = self.expect_ident("relationship type")
        self.expect_op("]")
        self.expect_op("->")
        dst = self.node_pattern()
        names = [src.var, dst.var] + ([edge_var] if edge_var else [])
        if len(set(names)) != len(names):
            raise self.error("duplicate variable in pattern")
        return MatchPattern(src=src, edge=EdgePattern(edge_var, edge_type), dst=dst)

    def node_pattern(self) -> NodePattern:
        self.expect_op("(")
        var = self.expect_ident("variable name")
        self.expect_op(":")
        label = self.expect_ident("label")
        self.expect_op(")")
        return NodePattern(var=var, label=label)

    def return_items(self) -> tuple[ReturnItem, ...]:
        items = [self.return_item()]
        while self.at_op(","):
            self.advance()
            items.append(self.return_item())
        kinds = {isinstance(item.value, Aggregate) for item in items}
        if kinds == {True, False}:
            raise self.error("cannot mix aggregated and bare return items")
        return tuple(items)

    def return_item(self) -> ReturnItem:
        if (self.cur.kind == "ident"
                and self.tokens[self.i + 1].kind == "op"
                and self.tokens[self.i + 1].value == "("):
            value: Union[Aggregate, Expr] = self.aggregate()
        else:
            value = self.expr()
        alias = None
        if self.at_keyword("as"):
            self.advance()
            alias = self.expect_ident("alias")
        return ReturnItem(value=value, alias=alias)

    def aggregate(self) -> Aggregate:
        name = self.advance().value.lower()
        if name not in AGGREGATE_FUNCS:
            raise self.error(f"unknown function {name!r}")
        self.expect_op("(")
        if self.at_op("*"):
            if name != "count":
                raise self.error(f"{name}(*) is not supported")
            self.advance()
            self.expect_op(")")
            return Aggregate(func=name, arg=None)
        distinct = False
        if self.at_keyword("distinct"):
            if name not in ("count", "collect"):
                raise self.error(f"DISTINCT is not supported for {name}")
            self.advance()
            distinct = True
        arg = self.expr()
        self.expect_op(")")
        return Aggregate(func=name, arg=arg, distinct=distinct)

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.at_keyword("or"):
            self.advance()
            left = Binary("OR", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.at_keyword("and"):
            self.advance()
            left = Binary("AND", left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.at_keyword("not"):
            self.advance()
            return Unary("NOT", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        if self.at_op("=", "<>", "<", "<=", ">", ">="):
            op = self.advance().value
            return Binary(op, left, self.additive())
        if self.at_keyword("in"):
            self.advance()
            if self.cur.kind == "param":
                haystack: Union[ListLiteral, Param] = Param(self.advance().value)
            elif self.at_op("["):
                haystack = self.list_literal()
            else:
                raise self.error("IN expects a list literal or $parameter")
            return InExpr(needle=left, haystack=haystack)
        return left

    def additive(self) -> Expr:
        left = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.advance().value
            left = Binary(op, left, self.multiplicative())
        return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().value
            left = Binary(op, left, self.unary())
        return left

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            operand = self.unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return Unary("-", operand)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind in ("int", "float", "string"):
            self.advance()
            return Literal(tok.value)
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.advance()
            return Literal(tok.value == "true")
        if tok.kind == "param":
            self.advance()
            return Param(tok.value)
        if tok.kind == "ident":
            var = self.advance().value
            self.expect_op(".")
            name = self.expect_ident("property name")
            return Prop(var=var, name=name)
        if self.at_op("("):
            self.advance()
            inner = self.expr()
            self.expect_op(")")
            return inner
        if self.at_op("["):
            return self.list_literal()
        raise self.error("expected an expression")

    def list_literal(self) -> ListLiteral:
        self.expect_op("[")
        values: list = []
        if not self.at_op("]"):
            values.append(self.literal_value())
            while self.at_op(","):
                self.advance()
                values.append(self.literal_value())
        self.expect_op("]")
        return ListLiteral(values=tuple(values))

    def literal_value(self):
        negate = False
        if self.at_op("-"):
            self.advance()
            negate = True
        tok = self.cur
        if tok.kind in ("int", "float"):
            self.advance()
            return -tok.value if negate else tok.value
        if negate:
            raise self.error("expected a number after '-'")
        if tok.kind == "string":
            self.advance()
            return tok.value
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.advance()
            return tok.value == "true"
        raise self.error("list literals may only contain scalar literals")

    def _check_variables(self, pattern: MatchPattern, where, items) -> None:
        bound = {pattern.src.var}
        if pattern.edge is not None:
            bound.add(pattern.dst.var)
            if pattern.edge.var:
                bound.add(pattern.edge.var)

        def walk(expr) -> None:
            if isinstance(expr, Prop):
                if expr.var not in bound:
                    raise ParseError(f"unknown variable {expr.var!r}",
                                     self.text, len(self.text))
            elif isinstance(expr, Unary):
                walk(expr.operand)
            elif isinstance(expr, Binary):
                walk(expr.left)
                walk(expr.right)
            elif isinstance(expr, InExpr):
                walk(expr.needle)

        if where is not None:
            walk(where)
        for item in items:
            value = item.value
            if isinstance(value, Aggregate):
                if value.arg is not None:
                    walk(value.arg)
            else:
                walk(value)


class SubstitutionError(ValueError):
    """A placeholder binding does not line up with the template."""


def _param_uses(expr):
    """(name, is_list) for each placeholder under ``expr``, in the order
    substitution checks them: an IN haystack before its needle."""
    if isinstance(expr, Param):
        yield expr.name, False
    elif isinstance(expr, Unary):
        yield from _param_uses(expr.operand)
    elif isinstance(expr, Binary):
        yield from _param_uses(expr.left)
        yield from _param_uses(expr.right)
    elif isinstance(expr, InExpr):
        if isinstance(expr.haystack, Param):
            yield expr.haystack.name, True
        yield from _param_uses(expr.needle)
    elif isinstance(expr, Aggregate) and expr.arg is not None:
        yield from _param_uses(expr.arg)


def _query_param_uses(ast: QueryAst) -> tuple:
    exprs = ([] if ast.where is None else [ast.where]) + [i.value for i in ast.items]
    return tuple(use for expr in exprs for use in _param_uses(expr))


@dataclass(frozen=True)
class QueryTemplate:
    """Parsed query text whose ``$name`` placeholders await binding.

    The template is compiled for execution once, on first use
    (``plan``); every query bound from it runs that plan.
    """

    text: str
    ast: QueryAst
    placeholders: frozenset[str]

    @cached_property
    def param_uses(self) -> tuple:
        return _query_param_uses(self.ast)

    @cached_property
    def block_placeholders(self) -> frozenset:
        """The list placeholders ``execute_floats`` may bind to a block
        of lists: those of an aggregate query that no RETURN item uses,
        so that each list answers one row under the same columns."""
        items = self.ast.items
        if not isinstance(items[0].value, Aggregate):
            return frozenset()
        in_items = {name for item in items for name, _ in _param_uses(item.value)}
        return frozenset(name for name, is_list in self.param_uses
                         if is_list and name not in in_items)

    @cached_property
    def plan(self):
        from .executor import Plan  # the executor imports this module
        return Plan(self.ast)


class Query:
    """A fully bound, executable query: a template plus the values bound
    to its placeholders.

    Execution runs the template's plan with these values.  The
    literal-inlined ``ast`` and its rendered ``text`` are built only when
    read; a query from ``parse_query`` keeps its source text.  Equality
    and hashing compare the ``ast``.
    """

    def __init__(self, template: QueryTemplate, scalars: Optional[dict] = None,
                 lists: Optional[dict] = None, text: Optional[str] = None):
        self.template = template
        self.scalars = scalars or {}
        self.lists = lists or {}
        if text is not None:
            self.text = text

    @cached_property
    def ast(self) -> QueryAst:
        values = {**self.scalars, **self.lists}

        def inline(expr):
            if isinstance(expr, Param):
                return Literal(values[expr.name])
            if isinstance(expr, Unary):
                return Unary(expr.op, inline(expr.operand))
            if isinstance(expr, Binary):
                return Binary(expr.op, inline(expr.left), inline(expr.right))
            if isinstance(expr, InExpr):
                haystack = expr.haystack
                if isinstance(haystack, Param):
                    haystack = ListLiteral(values=values[haystack.name])
                return InExpr(needle=inline(expr.needle), haystack=haystack)
            if isinstance(expr, Aggregate) and expr.arg is not None:
                return Aggregate(expr.func, inline(expr.arg), expr.distinct)
            return expr

        ast = self.template.ast
        return QueryAst(
            pattern=ast.pattern,
            where=inline(ast.where) if ast.where is not None else None,
            items=tuple(ReturnItem(inline(item.value), item.alias) for item in ast.items))

    @cached_property
    def text(self) -> str:
        return render_query(self.ast)

    def __eq__(self, other) -> bool:
        return isinstance(other, Query) and self.ast == other.ast

    def __hash__(self) -> int:
        return hash(self.ast)


def parse_query(text: str) -> Query:
    ast = _Parser(text).parse()
    params = {name for name, _ in _query_param_uses(ast)}
    if params:
        names = ", ".join(sorted(params))
        raise ParseError(f"unbound placeholders: {names}", text, len(text))
    return Query(QueryTemplate(text=text, ast=ast, placeholders=frozenset()),
                 text=text)


def parse_template(text: str) -> QueryTemplate:
    ast = _Parser(text).parse()
    placeholders = frozenset(name for name, _ in _query_param_uses(ast))
    return QueryTemplate(text=text, ast=ast, placeholders=placeholders)


_SCALAR_TYPES = (str, int, float, bool)


def _check_scalar(name: str, value):
    """The bound scalar, a numpy scalar as its Python value."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, _SCALAR_TYPES):
        return value
    raise TypeError(f"${name}: scalar placeholder bound to {type(value).__name__}")


def _check_list(name: str, values):
    """The bound list as a tuple of Python scalars (a 1-D ndarray as its
    ``tolist()``)."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise TypeError(f"${name}: list placeholder bound to a "
                            f"{values.ndim}-d array")
        values = values.tolist()
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise TypeError(f"${name}: list placeholder bound to {type(values).__name__}")
    out = tuple(v.item() if isinstance(v, np.generic) else v for v in values)
    if len(out) > MAX_IN_LIST:
        raise SubstitutionError(
            f"${name}: IN list has {len(out)} elements (limit {MAX_IN_LIST})")
    for v in out:
        if not isinstance(v, _SCALAR_TYPES):
            raise TypeError(f"${name}: IN list elements must be scalars")
    return out


def substitute(template: QueryTemplate, scalars: Optional[dict] = None,
               lists: Optional[dict] = None) -> Query:
    """Bind every placeholder in ``template`` and return a runnable Query.

    ``scalars`` maps names to scalar values, ``lists`` maps names to
    sequences (allowed only where the placeholder follows IN).  A
    numpy scalar binds as its ``item()`` and a 1-D ndarray as its
    ``tolist()``, so the bound text renders Python values.  Every
    placeholder must be bound exactly once; unknown or doubly bound
    names raise SubstitutionError, and a binding of the wrong kind
    raises TypeError.
    """
    scalars = dict(scalars or {})
    lists = dict(lists or {})
    both = set(scalars) & set(lists)
    if both:
        raise SubstitutionError(
            "bound as both scalar and list: " + ", ".join(sorted(both)))
    provided = set(scalars) | set(lists)
    missing = template.placeholders - provided
    if missing:
        raise SubstitutionError("unbound placeholders: " + ", ".join(sorted(missing)))
    extra = provided - template.placeholders
    if extra:
        raise SubstitutionError("unknown placeholders: " + ", ".join(sorted(extra)))

    scalars = {name: _check_scalar(name, v) for name, v in scalars.items()}
    checked_lists = {name: _check_list(name, v) for name, v in lists.items()}
    for name, is_list in template.param_uses:
        if is_list and name in scalars:
            raise TypeError(f"${name}: scalar bound where a list is expected")
        if not is_list and name in checked_lists:
            raise TypeError(f"${name}: list bound where a scalar is expected")
    return Query(template, scalars, checked_lists)
