"""Tokenizer, recursive-descent parser, and parameter substitution.

Parsing produces either a ``Query`` (no ``$`` placeholders) or a
``QueryTemplate`` (placeholders present).  Substitution checks the
bindings against the template and returns an immutable ``Query`` that
carries them by name; the AST with the values inlined as literals is
built only when someone reads it.  Every walk over the AST (the
variable check, placeholder uses, inlining) goes through the shape
table of ``ast.py``; this module keeps none of its own.
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
    param_uses,
    rebuild,
    render_query,
    subexpressions,
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
_ESCAPE_RE = re.compile(r"\\(.)")


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
            try:
                value = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], raw[1:-1])
            except KeyError:
                raise ParseError("bad string escape", text, pos) from None
            tokens.append(Token("string", value, pos))
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

    def comma_separated(self, item) -> list:
        """``item { "," item }``."""
        values = [item()]
        while self.at_op(","):
            self.advance()
            values.append(item())
        return values

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
        ast = QueryAst(pattern=pattern, where=where, items=items)
        for node in subexpressions(ast):
            if isinstance(node, Prop) and node.var not in pattern.slots:
                raise ParseError(f"unknown variable {node.var!r}",
                                 self.text, len(self.text))
        return ast

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
        pattern = MatchPattern(src, EdgePattern(edge_var, edge_type), self.node_pattern())
        if len(pattern.slots) != 2 + (edge_var is not None):
            raise self.error("duplicate variable in pattern")
        return pattern

    def node_pattern(self) -> NodePattern:
        self.expect_op("(")
        var = self.expect_ident("variable name")
        self.expect_op(":")
        label = self.expect_ident("label")
        self.expect_op(")")
        return NodePattern(var=var, label=label)

    def return_items(self) -> tuple[ReturnItem, ...]:
        items = self.comma_separated(self.return_item)
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

    def left_assoc(self, operand, *ops: str) -> Expr:
        """``operand { op operand }``, grouped to the left; ``ops`` are
        operator or keyword tokens."""
        left = operand()
        while self.at_op(*ops) or self.at_keyword(*ops):
            op = self.advance().value.upper()
            left = Binary(op, left, operand())
        return left

    def expr(self) -> Expr:
        return self.left_assoc(self.and_expr, "or")

    def and_expr(self) -> Expr:
        return self.left_assoc(self.not_expr, "and")

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
        return self.left_assoc(self.multiplicative, "+", "-")

    def multiplicative(self) -> Expr:
        return self.left_assoc(self.unary, "*", "/")

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
        values = [] if self.at_op("]") else self.comma_separated(self.literal_value)
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


class SubstitutionError(ValueError):
    """A placeholder binding does not line up with the template."""


@dataclass(frozen=True)
class QueryTemplate:
    """Parsed query text whose ``$name`` placeholders await binding.

    The template is compiled for execution once, on first use
    (``plan``); every query bound from it runs that plan.
    """

    text: str
    ast: QueryAst

    @cached_property
    def param_uses(self) -> tuple:
        return param_uses(self.ast)

    @cached_property
    def placeholders(self) -> frozenset:
        return frozenset(name for name, _ in self.param_uses)

    @cached_property
    def block_placeholders(self) -> frozenset:
        """The list placeholders ``execute_floats`` may bind to a block
        of lists: those of an aggregate query that no RETURN item uses,
        so that each list answers one row under the same columns."""
        if not self.ast.aggregated:
            return frozenset()
        in_items = {name for item in self.ast.items for name, _ in param_uses(item)}
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

        def inline(node):
            if isinstance(node, Param):
                return Literal(values[node.name])
            if isinstance(node, InExpr) and isinstance(node.haystack, Literal):
                # a Literal haystack is a list placeholder inlined just now
                return InExpr(node.needle, ListLiteral(node.haystack.value))
            return node

        return rebuild(self.template.ast, inline)

    @cached_property
    def text(self) -> str:
        return render_query(self.ast)

    def __eq__(self, other) -> bool:
        return isinstance(other, Query) and self.ast == other.ast

    def __hash__(self) -> int:
        return hash(self.ast)


def parse_template(text: str) -> QueryTemplate:
    return QueryTemplate(text=text, ast=_Parser(text).parse())


def parse_query(text: str) -> Query:
    template = parse_template(text)
    if template.placeholders:
        names = ", ".join(sorted(template.placeholders))
        raise ParseError(f"unbound placeholders: {names}", text, len(text))
    return Query(template, text=text)


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
