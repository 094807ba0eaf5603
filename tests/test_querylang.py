"""Query language: parse errors with offsets, substitution, execution
semantics (aggregates, missing properties, DISTINCT), the brute-force
filter-equivalence property, the id-seek against a label scan, and
``execute_floats`` of a block of lists against the lists run alone."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphopt.graph import PropertyGraph
from graphopt.querylang import (MISSING, MAX_IN_LIST, Aggregate, Binary,
                                EdgePattern, ExecutionError, InExpr,
                                ListLiteral, Literal, MatchPattern,
                                NodePattern, Param, ParseError, Prop, QueryAst,
                                ResultTable, ReturnItem, SubstitutionError,
                                Unary, execute, execute_floats, parse_query,
                                parse_template, render_query, substitute)
from graphopt.problems import PatternABinding, QueryTerm, selection_space
from graphopt.querylang import ast as ast_module
from graphopt.querylang import executor
from graphopt.querylang.ast import subexpressions
from graphopt.rng import SeededRng


def drug_gene_graph():
    """3 drugs with side_effect_count {4, 2, 7}; two share a target gene."""
    g = PropertyGraph()
    d0 = g.add_node({"Drug"}, {"side_effect_count": 4})
    d1 = g.add_node({"Drug"}, {"side_effect_count": 2})
    d2 = g.add_node({"Drug"}, {"side_effect_count": 7})
    g0 = g.add_node({"Gene"}, {"symbol": "TP53"})
    g1 = g.add_node({"Gene"}, {"symbol": "EGFR"})
    g.add_edge(d0, "TARGETS", g0, {})
    g.add_edge(d1, "TARGETS", g1, {})
    g.add_edge(d2, "TARGETS", g0, {})  # d0 and d2 hit the same gene
    g.freeze()
    return g, (d0, d1, d2), (g0, g1)


# ---- parsing ----

def test_parse_single_node_template():
    t = parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected "
        "RETURN sum(d.side_effect_count)")
    assert t.placeholders == frozenset({"selected"})


def test_parse_two_hop_template():
    t = parse_template(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE d.id IN $selected "
        "RETURN count(DISTINCT g.id)")
    assert t.placeholders == frozenset({"selected"})
    assert t.ast.pattern.edge is not None


def test_parse_error_carries_byte_offset():
    bad = "MATCH (d:Drug RETURN"
    with pytest.raises(ParseError) as err:
        parse_query(bad)
    assert err.value.offset is not None
    assert 0 <= err.value.offset <= len(bad)


def test_unknown_aggregate_rejected():
    with pytest.raises(ParseError):
        parse_query("MATCH (a:A) RETURN median(a.x)")


def test_empty_text_rejected():
    with pytest.raises(ParseError):
        parse_query("")


def test_render_round_trip():
    text = ("MATCH (d:Drug)-[:TARGETS]->(g:Gene) "
            "WHERE d.id IN [1, 2, 3] AND d.n > 4 "
            "RETURN count(DISTINCT g.id)")
    q = parse_query(text)
    assert parse_query(render_query(q.ast)).ast == q.ast


# ---- the front end pinned: one text per production, one per error ----

def _node_query(where, *items, edge=None):
    """A ``MATCH (a:A)`` query (``edge`` = (var, type) adds ``->(b:B)``)
    returning the (value, alias) pairs or bare values ``items``."""
    pattern = (MatchPattern(NodePattern("a", "A")) if edge is None else
               MatchPattern(NodePattern("a", "A"), EdgePattern(*edge),
                            NodePattern("b", "B")))
    return QueryAst(pattern, where, tuple(
        ReturnItem(*i) if isinstance(i, tuple) else ReturnItem(i) for i in items))


_X, _Y, _Z = Prop("a", "x"), Prop("a", "y"), Prop("a", "z")

WELL_FORMED = [
    ("MATCH (a:A) RETURN a.x", _node_query(None, _X)),
    ("MATCH (a:A)-[:R]->(b:B) RETURN b.y",
     _node_query(None, Prop("b", "y"), edge=(None, "R"))),
    ("MATCH (a:A)-[e:R]->(b:B) RETURN e.w, a.id",
     _node_query(None, Prop("e", "w"), Prop("a", "id"), edge=("e", "R"))),
    ("match (a:A) where a.p or a.q or a.r Return a.x",
     _node_query(Binary("OR", Binary("OR", Prop("a", "p"), Prop("a", "q")),
                        Prop("a", "r")), _X)),
    ("MATCH (a:A) WHERE a.p OR a.q AND NOT a.r RETURN a.x",
     _node_query(Binary("OR", Prop("a", "p"),
                        Binary("AND", Prop("a", "q"), Unary("NOT", Prop("a", "r")))),
                 _X)),
    ("MATCH (a:A) WHERE (a.p OR a.q) AND a.r AND a.s RETURN a.x",
     _node_query(Binary("AND", Binary("AND", Binary("OR", Prop("a", "p"), Prop("a", "q")),
                                      Prop("a", "r")), Prop("a", "s")), _X)),
    ("MATCH (a:A) WHERE NOT NOT a.x = 1 RETURN a.x",
     _node_query(Unary("NOT", Unary("NOT", Binary("=", _X, Literal(1)))), _X)),
    *[(f"MATCH (a:A) WHERE a.x {op} a.y + 1 RETURN a.x",
       _node_query(Binary(op, _X, Binary("+", _Y, Literal(1))), _X))
      for op in ("=", "<>", "<", "<=", ">", ">=")],
    ("MATCH (a:A) RETURN a.x - a.y - a.z, a.x + a.y * a.z, (a.x + a.y) * a.z",
     _node_query(None, Binary("-", Binary("-", _X, _Y), _Z),
                 Binary("+", _X, Binary("*", _Y, _Z)),
                 Binary("*", Binary("+", _X, _Y), _Z))),
    ("MATCH (a:A) RETURN a.x / a.y * a.z, a.x * -a.y",
     _node_query(None, Binary("*", Binary("/", _X, _Y), _Z),
                 Binary("*", _X, Unary("-", _Y)))),
    ("MATCH (a:A) RETURN -3, -2.5, - -4, -(5), 1e3, true, false",
     _node_query(None, Literal(-3), Literal(-2.5), Literal(4), Literal(-5),
                 Literal(1000.0), Literal(True), Literal(False))),
    ("MATCH (a:A) WHERE a.x IN [1, -2, 2.5, 'u', true] AND a.id IN $s "
     "RETURN a.x",
     _node_query(Binary("AND", InExpr(_X, ListLiteral((1, -2, 2.5, "u", True))),
                        InExpr(Prop("a", "id"), Param("s"))), _X)),
    ("MATCH (a:A) WHERE a.x IN [] AND a.y > $k RETURN a.x",
     _node_query(Binary("AND", InExpr(_X, ListLiteral(())),
                        Binary(">", _Y, Param("k"))), _X)),
    ("MATCH (a:A) RETURN count(*), count(a.x), COUNT(DISTINCT a.x), sum(a.x), "
     "min(a.x), max(a.x), avg(a.x), collect(a.x), collect(DISTINCT a.x + 1)",
     _node_query(None, Aggregate("count", None), Aggregate("count", _X),
                 Aggregate("count", _X, True), Aggregate("sum", _X),
                 Aggregate("min", _X), Aggregate("max", _X), Aggregate("avg", _X),
                 Aggregate("collect", _X),
                 Aggregate("collect", Binary("+", _X, Literal(1)), True))),
    ("MATCH (a:A) RETURN a.x AS first, a.y, a.z as third",
     _node_query(None, (_X, "first"), _Y, (_Z, "third"))),
    ("MATCH (a:A) RETURN count(*) AS n",
     _node_query(None, (Aggregate("count", None), "n"))),
    ("MATCH (a:A) WHERE a.s = 'it\\'s\\\\ \\n\\t\\\"' OR a.s = \"q\\\"\\'\" "
     "RETURN a.x",
     _node_query(Binary("OR", Binary("=", Prop("a", "s"), Literal("it's\\ \n\t\"")),
                        Binary("=", Prop("a", "s"), Literal("q\"'"))), _X)),
]


@pytest.mark.parametrize("text, ast", WELL_FORMED)
def test_well_formed_text_parses_to_its_ast(text, ast):
    got = parse_template(text).ast
    # repr too: Literal(1) == Literal(True) == Literal(1.0)
    assert got == ast and repr(got) == repr(ast)


MALFORMED = [
    ("MATCH (a:A)-[:R]->(a:B) RETURN a.x", "duplicate variable in pattern", 24),
    ("MATCH (a:A)-[b:R]->(b:B) RETURN a.x", "duplicate variable in pattern", 25),
    ("MATCH (a:A)-[a:R]->(b:B) RETURN a.x", "duplicate variable in pattern", 25),
    ("MATCH (a:A) WHERE b.x > 1 RETURN a.x", "unknown variable 'b'", 36),
    ("MATCH (a:A)-[e:R]->(b:B) RETURN count(c.x)", "unknown variable 'c'", 42),
    ("MATCH (a:A) WHERE a.s = 'é' RETURN c.x, d.y", "unknown variable 'c'", 44),
    ("MATCH (a:A) WHERE a.s = 'x\\q' RETURN a.x", "bad string escape", 24),
    ("MATCH (a:A) WHERE a.s = 'é' OR a.s = 'x\\q' RETURN a.x",
     "bad string escape", 38),
    ("MATCH (a:A) WHERE a.s = '\\\\\\q' RETURN a.x", "bad string escape", 24),
    ("MATCH (a:A) RETURN count(*), a.x",
     "cannot mix aggregated and bare return items", 32),
    ("MATCH (a:A) RETURN a.x, sum(a.x)",
     "cannot mix aggregated and bare return items", 32),
    ("MATCH (a:A) RETURN a.x a.y", "unexpected trailing input", 23),
    ("MATCH (a:A) WHERE a.x IN [1, -'x'] RETURN a.x",
     "expected a number after '-'", 30),
    ("MATCH (a:A) WHERE a.x IN [1, -] RETURN a.x",
     "expected a number after '-'", 30),
    ("MATCH (a:A) RETURN median(a.x)", "unknown function 'median'", 25),
    ("MATCH (a:A) RETURN sum(*)", "sum(*) is not supported", 23),
    ("MATCH (a:A) RETURN sum(DISTINCT a.x)", "DISTINCT is not supported for sum", 23),
    ("MATCH (a:A) WHERE a.x IN a.y RETURN a.x",
     "IN expects a list literal or $parameter", 25),
    ("MATCH (a:A) WHERE a.x IN [a.y] RETURN a.x",
     "list literals may only contain scalar literals", 26),
    ("MATCH (a:A) WHERE RETURN a.x", "expected an expression", 18),
    ("MATCH (a:A) RETURN a.x ; ", "unexpected character ';'", 23),
    ("MATCH (é:A RETURN a.x", "unexpected character 'é'", 7),
    ("MATCH (a:A) WHERE a.x > $k RETURN a.x", "unbound placeholders: k", 37),
    ("", "expected MATCH", 0),
]


@pytest.mark.parametrize("text, message, offset", MALFORMED)
def test_malformed_text_raises_its_error_at_its_offset(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse_query(text)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


# ---- the shape table: every walk sees every expression field ----

_EXPR_NAMES = re.compile(
    r"\b(Expr|Prop|Literal|ListLiteral|Param|Unary|Binary|InExpr|Aggregate|ReturnItem)\b")


def test_subexpressions_yields_every_expression_field_in_walk_order():
    """One instance of every AST node type, each field whose annotation
    admits an expression holding one: ``subexpressions`` yields the node,
    then exactly those fields' values (and their walks) in walk order.  A
    node type or field added later and left out of the shape table fails
    here instead of being skipped by substitution, the variable check or
    inlining."""
    p, q, r, hay = Prop("a", "p"), Prop("a", "q"), Prop("a", "r"), Param("h")
    first, second = ReturnItem(q), ReturnItem(r, "r")
    cases = [  # (node, its expression fields' values in walk order)
        (Prop("a", "x"), []), (Literal(1), []), (ListLiteral((1, "u")), []),
        (Param("k"), []), (NodePattern("a", "A"), []), (EdgePattern("e", "R"), []),
        (MatchPattern(NodePattern("a", "A"), EdgePattern("e", "R"),
                      NodePattern("b", "B")), []),
        (Unary("-", p), [p]),
        (Binary("+", p, q), [p, q]),
        (InExpr(p, hay), [hay, p]),  # the haystack first, as substitution checks
        (Aggregate("count", p, True), [p]),
        (ReturnItem(p, "x"), [p]),
        (QueryAst(MatchPattern(NodePattern("a", "A")), p, (first, second)),
         [p, first, second]),
    ]
    node_types = {t for t in vars(ast_module).values()
                  if isinstance(t, type) and dataclasses.is_dataclass(t)}
    assert {type(node) for node, _ in cases} == node_types
    for node, children in cases:
        held = []
        for field in dataclasses.fields(node):
            if _EXPR_NAMES.search(field.type):
                value = getattr(node, field.name)
                held.extend(value if isinstance(value, tuple) else [value])
        assert None not in held
        assert sorted(map(id, held)) == sorted(map(id, children))
        assert list(subexpressions(node)) == [
            node, *(n for child in children for n in subexpressions(child))]


# ---- substitution ----

def test_list_substitution_inlines_literal():
    t = parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected RETURN count(*)")
    q = substitute(t, lists={"selected": [3, 17, 42]})
    assert "[3, 17, 42]" in render_query(q.ast)


def test_scalar_substitution():
    t = parse_template("MATCH (x:N) WHERE x.n > $k RETURN count(*)")
    q = substitute(t, scalars={"k": 5})
    assert "5" in render_query(q.ast)


def test_unbound_placeholder_raises():
    t = parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected RETURN count(*)")
    with pytest.raises(SubstitutionError, match="selected"):
        substitute(t)


def test_list_bound_as_scalar_rejected():
    t = parse_template("MATCH (x:N) WHERE x.n > $k RETURN count(*)")
    with pytest.raises(TypeError):
        substitute(t, scalars={"k": [1, 2]})


def test_list_placeholder_outside_in_rejected():
    t = parse_template("MATCH (x:N) WHERE x.n > $k RETURN count(*)")
    with pytest.raises(TypeError):
        substitute(t, lists={"k": [1, 2]})


def test_scalar_placeholder_as_in_haystack_rejected():
    t = parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected RETURN count(*)")
    with pytest.raises(TypeError, match="scalar bound where a list"):
        substitute(t, scalars={"selected": 3})


@pytest.mark.parametrize("ndim", [0, 2, 3])
def test_array_of_other_ndim_rejected_by_name(ndim):
    """Only a 1-D array binds a list placeholder; any other, a block of
    lists too, names the placeholder and the ndim."""
    t = parse_template("MATCH (x:N) WHERE x.id IN $sel RETURN count(*)")
    with pytest.raises(TypeError, match=rf"^\$sel: list placeholder bound to "
                                        rf"a {ndim}-d array$"):
        substitute(t, lists={"sel": np.zeros((1,) * ndim, dtype=np.int64)})


def test_in_list_cap():
    t = parse_template("MATCH (x:N) WHERE x.id IN $s RETURN count(*)")
    with pytest.raises(SubstitutionError):
        substitute(t, lists={"s": list(range(MAX_IN_LIST + 1))})


def test_substitution_leaves_template_reusable():
    t = parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected RETURN count(*)")
    a = substitute(t, lists={"selected": [0]})
    b = substitute(t, lists={"selected": [1, 2]})
    assert render_query(a.ast) != render_query(b.ast)


# ---- execution ----

def test_sum_over_selection():
    g, drugs, _ = drug_gene_graph()
    t = parse_template(
        "MATCH (d:Drug) WHERE d.id IN $sel RETURN sum(d.side_effect_count)")
    q = substitute(t, lists={"sel": [drugs[0], drugs[2]]})
    assert execute(g, q).scalar() == 11


def test_count_distinct_shared_gene():
    g, drugs, _ = drug_gene_graph()
    t = parse_template(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE d.id IN $sel "
        "RETURN count(DISTINCT g.id)")
    q = substitute(t, lists={"sel": [drugs[0], drugs[2]]})
    assert execute(g, q).scalar() == 1  # same gene counted once


def test_empty_aggregate_conventions():
    g, _, _ = drug_gene_graph()
    base = "MATCH (d:Drug) WHERE d.id IN [] RETURN "
    assert execute(g, parse_query(base + "sum(d.side_effect_count)")).scalar() == 0
    assert execute(g, parse_query(base + "count(*)")).scalar() == 0
    for agg in ("min", "max", "avg"):
        got = execute(g, parse_query(base + f"{agg}(d.side_effect_count)")).scalar()
        assert got is None


def test_missing_property_fails_filter_and_counts():
    g = PropertyGraph()
    g.add_node({"N"}, {"x": 1})
    g.add_node({"N"}, {})  # no x
    g.add_node({"N"}, {"x": 5})
    g.freeze()
    table = execute(g, parse_query("MATCH (a:N) WHERE a.x > 0 RETURN count(*)"))
    assert table.scalar() == 2
    assert table.missing_property_count == 1


def test_missing_property_in_aggregate_contributes_nothing():
    g = PropertyGraph()
    g.add_node({"N"}, {"x": 3})
    g.add_node({"N"}, {})
    g.freeze()
    table = execute(g, parse_query("MATCH (a:N) RETURN sum(a.x)"))
    assert table.scalar() == 3
    assert table.missing_property_count == 1


def test_bare_expression_rows_and_row_order():
    g, drugs, _ = drug_gene_graph()
    table = execute(g, parse_query(
        "MATCH (d:Drug) WHERE d.side_effect_count > 1 "
        "RETURN d.id, d.side_effect_count"))
    assert table.columns == ["d.id", "d.side_effect_count"]
    assert table.rows == [(0, 4), (1, 2), (2, 7)]  # ascending node id


def test_collect_distinct():
    g, drugs, genes = drug_gene_graph()
    table = execute(g, parse_query(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) RETURN collect(DISTINCT g.id)"))
    assert sorted(table.scalar()) == sorted(set(genes))


def test_arithmetic_and_boolean_operators():
    g = PropertyGraph()
    g.add_node({"N"}, {"a": 2, "b": 3.0})
    g.freeze()
    assert execute(g, parse_query(
        "MATCH (x:N) WHERE x.a * 2 + 1 = 5 AND NOT x.b < 1 "
        "RETURN count(*)")).scalar() == 1
    assert execute(g, parse_query(
        "MATCH (x:N) WHERE x.a > 5 OR x.b >= 3 RETURN count(*)")).scalar() == 1


def test_int_float_comparison_coerces():
    g = PropertyGraph()
    g.add_node({"N"}, {"a": 2})
    g.freeze()
    assert execute(g, parse_query(
        "MATCH (x:N) WHERE x.a = 2.0 RETURN count(*)")).scalar() == 1


def test_type_mismatch_comparison_errors():
    g = PropertyGraph()
    g.add_node({"N"}, {"a": "text"})
    g.freeze()
    with pytest.raises(ExecutionError):
        execute(g, parse_query("MATCH (x:N) WHERE x.a < 3 RETURN count(*)"))


def test_avg_returns_float():
    g = PropertyGraph()
    g.add_node({"N"}, {"v": 1})
    g.add_node({"N"}, {"v": 2})
    g.freeze()
    assert execute(g, parse_query(
        "MATCH (x:N) RETURN avg(x.v)")).scalar() == pytest.approx(1.5)


def test_execution_is_pure():
    g, drugs, _ = drug_gene_graph()
    before = [(n.id, dict(n.properties)) for n in g.nodes]
    execute(g, parse_query("MATCH (d:Drug) RETURN count(*)"))
    assert [(n.id, dict(n.properties)) for n in g.nodes] == before


def test_execute_requires_frozen_graph():
    g = PropertyGraph()
    g.add_node({"N"}, {})
    with pytest.raises(ExecutionError):
        execute(g, parse_query("MATCH (x:N) RETURN count(*)"))
    template = parse_template("MATCH (x:N) WHERE x.id IN $sel RETURN count(*)")
    for block in (np.zeros((0, 1), dtype=np.int64), np.array([[0]])):
        with pytest.raises(ExecutionError, match="frozen"):
            execute_floats(g, template, {}, "sel", block)


def test_determinism():
    g, _, _ = drug_gene_graph()
    q = parse_query(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) RETURN d.id, g.id")
    assert execute(g, q) == execute(g, q)


def test_in_substitution_equals_manual_filter():
    """IN-substituted query == brute-force membership filter, row for row,
    on random graphs up to 100 nodes."""
    rng = SeededRng(31)
    template = parse_template(
        "MATCH (d:D) WHERE d.id IN $sel RETURN d.id, d.v")
    for _ in range(20):
        g = PropertyGraph()
        n = rng.integer(2, 101)
        values = []
        for i in range(n):
            v = rng.integer(0, 50)
            g.add_node({"D"}, {"v": v})
            values.append(v)
        g.freeze()
        sel = rng.sample(n, rng.integer(1, n + 1))
        got = execute(g, substitute(template, lists={"sel": sel}))
        want = [(i, values[i]) for i in sorted(sel)]
        assert got.rows == want


def test_scalar_requires_1x1():
    g, _, _ = drug_gene_graph()
    table = execute(g, parse_query("MATCH (d:Drug) RETURN d.id"))
    with pytest.raises(ExecutionError):
        table.scalar()


# ---- bound queries read back as literal text ----

def test_substitute_output_unchanged():
    """Reading a bound query's ``ast`` and ``text`` gives the values
    inlined as literals, and its column names carry them too."""
    t = parse_template(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE d.id IN $selected "
        "AND g.score >= $min RETURN count(DISTINCT g.id) AS covered, "
        "sum(g.score + $bonus)")
    q = substitute(t, scalars={"min": 0.5, "bonus": -2},
                   lists={"selected": [3, 17.0, True, "x"]})
    assert q.text == (
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE (d.id IN "
        "[3, 17.0, true, 'x'] AND (g.score >= 0.5)) RETURN "
        "count(DISTINCT g.id) AS covered, sum((g.score + -2))")
    assert q.ast == parse_query(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE d.id IN "
        "[3, 17.0, true, 'x'] AND g.score >= 0.5 RETURN "
        "count(DISTINCT g.id) AS covered, sum(g.score + -2)").ast
    assert parse_query(q.text) == q
    g, _, _ = drug_gene_graph()
    assert execute(g, q).columns == ["covered", "sum((g.score + -2))"]


_scalars = st.one_of(st.integers(-10**6, 10**6), st.booleans(), st.text(max_size=6),
                     st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(sel=st.lists(_scalars, max_size=6), k=_scalars)
def test_bound_query_text_is_a_parse_fixed_point(sel, k):
    t = parse_template(
        "MATCH (x:N) WHERE x.id IN $sel AND x.n <> $k RETURN count(*)")
    q = substitute(t, scalars={"k": k}, lists={"sel": sel})
    again = parse_query(q.text)
    assert again.ast == q.ast
    assert render_query(again.ast) == q.text


@pytest.mark.parametrize("k, sel, python_k, python_sel", [
    (np.float64(0.5), np.array([0., 1.]), 0.5, (0.0, 1.0)),
    (np.int64(3), np.array([0, 1]), 3, (0, 1)),
    (np.bool_(True), [np.int32(2), np.float32(0.5), np.str_("x")], True, (2, 0.5, "x")),
])
def test_numpy_values_bind_as_python_values(k, sel, python_k, python_sel):
    t = parse_template(
        "MATCH (x:N) WHERE x.id IN $sel AND x.n <> $k RETURN count(*)")
    q = substitute(t, scalars={"k": k}, lists={"sel": sel})
    assert q == substitute(t, scalars={"k": python_k}, lists={"sel": python_sel})
    assert type(q.scalars["k"]) is type(python_k)
    assert [type(v) for v in q.lists["sel"]] == [type(v) for v in python_sel]
    again = parse_query(q.text)
    assert again.ast == q.ast
    assert render_query(again.ast) == q.text


# ---- id-seek equals a label scan ----

# ids the seek must match (ints, bools, integral floats) or skip
# (negative and out-of-range ids, fractions, strings, NaN, infinities)
_id_values = st.one_of(
    st.integers(-3, 30), st.integers(-3, 30).map(float), st.booleans(),
    st.sampled_from([2.5, -0.0, 1e20, math.nan, math.inf, -math.inf]),
    st.text(max_size=2))


@st.composite
def _labelled_graphs(draw, properties=st.sampled_from([{}, {"v": 1}, {"v": 4}])):
    g = PropertyGraph()
    n = draw(st.integers(1, 25))
    for _ in range(n):
        labels = draw(st.sampled_from([{"D"}, {"G"}, {"D", "G"}]))
        g.add_node(labels, draw(properties))
    for _ in range(draw(st.integers(0, 3 * n))):
        g.add_edge(draw(st.integers(0, n - 1)), draw(st.sampled_from(["R", "S"])),
                   draw(st.integers(0, n - 1)), {})
    return g.freeze()


SEEK_ONE = parse_template("MATCH (d:D) WHERE d.id IN $sel RETURN d.id, d.v")
SEEK_TWO = parse_template(
    "MATCH (d:D)-[e:R]->(g:G) WHERE d.id IN $sel RETURN d.id, e.id, g.v")


@settings(max_examples=200, deadline=None)
@given(g=_labelled_graphs(), sel=st.lists(_id_values, max_size=12))
def test_id_seek_equals_label_scan(g, sel):
    members = frozenset(sel)
    kept = [nid for nid in g.nodes_by_label("D") if nid in members]

    rows = [(nid, g.nodes[nid].properties.get("v")) for nid in kept]
    want_one = ResultTable(["d.id", "d.v"], rows, sum(r[-1] is None for r in rows))
    rows = [(nid, eid, g.nodes[g.edges[eid].dst].properties.get("v"))
            for nid in kept for eid in g.out_edges(nid)
            if g.edges[eid].type == "R" and "G" in g.nodes[g.edges[eid].dst].labels]
    want_two = ResultTable(["d.id", "e.id", "g.v"], rows,
                           sum(r[-1] is None for r in rows))

    for template, want in ((SEEK_ONE, want_one), (SEEK_TWO, want_two)):
        query = substitute(template, lists={"sel": sel})
        assert execute(g, query) == want
        if all(not isinstance(v, float) or math.isfinite(v) for v in sel):
            assert execute(g, parse_query(query.text)) == want  # literal list


# ---- a block of lists read as float64 equals its lists run alone ----

# int and non-integral float values (so the summation order shows in the
# bits), list values for the DISTINCT forms, and nodes lacking either
_node_properties = st.fixed_dictionaries({}, optional={
    "v": st.sampled_from([1, 4, -2, 0.1, 0.7, 1e16, -3.25]),
    "w": st.sampled_from([[1, 2], [2, 1], [], ["a"], [0.5]])})

# every item a count or a sum: answered in numpy
_BLOCK_AGGREGATES = ("count(*), count({x}.v), count(DISTINCT {x}.v), "
                     "sum({x}.v), count(DISTINCT {x}.w)")
BLOCK_ONE = parse_template(
    "MATCH (d:D) WHERE d.id IN $sel RETURN " + _BLOCK_AGGREGATES.format(x="d"))
BLOCK_TWO = parse_template(
    "MATCH (d:D)-[e:R]->(g:G) WHERE d.id IN $sel RETURN "
    + _BLOCK_AGGREGATES.format(x="g"))
# avg, min and max keep a plan off the numpy route; an empty list gives None
_ROW_AGGREGATES = "count(*), sum({x}.v), avg({x}.v), min({x}.v), max({x}.v)"
BY_NODE_ONE = parse_template(
    "MATCH (d:D) WHERE d.id IN $sel RETURN " + _ROW_AGGREGATES.format(x="d"))
BY_NODE_TWO = parse_template(
    "MATCH (d:D)-[e:R]->(g:G) WHERE d.id IN $sel RETURN "
    + _ROW_AGGREGATES.format(x="g"))


def _row_path(template):
    """The template compiled again, with its numpy route turned off."""
    twin = parse_template(template.text)
    twin.plan.numpy_block = False
    return twin


def _lists_alone(g, template, block):
    """Each list of the block run alone by ``execute`` on the row path,
    its one row read as float64: the (m, items) matrix, or the message of
    the first list that raises or gives a value that is not a number."""
    rows = []
    for ids in block.tolist():
        try:
            (row,) = execute(g, substitute(_row_path(template),
                                           lists={"sel": ids})).rows
        except ExecutionError as err:
            return str(err)
        for value in row:
            if type(value) not in (int, float):
                return f"query produced a non-numeric value {value!r}"
        rows.append(np.array(row, dtype=np.float64))
    return np.array(rows).reshape(len(block), len(template.ast.items))


def _assert_floats_equal_lists(g, template, block):
    """``execute_floats`` of the block, on the numpy route and on the row
    path, is its lists run alone (``_lists_alone``), bit for bit, or
    raises the first failing list's error."""
    want = _lists_alone(g, template, block)
    for route in (template, _row_path(template)):
        if isinstance(want, str):
            with pytest.raises(ExecutionError) as got:
                execute_floats(g, route, {}, "sel", block)
            assert str(got.value) == want
            continue
        got = execute_floats(g, route, {}, "sel", block)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (got, want)


def _two_groups():
    """Two D nodes with two R edges each, to G values whose float sum
    differs between row order and per-node partial sums."""
    g = PropertyGraph()
    d0, d1 = g.add_node({"D"}, {}), g.add_node({"D"}, {})
    for src, v in ((d0, 1e16), (d0, 1.0), (d1, 1.0), (d1, 1.0)):
        g.add_edge(src, "R", g.add_node({"G"}, {"v": v}), {})
    return g.freeze()


# m lists of one length k, ids with repeats, ids that name no node and
# ids at both ends of int64
_id_blocks = st.integers(0, 6).flatmap(lambda k: st.lists(
    st.lists(st.one_of(st.integers(-3, 30), st.sampled_from([2 ** 63 - 1, -2 ** 63])),
             min_size=k, max_size=k),
    min_size=1, max_size=4).map(lambda sels: np.array(sels, dtype=np.int64)
                                .reshape(len(sels), k)))


@settings(max_examples=200, deadline=None)
@example(g=_two_groups(), block=np.array([[0, 1]]))
@example(g=_two_groups(), block=np.array([[1, 2 ** 63 - 1, -2 ** 63], [1, 0, 1]]))
@given(g=_labelled_graphs(_node_properties), block=_id_blocks)
def test_node_table_equals_row_path(g, block):
    """The numpy route's float64 values equal the row path's, ids at
    both ends of int64 included."""
    for template in (BLOCK_ONE, BLOCK_TWO):
        assert template.plan.numpy_block
        got = execute_floats(g, template, {}, "sel", block)
        want = execute_floats(g, _row_path(template), {}, "sel", block)
        assert got.tobytes() == want.tobytes(), (got, want)
        assert template.plan.node_block(g) is not None  # numpy answered it


def test_node_table_only_for_placeholder_free_aggregates():
    numpy_block = {text: parse_template(text).plan.numpy_block for text in (
        "MATCH (d:D) WHERE d.id IN $sel RETURN sum(d.v), count(*)",
        "MATCH (d:D) WHERE d.id IN $sel RETURN d.v",
        "MATCH (d:D) WHERE d.id IN $sel RETURN sum(d.v + $k)",
        "MATCH (d:D) WHERE d.id IN $sel AND d.v > 0 RETURN sum(d.v)",
        "MATCH (d:D) WHERE d.id IN [1, 2] RETURN sum(d.v)",
        "MATCH (d:D) WHERE d.id IN $sel RETURN sum(d.v), avg(d.v)")}
    assert list(numpy_block.values()) == [True, False, False, False, False, False]


def test_node_table_raises_the_row_path_error_every_time():
    g = PropertyGraph()
    g.add_node({"D"}, {"v": 1, "w": "a"})
    g.add_node({"D"}, {"v": 2, "w": 3})
    g.add_node({"D"}, {"v": "x"})
    g.freeze()
    cases = (
        # the row path meets the mixed min at node 1 before the text sum at 2
        ("RETURN min(d.w), sum(d.v)", [0, 1, 2], "min saw mixed value kinds"),
        ("RETURN sum(d.v)", [2, 0], "sum expects numbers"),
    )
    for items, sel, message in cases:
        template = parse_template(f"MATCH (d:D) WHERE d.id IN $sel {items}")
        reference = _row_path(template)
        with pytest.raises(ExecutionError) as want:
            execute(g, substitute(reference, lists={"sel": sel}))
        assert str(want.value) == message
        for _ in range(2):  # a second run raises the same error
            with pytest.raises(ExecutionError) as got:
                execute_floats(g, template, {}, "sel", np.array([sel]))
            assert str(got.value) == message
    template = parse_template("MATCH (d:D) WHERE d.id IN $sel RETURN sum(d.v)")
    assert execute_floats(g, template, {}, "sel", np.array([[0, 1]])).tolist() == [[3.0]]


# scanning plans: the WHERE holds more than the id seek
SCAN_ONE = parse_template(
    "MATCH (d:D) WHERE d.id IN $sel AND d.v > 0 RETURN "
    + _BLOCK_AGGREGATES.format(x="d"))
SCAN_TWO = parse_template(
    "MATCH (d:D)-[e:R]->(g:G) WHERE d.id IN $sel AND g.v > 0 RETURN "
    + _BLOCK_AGGREGATES.format(x="g"))


def _signed_zeros():
    """Two D nodes whose values are -0.0: the row path's sum, from the
    integer 0, reads 0.0."""
    g = PropertyGraph()
    for _ in range(2):
        d = g.add_node({"D"}, {"v": -0.0})
        g.add_edge(d, "R", g.add_node({"G"}, {"v": -0.0}), {})
    return g.freeze()


@settings(max_examples=200, deadline=None)
@example(g=_two_groups(), block=np.array([[0, 1]]))
@example(g=_two_groups(), block=np.array([[1, 0, 1, 7, -1]]))
@example(g=_two_groups(), block=np.zeros((3, 0), dtype=np.int64))
@example(g=_signed_zeros(), block=np.array([[0, 2], [0, 0], [5, 5]]))
@given(g=_labelled_graphs(_node_properties), block=_id_blocks)
def test_block_equals_lists_run_one_at_a_time(g, block):
    for template in (BLOCK_ONE, BLOCK_TWO):
        assert template.plan.numpy_block
        _assert_floats_equal_lists(g, template, block)
        assert template.plan.node_block(g) is not None  # numpy answered it
    # avg, min and max run the lists one at a time down the row path
    for template in (BY_NODE_ONE, BY_NODE_TWO):
        assert not template.plan.numpy_block
        _assert_floats_equal_lists(g, template, block)


@pytest.mark.parametrize("n_values", [65, 129, 200])
def test_block_count_distinct_over_several_mask_words(n_values):
    """count(DISTINCT …) over 2, 3 and 4 words of code bits, for a
    small block and one past a solver population, equals the lists."""
    rng = np.random.default_rng(n_values)
    g = PropertyGraph()
    for i in range(n_values):
        g.add_node({"D"}, {"v": i, "w": [i % 7]})
    for i in range(n_values):  # node i reaches value i, and up to two more
        for v in [i, *rng.integers(0, n_values, rng.integers(0, 3))]:
            g.add_edge(i, "R", g.add_node({"G"}, {"v": int(v), "w": [v % 5]}), {})
    g.freeze()
    for m in (7, 150):
        block = rng.integers(-2, n_values + 3, size=(m, 12))
        for template in (BLOCK_ONE, BLOCK_TWO):
            _assert_floats_equal_lists(g, template, block)
            assert template.plan.node_block(g) is not None


@settings(max_examples=100, deadline=None)
@example(g=_two_groups(), block=np.array([[0, 1], [1, 1]]))
@given(g=_labelled_graphs(_node_properties), block=_id_blocks)
def test_block_on_a_scanning_plan_equals_lists(g, block):
    for template in (SCAN_ONE, SCAN_TWO):
        assert not template.plan.numpy_block
        _assert_floats_equal_lists(g, template, block)


def test_block_raises_the_row_path_error_every_time():
    g = PropertyGraph()
    g.add_node({"D"}, {"v": 1, "w": "a"})
    g.add_node({"D"}, {"v": 2, "w": 3})
    g.add_node({"D"}, {"v": "x"})
    g.freeze()
    cases = (
        ("RETURN min(d.w), sum(d.v)", [[0, 1, 2]], "min saw mixed value kinds"),
        ("RETURN sum(d.v)", [[2, 0]], "sum expects numbers"),
        # the first list is fine; the second raises
        ("RETURN sum(d.v), count(*)", [[0, 1], [2, 0]], "sum expects numbers"),
        # the first list, of no node, gives a non-number; the second raises
        ("RETURN min(d.w), sum(d.v)", [[7, 7], [0, 1]],
         "query produced a non-numeric value None"),
    )
    for items, block, message in cases:
        template = parse_template(f"MATCH (d:D) WHERE d.id IN $sel {items}")
        assert _lists_alone(g, template, np.array(block)) == message
        for _ in range(2):  # a second run raises the same error
            with pytest.raises(ExecutionError) as got:
                execute_floats(g, template, {}, "sel", np.array(block))
            assert str(got.value) == message
    # node 2 keeps this graph off the numpy route; its lists still answer
    template = parse_template("MATCH (d:D) WHERE d.id IN $sel RETURN sum(d.v), count(*)")
    assert template.plan.node_block(g) is None
    block = np.array([[0, 1], [1, 0]])
    _assert_floats_equal_lists(g, template, block)
    assert execute_floats(g, template, {}, "sel", block).tolist() == [[3, 2], [3, 2]]


def test_block_of_ints_float64_cannot_add_runs_list_by_list():
    g = PropertyGraph()
    g.add_node({"D"}, {"v": 2 ** 53})
    g.add_node({"D"}, {"v": 1})
    g.freeze()
    template = parse_template("MATCH (d:D) WHERE d.id IN $sel RETURN sum(d.v)")
    block = np.array([[0, 1], [1, 1]])
    _assert_floats_equal_lists(g, template, block)
    assert execute_floats(g, template, {}, "sel", block).tolist() == [
        [float(2 ** 53 + 1)], [1.0]]
    assert template.plan.node_block(g) is None


def _mixed_sums():
    """D nodes valued 1 and 0.5, each with an R edge to a G node valued
    the same: a row adds ints alone, or ints and a float."""
    g = PropertyGraph()
    for v in (1, 0.5, 2):
        d = g.add_node({"D"}, {"v": v})
        g.add_edge(d, "R", g.add_node({"G"}, {"v": v}), {})
    return g.freeze()


@settings(max_examples=200, deadline=None)
@example(g=_two_groups(), block=np.array([[1, 2 ** 63 - 1, -2 ** 63], [1, 0, 1]]))
@example(g=_mixed_sums(), block=np.array([[0, 2, 4], [0, 1, 2], [2, 2, -1]]))
@example(g=_signed_zeros(), block=np.array([[0, 2], [0, 0], [5, 5]]))
@given(g=_labelled_graphs(_node_properties), block=_id_blocks)
def test_float_values_equal_the_row_path(g, block):
    for template in (BLOCK_ONE, BLOCK_TWO):
        _assert_floats_equal_lists(g, template, block)
        assert template.plan.node_block(g) is not None  # numpy answered it


def _many_codes():
    """100 D nodes, each with an R edge to G nodes of 1 to 3 of 130
    distinct values: count(DISTINCT g.v) over 3 words of code bits, and
    sums over several values per node."""
    rng = np.random.default_rng(5)
    g = PropertyGraph()
    for i in range(100):
        d = g.add_node({"D"}, {"v": i * 0.37})
        for v in rng.integers(0, 130, rng.integers(1, 4)):
            g.add_edge(d, "R", g.add_node({"G"}, {"v": int(v)}), {})
    return g.freeze()


def _no_values():
    """D nodes and their G nodes with no ``v``: every sum is 0-wide."""
    g = PropertyGraph()
    for _ in range(3):
        g.add_edge(g.add_node({"D"}, {}), "R", g.add_node({"G"}, {}), {})
    return g.freeze()


@settings(max_examples=150, deadline=None)
@example(g=_many_codes(), seed=0)
@example(g=_no_values(), seed=1)
@example(g=_signed_zeros(), seed=2)
@example(g=_two_groups(), seed=3)
@given(g=_labelled_graphs(_node_properties), seed=st.integers(0, 2 ** 32 - 1))
def test_node_block_fold_steps_as_it_starts(g, seed):
    """On (j, m) columns of sorted distinct ids, one ``step`` of the
    (j - 1)-column state is the j-column state, and both finish, bit for
    bit, to ``_NodeBlock.values`` of the same block (whose id rule then
    changes nothing)."""
    rng = np.random.default_rng(seed)
    n = len(g.nodes)
    j = int(rng.integers(1, min(n, 6) + 1))
    rows = np.sort(rng.random((int(rng.integers(1, 40)), n)).argsort(axis=1)[:, :j], axis=1)
    for template in (BLOCK_ONE, BLOCK_TWO):
        block = template.plan.node_block(g)
        fold, cols = block.fold, rows.T
        whole = fold.finish(fold.first(cols))
        stepped = fold.finish(fold.step(fold.first(cols[:-1]), cols[-1]))
        assert whole.shape == (len(rows), 5) and whole.dtype == np.float64
        assert stepped.tobytes() == whole.tobytes()
        assert block.values(rows).tobytes() == whole.tobytes()


def test_float_values_read_no_table_on_the_numpy_route(monkeypatch):
    """The numpy route builds no query and runs no row path: neither
    ``Query`` nor ``execute`` is called."""
    calls = []
    monkeypatch.setattr(executor, "Query", lambda *a: calls.append(a))
    monkeypatch.setattr(executor, "execute", lambda *a: calls.append(a))
    g = _two_groups()
    for template in (BLOCK_ONE, BLOCK_TWO):
        assert execute_floats(g, template, {}, "sel", np.array([[0, 1]])).shape == (1, 5)
    assert calls == []


def test_float_values_of_int_sums_past_float64():
    """The row path's exact int sums, read as float64 by rounding."""
    g = PropertyGraph()
    for v in (2 ** 53, 1, 2 ** 70):
        g.add_node({"D"}, {"v": v})
    g.freeze()
    template = parse_template("MATCH (d:D) WHERE d.id IN $sel RETURN sum(d.v)")
    block = np.array([[0, 1], [1, 2], [1, 1]])
    _assert_floats_equal_lists(g, template, block)
    got = execute_floats(g, template, {}, "sel", block)
    assert got[:, 0].tolist() == [float(2 ** 53 + 1), float(2 ** 70 + 1), 1.0]
    assert template.plan.node_block(g) is None


@pytest.mark.parametrize("items, message", [
    ("avg(d.absent)", "None"), ("collect(d.v)", "[1]"), ("min(d.w)", "'a'")])
def test_float_values_refuse_a_value_that_is_not_a_number(items, message):
    g = PropertyGraph()
    g.add_node({"D"}, {"v": 1, "w": "a"})
    g.freeze()
    template = parse_template(f"MATCH (d:D) WHERE d.id IN $sel RETURN {items}")
    with pytest.raises(ExecutionError, match=re.escape(
            f"query produced a non-numeric value {message}")):
        execute_floats(g, template, {}, "sel", np.array([[0]]))


def test_block_binding_rules():
    """A block of lists binds only through ``execute_floats``:
    ``substitute`` refuses a 2-d array, and a Pattern A term whose
    template cannot take the selection list as a block is refused by
    name."""
    template = parse_template("MATCH (d:D) WHERE d.id IN $sel RETURN count(*)")
    assert template.block_placeholders == {"sel"}
    for block in (np.zeros((2, 2)), np.array([[0, 1]])):
        with pytest.raises(TypeError, match=r"^\$sel: list placeholder bound "
                                            r"to a 2-d array$"):
            substitute(template, lists={"sel": block})
    g, drugs, _ = drug_gene_graph()
    for text, block_placeholders in (
            ("MATCH (d:D) WHERE d.id IN $sel RETURN d.v", set()),  # rows per list
            ("MATCH (d:D) WHERE d.id IN $sel RETURN count(d.id IN $sel)", set()),
            ("MATCH (d:D) WHERE d.id IN $sel AND d.id IN $b RETURN count(*)",
             {"sel", "b"})):
        assert parse_template(text).block_placeholders == block_placeholders
        term = QueryTerm("t", parse_template(text))
        with pytest.raises(ValueError, match=r"^term 't': the template must be"):
            PatternABinding(graph=g, space=selection_space(2, len(drugs)),
                            candidates=list(drugs), objective_terms=[term],
                            selection_param="sel")


def test_node_table_per_graph():
    """One template run alternately on two frozen graphs gives each
    graph's own values."""
    template = parse_template(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE d.id IN $sel "
        "RETURN count(DISTINCT g.id), count(*)")
    g1, drugs, _ = drug_gene_graph()
    g2 = PropertyGraph()
    d = g2.add_node({"Drug"}, {})
    for _ in range(3):
        g2.add_edge(d, "TARGETS", g2.add_node({"Gene"}, {}), {})
    g2.freeze()
    block = np.array([[0, 2]])
    for _ in range(2):
        assert execute_floats(g1, template, {}, "sel", block).tolist() == [[1, 2]]
        assert execute_floats(g2, template, {}, "sel", block).tolist() == [[3, 3]]
    for g in (g1, g2):
        _assert_floats_equal_lists(g, template, block)
        assert template.plan.node_block(g) is not None
