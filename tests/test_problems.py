"""Problem core: spaces, decode, fitness assembly, and both binding
patterns on hand-built graphs."""

import dataclasses
import math

import numpy as np
import pytest

from graphopt.graph import PropertyGraph
from graphopt.oracles import Fold, brute_force_selection
from graphopt.problems import (DecisionSpace, Fitness, PatternABinding,
                               PatternBBinding, QueryTerm, assemble_fitness,
                               continuous_space, decode_selection,
                               materialize, selection_space, subset_rows)
from graphopt.querylang import ExecutionError, parse_query, parse_template
from graphopt.rng import SeededRng
from graphopt.solvers import SolverConfig, run_group
from graphopt.suite import generate, pattern_a_binding


# ---- decision spaces ----

def test_bounds_must_be_ordered():
    with pytest.raises(ValueError):
        continuous_space([0.0, 1.0], [1.0, 1.0])


def test_selection_space_shape():
    space = selection_space(3, 10)
    assert space.dim == 3
    assert space.kind == "selection"
    assert np.all(space.lower == 0.0)
    assert np.all(space.upper < 10.0)
    assert np.all(space.upper > 9.0)


def test_selection_k_exceeds_n():
    with pytest.raises(ValueError):
        selection_space(5, 4)


# ---- decode_selection ----

def test_decode_floor_no_duplicates():
    space = selection_space(3, 10)
    assert decode_selection([2.7, 0.1, 5.9], space) == [2, 0, 5]


def test_decode_duplicate_advance():
    space = selection_space(3, 4)
    assert decode_selection([2.1, 2.9, 2.5], space) == [2, 3, 0]


def test_decode_identity():
    space = selection_space(3, 3)
    assert decode_selection([0.0, 1.0, 2.0], space) == [0, 1, 2]


def test_decode_clamps_out_of_range():
    space = selection_space(2, 5)
    got = decode_selection(np.array([-3.0, 99.0]), space)
    assert got[0] == 0 and got[1] == 4


def test_decode_always_k_distinct():
    space = selection_space(4, 7)
    rng = SeededRng(13)
    for _ in range(500):
        x = [rng.uniform(0.0, 7.0) for _ in range(4)]
        got = decode_selection(x, space)
        assert len(set(got)) == 4
        assert all(0 <= i < 7 for i in got)


# ---- fitness assembly ----

def test_total_is_exact_sum_of_terms():
    fit = assemble_fitness({"a": -3.0, "b": 1.5},
                           {"c1": 2.0, "c2": 0.5},
                           {"c1": 10.0, "c2": 4.0})
    recomputed = sum(fit.objective_terms.values()) + sum(
        w * fit.violation_terms[k] for k, w in fit.penalty_weights.items())
    assert fit.total == recomputed  # bit-for-bit
    assert fit.total == -3.0 + 1.5 + 10.0 * 2.0 + 4.0 * 0.5


def test_feasible_iff_zero_violations():
    assert assemble_fitness({"o": 1.0}, {}, {}).feasible
    assert assemble_fitness({"o": 1.0}, {"c": 0.0}, {"c": 5.0}).feasible
    assert not assemble_fitness({"o": 1.0}, {"c": 0.1}, {"c": 5.0}).feasible


def test_negative_violation_rejected():
    with pytest.raises(ValueError):
        assemble_fitness({}, {"c": -0.5}, {"c": 1.0})


# ---- Pattern A on a hand-assembled 10-drug graph ----

def drug_graph():
    """10 drugs over 9 genes.  Drugs 0..2 cover 7 distinct genes with
    total side_effect_count 5; drug 3 alone covers 2 genes, 0 effects."""
    g = PropertyGraph()
    effects = [1, 3, 1, 0, 2, 4, 0, 5, 2, 1]
    drugs = [g.add_node({"Drug"}, {"side_effect_count": e}) for e in effects]
    genes = [g.add_node({"Gene"}, {}) for _ in range(9)]
    edges = {0: [0, 1, 2], 1: [2, 3, 4], 2: [5, 6], 3: [7, 8],
             4: [0], 5: [1], 6: [2], 7: [3], 8: [4], 9: [5]}
    for d, gs in edges.items():
        for gi in gs:
            g.add_edge(drugs[d], "TARGETS", genes[gi], {})
    g.freeze()
    return g, drugs


def coverage_binding(k, lam=0.5, memoize=True):
    g, drugs = drug_graph()
    coverage = QueryTerm(
        name="gene_coverage",
        template=parse_template(
            "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE d.id IN $selected "
            "RETURN count(DISTINCT g.id)"),
        coefficient=-1.0)
    burden = QueryTerm(
        name="side_effect_burden",
        template=parse_template(
            "MATCH (d:Drug) WHERE d.id IN $selected "
            "RETURN sum(d.side_effect_count)"),
        coefficient=lam)
    return PatternABinding(
        graph=g, space=selection_space(k, len(drugs)), candidates=drugs,
        objective_terms=[coverage, burden], memoize=memoize)


def count_node_block_reads(binding, monkeypatch) -> list:
    """The rows that each term's node-block fold reads from now on, one
    entry per ``first`` or ``step`` call.  Call it before the binding's
    ``terms`` is first built: that takes each term's fold."""
    reads = []
    for term in binding._terms:
        block = term.template.plan.node_block(binding.graph)
        (fold, width), = block.parts
        monkeypatch.setattr(block, "parts", [(Fold(
            lambda cols, fold=fold: reads.append(cols.shape[1]) or fold.first(cols),
            lambda state, col, fold=fold: reads.append(len(col)) or fold.step(state, col),
            fold.finish), width)])
    return reads


def test_pattern_a_hand_value():
    # drugs {0,1,2}: 7 distinct genes, burden 5 -> -(7 - 0.5*5) = -4.5
    binding = coverage_binding(3)
    fit = binding.evaluate(np.array([0.0, 1.0, 2.0]))
    assert fit.total == -4.5
    assert fit.objective_terms == {"gene_coverage": -7.0,
                                   "side_effect_burden": 2.5}


def test_pattern_a_single_drug():
    # k=1, drug 3: 2 genes, 0 side effects -> -2.0
    binding = coverage_binding(1)
    assert binding.evaluate(np.array([3.2])).total == -2.0


def test_pattern_a_constraint_term_is_a_weighted_violation():
    # drugs {0, 1, 2}: 7 genes, burden 5; the burden as a violation
    # weighted 4 rather than an objective
    g, drugs = drug_graph()
    base = coverage_binding(3)
    coverage, burden = base.objective_terms
    binding = PatternABinding(
        graph=g, space=selection_space(3, len(drugs)), candidates=drugs,
        objective_terms=[coverage],
        constraint_terms=[QueryTerm(burden.name, burden.template, 4.0)])
    fit = binding.evaluate(np.array([0.0, 1.0, 2.0]))
    assert fit == Fitness(-7.0 + 4.0 * 5.0, {"gene_coverage": -7.0},
                          {"side_effect_burden": 5.0},
                          {"side_effect_burden": 4.0})
    X = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    totals = binding.evaluate_batch(X)
    assert totals[0] == fit.total
    assert totals[1] == binding.evaluate(X[1]).total
    assert binding.query_executions == 2 * 2  # two subsets, two terms


def test_pattern_a_term_names_and_templates_checked():
    g, drugs = drug_graph()
    coverage, _ = coverage_binding(3).objective_terms
    space = selection_space(3, len(drugs))
    with pytest.raises(ValueError, match="distinct"):
        PatternABinding(graph=g, space=space, candidates=drugs,
                        objective_terms=[coverage, coverage])
    bare = QueryTerm("bare", parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected RETURN d.side_effect_count"))
    with pytest.raises(ValueError, match="aggregate query"):
        PatternABinding(graph=g, space=space, candidates=drugs,
                        objective_terms=[bare])
    with pytest.raises(ValueError, match="^Pattern A needs at least one term$"):
        PatternABinding(graph=g, space=space, candidates=drugs, objective_terms=[])


@pytest.mark.parametrize("aggregate, ragged", [
    ("avg(d.absent)", False),
    ("collect(d.side_effect_count)", False),
    # one drug lacks the property: lists of lengths 1 and 2
    ("collect(d.side_effect_count)", True)])
def test_pattern_a_non_numeric_term_raises(aggregate, ragged):
    g, drugs = drug_graph()
    if ragged:
        g = PropertyGraph()
        drugs = [g.add_node({"Drug"}, {} if i == 0 else {"side_effect_count": i})
                 for i in range(4)]
        g.freeze()
    term = QueryTerm("t", parse_template(
        f"MATCH (d:Drug) WHERE d.id IN $selected RETURN {aggregate}"))
    binding = PatternABinding(graph=g, space=selection_space(2, len(drugs)),
                              candidates=drugs, objective_terms=[term])
    with pytest.raises(ExecutionError,
                       match="term 't': query produced a non-numeric value"):
        binding.evaluate_batch(np.array([[0.0, 1.0], [2.0, 3.0]]))


def _row_path_terms(binding, rows, monkeypatch):
    """The terms of a copy of the binding built with every template's
    numpy route turned off."""
    with monkeypatch.context() as patch:
        for term in binding._terms:
            patch.setattr(term.template.plan, "numpy_block", False)
        return dataclasses.replace(binding).terms(rows)


@pytest.mark.parametrize("problem, scale, drop", [
    ("P1", "small", ()), ("P1", "medium", ()), ("P1", "small", ("side_effect_count",)),
    ("P2", "small", ()), ("P2", "medium", ())])
def test_pattern_a_numpy_terms_equal_the_row_path(problem, scale, drop, monkeypatch):
    instance = generate(problem, scale, 3, drop_properties=drop)
    binding = instance.binding if problem == "P1" else pattern_a_binding(instance)
    X = np.random.default_rng(3).uniform(0.0, binding.space.n_candidates, size=(400, binding.space.k))
    rows = subset_rows(X, binding.space)
    got = binding.terms(rows)
    assert all(term.template.plan.node_block(binding.graph) is not None
               for term in binding._terms)  # numpy answered them
    reads = count_node_block_reads(binding, monkeypatch)
    assert got.tobytes() == _row_path_terms(binding, rows, monkeypatch).tobytes()
    assert reads == []  # the copy ran the row path


def test_pattern_a_term_without_a_node_block_raises_its_row_path_error():
    """A text value keeps the term off the numpy route: a subset that
    reaches it raises the row path's error under the term's name, and
    the others still score."""
    g = PropertyGraph()
    drugs = [g.add_node({"Drug"}, {"side_effect_count": v}) for v in (1, 2, "x")]
    g.freeze()
    term = QueryTerm("burden", parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected RETURN sum(d.side_effect_count)"))
    binding = PatternABinding(graph=g, space=selection_space(2, 3), candidates=drugs,
                              objective_terms=[term])
    with pytest.raises(ExecutionError, match="^term 'burden': sum expects numbers$"):
        binding.evaluate_batch(np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert term.template.plan.node_block(g) is None
    assert binding.evaluate_batch(np.array([[0.0, 1.0]])).tolist() == [3.0]


def test_pattern_a_batch_binds_no_query(monkeypatch):
    """Each term is bound once, at construction: a batch on the numpy
    route neither substitutes nor executes a query."""
    import graphopt.problems as problems
    binding = coverage_binding(3, memoize=False)
    X = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [7.0, 8.0, 9.0]])
    want = binding.evaluate_batch(X)
    calls = []
    for name in ("substitute", "execute"):
        real = getattr(problems, name)
        monkeypatch.setattr(problems, name, lambda *a, real=real, **kw:
                            calls.append(1) or real(*a, **kw))
    assert binding.evaluate_batch(X).tolist() == want.tolist()
    assert [binding.evaluate(x).total for x in X] == want.tolist()
    assert calls == []
    assert binding.query_executions == 2 * binding.evaluations  # one per term and row


def test_pattern_a_memo_skips_queries():
    binding = coverage_binding(3)
    x = np.array([0.4, 1.9, 2.2])
    first = binding.evaluate(x)
    executed = binding.query_executions
    again = binding.evaluate(np.array([2.8, 0.0, 1.5]))  # same decoded subset
    assert again == first
    assert binding.query_executions == executed
    assert binding.memo_hits == 1
    assert binding.evaluations == 2


def test_pattern_a_memo_hit_runs_no_query(monkeypatch):
    # the counters alone cannot show this: a hit rebuilds its Fitness
    # from the memo's terms, so the graph is not touched at all
    import graphopt.problems as problems
    binding = coverage_binding(3)
    reads = count_node_block_reads(binding, monkeypatch)
    X = np.array([[0.4, 1.9, 2.2], [3.0, 4.0, 5.0]])
    first = binding.evaluate_batch(X)
    fits = [binding.evaluate(x) for x in X]
    assert sum(reads) == binding.query_executions == 4  # the guard sees a query
    reads.clear()
    calls = []
    for name in ("execute", "execute_floats"):  # a batch's terms go through the second
        real = getattr(problems, name)
        monkeypatch.setattr(problems, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    assert binding.evaluate_batch(X[::-1]).tolist() == first[::-1].tolist()
    assert [binding.evaluate(x) for x in X] == fits
    assert [f.total for f in fits] == first.tolist()
    assert calls == reads == []
    assert binding.memo_hits == 6


def test_pattern_a_memo_off_reruns_queries():
    binding = coverage_binding(3, memoize=False)
    x = np.array([0.0, 1.0, 2.0])
    binding.evaluate(x)
    n = binding.query_executions
    binding.evaluate(x)
    assert binding.query_executions == 2 * n
    assert binding.memo_hits == 0


def test_pattern_a_candidate_length_checked():
    g, drugs = drug_graph()
    with pytest.raises(ValueError):
        PatternABinding(
            graph=g, space=selection_space(2, 4), candidates=drugs,
            objective_terms=[])


@pytest.mark.parametrize("candidates, bad", [
    ([0, 2, 1, 3], 2), ([0, 1, 1, 3], 2), ([-1, 0, 1, 2], 0), ([15, 16, 17, 19], 3)])
def test_pattern_a_candidates_are_increasing_node_ids(candidates, bad):
    """Sorted rows of candidate indices must give sorted distinct node
    ids, so a batch needs no id rule: any other list is refused at its
    first bad position.  The graph's nodes are 0 to 18."""
    g, _ = drug_graph()
    term = coverage_binding(2).objective_terms[0]
    with pytest.raises(ValueError, match=rf"^candidate {bad} is {candidates[bad]}: the "
                                         r"candidates must be strictly increasing node ids"):
        PatternABinding(graph=g, space=selection_space(2, 4), candidates=candidates,
                        objective_terms=[term])
    PatternABinding(graph=g, space=selection_space(2, 4), candidates=[0, 2, 9, 18],
                    objective_terms=[term])


def test_pattern_a_needs_selection_space():
    g, drugs = drug_graph()
    with pytest.raises(ValueError):
        PatternABinding(
            graph=g, space=continuous_space([0.0], [1.0]), candidates=drugs,
            objective_terms=[])


# ---- Pattern B ----

def site_arrays():
    # trial counts for 6 sites; regions give 3 buckets
    return {"trial_counts": (100, 80, 60, 40, 20, 10),
            "regions": ("A", "A", "B", "C", "B", "C")}


SITE_BETA = 10.0


def site_binding(memoize=False):
    """-(trial counts) and -beta x (distinct regions) of the sorted
    index rows, as a ``terms`` batch."""
    arrays = site_arrays()
    trials = np.array(arrays["trial_counts"], dtype=np.float64)
    codes = np.array([ord(region) for region in arrays["regions"]])

    def terms(rows):
        regions = np.sort(codes[rows], axis=1)
        distinct = 1 + np.count_nonzero(np.diff(regions, axis=1), axis=1)
        return np.stack([-trials[rows].sum(axis=1), -SITE_BETA * distinct],
                        axis=1)

    return PatternBBinding(space=selection_space(3, 6), arrays=arrays,
                           terms=terms, memoize=memoize,
                           term_sources={"trials": ("trial_counts",),
                                         "diversity": ("regions",)})


def site_reference_total(x):
    """``site_binding``'s total of one vector, row by row in plain Python."""
    arrays = site_arrays()
    sel = decode_selection(x, selection_space(3, 6))
    trials = sum(arrays["trial_counts"][i] for i in sel)
    regions = {arrays["regions"][i] for i in sel}
    return -float(trials) - SITE_BETA * len(regions)


def test_pattern_b_hand_value():
    # sites {0,1,2}: trials 240, regions {A,B} -> -(240 + 10*2) = -260
    fit = site_binding().evaluate(np.array([0.0, 1.0, 2.0]))
    assert fit.total == -260.0


def test_pattern_b_arrays_immutable():
    binding = site_binding()
    with pytest.raises(TypeError):
        binding.arrays["trial_counts"][0] = 999


def test_pattern_b_numpy_arrays_frozen():
    space = continuous_space([0.0], [1.0])
    binding = PatternBBinding(
        space=space, arrays={"v": np.array([1.0, 2.0])},
        terms=lambda X: X, term_sources={"o": ("v",)})
    with pytest.raises(ValueError):
        binding.arrays["v"][0] = 3.0


@pytest.mark.parametrize("make_binding, n", [
    (site_binding, 6),
    (lambda memoize: coverage_binding(3, memoize=memoize), 10),
], ids=["B", "A"])
def test_pattern_b_memo_equivalence_and_counters(make_binding, n):
    plain = make_binding(memoize=False)
    memod = make_binding(memoize=True)
    rng = SeededRng(40)
    for _ in range(300):
        x = np.array([rng.uniform(0.0, n - 1e-6) for _ in range(3)])
        assert memod.evaluate(x).total == plain.evaluate(x).total
    assert memod.memo_hits > 0
    assert plain.memo_hits == 0
    assert memod.evaluations == plain.evaluations == 300


def test_memo_keeps_terms_only_where_they_cost_queries():
    # Pattern A keeps each subset's terms, so a hit runs no query;
    # Pattern B keeps its total, the C(n, k) floats the size limit allows
    x = np.array([0.5, 1.5, 2.5])
    queried, arrays = coverage_binding(3), site_binding(memoize=True)
    queried.evaluate(x)
    arrays.evaluate(x)
    assert queried._memo.shape == (math.comb(10, 3), 2)
    assert arrays._memo.shape == (math.comb(6, 3),)


def test_pattern_b_memo_needs_selection_space():
    with pytest.raises(ValueError):
        PatternBBinding(space=continuous_space([0.0], [1.0]),
                        arrays={}, terms=lambda X: X, memoize=True)


def test_memo_over_the_size_limit_raises():
    space = selection_space(10, 30)  # C(30, 10) = 30,045,015 subsets
    with pytest.raises(ValueError, match=r"C\(n, k\) <= 1000000"):
        PatternBBinding(space=space, arrays={}, terms=lambda X: X,
                        memoize=True)
    g, drugs = drug_graph()
    with pytest.raises(ValueError, match=r"C\(n, k\) <= 1000000"):
        PatternABinding(graph=g, space=space,
                        candidates=list(range(30)), objective_terms=[])
    PatternBBinding(space=space, arrays={}, terms=lambda X: X, memoize=False)


def test_pattern_b_permuted_vector_same_fitness():
    binding = site_binding(memoize=True)
    a = binding.evaluate(np.array([0.3, 1.7, 2.4]))
    b = binding.evaluate(np.array([2.1, 0.8, 1.2]))  # same subset {0,1,2}
    assert b == a
    assert binding.memo_hits == 1


@pytest.mark.parametrize("memoize", [False, True])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_pattern_b_fitness_fn_rejects_non_finite_total(bad, memoize):
    binding = PatternBBinding(
        space=selection_space(2, 4), arrays={}, memoize=memoize,
        terms=lambda rows: np.full((len(rows), 1), bad), term_sources={"o": ()})
    x = np.array([0.0, 1.0])
    for _ in range(2):  # nothing was stored: the second call raises too
        with pytest.raises(ValueError,
                           match=f"batch row 0 has a non-finite total {bad}"):
            binding.evaluate(x)
        with pytest.raises(ValueError,
                           match=f"batch row 0 has a non-finite total {bad}"):
            binding.evaluate_batch(x[None])
    assert binding.memo_hits == 0


@pytest.mark.parametrize("memoize", [False, True])
def test_pattern_b_batch_error_names_the_row(memoize):
    # only subset {2, 3}, the third row, has a NaN total
    binding = PatternBBinding(
        space=selection_space(2, 4), arrays={}, memoize=memoize,
        terms=lambda rows: np.where(rows.sum(axis=1) == 5, np.nan, 1.0)[:, None],
        term_sources={"o": ()})
    X = np.array([[0.0, 1.0], [0.0, 2.0], [3.0, 2.0], [1.0, 3.0]])
    with pytest.raises(ValueError,
                       match="batch row 2 has a non-finite total nan"):
        binding.evaluate_batch(X)


def _signed_violation_binding(memoize):
    """Selection binding whose violation 'v', the larger index minus 2,
    is negative on the subset {0, 1} alone."""
    return PatternBBinding(
        space=selection_space(2, 4), arrays={}, memoize=memoize,
        terms=lambda rows: np.stack([rows.sum(axis=1) * 1.0, rows[:, 1] - 2.0], axis=1),
        penalty_weights={"v": 3.0}, term_sources={"o": (), "v": ()})


def _binding_state(binding):
    """Counters, the (run, rank) pairs the seen-bitmaps mark and the memo
    entries at those ranks."""
    seen = getattr(binding, "_seen_bits", None)
    if seen is None:
        return binding.evaluations, binding.memo_hits, None
    return (binding.evaluations, binding.memo_hits, np.argwhere(seen).tolist(),
            binding._memo[seen.any(axis=0)].tobytes())


@pytest.mark.parametrize("memoize", [False, True])
def test_negative_violation_raises_before_anything_is_kept(memoize):
    binding = _signed_violation_binding(memoize)
    binding.evaluate_batch(np.array([[0.0, 2.0], [3.0, 2.0]]))  # {0, 2}, {2, 3}
    state = _binding_state(binding)
    X = np.array([[2.0, 3.0], [1.0, 0.0], [0.0, 2.0]])  # row 1 is {0, 1}
    message = "batch row {} has a negative violation term 'v': -1.0"
    with pytest.raises(ValueError, match=message.format(1)):
        binding.evaluate_batch(X)
    with pytest.raises(ValueError, match=message.format(0)):
        binding.evaluate(X[1])
    with pytest.raises(ValueError, match=message.format(3)):  # run 1's second row
        binding.evaluate_runs(np.vstack([X[[0, 2]], X[[0, 1]]]), [0, 1])
    with pytest.raises(ValueError, match=message.format(1)):
        binding.term_columns(X)
    assert _binding_state(binding) == state
    # R = 1 and lockstep: the solver stops instead of rewarding the violation
    # (an initial population raises as it is, a later batch as the cause)
    for seeds in ((0,), (0, 1)):
        with pytest.raises((RuntimeError, ValueError)) as info:
            run_group(binding, [SolverConfig("jaya", pop_size=4, iterations=3, seed=s)
                                for s in seeds])
        assert "negative violation term 'v'" in str(info.value.__cause__ or info.value)
    # the sweep refuses {0, 1}, its first subset, though {2, 3} wins
    sweep = PatternBBinding(
        space=binding.space, arrays={}, penalty_weights={"v": 1.0},
        terms=lambda rows: np.stack([-rows.sum(axis=1) * 1.0, rows[:, 1] - 2.0], axis=1),
        term_sources={"o": (), "v": ()})
    with pytest.raises(ValueError, match=r"subset \(0, 1\) has a negative "
                                         r"violation term 'v': -1.0"):
        brute_force_selection(sweep)


def test_negative_violation_on_a_box_raises():
    """A continuous violation X[:, 1] - 0.5 below 0 is refused by the
    batch as by ``evaluate``, not added as a reward."""
    binding = PatternBBinding(
        space=continuous_space([0.0, 0.0], [1.0, 1.0]), arrays={},
        terms=lambda X: np.stack([X[:, 0], X[:, 1] - 0.5], axis=1),
        penalty_weights={"v": 10.0}, term_sources={"o": (), "v": ()})
    X = np.array([[0.2, 0.9], [0.3, 0.1]])
    with pytest.raises(ValueError, match="batch row 1 has a negative violation "
                                         "term 'v': -0.4"):
        binding.evaluate_batch(X)
    with pytest.raises(ValueError, match="batch row 0 has a negative violation"):
        binding.evaluate(X[1])
    assert binding.evaluations == 0
    assert binding.evaluate(X[0]).total == 0.2 + 10.0 * (0.9 - 0.5)
    with pytest.raises((RuntimeError, ValueError)):  # no run ends at x1 = 0
        run_group(binding, [SolverConfig("jaya", pop_size=4, iterations=5)])


def gap_binding():
    """Continuous terms binding: objective x0 + x1, violation |x0 - x1|
    with penalty weight 10."""
    def terms(X):
        return np.stack([X[:, 0] + X[:, 1], np.abs(X[:, 0] - X[:, 1])], axis=1)

    return PatternBBinding(
        space=continuous_space([0.0, 0.0], [5.0, 5.0]), arrays={},
        terms=terms, penalty_weights={"gap": 10.0},
        term_sources={"sum": (), "gap": ()})


def test_pattern_b_terms_columns_split_by_weight():
    binding = gap_binding()
    fit = binding.evaluate(np.array([1.0, 3.0]))
    assert fit.objective_terms == {"sum": 4.0}
    assert fit.violation_terms == {"gap": 2.0}
    assert fit.penalty_weights == {"gap": 10.0}
    assert fit.total == 24.0
    totals = binding.evaluate_batch(np.array([[1.0, 3.0], [2.0, 2.0]]))
    assert totals.tolist() == [24.0, 4.0]
    assert binding.evaluations == 3


def test_materialize_shapes_and_missing():
    g = PropertyGraph()
    g.add_node({"S"}, {"v": 1})
    g.add_node({"S"}, {})
    g.add_node({"S"}, {"v": 3})
    g.freeze()
    arrays, missing, provenance = materialize(
        g, {"vs": parse_query("MATCH (s:S) RETURN s.v")})
    assert arrays["vs"] == (1, None, 3)
    assert missing["vs"] == 1
    assert len(provenance) == 1 and "MATCH" in provenance[0]


def test_pattern_a_missing_property_diagnostic():
    g = PropertyGraph()
    ids = [g.add_node({"Drug"}, {"side_effect_count": 2}),
           g.add_node({"Drug"}, {})]
    g.freeze()
    term = QueryTerm(
        name="burden",
        template=parse_template("MATCH (d:Drug) WHERE d.id IN $selected "
                                "RETURN sum(d.side_effect_count)"),
        coefficient=1.0)
    binding = PatternABinding(
        graph=g, space=selection_space(2, 2), candidates=ids,
        objective_terms=[term])
    fit = binding.evaluate(np.array([0.0, 1.0]))
    assert fit.total == 2.0
    assert binding.missing_counts["burden"] == 1


def test_pattern_b_eval_speed():
    """1e6 evaluations of a desk-size array binding in under 5 seconds,
    through ``evaluate_batch``, Pattern B's one path: 1,000 batches of
    the same 1000 rows, each checked against the per-row reference."""
    import time
    binding = site_binding(memoize=False)
    xs = np.random.default_rng(1).uniform(0.0, 5.9, size=(1000, 3))
    start = time.perf_counter()
    batches = [binding.evaluate_batch(xs) for _ in range(1000)]
    elapsed = time.perf_counter() - start
    assert binding.evaluations == 1_000_000
    want = np.array([site_reference_total(x) for x in xs])
    assert all(np.array_equal(totals, want) for totals in batches)
    assert elapsed < 5.0, f"1e6 evals took {elapsed:.2f}s"
