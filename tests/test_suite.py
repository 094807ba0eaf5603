"""Instance generators P1-P7: determinism, shapes, snapshot contract,
disruptions, oracle consistency, degeneracy detection."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphopt.problems
from graphopt.oracles import (_fold_blocks, brute_force_selection,
                              lex_subset_chunks, subset_ranks)
from graphopt.problems import (CallableBinding, PatternABinding,
                               PatternBBinding, assemble_fitness,
                               decode_selection, selection_space, subset_rows)
from graphopt.querylang import execute_floats
from graphopt.rng import SeededRng
from graphopt.solvers import VARIANTS, SolverConfig, run, run_group
from graphopt.suite import (DROPPABLE_PROPERTIES, PROBLEM_IDS, DisruptionSpec,
                            PropertyNotDroppable,
                            _sum_plus_diversity_terms, detect_degenerate_terms,
                            disruption_targets, fresh_binding, gap_ratio,
                            generate, inject_disruption, pattern_a_binding,
                            solve_oracle)
from tests import reference
from tests.test_problems import count_node_block_reads

GOLDEN = Path(__file__).parent / "golden"

SPEC_KEYS = {
    "P1": ["candidates", "targets", "side_effect_counts", "k"],
    "P2": ["facilities", "countries", "trial_counts", "k"],
    "P3": ["distance_km", "demands", "capacities"],
    "P4": ["names", "regions", "densities", "threshold", "k"],
    "P5": ["n_generators", "n_hours", "cost_rate", "emission_rate",
           "min_out", "max_out", "ramp", "demand", "emission_weight"],
    "P6": ["subclasses", "pathogens", "resistance_counts", "burden", "k"],
    "P7": ["n_centroids", "n_exits", "pop", "capacity", "travel_time"],
}


# ---- determinism and shapes ----

@pytest.mark.parametrize("problem_id", PROBLEM_IDS)
def test_generator_determinism(problem_id):
    a = generate(problem_id, "small", 7)
    b = generate(problem_id, "small", 7)
    assert a.spec_bytes() == b.spec_bytes()
    assert a.space.dim == b.space.dim


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        generate("P99")
    with pytest.raises(ValueError):
        generate("P1", scale="huge")


def test_pinned_dimensions():
    assert generate("P5", "small", 3).space.dim == 96
    assert generate("P3", "medium", 3).space.dim == 800
    assert generate("P3", "small", 3).space.dim == 40
    assert generate("P7", "small", 3).space.dim == 24


def test_pattern_assignment():
    assert isinstance(generate("P1", "small", 0).binding, PatternABinding)
    for pid in ("P2", "P3", "P4", "P5", "P6", "P7"):
        assert isinstance(generate(pid, "small", 0).binding, PatternBBinding)


@pytest.mark.parametrize("problem_id", PROBLEM_IDS)
def test_graphs_are_frozen(problem_id):
    assert generate(problem_id, "small", 1).graph.frozen


def test_different_seeds_differ():
    a = generate("P2", "small", 0).spec_bytes()
    b = generate("P2", "small", 1).spec_bytes()
    assert a != b


# ---- spec snapshot contract ----

@pytest.mark.parametrize("problem_id", PROBLEM_IDS)
def test_spec_key_names_and_order(problem_id):
    inst = generate(problem_id, "small", 0)
    assert list(inst.spec.keys()) == SPEC_KEYS[problem_id]


@pytest.mark.parametrize("problem_id", PROBLEM_IDS)
def test_spec_bytes_match_golden(problem_id):
    inst = generate(problem_id, "small", 0)
    golden = (GOLDEN / f"{problem_id}_small_seed0_spec.json").read_bytes()
    assert inst.spec_bytes() == golden


def test_spec_bytes_are_valid_utf8_json():
    for pid in PROBLEM_IDS:
        raw = generate(pid, "small", 2).spec_bytes()
        parsed = json.loads(raw.decode("utf-8"))
        assert list(parsed.keys()) == SPEC_KEYS[pid]


def test_p4_threshold_pinned():
    assert generate("P4", "small", 5).spec["threshold"] == 23


def test_p3_matrix_flattened_row_major():
    inst = generate("P3", "small", 0)
    n_cities = len(inst.spec["demands"])
    n_ports = len(inst.spec["capacities"])
    assert len(inst.spec["distance_km"]) == n_cities * n_ports
    matrix = inst.params["data"]["distance"]
    assert inst.spec["distance_km"] == [float(v) for v in matrix.ravel()]


# ---- binding consistency with the snapshot ----

def test_p4_fitness_matches_snapshot_formula():
    inst = generate("P4", "small", 9)
    spec = inst.spec
    sel = [0, 3, 7, 11, 15, 20]
    fit = inst.binding.evaluate(np.array([float(i) for i in sel]))
    deficit = sum(max(0.0, spec["threshold"] - spec["densities"][i])
                  for i in sel)
    regions = {spec["regions"][i] for i in sel}
    assert fit.total == pytest.approx(-(deficit + 10.0 * len(regions)))


def test_p2_fitness_matches_snapshot_formula():
    inst = generate("P2", "small", 3)
    spec = inst.spec
    sel = [1, 4, 9, 12, 18]
    fit = inst.binding.evaluate(np.array([float(i) for i in sel]))
    trials = sum(spec["trial_counts"][i] for i in sel)
    regions = {spec["countries"][i][:2] for i in sel}  # country code prefix
    assert fit.objective_terms["trial_throughput"] == -float(trials)


def test_p6_efficacy_range():
    inst = generate("P6", "small", 4)
    counts = inst.spec["resistance_counts"]
    n_sub = len(inst.spec["subclasses"])
    n_pat = len(inst.spec["pathogens"])
    assert len(counts) == n_sub * n_pat
    for c in counts:
        eff = 1.0 / (1.0 + c)
        assert 0.0 < eff <= 1.0
        assert (eff == 1.0) == (c == 0)


def test_p5_linear_has_oracle_nonlinear_does_not():
    assert generate("P5", "small", 0).oracle_kind == "merit_order"
    assert generate("P5", "small", 0, p5_mode="nonlinear").oracle_kind is None


def test_p5_demand_always_dispatchable():
    for seed in range(10):
        inst = generate("P5", "small", seed)
        dispatch = inst.params["dispatch"]
        assert np.all(dispatch.demand >= dispatch.min_out.sum() - 1e-9)
        assert np.all(dispatch.demand <= dispatch.max_out.sum() + 1e-9)


@pytest.mark.parametrize("problem_id, shared", [("P1", "graph"), ("P2", "arrays")])
def test_fresh_binding_resets_counters(problem_id, shared):
    inst = generate(problem_id, "small", 0)
    x = np.arange(float(inst.space.k))
    inst.binding.evaluate(x)
    inst.binding.evaluate(x)
    assert inst.binding.evaluations == 2
    assert inst.binding.memo_hits == 1
    fresh = fresh_binding(inst)
    assert fresh.evaluations == fresh.memo_hits == fresh.query_executions == 0
    assert fresh is not inst.binding
    ours, theirs = getattr(fresh, shared), getattr(inst.binding, shared)
    assert ours is theirs or ours == theirs
    fresh.evaluate(x)
    assert fresh.memo_hits == 0  # the memo starts empty


def test_pattern_a_provenance_names_each_template():
    inst = generate("P1", "small", 0)
    assert inst.binding.provenance == (
        "gene_coverage: MATCH (d:Drug)-[:TARGETS]->(g:Gene) "
        "WHERE d.id IN $selected RETURN count(DISTINCT g.id)",
        "side_effect_burden: MATCH (d:Drug) WHERE d.id IN $selected "
        "RETURN sum(d.side_effect_count)")


def test_pattern_a_queries_run_through_the_node_block_folds(monkeypatch):
    """A Pattern A run reads every counted query through its terms'
    node-block folds; the terms were bound at construction, so a run
    substitutes and executes no query, and runs no list down the row
    path (``execute_floats``).  A read answers a block of subsets, one
    row each, so the rows add up to the count."""
    binding = fresh_binding(generate("P1", "small", 0))
    reads = count_node_block_reads(binding, monkeypatch)
    calls = []
    for name in ("substitute", "execute", "execute_floats"):
        real = getattr(graphopt.problems, name)
        monkeypatch.setattr(graphopt.problems, name, lambda *a, real=real, name=name,
                            **kw: calls.append(name) or real(*a, **kw))
    run(binding, SolverConfig("rao1", pop_size=8, iterations=10, seed=3))
    assert binding.query_executions > 0
    assert sum(reads) == binding.query_executions
    assert calls == []
    assert len(reads) < binding.query_executions  # blocks, not one per subset


def test_pattern_a_templates_answer_in_numpy():
    """Every built-in Pattern A template answers a block from per-node
    arrays; one that fell off that route would run its lists one at a
    time, with no test failing."""
    bindings = [
        generate("P1", "small", 0).binding,
        generate("P1", "medium", 0).binding,
        generate("P1", "small", 0, drop_properties=("side_effect_count",)).binding,
        pattern_a_binding(generate("P2", "small", 0)),
        pattern_a_binding(generate("P2", "medium", 0)),
    ]
    for binding in bindings:
        for term in binding._terms:
            assert term.template.plan.numpy_block, term.name
            assert term.template.plan.node_block(binding.graph) is not None, term.name


# ---- pattern A twin for P2 ----

def test_p2_pattern_equivalence_spot_check():
    inst = generate("P2", "small", 11)
    twin = pattern_a_binding(inst)
    rng = SeededRng(60)
    for _ in range(50):
        x = np.array([rng.uniform(0.0, 19.9) for _ in range(5)])
        assert twin.evaluate(x).total == pytest.approx(
            inst.binding.evaluate(x).total, abs=1e-9)


def test_pattern_a_twin_only_for_p2():
    with pytest.raises(ValueError):
        pattern_a_binding(generate("P4", "small", 0))


# ---- oracles ----

def test_p3_oracle_matrix_consistency():
    inst = generate("P3", "small", 6)
    data = inst.params["data"]
    assert np.allclose(np.array(inst.binding.arrays["distance_km"]),
                       data["distance"].ravel(), atol=1e-12)
    assert np.allclose(np.array(inst.binding.arrays["demands"]),
                       data["demands"], atol=1e-12)


def test_p7_oracle_matrix_consistency():
    inst = generate("P7", "small", 6)
    data = inst.params["data"]
    assert np.allclose(np.array(inst.binding.arrays["travel_time"]),
                       data["travel_time"].ravel(), atol=1e-12)


def test_oracle_kinds():
    kinds = {pid: generate(pid, "small", 0).oracle_kind for pid in PROBLEM_IDS}
    assert kinds == {"P1": "brute_force", "P2": "brute_force",
                     "P3": "transportation", "P4": "brute_force",
                     "P5": "merit_order", "P6": "brute_force",
                     "P7": "transportation"}


def test_brute_oracle_dominates_solver_samples():
    inst = generate("P6", "small", 2)
    oracle = solve_oracle(inst)
    rng = SeededRng(1)
    k = inst.space.k
    n = inst.space.n_candidates
    for _ in range(200):
        x = np.array([rng.uniform(0.0, n - 1e-6) for _ in range(k)])
        assert inst.binding.evaluate(x).total >= oracle.optimum - 1e-12


@pytest.mark.parametrize("problem_id, seed, dropped", [
    ("P2", 0, ()), ("P2", 1, ()), ("P2", 2, ()),
    ("P4", 0, ()), ("P4", 1, ()), ("P4", 2, ()),
    ("P4", 0, ("who_region",)),
    ("P6", 0, ()), ("P6", 1, ()), ("P6", 2, ()),
])
def test_vectorized_oracle_matches_scalar_path(problem_id, seed, dropped):
    inst = generate(problem_id, "small", seed, drop_properties=dropped)
    binding = fresh_binding(inst)
    space = inst.space
    combos = list(itertools.combinations(range(space.n_candidates), space.k))
    vectorized = binding.weighted_sum(binding.terms(np.array(combos)))
    weights = _column_weights(binding)
    scalar = np.array([reference.weighted_total(_reference_terms(inst, c), weights)
                       for c in combos])
    assert vectorized.tobytes() == scalar.tobytes()  # bitwise, sign of zero too

    subset, fit = brute_force_selection(_reference_binding(inst))
    oracle = solve_oracle(inst)
    assert oracle.solution == subset
    assert oracle.optimum == fit.total


@pytest.mark.parametrize("problem_id, dropped, optimum", [
    ("P4", "who_region", -61.0),   # every region collapses into one bucket
    ("P2", "trial_count", -50.0),  # zero throughput, five regions
])
def test_oracle_scores_the_degraded_instance(problem_id, dropped, optimum):
    inst = generate(problem_id, "small", 0, drop_properties=(dropped,))
    oracle = solve_oracle(inst)
    assert oracle.optimum == optimum
    assert inst.binding.evaluate(list(oracle.solution)).total == optimum


def test_gap_ratio_opposite_signs():
    # against a negative optimum a best of 0 or above reads inf, the
    # limit of optimum / best as best rises to 0
    assert gap_ratio(0.0, -100.0) == math.inf
    assert gap_ratio(5.0, -100.0) == math.inf
    assert gap_ratio(150.0, -100.0) == math.inf
    # against a positive one, 1 + (best - optimum) / optimum
    assert gap_ratio(0.0, 100.0) == 0.0


@pytest.mark.parametrize("optimum", [-100.0, -0.5, 0.5, 100.0])
def test_gap_ratio_is_monotone_in_the_best(optimum):
    """A larger best never reads a smaller gap, across the sign change
    of the best too."""
    bests = sorted({optimum * f for f in (-3, -1, -0.5, -1e-9, 0, 1e-9, 0.5,
                                          0.99, 1, 1.01, 2, 50)}
                   | {-1e-300, 1e-300, -250.0, 250.0})
    gaps = [gap_ratio(best, optimum) for best in bests]
    assert all(a <= b for a, b in zip(gaps, gaps[1:])), list(zip(bests, gaps))
    assert gap_ratio(optimum, optimum) == 1.0


def test_gap_ratio_orientation():
    assert gap_ratio(10.0, 10.0) == 1.0
    assert gap_ratio(12.0, 10.0) == pytest.approx(1.2)
    assert gap_ratio(-90.0, -100.0) == pytest.approx(100.0 / 90.0)
    assert gap_ratio(-100.0, -100.0) == 1.0
    assert gap_ratio(5.0, 0.0) is None


# ---- one formula per problem: the batch terms against per-row references ----

def _column_weights(binding):
    return [binding.penalty_weights.get(name) for name in binding.term_sources]


def _reference_terms(inst, row):
    """The row's terms by the per-row reference formula of its problem."""
    arrays, params = inst.binding.arrays, inst.params
    row = list(row)
    if inst.problem_id == "P2":
        values = [0.0 if v is None else float(v) for v in arrays["trial_counts"]]
        return reference.sum_plus_diversity_terms(
            values, arrays["regions"], params["beta"], row)
    if inst.problem_id == "P4":
        values = [0.0 if v is None else max(params["threshold"] - v, 0.0)
                  for v in arrays["densities"]]
        return reference.sum_plus_diversity_terms(
            values, arrays["regions"], params["beta"], row)
    if inst.problem_id == "P6":
        return reference.coverage_burden_terms(
            arrays["resistance_counts"], arrays["burden"], params["lambda"], row)
    if inst.problem_id == "P5":
        d = params["dispatch"]
        return reference.dispatch_terms(
            d.cost_rate.tolist(), d.emission_rate.tolist(), d.max_out.tolist(),
            d.ramp.tolist(), d.demand.tolist(), params["emission_weight"],
            params["mode"] == "linear", row)
    data = params["data"]
    if inst.problem_id == "P3":
        flows = data["distance"], data["demands"], data["capacities"]
    else:
        flows = data["travel_time"], data["pop"], data["capacity"]
    return reference.fraction_terms(*(a.tolist() for a in flows), row)


def _reference_binding(inst):
    """A ``CallableBinding`` that scores each row by the per-row
    reference of the instance's problem, so the oracle sweeps it through
    ``evaluate_batch``, not through the binding's ``terms``."""
    binding, space = inst.binding, inst.space
    weights = binding.penalty_weights

    def fn(x):
        if space.kind == "selection":
            x = tuple(sorted(decode_selection(x, space)))
        terms = dict(zip(binding.term_sources, _reference_terms(inst, x)))
        return assemble_fitness(
            {name: v for name, v in terms.items() if name not in weights},
            {name: v for name, v in terms.items() if name in weights}, weights)

    return CallableBinding(space=space, fn=fn)


def _random_rows(space, count, seed):
    rng = np.random.default_rng(seed)
    return space.lower + (space.upper - space.lower) * rng.random((count, space.dim))


@pytest.mark.parametrize("problem_id, scale, kwargs", [
    ("P2", "small", {}), ("P2", "medium", {"drop_properties": ("who_region",)}),
    ("P3", "small", {}), ("P3", "medium", {}),
    ("P4", "small", {}), ("P4", "small", {"drop_properties": ("who_region",)}),
    ("P5", "small", {}), ("P5", "medium", {"p5_mode": "nonlinear"}),
    ("P6", "small", {}), ("P6", "medium", {}),
    ("P7", "small", {}), ("P7", "medium", {}),
])
def test_terms_match_the_per_row_reference(problem_id, scale, kwargs):
    """Bitwise on P2/P4/P6, whose formulas are pinned; within 1e-12
    relative on P3/P5/P7, whose sums are numpy's pairwise ones."""
    inst = generate(problem_id, scale, 2, **kwargs)
    binding, space = fresh_binding(inst), inst.space
    X = _random_rows(space, 200, seed=7)
    if space.kind == "selection":
        rows = subset_rows(X, space)
        X = rows.astype(np.float64)
    else:
        rows = X
    terms = binding.terms(rows)
    want = np.array([_reference_terms(inst, row) for row in rows.tolist()])
    totals = binding.evaluate_batch(X)
    want_totals = np.array([reference.weighted_total(t, _column_weights(binding))
                            for t in want.tolist()])
    if space.kind == "selection":
        assert terms.tobytes() == want.tobytes()
        assert totals.tobytes() == want_totals.tobytes()
    else:
        assert terms == pytest.approx(want, rel=1e-12, abs=0.0)
        assert totals == pytest.approx(want_totals, rel=1e-12, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numpy_decode_equals_the_cyclic_rule(data):
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(1, n))
    space = selection_space(k, n)
    coordinate = st.one_of(
        st.floats(0.0, float(space.upper[0])),
        st.integers(0, n - 1).map(float),
        st.sampled_from([0.0, float(space.upper[0]), float(n - 1), -0.5,
                         -3.0, n - 0.5, float(n), n + 2.5, 1e300, -1e300]))
    X = np.array(data.draw(st.lists(st.lists(coordinate, min_size=k, max_size=k),
                                    min_size=1, max_size=6)))
    want = [sorted(decode_selection(row, space)) for row in X]
    assert subset_rows(X, space).tolist() == want


def test_numpy_decode_equals_the_cyclic_rule_exhaustively():
    """Every integer-plus-0.5 row, and rows at the clamp extremes, for
    every (n, k) with n <= 20 and n^k <= 50,000."""
    for n in range(1, 21):
        for k in range(1, n + 1):
            if n ** k > 50_000:
                break
            space = selection_space(k, n)
            X = np.array(list(itertools.product(range(n), repeat=k))) + 0.5
            extremes = [-1e300, -3.0, -0.5, 0.0, float(space.upper[0]),
                        float(n - 1), n - 0.5, float(n), n + 2.5, 1e300]
            rng = np.random.default_rng(n * 100 + k)
            X = np.vstack([X, rng.choice(extremes, size=(200, k))])
            want = [sorted(decode_selection(row, space)) for row in X]
            assert subset_rows(X, space).tolist() == want, (n, k)


def test_subset_ranks_are_a_bijection_and_lex_rows_enumerate():
    for n in range(1, 13):
        for k in range(1, n + 1):
            rows = np.array(list(itertools.combinations(range(n), k)))
            size = math.comb(n, k)
            assert sorted(subset_ranks(rows, n).tolist()) == list(range(size))
            chunk = max(1, size // 3)  # the oracle's sweep, in uneven chunks
            swept = np.vstack(list(lex_subset_chunks(n, k, chunk)))
            assert swept.tolist() == rows.tolist(), (n, k)


@settings(max_examples=80, deadline=None)
@given(n_codes=st.integers(1, 200), extra=st.integers(0, 40),
       k=st.integers(1, 6), m=st.sampled_from([1, 8, 30, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_diversity_term_counts_the_distinct_codes(n_codes, extra, k, m, seed):
    """The P2/P4 region_diversity term over 1 to 200 codes (1 to 4 words
    of bits), from one row to blocks past a solver population: it is
    -beta times len(set(codes[row])), bit for bit the sort formula."""
    rng = np.random.default_rng(seed)
    codes = rng.permutation(np.concatenate(
        [np.arange(n_codes), rng.integers(0, n_codes, extra)]))
    n, beta = len(codes), 0.37
    rows = np.sort(rng.random((m, n)).argsort(axis=1)[:, :min(k, n)], axis=1)
    terms = _sum_plus_diversity_terms(np.ones(n), codes.tolist(), beta)(rows)
    assert terms[:, 1].tolist() == [-beta * len(set(codes[row].tolist()))
                                    for row in rows]
    by_sort = np.sort(codes[rows], axis=1)
    distinct = 1 + np.count_nonzero(np.diff(by_sort, axis=1), axis=1)
    assert terms[:, 1].tobytes() == (-beta * distinct).tobytes()


def _fold_step_is_first(fold, cols):
    """One ``step`` of the (j - 1)-column state gives the j-column terms
    bit for bit, from a C-ordered block as from a strided one."""
    whole = fold.finish(fold.first(cols))
    stepped = fold.finish(fold.step(fold.first(cols[:-1]), cols[-1]))
    assert stepped.tobytes() == whole.tobytes()
    assert fold(np.ascontiguousarray(cols.T)).tobytes() == whole.tobytes()


@settings(max_examples=80, deadline=None)
@given(n_codes=st.integers(1, 200), extra=st.integers(0, 40),
       j=st.integers(2, 6), m=st.sampled_from([1, 8, 30, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_diversity_fold_steps_as_it_starts(n_codes, extra, j, m, seed):
    """The P2/P4 fold over 1 to 200 codes (1 to 4 words of bits) and
    float values, drawn as in the distinct-code test above."""
    rng = np.random.default_rng(seed)
    codes = rng.permutation(np.concatenate(
        [np.arange(n_codes), rng.integers(0, n_codes, extra)]))
    n = len(codes)
    fold = _sum_plus_diversity_terms(rng.normal(0.0, 100.0, n), codes.tolist(), 0.37)
    rows = np.sort(rng.random((m, n)).argsort(axis=1)[:, :min(j, n)], axis=1)
    if rows.shape[1] > 1:
        _fold_step_is_first(fold, rows.T)


@settings(max_examples=40, deadline=None)
@given(scale=st.sampled_from(["small", "medium"]), j=st.integers(2, 5),
       m=st.sampled_from([1, 8, 30, 300]), seed=st.integers(0, 2 ** 32 - 1))
def test_coverage_fold_steps_as_it_starts(scale, j, m, seed):
    """The P6 fold (pathogen maxima and burden load) on seed-0 data."""
    inst = _oracle_instance("P6", scale)
    n, k = inst.space.n_candidates, inst.space.k
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.random((m, n)).argsort(axis=1)[:, :min(j, k)], axis=1)
    _fold_step_is_first(inst.binding.terms, rows.T)


@functools.cache
def _oracle_instance(problem_id, scale, dropped=()):
    return generate(problem_id, scale, 0, drop_properties=dropped)


@pytest.mark.parametrize("problem_id, scale, dropped", [
    *[(p, s, ()) for p in ("P2", "P4", "P6") for s in ("small", "medium")],
    *[(p, "small", (name,)) for p in ("P2", "P4")
      for name in DROPPABLE_PROPERTIES[p]],
])
def test_fold_sweep_totals_equal_the_chunk_sweep(problem_id, scale, dropped):
    """Every total of the level sweep, in order, is the chunk sweep's
    ``weighted_sum`` of ``terms`` of the same subset, bit for bit."""
    binding = fresh_binding(_oracle_instance(problem_id, scale, dropped))
    n, k, fold = binding.space.n_candidates, binding.space.k, binding.terms
    chunks = [binding.weighted_sum(fold(rows)) for rows in lex_subset_chunks(n, k)]
    levels = [binding.weighted_sum(fold.finish(state))
              for state in _fold_blocks(fold, n, k)]
    assert np.concatenate(levels).tobytes() == np.concatenate(chunks).tobytes()


@pytest.mark.parametrize("problem_id, scale, dropped", [
    ("P1", "small", ()), ("P1", "medium", ()), ("P1", "small", ("side_effect_count",)),
    ("P2", "small", ()), ("P2", "medium", ())])
def test_pattern_a_fold_sweep_totals_equal_the_chunk_sweep(problem_id, scale, dropped):
    """Every total of the level sweep of P1 or the P2 twin, in order, is
    bit for bit the chunk sweep's: one ``execute_floats`` per term over
    the block of each chunk's candidate ids, id rule included."""
    instance = _oracle_instance(problem_id, scale, dropped)
    binding = (fresh_binding if problem_id == "P1" else pattern_a_binding)(instance)
    n, k, fold = binding.space.n_candidates, binding.space.k, binding.terms
    ids = np.array(binding.candidates)
    chunks = [binding.weighted_sum(np.column_stack([
        term.coefficient * execute_floats(binding.graph, term.template, term.scalars,
                                          binding.selection_param, ids[rows])[:, 0]
        for term in binding.objective_terms])) for rows in lex_subset_chunks(n, k)]
    levels = [binding.weighted_sum(fold.finish(state))
              for state in _fold_blocks(fold, n, k)]
    assert np.concatenate(levels).tobytes() == np.concatenate(chunks).tobytes()


# ---- population batches against the scalar route ----

@functools.cache
def _batch_instance(problem_id):
    return generate(problem_id, "small", 0)


def _fresh(problem_id):
    """A counter-clean binding of the small seed-0 instance; "P2-twin" is
    P2's Pattern A twin."""
    if problem_id == "P2-twin":
        return pattern_a_binding(_batch_instance("P2"))
    return fresh_binding(_batch_instance(problem_id))


@st.composite
def _selection_batches(draw, space):
    """1-3 batches of rows from a small pool, so rows repeat within and
    across batches; coordinates collide, sit on the box edges and, as
    the scalar route accepts them, lie outside the box."""
    n, k = space.n_candidates, space.k
    coordinate = st.one_of(
        st.floats(0.0, float(space.upper[0])),
        st.sampled_from([0.0, float(space.upper[0])]),
        st.integers(0, n - 1).map(float),
        st.integers(0, 2).map(lambda i: i + 0.5),
        st.sampled_from([-0.5, -7.0, n - 0.5, n + 0.5, 1e300, -1e300]))
    pool = draw(st.lists(st.lists(coordinate, min_size=k, max_size=k),
                         min_size=1, max_size=4))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12)
    return [np.array([pool[i] for i in batch])
            for batch in draw(st.lists(picks, min_size=1, max_size=3))]


@pytest.mark.parametrize("problem_id", ["P2", "P3", "P4", "P5", "P6", "P7",
                                        "P1", "P2-twin"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_row_equals_batch_of_one(problem_id, data):
    """evaluate_batch(X)[i] == evaluate_batch(X[i:i+1])[0] ==
    evaluate(X[i]).total, bitwise, for any batch size."""
    binding = dataclasses.replace(_fresh(problem_id), memoize=False)
    space = binding.space
    if space.kind == "selection":
        X = data.draw(_selection_batches(space))[0]
    else:
        coordinate = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
        unit = data.draw(st.lists(st.lists(coordinate, min_size=space.dim,
                                           max_size=space.dim),
                                  min_size=1, max_size=8))
        X = space.lower + (space.upper - space.lower) * np.array(unit)
    totals = binding.evaluate_batch(X)
    # the solver's candidate blocks are column-major
    assert binding.evaluate_batch(np.asfortranarray(X)).tobytes() == totals.tobytes()
    for i in range(len(X)):
        one = binding.evaluate_batch(X[i:i + 1])
        fit = binding.evaluate(X[i])
        assert one.tobytes() == totals[i:i + 1].tobytes()
        assert np.float64(fit.total).tobytes() == totals[i:i + 1].tobytes()


@pytest.mark.parametrize("problem_id", ["P2", "P4", "P6", "P1", "P2-twin"])
def test_memo_never_changes_a_run(problem_id):
    inst = generate(problem_id.removesuffix("-twin"), "small", 5)
    binding = (pattern_a_binding(inst) if problem_id.endswith("-twin")
               else inst.binding)
    for variant in VARIANTS:
        config = SolverConfig(variant=variant, pop_size=20, iterations=60,
                              seed=13)
        memo = run(dataclasses.replace(binding, memoize=True), config)
        plain = run(dataclasses.replace(binding, memoize=False), config)
        assert memo.best_total == plain.best_total, variant
        assert memo.curve.tobytes() == plain.curve.tobytes(), variant
        assert memo.best_x.tobytes() == plain.best_x.tobytes(), variant
        assert memo.evaluations == plain.evaluations, variant
        assert memo.memo_hits > 0 and plain.memo_hits == 0, variant


def _state(binding):
    """Counters, seen-bitmaps and the memo entries they mark (None: the
    memo was never used)."""
    seen = getattr(binding, "_seen_bits", None)
    memo = None if seen is None else binding._memo[seen.any(axis=0)].tobytes()
    return (binding.evaluations, binding.memo_hits, binding.query_executions,
            None if seen is None else seen.tobytes(), memo)


# P5, a continuous space, has no memo
_SCALAR_CASES = [(p, m) for p in ("P1", "P2", "P4", "P6", "P2-twin")
                 for m in (True, False)] + [("P5", False)]


@pytest.mark.parametrize("problem_id, memoize", _SCALAR_CASES, ids=[
    f"{p}-{'memo' if m else 'no-memo'}" for p, m in _SCALAR_CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_evaluate_batch_equals_scalar_route(problem_id, memoize, data):
    """``evaluate`` row by row and ``evaluate_batch`` of the same rows
    give the same totals and leave the same counters, seen-bitmaps and
    memo: a scalar call is a batch of one."""
    batched = dataclasses.replace(_fresh(problem_id), memoize=memoize)
    scalar = dataclasses.replace(_fresh(problem_id), memoize=memoize)
    space = batched.space
    if space.kind == "selection":
        batches = data.draw(_selection_batches(space))
    else:
        unit = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=space.dim,
                                           max_size=space.dim), min_size=1, max_size=8))
        batches = [space.lower + (space.upper - space.lower) * np.array(unit)]
    for X in batches:
        got = batched.evaluate_batch(X)
        want = np.array([scalar.evaluate(x).total for x in X])
        assert got.tobytes() == want.tobytes()
        assert _state(batched) == _state(scalar)
    assert (_state(scalar)[3] is None) == (not memoize)


@pytest.mark.parametrize("problem_id", ["P2", "P4", "P6"])
def test_memo_counts_permutations_and_stored_subsets(problem_id):
    """One batch holds one subset in three permutations, one of them
    through the cyclic rule, and a subset an earlier ``evaluate``
    stored: with the memo on, the first permutation is the only miss."""
    inst = generate(problem_id, "medium", 0)
    k = inst.space.k
    subset = np.array([*range(0, 2 * k - 2, 2), 2 * k - 3], dtype=np.float64)
    cyclic = subset.copy()
    cyclic[-1] = subset[-2]  # 2k - 4 twice: the second advances to 2k - 3
    stored = np.arange(k, 2 * k) + 0.25
    X = np.stack([subset + 0.5, subset[::-1] + 0.5, stored,
                  np.roll(cyclic, 2) + 0.2])
    results = []
    for memoize in (True, False):
        binding = dataclasses.replace(fresh_binding(inst), memoize=memoize)
        first = binding.evaluate(stored)
        totals = binding.evaluate_batch(X)
        assert binding.evaluations == 5
        assert binding.memo_hits == (3 if memoize else 0)
        assert totals[0] == totals[1] == totals[3]
        assert totals[2] == first.total
        results.append(totals.tobytes())
    assert results[0] == results[1]


def test_run_counts_its_own_query_executions():
    binding = fresh_binding(generate("P1", "small", 0))
    config = SolverConfig("jaya", pop_size=10, iterations=20, seed=1)
    first = run(binding, config)
    again = run(binding, config)  # the same subsets: every one is a hit
    assert first.query_executions == binding.query_executions > 0
    assert again.query_executions == 0


def test_batch_scored_subset_is_a_hit_for_evaluate():
    binding = fresh_binding(generate("P2", "small", 0))
    X = np.array([[0.5, 3.2, 7.9, 1.1, 12.0], [12.9, 7.0, 3.9, 1.5, 0.0]])
    totals = binding.evaluate_batch(X)  # one subset twice: a miss, then a hit
    assert binding.memo_hits == 1
    first = binding.evaluate(X[1])
    assert first.total == totals[0] == totals[1]
    assert binding.evaluate(X[0]) == first
    assert binding.evaluate(X[1]) == first
    assert binding.evaluations == 5 and binding.memo_hits == 4


class _LoopedBatch:
    """A binding whose batch is one ``evaluate`` per row, the route the
    solver took before it scored populations in one call."""

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space

    evaluations = property(lambda self: self.inner.evaluations)
    memo_hits = property(lambda self: self.inner.memo_hits)
    query_executions = property(lambda self: self.inner.query_executions)

    def evaluate_batch(self, X):
        return np.array([self.inner.evaluate(x).total for x in X])


@pytest.mark.parametrize("problem_id", ["P1", "P2-twin", "P2", "P4", "P6"])
def test_batched_run_equals_looped_run(problem_id):
    twin = problem_id == "P2-twin"
    inst = generate("P2" if twin else problem_id, "small", 3)

    def binding():
        return pattern_a_binding(inst) if twin else fresh_binding(inst)
    for variant in VARIANTS:
        config = SolverConfig(variant=variant, pop_size=20, iterations=80,
                              seed=11)
        fast = run(binding(), config)
        slow = run(_LoopedBatch(binding()), config)
        assert fast.best_total == slow.best_total, variant
        assert fast.curve.tobytes() == slow.curve.tobytes(), variant
        assert fast.best_x.tobytes() == slow.best_x.tobytes(), variant
        assert (fast.evaluations, fast.memo_hits, fast.query_executions) == (
            slow.evaluations, slow.memo_hits, slow.query_executions), variant


_LOCKSTEP_CASES = (
    [f"{pid}-small" for pid in PROBLEM_IDS]
    + ["P1-medium", "P2-medium", "P5-nonlinear", "P3-disrupted",
       "P7-disrupted", "P2-degraded"])


@functools.lru_cache(maxsize=None)
def _lockstep_instance(case):
    if case == "P5-nonlinear":
        return generate("P5", "small", 2, p5_mode="nonlinear")
    if case == "P3-disrupted":
        return inject_disruption(generate("P3", "small", 2),
                                 DisruptionSpec("capacity_halving", 0.3, seed=1))
    if case == "P7-disrupted":
        return inject_disruption(generate("P7", "small", 2),
                                 DisruptionSpec("time_inflation", 0.3, seed=1))
    if case == "P2-degraded":
        return generate("P2", "small", 2, drop_properties=("trial_count",))
    problem_id, scale = case.split("-")
    return generate(problem_id, scale, 2)


def _run_fields(result):
    return (result.best_total, result.best_x.tobytes(), result.curve.tobytes(),
            result.evaluations, result.memo_hits, result.query_executions)


@pytest.mark.parametrize("case", _LOCKSTEP_CASES)
def test_lockstep_runs_equal_solo_runs(case):
    """Every run of a group of 1, 2 or 3 equals its solo ``run`` on a
    fresh binding, bit for bit and counter for counter, for every
    variant, with the memo on and off.  The group of 3 holds seed 5
    twice: each run has its own seen-bitmap, so both count alike."""
    inst = _lockstep_instance(case)
    memos = (True, False) if inst.space.kind == "selection" else (False,)
    for memoize in memos:
        def binding():
            return dataclasses.replace(fresh_binding(inst), memoize=memoize)
        for variant in VARIANTS:
            def config(seed):
                return SolverConfig(variant, pop_size=8, iterations=12,
                                    seed=seed, jump_rate=0.5)
            solo = {seed: _run_fields(run(binding(), config(seed)))
                    for seed in (5, 9)}
            for seeds in ((9,), (9, 5), (5, 9, 5)):
                group = run_group(binding(), [config(s) for s in seeds])
                assert [r.seed for r in group] == list(seeds)
                for result in group:
                    assert _run_fields(result) == solo[result.seed], (
                        memoize, variant, seeds, result.seed)


def test_callable_binding_runs_as_a_group_of_one():
    space = selection_space(2, 6)
    fn = lambda x: assemble_fitness({"v": float(sum(decode_selection(x, space)))},
                                    {}, {})  # noqa: E731
    config = SolverConfig("bmwr", pop_size=6, iterations=10, seed=4)
    solo = run(CallableBinding(space=space, fn=fn), config)
    binding = CallableBinding(space=space, fn=fn)
    (grouped,) = run_group(binding, [config])
    assert _run_fields(grouped) == _run_fields(solo)
    assert binding.evaluations == grouped.evaluations == 6 * 11


def test_run_group_refuses_configs_that_differ_beyond_seed():
    binding = fresh_binding(generate("P2", "small", 0))
    with pytest.raises(ValueError, match="differ in seed only"):
        run_group(binding, [SolverConfig("jaya", seed=1),
                            SolverConfig("jaya", seed=2, pop_size=10)])


def test_evaluate_runs_counts_each_run_apart():
    """Two runs scoring the same subsets: each misses them once, as it
    would alone, and the binding's counters hold the sums."""
    binding = fresh_binding(generate("P2", "small", 0))
    X = np.array([[0.5, 3.2, 7.9, 1.1, 12.0], [12.9, 7.0, 3.9, 1.5, 0.0]])
    totals, counts = binding.evaluate_runs(np.vstack([X, X]), [0, 1])
    assert counts.tolist() == [[2, 2], [1, 1], [0, 0]]
    again, counts = binding.evaluate_runs(np.vstack([X, X]), [1, 2])
    assert counts.tolist() == [[2, 2], [2, 1], [0, 0]]
    assert totals.tolist() == again.tolist()
    assert (binding.evaluations, binding.memo_hits) == (8, 5)
    assert binding.evaluate_batch(X).tolist() == totals[:2].tolist()  # run 0
    assert binding.memo_hits == 7
    with pytest.raises(ValueError, match="does not split into 2 runs"):
        binding.evaluate_runs(X[:1], [0, 1])


_EVERY_BINDING = ("P1", "P2-twin", "P2", "P3", "P4", "P5", "P6", "P7")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_batch_rejects_non_finite_coordinate(bad):
    """On every built-in binding, in a batch and in ``evaluate`` (a
    batch of one)."""
    for problem_id in _EVERY_BINDING:
        binding = _fresh(problem_id)
        X = np.vstack([binding.space.lower, binding.space.lower])
        X[1, 1] = bad
        with pytest.raises(ValueError,
                           match="batch row 1 has a non-finite coordinate"):
            binding.evaluate_batch(X)
        with pytest.raises(ValueError,
                           match="batch row 0 has a non-finite coordinate"):
            binding.evaluate(X[1])
        assert binding.evaluations == 0, problem_id


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_batch_rejects_wrong_width(extra):
    """A row with a coordinate too few or too many is refused, never
    scored as another subset or stored in the memo."""
    for problem_id in _EVERY_BINDING:
        binding = _fresh(problem_id)
        width = binding.space.dim + extra
        row = np.resize(binding.space.lower, width)
        message = (f"batch rows have {width} coordinates, "
                   f"the space has {binding.space.dim}")
        with pytest.raises(ValueError, match=message):
            binding.evaluate_batch(np.vstack([row, row]))
        with pytest.raises(ValueError, match=message):
            binding.evaluate(row)
        assert (binding.evaluations, binding.query_executions) == (0, 0), problem_id


def _nan_on_call(formula, call):
    """``formula`` with the last row of its ``call``-th call set to NaN."""
    calls = []

    def terms(rows):
        calls.append(rows.shape[0])
        out = formula(rows)
        if len(calls) == call:
            out[-1] = math.nan
        return out
    return terms


def test_batch_rejects_non_finite_total_and_run_names_it():
    inst = generate("P2", "small", 0)
    honest = inst.binding.terms
    binding = dataclasses.replace(inst.binding,
                                  terms=_nan_on_call(honest, 1))
    with pytest.raises(ValueError, match="batch row 1 has a non-finite total nan"):
        binding.evaluate_batch(np.array([[0.0, 1.0, 2.0, 3.0, 4.0],
                                         [5.0, 1.0, 2.0, 3.0, 4.0]]))
    binding = dataclasses.replace(inst.binding, terms=_nan_on_call(honest, 1))
    with pytest.raises(ValueError, match="batch row 0 has a non-finite total nan"):
        binding.evaluate(np.array([5.0, 1.0, 2.0, 3.0, 4.0]))
    # the initial population, iteration 0, then iteration 1
    binding = dataclasses.replace(inst.binding,
                                  terms=_nan_on_call(honest, 3))
    with pytest.raises(RuntimeError,
                       match="rao1 seed 4: evaluation failed at iteration 1$"
                       ) as info:
        run(binding, SolverConfig(variant="rao1", pop_size=10, iterations=5,
                                  seed=4))
    assert isinstance(info.value.__cause__, ValueError)


# ---- dropped properties ----

@pytest.mark.parametrize("problem_id, prop", [
    ("P6", "burden"), ("P3", "demand"), ("P2", "no_such_prop")])
def test_generate_rejects_a_property_it_cannot_drop(problem_id, prop):
    with pytest.raises(PropertyNotDroppable,
                       match=f"{problem_id} cannot drop node property '{prop}'"):
        generate(problem_id, "small", 0, drop_properties=(prop,))


@pytest.mark.parametrize("problem_id, prop, digest", [
    ("P1", "side_effect_count", "c59385211104be06"),
    ("P2", "trial_count", "a46ab938f1af72f4"),
    ("P2", "who_region", "08cd84c50ea86a79"),
    ("P4", "who_region", "61f2e87aacde9217"),
    ("P4", "physician_density", "8c25daa3340ab13b"),
])
def test_documented_drops_keep_their_spec_bytes(problem_id, prop, digest):
    spec = generate(problem_id, "small", 0, drop_properties=(prop,)).spec_bytes()
    assert hashlib.sha256(spec).hexdigest()[:16] == digest


@pytest.mark.parametrize("problem_id, scale, seed, digest", [
    ("P3", "small", 0, "166b47d8659b8df5"),
    ("P3", "small", 1, "ad77e8e5f59aa492"),
    ("P3", "small", 5, "1ac62580ac5a426c"),
    ("P3", "medium", 0, "e625f2384f6e4d7f"),
    ("P3", "medium", 1, "048d8c16e6014afd"),
    ("P3", "medium", 5, "bd6452e00fc48b44"),
    ("P7", "small", 0, "a22e126030472875"),
    ("P7", "small", 1, "9cb91754f828a249"),
    ("P7", "small", 5, "257670d80a1cf336"),
    ("P7", "medium", 0, "eadc8dc325f24764"),
    ("P7", "medium", 1, "e8cdd05333dfc34e"),
    ("P7", "medium", 5, "2abd1be11917c629"),
])
def test_flow_generation_keeps_its_graph_and_data(problem_id, scale, seed,
                                                  digest):
    """Pins what the spec bytes leave out: every node's labels and
    properties in insertion order (the ``code`` key of P3 ports
    included), every edge, and the oracle's ``params["data"]`` arrays."""
    inst = generate(problem_id, scale, seed)
    h = hashlib.sha256(inst.spec_bytes())
    for node in inst.graph.nodes:
        h.update(json.dumps([sorted(node.labels), node.properties]).encode())
    for edge in inst.graph.edges:
        h.update(json.dumps([edge.src, edge.type, edge.dst,
                             edge.properties]).encode())
    for key, array in sorted(inst.params["data"].items()):
        h.update(key.encode() + str(array.shape).encode() + array.tobytes())
    assert h.hexdigest()[:16] == digest


# ---- disruptions ----

def test_disruption_targets_ceiling():
    # 30% of 4 -> ceil(1.2) = 2, distinct, sorted, seeded
    got = disruption_targets(4, 0.3, seed=5)
    assert len(got) == 2
    assert got == sorted(set(got))
    assert disruption_targets(4, 0.3, seed=5) == got


def test_disruption_fraction_zero_is_noop():
    inst = generate("P3", "small", 1)
    same = inject_disruption(
        inst, DisruptionSpec(mode="capacity_halving", fraction=0.0, seed=0))
    assert same is inst


def test_disruption_wrong_problem_rejected():
    with pytest.raises(ValueError):
        inject_disruption(
            generate("P7", "small", 0),
            DisruptionSpec(mode="capacity_halving", fraction=0.3, seed=0))
    with pytest.raises(ValueError):
        inject_disruption(
            generate("P3", "small", 0),
            DisruptionSpec(mode="time_inflation", fraction=0.3, seed=0))


def test_disruption_spec_validation():
    with pytest.raises(ValueError):
        DisruptionSpec(mode="meteor_strike", fraction=0.3, seed=0)
    with pytest.raises(ValueError):
        DisruptionSpec(mode="capacity_halving", fraction=1.5, seed=0)
    with pytest.raises(ValueError):
        DisruptionSpec(mode="time_inflation", fraction=0.3, factor=0.9, seed=0)


def test_p3_capacity_halving():
    inst = generate("P3", "small", 2)
    dspec = DisruptionSpec(mode="capacity_halving", fraction=0.3, seed=4)
    hit = inject_disruption(inst, dspec)
    affected = hit.spec["disruption"]["ports_halved"]
    assert len(affected) == math.ceil(0.3 * 4)
    base = np.array(inst.spec["capacities"])
    new = np.array(hit.spec["capacities"])
    for j in range(base.size):
        if j in affected:
            assert new[j] == base[j] * 0.5
        else:
            assert new[j] == base[j]


def test_p7_time_inflation_doubles_affected_only():
    inst = generate("P7", "small", 2)
    dspec = DisruptionSpec(mode="time_inflation", fraction=0.3, factor=2.0,
                           seed=9)
    hit = inject_disruption(inst, dspec)
    affected = set(hit.spec["disruption"]["routes_inflated"])
    base = inst.spec["travel_time"]
    new = hit.spec["travel_time"]
    assert len(affected) == math.ceil(0.3 * len(base))
    for idx, (a, b) in enumerate(zip(base, new)):
        if idx in affected:
            assert b == a * 2.0
        else:
            assert b == a  # bit-identical


def test_p3_disruption_monotonicity():
    """Halving port capacity can never lower the oracle optimum."""
    dspec = DisruptionSpec(mode="capacity_halving", fraction=0.3, seed=3)
    for seed in range(8):
        inst = generate("P3", "small", seed)
        before = solve_oracle(inst).optimum
        after = solve_oracle(inject_disruption(inst, dspec)).optimum
        assert after >= before - 1e-9, seed


def test_disrupted_spec_records_disruption():
    inst = generate("P3", "small", 0)
    hit = inject_disruption(
        inst, DisruptionSpec(mode="capacity_halving", fraction=0.5, seed=1))
    record = hit.spec["disruption"]
    assert record["mode"] == "capacity_halving"
    assert record["fraction"] == 0.5
    # core keys still lead the snapshot in contract order
    assert list(hit.spec.keys())[:3] == SPEC_KEYS["P3"]


@pytest.mark.parametrize(
    "problem_id, dspec, provenance, term_sources, record, affected_key", [
    ("P3", DisruptionSpec(mode="capacity_halving", fraction=0.5, seed=1),
     ("distance_km: shortest_paths(ports -> cities, length_km, ROAD)",
      "demands: MATCH (n:City) RETURN n.demand",
      "capacities: MATCH (n:Port) RETURN n.capacity"),
     {"transport_cost": ("distance_km", "demands"), "balance": ("demands",),
      "capacity": ("capacities",)},
     {"mode": "capacity_halving", "fraction": 0.5, "seed": 1}, "ports_halved"),
    ("P7", DisruptionSpec(mode="time_inflation", fraction=0.5, factor=2.5,
                          seed=1),
     ("travel_time: shortest_paths(exits -> centroids, length_km, ROAD) / 50",
      "pop: MATCH (n:Centroid) RETURN n.pop",
      "capacity: MATCH (n:Exit) RETURN n.capacity"),
     {"person_hours": ("travel_time", "pop"), "balance": ("pop",),
      "capacity": ("capacity",)},
     {"mode": "time_inflation", "fraction": 0.5, "factor": 2.5, "seed": 1},
     "routes_inflated"),
])
def test_flow_problem_names_its_sources(problem_id, dspec, provenance,
                                        term_sources, record, affected_key):
    """P3 and P7 share one builder; each keeps its own array names,
    queries, terms and disruption record."""
    hit = inject_disruption(generate(problem_id, "small", 0), dspec)
    assert hit.binding.provenance == provenance
    assert dict(hit.binding.term_sources) == term_sources
    assert dict(hit.binding.missing_counts) == dict.fromkeys(hit.binding.arrays, 0)
    disruption = hit.spec["disruption"]
    assert list(disruption) == [*record, affected_key]
    assert {key: disruption[key] for key in record} == record


# ---- degeneracy detection ----

def test_healthy_p4_not_flagged():
    report = detect_degenerate_terms(generate("P4", "small", 0), samples=200)
    assert report.flagged_terms == ()


def test_region_stripped_p4_flags_diversity():
    inst = generate("P4", "small", 0, drop_properties=("who_region",))
    report = detect_degenerate_terms(inst, samples=200)
    assert "region_diversity" in report.flagged_terms
    stats = {t.name: t for t in report.terms}
    div = stats["region_diversity"]
    assert div.minimum == div.maximum
    assert div.variance == 0.0
    assert div.missing_property_count == 25  # every country node


def test_degeneracy_report_shape_two_samples():
    for pid in PROBLEM_IDS:
        inst = generate(pid, "small", 0)
        report = detect_degenerate_terms(inst, samples=2)
        term_names = set(inst.binding.evaluate(
            _mid_vector(inst)).objective_terms)
        assert {t.name for t in report.terms} >= term_names
        assert report.samples == 2


@pytest.mark.parametrize("samples", [50, 200, 400])
def test_pattern_a_missing_count_is_per_node(samples):
    inst = generate("P1", "small", 0, drop_properties=("side_effect_count",))
    report = detect_degenerate_terms(inst, samples=samples)
    stats = {t.name: t.missing_property_count for t in report.terms}
    assert stats == {"gene_coverage": 0, "side_effect_burden": 20}  # every drug
    assert inst.binding.evaluations == inst.binding.query_executions == 0


@pytest.mark.parametrize("dropped", ["trial_count", "who_region"])
def test_pattern_a_twin_reports_pattern_b_missing_counts(dropped):
    inst = generate("P2", "small", 0, drop_properties=(dropped,))
    twin = dataclasses.replace(inst, binding=pattern_a_binding(inst))
    counts = {t.name: t.missing_property_count
              for t in detect_degenerate_terms(twin, samples=50).terms}
    expected = {t.name: t.missing_property_count
                for t in detect_degenerate_terms(inst, samples=50).terms}
    assert counts == expected
    assert sorted(counts.values()) == [0, 20]


@pytest.mark.parametrize("problem_id,dropped",
                         [(pid, ()) for pid in PROBLEM_IDS]
                         + [("P4", ("who_region",))])
def test_degeneracy_report_matches_scalar_draws(problem_id, dropped):
    """The one-block draw gives the samples, and so the report, of one
    scalar draw per coordinate."""
    for seed in range(3):
        inst = generate(problem_id, "small", seed, drop_properties=dropped)
        report = detect_degenerate_terms(inst, samples=200, seed=seed)
        assert ([dataclasses.astuple(t) for t in report.terms]
                == reference.degeneracy_by_scalar_draws(inst, 200, seed))


def test_degeneracy_requires_two_samples():
    with pytest.raises(ValueError):
        detect_degenerate_terms(generate("P4", "small", 0), samples=1)


def test_degeneracy_detector_deterministic():
    inst = generate("P4", "small", 3)
    a = detect_degenerate_terms(inst, samples=50, seed=2)
    b = detect_degenerate_terms(inst, samples=50, seed=2)
    assert a == b


def _mid_vector(inst):
    lo, hi = inst.space.lower, inst.space.upper
    return lo + 0.5 * (hi - lo)
