"""Exact oracles: brute-force subset search, min-cost transportation,
merit-order dispatch.  The transportation solver is also swept against a
complete integer enumeration on tiny instances."""

import itertools
import math
import re

import numpy as np
import pytest

from graphopt.graph import PropertyGraph
from graphopt.oracles import (BRUTE_FORCE_LIMIT, DispatchInstance, Fold,
                              InfeasibleDispatch, InfeasibleTransport,
                              OracleTooLarge, TransportationInstance,
                              _fold_blocks, _lex_subset, brute_force_selection,
                              lex_subset_chunks, merit_order_dispatch,
                              solve_transportation)
from graphopt.problems import (CallableBinding, PatternABinding,
                               PatternBBinding, QueryTerm, assemble_fitness,
                               decode_selection, selection_space)
from graphopt.querylang import parse_template
from graphopt.rng import SeededRng
from graphopt.suite import generate, solve_oracle
from tests.reference import transportation_by_enumeration


def value_pick_binding(values, k):
    """fitness = -(sum of selected values); the classic hand example,
    as a ``terms`` binding the oracle sweeps through its ``terms``."""
    arr = -np.asarray(values, dtype=np.float64)
    return PatternBBinding(space=selection_space(k, len(values)),
                           arrays={"v": tuple(values)},
                           terms=lambda rows: arr[rows].sum(axis=1)[:, None],
                           term_sources={"value": ("v",)})


def value_pick_callable(values, k):
    """The same fitness as a ``CallableBinding``, which the oracle
    sweeps through its ``evaluate_batch``."""
    space = selection_space(k, len(values))

    def fn(x):
        sel = decode_selection(x, space)
        return assemble_fitness({"value": -float(sum(values[i] for i in sel))},
                                {}, {})

    return CallableBinding(space=space, fn=fn)


def value_pick_fold(values, k):
    """The same fitness with its ``terms`` declared as a ``Fold``, which
    the oracle sweeps level by level."""
    arr = -np.asarray(values, dtype=np.float64)

    def first(cols):
        return (arr[cols].sum(axis=0),)

    def step(state, col):
        return (state[0] + arr[col],)

    return PatternBBinding(space=selection_space(k, len(values)),
                           arrays={"v": tuple(values)},
                           terms=Fold(first, step, lambda state: state[0][:, None]),
                           term_sources={"value": ("v",)})


def value_pick_pattern_a(values, k):
    """The same fitness as a Pattern A binding over nodes that carry the
    values, read by ``sum(d.v)``: its ``terms`` is a ``Fold`` over the
    node block, which the oracle sweeps level by level."""
    g = PropertyGraph()
    ids = [g.add_node({"D"}, {"v": v}) for v in values]
    g.freeze()
    term = QueryTerm("value", parse_template(
        "MATCH (d:D) WHERE d.id IN $selected RETURN sum(d.v)"), coefficient=-1.0)
    return PatternABinding(graph=g, space=selection_space(k, len(values)),
                           candidates=ids, objective_terms=[term], memoize=False)


def rows_fold(terms):
    """``terms`` over (m, k) index rows as a ``Fold`` whose state is the
    rows themselves, so the level sweep hands every subset to ``terms``."""
    return Fold(first=lambda cols: (np.ascontiguousarray(cols.T),),
                step=lambda state, col: (np.column_stack([state[0], col]),),
                finish=lambda state: terms(state[0]))


def every_sweep(values, k):
    return (value_pick_binding(values, k), value_pick_callable(values, k),
            value_pick_fold(values, k), value_pick_pattern_a(values, k))


# ---- brute force ----

def test_brute_force_hand_example():
    # N=5, k=2, values {3,1,4,1,5} -> pick {2,4}, fitness -9
    for binding in every_sweep([3, 1, 4, 1, 5], 2):
        subset, fit = brute_force_selection(binding)
        assert subset == (2, 4)
        assert fit.total == -9.0


def test_brute_force_k_equals_n():
    for binding in every_sweep([2, 2, 2], 3):
        subset, fit = brute_force_selection(binding)
        assert subset == (0, 1, 2)
        assert fit.total == -6.0


def test_brute_force_tie_lexicographic():
    # values make {0,1} and {0,2} tie; lexicographically smaller wins
    for binding in every_sweep([5, 3, 3, 1], 2):
        subset, _ = brute_force_selection(binding)
        assert subset == (0, 1)


def test_vectorized_brute_force_tie_lexicographic():
    # C(21, 5) = 20,349 subsets span two sweep blocks; any 5 of the ten
    # 5s tie, from (0..4) in the first block to (16..20) in the last
    values = [5] * 5 + [1] * 11 + [5] * 5
    for binding in (value_pick_binding(values, 5), value_pick_fold(values, 5),
                    value_pick_pattern_a(values, 5)):
        subset, fit = brute_force_selection(binding)
        assert subset == (0, 1, 2, 3, 4)
        assert fit.total == -25.0


def test_batch_brute_force_tie_lexicographic():
    # the same tie across two sweep chunks, on a binding without terms
    values = [5] * 5 + [1] * 11 + [5] * 5
    binding = value_pick_callable(values, 5)
    subset, fit = brute_force_selection(binding)
    assert subset == (0, 1, 2, 3, 4)
    assert fit.total == -25.0
    assert binding.evaluations == math.comb(21, 5) + 1  # the winner again


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_brute_force_rejects_a_non_finite_total(bad):
    # C(30, 4) = 27,405 subsets span two sweep blocks; the optimum sits
    # at lexicographic position 20,000 and the bad total right after it.
    # In C(4, 2), one block, the optimum (0, 1) comes before (1, 2)
    combinations = itertools.combinations
    cases = [(30, 4, *list(combinations(range(30), 4))[20000:20002]),
             (4, 2, (0, 1), (1, 2))]
    for n, k, best, broken in cases:
        def terms(rows, best=np.array(best), broken=np.array(broken)):
            totals = np.ones(rows.shape[0])
            totals[(rows == best).all(axis=1)] = -5.0
            totals[(rows == broken).all(axis=1)] = bad
            return totals[:, None]

        for formula in (terms, rows_fold(terms)):  # chunk and level sweeps
            binding = PatternBBinding(space=selection_space(k, n),
                                      arrays={"v": tuple(range(n))}, terms=formula,
                                      term_sources={"value": ("v",)})
            with pytest.raises(ValueError, match=re.escape(
                    f"subset {broken} has a non-finite total {bad}")):
                brute_force_selection(binding)


def test_lex_chunks_equal_itertools_combinations():
    # every (n, k) up to n = 12, and long rows and long lists: built up
    # from the empty subset, the list of the 37-subsets of range(40) would
    # pass through the C(40, 20) ~ 1.4e11 20-subsets
    sizes = [(n, k) for n in range(1, 13) for k in range(1, n + 1)]
    for n, k in sizes + [(40, 38), (40, 39), (40, 40), (1000, 1), (60, 2)]:
        want = list(itertools.combinations(range(n), k))
        for chunk in (1, 2, 3, 7, 2 ** 14, len(want)):
            chunks = list(lex_subset_chunks(n, k, chunk))
            assert all(rows.dtype == np.int64 for rows in chunks)
            assert [len(rows) for rows in chunks[:-1]] == [chunk] * (len(chunks) - 1)
            assert list(map(tuple, np.vstack(chunks).tolist())) == want, (n, k, chunk)


@pytest.mark.parametrize("n, k, chunk", [
    (5, 2, 0), (5, 2, -1), (5, 0, 4), (5, 6, 4), (5, -1, 4), (0, 1, 4)])
def test_lex_chunks_reject_an_empty_range(n, k, chunk):
    # raised at the call, before any chunk is drawn
    with pytest.raises(ValueError, match="need 1 <= k <= n and chunk >= 1"):
        lex_subset_chunks(n, k, chunk)


def test_brute_force_guard():
    for binding in every_sweep(list(range(50)), 25):
        assert pytest.raises(OracleTooLarge, brute_force_selection, binding)
    assert 50 * 49 // 2 < BRUTE_FORCE_LIMIT  # C(50,2) itself would be fine


def test_fold_sweep_names_a_negative_violation_by_its_subset():
    # violation c_1 - 2 is first negative at (0, 1), though (2, 3) wins
    def terms(rows):
        return np.stack([-rows.sum(axis=1) * 1.0, rows[:, 1] - 2.0], axis=1)

    binding = PatternBBinding(space=selection_space(2, 4), arrays={},
                              terms=rows_fold(terms), penalty_weights={"v": 1.0},
                              term_sources={"o": (), "v": ()})
    with pytest.raises(ValueError, match=r"subset \(0, 1\) has a negative "
                                         r"violation term 'v': -1.0"):
        brute_force_selection(binding)


def test_fold_levels_equal_itertools_combinations():
    """The level sweep visits the subsets in the order of
    ``itertools.combinations``, in blocks of whole parents, and
    ``_lex_subset`` names each position."""
    fold = rows_fold(lambda rows: rows)
    for n in range(1, 11):
        for k in range(1, n + 1):
            want = list(itertools.combinations(range(n), k))
            assert [_lex_subset(n, k, r) for r in range(len(want))] == want
            for chunk in (1, 3, 2 ** 14):
                rows = [state[0] for state in _fold_blocks(fold, n, k, chunk)]
                assert list(map(tuple, np.vstack(rows).tolist())) == want, (n, k, chunk)
                # a block outgrows chunk only to hold one parent's children
                assert all(len(r) <= max(chunk, n - k + 1) for r in rows)


def test_brute_force_dominates_random_vectors():
    values = [7, 1, 9, 4, 6, 2, 8]
    binding = value_pick_binding(values, 3)
    _, best = brute_force_selection(binding)
    rng = SeededRng(17)
    for _ in range(300):
        x = [rng.uniform(0.0, 6.9) for _ in range(3)]
        assert binding.evaluate(x).total >= best.total


# ---- transportation ----

def test_transportation_1x1():
    flow, cost = solve_transportation(
        TransportationInstance(cost=[[5.0]], supply=[1.0], capacity=[1.0]))
    assert flow.tolist() == [[1.0]]
    assert cost == pytest.approx(5.0)


def test_transportation_2x2_diagonal():
    flow, cost = solve_transportation(TransportationInstance(
        cost=[[1.0, 2.0], [3.0, 1.0]], supply=[1.0, 1.0],
        capacity=[1.0, 1.0]))
    assert cost == pytest.approx(2.0)
    assert flow.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_transportation_infeasible_rejected():
    with pytest.raises(InfeasibleTransport):
        TransportationInstance(cost=[[1.0]], supply=[2.0], capacity=[1.0])


def test_transportation_negative_cost_rejected():
    with pytest.raises(ValueError):
        TransportationInstance(cost=[[-1.0]], supply=[1.0], capacity=[1.0])


def test_transportation_flow_is_feasible():
    rng = SeededRng(23)
    for _ in range(20):
        n_src, n_snk = rng.integer(1, 6), rng.integer(1, 6)
        cost = [[rng.uniform(0.0, 9.0) for _ in range(n_snk)]
                for _ in range(n_src)]
        supply = [float(rng.integer(0, 8)) for _ in range(n_src)]
        total = sum(supply)
        capacity = [total for _ in range(n_snk)]  # always feasible
        inst = TransportationInstance(cost=cost, supply=supply,
                                      capacity=capacity)
        flow, cost_val = solve_transportation(inst)
        assert np.all(flow >= -1e-9)
        assert np.allclose(flow.sum(axis=1), supply, atol=1e-9)
        assert np.all(flow.sum(axis=0) <= np.array(capacity) + 1e-9)
        assert cost_val == pytest.approx(float((flow * inst.cost).sum()))


@pytest.mark.parametrize("problem_id, scale, seed, lp_optimum", [
    ("P3", "medium", 1183070358, 660447.8276739443),
    ("P7", "small", 1706805751, 1537.744751812079),
])
def test_transportation_rounding_remainder_is_shipped(problem_id, scale, seed,
                                                      lp_optimum):
    """Float rounding leaves about 1e-12 of the supply with no augmenting
    path on these feasible instances; the solver must still return the
    optimum (the HiGHS LP value, hard-coded) instead of raising."""
    inst = generate(problem_id, scale, seed)
    oracle = solve_oracle(inst)
    assert oracle.optimum == pytest.approx(lp_optimum, rel=1e-6)
    supply = inst.params["data"]["demands" if problem_id == "P3" else "pop"]
    assert np.allclose(oracle.solution.sum(axis=1), supply, rtol=1e-9, atol=0)


def test_transportation_complete_integer_sweep():
    """Exhaustive cross-check: every shape up to 4 sources x 3 sinks with
    every integer supply/capacity combination up to 5 units, against a
    complete enumeration of all integer flows.

    Cost matrices are seeded-random per combination; infeasible
    combinations (supply > capacity) are skipped.  This is the full
    cartesian sweep at enumeration-tractable sizes.
    """
    rng = SeededRng(555)
    checked = 0
    for n_src in range(1, 5):
        for n_snk in range(1, 4):
            supply_combos = itertools.product(range(0, 6), repeat=n_src)
            for supply in supply_combos:
                total = sum(supply)
                # one capacity vector per supply combo keeps the sweep
                # within budget while still covering tight, slack, and
                # zero-capacity sinks
                capacity = [rng.integer(0, 6) for _ in range(n_snk)]
                if sum(capacity) < total:
                    continue
                cost = [[float(rng.integer(0, 10)) for _ in range(n_snk)]
                        for _ in range(n_src)]
                inst = TransportationInstance(cost=cost, supply=list(supply),
                                              capacity=capacity)
                _, got = solve_transportation(inst)
                want = transportation_by_enumeration(cost, supply, capacity)
                assert want is not None
                assert got == pytest.approx(want, abs=1e-9), (
                    n_src, n_snk, supply, capacity, cost)
                checked += 1
    # 4662 (shape, supply) combos exist; roughly a fifth survive the
    # random-capacity feasibility filter
    assert checked > 900


def test_transportation_dominates_random_feasible_flows():
    """Optimal cost <= cost of 1000 random feasible flows on a 10x4
    instance."""
    rng = SeededRng(808)
    n_src, n_snk = 10, 4
    cost = np.array([[rng.uniform(1.0, 20.0) for _ in range(n_snk)]
                     for _ in range(n_src)])
    supply = np.array([float(rng.integer(1, 10)) for _ in range(n_src)])
    capacity = np.full(n_snk, supply.sum())  # roomy: any split feasible
    inst = TransportationInstance(cost=cost, supply=supply,
                                  capacity=capacity)
    _, optimum = solve_transportation(inst)
    for _ in range(1000):
        flow = np.zeros((n_src, n_snk))
        for i in range(n_src):
            weights = np.array([rng.u01() + 1e-9 for _ in range(n_snk)])
            flow[i] = supply[i] * weights / weights.sum()
        assert float((flow * cost).sum()) >= optimum - 1e-9


# ---- merit-order dispatch ----

def test_dispatch_single_generator():
    # rate 10/MWh, demand 5 in one hour -> cost 50
    inst = DispatchInstance(cost_rate=[10.0], emission_rate=[0.0],
                            min_out=[0.0], max_out=[10.0], ramp=[10.0],
                            demand=[5.0])
    schedule, cost = merit_order_dispatch(inst, emission_weight=0.0)
    assert schedule.tolist() == [[5.0]]
    assert cost == pytest.approx(50.0)


def test_dispatch_two_generators_greedy():
    # rates {10, 20}, caps {3, 10}, demand 5 -> (3, 2), cost 70
    inst = DispatchInstance(cost_rate=[10.0, 20.0], emission_rate=[0.0, 0.0],
                            min_out=[0.0, 0.0], max_out=[3.0, 10.0],
                            ramp=[10.0, 10.0], demand=[5.0])
    schedule, cost = merit_order_dispatch(inst, emission_weight=0.0)
    assert schedule[:, 0].tolist() == [3.0, 2.0]
    assert cost == pytest.approx(70.0)


def test_dispatch_emission_weight_flips_merit_order():
    # gen A: cheap but dirty; gen B: pricier but clean.  Crossing point
    # is at w = (20-10)/(1.0-0.1) ~ 11.1; far above it the order flips.
    inst = DispatchInstance(cost_rate=[10.0, 20.0], emission_rate=[1.0, 0.1],
                            min_out=[0.0, 0.0], max_out=[10.0, 10.0],
                            ramp=[10.0, 10.0], demand=[6.0])
    cheap_first, _ = merit_order_dispatch(inst, emission_weight=0.0)
    assert cheap_first[:, 0].tolist() == [6.0, 0.0]
    clean_first, _ = merit_order_dispatch(inst, emission_weight=50.0)
    assert clean_first[:, 0].tolist() == [0.0, 6.0]


def test_dispatch_demand_below_committed_minimum():
    inst = DispatchInstance(cost_rate=[10.0], emission_rate=[0.0],
                            min_out=[4.0], max_out=[10.0], ramp=[10.0],
                            demand=[2.0])
    with pytest.raises(InfeasibleDispatch):
        merit_order_dispatch(inst, emission_weight=0.0)


def test_dispatch_demand_above_capacity():
    inst = DispatchInstance(cost_rate=[10.0], emission_rate=[0.0],
                            min_out=[0.0], max_out=[3.0], ramp=[3.0],
                            demand=[5.0])
    with pytest.raises(InfeasibleDispatch):
        merit_order_dispatch(inst, emission_weight=0.0)


def test_dispatch_meets_demand_each_hour():
    rng = SeededRng(314)
    for _ in range(25):
        g = rng.integer(2, 5)
        h = rng.integer(1, 8)
        max_out = np.array([rng.uniform(5.0, 20.0) for _ in range(g)])
        min_out = 0.1 * max_out
        lo, hi = float(min_out.sum()), float(max_out.sum())
        inst = DispatchInstance(
            cost_rate=[rng.uniform(5.0, 50.0) for _ in range(g)],
            emission_rate=[rng.uniform(0.1, 1.5) for _ in range(g)],
            min_out=min_out, max_out=max_out, ramp=max_out,
            demand=[rng.uniform(lo, hi) for _ in range(h)])
        schedule, _ = merit_order_dispatch(inst, emission_weight=10.0)
        assert np.allclose(schedule.sum(axis=0), inst.demand, atol=1e-9)
        assert np.all(schedule >= min_out[:, None] - 1e-9)
        assert np.all(schedule <= max_out[:, None] + 1e-9)


def test_dispatch_dominates_random_feasible_schedules():
    rng = SeededRng(99)
    inst = DispatchInstance(
        cost_rate=[12.0, 30.0, 22.0], emission_rate=[0.9, 0.2, 0.5],
        min_out=[1.0, 1.0, 1.0], max_out=[10.0, 10.0, 10.0],
        ramp=[10.0, 10.0, 10.0], demand=[12.0, 20.0])
    weight = 25.0
    _, optimum = merit_order_dispatch(inst, weight)
    eff = inst.cost_rate + weight * inst.emission_rate
    for _ in range(500):
        # random feasible split of each hour's demand above the minima
        sched = np.tile(inst.min_out[:, None], (1, 2)).astype(float)
        for hour in range(2):
            need = inst.demand[hour] - inst.min_out.sum()
            head = (inst.max_out - inst.min_out).astype(float)
            w = np.array([rng.u01() + 1e-9 for _ in range(3)])
            split = need * w / w.sum()
            # push overshoot back greedily so the sample stays feasible
            for g in range(3):
                take = min(split[g], head[g])
                sched[g, hour] += take
                need -= take
            if need > 1e-9:
                order = np.argsort(head - split)
                for g in order[::-1]:
                    room = inst.max_out[g] - sched[g, hour]
                    add = min(room, need)
                    sched[g, hour] += add
                    need -= add
        cost = float((sched.sum(axis=1) * eff).sum())
        assert cost >= optimum - 1e-9
