"""Solver portfolio: pinned update formulas, acceptance rule, stream
alignment, determinism, and evaluation accounting."""

import math

import numpy as np
import pytest

from graphopt import suite
from graphopt.problems import (CallableBinding, Fitness, assemble_fitness,
                               continuous_space)
from graphopt.rng import LaneRng, SeededRng
from graphopt.solvers import (DISPLAY_NAMES, VARIANT_LABELS, VARIANTS,
                              Population, SolverConfig, adapt_subpopulations,
                              clamp, init_population, normalize_variant,
                              run, _draws, _proposals, _qo_jump_runs,
                              _read_rows)


def objective_only(total_fn, name="objective"):
    """A ``CallableBinding`` fn whose one objective term is total_fn(x)."""
    def fn(x) -> Fitness:
        return assemble_fitness({name: float(total_fn(x))}, {}, {})
    return fn


def propose(variant: str, population: Population, i: int, rng: SeededRng,
            config=None) -> np.ndarray:
    """The scalar one-member reference: member i's pre-clamp candidate,
    drawn from its own stream.

    Consumes exactly 3d+3 uniforms from ``rng`` in the pinned order;
    member i's column of the vectorized batch yields the same vector.
    For samp_jaya this is the whole-population view (the run supplies
    subgroup best/worst internally).
    """
    variant = normalize_variant(variant)
    if config is None:
        config = SolverConfig(variant=variant, pop_size=population.x.shape[0])
    pop_size, d = population.x.shape
    block = np.zeros((3 * d + 3, 1, pop_size))  # the others' draws are unused
    block[:, 0, i] = [rng.u01() for _ in range(3 * d + 3)]
    candidates = _proposals(variant, population.x, population.totals,
                            *_draws(block, d), population.space, config)
    return candidates[i]


def sphere_binding(d=10, half_width=5.0):
    space = continuous_space([-half_width] * d, [half_width] * d)
    return CallableBinding(space=space,
                           fn=objective_only(lambda x: float(np.dot(x, x))))


def make_population(space, rows, totals):
    x = np.array(rows, dtype=np.float64)
    totals = np.array(totals, dtype=np.float64)
    return Population(space=space, x=x, totals=totals)


# ---- names and config ----

def test_normalize_variant_aliases():
    assert normalize_variant("SAMP-Jaya") == "samp_jaya"
    assert normalize_variant("qo-rao") == "qo_rao"
    assert normalize_variant("JAYA") == "jaya"
    with pytest.raises(ValueError):
        normalize_variant("gradient_descent")


def test_display_names_star_reconstructions():
    assert DISPLAY_NAMES["samp_jaya"] == "SAMP*"
    assert DISPLAY_NAMES["ehr_jaya"] == "EHR*"
    assert VARIANT_LABELS["bmwr"] == "BMWR"


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(variant="jaya", pop_size=3)
    with pytest.raises(ValueError):
        SolverConfig(variant="jaya", iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(variant="qo_rao", jump_rate=1.5)


# ---- pinned formulas ----

def test_jaya_hand_arithmetic():
    # d=1, x=2, best=1, worst=3, r1=r2=0.5 -> 2 + .5(1-2) - .5(3-2) = 1.0
    space = continuous_space([-10.0], [10.0])
    pop = make_population(space, [[2.0], [1.0], [3.0], [2.5]],
                          [5.0, 1.0, 9.0, 6.0])
    half = np.full((4, 1), 0.5)  # every member's draws; member 0 is checked
    got = _proposals("jaya", pop.x, pop.totals, half, half, half,
                     np.full(4, 0.9), np.full(4, 0.1), np.full(4, 0.1),
                     space, SolverConfig("jaya"))
    assert got[0, 0] == pytest.approx(1.0)


def test_rao1_hand_arithmetic():
    space = continuous_space([-10.0], [10.0])
    pop = make_population(space, [[2.0], [1.0], [3.0], [2.5]],
                          [5.0, 1.0, 9.0, 6.0])
    half = np.full((4, 1), 0.5)  # every member's draws; member 0 is checked
    got = _proposals("rao1", pop.x, pop.totals, half, half, half,
                     np.full(4, 0.9), np.full(4, 0.1), np.full(4, 0.1),
                     space, SolverConfig("rao1"))
    # x + r1 (best - worst) = 2 + 0.5 (1 - 3) = 1.0
    assert got[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("variant", ["jaya", "rao1", "samp_jaya", "ehr_jaya"])
def test_converged_population_is_fixed_point(variant):
    """best = worst = x for a single repeated point; difference-driven
    moves must all collapse to the point itself."""
    space = continuous_space([0.0, 0.0], [10.0, 10.0])
    point = [3.0, 4.0]
    pop = make_population(space, [point] * 5, [7.0] * 5)
    rng = SeededRng(0)
    for i in range(5):
        got = propose(variant, pop, i, rng)
        assert np.allclose(got, point)


def test_bmwr_reinit_branch_in_bounds():
    # u_branch <= 0.5 takes the reinit branch: inside the box by construction
    space = continuous_space([-2.0, -2.0], [2.0, 2.0])
    pop = make_population(space, [[1.0, 1.0]] * 4, [3.0] * 4)
    rng = SeededRng(5)
    hits = 0
    for trial in range(200):
        got = propose("bmwr", pop, trial % 4, rng)
        if np.all(got >= space.lower) and np.all(got <= space.upper):
            hits += 1
    # reinit candidates are always in-box; exploit moves may leave it,
    # but from a converged population both branches stay at/inside bounds
    assert hits == 200


def test_scalar_propose_matches_vectorized_batch():
    """propose() with stream i reproduces column i of the batched
    uniform block for every variant."""
    d, pop_size, seed = 3, 6, 123
    space = continuous_space([-4.0] * d, [4.0] * d)
    rows = SeededRng(99)
    x = [[rows.uniform(-4.0, 4.0) for _ in range(d)] for _ in range(pop_size)]
    totals = [rows.uniform(0.0, 10.0) for _ in range(pop_size)]
    for variant in VARIANTS:
        config = SolverConfig(variant=variant, pop_size=pop_size)
        pop = make_population(space, x, totals)
        block = LaneRng(seed, pop_size).uniform_block(3 * d + 3)
        batch = _proposals(
            variant, pop.x, pop.totals,
            block[:d].T, block[d:2 * d].T, block[2 * d:3 * d].T,
            block[3 * d], block[3 * d + 1], block[3 * d + 2], space, config)
        for i in range(pop_size):
            solo = propose(variant, pop, i,
                           SeededRng(seed, stream=i), config)
            assert np.array_equal(solo, batch[i]), (variant, i)


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_unread_draws_do_not_reach_proposals(variant, runs):
    """Rows outside the variant's read table may hold anything: filled
    with NaN, they leave every candidate finite and bit-identical.  A
    formula that starts reading a row the table skips fails here."""
    d, pop_size = 4, 6
    space = continuous_space([-4.0] * d, [4.0] * d)
    rows = SeededRng(5)
    x = np.array([[rows.uniform(-4.0, 4.0) for _ in range(d)]
                  for _ in range(runs * pop_size)])
    totals = np.array([rows.uniform(0.0, 10.0) for _ in range(runs * pop_size)])
    block = LaneRng.runs(range(runs), pop_size).uniform_block(3 * d + 3)
    block = block.reshape(3 * d + 3, runs, pop_size)
    unread = np.ones(3 * d + 3, dtype=bool)
    for a, b in _read_rows(variant, d):
        unread[a:b] = False
    poisoned = block.copy()
    poisoned[unread] = np.nan
    config = SolverConfig(variant=variant, pop_size=pop_size)
    m = [1, 2, 3][:runs] if variant == "samp_jaya" else None
    clean, dirty = (_proposals(variant, x, totals, *_draws(b, d), space,
                               config, runs, m) for b in (block, poisoned))
    assert np.isfinite(dirty).all()
    assert dirty.tobytes() == clean.tobytes()


# ---- clamp / accept / adaptation ----

def test_clamp_examples():
    space = continuous_space([0.0, 0.0], [1.0, 1.0])
    assert clamp(np.array([-0.5, 1.5]), space).tolist() == [0.0, 1.0]
    inside = np.array([0.25, 0.75])
    assert np.array_equal(clamp(inside, space), inside)
    once = clamp(np.array([-9.0, 9.0]), space)
    assert np.array_equal(clamp(once, space), once)  # idempotent


def test_run_keeps_parents_on_ties():
    """On a flat landscape every candidate ties its parent, so no member
    moves and the best is the initial population's first member."""
    space = continuous_space([-1.0] * 3, [1.0] * 3)
    for variant in VARIANTS:
        binding = CallableBinding(space=space, fn=objective_only(lambda x: 1.0))
        result = run(binding, SolverConfig(variant=variant, pop_size=5,
                                           iterations=6, seed=3))
        start = init_population(binding, LaneRng(3, 5))
        assert np.array_equal(result.best_x, start.x[0]), variant


def test_samp_adaptation_rule():
    assert adapt_subpopulations(2, True, 4) == 3
    assert adapt_subpopulations(1, False, 4) == 1
    assert adapt_subpopulations(4, True, 4) == 4


# ---- init ----

def test_init_population_in_bounds_and_deterministic():
    binding = sphere_binding(d=1)
    a = init_population(binding, LaneRng(3, 4))
    b = init_population(binding, LaneRng(3, 4))
    assert a.x.shape == (4, 1)
    assert np.all(a.x >= -5.0) and np.all(a.x <= 5.0)
    assert np.array_equal(a.x, b.x)


# ---- quasi-opposition jump ----

def test_qo_jump_center_is_fixed_point():
    space = continuous_space([0.0, 0.0], [2.0, 2.0])
    binding = CallableBinding(
        space=space, fn=objective_only(lambda x: float(np.sum(x))))
    center = np.array([[1.0, 1.0]] * 4)
    pop = Population(space=space, x=center.copy(),
                     totals=binding.evaluate_batch(center))
    _qo_jump_runs(pop, None, 4, LaneRng(0, 4), binding.evaluate_batch)
    assert np.allclose(pop.x, center)


def test_qo_jump_union_is_elitist():
    binding = sphere_binding(d=2)
    pop = init_population(binding, LaneRng(9, 6))
    worst_before = pop.totals.max()
    before = binding.evaluations
    _qo_jump_runs(pop, None, 6, LaneRng(9, 6, stream_offset=7), binding.evaluate_batch)
    assert binding.evaluations - before == 6
    assert pop.x.shape == (6, 2)
    assert pop.totals.max() <= worst_before


def test_qo_zero_jump_rate_adds_no_evaluations():
    binding = sphere_binding(d=4)
    config = SolverConfig(variant="qo_rao", pop_size=8, iterations=20,
                          seed=2, jump_rate=0.0)
    result = run(binding, config)
    assert result.evaluations == 8 * 21


# ---- full runs ----

def test_run_deterministic_including_curve():
    for variant in VARIANTS:
        a = run(sphere_binding(d=4),
                SolverConfig(variant=variant, pop_size=8, iterations=30, seed=5))
        b = run(sphere_binding(d=4),
                SolverConfig(variant=variant, pop_size=8, iterations=30, seed=5))
        assert np.array_equal(a.best_x, b.best_x), variant
        assert a.best_total == b.best_total
        assert np.array_equal(a.curve, b.curve)
        assert a.evaluations == b.evaluations


def test_curve_monotone_every_variant():
    for variant in VARIANTS:
        for seed in (0, 1, 2):
            result = run(sphere_binding(d=3),
                         SolverConfig(variant=variant, pop_size=6,
                                      iterations=40, seed=seed))
            assert np.all(np.diff(result.curve) <= 0.0), (variant, seed)


def test_curve_length_one_iteration():
    result = run(sphere_binding(d=2),
                 SolverConfig(variant="jaya", pop_size=4, iterations=1, seed=0))
    assert result.curve.shape == (1,)


def test_evaluation_accounting_non_jumping_variants():
    for variant in ("jaya", "rao1", "bmr", "bwr", "bmwr", "samp_jaya",
                    "ehr_jaya"):
        binding = sphere_binding(d=3)
        result = run(binding, SolverConfig(variant=variant, pop_size=7,
                                           iterations=25, seed=1))
        assert result.evaluations == 7 * 26, variant


def test_evaluation_accounting_qo_counts_jumps():
    pop_size, iters, seed, rate = 6, 50, 4, 0.3
    binding = sphere_binding(d=3)
    result = run(binding, SolverConfig(variant="qo_rao", pop_size=pop_size,
                                       iterations=iters, seed=seed,
                                       jump_rate=rate))
    control = SeededRng(seed, stream=pop_size)
    jumps = sum(control.u01() < rate for _ in range(iters))
    assert jumps > 0
    assert result.evaluations == pop_size * (1 + iters) + pop_size * jumps


def _doubles_drawn(monkeypatch, binding, config) -> int:
    """The doubles that every ``uniform_block`` call of a run returns."""
    drawn, block = [], LaneRng.uniform_block

    def counted(self, *args, **kwargs):
        out = block(self, *args, **kwargs)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(LaneRng, "uniform_block", counted)
    run(binding, config)
    monkeypatch.undo()
    return sum(drawn)


_ALL_ROWS = {variant: "3d+3" for variant in VARIANTS}


@pytest.mark.parametrize("problem_id, computed", [
    ("P5", {"rao1": "d", "bmwr": "3d+3"}),
    ("P2", _ALL_ROWS),
    ("P7", {"rao1": "d", "qo_rao": "d", "jaya": "3d+3", "ehr_jaya": "3d+3"}),
    ("P3", {"jaya": "2d", "ehr_jaya": "2d+2"})])
def test_member_doubles_computed_per_iteration(monkeypatch, problem_id, computed):
    """A run computes only the member rows its variant reads, and draws
    through a gap under 32 rows: on P5 small (d = 96) rao1 computes d
    per member per iteration and bmwr all 3d+3; on P2 (d = 5) every
    variant computes all 3d+3, as the stream advances; on P7 (d = 24)
    the 27- and 25-row gaps of jaya and EHR are drawn through; on P3
    (d = 40) jaya's 43-row gap and EHR's 41-row one are jumped.  The
    init draws d per member, and each qo_rao jump d per member (its
    decisions come from the control stream)."""
    instance = suite.generate(problem_id, "small", 0)
    d, pop_size, iterations, seed = instance.binding.space.dim, 10, 12, 4
    rows = {"d": d, "2d": 2 * d, "2d+2": 2 * d + 2, "3d+3": 3 * d + 3}
    for variant, per_iter in computed.items():
        config = SolverConfig(variant=variant, pop_size=pop_size,
                              iterations=iterations, seed=seed)
        control = SeededRng(seed, stream=pop_size)
        jumps = (sum(control.u01() < config.jump_rate for _ in range(iterations))
                 if variant == "qo_rao" else 0)
        expected = pop_size * ((1 + jumps) * d + iterations * rows[per_iter])
        binding = suite.fresh_binding(instance)
        assert _doubles_drawn(monkeypatch, binding, config) == expected, variant


def test_every_evaluated_vector_inside_box():
    lower, upper = -1.5, 2.5

    class Checked(CallableBinding):
        def evaluate(self, x):
            assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
            return super().evaluate(x)

    space = continuous_space([lower] * 3, [upper] * 3)
    for variant in VARIANTS:
        binding = Checked(space=space,
                          fn=objective_only(lambda x: float(np.dot(x, x))))
        run(binding, SolverConfig(variant=variant, pop_size=6, iterations=30,
                                  seed=8))


def test_sphere_convergence_rao1():
    """Sphere, d=10, bounds [-5,5], pop 30, 300 iters: best < 1e-3 in
    at least 28 of 30 seeds."""
    good = 0
    for seed in range(30):
        result = run(sphere_binding(d=10),
                     SolverConfig(variant="rao1", pop_size=30,
                                  iterations=300, seed=seed))
        if result.best_total < 1e-3:
            good += 1
    assert good >= 28, f"only {good}/30 seeds converged"


def test_best_fitness_matches_curve_tail():
    result = run(sphere_binding(d=5),
                 SolverConfig(variant="bmwr", pop_size=10, iterations=60,
                              seed=3))
    assert result.best_total == result.curve[-1]


def test_callable_binding_follows_counter_protocol():
    binding = sphere_binding(d=2)
    result = run(binding, SolverConfig(variant="rao1", pop_size=5,
                                       iterations=4, seed=0))
    assert binding.evaluations == result.evaluations > 0
    assert binding.memo_hits == result.memo_hits == 0
    assert binding.query_executions == 0


def test_callable_batch_rejects_non_finite_values():
    calls = []

    def nan_after_ten(x):
        calls.append(1)
        return math.nan if len(calls) > 10 else float(np.dot(x, x))

    space = continuous_space([-1.0] * 2, [1.0] * 2)
    binding = CallableBinding(space=space, fn=objective_only(nan_after_ten))
    with pytest.raises(ValueError, match="batch row 0 has a non-finite coordinate"):
        binding.evaluate_batch(np.array([[math.nan, 0.0]]))
    with pytest.raises(ValueError, match="batch row 10 has a non-finite total nan"):
        binding.evaluate_batch(np.zeros((12, 2)))
    calls.clear()  # 5 initial calls, 5 in iteration 0, the 11th in iteration 1
    with pytest.raises(RuntimeError,
                       match="jaya seed 2: evaluation failed at iteration 1$"):
        run(binding, SolverConfig(variant="jaya", pop_size=5, iterations=3,
                                  seed=2))
