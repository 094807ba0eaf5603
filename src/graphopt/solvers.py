"""Rao-family metaheuristic portfolio.

Eight parameter-light population solvers sharing one loop: propose a
candidate per member from best/worst/mean population statistics, clamp
to the box, score the whole population with one ``evaluate_batch``
call, and keep each candidate only on strict improvement.  Runs are
bit-reproducible: member i draws from its own pinned RNG stream, and
every iteration advances its stream by a fixed 3d+3 uniforms,
whichever draws the variant reads.
Acceptance is batched: all proposals in an iteration read the
population state frozen at the start of that iteration.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import DecisionSpace
from .rng import SEGMENT_ROWS, LaneRng, SeededRng

VARIANTS = ("jaya", "rao1", "bmr", "bwr", "bmwr",
            "samp_jaya", "ehr_jaya", "qo_rao")

# canonical name -> label used in machine-readable results
VARIANT_LABELS = {
    "jaya": "Jaya",
    "rao1": "Rao1",
    "bmr": "BMR",
    "bwr": "BWR",
    "bmwr": "BMWR",
    "samp_jaya": "SAMPJaya",
    "ehr_jaya": "EHRJaya",
    "qo_rao": "QORao",
}

# the SAMP/EHR adaptation rules are pinned by SOLVERS.md in this repo,
# so human-readable reports star them to flag that provenance
DISPLAY_NAMES = {**VARIANT_LABELS, "samp_jaya": "SAMP*", "ehr_jaya": "EHR*"}

# upper bound on the member draws computed at once (2^17 doubles, 1 MB;
# a block and its states then stay in cache: SOLVERS.md, "Lockstep runs")
MEMBER_CHUNK_DOUBLES = 1 << 17


def normalize_variant(name: str) -> str:
    key = name.lower().replace("-", "").replace("_", "")
    for canonical in VARIANTS:
        if canonical.replace("_", "") == key:
            return canonical
    raise ValueError(f"unknown solver variant {name!r} (choose from {VARIANTS})")


@dataclass(frozen=True)
class SolverConfig:
    variant: str
    pop_size: int = 30
    iterations: int = 300
    seed: int = 0
    elite_fraction: float = 0.2  # ehr_jaya
    m_max: int = 4               # samp_jaya subpopulation ceiling
    jump_rate: float = 0.3       # qo_rao

    def __post_init__(self):
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        if self.pop_size < 4:
            raise ValueError("population size must be at least 4")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0.0 < self.elite_fraction <= 0.5:
            raise ValueError("elite_fraction must be in (0, 0.5]")
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")
        if not 0.0 <= self.jump_rate <= 1.0:
            raise ValueError("jump_rate must be in [0, 1]")


@dataclass
class Population:
    """Current decision vectors and their fitness totals."""

    space: DecisionSpace
    x: np.ndarray                 # (pop, d)
    totals: np.ndarray            # (pop,)


@dataclass
class RunResult:
    variant: str
    seed: int
    best_x: np.ndarray
    best_total: float
    curve: np.ndarray             # best-so-far total per iteration
    evaluations: int
    memo_hits: int
    query_executions: int
    wall_seconds: float


def clamp(candidate: np.ndarray, space: DecisionSpace) -> np.ndarray:
    """Coordinate-wise clip into the space's box."""
    return candidate.clip(space.lower, space.upper)


def init_population(binding, rng: LaneRng) -> Population:
    """Uniform box sample, one vector per member stream, all evaluated."""
    space = binding.space
    r = rng.uniform_block(space.dim).T  # (pop, d); row i comes from stream i
    x = space.lower + (space.upper - space.lower) * r
    return Population(space=space, x=x, totals=binding.evaluate_batch(x))


# ---------------------------------------------------------------------------
# update formulas
#
# Per iteration each member's stream advances 3d+3 uniforms in a fixed
# order: r1 (d), r2 (d), r3 (d), then three scalars (u_branch, u_pick,
# u_member).  Variants skip draws they do not read, which keeps every
# member stream aligned no matter the variant:
#   r1/r2/r3   dimension-wise coefficients; r3 doubles as the reinit draw
#   u_branch   exploit-vs-reinit decision (BMR/BWR/BMWR, r4 in the docs)
#   u_pick     T in {1,2} (BMR family) or the elite pick (EHR)
#   u_member   random other member (BMR family) or the bottom pick (EHR)
#
# The population of R lockstep runs is one flat (R * pop, d) array, run
# r owning rows r * pop to (r + 1) * pop - 1; every statistic is taken
# per run over its (R, pop) view.
# ---------------------------------------------------------------------------

def _pick_other(u: np.ndarray, ids: np.ndarray, pop_size: int) -> np.ndarray:
    """Uniform member index excluding ids, mapped from uniforms in [0,1)."""
    idx = np.minimum((u * (pop_size - 1)).astype(np.int64), pop_size - 2)
    return idx + (idx >= ids)


def _uniform_index(u: np.ndarray, n: int) -> np.ndarray:
    return np.minimum((u * n).astype(np.int64), n - 1)


@functools.lru_cache(maxsize=64)
def _layout(runs: int, pop_size: int) -> tuple[np.ndarray, ...]:
    """(runs, 1) run numbers, (pop_size,) member numbers and (runs, 1)
    flat rows of each run's member 0, to index (runs, pop_size) views."""
    run_ids, members = np.arange(runs)[:, None], np.arange(pop_size)
    starts = run_ids * pop_size
    for table in (run_ids, members, starts):
        table.setflags(write=False)
    return run_ids, members, starts


def _gather(pop_x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``pop_x[rows]`` for an (R, pop) index array, as an (R, pop, d)
    view with the strides the population's own (R, pop, d) view has
    (a take along the members of ``pop_x.T``): arithmetic over operands
    of one layout runs as one contiguous loop."""
    return pop_x.T.take(rows, axis=1).transpose(1, 2, 0)


def _read_rows(variant: str, d: int) -> tuple:
    """The (start, stop) row spans of a member's 3d+3 draws that the
    variant's formula reads."""
    if variant in ("rao1", "qo_rao"):
        return ((0, d),)                             # r1
    if variant in ("jaya", "samp_jaya"):
        return ((0, 2 * d),)                         # r1, r2
    if variant == "ehr_jaya":
        return ((0, 2 * d), (3 * d + 1, 3 * d + 3))  # r1, r2, u_pick, u_member
    return ((0, 3 * d + 3),)


def _member_spans(variant: str, d: int) -> tuple:
    """The row spans of each iteration that a run computes: the rows
    the variant reads, with every gap shorter than ``SEGMENT_ROWS``
    drawn through, the gap that wraps into the next iteration too (every
    read starts at row 0)."""
    per_iter, spans = 3 * d + 3, []
    for a, b in _read_rows(variant, d):
        if spans and a - spans[-1][1] < SEGMENT_ROWS:
            a = spans.pop()[0]
        spans.append((a, b))
    if per_iter - spans[-1][1] < SEGMENT_ROWS:
        spans[-1] = (spans[-1][0], per_iter)
    return tuple(spans)


def _draws(block: np.ndarray, d: int, spans: tuple = None) -> tuple:
    """(r1, r2, r3, u_branch, u_pick, u_member) of a (..., rows, R, pop)
    member block holding the rows ``spans`` (all 3d+3 by default) of an
    iteration: (..., R, pop, d) views, then (..., R, pop) rows; a draw
    the block does not hold is None."""
    firsts, at, row = (0, d, 2 * d, 3 * d, 3 * d + 1, 3 * d + 2), {}, 0
    for a, b in spans or ((0, 3 * d + 3),):
        at.update((first, row + first - a) for first in firsts if a <= first < b)
        row += b - a
    vectors = [np.moveaxis(block[..., at[f]:at[f] + d, :, :], -3, -1)
               if f in at else None for f in firsts[:3]]
    scalars = [block[..., at[f], :, :] if f in at else None for f in firsts[3:]]
    return (*vectors, *scalars)


def _proposals(variant: str, pop_x: np.ndarray, totals: np.ndarray,
               r1, r2, r3, u_branch, u_pick, u_member,
               space: DecisionSpace, config: SolverConfig, runs: int = 1,
               m: Optional[list] = None) -> np.ndarray:
    """Pre-clamp candidates of every member of ``runs`` stacked runs.

    ``pop_x``/``totals`` are the start-of-iteration population; the
    draws are (R, pop, d) and (R, pop) arrays (for one run, (pop, d)
    and (pop,) do too), and a draw the variant does not read
    (``_read_rows``) may be None.  ``m`` holds each run's SAMP subpopulation
    count; without it samp_jaya takes the whole-population view, as
    jaya does.  The candidates are elementwise in the rows and their
    run's statistics, so a run's rows come out as they do alone.
    """
    d = pop_x.shape[1]
    pop_size = len(totals) // runs
    x, fit = pop_x.reshape(runs, pop_size, d), totals.reshape(runs, pop_size)
    run_ids, members, starts = _layout(runs, pop_size)

    if variant == "ehr_jaya":
        n_elite = math.ceil(config.elite_fraction * pop_size)
        order = fit.argsort(axis=1, kind="stable") + starts
        elite, bottom = order[:, :n_elite], order[:, pop_size - n_elite:]
        best = _gather(pop_x, elite[run_ids, _uniform_index(u_pick, n_elite)])
        worst = _gather(pop_x, bottom[run_ids, _uniform_index(u_member, n_elite)])
    elif variant == "samp_jaya" and m is not None:
        best, worst = _samp_group_stats(pop_x, fit, m, config.m_max)
    else:
        # (R, 1, d) rows; ties resolve to the lowest index
        best = x[run_ids, fit.argmin(axis=1, keepdims=True)]
        worst = x[run_ids, fit.argmax(axis=1, keepdims=True)]
        if variant in ("rao1", "qo_rao"):
            return (x + r1 * (best - worst)).reshape(-1, d)

    if variant in ("jaya", "samp_jaya", "ehr_jaya"):
        ax = np.abs(x)
        return (x + r1 * (best - ax) - r2 * (worst - ax)).reshape(-1, d)

    # bmr / bwr / bmwr; mean is add.reduce over count, as ndarray.mean
    mean = np.add.reduce(x, axis=1, keepdims=True) / pop_size
    t_factor = (1.0 + (u_pick >= 0.5))[..., None]  # T in {1, 2}
    rand_rows = _gather(pop_x, _pick_other(u_member, members, pop_size) + starts)
    if variant == "bmr":
        main = x + r1 * (best - t_factor * mean) + r2 * (best - rand_rows)
    elif variant == "bwr":
        main = x + r1 * (best - t_factor * rand_rows) - r2 * (worst - rand_rows)
    else:
        main = (x + r1 * (best - t_factor * mean) + r2 * (best - rand_rows)
                - r3 * (worst - rand_rows))
    reinit = space.upper - (space.upper - space.lower) * r3
    return np.where((u_branch > 0.5)[..., None], main, reinit).reshape(-1, d)


def adapt_subpopulations(m: int, improved: bool, m_max: int) -> int:
    """SAMP rule: grow the subpopulation count on global-best improvement,
    shrink otherwise, clamped to [1, m_max]."""
    return min(m + 1, m_max) if improved else max(1, m - 1)


@functools.lru_cache(maxsize=64)
def _samp_positions(pop_size: int, m_max: int) -> np.ndarray:
    """(2, m_max + 1, pop) table: [0, m] holds, for each rank position i,
    the first position of its group when dealt into m groups (i % m),
    and [1, m] the last (the last position congruent to i mod m)."""
    m = np.arange(1, m_max + 1)[:, None]
    group = np.arange(pop_size) % m
    last = group + m * ((pop_size - 1 - group) // m)
    table = np.zeros((2, m_max + 1, pop_size), dtype=np.int64)
    table[0, 1:], table[1, 1:] = group, last
    table.setflags(write=False)
    return table


def _samp_group_stats(pop_x: np.ndarray, fit: np.ndarray, m: list,
                      m_max: int):
    """Round-robin deal by fitness rank into m[r] groups in run r; the
    (R, pop, d) group best and group worst rows of every member.

    Dealt in ascending fitness, the first of a group is its best and
    the last its worst."""
    runs, pop_size = fit.shape
    run_ids, _, starts = _layout(runs, pop_size)
    order = fit.argsort(axis=1, kind="stable") + starts  # flat rows by rank
    of = np.empty((2, runs, pop_size), dtype=np.int64)  # best, worst rows
    positions = _samp_positions(pop_size, m_max)[:, m]  # (2, R, pop)
    of.reshape(2, -1)[:, order] = order[run_ids, positions]
    return _gather(pop_x, of[0]), _gather(pop_x, of[1])


def _qo_jump_runs(population: Population, jumpers, pop_size: int,
                  rng: LaneRng, evaluate) -> None:
    """Quasi-opposition step of the runs numbered ``jumpers`` (None: all
    of them): each of their members jumps to a uniform point between the
    box center and its reflection L+U-x, drawn from its own lane of
    ``rng``; the best pop_size of each run's 2*pop union survive, in
    place.  ``evaluate`` scores the jumpers' (J * pop, d) quasi points."""
    space = population.space
    if jumpers is None:
        lanes, rows = None, slice(None)
    else:
        lanes = rows = (jumpers[:, None] * pop_size + np.arange(pop_size)).ravel()
    r = rng.uniform_block(space.dim, lanes).T  # (J * pop, d)
    x = population.x[rows]
    center = (space.lower + space.upper) / 2.0
    opposite = space.lower + space.upper - x
    quasi = clamp(center + r * (opposite - center), space)
    q_tot = evaluate(quasi)

    shape = (-1, pop_size, space.dim)
    union_x = np.concatenate([x.reshape(shape), quasi.reshape(shape)], axis=1)
    union_tot = np.concatenate([population.totals[rows].reshape(-1, pop_size),
                                q_tot.reshape(-1, pop_size)], axis=1)
    keep = union_tot.argsort(axis=1, kind="stable")[:, :pop_size]
    run_ids = np.arange(len(keep))[:, None]
    population.x[rows] = union_x[run_ids, keep].reshape(-1, space.dim)
    population.totals[rows] = union_tot[run_ids, keep].ravel()


class _RunGroup:
    """The binding as R lockstep runs see it: a batch of R blocks of
    pop rows, each block counted to its run.  A group of one scores
    through ``evaluate_batch`` alone, so any binding can run solo; a
    larger group needs ``evaluate_runs``, as every built-in binding has.
    """

    _COUNTERS = ("evaluations", "memo_hits", "query_executions")

    def __init__(self, binding, runs: int):
        self.binding, self.space = binding, binding.space
        self.all_runs = np.arange(runs)
        self.counts = np.zeros((3, runs), dtype=np.int64)
        self._before = [getattr(binding, name) for name in self._COUNTERS]

    def evaluate_batch(self, X, runs=None) -> np.ndarray:
        """Totals of X, whose blocks are the ``runs`` (all, by default)."""
        if len(self.all_runs) == 1:
            return self.binding.evaluate_batch(X)
        runs = self.all_runs if runs is None else runs
        totals, counts = self.binding.evaluate_runs(X, runs)
        self.counts[:, runs] += counts
        return totals

    def run_counts(self, run: int) -> list[int]:
        """Run ``run``'s evaluations, memo hits and query executions."""
        if len(self.all_runs) == 1:
            return [getattr(self.binding, name) - before
                    for name, before in zip(self._COUNTERS, self._before)]
        return [int(c) for c in self.counts[:, run]]


def run_group(binding, configs) -> list[RunResult]:
    """Lockstep runs of one variant against one binding, one per config;
    the configs may differ in seed only.

    Run r draws its members from ``LaneRng.runs``' lane block r, its
    qo_rao decision from its own control stream and its jumps from its
    own jump lanes, takes every statistic over its own rows, and counts
    its own evaluations, so each result equals ``run`` of its config
    alone, bit for bit.  ``wall_seconds`` is the group's wall time over
    the number of runs.
    """
    config = configs[0]
    if any(dataclasses.replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("the configs of a run group may differ in seed only")
    seeds = [c.seed for c in configs]
    runs, pop_size, space = len(configs), config.pop_size, binding.space
    d, variant = space.dim, config.variant
    who = f"seed {seeds[0]}" if runs == 1 else f"seeds {seeds}"

    start = time.perf_counter()
    group = _RunGroup(binding, runs)
    members = LaneRng.runs(seeds, pop_size)
    population = init_population(group, members)
    totals = population.totals
    fit = totals.reshape(runs, pop_size)  # a view: it follows every update
    if variant == "qo_rao":
        controls = [SeededRng(seed, stream=pop_size) for seed in seeds]
        jump_rng = LaneRng.runs(seeds, pop_size, stream_offset=pop_size + 1)
    m = [1] * runs if variant == "samp_jaya" else None  # SAMP counts
    curve = np.empty((config.iterations, runs), dtype=np.float64)
    best_now = fit.min(axis=1)

    # member rows for many iterations are drawn at once, only the rows
    # the variant reads; a chunk's rows are the draws per-iteration calls
    # give, and it jumps the lanes over the rest
    spans = _member_spans(variant, d)
    kept = sum(b - a for a, b in spans)
    chunk_iters = max(1, MEMBER_CHUNK_DOUBLES // (kept * runs * pop_size))
    for it in range(config.iterations):
        offset = it % chunk_iters
        if offset == 0:
            n = min(chunk_iters, config.iterations - it)
            chunk = members.uniform_block((3 * d + 3) * n,
                                          keep=(3 * d + 3, spans))
            chunk = chunk.reshape(n, kept, runs, pop_size)
            # each iteration's draws, as views of the chunk
            draws = list(zip(*([None] * n if v is None else v
                               for v in _draws(chunk, d, spans))))
        candidates = _proposals(variant, population.x, totals, *draws[offset],
                                space, config, runs, m)
        candidates = clamp(candidates, space)

        try:
            cand_totals = group.evaluate_batch(candidates)
            # strict, so ties keep the parent
            better = cand_totals < totals
            population.x[better] = candidates[better]
            totals[better] = cand_totals[better]

            if variant == "qo_rao":
                jumpers = [r for r, control in enumerate(controls)
                           if control.u01() < config.jump_rate]
                if jumpers:
                    jumpers = None if len(jumpers) == runs else np.array(jumpers)
                    _qo_jump_runs(population, jumpers, pop_size, jump_rng,
                                  lambda X: group.evaluate_batch(X, jumpers))
        except Exception as err:
            raise RuntimeError(f"{variant} {who}: evaluation failed at "
                               f"iteration {it}") from err

        best_before, best_now = best_now, fit.min(axis=1)
        if m is not None:
            m = [adapt_subpopulations(k, up, config.m_max)
                 for k, up in zip(m, (best_now < best_before).tolist())]
        curve[it] = best_now

    wall = (time.perf_counter() - start) / runs
    results = []
    for r, seed in enumerate(seeds):
        best = r * pop_size + int(np.argmin(fit[r]))
        evaluations, memo_hits, queries = group.run_counts(r)
        results.append(RunResult(
            variant=variant, seed=seed, best_x=population.x[best].copy(),
            best_total=float(totals[best]), curve=curve[:, r].copy(),
            evaluations=evaluations, memo_hits=memo_hits,
            query_executions=queries, wall_seconds=wall))
    return results


def run(binding, config: SolverConfig) -> RunResult:
    """Full deterministic solver run against a problem binding: a run
    group of one."""
    return run_group(binding, [config])[0]
