"""Rao-family metaheuristic portfolio.

Eight parameter-light population solvers sharing one loop: propose a
candidate per member from best/worst/mean population statistics, clamp
to the box, score the whole population with one ``evaluate_batch``
call, and keep each candidate only on strict improvement.  Runs are
bit-reproducible: member i draws from its own pinned RNG stream, and
every iteration consumes a fixed block of uniforms (3d+3 per member)
regardless of which draws the variant uses.
Acceptance is batched: all proposals in an iteration read the
population state frozen at the start of that iteration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import DecisionSpace
from .rng import LaneRng, SeededRng

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

# upper bound on the member draws held at once (2^18 doubles, 2 MB)
MEMBER_CHUNK_DOUBLES = 1 << 18


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

    @property
    def best_idx(self) -> int:
        # ties resolve to the lowest index (first occurrence)
        return int(np.argmin(self.totals))


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
    return np.clip(candidate, space.lower, space.upper)


def init_population(binding, pop_size: int, rng: LaneRng) -> Population:
    """Uniform box sample, one vector per member stream, all evaluated."""
    space = binding.space
    r = rng.uniform_block(space.dim).T  # (pop, d); row i comes from stream i
    x = space.lower + (space.upper - space.lower) * r
    return Population(space=space, x=x, totals=binding.evaluate_batch(x))


# ---------------------------------------------------------------------------
# update formulas
#
# Per iteration each member consumes 3d+3 uniforms in a fixed order:
# r1 (d), r2 (d), r3 (d), then three scalars (u_branch, u_pick,
# u_member).  Variants ignore draws they do not need, which keeps every
# member stream aligned no matter the variant:
#   r1/r2/r3   dimension-wise coefficients; r3 doubles as the reinit draw
#   u_branch   exploit-vs-reinit decision (BMR/BWR/BMWR, r4 in the docs)
#   u_pick     T in {1,2} (BMR family) or the elite pick (EHR)
#   u_member   random other member (BMR family) or the bottom pick (EHR)
# ---------------------------------------------------------------------------

def _pick_other(u: np.ndarray, ids: np.ndarray, pop_size: int) -> np.ndarray:
    """Uniform member index excluding ids, mapped from uniforms in [0,1)."""
    idx = np.minimum((u * (pop_size - 1)).astype(np.int64), pop_size - 2)
    return idx + (idx >= ids)


def _uniform_index(u: np.ndarray, n: int) -> np.ndarray:
    return np.minimum((u * n).astype(np.int64), n - 1)


def _proposals(variant: str, pop_x: np.ndarray, totals: np.ndarray,
               ids: np.ndarray, r1, r2, r3, u_branch, u_pick, u_member,
               space: DecisionSpace, config: SolverConfig,
               group_best: Optional[np.ndarray] = None,
               group_worst: Optional[np.ndarray] = None) -> np.ndarray:
    """Pre-clamp candidates for the members listed in ``ids``.

    ``pop_x``/``totals`` are the full start-of-iteration population; the
    r blocks and scalar rows are aligned with ``ids``.  The scalar
    `propose` path calls this with a single id, the vectorized run with
    all of them, and both traverse identical arithmetic.
    """
    pop_size = pop_x.shape[0]
    x = pop_x[ids]

    if variant in ("jaya", "rao1", "qo_rao", "samp_jaya"):
        if group_best is not None:
            best, worst = group_best, group_worst
        else:
            best = pop_x[int(np.argmin(totals))]
            worst = pop_x[int(np.argmax(totals))]
        if variant in ("rao1", "qo_rao"):
            return x + r1 * (best - worst)
        ax = np.abs(x)
        return x + r1 * (best - ax) - r2 * (worst - ax)

    if variant == "ehr_jaya":
        n_elite = math.ceil(config.elite_fraction * pop_size)
        order = np.argsort(totals, kind="stable")
        elite = order[:n_elite]
        bottom = order[pop_size - n_elite:]
        best = pop_x[elite[_uniform_index(u_pick, n_elite)]]
        worst = pop_x[bottom[_uniform_index(u_member, n_elite)]]
        ax = np.abs(x)
        return x + r1 * (best - ax) - r2 * (worst - ax)

    # bmr / bwr / bmwr
    best = pop_x[int(np.argmin(totals))]
    worst = pop_x[int(np.argmax(totals))]
    mean = pop_x.mean(axis=0)
    t_factor = np.where(u_pick < 0.5, 1.0, 2.0)[:, None]
    rand_rows = pop_x[_pick_other(u_member, ids, pop_size)]
    if variant == "bmr":
        main = x + r1 * (best - t_factor * mean) + r2 * (best - rand_rows)
    elif variant == "bwr":
        main = x + r1 * (best - t_factor * rand_rows) - r2 * (worst - rand_rows)
    else:
        main = (x + r1 * (best - t_factor * mean) + r2 * (best - rand_rows)
                - r3 * (worst - rand_rows))
    reinit = space.upper - (space.upper - space.lower) * r3
    keep_main = (u_branch > 0.5)[:, None]
    return np.where(keep_main, main, np.broadcast_to(reinit, main.shape))


def propose(variant: str, population: Population, i: int, rng: SeededRng,
            config: Optional[SolverConfig] = None) -> np.ndarray:
    """One member's pre-clamp candidate, drawn from its own stream.

    Consumes exactly 3d+3 uniforms from ``rng`` in the pinned order;
    member i's column of the vectorized batch yields the same vector.
    For samp_jaya this is the whole-population view (the run supplies
    subgroup best/worst internally).
    """
    variant = normalize_variant(variant)
    if config is None:
        config = SolverConfig(variant=variant, pop_size=population.x.shape[0])
    d = population.x.shape[1]
    draws = np.array([rng.u01() for _ in range(3 * d + 3)])
    candidates = _proposals(
        variant, population.x, population.totals, np.array([i]),
        draws[:d][None, :], draws[d:2 * d][None, :], draws[2 * d:3 * d][None, :],
        draws[3 * d:3 * d + 1], draws[3 * d + 1:3 * d + 2], draws[3 * d + 2:],
        population.space, config)
    return candidates[0]


def adapt_subpopulations(m: int, improved: bool, m_max: int) -> int:
    """SAMP rule: grow the subpopulation count on global-best improvement,
    shrink otherwise, clamped to [1, m_max]."""
    return min(m + 1, m_max) if improved else max(1, m - 1)


def _samp_group_stats(pop_x: np.ndarray, totals: np.ndarray, m: int):
    """Round-robin deal by fitness rank; per-member group best/worst rows."""
    pop_size = pop_x.shape[0]
    order = np.argsort(totals, kind="stable")
    best_of = np.empty(pop_size, dtype=np.int64)
    worst_of = np.empty(pop_size, dtype=np.int64)
    for g in range(m):
        members = order[g::m]
        if members.size == 0:
            continue
        # dealt in ascending fitness, so first is the group best and
        # last the group worst
        best_of[members] = members[0]
        worst_of[members] = members[-1]
    return pop_x[best_of], pop_x[worst_of]


def qo_jump(population: Population, rng: LaneRng, binding) -> int:
    """Quasi-opposition step: each member jumps to a uniform point
    between the box center and its reflection L+U-x; the best pop_size
    of the 2*pop union survive.  Returns the number of evaluations."""
    space = population.space
    pop_size, d = population.x.shape
    r = rng.uniform_block(d).T  # (pop, d)
    center = (space.lower + space.upper) / 2.0
    opposite = space.lower + space.upper - population.x
    quasi = center + r * (opposite - center)
    quasi = np.clip(quasi, space.lower, space.upper)
    q_tot = binding.evaluate_batch(quasi)

    union_x = np.vstack([population.x, quasi])
    union_tot = np.concatenate([population.totals, q_tot])
    keep = np.argsort(union_tot, kind="stable")[:pop_size]
    population.x = union_x[keep]
    population.totals = union_tot[keep]
    return pop_size


def run(binding, config: SolverConfig, space: Optional[DecisionSpace] = None) -> RunResult:
    """Full deterministic solver run against a problem binding."""
    space = space or binding.space
    pop_size = config.pop_size
    d = space.dim
    variant = config.variant

    start = time.perf_counter()
    evals_before = binding.evaluations
    hits_before = binding.memo_hits
    queries_before = binding.query_executions

    members = LaneRng(config.seed, lanes=pop_size)
    control = SeededRng(config.seed, stream=pop_size)
    jump_rng = LaneRng(config.seed, lanes=pop_size, stream_offset=pop_size + 1)

    population = init_population(binding, pop_size, members)
    if population.x.shape[1] != d:
        raise ValueError("binding space does not match the supplied space")

    ids = np.arange(pop_size)
    m = 1  # samp_jaya subpopulation count
    curve = np.empty(config.iterations, dtype=np.float64)

    per_iter = 3 * d + 3
    chunk_iters = max(1, MEMBER_CHUNK_DOUBLES // (per_iter * pop_size))
    for it in range(config.iterations):
        # member rows for many iterations are drawn at once; a chunk's
        # rows are the same consecutive draws a per-iteration call gives
        offset = it % chunk_iters
        if offset == 0:
            chunk = members.uniform_block(
                per_iter * min(chunk_iters, config.iterations - it))
        block = chunk[offset * per_iter:(offset + 1) * per_iter]  # (3d+3, pop)
        r1 = block[:d].T
        r2 = block[d:2 * d].T
        r3 = block[2 * d:3 * d].T
        u_branch = block[3 * d]
        u_pick = block[3 * d + 1]
        u_member = block[3 * d + 2]

        group_best = group_worst = None
        if variant == "samp_jaya":
            group_best, group_worst = _samp_group_stats(
                population.x, population.totals, m)

        best_before = population.totals.min()
        candidates = _proposals(
            variant, population.x, population.totals, ids,
            r1, r2, r3, u_branch, u_pick, u_member, space, config,
            group_best=group_best, group_worst=group_worst)
        candidates = np.clip(candidates, space.lower, space.upper)

        try:
            totals = binding.evaluate_batch(candidates)
            # strict, so ties keep the parent
            better = totals < population.totals
            population.x[better] = candidates[better]
            population.totals[better] = totals[better]

            if variant == "qo_rao":
                if control.u01() < config.jump_rate:
                    qo_jump(population, jump_rng, binding)
        except Exception as err:
            raise RuntimeError(
                f"{variant} seed {config.seed}: evaluation failed at "
                f"iteration {it}") from err

        if variant == "samp_jaya":
            improved = population.totals.min() < best_before
            m = adapt_subpopulations(m, improved, config.m_max)

        curve[it] = population.totals.min()

    best_idx = population.best_idx
    return RunResult(
        variant=variant,
        seed=config.seed,
        best_x=population.x[best_idx].copy(),
        best_total=float(population.totals[best_idx]),
        curve=curve,
        evaluations=binding.evaluations - evals_before,
        memo_hits=binding.memo_hits - hits_before,
        query_executions=binding.query_executions - queries_before,
        wall_seconds=time.perf_counter() - start,
    )
