"""Exact reference solvers used to certify metaheuristic results.

Three oracles: exhaustive k-subset enumeration for the discrete
selection problems, a successive-shortest-paths transportation solver
for the flow problems, and a ramp-relaxed merit-order dispatch for the
linear scheduling mode.  The bindings' subset memos number k-subsets
by the combinatorial number system (``subset_ranks``); the enumeration
sweeps them in lexicographic order: level by level for a ``Fold``
(every built-in selection binding, P1 and the P2 twin included),
holding the (k - 1)-prefixes' states whole (82,251 for C(40, 5)), and
in chunks of index rows for any other binding.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

BRUTE_FORCE_LIMIT = 10 ** 6
_EPS = 1e-12
# unshipped supply, relative to the total, left to float rounding when no
# augmenting path remains; more than this means the sinks are cut off
_UNSHIPPED_RTOL = 1e-9


class OracleTooLarge(ValueError):
    """Enumeration would exceed the guard limit."""


class InfeasibleTransport(ValueError):
    """Total supply exceeds total sink capacity (or no augmenting path)."""


class InfeasibleDispatch(ValueError):
    """Hourly demand falls outside the fleet's feasible output range."""


_COMBO_CHUNK = 1 << 14  # subsets scored per call


@cache
def _rank_table(n: int, k: int) -> np.ndarray:
    """C(u + j, j + 1) at [j, u], for u <= n - k: the terms of the rank of
    a sorted k-subset c of range(n), whose c_j - j lies in [0, n - k].
    Every entry is at most C(n, k).  Read-only, since callers share it."""
    table = np.array([[math.comb(u + j, j + 1) for u in range(n - k + 1)]
                      for j in range(k)], dtype=np.int64)
    table.setflags(write=False)
    return table


def subset_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """The rank sum(C(c_j, j + 1)) of each sorted k-subset row c of
    range(n), one to one onto range(C(n, k)): the combinatorial number
    system (Knuth, TAOCP 4A, 7.2.1.3)."""
    j = np.arange(rows.shape[1])
    return _rank_table(n, rows.shape[1])[j, rows - j].sum(axis=1)


def _lex_chunks(tail: np.ndarray, n: int, chunk: int, dtype):
    """The lexicographic list of the k-subsets of range(n) in blocks of
    chunk rows (the last may be shorter), given tail, the list of the
    (k - 1)-subsets.  The rows that start with c are c followed by the
    last C(n - 1 - c, k - 1) rows of tail (Knuth, TAOCP 4A, 7.2.1.3), so
    every block is filled by slice copies."""
    k = tail.shape[1] + 1
    left = math.comb(n, k)  # rows not yet handed out
    out, at = np.empty((min(chunk, left), k), dtype=dtype), 0
    for c in range(n - k + 1):
        rest = tail[len(tail) - math.comb(n - 1 - c, k - 1):]
        while len(rest):
            take = min(len(rest), len(out) - at)
            out[at:at + take, 0] = c
            out[at:at + take, 1:] = rest[:take]
            rest, at = rest[take:], at + take
            if at == len(out):
                yield out
                left -= at
                out, at = np.empty((min(chunk, left), k), dtype=dtype), 0


def _lex_list(n: int, k: int) -> np.ndarray:
    """The whole lexicographic list of the k-subsets of range(n), built
    from the empty subset up, in the narrowest unsigned dtype for n."""
    rows = np.empty((1, 0), dtype=np.min_scalar_type(n))
    for j in range(1, k + 1):
        rows = next(_lex_chunks(rows, n, math.comb(n, j), rows.dtype))
    return rows


def _complements(rows: np.ndarray, n: int) -> np.ndarray:
    """The sorted complement in range(n) of each row, as int64."""
    keep = np.ones((len(rows), n), dtype=bool)
    keep[np.arange(len(rows))[:, None], rows] = False
    return np.nonzero(keep)[1].reshape(len(rows), n - rows.shape[1])


def lex_subset_chunks(n: int, k: int, chunk: int = _COMBO_CHUNK):
    """The lexicographic list of the k-subsets of range(n), 1 <= k <= n,
    as an iterator of consecutive int64 blocks of chunk rows (the last
    may be shorter).  The (k - 1)-subset list that the blocks are copied
    from is built first.  Past the middle, 2k > n, that list would
    outgrow the k-subsets'.  Read as bit strings from element 0 on, the
    lexicographic order is the descending one, and taking complements
    reverses it; so the blocks are then the complements of the list of
    the (n - k)-subsets, read backwards."""
    if not 1 <= k <= n or chunk < 1:
        raise ValueError(f"no {chunk}-row chunks of the {k}-subsets of "
                         f"range({n}): need 1 <= k <= n and chunk >= 1")
    if k == 1:  # n blocks of one row each: one arange per chunk instead
        return (np.arange(start, min(start + chunk, n), dtype=np.int64)[:, None]
                for start in range(0, n, chunk))
    if 2 * k <= n:
        return _lex_chunks(_lex_list(n, k - 1), n, chunk, np.int64)
    size, rest = math.comb(n, k), _lex_list(n, n - k)
    return (_complements(rest[size - min(start + chunk, size):size - start][::-1], n)
            for start in range(0, size, chunk))


def _lex_subset(n: int, k: int, start: int, i: int = 0) -> tuple:
    """The k-subset of range(n) at position start + i of the lexicographic
    list.  Its mirror image {n - 1 - c} has the ``subset_ranks`` rank
    C(n, k) - 1 - (start + i), read off the rank table greedily."""
    table, rank, subset = _rank_table(n, k), math.comb(n, k) - 1 - start - i, []
    for j in range(k - 1, -1, -1):
        u = int(np.searchsorted(table[j], rank, side="right")) - 1
        rank -= int(table[j, u])
        subset.append(n - 1 - u - j)
    return tuple(subset)


@dataclass(frozen=True)
class Fold:
    """A selection formula declared as a left fold over each subset's
    sorted indices.  A state is a tuple of arrays, row i for row i of the
    block: ``first(cols)`` is the state of a (j, m) block of leading
    index columns, ``step(state, col)`` that state extended by one (m,)
    column (it may write into ``state``), and ``finish(state)`` the
    (m, T) terms.  As a binding's ``terms`` it is
    ``finish(first(rows.T))``; ``finish(step(first(cols[:-1]),
    cols[-1]))`` must equal ``finish(first(cols))`` bit for bit."""

    first: Callable
    step: Callable
    finish: Callable

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        return self.finish(self.first(rows.T))


def joint_fold(parts, finish: Callable) -> Fold:
    """The folds of ``parts``, (fold, width) pairs, run side by side over
    the same columns: the state is theirs in turn, fold i's ``width``
    arrays, and ``finish`` maps the list of their finished states."""
    ends = np.cumsum([width for _, width in parts]).tolist()
    spans = [(fold, slice(end - width, end)) for (fold, width), end in zip(parts, ends)]

    def first(cols: np.ndarray) -> tuple:
        state = ()  # concatenated in a loop: cheaper than a generator
        for fold, _ in spans:
            state += fold.first(cols)
        return state

    return Fold(first, lambda state, col: tuple(
        a for fold, span in spans for a in fold.step(state[span], col)),
        lambda state: finish([fold.finish(state[span]) for fold, span in spans]))


def _children(fold: Fold, last: np.ndarray, state: tuple, top: int) -> tuple:
    """The lexicographic list of the children of prefixes ending in
    ``last``, each extended by last + 1, ..., top: their last indices,
    and their states, each parent's repeated and stepped."""
    counts = top - last
    ends = np.cumsum(counts)
    col = np.arange(ends[-1]) + np.repeat(last + 1 - (ends - counts), counts)
    return col, fold.step(tuple(np.repeat(a, counts, axis=0) for a in state), col)


def _fold_blocks(fold: Fold, n: int, k: int, chunk: int = _COMBO_CHUNK):
    """The states of the k-subsets of range(n) in lexicographic order,
    in consecutive blocks of at most chunk rows.  Level j holds the
    C(n - k + j, j) j-prefixes that extend to a k-subset: level 1 is
    ``first`` of range(n - k + 1), and each later level steps its
    parents' repeated states.  The last runs in blocks of whole parents."""
    if k == 1:
        for start in range(0, n, chunk):
            yield fold.first(np.arange(start, min(start + chunk, n))[None])
        return
    last = np.arange(n - k + 1)
    state = fold.first(last[None])
    for top in range(n - k + 1, n - 1):
        last, state = _children(fold, last, state, top)
    ends, lo = np.cumsum(n - 1 - last), 0  # where each parent's children end
    while lo < len(last):
        start = int(ends[lo - 1]) if lo else 0
        # the parents whose children fit in the block, and at least one
        hi = max(int(np.searchsorted(ends, start + chunk, side="right")), lo + 1)
        yield _children(fold, last[lo:hi], tuple(a[lo:hi] for a in state), n - 1)[1]
        lo = hi


def brute_force_selection(binding):
    """Exhaustive optimum over all k-of-N selections.

    Subsets are swept in lexicographic order: level by level
    (``_fold_blocks``) where the binding's ``terms`` is a ``Fold``, else
    in chunks of index rows (``lex_subset_chunks``) scored by its
    ``terms`` or, lacking those, its ``evaluate_batch``.  A block's first
    minimum replaces the best only if strictly lower, so ties resolve to
    the lexicographically smallest index set.  A bad term or total
    raises ``ValueError``, which names the subset (``_lex_subset`` of its
    position) where the binding has ``terms``; a non-finite total raises
    at its block's first one, wherever the minimum is.  Only the winner
    goes through ``evaluate``.  Returns (indices tuple, Fitness).
    """
    space = binding.space
    if space.kind != "selection":
        raise ValueError("brute force enumeration needs a selection space")
    n, k = space.n_candidates, space.k
    size = math.comb(n, k)
    if size > BRUTE_FORCE_LIMIT:
        raise OracleTooLarge(f"C({n},{k}) = {size} exceeds {BRUTE_FORCE_LIMIT}")
    formula = getattr(binding, "terms", None)
    if isinstance(formula, Fold):
        blocks, terms = _fold_blocks(formula, n, k), formula.finish
    else:
        blocks, terms = lex_subset_chunks(n, k), formula
    best_rank, best_total, start = None, math.inf, 0
    for block in blocks:
        # sorted distinct integers floor back to exactly their subset
        totals = (binding.evaluate_batch(block) if terms is None else
                  binding.weighted_sum(terms(block), partial(_lex_subset, n, k, start)))
        j = int(np.argmin(totals))  # first occurrence: lexicographic tie rule
        # argmin lands on a NaN or -inf and max on a NaN or +inf; either
        # way the error names the block's first non-finite total
        if not (math.isfinite(totals[j]) and totals.max() < math.inf):
            j = int(np.argmax(~np.isfinite(totals)))
            raise ValueError(f"subset {_lex_subset(n, k, start, j)} has a "
                             f"non-finite total {totals[j]}")
        if best_rank is None or totals[j] < best_total:
            best_rank, best_total = start + j, totals[j]
        start += len(totals)
    best_subset = _lex_subset(n, k, best_rank)
    return best_subset, binding.evaluate(list(best_subset))


# ---------------------------------------------------------------------------
# transportation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportationInstance:
    """Ship supplies to capacitated sinks at minimum cost."""

    cost: np.ndarray      # (sources, sinks)
    supply: np.ndarray    # (sources,)
    capacity: np.ndarray  # (sinks,)

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=np.float64)
        supply = np.asarray(self.supply, dtype=np.float64)
        capacity = np.asarray(self.capacity, dtype=np.float64)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "capacity", capacity)
        if cost.ndim != 2 or cost.shape != (supply.size, capacity.size):
            raise ValueError("cost matrix shape does not match supply/capacity")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            raise ValueError("costs must be finite and non-negative")
        if np.any(supply < 0) or np.any(capacity < 0):
            raise ValueError("supplies and capacities must be non-negative")
        if supply.sum() > capacity.sum() + _EPS:
            raise InfeasibleTransport(
                f"total supply {supply.sum()} exceeds total capacity "
                f"{capacity.sum()}")


def solve_transportation(instance: TransportationInstance):
    """Minimum-cost shipment of all supply, by successive shortest
    paths with node potentials (reduced-cost tolerance 1e-9).

    Returns (flow matrix, optimal cost).
    """
    n_src = instance.supply.size
    n_snk = instance.capacity.size
    # node ids: 0 = super source, 1..n_src = sources,
    # n_src+1..n_src+n_snk = sinks, last = super sink
    n_nodes = n_src + n_snk + 2
    source, sink = 0, n_nodes - 1

    graph: list[list[int]] = [[] for _ in range(n_nodes)]
    to: list[int] = []
    residual: list[float] = []
    cost_of: list[float] = []

    def add_edge(u: int, v: int, cap: float, cost: float) -> int:
        idx = len(to)
        graph[u].append(idx)
        to.append(v)
        residual.append(cap)
        cost_of.append(cost)
        graph[v].append(idx + 1)
        to.append(u)
        residual.append(0.0)
        cost_of.append(-cost)
        return idx

    total_supply = float(instance.supply.sum())
    middle = np.empty((n_src, n_snk), dtype=np.int64)
    for i in range(n_src):
        add_edge(source, 1 + i, float(instance.supply[i]), 0.0)
        for j in range(n_snk):
            middle[i, j] = add_edge(1 + i, 1 + n_src + j,
                                    total_supply, float(instance.cost[i, j]))
    for j in range(n_snk):
        add_edge(1 + n_src + j, sink, float(instance.capacity[j]), 0.0)

    potential = [0.0] * n_nodes
    shipped = 0.0
    inf = math.inf
    while shipped + _EPS < total_supply:
        # Dijkstra on reduced costs
        dist = [inf] * n_nodes
        prev_edge = [-1] * n_nodes
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + _EPS:
                continue
            for e in graph[u]:
                if residual[e] <= _EPS:
                    continue
                v = to[e]
                reduced = cost_of[e] + potential[u] - potential[v]
                if reduced < 0.0:
                    reduced = 0.0  # float noise; true reduced costs are >= -1e-9
                nd = d + reduced
                if nd + _EPS < dist[v]:
                    dist[v] = nd
                    prev_edge[v] = e
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == inf:
            if total_supply - shipped > _UNSHIPPED_RTOL * total_supply:
                raise InfeasibleTransport("no augmenting path to the sinks")
            break
        for v in range(n_nodes):
            if dist[v] < inf:
                potential[v] += dist[v]
        # bottleneck along the path
        push = total_supply - shipped
        v = sink
        while v != source:
            e = prev_edge[v]
            push = min(push, residual[e])
            v = to[e ^ 1]
        v = sink
        while v != source:
            e = prev_edge[v]
            residual[e] -= push
            residual[e ^ 1] += push
            v = to[e ^ 1]
        shipped += push

    flow = np.empty((n_src, n_snk), dtype=np.float64)
    for i in range(n_src):
        for j in range(n_snk):
            flow[i, j] = residual[middle[i, j] ^ 1]  # reverse edge holds the flow
    total_cost = float((flow * instance.cost).sum())
    return flow, total_cost


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DispatchInstance:
    """Generator fleet scheduled over consecutive hours."""

    cost_rate: np.ndarray      # (G,) currency per MWh
    emission_rate: np.ndarray  # (G,) tons per MWh
    min_out: np.ndarray        # (G,) MW floor while committed
    max_out: np.ndarray        # (G,)
    ramp: np.ndarray           # (G,) max |delta| between consecutive hours
    demand: np.ndarray         # (H,)

    def __post_init__(self):
        arrays = {}
        for name in ("cost_rate", "emission_rate", "min_out", "max_out",
                     "ramp", "demand"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            arrays[name] = arr
        g = arrays["cost_rate"].size
        for name in ("emission_rate", "min_out", "max_out", "ramp"):
            if arrays[name].size != g:
                raise ValueError(f"{name} must have one entry per generator")
        if np.any(arrays["min_out"] > arrays["max_out"]):
            raise ValueError("min_out must not exceed max_out")
        if np.any(arrays["demand"] < 0):
            raise ValueError("demand must be non-negative")

    @property
    def n_generators(self) -> int:
        return self.cost_rate.size

    @property
    def n_hours(self) -> int:
        return self.demand.size


def merit_order_dispatch(instance: DispatchInstance, emission_weight: float):
    """Hour-by-hour greedy fill in ascending effective-rate order.

    Effective rate is cost_rate + emission_weight * emission_rate.
    Every generator runs at least min_out; remaining demand is filled
    cheapest-first.  Ramp limits are ignored, so the result is the
    exact optimum of the ramp-relaxed linear problem and a lower bound
    for the ramped one.  Returns (schedule (G, H), objective value).
    """
    eff = instance.cost_rate + emission_weight * instance.emission_rate
    order = np.argsort(eff, kind="stable")
    base = float(instance.min_out.sum())
    headroom = instance.max_out - instance.min_out

    g, h = instance.n_generators, instance.n_hours
    schedule = np.tile(instance.min_out[:, None], (1, h))
    for hour in range(h):
        need = float(instance.demand[hour]) - base
        if need < -_EPS:
            raise InfeasibleDispatch(
                f"hour {hour}: demand {instance.demand[hour]} below the "
                f"committed minimum output {base}")
        for gen in order:
            if need <= _EPS:
                break
            take = min(need, float(headroom[gen]))
            schedule[gen, hour] += take
            need -= take
        if need > _EPS:
            raise InfeasibleDispatch(
                f"hour {hour}: demand {instance.demand[hour]} exceeds total "
                f"capacity {float(instance.max_out.sum())}")
    objective = float((schedule.sum(axis=1) * eff).sum())
    return schedule, objective
