"""Independent reference implementations used to cross-check the package.

Everything in here is written from the textbook definition, on purpose in a
different style than the package code (plain dicts and loops, no shared
helpers), so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools

import numpy as np

MASK64 = (1 << 64) - 1


def bellman_ford(n_nodes, edges, source):
    """Distances from source over directed weighted edges.

    edges: iterable of (src, dst, weight).  Returns {node: distance} for
    reachable nodes only.  No negative-cycle handling; weights here are
    always >= 0.
    """
    inf = float("inf")
    dist = {source: 0.0}
    for _ in range(n_nodes - 1):
        changed = False
        for u, v, w in edges:
            du = dist.get(u, inf)
            if du + w < dist.get(v, inf):
                dist[v] = du + w
                changed = True
        if not changed:
            break
    return dist


def transportation_by_enumeration(cost, supplies, capacities):
    """Minimum transport cost by complete sweep over integer flows.

    Requires integer supplies and capacities.  Every source must ship its
    full supply; sinks may not exceed capacity.  Enumerates every integer
    split of every supply (cartesian product of compositions), so only tiny
    instances are feasible: the caller keeps shapes within 4x3 and supplies
    within 5.
    """
    n_sinks = len(capacities)

    def compositions(total):
        # all ways to write `total` as n_sinks ordered non-negative parts
        if n_sinks == 1:
            yield (total,)
            return
        for cuts in itertools.combinations_with_replacement(
                range(total + 1), n_sinks - 1):
            parts = []
            prev = 0
            for c in cuts:
                parts.append(c - prev)
                prev = c
            parts.append(total - prev)
            yield tuple(parts)

    best = None
    for rows in itertools.product(*(compositions(s) for s in supplies)):
        ok = True
        for j in range(n_sinks):
            if sum(row[j] for row in rows) > capacities[j]:
                ok = False
                break
        if not ok:
            continue
        total = 0.0
        for i, row in enumerate(rows):
            for j, units in enumerate(row):
                total += units * cost[i][j]
        if best is None or total < best:
            best = total
    return best


def wilcoxon_by_sign_enumeration(diffs):
    """Two-sided exact signed-rank p by literal enumeration of 2^n signs.

    Zeros must be dropped by the caller.  Ties get average ranks.
    """
    n = len(diffs)
    mags = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[mags[j + 1]]) == abs(diffs[mags[i]]):
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[mags[t]] = avg
        i = j + 1

    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    count_le = 0
    count_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_plus:
            count_le += 1
        if w >= w_plus:
            count_ge += 1
    total = 2 ** n
    return min(1.0, 2.0 * min(count_le / total, count_ge / total))


def wilcoxon_exact_by_convolution(diffs):
    """Exact two-sided signed-rank p for any n, via a counting
    convolution over doubled ranks (dict-based, no 2^n blowup).

    Doubling keeps tied average ranks integral.  Zeros must already be
    dropped.
    """
    n = len(diffs)
    order = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks2 = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        doubled = (i + j + 2)  # 2 * average rank of the tied block
        for t in range(i, j + 1):
            ranks2[order[t]] = doubled
        i = j + 1

    counts = {0: 1}
    for r in ranks2:
        nxt = {}
        for total, ways in counts.items():
            nxt[total] = nxt.get(total, 0) + ways
            nxt[total + r] = nxt.get(total + r, 0) + ways
        counts = nxt

    w_plus2 = sum(r for d, r in zip(diffs, ranks2) if d > 0)
    size = 2 ** n
    lo = sum(ways for total, ways in counts.items() if total <= w_plus2)
    hi = sum(ways for total, ways in counts.items() if total >= w_plus2)
    return min(1.0, 2.0 * min(lo / size, hi / size))


def xorshift64star_sequence(state, count):
    """Scalar xorshift64* outputs from a given nonzero state."""
    out = []
    s = state & MASK64
    for _ in range(count):
        s ^= (s >> 12)
        s &= MASK64
        s ^= (s << 25) & MASK64
        s ^= (s >> 27)
        s &= MASK64
        out.append((s * 0x2545F4914F6CDD1D) & MASK64)
    return out


def degeneracy_by_scalar_draws(instance, samples, seed):
    """The degeneracy scan one scalar draw at a time: coordinate j of
    sample i is draw i * dim + j of stream 2001, and each sample is one
    ``evaluate`` of a fresh binding.  Returns one (name, kind, minimum,
    maximum, variance, missing_property_count, flagged) tuple per term,
    in first-seen order."""
    import dataclasses

    from graphopt.rng import stream_state
    space = instance.space
    outputs = xorshift64star_sequence(stream_state(seed, 2001),
                                      samples * space.dim)
    binding = dataclasses.replace(instance.binding)
    series, kinds = {}, {}
    for i in range(samples):
        u = [(out >> 11) * 2.0 ** -53
             for out in outputs[i * space.dim:(i + 1) * space.dim]]
        x = space.lower + (space.upper - space.lower) * np.array(u)
        fit = binding.evaluate(x)
        for kind, terms in (("objective", fit.objective_terms),
                            ("violation", fit.violation_terms)):
            for name, value in terms.items():
                series.setdefault(name, []).append(float(value))
                kinds[name] = kind
    rows = []
    for name, values in series.items():
        arr = np.array(values)
        missing = sum(binding.missing_counts.get(array, 0)
                      for array in binding.term_sources.get(name, ()))
        rows.append((name, kinds[name], float(arr.min()), float(arr.max()),
                     float(arr.var()), missing, bool(arr.max() == arr.min())))
    return rows


# ---- the built-in Pattern B fitness formulas, one row at a time ----
#
# Each returns a row's term values in the binding's column order (its
# ``term_sources`` keys).  The selection formulas take a subset of
# candidate indices.

def weighted_total(values, weights):
    """From 0.0: each objective value (weight None), then weight times
    each violation, in column order."""
    total = 0.0
    for value, weight in zip(values, weights):
        if weight is None:
            total += value
    for value, weight in zip(values, weights):
        if weight is not None:
            total += weight * value
    return total


def sum_plus_diversity_terms(values, regions, beta, subset):
    """P2/P4: minus the subset's summed values, added in sorted index
    order, and minus beta per distinct region (a missing region, None,
    is one region of its own)."""
    total = 0.0
    for i in sorted(subset):
        total += values[i]
    return [-total, -beta * len({regions[i] for i in subset})]


def coverage_burden_terms(counts, burden, lam, subset):
    """P6: minus the sum over pathogens of the subset's best efficacy
    1 / (1 + resistance count), and lam times its summed burden.

    The pathogen sum is numpy's, as in the package: pairwise summation
    rounds differently from a loop once there are 8 or more terms."""
    best = [max(1.0 / (1.0 + counts[i][j]) for i in subset)
            for j in range(len(counts[0]))]
    load = 0.0
    for i in sorted(subset):
        load += burden[i]
    return [-float(np.sum(np.array(best))), lam * load]


def fraction_terms(cost, supply, capacity, x):
    """P3/P7 on row-major (source, sink) fractions: shipped cost, the
    supply-weighted |row sum - 1|, and the inflow above each capacity."""
    n_snk = len(capacity)
    cost_total = 0.0
    balance = 0.0
    inflow = [0.0] * n_snk
    for i, row in enumerate(cost):
        row_sum = 0.0
        for j in range(n_snk):
            fraction = x[i * n_snk + j]
            shipped = fraction * supply[i]
            cost_total += shipped * row[j]
            inflow[j] += shipped
            row_sum += fraction
        balance += abs(row_sum - 1.0) * supply[i]
    overflow = 0.0
    for j in range(n_snk):
        overflow += max(inflow[j] - capacity[j], 0.0)
    return [cost_total, balance, overflow]


def dispatch_terms(cost_rate, emission_rate, max_out, ramp, demand,
                   emission_weight, linear, x):
    """P5 on generator-major hourly outputs: fuel cost, weighted
    emission (linear, or quadratic in output over capacity), the
    absolute hourly imbalance, and the ramp excess between hours."""
    n_hours = len(demand)
    out = [x[g * n_hours:(g + 1) * n_hours] for g in range(len(cost_rate))]
    cost = emission = ramp_over = 0.0
    for g, series in enumerate(out):
        produced = sum(series)
        cost += produced * cost_rate[g]
        if linear:
            emission += produced * emission_rate[g]
        else:
            for value in series:
                emission += emission_rate[g] * value * value / max_out[g]
        for h in range(n_hours - 1):
            ramp_over += max(abs(series[h + 1] - series[h]) - ramp[g], 0.0)
    balance = 0.0
    for h in range(n_hours):
        balance += abs(sum(series[h] for series in out) - demand[h])
    return [cost, emission_weight * emission, balance, ramp_over]
