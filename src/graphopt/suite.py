"""Seeded desk-scale problem generators P1-P7.

Each generator builds a frozen property graph, grounds a fitness
binding in it (P1 through per-evaluation query templates, P2-P7 through
startup materialization), and packages the decision space, a canonical
spec snapshot, and an exact-oracle descriptor into one Instance.

Each of P2-P7 has one fitness formula, a ``terms`` function that scores
a whole batch in numpy (see ``PatternBBinding``): P2, P4 and P6 over
sorted decoded index rows, P3, P5 and P7 over the raw (m, d) block.
P2, P4 and P6 declare theirs as a left fold over the sorted indices
(``oracles.Fold``), which the brute-force oracle sweeps level by level.
Every reduction is a numpy sum or an explicit loop of adds, never a
BLAS call, so row i of a batch does not depend on the other rows.
SOLVERS.md writes down the P3/P5/P7 arithmetic.

P3 and P7 are one capacitated transportation formulation over two
road graphs.  They share one generator, ``_gen_flow``, and one builder,
``_assemble_flow``.  Everything that tells them apart (sizes, RNG
stream, draws, labels and property names, array and data names, spec
order, the disruption they take and the oracle note) is their row of
the ``_FLOWS`` table; the generator, the builder, the oracle and the
disruption read nothing else of the problem.

Problems:
  P1 drug-portfolio selection: k drugs maximizing distinct target-gene
     coverage minus a weighted side-effect sum.
  P2 trial-site selection: k sites maximizing trial throughput plus a
     region-diversity bonus.
  P3 freight rerouting: city-to-port shipment fractions minimizing
     demand-weighted road distance under soft balance/capacity penalties.
  P4 physician-deficit targeting: k countries maximizing summed deficit
     below a fixed density threshold plus a diversity bonus.
  P5 generator dispatch over 24 hours: cost plus emission-weighted
     penalty, linear (oracle-comparable) or quadratic-emission mode.
  P6 antibiotic-subclass portfolio: per-pathogen best efficacy
     (inverse of resistance count) minus a resistance-burden penalty.
  P7 evacuation assignment: centroid-to-exit fractions minimizing
     person-hours under soft balance/capacity penalties.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .graph import PropertyGraph
from .oracles import (DispatchInstance, Fold, TransportationInstance,
                      brute_force_selection, joint_fold, merit_order_dispatch,
                      solve_transportation)
# decode_selection is not called here; perfbench/trace.py looks it up
# in this module as well as in problems
from .problems import (DecisionSpace, PatternABinding, PatternBBinding,  # noqa: F401
                       QueryTerm, continuous_space, decode_selection,
                       materialize, selection_space)
from .querylang import parse_query, parse_template
from .querylang.executor import code_masks, distinct_fold, sum_fold
from .rng import LaneRng, SeededRng

PROBLEM_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")
SCALES = ("small", "medium")
P5_MODES = ("linear", "nonlinear")  # the oracle-comparable mode first

WHO_REGIONS = ("AFR", "AMR", "SEAR", "EUR", "EMR", "WPR")
PHYSICIAN_DENSITY_THRESHOLD = 23.0

# problem coefficients; configurable at generate() time, recorded in notes
P1_LAMBDA = 0.5
P2_BETA = 10.0
P4_BETA = 10.0
P6_LAMBDA = 0.1
P5_EMISSION_WEIGHT = 25.0
PENALTY_SCALE = 1000.0  # soft-constraint weight = PENALTY_SCALE * mean rate


@dataclass(frozen=True)
class DisruptionSpec:
    mode: str                 # 'capacity_halving' | 'time_inflation'
    fraction: float
    factor: float = 2.0       # time_inflation only
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("capacity_halving", "time_inflation"):
            raise ValueError(f"unknown disruption mode {self.mode!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.mode == "time_inflation" and self.factor <= 1.0:
            raise ValueError("inflation factor must exceed 1")


@dataclass
class Instance:
    problem_id: str
    scale: str
    seed: int
    graph: PropertyGraph
    binding: object
    space: DecisionSpace
    spec: dict                      # canonical snapshot, pinned key order
    oracle_kind: Optional[str]      # brute_force | transportation | merit_order | None
    oracle_note: str
    params: dict = field(default_factory=dict)
    disruption: Optional[DisruptionSpec] = None

    def spec_bytes(self) -> bytes:
        return (json.dumps(self.spec, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def disruption_targets(count: int, fraction: float, seed: int) -> list[int]:
    """ceil(fraction * count) target indices, seeded, without replacement."""
    affected = math.ceil(fraction * count)
    if affected == 0:
        return []
    return sorted(SeededRng(seed, stream=1001).sample(count, affected))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _materialize_props(graph: PropertyGraph, label: str, props: dict) -> tuple:
    """props maps array name -> property name; returns
    (arrays, missing_counts, provenance)."""
    queries = {name: parse_query(f"MATCH (n:{label}) RETURN n.{prop}")
               for name, prop in props.items()}
    return materialize(graph, queries)


def _bucket_codes(values) -> list[int]:
    """One int code per distinct value; all Nones share one code."""
    codes: dict = {}
    return [codes.setdefault(v, len(codes)) for v in values]


def _columns(*columns) -> np.ndarray:
    """The (m, T) terms matrix of T (m,) columns.  At population sizes
    this is several times faster than ``np.stack(columns, axis=1)``."""
    return np.array(columns).T


def _sum_plus_diversity_terms(values, codes, beta: float) -> Fold:
    """P2/P4 terms over (m, k) sorted index rows: the negated value sum,
    accumulated column by column from 0.0 in sorted-index order, and
    -beta times the number of distinct region codes.  The fold is the
    node-block folds of a ``sum`` and a ``count(DISTINCT …)`` side by
    side: the running sum, and the OR of the region masks, one array per
    mask word."""
    masks = code_masks([[c] for c in codes], max(codes) + 1)
    return joint_fold([(sum_fold(np.asarray(values, dtype=np.float64)[:, None]), 1),
                       (distinct_fold(masks), len(masks))],
                      lambda values: _columns(-values[0], -beta * values[1]))


def _connected_road_graph(g: PropertyGraph, rng: SeededRng, n_road: int,
                          scale_km: float) -> list[int]:
    """Random geometric road network: chain along x for connectivity
    plus 2-nearest-neighbor shortcuts.  Edges carry length_km both ways."""
    points = [(rng.u01(), rng.u01()) for _ in range(n_road)]
    ids = [g.add_node({"RoadNode"}, {"x": points[i][0], "y": points[i][1]})
           for i in range(n_road)]

    def dist(a: int, b: int) -> float:
        dx = points[a][0] - points[b][0]
        dy = points[a][1] - points[b][1]
        return math.hypot(dx, dy) * scale_km

    seen = set()

    def road(a: int, b: int) -> None:
        if a == b or (a, b) in seen:
            return
        seen.add((a, b))
        seen.add((b, a))
        length = dist(a, b)
        g.add_edge(ids[a], "ROAD", ids[b], {"length_km": length})
        g.add_edge(ids[b], "ROAD", ids[a], {"length_km": length})

    order = sorted(range(n_road), key=lambda i: points[i])
    for a, b in zip(order, order[1:]):
        road(a, b)
    for i in range(n_road):
        nearest = heapq.nsmallest(2, (j for j in range(n_road) if j != i),
                                  key=lambda j: dist(i, j))
        for j in nearest:
            road(i, j)
    return ids


def _pairwise_distances(g: PropertyGraph, src_road: list[int],
                        dst_road: list[int]) -> np.ndarray:
    """(len(dst_road), len(src_road)) matrix; [i, j] is the shortest
    road distance from src_road[j] to dst_road[i]."""
    sp = g.shortest_paths(sorted(set(src_road)), "length_km", "ROAD")
    out = np.empty((len(dst_road), len(src_road)), dtype=np.float64)
    for i, dst in enumerate(dst_road):
        for j, src in enumerate(src_road):
            key = (src, dst)
            if key not in sp:
                raise ValueError("road graph is not connected")
            out[i, j] = sp[key]
    return out


# ---------------------------------------------------------------------------
# P1: drug portfolio, Pattern A
# ---------------------------------------------------------------------------

def _gen_p1(scale: str, seed: int, drop_properties: tuple) -> Instance:
    n_drugs, n_genes, k = (20, 30, 4) if scale == "small" else (60, 90, 4)
    lam = P1_LAMBDA
    rng = SeededRng(seed, stream=1)

    g = PropertyGraph()
    drug_names = [f"DRUG-{i:02d}" for i in range(n_drugs)]
    side_effects = [rng.integer(0, 10) for _ in range(n_drugs)]
    for name, sec in zip(drug_names, side_effects):
        props = {"name": name, "side_effect_count": sec}
        for dropped in drop_properties:
            props.pop(dropped, None)
        g.add_node({"Drug"}, props)
    gene_names = [f"GENE-{i:02d}" for i in range(n_genes)]
    gene_ids = [g.add_node({"Gene"}, {"symbol": s}) for s in gene_names]
    targets: list[list[str]] = []
    for d in range(n_drugs):
        n_t = 1 + rng.integer(0, 5)
        hit = sorted(rng.sample(n_genes, n_t))
        targets.append([gene_names[t] for t in hit])
        for t in hit:
            g.add_edge(d, "TARGETS", gene_ids[t])
    g.freeze()

    coverage = parse_template(
        "MATCH (d:Drug)-[:TARGETS]->(g:Gene) WHERE d.id IN $selected "
        "RETURN count(DISTINCT g.id)")
    burden = parse_template(
        "MATCH (d:Drug) WHERE d.id IN $selected "
        "RETURN sum(d.side_effect_count)")
    space = selection_space(k, n_drugs)
    binding = PatternABinding(
        graph=g, space=space, candidates=list(range(n_drugs)),
        objective_terms=[
            QueryTerm("gene_coverage", coverage, coefficient=-1.0),
            QueryTerm("side_effect_burden", burden, coefficient=lam),
        ])

    spec = {
        "candidates": drug_names,
        "targets": targets,
        "side_effect_counts": side_effects,
        "k": k,
    }
    return Instance(
        problem_id="P1", scale=scale, seed=seed, graph=g, binding=binding,
        space=space, spec=spec, oracle_kind="brute_force",
        oracle_note="discrete selection; oracle-comparable, gap >= 1",
        params={"lambda": lam, "n_genes": n_genes})


# ---------------------------------------------------------------------------
# P2: trial sites, Pattern B (and a Pattern A twin for equivalence checks)
# ---------------------------------------------------------------------------

_COUNTRY_POOL = tuple(
    (f"{region}-C{i}", region) for region in WHO_REGIONS for i in range(3))


def _gen_p2(scale: str, seed: int, drop_properties: tuple) -> Instance:
    n_sites, k = (20, 5) if scale == "small" else (40, 5)
    beta = P2_BETA
    rng = SeededRng(seed, stream=2)

    g = PropertyGraph()
    names, countries, regions, trials = [], [], [], []
    for i in range(n_sites):
        country, region = _COUNTRY_POOL[rng.integer(0, len(_COUNTRY_POOL))]
        names.append(f"SITE-{i:02d}")
        countries.append(country)
        regions.append(region)
        trials.append(20 + rng.integer(0, 381))
        props = {"name": names[i], "country": country,
                 "who_region": region, "trial_count": trials[i]}
        for dropped in drop_properties:
            props.pop(dropped, None)
        g.add_node({"Site"}, props)
    g.freeze()

    arrays, missing, provenance = _materialize_props(
        g, "Site", {"trial_counts": "trial_count", "regions": "who_region"})

    space = selection_space(k, n_sites)
    tc = [0.0 if v is None else float(v) for v in arrays["trial_counts"]]
    codes = _bucket_codes(arrays["regions"])
    binding = PatternBBinding(
        space=space, arrays=arrays,
        terms=_sum_plus_diversity_terms(tc, codes, beta),
        provenance=provenance, missing_counts=missing, memoize=True,
        term_sources={"trial_throughput": ("trial_counts",),
                      "region_diversity": ("regions",)})

    spec = {
        "facilities": names,
        "countries": countries,
        "trial_counts": trials,
        "k": k,
    }
    return Instance(
        problem_id="P2", scale=scale, seed=seed, graph=g, binding=binding,
        space=space, spec=spec, oracle_kind="brute_force",
        oracle_note="discrete selection; oracle-comparable, gap >= 1",
        params={"beta": beta})


def pattern_a_binding(instance: Instance) -> PatternABinding:
    """Per-evaluation query binding for a problem normally materialized
    at startup.  Supported for P2; used to check pattern equivalence."""
    if instance.problem_id != "P2":
        raise ValueError(f"no Pattern A formulation for {instance.problem_id}")
    beta = instance.params["beta"]
    throughput = parse_template(
        "MATCH (s:Site) WHERE s.id IN $selected RETURN sum(s.trial_count)")
    diversity = parse_template(
        "MATCH (s:Site) WHERE s.id IN $selected "
        "RETURN count(DISTINCT s.who_region)")
    n = instance.space.n_candidates
    return PatternABinding(
        graph=instance.graph, space=instance.space,
        candidates=list(range(n)),
        objective_terms=[
            QueryTerm("trial_throughput", throughput, coefficient=-1.0),
            QueryTerm("region_diversity", diversity, coefficient=-beta),
        ])


# ---------------------------------------------------------------------------
# P3 and P7: freight rerouting and evacuation, Pattern B, transportation oracle
# ---------------------------------------------------------------------------

def _fraction_terms(cost, demand, capacity):
    """Shared P3/P7 terms of (m, d) row-major (source, sink) fractions.

    objective = sum(frac * demand * cost); balance violation is the
    demand-weighted |row sum - 1|; capacity violation is the total
    inflow above each sink's cap.  Units: demand units (tons / people).
    """
    n_src, n_snk = cost.shape

    def terms(X: np.ndarray) -> np.ndarray:
        m = X.shape[0]
        frac = X.reshape(m, n_src, n_snk)
        shipped = frac * demand[:, None]
        objective = (shipped * cost).reshape(m, -1).sum(axis=1)
        balance = (np.abs(frac.sum(axis=2) - 1.0) * demand).sum(axis=1)
        overflow = np.maximum(shipped.sum(axis=1) - capacity, 0.0).sum(axis=1)
        return _columns(objective, balance, overflow)

    return terms


@dataclass(frozen=True)
class _Flow:
    """What tells the two transportation problems apart; the generator,
    the builder, the oracle and the disruption read nothing else of
    them."""
    sizes: dict           # scale -> (sources, sinks, road nodes)
    stream: int           # SeededRng stream of the generator
    scale_km: float       # side of the square the road nodes fill
    supply: Callable      # SeededRng -> one source's supply
    shares: tuple         # (offset, headroom): sinks split headroom *
                          # total supply in proportion to offset + u01
    cost_divisor: float   # road km -> cost unit
    data: tuple           # params["data"] keys of cost, supply, capacity
    arrays: tuple         # binding array names of the same three
    nodes: tuple          # (label, value property, name property, name
                          #  format) of the source and the sink nodes
    cost_query: str       # provenance of the cost array
    cost_term: str
    spec: tuple           # (spec key, "cost" | "supply" | "capacity" |
                          #  "sources" | "sinks"), in spec order
    disruption: str       # the DisruptionSpec mode this problem takes
    target: str           # the params["data"] key it scales
    factor: Callable      # DisruptionSpec -> the scale factor
    record: tuple         # DisruptionSpec fields of the spec's record
    affected: str         # record key of the scaled indices
    note: str


_FLOWS = {
    "P3": _Flow(
        sizes={"small": (10, 4, 40), "medium": (100, 8, 300)},
        stream=3, scale_km=400.0,
        supply=lambda rng: 10.0 + 90.0 * rng.u01(),
        shares=(0.2, 1.6), cost_divisor=1.0,
        data=("distance", "demands", "capacities"),
        arrays=("distance_km", "demands", "capacities"),
        nodes=(("City", "demand", "name", "CITY-{:02d}"),
               ("Port", "capacity", "code", "PORT-{}")),
        cost_query="shortest_paths(ports -> cities, length_km, ROAD)",
        cost_term="transport_cost",
        spec=(("distance_km", "cost"), ("demands", "supply"),
              ("capacities", "capacity")),
        disruption="capacity_halving", target="capacities",
        factor=lambda dspec: 0.5,
        record=("mode", "fraction", "seed"), affected="ports_halved",
        note=("soft-penalty comparison: the oracle enforces balance "
              "and capacity exactly while the binding penalizes them")),
    "P7": _Flow(
        sizes={"small": (8, 3, 20), "medium": (20, 5, 80)},
        stream=7, scale_km=30.0,
        supply=lambda rng: float(200 + rng.integer(0, 1801)),
        shares=(0.3, 1.3),
        cost_divisor=50.0,  # km/h: travel hours on a foot-and-vehicle mix
        data=("travel_time", "pop", "capacity"),
        arrays=("travel_time", "pop", "capacity"),
        nodes=(("Centroid", "pop", "name", "ZONE-{:02d}"),
               ("Exit", "capacity", "name", "EXIT-{}")),
        cost_query="shortest_paths(exits -> centroids, length_km, ROAD) / 50",
        cost_term="person_hours",
        spec=(("n_centroids", "sources"), ("n_exits", "sinks"),
              ("pop", "supply"), ("capacity", "capacity"),
              ("travel_time", "cost")),
        disruption="time_inflation", target="travel_time",
        factor=lambda dspec: dspec.factor,
        record=("mode", "fraction", "factor", "seed"),
        affected="routes_inflated",
        note=("soft-penalty comparison: fitness may dip below the "
              "oracle cost because balance is penalized, not enforced")),
}


def _gen_flow(problem_id: str, scale: str, seed: int,
              drop_properties: tuple) -> Instance:
    """Sources and sinks mapped onto a random road graph; the cost of
    a (source, sink) pair is its shortest road distance over
    ``cost_divisor``."""
    flow = _FLOWS[problem_id]
    n_src, n_snk, n_road = flow.sizes[scale]
    rng = SeededRng(seed, stream=flow.stream)

    g = PropertyGraph()
    road_ids = _connected_road_graph(g, rng, n_road, flow.scale_km)
    mapped = rng.sample(n_road, n_src + n_snk)
    src_road = [road_ids[i] for i in mapped[:n_src]]
    snk_road = [road_ids[i] for i in mapped[n_src:]]

    supply = np.array([flow.supply(rng) for _ in range(n_src)])
    offset, headroom = flow.shares
    shares = np.array([offset + rng.u01() for _ in range(n_snk)])
    capacity = shares / shares.sum() * (headroom * supply.sum())

    for (label, prop, key, fmt), values, roads in zip(
            flow.nodes, (supply, capacity), (src_road, snk_road)):
        for i, value in enumerate(values):
            nid = g.add_node({label}, {key: fmt.format(i), prop: float(value)})
            g.add_edge(nid, "MAPPED_TO", roads[i])
    g.freeze()

    cost = _pairwise_distances(g, snk_road, src_road) / flow.cost_divisor
    data = dict(zip(flow.data, (cost, supply, capacity)))
    return _assemble_flow(problem_id, scale, seed, g, data, disruption=None)


def _assemble_flow(problem_id, scale, seed, g, data, disruption) -> Instance:
    """The P3/P7 instance over ``data``, its (source, sink) cost matrix
    and its supply and capacity vectors; ``_FLOWS`` names them."""
    flow = _FLOWS[problem_id]
    cost, supply, capacity = (data[key] for key in flow.data)
    cost_name, supply_name, capacity_name = flow.arrays
    n_src, n_snk = cost.shape

    arrays = {name: tuple(float(v) for v in array.ravel())
              for name, array in zip(flow.arrays, (cost, supply, capacity))}
    missing = {cost_name: 0}
    provenance = (f"{cost_name}: {flow.cost_query}",)
    for name, (label, prop, *_) in zip(flow.arrays[1:], flow.nodes):
        _, node_missing, node_provenance = _materialize_props(
            g, label, {name: prop})
        missing.update(node_missing)
        provenance += node_provenance

    space = continuous_space(np.zeros(n_src * n_snk), np.ones(n_src * n_snk))
    weight = PENALTY_SCALE * float(cost.mean())
    binding = PatternBBinding(
        space=space, arrays=arrays,
        terms=_fraction_terms(cost, supply, capacity),
        penalty_weights={"balance": weight, "capacity": weight},
        provenance=provenance, missing_counts=missing,
        term_sources={flow.cost_term: (cost_name, supply_name),
                      "balance": (supply_name,),
                      "capacity": (capacity_name,)})

    values = {"cost": list(arrays[cost_name]),
              "supply": list(arrays[supply_name]),
              "capacity": list(arrays[capacity_name]),
              "sources": n_src, "sinks": n_snk}
    spec = {key: values[held] for key, held in flow.spec}
    if disruption is not None:
        record = {key: getattr(disruption, key) for key in flow.record}
        record[flow.affected] = data["affected"]
        spec["disruption"] = record
    return Instance(
        problem_id=problem_id, scale=scale, seed=seed, graph=g,
        binding=binding, space=space, spec=spec,
        oracle_kind="transportation", oracle_note=flow.note,
        params={"data": data, "penalty_weight": weight},
        disruption=disruption)


# ---------------------------------------------------------------------------
# P4: physician deficit, Pattern B
# ---------------------------------------------------------------------------

def _gen_p4(scale: str, seed: int, drop_properties: tuple) -> Instance:
    n_countries, k = (25, 6) if scale == "small" else (40, 5)
    beta = P4_BETA
    threshold = PHYSICIAN_DENSITY_THRESHOLD
    rng = SeededRng(seed, stream=4)

    # healthy by construction wherever the seed lands: two countries per
    # region sit below the threshold at one shared deficit (smaller than
    # the diversity bonus), the rest sit above.  Densities straddle the
    # threshold and every region stays reachable.
    n_below = 2 * len(WHO_REGIONS)
    shared_deficit = round(6.0 + 3.5 * rng.u01(), 1)
    order = list(range(n_countries))
    rng.shuffle(order)
    densities = [0.0] * n_countries
    regions = [""] * n_countries
    for pos, idx in enumerate(order):
        if pos < n_below:
            densities[idx] = round(threshold - shared_deficit, 1)
            regions[idx] = WHO_REGIONS[pos % len(WHO_REGIONS)]
        else:
            densities[idx] = round(24.0 + 56.0 * rng.u01(), 1)
            regions[idx] = WHO_REGIONS[rng.integer(0, len(WHO_REGIONS))]

    g = PropertyGraph()
    names = [f"COUNTRY-{i:02d}" for i in range(n_countries)]
    for i in range(n_countries):
        props = {"name": names[i], "who_region": regions[i],
                 "physician_density": densities[i]}
        for dropped in drop_properties:
            props.pop(dropped, None)
        g.add_node({"Country"}, props)
    g.freeze()

    arrays, missing, provenance = _materialize_props(
        g, "Country",
        {"densities": "physician_density", "regions": "who_region"})

    space = selection_space(k, n_countries)
    deficits = [max(threshold - v, 0.0) if v is not None else 0.0
                for v in arrays["densities"]]
    codes = _bucket_codes(arrays["regions"])
    binding = PatternBBinding(
        space=space, arrays=arrays,
        terms=_sum_plus_diversity_terms(deficits, codes, beta),
        provenance=provenance, missing_counts=missing, memoize=True,
        term_sources={"deficit_coverage": ("densities",),
                      "region_diversity": ("regions",)})

    spec = {
        "names": names,
        "regions": [regions[i] if "who_region" not in drop_properties else None
                    for i in range(n_countries)],
        "densities": densities,
        "threshold": int(threshold),
        "k": k,
    }
    return Instance(
        problem_id="P4", scale=scale, seed=seed, graph=g, binding=binding,
        space=space, spec=spec, oracle_kind="brute_force",
        oracle_note="discrete selection; oracle-comparable, gap >= 1",
        params={"beta": beta, "threshold": threshold,
                "drop_properties": drop_properties})


# ---------------------------------------------------------------------------
# P5: dispatch, Pattern B, merit-order oracle in linear mode
# ---------------------------------------------------------------------------

def _gen_p5(scale: str, seed: int, drop_properties: tuple,
            mode: str = "linear") -> Instance:
    n_gen, n_hours = (4, 24) if scale == "small" else (6, 48)
    rng = SeededRng(seed, stream=5)

    cost_rate = np.array([20.0 + 40.0 * rng.u01() for _ in range(n_gen)])
    emission_rate = np.array([0.3 + 0.9 * rng.u01() for _ in range(n_gen)])
    max_out = np.array([100.0 + 200.0 * rng.u01() for _ in range(n_gen)])
    min_out = 0.08 * max_out
    ramp = 0.25 * max_out

    phase = rng.u01() * 2.0 * math.pi
    raw = np.array([
        0.75 + 0.25 * math.sin(2.0 * math.pi * h / n_hours - phase)
        + 0.05 * rng.u01()
        for h in range(n_hours)])
    lo = 1.25 * float(min_out.sum())
    hi = 0.85 * float(max_out.sum())
    demand = lo + (raw - raw.min()) * (hi - lo) / (raw.max() - raw.min())

    g = PropertyGraph()
    for i in range(n_gen):
        g.add_node({"Generator"}, {
            "name": f"GEN-{i}", "cost_rate": float(cost_rate[i]),
            "emission_rate": float(emission_rate[i]),
            "min_out": float(min_out[i]), "max_out": float(max_out[i]),
            "ramp": float(ramp[i])})
    for h in range(n_hours):
        g.add_node({"Hour"}, {"index": h, "demand": float(demand[h])})
    g.freeze()

    arrays, missing, provenance = _materialize_props(
        g, "Generator",
        {"cost_rate": "cost_rate", "emission_rate": "emission_rate",
         "min_out": "min_out", "max_out": "max_out", "ramp": "ramp"})
    h_arrays, h_missing, h_prov = _materialize_props(
        g, "Hour", {"demand": "demand"}, )
    arrays = {**arrays, **h_arrays}
    missing = {**missing, **h_missing}
    provenance = provenance + h_prov

    space = continuous_space(np.repeat(min_out, n_hours),
                             np.repeat(max_out, n_hours))
    w_e = P5_EMISSION_WEIGHT
    eff = cost_rate + w_e * emission_rate
    weight = PENALTY_SCALE * float(eff.mean())

    def terms(X: np.ndarray) -> np.ndarray:
        m = X.shape[0]
        out = X.reshape(m, n_gen, n_hours)
        per_gen = out.sum(axis=2)
        cost = (per_gen * cost_rate).sum(axis=1)
        if mode == "linear":
            emission = w_e * (per_gen * emission_rate).sum(axis=1)
        else:
            # quadratic emissions: output near capacity pollutes
            # disproportionately; no exact reference exists for this mode
            emission = w_e * (emission_rate[:, None] * out * out
                              / max_out[:, None]).reshape(m, -1).sum(axis=1)
        balance = np.abs(out.sum(axis=1) - demand).sum(axis=1)
        ramp_over = np.maximum(np.abs(np.diff(out, axis=2)) - ramp[:, None],
                               0.0).reshape(m, -1).sum(axis=1)
        return _columns(cost, emission, balance, ramp_over)

    binding = PatternBBinding(
        space=space, arrays=arrays, terms=terms,
        penalty_weights={"balance": weight, "ramp": weight},
        provenance=provenance, missing_counts=missing,
        term_sources={"fuel_cost": ("cost_rate",),
                      "emission_penalty": ("emission_rate", "max_out"),
                      "balance": ("demand",),
                      "ramp": ("ramp",)})

    dispatch = DispatchInstance(
        cost_rate=cost_rate, emission_rate=emission_rate, min_out=min_out,
        max_out=max_out, ramp=ramp, demand=demand)

    spec = {
        "n_generators": n_gen,
        "n_hours": n_hours,
        "cost_rate": [float(v) for v in cost_rate],
        "emission_rate": [float(v) for v in emission_rate],
        "min_out": [float(v) for v in min_out],
        "max_out": [float(v) for v in max_out],
        "ramp": [float(v) for v in ramp],
        "demand": [float(v) for v in demand],
        "emission_weight": w_e,
    }
    oracle_kind = "merit_order" if mode == "linear" else None
    note = ("soft-penalty comparison: oracle relaxes ramps and enforces "
            "hourly balance exactly" if mode == "linear"
            else "no oracle (non-linear emission mode)")
    return Instance(
        problem_id="P5", scale=scale, seed=seed, graph=g, binding=binding,
        space=space, spec=spec, oracle_kind=oracle_kind, oracle_note=note,
        params={"mode": mode, "dispatch": dispatch,
                "emission_weight": w_e, "penalty_weight": weight})


# ---------------------------------------------------------------------------
# P6: antibiotic subclasses, Pattern B
# ---------------------------------------------------------------------------

def _gen_p6(scale: str, seed: int, drop_properties: tuple) -> Instance:
    n_sub, n_path, k = (15, 12, 4) if scale == "small" else (25, 20, 5)
    lam = P6_LAMBDA
    rng = SeededRng(seed, stream=6)

    counts = [[rng.integer(0, 7) for _ in range(n_path)] for _ in range(n_sub)]
    burden = [sum(row) for row in counts]
    sub_names = [f"SUBCLASS-{i:02d}" for i in range(n_sub)]
    path_names = [f"PATHOGEN-{i:02d}" for i in range(n_path)]

    g = PropertyGraph()
    for i in range(n_sub):
        g.add_node({"Subclass"}, {"name": sub_names[i],
                                  "resistance_counts": counts[i],
                                  "burden": burden[i]})
    path_ids = [g.add_node({"Pathogen"}, {"name": p}) for p in path_names]
    for i in range(n_sub):
        for j in range(n_path):
            if counts[i][j] > 0:
                g.add_edge(i, "RESISTS", path_ids[j],
                           {"count": counts[i][j]})
    g.freeze()

    arrays, missing, provenance = _materialize_props(
        g, "Subclass",
        {"resistance_counts": "resistance_counts", "burden": "burden"})

    space = selection_space(k, n_sub)
    count_matrix = np.array([list(row) for row in arrays["resistance_counts"]],
                            dtype=np.float64)
    efficacy = 1.0 / (1.0 + count_matrix)
    burden_arr = np.array(arrays["burden"], dtype=np.float64)

    # the state: each row's best efficacy per pathogen, and its load, a
    # running sum of burdens (integers, so exact)
    load = sum_fold(burden_arr[:, None])

    def step(state: tuple, col: np.ndarray) -> tuple:
        np.maximum(state[0], efficacy[col], out=state[0])
        load.step(state[1:], col)
        return state

    # a max over axis 0 of the (j, m, pathogens) gather runs along whole
    # rows, faster than over axis 1 of (m, j, pathogens), and gives the
    # same array, so the pathogen sums keep their bits
    terms = Fold(lambda cols: (efficacy[cols].max(axis=0), *load.first(cols)), step,
                 lambda state: _columns(-state[0].sum(axis=1), lam * state[1]))
    binding = PatternBBinding(
        space=space, arrays=arrays, terms=terms,
        provenance=provenance, missing_counts=missing, memoize=True,
        term_sources={"pathogen_coverage": ("resistance_counts",),
                      "resistance_burden": ("burden",)})

    spec = {
        "subclasses": sub_names,
        "pathogens": path_names,
        "resistance_counts": [v for row in counts for v in row],
        "burden": burden,
        "k": k,
    }
    return Instance(
        problem_id="P6", scale=scale, seed=seed, graph=g, binding=binding,
        space=space, spec=spec, oracle_kind="brute_force",
        oracle_note="discrete selection; oracle-comparable, gap >= 1",
        params={"lambda": lam, "efficacy": efficacy})


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

_GENERATORS = {
    "P1": _gen_p1, "P2": _gen_p2, "P3": functools.partial(_gen_flow, "P3"),
    "P4": _gen_p4, "P5": _gen_p5, "P6": _gen_p6,
    "P7": functools.partial(_gen_flow, "P7"),
}


def check_instance_args(problem_id: str, scale: str, p5_mode: str) -> None:
    """ValueError for an unknown problem id, scale or P5 mode (in that
    order): ``generate``'s argument rules, which a bench config checks
    before any instance is built."""
    if problem_id not in PROBLEM_IDS:
        raise ValueError(f"unknown problem id {problem_id!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    if p5_mode not in P5_MODES:
        raise ValueError(f"unknown P5 mode {p5_mode!r}")


class PropertyNotDroppable(ValueError):
    """``generate`` was asked to drop a property its problem cannot remove."""


# the node properties each generator leaves out when asked to drop them
DROPPABLE_PROPERTIES = {
    "P1": ("name", "side_effect_count"),
    "P2": ("name", "country", "who_region", "trial_count"),
    "P3": (),
    "P4": ("name", "who_region", "physician_density"),
    "P5": (),
    "P6": (),
    "P7": (),
}


def generate(problem_id: str, scale: str = "small", seed: int = 0, *,
             drop_properties: Iterable[str] = (),
             p5_mode: str = "linear") -> Instance:
    """Build a problem instance; identical inputs give identical bytes.

    drop_properties removes the named node properties at generation
    time (the data-quality degradation the degeneracy detector is for);
    the spec then lists the requested names, sorted, under
    ``dropped_properties``.  A name outside the problem's
    ``DROPPABLE_PROPERTIES`` raises ``PropertyNotDroppable`` (a
    ``ValueError``): only P1, P2 and P4 can remove any property.
    """
    problem_id = problem_id.upper()
    check_instance_args(problem_id, scale, p5_mode)
    drop = tuple(drop_properties)
    droppable = DROPPABLE_PROPERTIES[problem_id]
    for name in drop:
        if name not in droppable:
            raise PropertyNotDroppable(
                f"{problem_id} cannot drop node property {name!r} "
                f"(droppable: {', '.join(droppable) or 'none'})")
    if problem_id == "P5":
        instance = _gen_p5(scale, seed, drop, mode=p5_mode)
    else:
        instance = _GENERATORS[problem_id](scale, seed, drop)
    if drop:
        # the snapshot of a degraded instance names its degradation
        instance.spec["dropped_properties"] = sorted(set(drop))
    return instance


def fresh_binding(instance: Instance):
    """Counter-clean binding over the same shared graph/arrays.

    Bench cells each own a binding (and its memo table) while the
    underlying graph and materialized arrays stay shared read-only.
    """
    return dataclasses.replace(instance.binding)


def inject_disruption(instance: Instance, dspec: DisruptionSpec) -> Instance:
    """Apply a seeded disruption, rebuilding binding/spec/oracle data.

    A fraction affecting zero entities is a no-op: the instance comes
    back unchanged, with no disruption record.
    """
    flow = _FLOWS.get(instance.problem_id)
    if flow is None or flow.disruption != dspec.mode:
        owner = next(pid for pid, f in _FLOWS.items()
                     if f.disruption == dspec.mode)
        raise ValueError(f"{dspec.mode} applies to {owner} only")
    data = dict(instance.params["data"])
    values = data[flow.target].copy()
    affected = disruption_targets(values.size, dspec.fraction, dspec.seed)
    if not affected:
        return instance
    values.ravel()[affected] *= flow.factor(dspec)  # a view of the copy
    data[flow.target] = values
    data["affected"] = affected
    return _assemble_flow(instance.problem_id, instance.scale, instance.seed,
                          instance.graph, data, dspec)


@dataclass(frozen=True)
class OracleResult:
    kind: str
    optimum: float
    note: str
    solution: object = None


def solve_oracle(instance: Instance) -> Optional[OracleResult]:
    """Exact reference optimum for this instance, or None."""
    kind = instance.oracle_kind
    if kind is None:
        return None
    if kind == "brute_force":
        # a fresh binding over this very instance (degraded data included)
        # keeps the bench binding's counters clean; the sweep visits each
        # subset once, so caching would only burn memory
        binding = dataclasses.replace(instance.binding, memoize=False)
        subset, fit = brute_force_selection(binding)
        return OracleResult(kind, fit.total, instance.oracle_note, subset)
    if kind == "transportation":
        data = instance.params["data"]
        cost, supply, capacity = (data[key]
                                  for key in _FLOWS[instance.problem_id].data)
        solution, optimum = solve_transportation(TransportationInstance(
            cost=cost, supply=supply, capacity=capacity))
        return OracleResult(kind, optimum, instance.oracle_note, solution)
    if kind == "merit_order":
        dispatch = instance.params["dispatch"]
        schedule, cost = merit_order_dispatch(
            dispatch, instance.params["emission_weight"])
        return OracleResult(kind, cost, instance.oracle_note, schedule)
    raise ValueError(f"unknown oracle kind {kind!r}")


def gap_ratio(best_total: float, oracle_total: float) -> Optional[float]:
    """Oracle-relative gap: 1.0 is a hit, a best at or above the
    optimum reads >= 1, and a larger best never reads a smaller gap.
    Totals of one sign compare as a ratio, flipped for negative totals
    (negated maximization problems).  Against a negative optimum a best
    of 0 or above reads inf, the limit of optimum / best as best rises
    to 0; against a positive one a best of 0 or below reads
    1 + (best - oracle) / oracle, which is best / oracle."""
    if oracle_total == 0:
        return None
    if oracle_total < 0:
        return oracle_total / best_total if best_total < 0 else math.inf
    if best_total <= 0:
        return 1.0 + (best_total - oracle_total) / abs(oracle_total)
    return best_total / oracle_total


# ---------------------------------------------------------------------------
# degeneracy detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermStats:
    name: str
    kind: str          # 'objective' | 'violation'
    minimum: float
    maximum: float
    variance: float
    missing_property_count: int
    flagged: bool      # constant across every sample


@dataclass(frozen=True)
class DegeneracyReport:
    problem_id: str
    samples: int
    terms: tuple[TermStats, ...]

    @property
    def flagged_terms(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms if t.flagged)


def detect_degenerate_terms(instance: Instance, samples: int = 200,
                            seed: int = 0) -> DegeneracyReport:
    """Score random in-bounds vectors, in one ``terms`` call of the
    decoded block, and flag constant fitness terms.

    A term whose value never moves across the sample (max == min) is
    degenerate: it cannot steer the search, typically because the
    property feeding it is missing and every candidate collapses into
    the same bucket.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    space = instance.space
    # coordinate j of sample i is draw i * dim + j of stream 2001
    draws = LaneRng(seed, 1, stream_offset=2001).uniform_block(
        samples * space.dim).reshape(samples, space.dim)
    # a fresh binding leaves the instance's counters and memo untouched
    binding = fresh_binding(instance)
    columns = binding.term_columns(space.lower + (space.upper - space.lower)
                                   * draws)
    missing = _term_missing_counts(binding)
    terms = []
    for name, kind, arr in columns:
        terms.append(TermStats(
            name=name, kind=kind,
            minimum=float(arr.min()), maximum=float(arr.max()),
            variance=float(arr.var()),
            missing_property_count=missing.get(name, 0),
            flagged=bool(arr.max() == arr.min())))
    return DegeneracyReport(problem_id=instance.problem_id, samples=samples,
                            terms=tuple(terms))


def _term_missing_counts(binding) -> dict[str, int]:
    counts = binding.missing_counts
    return {term: sum(counts.get(a, 0) for a in arrays)
            for term, arrays in binding.term_sources.items()}
