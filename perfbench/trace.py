"""Layer timing from outside graphopt.

The tracer replaces public functions and methods of graphopt at the
names their callers look up (``graphopt.problems.execute`` is the name
Pattern A bindings call, ``graphopt.suite.decode_selection`` the one the
selection fitness functions call) with wrappers that time each call.
Nothing in the package changes; ``uninstall`` puts every original back.

Per-evaluation layers are called millions of times per round, so their
calls are summed in memory per (phase, layer): calls, time, time spent in
nested traced calls, and an item count.  Calls of the coarse layers (a
solver run, an oracle, a generator, a bench phase) are also kept as
spans: name, round, phase, start, end and the enclosing traced call.
Both are written out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

# (layer, module, class or None, attribute)
TARGETS = (
    ("rng.uniform_block", "graphopt.rng", "LaneRng", "uniform_block"),
    ("solvers.run", "graphopt.solvers", None, "run"),
    ("problems.evaluate", "graphopt.problems", "PatternABinding", "evaluate"),
    ("problems.evaluate", "graphopt.problems", "PatternBBinding", "evaluate"),
    ("problems.assemble_fitness", "graphopt.problems", None, "assemble_fitness"),
    ("problems.decode_selection", "graphopt.problems", None, "decode_selection"),
    ("problems.decode_selection", "graphopt.suite", None, "decode_selection"),
    ("querylang.substitute", "graphopt.problems", None, "substitute"),
    ("querylang.execute", "graphopt.problems", None, "execute"),
    ("graph.shortest_paths", "graphopt.graph", "PropertyGraph", "shortest_paths"),
    ("suite.generate", "graphopt.suite", None, "generate"),
    ("suite.generate", "graphopt.bench", None, "generate"),
    ("suite.solve_oracle", "graphopt.suite", None, "solve_oracle"),
    ("suite.solve_oracle", "graphopt.bench", None, "solve_oracle"),
    ("oracles.brute_force", "graphopt.suite", None, "brute_force_selection"),
    ("oracles.transportation", "graphopt.suite", None, "solve_transportation"),
    ("oracles.merit_order", "graphopt.suite", None, "merit_order_dispatch"),
    ("suite.degeneracy", "graphopt.bench", None, "detect_degenerate_terms"),
    ("stats.summary", "graphopt.bench", None, "build_summary"),
    ("bench.run_matrix", "graphopt.bench", None, "run_matrix"),
    ("bench.emit_report", "graphopt.bench", None, "emit_report"),
)

# layers called per evaluation: summed only, never kept as spans
FINE = frozenset({
    "rng.uniform_block", "problems.evaluate", "problems.assemble_fitness",
    "problems.decode_selection", "problems.fitness_fn", "querylang.substitute",
    "querylang.execute",
})


def _doubles(args, result) -> int:
    return int(result.size)


def _subsets(args, result) -> int:
    binding = args[0]
    space = args[1] if len(args) > 1 and args[1] is not None else binding.space
    return math.comb(space.n_candidates, space.k)


ITEMS = {"rng.uniform_block": _doubles, "oracles.brute_force": _subsets}


class Tracer:
    """Wraps the layers named in ``layers`` (all of ``TARGETS`` by default).

    ``phase`` and ``round`` label what the benchmark is doing; the
    benchmark sets them.  ``take()`` returns the sums since the last call
    and starts new ones.
    """

    def __init__(self, layers=None):
        self.layers = layers
        self.phase = "setup"
        self.round = 0
        self.sums = self._new_sums()
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    @staticmethod
    def _new_sums():
        return defaultdict(lambda: [0, 0, 0, 0])  # calls, ns, nested ns, items

    def take(self) -> dict:
        sums, self.sums = self.sums, self._new_sums()
        return dict(sums)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        keep = layer not in FINE
        items = ITEMS.get(layer)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                entry = self.sums[(self.phase, layer)]
                entry[0] += 1
                entry[1] += took
                entry[2] += frame[1]
                if keep:
                    self.spans.append((layer, self.round, self.phase, start, end,
                                       stack[-1][0] if stack else None))
            if items is not None:
                entry[3] += items(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, layer: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original))

    def install(self, bindings=()) -> list[str]:
        """Wrap every target that exists; returns the layers not found.

        ``bindings`` are binding objects whose ``fitness_fn`` field is
        wrapped too; bindings copied from them afterwards inherit it.
        """
        missing = []
        for layer, module_name, cls, attr in TARGETS:
            if self.layers is not None and layer not in self.layers:
                continue
            owner = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None or attr not in vars(owner):
                missing.append(f"{module_name}.{cls + '.' if cls else ''}{attr}")
                continue
            self._patch(owner, attr, layer)
        if self.layers is None:
            self._install_pool()
            for binding in bindings:
                if callable(getattr(binding, "fitness_fn", None)):
                    self._patch(binding, "fitness_fn", "problems.fitness_fn")
        return missing

    def _install_pool(self) -> None:
        """Time the process pool of ``run_matrix`` from entry to shutdown."""
        bench = importlib.import_module("graphopt.bench")
        base = getattr(bench, "ProcessPoolExecutor", None)
        if base is None:
            return
        tracer = self

        class TimedPool(base):
            def __enter__(self):
                self._entered = time.perf_counter_ns()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    entry = tracer.sums[(tracer.phase, "bench.pool")]
                    entry[0] += 1
                    entry[1] += time.perf_counter_ns() - self._entered

        self._saved.append((bench, "ProcessPoolExecutor", base))
        bench.ProcessPoolExecutor = TimedPool

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path, extra: dict) -> None:
        spans = [{"name": n, "round": r, "phase": p, "start_ns": s, "end_ns": e,
                  "parent": parent} for n, r, p, s, e, parent in self.spans]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({**extra, "spans": spans}, out, indent=1)
            out.write("\n")


def total(sums: dict, layer: str, phases, field: int = 1) -> int:
    """One field of a layer's sums over the given phases."""
    return sum(entry[field] for (phase, name), entry in sums.items()
               if name == layer and phase in phases)
