"""graphopt: property-graph-grounded optimization.

Problems are stored as labeled property graphs; objective and
constraint data are pulled out of the graph by a small query language,
either per evaluation (with memoization) or once at startup into flat
arrays.  A portfolio of Rao-family metaheuristics minimizes the
resulting fitness, exact oracles certify the solvable problems, and a
seeded benchmark harness compares solver variants statistically.
"""

__version__ = "0.1.0"

from . import bench, graph, oracles, problems, querylang, rng, solvers
from . import stats, suite
from .bench import BenchConfig, BenchReport, emit_report, run_matrix
from .graph import PropertyGraph
from .oracles import (DispatchInstance, InfeasibleDispatch,
                      InfeasibleTransport, OracleTooLarge,
                      TransportationInstance, brute_force_selection,
                      merit_order_dispatch, solve_transportation)
from .problems import (DecisionSpace, Fitness, PatternABinding,
                       PatternBBinding, decode_selection)
from .rng import LaneRng, SeededRng
from .solvers import VARIANTS, RunResult, SolverConfig, run, run_group
from .stats import build_summary, holm, wilcoxon_signed_rank
from .suite import (PROBLEM_IDS, DisruptionSpec, Instance,
                    detect_degenerate_terms, generate, inject_disruption,
                    solve_oracle)

__all__ = [
    "BenchConfig", "BenchReport", "DecisionSpace", "DispatchInstance",
    "DisruptionSpec", "Fitness", "InfeasibleDispatch",
    "InfeasibleTransport", "Instance", "LaneRng", "OracleTooLarge",
    "PROBLEM_IDS", "PatternABinding", "PatternBBinding", "PropertyGraph",
    "RunResult", "SeededRng", "SolverConfig", "TransportationInstance",
    "VARIANTS", "__version__", "bench", "brute_force_selection",
    "build_summary", "decode_selection", "detect_degenerate_terms",
    "emit_report", "generate", "graph", "holm", "inject_disruption",
    "merit_order_dispatch", "oracles", "problems", "querylang", "rng",
    "run", "run_group", "run_matrix", "solve_oracle", "solve_transportation",
    "solvers", "stats", "suite", "wilcoxon_signed_rank",
]
