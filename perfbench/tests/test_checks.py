"""Each check of the benchmark can fail: small fakes with a wrong oracle
value, a wrong total or a rising curve must be reported.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks, references

# four sites, pick two; regions come from the country names
SPEC = {"facilities": ["S0", "S1", "S2", "S3"],
        "countries": ["AFR-C0", "AFR-C1", "EUR-C0", "AMR-C2"],
        "trial_counts": [100, 90, 40, 30], "k": 2}


def _by_hand(spec, dropped=()):
    """Every pair scored from the problem statement with plain loops."""
    best = None
    for pair in combinations(range(len(spec["facilities"])), spec["k"]):
        counts = 0 if "trial_count" in dropped else sum(spec["trial_counts"][i] for i in pair)
        regions = {spec["countries"][i].split("-")[0] for i in pair}
        total = -counts - 10.0 * (1 if "who_region" in dropped else len(regions))
        best = total if best is None else min(best, total)
    return best


class FakeBinding:
    def __init__(self, total):
        self.total = total

    def evaluate(self, x):
        return SimpleNamespace(total=self.total)


def _run(curve, best_x=(0.5, 1.5), evaluations=4 * 3):
    curve = np.asarray(curve, dtype=np.float64)
    return SimpleNamespace(curve=curve, best_total=float(curve[-1]),
                           best_x=np.asarray(best_x), evaluations=evaluations)


SPACE = SimpleNamespace(lower=np.zeros(2), upper=np.full(2, 4 - 1e-6))


def test_selection_reference_matches_hand_enumeration():
    for dropped in ((), ("trial_count",), ("who_region",)):
        model = references.selection_model("P2", SPEC, dropped)
        assert references.selection_optimum(model)[0] == _by_hand(SPEC, dropped)
    assert references.selection_optimum(references.selection_model("P2", SPEC)) == (-200.0, (0, 1))


def test_decode_moves_repeats_cyclically():
    assert references.decode([3.9, 3.2, 0.1], 4) == [3, 0, 1]
    assert references.decode([-0.5, 9.0], 4) == [0, 3]


def test_wrong_oracle_value_is_reported():
    assert checks.oracle_value("P2", -200.0, -200.0, selection=True) == []
    assert checks.oracle_value("P2", -190.0, -200.0, selection=True)
    assert checks.oracle_value("P3", 1000.0005, 1000.0, selection=False) == []
    assert checks.oracle_value("P3", 1000.01, 1000.0, selection=False)


def test_wrong_total_is_reported():
    model = references.selection_model("P2", SPEC)
    good = _run([-150.0, -200.0])          # x decodes to sites 0 and 1
    assert checks.selection_run("run", good, model, -200.0) == []
    wrong = _run([-150.0, -201.0])
    found = checks.selection_run("run", wrong, model, -200.0)
    assert any("below the exact optimum" in f for f in found)
    assert any("re-scores" in f for f in found)
    assert checks.run_properties("run", good, SPACE, 4, 2, "jaya", FakeBinding(-200.0)) == []
    found = checks.run_properties("run", good, SPACE, 4, 2, "jaya", FakeBinding(-199.0))
    assert any("fresh binding" in f for f in found)


def test_non_monotone_curve_is_reported():
    run = _run([-150.0, -120.0], evaluations=13)
    found = checks.run_properties("run", run, SPACE, 4, 2, "jaya", FakeBinding(-120.0))
    assert any("curve rises" in f for f in found)
    assert any("evaluations" in f for f in found)


def test_evaluation_count_and_box():
    ok = _run([-1.0, -2.0], evaluations=4 * 3 + 4)
    assert checks.run_properties("run", ok, SPACE, 4, 2, "qo_rao", FakeBinding(-2.0)) == []
    assert checks.run_properties("run", ok, SPACE, 4, 2, "jaya", FakeBinding(-2.0))
    outside = _run([-1.0, -2.0], best_x=(0.5, 4.0))
    found = checks.run_properties("run", outside, SPACE, 4, 2, "jaya", FakeBinding(-2.0))
    assert found == ["run: best_x lies outside the box"]


def test_holm_and_results_csv_are_checked():
    assert checks.holm([0.01, 0.04, 0.03]) == [0.03, 0.06, 0.06]
    comp = SimpleNamespace(winner="A", other="B", p_raw=0.01, p_holm=0.03)
    other = SimpleNamespace(winner="A", other="C", p_raw=0.04, p_holm=0.05)
    summary = SimpleNamespace(verdicts=[SimpleNamespace(problem="P2", comparisons=[comp, other])])
    assert len(checks.holm_adjustment(summary)) == 2
    cell = SimpleNamespace(problem="P2", variant="Jaya", seed=7,
                           run=SimpleNamespace(best_total=-200.0))
    text = "problem,solver,seed,fitness\nP2,Jaya,7,-200.0\n"
    assert checks.results_csv(text, [cell]) == []
    assert checks.results_csv(text.replace("-200.0", "-199.0"), [cell])


def test_gap_is_one_at_the_optimum_and_positive_near_zero():
    assert checks.gap(150.0, 100.0) == 1.5
    assert checks.gap(-200.0, -200.0) == 1.0
    assert checks.gap(0.87, -0.03) > 1.0


def test_lp_references():
    # two sources, two sinks: the cheap sink holds only 3 of the 5 units
    assert references.transportation_optimum([1.0, 4.0, 1.0, 4.0], [2.0, 3.0],
                                              [3.0, 10.0]) == pytest.approx(3 * 1 + 2 * 4)
    spec = {"n_generators": 2, "n_hours": 2, "cost_rate": [10.0, 20.0],
            "emission_rate": [1.0, 0.0], "emission_weight": 5.0,
            "min_out": [1.0, 1.0], "max_out": [5.0, 5.0], "demand": [4.0, 8.0]}
    # effective rates 15 and 20: fill the first generator, then the second
    assert references.relaxed_dispatch_optimum(spec) == pytest.approx(
        15 * 3 + 20 * 1 + 15 * 5 + 20 * 3)
